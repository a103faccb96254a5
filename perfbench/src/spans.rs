//! The benchmark's own span recorder.
//!
//! A traced run opens one span per call into a layer's public function,
//! from the benchmark's code, with its name, start, end, parent and op id.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends.  An untraced recorder records nothing: its calls only run the
//! closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregated self time of one span name.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub self_ms: f64,
    pub total_ms: f64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run: same switch and
    /// epoch, so the spans merge onto one time line.
    pub fn fork(&self) -> Recorder {
        Recorder {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans nest under until [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: usize) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.open.retain(|&k| k != id);
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn call<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let result = f();
        self.end(id);
        result
    }

    /// Renames the most recently opened span (a call whose layer is only
    /// known from its result, such as instantiation versus fallback).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// Mean duration in milliseconds of the spans named `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(ns, n), s| (ns + s.ns(), n + 1));
        crate::stats::ratio(ns as f64 / 1e6, n as f64)
    }

    /// Appends another thread's spans, re-parenting them.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's duration minus the time its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.ns().saturating_sub(*children);
            entry.2 += span.ns();
        }
        by_name
            .into_iter()
            .map(|(name, (count, self_ns, total_ns))| SelfTime {
                name,
                count,
                self_ms: self_ns as f64 / 1e6,
                total_ms: total_ns as f64 / 1e6,
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("op", 0);
        rec.call("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let rows = rec.self_times();
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert!(child.self_ms >= 2.0);
        assert!(op.self_ms < op.total_ms);
        assert!((op.total_ms - op.self_ms - child.total_ms).abs() < 1e-9);

        let mut off = Recorder::new(false);
        assert_eq!(off.call("child", 0, || 7), 7);
        assert!(off.self_times().is_empty());
    }
}
