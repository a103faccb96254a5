//! `perfbench`: one workload of the repository benchmark per process.
//!
//! ```text
//! perfbench --workload compile|execute|serve --seed N --seconds S [--trace] [--setup-only] [--pauses N] [--spans FILE]
//! ```
//!
//! The process builds the workload's seeded op list, sets it up, runs it
//! (unless `--setup-only`), checks every op's output and prints one JSON
//! object as its last line of standard output.  `perfbench/run.py` drives
//! it, combines several processes and prints the benchmark's result.
//! See `perfbench/README.md` for the workloads and metrics.

mod compile;
mod execute;
mod plan;
mod reference;
mod serve;
mod spans;
mod stats;

use rcp_json::Json;
use spans::Recorder;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

/// Threads the executor runs on in `compile` and `execute`, and the
/// number of rcpd workers and client connections in `serve`.
pub const THREADS: usize = 2;

/// One timed op: the class it belongs to, its latency and whether its
/// output checked out.
#[derive(Clone, Debug)]
pub struct Sample {
    pub class: String,
    pub ms: f64,
    pub ok: bool,
}

/// A finished workload run.
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Checked ops outside the end-to-end statistics: the parallel pass of
    /// a traced `execute` run.  They count in `attempted` and `failed`.
    pub untimed: Vec<Sample>,
    /// The denominator of `ops_per_s`: the summed op time for the
    /// one-at-a-time workloads, the wall clock of the phase for `serve`.
    pub timed_s: f64,
    /// Per-layer metrics (traced runs only): name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Counts that must repeat exactly for a given seed.
    pub counts: Vec<(String, u64)>,
}

/// Points between the timed ops of `compile` and `execute` where the run
/// hands control to `run.py`, which times a set-up in a fresh process
/// meanwhile, so a run's set-up samples spread over the whole run instead
/// of bunching before and after it.  At each point the process prints
/// `pause` and waits for a line on standard input; the wait falls outside
/// every op's latency.
#[derive(Clone, Copy, Default)]
pub struct Pauses(pub usize);

impl Pauses {
    /// Whether op `k` of `total` is one of the evenly spaced points.
    fn at(self, k: usize, total: usize) -> bool {
        let parts = self.0 + 1;
        0 < k && k < total && k * parts / total != (k - 1) * parts / total
    }

    /// Pauses before op `k` of `total` if it is one of the points.
    pub fn before_op(self, k: usize, total: usize) {
        if !self.at(k, total) {
            return;
        }
        println!("pause");
        let _ = std::io::stdout().flush();
        let _ = std::io::stdin().lock().read_line(&mut String::new());
    }
}

/// A metric failure that makes the whole run invalid: a class the
/// workload relies on saw no events.
pub fn require(what: &str, n: u64) -> Result<(), String> {
    if n == 0 {
        Err(format!("empty class: {what} saw no events"))
    } else {
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    pauses: Pauses,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
        pauses: Pauses::default(),
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--pauses" => {
                args.pauses = Pauses(value()?.parse().map_err(|e| format!("--pauses: {e}"))?)
            }
            "--spans" => args.spans = Some(value()?),
            "--trace" => args.trace = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=plan::MAX_SECONDS).contains(&args.seconds) {
        return Err(format!(
            "--seconds must be from 1 to {}: longer runs need more fresh serve \
             bindings than the sweeps in plan.rs hold",
            plan::MAX_SECONDS
        ));
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<Json, String> {
    let start = Instant::now();
    let mut rec = Recorder::new(args.trace);
    let outcome = match args.workload.as_str() {
        "compile" => {
            let prepared = compile::setup(args.seed, args.seconds);
            let setup = Setup::done(start);
            if args.setup_only {
                return Ok(setup.json());
            }
            (setup, compile::run(&prepared, &mut rec, args.pauses)?)
        }
        "execute" => {
            let prepared = execute::setup(args.seed, args.seconds)?;
            let setup = Setup::done(start);
            if args.setup_only {
                return Ok(setup.json());
            }
            (setup, execute::run(&prepared, &mut rec, args.pauses)?)
        }
        "serve" => {
            let prepared = serve::setup(args.seed, args.seconds)?;
            let setup = Setup::done(start);
            if args.setup_only {
                prepared.stop();
                return Ok(setup.json());
            }
            (setup, serve::run(prepared, &mut rec)?)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (compile, execute or serve)"
            ))
        }
    };
    let (setup, outcome) = outcome;
    if let Some(path) = &args.spans {
        rec.write_jsonl(path)
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
    }
    Ok(report(&args.workload, &setup, &outcome, &rec))
}

/// The end of set-up: its duration, and the peak resident set so far, so
/// the harness's share of `peak_rss_mb` is known.
struct Setup {
    seconds: f64,
    peak_rss_mb: f64,
}

impl Setup {
    fn done(start: Instant) -> Setup {
        Setup {
            seconds: start.elapsed().as_secs_f64(),
            peak_rss_mb: peak_rss_mb(),
        }
    }

    fn json(&self) -> Json {
        Json::Object(vec![("setup_s".to_string(), Json::Float(self.seconds))])
    }
}

fn report(workload: &str, setup: &Setup, outcome: &Outcome, rec: &Recorder) -> Json {
    let latencies: Vec<(f64, &str)> = outcome
        .samples
        .iter()
        .map(|s| (s.ms, s.class.as_str()))
        .collect();
    let p50 = stats::rank(&latencies, stats::median_rank(latencies.len()));
    let tail_rank = stats::tail_rank(latencies.len());
    let tail = stats::rank(&latencies, tail_rank);
    let tail_pct = 100.0 * (tail_rank + 1) as f64 / latencies.len() as f64;
    let checked = outcome.samples.iter().chain(&outcome.untimed);
    let attempted = checked.clone().count();
    let failed = checked.filter(|s| !s.ok).count();
    if rec.on() {
        println!("per-layer metrics ({workload}, traced):");
        for (name, value, unit) in &outcome.layers {
            println!("  {name:<36} {value:>14.6} {unit}");
        }
        println!("span self time ({workload}):");
        for row in rec.self_times() {
            println!(
                "  {:<36} {:>7} spans {:>12.3} ms self {:>12.3} ms total",
                row.name, row.count, row.self_ms, row.total_ms
            );
        }
    }
    let mut classes: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (ms, class) in &latencies {
        classes.entry(class).or_default().push(*ms);
    }
    let mut rows: Vec<(f64, &str, usize)> = classes
        .iter()
        .map(|(class, ms)| (stats::median(ms), *class, ms.len()))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (ms, class, n) in rows {
        println!("  class {class:<24} {n:>6} ops, median {ms:>10.4} ms");
    }
    let peak_rss = peak_rss_mb();
    println!(
        "{workload}: {} ops, p50 {:.4} ms ({}), tail p{:.2} {:.4} ms ({}), {} failed, \
         peak RSS {:.1} MiB ({:.1} MiB at the end of set-up)",
        latencies.len(),
        p50.0,
        p50.1,
        tail_pct,
        tail.0,
        tail.1,
        failed,
        peak_rss,
        setup.peak_rss_mb
    );
    let obj = |pairs: Vec<(String, Json)>| Json::Object(pairs);
    obj(vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("attempted".to_string(), Json::Int(attempted as i64)),
        ("failed".to_string(), Json::Int(failed as i64)),
        ("setup_s".to_string(), Json::Float(setup.seconds)),
        (
            "ops_per_s".to_string(),
            Json::Float(latencies.len() as f64 / outcome.timed_s),
        ),
        ("latency_p50_ms".to_string(), Json::Float(p50.0)),
        ("p50_class".to_string(), Json::Str(p50.1.to_string())),
        ("latency_tail_ms".to_string(), Json::Float(tail.0)),
        ("tail_percentile".to_string(), Json::Float(tail_pct)),
        ("tail_class".to_string(), Json::Str(tail.1.to_string())),
        ("peak_rss_mb".to_string(), Json::Float(peak_rss)),
        (
            "setup_peak_rss_mb".to_string(),
            Json::Float(setup.peak_rss_mb),
        ),
        (
            "layers".to_string(),
            obj(outcome
                .layers
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("value".to_string(), Json::Float(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect()),
        ),
        (
            "counts".to_string(),
            obj(outcome
                .counts
                .iter()
                .map(|(name, n)| (name.clone(), Json::Int(*n as i64)))
                .collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Workloads read process-global counters: run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A traced run, so `execute` runs its parallel pass too.
    fn outcome(workload: &str, seed: u64) -> Outcome {
        let mut rec = Recorder::new(true);
        match workload {
            "compile" => compile::run(&compile::setup(seed, 1), &mut rec, Pauses(0)),
            "execute" => execute::run(&execute::setup(seed, 1).unwrap(), &mut rec, Pauses(0)),
            _ => serve::run(serve::setup(seed, 1).unwrap(), &mut rec),
        }
        .unwrap()
    }

    fn failed(outcome: &Outcome) -> usize {
        outcome
            .samples
            .iter()
            .chain(&outcome.untimed)
            .filter(|s| !s.ok)
            .count()
    }

    #[test]
    fn pauses_fall_evenly_between_ops() {
        let at: Vec<usize> = (0..156).filter(|&k| Pauses(8).at(k, 156)).collect();
        assert_eq!(at, [18, 35, 52, 70, 87, 104, 122, 139]);
        assert!((0..156).all(|k| !Pauses(0).at(k, 156)));
    }

    #[test]
    fn deterministic_counts_repeat_for_one_seed() {
        let _guard = serial();
        for workload in ["compile", "execute", "serve"] {
            let (a, b) = (outcome(workload, 5), outcome(workload, 5));
            assert_eq!(failed(&a), 0, "{workload}");
            assert_eq!(a.counts, b.counts, "{workload}");
        }
    }

    #[test]
    fn a_corrupted_reference_counts_as_a_failure() {
        let _guard = serial();
        let mut compile = compile::setup(5, 1);
        compile.corrupt_reference(0);
        let outcome = compile::run(&compile, &mut Recorder::new(false), Pauses(0)).unwrap();
        assert_eq!(failed(&outcome), 1);

        let mut serve = serve::setup(5, 1).unwrap();
        serve.corrupt_expected_body();
        let outcome = serve::run(serve, &mut Recorder::new(false)).unwrap();
        assert_eq!(failed(&outcome), 1);
    }
}
