//! `compile`: one op at a time, each compiling one seeded (program,
//! binding) from scratch the way `rcp run` does, then a verified run.

use crate::plan::{self, CompileOp};
use crate::spans::Recorder;
use crate::stats::ratio;
use crate::{reference, require, Outcome, Pauses, Sample, THREADS};
use rcp_runtime::ArrayStore;
use rcp_session::{Config, Session};
use std::time::Instant;

pub struct Prepared {
    ops: Vec<(CompileOp, &'static str, ArrayStore)>,
}

/// The op list with each op's source and interpreter reference store.
pub fn setup(seed: u64, seconds: u64) -> Prepared {
    let ops = plan::compile_ops(seed, seconds)
        .into_iter()
        .map(|op| {
            let bundled = bundled(op.kernel);
            let want = reference::store(&bundled.program(), &op.values);
            (op, bundled.source, want)
        })
        .collect();
    Prepared { ops }
}

// The compile kernels are bundled by construction (plan.rs names them).
#[allow(clippy::expect_used)]
fn bundled(kernel: &str) -> &'static rcp_workloads::BundledLoop {
    rcp_workloads::bundled_loop(kernel).expect("compile kernels are bundled")
}

/// Per-op counter readings of a traced run.
#[derive(Default)]
struct Counters {
    pairs: u64,
    killed: u64,
    classes: u64,
    emptiness_hits: u64,
    emptiness_lookups: u64,
}

impl Counters {
    fn add(&mut self, delta: &rcp_trace::Snapshot) {
        self.pairs += delta.counter("depend.screen.pairs");
        self.killed +=
            delta.counter("depend.screen.by_gcd") + delta.counter("depend.screen.by_bbox");
        self.classes += delta.counter("depend.screen.classes");
        let hits = delta.counter("presburger.cache.emptiness.hits");
        self.emptiness_hits += hits;
        self.emptiness_lookups += hits + delta.counter("presburger.cache.emptiness.misses");
    }
}

/// One op: a cold compile and a verified run at [`THREADS`] threads.
/// Returns the schedule's parallel output and whether the partition was a
/// symbolic-plan instantiation.
fn compile_op(
    op: &CompileOp,
    source: &str,
    rec: &mut Recorder,
    id: usize,
) -> Result<(rcp_session::Scheduled, bool), String> {
    let session = Session::with_config(Config::new().with_threads(THREADS));
    let program = rec
        .call("lang.parse", id, || rcp_lang::parse_program(source))
        .map_err(|e| e.to_string())?;
    let analyzed = rec
        .call("depend.analyze", id, || session.load(program))
        .map_err(|e| e.to_string())?;
    // A deferred (PARAM-subscript) program has no parameter-free analysis
    // to plan from; its plan is built from the partition stage instead.
    if analyzed.symbolic_analysis().is_some() {
        // `Err(PlanUnavailable)` is a typed verdict, not a failure.
        let _ = rec.call("core.plan", id, || analyzed.plan());
    }
    let stage = rec
        .call("session.partition", id, || {
            analyzed.partition_values(&op.values)
        })
        .map_err(|e| e.to_string())?;
    let instantiated = stage.instantiated();
    rec.rename_last(if instantiated {
        "session.instantiate"
    } else {
        "session.fallback"
    });
    rec.call("core.partition", id, || {
        stage.partition();
    });
    let scheduled = rec
        .call("codegen.schedule", id, || {
            stage.schedule_with("recurrence-chains")
        })
        .map_err(|e| e.to_string())?;
    rec.call("codegen.sequential", id, || {
        scheduled.sequential();
    });
    let verdict = rec.call("runtime.verify", id, || scheduled.verify());
    if !verdict.passed() {
        return Err(format!(
            "verification failed: {} mismatch(es), {} race(s)",
            verdict.mismatches.len(),
            verdict.races.len()
        ));
    }
    Ok((scheduled, instantiated))
}

/// The schedule's parallel output against the interpreter reference.
fn check(scheduled: &rcp_session::Scheduled, want: &ArrayStore) -> Result<(), String> {
    let result = scheduled.execute_checked().map_err(|e| e.to_string())?;
    reference::check(want, &result.store)
}

pub fn run(prepared: &Prepared, rec: &mut Recorder, pauses: Pauses) -> Result<Outcome, String> {
    let mark = rcp_trace::snapshot();
    let mut samples = Vec::new();
    let mut counters = Counters::default();
    let (mut instantiated, mut fallback) = (0u64, 0u64);
    for (id, (op, source, want)) in prepared.ops.iter().enumerate() {
        pauses.before_op(id, prepared.ops.len());
        let start = Instant::now();
        // A fresh process starts with empty solver caches.
        rcp_intlin::reset_solver_cache();
        rcp_presburger::reset_emptiness_cache();
        let before = rec.on().then(rcp_trace::snapshot);
        let root = rec.begin("compile.op", id);
        let compiled = compile_op(op, source, rec, id);
        rec.end(root);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(before) = before {
            counters.add(&rcp_trace::snapshot().delta_since(&before));
        }
        let verdict = compiled.and_then(|(scheduled, inst)| {
            if inst {
                instantiated += 1;
            } else {
                fallback += 1;
            }
            check(&scheduled, want)
        });
        if let Err(e) = &verdict {
            eprintln!(
                "compile op {id} ({} {:?}) failed: {e}",
                op.kernel, op.values
            );
        }
        samples.push(Sample {
            class: op.kernel.to_string(),
            ms,
            ok: verdict.is_ok(),
        });
    }
    require("compile: symbolic-plan instantiations", instantiated)?;
    require("compile: concrete-fallback partitions", fallback)?;
    let total = rcp_trace::snapshot().delta_since(&mark);
    let ops = samples.len() as f64;
    let mut layers = Vec::new();
    if rec.on() {
        require("compile: depend.screen.pairs", counters.pairs)?;
        require(
            "compile: emptiness-cache lookups",
            counters.emptiness_lookups,
        )?;
        for (metric, span) in [
            ("lang.parse_ms", "lang.parse"),
            ("depend.analyze_ms", "depend.analyze"),
            ("core.plan_ms", "core.plan"),
            ("session.instantiate_ms", "session.instantiate"),
            ("session.fallback_ms", "session.fallback"),
            ("core.partition_ms", "core.partition"),
            ("codegen.schedule_ms", "codegen.schedule"),
            ("codegen.sequential_ms", "codegen.sequential"),
            ("runtime.verify_ms", "runtime.verify"),
        ] {
            layers.push((metric.to_string(), rec.mean_ms(span), "ms"));
        }
        layers.extend([
            (
                "session.symbolic_share".to_string(),
                instantiated as f64 / ops,
                "share",
            ),
            (
                "depend.screen.kill_ratio".to_string(),
                ratio(counters.killed as f64, counters.pairs as f64),
                "ratio",
            ),
            (
                "depend.solver_classes".to_string(),
                counters.classes as f64 / ops,
                "count",
            ),
            (
                "presburger.emptiness_hit_ratio".to_string(),
                ratio(
                    counters.emptiness_hits as f64,
                    counters.emptiness_lookups as f64,
                ),
                "ratio",
            ),
        ]);
    }
    Ok(Outcome {
        timed_s: samples.iter().map(|s| s.ms).sum::<f64>() / 1e3,
        samples,
        untimed: Vec::new(),
        layers,
        counts: vec![
            ("ops".to_string(), ops as u64),
            ("compile.instantiated".to_string(), instantiated),
            (
                "depend.screen.pairs".to_string(),
                total.counter("depend.screen.pairs"),
            ),
        ],
    })
}

#[cfg(test)]
impl Prepared {
    /// Plants an element the program never writes in op `k`'s reference.
    pub fn corrupt_reference(&mut self, k: usize) {
        self.ops[k].2.set("corrupt", &[0], 2.0);
    }
}
