//! `execute`: set-up compiles a fixed set of recurrence-chains schedules
//! (six kernels, most at several sizes) once; each timed op runs one of
//! them on one thread with `execute_sequential`, which walks the generated
//! schedule's phases and chains in order.  A traced run adds a parallel
//! pass of `Scheduled::execute_checked` at [`THREADS`] threads over the
//! same schedules for the parallel per-layer metrics.  On the 2-vCPU box
//! the benchmark was built on, 2-thread run times swing between two states
//! about 1.6x apart from minute to minute; kept among the timed ops they
//! put the interquartile spread of every end-to-end metric at 30–50%.

use crate::plan::{self, ExecSpec};
use crate::spans::Recorder;
use crate::stats::{median, ratio};
use crate::{reference, require, Outcome, Pauses, Sample, THREADS};
use rcp_runtime::{execute_sequential, ArrayStore, ParallelExecutor, RefKernel};
use rcp_session::{Config, GranularityChoice, Scheduled, Session};
use std::time::Instant;

struct Compiled {
    spec: &'static ExecSpec,
    values: &'static [i64],
    scheduled: Scheduled,
    kernel: RefKernel,
    want: ArrayStore,
    instances: usize,
    uses_pool: bool,
}

pub struct Prepared {
    schedules: Vec<Compiled>,
    ops: Vec<usize>,
    parallel: Vec<usize>,
}

/// Every size of one family, on one analysis of its kernel.
fn compile(spec: &'static ExecSpec) -> Result<Vec<Compiled>, String> {
    let mut config = Config::new().with_threads(THREADS);
    if spec.loop_level {
        config = config.with_granularity(GranularityChoice::Loop);
    }
    let fail = |e: rcp_session::RcpError| format!("compiling {}: {e}", spec.name);
    let analyzed = Session::with_config(config)
        .bundled(spec.kernel)
        .map_err(fail)?;
    spec.sizes
        .iter()
        .map(|&values| {
            let scheduled = analyzed
                .partition_values(values)
                .and_then(|stage| stage.schedule_with("recurrence-chains"))
                .map_err(fail)?;
            Ok(Compiled {
                spec,
                values,
                kernel: scheduled.kernel(),
                want: reference::store(analyzed.program(), values),
                instances: scheduled.schedule().n_instances(),
                uses_pool: ParallelExecutor::new(THREADS).uses_pool(scheduled.schedule()),
                scheduled,
            })
        })
        .collect()
}

pub fn setup(seed: u64, seconds: u64) -> Result<Prepared, String> {
    let mut schedules = Vec::new();
    for spec in plan::EXEC_SCHEDULES {
        schedules.extend(compile(spec)?);
    }
    Ok(Prepared {
        schedules,
        ops: plan::execute_ops(seed, seconds),
        parallel: plan::parallel_ops(seed, seconds),
    })
}

/// Runs `op` inside an `execute.op` span and checks its final store.
fn timed(
    rec: &mut Recorder,
    id: usize,
    s: &Compiled,
    op: impl FnOnce(&mut Recorder) -> Result<ArrayStore, String>,
) -> Sample {
    let root = rec.begin("execute.op", id);
    let start = Instant::now();
    let store = op(rec);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    rec.end(root);
    let verdict = store.and_then(|store| reference::check(&s.want, &store));
    if let Err(e) = &verdict {
        eprintln!(
            "execute op {id} ({} {:?}) failed: {e}",
            s.spec.name, s.values
        );
    }
    Sample {
        class: s.spec.name.to_string(),
        ms,
        ok: verdict.is_ok(),
    }
}

/// Σ run time / Σ instances over per-schedule run times, in ns.
fn ns_per_instance(runs: &[Vec<f64>], schedules: &[Compiled]) -> f64 {
    let (mut ms, mut instances) = (0.0, 0usize);
    for (times, s) in runs.iter().zip(schedules) {
        ms += times.iter().sum::<f64>();
        instances += times.len() * s.instances;
    }
    ratio(ms * 1e6, instances as f64)
}

pub fn run(prepared: &Prepared, rec: &mut Recorder, pauses: Pauses) -> Result<Outcome, String> {
    let schedules = &prepared.schedules;
    let mut seq_ms = vec![Vec::new(); schedules.len()];
    let mut samples = Vec::new();
    for (id, &k) in prepared.ops.iter().enumerate() {
        pauses.before_op(id, prepared.ops.len());
        let s = &schedules[k];
        let sample = timed(rec, id, s, |rec| {
            Ok(rec.call("runtime.execute_sequential", id, || {
                execute_sequential(s.scheduled.schedule(), &s.kernel)
            }))
        });
        seq_ms[k].push(sample.ms);
        samples.push(sample);
    }
    require("execute: one-thread runs", samples.len() as u64)?;
    let mut layers = Vec::new();
    let mut untimed = Vec::new();
    let mut phases = 0u64;
    if rec.on() {
        let mut par_ms = vec![Vec::new(); schedules.len()];
        let mut merge_writes = 0u64;
        for (j, &k) in prepared.parallel.iter().enumerate() {
            let (s, id) = (&schedules[k], samples.len() + j);
            let before = rcp_trace::snapshot();
            let sample = timed(rec, id, s, |rec| {
                rec.call("runtime.execute_checked", id, || {
                    s.scheduled.execute_checked()
                })
                .map(|result| result.store)
                .map_err(|e| e.to_string())
            });
            let delta = rcp_trace::snapshot().delta_since(&before);
            phases += delta.counter("executor.phases");
            merge_writes += delta.counter("executor.merge.writes");
            par_ms[k].push(sample.ms);
            untimed.push(sample);
        }
        require("execute: executor.phases", phases)?;
        let par = prepared.parallel.len() as f64;
        let pooled = prepared
            .parallel
            .iter()
            .filter(|&&k| schedules[k].uses_pool)
            .count();
        let log_speedups: Vec<f64> = seq_ms
            .iter()
            .zip(&par_ms)
            .map(|(seq, par)| (median(seq) / median(par)).ln())
            .collect();
        layers = vec![
            (
                "runtime.exec_seq_ns_per_instance".to_string(),
                ns_per_instance(&seq_ms, schedules),
                "ns",
            ),
            (
                "runtime.exec_par_ns_per_instance".to_string(),
                ns_per_instance(&par_ms, schedules),
                "ns",
            ),
            (
                "runtime.par_over_seq".to_string(),
                (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp(),
                "ratio",
            ),
            (
                "runtime.pool_share".to_string(),
                pooled as f64 / par,
                "share",
            ),
            ("runtime.phases".to_string(), phases as f64 / par, "count"),
            (
                "runtime.merge_writes".to_string(),
                merge_writes as f64 / par,
                "count",
            ),
        ];
    }
    Ok(Outcome {
        timed_s: samples.iter().map(|s| s.ms).sum::<f64>() / 1e3,
        layers,
        counts: vec![
            ("ops".to_string(), (samples.len() + untimed.len()) as u64),
            ("executor.phases".to_string(), phases),
        ],
        samples,
        untimed,
    })
}
