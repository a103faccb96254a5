//! Speedup-series helpers shared by the benchmark harness.
//!
//! A *speedup series* is what one curve of Figure 3 shows: modelled speedup
//! of one scheme over the sequential loop for 1–4 threads.  Schemes that
//! produce an executable [`Schedule`] go through the runtime cost model
//! directly; schemes described analytically (phase sizes only, or the
//! DOACROSS pipeline) use the closed-form helpers below so that very large
//! workloads never need to materialise every iteration.

use rcp_codegen::Schedule;
use rcp_json::{json, Json};
use rcp_runtime::{
    execute_sequential, makespan, CostModel, Kernel, ParallelExecutor, Verification,
};
use std::time::Instant;

/// One curve of a speedup plot.
#[derive(Clone, Debug)]
pub struct SpeedupSeries {
    /// Scheme name (REC, PDM, PL, UNIQUE, PAR, DOACROSS, linear).
    pub scheme: String,
    /// Speedup per thread count, starting at 1 thread.
    pub speedups: Vec<f64>,
}

impl SpeedupSeries {
    /// Builds a series by evaluating `f(threads)` for `1..=max_threads`.
    pub fn from_fn(scheme: &str, max_threads: usize, f: impl Fn(usize) -> f64) -> Self {
        SpeedupSeries {
            scheme: scheme.to_string(),
            speedups: (1..=max_threads).map(f).collect(),
        }
    }

    /// The ideal linear-speedup reference curve.
    pub fn linear(max_threads: usize) -> Self {
        SpeedupSeries::from_fn("linear", max_threads, |t| t as f64)
    }

    /// Speedup at a given thread count (1-based).
    pub fn at(&self, threads: usize) -> f64 {
        self.speedups[threads - 1]
    }

    /// The machine-readable form of the series.
    pub fn to_json(&self) -> Json {
        json!({ "scheme": self.scheme, "speedups": self.speedups })
    }

    /// Rebuilds a series from its [`SpeedupSeries::to_json`] form.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(SpeedupSeries {
            scheme: value["scheme"].as_str()?.to_string(),
            speedups: value["speedups"]
                .as_array()?
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<_>>()?,
        })
    }
}

/// A speedup figure: several series over a common workload.
#[derive(Clone, Debug)]
pub struct SpeedupFigure {
    /// Figure identifier (e.g. `fig3-ex1`).
    pub id: String,
    /// Workload and parameters in human-readable form.
    pub workload: String,
    /// The curves.
    pub series: Vec<SpeedupSeries>,
}

impl SpeedupFigure {
    /// Renders the figure as an aligned text table (one row per scheme, one
    /// column per thread count).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}  ({})\n", self.id, self.workload));
        out.push_str(&format!("{:<10}", "scheme"));
        let n = self.series.first().map_or(0, |s| s.speedups.len());
        for t in 1..=n {
            out.push_str(&format!("{:>10}", format!("{t} thr")));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:<10}", s.scheme));
            for v in &s.speedups {
                out.push_str(&format!("{:>10.2}", v));
            }
            out.push('\n');
        }
        out
    }

    /// The machine-readable form of the figure.
    pub fn to_json(&self) -> Json {
        json!({
            "id": self.id,
            "workload": self.workload,
            "series": self.series.iter().map(SpeedupSeries::to_json).collect::<Vec<_>>(),
        })
    }

    /// Rebuilds a figure from its [`SpeedupFigure::to_json`] form.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(SpeedupFigure {
            id: value["id"].as_str()?.to_string(),
            workload: value["workload"].as_str()?.to_string(),
            series: value["series"]
                .as_array()?
                .iter()
                .map(SpeedupSeries::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// A wall-clock-measured speedup series: real executions of a parallel
/// schedule by [`ParallelExecutor`], normalised against real sequential
/// executions — as opposed to the [`CostModel`]'s analytic numbers.
#[derive(Clone, Debug)]
pub struct MeasuredSeries {
    /// The speedup curve (`sequential_ns / parallel_ns[t-1]`).
    pub series: SpeedupSeries,
    /// Best-of-`reps` sequential wall clock, nanoseconds.
    pub sequential_ns: f64,
    /// Best-of-`reps` parallel wall clock per thread count, nanoseconds.
    pub parallel_ns: Vec<f64>,
    /// True when every parallel execution was race free and produced the
    /// sequential result bit-for-bit.
    pub verified: bool,
}

impl MeasuredSeries {
    /// The machine-readable form of the measurement.
    pub fn to_json(&self) -> Json {
        json!({
            "scheme": self.series.scheme,
            "speedups": self.series.speedups,
            "sequential_ns": self.sequential_ns,
            "parallel_ns": self.parallel_ns,
            "verified": self.verified,
            "measured": true,
        })
    }
}

/// Measures the real wall-clock speedup of `parallel` over `sequential` for
/// `1..=max_threads` workers.
///
/// Thread counts above `std::thread::available_parallelism()` are skipped —
/// timing an oversubscribed pool measures scheduler thrash, not the
/// schedule — so the returned series may be shorter than `max_threads`
/// (callers report the hardware width alongside).
///
/// Every timing is the best of `reps` runs (minimum is the standard
/// estimator for wall-clock microbenchmarks — noise is strictly additive).
/// Verification per thread count: one untimed execution runs with race
/// detection on, and every execution is checked against the sequential
/// store by [`Verification::check`], bit for bit (the check happens
/// outside the timed window).  Timed runs themselves use the
/// trusted-schedule fast path, so a race that only manifests under a timed
/// run's interleaving shows up as a store mismatch rather than a reported
/// race.  Both executors get a
/// cost model calibrated from the sequential measurement itself, so the
/// sequential-fallback decision reflects this machine's real per-instance
/// cost: schedules too small to amortise pool overhead run inline and the
/// measured "speedup" stays at ~1 instead of regressing below the
/// sequential baseline.
pub fn measured_speedup(
    scheme: &str,
    sequential: &Schedule,
    parallel: &Schedule,
    kernel: &(dyn Kernel + Sync),
    max_threads: usize,
    reps: usize,
) -> MeasuredSeries {
    let reps = reps.max(1);
    // One untimed warm-up execution first: the very first run pays
    // allocator and cache warm-up that neither side should be charged for.
    let reference = execute_sequential(sequential, kernel);
    let mut sequential_ns = f64::INFINITY;
    let time_sequential = |sequential_ns: &mut f64| {
        let start = Instant::now();
        let store = execute_sequential(sequential, kernel);
        *sequential_ns = sequential_ns.min(start.elapsed().as_nanos() as f64);
        store
    };
    // Best-of-reps before calibrating: a single sample would let one load
    // spike inflate the model and mis-steer the fallback decision.
    for _ in 0..reps {
        let _ = time_sequential(&mut sequential_ns);
    }
    let model = CostModel::calibrated(sequential_ns, sequential.n_instances());

    let hardware_threads = rcp_runtime::pool::available_threads();
    let max_threads = max_threads.min(hardware_threads).max(1);
    let mut verified = true;
    let mut parallel_ns = Vec::with_capacity(max_threads);
    for threads in 1..=max_threads {
        // One untimed validation run with race detection on…
        let checked = ParallelExecutor::new(threads)
            .with_cost_model(model)
            .execute(parallel, kernel);
        verified &= Verification::check(&reference, &checked).passed();
        // …then timed runs on the trusted-schedule fast path (no per-unit
        // race bookkeeping — the configuration real production use would
        // pick once a schedule is validated).
        let executor = ParallelExecutor::new(threads)
            .with_race_detection(false)
            .with_cost_model(model);
        let mut best = f64::INFINITY;
        for _rep in 0..reps {
            // Interleave a sequential timing with every parallel timing so
            // machine-load drift over the measurement window affects both
            // minima equally instead of skewing the ratio.
            let _ = time_sequential(&mut sequential_ns);
            let result = executor.execute(parallel, kernel);
            best = best.min(result.total_time.as_nanos() as f64);
            verified &= Verification::check(&reference, &result).passed();
        }
        parallel_ns.push(best);
    }
    MeasuredSeries {
        series: SpeedupSeries {
            scheme: scheme.to_string(),
            speedups: parallel_ns.iter().map(|&p| sequential_ns / p).collect(),
        },
        sequential_ns,
        parallel_ns,
        verified,
    }
}

/// An abstract phase used for analytic (size-only) speedup evaluation.
#[derive(Clone, Copy, Debug)]
pub enum PhaseShape {
    /// A DOALL over `items` independent units of `unit_instances` statement
    /// instances each.
    Doall {
        /// Number of independent units.
        items: usize,
        /// Statement instances per unit.
        unit_instances: f64,
    },
    /// A set of independent sequential chains with the given lengths (in
    /// statement instances).
    Chains(&'static [usize]),
    /// A set of `count` equal chains of `len` statement instances.
    EqualChains {
        /// Number of chains.
        count: usize,
        /// Instances per chain.
        len: f64,
    },
}

/// Modelled execution time of a sequence of abstract phases.
pub fn phases_time_ns(model: &CostModel, phases: &[PhaseShape], threads: usize) -> f64 {
    phases
        .iter()
        .map(|p| match *p {
            PhaseShape::Doall {
                items,
                unit_instances,
            } => {
                let unit = unit_instances * model.instance_cost_ns + model.item_overhead_ns;
                // items identical units over `threads` workers
                let per_worker = (items + threads - 1) / threads.max(1);
                per_worker as f64 * unit + model.barrier_cost_ns
            }
            PhaseShape::Chains(lens) => {
                let costs: Vec<f64> = lens
                    .iter()
                    .map(|&l| l as f64 * (model.instance_cost_ns + model.item_overhead_ns))
                    .collect();
                makespan(&costs, threads) + model.barrier_cost_ns
            }
            PhaseShape::EqualChains { count, len } => {
                let cost = len * (model.instance_cost_ns + model.item_overhead_ns);
                let per_worker = (count + threads - 1) / threads.max(1);
                per_worker as f64 * cost + model.barrier_cost_ns
            }
        })
        .sum()
}

/// Modelled speedup of a sequence of abstract phases covering
/// `total_instances` statement instances.
pub fn phases_speedup(
    model: &CostModel,
    phases: &[PhaseShape],
    total_instances: usize,
    threads: usize,
) -> f64 {
    let sequential = total_instances as f64 * model.instance_cost_ns;
    sequential / phases_time_ns(model, phases, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_doall_scales() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let phases = [PhaseShape::Doall {
            items: 1000,
            unit_instances: 1.0,
        }];
        let s4 = phases_speedup(&model, &phases, 1000, 4);
        assert!(
            (s4 - 4.0).abs() < 0.1,
            "ideal DOALL speedup should be ~4, got {s4}"
        );
    }

    #[test]
    fn equal_chains_balance() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let phases = [PhaseShape::EqualChains {
            count: 8,
            len: 100.0,
        }];
        let s2 = phases_speedup(&model, &phases, 800, 2);
        let s4 = phases_speedup(&model, &phases, 800, 4);
        assert!((s2 - 2.0).abs() < 0.1);
        assert!((s4 - 4.0).abs() < 0.1);
    }

    #[test]
    fn series_and_table() {
        let fig = SpeedupFigure {
            id: "fig-test".into(),
            workload: "toy".into(),
            series: vec![
                SpeedupSeries::linear(4),
                SpeedupSeries::from_fn("flat", 4, |_| 1.0),
            ],
        };
        let table = fig.to_table();
        assert!(table.contains("linear"));
        assert!(table.contains("4 thr"));
        assert_eq!(fig.series[0].at(3), 3.0);
    }
}
