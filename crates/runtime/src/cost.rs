//! The analytic cost model used to reproduce the speedup curves of Figure 3.
//!
//! The paper's evaluation ran on a 4-CPU Itanium SMP; this reproduction runs
//! inside a container with a single CPU, so wall-clock measurements cannot
//! show real multi-thread speedups.  Instead, the benchmarks measure the
//! *per-iteration cost* of each workload on the real machine (sequential
//! execution), measure the scheduling overheads once, and feed both into
//! this model, which accounts for exactly the effects the paper discusses:
//!
//! * the work of a DOALL phase is divided over `p` threads and closed with a
//!   barrier (`c$omp end parallel` in the paper's code),
//! * a chain phase is limited by its longest chain and by how well chains
//!   load-balance over the threads (LPT assignment),
//! * DOACROSS loops pay one point-to-point synchronisation per delayed
//!   iteration (Chen & Yew's scheme, compared against in Example 3),
//! * per-phase overheads penalise schemes with many small phases (this is
//!   why PDM catches up with REC at 4 threads on Example 4, as the paper
//!   observes).

use rcp_codegen::{Phase, Schedule, Unit};

/// Cost-model parameters, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Cost of executing one statement instance.
    pub instance_cost_ns: f64,
    /// Cost of one barrier / parallel-region fork-join.
    pub barrier_cost_ns: f64,
    /// Scheduling overhead per work item (loop bookkeeping).
    pub item_overhead_ns: f64,
    /// Cost of one point-to-point synchronisation (DOACROSS P/V pair).
    pub sync_cost_ns: f64,
    /// One-time cost of spawning a pool worker thread (paid per thread per
    /// `ParallelExecutor::execute`, since the pool lives for one schedule).
    pub thread_spawn_cost_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Conservative defaults in the right orders of magnitude for a
        // compiled loop body; the benchmarks overwrite `instance_cost_ns`
        // with a measured value.
        CostModel {
            instance_cost_ns: 50.0,
            barrier_cost_ns: 2_000.0,
            item_overhead_ns: 10.0,
            sync_cost_ns: 200.0,
            thread_spawn_cost_ns: 60_000.0,
        }
    }
}

impl CostModel {
    /// A model whose per-instance cost was measured by timing `n_instances`
    /// statement instances over `elapsed_ns` nanoseconds of sequential
    /// execution.
    pub fn calibrated(elapsed_ns: f64, n_instances: usize) -> Self {
        CostModel {
            instance_cost_ns: (elapsed_ns / n_instances.max(1) as f64).max(1.0),
            ..CostModel::default()
        }
    }

    /// Time of the original sequential loop (no parallel overheads).
    pub fn sequential_time_ns(&self, schedule: &Schedule) -> f64 {
        schedule.n_instances() as f64 * self.instance_cost_ns
    }

    /// Modelled cost of one unit of a phase: its instances plus the
    /// overhead of each of its items (a DOALL unit is one item).
    fn unit_cost_ns(&self, unit: &Unit) -> f64 {
        unit.instance_range().len() as f64 * self.instance_cost_ns
            + unit.len() as f64 * self.item_overhead_ns
    }

    /// Modelled execution time of one phase on `threads` workers.
    pub fn phase_time_ns(&self, phase: &Phase, threads: usize) -> f64 {
        let threads = threads.max(1);
        let unit_costs: Vec<f64> = phase.units().map(|u| self.unit_cost_ns(&u)).collect();
        makespan(&unit_costs, threads) + self.barrier_cost_ns
    }

    /// Modelled execution time of a whole schedule on `threads` workers.
    pub fn schedule_time_ns(&self, schedule: &Schedule, threads: usize) -> f64 {
        schedule
            .phases()
            .map(|p| self.phase_time_ns(&p, threads))
            .sum()
    }

    /// Modelled speedup of a schedule over the original sequential loop
    /// with the same total work.
    pub fn speedup(&self, schedule: &Schedule, threads: usize) -> f64 {
        self.sequential_time_ns(schedule) / self.schedule_time_ns(schedule, threads)
    }

    /// One-time pool start-up cost for an execution with `threads` workers.
    pub fn pool_startup_ns(&self, threads: usize) -> f64 {
        threads as f64 * self.thread_spawn_cost_ns
    }

    /// A fast `O(units)` estimate of [`Self::phase_time_ns`] using the
    /// makespan lower bound `max(total work / threads, longest unit)`
    /// instead of the LPT assignment (which sorts every unit and is too
    /// expensive to run on each `execute` call of a large schedule).
    pub fn phase_time_estimate_ns(&self, phase: &Phase, threads: usize) -> f64 {
        let threads = threads.max(1) as f64;
        let mut total = 0.0f64;
        let mut longest = 0.0f64;
        for unit in phase.units() {
            let cost = self.unit_cost_ns(&unit);
            total += cost;
            longest = longest.max(cost);
        }
        (total / threads).max(longest) + self.barrier_cost_ns
    }

    /// Whether running `schedule` on a `threads`-worker pool is modelled to
    /// beat inline sequential execution, given that the hardware offers
    /// `available` threads.
    ///
    /// The requested thread count is capped at `available` first — threads
    /// beyond the hardware only add oversubscription, never speedup — and
    /// the pool pays its start-up cost plus a barrier per phase, which is
    /// exactly why small schedules are better off inline (the measured
    /// `ex1`–`ex4` speedups below 1 that motivated this check).
    pub fn parallel_pays_off(&self, schedule: &Schedule, threads: usize, available: usize) -> bool {
        let effective = threads.min(available.max(1));
        if effective <= 1 {
            return false;
        }
        let parallel: f64 = schedule
            .phases()
            .map(|p| self.phase_time_estimate_ns(&p, effective))
            .sum::<f64>()
            + self.pool_startup_ns(effective);
        parallel < self.sequential_time_ns(schedule)
    }

    /// Modelled execution time of a DOACROSS loop: `n_outer` outer
    /// iterations of `inner_size` instances each, where outer iteration `k`
    /// may only start after iteration `k − 1` has advanced by `delay`
    /// instances (Chen & Yew's index synchronisation).
    ///
    /// Two limits govern the pipelined execution and the slower one wins:
    /// the *work limit* (total work divided over the threads) and the
    /// *chain limit* (consecutive outer iterations cannot start closer than
    /// one delay apart, regardless of how many processors are available).
    pub fn doacross_time_ns(
        &self,
        n_outer: usize,
        inner_size: usize,
        delay: usize,
        threads: usize,
    ) -> f64 {
        let threads = threads.max(1);
        let inner_cost = inner_size as f64 * (self.instance_cost_ns + self.item_overhead_ns);
        let delay_cost = (delay.min(inner_size)) as f64 * self.instance_cost_ns + self.sync_cost_ns;
        if threads == 1 || n_outer == 0 {
            return n_outer as f64 * inner_cost + self.barrier_cost_ns;
        }
        let rounds = n_outer.div_ceil(threads);
        let work_limit = rounds as f64 * inner_cost;
        let chain_limit = (n_outer - 1) as f64 * delay_cost;
        work_limit.max(chain_limit) + inner_cost + self.barrier_cost_ns
    }
}

/// Longest-processing-time-first makespan of independent unit costs on
/// `workers` identical workers.
// Panic-hygiene allow: costs are finite sums of finite model constants, so
// `partial_cmp` never sees a NaN, and `loads` is non-empty by construction.
#[allow(clippy::unwrap_used)]
pub fn makespan(costs: &[f64], workers: usize) -> f64 {
    let workers = workers.max(1);
    if costs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = costs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut loads = vec![0.0f64; workers];
    for c in sorted {
        // assign to the least-loaded worker
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        loads[idx] += c;
    }
    loads.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_codegen::{PhaseKind, ScheduleBuilder};

    /// A schedule of `phases` DOALL phases of `n` one-instance items.
    fn doalls(phases: usize, n: usize) -> Schedule {
        let mut builder = ScheduleBuilder::new("doall", &[1]);
        for _ in 0..phases {
            builder.phase(PhaseKind::Doall);
            for i in 0..n {
                builder.single(0, &[i as i64]);
            }
        }
        builder.finish()
    }

    fn doall(n: usize) -> Schedule {
        doalls(1, n)
    }

    /// One chain-set phase of chains of `lens` one-instance items.
    fn chains(lens: &[usize]) -> Schedule {
        let mut builder = ScheduleBuilder::new("chains", &[1]);
        builder.phase(PhaseKind::ChainSet);
        for &l in lens {
            builder.chain();
            for i in 0..l {
                builder.single(0, &[i as i64]);
            }
        }
        builder.finish()
    }

    #[test]
    fn makespan_basics() {
        assert_eq!(makespan(&[], 4), 0.0);
        assert_eq!(makespan(&[5.0], 4), 5.0);
        assert_eq!(makespan(&[1.0; 8], 4), 2.0);
        // LPT is a heuristic: {5, 4, 3, 3, 3} on 2 workers gives 10
        // (5+3+... assignment), within the 4/3-optimal guarantee of the
        // optimum 9.
        assert_eq!(makespan(&[5.0, 4.0, 3.0, 3.0, 3.0], 2), 10.0);
        // one worker: sum
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 1), 6.0);
    }

    #[test]
    fn doall_scales_with_threads() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let schedule = doall(100);
        let t1 = model.phase_time_ns(&schedule.phase(0), 1);
        let t4 = model.phase_time_ns(&schedule.phase(0), 4);
        assert!(
            (t1 / t4 - 4.0).abs() < 1e-9,
            "ideal DOALL speedup should be 4, got {}",
            t1 / t4
        );
    }

    #[test]
    fn chain_phase_is_limited_by_longest_chain() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let schedule = chains(&[10, 2, 2, 2]);
        // with many threads the longest chain dominates
        let t = model.phase_time_ns(&schedule.phase(0), 8);
        assert_eq!(t, 10.0 * model.instance_cost_ns);
    }

    #[test]
    fn speedup_saturates_with_overheads() {
        let model = CostModel::default();
        let schedule = doall(1000);
        let s1 = model.speedup(&schedule, 1);
        let s2 = model.speedup(&schedule, 2);
        let s4 = model.speedup(&schedule, 4);
        assert!(s1 <= 1.0 + 1e-9);
        assert!(s2 > s1);
        assert!(s4 > s2);
        assert!(s4 <= 4.0);
    }

    #[test]
    fn many_phases_penalise_speedup() {
        let model = CostModel::default();
        let one_phase = doall(1000);
        let many_phases = doalls(100, 10);
        assert!(model.speedup(&one_phase, 4) > model.speedup(&many_phases, 4));
    }

    #[test]
    fn doacross_beats_sequential_but_not_doall() {
        let model = CostModel::default();
        let n_outer = 100;
        let inner = 50;
        let doacross4 = model.doacross_time_ns(n_outer, inner, 5, 4);
        let doacross1 = model.doacross_time_ns(n_outer, inner, 5, 1);
        assert!(
            doacross4 < doacross1,
            "pipelining must help over one thread"
        );
        let doall_phase = doall(n_outer * inner);
        assert!(
            model.schedule_time_ns(&doall_phase, 4) < doacross4,
            "a fully parallel DOALL must beat the synchronised pipeline"
        );
    }

    #[test]
    fn doacross_chain_limit_dominates_for_long_delays() {
        let model = CostModel::default();
        // delay almost as long as the whole inner iteration: adding threads
        // beyond 2 cannot help because consecutive outer iterations are
        // serialised by the synchronisation chain.
        let t2 = model.doacross_time_ns(100, 50, 45, 2);
        let t8 = model.doacross_time_ns(100, 50, 45, 8);
        assert!(
            (t8 / t2 - 1.0).abs() < 0.25,
            "t2={t2} t8={t8} should be close"
        );
    }

    #[test]
    fn fallback_decision_reflects_work_and_hardware() {
        let model = CostModel::default();
        let small = doall(10);
        let big = doall(200_000);
        // A tiny schedule never amortises pool start-up.
        assert!(!model.parallel_pays_off(&small, 4, 4));
        // A big DOALL does, when the hardware is really there…
        assert!(model.parallel_pays_off(&big, 4, 4));
        // …but not on a single-core machine, at any requested width.
        assert!(!model.parallel_pays_off(&big, 4, 1));
        assert!(!model.parallel_pays_off(&big, 1, 8));
    }

    #[test]
    fn calibration_uses_measured_cost() {
        let model = CostModel::calibrated(1_000_000.0, 1000);
        assert_eq!(model.instance_cost_ns, 1000.0);
        let model = CostModel::calibrated(5.0, 0);
        assert!(model.instance_cost_ns >= 1.0);
    }
}
