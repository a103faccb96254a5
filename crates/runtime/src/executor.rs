//! Schedule executors: the stand-in for the paper's OpenMP runtime.
//!
//! * [`execute_sequential`] runs the program in original lexicographic
//!   order — the reference both for correctness and for speedup
//!   normalisation.
//! * [`ParallelExecutor`] (and its [`execute_schedule`] convenience
//!   wrapper) runs a [`Schedule`] phase by phase on up to `n_threads` OS
//!   threads, the caller among them.  The paper's generated code runs each
//!   DOALL set and each set of WHILE chains as one OpenMP parallel region
//!   closed by a barrier.  Here a phase worth sharing is cut, in slab
//!   order, into one contiguous block of units per thread — the units being
//!   the work items of a DOALL phase, or the independent recurrence chains
//!   of the paper's Theorem-1 partition — and every thread runs its block
//!   between two waits on one barrier (a static schedule).  A phase too
//!   small to pay for the barrier runs on the caller alone, unit after
//!   unit, which is a legal order.  Like the threads of the paper's OpenMP
//!   code, units write the
//!   shared arrays in place: the kernel reserves every array's box before
//!   the run ([`Kernel::reserve`]), so nothing reallocates under
//!   concurrency, and Theorem 1 makes the units of a phase touch disjoint
//!   elements.  On checked runs (the default) each cell records the unit
//!   that last wrote it, and a unit that reads or writes a cell another
//!   unit of the same phase wrote is reported as a race.  A
//!   cost-model-driven sequential fallback (see
//!   [`ParallelExecutor::with_sequential_fallback`]) runs schedules too
//!   small to amortise thread start-up on the caller alone.
//! * [`verify_schedule`] checks the parallel result against the
//!   sequential result bit for bit ([`Verification::check`]).
//!
//! The threads are `std::thread::scope` threads that live for one run: the
//! workspace builds in fully offline environments, so rayon cannot be
//! assumed.

use crate::array::{ArrayStore, StoreView};
use crate::cost::CostModel;
use crate::kernel::Kernel;
use rcp_codegen::{Phase, Schedule};
use rcp_guard::Stage;
use rcp_intlin::IVec;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Registry handles for the executor's phase statistics — the
/// `executor.*` metrics a profile or `rcp stats` reports.  Resolved once;
/// each use is one relaxed `fetch_add`.
pub(crate) struct ExecMetrics {
    phases: rcp_trace::Counter,
    races: rcp_trace::Counter,
    phase_us: rcp_trace::Histogram,
    /// The instances a kernel ran by subscripts, outside its compiled
    /// path ([`crate::RefKernel`]).
    pub(crate) by_subscripts: rcp_trace::Counter,
}

pub(crate) fn metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        phases: rcp_trace::counter("executor.phases"),
        races: rcp_trace::counter("executor.races"),
        phase_us: rcp_trace::histogram("executor.phase_us"),
        by_subscripts: rcp_trace::counter("executor.instances.by_subscripts"),
    })
}

/// The outcome of executing a schedule.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The final array contents.
    pub store: ArrayStore,
    /// Elements some unit read or wrote after another unit of the same
    /// phase wrote them (checked runs), and writes the reserved layout
    /// could not place, in array and index order (empty for a valid
    /// schedule).
    pub races: Vec<(String, IVec)>,
}

impl ExecutionResult {
    /// True when no intra-phase conflicts were detected.
    pub fn race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// Executes the program sequentially (original statement-instance order).
///
/// A layout the store refuses (see [`crate::array`]) unwinds with a typed
/// [`rcp_guard::BudgetExceeded`], here and in [`ParallelExecutor::execute`];
/// `rcp_guard::catch` turns it into an error.
pub fn execute_sequential(schedule: &Schedule, kernel: &dyn Kernel) -> ArrayStore {
    let _span = rcp_trace::span!("executor.sequential");
    let mut store = ArrayStore::new();
    kernel.reserve(schedule, &mut store);
    let mut view = StoreView::alone(&mut store);
    kernel.run_range(schedule, 0..schedule.n_instances(), &mut view);
    drop(view);
    store
}

/// Executes a schedule with `n_threads` threads (see [`ParallelExecutor`]).
pub fn execute_schedule(
    schedule: &Schedule,
    kernel: &(dyn Kernel + Sync),
    n_threads: usize,
) -> ExecutionResult {
    ParallelExecutor::new(n_threads).execute(schedule, kernel)
}

/// A phase-by-phase parallel executor on OS threads.
///
/// The calling thread is thread 0 of a run and spawns the others for the
/// run's duration.  Before they start, each phase is either left to the
/// caller or cut, in slab order, into one contiguous block of units per
/// thread — the work items of a DOALL phase, the whole recurrence chains
/// of a chain phase — each within one unit's instances of an even share
/// of the phase's statement instances.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    n_threads: usize,
    detect_races: bool,
    sequential_fallback: bool,
}

impl ParallelExecutor {
    /// An executor with `n_threads` threads (0 and 1 both mean "run on the
    /// caller") and the cost-model-driven sequential fallback enabled.
    pub fn new(n_threads: usize) -> Self {
        ParallelExecutor {
            n_threads: n_threads.max(1),
            detect_races: true,
            sequential_fallback: true,
        }
    }

    /// Enables or disables intra-phase race detection.
    ///
    /// Detection is on by default and is what [`verify_schedule`] relies
    /// on: every cell carries a stamp of the unit that last wrote it, and a
    /// unit that reads or writes a cell another unit of the same phase
    /// wrote is a race.  Disabling it is the trusted-schedule fast path for
    /// measured benchmark runs: no stamps are kept, and units of one phase
    /// are not told apart.  For a *valid* schedule (no element written by
    /// one unit of a phase and touched by another) the final store is
    /// identical either way.
    pub fn with_race_detection(mut self, detect_races: bool) -> Self {
        self.detect_races = detect_races;
        self
    }

    /// Enables or disables the cost-model-driven sequential fallback.
    ///
    /// With the fallback on (the default), a run uses at most the
    /// hardware's threads, and a schedule whose parallel run as
    /// [`CostModel::default`] models it — thread spawning, per-phase
    /// barriers, work divided over those threads — does not beat
    /// sequential execution runs on the caller alone; of a schedule that
    /// does, a phase is shared only when the model finds that splitting it
    /// beats running it on the caller.  With the fallback off, a run uses
    /// exactly `n_threads` threads and shares every phase of more than one
    /// unit, however small: this is how tests reach the threads.
    pub fn with_sequential_fallback(mut self, sequential_fallback: bool) -> Self {
        self.sequential_fallback = sequential_fallback;
        self
    }

    /// The number of threads the executor schedules onto.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// True when `execute` would run the schedule on more than one thread
    /// rather than on the caller alone.
    pub fn uses_pool(&self, schedule: &Schedule) -> bool {
        self.threads_for(schedule) > 1
    }

    /// The threads a run of `schedule` uses, the caller included.
    fn threads_for(&self, schedule: &Schedule) -> usize {
        if !self.sequential_fallback || self.n_threads == 1 {
            return self.n_threads;
        }
        let available = rcp_pool::available_threads();
        if CostModel::default().parallel_pays_off(schedule, self.n_threads, available) {
            self.n_threads.min(available)
        } else {
            1
        }
    }

    /// Per phase of `schedule`, the unit each of `threads` threads' blocks
    /// starts at followed by the phase's width ([`blocks`]), or nothing
    /// when the caller runs the phase alone.  A phase of more than one unit
    /// is shared when the fallback is off, or when the default model's
    /// estimate at `threads` beats its work on the caller alone, which
    /// waits at no barrier.
    fn plan(&self, schedule: &Schedule, threads: usize) -> Vec<Vec<usize>> {
        let model = CostModel::default();
        let split = |phase: Phase| {
            let shared = threads > 1
                && phase.width() > 1
                && (!self.sequential_fallback
                    || model.phase_time_estimate_ns(&phase, threads)
                        < model.phase_time_estimate_ns(&phase, 1) - model.barrier_cost_ns);
            if shared {
                blocks(&phase, threads)
            } else {
                Vec::new()
            }
        };
        schedule.phases().map(split).collect()
    }

    /// Executes the schedule and returns the final store and any
    /// intra-phase conflicts.
    ///
    /// A panic or a tripped budget on any thread fails the run: every
    /// thread skips the rest of its work but still meets the others at
    /// each barrier, and the first payload is re-raised on the caller once
    /// all have finished, with the frame `executor worker k` of the thread
    /// `k` that raised it (budget payloads pass through untouched).
    pub fn execute(&self, schedule: &Schedule, kernel: &(dyn Kernel + Sync)) -> ExecutionResult {
        let _span = rcp_trace::span!("executor.run");
        let mut store = ArrayStore::new();
        kernel.reserve(schedule, &mut store);
        store.set_stamping(self.detect_races);
        let threads = self.threads_for(schedule);
        let run = Run {
            schedule,
            kernel,
            detect_races: self.detect_races,
            blocks: self.plan(schedule, threads),
            barrier: Barrier::new(threads),
            failed: AtomicBool::new(false),
            payload: Mutex::new(None),
        };
        let mut races = if threads == 1 {
            run.thread(0, StoreView::alone(&mut store))
        } else {
            run.on_threads(&store, threads)
        };
        let payload = run.payload.into_inner();
        if let Some(payload) = payload.unwrap_or_else(PoisonError::into_inner) {
            std::panic::resume_unwind(payload);
        }
        store.set_stamping(false);
        races.sort();
        races.dedup();
        let m = metrics();
        m.phases.add(schedule.n_phases() as u64);
        m.races.add(races.len() as u64);
        ExecutionResult { store, races }
    }
}

/// The unit each of `threads` contiguous blocks of `phase`'s units starts
/// at, followed by the phase's width.  Block `t` holds the units that
/// start within the `t`-th of `threads` even shares of the phase's
/// instances, so it is within one unit's instances of that share.
fn blocks(phase: &Phase, threads: usize) -> Vec<usize> {
    let instances = phase.instance_range();
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0);
    for (k, unit) in phase.units().enumerate() {
        let offset = unit.instance_range().start - instances.start;
        while bounds.len() < threads && offset * threads >= bounds.len() * instances.len() {
            bounds.push(k);
        }
    }
    bounds.resize(threads + 1, phase.width());
    bounds
}

/// One run of a schedule: what its threads share.
struct Run<'a> {
    schedule: &'a Schedule,
    kernel: &'a (dyn Kernel + Sync),
    detect_races: bool,
    /// [`ParallelExecutor::plan`].
    blocks: Vec<Vec<usize>>,
    barrier: Barrier,
    /// Set once a thread panicked or a budget tripped.  It publishes no
    /// data (the payload sits behind its lock), and the barrier orders it
    /// before every thread's next phase.
    failed: AtomicBool,
    /// The first panic payload, with the frame of the thread that raised
    /// it.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Run<'_> {
    /// Runs threads 1.. on scoped threads beside the caller's thread 0,
    /// each through a view sharing `store`, and returns their conflicts.
    fn on_threads(&self, store: &ArrayStore, threads: usize) -> Vec<(String, IVec)> {
        // Re-install the caller's budget guard inside every thread so
        // kernel-side checkpoints keep charging the session budget.
        let guard = rcp_guard::current();
        let guard = guard.as_ref();
        let share = |t| self.thread(t, StoreView::shared(store));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads)
                .map(|t| scope.spawn(move || rcp_guard::maybe_scope(guard, || share(t))))
                .collect();
            let mut conflicts = share(0);
            for (t, worker) in (1..).zip(workers) {
                match worker.join() {
                    Ok(found) => conflicts.extend(found),
                    Err(payload) => self.fail(t, payload),
                }
            }
            conflicts
        })
    }

    /// Thread `t`'s share of the run through `view`, and the conflicts it
    /// found: on the caller (`t` 0) the per-phase budget tick and every
    /// phase left to it, and on every thread its block of each shared
    /// phase, between two waits on the barrier.
    fn thread(&self, t: usize, mut view: StoreView) -> Vec<(String, IVec)> {
        for (p, phase) in self.schedule.phases().enumerate() {
            let shared = !self.blocks[p].is_empty();
            let units = match self.blocks[p].get(t..t + 2) {
                Some(&[first, end]) => first..end,
                _ if t == 0 => 0..phase.width(),
                _ => continue,
            };
            let start = Instant::now();
            if t == 0 {
                self.guarded(t, || rcp_guard::tick(Stage::Execution, 1));
            }
            if shared {
                self.barrier.wait();
            }
            // The other threads skip a phase they do not share: they wait
            // at the next shared phase's barrier.
            view.set_alone(!shared);
            self.guarded(t, || {
                rcp_guard::fail_point("runtime::phase", Stage::Execution);
                self.run_units(&mut view, p, &phase, units);
            });
            if shared {
                self.barrier.wait();
            }
            if t == 0 {
                if phase.width() > 1 {
                    self.guarded(t, || {
                        rcp_guard::fail_point("runtime::barrier", Stage::Execution)
                    });
                }
                if !self.failed.load(Ordering::Relaxed) {
                    let us = u64::try_from(start.elapsed().as_micros());
                    metrics().phase_us.observe(us.unwrap_or(u64::MAX));
                }
            }
        }
        view.into_conflicts()
    }

    /// Runs units `units` of phase `p` in order, each stamped as itself on
    /// checked runs of a phase of more than one unit.
    fn run_units(&self, view: &mut StoreView, p: usize, phase: &Phase, units: Range<usize>) {
        if self.detect_races && phase.width() > 1 {
            for k in units {
                view.set_unit(Some((p, k)));
                let range = phase.unit(k).instance_range();
                self.kernel.run_range(self.schedule, range, view);
            }
            view.set_unit(None);
        } else if !units.is_empty() {
            let first = phase.unit(units.start).instance_range().start;
            let end = phase.unit(units.end - 1).instance_range().end;
            self.kernel.run_range(self.schedule, first..end, view);
        }
    }

    /// Runs `f` on thread `t` unless the run has failed; a panic or a
    /// budget trip in `f` fails it.
    fn guarded(&self, t: usize, f: impl FnOnce()) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            self.fail(t, payload);
        }
    }

    /// Fails the run with `payload` from thread `t`, keeping the first.
    fn fail(&self, t: usize, payload: Box<dyn Any + Send>) {
        let payload = rcp_guard::with_context(payload, format!("executor worker {t}"));
        // The slot lock is only ever held for this insert, so a poison
        // marker protects nothing: recover and keep the first payload.
        let mut slot = self.payload.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(payload);
        self.failed.store(true, Ordering::Relaxed);
    }
}

/// The verdict on one execution against the sequential reference, built
/// by [`Verification::check`] — the one verification contract.
#[derive(Debug)]
pub struct Verification {
    /// Element-wise mismatches `(array, index, sequential, parallel)`.
    pub mismatches: Vec<(String, IVec, f64, f64)>,
    /// Races detected during parallel execution.
    pub races: Vec<(String, IVec)>,
}

impl Verification {
    /// Checks one execution against the sequential reference store.  The
    /// contract is bit for bit (tolerance 0.0) and race free: a legal
    /// schedule reorders no dependent pair, so its store equals the
    /// sequential one exactly, and any difference is a miscompile.
    pub fn check(reference: &ArrayStore, result: &ExecutionResult) -> Verification {
        Verification {
            mismatches: reference.diff(&result.store, 0.0),
            races: result.races.clone(),
        }
    }

    /// True when the execution is equivalent to the sequential one and
    /// race free.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.races.is_empty()
    }
}

impl std::fmt::Display for Verification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} store mismatch(es), {} race(s)",
            self.mismatches.len(),
            self.races.len()
        )
    }
}

/// Runs the sequential reference and the parallel schedule and checks the
/// parallel execution against it ([`Verification::check`]).
pub fn verify_schedule(
    sequential: &Schedule,
    parallel: &Schedule,
    kernel: &(dyn Kernel + Sync),
    n_threads: usize,
) -> Verification {
    let reference = execute_sequential(sequential, kernel);
    Verification::check(&reference, &execute_schedule(parallel, kernel, n_threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{FnKernel, RefKernel};
    use rcp_codegen::{PhaseKind, ScheduleBuilder};
    use rcp_core::concrete_partition;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};
    use std::time::Duration;

    /// `phases` DOALL phases, each of single-instance items of statement 0
    /// (depth 1) at the loop index values `at`.
    fn doalls(name: &str, phases: usize, at: &[i64]) -> Schedule {
        let mut builder = ScheduleBuilder::new(name, &[1]);
        for _ in 0..phases {
            builder.phase(PhaseKind::Doall);
            for &i in at {
                builder.single(0, &[i]);
            }
        }
        builder.finish()
    }

    /// One DOALL phase (see [`doalls`]).
    fn doall(name: &str, at: &[i64]) -> Schedule {
        doalls(name, 1, at)
    }

    /// One chain-set phase whose chain `k` holds `lens[k]` single-instance
    /// items.
    fn chains(lens: &[usize]) -> Schedule {
        let mut builder = ScheduleBuilder::new("chains", &[1]);
        builder.phase(PhaseKind::ChainSet);
        for &len in lens {
            builder.chain();
            for i in 0..len {
                builder.single(0, &[i as i64]);
            }
        }
        builder.finish()
    }

    fn figure2() -> Program {
        Program::new(
            "figure2",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(20),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![c(21) - v("I")]),
                    ],
                )],
            )],
        )
    }

    fn example1() -> Program {
        Program::new(
            "example1",
            &["N1", "N2"],
            vec![loop_(
                "I1",
                c(1),
                v("N1"),
                vec![loop_(
                    "I2",
                    c(1),
                    v("N2"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write(
                                "a",
                                vec![v("I1") * 3 + c(1), v("I1") * 2 + v("I2") - c(1)],
                            ),
                            ArrayRef::read("a", vec![v("I1") + c(3), v("I2") + c(1)]),
                        ],
                    )],
                )],
            )],
        )
    }

    #[test]
    fn figure2_partition_schedule_matches_sequential() {
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[]);
        let parallel = Schedule::from_partition(
            &analysis.program,
            analysis.granularity,
            &[],
            &part,
            "figure2-rec",
        );
        let sequential = Schedule::sequential(&p, &[]);
        let kernel = RefKernel::new(&p);
        for threads in [1, 2, 4] {
            let v = verify_schedule(&sequential, &parallel, &kernel, threads);
            assert!(
                v.passed(),
                "verification failed with {threads} threads: {:?}",
                v.mismatches
            );
        }
    }

    #[test]
    fn example1_partition_schedule_matches_sequential() {
        let p = example1();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[20, 25]);
        let parallel = Schedule::from_partition(
            &analysis.program,
            analysis.granularity,
            &[20, 25],
            &part,
            "example1-rec",
        );
        let sequential = Schedule::sequential(&p, &[20, 25]);
        let kernel = RefKernel::new(&p);
        let v = verify_schedule(&sequential, &parallel, &kernel, 4);
        assert!(
            v.passed(),
            "mismatches: {:?}",
            &v.mismatches[..v.mismatches.len().min(5)]
        );
    }

    #[test]
    fn a_wrong_schedule_is_caught() {
        // Schedule the whole loop as a single DOALL: dependent iterations
        // now race against the frozen store and the result differs from the
        // sequential one.
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let phi = analysis.phi.bind_params(&[]);
        let all = rcp_presburger::DenseSet::from_union(&phi);
        let wrong = Schedule::doall_phase(&analysis, &all, "figure2-all-parallel");
        let sequential = Schedule::sequential(&p, &[]);
        let kernel = RefKernel::new(&p);
        let v = verify_schedule(&sequential, &wrong, &kernel, 2);
        assert!(!v.passed(), "an invalid schedule must not verify");
    }

    #[test]
    fn races_are_detected() {
        // Two work items writing the same element in one DOALL phase.
        let p = figure2();
        let kernel = RefKernel::new(&p);
        let schedule = doall("racy", &[6, 6]);
        let result = execute_schedule(&schedule, &kernel, 2);
        assert!(!result.race_free());
    }

    /// Runs `executor` on `schedule` under a guard of `budget`, on a thread
    /// of its own, and returns the work the guard was charged and the
    /// panic payload `execute` raised, if any; fails when `execute` has
    /// not returned within 60 s.
    fn run_on_a_thread<K: Kernel + Send + 'static>(
        executor: ParallelExecutor,
        schedule: Schedule,
        kernel: K,
        budget: rcp_guard::BudgetSpec,
    ) -> (u64, Option<Box<dyn Any + Send>>) {
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let guard = rcp_guard::Guard::new(budget);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rcp_guard::scope(&guard, || executor.execute(&schedule, &kernel))
            }));
            let _ = sender.send((guard.work_spent(), outcome.err()));
        });
        receiver
            .recv_timeout(Duration::from_secs(60))
            .expect("execute returns within 60 s instead of hanging")
    }

    #[test]
    fn panics_in_any_block_propagate_with_their_thread() {
        // Three DOALL phases of I = 1..20: thread 0's block of the first
        // holds I = 1, the last thread's holds I = 20.  Every thread skips
        // the two later phases but still meets the others at their
        // barriers.
        for threads in [2, 4] {
            for (at, thread) in [(1, 0), (20, threads - 1)] {
                let kernel = FnKernel(move |_s: usize, idx: &[i64], store: &mut StoreView| {
                    if idx[0] == at {
                        panic!("kernel boom");
                    }
                    store.read("a", idx);
                });
                let executor = ParallelExecutor::new(threads).with_sequential_fallback(false);
                let schedule = doalls("panicky", 3, &(1..=20).collect::<Vec<_>>());
                assert_eq!(executor.threads_for(&schedule), threads);
                let unlimited = rcp_guard::BudgetSpec::unlimited();
                let (_, payload) = run_on_a_thread(executor, schedule, kernel, unlimited);
                // The payload survives the thread boundary with the
                // original message plus which thread raised it.
                let captured = payload
                    .expect("the kernel panic must propagate")
                    .downcast::<rcp_guard::CapturedPanic>()
                    .expect("kernel panics carry a CapturedPanic payload");
                assert_eq!(captured.message, "kernel boom");
                assert_eq!(
                    captured.context,
                    vec![format!("executor worker {thread}")],
                    "{threads} threads, I = {at}"
                );
            }
        }
    }

    #[test]
    fn a_budget_trip_at_a_phase_tick_propagates() {
        // Six DOALL phases over figure 2's statement: the reservation
        // charges its cells, then each phase one tick.  A budget three
        // ticks short of a whole run trips at the fourth phase's tick.
        let p = figure2();
        let schedule = doalls("budgeted", 6, &(1..=20).collect::<Vec<_>>());
        for threads in [2, 4] {
            let executor = ParallelExecutor::new(threads).with_sequential_fallback(false);
            let run = |budget| {
                let kernel = RefKernel::new(&p);
                run_on_a_thread(executor.clone(), schedule.clone(), kernel, budget)
            };
            let (whole, payload) = run(rcp_guard::BudgetSpec::unlimited());
            assert!(payload.is_none(), "an unlimited run completes");
            assert!(whole > 6, "the reservation charges its cells: {whole}");
            let limit = whole - 3;
            let (_, payload) = run(rcp_guard::BudgetSpec::unlimited().with_max_work(limit));
            let exceeded = payload
                .expect("the budget trip must propagate")
                .downcast::<rcp_guard::BudgetExceeded>()
                .expect("a budget trip carries its BudgetExceeded payload");
            assert_eq!(exceeded.stage, rcp_guard::Stage::Execution);
            assert_eq!(exceeded.resource, rcp_guard::Resource::WorkUnits);
            assert_eq!((exceeded.spent, exceeded.limit), (limit + 1, limit));
        }
    }

    #[test]
    fn small_schedules_fall_back_to_inline_execution() {
        let p = figure2();
        let seq = Schedule::sequential(&p, &[]);
        // 20 instances can never amortise thread start-up: the default
        // executor must run on the caller alone at any thread count…
        for threads in [2, 4, 16] {
            assert!(!ParallelExecutor::new(threads).uses_pool(&seq));
        }
        // …and still produce the correct result there.
        let kernel = RefKernel::new(&p);
        let a = execute_sequential(&seq, &kernel);
        let b = ParallelExecutor::new(4).execute(&seq, &kernel);
        assert!(Verification::check(&a, &b).passed());
        // Opting out restores the threads.
        assert!(ParallelExecutor::new(4)
            .with_sequential_fallback(false)
            .uses_pool(&seq));
    }

    #[test]
    fn runs_never_use_more_threads_than_the_hardware() {
        let big = doall("big", &(0..200_000).collect::<Vec<_>>());
        let available = rcp_pool::available_threads();
        for threads in [1, 2, 4, 64] {
            assert_eq!(
                ParallelExecutor::new(threads).threads_for(&big),
                threads.min(available)
            );
            // With the fallback off, as tests force the threads: exactly
            // the count asked for.
            assert_eq!(
                ParallelExecutor::new(threads)
                    .with_sequential_fallback(false)
                    .threads_for(&big),
                threads
            );
        }
        assert_eq!(
            ParallelExecutor::new(64).threads_for(&doall("small", &[1, 2])),
            1
        );
    }

    #[test]
    fn blocks_are_contiguous_even_shares_of_the_instances() {
        let cases: [&[usize]; 6] = [
            &[1; 10],
            &[5, 1, 1, 1, 1, 1],
            &[1, 1, 1, 1, 1, 9],
            &[0, 0, 3, 0, 2, 0],
            &[1, 1],
            &[0, 0, 0],
        ];
        for lens in cases {
            let schedule = chains(lens);
            let phase = schedule.phase(0);
            let total: usize = lens.iter().sum();
            let longest = lens.iter().copied().max().unwrap_or(0);
            for threads in 1..=5 {
                let bounds = blocks(&phase, threads);
                assert_eq!(bounds.len(), threads + 1, "{lens:?}");
                assert_eq!((bounds[0], bounds[threads]), (0, lens.len()));
                for (t, pair) in bounds.windows(2).enumerate() {
                    assert!(pair[0] <= pair[1], "{lens:?} on {threads}: {bounds:?}");
                    let held: usize = lens[pair[0]..pair[1]].iter().sum();
                    let share = total as f64 / threads as f64;
                    assert!(
                        (held as f64 - share).abs() <= longest as f64,
                        "{lens:?} on {threads}: block {t} holds {held} of {total}"
                    );
                }
                // Fewer non-empty units than threads: one unit per block.
                if lens.len() < threads && !lens.contains(&0) {
                    assert!(bounds.windows(2).all(|pair| pair[1] - pair[0] <= 1));
                }
            }
        }
    }

    #[test]
    fn the_model_leaves_small_phases_to_the_caller() {
        // A DOALL of 1,000 items, one of 20 items, and one chain of 1,000.
        let mut builder = ScheduleBuilder::new("mixed", &[1]);
        for items in [1_000, 20] {
            builder.phase(PhaseKind::Doall);
            for i in 0..items {
                builder.single(0, &[i]);
            }
        }
        builder.phase(PhaseKind::ChainSet);
        builder.chain();
        for i in 0..1_000 {
            builder.single(0, &[i]);
        }
        let schedule = builder.finish();
        let first = blocks(&schedule.phase(0), 2);
        let modelled = ParallelExecutor::new(2).plan(&schedule, 2);
        assert_eq!(modelled, vec![first.clone(), Vec::new(), Vec::new()]);
        let forced = ParallelExecutor::new(2)
            .with_sequential_fallback(false)
            .plan(&schedule, 2);
        assert_eq!(
            forced,
            vec![first, blocks(&schedule.phase(1), 2), Vec::new()]
        );
        assert!(ParallelExecutor::new(2)
            .plan(&schedule, 1)
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn sequential_and_one_thread_schedule_agree_trivially() {
        let p = figure2();
        let seq = Schedule::sequential(&p, &[]);
        let kernel = RefKernel::new(&p);
        let a = execute_sequential(&seq, &kernel);
        let b = execute_schedule(&seq, &kernel, 1);
        assert!(Verification::check(&a, &b).passed());
    }

    /// An executor that runs on `threads` threads whatever the schedule's
    /// size and shares every phase of more than one unit.
    fn forced_pool(threads: usize) -> ParallelExecutor {
        ParallelExecutor::new(threads).with_sequential_fallback(false)
    }

    #[test]
    fn valid_schedules_verify_in_place_on_the_pool() {
        let p = example1();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[12, 15]);
        let parallel = Schedule::from_partition(
            &analysis.program,
            analysis.granularity,
            &[12, 15],
            &part,
            "example1-rec",
        );
        let kernel = RefKernel::new(&p);
        let reference = execute_sequential(&Schedule::sequential(&p, &[12, 15]), &kernel);
        for threads in [2, 4] {
            let result = forced_pool(threads).execute(&parallel, &kernel);
            let v = Verification::check(&reference, &result);
            assert!(v.passed(), "{threads} threads: {v}");
            assert!(reference == result.store);
        }
    }

    #[test]
    fn an_invalid_doall_cannot_verify_by_luck() {
        // Figure 2 as one DOALL.  I = 6 writes a(12) before I = 9 reads it,
        // and at 1, 2 and 4 threads both lie in one thread's block, so the
        // per-cell stamps flag the schedule whatever the threads' timing.
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let all = rcp_presburger::DenseSet::from_union(&analysis.phi.bind_params(&[]));
        let wrong = Schedule::doall_phase(&analysis, &all, "figure2-all-parallel");
        let kernel = RefKernel::new(&p);
        let reference = execute_sequential(&Schedule::sequential(&p, &[]), &kernel);
        for threads in [1, 2, 4] {
            let result = forced_pool(threads).execute(&wrong, &kernel);
            let v = Verification::check(&reference, &result);
            assert!(
                !v.passed(),
                "{threads} threads: an invalid schedule verified"
            );
            assert!(!result.race_free(), "{threads} threads: {v}");
        }
    }

    #[test]
    fn cross_unit_conflicts_are_caught() {
        // One statement `a(w) = f(b or a(r))` over I = 1..2, and a phase
        // running the two iterations as two units in the given order, once
        // per thread: each thread's block holds one copy of the pair, so
        // the conflict falls inside one thread whatever the timing.
        let conflicts: [(&str, ArrayRef, ArrayRef, [i64; 2]); 3] = [
            // Both units write a(1).
            (
                "write-write",
                ArrayRef::write("a", vec![c(1)]),
                ArrayRef::read("b", vec![v("I")]),
                [1, 2],
            ),
            // I = 2 reads the a(1) that I = 1 writes.
            (
                "read-after-write",
                ArrayRef::write("a", vec![v("I")]),
                ArrayRef::read("a", vec![v("I") - c(1)]),
                [1, 2],
            ),
            // I = 1 reads a(2) before I = 2 overwrites it, but runs second.
            (
                "write-after-read",
                ArrayRef::write("a", vec![v("I")]),
                ArrayRef::read("a", vec![v("I") + c(1)]),
                [2, 1],
            ),
        ];
        for (what, write, read, order) in conflicts {
            let p = Program::new(
                what,
                &[],
                vec![loop_("I", c(1), c(2), vec![stmt("S", vec![write, read])])],
            );
            let kernel = RefKernel::new(&p);
            let reference = execute_sequential(&Schedule::sequential(&p, &[]), &kernel);
            for threads in [1, 2, 4] {
                let racy = doall(what, &order.repeat(threads));
                let bounds = blocks(&racy.phase(0), threads);
                assert!(bounds.iter().enumerate().all(|(t, &b)| b == 2 * t));
                let result = forced_pool(threads).execute(&racy, &kernel);
                let v = Verification::check(&reference, &result);
                assert!(!v.passed(), "{what} at {threads} threads was not caught");
                assert!(!result.race_free(), "{what} at {threads} threads: {v}");
            }
        }
    }

    #[test]
    fn pool_writes_outside_the_reservation_are_conflicts() {
        // `FnKernel` reserves nothing: on more than one thread its writes
        // cannot be placed, and say so, instead of vanishing.
        let kernel = FnKernel(|_s: usize, idx: &[i64], store: &mut StoreView| {
            store.write("a", idx, 1.0);
        });
        let schedule = doall("unreserved", &[1, 2, 3, 4]);
        let result = forced_pool(2).execute(&schedule, &kernel);
        assert_eq!(result.races.len(), 4);
        // On the caller alone, the same kernel grows the store instead.
        let inline = ParallelExecutor::new(1).execute(&schedule, &kernel);
        assert!(inline.race_free());
        assert_eq!(inline.store.written_len(), 4);
    }
}
