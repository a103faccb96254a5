//! Schedule executors: the stand-in for the paper's OpenMP runtime.
//!
//! * [`execute_sequential`] runs the program in original lexicographic
//!   order — the reference both for correctness and for speedup
//!   normalisation.
//! * [`ParallelExecutor`] (and its [`execute_schedule`] convenience
//!   wrapper) runs a [`Schedule`] phase by phase on `n_threads` OS worker
//!   threads.  Work items of a DOALL phase and different chains of a chain
//!   phase — the independent recurrence chains of the paper's Theorem-1
//!   partition — execute concurrently; small units are packed into batches
//!   so per-unit scheduling overhead stays amortised.  Like the threads of
//!   the paper's OpenMP code, units write the shared arrays in place: the
//!   kernel reserves every array's box before the run
//!   ([`Kernel::reserve`]), so nothing reallocates under concurrency, and
//!   Theorem 1 makes the units of a phase touch disjoint elements.  On
//!   checked runs (the default) each cell records the unit that last wrote
//!   it, and a unit that reads or writes a cell another unit of the same
//!   phase wrote is reported as a race.  A cost-model-driven sequential
//!   fallback (see [`ParallelExecutor::with_sequential_fallback`]) runs
//!   schedules too small to amortise pool overhead inline instead.
//! * [`verify_schedule`] checks the parallel result against the
//!   sequential result bit for bit ([`Verification::check`]).
//!
//! The thread pool is built on `std::thread::scope` with a shared atomic
//! work queue (dynamic self-scheduling, like OpenMP `schedule(dynamic)`).
//! The workspace builds in fully offline environments, so rayon cannot be
//! assumed; the executor keeps the same phase/barrier semantics a
//! rayon-backed implementation would have, and `ParallelExecutor` is the
//! single seam to swap one in.

use crate::array::{ArrayStore, StoreView};
use crate::cost::CostModel;
use crate::kernel::Kernel;
use rcp_codegen::{Phase, Schedule};
use rcp_intlin::IVec;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Registry handles for the executor's phase statistics — the
/// `executor.*` metrics a profile or `rcp stats` reports.  Resolved once;
/// each use is one relaxed `fetch_add`.
struct ExecMetrics {
    phases: rcp_trace::Counter,
    races: rcp_trace::Counter,
    phase_us: rcp_trace::Histogram,
}

fn metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        phases: rcp_trace::counter("executor.phases"),
        races: rcp_trace::counter("executor.races"),
        phase_us: rcp_trace::histogram("executor.phase_us"),
    })
}

/// The outcome of executing a schedule.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The final array contents.
    pub store: ArrayStore,
    /// Wall-clock time per phase.
    pub phase_times: Vec<Duration>,
    /// Total wall-clock time.
    pub total_time: Duration,
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
    let mut view = StoreView::exclusive(&mut store);
    run_instances(schedule, 0..schedule.n_instances(), kernel, &mut view);
    drop(view);
    store
}

/// Executes a schedule with `n_threads` workers (see [`ParallelExecutor`]).
pub fn execute_schedule(
    schedule: &Schedule,
    kernel: &(dyn Kernel + Sync),
    n_threads: usize,
) -> ExecutionResult {
    ParallelExecutor::new(n_threads).execute(schedule, kernel)
}

/// A phase-by-phase parallel executor over a pool of OS threads.
///
/// Independent units — the work items of a DOALL phase, the whole
/// recurrence chains of a chain phase — are distributed over the workers
/// through a shared atomic queue.  Consecutive small units are packed into
/// *batches* of at least [`ParallelExecutor::with_min_batch_instances`]
/// statement instances each, so that a phase of ten thousand one-instance
/// items does not pay ten thousand queue operations.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    n_threads: usize,
    min_batch_instances: usize,
    detect_races: bool,
    sequential_fallback: bool,
}

/// What one run leaves besides its store: per-phase times, the time of the
/// phase loop, and the conflicts found.
type RunOutcome = (Vec<Duration>, Duration, Vec<(String, IVec)>);

impl ParallelExecutor {
    /// Default number of statement instances a batch is grown to before the
    /// next unit starts a new batch.
    pub const DEFAULT_MIN_BATCH_INSTANCES: usize = 64;

    /// An executor with `n_threads` workers (0 and 1 both mean "run
    /// inline"), default batching, and the cost-model-driven sequential
    /// fallback enabled.
    pub fn new(n_threads: usize) -> Self {
        ParallelExecutor {
            n_threads: n_threads.max(1),
            min_batch_instances: Self::DEFAULT_MIN_BATCH_INSTANCES,
            detect_races: true,
            sequential_fallback: true,
        }
    }

    /// Overrides the batching granularity; `1` disables batching (every
    /// unit is its own queue entry).
    pub fn with_min_batch_instances(mut self, min_batch_instances: usize) -> Self {
        self.min_batch_instances = min_batch_instances.max(1);
        self
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
    /// With the fallback on (the default), a schedule whose pool execution
    /// as [`CostModel::default`] models it — thread spawning, per-phase
    /// barriers, work divided over at most the hardware's threads — does
    /// not beat inline sequential execution runs on the calling thread
    /// instead.  Small schedules then no longer pay pool overhead for a
    /// guaranteed slowdown, and thread counts beyond the hardware are never
    /// oversubscribed.
    pub fn with_sequential_fallback(mut self, sequential_fallback: bool) -> Self {
        self.sequential_fallback = sequential_fallback;
        self
    }

    /// The number of worker threads the executor schedules onto.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// True when `execute` would run the schedule on the worker pool rather
    /// than inline on the caller.
    pub fn uses_pool(&self, schedule: &Schedule) -> bool {
        self.n_threads > 1
            && (!self.sequential_fallback
                || CostModel::default().parallel_pays_off(
                    schedule,
                    self.n_threads,
                    rcp_pool::available_threads(),
                ))
    }

    /// Executes the schedule and returns the final store, per-phase wall
    /// clock, and any intra-phase conflicts.
    pub fn execute(&self, schedule: &Schedule, kernel: &(dyn Kernel + Sync)) -> ExecutionResult {
        let _span = rcp_trace::span!("executor.run");
        let start = Instant::now();
        let mut store = ArrayStore::new();
        kernel.reserve(schedule, &mut store);
        store.set_stamping(self.detect_races);
        let layout_time = start.elapsed();
        let (phase_times, run_time, mut races) = if self.uses_pool(schedule) {
            self.execute_on_pool(schedule, kernel, &store)
        } else {
            self.execute_on_caller(schedule, kernel, &mut store)
        };
        store.set_stamping(false);
        races.sort();
        races.dedup();
        let m = metrics();
        m.phases.add(phase_times.len() as u64);
        m.races.add(races.len() as u64);
        for phase in &phase_times {
            m.phase_us
                .observe(u64::try_from(phase.as_micros()).unwrap_or(u64::MAX));
        }
        ExecutionResult {
            store,
            phase_times,
            total_time: layout_time + run_time,
            races,
        }
    }

    /// Single-worker execution: every phase runs on the calling thread,
    /// unit after unit, stamped per unit when race detection is on.
    fn execute_on_caller(
        &self,
        schedule: &Schedule,
        kernel: &(dyn Kernel + Sync),
        store: &mut ArrayStore,
    ) -> RunOutcome {
        let start_all = Instant::now();
        let mut phase_times = Vec::with_capacity(schedule.n_phases());
        let mut view = StoreView::exclusive(store);
        for (p, phase) in schedule.phases().enumerate() {
            let start = Instant::now();
            rcp_guard::tick(rcp_guard::Stage::Execution, 1);
            rcp_guard::fail_point("runtime::phase", rcp_guard::Stage::Execution);
            let n_units = phase.width();
            if self.detect_races && n_units > 1 {
                for (k, unit) in phase.units().enumerate() {
                    view.set_unit(Some((p, k)));
                    run_instances(schedule, unit.instance_range(), kernel, &mut view);
                }
                view.set_unit(None);
            } else {
                run_instances(schedule, phase.instance_range(), kernel, &mut view);
            }
            if n_units > 1 {
                rcp_guard::fail_point("runtime::barrier", rcp_guard::Stage::Execution);
            }
            phase_times.push(start.elapsed());
        }
        (phase_times, start_all.elapsed(), view.into_conflicts())
    }

    /// Multi-worker execution on a pool of `n_threads` OS threads that
    /// persists across all phases of the schedule (one spawn/join per
    /// execution, not per phase — many-phase dataflow schedules would
    /// otherwise drown in thread churn).
    ///
    /// Workers park on a barrier between phases; the coordinator publishes
    /// each phase's units and batches and releases the workers, which write
    /// the reserved store in place through shared views.
    // Panic-hygiene allow: the lock `expect`s fire only when a sibling
    // thread already panicked while holding the lock; every panic here is
    // caught by the surrounding catch_unwind frames, recorded with worker
    // context, and re-raised once all workers have parked — the documented
    // propagation path, never a silent hang.
    #[allow(clippy::expect_used)]
    fn execute_on_pool(
        &self,
        schedule: &Schedule,
        kernel: &(dyn Kernel + Sync),
        store: &ArrayStore,
    ) -> RunOutcome {
        let mut phase_times = Vec::with_capacity(schedule.n_phases());
        let mut total_time = Duration::ZERO;

        struct PhaseTask<'s> {
            index: usize,
            phase: Phase<'s>,
            batches: Vec<std::ops::Range<usize>>,
        }
        let task: RwLock<Option<PhaseTask>> = RwLock::new(None);
        let conflicts: Mutex<Vec<(String, IVec)>> = Mutex::new(Vec::new());
        let report = |view: StoreView| {
            let found = view.into_conflicts();
            if !found.is_empty() {
                conflicts
                    .lock()
                    .expect("conflict list poisoned")
                    .extend(found);
            }
        };
        let cursor = AtomicUsize::new(0);
        let ready = Barrier::new(self.n_threads + 1);
        let phase_start = Barrier::new(self.n_threads + 1);
        let phase_end = Barrier::new(self.n_threads + 1);
        let shutdown = AtomicBool::new(false);
        let detect_races = self.detect_races;
        // First panic payload from any worker or the coordinator's phase
        // loop.  Worker bodies are wrapped in catch_unwind so a panicking
        // kernel can never strand the other side at a barrier (the rayon
        // executor this replaces propagated panics; a deadlock would turn a
        // crash into a silent hang).  The payload is enriched with which
        // worker it came from (`rcp_guard::with_context`) instead of being
        // flattened into a generic "worker panicked".
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let record_panic = |payload: Box<dyn std::any::Any + Send>, context: String| {
            let payload = rcp_guard::with_context(payload, context);
            // The slot lock is only ever held for this insert, so a poison
            // marker (another thread recording while panicking) protects
            // nothing: recover and keep the first payload.
            let mut slot = match panic_payload.lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.get_or_insert(payload);
        };
        // Re-install the caller's budget guard inside every worker so
        // kernel-side checkpoints keep charging the session budget.
        let active_guard = rcp_guard::current();

        std::thread::scope(|scope| {
            for worker_id in 0..self.n_threads {
                // Shadow the shared state with references so the `move`
                // closure moves only those (and the copyable worker id).
                #[allow(clippy::redundant_locals)]
                let (task, report, cursor) = (&task, &report, &cursor);
                let (ready, phase_start, phase_end) = (&ready, &phase_start, &phase_end);
                let (shutdown, record_panic, active_guard) =
                    (&shutdown, &record_panic, &active_guard);
                scope.spawn(move || {
                    rcp_guard::maybe_scope(active_guard.as_ref(), || {
                        ready.wait();
                        loop {
                            phase_start.wait();
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    rcp_guard::fail_point(
                                        "runtime::phase",
                                        rcp_guard::Stage::Execution,
                                    );
                                    let task_guard = task.read().expect("task lock poisoned");
                                    let task = task_guard.as_ref().expect("phase task published");
                                    let mut view = StoreView::shared(store);
                                    // Dynamic self-scheduling: claim the next
                                    // unclaimed batch from the shared cursor until
                                    // the queue drains.
                                    loop {
                                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                                        let Some(range) = task.batches.get(b) else {
                                            break;
                                        };
                                        for unit_id in range.clone() {
                                            if detect_races {
                                                view.set_unit(Some((task.index, unit_id)));
                                            }
                                            run_instances(
                                                schedule,
                                                task.phase.unit(unit_id).instance_range(),
                                                kernel,
                                                &mut view,
                                            );
                                        }
                                    }
                                    report(view);
                                }));
                            if let Err(payload) = outcome {
                                record_panic(payload, format!("executor worker {worker_id}"));
                            }
                            phase_end.wait();
                        }
                    })
                });
            }

            // Exclude pool start-up from the measured execution time: wait
            // until every worker is parked at its first phase barrier.
            ready.wait();
            let start_all = Instant::now();

            // The coordinator's phase loop is also unwind-guarded: if it
            // panicked with workers parked, the scope's implicit join would
            // deadlock.
            let coordinator = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for (p, phase) in schedule.phases().enumerate() {
                    let start = Instant::now();
                    rcp_guard::tick(rcp_guard::Stage::Execution, 1);
                    // Fast path: a single unit has no intra-phase
                    // concurrency (and cannot race) — run it on the
                    // coordinator while the workers stay parked.
                    if phase.width() == 1 {
                        let mut view = StoreView::shared(store);
                        run_instances(schedule, phase.instance_range(), kernel, &mut view);
                        report(view);
                        phase_times.push(start.elapsed());
                        continue;
                    }
                    let batches = self.batch_units(&phase);
                    *task.write().expect("task lock poisoned") = Some(PhaseTask {
                        index: p,
                        phase,
                        batches,
                    });
                    cursor.store(0, Ordering::Relaxed);
                    phase_start.wait();
                    phase_end.wait();
                    if panic_payload.lock().expect("panic slot poisoned").is_some() {
                        break;
                    }
                    rcp_guard::fail_point("runtime::barrier", rcp_guard::Stage::Execution);
                    phase_times.push(start.elapsed());
                }
            }));
            if let Err(payload) = coordinator {
                record_panic(payload, "executor coordinator".to_string());
            }
            total_time = start_all.elapsed();
            // Release the workers to exit; every worker is parked at
            // phase_start (their bodies cannot unwind), so this cannot
            // hang.
            shutdown.store(true, Ordering::Release);
            phase_start.wait();
        });

        let recorded = match panic_payload.into_inner() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(payload) = recorded {
            std::panic::resume_unwind(payload);
        }
        let conflicts = match conflicts.into_inner() {
            Ok(list) => list,
            Err(poisoned) => poisoned.into_inner(),
        };
        (phase_times, total_time, conflicts)
    }

    /// Packs consecutive units of a phase into batches of at least
    /// `min_batch_instances` statement instances.  Returns the unit-index
    /// ranges of each batch (batches partition `0..phase.width()`).
    fn batch_units(&self, phase: &Phase) -> Vec<std::ops::Range<usize>> {
        let mut batches = Vec::new();
        let mut batch_start = 0;
        let mut batch_instances = 0usize;
        let n_units = phase.width();
        for (k, unit) in phase.units().enumerate() {
            batch_instances += unit.instance_range().len();
            if batch_instances >= self.min_batch_instances {
                batches.push(batch_start..k + 1);
                batch_start = k + 1;
                batch_instances = 0;
            }
        }
        if batch_start < n_units {
            batches.push(batch_start..n_units);
        }
        batches
    }
}

/// Runs the schedule's instances `range` in slab order.
fn run_instances(
    schedule: &Schedule,
    range: std::ops::Range<usize>,
    kernel: &dyn Kernel,
    view: &mut StoreView,
) {
    for (stmt, indices) in schedule.instances_in(range) {
        kernel.run(stmt, indices, view);
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

    /// One DOALL phase of single-instance items of statement 0 (depth 1)
    /// at the loop index values `at`.
    fn doall(name: &str, at: &[i64]) -> Schedule {
        let mut builder = ScheduleBuilder::new(name, &[1]);
        builder.phase(PhaseKind::Doall);
        for &i in at {
            builder.single(0, &[i]);
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

    #[test]
    fn worker_panics_propagate_instead_of_hanging() {
        let kernel = FnKernel(|_s: usize, idx: &[i64], store: &mut StoreView| {
            if idx[0] == 7 {
                panic!("kernel boom");
            }
            store.write("a", idx, 1.0);
        });
        let schedule = doall("panicky", &(1..=20).collect::<Vec<_>>());
        for threads in [2, 4] {
            // Fallback disabled so the pool path itself is exercised even
            // for this tiny schedule (and on single-core machines).
            let executor = ParallelExecutor::new(threads)
                .with_min_batch_instances(1)
                .with_sequential_fallback(false);
            assert!(executor.uses_pool(&schedule));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                executor.execute(&schedule, &kernel)
            }));
            match outcome {
                Err(payload) => {
                    // The payload must survive the worker boundary with the
                    // original message plus which worker raised it — not be
                    // flattened into a generic "worker panicked".
                    let captured = payload
                        .downcast::<rcp_guard::CapturedPanic>()
                        .expect("worker panics carry a CapturedPanic payload");
                    assert_eq!(captured.message, "kernel boom");
                    assert_eq!(captured.context.len(), 1, "{:?}", captured.context);
                    assert!(
                        captured.context[0].starts_with("executor worker "),
                        "context names the worker: {:?}",
                        captured.context
                    );
                }
                Ok(_) => panic!("the kernel panic must propagate, not hang or vanish"),
            }
        }
    }

    #[test]
    fn small_schedules_fall_back_to_inline_execution() {
        let p = figure2();
        let seq = Schedule::sequential(&p, &[]);
        // 20 instances can never amortise pool start-up: the default
        // executor must choose the inline path at any thread count…
        for threads in [2, 4, 16] {
            assert!(!ParallelExecutor::new(threads).uses_pool(&seq));
        }
        // …and still produce the correct result there.
        let kernel = RefKernel::new(&p);
        let a = execute_sequential(&seq, &kernel);
        let b = ParallelExecutor::new(4).execute(&seq, &kernel);
        assert!(Verification::check(&a, &b).passed());
        // Opting out restores the pool path.
        assert!(ParallelExecutor::new(4)
            .with_sequential_fallback(false)
            .uses_pool(&seq));
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

    /// An executor that runs on the worker pool whatever the schedule's
    /// size, with every unit of a phase in one batch: one worker then runs
    /// a phase's units in program order, in place.
    fn forced_pool(threads: usize) -> ParallelExecutor {
        ParallelExecutor::new(threads)
            .with_sequential_fallback(false)
            .with_min_batch_instances(usize::MAX)
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
            for batch in [1, usize::MAX] {
                let executor = ParallelExecutor::new(threads)
                    .with_sequential_fallback(false)
                    .with_min_batch_instances(batch);
                let result = executor.execute(&parallel, &kernel);
                let v = Verification::check(&reference, &result);
                assert!(v.passed(), "{threads} threads, batch {batch}: {v}");
                assert!(reference == result.store);
            }
        }
    }

    #[test]
    fn an_invalid_doall_cannot_verify_by_luck() {
        // Figure 2 as one DOALL, run by one worker in program order: in
        // place, that reproduces the sequential store exactly, so only the
        // per-cell stamps can tell the schedule is wrong.
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
        // running both iterations as two units in the given order.
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
            let racy = doall(what, &order);
            for threads in [1, 2, 4] {
                let result = forced_pool(threads).execute(&racy, &kernel);
                let v = Verification::check(&reference, &result);
                assert!(!v.passed(), "{what} at {threads} threads was not caught");
            }
        }
    }

    #[test]
    fn pool_writes_outside_the_reservation_are_conflicts() {
        // `FnKernel` reserves nothing: on the pool its writes cannot be
        // placed, and say so, instead of vanishing.
        let kernel = FnKernel(|_s: usize, idx: &[i64], store: &mut StoreView| {
            store.write("a", idx, 1.0);
        });
        let schedule = doall("unreserved", &[1, 2, 3, 4]);
        let result = forced_pool(2).execute(&schedule, &kernel);
        assert_eq!(result.races.len(), 4);
        // Inline, the same kernel grows the store instead.
        let inline = ParallelExecutor::new(1).execute(&schedule, &kernel);
        assert!(inline.race_free());
        assert_eq!(inline.store.written_len(), 4);
    }
}
