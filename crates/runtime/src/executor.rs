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
//!   so per-unit scheduling overhead stays amortised.  Each unit computes
//!   against the frozen pre-phase store through a [`BufferedView`], and the
//!   buffered writes are merged at the phase barrier.  Overlapping writes
//!   by two concurrent units are reported as a race (a correct partition
//!   never produces one).  On the trusted-schedule fast path large barrier
//!   merges are sharded per-array over the pool, and a cost-model-driven
//!   sequential fallback (see [`ParallelExecutor::with_sequential_fallback`])
//!   runs schedules too small to amortise pool overhead inline instead.
//! * [`verify_schedule`] checks the parallel result against the
//!   sequential result bit for bit ([`Verification::check`]).
//!
//! The thread pool is built on `std::thread::scope` with a shared atomic
//! work queue (dynamic self-scheduling, like OpenMP `schedule(dynamic)`).
//! The workspace builds in fully offline environments, so rayon cannot be
//! assumed; the executor keeps the same phase/barrier semantics a
//! rayon-backed implementation would have, and `ParallelExecutor` is the
//! single seam to swap one in.

use crate::array::{Array, ArrayStore, BufferedView};
use crate::cost::CostModel;
use crate::kernel::Kernel;
use rcp_codegen::{Phase, Schedule, WorkItem};
use rcp_intlin::IVec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Registry handles for the executor's phase/merge statistics — the
/// `executor.*` metrics a profile or `rcp stats` reports.  Resolved once;
/// each use is one relaxed `fetch_add`.
struct ExecMetrics {
    phases: rcp_trace::Counter,
    merge_replay: rcp_trace::Counter,
    merge_sharded: rcp_trace::Counter,
    merge_writes: rcp_trace::Counter,
    races: rcp_trace::Counter,
    phase_us: rcp_trace::Histogram,
}

fn metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        phases: rcp_trace::counter("executor.phases"),
        merge_replay: rcp_trace::counter("executor.merge.replay"),
        merge_sharded: rcp_trace::counter("executor.merge.sharded"),
        merge_writes: rcp_trace::counter("executor.merge.writes"),
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
    /// Write-write races detected between concurrent units of a phase
    /// (empty for a valid schedule).
    pub races: Vec<(String, IVec)>,
}

impl ExecutionResult {
    /// True when no intra-phase write conflicts were detected.
    pub fn race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// Executes the program sequentially (original statement-instance order).
pub fn execute_sequential(schedule: &Schedule, kernel: &dyn Kernel) -> ArrayStore {
    let mut store = ArrayStore::new();
    for phase in &schedule.phases {
        match phase {
            Phase::Doall(items) => {
                for item in items {
                    run_item(item, kernel, &mut store);
                }
            }
            Phase::ChainSet(chains) => {
                for chain in chains {
                    for item in chain {
                        run_item(item, kernel, &mut store);
                    }
                }
            }
        }
    }
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
    cost_model: CostModel,
}

/// One unit of intra-phase concurrency: the items execute sequentially in
/// order, distinct units may run on different workers.
type Unit<'s> = &'s [WorkItem];

/// The buffered writes of one unit or batch, grouped by array.
type WriteBuffer = Vec<(String, Vec<(IVec, f64)>)>;

impl ParallelExecutor {
    /// Default number of statement instances a batch is grown to before the
    /// next unit starts a new batch.
    pub const DEFAULT_MIN_BATCH_INSTANCES: usize = 64;

    /// Buffered writes below this count are merged inline at the barrier;
    /// at or above it (without race detection) the merge is sharded
    /// per-array over the pool.
    pub const PAR_MERGE_MIN_WRITES: usize = 8 * 1024;

    /// An executor with `n_threads` workers (0 and 1 both mean "run
    /// inline"), default batching, and the cost-model-driven sequential
    /// fallback enabled.
    pub fn new(n_threads: usize) -> Self {
        ParallelExecutor {
            n_threads: n_threads.max(1),
            min_batch_instances: Self::DEFAULT_MIN_BATCH_INSTANCES,
            detect_races: true,
            sequential_fallback: true,
            cost_model: CostModel::default(),
        }
    }

    /// Overrides the batching granularity; `1` disables batching (every
    /// unit is its own queue entry).
    pub fn with_min_batch_instances(mut self, min_batch_instances: usize) -> Self {
        self.min_batch_instances = min_batch_instances.max(1);
        self
    }

    /// Enables or disables intra-phase write-write race detection.
    ///
    /// Detection is on by default and is what [`verify_schedule`] relies
    /// on.  Disabling it is the trusted-schedule fast path for measured
    /// benchmark runs: units of one batch then share one write buffer, so
    /// the executor does no per-unit bookkeeping and the barrier merge does
    /// no conflict tracking.  For a *valid* schedule (disjoint writes
    /// between concurrent units, reads only of pre-phase values) the final
    /// store is identical either way.
    pub fn with_race_detection(mut self, detect_races: bool) -> Self {
        self.detect_races = detect_races;
        self
    }

    /// Supplies the cost model used by the sequential-fallback decision
    /// (defaults to [`CostModel::default`]; benchmarks pass a calibrated
    /// model so the decision reflects the real per-instance cost).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Enables or disables the cost-model-driven sequential fallback.
    ///
    /// With the fallback on (the default), a schedule whose modelled pool
    /// execution — thread spawning, per-phase barriers, work divided over
    /// at most the hardware's threads — does not beat inline sequential
    /// execution runs on the calling thread instead.  Small schedules then
    /// no longer pay pool overhead for a guaranteed slowdown, and thread
    /// counts beyond the hardware are never oversubscribed.
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
                || self.cost_model.parallel_pays_off(
                    schedule,
                    self.n_threads,
                    rcp_pool::available_threads(),
                ))
    }

    /// Executes the schedule and returns the final store, per-phase wall
    /// clock, and any intra-phase write-write races.
    pub fn execute(&self, schedule: &Schedule, kernel: &(dyn Kernel + Sync)) -> ExecutionResult {
        let _span = rcp_trace::span!("executor.run");
        let result = if self.uses_pool(schedule) {
            self.execute_on_pool(schedule, kernel)
        } else {
            self.execute_on_caller(schedule, kernel)
        };
        let m = metrics();
        m.phases.add(result.phase_times.len() as u64);
        m.races.add(result.races.len() as u64);
        for phase in &result.phase_times {
            m.phase_us
                .observe(u64::try_from(phase.as_micros()).unwrap_or(u64::MAX));
        }
        result
    }

    /// Single-worker execution: every phase runs on the calling thread,
    /// keeping the buffered-view semantics (and race detection) per unit.
    fn execute_on_caller(
        &self,
        schedule: &Schedule,
        kernel: &(dyn Kernel + Sync),
    ) -> ExecutionResult {
        let mut store = ArrayStore::new();
        let mut phase_times = Vec::with_capacity(schedule.phases.len());
        let mut races = Vec::new();
        let start_all = Instant::now();
        for phase in &schedule.phases {
            let start = Instant::now();
            rcp_guard::tick(rcp_guard::Stage::Execution, 1);
            rcp_guard::fail_point("runtime::phase", rcp_guard::Stage::Execution);
            if !self.detect_races {
                // Without detection a single worker executing units in
                // order is equivalent to buffered execution for the valid
                // schedules that mode is for — run the phase directly, no
                // per-phase unit vector.
                for item in phase_items(phase) {
                    run_item(item, kernel, &mut store);
                }
                phase_times.push(start.elapsed());
                continue;
            }
            let units = phase_units(phase);
            if units.len() == 1 {
                // A single unit cannot race.
                for unit in &units {
                    for item in *unit {
                        run_item(item, kernel, &mut store);
                    }
                }
            } else {
                let buffers: Vec<std::ops::Range<usize>> =
                    (0..units.len()).map(|k| k..k + 1).collect();
                let buffer_writes: Vec<WriteBuffer> = buffers
                    .iter()
                    .map(|r| run_buffer(&units, r.clone(), &store, kernel))
                    .collect();
                merge_buffers(&mut store, &buffer_writes, true, &mut races);
            }
            phase_times.push(start.elapsed());
        }
        ExecutionResult {
            store,
            phase_times,
            total_time: start_all.elapsed(),
            races,
        }
    }

    /// Multi-worker execution on a pool of `n_threads` OS threads that
    /// persists across all phases of the schedule (one spawn/join per
    /// execution, not per phase — many-phase dataflow schedules would
    /// otherwise drown in thread churn).
    ///
    /// Workers park on a barrier between phases; the coordinator publishes
    /// each phase's units and batches, releases the workers, and merges
    /// their buffered writes at the phase barrier.
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
    ) -> ExecutionResult {
        let store = RwLock::new(ArrayStore::new());
        let mut phase_times = Vec::with_capacity(schedule.phases.len());
        let mut races = Vec::new();
        let mut total_time = Duration::ZERO;

        struct PhaseTask<'s> {
            units: Vec<Unit<'s>>,
            batches: Vec<std::ops::Range<usize>>,
            detect_races: bool,
        }
        let task: RwLock<Option<PhaseTask>> = RwLock::new(None);
        let results: Mutex<Vec<(usize, WriteBuffer)>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        let ready = Barrier::new(self.n_threads + 1);
        let phase_start = Barrier::new(self.n_threads + 1);
        let phase_end = Barrier::new(self.n_threads + 1);
        let shutdown = AtomicBool::new(false);
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
                let (task, store, results, cursor) = (&task, &store, &results, &cursor);
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
                                    let frozen = store.read().expect("store lock poisoned");
                                    let mut produced = Vec::new();
                                    // Dynamic self-scheduling: claim the next
                                    // unclaimed batch from the shared cursor until
                                    // the queue drains.
                                    loop {
                                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                                        let Some(range) = task.batches.get(b) else {
                                            break;
                                        };
                                        if task.detect_races {
                                            // One buffer per unit, so write-write
                                            // conflicts between units stay
                                            // observable.
                                            for unit_id in range.clone() {
                                                let writes = run_buffer(
                                                    &task.units,
                                                    unit_id..unit_id + 1,
                                                    &frozen,
                                                    kernel,
                                                );
                                                produced.push((unit_id, writes));
                                            }
                                        } else {
                                            let writes = run_buffer(
                                                &task.units,
                                                range.clone(),
                                                &frozen,
                                                kernel,
                                            );
                                            produced.push((b, writes));
                                        }
                                    }
                                    drop(frozen);
                                    drop(task_guard);
                                    if !produced.is_empty() {
                                        results
                                            .lock()
                                            .expect("results lock poisoned")
                                            .append(&mut produced);
                                    }
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
                for phase in &schedule.phases {
                    let start = Instant::now();
                    rcp_guard::tick(rcp_guard::Stage::Execution, 1);
                    let units = phase_units(phase);
                    // Fast path: a single unit has no intra-phase
                    // concurrency (and cannot race) — run it on the
                    // coordinator while the workers stay parked.
                    if units.len() == 1 {
                        let mut store = store.write().expect("store lock poisoned");
                        for item in units[0] {
                            run_item(item, kernel, &mut store);
                        }
                        phase_times.push(start.elapsed());
                        continue;
                    }
                    let batches = self.batch_units(&units);
                    let n_buffers = if self.detect_races {
                        units.len()
                    } else {
                        batches.len()
                    };
                    *task.write().expect("task lock poisoned") = Some(PhaseTask {
                        units,
                        batches,
                        detect_races: self.detect_races,
                    });
                    cursor.store(0, Ordering::Relaxed);
                    phase_start.wait();
                    phase_end.wait();
                    if panic_payload.lock().expect("panic slot poisoned").is_some() {
                        break;
                    }
                    let mut per_buffer: Vec<WriteBuffer> = vec![Vec::new(); n_buffers];
                    for (buffer_id, writes) in
                        results.lock().expect("results lock poisoned").drain(..)
                    {
                        per_buffer[buffer_id] = writes;
                    }
                    let mut store = store.write().expect("store lock poisoned");
                    if self.detect_races {
                        merge_buffers(&mut store, &per_buffer, true, &mut races);
                    } else {
                        merge_buffers_per_array(
                            &mut store,
                            &per_buffer,
                            self.n_threads.min(rcp_pool::available_threads()),
                        );
                    }
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

        ExecutionResult {
            store: store.into_inner().expect("store lock poisoned"),
            phase_times,
            total_time,
            races,
        }
    }

    /// Packs consecutive units into batches of at least
    /// `min_batch_instances` statement instances.  Returns the unit-index
    /// ranges of each batch (batches partition `0..units.len()`).
    fn batch_units(&self, units: &[Unit]) -> Vec<std::ops::Range<usize>> {
        let mut batches = Vec::new();
        let mut batch_start = 0;
        let mut batch_instances = 0usize;
        for (k, unit) in units.iter().enumerate() {
            batch_instances += unit.iter().map(|i| i.len()).sum::<usize>();
            if batch_instances >= self.min_batch_instances {
                batches.push(batch_start..k + 1);
                batch_start = k + 1;
                batch_instances = 0;
            }
        }
        if batch_start < units.len() {
            batches.push(batch_start..units.len());
        }
        batches
    }
}

/// All work items of a phase in execution order (no per-unit structure).
fn phase_items(phase: &Phase) -> impl Iterator<Item = &WorkItem> {
    let chains: &[Vec<WorkItem>] = match phase {
        Phase::Doall(items) => std::slice::from_ref(items),
        Phase::ChainSet(chains) => chains.as_slice(),
    };
    chains.iter().flatten()
}

/// The units of intra-phase concurrency: items of a DOALL, whole chains of
/// a chain set.
fn phase_units(phase: &Phase) -> Vec<Unit<'_>> {
    match phase {
        Phase::Doall(items) => items.iter().map(std::slice::from_ref).collect(),
        Phase::ChainSet(chains) => chains.iter().map(|c| c.as_slice()).collect(),
    }
}

/// Runs a contiguous range of units against the frozen store through one
/// buffered view and returns its writes.
fn run_buffer(
    units: &[Unit],
    range: std::ops::Range<usize>,
    frozen: &ArrayStore,
    kernel: &(dyn Kernel + Sync),
) -> WriteBuffer {
    let mut view = BufferedView::new(frozen);
    for unit in &units[range] {
        for item in *unit {
            for (stmt, indices) in &item.instances {
                kernel.execute(*stmt, indices, &mut view);
            }
        }
    }
    view.into_writes()
}

/// Merges buffered writes into the store at a phase barrier.  With
/// `detect_races` there is one buffer per unit and write-write conflicts
/// between different units are recorded; otherwise the merge is a plain
/// replay.
fn merge_buffers(
    store: &mut ArrayStore,
    buffer_writes: &[WriteBuffer],
    detect_races: bool,
    races: &mut Vec<(String, IVec)>,
) {
    rcp_guard::fail_point("runtime::merge", rcp_guard::Stage::Execution);
    let m = metrics();
    m.merge_replay.inc();
    m.merge_writes.add(
        buffer_writes
            .iter()
            .flat_map(|w| w.iter())
            .map(|(_, elements)| elements.len() as u64)
            .sum(),
    );
    if detect_races {
        let mut writer: HashMap<(String, IVec), usize> = HashMap::new();
        for (unit_id, writes) in buffer_writes.iter().enumerate() {
            for (array, elements) in writes {
                for (index, value) in elements {
                    match writer.entry((array.clone(), index.clone())) {
                        std::collections::hash_map::Entry::Occupied(mut entry) => {
                            if *entry.get() != unit_id {
                                races.push((array.clone(), index.clone()));
                            }
                            entry.insert(unit_id);
                        }
                        std::collections::hash_map::Entry::Vacant(entry) => {
                            entry.insert(unit_id);
                        }
                    }
                    store.set(array, index, *value);
                }
            }
        }
    } else {
        for writes in buffer_writes {
            for (array, elements) in writes {
                for (index, value) in elements {
                    store.set(array, index, *value);
                }
            }
        }
    }
}

/// Replays buffered writes into the store with the merge sharded
/// **per-array** over up to `n_threads` threads: every array's writes are
/// applied by exactly one thread, in buffer order, so the result is
/// identical to the sequential replay (concurrent units of a valid schedule
/// write disjoint elements; for overlapping writes the per-array buffer
/// order still matches the sequential merge).  Small merges — fewer than
/// [`ParallelExecutor::PAR_MERGE_MIN_WRITES`] writes, or a single array —
/// replay inline: sharding them would cost more in thread spawns than the
/// replay itself.
// Panic-hygiene allow: the grouped-map `unwrap` walks keys just collected
// from that map, and the job-lock `expect`s are uncontended single-owner
// locks whose poisoning implies a merge panic already in flight (caught by
// the executor's unwind frames).
#[allow(clippy::unwrap_used, clippy::expect_used)]
fn merge_buffers_per_array(
    store: &mut ArrayStore,
    buffer_writes: &[WriteBuffer],
    n_threads: usize,
) {
    rcp_guard::fail_point("runtime::merge", rcp_guard::Stage::Execution);
    let inline_replay = |store: &mut ArrayStore| {
        for writes in buffer_writes {
            for (array, elements) in writes {
                for (index, value) in elements {
                    store.set(array, index, *value);
                }
            }
        }
    };
    let total_writes: usize = buffer_writes
        .iter()
        .flat_map(|w| w.iter())
        .map(|(_, elements)| elements.len())
        .sum();
    let m = metrics();
    m.merge_writes.add(total_writes as u64);
    // Decide inline vs sharded before building any grouping, so the common
    // small-merge case allocates nothing extra.
    if n_threads <= 1 || total_writes < ParallelExecutor::PAR_MERGE_MIN_WRITES {
        m.merge_replay.inc();
        inline_replay(store);
        return;
    }
    // Group each array's write runs in buffer order.
    let mut grouped: HashMap<&str, Vec<&[(IVec, f64)]>> = HashMap::new();
    for writes in buffer_writes {
        for (array, elements) in writes {
            grouped
                .entry(array.as_str())
                .or_default()
                .push(elements.as_slice());
        }
    }
    if grouped.len() <= 1 {
        m.merge_replay.inc();
        inline_replay(store);
        return;
    }
    m.merge_sharded.inc();
    let mut names: Vec<&str> = grouped.keys().copied().collect();
    names.sort_unstable();
    // Take each array out of the store, fill them concurrently (the Mutex
    // is uncontended — one job per array), then put them back.
    type MergeJob<'w> = Mutex<(Array, Vec<&'w [(IVec, f64)]>)>;
    let jobs: Vec<MergeJob> = names
        .iter()
        .map(|name| Mutex::new((store.take_array(name), grouped.remove(name).unwrap())))
        .collect();
    rcp_pool::par_map(n_threads, &jobs, |job| {
        let mut guard = job.lock().expect("merge job poisoned");
        let (array, runs) = &mut *guard;
        for run in runs.iter() {
            for (index, value) in *run {
                array.set(index, *value);
            }
        }
    });
    for (name, job) in names.into_iter().zip(jobs) {
        let (array, _) = job.into_inner().expect("merge job poisoned");
        store.insert_array(name, array);
    }
}

fn run_item(item: &WorkItem, kernel: &dyn Kernel, store: &mut ArrayStore) {
    for (stmt, indices) in &item.instances {
        kernel.execute(*stmt, indices, store);
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
    use crate::kernel::RefKernel;
    use rcp_core::concrete_partition;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};

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
        let parallel = Schedule::from_partition(&analysis, &part, "figure2-rec");
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
        let parallel = Schedule::from_partition(&analysis, &part, "example1-rec");
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
        let item = WorkItem::single(0, vec![6]);
        let schedule = Schedule {
            name: "racy".to_string(),
            phases: vec![Phase::Doall(vec![item.clone(), item])],
        };
        let result = execute_schedule(&schedule, &kernel, 2);
        assert!(!result.race_free());
    }

    #[test]
    fn worker_panics_propagate_instead_of_hanging() {
        use crate::kernel::FnKernel;
        let kernel = FnKernel(
            |_s: usize, idx: &[i64], store: &mut dyn crate::array::StoreView| {
                if idx[0] == 7 {
                    panic!("kernel boom");
                }
                store.write("a", idx, 1.0);
            },
        );
        let items = (1..=20).map(|i| WorkItem::single(0, vec![i])).collect();
        let schedule = Schedule {
            name: "panicky".to_string(),
            phases: vec![Phase::Doall(items)],
        };
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
    fn per_array_parallel_merge_matches_sequential_replay() {
        // Enough writes across several arrays to cross the parallel-merge
        // threshold, including cross-buffer overwrites of the same element
        // (buffer order must win, as in the sequential replay).
        let arrays = ["a", "b", "c", "d", "e"];
        let buffers: Vec<WriteBuffer> = (0..8)
            .map(|b| {
                arrays
                    .iter()
                    .map(|name| {
                        let elements: Vec<(IVec, f64)> = (0..1024)
                            .map(|i| (vec![i as i64 % 700], (b * 10_000 + i) as f64))
                            .collect();
                        (name.to_string(), elements)
                    })
                    .collect()
            })
            .collect();
        let mut reference = ArrayStore::new();
        merge_buffers(&mut reference, &buffers, false, &mut Vec::new());
        for threads in [1, 2, 4] {
            let mut sharded = ArrayStore::new();
            merge_buffers_per_array(&mut sharded, &buffers, threads);
            assert!(
                reference.diff(&sharded, 0.0).is_empty(),
                "per-array merge with {threads} threads must equal the replay"
            );
        }
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
}
