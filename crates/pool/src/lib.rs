//! A `scope`/`par_map` facility on OS threads.
//!
//! Any data-parallel, *non-schedule* work — sharded dependence analysis
//! over reference pairs, concurrent benchmark experiments — runs through
//! [`par_map`] instead of hand-rolling its own `std::thread::scope` loop.
//! Schedules do not: `rcp_runtime::ParallelExecutor` cuts each phase it
//! shares into one contiguous block per thread before its threads start.
//! It sits directly above `rcp-guard` and below every other workspace crate,
//! so both the analysis front end (`rcp-depend`) and the runtime
//! (`rcp-runtime`, which re-exports this crate as `rcp_runtime::pool`) can
//! share it without a dependency cycle.
//!
//! Design points:
//!
//! * **Dynamic self-scheduling.** Workers claim the next unclaimed item
//!   from a shared atomic cursor (like OpenMP `schedule(dynamic)`), so
//!   uneven item costs load-balance automatically.
//! * **Deterministic results.** The output vector is in input order no
//!   matter which worker computed which item, so callers can merge
//!   per-shard results deterministically.
//! * **Inline fast path.** With one thread (or one item) the closure runs
//!   on the caller — no spawning, no synchronisation — so callers can use
//!   `par_map` unconditionally and let the thread count decide.
//! * **Panic propagation with payloads.** A panicking item panics the
//!   caller — but unlike raw `std::thread::scope` (whose join replaces the
//!   payload with a generic "a scoped thread panicked") the original
//!   payload is carried across, enriched with the item index via
//!   [`rcp_guard::resume_with_context`].  Budget-exhaustion payloads
//!   ([`rcp_guard::BudgetExceeded`]) pass through untouched, and the
//!   remaining workers stop claiming items once one has failed.
//! * **Guard propagation.** The caller's installed budget guard
//!   ([`rcp_guard::current`]) is re-installed inside every worker, so
//!   checkpoints inside `f` keep charging the same budget across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The number of hardware threads available to this process (at least 1),
/// asked of the OS once per process: the answer reads the process's
/// cgroup limits, tens of microseconds a call, and every multi-threaded
/// run asks.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Registry counter handles, resolved once: `par_map` can be called in
/// tight benchmark loops, and a handle bump is one relaxed `fetch_add`
/// versus a registry-map lookup per call.
struct PoolMetrics {
    calls: rcp_trace::Counter,
    items: rcp_trace::Counter,
    inline: rcp_trace::Counter,
    workers: rcp_trace::Counter,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        calls: rcp_trace::counter("pool.par_map.calls"),
        items: rcp_trace::counter("pool.par_map.items"),
        inline: rcp_trace::counter("pool.par_map.inline"),
        workers: rcp_trace::counter("pool.par_map.workers"),
    })
}

/// Applies `f` to every item of `items` on up to `n_threads` OS threads and
/// returns the results **in input order**.
///
/// Items are claimed dynamically (self-scheduling), so the assignment of
/// items to threads is non-deterministic but the result vector is not.
/// With `n_threads <= 1` or fewer than two items the map runs inline on the
/// calling thread.
///
/// # Panics
/// Propagates the first panic raised by `f`, keeping its payload (see the
/// crate docs).
pub fn par_map<T: Sync, R: Send>(
    n_threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    par_map_indexed(n_threads, items, |_, item| f(item))
}

/// Recovers a possibly poisoned slot lock: the protected value is a plain
/// `Option<R>` that is only ever *assigned*, so a poison marker (left by a
/// panic elsewhere in the scope) carries no invariant to protect.
fn recover<'a, T>(lock: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match lock.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`par_map`] variant whose closure also receives the item index.
///
/// # Panics
/// Propagates the first panic raised by `f`, keeping its payload (see the
/// crate docs).
pub fn par_map_indexed<T: Sync, R: Send>(
    n_threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = n_threads.max(1).min(items.len());
    let m = metrics();
    m.calls.inc();
    m.items.add(items.len() as u64);
    if workers <= 1 {
        m.inline.inc();
        return items.iter().enumerate().map(|(k, it)| f(k, it)).collect();
    }
    m.workers.add(workers as u64);
    let guard = rcp_guard::current();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                rcp_guard::maybe_scope(guard.as_ref(), || loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(k) else {
                        break;
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(k, item))) {
                        Ok(result) => *recover(&slots[k]) = Some(result),
                        Err(payload) => {
                            failed.store(true, Ordering::Relaxed);
                            let mut slot = recover(&first_panic);
                            if slot.is_none() {
                                *slot = Some((k, payload));
                            }
                            break;
                        }
                    }
                })
            });
        }
    });
    if let Some((k, payload)) = recover(&first_panic).take() {
        rcp_guard::resume_with_context(payload, format!("par_map item {k}"));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            let value = match slot.into_inner() {
                Ok(value) => value,
                Err(poisoned) => poisoned.into_inner(),
            };
            match value {
                Some(result) => result,
                // Unreachable: with no recorded panic, every claimed index
                // < items.len() was computed before its worker exited.
                None => unreachable!("par_map item {k} not computed"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(threads, &items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_indexed_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map_indexed(3, &items, |k, s| format!("{k}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(4, &empty, |x| *x).is_empty());
        assert_eq!(par_map(4, &[42], |x| *x), vec![42]);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let outcome = std::panic::catch_unwind(|| {
            par_map(4, &items, |&x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(outcome.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn panic_payloads_survive_with_item_context() {
        let items: Vec<usize> = (0..64).collect();
        let result = rcp_guard::catch(|| {
            par_map(4, &items, |&x| {
                if x == 13 {
                    panic!("solver bug on item {x}");
                }
                x
            })
        });
        match result {
            Err(rcp_guard::Interrupt::Panic(p)) => {
                assert_eq!(p.message, "solver bug on item 13");
                assert_eq!(p.context, vec!["par_map item 13".to_string()]);
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
    }

    #[test]
    fn budget_guards_propagate_into_workers() {
        use rcp_guard::{BudgetSpec, Guard, Interrupt, Stage};
        let items: Vec<usize> = (0..256).collect();
        let guard = Guard::new(BudgetSpec::unlimited().with_max_work(32));
        let result = rcp_guard::scope(&guard, || {
            rcp_guard::catch(|| {
                par_map(4, &items, |&x| {
                    rcp_guard::tick(Stage::Analysis, 1);
                    x
                })
            })
        });
        match result {
            Err(Interrupt::Budget(b)) => {
                assert_eq!(b.stage, Stage::Analysis);
                assert_eq!(b.limit, 32);
            }
            other => panic!("expected budget exhaustion from inside workers, got {other:?}"),
        }
        // Unlimited guard: all items complete and the shared counter saw
        // every tick from every worker thread.
        let guard = Guard::new(BudgetSpec::unlimited());
        let out = rcp_guard::scope(&guard, || {
            par_map(4, &items, |&x| {
                rcp_guard::tick(Stage::Analysis, 1);
                x
            })
        });
        assert_eq!(out.len(), items.len());
        assert_eq!(guard.work_spent(), items.len() as u64);
    }
}
