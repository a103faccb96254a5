//! Building a schedule allocates per slab, not per instance: the
//! sequential and the recurrence-chains schedule of example 1 make as many
//! allocations at 120×200 as at 20×30, up to a few more doublings of the
//! slab's vectors.

use rcp_codegen::Schedule;
use rcp_core::concrete_partition;
use rcp_depend::DependenceAnalysis;
use rcp_loopir::expr::{c, v};
use rcp_loopir::program::build::{loop_, stmt};
use rcp_loopir::{ArrayRef, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.  A
/// `realloc` goes through `alloc` and counts too.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`,
// whose access never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// The Example-1 loop of the paper (figure 1).
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

/// Allocations a 40x larger schedule may add: a few doublings of each of
/// the slab's vectors, nowhere near one per instance.
const SLACK: usize = 24;

#[test]
fn building_a_schedule_does_not_allocate_per_instance() {
    let program = example1();
    let analysis = DependenceAnalysis::loop_level(&program);
    let mut counts = Vec::new();
    for values in [[20i64, 30], [120, 200]] {
        let instances = (values[0] * values[1]) as usize;
        let partition = concrete_partition(&analysis, &values);
        let (sequential, seq_allocs) = counted(|| Schedule::sequential(&program, &values));
        let (rec, rec_allocs) = counted(|| {
            Schedule::from_partition(
                &analysis.program,
                analysis.granularity,
                &values,
                &partition,
                "example1-rec",
            )
        });
        assert_eq!(sequential.n_instances(), instances);
        assert_eq!(rec.n_instances(), instances);
        assert_eq!(rec.n_phases(), 3, "P1, the chains and P3");
        counts.push((values, seq_allocs, rec_allocs));
    }
    let (small, large) = (counts[0], counts[1]);
    assert!(
        large.1 <= small.1 + SLACK && large.2 <= small.2 + SLACK,
        "(binding, sequential, recurrence-chains) allocations: {counts:?}"
    );
}
