//! `RefKernel` runs a statement instance without touching the heap once
//! the store is laid out: subscripts evaluate into a stack buffer and
//! every access goes to a reserved slot.  An executor's run of a laid-out
//! store allocates the same number of times whatever the schedule's size:
//! no range or unit the kernel runs allocates.

use rcp_codegen::{PhaseKind, Schedule, ScheduleBuilder};
use rcp_loopir::expr::{c, v};
use rcp_loopir::program::build::{loop_, stmt};
use rcp_loopir::{ArrayRef, Program};
use rcp_runtime::{execute_sequential, ArrayStore, Kernel, ParallelExecutor, RefKernel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.
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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn ref_kernel_instances_do_not_allocate() {
    // Two statements, two arrays, negative offsets and a 2-D read.
    let program = Program::new(
        "alloc",
        &[],
        vec![loop_(
            "I",
            c(1),
            c(12),
            vec![loop_(
                "J",
                c(1),
                c(9),
                vec![
                    stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") * 3 - c(5), v("I") + v("J")]),
                            ArrayRef::read("a", vec![v("I") + c(3), v("J") - c(1)]),
                            ArrayRef::read("b", vec![v("J")]),
                        ],
                    ),
                    stmt(
                        "T",
                        vec![
                            ArrayRef::write("b", vec![v("J") + c(1)]),
                            ArrayRef::read("a", vec![v("I") * 3 - c(5), v("J")]),
                        ],
                    ),
                ],
            )],
        )],
    );
    let schedule = Schedule::sequential(&program, &[]);
    let kernel = RefKernel::new(&program);
    let mut store = ArrayStore::new();
    kernel.reserve(&schedule, &mut store);
    assert_eq!(schedule.n_instances(), 2 * 12 * 9);
    let before = allocations();
    for (stmt, indices) in schedule.instances() {
        kernel.execute(stmt, indices, &mut store);
    }
    assert_eq!(allocations() - before, 0, "running instances allocated");
    assert_eq!(store.written_len(), 12 * 9 + 9);
}

/// `a(I, J) = a(I, J - 1), b(J)` and `c(2I - 3, J) = a(I, J)` over
/// `I = 1..n`, `J = 1..m`: the rows of `I` are independent, and `b` is read
/// but never written.
fn rows(n: i64, m: i64) -> Program {
    Program::new(
        "rows",
        &[],
        vec![loop_(
            "I",
            c(1),
            c(n),
            vec![loop_(
                "J",
                c(1),
                c(m),
                vec![
                    stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I"), v("J")]),
                            ArrayRef::read("a", vec![v("I"), v("J") - c(1)]),
                            ArrayRef::read("b", vec![v("J")]),
                        ],
                    ),
                    stmt(
                        "T",
                        vec![
                            ArrayRef::write("c", vec![v("I") * 2 - c(3), v("J")]),
                            ArrayRef::read("a", vec![v("I"), v("J")]),
                        ],
                    ),
                ],
            )],
        )],
    )
}

/// The allocations of a sequential run of `rows(n, m)`, and of a checked
/// one-thread run of its DOALL over the rows, one unit per row.
fn run_allocations(n: i64, m: i64) -> (usize, usize) {
    let program = rows(n, m);
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &[]);
    let mut builder = ScheduleBuilder::new("rows", &[2, 2]);
    builder.phase(PhaseKind::Doall);
    for i in 1..=n {
        builder.item();
        for j in 1..=m {
            builder.instance(0, &[i, j]);
            builder.instance(1, &[i, j]);
        }
    }
    let doall = builder.finish();
    assert_eq!(doall.phase(0).width(), n as usize);
    let before = allocations();
    let want = execute_sequential(&sequential, &kernel);
    let sequential_allocations = allocations() - before;
    let before = allocations();
    let result = ParallelExecutor::new(1).execute(&doall, &kernel);
    let checked_allocations = allocations() - before;
    assert!(result.race_free() && result.store == want);
    assert_eq!(want.written_len(), 2 * (n * m) as usize);
    (sequential_allocations, checked_allocations)
}

#[test]
fn executor_runs_allocate_the_same_at_every_schedule_size() {
    // The first runs register the executor's metrics.
    run_allocations(2, 2);
    let small = run_allocations(4, 3);
    let large = run_allocations(60, 45);
    assert_eq!(small, large, "(sequential, checked) allocations");
}
