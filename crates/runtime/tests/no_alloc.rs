//! `RefKernel` runs a statement instance without touching the heap once
//! the store is laid out: subscripts evaluate into a stack buffer and
//! every access goes to a reserved slot.

use rcp_codegen::Schedule;
use rcp_loopir::expr::{c, v};
use rcp_loopir::program::build::{loop_, stmt};
use rcp_loopir::{ArrayRef, Program};
use rcp_runtime::{ArrayStore, Kernel, RefKernel};
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
    let instances: Vec<&(usize, Vec<i64>)> = schedule
        .phases
        .iter()
        .flat_map(|phase| match phase {
            rcp_codegen::Phase::Doall(items) => items.iter().collect::<Vec<_>>(),
            rcp_codegen::Phase::ChainSet(chains) => chains.iter().flatten().collect(),
        })
        .flat_map(|item| &item.instances)
        .collect();
    assert_eq!(instances.len(), 2 * 12 * 9);
    let before = allocations();
    for (stmt, indices) in &instances {
        kernel.execute(*stmt, indices, &mut store);
    }
    assert_eq!(allocations() - before, 0, "running instances allocated");
    assert_eq!(store.written_len(), 12 * 9 + 9);
}
