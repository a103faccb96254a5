//! Statement kernels: the computation behind each statement of a loop nest.
//!
//! The dependence analyser only looks at the array *references* of a
//! statement; the runtime additionally needs the statement's actual
//! computation to execute and verify schedules.  A [`Kernel`] maps a
//! statement id and its loop index values to reads and writes through a
//! [`StoreView`].
//!
//! [`RefKernel`] derives a canonical kernel directly from the references of
//! a [`Program`]: every statement computes
//! `write := f(reads..., indices)` with a fixed non-commutative combiner, so
//! any re-ordering of dependent statement instances changes the final array
//! contents — which is exactly what the schedule-verification tests rely on.
//! Each reference is compiled once to an array slot and its affine
//! subscript rows ([`rcp_loopir::CompiledRefs`], shared with the dataflow
//! tracer), so running an instance allocates nothing.
//!
//! Before a run, [`RefKernel`] lays the store out as an
//! [`rcp_loopir::ElementLayout`] of the statement boxes the schedule
//! recorded as it was built: O(references) work, with no pass over the
//! schedule's instances.  In a store it laid out, an access is one dot
//! product of the reference's flat row and one range check.  It evaluates
//! the per-dimension subscripts only for the initial value of an element
//! nothing wrote, for a read the layout leaves outside the box, and in a
//! store it did not lay out, where a write may grow a box.  When the
//! layout hashes an array, whose box from the statement boxes would pass
//! the cell limit, the kernel instead reserves the exact box of the
//! schedule's writes, from one pass over its instances, and holds no
//! layout: a band such as `a(J - I, I)` for `J = I, I + 1` writes 2·N
//! elements, which its interval box of 2·N² cells would not admit.

use crate::array::{Array, ArrayStore, StoreView};
use rcp_codegen::Schedule;
use rcp_loopir::{
    Address, ArrayLayout, CompiledRef, CompiledRefs, ElementLayout, Program, StatementRows,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// The computation of a program's statements.
pub trait Kernel: Sync {
    /// Runs statement `stmt_id` at the given loop index values through the
    /// store view.
    fn run(&self, stmt_id: usize, indices: &[i64], store: &mut StoreView<'_>);

    /// Lays `store` out for a run of `schedule` before any instance runs:
    /// binds the arrays the kernel addresses by slot, and reserves a box
    /// around every element the schedule's instances write, so that
    /// parallel units can write in place without growing an array.  A
    /// layout beyond the store's cell limit is refused with a typed unwind
    /// (see [`crate::array`]).  The store must hold nothing yet for the
    /// kernel to reach it by flat offsets.
    ///
    /// The default reserves nothing.  Such a kernel still runs on the
    /// caller's thread, where writes grow boxes, but on the worker pool
    /// every write it makes lands outside the reservation and is reported
    /// as a conflict.
    fn reserve(&self, schedule: &Schedule, store: &mut ArrayStore) {
        let _ = (schedule, store);
    }

    /// Executes statement `stmt_id` at `indices` against a store the
    /// caller holds alone; writes outside an array's box grow it.
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut ArrayStore) {
        self.run(stmt_id, indices, &mut StoreView::exclusive(store));
    }
}

/// A kernel defined by a plain function or closure, addressing arrays by
/// name.  It reserves nothing (see [`Kernel::reserve`]).
pub struct FnKernel<F>(pub F);

impl<F> Kernel for FnKernel<F>
where
    F: Fn(usize, &[i64], &mut StoreView<'_>) + Sync,
{
    fn run(&self, stmt_id: usize, indices: &[i64], store: &mut StoreView<'_>) {
        (self.0)(stmt_id, indices, store)
    }
}

/// Subscript vectors up to this rank are evaluated on the stack.
const INLINE_RANK: usize = 8;

/// Evaluates `r`'s subscripts at `indices` into a stack buffer (a heap
/// one past [`INLINE_RANK`]) and hands them to `f`.
#[inline]
fn with_index<R>(r: &CompiledRef, indices: &[i64], f: impl FnOnce(&[i64]) -> R) -> R {
    if r.rank <= INLINE_RANK {
        let mut buffer = [0i64; INLINE_RANK];
        let index = &mut buffer[..r.rank];
        r.eval(indices, index);
        f(index)
    } else {
        let mut index = vec![0i64; r.rank];
        r.eval(indices, &mut index);
        f(&index)
    }
}

/// Source of [`RefKernel`] ids, which tell the layouts of different
/// kernels apart.
static NEXT_KERNEL: AtomicU64 = AtomicU64::new(1);

/// The canonical kernel derived from a program's array references.
///
/// For every statement, all read references are evaluated, combined with a
/// non-commutative, order-sensitive function of the loop indices, and the
/// result is stored to every write reference.  Statements without writes
/// are no-ops (they still perform their reads).
pub struct RefKernel {
    /// Identifies the stores this kernel laid out.
    id: u64,
    /// Slot → `(array name, rank)`, and every statement's references.
    refs: CompiledRefs,
}

impl RefKernel {
    /// Builds the canonical kernel of a program.
    pub fn new(program: &Program) -> Self {
        RefKernel {
            id: NEXT_KERNEL.fetch_add(1, Ordering::Relaxed),
            refs: program.compile_refs(),
        }
    }

    /// Reserves the box of the elements `schedule`'s instances write, one
    /// pass over them; an array none writes keeps its box.
    fn reserve_writes(&self, schedule: &Schedule, store: &mut ArrayStore) {
        let mut boxes: Vec<(Vec<i64>, Vec<i64>)> = self
            .refs
            .arrays
            .iter()
            .map(|&(_, rank)| (vec![i64::MAX; rank], vec![i64::MIN; rank]))
            .collect();
        let mut writes = 0u64;
        for (stmt, indices) in schedule.instances() {
            let Some(refs) = self.refs.stmts.get(stmt) else {
                continue;
            };
            for r in refs.iter().filter(|r| r.write) {
                writes += 1;
                let (lo, hi) = &mut boxes[r.slot];
                for (d, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let x = r.subscript(d, indices);
                    *l = (*l).min(x);
                    *h = (*h).max(x);
                }
            }
        }
        // Unwritten arrays keep lo > hi and stay as they are.
        store.reserve(&boxes, writes);
    }
}

impl Kernel for RefKernel {
    // Panic-hygiene allow: schedules executed against a `RefKernel` are
    // built from the same program, so every statement id is present.
    #[allow(clippy::expect_used)]
    fn run(&self, stmt_id: usize, indices: &[i64], store: &mut StoreView<'_>) {
        let refs = self.refs.stmts.get(stmt_id).expect("unknown statement id");
        // In a store this kernel laid out, each access is one dot product;
        // in any other, it goes by subscripts.
        let mut rows = store.layout(self.id).map(|l| l.statement(stmt_id));
        let address = |rows: Option<&StatementRows>, k: usize| {
            rows.map_or(Address::Subscripts, |rows| rows.address(k, indices))
        };
        // Combine the read values with an order-sensitive function so that
        // any violation of a flow/anti dependence changes the result.
        let mut acc = 0.5;
        let reads = refs.iter().enumerate().filter(|(_, r)| !r.write);
        for (n, (k, r)) in reads.enumerate() {
            let cell = match address(rows, k) {
                Address::Cell(offset) => store.read_cell(r.slot, offset),
                Address::Unwritten => Ok(None),
                Address::Subscripts => Err(()),
            };
            let v = match cell {
                Ok(Some(v)) => v,
                Ok(None) => with_index(r, indices, Array::initial_value),
                Err(()) => with_index(r, indices, |idx| store.read_slot(r.slot, idx)),
            };
            acc = acc * 0.75 + v * (1.0 + 0.1 * (n as f64 + 1.0));
        }
        let index_term: f64 = indices
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f64) * 0.001 * (k as f64 + 1.0))
            .sum();
        let value = acc + index_term + 0.25;
        for (k, r) in refs.iter().enumerate().filter(|(_, r)| r.write) {
            let placed = match address(rows, k) {
                Address::Cell(offset) => store.write_cell(r.slot, offset, value),
                _ => false,
            };
            if !placed {
                with_index(r, indices, |idx| store.write_slot(r.slot, idx, value));
                // A write that grew a box moved the flat offsets.
                rows = store.layout(self.id).map(|l| l.statement(stmt_id));
            }
        }
    }

    /// Lays the store out as the [`ElementLayout`] of the statement boxes
    /// the schedule recorded, or, when that layout hashes an array,
    /// reserves the boxes of the schedule's writes (see the
    /// [module docs](self)).
    fn reserve(&self, schedule: &Schedule, store: &mut ArrayStore) {
        store.bind(&self.refs.arrays);
        let layout = ElementLayout::new(&self.refs, schedule.statement_boxes());
        if layout
            .arrays()
            .iter()
            .any(|a| matches!(a, ArrayLayout::Hashed(_)))
        {
            store.forget_layout();
            self.reserve_writes(schedule, store);
        } else {
            store.lay_out(self.id, layout);
        }
    }

    /// Runs one instance by subscripts, growing boxes as it writes: the
    /// instance need not belong to a schedule the store was laid out for.
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut ArrayStore) {
        store.bind(&self.refs.arrays);
        store.forget_layout();
        self.run(stmt_id, indices, &mut StoreView::exclusive(store));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_codegen::{PhaseKind, ScheduleBuilder};
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayBox, ArrayRef};

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

    #[test]
    fn ref_kernel_reads_and_writes_the_declared_elements() {
        let p = figure2();
        let kernel = RefKernel::new(&p);
        let mut store = ArrayStore::new();
        // statement at I=6 writes a(12) from a(15)
        store.set("a", &[15], 3.0);
        kernel.execute(0, &[6], &mut store);
        let v = store.get("a", &[12]);
        assert_ne!(
            v,
            ArrayStore::new().get("a", &[12]),
            "a(12) must have been written"
        );
        // changing the read input changes the written value
        let mut store2 = ArrayStore::new();
        store2.set("a", &[15], 4.0);
        kernel.execute(0, &[6], &mut store2);
        assert_ne!(store.get("a", &[12]), store2.get("a", &[12]));
    }

    #[test]
    fn execution_order_matters_for_dependent_instances() {
        // a(2I) = a(21-I): iterations 6 (writes a(12)) and 9 (reads a(12)
        // and writes a(18)) — executing 6 then 9 differs from 9 then 6.
        let p = figure2();
        let kernel = RefKernel::new(&p);
        let mut fwd = ArrayStore::new();
        kernel.execute(0, &[6], &mut fwd);
        kernel.execute(0, &[9], &mut fwd);
        let mut rev = ArrayStore::new();
        kernel.execute(0, &[9], &mut rev);
        kernel.execute(0, &[6], &mut rev);
        assert!(!fwd.diff(&rev, 0.0).is_empty(), "order must be observable");
    }

    #[test]
    fn a_layout_holds_for_its_kernel_until_a_box_moves() {
        let p = figure2();
        let (kernel, other) = (RefKernel::new(&p), RefKernel::new(&p));
        let mut store = ArrayStore::new();
        kernel.reserve(&Schedule::sequential(&p, &[]), &mut store);
        assert!(StoreView::exclusive(&mut store).layout(kernel.id).is_some());
        assert!(StoreView::shared(&store).layout(other.id).is_none());
        // a(2I) and a(21 - I) span 1..=40: a write at 1000 grows the box.
        store.set("a", &[1000], 1.0);
        assert!(StoreView::shared(&store).layout(kernel.id).is_none());
    }

    #[test]
    fn a_reservation_lays_out_the_recorded_boxes_not_the_instances() {
        // a(I + J) = a(I + J - 1) over the two corners (1, 50) and (50, 1)
        // of I, J in 1..50: both write a(51), but the store is laid out
        // from the recorded box alone, a(2..100); the read's hull, 100
        // cells for 2 writes, stays outside.
        let p = Program::new(
            "sum",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(50),
                vec![loop_(
                    "J",
                    c(1),
                    c(50),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") + v("J")]),
                            ArrayRef::read("a", vec![v("I") + v("J") - c(1)]),
                        ],
                    )],
                )],
            )],
        );
        let mut builder = ScheduleBuilder::new("corners", &[2]);
        builder.phase(PhaseKind::ChainSet);
        builder.chain();
        builder.single(0, &[1, 50]);
        builder.single(0, &[50, 1]);
        let corners = builder.finish();
        let kernel = RefKernel::new(&p);
        let mut store = ArrayStore::new();
        kernel.reserve(&corners, &mut store);
        let laid = StoreView::exclusive(&mut store)
            .layout(kernel.id)
            .cloned()
            .expect("the store holds the layout it was laid out as");
        assert_eq!(
            laid,
            ElementLayout::new(&kernel.refs, corners.statement_boxes())
        );
        assert_eq!(
            laid.arrays(),
            &[ArrayLayout::Dense(ArrayBox {
                lo: vec![2],
                hi: vec![100]
            })]
        );
    }

    #[test]
    fn fn_kernel_wraps_closures() {
        let k = FnKernel(|_s: usize, idx: &[i64], store: &mut StoreView| {
            store.write("out", idx, idx[0] as f64 * 2.0);
        });
        let mut store = ArrayStore::new();
        k.execute(0, &[21], &mut store);
        assert_eq!(store.get("out", &[21]), 42.0);
    }
}
