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

use crate::array::{ArrayStore, StoreView};
use rcp_codegen::Schedule;
use rcp_loopir::{CompiledRef, CompiledRefs, Program};

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
    /// (see [`crate::array`]).
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

/// The compiled references of one statement, in reference order.
struct StatementAccesses {
    writes: Vec<CompiledRef>,
    reads: Vec<CompiledRef>,
}

/// The canonical kernel derived from a program's array references.
///
/// For every statement, all read references are evaluated, combined with a
/// non-commutative, order-sensitive function of the loop indices, and the
/// result is stored to every write reference.  Statements without writes
/// are no-ops (they still perform their reads).
pub struct RefKernel {
    /// Slot → `(array name, rank)`: the layout every store it runs against
    /// is bound to.
    arrays: Vec<(String, usize)>,
    /// Indexed by statement id.
    stmts: Vec<StatementAccesses>,
}

impl RefKernel {
    /// Builds the canonical kernel of a program.
    pub fn new(program: &Program) -> Self {
        let CompiledRefs { arrays, stmts } = program.compile_refs();
        let stmts = stmts
            .into_iter()
            .map(|refs| {
                let (writes, reads) = refs.into_iter().partition(|r| r.write);
                StatementAccesses { writes, reads }
            })
            .collect();
        RefKernel { arrays, stmts }
    }
}

impl Kernel for RefKernel {
    // Panic-hygiene allow: schedules executed against a `RefKernel` are
    // built from the same program, so every statement id is present.
    #[allow(clippy::expect_used)]
    fn run(&self, stmt_id: usize, indices: &[i64], store: &mut StoreView<'_>) {
        let accesses = self.stmts.get(stmt_id).expect("unknown statement id");
        // Combine the read values with an order-sensitive function so that
        // any violation of a flow/anti dependence changes the result.
        let mut acc = 0.5;
        for (k, access) in accesses.reads.iter().enumerate() {
            let v = with_index(access, indices, |idx| store.read_slot(access.slot, idx));
            acc = acc * 0.75 + v * (1.0 + 0.1 * (k as f64 + 1.0));
        }
        let index_term: f64 = indices
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f64) * 0.001 * (k as f64 + 1.0))
            .sum();
        let value = acc + index_term + 0.25;
        for access in &accesses.writes {
            with_index(access, indices, |idx| {
                store.write_slot(access.slot, idx, value)
            });
        }
    }

    /// Reserves the bounding box of each array's writes over the
    /// schedule's instances.
    fn reserve(&self, schedule: &Schedule, store: &mut ArrayStore) {
        store.bind(&self.arrays);
        let mut boxes: Vec<(Vec<i64>, Vec<i64>)> = self
            .arrays
            .iter()
            .map(|a| (vec![i64::MAX; a.1], vec![i64::MIN; a.1]))
            .collect();
        let mut writes = 0u64;
        for (stmt, indices) in schedule.instances() {
            let Some(accesses) = self.stmts.get(stmt) else {
                continue;
            };
            writes += accesses.writes.len() as u64;
            for access in &accesses.writes {
                let (lo, hi) = &mut boxes[access.slot];
                for (d, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let x = access.subscript(d, indices);
                    *l = (*l).min(x);
                    *h = (*h).max(x);
                }
            }
        }
        // Unwritten arrays keep lo > hi and stay as they are.
        store.reserve(&boxes, writes);
    }

    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut ArrayStore) {
        store.bind(&self.arrays);
        self.run(stmt_id, indices, &mut StoreView::exclusive(store));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;

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
    fn fn_kernel_wraps_closures() {
        let k = FnKernel(|_s: usize, idx: &[i64], store: &mut StoreView| {
            store.write("out", idx, idx[0] as f64 * 2.0);
        });
        let mut store = ArrayStore::new();
        k.execute(0, &[21], &mut store);
        assert_eq!(store.get("out", &[21]), 42.0);
    }
}
