//! Statement kernels: the computation behind each statement of a loop nest.
//!
//! The dependence analyser only looks at the array *references* of a
//! statement; the runtime additionally needs the statement's actual
//! computation to execute and verify schedules.  A [`Kernel`] maps a
//! statement id and its loop index values to reads and writes on a
//! [`StoreView`].
//!
//! [`RefKernel`] derives a canonical kernel directly from the references of
//! a [`Program`]: every statement computes
//! `write := f(reads..., indices)` with a fixed non-commutative combiner, so
//! any re-ordering of dependent statement instances changes the final array
//! contents — which is exactly what the schedule-verification tests rely on.

use crate::array::StoreView;
use rcp_loopir::Program;
use std::collections::BTreeMap;

/// The computation of a program's statements.
pub trait Kernel: Sync {
    /// Executes statement `stmt_id` at the given loop index values against
    /// the store view.
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView);
}

/// A kernel defined by a plain function or closure.
pub struct FnKernel<F>(pub F);

impl<F> Kernel for FnKernel<F>
where
    F: Fn(usize, &[i64], &mut dyn StoreView) + Sync,
{
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView) {
        (self.0)(stmt_id, indices, store)
    }
}

/// The canonical kernel derived from a program's array references.
///
/// For every statement, all read references are evaluated, combined with a
/// non-commutative, order-sensitive function of the loop indices, and the
/// result is stored to every write reference.  Statements without writes
/// are no-ops (they still perform their reads).
pub struct RefKernel {
    /// For each statement id: (writes, reads) as `(array, access)` pairs
    /// where `access` maps loop indices to an element index.
    stmts: BTreeMap<usize, StatementAccesses>,
}

struct StatementAccesses {
    writes: Vec<(String, rcp_loopir::AccessMap)>,
    reads: Vec<(String, rcp_loopir::AccessMap)>,
}

impl RefKernel {
    /// Builds the canonical kernel of a program.
    pub fn new(program: &Program) -> Self {
        let mut stmts = BTreeMap::new();
        for info in program.statements() {
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            for r in &info.stmt.refs {
                let access = program.loop_access(&info, r);
                if r.is_write() {
                    writes.push((r.array.clone(), access));
                } else {
                    reads.push((r.array.clone(), access));
                }
            }
            stmts.insert(info.id, StatementAccesses { writes, reads });
        }
        RefKernel { stmts }
    }
}

impl Kernel for RefKernel {
    // Panic-hygiene allow: schedules executed against a `RefKernel` are
    // built from the same program, so every statement id is present.
    #[allow(clippy::expect_used)]
    fn execute(&self, stmt_id: usize, indices: &[i64], store: &mut dyn StoreView) {
        let accesses = self.stmts.get(&stmt_id).expect("unknown statement id");
        // Combine the read values with an order-sensitive function so that
        // any violation of a flow/anti dependence changes the result.
        let mut acc = 0.5;
        for (k, (array, access)) in accesses.reads.iter().enumerate() {
            let idx = access.apply(indices);
            let v = store.read(array, &idx);
            acc = acc * 0.75 + v * (1.0 + 0.1 * (k as f64 + 1.0));
        }
        let index_term: f64 = indices
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f64) * 0.001 * (k as f64 + 1.0))
            .sum();
        let value = acc + index_term + 0.25;
        for (array, access) in &accesses.writes {
            let idx = access.apply(indices);
            store.write(array, &idx, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayStore;
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
        // a(2I) = a(21-I): iterations 6 (writes a(12)) and 9 (reads a(12) and
        // writes a(18)... actually reads a(12)) — executing 6 then 9 differs
        // from 9 then 6.
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
        let k = FnKernel(|_s: usize, idx: &[i64], store: &mut dyn StoreView| {
            store.write("out", idx, idx[0] as f64 * 2.0);
        });
        let mut store = ArrayStore::new();
        k.execute(0, &[21], &mut store);
        assert_eq!(store.get("out", &[21]), 42.0);
    }
}
