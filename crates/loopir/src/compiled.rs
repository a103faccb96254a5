//! Array references compiled for evaluation at every statement instance.
//!
//! The runtime's reference kernel and the dataflow tracer of the
//! dependence analyser both evaluate every reference of every statement
//! instance they visit.  [`Program::compile_refs`] turns each reference
//! once into an array slot and its affine subscript rows, so that one
//! evaluation is a few multiply-adds into the caller's buffer, with no
//! allocation and no name lookup.

use crate::program::Program;

/// One array reference compiled to its array slot and subscript rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledRef {
    /// The reference's array, an index into [`CompiledRefs::arrays`].
    pub slot: usize,
    /// `true` for a write reference.
    pub write: bool,
    /// The number of subscripts.
    pub rank: usize,
    /// The loop depth of the statement.
    pub(crate) depth: usize,
    /// Per subscript, `depth + 1` entries: the constant, then one
    /// coefficient per loop index (outermost first).
    pub(crate) rows: Box<[i64]>,
}

impl CompiledRef {
    /// Subscript `d` at the loop index values `indices`.
    #[inline]
    pub fn subscript(&self, d: usize, indices: &[i64]) -> i64 {
        let width = self.depth + 1;
        affine(&self.rows[d * width..(d + 1) * width], indices)
    }

    /// Evaluates the subscripts at `indices` into `out`, which holds
    /// [`Self::rank`] entries.
    #[inline]
    pub fn eval(&self, indices: &[i64], out: &mut [i64]) {
        for (x, row) in out.iter_mut().zip(self.rows.chunks_exact(self.depth + 1)) {
            *x = affine(row, indices);
        }
    }
}

/// `row[0] + Σ row[k + 1] · indices[k]`.
#[inline]
fn affine(row: &[i64], indices: &[i64]) -> i64 {
    row[1..]
        .iter()
        .zip(indices)
        .fold(row[0], |acc, (c, i)| acc + c * i)
}

/// Every reference of a program, compiled once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompiledRefs {
    /// Slot → `(array name, rank)`, in order of first reference.  An
    /// array referenced with two different ranks gets two slots.
    pub arrays: Vec<(String, usize)>,
    /// Indexed by statement id: the statement's references, in reference
    /// order.
    pub stmts: Vec<Vec<CompiledRef>>,
}

impl Program {
    /// Compiles every reference of every statement to its array slot and
    /// subscript rows (see [`CompiledRefs`]).  Subscripts may mention only
    /// loop indices: bind the parameters first.
    pub fn compile_refs(&self) -> CompiledRefs {
        let mut arrays: Vec<(String, usize)> = Vec::new();
        let stmts = self
            .statements()
            .iter()
            .map(|info| {
                info.stmt
                    .refs
                    .iter()
                    .map(|r| {
                        let map = self.loop_access(info, r);
                        let rank = map.offset.len();
                        let key = (r.array.clone(), rank);
                        let slot = arrays.iter().position(|a| *a == key).unwrap_or_else(|| {
                            arrays.push(key);
                            arrays.len() - 1
                        });
                        let depth = map.matrix.rows();
                        let mut rows = Vec::with_capacity(rank * (depth + 1));
                        for (d, &constant) in map.offset.iter().enumerate() {
                            rows.push(constant);
                            rows.extend((0..depth).map(|k| map.matrix[(k, d)]));
                        }
                        CompiledRef {
                            slot,
                            write: r.is_write(),
                            rank,
                            depth,
                            rows: rows.into_boxed_slice(),
                        }
                    })
                    .collect()
            })
            .collect();
        CompiledRefs { arrays, stmts }
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{c, v};
    use crate::program::build::{loop_, stmt};
    use crate::{ArrayRef, Program};

    #[test]
    fn compiled_subscripts_match_the_access_maps() {
        // Slots are interned per (array, rank) in order of first
        // reference, and every reference evaluates to what
        // `AccessMap::apply` gives, negative offsets and indices included.
        let program = Program::new(
            "nest",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(4),
                vec![loop_(
                    "J",
                    c(1),
                    v("I"),
                    vec![
                        stmt(
                            "S",
                            vec![
                                ArrayRef::write("a", vec![v("I") * 2 + v("J"), v("J") - c(1)]),
                                ArrayRef::read("a", vec![c(7) - v("I"), v("I") + v("J")]),
                                ArrayRef::read("b", vec![v("J")]),
                            ],
                        ),
                        stmt("T", vec![ArrayRef::write("b", vec![v("I") * 3])]),
                    ],
                )],
            )],
        );
        let compiled = program.compile_refs();
        assert_eq!(
            compiled.arrays,
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
        let slots: Vec<Vec<(usize, bool)>> = compiled
            .stmts
            .iter()
            .map(|refs| refs.iter().map(|r| (r.slot, r.write)).collect())
            .collect();
        assert_eq!(
            slots,
            vec![vec![(0, true), (0, false), (1, false)], vec![(1, true)]]
        );
        let mut out = [0i64; 2];
        for (info, refs) in program.statements().iter().zip(&compiled.stmts) {
            for (r, compiled) in info.stmt.refs.iter().zip(refs) {
                let map = program.loop_access(info, r);
                for point in [[1, 1], [3, 2], [-2, 5]] {
                    let want = map.apply(&point);
                    compiled.eval(&point, &mut out[..compiled.rank]);
                    assert_eq!(&out[..compiled.rank], &want[..]);
                    let each: Vec<i64> = (0..compiled.rank)
                        .map(|d| compiled.subscript(d, &point))
                        .collect();
                    assert_eq!(each, want);
                }
            }
        }
    }
}
