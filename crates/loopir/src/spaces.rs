//! Iteration spaces and access maps derived from a [`Program`].
//!
//! Two granularities are supported, mirroring the paper:
//!
//! * the **loop-level** iteration space of a perfect nest — a single convex
//!   set over the loop index variables (§2, eq. 1), and
//! * the **statement-level** unified index space of §3.3 — every statement
//!   instance `S(i)` is associated with the unique index vector
//!   `(s₀, i₁, s₁, …, i_l, s_l)` padded with zeros, so imperfect nests and
//!   multi-statement bodies become a union of convex sets over one common
//!   space and lexicographic order on that space is execution order.

use crate::expr::LinExpr;
use crate::program::{ArrayRef, Program, StatementInfo};
use rcp_intlin::{IMat, IVec};
use rcp_presburger::{Affine, Constraint, ConvexSet, Space, UnionSet};

/// An affine access map `i ↦ i·M + offset` from an iteration space to array
/// subscripts, in the paper's row-vector convention (`M` has one row per
/// space dimension and one column per array dimension).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessMap {
    /// The array being accessed.
    pub array: String,
    /// Coefficient matrix (space dim × array rank).
    pub matrix: IMat,
    /// Constant offset per array dimension.
    pub offset: IVec,
    /// True for writes.
    pub is_write: bool,
}

impl AccessMap {
    /// Evaluates the accessed element for a concrete iteration vector.
    pub fn apply(&self, point: &[i64]) -> IVec {
        let base = self.matrix.apply_row(point);
        base.iter().zip(&self.offset).map(|(x, o)| x + o).collect()
    }

    /// The subscript expressions as positional [`Affine`] forms over a space
    /// with `total` variables, where the access-space dimensions occupy the
    /// first `self.matrix.rows()` positions starting at `at`.
    pub fn subscript_affines(&self, total: usize, at: usize) -> Vec<Affine> {
        let rows = self.matrix.rows();
        (0..self.matrix.cols())
            .map(|d| {
                let mut coeffs = vec![0i64; total];
                for r in 0..rows {
                    coeffs[at + r] = self.matrix[(r, d)];
                }
                Affine::new(coeffs, self.offset[d])
            })
            .collect()
    }
}

/// The statement position table of a program's unified space, built by
/// [`Program::unified_decoder`]: decodes points without re-walking the
/// program tree per point.
#[derive(Clone, Debug)]
pub struct UnifiedDecoder {
    /// Dimension of the unified space, `2·D + 1`.
    dim: usize,
    /// The position vector `(s₀, …, s_l)` of each statement, by id.
    positions: Vec<Vec<i64>>,
}

impl UnifiedDecoder {
    /// Decodes a unified index vector into `(statement id, loop index
    /// values)`.  Returns `None` when the point does not correspond to any
    /// statement of the program.
    pub fn decode(&self, point: &[i64]) -> Option<(usize, IVec)> {
        assert_eq!(point.len(), self.dim, "unified point arity mismatch");
        let id = self.positions.iter().position(|positions| {
            let depth = positions.len() - 1;
            // Position dims must match, padding dims must be zero.
            positions
                .iter()
                .enumerate()
                .all(|(k, &p)| point[2 * k] == p)
                && point[2 * depth + 1..].iter().all(|&x| x == 0)
        })?;
        let depth = self.positions[id].len() - 1;
        Some((id, (0..depth).map(|k| point[2 * k + 1]).collect()))
    }
}

impl Program {
    /// The loop-level space of a perfect nest: one dimension per loop index
    /// plus the program parameters.
    ///
    /// # Panics
    /// Panics if the program is not a perfect nest.
    pub fn loop_space(&self) -> Space {
        let indices = self.perfect_nest_indices();
        let dims: Vec<&str> = indices.iter().map(|s| s.as_str()).collect();
        let params: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        Space::with_names(&dims, &params)
    }

    /// The loop-level iteration space `Φ` of a perfect nest (eq. 1).
    // Panic-hygiene allow: `loop_space` above has already panicked on a
    // non-perfect nest, which always has at least one statement.
    #[allow(clippy::expect_used)]
    pub fn loop_iteration_set(&self) -> ConvexSet {
        let space = self.loop_space();
        let indices = self.perfect_nest_indices();
        // Collect bounds from the (single) loop chain.
        let stmts = self.statements();
        let info = stmts.first().expect("perfect nest with no statement");
        let constraints = bound_constraints(
            &space,
            &indices.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            &self.params,
            &info.bounds,
            |k| k, // loop k occupies dimension k
        );
        ConvexSet::from_constraints(space, constraints)
    }

    /// Number of dimensions of the unified statement-level space:
    /// `2·D + 1` where `D` is the maximum nesting depth.
    pub fn unified_dim(&self) -> usize {
        2 * self.max_depth() + 1
    }

    /// The unified statement-level space `(s₀, i₁, s₁, …, i_D, s_D)`.
    pub fn unified_space(&self) -> Space {
        let d = self.max_depth();
        let mut names: Vec<String> = vec!["s0".to_string()];
        for k in 1..=d {
            names.push(format!("i{k}"));
            names.push(format!("s{k}"));
        }
        let dims: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let params: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        Space::with_names(&dims, &params)
    }

    /// The set of unified index vectors of all instances of one statement.
    pub fn statement_instance_set(&self, info: &StatementInfo) -> ConvexSet {
        let space = self.unified_space();
        let total = space.total();
        let depth = info.depth();
        let max_depth = self.max_depth();
        let mut constraints = Vec::new();

        // Statement position dimensions: s_k = positions[k].
        for (k, &pos) in info.positions.iter().enumerate() {
            let dim = 2 * k; // s_k lives at dimension 2k
            constraints.push(Constraint::eq(Affine::var(total, dim).offset(-pos)));
        }
        // Padding: all dimensions beyond the statement's own are zero.
        for k in depth + 1..=max_depth {
            constraints.push(Constraint::eq(Affine::var(total, 2 * k - 1))); // i_k = 0
            constraints.push(Constraint::eq(Affine::var(total, 2 * k))); // s_k = 0
        }
        // Loop bounds for the statement's surrounding loops.
        let loop_names: Vec<&str> = info.loop_indices.iter().map(|s| s.as_str()).collect();
        constraints.extend(bound_constraints(
            &space,
            &loop_names,
            &self.params,
            &info.bounds,
            |k| 2 * k + 1, // loop k occupies unified dimension 2k+1
        ));
        ConvexSet::from_constraints(space, constraints)
    }

    /// The unified statement-level iteration space: the union of the
    /// instance sets of every statement.
    pub fn unified_iteration_space(&self) -> UnionSet {
        let space = self.unified_space();
        let pieces: Vec<ConvexSet> = self
            .statements()
            .iter()
            .map(|info| self.statement_instance_set(info))
            .collect();
        UnionSet::from_pieces(space, pieces)
    }

    /// Encodes a statement instance (statement + loop index values) as a
    /// unified index vector.
    pub fn encode_instance(&self, info: &StatementInfo, indices: &[i64]) -> IVec {
        assert_eq!(indices.len(), info.depth(), "index vector arity mismatch");
        let mut point = vec![0i64; self.unified_dim()];
        point[0] = info.positions[0];
        for (k, &idx) in indices.iter().enumerate() {
            point[2 * k + 1] = idx;
            point[2 * k + 2] = info.positions[k + 1];
        }
        point
    }

    /// The statement position table that decodes unified index vectors
    /// back into statement instances (see [`UnifiedDecoder`]).  Build it
    /// once per schedule or check: each build walks the program tree.
    pub fn unified_decoder(&self) -> UnifiedDecoder {
        let statements = self.statements();
        let max_depth = statements.iter().map(|s| s.depth()).max().unwrap_or(0);
        UnifiedDecoder {
            dim: 2 * max_depth + 1,
            positions: statements.into_iter().map(|s| s.positions).collect(),
        }
    }

    /// The statement-local iteration set: the membership constraints of
    /// one statement's instances over its *own* surrounding loop indices
    /// (outermost first) plus the program parameters.  This is the
    /// building block of the aggregated loop-level view of imperfect
    /// nests, where the inner dimensions are later projected out.
    pub fn statement_local_set(&self, info: &StatementInfo) -> ConvexSet {
        let names: Vec<&str> = info.loop_indices.iter().map(|s| s.as_str()).collect();
        let params: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        let space = Space::with_names(&names, &params);
        let constraints = bound_constraints(&space, &names, &self.params, &info.bounds, |k| k);
        ConvexSet::from_constraints(space, constraints)
    }

    /// The loop-level access map of a reference (perfect nests only): a
    /// matrix with one row per loop of the nest.
    pub fn loop_access(&self, info: &StatementInfo, r: &ArrayRef) -> AccessMap {
        let names: Vec<&str> = info.loop_indices.iter().map(|s| s.as_str()).collect();
        access_from_subscripts(r, &names, |k| k, names.len())
    }

    /// The statement-level access map of a reference over the unified space
    /// (rows for the `sₖ` dimensions are zero).
    pub fn unified_access(&self, info: &StatementInfo, r: &ArrayRef) -> AccessMap {
        let names: Vec<&str> = info.loop_indices.iter().map(|s| s.as_str()).collect();
        access_from_subscripts(r, &names, |k| 2 * k + 1, self.unified_dim())
    }
}

/// Builds `lower ≤ i_k ≤ upper` constraints for every surrounding loop of a
/// statement, with `dim_of(k)` giving the space dimension of loop `k` and
/// bound expressions resolved over the loop index names and parameters.
fn bound_constraints(
    space: &Space,
    loop_names: &[&str],
    params: &[String],
    bounds: &[(Vec<LinExpr>, Vec<LinExpr>)],
    dim_of: impl Fn(usize) -> usize,
) -> Vec<Constraint> {
    let total = space.total();
    let dim = space.dim();
    // Resolution order: loop names then parameters.
    let mut names: Vec<&str> = loop_names.to_vec();
    names.extend(params.iter().map(|s| s.as_str()));
    let to_affine = |e: &LinExpr| -> Affine {
        let (coeffs, k) = e.resolve(&names);
        let mut full = vec![0i64; total];
        for (j, &c) in coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if j < loop_names.len() {
                full[dim_of(j)] = c;
            } else {
                full[dim + (j - loop_names.len())] = c;
            }
        }
        Affine::new(full, k)
    };
    let mut constraints = Vec::new();
    for (k, (lowers, uppers)) in bounds.iter().enumerate() {
        let var = Affine::var(total, dim_of(k));
        for lo in lowers {
            // i_k - lo >= 0
            constraints.push(Constraint::geq(var.sub(&to_affine(lo))));
        }
        for up in uppers {
            // up - i_k >= 0
            constraints.push(Constraint::geq(to_affine(up).sub(&var)));
        }
    }
    constraints
}

fn access_from_subscripts(
    r: &ArrayRef,
    loop_names: &[&str],
    dim_of: impl Fn(usize) -> usize,
    space_dim: usize,
) -> AccessMap {
    let rank = r.rank();
    let mut matrix = IMat::zeros(space_dim, rank);
    let mut offset = vec![0i64; rank];
    for (d, sub) in r.subscripts.iter().enumerate() {
        let (coeffs, k) = sub.resolve(loop_names);
        for (j, &c) in coeffs.iter().enumerate() {
            matrix[(dim_of(j), d)] = c;
        }
        offset[d] = k;
    }
    AccessMap {
        array: r.array.clone(),
        matrix,
        offset,
        is_write: r.is_write(),
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{c, v};
    use crate::program::build::*;
    use crate::program::{ArrayRef, Program};

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

    fn example3() -> Program {
        Program::new(
            "example3",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("I"),
                    vec![
                        loop_(
                            "K",
                            v("J"),
                            v("I"),
                            vec![stmt(
                                "S1",
                                vec![ArrayRef::read(
                                    "a",
                                    vec![v("I") + v("K") * 2 + c(5), v("K") * 4 - v("J")],
                                )],
                            )],
                        ),
                        stmt(
                            "S2",
                            vec![ArrayRef::write("a", vec![v("I") - v("J"), v("I") + v("J")])],
                        ),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn loop_iteration_set_of_example1() {
        let p = example1();
        let phi = p.loop_iteration_set();
        assert!(phi.contains(&[1, 1], &[10, 10]));
        assert!(phi.contains(&[10, 10], &[10, 10]));
        assert!(!phi.contains(&[0, 1], &[10, 10]));
        assert!(!phi.contains(&[11, 1], &[10, 10]));
        let concrete = phi.bind_params(&[10, 10]);
        assert_eq!(concrete.enumerate().len(), 100);
    }

    #[test]
    fn loop_access_maps_of_example1() {
        let p = example1();
        let stmts = p.statements();
        let info = &stmts[0];
        let w = p.loop_access(info, &info.stmt.refs[0]);
        let r = p.loop_access(info, &info.stmt.refs[1]);
        // write: a(3*I1+1, 2*I1+I2-1)
        assert_eq!(w.apply(&[1, 2]), vec![4, 3]);
        assert!(w.is_write);
        assert_eq!(w.matrix.row(0), vec![3, 2]);
        assert_eq!(w.matrix.row(1), vec![0, 1]);
        assert_eq!(w.offset, vec![1, -1]);
        // read: a(I1+3, I2+1)
        assert_eq!(r.apply(&[1, 2]), vec![4, 3]);
        assert!(!r.is_write);
        // The write at (1,2) and the read at (1,2) touch the same element:
        // the "distance 0" case that makes iteration (1,2) self-dependent at
        // the element level but not loop-carried.
        assert_eq!(w.apply(&[1, 2]), r.apply(&[1, 2]));
        // A d=2 arrow of figure 1: write at (2,2) = read at (4,4).
        assert_eq!(w.apply(&[2, 2]), r.apply(&[4, 4]));
    }

    #[test]
    fn subscript_affines_positioning() {
        let p = example1();
        let stmts = p.statements();
        let info = &stmts[0];
        let w = p.loop_access(info, &info.stmt.refs[0]);
        // Over a pair space (i1,i2,j1,j2) + 2 params = 6 vars, placed at 0.
        let affs = w.subscript_affines(6, 0);
        assert_eq!(affs.len(), 2);
        assert_eq!(affs[0].coeffs(), &[3, 0, 0, 0, 0, 0]);
        assert_eq!(affs[0].constant_term(), 1);
        // placed at 2 (the j copy)
        let affs = w.subscript_affines(6, 2);
        assert_eq!(affs[1].coeffs(), &[0, 0, 2, 1, 0, 0]);
    }

    #[test]
    fn unified_space_shape() {
        let p = example3();
        assert_eq!(p.unified_dim(), 7);
        let space = p.unified_space();
        assert_eq!(space.dim(), 7);
        assert_eq!(space.dim_name(0), "s0");
        assert_eq!(space.dim_name(1), "i1");
        assert_eq!(space.dim_name(6), "s3");
    }

    #[test]
    fn statement_instance_sets_and_decode() {
        let p = example3();
        let stmts = p.statements();
        let s1 = &stmts[0];
        let s2 = &stmts[1];
        let set1 = p.statement_instance_set(s1).bind_params(&[3]);
        let set2 = p.statement_instance_set(s2).bind_params(&[3]);
        // S1 instances: I in 1..3, J in 1..I, K in J..I
        let n1: usize = (1..=3)
            .map(|i| (1..=i).map(|j| (i - j + 1) as usize).sum::<usize>())
            .sum();
        assert_eq!(set1.enumerate().len(), n1);
        // S2 instances: I in 1..3, J in 1..I
        assert_eq!(set2.enumerate().len(), 1 + 2 + 3);
        // encode/decode round trip
        let pt = p.encode_instance(s1, &[3, 1, 2]);
        assert_eq!(pt, vec![1, 3, 1, 1, 1, 2, 1]);
        assert!(set1.contains(&pt, &[]));
        let decoder = p.unified_decoder();
        assert_eq!(decoder.decode(&pt), Some((0, vec![3, 1, 2])));
        let pt2 = p.encode_instance(s2, &[3, 1]);
        assert_eq!(pt2, vec![1, 3, 1, 1, 2, 0, 0]);
        assert_eq!(decoder.decode(&pt2), Some((1, vec![3, 1])));
        // lexicographic order encodes program order: S1(3,1,*) before S2(3,1)
        assert!(pt < pt2);
        // a nonsense point decodes to nothing
        assert_eq!(decoder.decode(&[9, 1, 1, 1, 1, 1, 1]), None);
    }

    #[test]
    fn unified_union_counts_all_instances() {
        let p = example3();
        let phi = p.unified_iteration_space().bind_params(&[3]);
        let expected_s1: usize = (1..=3)
            .map(|i| (1..=i).map(|j| (i - j + 1) as usize).sum::<usize>())
            .sum();
        let expected = expected_s1 + 6;
        assert_eq!(phi.count(), expected);
    }

    #[test]
    fn unified_access_rows() {
        let p = example3();
        let stmts = p.statements();
        let s2 = &stmts[1];
        let acc = p.unified_access(s2, &s2.stmt.refs[0]);
        // a(I-J, I+J): I is unified dim 1, J is unified dim 3.
        assert_eq!(acc.matrix.rows(), 7);
        assert_eq!(acc.matrix[(1, 0)], 1);
        assert_eq!(acc.matrix[(3, 0)], -1);
        assert_eq!(acc.matrix[(1, 1)], 1);
        assert_eq!(acc.matrix[(3, 1)], 1);
        // Evaluating at the unified point for S2(I=5, J=2): element (3, 7).
        let pt = p.encode_instance(s2, &[5, 2]);
        assert_eq!(acc.apply(&pt), vec![3, 7]);
    }

    #[test]
    fn triangular_bounds_respected() {
        let p = example3();
        let stmts = p.statements();
        let s1 = &stmts[0];
        let set1 = p.statement_instance_set(s1);
        // K must satisfy J <= K <= I: instance (I=2, J=2, K=1) is invalid.
        let bad = p.encode_instance(s1, &[2, 2, 1]);
        assert!(!set1.contains(&bad, &[5]));
        let good = p.encode_instance(s1, &[2, 2, 2]);
        assert!(set1.contains(&good, &[5]));
    }
}
