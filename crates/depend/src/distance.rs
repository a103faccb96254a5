//! Dependence distance vectors and uniformity classification.
//!
//! The paper's definition (§2): a loop has *uniform* dependences when for
//! every direct dependence `(i, j)` and every shift `c`, `(i+c, j+c)` is
//! also a dependence as long as both end points stay inside the iteration
//! space.  Everything else is *non-uniform* — and the paper's motivating
//! statistics count how many loops fall in that class.

use crate::analysis::DependenceAnalysis;
use rcp_intlin::{sub, IVec};
use rcp_presburger::{DenseRelation, DenseSet};
use std::collections::BTreeSet;

/// Uniformity classification of a dependence set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Uniformity {
    /// Every dependence is a translation by a fixed set of distance vectors.
    Uniform,
    /// At least one dependence violates translation invariance.
    NonUniform,
    /// The loop has no loop-carried dependences at all.
    Independent,
}

/// The set of distinct dependence distance vectors of a dense dependence
/// relation (`D` in the paper: `d = j − i` over all direct dependences).
pub fn distance_set(relation: &DenseRelation) -> Vec<IVec> {
    let mut out: BTreeSet<IVec> = BTreeSet::new();
    for (src, dst) in relation.iter() {
        out.insert(sub(dst, src));
    }
    out.into_iter().collect()
}

/// Checks the paper's definition of uniform dependences on concrete sets:
/// for every dependence `(i, j)` and every distance `d` in the distance
/// set, the shifted pair `(i + c, j + c)` must again be a dependence
/// whenever both end points are inside `phi`.
///
/// The check is performed against all shifts `c` that keep at least one
/// existing dependence inside the space, which is equivalent to the
/// definition for finite spaces.
pub fn classify_uniformity(relation: &DenseRelation, phi: &DenseSet) -> Uniformity {
    classify_with_distances(relation, phi, &distance_set(relation))
}

/// [`classify_uniformity`] given the relation's [`distance_set`], for
/// callers that need the distances too and enumerate them once.
pub fn classify_with_distances(
    relation: &DenseRelation,
    phi: &DenseSet,
    distances: &[IVec],
) -> Uniformity {
    if relation.is_empty() {
        return Uniformity::Independent;
    }
    // Translation invariance: for every dependence (i, j) and every other
    // dependence distance d, the pair (i', i' + d) for all i' in phi with
    // i' + d in phi must be a dependence iff d is in the distance set...
    // The operational check used here: for every point p in phi and every
    // distance d in D, if p + d is in phi then (p, p + d) must be a
    // dependence.  (For uniform loops the distance set is exactly the set of
    // translations; any violation is non-uniformity.)
    let mut q = vec![0i64; phi.dim()];
    for p in phi.iter() {
        for d in distances {
            for ((q, &x), &dx) in q.iter_mut().zip(p).zip(d) {
                *q = x + dx;
            }
            if phi.contains(&q) && !relation.contains(p, &q) {
                return Uniformity::NonUniform;
            }
        }
    }
    Uniformity::Uniform
}

/// Convenience: classification of an analysed program at concrete parameter
/// values.
pub fn classify_analysis(analysis: &DependenceAnalysis, params: &[i64]) -> Uniformity {
    let (phi, rel) = analysis.bind_params(params);
    classify_uniformity(
        &DenseRelation::from_relation(&rel),
        &DenseSet::from_union(&phi),
    )
}

/// True when every reference pair of the analysis has identical access
/// functions — a syntactic sufficient condition for uniform dependences
/// (each dependence is then a fixed translation).
pub fn syntactically_uniform(analysis: &DependenceAnalysis) -> bool {
    analysis.pairs.iter().all(|p| {
        let stmts = analysis.program.statements();
        let r1 = &stmts[p.src_stmt].stmt.refs[p.src_ref];
        let r2 = &stmts[p.dst_stmt].stmt.refs[p.dst_ref];
        let a1 = analysis.program.loop_access(&stmts[p.src_stmt], r1);
        let a2 = analysis.program.loop_access(&stmts[p.dst_stmt], r2);
        a1.matrix == a2.matrix
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};

    fn uniform_program() -> Program {
        Program::new(
            "uniform",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") + c(2)]),
                        ArrayRef::read("a", vec![v("I")]),
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
    fn uniform_loop_is_classified_uniform() {
        let analysis = DependenceAnalysis::loop_level(&uniform_program());
        assert_eq!(classify_analysis(&analysis, &[12]), Uniformity::Uniform);
        assert!(syntactically_uniform(&analysis));
        let (_, rel) = analysis.bind_params(&[12]);
        let d = distance_set(&DenseRelation::from_relation(&rel));
        assert_eq!(d, vec![vec![2]]);
    }

    #[test]
    fn example1_is_non_uniform() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        assert_eq!(
            classify_analysis(&analysis, &[10, 10]),
            Uniformity::NonUniform
        );
        assert!(!syntactically_uniform(&analysis));
        let (_, rel) = analysis.bind_params(&[10, 10]);
        let d = distance_set(&DenseRelation::from_relation(&rel));
        assert_eq!(d, vec![vec![2, 2], vec![4, 4], vec![6, 6]]);
    }

    #[test]
    fn independent_loop() {
        let p = Program::new(
            "indep",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("b", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        assert_eq!(classify_analysis(&analysis, &[8]), Uniformity::Independent);
    }
}
