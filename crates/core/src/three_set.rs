//! The three-set partitioning of §3.1.
//!
//! From the iteration space `Φ` and the forward dependence relation `Rd`
//! the iteration space is split into three sequential partitions
//!
//! ```text
//! P1 = Φ \ ran Rd          independent and initial iterations (fully parallel)
//! P2 = ran Rd ∩ dom Rd     intermediate iterations
//! P3 = ran Rd \ dom Rd     final iterations (fully parallel)
//! ```
//!
//! executed in the order `P1 → P2 → P3` with barriers in between, plus the
//! WHILE start set `W = {j | (i → j) ∈ Rd, i ∈ P1, j ∈ P2}` from which the
//! monotonic chains of the intermediate set are launched.
//!
//! Both a symbolic version (unions of convex sets, usable with unknown loop
//! bounds) and a dense version (enumerated points, used for execution and
//! validation) are provided.

use rcp_presburger::{DenseRelation, DenseSet, Relation, UnionSet};

/// `P2 = ran Rd ∩ dom Rd ∩ Φ`, given `ran Rd` and `dom Rd`.
pub(crate) fn intermediate(phi: &UnionSet, ran: &UnionSet, dom: &UnionSet) -> UnionSet {
    ran.intersect(dom).intersect(phi)
}

/// The symbolic three-set partition.
#[derive(Clone, Debug)]
pub struct ThreeSetPartition {
    /// `P1 = Φ \ ran Rd`: independent and initial iterations.
    pub p1: UnionSet,
    /// `P2 = ran Rd ∩ dom Rd`: intermediate iterations.
    pub p2: UnionSet,
    /// `P3 = ran Rd \ dom Rd`: final iterations.
    pub p3: UnionSet,
    /// `W`: the P2 iterations that directly depend on a P1 iteration — the
    /// start points of the WHILE chains.
    pub w: UnionSet,
}

impl ThreeSetPartition {
    /// Computes the partition from the iteration space and the forward
    /// dependence relation (eq. 5 of the paper).
    pub fn compute(phi: &UnionSet, rd: &Relation) -> ThreeSetPartition {
        Self::from_range(phi, rd, &rd.range())
    }

    /// [`Self::compute`] given `ran = ran Rd`, for callers that keep it.
    pub(crate) fn from_range(phi: &UnionSet, rd: &Relation, ran: &UnionSet) -> ThreeSetPartition {
        let dom = rd.domain();
        let p1 = phi.subtract(ran);
        let p2 = intermediate(phi, ran, &dom);
        let p3 = ran.subtract(&dom).intersect(phi);
        // W = {j | (i -> j) in Rd, i in P1, j in P2}
        let w = rd.restrict_domain(&p1).restrict_range(&p2).range();
        ThreeSetPartition { p1, p2, p3, w }
    }

    /// Binds symbolic parameters in every partition set.
    pub fn bind_params(&self, values: &[i64]) -> ThreeSetPartition {
        ThreeSetPartition {
            p1: self.p1.bind_params(values),
            p2: self.p2.bind_params(values),
            p3: self.p3.bind_params(values),
            w: self.w.bind_params(values),
        }
    }

    /// Converts to the dense representation (parameters must be bound).
    pub fn to_dense(&self) -> DenseThreeSet {
        DenseThreeSet {
            p1: DenseSet::from_union(&self.p1),
            p2: DenseSet::from_union(&self.p2),
            p3: DenseSet::from_union(&self.p3),
            w: DenseSet::from_union(&self.w),
        }
    }
}

/// The dense (enumerated) three-set partition.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseThreeSet {
    /// Independent and initial iterations.
    pub p1: DenseSet,
    /// Intermediate iterations.
    pub p2: DenseSet,
    /// Final iterations.
    pub p3: DenseSet,
    /// Chain start iterations inside `P2`.
    pub w: DenseSet,
}

impl DenseThreeSet {
    /// Computes the partition directly on dense sets, over the point ids
    /// of `phi`.
    pub fn compute(phi: &DenseSet, rd: &DenseRelation) -> DenseThreeSet {
        let n = phi.len();
        let in_ran = phi.mask_in(&rd.range());
        let in_dom = phi.mask_in(&rd.domain());
        let p1 = phi.subset((0..n).filter(|&p| !in_ran[p]));
        let p2 = phi.subset((0..n).filter(|&p| in_ran[p] && in_dom[p]));
        let p3 = phi.subset((0..n).filter(|&p| in_ran[p] && !in_dom[p]));
        let mut in_w = vec![false; n];
        for (src, dst) in rd.edges_within(phi) {
            let (src, dst) = (src as usize, dst as usize);
            if !in_ran[src] && in_ran[dst] && in_dom[dst] {
                in_w[dst] = true;
            }
        }
        let w = phi.subset((0..n).filter(|&p| in_w[p]));
        DenseThreeSet { p1, p2, p3, w }
    }

    /// Checks the structural invariants of the partition against the
    /// original `Φ` and `Rd`; returns a list of violated invariants
    /// (empty when the partition is valid).
    ///
    /// Invariants:
    /// 1. `P1`, `P2`, `P3` are pairwise disjoint and their union is `Φ`
    ///    (restricted to points that appear in `Φ`).
    /// 2. No dependence goes backwards across the phase order
    ///    `P1 → P2 → P3`.
    /// 3. No dependence connects two `P1` iterations or two `P3`
    ///    iterations (the outer sets are fully parallel).
    /// 4. `W ⊆ P2`.
    pub fn validate(&self, phi: &DenseSet, rd: &DenseRelation) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.p1.is_disjoint(&self.p2)
            || !self.p1.is_disjoint(&self.p3)
            || !self.p2.is_disjoint(&self.p3)
        {
            problems.push("partitions are not pairwise disjoint".to_string());
        }
        let union = self.p1.union(&self.p2).union(&self.p3);
        if &union != phi {
            problems.push(format!(
                "P1 ∪ P2 ∪ P3 has {} points, Φ has {}",
                union.len(),
                phi.len()
            ));
        }
        // The phase of every point of the union: the first set holding it.
        let in_p1 = union.mask_in(&self.p1);
        let in_p2 = union.mask_in(&self.p2);
        let phase = |p: usize| -> i32 {
            if in_p1[p] {
                1
            } else if in_p2[p] {
                2
            } else {
                3
            }
        };
        for (src, dst) in rd.edges_within(&union) {
            let (a, b) = (phase(src as usize), phase(dst as usize));
            let (src, dst) = (union.point(src as usize), union.point(dst as usize));
            if a > b {
                problems.push(format!(
                    "dependence {:?} (P{a}) -> {:?} (P{b}) goes backwards",
                    src, dst
                ));
            }
            if a == b && (a == 1 || a == 3) {
                problems.push(format!(
                    "dependence {:?} -> {:?} inside fully parallel set P{a}",
                    src, dst
                ));
            }
        }
        if !self.w.is_subset(&self.p2) {
            problems.push("W is not a subset of P2".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};

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
    fn figure2_partition_matches_paper() {
        // "The first set is the union of the initial iterations
        //  {1,2,3,4,5,6} and the independent iterations
        //  {7,12,14,16,18,20}" — and every monotonic chain has only two
        // iterations, so the intermediate set is empty.
        let analysis = DependenceAnalysis::loop_level(&figure2());
        let part = ThreeSetPartition::compute(&analysis.phi, &analysis.relation);
        let dense = part.bind_params(&[]).to_dense();
        let p1: Vec<i64> = dense.p1.iter().map(|p| p[0]).collect();
        assert_eq!(p1, vec![1, 2, 3, 4, 5, 6, 7, 12, 14, 16, 18, 20]);
        assert!(
            dense.p2.is_empty(),
            "figure 2 has an empty intermediate set"
        );
        let p3: Vec<i64> = dense.p3.iter().map(|p| p[0]).collect();
        assert_eq!(p3, vec![8, 9, 10, 11, 13, 15, 17, 19]);
        assert!(dense.w.is_empty());
        // Cross-validate against the dense computation.
        let (phi, rel) = analysis.bind_params(&[]);
        let dense_direct = DenseThreeSet::compute(
            &DenseSet::from_union(&phi),
            &DenseRelation::from_relation(&rel),
        );
        assert_eq!(dense, dense_direct);
    }

    #[test]
    fn example1_partition_structure() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let part = ThreeSetPartition::compute(&analysis.phi, &analysis.relation);
        // Symbolic partition specialised to the figure-1 box (N1=N2=10).
        let dense = part.bind_params(&[10, 10]).to_dense();
        let (phi, rel) = analysis.bind_params(&[10, 10]);
        let phi_d = DenseSet::from_union(&phi);
        let rd_d = DenseRelation::from_relation(&rel);
        assert!(
            dense.validate(&phi_d, &rd_d).is_empty(),
            "invalid partition"
        );
        // Exactly the 100 iterations of the 10x10 space are covered.
        assert_eq!(dense.p1.len() + dense.p2.len() + dense.p3.len(), 100);
        // Figure 1 structure: sources at i1 in {2,3,4} (18 dependences), all
        // targets have i1 in {4, 7, 10}.  Iterations that are targets but
        // not sources are final; (4, j) for small j are both.
        assert!(dense.p3.contains(&[7, 5]));
        assert!(dense.p3.contains(&[10, 10]));
        assert!(dense.p1.contains(&[1, 1]));
        assert!(dense.p1.contains(&[2, 2]));
        // (4,4) is a target of (2,2) and a source of (10,10): intermediate.
        assert!(dense.p2.contains(&[4, 4]));
        // Chain starts: every P2 iteration whose predecessor is in P1.
        assert!(dense.w.contains(&[4, 4]));
        // Cross-validation symbolic vs dense.
        let direct = DenseThreeSet::compute(&phi_d, &rd_d);
        assert_eq!(dense, direct);
        // The symbolic sets must not be flagged approximate for this loop.
        assert!(!part.p1.is_approximate());
        assert!(!part.p2.is_approximate());
        assert!(!part.p3.is_approximate());
    }

    #[test]
    fn validation_catches_broken_partitions() {
        let analysis = DependenceAnalysis::loop_level(&figure2());
        let (phi, rel) = analysis.bind_params(&[]);
        let phi_d = DenseSet::from_union(&phi);
        let rd_d = DenseRelation::from_relation(&rel);
        let good = DenseThreeSet::compute(&phi_d, &rd_d);
        assert!(good.validate(&phi_d, &rd_d).is_empty());
        // Swap P1 and P3: dependences now go backwards.
        let bad = DenseThreeSet {
            p1: good.p3.clone(),
            p2: good.p2.clone(),
            p3: good.p1.clone(),
            w: good.w.clone(),
        };
        assert!(!bad.validate(&phi_d, &rd_d).is_empty());
        // Dropping P3 breaks coverage.
        let missing = DenseThreeSet {
            p1: good.p1.clone(),
            p2: good.p2.clone(),
            p3: DenseSet::new(1),
            w: good.w.clone(),
        };
        assert!(!missing.validate(&phi_d, &rd_d).is_empty());
    }

    #[test]
    fn uniform_loop_three_sets() {
        // a(I+1) = a(I), N = 6: a single chain 1 -> 2 -> ... -> 6.
        let p = Program::new(
            "chain",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") + c(1)]),
                        ArrayRef::read("a", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = ThreeSetPartition::compute(&analysis.phi, &analysis.relation);
        let dense = part.bind_params(&[6]).to_dense();
        assert_eq!(dense.p1.to_vec(), vec![vec![1]]);
        assert_eq!(dense.p2.len(), 4); // 2..=5
        assert_eq!(dense.p3.to_vec(), vec![vec![6]]);
        assert_eq!(dense.w.to_vec(), vec![vec![2]]);
    }
}
