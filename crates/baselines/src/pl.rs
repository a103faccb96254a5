//! The PL baseline: partitioning and labeling by unimodular transformations
//! (D'Hollander, TPDS 1992).
//!
//! PL partitions a loop with *uniform* dependence distances into independent
//! equivalence classes (the lattice generated by the true distance vectors)
//! and runs the classes in parallel, each class sequentially in
//! lexicographic order.  The scheme is exact for uniform loops; for loops
//! with non-uniform dependences no fixed distance lattice exists, so the
//! original method cannot be applied and the loop stays sequential — which
//! is exactly why PL is the weakest line of Figure 3 (Example 1).

use crate::pdm::{chain_classes, offset_classes};
use rcp_codegen::{PointExpander, Schedule};
use rcp_depend::{classify_uniformity, distance_set, DependenceAnalysis, Uniformity};
use rcp_presburger::{DenseRelation, DenseSet};

/// The PL partitioning: independent chains for uniform loops, the original
/// sequential order otherwise.
pub fn pl_schedule(
    analysis: &DependenceAnalysis,
    phi: &DenseSet,
    rd: &DenseRelation,
    name: &str,
) -> Schedule {
    let expander = PointExpander::new(analysis, &[]);
    match classify_uniformity(rd, phi) {
        // no dependences at all: a single DOALL
        Uniformity::Independent => Schedule::doall_phase(analysis, phi, name),
        // group iterations into classes connected by the true distances
        Uniformity::Uniform => chain_classes(
            &expander,
            phi,
            &offset_classes(phi, &distance_set(rd)),
            name,
        ),
        // not applicable: keep the original (lexicographic) sequential
        // order, one chain of every point of `phi`
        Uniformity::NonUniform => chain_classes(&expander, phi, &[(0..phi.len()).collect()], name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_workloads::{example1, uniform_chain};

    #[test]
    fn uniform_loop_gets_independent_chains() {
        // a(I+1) = a(I): one chain only (no parallelism in a 1-D chain), but
        // the mechanism is exercised; a 2-D uniform loop shows real classes.
        let analysis = DependenceAnalysis::loop_level(&uniform_chain());
        let (phi, rel) = analysis.bind_params(&[8]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let schedule = pl_schedule(&analysis, &phi_d, &rd, "pl");
        assert_eq!(schedule.n_items(), 8);
        assert_eq!(schedule.critical_path(), 8);
    }

    #[test]
    fn two_dimensional_uniform_loop_has_parallel_classes() {
        use rcp_loopir::expr::{c, v};
        use rcp_loopir::program::build::{loop_, stmt};
        use rcp_loopir::{ArrayRef, Program};
        // a(I+1, J) = a(I, J): rows are independent classes.
        let p = Program::new(
            "rows",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("N"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") + c(1), v("J")]),
                            ArrayRef::read("a", vec![v("I"), v("J")]),
                        ],
                    )],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let (phi, rel) = analysis.bind_params(&[6]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let schedule = pl_schedule(&analysis, &phi_d, &rd, "pl-rows");
        let phase = schedule.phase(0);
        assert_eq!(phase.kind(), rcp_codegen::PhaseKind::ChainSet);
        assert_eq!(phase.width(), 6, "one class per J value");
        assert!(phase.units().all(|c| c.len() == 6));
        assert!(schedule.validate_coverage(&p, &[6]).is_empty());
    }

    #[test]
    fn non_uniform_loop_stays_sequential() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let (phi, rel) = analysis.bind_params(&[10, 10]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let schedule = pl_schedule(&analysis, &phi_d, &rd, "pl-ex1");
        assert_eq!(
            schedule.critical_path(),
            100,
            "PL cannot parallelize example 1"
        );
        assert!(schedule
            .validate_coverage(&example1(), &[10, 10])
            .is_empty());
    }
}
