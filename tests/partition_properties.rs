//! Property-based tests: the partitioning invariants hold for *random*
//! coupled-subscript loops, not just for the paper's examples.
//!
//! For every generated loop the test checks the full pipeline:
//! analysis → Algorithm 1 → schedule → execution, asserting
//!
//! * the three partition sets (or dataflow stages) cover the iteration
//!   space exactly once and respect every dependence,
//! * chains are monotonic and disjoint whenever the recurrence branch is
//!   taken,
//! * the parallel schedule computes exactly what the sequential loop
//!   computes,
//! * the Theorem-1 critical-path bound holds whenever `α > 1`.
//!
//! The generators are driven by the workspace's deterministic [`SmallRng`]
//! with fixed seeds (the offline stand-in for proptest strategies), so
//! every run exercises the same case set.

use recurrence_chains::core::longest_chain;
use recurrence_chains::loopir::expr::{c, v};
use recurrence_chains::loopir::program::build::{loop_, stmt};
use recurrence_chains::loopir::{ArrayRef, Program};
use recurrence_chains::prelude::*;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::workloads::SmallRng;

/// A random 2-deep loop nest with one write and one read reference whose
/// subscripts are affine with small coefficients — the program family the
/// paper targets.
fn random_program(rng: &mut SmallRng) -> Program {
    // subscript = a*I + b*J + k per dimension
    let coeff = |rng: &mut SmallRng| rng.gen_range(-2..=3);
    let offset = |rng: &mut SmallRng| rng.gen_range(-2..=4);
    let sub = |a: i64, b: i64, k: i64| v("I") * a + v("J") * b + c(k);
    let w1 = sub(coeff(rng), coeff(rng), offset(rng));
    let w2 = sub(coeff(rng), coeff(rng), offset(rng));
    let r1 = sub(coeff(rng), coeff(rng), offset(rng));
    let r2 = sub(coeff(rng), offset(rng), offset(rng));
    Program::new(
        "random",
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
                        ArrayRef::write("a", vec![w1, w2]),
                        ArrayRef::read("a", vec![r1, r2]),
                    ],
                )],
            )],
        )],
    )
}

#[test]
fn partition_respects_dependences_and_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x9a27_2004);
    for _case in 0..24 {
        let program = random_program(&mut rng);
        let n = rng.gen_range(4..=8);
        let analysis = DependenceAnalysis::loop_level(&program);
        let params = [n];
        let (phi, rel) = analysis.bind_params(&params);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);

        // Algorithm 1, whichever branch applies.
        let partition = concrete_partition(&analysis, &params);
        assert!(
            partition.validate(&phi_d, &rd).is_empty(),
            "invalid partition: {:?}",
            partition.validate(&phi_d, &rd)
        );
        assert_eq!(partition.stats().total_iterations, (n * n) as usize);

        // Schedule and execute: parallel result == sequential result.
        let schedule = Schedule::from_partition(
            &analysis.program,
            analysis.granularity,
            &params,
            &partition,
            "random",
        );
        assert!(schedule.validate_coverage(&program, &params).is_empty());
        let kernel = RefKernel::new(&program);
        let sequential = Schedule::sequential(&program, &params);
        let verdict = verify_schedule(&sequential, &schedule, &kernel, 3);
        assert!(
            verdict.passed(),
            "schedule diverges from sequential execution"
        );

        // Theorem 1 whenever the recurrence branch applies and alpha > 1.
        if let ConcretePartition::RecurrenceChains { chains, .. } = &partition {
            if let Ok(plan) = recurrence_chains::core::symbolic_plan(&analysis) {
                let alpha = plan.recurrence.alpha();
                if alpha > recurrence_chains::intlin::Rational::ONE {
                    let l = ((2 * n * n) as f64).sqrt();
                    if let Some(bound) = plan.recurrence.critical_path_bound(l) {
                        assert!(
                            longest_chain(chains) <= bound,
                            "chain of length {} exceeds Theorem-1 bound {}",
                            longest_chain(chains),
                            bound
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn symbolic_and_dense_three_sets_agree() {
    // The symbolic partition (unions of convex sets with parameters) and
    // the dense partition (enumerated points) must agree point-wise
    // whenever the symbolic projections were exact.  Random programs can
    // produce access matrices whose projections need the approximate
    // Fourier-Motzkin path; those cases are skipped here (the paper's
    // workloads never hit that path, asserted in the example tests).
    let mut rng = SmallRng::seed_from_u64(0x3e75_1994);
    for _case in 0..24 {
        let program = random_program(&mut rng);
        let n = rng.gen_range(4..=7);
        let analysis = DependenceAnalysis::loop_level(&program);
        let symbolic =
            recurrence_chains::core::ThreeSetPartition::compute(&analysis.phi, &analysis.relation);
        let approximate = symbolic.p1.is_approximate()
            || symbolic.p2.is_approximate()
            || symbolic.p3.is_approximate()
            || analysis.relation.is_approximate();
        if approximate {
            continue;
        }
        let dense_from_symbolic = symbolic.bind_params(&[n]).to_dense();
        let (phi, rel) = analysis.bind_params(&[n]);
        let direct = recurrence_chains::core::DenseThreeSet::compute(
            &DenseSet::from_union(&phi),
            &DenseRelation::from_relation(&rel),
        );
        assert_eq!(dense_from_symbolic, direct);
    }
}

/// Parallel and sequential execution produce bit-identical array stores
/// on the synthetic corpus at every thread count.  The fallback is off so
/// that these small nests run on the threads they ask for.
#[test]
fn parallel_executor_is_bit_identical_on_the_corpus() {
    use recurrence_chains::runtime::{execute_sequential, ParallelExecutor};
    use recurrence_chains::workloads::random_nest;

    let mut rng = SmallRng::seed_from_u64(2004);
    let mut executed = 0usize;
    for case in 0..20 {
        let program = random_nest(&mut rng, 0.6, case);
        let analysis = DependenceAnalysis::loop_level(&program);
        let params = [7i64];
        let partition = concrete_partition(&analysis, &params);
        let schedule = Schedule::from_partition(
            &analysis.program,
            analysis.granularity,
            &params,
            &partition,
            "corpus",
        );
        let sequential = Schedule::sequential(&program, &params);
        let kernel = RefKernel::new(&program);
        let reference = execute_sequential(&sequential, &kernel);
        for threads in [1, 2, 3, 4] {
            let executor = ParallelExecutor::new(threads).with_sequential_fallback(false);
            let check = Verification::check(&reference, &executor.execute(&schedule, &kernel));
            assert!(
                check.passed(),
                "corpus case {case}: {check} with {threads} threads"
            );
            executed += 1;
        }
    }
    assert_eq!(executed, 20 * 4);
}
