//! The pair-space screening engine changes *nothing* about the analysis.
//!
//! The pre-solve screens (shape-bucketed GCD, bounding-box intersection,
//! class-deduplicated diophantine solve) only drop reference pairs whose
//! relation pieces the exact path would have discarded anyway.  These
//! property tests prove it bit-identically against the legacy
//! solver-only screening (`ScreenConfig::exact_only()`), on the paper's
//! examples 1–4, the Cholesky kernel and 200 random corpus nests: the
//! symbolic relation piece for piece, the enumerated `Φ`/`Rd`, the three
//! sets, the chains and the schedule.

use recurrence_chains::codegen::Schedule;
use recurrence_chains::core::{concrete_partition_from_dense, ConcretePartition};
use recurrence_chains::depend::{AnalysisOptions, DependenceAnalysis, Granularity, ScreenConfig};
use recurrence_chains::loopir::Program;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::workloads::{
    example1, example2, example3, example4_cholesky, figure2, random_nest, SmallRng,
};

/// Runs both screening modes and asserts the analyses are bit-identical
/// end to end at the given binding.
fn assert_screen_equivalent(
    name: &str,
    program: &Program,
    granularity: Granularity,
    values: &[i64],
) {
    let screened = DependenceAnalysis::with_options(program, &AnalysisOptions::new(granularity));
    let exact = DependenceAnalysis::with_options(
        program,
        &AnalysisOptions::new(granularity).with_screen(ScreenConfig::exact_only()),
    );
    // 1. The symbolic relation is identical piece for piece: screened
    //    pairs contributed nothing the exact path kept.
    assert_eq!(
        format!("{:?}", screened.relation),
        format!("{:?}", exact.relation),
        "{name}: screened and unscreened relations diverge"
    );
    assert_eq!(screened.pairs, exact.pairs, "{name}: pair lists diverge");
    assert!(
        screened.n_screened_pairs >= exact.n_screened_pairs,
        "{name}: the full screen must drop at least the solver-screened pairs"
    );
    // 2. The enumerated concrete sets are identical.
    let (phi_s, rel_s) = screened.bind_params(values);
    let (phi_e, rel_e) = exact.bind_params(values);
    let phi_s = DenseSet::from_union(&phi_s);
    let phi_e = DenseSet::from_union(&phi_e);
    let rd_s = DenseRelation::from_relation(&rel_s);
    let rd_e = DenseRelation::from_relation(&rel_e);
    assert_eq!(phi_s, phi_e, "{name}: iteration spaces diverge");
    assert_eq!(
        rd_s.iter().collect::<Vec<_>>(),
        rd_e.iter().collect::<Vec<_>>(),
        "{name}: dense relations diverge"
    );
    // 3. The Algorithm-1 partition — three sets, chains, stages — and the
    //    schedule are identical.
    let part_s = concrete_partition_from_dense(&screened, &phi_s, &rd_s);
    let part_e = concrete_partition_from_dense(&exact, &phi_e, &rd_e);
    match (&part_s, &part_e) {
        (
            ConcretePartition::RecurrenceChains {
                three_set: st,
                chains: sc,
            },
            ConcretePartition::RecurrenceChains {
                three_set: et,
                chains: ec,
            },
        ) => {
            assert_eq!(st.p1, et.p1, "{name}: P1 diverges");
            assert_eq!(st.p2, et.p2, "{name}: P2 diverges");
            assert_eq!(st.p3, et.p3, "{name}: P3 diverges");
            assert_eq!(sc, ec, "{name}: chains diverge");
        }
        (
            ConcretePartition::Dataflow { stages: ss },
            ConcretePartition::Dataflow { stages: es },
        ) => {
            assert_eq!(ss.levels, es.levels, "{name}: dataflow levels diverge");
        }
        (s, e) => panic!(
            "{name}: strategies diverge (screened {:?}, exact {:?})",
            s.strategy(),
            e.strategy()
        ),
    }
    let sched_s = Schedule::from_partition(
        &screened.program,
        screened.granularity,
        values,
        &part_s,
        "screened",
    );
    let sched_e = Schedule::from_partition(
        &exact.program,
        exact.granularity,
        values,
        &part_e,
        "screened",
    );
    assert_eq!(
        sched_s, sched_e,
        "{name}: schedules diverge phase for phase"
    );
}

#[test]
fn screening_is_invisible_on_the_paper_examples() {
    assert_screen_equivalent("example1", &example1(), Granularity::LoopLevel, &[10, 10]);
    assert_screen_equivalent("example2", &example2(), Granularity::LoopLevel, &[12]);
    assert_screen_equivalent("example3", &example3(), Granularity::StatementLevel, &[12]);
    assert_screen_equivalent("figure2", &figure2(), Granularity::LoopLevel, &[]);
    assert_screen_equivalent(
        "example1-stmt",
        &example1(),
        Granularity::StatementLevel,
        &[8, 8],
    );
}

#[test]
fn screening_is_invisible_on_cholesky() {
    // The kernel's subscripts mention parameters, so (exactly like the
    // session pipeline) the analysis runs on the parameter-bound program.
    // The box screen fires here — a(L, I, J) with I ≤ −1 can never meet
    // a(L, 0, K) — which is precisely what must not change the relation.
    let bound = example4_cholesky().bind_params(&[2, 2, 6, 1]);
    let screened = DependenceAnalysis::with_options(
        &bound,
        &AnalysisOptions::new(Granularity::StatementLevel),
    );
    assert!(
        screened.screen.by_bbox > 0,
        "the box screen must fire on Cholesky: {:?}",
        screened.screen
    );
    assert_screen_equivalent("cholesky", &bound, Granularity::StatementLevel, &[]);
}

#[test]
fn screening_is_invisible_on_the_corpus() {
    let mut rng = SmallRng::seed_from_u64(2004);
    for id in 0..200 {
        let coupled = (id % 5) as f64 / 4.0;
        let nest = random_nest(&mut rng, coupled, id);
        assert_screen_equivalent(&format!("corpus-{id}"), &nest, Granularity::LoopLevel, &[8]);
    }
}

#[test]
fn screening_is_invisible_on_the_aggregated_views() {
    // The imperfect bundled workloads at loop granularity.
    for (name, values) in [
        ("mvt", vec![5i64]),
        ("lu", vec![6]),
        ("jacobi1d", vec![3, 8]),
    ] {
        let program = recurrence_chains::workloads::bundled_loop(name)
            .unwrap()
            .program();
        assert_screen_equivalent(name, &program, Granularity::LoopLevel, &values);
    }
}
