//! The session pipeline is bit-identical to the legacy free-function
//! pipeline.
//!
//! The staged `Session` API (PR 4) replaced hand-wired calls to
//! `DependenceAnalysis::analyze` / `bind_params` / dense enumeration /
//! `concrete_partition_from_dense` / `Schedule::from_partition` with
//! memoised stages.  These property tests prove the refactor changed
//! *nothing observable*: on the paper's examples, the Cholesky kernel and
//! 200 random corpus nests, both paths produce the same dependence
//! relation, the same enumerated space, the same three sets and chains,
//! the same schedule, and the same executed array store — at every tested
//! thread count.

use recurrence_chains::codegen::Schedule;
use recurrence_chains::core::{concrete_partition_from_dense, ConcretePartition};
use recurrence_chains::depend::{DependenceAnalysis, Granularity};
use recurrence_chains::loopir::Program;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::runtime::{execute_schedule, execute_sequential, RefKernel, Verification};
use recurrence_chains::session::{Config, Session};
use recurrence_chains::workloads::{
    example1, example2, example3, example4_cholesky, figure2, random_nest, SmallRng,
};

/// The legacy path, exactly as `rcp-cli`, the examples and the bench
/// harness wired it by hand before the session API existed.
struct Legacy {
    analysis: DependenceAnalysis,
    phi: DenseSet,
    rd: DenseRelation,
    partition: ConcretePartition,
    schedule: Schedule,
}

fn legacy_pipeline(program: &Program, values: &[i64], granularity: Granularity) -> Legacy {
    // Programs whose subscripts mention parameters (Cholesky) were always
    // bound before analysis in the legacy flow too (see `ex4_dataflow`).
    let analysis = DependenceAnalysis::analyze(program, granularity);
    let (phi_u, rel) = analysis.bind_params(values);
    let phi = DenseSet::from_union(&phi_u);
    let rd = DenseRelation::from_relation(&rel);
    let partition = concrete_partition_from_dense(&analysis, &phi, &rd);
    let schedule = Schedule::from_partition(&analysis, &partition, "equiv");
    Legacy {
        analysis,
        phi,
        rd,
        partition,
        schedule,
    }
}

fn pairs(rd: &DenseRelation) -> Vec<(Vec<i64>, Vec<i64>)> {
    rd.iter().map(|(a, b)| (a.to_vec(), b.to_vec())).collect()
}

/// Asserts the session stage equals the legacy artifacts piece for piece,
/// then replays both schedules on 1, 2 and 4 threads and compares the
/// stores element for element.
fn assert_equivalent(name: &str, program: &Program, values: &[(&str, i64)]) {
    let session = Session::with_config(Config::new().with_params(values));
    let analyzed = session
        .load(program.clone())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let stage = analyzed
        .partition()
        .unwrap_or_else(|e| panic!("{name}: {e}"));

    // Legacy runs on the same inputs the session resolved: the original
    // program for symbolic analyses, the parameter-bound program (with no
    // remaining parameters) for deferred ones.
    let legacy = legacy_pipeline(
        stage.runtime_program(),
        stage.runtime_values(),
        analyzed.granularity(),
    );

    // 1. The exact symbolic relation is identical.
    assert_eq!(
        format!("{:?}", stage.analysis().relation),
        format!("{:?}", legacy.analysis.relation),
        "{name}: symbolic relations diverge"
    );
    // 2. The enumerated space and dense relation are identical.
    assert_eq!(stage.phi(), &legacy.phi, "{name}: iteration spaces diverge");
    assert_eq!(
        pairs(stage.rd()),
        pairs(&legacy.rd),
        "{name}: dependence relations diverge"
    );
    // 3. The Algorithm-1 partition is identical: strategy, three sets,
    //    chain count and content, dataflow stages.
    match (stage.partition(), &legacy.partition) {
        (
            ConcretePartition::RecurrenceChains {
                p1: sp1,
                chains: sc,
                p3: sp3,
                three_set: st,
            },
            ConcretePartition::RecurrenceChains {
                p1: lp1,
                chains: lc,
                p3: lp3,
                three_set: lt,
            },
        ) => {
            assert_eq!(sp1, lp1, "{name}: P1 diverges");
            assert_eq!(sp3, lp3, "{name}: P3 diverges");
            assert_eq!(st.p2, lt.p2, "{name}: P2 diverges");
            assert_eq!(sc.len(), lc.len(), "{name}: chain count diverges");
            assert_eq!(sc, lc, "{name}: chains diverge");
        }
        (
            ConcretePartition::Dataflow { stages: ss },
            ConcretePartition::Dataflow { stages: ls },
        ) => {
            assert_eq!(ss.stages, ls.stages, "{name}: dataflow stages diverge");
        }
        (s, l) => panic!(
            "{name}: strategies diverge (session {:?}, legacy {:?})",
            s.strategy(),
            l.strategy()
        ),
    }
    // 4. The schedule is identical phase for phase, item for item.
    let scheduled = stage
        .schedule_with("recurrence-chains")
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        scheduled.schedule().phases,
        legacy.schedule.phases,
        "{name}: schedules diverge"
    );
    // 5. Replay: the session's parallel execution equals the legacy
    //    sequential store at every thread count.
    let kernel = RefKernel::new(stage.runtime_program());
    let sequential = Schedule::sequential(stage.runtime_program(), stage.runtime_values());
    let reference = execute_sequential(&sequential, &kernel);
    for threads in [1usize, 2, 4] {
        let check = Verification::check(
            &reference,
            &execute_schedule(scheduled.schedule(), &kernel, threads),
        );
        assert!(check.passed(), "{name}: {check} at {threads} threads");
    }
}

#[test]
fn session_equals_legacy_on_the_paper_examples() {
    assert_equivalent("example1", &example1(), &[("N1", 10), ("N2", 10)]);
    assert_equivalent("example1-rect", &example1(), &[("N1", 12), ("N2", 8)]);
    assert_equivalent("example2", &example2(), &[("N", 12)]);
    assert_equivalent("example3", &example3(), &[("N", 12)]);
    assert_equivalent("figure2", &figure2(), &[]);
}

#[test]
fn session_equals_legacy_on_cholesky() {
    // Deferred analysis: subscripts mention NMAT/M/N/NRHS, so the session
    // binds the program before analysing — the result must still match the
    // legacy bind-first pipeline exactly.
    assert_equivalent(
        "cholesky",
        &example4_cholesky(),
        &[("NMAT", 2), ("M", 2), ("N", 6), ("NRHS", 1)],
    );
}

#[test]
fn session_equals_legacy_on_200_corpus_nests() {
    let mut rng = SmallRng::seed_from_u64(42);
    for id in 0..200 {
        let nest = random_nest(&mut rng, 0.45, id);
        assert_equivalent(&format!("corpus-{id}"), &nest, &[("N", 10)]);
    }
}

#[test]
fn repartitioning_reuses_the_analysis_and_matches_fresh_sessions() {
    // One Analyzed, many bindings: each re-partition must equal a fresh
    // single-binding session (which itself equals legacy, by the tests
    // above).
    let analyzed = Session::new().load(example1()).unwrap();
    for (n1, n2) in [(6i64, 6i64), (10, 10), (12, 7), (9, 14)] {
        let stage = analyzed
            .partition_with(&[("N1".into(), n1), ("N2".into(), n2)])
            .unwrap();
        let fresh = Session::with_config(Config::new().with_params(&[("N1", n1), ("N2", n2)]))
            .load(example1())
            .unwrap()
            .partition()
            .unwrap();
        assert_eq!(stage.phi(), fresh.phi(), "N1={n1} N2={n2}");
        assert_eq!(pairs(stage.rd()), pairs(fresh.rd()), "N1={n1} N2={n2}");
        assert_eq!(
            format!("{:?}", stage.partition()),
            format!("{:?}", fresh.partition()),
            "N1={n1} N2={n2}"
        );
    }
    assert_eq!(analyzed.cached_partitions(), 4);
}
