//! End-to-end properties of the aggregated loop-level granularity for
//! imperfect nests (`--granularity loop`).
//!
//! The bundled imperfect workloads (mvt, lu, jacobi1d) used to be forced
//! to statement level and from there to the dataflow fallback.  At loop
//! granularity each gets an aggregated partition — chain-shaped when the
//! dependence structure admits disjoint monotonic chains — that is fully
//! validated and whose schedule executes bit-identically to the
//! sequential reference at every thread count.

use recurrence_chains::core::Strategy;
use recurrence_chains::loopir::program::build::stmt;
use recurrence_chains::loopir::{ArrayRef, Program};
use recurrence_chains::session::{Config, GranularityChoice, RcpError, Session};

fn loop_session(params: &[(&str, i64)]) -> Session {
    Session::with_config(
        Config::new()
            .with_params(params)
            .with_granularity(GranularityChoice::Loop),
    )
}

#[test]
fn mvt_gets_a_parallel_chain_partition_at_loop_granularity() {
    let stage = loop_session(&[("N", 6)])
        .bundled("mvt")
        .expect("mvt has a loop-level view")
        .partition()
        .expect("N binds");
    // Two 6x6 nests: 72 aggregation points.
    assert_eq!(stage.phi().len(), 72);
    assert!(
        stage.validate().is_empty(),
        "{:?}",
        stage.validate().first()
    );
    // The x1/x2 accumulation rows are disjoint monotonic chains: the
    // chain-shaped partition applies instead of the dataflow fallback.
    assert_eq!(stage.partition().strategy(), Strategy::RecurrenceChains);
    let stats = stage.stats();
    assert!(
        stats.max_width >= 12,
        "one independent chain per row: {stats:?}"
    );
    let scheduled = stage.schedule().expect("default scheme");
    assert!(
        scheduled.verify().passed(),
        "loop-granularity schedule must replay sequentially"
    );
}

#[test]
fn jacobi1d_aggregates_to_the_sequential_time_loop() {
    let stage = loop_session(&[("TSTEPS", 5), ("N", 12)])
        .bundled("jacobi1d")
        .expect("jacobi1d has a loop-level view")
        .partition()
        .expect("params bind");
    // One point per time step.
    assert_eq!(stage.phi().len(), 5);
    assert!(stage.validate().is_empty());
    // The time chain is a single monotonic chain: chain-shaped partition,
    // honest critical path of length |T| (the outer loop carries all
    // dependences).
    assert_eq!(stage.partition().strategy(), Strategy::RecurrenceChains);
    assert!(stage.stats().critical_path >= 3);
    let scheduled = stage.schedule().expect("default scheme");
    assert!(scheduled.verify().passed());
}

#[test]
fn lu_partitions_validly_at_loop_granularity() {
    let stage = loop_session(&[("N", 8)])
        .bundled("lu")
        .expect("lu has a loop-level view")
        .partition()
        .expect("N binds");
    // Prefix (K, I): one point per pivot/row pair.
    assert!(!stage.phi().is_empty());
    assert!(
        stage.validate().is_empty(),
        "{:?}",
        stage.validate().first()
    );
    let scheduled = stage.schedule().expect("default scheme");
    assert!(scheduled.verify().passed());
}

#[test]
fn aggregated_schedules_match_sequential_at_every_thread_count() {
    use recurrence_chains::runtime::{
        execute_schedule, execute_sequential, RefKernel, Verification,
    };
    for (name, params) in [
        ("mvt", vec![("N", 5)]),
        ("jacobi1d", vec![("TSTEPS", 4), ("N", 10)]),
        ("lu", vec![("N", 6)]),
    ] {
        let stage = loop_session(&params)
            .bundled(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .partition()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let scheduled = stage.schedule().unwrap_or_else(|e| panic!("{name}: {e}"));
        let kernel = RefKernel::new(stage.runtime_program());
        let sequential = recurrence_chains::codegen::Schedule::sequential(
            stage.runtime_program(),
            stage.runtime_values(),
        );
        let reference = execute_sequential(&sequential, &kernel);
        for threads in [1usize, 2, 4] {
            let check = Verification::check(
                &reference,
                &execute_schedule(scheduled.schedule(), &kernel, threads),
            );
            assert!(check.passed(), "{name}: {check} at {threads} threads");
        }
    }
}

#[test]
fn single_coupled_pair_in_an_aggregated_view_never_takes_the_unvalidated_branch() {
    // Regression: an imperfect nest with exactly one same-statement
    // coupled pair used to pass `uses_recurrence_chains` on the
    // aggregated view and build chains with the Lemma-1 construction —
    // which assumes unique successors and produced a partition with
    // chain-crossing dependences.  The aggregated view must route through
    // the *validated* component-chain salvage (or dataflow) instead.
    use recurrence_chains::core::{concrete_partition_from_dense, symbolic_plan, PlanUnavailable};
    use recurrence_chains::depend::{AnalysisOptions, DependenceAnalysis, Granularity};
    use recurrence_chains::loopir::expr::{c, v};
    use recurrence_chains::loopir::program::build::loop_;
    use recurrence_chains::presburger::{DenseRelation, DenseSet};

    let p = Program::new(
        "agg-coupled",
        &["N"],
        vec![loop_(
            "t",
            c(1),
            v("N"),
            vec![
                stmt(
                    "S1",
                    vec![
                        ArrayRef::write("a", vec![v("t") + c(1)]),
                        ArrayRef::read("a", vec![v("t")]),
                    ],
                ),
                loop_(
                    "i",
                    c(1),
                    v("N"),
                    vec![stmt(
                        "S3",
                        vec![
                            ArrayRef::write("d", vec![v("i")]),
                            ArrayRef::read("e", vec![v("i")]),
                        ],
                    )],
                ),
            ],
        )],
    );
    let analysis =
        DependenceAnalysis::with_options(&p, &AnalysisOptions::new(Granularity::LoopLevel));
    assert!(analysis.is_aggregated());
    // The recurrence machinery must refuse, with the aggregated reason.
    assert_eq!(
        symbolic_plan(&analysis).unwrap_err(),
        PlanUnavailable::AggregatedLoopLevel
    );
    // The concrete partition must be fully valid whatever branch it takes.
    let (phi, rel) = analysis.bind_params(&[6]);
    let phi = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&rel);
    let part = concrete_partition_from_dense(&analysis, &phi, &rd);
    assert!(
        part.validate(&phi, &rd).is_empty(),
        "aggregated partition must respect every dependence: {:?}",
        part.validate(&phi, &rd).first()
    );
}

#[test]
fn auto_granularity_is_unchanged_for_imperfect_nests() {
    // The historical behaviour is frozen: without --granularity loop,
    // imperfect nests still analyse at statement level.
    let analyzed = Session::with_config(Config::new().with_param("N", 6))
        .bundled("mvt")
        .unwrap();
    assert_eq!(
        analyzed.granularity(),
        recurrence_chains::depend::Granularity::StatementLevel
    );
}

#[test]
fn programs_without_a_loop_level_view_get_a_typed_error() {
    use recurrence_chains::loopir::expr::{c, v};
    use recurrence_chains::loopir::program::build::loop_;
    // A bare statement next to a loop: neither a perfect nest (the
    // statement-only degenerate case) nor decomposable into loop groups.
    let flat = Program::new(
        "flat",
        &["N"],
        vec![
            stmt(
                "S0",
                vec![
                    ArrayRef::write("a", vec![c(1)]),
                    ArrayRef::read("a", vec![c(2)]),
                ],
            ),
            loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt("S1", vec![ArrayRef::write("a", vec![v("I")])])],
            ),
        ],
    );
    let err = Session::with_config(Config::new().with_granularity(GranularityChoice::Loop))
        .load(flat)
        .unwrap_err();
    assert!(
        matches!(err, RcpError::GranularityUnavailable { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("granularity unavailable"), "{err}");
}

#[test]
fn loop_level_baselines_refuse_the_aggregated_view_with_a_typed_reason() {
    let stage = loop_session(&[("N", 5)])
        .bundled("mvt")
        .unwrap()
        .partition()
        .unwrap();
    for scheme in ["pdm", "pl", "unique"] {
        let err = stage.schedule_with(scheme).unwrap_err();
        assert!(
            matches!(err, RcpError::SchemeUnsupported { .. }),
            "{scheme}: {err}"
        );
    }
    // The paper's own scheme and the structure-free baselines still apply.
    for scheme in ["recurrence-chains", "doacross", "inner-parallel"] {
        assert!(
            stage.schedule_with(scheme).is_ok(),
            "{scheme} must handle the aggregated view"
        );
    }
}
