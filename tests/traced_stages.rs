//! Algorithm 1's plain else-branch builds its dataflow stages from one
//! pass over the program's accesses (`rcp_depend::dataflow_levels`),
//! without the dependence relation.  Those stages must be exactly the ones
//! the relation gives: on every bundled kernel, at every granularity the
//! session accepts and at two or more bindings, `Partitioned::partition`
//! equals `concrete_partition_from_dense` over the analysis's `Φ` and
//! `Rd`, level by level, and the stage's `Φ` is the analysis's `Φ`.  On
//! hand-built programs the trace equals `dataflow_partition`'s forward
//! pass over `Rd`.

use recurrence_chains::core::{
    concrete_partition_from_dense, dataflow_partition, ConcretePartition, PlanUnavailable,
};
use recurrence_chains::depend::{
    dataflow_levels, statement_boxes, DependenceAnalysis, Granularity,
};
use recurrence_chains::loopir::expr::{c, v};
use recurrence_chains::loopir::program::build::{loop_, stmt};
use recurrence_chains::loopir::{ArrayLayout, ArrayRef, ElementLayout, Program};
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::session::{Config, GranularityChoice, RcpError, Session};
use recurrence_chains::workloads::BUNDLED_LOOPS;

/// The bindings each kernel is checked at: its survey binding and a larger
/// one.  Cholesky, whose relation is the costliest to enumerate, runs at
/// smaller sizes and at the size the `execute` benchmark uses.
fn bindings(kernel: &str, survey: Vec<i64>) -> Vec<Vec<i64>> {
    match kernel {
        "cholesky" => vec![vec![1, 2, 3, 1], vec![3, 3, 6, 2], vec![10, 4, 20, 2]],
        _ if survey.is_empty() => vec![survey],
        _ => {
            let larger = survey.iter().map(|v| v + 3).collect();
            vec![survey, larger]
        }
    }
}

#[test]
fn traced_stages_equal_the_stages_built_from_rd() {
    let mut traced = 0;
    let mut compared = 0;
    for bundled in BUNDLED_LOOPS {
        for choice in [
            GranularityChoice::Auto,
            GranularityChoice::Statement,
            GranularityChoice::Loop,
        ] {
            let analyzed = match Session::with_config(Config::new().with_granularity(choice))
                .load(bundled.program())
            {
                Ok(analyzed) => analyzed,
                Err(RcpError::GranularityUnavailable { .. }) => continue,
                Err(e) => panic!("{}: {e}", bundled.name),
            };
            for values in bindings(bundled.name, bundled.survey_values()) {
                let what = format!("{} at {choice:?}, {values:?}", bundled.name);
                let stage = analyzed
                    .partition_values(&values)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let is_traced = !stage.instantiated()
                    && !matches!(
                        stage.plan_unavailability(),
                        None | Some(PlanUnavailable::AggregatedLoopLevel)
                    );
                // Ask for the partition first, so a traced stage builds it
                // before anything has enumerated Rd.
                let partition = stage.partition().clone();
                let analysis = stage.analysis();
                let (phi, relation) = analysis.bind_params(stage.runtime_values());
                let phi = DenseSet::from_union(&phi);
                let rd = DenseRelation::from_relation(&relation);
                assert_eq!(stage.phi(), &phi, "{what}: Φ differs from the analysis's Φ");
                let reference = concrete_partition_from_dense(analysis, &phi, &rd);
                match (&partition, &reference) {
                    (
                        ConcretePartition::Dataflow { stages },
                        ConcretePartition::Dataflow { stages: want },
                    ) => {
                        assert_eq!(stages.levels, want.levels, "{what}: levels differ");
                    }
                    _ => {
                        assert!(
                            !is_traced,
                            "{what}: the else-branch must give dataflow stages"
                        );
                        assert_eq!(format!("{partition:?}"), format!("{reference:?}"), "{what}");
                    }
                }
                assert!(stage.validate().is_empty(), "{what}");
                traced += usize::from(is_traced);
                compared += 1;
            }
        }
    }
    // Ten of the fourteen kernels take the plain else-branch at automatic
    // granularity, and every kernel does at statement level.
    assert!(traced >= 40, "only {traced} traced stages");
    assert!(compared > traced, "the then-branch must be compared too");
}

#[test]
fn cholesky_at_the_execute_size_has_158_stages() {
    let stage = Session::new()
        .bundled("cholesky")
        .and_then(|analyzed| analyzed.partition_values(&[10, 4, 20, 2]))
        .unwrap();
    let stats = stage.stats();
    assert_eq!(stats.total_iterations, 9526);
    assert_eq!(stats.n_phases, 158);
    assert!(!stage.instantiated());
    assert_eq!(stage.plan_provenance(), "concrete-fallback");
}

fn single_loop(name: &str, refs: Vec<ArrayRef>) -> Program {
    Program::new(
        name,
        &["N"],
        vec![loop_("I", c(1), v("N"), vec![stmt("S", refs)])],
    )
}

#[test]
fn hand_built_traces_equal_the_forward_pass_over_rd() {
    let figure2 = single_loop(
        "figure2",
        vec![
            ArrayRef::write("a", vec![v("I") * 2]),
            ArrayRef::read("a", vec![c(21) - v("I")]),
        ],
    );
    // Read-modify-write of one element every iteration, plus a second
    // array: output, anti and flow dependences at every distance.
    let rmw = single_loop(
        "rmw",
        vec![
            ArrayRef::write("a", vec![v("I") * 2]),
            ArrayRef::read("a", vec![c(21) - v("I")]),
            ArrayRef::read("b", vec![c(1)]),
            ArrayRef::write("b", vec![c(1)]),
        ],
    );
    // Two statements per iteration: at loop level the write of `x`
    // and its read inside one iteration must not constrain the point.
    let pair = Program::new(
        "pair",
        &["N"],
        vec![loop_(
            "I",
            c(1),
            v("N"),
            vec![
                stmt(
                    "W",
                    vec![
                        ArrayRef::write("x", vec![v("I")]),
                        ArrayRef::read("y", vec![v("I") - c(2)]),
                    ],
                ),
                stmt(
                    "R",
                    vec![
                        ArrayRef::write("y", vec![v("I")]),
                        ArrayRef::read("x", vec![v("I")]),
                        ArrayRef::read("x", vec![c(10) - v("I")]),
                    ],
                ),
            ],
        )],
    );
    // An imperfect nest, traced per statement instance.
    let imperfect = Program::new(
        "imperfect",
        &["N"],
        vec![
            loop_(
                "I",
                c(1),
                v("N"),
                vec![
                    stmt("W", vec![ArrayRef::write("x", vec![v("I")])]),
                    loop_(
                        "J",
                        c(1),
                        v("I"),
                        vec![stmt(
                            "R",
                            vec![
                                ArrayRef::write("x", vec![v("J")]),
                                ArrayRef::read("x", vec![v("I") - v("J") + c(1)]),
                            ],
                        )],
                    ),
                ],
            ),
            loop_(
                "K",
                c(1),
                v("N"),
                vec![stmt("T", vec![ArrayRef::read("x", vec![v("K")])])],
            ),
        ],
    );
    for (program, values, granularity) in [
        (&figure2, 20, Granularity::LoopLevel),
        (&rmw, 15, Granularity::LoopLevel),
        (&pair, 12, Granularity::LoopLevel),
        (&pair, 12, Granularity::StatementLevel),
        (&imperfect, 7, Granularity::StatementLevel),
    ] {
        let traced = dataflow_levels(program, &[values], granularity);
        let analysis = DependenceAnalysis::analyze(program, granularity);
        let (phi, relation) = analysis.bind_params(&[values]);
        let phi = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&relation);
        assert_eq!(
            traced,
            dataflow_partition(&phi, &rd).levels,
            "{} at {granularity:?}",
            program.name
        );
        assert!(traced.iter().any(|&l| l > 0), "{}", program.name);
    }
}

#[test]
fn a_hashed_diagonal_beside_a_dense_array_traces_as_rd_orders_it() {
    // At N = 2 000 the diagonal a(I, I) spans 4·10^6 cells for 4 000
    // writes, past the cell limit, so the tracer keeps it in a table, while
    // b(I) is one dense box.  S reads a three iterations back and b across
    // the middle; T reads the a(I, I) that S just wrote.
    let program = Program::new(
        "mixed",
        &["N"],
        vec![loop_(
            "I",
            c(1),
            v("N"),
            vec![
                stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I"), v("I")]),
                        ArrayRef::read("a", vec![v("I") - c(3), v("I") - c(3)]),
                        ArrayRef::read("b", vec![c(2001) - v("I")]),
                    ],
                ),
                stmt(
                    "T",
                    vec![
                        ArrayRef::write("b", vec![v("I")]),
                        ArrayRef::read("a", vec![v("I"), v("I")]),
                    ],
                ),
            ],
        )],
    );
    let n = 2_000;
    let bound = program.bind_params(&[n]);
    let layout = ElementLayout::new(&bound.compile_refs(), &statement_boxes(&bound));
    assert!(matches!(layout.arrays()[0], ArrayLayout::Hashed(_)));
    assert!(matches!(layout.arrays()[1], ArrayLayout::Dense(_)));
    for granularity in [Granularity::LoopLevel, Granularity::StatementLevel] {
        let traced = dataflow_levels(&program, &[n], granularity);
        let analysis = DependenceAnalysis::analyze(&program, granularity);
        let (phi, relation) = analysis.bind_params(&[n]);
        let phi = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&relation);
        assert_eq!(
            traced,
            dataflow_partition(&phi, &rd).levels,
            "{granularity:?}"
        );
        assert!(traced.iter().max() > Some(&100), "{granularity:?}");
    }
}
