//! Robustness properties of the error surface and the degradation ladder.
//!
//! Three families of guarantees (see `docs/ROBUSTNESS.md`):
//!
//! 1. Every [`RcpError`] variant renders a non-empty, self-describing
//!    `Display`, and that rendering round-trips bit-for-bit through the
//!    `--json` error field (`rcp_cli::error_json`).
//! 2. A budget-bounded session degrades instead of failing: the analysis
//!    lands on the screened-conservative rung carrying the typed
//!    `BudgetExceeded` cause, and the sequential rung still executes
//!    bit-identically.
//! 3. Injected worker panics cross the executor boundary as typed
//!    `WorkerPanic` data with their context, never as an unwind.

use rcp_json::Json;
use recurrence_chains::cli::{cmd_analyze, error_json, Options};
use recurrence_chains::core::PlanUnavailable;
use recurrence_chains::guard::BudgetSpec;
use recurrence_chains::prelude::*;
use recurrence_chains::session::DegradationLevel;

/// One representative of every `RcpError` variant.  Extending the enum
/// without extending this list is caught by the `match` below being
/// non-exhaustive — the compiler, not a reviewer, enforces coverage.
fn every_error_variant() -> Vec<RcpError> {
    let parse = RcpError::parse(
        "bad.loop",
        recurrence_chains::lang::parse_program("PROGRAM p\nDO I = , 9\nENDDO\nEND\n").unwrap_err(),
    );
    vec![
        parse,
        RcpError::UnknownParameter {
            program: "p".into(),
            name: "Q".into(),
            declared: vec!["N".into()],
        },
        RcpError::MissingParameter {
            program: "p".into(),
            name: "N".into(),
        },
        RcpError::UnboundVariable {
            program: "p".into(),
            detail: recurrence_chains::loopir::UnboundVariable {
                variable: recurrence_chains::loopir::UnknownVariable {
                    name: "Q".into(),
                    expr: "Q + 1".into(),
                },
                context: "subscript 1 of a".into(),
            },
        },
        RcpError::GranularityUnavailable {
            program: "p".into(),
            reason: "no loop-level view exists".into(),
        },
        RcpError::PlanUnavailable {
            reason: PlanUnavailable::NoCoupledPair,
        },
        RcpError::UnknownScheme {
            name: "zigzag".into(),
            known: vec!["recurrence-chains"],
        },
        RcpError::SchemeUnsupported {
            scheme: "pdm",
            reason: "requires loop-level granularity".into(),
        },
        RcpError::UnknownWorkload {
            name: "nonesuch".into(),
        },
        RcpError::UnknownCommand {
            name: "explode".into(),
            known: vec!["parse", "analyze"],
        },
        RcpError::BudgetExceeded {
            stage: "fm-projection".into(),
            spent: 1001,
            limit: 1000,
        },
        RcpError::WorkerPanic {
            message: "index out of bounds".into(),
            context: vec!["par_map item 13".into(), "executor worker 2".into()],
        },
    ]
}

#[test]
fn every_rcp_error_display_is_non_empty_and_round_trips_through_json() {
    let variants = every_error_variant();
    // Compile-time completeness: a new variant fails this match.
    for error in &variants {
        match error {
            RcpError::Parse { .. }
            | RcpError::UnknownParameter { .. }
            | RcpError::MissingParameter { .. }
            | RcpError::UnboundVariable { .. }
            | RcpError::GranularityUnavailable { .. }
            | RcpError::PlanUnavailable { .. }
            | RcpError::UnknownScheme { .. }
            | RcpError::SchemeUnsupported { .. }
            | RcpError::UnknownWorkload { .. }
            | RcpError::UnknownCommand { .. }
            | RcpError::BudgetExceeded { .. }
            | RcpError::WorkerPanic { .. } => {}
        }
        let display = error.to_string();
        assert!(!display.trim().is_empty(), "{error:?} renders empty");
        assert!(
            !display.contains("RcpError"),
            "{error:?} leaks the Rust type name into user output: {display}"
        );
        // The `--json` error field round-trips the Display bit-for-bit
        // (escaping, unicode, backticks and all).
        let rendered = error_json(error).pretty();
        let parsed = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("{error:?}: error_json output is not valid JSON: {e}"));
        assert_eq!(
            parsed["error"].as_str(),
            Some(display.as_str()),
            "{error:?} does not survive the JSON round-trip"
        );
    }
}

#[test]
fn budget_exceeded_display_names_its_stage_and_both_counters() {
    for stage in [
        "screen",
        "pair-analysis",
        "fm-projection",
        "int-solve",
        "chains",
        "partition",
        "execute",
    ] {
        let error = RcpError::BudgetExceeded {
            stage: stage.into(),
            spent: 7,
            limit: 5,
        };
        let display = error.to_string();
        assert!(display.contains(&format!("`{stage}`")), "{display}");
        assert!(display.contains('7') && display.contains('5'), "{display}");
    }
}

/// Acceptance: a deadline/work-bounded analyze degrades to the
/// screened-conservative rung, reports the typed `BudgetExceeded` cause,
/// and the sequential rung still runs the program bit-identically.
#[test]
fn a_bounded_session_walks_the_ladder_and_stays_sound() {
    let config = Config::new()
        .with_param("N1", 8)
        .with_param("N2", 8)
        .with_budget(BudgetSpec::default().with_max_work(1));
    let analyzed = Session::with_config(config).bundled("example1").unwrap();
    let report = analyzed.degradation().expect("one work unit cannot finish");
    assert_eq!(report.level, DegradationLevel::ScreenedConservative);
    assert!(matches!(report.cause, RcpError::BudgetExceeded { .. }));
    assert_eq!(analyzed.degradation_level(), report.level);

    // The exact partition is gone — its absence is the typed cause...
    let err = analyzed.partition().unwrap_err();
    assert!(matches!(err, RcpError::BudgetExceeded { .. }));

    // ...but the sequential rung executes the program identically to an
    // unbounded session.
    let schedule = analyzed.sequential_schedule().unwrap();
    let program = analyzed.program();
    let values = analyzed.config().resolve_params(program, &[]).unwrap();
    let bound = program.bind_params(&values);
    let kernel = RefKernel::new(&bound);
    let degraded = execute_sequential(&schedule, &kernel);

    let unbounded = Session::with_config(Config::new().with_param("N1", 8).with_param("N2", 8))
        .bundled("example1")
        .unwrap();
    let exact = unbounded
        .partition()
        .unwrap()
        .schedule()
        .unwrap()
        .execute_checked()
        .unwrap();
    assert!(
        Verification::check(&degraded, &exact).passed(),
        "the sequential rung must be bit-identical to the exact run"
    );
}

/// The same bound surfaces through the CLI: `rcp analyze --budget-work 1`
/// succeeds with the degradation fields, `--no-degrade` is the hard error.
#[test]
fn the_cli_reports_the_ladder_alongside_fallback_reason() {
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/loops/example1.loop"
    ))
    .unwrap();
    let opts = Options {
        params: vec![("N1".into(), 8), ("N2".into(), 8)],
        budget_work: Some(1),
        ..Options::default()
    };
    let report = cmd_analyze(&source, "example1.loop", &opts).unwrap();
    assert!(!report.failed);
    assert_eq!(
        report.data["degradation"].as_str(),
        Some("screened-conservative")
    );
    let cause = report.data["degradation_cause"].as_str().unwrap();
    assert!(cause.starts_with("budget exceeded in stage `"), "{cause}");

    let hard = Options {
        no_degrade: true,
        ..opts
    };
    let err = cmd_analyze(&source, "example1.loop", &hard).unwrap_err();
    assert!(matches!(err, RcpError::BudgetExceeded { .. }), "{err}");
}

/// A panicking kernel crosses the executor as a typed `WorkerPanic` whose
/// message and worker context survive — never as an unwind.
#[test]
fn worker_panics_cross_the_session_api_as_typed_data() {
    let config = Config::new().with_param("N1", 6).with_param("N2", 6);
    let analyzed = Session::with_config(config).bundled("example1").unwrap();
    let scheduled = analyzed.partition().unwrap().schedule().unwrap();
    let schedule = scheduled.schedule().clone();
    let kernel = recurrence_chains::runtime::FnKernel(
        |_stmt: usize, _idx: &[i64], _store: &mut recurrence_chains::runtime::StoreView| {
            panic!("injected kernel panic")
        },
    );
    let interrupt = recurrence_chains::guard::catch(|| {
        // Force two threads (the cost model would run this small nest on
        // the caller alone).
        let executor = ParallelExecutor::new(2).with_sequential_fallback(false);
        executor.execute(&schedule, &kernel);
    })
    .expect_err("the kernel panic must be caught");
    let error: RcpError = interrupt.into();
    match &error {
        RcpError::WorkerPanic { message, context } => {
            assert!(message.contains("injected kernel panic"), "{message}");
            assert!(
                context.iter().any(|c| c.contains("worker")),
                "context must name the worker: {context:?}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}
