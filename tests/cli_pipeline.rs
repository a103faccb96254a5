//! End-to-end CLI pipeline tests over the bundled `.loop` files: the same
//! code paths the `rcp` binary runs, driven through `rcp_cli`'s command
//! functions.

use recurrence_chains::cli::{
    cmd_analyze, cmd_parse, cmd_partition, cmd_run, run_command, Options,
};
use recurrence_chains::core::{concrete_partition, ConcretePartition};
use recurrence_chains::depend::DependenceAnalysis;
use recurrence_chains::workloads;
use std::path::PathBuf;

fn loop_file(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/loops")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    (source, name.to_string())
}

fn opts(params: &[(&str, i64)]) -> Options {
    Options {
        params: params.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        ..Options::default()
    }
}

/// Acceptance: `rcp partition examples/loops/example1.loop` produces the
/// same three-set partition and chain count as the library-built
/// `rcp_workloads::example1()`.
#[test]
fn cli_partition_of_example1_matches_the_library_pipeline() {
    let (source, origin) = loop_file("example1.loop");
    let report = cmd_partition(&source, &origin, &opts(&[("N1", 10), ("N2", 10)])).unwrap();
    assert!(!report.failed, "{}", report.text);

    let program = workloads::example1();
    let analysis = DependenceAnalysis::loop_level(&program);
    let part = concrete_partition(&analysis, &[10, 10]);
    let ConcretePartition::RecurrenceChains { three_set, chains } = &part else {
        panic!("library example 1 must take the recurrence-chain branch");
    };

    assert_eq!(report.data["strategy"].as_str(), Some("RecurrenceChains"));
    assert_eq!(report.data["p1"].as_u64(), Some(three_set.p1.len() as u64));
    assert_eq!(
        report.data["p2"].as_u64(),
        Some(chains.iter().map(|c| c.len()).sum::<usize>() as u64)
    );
    assert_eq!(report.data["p3"].as_u64(), Some(three_set.p3.len() as u64));
    assert_eq!(report.data["n_chains"].as_u64(), Some(chains.len() as u64));
    assert_eq!(
        report.data["longest_chain"].as_u64(),
        Some(recurrence_chains::core::longest_chain(chains) as u64)
    );
    assert_eq!(report.data["valid"].as_bool(), Some(true));
    assert_eq!(report.data["total_iterations"].as_u64(), Some(100));
}

/// The analyze JSON for example 1 is deterministic and matches the
/// committed golden file (CI runs the same comparison via the binary).
#[test]
fn cli_analyze_of_example1_matches_the_golden_json() {
    let (source, origin) = loop_file("example1.loop");
    let report = cmd_analyze(&source, &origin, &opts(&[("N1", 10), ("N2", 10)])).unwrap();
    let golden = include_str!("golden/example1_analyze.json");
    assert_eq!(
        format!("{}\n", report.data.pretty()),
        golden,
        "rcp analyze output drifted from tests/golden/example1_analyze.json — \
         regenerate with: rcp analyze examples/loops/example1.loop \
         --param N1=10 --param N2=10 --json"
    );
}

/// The analyze JSON for the Cholesky kernel — a deferred-analysis program
/// (parameters in subscripts) on Algorithm 1's dataflow branch, with the
/// typed fallback reason in the payload — matches its golden file too.
#[test]
fn cli_analyze_of_cholesky_matches_the_golden_json() {
    let (source, origin) = loop_file("cholesky.loop");
    let report = cmd_analyze(
        &source,
        &origin,
        &opts(&[("NMAT", 4), ("M", 4), ("N", 10), ("NRHS", 2)]),
    )
    .unwrap();
    let golden = include_str!("golden/cholesky_analyze.json");
    assert_eq!(
        format!("{}\n", report.data.pretty()),
        golden,
        "rcp analyze output drifted from tests/golden/cholesky_analyze.json — \
         regenerate with: rcp analyze examples/loops/cholesky.loop \
         --param NMAT=4 --param M=4 --param N=10 --param NRHS=2 --json"
    );
    assert_eq!(report.data["strategy"].as_str(), Some("Dataflow"));
    assert!(report.data["fallback_reason"]
        .as_str()
        .unwrap()
        .contains("statement-level"));
}

/// The analyze JSON for lu — Algorithm 1's traced else-branch, whose
/// analysis the report builds on first use rather than the load — matches
/// the golden file recorded when every load analysed, screen counts
/// included.
#[test]
fn cli_analyze_of_lu_matches_the_golden_json() {
    let (source, origin) = loop_file("lu.loop");
    let report = cmd_analyze(&source, &origin, &opts(&[("N", 10)])).unwrap();
    let golden = include_str!("golden/lu_analyze.json");
    assert_eq!(
        format!("{}\n", report.data.pretty()),
        golden,
        "rcp analyze output drifted from tests/golden/lu_analyze.json — \
         regenerate with: rcp analyze examples/loops/lu.loop --param N=10 --json"
    );
}

/// Every bundled file goes through `rcp parse` cleanly and round-trips.
#[test]
fn cli_parse_accepts_every_bundled_file() {
    for bundled in workloads::BUNDLED_LOOPS {
        let (source, origin) = loop_file(&format!("{}.loop", bundled.name));
        let report = cmd_parse(&source, &origin).unwrap();
        assert!(!report.failed, "{}: {}", bundled.name, report.text);
        assert_eq!(report.data["round_trips"].as_bool(), Some(true));
    }
}

/// `rcp run` executes the partitioned schedule and verifies it against the
/// sequential reference for both Algorithm-1 branches.
#[test]
fn cli_run_verifies_paper_and_spec_like_workloads() {
    for (file, params) in [
        ("figure2.loop", vec![]),
        ("example1.loop", vec![("N1", 8), ("N2", 8)]),
        ("wavefront.loop", vec![("N", 6)]),
        ("jacobi1d.loop", vec![("TSTEPS", 2), ("N", 10)]),
    ] {
        let (source, origin) = loop_file(file);
        let report = cmd_run(&source, &origin, &opts(&params)).unwrap();
        assert!(!report.failed, "{file}: {}", report.text);
        assert_eq!(report.data["passed"].as_bool(), Some(true), "{file}");
    }
}

/// The dispatcher knows every subcommand and rejects unknown ones with a
/// typed error.
#[test]
fn command_dispatch() {
    let (source, origin) = loop_file("figure2.loop");
    for cmd in ["parse", "fmt", "analyze", "partition", "codegen", "schemes"] {
        let r = run_command(cmd, &source, &origin, &Options::default());
        assert!(r.is_ok(), "{cmd}: {:?}", r.err().map(|e| e.to_string()));
    }
    let err = run_command("explode", &source, &origin, &Options::default()).unwrap_err();
    assert!(matches!(
        err,
        recurrence_chains::session::RcpError::UnknownCommand { .. }
    ));
    assert!(err.to_string().contains("unknown command"));
}

/// Parse failures surface the origin file and position, CLI-style, and
/// keep the structured source position.
#[test]
fn cli_reports_diagnostics_with_the_origin() {
    let err = cmd_parse("PROGRAM p\nDO I = 1 N\nENDDO\nEND\n", "broken.loop").unwrap_err();
    assert_eq!(
        err.to_string(),
        "broken.loop: line 2, column 10: expected `,` between the loop bounds, found identifier `N`"
    );
    match err {
        recurrence_chains::session::RcpError::Parse { error, .. } => {
            assert_eq!((error.pos.line, error.pos.col), (2, 10));
        }
        other => panic!("expected a typed parse error, got {other:?}"),
    }
}

/// `rcp bench --scheme` accepts every name in the Partitioner registry.
#[test]
fn cli_bench_accepts_every_registry_scheme() {
    let (source, origin) = loop_file("example1.loop");
    for scheme in recurrence_chains::session::scheme_names() {
        let o = Options {
            scheme: Some(scheme.to_string()),
            ..opts(&[("N1", 6), ("N2", 6)])
        };
        let r = recurrence_chains::cli::cmd_bench(&source, &origin, &o)
            .unwrap_or_else(|e| panic!("scheme {scheme}: {e}"));
        assert_eq!(r.data["scheme"].as_str(), Some(scheme));
    }
}
