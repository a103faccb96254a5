//! The symbolic plan's O(pieces) instantiation is bit-identical to the
//! legacy per-binding concrete partition.
//!
//! The `Planned`-stage promotion (symbolic plan computed once, any binding
//! materialised by `SymbolicPlan::instantiate` without re-binding the
//! relation or re-running Algorithm 1) must change *nothing observable*.
//! These property tests prove it on the paper's examples and 200 random
//! corpus nests, each at several bindings: the instantiated partition
//! equals the legacy `concrete_partition` re-run piece for piece, and the
//! session's symbolic-path schedule replays bit-for-bit (tolerance zero)
//! against sequential execution at 1, 2 and 4 threads.

use recurrence_chains::codegen::Schedule;
use recurrence_chains::core::{concrete_partition, symbolic_plan};
use recurrence_chains::depend::DependenceAnalysis;
use recurrence_chains::loopir::Program;
use recurrence_chains::runtime::{execute_schedule, execute_sequential, RefKernel, Verification};
use recurrence_chains::session::{Config, Session};
use recurrence_chains::workloads::{
    example1, example2, example3, random_nest, uniform_chain, SmallRng,
};

/// The per-nest binding sweep: every corpus nest has the single parameter
/// `N`, and every instantiable nest is checked at all three values.
const BINDINGS: [i64; 3] = [8, 10, 13];

/// Diffs `SymbolicPlan::instantiate` against a legacy `concrete_partition`
/// re-run for one program × binding.  Returns `false` when the plan is not
/// instantiable (those nests take the concrete fallback rung by design and
/// carry a typed reason; the session- and fuzz-level oracles cover them).
fn instantiate_matches_concrete(name: &str, program: &Program, values: &[i64]) -> bool {
    let analysis = DependenceAnalysis::loop_level(program);
    let plan = match symbolic_plan(&analysis) {
        Ok(plan) => plan,
        Err(_) => return false,
    };
    let instantiated = match plan.instantiate(values) {
        Ok(partition) => partition,
        Err(_) => return false,
    };
    let concrete = concrete_partition(&analysis, values);
    assert_eq!(
        format!("{instantiated:?}"),
        format!("{concrete:?}"),
        "{name} at {values:?}: instantiated partition diverges from concrete"
    );
    true
}

/// Stages one program × binding through the session (which takes the
/// symbolic instantiation path for these inputs), then replays the
/// recurrence-chains schedule at 1, 2 and 4 threads and diffs the store
/// bit-for-bit against sequential execution.
fn assert_replay_identical(name: &str, program: &Program, values: &[(&str, i64)]) {
    let stage = Session::with_config(Config::new().with_params(values))
        .load(program.clone())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .partition()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        stage.instantiated(),
        "{name} at {values:?}: expected the symbolic instantiation path, got fallback ({:?})",
        stage.concrete_reason()
    );
    assert_eq!(stage.plan_provenance(), "symbolic", "{name}");
    let scheduled = stage
        .schedule_with("recurrence-chains")
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let kernel = RefKernel::new(stage.runtime_program());
    let sequential = Schedule::sequential(stage.runtime_program(), stage.runtime_values());
    let reference = execute_sequential(&sequential, &kernel);
    for threads in [1usize, 2, 4] {
        let check = Verification::check(
            &reference,
            &execute_schedule(scheduled.schedule(), &kernel, threads),
        );
        assert!(
            check.passed(),
            "{name} at {values:?}: {check} at {threads} threads"
        );
    }
}

#[test]
fn instantiate_equals_concrete_on_the_paper_examples() {
    for (n1, n2) in [(8i64, 12i64), (10, 10), (14, 9)] {
        assert!(
            instantiate_matches_concrete("example1", &example1(), &[n1, n2]),
            "example1 must be instantiable"
        );
        assert_replay_identical("example1", &example1(), &[("N1", n1), ("N2", n2)]);
    }
    for n in BINDINGS {
        assert!(
            instantiate_matches_concrete("example2", &example2(), &[n]),
            "example2 must be instantiable"
        );
        assert_replay_identical("example2", &example2(), &[("N", n)]);
    }
    for n in [16i64, 24, 40] {
        assert!(
            instantiate_matches_concrete("uniform-chain", &uniform_chain(), &[n]),
            "uniform_chain must be instantiable"
        );
        assert_replay_identical("uniform-chain", &uniform_chain(), &[("N", n)]);
    }
    // Example 3 aggregates coupled subscript pairs: its plan is not
    // instantiable, and the helper must say so rather than silently pass.
    assert!(
        !instantiate_matches_concrete("example3", &example3(), &[10]),
        "example3 is gated (aggregated loop level) and must not instantiate"
    );
}

#[test]
fn instantiate_equals_concrete_on_200_corpus_nests_at_three_bindings() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut instantiable = Vec::new();
    for id in 0..200usize {
        let nest = random_nest(&mut rng, 0.45, id);
        let name = format!("corpus-{id:03}");
        let mut covered = true;
        for n in BINDINGS {
            covered &= instantiate_matches_concrete(&name, &nest, &[n]);
        }
        if covered {
            instantiable.push((name, nest));
        }
    }
    // The sweep compares only nests whose plan instantiates at every
    // binding; the others are left out above.  It must compare at least
    // 5, so that a change to the generator or to the plan's gate that
    // leaves it (nearly) empty fails here instead of passing vacuously.
    assert!(
        instantiable.len() >= 5,
        "expected at least 5 instantiable corpus nests, got {}",
        instantiable.len()
    );
    // Every instantiable nest also replays bit-identically at 1/2/4
    // threads through the session's symbolic path, at every binding.
    for (name, nest) in &instantiable {
        for n in BINDINGS {
            assert_replay_identical(name, nest, &[("N", n)]);
        }
    }
}
