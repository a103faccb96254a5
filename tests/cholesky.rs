//! Example 4 (Cholesky) at reduced parameters, through the session: the
//! dataflow partitioning is a valid parallel order, and the dependence
//! relation is consistent with the executable semantics.
//!
//! The full-size run (NMAT=250, M=4, N=40, NRHS=3; the paper reports 238
//! partitioning steps) is part of the benchmark harness
//! (`paper_results ex4`), which runs in release mode.

use recurrence_chains::prelude::*;
use recurrence_chains::workloads::{example4_cholesky, CholeskyParams};

/// The concrete stage of the Cholesky kernel at `params`.
fn stage(params: CholeskyParams) -> Partitioned {
    Session::new()
        .load(example4_cholesky())
        .and_then(|analyzed| analyzed.partition_values(&params.as_vec()))
        .expect("the Cholesky kernel partitions")
}

#[test]
fn small_cholesky_dataflow_partition_is_valid_and_semantics_preserving() {
    let stage = stage(CholeskyParams {
        nmat: 2,
        m: 2,
        n: 5,
        nrhs: 1,
    });
    let instances = stage.phi().len();
    assert!(instances > 0);
    assert!(!stage.rd().is_empty());

    // Dataflow layering: every dependence goes strictly forward across
    // stages, and every instance sits in exactly one stage.
    assert_eq!(stage.partition().strategy(), Strategy::Dataflow);
    assert!(stage.validate().is_empty(), "{:?}", stage.validate());
    let stats = stage.stats();
    assert_eq!(stats.total_iterations, instances);
    assert!(
        stats.n_phases > 1,
        "the kernel is not embarrassingly parallel"
    );
    assert!(
        stats.n_phases < instances,
        "dataflow partitioning must expose some parallelism"
    );

    // Execute the staged schedule and compare with sequential execution.
    let scheduled = stage.schedule().unwrap();
    let schedule = scheduled.schedule();
    assert_eq!(schedule.n_phases(), stats.n_phases);
    assert!(schedule
        .validate_coverage(stage.runtime_program(), stage.runtime_values())
        .is_empty());
    let verdict = verify_schedule(scheduled.sequential(), schedule, &scheduled.kernel(), 4);
    assert!(
        verdict.passed(),
        "parallel Cholesky diverges from sequential execution"
    );
}

#[test]
fn cholesky_step_count_grows_with_the_matrix_order() {
    let steps = |n: i64| match stage(CholeskyParams {
        nmat: 2,
        m: 2,
        n,
        nrhs: 1,
    })
    .partition()
    {
        ConcretePartition::Dataflow { stages } => stages.n_stages(),
        other => panic!("Cholesky takes Algorithm 1's else-branch, got {other:?}"),
    };
    let s5 = steps(5);
    let s10 = steps(10);
    assert!(
        s10 > s5,
        "more columns ({s10}) must need more dataflow steps than fewer ({s5})"
    );
}

#[test]
fn cholesky_l_dimension_is_fully_parallel() {
    // Dependences never cross the vectorised L dimension: two instances of
    // the same statement with different L values are never connected.  This
    // is what the paper's PDM partitioning exploits (DOALL over L).
    let stage = stage(CholeskyParams {
        nmat: 3,
        m: 2,
        n: 4,
        nrhs: 1,
    });
    let program = stage.runtime_program();
    let decoder = program.unified_decoder();
    let stmts = program.statements();
    assert!(!stage.rd().is_empty(), "Cholesky must have dependences");
    for (src, dst) in stage.rd().iter() {
        let (s_id, s_idx) = decoder.decode(src).unwrap();
        let (d_id, d_idx) = decoder.decode(dst).unwrap();
        // L is always the innermost loop of its statement except for S4/S1
        // (where it is the second); find its position by name.
        let l_pos = |id: usize| stmts[id].loop_indices.iter().position(|n| n == "L");
        if let (Some(sl), Some(dl)) = (l_pos(s_id), l_pos(d_id)) {
            assert_eq!(
                s_idx[sl], d_idx[dl],
                "dependence crosses the L dimension: {:?} -> {:?}",
                s_idx, d_idx
            );
        }
    }
}
