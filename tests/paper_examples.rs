//! End-to-end integration tests over the paper's examples: analysis →
//! partitioning → schedule → execution, checked against the sequential
//! semantics and against the concrete facts the paper states.

use recurrence_chains::baselines::{pdm_schedule, pl_schedule, unique_sets_schedule};
use recurrence_chains::codegen::PointExpander;
use recurrence_chains::core::{longest_chain, symbolic_plan};
use recurrence_chains::prelude::*;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::runtime::CostModel;
use recurrence_chains::workloads::{example1, example2, example3, figure2};

/// Helper: concrete dense sets of an analysis.
fn dense(analysis: &DependenceAnalysis, params: &[i64]) -> (DenseSet, DenseRelation) {
    let (phi, rel) = analysis.bind_params(params);
    (
        DenseSet::from_union(&phi),
        DenseRelation::from_relation(&rel),
    )
}

#[test]
fn example1_end_to_end() {
    let program = example1();
    let analysis = DependenceAnalysis::loop_level(&program);
    let params = [30i64, 40];

    // Algorithm 1 selects the recurrence-chain branch; the partition is valid.
    let partition = concrete_partition(&analysis, &params);
    assert_eq!(partition.strategy(), Strategy::RecurrenceChains);
    let (phi, rd) = dense(&analysis, &params);
    assert!(partition.validate(&phi, &rd).is_empty());

    // The schedule covers the program and matches sequential execution.
    let schedule = Schedule::from_partition(
        &analysis.program,
        analysis.granularity,
        &params,
        &partition,
        "example1-rec",
    );
    assert!(schedule.validate_coverage(&program, &params).is_empty());
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &params);
    assert!(verify_schedule(&sequential, &schedule, &kernel, 4).passed());

    // Theorem 1 bound holds for the chains.
    let plan = symbolic_plan(&analysis).unwrap();
    if let ConcretePartition::RecurrenceChains { chains, .. } = &partition {
        let l = (((params[0] * params[0] + params[1] * params[1]) as f64).sqrt()).ceil();
        let bound = plan.recurrence.critical_path_bound(l).unwrap();
        assert!(longest_chain(chains) <= bound);
    }

    // REC exposes more parallelism than PL and at least as much as PDM
    // (modelled speedup ordering of Figure 3, Example 1).
    let model = CostModel::default();
    let (_, rec_pdm) = pdm_schedule(&analysis, &phi, &rd, "example1-pdm");
    let rec_pl = pl_schedule(&analysis, &phi, &rd, "example1-pl");
    let s_rec = model.speedup(&schedule, 4);
    let s_pdm = model.speedup(&rec_pdm, 4);
    let s_pl = model.speedup(&rec_pl, 4);
    // REC and PDM are close under the cost model (the paper's extra REC
    // margin on Example 1 comes from subscript simplification in the
    // generated code); PL cannot parallelize the non-uniform loop at all.
    assert!(
        s_rec >= s_pdm * 0.8,
        "REC {s_rec} should not trail PDM {s_pdm} by much"
    );
    assert!(s_rec > s_pl, "REC {s_rec} must beat PL {s_pl}");
    // Baseline schedules are also correct parallelizations.
    assert!(verify_schedule(&sequential, &rec_pdm, &kernel, 4).passed());
    assert!(verify_schedule(&sequential, &rec_pl, &kernel, 2).passed());
}

#[test]
fn example2_matches_paper_facts() {
    let program = example2();
    let analysis = DependenceAnalysis::loop_level(&program);

    // Paper: at N = 12 the intermediate set is exactly {(2, 6)}.
    let partition = concrete_partition(&analysis, &[12]);
    match &partition {
        ConcretePartition::RecurrenceChains { three_set, .. } => {
            assert_eq!(three_set.p2.to_vec(), vec![vec![2, 6]]);
        }
        _ => panic!("example 2 must use recurrence chains"),
    }
    // REC: 3 fully parallel partitions; UNIQUE: more phases.
    let schedule = Schedule::from_partition(
        &analysis.program,
        analysis.granularity,
        &[12],
        &partition,
        "example2-rec",
    );
    assert_eq!(schedule.n_phases(), 3);
    let (phi, rd) = dense(&analysis, &[12]);
    let unique = unique_sets_schedule(&analysis, &phi, &rd, "example2-unique")
        .expect("example 2's class graph is acyclic");
    assert!(unique.n_phases() > schedule.n_phases());

    // Both compute the sequential result.
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &[12]);
    assert!(verify_schedule(&sequential, &schedule, &kernel, 4).passed());
    assert!(verify_schedule(&sequential, &unique, &kernel, 4).passed());

    // Modelled speedup ordering of Figure 3, Example 2: REC >= UNIQUE.
    let model = CostModel::default();
    assert!(model.speedup(&schedule, 4) >= model.speedup(&unique, 4));
}

#[test]
fn example3_empty_intermediate_set() {
    let program = example3();
    let analysis = DependenceAnalysis::statement_level(&program);
    let n = 32i64;
    let (phi, rd) = dense(&analysis, &[n]);
    assert!(!rd.is_empty(), "example 3 has dependences at N = {n}");

    // The paper: the recurrence chain partitioning finds an empty
    // intermediate set, so only P1 and P3 remain and the loop runs in two
    // fully parallel steps.
    let three = recurrence_chains::core::DenseThreeSet::compute(&phi, &rd);
    assert!(
        three.p2.is_empty(),
        "example 3 must have an empty intermediate set"
    );
    assert!(!three.p1.is_empty());
    assert!(!three.p3.is_empty());
    assert!(three.validate(&phi, &rd).is_empty());

    // Executing P1 then P3 as two DOALL phases matches sequential execution.
    let expander = PointExpander::new(&analysis, &[]);
    let mut builder = expander.builder("example3-rec");
    for set in [&three.p1, &three.p3] {
        builder.phase(PhaseKind::Doall);
        for point in set.iter() {
            expander.item(point, &mut builder);
        }
    }
    let combined = builder.finish();
    assert!(combined.validate_coverage(&program, &[n]).is_empty());
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &[n]);
    assert!(verify_schedule(&sequential, &combined, &kernel, 4).passed());
    assert_eq!(
        combined.critical_path(),
        2,
        "example 3 finishes in two iteration steps"
    );
}

#[test]
fn figure2_partition_and_execution() {
    let program = figure2();
    let analysis = DependenceAnalysis::loop_level(&program);
    let partition = concrete_partition(&analysis, &[]);
    let schedule = Schedule::from_partition(
        &analysis.program,
        analysis.granularity,
        &[],
        &partition,
        "figure2-rec",
    );
    assert_eq!(
        schedule.n_phases(),
        2,
        "figure 2 has an empty intermediate set"
    );
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &[]);
    for threads in 1..=4 {
        assert!(verify_schedule(&sequential, &schedule, &kernel, threads).passed());
    }
}

#[test]
fn generated_listing_mentions_every_partition() {
    let analysis = DependenceAnalysis::loop_level(&example1());
    let plan = symbolic_plan(&analysis).unwrap();
    let listing = recurrence_chains::codegen::generate_listing(&plan, "example1");
    for needle in [
        "initial partition",
        "final partition",
        "SUBROUTINE chain",
        "DOALL",
    ] {
        assert!(listing.contains(needle), "listing must contain `{needle}`");
    }
}

/// A then-branch partition stores each chain as a run of ids into its
/// `P2`: on the paper's examples, instantiated from the symbolic plan and
/// built from the dense relation alike, the ids rise strictly along every
/// chain, cover `0..|P2|` exactly once, and consecutive ids resolve
/// through `P2` to dependences of `Rd`.
#[test]
fn chains_are_rising_runs_of_p2_ids() {
    use recurrence_chains::core::concrete_partition_from_dense;
    use recurrence_chains::workloads::{figure2_n, uniform_chain};
    let cases = [
        (example1(), vec![vec![10i64, 10], vec![30, 40]]),
        (example2(), vec![vec![12], vec![40]]),
        // Figure 2 has no parameter, so its two bindings are two bounds;
        // its P2 is empty at both.
        (figure2(), vec![vec![]]),
        (figure2_n(37), vec![vec![]]),
        (uniform_chain(), vec![vec![7], vec![50]]),
    ];
    for (program, bindings) in cases {
        let analysis = DependenceAnalysis::loop_level(&program);
        let plan = symbolic_plan(&analysis).unwrap();
        for values in &bindings {
            let (phi, rd) = dense(&analysis, values);
            let instantiated = plan.instantiate(values).unwrap();
            let from_dense = concrete_partition_from_dense(&analysis, &phi, &rd);
            for (path, partition) in [("instantiated", instantiated), ("dense", from_dense)] {
                let ConcretePartition::RecurrenceChains { three_set, chains } = &partition else {
                    panic!(
                        "{} at {values:?}: the {path} partition has no chains",
                        program.name
                    );
                };
                let p2 = &three_set.p2;
                let mut covered = vec![0usize; p2.len()];
                for chain in chains.iter() {
                    for &id in chain {
                        covered[id as usize] += 1;
                    }
                    for w in chain.windows(2) {
                        let (a, b) = (p2.point(w[0] as usize), p2.point(w[1] as usize));
                        assert!(
                            w[0] < w[1] && rd.contains(a, b),
                            "{} at {values:?} ({path}): {a:?} -> {b:?} is no rising edge",
                            program.name
                        );
                    }
                }
                assert!(
                    covered.iter().all(|&n| n == 1),
                    "{} at {values:?} ({path}): chains cover P2 unevenly: {covered:?}",
                    program.name
                );
                assert_eq!(chains.ids().len(), p2.len());
                assert!(partition.validate(&phi, &rd).is_empty());
            }
        }
    }
}
