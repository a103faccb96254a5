//! Property tests for the parallel, memoised analysis pipeline:
//!
//! * the HNF/diophantine solver cache returns **bit-identical** results to
//!   the uncached solvers across the synthetic corpus (and across repeated
//!   lookups), and
//! * sharded dependence analysis produces **exactly** the relations of the
//!   single-threaded pipeline on the paper's examples.

use recurrence_chains::depend::{dependence_system, DependenceAnalysis, Granularity};
use recurrence_chains::intlin::{
    hermite_normal_form, hermite_normal_form_cached, solve_linear_system,
    solve_linear_system_cached,
};
use recurrence_chains::workloads::{example1, example2, example3, figure2, random_nest, SmallRng};

#[test]
fn cached_solvers_are_bit_identical_across_the_corpus() {
    // Every dependence system the corpus classifier screens, across several
    // coupled-subscript mixes, solved cached and uncached — including the
    // second, cache-hitting lookup.
    let mut checked = 0usize;
    for (seed, coupled) in [(2004u64, 0.45), (7, 1.0), (11, 0.0), (13, 0.7)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for id in 0..60 {
            let nest = random_nest(&mut rng, coupled, id);
            let stmts = nest.statements();
            let info = &stmts[0];
            let w = nest.loop_access(info, &info.stmt.refs[0]);
            let r = nest.loop_access(info, &info.stmt.refs[1]);
            for (m, rhs) in [
                dependence_system(&w, &r),
                dependence_system(&w, &w),
                dependence_system(&r, &w),
            ] {
                let uncached = solve_linear_system(&m, &rhs);
                assert_eq!(solve_linear_system_cached(&m, &rhs), uncached);
                assert_eq!(solve_linear_system_cached(&m, &rhs), uncached, "hit path");
                let hnf = hermite_normal_form(&m);
                assert_eq!(hermite_normal_form_cached(&m), hnf);
                assert_eq!(hermite_normal_form_cached(&m), hnf, "hit path");
                checked += 1;
            }
        }
    }
    assert!(checked >= 600, "the corpus sweep must exercise the cache");
    // The cache counters live in the rcp-trace registry now; the sweep
    // above must have been counted there.
    let snap = recurrence_chains::trace::snapshot();
    assert!(
        snap.counter("intlin.cache.hnf.hits") + snap.counter("intlin.cache.hnf.misses") > 0,
        "lookups must be counted"
    );
}

#[test]
fn sharded_analysis_matches_single_threaded_on_the_paper_examples() {
    let workloads = [
        ("example1", example1(), Granularity::LoopLevel),
        ("example2", example2(), Granularity::LoopLevel),
        ("figure2", figure2(), Granularity::LoopLevel),
        ("example3", example3(), Granularity::StatementLevel),
    ];
    for (name, program, granularity) in workloads {
        let reference = DependenceAnalysis::analyze_with_threads(&program, granularity, 1);
        for threads in [2, 3, 5, 8] {
            let sharded = DependenceAnalysis::analyze_with_threads(&program, granularity, threads);
            assert_eq!(
                format!("{:?}", reference.relation),
                format!("{:?}", sharded.relation),
                "{name}: relation must not depend on the thread count ({threads})"
            );
            assert_eq!(reference.pairs, sharded.pairs, "{name}");
            assert_eq!(
                reference.n_screened_pairs, sharded.n_screened_pairs,
                "{name}"
            );
        }
        // The default entry point must agree with the explicit one too.
        let default_run = DependenceAnalysis::analyze(&program, granularity);
        assert_eq!(
            format!("{:?}", reference.relation),
            format!("{:?}", default_run.relation),
            "{name}: default analyze must match"
        );
    }
}
