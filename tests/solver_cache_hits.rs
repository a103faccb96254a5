//! The solver and emptiness caches answer a repeated corpus
//! classification.
//!
//! Every nest of a 400-nest synthetic corpus is analysed twice on one
//! thread, from empty caches and then warm.  The registry deltas over the
//! warm pass must show the HNF/diophantine cache answering most of its
//! lookups and the Fourier–Motzkin emptiness cache a good share of its
//! own.  Hits are counted, not timed, so the check holds on any machine.
//!
//! One test function, in a binary of its own, on purpose: the caches and
//! their counters are process-global, so no concurrent test may reset,
//! fill or count them while the warm pass runs.

use recurrence_chains::depend::{DependenceAnalysis, Granularity};
use recurrence_chains::trace;
use recurrence_chains::workloads::{random_nest, SmallRng};

#[test]
fn a_warm_corpus_pass_is_answered_from_the_caches() {
    let mut rng = SmallRng::seed_from_u64(2004);
    let nests: Vec<_> = (0..400).map(|id| random_nest(&mut rng, 0.45, id)).collect();
    let analyze_all = || {
        for nest in &nests {
            DependenceAnalysis::analyze_with_threads(nest, Granularity::LoopLevel, 1);
        }
    };
    recurrence_chains::intlin::reset_solver_cache();
    recurrence_chains::presburger::reset_emptiness_cache();
    analyze_all();
    let mark = trace::snapshot();
    analyze_all();
    let warm = trace::snapshot().delta_since(&mark);

    let solver_hits = warm.counter("intlin.cache.hnf.hits") + warm.counter("intlin.cache.dio.hits");
    let solver_lookups = solver_hits
        + warm.counter("intlin.cache.hnf.misses")
        + warm.counter("intlin.cache.dio.misses");
    assert!(solver_lookups > 0, "the warm pass made no solver lookup");
    let solver_rate = solver_hits as f64 / solver_lookups as f64;
    assert!(
        solver_rate > 0.5,
        "solver cache answered {solver_hits} of {solver_lookups} warm lookups"
    );

    let emptiness_hits = warm.counter("presburger.cache.emptiness.hits");
    let emptiness_rate = warm.hit_rate(
        "presburger.cache.emptiness.hits",
        "presburger.cache.emptiness.misses",
    );
    assert!(emptiness_hits > 0, "the emptiness cache answered nothing");
    assert!(
        emptiness_rate > 0.3,
        "emptiness cache answered {:.1}% of the warm feasibility lookups",
        emptiness_rate * 100.0
    );
}
