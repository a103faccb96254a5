//! Binding a symbolic plan costs O(pieces), whatever the binding's size.
//!
//! `SymbolicPlan::instance` substitutes a binding into the plan's pieces
//! and enumerates no point, so the work it charges a counting guard is the
//! same at every binding of a program; `instantiate`, which also
//! materialises the dense partition, charges work that grows with the
//! iteration space.  Work units are counted, not timed, so the check is
//! exact on any machine.
//!
//! The plan itself builds only what instantiation reads (`ran Rd`, `P2`
//! and the recurrence); the listing's `P1`, `P3` and `W` wait for
//! `SymbolicPlan::partition`, so planning charges a small share of the
//! work of planning and building the listing sets.
//!
//! One test function, in a binary of its own, on purpose: the solver and
//! emptiness caches are process-global, and a warm emptiness cache makes
//! the same bind charge nothing, so every count starts from reset caches
//! that no concurrent test may fill.

use recurrence_chains::core::symbolic_plan;
use recurrence_chains::depend::DependenceAnalysis;
use recurrence_chains::guard::{self, BudgetSpec, Guard};
use recurrence_chains::workloads::{example1, example2};

/// The work units `f` charges, starting from empty solver caches.
fn cold_work(f: impl FnOnce()) -> u64 {
    recurrence_chains::intlin::reset_solver_cache();
    recurrence_chains::presburger::reset_emptiness_cache();
    let counter = Guard::new(BudgetSpec::default());
    guard::scope(&counter, || {
        f();
        counter.work_spent()
    })
}

#[test]
fn binding_a_plan_charges_the_same_work_at_every_binding() {
    let sweeps = [
        (
            "example1",
            example1(),
            vec![vec![40, 60], vec![60, 100], vec![120, 200], vec![200, 300]],
        ),
        (
            "example2",
            example2(),
            vec![vec![48], vec![64], vec![120], vec![160]],
        ),
    ];
    for (name, program, bindings) in sweeps {
        let analysis = DependenceAnalysis::loop_level(&program);
        let plan = symbolic_plan(&analysis)
            .unwrap_or_else(|reason| panic!("{name} has a symbolic plan: {reason}"));
        assert!(plan.is_instantiable(), "{name}");
        let planning = cold_work(|| {
            symbolic_plan(&analysis).expect("a symbolic plan");
        });
        let with_listing_sets = cold_work(|| {
            symbolic_plan(&analysis)
                .expect("a symbolic plan")
                .partition();
        });
        assert!(
            planning > 0 && 4 * planning < with_listing_sets,
            "{name}: the plan charged {planning} work units, not under a quarter of the \
             {with_listing_sets} that the plan and its listing sets charge"
        );
        let bind: Vec<u64> = bindings
            .iter()
            .map(|b| {
                cold_work(|| {
                    plan.instance(b).expect("instantiable plan");
                })
            })
            .collect();
        let materialise: Vec<u64> = bindings
            .iter()
            .map(|b| {
                cold_work(|| {
                    plan.instantiate(b).expect("instantiable plan");
                })
            })
            .collect();
        assert!(
            bind[0] > 0,
            "{name}: binding charged no work, so the check would compare nothing"
        );
        assert!(
            bind.iter().all(|&w| w == bind[0]),
            "{name}: binding's work {bind:?} moves with the binding {bindings:?}"
        );
        // The same counter sees size: materialising the partition charges
        // more at every larger binding.
        assert!(
            materialise.windows(2).all(|w| w[0] < w[1]),
            "{name}: materialising charged {materialise:?} over {bindings:?}"
        );
    }
}
