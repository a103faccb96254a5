//! Example 2 (Ju & Chaudhary's loop): recurrence-chain partitioning versus
//! unique-set partitioning.
//!
//! The paper's claim (§4, Example 2 and §5): the unique-set method yields 5
//! partitions executed in sequence, one of them sequential, while the
//! recurrence-chain partitioning yields only 3 fully parallel partitions —
//! at `N = 12` the intermediate set is the single iteration `(2, 6)`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example unique_sets_comparison
//! ```

use recurrence_chains::baselines::unique_sets_schedule;
use recurrence_chains::prelude::*;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::runtime::CostModel;
use recurrence_chains::workloads::example2;

fn main() {
    let program = example2();
    println!("input loop:\n{}", program.to_pseudo_code());
    let n = 12i64;
    let analysis = DependenceAnalysis::loop_level(&program);

    // Recurrence-chain partitioning (REC).
    let partition = concrete_partition(&analysis, &[n]);
    if let ConcretePartition::RecurrenceChains { three_set, .. } = &partition {
        let p2: Vec<String> = three_set
            .p2
            .iter()
            .map(|p| format!("({}, {})", p[0], p[1]))
            .collect();
        println!("REC intermediate set at N={n}: {{{}}}", p2.join(", "));
    }
    let rec = Schedule::from_partition(
        &analysis.program,
        analysis.granularity,
        &[n],
        &partition,
        "example2-rec",
    );

    // Unique-set partitioning (UNIQUE).
    let (phi, rel) = analysis.bind_params(&[n]);
    let phi_d = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&rel);
    let unique = unique_sets_schedule(&analysis, &phi_d, &rd, "example2-unique")
        .expect("example 2's class graph is acyclic");

    println!(
        "REC   : {} phases, critical path {} work items",
        rec.n_phases(),
        rec.critical_path()
    );
    println!(
        "UNIQUE: {} phases, critical path {} work items",
        unique.n_phases(),
        unique.critical_path()
    );

    // Both must compute what the sequential loop computes.
    let kernel = RefKernel::new(&program);
    let sequential = Schedule::sequential(&program, &[n]);
    for (name, schedule) in [("REC", &rec), ("UNIQUE", &unique)] {
        let verdict = verify_schedule(&sequential, schedule, &kernel, 4);
        println!(
            "{name} verification: {}",
            if verdict.passed() { "PASSED" } else { "FAILED" }
        );
    }

    // Modelled speedups, 1–4 threads (figure 3, Example 2 plot).
    let model = CostModel::default();
    for (name, schedule) in [("REC", &rec), ("UNIQUE", &unique)] {
        print!("{name:6} modelled speedup:");
        for threads in 1..=4 {
            print!("  {}T = {:.2}", threads, model.speedup(schedule, threads));
        }
        println!();
    }
}
