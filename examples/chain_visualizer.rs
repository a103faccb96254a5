//! Figure 2 as ASCII art: the one-dimensional loop `a(2I) = a(21-I)`, its
//! non-uniform dependences, the monotonic chain decomposition and the
//! resulting partition.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chain_visualizer
//! ```

use recurrence_chains::core::{monotonic_chains, DenseThreeSet};
use recurrence_chains::prelude::*;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::workloads::figure2;

fn main() {
    let program = figure2();
    println!("loop:\n{}", program.to_pseudo_code());

    let analysis = DependenceAnalysis::loop_level(&program);
    let (phi, relation) = analysis.bind_params(&[]);
    let phi = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&relation);

    println!("direct dependences (i -> j, forward order):");
    for (src, dst) in rd.iter() {
        println!("  {:2} -> {:2}", src[0], dst[0]);
    }

    println!("\nmonotonic chains (Definition 1):");
    for chain in monotonic_chains(&rd) {
        let path: Vec<String> = chain.iter().map(|p| p[0].to_string()).collect();
        println!("  {}", path.join(" -> "));
    }

    let part = DenseThreeSet::compute(&phi, &rd);
    let show = |set: &DenseSet| -> String {
        set.iter()
            .map(|p| p[0].to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("\nthree-set partition:");
    println!("  P1 (independent + initial): {{{}}}", show(&part.p1));
    println!("  P2 (intermediate)         : {{{}}}", show(&part.p2));
    println!("  P3 (final)                : {{{}}}", show(&part.p3));

    // A one-line picture of the iteration space, matching figure 2 of the
    // paper: each iteration labelled by the partition it falls in.
    let mut row = String::new();
    for i in 1..=20 {
        let label = if part.p1.contains(&[i]) {
            '1'
        } else if part.p2.contains(&[i]) {
            '2'
        } else {
            '3'
        };
        row.push(label);
        row.push(' ');
    }
    println!("\niterations 1..20 labelled by partition: {row}");

    // Execute the partitioned schedule and verify it.
    let partition = concrete_partition(&analysis, &[]);
    let schedule = Schedule::from_partition(
        &analysis.program,
        analysis.granularity,
        &[],
        &partition,
        "figure2-rec",
    );
    let kernel = RefKernel::new(&program);
    let verdict = verify_schedule(&Schedule::sequential(&program, &[]), &schedule, &kernel, 2);
    println!(
        "\nschedule: {} phases, critical path {} (sequential is 20); verification {}",
        schedule.n_phases(),
        schedule.critical_path(),
        if verdict.passed() { "PASSED" } else { "FAILED" }
    );
}
