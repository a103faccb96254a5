//! Quickstart: drive the paper's running example (Example 1) through the
//! staged session pipeline — plan, partition, schedule, verify, measure —
//! and compare every registered partitioning scheme on the way.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use recurrence_chains::prelude::*;
use recurrence_chains::runtime::CostModel;

fn main() -> Result<(), RcpError> {
    // ------------------------------------------------------------------
    // 1. One Config, one Session: parameters, threads, scheme selection
    //    all live here instead of per-call arguments.
    // ------------------------------------------------------------------
    let session = Session::with_config(
        Config::new()
            .with_param("N1", 60)
            .with_param("N2", 80)
            .with_threads(4),
    );

    // ------------------------------------------------------------------
    // 2. Analyzed: the bundled example1.loop (figure 1 of the paper):
    //        DO I1 = 1, N1
    //          DO I2 = 1, N2
    //            a(3*I1+1, 2*I1+I2-1) = a(I1+3, I2+1)
    // ------------------------------------------------------------------
    let analyzed = session.bundled("example1")?;
    println!("input loop:\n{}", analyzed.program().to_pseudo_code());

    // ------------------------------------------------------------------
    // 3. Planned: the compile-time recurrence-chain plan (works for
    //    unknown N1, N2).  A fallback would be a typed error saying why.
    // ------------------------------------------------------------------
    let planned = analyzed.plan()?;
    let recurrence = &planned.plan().recurrence;
    println!(
        "recurrence matrix T, offset u:\n{:?}\nu = {:?}",
        recurrence.t, recurrence.u
    );
    println!("alpha = max(|det T|, |det T^-1|) = {}", recurrence.alpha());
    println!("\ngenerated code:\n{}", planned.listing());

    // ------------------------------------------------------------------
    // 4. Partitioned: the concrete partition at the configured binding.
    //    The same Analyzed re-partitions for other bindings for free.
    // ------------------------------------------------------------------
    let partition = analyzed.partition()?;
    let stats = partition.stats();
    println!(
        "concrete partition at {:?}: {} phases, critical path {}, widest phase {}, {} iterations",
        partition.values(),
        stats.n_phases,
        stats.critical_path,
        stats.max_width,
        stats.total_iterations
    );

    // ------------------------------------------------------------------
    // 5. Scheduled: execute and verify against the sequential loop.
    // ------------------------------------------------------------------
    let scheduled = partition.schedule()?;
    let verdict = scheduled.verify();
    println!(
        "verification against sequential execution: {}",
        if verdict.passed() { "PASSED" } else { "FAILED" }
    );

    // ------------------------------------------------------------------
    // 6. The Partitioner registry: every scheme over the same artifact,
    //    modelled at 4 threads (the cost model carries the multi-thread
    //    story on any machine, one CPU included).
    // ------------------------------------------------------------------
    let model = CostModel::default();
    println!("\nmodelled speedup at 4 threads, by scheme:");
    for scheme in registry() {
        match partition.schedule_with(scheme.name()) {
            Ok(s) => println!(
                "  {:<18} {:>5.2}x   ({} phases)",
                scheme.name(),
                model.speedup(s.schedule(), 4),
                s.schedule().n_phases()
            ),
            Err(e) => println!("  {:<18} n/a     ({e})", scheme.name()),
        }
    }
    Ok(())
}
