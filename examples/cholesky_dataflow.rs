//! Example 4: dataflow partitioning of the NASA Cholesky kernel.
//!
//! The kernel has multiple pairs of coupled subscripts, so the
//! recurrence-chain branch of Algorithm 1 does not apply and the successive
//! dataflow partitioning is used instead.  The session builds its stages
//! from one pass over the kernel's accesses, without enumerating the
//! dependence relation.  At the paper's parameters (`NMAT=250, M=4, N=40,
//! NRHS=3`) this takes a few hundred partitioning steps (the paper reports
//! 238).
//!
//! Run with (small parameters by default, `--paper` for the full size):
//!
//! ```text
//! cargo run --release --example cholesky_dataflow [-- --paper]
//! ```

use recurrence_chains::core::ConcretePartition;
use recurrence_chains::session::{RcpError, Session};
use recurrence_chains::workloads::{example4_cholesky, CholeskyParams};

fn main() -> Result<(), RcpError> {
    let paper = std::env::args().any(|a| a == "--paper");
    let params = if paper {
        CholeskyParams::paper()
    } else {
        CholeskyParams::small()
    };
    println!("Cholesky kernel, parameters {params:?}");

    let program = example4_cholesky();
    println!(
        "{} statements, max nesting depth {}",
        program.statements().len(),
        program.max_depth()
    );

    // Successive dataflow partitioning = longest-path layering, through the
    // session's concrete stage.
    let stage = Session::new()
        .load(program)?
        .partition_values(&params.as_vec())?;
    if let Some(reason) = stage.plan_unavailability() {
        println!("recurrence chains unavailable: {reason}");
    }
    let ConcretePartition::Dataflow { stages } = stage.partition() else {
        unreachable!("Cholesky takes Algorithm 1's else-branch");
    };
    let sizes = stages.stage_sizes();
    let instances = stages.total_iterations();
    println!("{instances} statement instances");
    println!("dataflow partitioning finished in {} steps", sizes.len());
    let narrow = sizes.iter().filter(|&&s| s < 8).count();
    println!(
        "widest stage: {} instances; stages narrower than 8 instances: {}",
        stages.max_stage_size(),
        narrow
    );
    println!(
        "available parallelism (instances / steps): {:.1}",
        instances as f64 / sizes.len().max(1) as f64
    );

    if paper {
        println!("(paper reports 238 partitioning steps at these parameters)");
    }
    // Print the first few stages so the growth of the frontier is visible.
    for (k, size) in sizes.iter().take(10).enumerate() {
        println!("  stage {k:3}: {size} instances");
    }
    Ok(())
}
