//! Reference outputs built outside the compiler.
//!
//! The reference store of a (program, binding) comes from the loop-tree
//! interpreter (`Program::enumerate_instances`) driving the canonical
//! `RefKernel` in program order.  It never touches the dependence
//! analysis, the partitioner or `Schedule::sequential`.

use rcp_loopir::Program;
use rcp_runtime::{ArrayStore, Kernel, RefKernel};

/// The final store of `program` run sequentially at `values`.
pub fn store(program: &Program, values: &[i64]) -> ArrayStore {
    let bound = program.bind_params(values);
    let kernel = RefKernel::new(&bound);
    let mut store = ArrayStore::new();
    for (stmt, indices) in bound.enumerate_instances(&[]) {
        kernel.execute(stmt, &indices, &mut store);
    }
    store
}

/// `Ok` when `got` equals `want` bit for bit, else a message with the
/// number of differing elements.
pub fn check(want: &ArrayStore, got: &ArrayStore) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let diff = want.diff(got, 0.0);
    Err(format!(
        "{} element(s) differ from the reference (of {} written)",
        diff.len().max(1),
        want.written_len()
    ))
}
