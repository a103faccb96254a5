//! Parallel execution substrate for recurrence-chain schedules.
//!
//! This crate stands in for the paper's Fortran + OpenMP + 4-CPU Itanium
//! testbed:
//!
//! * [`mod@array`] — the array store generated loops compute on: one dense
//!   box per array (origin, extents, row-major strides, `f64` cells and a
//!   written bitmap), grown on demand or reserved up front within a
//!   limit of cells per write, negative subscripts included, with
//!   deterministic initial values,
//! * [`kernel`] — statement kernels; [`RefKernel`] derives an
//!   order-sensitive computation directly from a program's array
//!   references, compiled once to slots and subscript rows and, per run,
//!   to one flat offset row each into the store's boxes, so that schedule
//!   correctness is observable,
//! * [`executor`] — the sequential reference executor, the multi-threaded
//!   [`ParallelExecutor`] (the caller is thread 0; each shared phase is one
//!   contiguous block of units per thread between two barrier waits) with
//!   in-place writes and per-cell conflict stamps, and schedule
//!   verification (parallel result == sequential result),
//! * [`cost`] — the calibrated analytic cost model that turns schedules
//!   into the speedup curves of Figure 3 even on machines with too few
//!   cores to show real scaling (measured wall-clock speedups come from
//!   [`ParallelExecutor`] via the benchmark harness); it also drives the
//!   executor's sequential fallback for schedules too small to amortise
//!   thread start-up, and decides which phases the caller runs alone,
//! * [`pool`] — the `scope`/`par_map` thread-pool facility (re-exported
//!   [`rcp_pool`]) that non-schedule work — sharded dependence analysis,
//!   concurrent benchmark experiments — runs on; the executor takes only
//!   the hardware's thread count from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rcp_pool as pool;

pub mod array;
pub mod cost;
pub mod executor;
pub mod kernel;

pub use array::{Array, ArrayStore, StoreView};
pub use cost::{makespan, CostModel};
pub use executor::{
    execute_schedule, execute_sequential, verify_schedule, ExecutionResult, ParallelExecutor,
    Verification,
};
pub use kernel::{FnKernel, Kernel, RefKernel};
