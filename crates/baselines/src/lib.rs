//! Comparator loop-parallelization schemes from the paper's evaluation.
//!
//! Every scheme the paper's Figure 3 compares against is re-implemented at
//! the level of detail the comparison needs — the *schedule structure* it
//! imposes on the iteration space (what runs in parallel, what stays
//! sequential, how many barriers / synchronisations are paid):
//!
//! | Scheme | Module | Source |
//! |---|---|---|
//! | PDM — pseudo distance matrix partitioning | [`pdm`] | Yu & D'Hollander, ICPP 2000 |
//! | PL — unimodular partitioning/labeling | [`pl`] | D'Hollander, TPDS 1992 |
//! | UNIQUE — unique-set oriented partitioning | [`unique`] | Ju & Chaudhary, 1997 |
//! | DOACROSS — BDV + index synchronisation | [`doacross`] | Tzen & Ni; Chen & Yew |
//! | PAR — inner-loop parallelization | [`doacross`] | Wolfe & Tseng (POWER test) |
//!
//! All of them produce either an executable [`rcp_codegen::Schedule`]
//! (validated against the program's sequential semantics in the test-suite)
//! or, for DOACROSS, a pipeline descriptor consumed by the runtime cost
//! model.  Per-baseline simplifications are documented in each module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doacross;
pub mod pdm;
pub mod pl;
pub mod unique;

pub use doacross::{doacross_plan, inner_parallel_schedule, sequential_schedule, DoacrossPlan};
pub use pdm::{pdm_schedule, PseudoDistanceMatrix};
pub use pl::pl_schedule;
pub use unique::unique_sets_schedule;
