//! Code generation from recurrence-chain partitions.
//!
//! Two outputs are produced from an Algorithm-1 partition:
//!
//! * [`schedule::Schedule`] — the executable parallel structure (DOALL
//!   phases and WHILE chain sets over statement instances, held as one
//!   flat slab) consumed by the `rcp-runtime` executor and cost model, and
//! * [`loopgen`] — pseudo-Fortran listings of the generated DOALL nests and
//!   the WHILE chain subroutine, reproducing the style of the paper's
//!   Example 1–3 listings (min/max/floor-division bounds, stride guards).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loopgen;
pub mod schedule;

pub use loopgen::{doall_nest, doall_nests, generate_listing, while_chain_subroutine};
pub use schedule::{
    Instances, Phase, PhaseKind, PointExpander, Schedule, ScheduleBuilder, Unit, WorkItem,
};
