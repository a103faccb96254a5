//! Recurrence-chain partitioning of loops with non-uniform dependences.
//!
//! This crate implements the primary contribution of
//! *"Non-Uniform Dependences Partitioned by Recurrence Chains"*
//! (Yu & D'Hollander, ICPP 2004):
//!
//! * [`three_set`] — the three-set partitioning `P1 → P2 → P3` of §3.1 with
//!   the WHILE start set `W`,
//! * [`recurrence`] — the recurrence `i = j·T + u` of §3.2 (Lemma 1) and the
//!   Theorem-1 critical-path bound,
//! * [`chains`] — monotonic dependence chains (Definition 1) and the WHILE
//!   chains covering the intermediate set,
//! * [`dataflow`] — the successive dataflow partitioning used when multiple
//!   coupled subscript pairs are present (Algorithm 1, else-branch),
//! * [`algorithm1`] — the driver that selects the branch and produces both
//!   the symbolic plan and the concrete, executable partition.
//!
//! # Quick start
//!
//! ```
//! use rcp_core::algorithm1::{concrete_partition, symbolic_plan, Strategy};
//! use rcp_depend::DependenceAnalysis;
//! use rcp_loopir::expr::{c, v};
//! use rcp_loopir::program::build::{loop_, stmt};
//! use rcp_loopir::{ArrayRef, Program};
//!
//! // The paper's running example (figure 1).
//! let program = Program::new(
//!     "example1",
//!     &["N1", "N2"],
//!     vec![loop_(
//!         "I1",
//!         c(1),
//!         v("N1"),
//!         vec![loop_(
//!             "I2",
//!             c(1),
//!             v("N2"),
//!             vec![stmt(
//!                 "S",
//!                 vec![
//!                     ArrayRef::write("a", vec![v("I1") * 3 + c(1), v("I1") * 2 + v("I2") - c(1)]),
//!                     ArrayRef::read("a", vec![v("I1") + c(3), v("I2") + c(1)]),
//!                 ],
//!             )],
//!         )],
//!     )],
//! );
//! let analysis = DependenceAnalysis::loop_level(&program);
//! // Compile-time plan (symbolic bounds N1, N2).
//! let plan = symbolic_plan(&analysis).expect("single coupled pair, full rank");
//! assert_eq!(plan.recurrence.alpha(), rcp_intlin::Rational::from_int(3));
//! // Concrete partition for N1 = N2 = 10.
//! let part = concrete_partition(&analysis, &[10, 10]);
//! assert_eq!(part.strategy(), Strategy::RecurrenceChains);
//! assert_eq!(part.stats().total_iterations, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod chains;
pub mod dataflow;
pub mod recurrence;
pub mod three_set;

pub use algorithm1::{
    concrete_partition, concrete_partition_from_dense, plan_unavailability, plan_unavailability_of,
    symbolic_plan, try_chain_partition, uses_recurrence_chains, ConcretePartition, PartitionPhase,
    PlanInstance, PlanStats, PlanUnavailable, Strategy, SymbolicPlan,
};
pub use chains::{
    chains_in_intermediate, component_chains, longest_chain, monotonic_chains, Chains,
};
pub use dataflow::{dataflow_partition, dataflow_partition_by_peeling, DataflowPartition};
pub use recurrence::Recurrence;
pub use three_set::{DenseThreeSet, ThreeSetPartition};
