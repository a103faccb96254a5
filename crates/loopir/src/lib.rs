//! Affine loop-nest intermediate representation.
//!
//! This crate provides the program model of the recurrence-chain
//! partitioning paper (§2 and §3.3):
//!
//! * [`LinExpr`] — name-based linear expressions used to write loop bounds
//!   and array subscripts,
//! * [`Program`], [`Loop`], [`Statement`], [`ArrayRef`] — (possibly
//!   imperfectly nested) normalized loop programs with affine bounds and
//!   affine array references,
//! * iteration spaces at two granularities: the loop-level space of a
//!   perfect nest and the statement-level *unified index space*
//!   `(s₀, i₁, s₁, …, i_l, s_l)` whose lexicographic order is execution
//!   order,
//! * [`AccessMap`] — the `i ↦ i·A + a` affine access functions feeding the
//!   dependence analyser,
//! * [`CompiledRefs`] — every reference compiled once to an array slot and
//!   subscript rows, for the passes that evaluate each statement instance,
//! * [`ElementLayout`] — per binding, every array one dense box and every
//!   reference one flat offset row into it, shared by the runtime and the
//!   dataflow tracer, with the one cell limit both apply,
//! * [`LoopWalker`] — the loop tree compiled once at concrete parameter
//!   values, walking the statement instances in program order without
//!   allocating.
//!
//! # Example
//!
//! ```
//! use rcp_loopir::expr::{c, v};
//! use rcp_loopir::program::build::{loop_, stmt};
//! use rcp_loopir::{ArrayRef, Program};
//!
//! // DO I = 1, 20 ; a(2*I) = a(21-I) ; ENDDO      (figure 2 of the paper)
//! let p = Program::new(
//!     "figure2",
//!     &[],
//!     vec![loop_(
//!         "I",
//!         c(1),
//!         c(20),
//!         vec![stmt(
//!             "S",
//!             vec![
//!                 ArrayRef::write("a", vec![v("I") * 2]),
//!                 ArrayRef::read("a", vec![c(21) - v("I")]),
//!             ],
//!         )],
//!     )],
//! );
//! assert!(p.is_perfect_nest());
//! assert_eq!(p.loop_iteration_set().bind_params(&[]).enumerate().len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod expr;
pub mod interp;
pub mod layout;
pub mod program;
pub mod spaces;

pub use compiled::{CompiledRef, CompiledRefs};
pub use expr::{LinExpr, UnknownVariable};
pub use interp::{Instance, LoopWalker, Point};
pub use layout::{
    cell_limit, Address, ArrayBox, ArrayLayout, ElementLayout, StatementBox, StatementRows,
};
pub use program::{
    build, AccessKind, ArrayRef, Loop, LoopGroup, Node, Program, Statement, StatementInfo,
    UnboundVariable,
};
pub use spaces::{AccessMap, UnifiedDecoder};
