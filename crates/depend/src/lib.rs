//! Data dependence analysis for affine loop nests.
//!
//! Builds the exact dependence relation `Rd` of the paper (eq. 4 at loop
//! level, eq. 7 at statement level) from the affine array references of a
//! [`rcp_loopir::Program`], plus the auxiliary machinery the evaluation
//! needs: dependence distance sets, the uniform / non-uniform
//! classification that motivates the whole technique, and the classic GCD
//! and Banerjee screening tests.
//!
//! # Example
//!
//! ```
//! use rcp_depend::{DependenceAnalysis, classify_analysis, Uniformity};
//! use rcp_loopir::expr::{c, v};
//! use rcp_loopir::program::build::{loop_, stmt};
//! use rcp_loopir::{ArrayRef, Program};
//!
//! // DO I = 1, 20;  a(2I) = a(21-I);  ENDDO       (figure 2)
//! let p = Program::new(
//!     "figure2",
//!     &[],
//!     vec![loop_(
//!         "I",
//!         c(1),
//!         c(20),
//!         vec![stmt(
//!             "S",
//!             vec![ArrayRef::write("a", vec![v("I") * 2]),
//!                  ArrayRef::read("a", vec![c(21) - v("I")])],
//!         )],
//!     )],
//! );
//! let analysis = DependenceAnalysis::loop_level(&p);
//! assert_eq!(classify_analysis(&analysis, &[]), Uniformity::NonUniform);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod distance;
pub mod looplevel;
pub mod pairspace;
pub mod screening;
pub mod trace;

pub use analysis::{
    coupled_pair_check, dependence_system, is_coupled_access, iteration_space, pair_may_depend,
    screen_summary, AnalysisOptions, CoupledPair, CoupledPairCheck, DependenceAnalysis,
    Granularity, LoopView, RefPair, ScreenSummary,
};
pub use distance::{
    classify_analysis, classify_uniformity, classify_with_distances, distance_set,
    syntactically_uniform, Uniformity,
};
pub use pairspace::{PairScreen, ScreenConfig, ScreenStats};
pub use screening::{banerjee_test, gcd_test, Screening};
pub use trace::{dataflow_levels, statement_boxes};
