//! # recurrence-chains
//!
//! A reproduction, as a Rust library, of *"Non-Uniform Dependences
//! Partitioned by Recurrence Chains"* (Yijun Yu & Erik H. D'Hollander,
//! ICPP 2004): finding outermost loop parallelism in loops whose data
//! dependences have **non-uniform distances** by organising the dependent
//! iterations into lexicographically ordered monotonic *recurrence chains*.
//!
//! The workspace is organised bottom-up; this facade crate re-exports every
//! layer under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`trace`] | `rcp-trace` | thread-aware span tracing + the unified metrics registry (counters/gauges/histograms), near-zero cost when disabled |
//! | [`guard`] | `rcp-guard` | cooperative resource budgets (work units + deadlines), typed budget-exhaustion, fault-injection failpoints |
//! | [`pool`] | `rcp-pool` | dependency-free `par_map` thread-pool facility shared by analysis and runtime |
//! | [`intlin`] | `rcp-intlin` | exact rational/integer linear algebra, Hermite normal form, diophantine solvers (memoised via `intlin::cache`) |
//! | [`presburger`] | `rcp-presburger` | Omega-library-style integer sets, relations, Fourier-Motzkin, dense enumeration |
//! | [`loopir`] | `rcp-loopir` | affine loop-nest IR, statement-level unified index space, access maps |
//! | [`lang`] | `rcp-lang` | the textual `.loop` language: parser with line/column diagnostics, canonical pretty-printer |
//! | [`depend`] | `rcp-depend` | exact dependence relations, distance sets, uniformity classification, screening tests |
//! | [`core`] | `rcp-core` | three-set partitioning, recurrence chains, dataflow partitioning, Algorithm 1, Theorem 1 |
//! | [`codegen`] | `rcp-codegen` | executable schedules and pseudo-Fortran DOALL/WHILE listings |
//! | [`runtime`] | `rcp-runtime` | array store, kernels, sequential/parallel executors, calibrated cost model |
//! | [`baselines`] | `rcp-baselines` | PDM, PL, UNIQUE, DOACROSS, inner-loop parallelization comparators |
//! | [`workloads`] | `rcp-workloads` | the paper's example loops 1–4, figure-2 loop, synthetic corpus, bundled `.loop` files |
//! | [`session`] | `rcp-session` | the staged `Session` pipeline API, the `Partitioner` scheme registry, typed `RcpError`s |
//! | [`serve`] | `rcp-serve` | `rcpd`, the partition-as-a-service daemon: HTTP/1.1 server, bounded worker pool, content-addressed analysis cache, thin client |
//! | [`cli`] | `rcp-cli` | the `rcp` binary's subcommands (`parse`, `analyze`, `partition`, `codegen`, `run`, `bench`, `stats`, `schemes`, `fuzz`, `serve`, `remote`) |
//! | [`fuzz`] | `rcp-fuzz` | differential fuzzing: seeded nest generator, cross-scheme execution oracle, counterexample minimiser, chaos campaigns (pipeline + server) |
//!
//! ## Quick start
//!
//! The staged session pipeline is the canonical way to drive the system:
//! configure once, analyse at most once, then re-partition, schedule, and
//! verify as many bindings and schemes as needed.
//!
//! ```
//! use recurrence_chains::prelude::*;
//!
//! // The paper's running example (figure 1 / Example 1), bundled as
//! // examples/loops/example1.loop.
//! let session = Session::with_config(
//!     Config::new().with_param("N1", 10).with_param("N2", 10).with_threads(4),
//! );
//! let analyzed = session.bundled("example1")?;
//!
//! // Compile-time (symbolic) plan: ran Rd, P2 + recurrence T, u.
//! // A fallback would be a typed error saying *why* (PlanUnavailable).
//! let planned = analyzed.plan()?;
//! assert_eq!(
//!     planned.plan().recurrence.alpha(),
//!     recurrence_chains::intlin::Rational::from_int(3),
//! );
//!
//! // Concrete partition at the configured parameters; the same Analyzed
//! // serves other bindings without re-running the analysis.
//! let partition = analyzed.partition()?;
//! assert_eq!(partition.stats().total_iterations, 100);
//!
//! // Schedule with the paper's scheme (any registry scheme works:
//! // recurrence-chains, pdm, pl, unique, doacross, inner-parallel) and
//! // verify the parallel execution against the sequential loop.
//! let scheduled = partition.schedule()?;
//! assert!(scheduled.verify().passed());
//! # Ok::<(), recurrence_chains::session::RcpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rcp_baselines as baselines;
pub use rcp_cli as cli;
pub use rcp_codegen as codegen;
pub use rcp_core as core;
pub use rcp_depend as depend;
pub use rcp_fuzz as fuzz;
pub use rcp_guard as guard;
pub use rcp_intlin as intlin;
pub use rcp_lang as lang;
pub use rcp_loopir as loopir;
pub use rcp_pool as pool;
pub use rcp_presburger as presburger;
pub use rcp_runtime as runtime;
pub use rcp_serve as serve;
pub use rcp_session as session;
pub use rcp_trace as trace;
pub use rcp_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rcp_codegen::{Phase, PhaseKind, Schedule, WorkItem};
    pub use rcp_core::{
        concrete_partition, symbolic_plan, ConcretePartition, PlanUnavailable, Recurrence,
        Strategy, ThreeSetPartition,
    };
    pub use rcp_depend::{
        AnalysisOptions, DependenceAnalysis, Granularity, ScreenConfig, Uniformity,
    };
    pub use rcp_guard::BudgetSpec;
    pub use rcp_loopir::{ArrayRef, Program};
    pub use rcp_runtime::{
        execute_schedule, execute_sequential, verify_schedule, ArrayStore, CostModel,
        ParallelExecutor, RefKernel, Verification,
    };
    pub use rcp_session::{
        registry, scheme_names, Analyzed, Config, DegradationLevel, DegradationReport,
        GranularityChoice, Partitioned, Partitioner, Planned, RcpError, Scheduled, Session,
    };
}
