//! The staged pipeline: `Session → Analyzed → Planned → Partitioned →
//! Scheduled`.
//!
//! Each stage is an immutable, reusable artifact backed by shared storage
//! (`Arc`), so stages are cheap to clone and pass around:
//!
//! * [`Session`] — the entry point, carrying one [`Config`];
//! * [`Analyzed`] — a parsed program plus its (symbolic) dependence
//!   analysis; one `Analyzed` serves any number of parameter bindings;
//! * [`Planned`] — the compile-time recurrence-chain plan of Algorithm 1's
//!   then-branch (or a typed [`RcpError::PlanUnavailable`] saying why it
//!   does not exist);
//! * [`Partitioned`] — the concrete, parameter-bound iteration space,
//!   dependence relation and Algorithm-1 partition (memoised per binding);
//! * [`Scheduled`] — an executable schedule produced by a registered
//!   [`crate::Partitioner`], ready to run, verify and measure.
//!
//! Programs whose array subscripts mention `PARAM`s (the Cholesky kernel's
//! `b(I, L, -KD + N)`) cannot be analysed symbolically — the access-map
//! representation has no parameter columns — so for those the analysis is
//! deferred to the partition stage, where the parameters are substituted
//! into the program first.  The staged API hides the difference: the
//! pipeline is the same either way, only the memoisation boundary moves.
//!
//! A stage computes nothing eagerly.  When Algorithm 1 takes its plain
//! else-branch, the partition is one level per point from one streaming
//! pass over the program's accesses ([`rcp_depend::dataflow_levels`]);
//! `Φ`, `Rd` and a deferred program's per-binding analysis are computed on
//! first use, by the consumers that need them (`rcp analyze`, the
//! baselines, validation).

use crate::config::Config;
use crate::degrade::{DegradationLevel, DegradationReport};
use crate::error::RcpError;
use crate::partitioner::{partitioner, SchemeSchedule, DEFAULT_SCHEME};
use rcp_codegen::{generate_listing, Schedule};
use rcp_core::{
    concrete_partition_from_dense, plan_unavailability, plan_unavailability_of, symbolic_plan,
    ConcretePartition, DataflowPartition, PlanStats, PlanUnavailable, Strategy, SymbolicPlan,
};
use rcp_depend::{
    classify_with_distances, dataflow_levels, distance_set, iteration_space, DependenceAnalysis,
    Granularity, Uniformity,
};
use rcp_loopir::Program;
use rcp_presburger::{DenseRelation, DenseSet};
use rcp_runtime::{execute_sequential, verify_schedule, ParallelExecutor, RefKernel, Verification};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The entry point of the staged pipeline: a [`Config`] plus the loaders
/// that produce an [`Analyzed`] stage from `.loop` source, an in-memory
/// [`Program`], or a bundled workload.
#[derive(Clone, Debug, Default)]
pub struct Session {
    config: Config,
}

impl Session {
    /// A session with the default configuration.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session with an explicit configuration.
    pub fn with_config(config: Config) -> Session {
        Session { config }
    }

    /// The session configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Parses `.loop` source and runs the dependence analysis, producing
    /// the [`Analyzed`] stage.  `origin` (a file name) prefixes parse
    /// diagnostics so they read like compiler output.
    pub fn parse(&self, source: &str, origin: &str) -> Result<Analyzed, RcpError> {
        self.sync_tracing();
        let program = {
            let _span = rcp_trace::span!("session.load");
            rcp_lang::parse_program(source).map_err(|e| RcpError::parse(origin, e))?
        };
        self.analyze_program(program, origin)
    }

    /// Analyses an in-memory program, producing the [`Analyzed`] stage.
    /// Unlike parsed source (whose scope the parser already validated),
    /// hand-built programs can reference undeclared variables; those are
    /// reported as [`RcpError::UnboundVariable`] instead of panicking.
    pub fn load(&self, program: Program) -> Result<Analyzed, RcpError> {
        self.analyze_program(program, "<memory>")
    }

    /// Loads and analyses a bundled workload (`examples/loops/*.loop`) by
    /// name.
    pub fn bundled(&self, name: &str) -> Result<Analyzed, RcpError> {
        let bundled =
            rcp_workloads::bundled_loop(name).ok_or_else(|| RcpError::UnknownWorkload {
                name: name.to_string(),
            })?;
        self.parse(bundled.source, &format!("{name}.loop"))
    }

    /// Flips the process-global trace switch on when this session was
    /// configured with [`Config::with_tracing`] (never off — see the
    /// field's docs for who owns the window).
    fn sync_tracing(&self) {
        if self.config.tracing {
            rcp_trace::set_enabled(true);
        }
    }

    fn analyze_program(&self, program: Program, origin: &str) -> Result<Analyzed, RcpError> {
        self.sync_tracing();
        let _span = rcp_trace::span!("session.analyze");
        program
            .check_variables()
            .map_err(|detail| RcpError::UnboundVariable {
                program: program.name.clone(),
                detail,
            })?;
        let granularity = match self.config.granularity {
            crate::GranularityChoice::Statement => Granularity::StatementLevel,
            crate::GranularityChoice::Auto => {
                if program.is_perfect_nest() {
                    Granularity::LoopLevel
                } else {
                    Granularity::StatementLevel
                }
            }
            crate::GranularityChoice::Loop => {
                if program.is_perfect_nest() || program.loop_groups().is_some() {
                    Granularity::LoopLevel
                } else {
                    return Err(RcpError::GranularityUnavailable {
                        program: program.name.clone(),
                        reason: "no loop-level view exists: a top-level statement sits outside \
                                 every loop (use --granularity stmt)"
                            .to_string(),
                    });
                }
            }
        };
        let deferred = subscripts_mention_params(&program);
        let mut degradation = None;
        let symbolic = if deferred {
            None
        } else {
            // The exact analysis runs under the configured budget guard
            // and behind a catch boundary: a tripped checkpoint (or any
            // panic below) arrives here as a typed Interrupt, never as an
            // unwind through the public API.
            match self.run_analysis_guarded(&program, granularity) {
                Ok(analysis) => Some(Arc::new(analysis)),
                Err(interrupt) => {
                    degradation = Some(self.degrade_after(interrupt, &program)?);
                    None
                }
            }
        };
        Ok(Analyzed {
            inner: Arc::new(AnalyzedInner {
                config: self.config.clone(),
                origin: origin.to_string(),
                program,
                granularity,
                symbolic,
                degradation,
                plan: OnceLock::new(),
                listing: OnceLock::new(),
                stages: Mutex::new(HashMap::new()),
            }),
        })
    }

    fn run_analysis_guarded(
        &self,
        program: &Program,
        granularity: Granularity,
    ) -> Result<DependenceAnalysis, rcp_guard::Interrupt> {
        run_guarded(&self.config.budget, || {
            run_analysis(&self.config, program, granularity)
        })
    }

    /// Walks the degradation ladder after the exact analysis was
    /// interrupted.  Only budget exhaustion degrades (and only when the
    /// configuration allows it); a genuine panic is never papered over —
    /// it surfaces as a typed [`RcpError::WorkerPanic`].
    fn degrade_after(
        &self,
        interrupt: rcp_guard::Interrupt,
        program: &Program,
    ) -> Result<DegradationReport, RcpError> {
        let cause: RcpError = match interrupt {
            rcp_guard::Interrupt::Budget(b) if self.config.degrade => b.into(),
            other => return Err(other.into()),
        };
        // Middle rung: the screen-only pass.  It runs *outside* any guard
        // scope — it must not be charged to the budget that just ran out —
        // and behind its own catch: if it unwinds too (an armed failpoint,
        // a pathological program), fall to the bottom rung instead of
        // letting the panic escape.
        match rcp_guard::catch(|| {
            rcp_depend::screen_summary(program, rcp_depend::ScreenConfig::full())
        }) {
            Ok(screen) => Ok(DegradationReport {
                level: DegradationLevel::ScreenedConservative,
                cause,
                screen: Some(screen),
            }),
            Err(_) => Ok(DegradationReport {
                level: DegradationLevel::Sequential,
                cause,
                screen: None,
            }),
        }
    }
}

/// The exact dependence analysis of `program`, with the configuration's
/// cache knob.
fn run_analysis(
    config: &Config,
    program: &Program,
    granularity: Granularity,
) -> DependenceAnalysis {
    if !config.warm_caches {
        rcp_intlin::reset_solver_cache();
        rcp_presburger::reset_emptiness_cache();
    }
    DependenceAnalysis::analyze(program, granularity)
}

/// Runs `f` under a fresh guard over `budget` (when one is configured)
/// and behind a catch boundary.  Every guarded stage entry — analysis,
/// the concrete partition stage, schedule construction, checked execution
/// — gets its own guard, so `budget` bounds each stage rather than the
/// session's lifetime.  What a stage computes on first use (`Rd`, a
/// deferred program's analysis, the partition) is bounded by the checked
/// accessors of [`Partitioned`], or by the guard of the stage entry that
/// first asks for it.
fn run_guarded<R>(
    budget: &Option<rcp_guard::BudgetSpec>,
    f: impl FnOnce() -> R,
) -> Result<R, rcp_guard::Interrupt> {
    rcp_guard::suppress_control_flow_panic_output();
    match budget {
        Some(spec) => {
            let guard = rcp_guard::Guard::new(spec.clone());
            rcp_guard::scope(&guard, || rcp_guard::catch(f))
        }
        None => rcp_guard::catch(f),
    }
}

/// True when any array subscript mentions a declared parameter — the
/// symbolic access-map representation cannot carry those, so the analysis
/// must run on the parameter-bound program.
fn subscripts_mention_params(program: &Program) -> bool {
    program.statements().iter().any(|info| {
        info.stmt.refs.iter().any(|r| {
            r.subscripts.iter().any(|sub| {
                sub.terms
                    .iter()
                    .any(|(name, &c)| c != 0 && program.params.iter().any(|p| p == name))
            })
        })
    })
}

struct AnalyzedInner {
    config: Config,
    origin: String,
    program: Program,
    granularity: Granularity,
    /// The parameter-independent analysis; `None` when subscripts mention
    /// parameters and analysis is deferred to the partition stage, or when
    /// the session degraded (see `degradation`).
    symbolic: Option<Arc<DependenceAnalysis>>,
    /// Set when the exact analysis was interrupted by budget exhaustion
    /// and the session stepped down the degradation ladder.
    degradation: Option<DegradationReport>,
    /// The memoised symbolic plan — the primary partitioning artifact.
    /// Computed once per session from the symbolic analysis; every
    /// concrete binding is then an O(pieces) [`SymbolicPlan::instantiate`]
    /// instead of a per-binding relation enumeration.  `Err` records the
    /// typed reason the recurrence-chain plan does not exist.
    plan: OnceLock<Result<Arc<SymbolicPlan>, PlanUnavailable>>,
    /// The plan's rendered DOALL/WHILE listing, memoised on first use.
    listing: OnceLock<String>,
    /// Memoised concrete stage payloads, keyed by parameter values.  The
    /// memo stores the cycle-free [`StageCore`] — not a [`Partitioned`],
    /// whose back-reference to this struct would form an `Arc` cycle and
    /// leak every memoised analysis for the life of the process.
    stages: Mutex<HashMap<Vec<i64>, Arc<StageCore>>>,
}

impl AnalyzedInner {
    /// The stage memo, recovering from poisoning.  The memo caches pure
    /// derivations of the immutable program, so a panic that unwound
    /// through the lock (an injected fault, a budget trip mid-insert)
    /// leaves no invariant to protect — clear the entries and continue;
    /// the worst case is recomputation.
    fn lock_stages(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<i64>, Arc<StageCore>>> {
        match self.stages.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.stages.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }
}

/// A parsed program plus its dependence analysis: the reusable front half
/// of the pipeline.  Cloning is cheap (shared storage); one `Analyzed` can
/// be partitioned for many parameter bindings without re-analysis.
#[derive(Clone)]
pub struct Analyzed {
    inner: Arc<AnalyzedInner>,
}

impl fmt::Debug for Analyzed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analyzed")
            .field("program", &self.inner.program.name)
            .field("origin", &self.inner.origin)
            .field("granularity", &self.inner.granularity)
            .field("deferred", &self.inner.symbolic.is_none())
            .field("degradation", &self.degradation_level())
            .finish()
    }
}

impl Analyzed {
    /// The analysed program (as parsed, parameters symbolic).
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// Where the program came from (file name or `<memory>`).
    pub fn origin(&self) -> &str {
        &self.inner.origin
    }

    /// The granularity the program is analysed at: loop level for perfect
    /// nests unless the configuration forces the statement-level unified
    /// space.
    pub fn granularity(&self) -> Granularity {
        self.inner.granularity
    }

    /// The session configuration this stage was built with.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// The parameter-independent dependence analysis, when one exists.
    /// `None` for programs whose subscripts mention parameters — use a
    /// [`Partitioned`] stage, whose analysis is always present — and for
    /// degraded sessions (see [`Self::degradation`]).
    pub fn symbolic_analysis(&self) -> Option<&DependenceAnalysis> {
        self.inner.symbolic.as_deref()
    }

    /// How far this session degraded, or `None` on the exact rung.
    pub fn degradation(&self) -> Option<&DegradationReport> {
        self.inner.degradation.as_ref()
    }

    /// The degradation-ladder rung of this session's result.
    pub fn degradation_level(&self) -> DegradationLevel {
        self.inner
            .degradation
            .as_ref()
            .map_or(DegradationLevel::Exact, |report| report.level)
    }

    /// The sequential schedule of the program at the configuration's
    /// parameter bindings — the bottom rung of the degradation ladder,
    /// available on *every* rung (it needs no dependence analysis and is
    /// store-identical to the reference execution by construction).
    pub fn sequential_schedule(&self) -> Result<Schedule, RcpError> {
        let values = self.inner.config.resolve_params(&self.inner.program, &[])?;
        Ok(Schedule::sequential(&self.inner.program, &values))
    }

    /// Why Algorithm 1's recurrence-chain branch is unavailable, or `None`
    /// when it applies.  The branch is a function of the program, so no
    /// analysis runs; a deferred-analysis program is bound at the
    /// configuration's parameter values first.
    pub fn plan_unavailability(&self) -> Result<Option<PlanUnavailable>, RcpError> {
        let inner = &self.inner;
        match (inner.symbolic.as_deref(), &inner.degradation) {
            (Some(analysis), _) => Ok(plan_unavailability(analysis)),
            (None, Some(report)) => Err(report.cause.clone()),
            (None, None) => {
                let values = inner.config.resolve_params(&inner.program, &[])?;
                Ok(plan_unavailability_of(
                    &inner.program.bind_params(&values),
                    inner.granularity,
                ))
            }
        }
    }

    /// The Algorithm-1 branch taken for this program.
    pub fn strategy(&self) -> Result<Strategy, RcpError> {
        Ok(match self.plan_unavailability()? {
            None => Strategy::RecurrenceChains,
            Some(_) => Strategy::Dataflow,
        })
    }

    /// The memoised symbolic plan, or the typed reason none exists.  For
    /// deferred-analysis programs (subscripts mention parameters) and
    /// degraded sessions there is no parameter-independent analysis to
    /// plan from, reported as [`PlanUnavailable::ParametricSubscripts`].
    fn plan_artifact(&self) -> Result<Arc<SymbolicPlan>, PlanUnavailable> {
        let analysis = match self.inner.symbolic.as_deref() {
            Some(analysis) => analysis,
            None => return Err(PlanUnavailable::ParametricSubscripts),
        };
        self.inner
            .plan
            .get_or_init(|| symbolic_plan(analysis).map(Arc::new))
            .clone()
    }

    /// The compile-time recurrence-chain plan ([`Planned`] stage), or a
    /// typed error saying exactly why the then-branch does not apply.
    /// For symbolic programs the plan is memoised on this stage — the same
    /// artifact [`Self::partition_with`] instantiates per binding.
    pub fn plan(&self) -> Result<Planned, RcpError> {
        let _span = rcp_trace::span!("session.plan");
        let plan = match self.inner.symbolic.as_deref() {
            Some(_) => self.plan_artifact().map_err(RcpError::from)?,
            None => {
                if let Some(reason) = self.plan_unavailability()? {
                    return Err(reason.into());
                }
                Arc::new(symbolic_plan(self.partition()?.analysis_checked()?)?)
            }
        };
        Ok(Planned {
            analyzed: self.clone(),
            plan,
        })
    }

    /// The concrete [`Partitioned`] stage at the configuration's parameter
    /// bindings.
    pub fn partition(&self) -> Result<Partitioned, RcpError> {
        self.partition_with(&[])
    }

    /// The concrete [`Partitioned`] stage with additional bindings that
    /// override the configuration's (the re-partition path: analysis is
    /// never re-run for symbolic programs).
    pub fn partition_with(&self, overrides: &[(String, i64)]) -> Result<Partitioned, RcpError> {
        let values = self
            .inner
            .config
            .resolve_params(&self.inner.program, overrides)?;
        self.partition_values(&values)
    }

    /// The concrete [`Partitioned`] stage at explicit parameter values (in
    /// declaration order).
    pub fn partition_values(&self, values: &[i64]) -> Result<Partitioned, RcpError> {
        if let Some(report) = &self.inner.degradation {
            // A degraded session has no exact analysis to partition; the
            // typed cause says why.  Screen verdicts and the sequential
            // schedule remain available on the Analyzed stage.
            return Err(report.cause.clone());
        }
        if self.inner.config.reuse_partitions {
            let stages = self.inner.lock_stages();
            if let Some(core) = stages.get(values) {
                return Ok(self.wrap_core(core.clone()));
            }
        }
        let core = self.build_core(values)?;
        if self.inner.config.reuse_partitions {
            let mut stages = self.inner.lock_stages();
            stages.insert(values.to_vec(), core.clone());
        }
        Ok(self.wrap_core(core))
    }

    /// Number of memoised concrete stages (for tests and reporting).
    pub fn cached_partitions(&self) -> usize {
        self.inner.lock_stages().len()
    }

    fn wrap_core(&self, core: Arc<StageCore>) -> Partitioned {
        Partitioned {
            inner: Arc::new(PartitionedInner {
                analyzed: self.clone(),
                core,
            }),
        }
    }

    fn build_core(&self, values: &[i64]) -> Result<Arc<StageCore>, RcpError> {
        let _span = rcp_trace::span!("session.partition");
        let inner = &self.inner;
        // The concrete stage — the symbolic instantiation (fast path), or
        // the fallback rung's stage, which defers its work to first use —
        // runs under one guarded scope.  There is no ladder here: a
        // concrete stage was explicitly requested, so exhaustion is a hard
        // typed error rather than a weaker result.
        run_guarded(&inner.config.budget, || {
            rcp_guard::fail_point("session::partition", rcp_guard::Stage::Partition);
            // Fast path: an O(pieces) instantiation of the memoised
            // symbolic plan.  Otherwise the fallback rung records the typed
            // reason and computes the partition on first use; a deferred
            // program runs on its parameter-bound form.  Either way Φ and
            // Rd wait until something asks for them.
            let (runtime_program, runtime_values, analysis, instance) = match &inner.symbolic {
                Some(analysis) => (
                    inner.program.clone(),
                    values.to_vec(),
                    OnceLock::from(analysis.clone()),
                    self.plan_artifact()
                        .and_then(|plan| plan.instantiate(values)),
                ),
                None => (
                    inner.program.bind_params(values),
                    Vec::new(),
                    OnceLock::new(),
                    Err(PlanUnavailable::ParametricSubscripts),
                ),
            };
            let (partition, concrete_reason) = match instance {
                Ok(partition) => {
                    rcp_trace::counter("session.plan.instantiate").add(1);
                    (OnceLock::from(partition), None)
                }
                Err(reason) => (OnceLock::new(), Some(reason)),
            };
            Arc::new(StageCore {
                values: values.to_vec(),
                runtime_program,
                runtime_values,
                granularity: inner.granularity,
                analysis,
                phi: OnceLock::new(),
                rd: OnceLock::new(),
                partition,
                summary: OnceLock::new(),
                concrete_reason,
            })
        })
        .map_err(RcpError::from)
    }
}

/// The compile-time (symbolic) recurrence-chain plan of Algorithm 1's
/// then-branch: the three-set partition and the recurrence `i = j·T + u`,
/// plus the paper-style generated listing.
#[derive(Clone)]
pub struct Planned {
    analyzed: Analyzed,
    plan: Arc<SymbolicPlan>,
}

impl fmt::Debug for Planned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Planned")
            .field("program", &self.analyzed.program().name)
            .field("alpha", &self.plan.recurrence.alpha())
            .finish()
    }
}

impl Planned {
    /// The underlying symbolic plan (three sets + recurrence).
    pub fn plan(&self) -> &SymbolicPlan {
        &self.plan
    }

    /// The [`Analyzed`] stage this plan came from.
    pub fn analyzed(&self) -> &Analyzed {
        &self.analyzed
    }

    /// The paper-style DOALL/WHILE listing of the plan, rendered once per
    /// plan.
    pub fn listing(&self) -> String {
        self.analyzed
            .inner
            .listing
            .get_or_init(|| generate_listing(&self.plan, &self.analyzed.program().name))
            .clone()
    }

    /// Why this plan cannot instantiate arbitrary bindings directly —
    /// `None` when [`SymbolicPlan::instantiate`] serves every binding in
    /// O(pieces).
    pub fn instantiability(&self) -> Option<&PlanUnavailable> {
        self.plan.instantiability()
    }

    /// `true` when concrete bindings are O(pieces) instantiations of this
    /// plan rather than per-binding re-partitions.
    pub fn is_instantiable(&self) -> bool {
        self.plan.is_instantiable()
    }
}

/// The heavy, shareable payload of one concrete stage.  Holds no
/// reference back to the [`Analyzed`] stage, so the per-binding memo
/// (`AnalyzedInner::stages`) stays acyclic and everything is freed when
/// the last user handle drops.
struct StageCore {
    /// The parameter values of this stage, in declaration order.
    values: Vec<i64>,
    /// The program the runtime executes (parameter-bound when the
    /// analysis was deferred, the original otherwise).
    runtime_program: Program,
    /// Parameter values matching `runtime_program` (empty when bound) —
    /// also what the analysis's Φ and Rd bind with.
    runtime_values: Vec<i64>,
    /// The granularity of the analysis space.
    granularity: Granularity,
    /// The analysis behind this stage: the shared symbolic analysis, or,
    /// for a deferred program, the analysis of `runtime_program`, run on
    /// first use.
    analysis: OnceLock<Arc<DependenceAnalysis>>,
    /// The enumerated iteration space, from the program's own spaces,
    /// enumerated on first use: neither the instantiation path nor the
    /// traced else-branch needs it to run.
    phi: OnceLock<DenseSet>,
    /// The enumerated dependence relation, built on first use: the
    /// dominant per-binding cost, which the instantiation path and the
    /// traced else-branch never pay.
    rd: OnceLock<DenseRelation>,
    /// The Algorithm-1 partition.  Pre-filled by
    /// [`SymbolicPlan::instantiate`] on the symbolic path, computed on
    /// first use on the fallback rung.
    partition: OnceLock<ConcretePartition>,
    /// The uniformity verdict of Rd and its number of distinct distance
    /// vectors, from one pass over the distance set on first use.  Two
    /// numbers, not the distances: rcpd keeps a stage per served binding.
    summary: OnceLock<(Uniformity, usize)>,
    /// `None` when `partition` came from the symbolic plan; `Some(reason)`
    /// records why this stage took the concrete fallback rung.
    concrete_reason: Option<PlanUnavailable>,
}

impl StageCore {
    fn analysis(&self, config: &Config) -> &DependenceAnalysis {
        self.analysis.get_or_init(|| {
            Arc::new(run_analysis(
                config,
                &self.runtime_program,
                self.granularity,
            ))
        })
    }

    fn phi(&self) -> &DenseSet {
        self.phi.get_or_init(|| {
            let _span = rcp_trace::span!("session.enumerate");
            let space = iteration_space(&self.runtime_program, self.granularity);
            DenseSet::from_union(&space.bind_params(&self.runtime_values))
        })
    }

    fn rd(&self, config: &Config) -> &DenseRelation {
        self.rd.get_or_init(|| {
            let analysis = self.analysis(config);
            let _span = rcp_trace::span!("session.enumerate");
            // `bind_params` binds Φ as well, an O(pieces) step whose
            // emptiness-cache traffic the profile golden pins.
            let (_, relation) = analysis.bind_params(&self.runtime_values);
            DenseRelation::from_relation(&relation)
        })
    }

    /// Why Algorithm 1's then-branch does not apply to this stage's
    /// program, `None` when it does.
    fn plan_unavailability(&self) -> Option<PlanUnavailable> {
        plan_unavailability_of(&self.runtime_program, self.granularity)
    }

    /// The partition of the fallback rung.  Algorithm 1's plain
    /// else-branch over a direct view takes the levels of the access
    /// trace, without Φ; the then-branch (which validates its chains
    /// against Rd) and the aggregated views (which try chains against Rd
    /// first) partition the enumerated relation.
    fn concrete_partition(&self, config: &Config) -> ConcretePartition {
        match self.plan_unavailability() {
            Some(reason) if reason != PlanUnavailable::AggregatedLoopLevel => {
                ConcretePartition::Dataflow {
                    stages: DataflowPartition {
                        levels: dataflow_levels(
                            &self.runtime_program,
                            &self.runtime_values,
                            self.granularity,
                        ),
                    },
                }
            }
            _ => concrete_partition_from_dense(self.analysis(config), self.phi(), self.rd(config)),
        }
    }
}

struct PartitionedInner {
    analyzed: Analyzed,
    core: Arc<StageCore>,
}

/// The concrete, parameter-bound middle of the pipeline: the enumerated
/// iteration space, the dense dependence relation, and (lazily) the
/// Algorithm-1 partition.  Cloning is cheap; stages are memoised per
/// binding on the owning [`Analyzed`].
///
/// # Checked accessors
///
/// What a stage computes on first use — a deferred program's analysis,
/// `Rd`, the partition — runs under whatever guard is installed when it is
/// first asked for.  The `*_checked` accessors install the configured
/// budget guard and a catch boundary, like [`Scheduled::verify_checked`],
/// so that a budget trip or a panic there comes back as a typed error.
/// Inside a guarded call (schedule construction, a checked execution)
/// they charge that call's guard instead of a fresh one.
#[derive(Clone)]
pub struct Partitioned {
    inner: Arc<PartitionedInner>,
}

impl fmt::Debug for Partitioned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately avoids forcing the lazy Φ/Rd enumerations: printing
        // a warm symbolic stage must stay O(1).
        f.debug_struct("Partitioned")
            .field("program", &self.inner.analyzed.program().name)
            .field("values", &self.inner.core.values)
            .field("plan", &self.plan_provenance())
            .finish()
    }
}

impl Partitioned {
    /// The [`Analyzed`] stage this partition came from.
    pub fn analyzed(&self) -> &Analyzed {
        &self.inner.analyzed
    }

    /// The parameter values of this stage, in declaration order.
    pub fn values(&self) -> &[i64] {
        &self.inner.core.values
    }

    /// The dependence analysis backing this stage.  For a
    /// deferred-analysis program it is the analysis of the
    /// parameter-bound program, run on first use.
    pub fn analysis(&self) -> &DependenceAnalysis {
        self.inner.core.analysis(self.inner.analyzed.config())
    }

    /// The program the runtime executes for this binding.
    pub fn runtime_program(&self) -> &Program {
        &self.inner.core.runtime_program
    }

    /// Parameter values matching [`Self::runtime_program`].
    pub fn runtime_values(&self) -> &[i64] {
        &self.inner.core.runtime_values
    }

    /// The enumerated iteration space `Φ`, enumerated on first use: a
    /// run needs it only when its partition is built from `Rd`.
    pub fn phi(&self) -> &DenseSet {
        self.inner.core.phi()
    }

    /// The enumerated dependence relation `Rd`, enumerated on first use:
    /// neither the warm symbolic path nor the traced else-branch pays for
    /// it.
    pub fn rd(&self) -> &DenseRelation {
        self.inner.core.rd(self.inner.analyzed.config())
    }

    /// `true` when this stage's partition was materialised by an
    /// O(pieces) [`SymbolicPlan::instantiate`] of the memoised plan,
    /// `false` when it took the legacy per-binding concrete rung.
    pub fn instantiated(&self) -> bool {
        self.inner.core.concrete_reason.is_none()
    }

    /// Why this stage took the legacy concrete rung, `None` when it was
    /// instantiated from the symbolic plan.
    pub fn concrete_reason(&self) -> Option<&PlanUnavailable> {
        self.inner.core.concrete_reason.as_ref()
    }

    /// The provenance label of this stage's partition, as reported by
    /// `rcp partition --json`: `"symbolic"` or `"concrete-fallback"`.
    pub fn plan_provenance(&self) -> &'static str {
        if self.instantiated() {
            "symbolic"
        } else {
            "concrete-fallback"
        }
    }

    /// The dependence classification of this binding.
    pub fn uniformity(&self) -> Uniformity {
        self.summary().0
    }

    /// The number of distinct dependence distance vectors of this binding.
    pub fn n_distances(&self) -> usize {
        self.summary().1
    }

    /// Both of the above, computed together once per stage.
    fn summary(&self) -> (Uniformity, usize) {
        let core = &self.inner.core;
        *core.summary.get_or_init(|| {
            let distances = distance_set(self.rd());
            let uniformity = classify_with_distances(self.rd(), self.phi(), &distances);
            (uniformity, distances.len())
        })
    }

    /// The Algorithm-1 partition (computed once, then shared).  When
    /// Algorithm 1 takes its plain else-branch over a direct view, the
    /// levels come from the access trace ([`rcp_depend::dataflow_levels`])
    /// and neither `Φ`, the analysis nor `Rd` is computed.
    ///
    /// The computation is a cooperative checkpoint: under an installed
    /// guard (a [`Scheduled`] built through [`Self::schedule`], a checked
    /// execution, or [`Self::partition_checked`]) a budget trip unwinds to
    /// the enclosing catch boundary and surfaces as
    /// [`RcpError::BudgetExceeded`] there.  A failed initialisation leaves
    /// the `OnceLock` empty, so a later call under a fresh budget simply
    /// retries.
    pub fn partition(&self) -> &ConcretePartition {
        let core = &self.inner.core;
        core.partition.get_or_init(|| {
            let _span = rcp_trace::span!("core.partition");
            rcp_guard::fail_point("session::partition", rcp_guard::Stage::Partition);
            // The loop walker counts the points without enumerating Φ.
            let points = core
                .runtime_program
                .walker(&core.runtime_values)
                .count_points(core.granularity == Granularity::LoopLevel);
            rcp_guard::tick(rcp_guard::Stage::Partition, points as u64);
            core.concrete_partition(self.inner.analyzed.config())
        })
    }

    /// Why the recurrence-chain branch is unavailable for this program,
    /// `None` when it applies.
    pub fn plan_unavailability(&self) -> Option<PlanUnavailable> {
        self.inner.core.plan_unavailability()
    }

    /// Partition statistics (phases, critical path, widths).
    pub fn stats(&self) -> PlanStats {
        self.partition().stats()
    }

    /// Full validity check of the partition: every iteration scheduled
    /// exactly once, every dependence respected.  Empty when valid.
    pub fn validate(&self) -> Vec<String> {
        self.partition().validate(self.phi(), self.rd())
    }

    /// [`Self::analysis`] under the configured budget (see [checked
    /// accessors](Partitioned#checked-accessors)).
    pub fn analysis_checked(&self) -> Result<&DependenceAnalysis, RcpError> {
        self.checked(|| self.analysis())
    }

    /// [`Self::rd`], and the analysis it is enumerated from, under the
    /// configured budget (see [checked
    /// accessors](Partitioned#checked-accessors)).
    pub fn rd_checked(&self) -> Result<&DenseRelation, RcpError> {
        self.checked(|| self.rd())
    }

    /// [`Self::partition`] under the configured budget (see [checked
    /// accessors](Partitioned#checked-accessors)).
    pub fn partition_checked(&self) -> Result<&ConcretePartition, RcpError> {
        self.checked(|| self.partition())
    }

    /// [`Self::validate`], with the partition, the analysis and `Rd` it
    /// forces, under the configured budget (see [checked
    /// accessors](Partitioned#checked-accessors)).
    pub fn validate_checked(&self) -> Result<Vec<String>, RcpError> {
        self.checked(|| self.validate())
    }

    /// Runs `f` under the configured budget guard and behind a catch
    /// boundary, or under the installed guard inside a guarded call.
    fn checked<R>(&self, f: impl FnOnce() -> R) -> Result<R, RcpError> {
        let outcome = match rcp_guard::current() {
            Some(_) => rcp_guard::catch(f),
            None => run_guarded(&self.inner.analyzed.config().budget, f),
        };
        outcome.map_err(RcpError::from)
    }

    /// Schedules this partition with the configured scheme (or the default
    /// recurrence-chains scheme), producing the [`Scheduled`] stage.
    pub fn schedule(&self) -> Result<Scheduled, RcpError> {
        let config = self.inner.analyzed.config();
        match &config.scheme {
            Some(name) => self.schedule_with(name),
            None => self.schedule_with(DEFAULT_SCHEME),
        }
    }

    /// Schedules this partition with an explicitly named scheme from the
    /// [`crate::registry`].
    pub fn schedule_with(&self, scheme: &str) -> Result<Scheduled, RcpError> {
        let _span = rcp_trace::span!("session.schedule");
        let partitioner = partitioner(scheme)?;
        // Schedule construction (which lazily computes the Algorithm-1
        // partition) is guarded: budget trips and injected faults below
        // this point come back as typed errors, never as unwinds.
        let budget = &self.inner.analyzed.config().budget;
        let SchemeSchedule { schedule, pipeline } =
            run_guarded(budget, || partitioner.build(self)).map_err(RcpError::from)??;
        Ok(Scheduled {
            inner: Arc::new(ScheduledInner {
                partitioned: self.clone(),
                scheme: partitioner.name(),
                schedule,
                pipeline,
                sequential: OnceLock::new(),
            }),
        })
    }
}

struct ScheduledInner {
    partitioned: Partitioned,
    scheme: &'static str,
    schedule: Schedule,
    pipeline: Option<rcp_baselines::DoacrossPlan>,
    sequential: OnceLock<Schedule>,
}

/// Timing of one measured sequential-vs-parallel comparison.
#[derive(Clone, Copy, Debug)]
pub struct BenchMeasurement {
    /// Best sequential wall clock, milliseconds.
    pub sequential_ms: f64,
    /// Best parallel wall clock, milliseconds.
    pub parallel_ms: f64,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Repetitions each side was measured for (best-of).
    pub reps: usize,
}

impl BenchMeasurement {
    /// `sequential / parallel` — above 1 the parallel run is faster.
    pub fn speedup(&self) -> f64 {
        self.sequential_ms / self.parallel_ms.max(1e-9)
    }
}

/// The executable end of the pipeline: a schedule built by a registered
/// [`crate::Partitioner`], with the sequential reference, verification and
/// measurement attached.
#[derive(Clone)]
pub struct Scheduled {
    inner: Arc<ScheduledInner>,
}

impl fmt::Debug for Scheduled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduled")
            .field("program", &self.inner.partitioned.analyzed().program().name)
            .field("scheme", &self.inner.scheme)
            .field("phases", &self.inner.schedule.n_phases())
            .finish()
    }
}

impl Scheduled {
    /// The [`Partitioned`] stage this schedule came from.
    pub fn partitioned(&self) -> &Partitioned {
        &self.inner.partitioned
    }

    /// The registry name of the scheme that built this schedule.
    pub fn scheme(&self) -> &'static str {
        self.inner.scheme
    }

    /// The parallel schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.inner.schedule
    }

    /// The DOACROSS pipeline descriptor, for schemes whose parallel
    /// structure (point-to-point synchronisation) a barrier schedule
    /// cannot express; consumed by the runtime cost model.
    pub fn pipeline(&self) -> Option<&rcp_baselines::DoacrossPlan> {
        self.inner.pipeline.as_ref()
    }

    /// The sequential reference schedule: every statement instance in
    /// program order, as the loop interpreter lists them (built once, then
    /// shared).
    pub fn sequential(&self) -> &Schedule {
        self.inner.sequential.get_or_init(|| {
            let _span = rcp_trace::span!("codegen.sequential");
            Schedule::sequential(
                self.inner.partitioned.runtime_program(),
                self.inner.partitioned.runtime_values(),
            )
        })
    }

    /// The reference kernel of the program.
    pub fn kernel(&self) -> RefKernel {
        RefKernel::new(self.inner.partitioned.runtime_program())
    }

    /// Executes the parallel schedule on the configured thread count and
    /// checks it against the sequential reference, bit for bit and race
    /// free ([`rcp_runtime::Verification::check`]).
    pub fn verify(&self) -> Verification {
        let _span = rcp_trace::span!("session.run");
        let kernel = self.kernel();
        verify_schedule(
            self.sequential(),
            &self.inner.schedule,
            &kernel,
            self.config_threads(),
        )
    }

    /// Like [`Self::verify`], but under the configured budget guard and
    /// behind a catch boundary: executor-phase budget trips, injected
    /// faults and worker panics surface as typed errors instead of
    /// unwinding through the caller.
    pub fn verify_checked(&self) -> Result<Verification, RcpError> {
        let budget = &self.inner.partitioned.analyzed().config().budget;
        run_guarded(budget, || self.verify()).map_err(RcpError::from)
    }

    /// Executes the parallel schedule under the configured budget guard,
    /// returning the execution result (final store, timings, races) or a
    /// typed error.  The degradation ladder's bottom rung —
    /// [`execute_sequential`] on [`Self::sequential`] — remains available
    /// after any failure here.
    pub fn execute_checked(&self) -> Result<rcp_runtime::ExecutionResult, RcpError> {
        let _span = rcp_trace::span!("session.run");
        let kernel = self.kernel();
        let executor = ParallelExecutor::new(self.config_threads());
        let budget = &self.inner.partitioned.analyzed().config().budget;
        run_guarded(budget, || executor.execute(&self.inner.schedule, &kernel))
            .map_err(RcpError::from)
    }

    /// Measured sequential vs parallel wall clock, best of `reps`.
    pub fn bench(&self, reps: usize) -> BenchMeasurement {
        let _span = rcp_trace::span!("session.run");
        let kernel = self.kernel();
        let reps = reps.max(1);
        let best = |mut pass: Box<dyn FnMut() -> f64 + '_>| {
            (0..reps).map(|_| pass()).fold(f64::INFINITY, f64::min)
        };
        let sequential = self.sequential();
        let sequential_ms = best(Box::new(|| {
            let start = Instant::now();
            let _ = execute_sequential(sequential, &kernel);
            start.elapsed().as_secs_f64() * 1e3
        }));
        let threads = self.config_threads();
        let executor = ParallelExecutor::new(threads).with_race_detection(false);
        let parallel_ms = best(Box::new(|| {
            let start = Instant::now();
            let _ = executor.execute(&self.inner.schedule, &kernel);
            start.elapsed().as_secs_f64() * 1e3
        }));
        BenchMeasurement {
            sequential_ms,
            parallel_ms,
            threads,
            reps,
        }
    }

    fn config_threads(&self) -> usize {
        self.inner.partitioned.analyzed().config().threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_stages_do_not_keep_the_analyzed_stage_alive() {
        // Regression: the per-binding memo used to store `Partitioned`
        // stages whose back-reference formed an `Arc` cycle with
        // `AnalyzedInner`, leaking every memoised analysis for the life
        // of the process.  With the cycle-free `StageCore` memo, dropping
        // the last user handle frees everything.
        let analyzed = Session::with_config(Config::new().with_params(&[("N1", 6), ("N2", 6)]))
            .bundled("example1")
            .unwrap();
        let stage = analyzed.partition().unwrap();
        assert_eq!(analyzed.cached_partitions(), 1);
        let weak = Arc::downgrade(&analyzed.inner);
        drop(stage);
        drop(analyzed);
        assert!(
            weak.upgrade().is_none(),
            "the memo must not keep AnalyzedInner alive after the last user handle drops"
        );
    }

    #[test]
    fn warm_reports_read_the_stage_memos() {
        let values = [("N1", 10), ("N2", 10)];
        let analyzed = Session::with_config(Config::new().with_params(&values))
            .bundled("example1")
            .unwrap();
        let stage = analyzed.partition().unwrap();
        assert!(stage.inner.core.summary.get().is_none());
        let summary = (stage.uniformity(), stage.n_distances());
        assert!(stage.inner.core.summary.get().is_some());
        assert_eq!(summary.1, distance_set(stage.rd()).len());
        // The next request for the binding gets the memoised stage, memo
        // included.
        let again = analyzed.partition().unwrap();
        assert!(again.inner.core.summary.get().is_some());
        assert_eq!((again.uniformity(), again.n_distances()), summary);
        // The listing renders once per plan.
        assert!(analyzed.inner.listing.get().is_none());
        let listing = analyzed.plan().unwrap().listing();
        assert!(analyzed.inner.listing.get().is_some());
        assert_eq!(analyzed.plan().unwrap().listing(), listing);
    }

    #[test]
    fn hand_built_programs_with_unbound_variables_get_a_typed_error() {
        // Regression: this used to panic inside the space construction
        // (`unknown variable `Q` in expression ...`).
        use rcp_loopir::expr::{c, v};
        use rcp_loopir::program::build::{loop_, stmt};
        let bad = rcp_loopir::Program::new(
            "bad",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        rcp_loopir::ArrayRef::write("a", vec![v("Q") + c(1)]),
                        rcp_loopir::ArrayRef::read("a", vec![v("I")]),
                    ],
                )],
            )],
        );
        let err = Session::new().load(bad).unwrap_err();
        match &err {
            RcpError::UnboundVariable { program, detail } => {
                assert_eq!(program, "bad");
                assert_eq!(detail.variable.name, "Q");
                assert!(detail.context.contains("statement `S`"), "{detail}");
            }
            other => panic!("expected UnboundVariable, got {other:?}"),
        }
        assert!(err.to_string().contains("unknown variable `Q`"), "{err}");
    }

    #[test]
    fn an_exhausted_budget_degrades_to_screened_conservative() {
        // A one-work-unit budget cannot cover example1's analysis: the
        // session must step down the ladder, not stall and not unwind.
        let analyzed = Session::with_config(
            Config::new()
                .with_params(&[("N1", 10), ("N2", 10)])
                .with_work_budget(1),
        )
        .bundled("example1")
        .unwrap();
        let report = analyzed.degradation().expect("must degrade");
        assert_eq!(report.level, DegradationLevel::ScreenedConservative);
        assert!(!analyzed.degradation_level().is_exact());
        assert!(analyzed.symbolic_analysis().is_none());
        // The cause is the typed budget error, naming its stage.
        match &report.cause {
            RcpError::BudgetExceeded { spent, limit, .. } => {
                assert_eq!(*limit, 1);
                assert!(*spent >= *limit, "spent {spent} < limit {limit}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The screen-only pass still delivers sound verdicts...
        let screen = report.screen.expect("screen pass ran");
        assert_eq!(screen.n_pairs, 2);
        assert_eq!(
            screen.independent_pairs + screen.may_depend_pairs,
            screen.n_pairs
        );
        // ...an exact partition is refused with the same typed cause...
        assert_eq!(analyzed.partition().unwrap_err(), report.cause);
        // ...and the bottom rung always works.
        let sequential = analyzed.sequential_schedule().unwrap();
        assert_eq!(sequential.n_instances(), 100);
    }

    #[test]
    fn without_degradation_budget_exhaustion_is_a_hard_error() {
        let err = Session::with_config(
            Config::new()
                .with_params(&[("N1", 10), ("N2", 10)])
                .with_work_budget(1)
                .without_degradation(),
        )
        .bundled("example1")
        .unwrap_err();
        assert!(
            matches!(err, RcpError::BudgetExceeded { limit: 1, .. }),
            "expected BudgetExceeded, got {err:?}"
        );
        assert!(err.to_string().contains("budget exceeded in stage"));
    }

    #[test]
    fn a_generous_budget_stays_on_the_exact_rung() {
        let analyzed = Session::with_config(
            Config::new()
                .with_params(&[("N1", 10), ("N2", 10)])
                .with_work_budget(1_000_000)
                .with_deadline_ms(120_000),
        )
        .bundled("example1")
        .unwrap();
        assert!(analyzed.degradation().is_none());
        assert!(analyzed.degradation_level().is_exact());
        let scheduled = analyzed.partition().unwrap().schedule().unwrap();
        assert!(scheduled.verify_checked().unwrap().passed());
        let result = scheduled.execute_checked().unwrap();
        assert_eq!(
            result.store,
            execute_sequential(scheduled.sequential(), &scheduled.kernel()),
            "checked execution must be store-identical to sequential"
        );
    }

    #[test]
    fn sparse_write_patterns_are_refused_as_typed_errors() {
        // A diagonal and a widely strided write at N = 100 000: each box
        // spans 10^10 cells for 10^5 writes.  Laying it out is refused
        // before allocation, and the refusal reaches the caller as an
        // error, not an abort.
        for write in ["a(I, I)", "a(100000 * I)"] {
            let source =
                format!("PROGRAM sparse\nPARAM N\nDO I = 1, N\n  S: {write} = b(I)\nENDDO\nEND\n");
            let scheduled = Session::with_config(Config::new().with_param("N", 100_000))
                .parse(&source, "sparse.loop")
                .unwrap()
                .partition()
                .unwrap()
                .schedule()
                .unwrap();
            match scheduled.verify_checked() {
                Err(RcpError::BudgetExceeded {
                    stage,
                    spent,
                    limit,
                }) => {
                    assert_eq!(stage, "execution", "{write}");
                    assert!(
                        spent > 9_000_000_000 && limit < spent / 100,
                        "{write}: {spent} of {limit}"
                    );
                }
                other => panic!("{write}: expected a refused layout, got {other:?}"),
            }
            assert!(
                matches!(
                    scheduled.execute_checked(),
                    Err(RcpError::BudgetExceeded { .. })
                ),
                "{write}"
            );
        }
    }

    #[test]
    fn the_else_branch_runs_without_the_analysis_or_rd() {
        // Cholesky defers its analysis and takes Algorithm 1's plain
        // else-branch: a verified run builds its stages from the access
        // trace, and neither the per-binding analysis nor Rd is computed
        // until a consumer asks for them.
        let config = Config::new().with_params(&[("NMAT", 2), ("M", 2), ("N", 6), ("NRHS", 1)]);
        let analyzed = Session::with_config(config).bundled("cholesky").unwrap();
        assert_eq!(analyzed.strategy().unwrap(), Strategy::Dataflow);
        assert_eq!(analyzed.cached_partitions(), 0, "the branch needs no stage");
        let stage = analyzed.partition().unwrap();
        let core = &stage.inner.core;
        assert!(
            core.partition.get().is_none(),
            "the partition waits for a consumer"
        );
        assert!(stage.schedule().unwrap().verify().passed());
        assert!(core.partition.get().is_some());
        assert!(
            core.phi.get().is_none(),
            "a verified traced run leaves Φ unbuilt"
        );
        assert!(core.analysis.get().is_none() && core.rd.get().is_none());
        // Validation is a consumer: it enumerates Φ, runs the analysis and
        // enumerates Rd.
        assert!(stage.validate().is_empty());
        assert!(core.phi.get().is_some());
        assert!(core.analysis.get().is_some() && core.rd.get().is_some());
    }

    #[test]
    fn what_a_stage_computes_on_first_use_is_bounded_by_the_budget() {
        // Cholesky's Φ fits 5 000 work units but its per-binding analysis
        // does not.  The checked accessors that force the analysis (and Rd
        // with it) trip as typed errors and leave nothing half built; the
        // traced schedule needs neither and still runs.  No other test
        // analyses this binding, whose cached solver verdicts would make
        // the analysis cheap.
        let config = Config::new()
            .with_params(&[("NMAT", 3), ("M", 2), ("N", 5), ("NRHS", 1)])
            .with_work_budget(5_000);
        let analyzed = Session::with_config(config).bundled("cholesky").unwrap();
        let stage = analyzed.partition().unwrap();
        for err in [
            stage.analysis_checked().map(|_| ()).unwrap_err(),
            stage.rd_checked().map(|_| ()).unwrap_err(),
            stage.validate_checked().map(|_| ()).unwrap_err(),
        ] {
            assert!(
                matches!(err, RcpError::BudgetExceeded { limit: 5_000, .. }),
                "expected BudgetExceeded, got {err:?}"
            );
        }
        let core = &stage.inner.core;
        assert!(core.analysis.get().is_none() && core.rd.get().is_none());
        assert!(stage.schedule().unwrap().verify().passed());
        assert!(stage.partition_checked().is_ok());
        // Inside a guarded call they charge that call's guard, not a fresh
        // one over the configured budget.
        let generous = Config::new()
            .with_params(&[("NMAT", 3), ("M", 2), ("N", 5), ("NRHS", 1)])
            .with_work_budget(1 << 40);
        let stage = Session::with_config(generous)
            .bundled("cholesky")
            .unwrap()
            .partition()
            .unwrap();
        let outer = rcp_guard::Guard::new(rcp_guard::BudgetSpec::default().with_max_work(5_000));
        let nested = rcp_guard::scope(&outer, || stage.rd_checked().map(|_| ()));
        assert!(
            matches!(nested, Err(RcpError::BudgetExceeded { limit: 5_000, .. })),
            "expected the outer guard to trip, got {nested:?}"
        );
    }

    #[test]
    fn deferred_programs_hit_budget_limits_at_their_first_partition_work() {
        // Cholesky defers its analysis, and its stage defers the trace: a
        // starvation budget is a hard typed error from the first call that
        // does partition work (the ladder lives at the analyze stage, where
        // no concrete result was demanded yet).
        let analyzed = Session::with_config(
            Config::new()
                .with_param("NMAT", 2)
                .with_param("M", 2)
                .with_param("N", 6)
                .with_param("NRHS", 1)
                .with_work_budget(1),
        )
        .bundled("cholesky")
        .unwrap();
        assert!(
            analyzed.degradation().is_none(),
            "deferred: nothing ran yet"
        );
        let stage = analyzed.partition().unwrap();
        for err in [
            stage.schedule().map(|_| ()).unwrap_err(),
            stage.partition_checked().map(|_| ()).unwrap_err(),
        ] {
            assert!(
                matches!(err, RcpError::BudgetExceeded { limit: 1, .. }),
                "expected BudgetExceeded, got {err:?}"
            );
        }
        assert!(stage.inner.core.partition.get().is_none());
    }

    #[test]
    fn a_detached_stage_outlives_its_analyzed_handle() {
        // The stage's own back-reference is intentionally strong: a
        // Partitioned handed to a worker keeps working after the caller
        // dropped the Analyzed it came from.
        let analyzed = Session::with_config(Config::new().with_params(&[("N1", 6), ("N2", 6)]))
            .bundled("example1")
            .unwrap();
        let stage = analyzed.partition().unwrap();
        drop(analyzed);
        assert_eq!(stage.stats().total_iterations, 36);
        assert!(stage.schedule().unwrap().verify().passed());
    }
}
