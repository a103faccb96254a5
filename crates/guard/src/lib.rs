//! `rcp-guard`: cooperative resource budgets and fault plumbing for the
//! session pipeline.
//!
//! Production dependence analyzers bound worst-case exact-test cost: a
//! Fourier–Motzkin projection can blow up, a diophantine solve can recur
//! millions of times, and a service built on the pipeline (the ROADMAP's
//! `rcpd`) needs admission control rather than unbounded stalls.  This
//! crate is the substrate:
//!
//! * **Budget tokens.**  A [`BudgetSpec`] (work units and/or a wall-clock
//!   deadline) is plain data carried by `rcp_session::Config`; a [`Guard`]
//!   is its live counterpart — an `Arc`-shared counter plus start instant.
//! * **Cooperative checkpoints.**  Expensive call sites invoke
//!   [`tick`]`(stage, units)`.  With no guard installed the call is a
//!   no-op; with one installed ([`scope`]) it charges the budget and, on
//!   exhaustion, unwinds with a [`BudgetExceeded`] payload.  Unwinding —
//!   rather than threading `Result` through every pure solver signature —
//!   keeps the checkpoints one-liners and is caught exactly once, at the
//!   session boundary, by [`catch`].
//! * **Typed panic capture.**  [`catch`] converts *any* unwind into an
//!   [`Interrupt`]: budget payloads stay structured, foreign panics become
//!   a [`CapturedPanic`] carrying the downcast message plus the context
//!   frames (worker id, work-item index) pushed by
//!   [`resume_with_context`] at pool boundaries.  "Zero panics escape" is
//!   then a property of the one boundary instead of of every worker.
//! * **Failpoints.**  A compile-time-gated fault-injection registry
//!   ([`FAILPOINT_SITES`], [`arm`], [`fail_point`]) used by the chaos
//!   campaign (`rcp fuzz --chaos`) to prove every injected fault at every
//!   site surfaces as a typed error or a correct degraded result.
//!
//! The crate sits below every other workspace crate (its only dependency
//! is the equally bottom-level `rcp-trace`, into which [`tick`] mirrors
//! per-stage work units when tracing is enabled), so the solvers
//! (`rcp-intlin`, `rcp-presburger`), the analysis front end
//! (`rcp-depend`), the runtime and the pool can all checkpoint without a
//! dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Instant;

/// The pipeline stage a checkpoint charges its work to; carried by
/// [`BudgetExceeded`] so exhaustion reports name where the budget went.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// Dependence analysis as a whole (session-level checkpoints).
    Analysis,
    /// One Fourier–Motzkin variable elimination (`rcp-presburger`).
    FmProjection,
    /// One HNF or diophantine solve (`rcp-intlin`).
    IntSolve,
    /// Pair-space screening of one reference pair (`rcp-depend`).
    PairScreen,
    /// Recurrence-chain enumeration over the intermediate set (`rcp-core`).
    ChainEnumeration,
    /// Concrete partition construction (`rcp-session`).
    Partition,
    /// Executor phases and their barriers (`rcp-runtime`).
    Execution,
}

/// All stages in pipeline order: the iteration order for reports and the
/// naming order for the trace tick slots.
pub const ALL_STAGES: [Stage; 7] = [
    Stage::Analysis,
    Stage::FmProjection,
    Stage::IntSolve,
    Stage::PairScreen,
    Stage::ChainEnumeration,
    Stage::Partition,
    Stage::Execution,
];

impl Stage {
    /// The stable kebab-case name used in errors, JSON output and docs.
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Analysis => "analysis",
            Stage::FmProjection => "fm-projection",
            Stage::IntSolve => "int-solve",
            Stage::PairScreen => "pair-screen",
            Stage::ChainEnumeration => "chain-enumeration",
            Stage::Partition => "partition",
            Stage::Execution => "execution",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which budgeted resource ran out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resource {
    /// The cooperative work-unit counter.
    WorkUnits,
    /// The wall-clock deadline, in milliseconds.
    Millis,
    /// Array cells the runtime lays out: a fixed limit that [`limit`]
    /// enforces whatever the budget, not a [`BudgetSpec`] field.
    Cells,
}

impl Resource {
    /// The unit suffix used in messages (`work units` / `ms` / `cells`).
    pub fn unit(&self) -> &'static str {
        match self {
            Resource::WorkUnits => "work units",
            Resource::Millis => "ms",
            Resource::Cells => "cells",
        }
    }
}

/// A resource budget as plain data: what `rcp_session::Config` carries.
/// `None` fields are unlimited; the default is fully unlimited.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Maximum cooperative work units across all checkpoints.
    pub max_work: Option<u64>,
    /// Wall-clock deadline in milliseconds, measured from [`Guard::new`].
    pub max_millis: Option<u64>,
}

impl BudgetSpec {
    /// An unlimited budget (no checkpoint ever trips).
    pub fn unlimited() -> Self {
        BudgetSpec::default()
    }

    /// Caps the cooperative work-unit counter.
    pub fn with_max_work(mut self, units: u64) -> Self {
        self.max_work = Some(units);
        self
    }

    /// Sets a wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, millis: u64) -> Self {
        self.max_millis = Some(millis);
        self
    }
}

/// The unwind payload of a tripped budget checkpoint, and the data behind
/// `RcpError::BudgetExceeded`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BudgetExceeded {
    /// The stage whose checkpoint tripped.
    pub stage: Stage,
    /// The tripped resource.
    pub resource: Resource,
    /// Units spent at the moment of the trip (work units, elapsed ms, or
    /// the cells a refused layout asked for).
    pub spent: u64,
    /// The configured limit for that resource.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded in stage `{}`: spent {} of {} {}",
            self.stage,
            self.spent,
            self.limit,
            self.resource.unit()
        )
    }
}

impl std::error::Error for BudgetExceeded {}

struct GuardState {
    spec: BudgetSpec,
    start: Instant,
    work: AtomicU64,
}

/// The live counterpart of a [`BudgetSpec`]: an `Arc`-shared work counter
/// plus the start instant of the deadline.  Cheap to clone; one guard can
/// be entered on many threads at once (the pool re-enters the caller's
/// guard inside its workers).
#[derive(Clone)]
pub struct Guard {
    state: Arc<GuardState>,
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("spec", &self.state.spec)
            .field("work", &self.work_spent())
            .finish()
    }
}

impl Guard {
    /// A fresh guard over `spec`; the deadline clock starts now.
    pub fn new(spec: BudgetSpec) -> Guard {
        Guard {
            state: Arc::new(GuardState {
                spec,
                start: Instant::now(),
                work: AtomicU64::new(0),
            }),
        }
    }

    /// The budget this guard enforces.
    pub fn spec(&self) -> &BudgetSpec {
        &self.state.spec
    }

    /// Work units charged so far (across all threads sharing the guard).
    pub fn work_spent(&self) -> u64 {
        self.state.work.load(Ordering::Relaxed)
    }

    /// Milliseconds elapsed since [`Guard::new`].
    pub fn elapsed_ms(&self) -> u64 {
        self.state.start.elapsed().as_millis() as u64
    }

    /// Charges `units` of work to `stage` and checks both resources.
    /// This is the non-panicking core of [`tick`].
    pub fn charge(&self, stage: Stage, units: u64) -> Result<(), BudgetExceeded> {
        let spent = self.state.work.fetch_add(units, Ordering::Relaxed) + units;
        if let Some(limit) = self.state.spec.max_work {
            if spent > limit {
                return Err(BudgetExceeded {
                    stage,
                    resource: Resource::WorkUnits,
                    spent,
                    limit,
                });
            }
        }
        if let Some(limit) = self.state.spec.max_millis {
            let elapsed = self.elapsed_ms();
            if elapsed > limit {
                return Err(BudgetExceeded {
                    stage,
                    resource: Resource::Millis,
                    spent: elapsed,
                    limit,
                });
            }
        }
        Ok(())
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Guard>> = const { RefCell::new(None) };
}

/// Restores the previously installed guard when a [`scope`] exits, whether
/// normally or by unwinding.
struct Restore(Option<Guard>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|slot| *slot.borrow_mut() = self.0.take());
    }
}

/// Runs `f` with `guard` installed as the current thread's guard; every
/// [`tick`] inside charges it.  Scopes nest (the innermost wins) and the
/// previous guard is restored even when `f` unwinds.
pub fn scope<R>(guard: &Guard, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|slot| slot.borrow_mut().replace(guard.clone()));
    let _restore = Restore(previous);
    f()
}

/// [`scope`] for an optional guard: installs it when present, otherwise
/// runs `f` unguarded.  This is what pool workers use to re-enter the
/// guard their spawner captured with [`current`].
pub fn maybe_scope<R>(guard: Option<&Guard>, f: impl FnOnce() -> R) -> R {
    match guard {
        Some(g) => scope(g, f),
        None => f(),
    }
}

/// The guard installed on this thread, if any (a cheap `Arc` clone).
pub fn current() -> Option<Guard> {
    CURRENT.with(|slot| slot.borrow().clone())
}

/// Mirrors a checkpoint's work units into the trace registry's per-stage
/// tick slots, so a profile reports cooperative work per stage even when
/// no budget guard is installed.  Only called when tracing is enabled; the
/// slot names register once per process.
fn mirror_tick(stage: Stage, units: u64) {
    static NAMED: Once = Once::new();
    NAMED.call_once(|| {
        for stage in ALL_STAGES {
            rcp_trace::name_tick_slot(stage as usize, stage.as_str());
        }
    });
    rcp_trace::tick_slot(stage as usize, units);
}

/// The cooperative checkpoint: charges `units` of work at `stage` to the
/// current guard.  No guard installed: a no-op.  Budget exhausted: unwinds
/// with a [`BudgetExceeded`] payload, to be caught by the session
/// boundary's [`catch`].
// The unwind IS the mechanism here: `panic_any` with a typed payload is
// how a checkpoint deep inside a solver returns control to the session
// boundary's `catch` without threading Results through every layer.  The
// panic-hygiene gate (CI clippy job) bans ad-hoc panics; this crate is the
// one sanctioned thrower.
#[allow(clippy::panic)]
pub fn tick(stage: Stage, units: u64) {
    // When tracing is enabled (one relaxed load otherwise), the per-stage
    // tick slots get the same units the budget would be charged — the
    // profile's "work ticks" column.
    if rcp_trace::enabled() {
        mirror_tick(stage, units);
    }
    // Charge through the borrow rather than cloning the guard out: a clone
    // is two extra atomic refcount operations per checkpoint, which at
    // thousands of checkpoints per analysis is the difference between the
    // documented <1% overhead budget and blowing it.
    let exceeded = CURRENT.with(|slot| match slot.borrow().as_ref() {
        Some(guard) => guard.charge(stage, units).err(),
        None => None,
    });
    if let Some(exceeded) = exceeded {
        suppress_control_flow_panic_output();
        std::panic::panic_any(exceeded);
    }
}

/// A hard limit that holds whether or not a guard is installed: when
/// `spent` exceeds `limit`, unwinds with a [`BudgetExceeded`] payload for
/// `resource` at `stage`, exactly like a tripped [`tick`], to be caught by
/// the session boundary's [`catch`].  The runtime calls it before laying
/// out an array box too large for the writes it holds, so that the
/// refusal is a typed error instead of an allocation failure.
// Sanctioned `panic_any` (see `tick`).
#[allow(clippy::panic)]
pub fn limit(stage: Stage, resource: Resource, spent: u64, limit: u64) {
    if spent > limit {
        suppress_control_flow_panic_output();
        std::panic::panic_any(BudgetExceeded {
            stage,
            resource,
            spent,
            limit,
        });
    }
}

/// A panic captured at a boundary and converted to data: the downcast
/// message plus the context frames (innermost first) pushed by each
/// [`resume_with_context`] the unwind crossed — "par_map item 13",
/// "executor worker 2".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedPanic {
    /// The downcast panic message (`&str`/`String` payloads), or a
    /// placeholder for opaque payloads.
    pub message: String,
    /// Context frames, innermost first.
    pub context: Vec<String>,
}

impl fmt::Display for CapturedPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if !self.context.is_empty() {
            write!(f, " (in {})", self.context.join(", in "))?;
        }
        Ok(())
    }
}

impl std::error::Error for CapturedPanic {}

/// What [`catch`] caught: a tripped budget or a genuine panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// A budget checkpoint tripped ([`tick`]).
    Budget(BudgetExceeded),
    /// Anything else unwound; the payload as data.
    Panic(CapturedPanic),
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Budget(b) => b.fmt(f),
            Interrupt::Panic(p) => write!(f, "panic: {p}"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The best-effort text of an arbitrary panic payload (`&str` and `String`
/// payloads downcast; everything else gets a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(b) = payload.downcast_ref::<BudgetExceeded>() {
        b.to_string()
    } else if let Some(p) = payload.downcast_ref::<CapturedPanic>() {
        p.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f` and converts any unwind into a typed [`Interrupt`].  This is
/// the single conversion point the session pipeline (and the CLI top
/// level) uses: a [`BudgetExceeded`] payload stays structured, a
/// [`CapturedPanic`] keeps its context frames, and any foreign payload is
/// downcast to its message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, Interrupt> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => Err(interrupt_of(payload)),
    }
}

/// Converts a raw unwind payload into an [`Interrupt`] (see [`catch`]).
pub fn interrupt_of(payload: Box<dyn Any + Send>) -> Interrupt {
    match payload.downcast::<BudgetExceeded>() {
        Ok(exceeded) => Interrupt::Budget(*exceeded),
        Err(payload) => match payload.downcast::<CapturedPanic>() {
            Ok(captured) => Interrupt::Panic(*captured),
            Err(payload) => Interrupt::Panic(CapturedPanic {
                message: panic_message(payload.as_ref()),
                context: Vec::new(),
            }),
        },
    }
}

/// Attaches one context frame ("par_map item 13", "executor worker 2") to
/// a caught payload without re-raising it.  Budget payloads pass through
/// untouched — exhaustion inside a worker must reach the session boundary
/// as [`BudgetExceeded`], not as a generic panic; anything else becomes
/// (or extends) a [`CapturedPanic`].
pub fn with_context(payload: Box<dyn Any + Send>, context: String) -> Box<dyn Any + Send> {
    match payload.downcast::<BudgetExceeded>() {
        Ok(exceeded) => exceeded,
        Err(payload) => match payload.downcast::<CapturedPanic>() {
            Ok(mut captured) => {
                captured.context.push(context);
                captured
            }
            Err(payload) => Box::new(CapturedPanic {
                message: panic_message(payload.as_ref()),
                context: vec![context],
            }),
        },
    }
}

/// Re-raises a caught payload with one more context frame attached (see
/// [`with_context`]).
// Sanctioned `panic_any` (see `tick`): re-raising a caught unwind with its
// typed payload is this crate's control-flow mechanism.
#[allow(clippy::panic)]
pub fn resume_with_context(payload: Box<dyn Any + Send>, context: String) -> ! {
    suppress_control_flow_panic_output();
    let payload = with_context(payload, context);
    match payload.downcast::<BudgetExceeded>() {
        Ok(exceeded) => std::panic::panic_any(*exceeded),
        Err(payload) => match payload.downcast::<CapturedPanic>() {
            Ok(captured) => std::panic::panic_any(*captured),
            // Unreachable: with_context only returns the two types above.
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that stays silent for the
/// crate's own control-flow payloads — [`BudgetExceeded`] and
/// [`CapturedPanic`] re-raises — and delegates every real panic to the
/// previously installed hook.  Without this, every budget trip would print
/// a `thread panicked` banner even though the unwind is caught and
/// converted to a typed error two frames up.
pub fn suppress_control_flow_panic_output() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<BudgetExceeded>() || payload.is::<CapturedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

/// The catalog of named fault-injection sites, one per expensive seam of
/// the pipeline.  The list is always available (docs, CLI validation); the
/// sites only *fire* when the crate is built with the `failpoints` feature
/// and the site is [`arm`]ed.
///
/// | site | seam |
/// |---|---|
/// | `intlin::hnf` | Hermite-normal-form solve (cache miss path) |
/// | `intlin::dio` | diophantine solve (cache miss path) |
/// | `intlin::cache-lookup` | inside the memo-cache lock — a panic here poisons the cache |
/// | `presburger::fm` | Fourier–Motzkin feasibility elimination |
/// | `presburger::emptiness` | emptiness-cache miss computation |
/// | `depend::screen` | pair-space screening pass |
/// | `depend::pair-analysis` | per-reference-pair relation construction (pool worker) |
/// | `core::chains` | recurrence-chain enumeration |
/// | `session::partition` | concrete partition stage construction |
/// | `runtime::phase` | executor phase body (every thread that runs a block) |
/// | `runtime::barrier` | executor barrier closing a multi-unit phase |
pub const FAILPOINT_SITES: &[&str] = &[
    "intlin::hnf",
    "intlin::dio",
    "intlin::cache-lookup",
    "presburger::fm",
    "presburger::emptiness",
    "depend::screen",
    "depend::pair-analysis",
    "core::chains",
    "session::partition",
    "runtime::phase",
    "runtime::barrier",
];

/// The fault a site injects when armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Unwind with a plain string payload — a stand-in for a solver bug,
    /// an oversized intermediate set tripping an internal assert, or a
    /// poisoned cache (when the site sits inside a lock).
    Panic,
    /// Unwind with a [`BudgetExceeded`] payload — budget exhaustion
    /// mid-stage, regardless of the configured budget.
    BudgetExhaust,
}

impl Fault {
    /// The stable name (`panic` / `budget-exhaust`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::BudgetExhaust => "budget-exhaust",
        }
    }

    /// Parses the stable name.
    pub fn parse(text: &str) -> Option<Fault> {
        match text {
            "panic" => Some(Fault::Panic),
            "budget-exhaust" => Some(Fault::BudgetExhaust),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// True when fault injection is compiled in (`failpoints` feature).
pub fn failpoints_enabled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::Fault;
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct ArmedSite {
        fault: Fault,
        /// Fires left before the site goes quiet.  One-shot by default: a
        /// fault models an *event* (one solver call blowing up, one worker
        /// dying), and firing once is what lets the oracle then verify the
        /// recovery path — the degraded rungs legitimately re-enter the
        /// same seams, and a permanently-armed site would fault the
        /// recovery itself.
        remaining: u64,
        fired: u64,
    }

    static ARMED: Mutex<Option<HashMap<&'static str, ArmedSite>>> = Mutex::new(None);

    fn canonical(site: &str) -> Option<&'static str> {
        super::FAILPOINT_SITES.iter().copied().find(|s| *s == site)
    }

    pub fn arm(site: &str, fault: Fault) -> Result<(), String> {
        let site = canonical(site)
            .ok_or_else(|| format!("unknown failpoint `{site}` (see FAILPOINT_SITES)"))?;
        let mut guard = lock();
        guard.get_or_insert_with(HashMap::new).insert(
            site,
            ArmedSite {
                fault,
                remaining: 1,
                fired: 0,
            },
        );
        Ok(())
    }

    pub fn disarm_all() {
        *lock() = None;
    }

    pub fn armed() -> Vec<(&'static str, Fault)> {
        lock()
            .as_ref()
            .map(|map| {
                let mut out: Vec<(&'static str, Fault)> = map
                    .iter()
                    .map(|(site, armed)| (*site, armed.fault))
                    .collect();
                out.sort_unstable_by_key(|(site, _)| *site);
                out
            })
            .unwrap_or_default()
    }

    pub fn fire_count(site: &str) -> u64 {
        lock()
            .as_ref()
            .and_then(|map| map.get(site).map(|armed| armed.fired))
            .unwrap_or(0)
    }

    pub fn should_fire(site: &'static str) -> Option<Fault> {
        let mut guard = lock();
        let map = guard.as_mut()?;
        let armed = map.get_mut(site)?;
        if armed.remaining == 0 {
            return None;
        }
        armed.remaining -= 1;
        armed.fired += 1;
        Some(armed.fault)
    }

    fn lock() -> std::sync::MutexGuard<'static, Option<HashMap<&'static str, ArmedSite>>> {
        // The registry must survive an injected panic raised under its own
        // lock (a worker firing while another thread arms): recover rather
        // than cascade.
        match ARMED.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                ARMED.clear_poison();
                poisoned.into_inner()
            }
        }
    }
}

/// Arms `site` to inject `fault` on its next execution — **one shot**: the
/// site goes quiet after firing once, so the recovery path (degraded
/// rungs, cache rebuilds) can be verified rather than re-faulted.  Errors
/// when the site is unknown or fault injection is not compiled in.
pub fn arm(site: &str, fault: Fault) -> Result<(), String> {
    #[cfg(feature = "failpoints")]
    {
        registry::arm(site, fault)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = (site, fault);
        Err("fault injection is not compiled in (rebuild with --features failpoints)".to_string())
    }
}

/// Disarms every armed site and resets fire counters.
pub fn disarm_all() {
    #[cfg(feature = "failpoints")]
    registry::disarm_all();
}

/// The currently armed sites, sorted by name.
pub fn armed() -> Vec<(&'static str, Fault)> {
    #[cfg(feature = "failpoints")]
    {
        registry::armed()
    }
    #[cfg(not(feature = "failpoints"))]
    {
        Vec::new()
    }
}

/// How many times `site` fired since it was armed.
pub fn fire_count(site: &str) -> u64 {
    #[cfg(feature = "failpoints")]
    {
        registry::fire_count(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        0
    }
}

/// A named fault-injection site.  Compiled without the `failpoints`
/// feature this is an empty inline function; with it, an armed site
/// unwinds with the armed fault ([`Fault::Panic`] as a string payload,
/// [`Fault::BudgetExhaust`] as a [`BudgetExceeded`] attributed to
/// `stage`).
#[inline]
pub fn fail_point(site: &'static str, stage: Stage) {
    #[cfg(feature = "failpoints")]
    {
        if let Some(fault) = registry::should_fire(site) {
            suppress_control_flow_panic_output();
            match fault {
                // A CapturedPanic payload (not a bare String) so the quiet
                // hook stays silent for the thousands of intentional unwinds
                // a chaos campaign raises, while genuine panics stay loud.
                Fault::Panic => std::panic::panic_any(CapturedPanic {
                    message: format!("injected fault: panic at failpoint `{site}`"),
                    context: Vec::new(),
                }),
                Fault::BudgetExhaust => {
                    let spent = current().map_or(0, |g| g.work_spent());
                    std::panic::panic_any(BudgetExceeded {
                        stage,
                        resource: Resource::WorkUnits,
                        spent,
                        limit: spent,
                    })
                }
            }
        }
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = (site, stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budgets_never_trip() {
        let guard = Guard::new(BudgetSpec::unlimited());
        scope(&guard, || {
            for _ in 0..10_000 {
                tick(Stage::IntSolve, 1_000);
            }
        });
        assert_eq!(guard.work_spent(), 10_000_000);
    }

    #[test]
    fn hard_limits_hold_without_a_guard() {
        assert!(current().is_none());
        assert_eq!(
            catch(|| limit(Stage::Execution, Resource::Cells, 10, 10)),
            Ok(())
        );
        match catch(|| limit(Stage::Execution, Resource::Cells, 11, 10)) {
            Err(Interrupt::Budget(b)) => {
                assert_eq!(
                    (b.stage, b.resource, b.spent, b.limit),
                    (Stage::Execution, Resource::Cells, 11, 10)
                );
                assert!(b.to_string().contains("11 of 10 cells"), "{b}");
            }
            other => panic!("expected a cells refusal, got {other:?}"),
        }
    }

    #[test]
    fn work_budgets_trip_with_the_right_payload() {
        let guard = Guard::new(BudgetSpec::unlimited().with_max_work(10));
        let outcome = scope(&guard, || {
            catch(|| {
                for _ in 0..100 {
                    tick(Stage::FmProjection, 3);
                }
            })
        });
        match outcome {
            Err(Interrupt::Budget(b)) => {
                assert_eq!(b.stage, Stage::FmProjection);
                assert_eq!(b.resource, Resource::WorkUnits);
                assert_eq!(b.limit, 10);
                assert_eq!(b.spent, 12, "trips on the first charge past the limit");
                assert!(b.to_string().contains("fm-projection"), "{b}");
            }
            other => panic!("expected a budget interrupt, got {other:?}"),
        }
    }

    #[test]
    fn ticks_without_a_scope_are_noops() {
        tick(Stage::Analysis, u64::MAX);
        tick(Stage::Analysis, u64::MAX);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Guard::new(BudgetSpec::unlimited());
        let inner = Guard::new(BudgetSpec::unlimited());
        scope(&outer, || {
            tick(Stage::Analysis, 1);
            scope(&inner, || tick(Stage::Analysis, 5));
            tick(Stage::Analysis, 1);
        });
        assert_eq!(outer.work_spent(), 2);
        assert_eq!(inner.work_spent(), 5);
        assert!(current().is_none(), "scope exit must clear the slot");
    }

    #[test]
    fn scopes_restore_across_unwinds() {
        let guard = Guard::new(BudgetSpec::unlimited().with_max_work(1));
        let result = catch(|| scope(&guard, || tick(Stage::Partition, 2)));
        assert!(matches!(result, Err(Interrupt::Budget(_))));
        assert!(current().is_none(), "an unwind must still restore the slot");
    }

    #[test]
    fn catch_downcasts_foreign_payloads() {
        let result: Result<(), Interrupt> = catch(|| panic!("boom {n}", n = 42));
        match result {
            Err(Interrupt::Panic(p)) => {
                assert_eq!(p.message, "boom 42");
                assert!(p.context.is_empty());
            }
            other => panic!("expected a panic interrupt, got {other:?}"),
        }
    }

    #[test]
    fn context_frames_accumulate_and_budgets_pass_through() {
        // A foreign panic gains a frame per boundary.
        let result: Result<(), Interrupt> = catch(|| {
            let payload = std::panic::catch_unwind(|| panic!("inner")).unwrap_err();
            resume_with_context(payload, "worker 3".to_string());
        });
        match result {
            Err(Interrupt::Panic(p)) => {
                assert_eq!(p.message, "inner");
                assert_eq!(p.context, vec!["worker 3".to_string()]);
                assert!(p.to_string().contains("in worker 3"), "{p}");
            }
            other => panic!("expected a panic interrupt, got {other:?}"),
        }
        // A budget payload crosses the boundary unchanged.
        let guard = Guard::new(BudgetSpec::unlimited().with_max_work(0));
        let result: Result<(), Interrupt> = catch(|| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scope(&guard, || tick(Stage::Execution, 1))
            }))
            .unwrap_err();
            resume_with_context(payload, "worker 0".to_string());
        });
        assert!(matches!(result, Err(Interrupt::Budget(b)) if b.stage == Stage::Execution));
    }

    #[test]
    fn deadline_budgets_trip_on_elapsed_time() {
        let guard = Guard::new(BudgetSpec::unlimited().with_deadline_ms(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let outcome = scope(&guard, || catch(|| tick(Stage::Analysis, 1)));
        match outcome {
            Err(Interrupt::Budget(b)) => assert_eq!(b.resource, Resource::Millis),
            other => panic!("expected a deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn failpoint_catalog_is_wellformed() {
        assert!(FAILPOINT_SITES.len() >= 10, "the catalog names ~10 sites");
        let mut sorted = FAILPOINT_SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), FAILPOINT_SITES.len(), "no duplicate sites");
        for site in FAILPOINT_SITES {
            assert!(site.contains("::"), "site `{site}` must name its crate");
        }
        assert_eq!(Fault::parse("panic"), Some(Fault::Panic));
        assert_eq!(Fault::parse("budget-exhaust"), Some(Fault::BudgetExhaust));
        assert_eq!(Fault::parse("nope"), None);
    }

    #[test]
    fn disarmed_failpoints_are_silent() {
        // Regardless of the feature, an unarmed site never fires.
        fail_point("intlin::hnf", Stage::IntSolve);
        if !failpoints_enabled() {
            assert!(arm("intlin::hnf", Fault::Panic).is_err());
            assert!(armed().is_empty());
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_failpoints_fire_and_count() {
        // Serialise against other failpoint tests via the registry itself.
        disarm_all();
        arm("presburger::fm", Fault::Panic).unwrap();
        assert_eq!(armed(), vec![("presburger::fm", Fault::Panic)]);
        let result = catch(|| fail_point("presburger::fm", Stage::FmProjection));
        match result {
            Err(Interrupt::Panic(p)) => assert!(p.message.contains("presburger::fm"), "{p}"),
            other => panic!("expected the injected panic, got {other:?}"),
        }
        assert_eq!(fire_count("presburger::fm"), 1);
        // One-shot: the second pass through the site is silent.
        let ok = catch(|| fail_point("presburger::fm", Stage::FmProjection));
        assert!(ok.is_ok(), "a fired site must go quiet");
        assert_eq!(fire_count("presburger::fm"), 1);
        arm("intlin::dio", Fault::BudgetExhaust).unwrap();
        let result = catch(|| fail_point("intlin::dio", Stage::IntSolve));
        assert!(matches!(result, Err(Interrupt::Budget(b)) if b.stage == Stage::IntSolve));
        disarm_all();
        assert!(armed().is_empty());
        assert_eq!(fire_count("presburger::fm"), 0);
        let ok = catch(|| fail_point("presburger::fm", Stage::FmProjection));
        assert!(ok.is_ok(), "disarmed sites must be silent");
    }
}
