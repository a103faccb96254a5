//! The single configuration object of the session pipeline.
//!
//! Everything the old free-function pipeline took as scattered per-call
//! arguments — parameter bindings, thread count, granularity forcing, the
//! partitioning scheme, cache behaviour — lives in one [`Config`] that a
//! [`crate::Session`] carries through every stage.

use rcp_loopir::Program;

use crate::error::RcpError;

/// The granularity a session analyses programs at (the CLI's
/// `--granularity loop|stmt|auto`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GranularityChoice {
    /// Perfect nests at loop level, everything else at statement level —
    /// the historical behaviour.
    #[default]
    Auto,
    /// Force loop level.  Perfect nests use the classic §2 space;
    /// imperfect nests use the aggregated loop-group view (one point per
    /// iteration of each top-level nest's maximal perfect prefix).
    /// Programs with no loop-level view at all (a bare top-level
    /// statement) are rejected with a typed error.
    Loop,
    /// Force the statement-level unified index space (the CLI's
    /// `--stmt`).
    Statement,
}

impl GranularityChoice {
    /// Parses the CLI spelling (`loop`, `stmt`/`statement`, `auto`).
    pub fn parse(text: &str) -> Option<GranularityChoice> {
        match text {
            "loop" => Some(GranularityChoice::Loop),
            "stmt" | "statement" => Some(GranularityChoice::Statement),
            "auto" => Some(GranularityChoice::Auto),
            _ => None,
        }
    }
}

/// Configuration shared by every stage of a [`crate::Session`].
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// `PARAM` bindings, in command-line order (`--param NAME=VALUE`).
    /// Later bindings of the same name win.
    pub params: Vec<(String, i64)>,
    /// Worker threads for parallel execution and verification.
    pub threads: usize,
    /// The granularity programs are analysed at (`--granularity`, with
    /// `--stmt` as the historical spelling of
    /// [`GranularityChoice::Statement`]).
    pub granularity: GranularityChoice,
    /// The partitioning scheme to schedule with; `None` selects the
    /// recurrence-chains scheme (Algorithm 1 with its dataflow fallback).
    /// Names resolve through the [`crate::registry`].
    pub scheme: Option<String>,
    /// Memoise concrete partition stages per parameter binding, so one
    /// [`crate::Analyzed`] can be re-partitioned for many bindings and
    /// thread counts without recomputing anything.
    pub reuse_partitions: bool,
    /// Keep the workspace solver caches (HNF/diophantine, Fourier–Motzkin
    /// emptiness) warm across analyses.  `false` resets them before every
    /// analysis — cold, reproducible timings for measurement harnesses.
    ///
    /// **Caveat:** those caches are process-global, so a cold-cache
    /// session resets them for *every* session in the process.  Only use
    /// this from a harness that owns the process and runs sessions
    /// serially (the cache results themselves are bit-identical either
    /// way, so correctness is unaffected — only warm-timing measurements
    /// and hit-rate counters of concurrent sessions would be skewed).
    pub warm_caches: bool,
    /// The resource budget (work units and/or a wall-clock deadline)
    /// enforced at the pipeline's cooperative checkpoints; `None` runs
    /// unguarded (no budget, no per-checkpoint overhead beyond a
    /// thread-local read).  The CLI's `--budget-work` / `--budget-ms`.
    pub budget: Option<rcp_guard::BudgetSpec>,
    /// When a budget is exhausted, walk the degradation ladder (exact →
    /// screened-conservative → sequential) instead of failing with
    /// [`RcpError::BudgetExceeded`].  `true` by default; the CLI's
    /// `--no-degrade` clears it.
    pub degrade: bool,
    /// Record [`rcp_trace`] spans and metrics while this session runs (the
    /// CLI's `--profile`).  Tracing is a process-global switch: a session
    /// built with `tracing` flips it on at stage entry (one relaxed store)
    /// and leaves it on — the harness that wants a bounded window calls
    /// [`rcp_trace::set_enabled`]`(false)` and [`rcp_trace::reset`] itself.
    /// `false` (the default) never touches the switch, so an untraced
    /// session costs one relaxed load per would-be span.
    pub tracing: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            params: Vec::new(),
            threads: 4,
            granularity: GranularityChoice::Auto,
            scheme: None,
            reuse_partitions: true,
            warm_caches: true,
            budget: None,
            degrade: true,
            tracing: false,
        }
    }
}

impl Config {
    /// A default configuration.
    pub fn new() -> Self {
        Config::default()
    }

    /// Adds one parameter binding (later bindings of a name win).
    pub fn with_param(mut self, name: &str, value: i64) -> Self {
        self.params.push((name.to_string(), value));
        self
    }

    /// Replaces the parameter bindings.
    pub fn with_params(mut self, params: &[(&str, i64)]) -> Self {
        self.params = params.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        self
    }

    /// Sets the worker thread count for execution and verification.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the analysis granularity.
    pub fn with_granularity(mut self, granularity: GranularityChoice) -> Self {
        self.granularity = granularity;
        self
    }

    /// Disables the per-binding partition memo (every call recomputes).
    pub fn without_partition_reuse(mut self) -> Self {
        self.reuse_partitions = false;
        self
    }

    /// Resets the solver caches before every analysis (cold timings).
    pub fn with_cold_caches(mut self) -> Self {
        self.warm_caches = false;
        self
    }

    /// Enforces `budget` at the pipeline's cooperative checkpoints.
    pub fn with_budget(mut self, budget: rcp_guard::BudgetSpec) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Caps the cooperative work-unit counter (see
    /// [`rcp_guard::BudgetSpec::with_max_work`]).
    pub fn with_work_budget(mut self, units: u64) -> Self {
        let spec = self.budget.take().unwrap_or_default().with_max_work(units);
        self.budget = Some(spec);
        self
    }

    /// Sets a wall-clock deadline in milliseconds for guarded stages.
    pub fn with_deadline_ms(mut self, millis: u64) -> Self {
        let spec = self
            .budget
            .take()
            .unwrap_or_default()
            .with_deadline_ms(millis);
        self.budget = Some(spec);
        self
    }

    /// Makes budget exhaustion a hard [`RcpError::BudgetExceeded`] instead
    /// of walking the degradation ladder.
    pub fn without_degradation(mut self) -> Self {
        self.degrade = false;
        self
    }

    /// Records [`rcp_trace`] spans and metrics while the session runs
    /// (see the [`Config::tracing`] field for the global-switch caveat).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Resolves this configuration's bindings (optionally overridden by
    /// `overrides`, which win) against a program's declared parameters, in
    /// declaration order.  Every declared parameter must be bound and
    /// every binding must name a declared parameter.
    pub fn resolve_params(
        &self,
        program: &Program,
        overrides: &[(String, i64)],
    ) -> Result<Vec<i64>, RcpError> {
        let bindings: Vec<&(String, i64)> = self.params.iter().chain(overrides).collect();
        for (name, _) in &bindings {
            if !program.params.iter().any(|p| p == name) {
                return Err(RcpError::UnknownParameter {
                    program: program.name.clone(),
                    name: name.clone(),
                    declared: program.params.clone(),
                });
            }
        }
        program
            .params
            .iter()
            .map(|p| {
                bindings
                    .iter()
                    .rev()
                    .find(|(name, _)| name == p)
                    .map(|(_, value)| *value)
                    .ok_or_else(|| RcpError::MissingParameter {
                        program: program.name.clone(),
                        name: p.clone(),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_param_program() -> Program {
        rcp_lang::parse_program(
            "PROGRAM p\nPARAM N1, N2\nDO I = 1, N1\n  S: a(I) = a(I)\nENDDO\nEND\n",
        )
        .unwrap()
    }

    #[test]
    fn later_bindings_win_and_order_follows_the_declaration() {
        let config = Config::new()
            .with_param("N2", 5)
            .with_param("N1", 3)
            .with_param("N1", 7);
        let values = config.resolve_params(&two_param_program(), &[]).unwrap();
        assert_eq!(values, vec![7, 5]);
    }

    #[test]
    fn overrides_beat_the_config() {
        let config = Config::new().with_param("N1", 3).with_param("N2", 5);
        let values = config
            .resolve_params(&two_param_program(), &[("N1".to_string(), 100)])
            .unwrap();
        assert_eq!(values, vec![100, 5]);
    }

    #[test]
    fn missing_and_unknown_parameters_are_typed() {
        let program = two_param_program();
        let err = Config::new()
            .with_param("N1", 1)
            .resolve_params(&program, &[])
            .unwrap_err();
        assert_eq!(
            err,
            RcpError::MissingParameter {
                program: "p".into(),
                name: "N2".into()
            }
        );
        let err = Config::new()
            .with_params(&[("N1", 1), ("N2", 1), ("Q", 1)])
            .resolve_params(&program, &[])
            .unwrap_err();
        assert!(matches!(err, RcpError::UnknownParameter { ref name, .. } if name == "Q"));
        assert!(err.to_string().contains("no parameter `Q`"));
    }
}
