//! The shared command surface: one rendering path for `rcp
//! analyze|partition|codegen|run` and the matching `rcpd` endpoints.
//!
//! These handlers used to live in `rcp-cli`; they moved here so the
//! daemon and the CLI cannot drift — `POST /v1/analyze` and `rcp analyze
//! --json` produce bit-identical payloads because they are the same
//! function.  Each command has two entry points:
//!
//! * `cmd_*(source, origin, opts)` — the CLI shape: build a session from
//!   [`Options`], parse, render.
//! * `*_report(&Analyzed, overrides)` — the server shape: the expensive
//!   [`Analyzed`] stage comes out of the content-addressed cache and the
//!   request's parameter bindings are applied as overrides
//!   ([`Analyzed::partition_with`]), so a warm request re-runs no
//!   analysis.

use rcp_core::ConcretePartition;
use rcp_depend::Granularity;
use rcp_json::{json, Json};
use rcp_loopir::Program;
use rcp_session::{Analyzed, Config, GranularityChoice, Partitioned, RcpError, Session};

/// Options shared by the subcommands — the CLI-argument mirror of the
/// session [`Config`].
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// `--param NAME=VALUE` bindings, in command-line order.
    pub params: Vec<(String, i64)>,
    /// `--threads N` (run/bench); `None` keeps the session default (4).
    pub threads: Option<usize>,
    /// `--granularity loop|stmt|auto` (with `--stmt` as the historical
    /// spelling of `stmt`).
    pub granularity: GranularityChoice,
    /// `--scheme NAME`: schedule with a named registry scheme instead of
    /// the default recurrence-chains scheme (run/bench).
    pub scheme: Option<String>,
    /// `--budget-work N`: cap the cooperative work-unit counter.
    pub budget_work: Option<u64>,
    /// `--budget-ms N`: wall-clock deadline for guarded stages.
    pub budget_ms: Option<u64>,
    /// `--no-degrade`: make budget exhaustion a hard error instead of
    /// walking the degradation ladder.
    pub no_degrade: bool,
    /// `--profile` / `--profile-json`: record [`rcp_trace`] spans and
    /// metrics while the command runs and append the profile to the
    /// report.
    pub profile: bool,
}

impl Options {
    /// The session configuration these options denote.
    pub fn to_config(&self) -> Config {
        let mut config = Config::new();
        config.params = self.params.clone();
        if let Some(threads) = self.threads {
            config.threads = threads.max(1);
        }
        config.granularity = self.granularity;
        config.scheme = self.scheme.clone();
        if let Some(units) = self.budget_work {
            config = config.with_work_budget(units);
        }
        if let Some(millis) = self.budget_ms {
            config = config.with_deadline_ms(millis);
        }
        config.degrade = !self.no_degrade;
        if self.profile {
            config = config.with_tracing();
        }
        config
    }

    /// The session these options denote.
    pub fn session(&self) -> Session {
        Session::with_config(self.to_config())
    }
}

/// The outcome of one subcommand.
#[derive(Clone, Debug)]
pub struct Report {
    /// Human-readable report.
    pub text: String,
    /// Machine-readable payload (printed under `--json`; served verbatim
    /// as the `rcpd` response body).
    pub data: Json,
    /// True when the command ran but its verdict is a failure (e.g. a
    /// parallel run that diverged from the sequential reference); the
    /// binary exits non-zero.
    pub failed: bool,
}

impl Report {
    /// A successful report (the common case).
    pub fn ok(text: String, data: Json) -> Self {
        Report {
            text,
            data,
            failed: false,
        }
    }
}

fn granularity_name(g: Granularity) -> &'static str {
    match g {
        Granularity::LoopLevel => "loop",
        Granularity::StatementLevel => "statement",
    }
}

/// The `"params"` object of a report: declared parameter names zipped
/// with their concrete values.
pub fn params_object(program: &Program, values: &[i64]) -> Json {
    Json::Object(
        program
            .params
            .iter()
            .zip(values)
            .map(|(name, &value)| (name.clone(), Json::Int(value)))
            .collect(),
    )
}

fn param_list(program: &Program, values: &[i64]) -> String {
    program
        .params
        .iter()
        .zip(values)
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The fallback reason of a stage, when Algorithm 1 did not take its
/// recurrence-chain branch (`None` when it did).
fn fallback_reason(stage: &Partitioned) -> Option<String> {
    stage.plan_unavailability().map(|r| r.to_string())
}

/// The `fallback_reason` a report emits: the strategy-level reason when
/// Algorithm 1 fell back to dataflow, else — for programs on the
/// recurrence-chain branch whose stage still took the legacy per-binding
/// concrete rung — the typed reason the symbolic plan could not
/// instantiate this binding directly.  `None` on the pure symbolic path.
fn emitted_fallback_reason(
    stage: &Partitioned,
    strategy_reason: &Option<String>,
) -> Option<String> {
    strategy_reason
        .clone()
        .or_else(|| stage.concrete_reason().map(|r| r.to_string()))
}

/// The machine-readable rendering of a failed command: under `--json` the
/// binary prints this single object, whose `error` field carries the typed
/// [`RcpError`] Display (`tests/robustness.rs` pins the round-trip).  The
/// server uses the same shape for its error bodies, with the HTTP status
/// carrying the [`crate::status_for`] classification.
pub fn error_json(error: &RcpError) -> Json {
    json!({ "error": error.to_string() })
}

/// Renders the post-budget `rcp analyze` report: the rung of the
/// degradation ladder, the typed cause, and — on the screened-conservative
/// rung — the screen-only pass that replaces the exact analysis.  The
/// result is weaker but never wrong, so the command still succeeds.
fn degraded_analyze(
    analyzed: &Analyzed,
    report: &rcp_session::DegradationReport,
    overrides: &[(String, i64)],
) -> Result<Report, RcpError> {
    let program = analyzed.program();
    let values = analyzed.config().resolve_params(program, overrides)?;
    let mut text = format!(
        "program `{}` at [{}]: analysis degraded to {}\n\
         \x20 cause                  {}\n",
        program.name,
        param_list(program, &values),
        report.level,
        report.cause,
    );
    let mut fields = vec![
        ("program".to_string(), Json::Str(program.name.clone())),
        ("params".to_string(), params_object(program, &values)),
        (
            "degradation".to_string(),
            Json::Str(report.level.as_str().to_string()),
        ),
        (
            "degradation_cause".to_string(),
            Json::Str(report.cause.to_string()),
        ),
    ];
    if let Some(screen) = &report.screen {
        text.push_str(&format!(
            "\x20 screen-only pass       {} pair(s): {} proved independent, {} may-depend \
             ({} gcd, {} box, {} solver)\n",
            screen.n_pairs,
            screen.independent_pairs,
            screen.may_depend_pairs,
            screen.screen.by_gcd,
            screen.screen.by_bbox,
            screen.screen.by_solver,
        ));
        fields.push((
            "screen".to_string(),
            json!({
                "n_pairs": screen.n_pairs,
                "independent_pairs": screen.independent_pairs,
                "may_depend_pairs": screen.may_depend_pairs,
                "by_gcd": screen.screen.by_gcd,
                "by_bbox": screen.screen.by_bbox,
                "by_solver": screen.screen.by_solver,
            }),
        ));
    }
    text.push_str(
        "\x20 guarantee              every reported independence is sound; \
         sequential execution remains available\n",
    );
    Ok(Report::ok(text, Json::Object(fields)))
}

/// The `analyze` report of an already-analysed program at the given
/// parameter overrides (the server's warm path; `overrides` win over the
/// configuration's bindings).  The JSON payload is deterministic (no wall
/// clock), so CI can diff it against a golden file.
pub fn analyze_report(
    analyzed: &Analyzed,
    overrides: &[(String, i64)],
) -> Result<Report, RcpError> {
    // The report reads Rd, which reads the analysis: built by the load
    // when the program's partition reads it, otherwise here, by the first
    // checked call that asks, under the request's budget.  Either way a
    // budget trip there leaves the session on a lower rung of the ladder.
    let counted = analyzed
        .partition_with(overrides)
        .and_then(|stage| Ok((stage.rd_checked()?.len(), stage)));
    if let Some(report) = analyzed.degradation() {
        return degraded_analyze(analyzed, report, overrides);
    }
    let (n_dependences, stage) = counted?;
    let program = analyzed.program();
    let analysis = stage.analysis();
    let uniformity = stage.uniformity();
    let n_distances = stage.n_distances();
    let reason = fallback_reason(&stage);
    // For aggregated loop-level views the planning branch alone is not
    // the whole story: the partitioner may still salvage a validated
    // chain-shaped partition.  Aggregated point spaces are small (outer
    // prefixes only), so report the strategy the partition actually
    // takes; for direct views keep the cheap plan-based answer.
    let strategy = if analysis.is_aggregated() {
        match stage.partition_checked()?.strategy() {
            rcp_core::Strategy::RecurrenceChains => "RecurrenceChains",
            rcp_core::Strategy::Dataflow => "Dataflow",
        }
    } else {
        match reason {
            None => "RecurrenceChains",
            Some(_) => "Dataflow",
        }
    };
    let screen = analysis.screen;
    let mut text = format!(
        "program `{}` at [{}], {}-level analysis (dim {}{}):\n\
         \x20 reference pairs        {}  ({} screened out: {} gcd, {} box, {} solver; \
         {} chain classes)\n\
         \x20 iterations |Phi|       {}\n\
         \x20 dependences |Rd|       {}\n\
         \x20 distinct distances     {}\n\
         \x20 classification         {:?}\n\
         \x20 Algorithm 1 branch     {}\n",
        program.name,
        param_list(program, stage.values()),
        granularity_name(analyzed.granularity()),
        analysis.dim,
        if analysis.is_aggregated() {
            ", aggregated"
        } else {
            ""
        },
        analysis.pairs.len(),
        analysis.n_screened_pairs,
        screen.by_gcd,
        screen.by_bbox,
        screen.by_solver,
        screen.n_classes,
        stage.phi().len(),
        n_dependences,
        n_distances,
        uniformity,
        strategy,
    );
    text.push_str(&format!(
        "\x20 symbolic plan          {}\n",
        if stage.instantiated() {
            "instantiable (any binding is an O(pieces) instantiation)".to_string()
        } else {
            match stage.concrete_reason() {
                Some(r) => format!("unavailable ({r})"),
                None => "unavailable".to_string(),
            }
        }
    ));
    let reason = emitted_fallback_reason(&stage, &reason);
    if let Some(reason) = &reason {
        text.push_str(&format!("  fallback reason        {reason}\n"));
    }
    let mut fields = vec![
        ("program".to_string(), Json::Str(program.name.clone())),
        ("params".to_string(), params_object(program, stage.values())),
        (
            "granularity".to_string(),
            Json::Str(granularity_name(analyzed.granularity()).to_string()),
        ),
        ("dim".to_string(), Json::Int(analysis.dim as i64)),
        (
            "n_ref_pairs".to_string(),
            Json::Int(analysis.pairs.len() as i64),
        ),
        (
            "n_screened_pairs".to_string(),
            Json::Int(analysis.n_screened_pairs as i64),
        ),
        (
            "screen".to_string(),
            json!({
                "by_gcd": screen.by_gcd,
                "by_bbox": screen.by_bbox,
                "by_solver": screen.by_solver,
                "shared_verdicts": screen.shared_verdicts,
                "n_classes": screen.n_classes,
                "n_shape_buckets": screen.n_shape_buckets,
            }),
        ),
        (
            "aggregated".to_string(),
            Json::Bool(analysis.is_aggregated()),
        ),
        (
            "n_iterations".to_string(),
            Json::Int(stage.phi().len() as i64),
        ),
        ("n_dependences".to_string(), Json::Int(n_dependences as i64)),
        (
            "n_distinct_distances".to_string(),
            Json::Int(n_distances as i64),
        ),
        (
            "uniformity".to_string(),
            Json::Str(format!("{uniformity:?}")),
        ),
        ("strategy".to_string(), Json::Str(strategy.to_string())),
        (
            "symbolic_instantiable".to_string(),
            Json::Bool(stage.instantiated()),
        ),
        (
            "degradation".to_string(),
            Json::Str(analyzed.degradation_level().as_str().to_string()),
        ),
    ];
    if let Some(reason) = reason {
        fields.push(("fallback_reason".to_string(), Json::Str(reason)));
    }
    Ok(Report::ok(text, Json::Object(fields)))
}

/// `rcp analyze`: exact dependence analysis and uniformity classification
/// at concrete parameter values.
pub fn cmd_analyze(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    let analyzed = opts.session().parse(source, origin)?;
    analyze_report(&analyzed, &[])
}

fn partition_json(
    program: &Program,
    values: &[i64],
    part: &ConcretePartition,
    plan: &'static str,
    reason: Option<&str>,
    valid: bool,
) -> Json {
    let stats = part.stats();
    let mut fields = vec![
        ("program".to_string(), Json::Str(program.name.clone())),
        ("params".to_string(), params_object(program, values)),
        (
            "strategy".to_string(),
            Json::Str(format!("{:?}", part.strategy())),
        ),
        ("plan".to_string(), Json::Str(plan.to_string())),
        ("n_phases".to_string(), Json::Int(stats.n_phases as i64)),
        (
            "critical_path".to_string(),
            Json::Int(stats.critical_path as i64),
        ),
        ("max_width".to_string(), Json::Int(stats.max_width as i64)),
        (
            "total_iterations".to_string(),
            Json::Int(stats.total_iterations as i64),
        ),
    ];
    match part {
        ConcretePartition::RecurrenceChains { three_set, chains } => {
            let longest = rcp_core::longest_chain(chains);
            fields.push(("p1".to_string(), Json::Int(three_set.p1.len() as i64)));
            fields.push(("p2".to_string(), Json::Int(chains.ids().len() as i64)));
            fields.push(("p3".to_string(), Json::Int(three_set.p3.len() as i64)));
            fields.push(("n_chains".to_string(), Json::Int(chains.len() as i64)));
            fields.push(("longest_chain".to_string(), Json::Int(longest as i64)));
        }
        ConcretePartition::Dataflow { stages } => {
            fields.push(("n_stages".to_string(), Json::Int(stages.n_stages() as i64)));
            fields.push((
                "max_stage".to_string(),
                Json::Int(stages.max_stage_size() as i64),
            ));
        }
    }
    if let Some(reason) = reason {
        fields.push(("fallback_reason".to_string(), Json::Str(reason.to_string())));
    }
    fields.push(("valid".to_string(), Json::Bool(valid)));
    Json::Object(fields)
}

/// The `partition` report of an already-analysed program at the given
/// parameter overrides: the Algorithm-1 partition with the full validity
/// check (coverage + every dependence respected).  When the program falls
/// back from recurrence chains, the report says *why* (the typed
/// `PlanUnavailable` reason) instead of silently switching strategy.
pub fn partition_report(
    analyzed: &Analyzed,
    overrides: &[(String, i64)],
) -> Result<Report, RcpError> {
    let stage = analyzed.partition_with(overrides)?;
    let program = analyzed.program();
    // The symbolic path already validated itself at instantiation time
    // (disjointness, coverage, chain cover, recurrence edges) and fell
    // back to the concrete rung on any problem; re-deriving Φ/Rd here
    // would forfeit the O(pieces) warm path it exists for.  Elsewhere the
    // partition, the analysis and Rd are computed here, under the
    // request's budget.
    let problems = if stage.instantiated() {
        Vec::new()
    } else {
        stage.validate_checked()?
    };
    let part = stage.partition();
    let stats = part.stats();
    let reason = fallback_reason(&stage);
    let mut text = format!(
        "program `{}`: {:?} partition ({}), {} phase(s), critical path {}, \
         max width {}, {} iteration(s)\n",
        program.name,
        part.strategy(),
        stage.plan_provenance(),
        stats.n_phases,
        stats.critical_path,
        stats.max_width,
        stats.total_iterations,
    );
    match part {
        ConcretePartition::RecurrenceChains { three_set, chains } => {
            text.push_str(&format!(
                "  three-set partition: |P1| = {}, |P2| = {} (in {} chain(s), longest {}), |P3| = {}\n",
                three_set.p1.len(),
                chains.ids().len(),
                chains.len(),
                rcp_core::longest_chain(chains),
                three_set.p3.len(),
            ));
        }
        ConcretePartition::Dataflow { stages } => {
            text.push_str(&format!(
                "  dataflow stages: {} (widest {})\n",
                stages.n_stages(),
                stages.max_stage_size(),
            ));
        }
    }
    if let Some(reason) = &reason {
        text.push_str(&format!("  recurrence chains unavailable: {reason}\n"));
    } else if let Some(gate) = stage.concrete_reason() {
        text.push_str(&format!("  symbolic instantiation unavailable: {gate}\n"));
    }
    let reason = emitted_fallback_reason(&stage, &reason);
    if problems.is_empty() {
        if stage.instantiated() {
            text.push_str(
                "  validation: ok (validated at instantiation against the symbolic plan)\n",
            );
        } else {
            text.push_str(
                "  validation: ok (every iteration scheduled once, all dependences respected)\n",
            );
        }
    } else {
        text.push_str(&format!("  validation: {} problem(s):\n", problems.len()));
        for p in problems.iter().take(5) {
            text.push_str(&format!("    {p}\n"));
        }
    }
    let data = partition_json(
        program,
        stage.values(),
        part,
        stage.plan_provenance(),
        reason.as_deref(),
        problems.is_empty(),
    );
    Ok(Report {
        text,
        data,
        failed: !problems.is_empty(),
    })
}

/// `rcp partition`: the Algorithm-1 partition at concrete parameters.
pub fn cmd_partition(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    let analyzed = opts.session().parse(source, origin)?;
    partition_report(&analyzed, &[])
}

/// The `codegen` report of an already-analysed program: the paper-style
/// DOALL/WHILE listing (then-branch) or a canonical-source fallback, with
/// the typed reason, for dataflow programs.
pub fn codegen_report(analyzed: &Analyzed) -> Result<Report, RcpError> {
    let program = analyzed.program();
    match analyzed.plan() {
        Ok(planned) => {
            let listing = planned.listing();
            let data = json!({
                "program": program.name,
                "strategy": "RecurrenceChains",
                "listing": listing,
            });
            Ok(Report::ok(listing, data))
        }
        Err(err) => {
            let reason = err
                .plan_reason()
                .map(|r| r.to_string())
                .ok_or(err.clone())?;
            let text = format!(
                "program `{}` takes Algorithm 1's dataflow branch ({reason}); its stages \
                 are enumerated at run time (`rcp partition`).  Canonical source:\n\n{}",
                program.name,
                rcp_lang::pretty(program)
            );
            let data = json!({
                "program": program.name,
                "strategy": "Dataflow",
                "fallback_reason": reason,
                "listing": Json::Null,
            });
            Ok(Report::ok(text, data))
        }
    }
}

/// `rcp codegen`: the paper-style DOALL/WHILE listing.
pub fn cmd_codegen(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    let analyzed = opts.session().parse(source, origin)?;
    codegen_report(&analyzed)
}

/// Partition + schedule under the configured scheme (the shared prefix of
/// `run` and `bench`).
pub fn scheduled_for(analyzed: &Analyzed) -> Result<rcp_session::Scheduled, RcpError> {
    analyzed.partition()?.schedule()
}

/// The `run` report of an already-analysed program at the given parameter
/// overrides: executes the schedule of the configured scheme and verifies
/// it bit for bit against the sequential reference.
pub fn run_report(analyzed: &Analyzed, overrides: &[(String, i64)]) -> Result<Report, RcpError> {
    let scheduled = analyzed.partition_with(overrides)?.schedule()?;
    let program = analyzed.program();
    // The budget-checked variant: with a budget set, execution and
    // verification run under the same guard as the analysis; without a
    // budget it is plain `verify()`.
    let verdict = scheduled.verify_checked()?;
    let threads = analyzed.config().threads;
    let text = format!(
        "program `{}`: executed {} instance(s) in {} phase(s) on {} thread(s) [scheme {}]\n\
         \x20 mismatches vs sequential: {}\n\
         \x20 races detected:           {}\n\
         \x20 verification:             {}\n",
        program.name,
        scheduled.schedule().n_instances(),
        scheduled.schedule().n_phases(),
        threads,
        scheduled.scheme(),
        verdict.mismatches.len(),
        verdict.races.len(),
        if verdict.passed() { "PASSED" } else { "FAILED" },
    );
    let data = json!({
        "program": program.name,
        "params": params_object(program, scheduled.partitioned().values()),
        "threads": threads,
        "scheme": scheduled.scheme(),
        "n_instances": scheduled.schedule().n_instances(),
        "n_phases": scheduled.schedule().n_phases(),
        "mismatches": verdict.mismatches.len(),
        "races": verdict.races.len(),
        "passed": verdict.passed(),
    });
    Ok(Report {
        text,
        data,
        failed: !verdict.passed(),
    })
}

/// `rcp run`: executes the schedule of the configured scheme and verifies
/// it bit for bit against the sequential reference.
pub fn cmd_run(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    let analyzed = opts.session().parse(source, origin)?;
    run_report(&analyzed, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_session::Session;

    #[test]
    fn a_warm_report_is_byte_identical_to_the_cold_one() {
        // The second report on a stage reads the memoised uniformity,
        // distance count and listing; its body must not move.
        let analyzed = Session::new().bundled("example1").unwrap();
        let overrides = [("N1".to_string(), 12), ("N2".to_string(), 9)];
        let body = |r: Report| (r.text, r.data.to_string());
        let cold = body(analyze_report(&analyzed, &overrides).unwrap());
        let warm = body(analyze_report(&analyzed, &overrides).unwrap());
        assert_eq!(cold, warm);
        assert!(cold.1.contains("\"n_distinct_distances\""), "{}", cold.1);
        let cold = body(codegen_report(&analyzed).unwrap());
        assert_eq!(cold, body(codegen_report(&analyzed).unwrap()));
        assert!(cold.0.contains("DOALL"), "{}", cold.0);
    }
}
