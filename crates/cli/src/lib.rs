//! `rcp-cli`: the `rcp` command-line driver for the recurrence-chains
//! pipeline.
//!
//! The crate turns the workspace from a library into a tool: a `.loop`
//! file (see `rcp-lang`) goes in, classifications, partitions, listings
//! and measured runs come out.  Every subcommand is a thin consumer of the
//! staged [`rcp_session`] API — it builds a [`Session`] from the parsed
//! [`Options`], walks the `Analyzed → Planned/Partitioned → Scheduled`
//! stages it needs, and renders a [`Report`] (human text plus
//! machine-readable JSON).  All failures are typed [`RcpError`]s, so the
//! binary and the integration tests see the same structured diagnostics:
//!
//! ```text
//! rcp parse      file.loop                         # front-end facts + canonical source
//! rcp fmt        file.loop [--write]               # canonical formatting
//! rcp analyze    file.loop --param N=300 [--json]  # dependence analysis + classification
//! rcp partition  file.loop --param N=300           # Algorithm-1 partition + fallback reason
//! rcp codegen    file.loop                         # paper-style DOALL/WHILE listing
//! rcp run        file.loop --param N=300           # execute + verify against sequential
//! rcp bench      file.loop --scheme pdm            # measured wall clock, any registry scheme
//! rcp stats      file.loop --param N=300           # Prometheus-style metrics snapshot
//! rcp schemes                                      # list the Partitioner registry
//! rcp fuzz       --seed 0xC0FFEE --count 50        # differential fuzzing of the registry
//! rcp serve      --addr 127.0.0.1:0                # run the rcpd partition daemon
//! rcp remote     analyze file.loop --addr H:P      # drive a running daemon
//! ```
//!
//! The stage handlers (`cmd_analyze` and friends) live in
//! [`rcp_serve::api`] and are re-exported here: the daemon's
//! `POST /v1/<command>` endpoints and the CLI subcommands are the same
//! functions, so a served response body is bit-identical to the CLI's
//! `--json` output (see `docs/SERVING.md`).
//!
//! Any file-taking subcommand also accepts `--profile` (append the
//! [`rcp_trace`] span tree and metrics to the human report) and
//! `--profile-json` (merge the machine-readable profile into the `--json`
//! payload); see `docs/OBSERVABILITY.md` for the span model and schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rcp_fuzz::ChaosVerdict;
use rcp_json::{json, Json};
use rcp_lang::pretty;
use rcp_loopir::Node;
use rcp_serve::client::Client;
use rcp_session::{registry, GranularityChoice, RcpError, Session};

pub use rcp_serve::api::{
    cmd_analyze, cmd_codegen, cmd_partition, cmd_run, error_json, params_object, scheduled_for,
    Options, Report,
};
pub use rcp_serve::ServerConfig;

/// A parsed `rcp` invocation: the subcommand, its input file, the shared
/// options, and the output flags.
#[derive(Clone, Debug, Default)]
pub struct Invocation {
    /// The subcommand name.
    pub command: String,
    /// The input file, when one was given.
    pub file: Option<String>,
    /// The shared options.
    pub opts: Options,
    /// `--json`: print the machine-readable report.
    pub json: bool,
    /// `--write` (fmt only): rewrite the file in place.
    pub write: bool,
    /// `--check` (fmt only): exit non-zero when the file is not canonical.
    pub check: bool,
    /// `--seed S` (fuzz only): campaign seed, decimal or `0x…` hex.
    pub seed: Option<u64>,
    /// `--count N` (fuzz only): number of nests to generate.
    pub count: Option<usize>,
    /// `--minimize` (fuzz only): shrink counterexamples before emitting.
    pub minimize: bool,
    /// `--out DIR` (fuzz only): directory counterexample `.loop` files are
    /// written to (default `tests/regressions`).
    pub out: Option<String>,
    /// `--replay FILE` (fuzz only): replay one committed regression
    /// instead of running a campaign.
    pub replay: Option<String>,
    /// `--chaos` (fuzz only): run the fault-injection campaign instead of
    /// the differential one (requires a `failpoints` build).
    pub chaos: bool,
    /// `--site NAME` (fuzz --chaos only): restrict the chaos campaign to
    /// these failpoint sites (repeatable; empty = every catalog site).
    pub sites: Vec<String>,
    /// `--addr HOST:PORT` (serve/remote): the daemon's bind or target
    /// address.
    pub addr: Option<String>,
    /// `--workers N` (serve only): request worker threads.
    pub workers: Option<usize>,
    /// `--queue-capacity N` (serve only): bounded admission queue depth.
    pub queue_capacity: Option<usize>,
    /// `--cache-capacity N` (serve only): analysis-cache entries.
    pub cache_capacity: Option<usize>,
    /// `--admin-token TOKEN` (serve: required by `/admin/shutdown`;
    /// remote shutdown: presented as the bearer token).
    pub admin_token: Option<String>,
    /// The third positional argument (`rcp remote <sub> <target>`).
    pub extra: Option<String>,
}

impl Invocation {
    /// The fuzz campaign configuration these arguments denote.
    pub fn fuzz_options(&self) -> FuzzOptions {
        FuzzOptions {
            seed: self.seed.unwrap_or(FuzzOptions::DEFAULT_SEED),
            count: self.count.unwrap_or(FuzzOptions::DEFAULT_COUNT),
            minimize: self.minimize,
        }
    }

    /// The daemon configuration an `rcp serve` invocation denotes.
    pub fn server_config(&self) -> ServerConfig {
        let defaults = ServerConfig::default();
        ServerConfig {
            addr: self.addr.clone().unwrap_or(defaults.addr),
            workers: self.workers.unwrap_or(defaults.workers),
            queue_capacity: self.queue_capacity.unwrap_or(defaults.queue_capacity),
            cache_capacity: self.cache_capacity.unwrap_or(defaults.cache_capacity),
            admin_token: self.admin_token.clone(),
            default_budget_work: self.opts.budget_work,
            default_budget_ms: self.opts.budget_ms,
            ..defaults
        }
    }
}

/// Parses a `--seed` value: decimal or `0x…`/`0X…` hexadecimal.
pub fn parse_seed(value: &str) -> Option<u64> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// Parses an `rcp` argument list (without the binary name) into an
/// [`Invocation`].  Lives in the library (not the binary) so the usage
/// errors are golden-testable; the returned string is exactly what the
/// binary prints after `error: `.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut command: Option<String> = None;
    let mut k = 0;
    while k < args.len() {
        let arg = &args[k];
        match arg.as_str() {
            "--json" => inv.json = true,
            "--write" => inv.write = true,
            "--check" => inv.check = true,
            "--minimize" => inv.minimize = true,
            "--chaos" => inv.chaos = true,
            "--profile" => inv.opts.profile = true,
            "--profile-json" => {
                inv.opts.profile = true;
                inv.json = true;
            }
            "--no-degrade" => inv.opts.no_degrade = true,
            "--stmt" => inv.opts.granularity = GranularityChoice::Statement,
            "--budget-work" | "--budget-ms" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                let Ok(n) = value.parse::<u64>() else {
                    return Err(format!(
                        "invalid {arg} value `{value}` (expected a non-negative integer)"
                    ));
                };
                if arg == "--budget-work" {
                    inv.opts.budget_work = Some(n);
                } else {
                    inv.opts.budget_ms = Some(n);
                }
            }
            "--site" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                inv.sites.push(value.clone());
            }
            "--addr" | "--admin-token" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                if arg == "--addr" {
                    inv.addr = Some(value.clone());
                } else {
                    inv.admin_token = Some(value.clone());
                }
            }
            "--workers" | "--queue-capacity" | "--cache-capacity" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                let n = match value.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("invalid {arg} value `{value}`")),
                };
                match arg.as_str() {
                    "--workers" => inv.workers = Some(n),
                    "--queue-capacity" => inv.queue_capacity = Some(n),
                    _ => inv.cache_capacity = Some(n),
                }
            }
            "--seed" | "--count" | "--out" | "--replay" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                match arg.as_str() {
                    "--seed" => match parse_seed(value) {
                        Some(seed) => inv.seed = Some(seed),
                        None => {
                            return Err(format!(
                                "invalid --seed `{value}` (expected a decimal or 0x… integer)"
                            ))
                        }
                    },
                    "--count" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => inv.count = Some(n),
                        _ => return Err(format!("invalid --count value `{value}`")),
                    },
                    "--out" => inv.out = Some(value.clone()),
                    _ => inv.replay = Some(value.clone()),
                }
            }
            "--param" | "--threads" | "--scheme" | "--granularity" => {
                let Some(value) = args.get(k + 1) else {
                    return Err(format!("{arg} requires a value"));
                };
                k += 1;
                match arg.as_str() {
                    "--threads" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => inv.opts.threads = Some(n),
                        _ => return Err(format!("invalid --threads value `{value}`")),
                    },
                    "--scheme" => inv.opts.scheme = Some(value.clone()),
                    "--granularity" => match GranularityChoice::parse(value) {
                        Some(choice) => inv.opts.granularity = choice,
                        None => {
                            return Err(format!(
                                "invalid --granularity `{value}` (expected loop, stmt or auto)"
                            ))
                        }
                    },
                    _ => {
                        let Some((name, v)) = value.split_once('=') else {
                            return Err(format!("--param expects NAME=VALUE, got `{value}`"));
                        };
                        let Ok(v) = v.parse::<i64>() else {
                            return Err(format!("--param {name}: invalid integer `{v}`"));
                        };
                        inv.opts.params.push((name.to_string(), v));
                    }
                }
            }
            _ if arg.starts_with("--") => return Err(format!("unknown option `{arg}`")),
            _ if command.is_none() => command = Some(arg.clone()),
            _ if inv.file.is_none() => inv.file = Some(arg.clone()),
            _ if command.as_deref() == Some("remote") && inv.extra.is_none() => {
                inv.extra = Some(arg.clone())
            }
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
        k += 1;
    }
    let Some(command) = command else {
        return Err("missing command (try `rcp --help`)".to_string());
    };
    inv.command = command;
    Ok(inv)
}

fn count_loops(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            Node::Loop(l) => 1 + count_loops(&l.body),
            Node::Stmt(_) => 0,
        })
        .sum()
}

/// `rcp parse`: front-end facts and the canonical form of the program.
pub fn cmd_parse(source: &str, origin: &str) -> Result<Report, RcpError> {
    let program = rcp_lang::parse_program(source).map_err(|e| RcpError::parse(origin, e))?;
    let canonical = pretty(&program);
    let reparsed =
        rcp_lang::parse_program(&canonical).map_err(|e| RcpError::parse("<canonical>", e))?;
    let round_trips = reparsed == program;
    let stmts = program.statements();
    let text = format!(
        "program `{}`: {} parameter(s) [{}], {} loop(s), {} statement(s), \
         max depth {}, {} nest, arrays [{}], round-trips: {}\n\n{}",
        program.name,
        program.params.len(),
        program.params.join(", "),
        count_loops(&program.body),
        stmts.len(),
        program.max_depth(),
        if program.is_perfect_nest() {
            "perfect"
        } else {
            "imperfect"
        },
        program.arrays().join(", "),
        if round_trips { "yes" } else { "NO" },
        canonical
    );
    let data = json!({
        "program": program.name,
        "params": program.params,
        "n_loops": count_loops(&program.body),
        "n_statements": stmts.len(),
        "max_depth": program.max_depth(),
        "perfect_nest": program.is_perfect_nest(),
        "arrays": program.arrays(),
        "round_trips": round_trips,
        "canonical": canonical,
    });
    Ok(Report {
        text,
        data,
        failed: !round_trips,
    })
}

/// `rcp fmt`: the canonical formatting of the program.  A leading block
/// of `!` comment (and blank) lines is kept verbatim above the canonical
/// program text, so workload files can carry a descriptive header without
/// failing `--check`.
pub fn cmd_fmt(source: &str, origin: &str) -> Result<Report, RcpError> {
    let program = rcp_lang::parse_program(source).map_err(|e| RcpError::parse(origin, e))?;
    let header_len: usize = source
        .split_inclusive('\n')
        .take_while(|line| {
            let t = line.trim();
            t.is_empty() || t.starts_with('!')
        })
        .map(|line| line.len())
        .sum();
    let canonical = format!("{}{}", &source[..header_len], pretty(&program));
    let data = json!({
        "program": program.name,
        "canonical": canonical,
        "changed": canonical != source,
    });
    Ok(Report::ok(canonical.clone(), data))
}

/// `rcp bench`: measured sequential vs parallel wall clock (best of 3) of
/// any registry scheme (`--scheme`).
pub fn cmd_bench(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    let analyzed = opts.session().parse(source, origin)?;
    let scheduled = scheduled_for(&analyzed)?;
    let program = analyzed.program();
    let measured = scheduled.bench(3);
    let text = format!(
        "program `{}`: {} instance(s), scheme {}, best of {}\n\
         \x20 sequential        {:.3} ms\n\
         \x20 parallel ({} thr)  {:.3} ms\n\
         \x20 speedup           {:.2}x\n",
        program.name,
        scheduled.schedule().n_instances(),
        scheduled.scheme(),
        measured.reps,
        measured.sequential_ms,
        measured.threads,
        measured.parallel_ms,
        measured.speedup(),
    );
    let data = json!({
        "program": program.name,
        "params": params_object(program, scheduled.partitioned().values()),
        "threads": measured.threads,
        "scheme": scheduled.scheme(),
        "n_instances": scheduled.schedule().n_instances(),
        "sequential_ms": measured.sequential_ms,
        "parallel_ms": measured.parallel_ms,
        "speedup": measured.speedup(),
    });
    Ok(Report::ok(text, data))
}

/// Options of an `rcp fuzz` campaign (the CLI mirror of
/// [`rcp_fuzz::CampaignConfig`]).
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Campaign seed (`--seed`, decimal or `0x…`).
    pub seed: u64,
    /// Number of nests to generate (`--count`).
    pub count: usize,
    /// Shrink counterexamples before emitting (`--minimize`).
    pub minimize: bool,
}

impl FuzzOptions {
    /// The pinned seed CI runs with.
    pub const DEFAULT_SEED: u64 = 0xC0FFEE;
    /// The default campaign size.
    pub const DEFAULT_COUNT: usize = 50;
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: Self::DEFAULT_SEED,
            count: Self::DEFAULT_COUNT,
            minimize: false,
        }
    }
}

/// `rcp fuzz`: a differential fuzzing campaign over the scheme registry.
/// Returns the report plus the rendered counterexample `.loop` files
/// (`(file name, contents)`), which the binary writes under `--out`.
pub fn cmd_fuzz(opts: &FuzzOptions) -> (Report, Vec<(String, String)>) {
    let campaign = rcp_fuzz::run_campaign(&rcp_fuzz::CampaignConfig {
        seed: opts.seed,
        count: opts.count,
        minimize: opts.minimize,
    });
    let mut text = format!(
        "fuzz campaign: seed {:#x}, {} nest(s) in {:.2}s ({:.1} nests/sec)\n\
         \x20 {:<18} {:>10} {:>8} {:>12} {:>8} {:>13}\n",
        campaign.seed,
        campaign.count,
        campaign.elapsed.as_secs_f64(),
        campaign.nests_per_sec(),
        "scheme",
        "applicable",
        "passed",
        "under-sync",
        "n/a",
        "discrepancies",
    );
    let mut scheme_rows = Vec::new();
    for s in &campaign.stats {
        text.push_str(&format!(
            "\x20 {:<18} {:>10} {:>8} {:>12} {:>8} {:>13}\n",
            s.scheme,
            s.applicable(),
            s.passed,
            s.under_synchronised,
            s.not_applicable,
            s.discrepancies,
        ));
        scheme_rows.push(json!({
            "scheme": s.scheme,
            "applicable": s.applicable(),
            "passed": s.passed,
            "under_synchronised": s.under_synchronised,
            "not_applicable": s.not_applicable,
            "discrepancies": s.discrepancies,
        }));
    }
    for error in &campaign.errors {
        text.push_str(&format!("  ERROR {error}\n"));
    }
    let mut artifacts = Vec::new();
    for ce in &campaign.counterexamples {
        let (file, contents) = rcp_fuzz::render_regression(ce, campaign.seed);
        text.push_str(&format!(
            "  DISCREPANCY case {} (scheme {}, {} thread(s)): {} -> {}\n",
            ce.case_id, ce.discrepancy.scheme, ce.discrepancy.threads, ce.discrepancy.detail, file,
        ));
        artifacts.push((file, contents));
    }
    let clean = campaign.clean();
    text.push_str(if clean {
        "  verdict: CLEAN (no discrepancies)\n"
    } else {
        "  verdict: FAILED\n"
    });
    let total_discrepancies: usize = campaign.stats.iter().map(|s| s.discrepancies).sum();
    let data = json!({
        "seed": format!("{:#x}", campaign.seed),
        "count": campaign.count,
        "nests_per_sec": campaign.nests_per_sec(),
        "schemes": Json::Array(scheme_rows),
        "discrepancies": total_discrepancies,
        "counterexamples": campaign.counterexamples.len(),
        "errors": campaign.errors.len(),
        "clean": clean,
    });
    (
        Report {
            text,
            data,
            failed: !clean,
        },
        artifacts,
    )
}

/// `rcp fuzz --replay`: replays one committed regression `.loop` file
/// through every scheme; fails when any scheme still diverges.
pub fn cmd_fuzz_replay(source: &str, origin: &str) -> Result<Report, RcpError> {
    let (program, params) = rcp_fuzz::parse_regression(source).map_err(|message| {
        RcpError::parse(
            origin,
            rcp_lang::ParseError {
                pos: rcp_lang::SourcePos { line: 0, col: 0 },
                message,
            },
        )
    })?;
    let result = rcp_fuzz::run_case(&program, &params)?;
    let mut text = format!(
        "replay `{}` at [{}]:\n",
        program.name,
        params
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let mut rows = Vec::new();
    let mut diverged = false;
    for (scheme, verdict) in &result.verdicts {
        let (status, detail) = match verdict {
            rcp_fuzz::Verdict::Passed => ("passed", String::new()),
            rcp_fuzz::Verdict::NotApplicable(reason) => ("n/a", reason.clone()),
            rcp_fuzz::Verdict::UnderSynchronised { violations } => (
                "under-synchronised",
                format!("{violations} unordered dependence pair(s)"),
            ),
            rcp_fuzz::Verdict::Discrepancy(d) => {
                diverged = true;
                (
                    "DISCREPANCY",
                    format!("{} thread(s): {}", d.threads, d.detail),
                )
            }
        };
        text.push_str(&format!(
            "  {scheme:<18} {status}{}{detail}\n",
            if detail.is_empty() { "" } else { ": " },
        ));
        rows.push(json!({ "scheme": scheme, "status": status, "detail": detail }));
    }
    let data = json!({
        "program": program.name,
        "verdicts": Json::Array(rows),
        "diverged": diverged,
    });
    Ok(Report {
        text,
        data,
        failed: diverged,
    })
}

/// `rcp fuzz --chaos`: the fault-injection campaign — every fault at every
/// failpoint site across the bundled corpus must yield a typed error or a
/// store-identical degraded result, never a panic and never a miscompile.
///
/// Failpoints are compiled out of release builds; the `Err` arm carries
/// the polite refusal a non-`failpoints` binary reports.
pub fn cmd_chaos(config: &rcp_fuzz::ChaosConfig) -> Result<Report, String> {
    let campaign = rcp_fuzz::run_chaos_campaign(config)?;
    let mut workloads: Vec<&str> = campaign
        .outcomes
        .iter()
        .map(|o| o.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let n_workloads = workloads.len();
    let mut text = format!(
        "chaos campaign: {} case(s) over {} workload(s) in {:.2}s ({} fault(s) fired)\n\
         \x20 {:<22} {:>6} {:>6} {:>12} {:>9} {:>7}\n",
        campaign.outcomes.len(),
        n_workloads,
        campaign.elapsed.as_secs_f64(),
        campaign.triggered(),
        "site",
        "cases",
        "fired",
        "typed-error",
        "degraded",
        "FAILED",
    );
    let mut site_rows = Vec::new();
    for &site in rcp_guard::FAILPOINT_SITES {
        if !config.sites.is_empty() && !config.sites.iter().any(|s| s == site) {
            continue;
        }
        let outcomes: Vec<_> = campaign
            .outcomes
            .iter()
            .filter(|o| o.site == site)
            .collect();
        let fired: u64 = outcomes.iter().map(|o| o.fired).sum();
        let count = |pred: &dyn Fn(&ChaosVerdict) -> bool| {
            outcomes.iter().filter(|o| pred(&o.verdict)).count()
        };
        let typed = count(&|v| matches!(v, ChaosVerdict::TypedError(_)));
        let degraded = count(&|v| matches!(v, ChaosVerdict::Degraded(_)));
        let failed = count(&|v| matches!(v, ChaosVerdict::Failed(_)));
        text.push_str(&format!(
            "\x20 {:<22} {:>6} {:>6} {:>12} {:>9} {:>7}\n",
            site,
            outcomes.len(),
            fired,
            typed,
            degraded,
            failed,
        ));
        site_rows.push(json!({
            "site": site,
            "cases": outcomes.len(),
            "fired": fired,
            "typed_error": typed,
            "degraded": degraded,
            "failed": failed,
        }));
    }
    for outcome in campaign.failures() {
        text.push_str(&format!(
            "  FAILURE {} @ {} ({}): {:?}\n",
            outcome.workload, outcome.site, outcome.fault, outcome.verdict,
        ));
    }
    for site in &campaign.untriggered_sites {
        text.push_str(&format!(
            "  UNTRIGGERED {site}: no workload reached this failpoint\n"
        ));
    }
    // The server leg: the same (site, fault) catalog armed *inside* live
    // `rcpd` requests, proving the transport guarantees (structured error
    // or degraded result — never a hung connection or dead worker).
    let server = rcp_fuzz::run_server_chaos_campaign(config)?;
    text.push_str(&format!(
        "server chaos: {} case(s) over loopback in {:.2}s ({} fault(s) fired in-request)\n",
        server.outcomes.len(),
        server.elapsed.as_secs_f64(),
        server.triggered(),
    ));
    for outcome in server.failures() {
        text.push_str(&format!(
            "  SERVER FAILURE {} @ {} ({}): status {:?}, {:?}\n",
            outcome.workload, outcome.site, outcome.fault, outcome.status, outcome.verdict,
        ));
    }
    let clean = campaign.clean() && campaign.untriggered_sites.is_empty() && server.clean();
    text.push_str(if clean {
        "  verdict: CLEAN (every injected fault yielded a typed error or a \
         store-identical degraded result; every server fault answered a \
         structured response)\n"
    } else {
        "  verdict: FAILED\n"
    });
    let data = json!({
        "cases": campaign.outcomes.len(),
        "triggered": campaign.triggered(),
        "sites": Json::Array(site_rows),
        "failures": campaign.failures().len(),
        "untriggered_sites": Json::Array(
            campaign
                .untriggered_sites
                .iter()
                .map(|s| Json::Str(s.to_string()))
                .collect()
        ),
        "server": json!({
            "cases": server.outcomes.len(),
            "triggered": server.triggered(),
            "failures": server.failures().len(),
            "clean": server.clean(),
        }),
        "clean": clean,
    });
    Ok(Report {
        text,
        data,
        failed: !clean,
    })
}

/// One span node of the machine-readable profile: name, hit count, wall
/// time, children.  `wall_ms` is the profile's only timing-dependent
/// field (see [`scrub_profile`]).
fn span_json(node: &rcp_trace::SpanNode) -> Json {
    json!({
        "name": node.name,
        "count": node.count,
        "wall_ms": node.total_ns as f64 / 1e6,
        "children": Json::Array(node.children.iter().map(span_json).collect()),
    })
}

fn metrics_object(map: &std::collections::BTreeMap<String, u64>) -> Json {
    Json::Object(
        map.iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v as i64)))
            .collect(),
    )
}

/// The machine-readable profile of one `--profile` window: the span tree
/// plus every counter and gauge.  Histograms are deliberately absent —
/// their bucket contents are timing-dependent, and the profile is pinned
/// by a timing-scrubbed golden file in which `wall_ms` is the only
/// scrubbed field.
fn profile_json(snap: &rcp_trace::Snapshot, tree: &[rcp_trace::SpanNode]) -> Json {
    json!({
        "spans": Json::Array(tree.iter().map(span_json).collect()),
        "counters": metrics_object(&snap.counters),
        "gauges": metrics_object(&snap.gauges),
    })
}

/// Replaces every `wall_ms` value in a profile JSON with `0` — the one
/// timing-dependent field — so two profile runs (and the committed golden
/// file) compare equal on structure and counter values alone.
pub fn scrub_profile(profile: &Json) -> Json {
    match profile {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .map(|(k, v)| {
                    if k == "wall_ms" {
                        (k.clone(), Json::Int(0))
                    } else {
                        (k.clone(), scrub_profile(v))
                    }
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(scrub_profile).collect()),
        other => other.clone(),
    }
}

/// Renders a `--profile` window as the human tree view: per-stage spans
/// with wall time, per-stage work ticks, solver cache hit rates, and the
/// remaining counters and gauges.
fn render_profile(snap: &rcp_trace::Snapshot, tree: &[rcp_trace::SpanNode]) -> String {
    const TICK_PREFIX: &str = "guard.ticks.";
    fn walk(node: &rcp_trace::SpanNode, depth: usize, text: &mut String) {
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        text.push_str(&format!(
            "    {label:<36} {:>5}x {:>10.3} ms\n",
            node.count,
            node.total_ns as f64 / 1e6,
        ));
        for child in &node.children {
            walk(child, depth + 1, text);
        }
    }
    let mut text = String::from("\nprofile:\n  spans:\n");
    for node in tree {
        walk(node, 0, &mut text);
    }
    let ticks: Vec<_> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(TICK_PREFIX))
        .collect();
    if !ticks.is_empty() {
        text.push_str("  work ticks:\n");
        for (k, v) in ticks {
            text.push_str(&format!("    {:<36} {v:>10}\n", &k[TICK_PREFIX.len()..]));
        }
    }
    let caches = [
        ("intlin.cache.hnf", "hnf"),
        ("intlin.cache.dio", "diophantine"),
        ("presburger.cache.emptiness", "emptiness"),
    ];
    let mut rates = String::new();
    for (prefix, label) in caches {
        let hits = snap.counter(&format!("{prefix}.hits"));
        let misses = snap.counter(&format!("{prefix}.misses"));
        if hits + misses > 0 {
            rates.push_str(&format!(
                "    {label:<36} {:>9.1}%  ({hits} hit(s), {misses} miss(es))\n",
                100.0 * hits as f64 / (hits + misses) as f64,
            ));
        }
    }
    if !rates.is_empty() {
        text.push_str("  cache hit rates:\n");
        text.push_str(&rates);
    }
    let plain: Vec<_> = snap
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with(TICK_PREFIX))
        .collect();
    if !plain.is_empty() {
        text.push_str("  counters:\n");
        for (k, v) in plain {
            text.push_str(&format!("    {k:<36} {v:>10}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        text.push_str("  gauges:\n");
        for (k, v) in &snap.gauges {
            text.push_str(&format!("    {k:<36} {v:>10}\n"));
        }
    }
    text
}

/// `rcp stats`: drives the full pipeline (analyze → partition → schedule →
/// run) with tracing enabled and dumps the metrics registry as a
/// Prometheus-style text snapshot.
pub fn cmd_stats(source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    rcp_trace::set_enabled(true);
    rcp_trace::reset();
    let session = Session::with_config(opts.to_config().with_tracing());
    let analyzed = session.parse(source, origin)?;
    // Drive every downstream stage the session supports; a degraded
    // session stops at the analysis, and `stats` reports whatever ran.
    if analyzed.degradation().is_none() {
        let scheduled = analyzed.partition()?.schedule()?;
        let _ = scheduled.verify_checked()?;
    }
    let snap = rcp_trace::snapshot();
    let text = snap.to_prometheus();
    let data = json!({
        "counters": metrics_object(&snap.counters),
        "gauges": metrics_object(&snap.gauges),
    });
    Ok(Report::ok(text, data))
}

/// `rcp schemes`: lists the [`rcp_session::Partitioner`] registry.
pub fn cmd_schemes() -> Report {
    let mut text = String::from("registered partitioning schemes:\n");
    let mut rows = Vec::new();
    for scheme in registry() {
        text.push_str(&format!(
            "  {:<18} {}\n",
            scheme.name(),
            scheme.description()
        ));
        rows.push(json!({
            "name": scheme.name(),
            "description": scheme.description(),
        }));
    }
    Report::ok(text, Json::Array(rows))
}

/// The `rcp remote` subcommands that post a program to a stage endpoint.
pub const REMOTE_STAGES: [&str; 4] = ["analyze", "partition", "codegen", "run"];

/// `rcp remote <sub> [target] --addr HOST:PORT`: drives a running `rcpd`.
///
/// * `sub` ∈ [`REMOTE_STAGES`] posts one program to `POST /v1/<sub>`:
///   `target` names either a `.loop` file (the binary passes its contents
///   as `file_source`) or a bundled workload.
/// * `batch` posts the whole bundled corpus to `POST /v1/batch`
///   (`target` picks the per-entry command, default `analyze`).
/// * `metrics` / `health` hit the matching GET endpoints.
/// * `shutdown` posts `POST /admin/shutdown` with `admin_token`.
///
/// The report's `text` and `data` are the server's response body —
/// verbatim, so `rcp remote analyze … --json` output diffs bit-for-bit
/// against the local `rcp analyze … --json` output (CI pins this).
/// `failed` mirrors a non-2xx status; transport failures are the `Err`
/// string.
pub fn cmd_remote(
    sub: &str,
    addr: &str,
    target: Option<&str>,
    file_source: Option<String>,
    opts: &Options,
    admin_token: Option<&str>,
) -> Result<Report, String> {
    let client = Client::new(addr);
    let reply = match sub {
        "metrics" => client.get("/metrics")?,
        "health" => client.get("/healthz")?,
        "shutdown" => {
            let token = admin_token.ok_or("remote shutdown needs --admin-token")?;
            client.post_with_headers(
                "/admin/shutdown",
                &json!({}),
                &[("authorization".to_string(), format!("Bearer {token}"))],
            )?
        }
        "batch" => {
            let command = target.unwrap_or("analyze");
            if !REMOTE_STAGES.contains(&command) {
                return Err(format!(
                    "invalid batch command `{command}` (expected {})",
                    REMOTE_STAGES.join(", ")
                ));
            }
            let entries: Vec<Json> = rcp_workloads::BUNDLED_LOOPS
                .iter()
                .map(|b| json!({ "workload": b.name }))
                .collect();
            client.post(
                "/v1/batch",
                &json!({ "command": command, "entries": Json::Array(entries) }),
            )?
        }
        stage if REMOTE_STAGES.contains(&stage) => {
            let mut fields: Vec<(String, Json)> = Vec::new();
            match (&file_source, target) {
                (Some(source), _) => fields.push(("source".to_string(), Json::Str(source.clone()))),
                (None, Some(workload)) => {
                    fields.push(("workload".to_string(), Json::Str(workload.to_string())))
                }
                (None, None) => {
                    return Err(format!(
                        "remote {stage} needs a .loop file or a bundled workload name"
                    ))
                }
            }
            if !opts.params.is_empty() {
                fields.push((
                    "params".to_string(),
                    Json::Object(
                        opts.params
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::Int(*v)))
                            .collect(),
                    ),
                ));
            }
            if let Some(threads) = opts.threads {
                fields.push(("threads".to_string(), Json::Int(threads as i64)));
            }
            if let Some(scheme) = &opts.scheme {
                fields.push(("scheme".to_string(), Json::Str(scheme.clone())));
            }
            if opts.granularity != GranularityChoice::Auto {
                let name = match opts.granularity {
                    GranularityChoice::Loop => "loop",
                    GranularityChoice::Statement => "stmt",
                    GranularityChoice::Auto => "auto",
                };
                fields.push(("granularity".to_string(), Json::Str(name.to_string())));
            }
            if let Some(units) = opts.budget_work {
                fields.push(("budget_work".to_string(), Json::Int(units as i64)));
            }
            if let Some(millis) = opts.budget_ms {
                fields.push(("budget_ms".to_string(), Json::Int(millis as i64)));
            }
            if opts.no_degrade {
                fields.push(("degrade".to_string(), Json::Bool(false)));
            }
            client.post(&format!("/v1/{stage}"), &Json::Object(fields))?
        }
        other => {
            return Err(format!(
                "unknown remote subcommand `{other}` (known: {}, batch, metrics, health, shutdown)",
                REMOTE_STAGES.join(", ")
            ))
        }
    };
    let data = reply
        .json()
        .unwrap_or_else(|_| Json::Str(reply.body.clone()));
    Ok(Report {
        text: reply.body.clone(),
        data,
        failed: !reply.is_success(),
    })
}

/// Every subcommand name `run_command` dispatches, in help order.
pub const COMMANDS: [&str; 12] = [
    "parse",
    "fmt",
    "analyze",
    "partition",
    "codegen",
    "run",
    "bench",
    "stats",
    "schemes",
    "fuzz",
    "serve",
    "remote",
];

fn dispatch(command: &str, source: &str, origin: &str, opts: &Options) -> Result<Report, RcpError> {
    match command {
        "parse" => cmd_parse(source, origin),
        "fmt" => cmd_fmt(source, origin),
        "analyze" => cmd_analyze(source, origin, opts),
        "partition" => cmd_partition(source, origin, opts),
        "codegen" => cmd_codegen(source, origin, opts),
        "run" => cmd_run(source, origin, opts),
        "bench" => cmd_bench(source, origin, opts),
        "stats" => cmd_stats(source, origin, opts),
        "schemes" => Ok(cmd_schemes()),
        // `rcp fuzz FILE` replays a committed regression; the file-less
        // campaign form is dispatched by the binary (like `schemes`).
        "fuzz" => cmd_fuzz_replay(source, origin),
        other => Err(RcpError::UnknownCommand {
            name: other.to_string(),
            known: COMMANDS.to_vec(),
        }),
    }
}

/// Dispatches a subcommand by name.  `fmt` is excluded (it needs write
/// access to the file and is handled by the binary).
///
/// Under `--profile` the command runs inside one bounded trace window
/// (enable, reset, run): the human report gains the rendered span tree
/// and metrics, and object-shaped JSON reports gain a `profile` field.
/// The window is process-global, so profiled commands assume they own the
/// registry for the duration of the run — true for the binary, and for
/// any test that serialises its profiled invocations.
pub fn run_command(
    command: &str,
    source: &str,
    origin: &str,
    opts: &Options,
) -> Result<Report, RcpError> {
    if !opts.profile {
        return dispatch(command, source, origin, opts);
    }
    rcp_trace::set_enabled(true);
    rcp_trace::reset();
    let mut report = dispatch(command, source, origin, opts)?;
    let snap = rcp_trace::snapshot();
    let tree = rcp_trace::span_tree();
    report.text.push_str(&render_profile(&snap, &tree));
    if let Json::Object(fields) = &mut report.data {
        fields.push(("profile".to_string(), profile_json(&snap, &tree)));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = "\
PROGRAM example1
PARAM N1, N2
DO I1 = 1, N1
  DO I2 = 1, N2
    S: a(3*I1 + 1, 2*I1 + I2 - 1) = a(I1 + 3, I2 + 1)
  ENDDO
ENDDO
END
";

    fn opts(params: &[(&str, i64)]) -> Options {
        Options {
            params: params.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            ..Options::default()
        }
    }

    #[test]
    fn parse_reports_the_front_end_facts() {
        let r = cmd_parse(EXAMPLE1, "example1.loop").unwrap();
        assert!(!r.failed);
        assert_eq!(r.data["program"].as_str(), Some("example1"));
        assert_eq!(r.data["n_statements"].as_u64(), Some(1));
        assert_eq!(r.data["perfect_nest"].as_bool(), Some(true));
        assert_eq!(r.data["round_trips"].as_bool(), Some(true));
    }

    #[test]
    fn analyze_matches_the_paper_facts() {
        let r = cmd_analyze(EXAMPLE1, "example1.loop", &opts(&[("N1", 10), ("N2", 10)])).unwrap();
        assert_eq!(r.data["n_dependences"].as_u64(), Some(18));
        assert_eq!(r.data["uniformity"].as_str(), Some("NonUniform"));
        assert_eq!(r.data["strategy"].as_str(), Some("RecurrenceChains"));
        assert_eq!(r.data["n_screened_pairs"].as_u64(), Some(0));
        assert!(r.data["fallback_reason"].as_str().is_none());
        assert_eq!(r.data["symbolic_instantiable"].as_bool(), Some(true));
    }

    #[test]
    fn partition_validates_and_reports_the_three_sets() {
        let r = cmd_partition(EXAMPLE1, "example1.loop", &opts(&[("N1", 10), ("N2", 10)])).unwrap();
        assert!(!r.failed);
        assert_eq!(r.data["strategy"].as_str(), Some("RecurrenceChains"));
        assert_eq!(r.data["plan"].as_str(), Some("symbolic"));
        assert_eq!(r.data["valid"].as_bool(), Some(true));
        assert_eq!(r.data["total_iterations"].as_u64(), Some(100));
        let p1 = r.data["p1"].as_u64().unwrap();
        let p2 = r.data["p2"].as_u64().unwrap();
        let p3 = r.data["p3"].as_u64().unwrap();
        assert_eq!(p1 + p2 + p3, 100);
    }

    #[test]
    fn partition_surfaces_the_fallback_reason() {
        // Two coupled pairs: Algorithm 1 must fall back to dataflow and
        // the report must say why.
        const MULTI: &str = "\
PROGRAM multi
PARAM N
DO I = 1, N
  DO J = 1, N
    S: a(I + J, J) = a(I, J), a(J, I)
  ENDDO
ENDDO
END
";
        let r = cmd_partition(MULTI, "multi.loop", &opts(&[("N", 6)])).unwrap();
        assert!(!r.failed, "{}", r.text);
        assert_eq!(r.data["strategy"].as_str(), Some("Dataflow"));
        assert_eq!(r.data["plan"].as_str(), Some("concrete-fallback"));
        let reason = r.data["fallback_reason"].as_str().unwrap();
        assert!(
            reason.contains("2 coupled reference pairs"),
            "reason must name the failed precondition: {reason}"
        );
        assert!(r.text.contains("recurrence chains unavailable"));
    }

    #[test]
    fn run_verifies_against_sequential() {
        let r = cmd_run(EXAMPLE1, "example1.loop", &opts(&[("N1", 8), ("N2", 8)])).unwrap();
        assert!(!r.failed, "{}", r.text);
        assert_eq!(r.data["passed"].as_bool(), Some(true));
        assert_eq!(r.data["scheme"].as_str(), Some("recurrence-chains"));
    }

    #[test]
    fn bench_accepts_every_registry_scheme() {
        for scheme in rcp_session::scheme_names() {
            let mut o = opts(&[("N1", 6), ("N2", 6)]);
            o.scheme = Some(scheme.to_string());
            let r = cmd_bench(EXAMPLE1, "example1.loop", &o)
                .unwrap_or_else(|e| panic!("scheme {scheme}: {e}"));
            assert_eq!(r.data["scheme"].as_str(), Some(scheme));
            assert_eq!(r.data["n_instances"].as_u64(), Some(36));
        }
    }

    #[test]
    fn unknown_schemes_are_rejected_with_the_known_list() {
        let mut o = opts(&[("N1", 6), ("N2", 6)]);
        o.scheme = Some("zigzag".to_string());
        let err = cmd_bench(EXAMPLE1, "example1.loop", &o).unwrap_err();
        assert!(matches!(err, RcpError::UnknownScheme { .. }));
        assert!(err.to_string().contains("recurrence-chains"));
    }

    #[test]
    fn missing_and_unknown_params_are_reported() {
        let err = cmd_analyze(EXAMPLE1, "f.loop", &opts(&[("N1", 10)])).unwrap_err();
        assert!(err.to_string().contains("missing --param N2"));
        let err =
            cmd_analyze(EXAMPLE1, "f.loop", &opts(&[("N1", 1), ("N2", 1), ("Q", 1)])).unwrap_err();
        assert!(err.to_string().contains("no parameter `Q`"));
    }

    #[test]
    fn parse_errors_carry_the_origin_and_position() {
        let err = cmd_parse("PROGRAM p\nDO I = , 9\nENDDO\nEND\n", "bad.loop").unwrap_err();
        assert!(err.to_string().starts_with("bad.loop: line 2"), "{err}");
        match err {
            RcpError::Parse { error, .. } => assert_eq!(error.pos.line, 2),
            other => panic!("expected a typed parse error, got {other:?}"),
        }
    }

    #[test]
    fn codegen_emits_a_listing_for_the_then_branch() {
        let r = cmd_codegen(EXAMPLE1, "example1.loop", &Options::default()).unwrap();
        assert_eq!(r.data["strategy"].as_str(), Some("RecurrenceChains"));
        assert!(r.data["listing"].as_str().is_some());
    }

    #[test]
    fn schemes_lists_the_registry() {
        let r = cmd_schemes();
        assert_eq!(r.data.as_array().unwrap().len(), 6);
        assert!(r.text.contains("recurrence-chains"));
        assert!(r.text.contains("doacross"));
    }

    #[test]
    fn fuzz_flags_parse() {
        let args: Vec<String> = ["fuzz", "--seed", "0xC0FFEE", "--count", "7", "--minimize"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let inv = parse_args(&args).unwrap();
        assert_eq!(inv.command, "fuzz");
        let opts = inv.fuzz_options();
        assert_eq!(opts.seed, 0xC0FFEE);
        assert_eq!(opts.count, 7);
        assert!(opts.minimize);

        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert!(parse_seed("0xZZ").is_none());
        let err = parse_args(&["fuzz".into(), "--seed".into(), "smoke".into()]).unwrap_err();
        assert!(err.contains("invalid --seed"));
        let err = parse_args(&["fuzz".into(), "--count".into(), "0".into()]).unwrap_err();
        assert!(err.contains("invalid --count"));
    }

    #[test]
    fn budget_flags_parse_and_reach_the_config() {
        let args: Vec<String> = [
            "analyze",
            "f.loop",
            "--budget-work",
            "9",
            "--budget-ms",
            "50",
            "--no-degrade",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let inv = parse_args(&args).unwrap();
        assert_eq!(inv.opts.budget_work, Some(9));
        assert_eq!(inv.opts.budget_ms, Some(50));
        assert!(inv.opts.no_degrade);
        let config = inv.opts.to_config();
        let budget = config.budget.expect("budget flags set a BudgetSpec");
        assert_eq!(budget.max_work, Some(9));
        assert_eq!(budget.max_millis, Some(50));
        assert!(!config.degrade);

        let err = parse_args(&["analyze".into(), "--budget-work".into(), "-3".into()]).unwrap_err();
        assert!(err.contains("invalid --budget-work"), "{err}");
        let err = parse_args(&["analyze".into(), "--budget-ms".into()]).unwrap_err();
        assert!(err.contains("--budget-ms requires a value"), "{err}");
    }

    #[test]
    fn chaos_flags_parse() {
        let args: Vec<String> = ["fuzz", "--chaos", "--site", "intlin::hnf"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let inv = parse_args(&args).unwrap();
        assert!(inv.chaos);
        assert_eq!(inv.sites, vec!["intlin::hnf".to_string()]);
    }

    #[test]
    fn analyze_reports_the_exact_rung_by_default() {
        let r = cmd_analyze(EXAMPLE1, "example1.loop", &opts(&[("N1", 6), ("N2", 6)])).unwrap();
        assert_eq!(r.data["degradation"].as_str(), Some("exact"));
    }

    #[test]
    fn an_exhausted_work_budget_degrades_the_analyze_report() {
        let o = Options {
            budget_work: Some(1),
            ..opts(&[("N1", 6), ("N2", 6)])
        };
        let r = cmd_analyze(EXAMPLE1, "example1.loop", &o).unwrap();
        assert!(!r.failed, "degradation is a success, not a failure");
        assert_eq!(
            r.data["degradation"].as_str(),
            Some("screened-conservative")
        );
        let cause = r.data["degradation_cause"].as_str().unwrap();
        assert!(
            cause.starts_with("budget exceeded in stage `"),
            "cause must be the typed BudgetExceeded display: {cause}"
        );
        assert!(r.data["screen"]["n_pairs"].as_u64().is_some());
        assert!(
            r.text.contains("degraded to screened-conservative"),
            "{}",
            r.text
        );
    }

    #[test]
    fn no_degrade_makes_budget_exhaustion_a_hard_error() {
        let o = Options {
            budget_work: Some(1),
            no_degrade: true,
            ..opts(&[("N1", 6), ("N2", 6)])
        };
        let err = cmd_analyze(EXAMPLE1, "example1.loop", &o).unwrap_err();
        assert!(matches!(err, RcpError::BudgetExceeded { .. }), "{err}");
        // The same typed error is what `--json` carries.
        let rendered = error_json(&err).pretty();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed["error"].as_str(), Some(err.to_string().as_str()));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn chaos_without_failpoints_refuses_politely() {
        let err = cmd_chaos(&rcp_fuzz::ChaosConfig::default()).unwrap_err();
        assert!(err.contains("failpoints"), "{err}");
    }

    #[test]
    fn fmt_check_flag_parses_and_reports_changed() {
        let inv = parse_args(&["fmt".into(), "f.loop".into(), "--check".into()]).unwrap();
        assert!(inv.check);
        let r = cmd_fmt(EXAMPLE1, "f.loop").unwrap();
        assert_eq!(r.data["changed"].as_bool(), Some(false));
        let r = cmd_fmt(
            "PROGRAM p\nDO I = 1, 9\nS: a(I) = a(I - 1)\nENDDO\nEND\n",
            "f.loop",
        )
        .unwrap();
        assert_eq!(r.data["changed"].as_bool(), Some(true));
    }

    #[test]
    fn fuzz_runs_a_small_clean_campaign() {
        let (r, artifacts) = cmd_fuzz(&FuzzOptions {
            seed: FuzzOptions::DEFAULT_SEED,
            count: 5,
            minimize: true,
        });
        assert!(!r.failed, "{}", r.text);
        assert!(artifacts.is_empty());
        assert_eq!(r.data["clean"].as_bool(), Some(true));
        assert_eq!(r.data["count"].as_u64(), Some(5));
        assert_eq!(r.data["seed"].as_str(), Some("0xc0ffee"));
        // One row per registry scheme plus the plan-instantiate oracle.
        assert_eq!(
            r.data["schemes"].as_array().unwrap().len(),
            rcp_session::scheme_names().len() + 1
        );
    }

    #[test]
    fn fuzz_replays_a_regression_source() {
        let source = "\
! rcp-fuzz minimised counterexample (historical)
! params: N=6
PROGRAM fuzz_replay_check
PARAM N
DO I = 1, N
  S1: a(I) = a(I - 1)
ENDDO
END
";
        let r = cmd_fuzz_replay(source, "fuzz_replay_check.loop").unwrap();
        assert!(!r.failed, "{}", r.text);
        assert_eq!(r.data["diverged"].as_bool(), Some(false));
        assert!(r.text.contains("recurrence-chains"));
    }
}
