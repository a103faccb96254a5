//! The chaos campaign: every fault at every failpoint, over the bundled
//! corpus, proving *weaker but never wrong*.
//!
//! For each bundled workload the campaign first computes the sequential
//! reference store with every failpoint disarmed.  Then, for every
//! `(site, fault)` combination in the [`rcp_guard::FAILPOINT_SITES`]
//! catalog, it arms exactly that one site and drives the full session
//! pipeline — parse, analyse, partition, schedule, checked execution.
//! The oracle accepts exactly three shapes of behaviour:
//!
//! * **Passed** — the fault never fired on this workload's path (or fired
//!   somewhere recoverable) and the pipeline completed exactly, with the
//!   executed store bit-identical to the reference;
//! * **Typed error** — the fault surfaced as an [`RcpError`](rcp_session::RcpError)
//!   through a public `Result`, and the sequential fallback still
//!   reproduces the reference store;
//! * **Degraded** — the session walked the degradation ladder
//!   (`rcp_session::DegradationLevel`), and the sequential rung it still
//!   offers reproduces the reference store.
//!
//! Anything else — a panic escaping the public API, a store that diverges
//! from sequential — is a campaign [failure](ChaosVerdict::Failed).  The
//! campaign additionally fails if any catalog site never fired on any
//! workload: a dead failpoint means a seam without chaos coverage.
//!
//! Fault injection is compile-time gated: build with
//! `--features failpoints` (the chaos campaign refuses to run, with a
//! typed message, when it is compiled out).

use std::time::{Duration, Instant};

use rcp_loopir::Program;
use rcp_runtime::{execute_sequential, ArrayStore, RefKernel, Verification};
use rcp_session::{Config, Session};
use rcp_workloads::BUNDLED_LOOPS;

pub use rcp_guard::Fault;

use crate::regressions::parse_regression;

/// The verdict of one `(workload, site, fault)` chaos case.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosVerdict {
    /// The pipeline completed on the exact rung with a store bit-identical
    /// to the sequential reference (typically: the armed site is not on
    /// this workload's path).
    Passed,
    /// The fault surfaced as a typed [`rcp_session::RcpError`]; the
    /// payload is its rendered message.
    TypedError(String),
    /// The session degraded; the payload is the
    /// [`rcp_session::DegradationLevel`] name, and the sequential rung was
    /// verified bit-identical to the reference.
    Degraded(String),
    /// A chaos failure: an unwind escaped the public API, or a produced
    /// store diverged from the sequential reference.
    Failed(String),
}

impl ChaosVerdict {
    /// True for the three acceptable shapes (everything but
    /// [`ChaosVerdict::Failed`]).
    pub fn acceptable(&self) -> bool {
        !matches!(self, ChaosVerdict::Failed(_))
    }
}

/// One executed chaos case.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The bundled workload name.
    pub workload: String,
    /// The armed failpoint site.
    pub site: &'static str,
    /// The injected fault.
    pub fault: Fault,
    /// How many times the site fired during the drive.
    pub fired: u64,
    /// What the pipeline did.
    pub verdict: ChaosVerdict,
}

/// Configuration of a chaos campaign.  Empty filters mean "all".
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Restrict to these bundled workloads (all when empty).
    pub workloads: Vec<String>,
    /// Restrict to these failpoint sites (all when empty).
    pub sites: Vec<String>,
}

/// The aggregate result of a chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosCampaign {
    /// Every executed case, in (workload, site, fault) order.
    pub outcomes: Vec<ChaosOutcome>,
    /// Catalog sites that never fired on any driven workload.
    pub untriggered_sites: Vec<&'static str>,
    /// Wall-clock time of the campaign.
    pub elapsed: Duration,
}

impl ChaosCampaign {
    /// The failed cases.
    pub fn failures(&self) -> Vec<&ChaosOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.verdict.acceptable())
            .collect()
    }

    /// True when every case was acceptable and every site fired somewhere.
    pub fn clean(&self) -> bool {
        self.failures().is_empty() && self.untriggered_sites.is_empty()
    }

    /// Cases whose fault actually fired.
    pub fn triggered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fired > 0).count()
    }
}

/// Runs the chaos campaign over the bundled corpus.  Errors (typed, not a
/// panic) when fault injection is not compiled in.
pub fn run_chaos_campaign(config: &ChaosConfig) -> Result<ChaosCampaign, String> {
    if !rcp_guard::failpoints_enabled() {
        return Err(
            "fault injection is not compiled in (rebuild with --features failpoints)".to_string(),
        );
    }
    let start = Instant::now();
    let sites: Vec<&'static str> = rcp_guard::FAILPOINT_SITES
        .iter()
        .copied()
        .filter(|s| config.sites.is_empty() || config.sites.iter().any(|w| w == s))
        .collect();
    if sites.is_empty() {
        return Err("no failpoint sites match the requested filter".to_string());
    }
    let mut outcomes = Vec::new();
    let mut triggered: Vec<&'static str> = Vec::new();
    for bundled in BUNDLED_LOOPS {
        if !config.workloads.is_empty() && !config.workloads.iter().any(|w| w == bundled.name) {
            continue;
        }
        let program = bundled.program();
        let params: Vec<(String, i64)> = bundled
            .survey_params
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        rcp_guard::disarm_all();
        let reference = sequential_reference(&program, &params)
            .map_err(|e| format!("{}: fault-free reference failed: {e}", bundled.name))?;
        for site in &sites {
            for fault in [Fault::Panic, Fault::BudgetExhaust] {
                let outcome = run_chaos_case(&program, &params, &reference, site, fault)?;
                if outcome.fired > 0 && !triggered.contains(site) {
                    triggered.push(site);
                }
                outcomes.push(ChaosOutcome {
                    workload: bundled.name.to_string(),
                    ..outcome
                });
            }
        }
    }
    if outcomes.is_empty() {
        return Err("no bundled workloads match the requested filter".to_string());
    }
    let untriggered_sites = sites
        .iter()
        .copied()
        .filter(|s| !triggered.contains(s))
        .collect();
    Ok(ChaosCampaign {
        outcomes,
        untriggered_sites,
        elapsed: start.elapsed(),
    })
}

/// Runs one chaos case: arms exactly `site` with `fault`, drives the full
/// pipeline against `reference`, disarms, and reports.  The returned
/// outcome's `workload` field is empty (the campaign fills it in).
// Panic-hygiene allow: the `expect` re-interns a site name that `arm()`
// just validated against the same catalog.
#[allow(clippy::expect_used)]
pub fn run_chaos_case(
    program: &Program,
    params: &[(String, i64)],
    reference: &ArrayStore,
    site: &str,
    fault: Fault,
) -> Result<ChaosOutcome, String> {
    rcp_guard::disarm_all();
    rcp_guard::arm(site, fault)?;
    let site: &'static str = rcp_guard::FAILPOINT_SITES
        .iter()
        .copied()
        .find(|s| *s == site)
        .expect("arm() validated the site");
    // The last line of defence: even a bug in the session's own catch
    // boundaries must not kill the campaign.  An unwind reaching this
    // frame is itself the finding.
    let verdict = match rcp_guard::catch(|| drive(program, params, reference)) {
        Ok(verdict) => verdict,
        Err(interrupt) => {
            ChaosVerdict::Failed(format!("unwind escaped the session API: {interrupt}"))
        }
    };
    let fired = rcp_guard::fire_count(site);
    rcp_guard::disarm_all();
    Ok(ChaosOutcome {
        workload: String::new(),
        site,
        fault,
        fired,
        verdict,
    })
}

/// The fault-free sequential reference store of a workload.
pub fn sequential_reference(
    program: &Program,
    params: &[(String, i64)],
) -> Result<ArrayStore, String> {
    let config = Config {
        params: params.to_vec(),
        ..Config::default()
    };
    let values = config
        .resolve_params(program, &[])
        .map_err(|e| e.to_string())?;
    let bound = program.bind_params(&values);
    let schedule = rcp_codegen::Schedule::sequential(&bound, &[]);
    Ok(execute_sequential(&schedule, &RefKernel::new(&bound)))
}

/// Drives the full session pipeline under the armed fault and classifies
/// the behaviour against the three acceptable shapes.
fn drive(program: &Program, params: &[(String, i64)], reference: &ArrayStore) -> ChaosVerdict {
    // Cold caches, so memoised solver results from the fault-free
    // reference run cannot mask cache-miss failpoints (`intlin::hnf`,
    // `presburger::emptiness`).
    let config = Config {
        params: params.to_vec(),
        ..Config::default()
    }
    .with_cold_caches();
    let values = match config.resolve_params(program, &[]) {
        Ok(values) => values,
        Err(e) => return ChaosVerdict::TypedError(e.to_string()),
    };
    let session = Session::with_config(config);
    let analyzed = match session.load(program.clone()) {
        Err(e) => return ChaosVerdict::TypedError(e.to_string()),
        Ok(analyzed) => analyzed,
    };
    if let Some(report) = analyzed.degradation() {
        // The ladder engaged: whatever rung we landed on, the sequential
        // schedule must still reproduce the reference bit-for-bit.
        let schedule = match analyzed.sequential_schedule() {
            Err(e) => {
                return ChaosVerdict::Failed(format!(
                    "degraded session lost the sequential rung: {e}"
                ))
            }
            Ok(schedule) => schedule,
        };
        let bound = program.bind_params(&values);
        let store = execute_sequential(&schedule, &RefKernel::new(&bound));
        if !reference.diff(&store, 0.0).is_empty() {
            return ChaosVerdict::Failed(
                "degraded sequential store diverges from the reference".to_string(),
            );
        }
        return ChaosVerdict::Degraded(report.level.as_str().to_string());
    }
    let scheduled = match analyzed.partition().and_then(|stage| stage.schedule()) {
        Err(e) => return ChaosVerdict::TypedError(e.to_string()),
        Ok(scheduled) => scheduled,
    };
    match scheduled.execute_checked() {
        Err(e) => {
            // Executor-stage fault: typed error, and the sequential
            // fallback (the bottom rung) must still match the reference.
            let store = execute_sequential(scheduled.sequential(), &scheduled.kernel());
            if !reference.diff(&store, 0.0).is_empty() {
                return ChaosVerdict::Failed(
                    "sequential fallback diverges after an executor fault".to_string(),
                );
            }
            ChaosVerdict::TypedError(e.to_string())
        }
        Ok(result) => {
            let check = Verification::check(reference, &result);
            if check.passed() {
                ChaosVerdict::Passed
            } else {
                ChaosVerdict::Failed(format!("{check} vs the reference under an injected fault"))
            }
        }
    }
}

/// Renders a chaos case as a committable `.loop` regression file (see
/// `tests/regressions/`): the program body with a `! chaos:` header naming
/// the armed site and fault, plus the standard `! params:` line.
pub fn render_chaos_regression(
    name: &str,
    program: &Program,
    params: &[(String, i64)],
    site: &str,
    fault: Fault,
) -> String {
    let mut program = program.clone();
    program.name = name.to_string();
    let params_line = params
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "! rcp-fuzz chaos regression: the pipeline must yield a typed error or a\n\
         ! store-identical degraded result under this injected fault\n\
         ! chaos: site {site} fault {fault}\n\
         ! params: {params_line}\n\
         {body}",
        body = rcp_lang::pretty(&program),
    )
}

/// A parsed chaos regression: the program, its parameter binding, and the
/// `(site, fault)` the `! chaos:` header arms.
pub type ChaosRegression = (Program, Vec<(String, i64)>, String, Fault);

/// Parses a committed chaos regression file: the program, its parameter
/// binding, and the `(site, fault)` the `! chaos:` header arms.
pub fn parse_chaos_regression(source: &str) -> Result<ChaosRegression, String> {
    let (program, params) = parse_regression(source)?;
    for line in source.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("! chaos:") {
            let words: Vec<&str> = rest.split_whitespace().collect();
            return match words.as_slice() {
                ["site", site, "fault", fault] => {
                    let fault = Fault::parse(fault)
                        .ok_or_else(|| format!("unknown chaos fault `{fault}`"))?;
                    Ok((program, params, site.to_string(), fault))
                }
                _ => Err(format!("malformed chaos header `!{rest}`")),
            };
        }
    }
    Err("missing `! chaos: site <site> fault <fault>` header".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_regressions_round_trip() {
        let program = rcp_workloads::bundled_loop("example1").unwrap().program();
        let params = vec![("N1".to_string(), 6), ("N2".to_string(), 6)];
        let rendered = render_chaos_regression(
            "chaos_roundtrip",
            &program,
            &params,
            "session::partition",
            Fault::Panic,
        );
        let (parsed, parsed_params, site, fault) = parse_chaos_regression(&rendered).unwrap();
        assert_eq!(parsed.name, "chaos_roundtrip");
        assert_eq!(parsed_params, params);
        assert_eq!(site, "session::partition");
        assert_eq!(fault, Fault::Panic);
        let mut renamed = program.canonicalized();
        renamed.name = parsed.name.clone();
        assert_eq!(parsed, renamed);
    }

    #[test]
    fn malformed_chaos_headers_are_rejected() {
        let base = "PROGRAM t\nDO I = 1, 4\n  S1: a(I) = a(I)\nENDDO\nEND\n";
        assert!(parse_chaos_regression(base)
            .unwrap_err()
            .contains("missing"));
        let bad_fault = format!("! chaos: site intlin::hnf fault explode\n{base}");
        assert!(parse_chaos_regression(&bad_fault)
            .unwrap_err()
            .contains("unknown chaos fault"));
        let malformed = format!("! chaos: only-half-a-header\n{base}");
        assert!(parse_chaos_regression(&malformed)
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn the_campaign_refuses_politely_without_failpoints() {
        if !rcp_guard::failpoints_enabled() {
            let err = run_chaos_campaign(&ChaosConfig::default()).unwrap_err();
            assert!(err.contains("not compiled in"), "{err}");
        }
    }
}
