//! The differential harness: every applicable scheme, at several thread
//! counts, bit-for-bit against sequential execution.
//!
//! The oracle runs in two stages per scheme:
//!
//! 1. **Structural soundness.**  The scheme's schedule must cover the
//!    sequential instance multiset exactly ([`Schedule::validate_coverage`])
//!    and must respect the computed dependence relation `Rd` positionally:
//!    for every edge, the source instance must execute in an earlier
//!    barrier phase than the sink, or strictly earlier within the same
//!    sequential unit of one phase.  Baseline schemes reproduce their
//!    *published* structure, which for some programs knowingly
//!    under-synchronises (see `rcp_session::SchemeSchedule`); such
//!    schedules are classified [`Verdict::UnderSynchronised`] and excluded
//!    from the execution oracle rather than reported as miscompiles.  The
//!    paper's own scheme has no such tolerance: its partitions are
//!    validated against `Rd` (Theorem 1), so a violation there is a
//!    [`Verdict::Discrepancy`].  Coverage failures are always real
//!    discrepancies — no published scheme drops or duplicates work.
//!
//! 2. **Execution.**  Structurally sound schedules are executed at 1, 2 and
//!    4 threads and checked against the sequential store by
//!    [`Verification::check`]: bit for bit, race free.  Any mismatch or
//!    detected write-write race is a [`Verdict::Discrepancy`].  This still
//!    catches genuine analysis bugs: if the dependence analysis misses an
//!    edge, the schedule passes the structural check *against the wrong
//!    `Rd`* but the executed store diverges from sequential.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rcp_codegen::{PointExpander, Schedule};
use rcp_core::{concrete_partition, symbolic_plan};
use rcp_depend::DependenceAnalysis;
use rcp_loopir::Program;
use rcp_presburger::DenseRelation;
use rcp_runtime::{execute_schedule, execute_sequential, RefKernel, Verification};
use rcp_session::{scheme_names, Config, RcpError, Session, DEFAULT_SCHEME};

use crate::generator::generate;
use crate::minimize::minimize;

/// The thread counts every sound schedule is executed at.
pub const FUZZ_THREADS: [usize; 3] = [1, 2, 4];

/// The pseudo-scheme name of the symbolic-instantiation oracle: per case,
/// the partition materialised from the symbolic plan is diffed against the
/// legacy per-binding concrete partition.  Tallied alongside the scheme
/// verdicts so a divergence fails the campaign like any miscompile.
pub const PLAN_ORACLE: &str = "plan-instantiate";

/// The differential verdict for one scheme on one case.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The scheme rejected the case (e.g. it requires a non-aggregated
    /// loop-level analysis).  The payload is the scheme's own reason.
    NotApplicable(String),
    /// The schedule is well-covered but its phase/unit structure violates
    /// the computed dependence relation — the published baseline shape
    /// under-synchronises this program.  Excluded from the execution
    /// oracle; the payload counts the violated instance-order pairs.
    UnderSynchronised {
        /// Number of dependence instance pairs the schedule leaves
        /// unordered or mis-ordered.
        violations: usize,
    },
    /// Structurally sound and bit-identical to sequential execution at
    /// every thread count.
    Passed,
    /// A genuine differential failure.
    Discrepancy(Discrepancy),
}

/// A differential failure: what diverged, for which scheme, at how many
/// threads.
#[derive(Clone, Debug, PartialEq)]
pub struct Discrepancy {
    /// The scheme whose execution diverged.
    pub scheme: String,
    /// The thread count the divergence was observed at (0 for structural
    /// coverage failures, which are thread-independent).
    pub threads: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// All verdicts of one case, in registry order.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// `(scheme name, verdict)` per registered scheme.
    pub verdicts: Vec<(String, Verdict)>,
}

impl CaseResult {
    /// The first discrepancy, if any scheme diverged.
    pub fn discrepancy(&self) -> Option<&Discrepancy> {
        self.verdicts.iter().find_map(|(_, v)| match v {
            Verdict::Discrepancy(d) => Some(d),
            _ => None,
        })
    }
}

/// Counts dependence instance pairs whose schedule positions violate the
/// required order: for every `Rd` edge, each source instance must execute
/// in an earlier phase than each sink instance, or strictly earlier within
/// the same sequential unit (chain, or intra-item program order) of the
/// same phase.  Instances missing from the schedule also count.
pub fn ordering_violations(
    schedule: &Schedule,
    analysis: &DependenceAnalysis,
    params: &[i64],
    rd: &DenseRelation,
) -> usize {
    // (phase, unit, step) per instance: unit = DOALL item or chain index,
    // step = sequential position inside the unit.
    let mut pos: HashMap<(usize, &[i64]), (usize, usize, usize)> = HashMap::new();
    for (phase_idx, phase) in schedule.phases().enumerate() {
        for (unit, instances) in phase.units().enumerate() {
            for (step, inst) in instances.instances().enumerate() {
                pos.insert(inst, (phase_idx, unit, step));
            }
        }
    }
    let expander = PointExpander::new(analysis, params);
    let mut violations = 0;
    for (src, dst) in rd.iter() {
        if src == dst {
            // Intra-point dependences are honoured by the program-order
            // execution inside a work item.
            continue;
        }
        expander.for_each_instance(src, |s, s_idx| {
            expander.for_each_instance(dst, |d, d_idx| {
                if (s, s_idx) == (d, d_idx) {
                    return;
                }
                let ordered = match (pos.get(&(s, s_idx)), pos.get(&(d, d_idx))) {
                    (Some(&(ps, us, ss)), Some(&(pd, ud, sd))) => {
                        ps < pd || (ps == pd && us == ud && ss < sd)
                    }
                    _ => false,
                };
                if !ordered {
                    violations += 1;
                }
            });
        });
    }
    violations
}

/// The verdict of a well-covered schedule of `scheme` that leaves
/// `violations` dependence pairs of `Rd` unordered, or `None` when it
/// orders them all.  The paper's scheme validates its partitions against
/// `Rd` (Theorem 1), so any violation is a discrepancy; the baselines keep
/// their published tolerance and are classified under-synchronised.
fn ordering_verdict(scheme: &str, violations: usize) -> Option<Verdict> {
    if violations == 0 {
        return None;
    }
    Some(if scheme == DEFAULT_SCHEME {
        Verdict::Discrepancy(Discrepancy {
            scheme: scheme.to_string(),
            threads: 0,
            detail: format!("ordering: {violations} dependence pair(s) of Rd left unordered"),
        })
    } else {
        Verdict::UnderSynchronised { violations }
    })
}

/// Runs one program through the full differential oracle: sequential
/// reference once, then every registered scheme through structure and
/// execution checks.
pub fn run_case(program: &Program, params: &[(String, i64)]) -> Result<CaseResult, RcpError> {
    let session = Session::with_config(Config {
        params: params.to_vec(),
        ..Config::default()
    });
    let stage = session.load(program.clone())?.partition()?;
    let runtime_program = stage.runtime_program();
    let runtime_values = stage.runtime_values();
    let kernel = RefKernel::new(runtime_program);
    let reference_schedule = Schedule::sequential(runtime_program, runtime_values);
    let reference = execute_sequential(&reference_schedule, &kernel);

    let mut verdicts = Vec::new();
    for scheme in scheme_names() {
        let verdict = match stage.schedule_with(scheme) {
            Err(err) => Verdict::NotApplicable(err.to_string()),
            Ok(scheduled) => {
                let schedule = scheduled.schedule();
                let coverage = schedule.validate_coverage(runtime_program, runtime_values);
                if !coverage.is_empty() {
                    Verdict::Discrepancy(Discrepancy {
                        scheme: scheme.to_string(),
                        threads: 0,
                        detail: format!(
                            "coverage: {} ({} problem(s))",
                            coverage[0],
                            coverage.len()
                        ),
                    })
                } else {
                    let violations =
                        ordering_violations(schedule, stage.analysis(), runtime_values, stage.rd());
                    if let Some(verdict) = ordering_verdict(scheme, violations) {
                        verdict
                    } else {
                        let mut verdict = Verdict::Passed;
                        for threads in FUZZ_THREADS {
                            let check = Verification::check(
                                &reference,
                                &execute_schedule(schedule, &kernel, threads),
                            );
                            if !check.passed() {
                                verdict = Verdict::Discrepancy(Discrepancy {
                                    scheme: scheme.to_string(),
                                    threads,
                                    detail: format!("{check} vs sequential"),
                                });
                                break;
                            }
                        }
                        verdict
                    }
                }
            }
        };
        verdicts.push((scheme.to_string(), verdict));
    }
    verdicts.push((PLAN_ORACLE.to_string(), plan_oracle_verdict(&stage)));
    Ok(CaseResult { verdicts })
}

/// Diffs the symbolic plan's instantiation against the legacy per-binding
/// concrete partition for one staged case.  `runtime_values` matches the
/// stage's analysis on every rung: the symbolic rungs analyse the original
/// parametric program (values = the binding), the deferred rung analyses
/// the parameter-bound program (values = empty).
fn plan_oracle_verdict(stage: &rcp_session::Partitioned) -> Verdict {
    let analysis = stage.analysis();
    let values = stage.runtime_values();
    match symbolic_plan(analysis) {
        Err(reason) => Verdict::NotApplicable(format!("plan: {reason}")),
        Ok(plan) => match plan.instantiate(values) {
            Err(reason) => Verdict::NotApplicable(format!("instantiate: {reason}")),
            Ok(instantiated) => {
                let concrete = concrete_partition(analysis, values);
                if format!("{instantiated:?}") == format!("{concrete:?}") {
                    Verdict::Passed
                } else {
                    Verdict::Discrepancy(Discrepancy {
                        scheme: PLAN_ORACLE.to_string(),
                        threads: 0,
                        detail: format!(
                            "instantiated partition ({:?}) diverges from the per-binding \
                             concrete partition ({:?})",
                            instantiated.strategy(),
                            concrete.strategy()
                        ),
                    })
                }
            }
        },
    }
}

/// Configuration of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The campaign seed; per-case seeds derive from it.
    pub seed: u64,
    /// Number of nests to generate and check.
    pub count: usize,
    /// Shrink counterexamples before reporting them.
    pub minimize: bool,
}

/// Per-scheme verdict tally across a campaign.
#[derive(Clone, Debug, Default)]
pub struct SchemeStats {
    /// Scheme name.
    pub scheme: String,
    /// Cases the scheme rejected.
    pub not_applicable: usize,
    /// Cases whose published structure under-synchronises.
    pub under_synchronised: usize,
    /// Cases that were bit-identical to sequential at every thread count.
    pub passed: usize,
    /// Genuine differential failures.
    pub discrepancies: usize,
}

impl SchemeStats {
    /// Cases that entered the differential oracle for this scheme.
    pub fn applicable(&self) -> usize {
        self.passed + self.discrepancies
    }
}

/// A (possibly minimised) failing case.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// Case index inside the campaign.
    pub case_id: usize,
    /// The per-case seed (replays in isolation via `generate`).
    pub case_seed: u64,
    /// The failing program (minimised when the campaign asked for it).
    pub program: Program,
    /// Parameter bindings the failure reproduces at.
    pub params: Vec<(String, i64)>,
    /// What diverged.
    pub discrepancy: Discrepancy,
    /// Whether the minimiser ran on this counterexample.
    pub minimized: bool,
}

/// The aggregate result of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The campaign seed.
    pub seed: u64,
    /// Number of cases generated.
    pub count: usize,
    /// Per-scheme verdict tallies, in registry order.
    pub stats: Vec<SchemeStats>,
    /// Failing cases, in case order.
    pub counterexamples: Vec<CounterExample>,
    /// Cases the pipeline itself rejected (generator bug if ever
    /// non-empty: the generator must only emit loadable programs).
    pub errors: Vec<String>,
    /// Wall-clock time of the campaign.
    pub elapsed: Duration,
}

impl Campaign {
    /// True when no scheme diverged and no case errored.
    pub fn clean(&self) -> bool {
        self.counterexamples.is_empty() && self.errors.is_empty()
    }

    /// Nests checked per second.
    pub fn nests_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.count as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs a full campaign: generate `count` nests from `seed`, run each
/// through the differential oracle, minimise any counterexample if asked.
/// Deterministic in everything but `elapsed`.
// Panic-hygiene allow: `stats` was seeded from `scheme_names()` plus
// [`PLAN_ORACLE`], the same names every verdict row comes from.
#[allow(clippy::expect_used)]
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let start = Instant::now();
    let mut stats: Vec<SchemeStats> = scheme_names()
        .iter()
        .copied()
        .chain(std::iter::once(PLAN_ORACLE))
        .map(|name| SchemeStats {
            scheme: name.to_string(),
            ..SchemeStats::default()
        })
        .collect();
    let mut counterexamples = Vec::new();
    let mut errors = Vec::new();
    for id in 0..config.count {
        let case = generate(config.seed, id);
        match run_case(&case.program, &case.params) {
            Err(err) => errors.push(format!(
                "case {id} (seed {:#x}): pipeline rejected generated nest: {err}",
                case.case_seed
            )),
            Ok(result) => {
                for (scheme, verdict) in &result.verdicts {
                    let entry = stats
                        .iter_mut()
                        .find(|s| &s.scheme == scheme)
                        .expect("verdict scheme is registered");
                    match verdict {
                        Verdict::NotApplicable(_) => entry.not_applicable += 1,
                        Verdict::UnderSynchronised { .. } => entry.under_synchronised += 1,
                        Verdict::Passed => entry.passed += 1,
                        Verdict::Discrepancy(_) => entry.discrepancies += 1,
                    }
                }
                if let Some(d) = result.discrepancy() {
                    let (program, params) = if config.minimize {
                        minimize(&case.program, &case.params)
                    } else {
                        (case.program.clone(), case.params.clone())
                    };
                    counterexamples.push(CounterExample {
                        case_id: id,
                        case_seed: case.case_seed,
                        program,
                        params,
                        discrepancy: d.clone(),
                        minimized: config.minimize,
                    });
                }
            }
        }
    }
    Campaign {
        seed: config.seed,
        count: config.count,
        stats,
        counterexamples,
        errors,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_synchronisation_is_a_discrepancy_only_for_the_paper_scheme() {
        for scheme in scheme_names() {
            assert_eq!(ordering_verdict(scheme, 0), None, "{scheme}");
            match (scheme, ordering_verdict(scheme, 3)) {
                (DEFAULT_SCHEME, Some(Verdict::Discrepancy(d))) => {
                    assert_eq!(d.scheme, DEFAULT_SCHEME);
                    assert_eq!(d.threads, 0);
                    assert!(d.detail.contains("3 dependence pair(s)"), "{}", d.detail);
                }
                (DEFAULT_SCHEME, other) => panic!("the paper's scheme got {other:?}"),
                (_, verdict) => assert_eq!(
                    verdict,
                    Some(Verdict::UnderSynchronised { violations: 3 }),
                    "{scheme}"
                ),
            }
        }
        // A discrepancy makes the case a counterexample.
        let case = CaseResult {
            verdicts: vec![(
                DEFAULT_SCHEME.to_string(),
                ordering_verdict(DEFAULT_SCHEME, 1).unwrap(),
            )],
        };
        assert!(case.discrepancy().is_some());
    }
}
