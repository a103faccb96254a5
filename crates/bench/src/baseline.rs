//! `--baseline` diffing: compare a fresh `paper_results` run against a
//! previously recorded `BENCH_results.json`.
//!
//! The comparison is intentionally speedup-centric: for every experiment
//! present in both runs whose payload carries speedup series (the Figure-3
//! curves, the guard/trace overhead ratios, fuzz survival), each scheme's
//! speedup at the last common thread count is compared and classified as
//! improved / regressed / unchanged against a noise band.  Experiments
//! without series are matched by presence only, and experiments appearing
//! on one side only are called out.  A diff that compared nothing, or left
//! a series without its counterpart, reports why in
//! [`BaselineDiff::gaps`], so a gate cannot pass by comparing nothing.
//!
//! The modelled experiments of a diffed run are evaluated at the cost
//! model the baseline recorded ([`recorded_cost_model`]), so their series
//! do not move with the machine the diff runs on.

use crate::experiments::ExperimentReport;
use crate::speedup::SpeedupSeries;
use rcp_json::Json;
use rcp_runtime::CostModel;

/// Relative change below which a speedup delta counts as noise.
pub const NOISE_BAND: f64 = 0.05;

/// The comparison of one scheme's speedup between two runs.
#[derive(Clone, Debug)]
pub struct SchemeDelta {
    /// Experiment id (e.g. `fig3-ex1`).
    pub experiment: String,
    /// Scheme name (e.g. `REC`).
    pub scheme: String,
    /// Thread count at which the speedups are compared (the last one both
    /// runs measured).
    pub threads: usize,
    /// Speedup in the baseline run.
    pub old: f64,
    /// Speedup in the new run.
    pub new: f64,
}

impl SchemeDelta {
    /// `new / old` — above 1 the new run is faster.
    pub fn ratio(&self) -> f64 {
        if self.old == 0.0 {
            f64::INFINITY
        } else {
            self.new / self.old
        }
    }

    /// Human-readable classification against the noise band.
    pub fn verdict(&self) -> &'static str {
        let r = self.ratio();
        if r >= 1.0 + NOISE_BAND {
            "improved"
        } else if r <= 1.0 - NOISE_BAND {
            "REGRESSED"
        } else {
            "unchanged"
        }
    }
}

/// The full baseline comparison.
#[derive(Clone, Debug, Default)]
pub struct BaselineDiff {
    /// Per-scheme speedup deltas for experiments with series payloads.
    pub deltas: Vec<SchemeDelta>,
    /// Experiment ids only present in the new run.
    pub only_new: Vec<String>,
    /// Experiment ids only present in the baseline.
    pub only_old: Vec<String>,
    /// What the diff could not compare, one line each: an experiment of
    /// this run that carries series but has no baseline entry, or a series
    /// only one side of a compared experiment carries.
    pub unmatched: Vec<String>,
}

impl BaselineDiff {
    /// True when no scheme regressed beyond the noise band.
    pub fn no_regressions(&self) -> bool {
        self.deltas.iter().all(|d| d.verdict() != "REGRESSED")
    }

    /// The deltas whose new/old ratio fell below `1 - tolerance` — the
    /// regressions a CI gate should fail on.  `tolerance` replaces the
    /// display-oriented [`NOISE_BAND`] so cross-machine comparisons (a CI
    /// runner diffing against a baseline recorded elsewhere) can use a
    /// wider band than same-machine ones.
    pub fn regressions_beyond(&self, tolerance: f64) -> Vec<&SchemeDelta> {
        self.deltas
            .iter()
            .filter(|d| d.ratio() <= 1.0 - tolerance)
            .collect()
    }

    /// Why the diff cannot gate the run, one line per reason: it compared
    /// no series at all, or some series had nothing to compare against.
    /// Empty when every series of the compared experiments was compared.
    pub fn gaps(&self) -> Vec<String> {
        let nothing = self
            .deltas
            .is_empty()
            .then(|| "no speedup series was compared".to_string());
        nothing.into_iter().chain(self.unmatched.clone()).collect()
    }

    /// Renders the comparison as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.deltas.is_empty() {
            out.push_str("no comparable speedup series between the runs\n");
        } else {
            out.push_str(&format!(
                "{:<12} {:<10} {:>4}  {:>8}  {:>8}  {:>7}  verdict\n",
                "experiment", "scheme", "thr", "old", "new", "ratio"
            ));
            for d in &self.deltas {
                out.push_str(&format!(
                    "{:<12} {:<10} {:>4}  {:>8.2}  {:>8.2}  {:>6.2}x  {}\n",
                    d.experiment,
                    d.scheme,
                    d.threads,
                    d.old,
                    d.new,
                    d.ratio(),
                    d.verdict()
                ));
            }
        }
        if !self.only_new.is_empty() {
            out.push_str(&format!(
                "experiments new in this run: {}\n",
                self.only_new.join(", ")
            ));
        }
        if !self.only_old.is_empty() {
            out.push_str(&format!(
                "experiments only in the baseline: {}\n",
                self.only_old.join(", ")
            ));
        }
        for line in &self.unmatched {
            out.push_str(&format!("not compared: {line}\n"));
        }
        out
    }
}

/// The cost model a results file was recorded with: its
/// `cost_model.instance_cost_ns` over the default barrier, item and spawn
/// costs, the same shape `CostModel::calibrated` gives.  `None` when the
/// file records no cost model.
pub fn recorded_cost_model(baseline: &Json) -> Option<CostModel> {
    Some(CostModel {
        instance_cost_ns: baseline["cost_model"]["instance_cost_ns"].as_f64()?,
        ..CostModel::default()
    })
}

/// Extracts the speedup series of one experiment payload, if it has any
/// (every gated experiment uses the same `{"series": [{"scheme",
/// "speedups"}]}` shape).  The `linear` reference curve carries no
/// information and is left out.
fn series_of(data: &Json) -> Vec<SpeedupSeries> {
    let empty = Vec::new();
    data["series"]
        .as_array()
        .unwrap_or(&empty)
        .iter()
        .filter_map(SpeedupSeries::from_json)
        .filter(|s| s.scheme != "linear")
        .collect()
}

/// Compares freshly generated reports against a parsed baseline document
/// (the whole `BENCH_results.json` payload or anything with the same
/// `{"experiments": [...]}` shape).
pub fn diff_against_baseline(new_reports: &[ExperimentReport], baseline: &Json) -> BaselineDiff {
    let empty = Vec::new();
    let old_experiments = baseline["experiments"].as_array().unwrap_or(&empty);
    let old_by_id = |id: &str| {
        old_experiments
            .iter()
            .find(|e| e["id"].as_str() == Some(id))
    };

    let mut diff = BaselineDiff::default();
    for report in new_reports {
        let new_series = series_of(&report.data);
        let Some(old) = old_by_id(&report.id) else {
            diff.only_new.push(report.id.clone());
            if !new_series.is_empty() {
                diff.unmatched.push(format!(
                    "{}: carries series but has no baseline entry",
                    report.id
                ));
            }
            continue;
        };
        let old_series = series_of(&old["data"]);
        for missing in old_series
            .iter()
            .filter(|old| !new_series.iter().any(|new| new.scheme == old.scheme))
        {
            diff.unmatched.push(format!(
                "{} / {}: in the baseline but not in this run",
                report.id, missing.scheme
            ));
        }
        for new_series in new_series {
            let Some(old_series) = old_series.iter().find(|s| s.scheme == new_series.scheme) else {
                diff.unmatched.push(format!(
                    "{} / {}: in this run but not in the baseline",
                    report.id, new_series.scheme
                ));
                continue;
            };
            let threads = new_series.speedups.len().min(old_series.speedups.len());
            if threads == 0 {
                continue;
            }
            diff.deltas.push(SchemeDelta {
                experiment: report.id.clone(),
                scheme: new_series.scheme.clone(),
                threads,
                old: old_series.at(threads),
                new: new_series.at(threads),
            });
        }
    }
    for old in old_experiments {
        if let Some(id) = old["id"].as_str() {
            if !new_reports.iter().any(|r| r.id == id) {
                diff.only_old.push(id.to_string());
            }
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_json::json;

    fn report(id: &str, schemes: &[(&str, &[f64])]) -> ExperimentReport {
        ExperimentReport {
            id: id.to_string(),
            description: String::new(),
            text: String::new(),
            data: json!({
                "series": schemes.iter().map(|(name, speedups)| json!({
                    "scheme": *name,
                    "speedups": speedups.to_vec(),
                })).collect::<Vec<_>>(),
            }),
        }
    }

    fn payload(reports: &[ExperimentReport]) -> Json {
        json!({ "experiments": reports.to_vec() })
    }

    #[test]
    fn detects_improvements_and_regressions() {
        let old = payload(&[
            report("fig3-ex1", &[("REC", &[1.0, 2.0]), ("PDM", &[1.0, 1.8])]),
            report("gone", &[("REC", &[1.0])]),
        ]);
        let new = [
            report("fig3-ex1", &[("REC", &[1.0, 2.4]), ("PDM", &[1.0, 1.2])]),
            report("fresh", &[]),
        ];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 2);
        let rec = diff.deltas.iter().find(|d| d.scheme == "REC").unwrap();
        assert_eq!(rec.verdict(), "improved");
        assert_eq!(rec.threads, 2);
        let pdm = diff.deltas.iter().find(|d| d.scheme == "PDM").unwrap();
        assert_eq!(pdm.verdict(), "REGRESSED");
        assert!(!diff.no_regressions());
        // The gate: PDM fell 1.8 -> 1.2 (ratio 0.67), beyond a 5% or 20%
        // tolerance but inside a 40% one.
        assert_eq!(diff.regressions_beyond(NOISE_BAND).len(), 1);
        assert_eq!(diff.regressions_beyond(0.20).len(), 1);
        assert!(diff.regressions_beyond(0.40).is_empty());
        assert_eq!(diff.only_new, vec!["fresh"]);
        assert_eq!(diff.only_old, vec!["gone"]);
        let text = diff.to_text();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("improved"));
    }

    #[test]
    fn unchanged_within_noise_band_and_shorter_series() {
        // The new run has fewer thread counts: comparison happens at the
        // last common count.
        let old = payload(&[report("fig3-ex1", &[("REC", &[1.0, 1.7, 2.1, 2.4])])]);
        let new = [report("fig3-ex1", &[("REC", &[1.02])])];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.deltas[0].threads, 1);
        assert_eq!(diff.deltas[0].verdict(), "unchanged");
        assert!(diff.no_regressions());
    }

    #[test]
    fn linear_reference_is_ignored() {
        let old = payload(&[report(
            "fig3-ex2",
            &[("linear", &[1.0, 2.0]), ("REC", &[1.0, 1.5])],
        )]);
        let new = [report(
            "fig3-ex2",
            &[("linear", &[1.0, 2.0]), ("REC", &[1.0, 1.5])],
        )];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.deltas[0].scheme, "REC");
    }

    #[test]
    fn round_trips_through_the_json_parser() {
        // A baseline written by pretty() and re-read by Json::parse must
        // compare clean against itself.
        let reports = [report("fig3-ex1", &[("REC", &[1.0, 2.0])])];
        let parsed = Json::parse(&payload(&reports).pretty()).unwrap();
        let diff = diff_against_baseline(&reports, &parsed);
        assert!(diff.no_regressions());
        assert_eq!(diff.deltas[0].verdict(), "unchanged");
        assert!(diff.gaps().is_empty(), "{:?}", diff.gaps());
    }

    #[test]
    fn a_diff_that_compares_no_series_cannot_gate() {
        // `ex4` carries no series, and the baseline does not record it.
        let old = payload(&[report("fig3-ex1", &[("REC", &[1.0, 2.0])])]);
        let new = [ExperimentReport {
            data: json!({ "steps": 318 }),
            ..report("ex4", &[])
        }];
        let diff = diff_against_baseline(&new, &old);
        assert!(diff.deltas.is_empty());
        assert!(diff.no_regressions());
        assert_eq!(diff.gaps(), ["no speedup series was compared"]);
    }

    #[test]
    fn a_series_carrying_experiment_without_a_baseline_entry_is_a_gap() {
        let old = payload(&[report("fig3-ex1", &[("REC", &[1.0, 2.0])])]);
        let new = [
            report("fig3-ex1", &[("REC", &[1.0, 2.0])]),
            report("fig3-ex4", &[("linear", &[1.0, 2.0]), ("REC", &[1.0, 1.6])]),
        ];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(
            diff.gaps(),
            ["fig3-ex4: carries series but has no baseline entry"]
        );
        // An experiment without series and without a baseline entry is
        // only reported as new.
        let new = [
            report("fig3-ex1", &[("REC", &[1.0, 2.0])]),
            report("ex4", &[]),
        ];
        let diff = diff_against_baseline(&new, &old);
        assert!(diff.gaps().is_empty());
        assert_eq!(diff.only_new, ["ex4"]);
    }

    #[test]
    fn a_series_one_side_lacks_is_a_gap() {
        let old = payload(&[report(
            "fig3-ex2",
            &[
                ("linear", &[1.0, 2.0]),
                ("REC", &[1.0, 1.5]),
                ("UNIQUE", &[1.0, 1.4]),
            ],
        )]);
        // The run lost UNIQUE (the old code only looked from new to old).
        let new = [report("fig3-ex2", &[("REC", &[1.0, 1.5])])];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(
            diff.gaps(),
            ["fig3-ex2 / UNIQUE: in the baseline but not in this run"]
        );
        assert!(diff.to_text().contains("not compared: fig3-ex2 / UNIQUE"));
        // And the other way round: a series the baseline never recorded.
        let new = [report(
            "fig3-ex2",
            &[
                ("REC", &[1.0, 1.5]),
                ("UNIQUE", &[1.0, 1.4]),
                ("PDM", &[1.0, 1.2]),
            ],
        )];
        let diff = diff_against_baseline(&new, &old);
        assert_eq!(diff.deltas.len(), 2);
        assert_eq!(
            diff.gaps(),
            ["fig3-ex2 / PDM: in this run but not in the baseline"]
        );
    }

    #[test]
    fn the_recorded_cost_model_replaces_calibration() {
        let recorded = json!({
            "cost_model": json!({ "instance_cost_ns": 139.25, "barrier_cost_ns": 2000.0 }),
        });
        let model = recorded_cost_model(&recorded).unwrap();
        assert_eq!(model.instance_cost_ns, 139.25);
        assert_eq!(model.barrier_cost_ns, CostModel::default().barrier_cost_ns);
        assert!(recorded_cost_model(&payload(&[])).is_none());
    }
}
