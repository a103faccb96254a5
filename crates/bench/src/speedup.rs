//! Speedup-series helpers shared by the benchmark harness.
//!
//! A *speedup series* is what one curve of Figure 3 shows: modelled speedup
//! of one scheme over the sequential loop for 1–4 threads.  Schemes that
//! produce an executable [`rcp_codegen::Schedule`] go through the runtime
//! cost model directly; schemes described analytically (phase sizes only,
//! or the DOACROSS pipeline) use the closed-form helpers below so that very
//! large workloads never need to materialise every iteration.

use rcp_json::{json, Json};
use rcp_runtime::{makespan, CostModel};

/// One curve of a speedup plot.
#[derive(Clone, Debug)]
pub struct SpeedupSeries {
    /// Scheme name (REC, PDM, PL, UNIQUE, PAR, DOACROSS, linear).
    pub scheme: String,
    /// Speedup per thread count, starting at 1 thread.
    pub speedups: Vec<f64>,
}

impl SpeedupSeries {
    /// Builds a series by evaluating `f(threads)` for `1..=max_threads`.
    pub fn from_fn(scheme: &str, max_threads: usize, f: impl Fn(usize) -> f64) -> Self {
        SpeedupSeries {
            scheme: scheme.to_string(),
            speedups: (1..=max_threads).map(f).collect(),
        }
    }

    /// The ideal linear-speedup reference curve.
    pub fn linear(max_threads: usize) -> Self {
        SpeedupSeries::from_fn("linear", max_threads, |t| t as f64)
    }

    /// Speedup at a given thread count (1-based).
    pub fn at(&self, threads: usize) -> f64 {
        self.speedups[threads - 1]
    }

    /// The machine-readable form of the series.
    pub fn to_json(&self) -> Json {
        json!({ "scheme": self.scheme, "speedups": self.speedups })
    }

    /// Rebuilds a series from its [`SpeedupSeries::to_json`] form.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(SpeedupSeries {
            scheme: value["scheme"].as_str()?.to_string(),
            speedups: value["speedups"]
                .as_array()?
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<_>>()?,
        })
    }
}

/// A speedup figure: several series over a common workload.
#[derive(Clone, Debug)]
pub struct SpeedupFigure {
    /// Figure identifier (e.g. `fig3-ex1`).
    pub id: String,
    /// Workload and parameters in human-readable form.
    pub workload: String,
    /// The curves.
    pub series: Vec<SpeedupSeries>,
}

impl SpeedupFigure {
    /// Renders the figure as an aligned text table (one row per scheme, one
    /// column per thread count).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}  ({})\n", self.id, self.workload));
        out.push_str(&format!("{:<10}", "scheme"));
        let n = self.series.first().map_or(0, |s| s.speedups.len());
        for t in 1..=n {
            out.push_str(&format!("{:>10}", format!("{t} thr")));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:<10}", s.scheme));
            for v in &s.speedups {
                out.push_str(&format!("{:>10.2}", v));
            }
            out.push('\n');
        }
        out
    }

    /// The machine-readable form of the figure.
    pub fn to_json(&self) -> Json {
        json!({
            "id": self.id,
            "workload": self.workload,
            "series": self.series.iter().map(SpeedupSeries::to_json).collect::<Vec<_>>(),
        })
    }

    /// Rebuilds a figure from its [`SpeedupFigure::to_json`] form.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(SpeedupFigure {
            id: value["id"].as_str()?.to_string(),
            workload: value["workload"].as_str()?.to_string(),
            series: value["series"]
                .as_array()?
                .iter()
                .map(SpeedupSeries::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// An abstract phase used for analytic (size-only) speedup evaluation.
#[derive(Clone, Copy, Debug)]
pub enum PhaseShape {
    /// A DOALL over `items` independent units of `unit_instances` statement
    /// instances each.
    Doall {
        /// Number of independent units.
        items: usize,
        /// Statement instances per unit.
        unit_instances: f64,
    },
    /// A set of independent sequential chains with the given lengths (in
    /// statement instances).
    Chains(&'static [usize]),
    /// A set of `count` equal chains of `len` statement instances.
    EqualChains {
        /// Number of chains.
        count: usize,
        /// Instances per chain.
        len: f64,
    },
}

/// Modelled execution time of a sequence of abstract phases.
pub fn phases_time_ns(model: &CostModel, phases: &[PhaseShape], threads: usize) -> f64 {
    phases
        .iter()
        .map(|p| match *p {
            PhaseShape::Doall {
                items,
                unit_instances,
            } => {
                let unit = unit_instances * model.instance_cost_ns + model.item_overhead_ns;
                // items identical units over `threads` workers
                let per_worker = (items + threads - 1) / threads.max(1);
                per_worker as f64 * unit + model.barrier_cost_ns
            }
            PhaseShape::Chains(lens) => {
                let costs: Vec<f64> = lens
                    .iter()
                    .map(|&l| l as f64 * (model.instance_cost_ns + model.item_overhead_ns))
                    .collect();
                makespan(&costs, threads) + model.barrier_cost_ns
            }
            PhaseShape::EqualChains { count, len } => {
                let cost = len * (model.instance_cost_ns + model.item_overhead_ns);
                let per_worker = (count + threads - 1) / threads.max(1);
                per_worker as f64 * cost + model.barrier_cost_ns
            }
        })
        .sum()
}

/// Modelled speedup of a sequence of abstract phases covering
/// `total_instances` statement instances.
pub fn phases_speedup(
    model: &CostModel,
    phases: &[PhaseShape],
    total_instances: usize,
    threads: usize,
) -> f64 {
    let sequential = total_instances as f64 * model.instance_cost_ns;
    sequential / phases_time_ns(model, phases, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_doall_scales() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let phases = [PhaseShape::Doall {
            items: 1000,
            unit_instances: 1.0,
        }];
        let s4 = phases_speedup(&model, &phases, 1000, 4);
        assert!(
            (s4 - 4.0).abs() < 0.1,
            "ideal DOALL speedup should be ~4, got {s4}"
        );
    }

    #[test]
    fn equal_chains_balance() {
        let model = CostModel {
            barrier_cost_ns: 0.0,
            item_overhead_ns: 0.0,
            ..Default::default()
        };
        let phases = [PhaseShape::EqualChains {
            count: 8,
            len: 100.0,
        }];
        let s2 = phases_speedup(&model, &phases, 800, 2);
        let s4 = phases_speedup(&model, &phases, 800, 4);
        assert!((s2 - 2.0).abs() < 0.1);
        assert!((s4 - 4.0).abs() < 0.1);
    }

    #[test]
    fn series_and_table() {
        let fig = SpeedupFigure {
            id: "fig-test".into(),
            workload: "toy".into(),
            series: vec![
                SpeedupSeries::linear(4),
                SpeedupSeries::from_fn("flat", 4, |_| 1.0),
            ],
        };
        let table = fig.to_table();
        assert!(table.contains("linear"));
        assert!(table.contains("4 thr"));
        assert_eq!(fig.series[0].at(3), 3.0);
    }
}
