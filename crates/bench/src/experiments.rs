//! The experiment harness: one function per figure/table of the paper.
//!
//! Every function regenerates the corresponding artifact — the same rows /
//! series the paper reports — and returns a formatted report plus
//! machine-readable JSON.  Absolute speedups come from the calibrated cost
//! model (the container has a single CPU; see DESIGN.md); the *shape* of
//! each figure (which scheme wins, by roughly what factor, where the
//! crossovers fall) is the reproduced result, recorded against the paper in
//! EXPERIMENTS.md.

// Panic-hygiene allow (module-wide): every experiment drives a fixed,
// bundled workload whose pipeline behaviour is itself under test elsewhere;
// a broken invariant here means the harness cannot reproduce the paper's
// artifact, and aborting with the message is the correct report.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::speedup::{phases_speedup, PhaseShape, SpeedupFigure, SpeedupSeries};
use rcp_baselines::doacross_plan;
use rcp_codegen::{generate_listing, Schedule};
use rcp_core::{
    concrete_partition, concrete_partition_from_dense, dataflow_partition, longest_chain,
    monotonic_chains, symbolic_plan, ConcretePartition, DenseThreeSet,
};
use rcp_depend::{DependenceAnalysis, Granularity};
use rcp_json::{json, Json, ToJson};
use rcp_presburger::{DenseRelation, DenseSet};
use rcp_runtime::{execute_sequential, CostModel, RefKernel};
use rcp_session::{registry, Config, Session};
use rcp_workloads::{
    corpus_statistics, example1, example2, example3, example4_cholesky, figure2, CholeskyParams,
    CorpusConfig, BUNDLED_LOOPS,
};
use std::time::Instant;

/// A regenerated experiment artifact.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment identifier from DESIGN.md (e.g. `fig3-ex1`).
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Human-readable report text (tables, listings).
    pub text: String,
    /// Machine-readable payload.
    pub data: Json,
}

impl ToJson for ExperimentReport {
    fn to_json(&self) -> Json {
        json!({
            "id": self.id,
            "description": self.description,
            "text": self.text,
            "data": self.data,
        })
    }
}

impl ExperimentReport {
    fn new(id: &str, description: &str, text: String, data: Json) -> Self {
        ExperimentReport {
            id: id.to_string(),
            description: description.to_string(),
            text,
            data,
        }
    }
}

/// Calibrates the cost model by timing the sequential execution of a
/// moderate workload with the reference kernel.
pub fn calibrated_model() -> CostModel {
    let program = example1();
    let params = [60i64, 80];
    let schedule = Schedule::sequential(&program, &params);
    let kernel = RefKernel::new(&program);
    let start = Instant::now();
    let _ = execute_sequential(&schedule, &kernel);
    let elapsed = start.elapsed().as_nanos() as f64;
    CostModel::calibrated(elapsed, schedule.n_instances())
}

/// E-F1 — Figure 1: the non-uniform direct dependences of the example loop
/// at `N1 = N2 = 10` (arrow counts per distance).
pub fn fig1_dependences() -> ExperimentReport {
    let program = example1();
    let analysis = DependenceAnalysis::loop_level(&program);
    let (_, rel) = analysis.bind_params(&[10, 10]);
    let dense = DenseRelation::from_relation(&rel);
    let mut per_distance: std::collections::BTreeMap<i64, usize> = Default::default();
    for (src, dst) in dense.iter() {
        *per_distance.entry(dst[0] - src[0]).or_insert(0) += 1;
    }
    let mut text =
        String::from("distance (d,d)   arrows (paper: d=2 has 8, d=4 has 6, d=6 has 4)\n");
    for (d, count) in &per_distance {
        text.push_str(&format!("        ({d},{d})   {count}\n"));
    }
    text.push_str(&format!("total direct dependences: {}\n", dense.len()));
    let data = json!({
        "per_distance": per_distance,
        "total": dense.len(),
        "paper": json!({"2": 8, "4": 6, "6": 4, "total": 18}),
    });
    ExperimentReport::new(
        "fig1",
        "Figure 1: direct dependences of the example loop (N1=N2=10)",
        text,
        data,
    )
}

/// E-F2 — Figure 2: chain decomposition and partition of the 1-D loop.
pub fn fig2_chains() -> ExperimentReport {
    let program = figure2();
    let analysis = DependenceAnalysis::loop_level(&program);
    let (phi, rel) = analysis.bind_params(&[]);
    let phi = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&rel);
    let chains = monotonic_chains(&rd);
    let part = DenseThreeSet::compute(&phi, &rd);
    let fmt_set = |s: &DenseSet| {
        s.iter()
            .map(|p| p[0].to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut text = String::new();
    text.push_str("monotonic chains: ");
    text.push_str(
        &chains
            .iter()
            .map(|c| {
                c.iterations
                    .iter()
                    .map(|p| p[0].to_string())
                    .collect::<Vec<_>>()
                    .join("->")
            })
            .collect::<Vec<_>>()
            .join("  "),
    );
    text.push('\n');
    text.push_str(&format!(
        "P1 (initial+independent) = {{{}}}\n",
        fmt_set(&part.p1)
    ));
    text.push_str(&format!(
        "P2 (intermediate)        = {{{}}}\n",
        fmt_set(&part.p2)
    ));
    text.push_str(&format!(
        "P3 (final)               = {{{}}}\n",
        fmt_set(&part.p3)
    ));
    text.push_str("paper: P1 = {1..6} ∪ {7,12,14,16,18,20}, P2 empty, chains of length 2\n");
    let data = json!({
        "n_chains": chains.len(),
        "longest_chain": longest_chain(&chains),
        "p1": part.p1.iter().map(|p| p[0]).collect::<Vec<_>>(),
        "p2": part.p2.iter().map(|p| p[0]).collect::<Vec<_>>(),
        "p3": part.p3.iter().map(|p| p[0]).collect::<Vec<_>>(),
    });
    ExperimentReport::new(
        "fig2",
        "Figure 2: monotonic chains and partition of a(2I)=a(21-I)",
        text,
        data,
    )
}

/// E-EX1 — Example 1: the generated recurrence-chain code and partition
/// sizes at the paper's evaluation parameters.
pub fn ex1_partition(n1: i64, n2: i64) -> ExperimentReport {
    let program = example1();
    let analysis = DependenceAnalysis::loop_level(&program);
    let plan = symbolic_plan(&analysis).expect("example 1 uses recurrence chains");
    let listing = generate_listing(&plan, "example1");
    let partition = concrete_partition(&analysis, &[n1, n2]);
    let stats = partition.stats();
    let (p1, p2, p3, chains, longest) = match &partition {
        ConcretePartition::RecurrenceChains {
            p1,
            chains,
            p3,
            three_set,
        } => (
            p1.len(),
            three_set.p2.len(),
            p3.len(),
            chains.len(),
            longest_chain(chains),
        ),
        _ => unreachable!(),
    };
    let bound = plan
        .recurrence
        .critical_path_bound((((n1 * n1 + n2 * n2) as f64).sqrt()).ceil())
        .unwrap();
    let text = format!(
        "N1={n1}, N2={n2}: |P1|={p1} |P2|={p2} |P3|={p3}  chains={chains} longest={longest} \
         (Theorem-1 bound {bound})\nphases={} critical path={} of {} iterations\n\n{listing}",
        stats.n_phases, stats.critical_path, stats.total_iterations
    );
    let data = json!({
        "n1": n1, "n2": n2, "p1": p1, "p2": p2, "p3": p3,
        "chains": chains, "longest_chain": longest, "theorem1_bound": bound,
        "alpha": plan.recurrence.alpha().to_f64(),
    });
    ExperimentReport::new(
        "ex1",
        "Example 1: recurrence-chain partitioning and generated code",
        text,
        data,
    )
}

/// E-EX2 — Example 2 (Ju & Chaudhary): intermediate set at N = 12 and phase
/// counts of REC vs UNIQUE.
pub fn ex2_facts() -> ExperimentReport {
    let session = Session::with_config(Config::new().with_param("N", 12));
    let stage = session
        .load(example2())
        .expect("example 2 validates")
        .partition()
        .expect("example 2 binds N=12");
    let p2: Vec<Vec<i64>> = match stage.partition() {
        ConcretePartition::RecurrenceChains { three_set, .. } => three_set.p2.to_vec(),
        _ => unreachable!(),
    };
    let rec = stage
        .schedule_with("recurrence-chains")
        .expect("registry scheme")
        .schedule()
        .clone();
    let unique = stage
        .schedule_with("unique")
        .expect("registry scheme")
        .schedule()
        .clone();
    let text = format!(
        "N=12: intermediate set = {:?} (paper: the single iteration (2,6))\n\
         REC phases = {} (paper: 3 fully parallel partitions)\n\
         UNIQUE phases = {} (paper: 5 partitions, one sequential)\n",
        p2,
        rec.n_phases(),
        unique.n_phases()
    );
    let data = json!({
        "intermediate_set": p2,
        "rec_phases": rec.n_phases(),
        "unique_phases": unique.n_phases(),
        "rec_critical_path": rec.critical_path(),
        "unique_critical_path": unique.critical_path(),
    });
    ExperimentReport::new(
        "ex2",
        "Example 2: intermediate set at N=12, REC vs UNIQUE phase counts",
        text,
        data,
    )
}

/// E-EX3 — Example 3 (Chen & Yew): statement-level partition facts.
pub fn ex3_facts(n: i64) -> ExperimentReport {
    let program = example3();
    let analysis = DependenceAnalysis::statement_level(&program);
    let total = program.count_instances(&[n]);
    // P2 / P3 via the (small) symbolic range/domain of the relation.
    let ran = DenseSet::from_union(&analysis.relation.range().bind_params(&[n]));
    let dom = DenseSet::from_union(&analysis.relation.domain().bind_params(&[n]));
    let p2 = ran.intersect(&dom);
    let p3 = ran.subtract(&dom);
    let p1 = total - ran.len();
    let text = format!(
        "N={n}: {total} statement instances; |P1|={p1} |P2|={} |P3|={} \
         (paper: empty intermediate set, two DOALL partitions, two iteration-steps)\n",
        p2.len(),
        p3.len()
    );
    let data = json!({
        "n": n, "total_instances": total,
        "p1": p1, "p2": p2.len(), "p3": p3.len(),
    });
    ExperimentReport::new(
        "ex3",
        "Example 3: empty intermediate set of the imperfect nest",
        text,
        data,
    )
}

/// The concrete stage of the Cholesky kernel at `params`, through the
/// session pipeline.  Algorithm 1 takes its plain else-branch, so the
/// dataflow stages come from one pass over the program's accesses; the
/// dependence relation is never enumerated.
fn cholesky_stage(params: CholeskyParams) -> rcp_session::Partitioned {
    Session::new()
        .load(example4_cholesky())
        .and_then(|analyzed| analyzed.partition_values(&params.as_vec()))
        .expect("the Cholesky kernel partitions")
}

/// The dataflow stages of a Cholesky stage's partition.
fn cholesky_stages(stage: &rcp_session::Partitioned) -> &rcp_core::DataflowPartition {
    match stage.partition() {
        ConcretePartition::Dataflow { stages } => stages,
        other => panic!("Cholesky takes Algorithm 1's else-branch, got {other:?}"),
    }
}

/// E-EX4 — Example 4 (Cholesky): number of dataflow partitioning steps.
pub fn ex4_dataflow(params: CholeskyParams) -> ExperimentReport {
    let stage = cholesky_stage(params);
    let stages = cholesky_stages(&stage);
    let instances = stages.total_iterations();
    let steps = stages.n_stages();
    let widest = stages.max_stage_size();
    let text = format!(
        "parameters {params:?}: {instances} statement instances\n\
         dataflow partitioning steps = {steps} (paper reports 238 at NMAT=250, M=4, N=40, NRHS=3)\n\
         widest stage = {widest} instances, mean stage = {:.0}\n",
        instances as f64 / steps.max(1) as f64
    );
    let data = json!({
        "params": format!("{params:?}"),
        "instances": instances,
        "steps": steps,
        "widest_stage": widest,
        "paper_steps": 238,
    });
    ExperimentReport::new(
        "ex4",
        "Example 4: Cholesky dataflow partitioning step count",
        text,
        data,
    )
}

/// Builds the schedules of several registry schemes for one program at one
/// binding, through the session pipeline (one analysis, one enumerated
/// space, every scheme from the same [`rcp_session::Partitioner`]
/// registry).
fn registry_schedules(
    program: rcp_loopir::Program,
    params: &[(&str, i64)],
    schemes: &[&str],
) -> Vec<Schedule> {
    let session = Session::with_config(Config::new().with_params(params));
    let stage = session
        .load(program)
        .expect("the workload validates")
        .partition()
        .expect("parameters bind cleanly");
    schemes
        .iter()
        .map(|name| {
            stage
                .schedule_with(name)
                .unwrap_or_else(|e| panic!("scheme {name}: {e}"))
                .schedule()
                .clone()
        })
        .collect()
}

/// E-F3.1 — Figure 3, Example 1 plot: REC vs PDM vs PL vs linear (all
/// three schedules built through the Partitioner registry).
pub fn fig3_ex1(model: &CostModel, n1: i64, n2: i64, max_threads: usize) -> ExperimentReport {
    let schedules = registry_schedules(
        example1(),
        &[("N1", n1), ("N2", n2)],
        &["recurrence-chains", "pdm", "pl"],
    );
    let [rec, pdm, pl] = &schedules[..] else {
        unreachable!()
    };
    let figure = SpeedupFigure {
        id: "fig3-ex1".into(),
        workload: format!("example 1, N1={n1}, N2={n2}"),
        series: vec![
            SpeedupSeries::linear(max_threads),
            SpeedupSeries::from_fn("REC", max_threads, |t| model.speedup(rec, t)),
            SpeedupSeries::from_fn("PDM", max_threads, |t| model.speedup(pdm, t)),
            SpeedupSeries::from_fn("PL", max_threads, |t| model.speedup(pl, t)),
        ],
    };
    let data = figure.to_json();
    ExperimentReport::new(
        "fig3-ex1",
        "Figure 3, Example 1: REC vs PDM vs PL speedups",
        figure.to_table(),
        data,
    )
}

/// E-F3.2 — Figure 3, Example 2 plot: REC vs UNIQUE vs linear (both
/// schedules built through the Partitioner registry).
pub fn fig3_ex2(model: &CostModel, n: i64, max_threads: usize) -> ExperimentReport {
    let schedules = registry_schedules(example2(), &[("N", n)], &["recurrence-chains", "unique"]);
    let [rec, unique] = &schedules[..] else {
        unreachable!()
    };
    let figure = SpeedupFigure {
        id: "fig3-ex2".into(),
        workload: format!("example 2, N={n}"),
        series: vec![
            SpeedupSeries::linear(max_threads),
            SpeedupSeries::from_fn("REC", max_threads, |t| model.speedup(rec, t)),
            SpeedupSeries::from_fn("UNIQUE", max_threads, |t| model.speedup(unique, t)),
        ],
    };
    let data = figure.to_json();
    ExperimentReport::new(
        "fig3-ex2",
        "Figure 3, Example 2: REC vs UNIQUE speedups",
        figure.to_table(),
        data,
    )
}

/// E-F3.3 — Figure 3, Example 3 plot: REC vs PAR (inner loops) vs DOACROSS.
pub fn fig3_ex3(model: &CostModel, n: i64, max_threads: usize) -> ExperimentReport {
    let program = example3();
    let analysis = DependenceAnalysis::statement_level(&program);
    let total = program.count_instances(&[n]);
    // REC: empty P2, two DOALL phases sized |P1| and |P3| (computed from the
    // small symbolic range/domain, not by materialising 4.5M instances).
    let ran = DenseSet::from_union(&analysis.relation.range().bind_params(&[n]));
    let dom = DenseSet::from_union(&analysis.relation.domain().bind_params(&[n]));
    let p2 = ran.intersect(&dom).len();
    let p3 = ran.len() - p2;
    let p1 = total - ran.len();
    let rec_phases = [
        PhaseShape::Doall {
            items: p1,
            unit_instances: 1.0,
        },
        PhaseShape::Doall {
            items: p3.max(1),
            unit_instances: 1.0,
        },
    ];
    // PAR: inner loops parallel, outer I sequential: N phases of ~total/N items.
    let par_phases: Vec<PhaseShape> = (1..=n)
        .map(|i| PhaseShape::Doall {
            items: ((i * (i + 1)) / 2 + i) as usize,
            unit_instances: 1.0,
        })
        .collect();
    // DOACROSS: pipelined outer loop.
    let rd_small = DenseRelation::from_relation(&analysis.relation.bind_params(&[n.min(40)]));
    let plan = doacross_plan(&program, &[n], &rd_small, true);
    let figure = SpeedupFigure {
        id: "fig3-ex3".into(),
        workload: format!("example 3, N={n}"),
        series: vec![
            SpeedupSeries::linear(max_threads),
            SpeedupSeries::from_fn("REC", max_threads, |t| {
                phases_speedup(model, &rec_phases, total, t)
            }),
            SpeedupSeries::from_fn("PAR", max_threads, |t| {
                phases_speedup(model, &par_phases, total, t)
            }),
            SpeedupSeries::from_fn("DOACROSS", max_threads, |t| {
                let time =
                    model.doacross_time_ns(plan.n_outer, plan.avg_inner as usize, plan.delay, t);
                (total as f64 * model.instance_cost_ns) / time
            }),
        ],
    };
    let data = figure.to_json();
    ExperimentReport::new(
        "fig3-ex3",
        "Figure 3, Example 3: REC vs inner-loop PAR vs DOACROSS speedups",
        figure.to_table(),
        data,
    )
}

/// E-F3.4 — Figure 3, Example 4 plot: REC dataflow vs PDM.
pub fn fig3_ex4(model: &CostModel, params: CholeskyParams, max_threads: usize) -> ExperimentReport {
    let stage = cholesky_stage(params);
    let stages = cholesky_stages(&stage);
    let total = stages.total_iterations();
    // REC: one DOALL phase per dataflow stage.
    let rec_phases: Vec<PhaseShape> = stages
        .stages
        .iter()
        .map(|s| PhaseShape::Doall {
            items: s.len(),
            unit_instances: 1.0,
        })
        .collect();
    // PDM: the paper's PDM code runs everything under `DOALL L` — one phase
    // of NMAT+1 equal sequential chains.
    let n_chains = (params.nmat + 1) as usize;
    let pdm_phases = [PhaseShape::EqualChains {
        count: n_chains,
        len: total as f64 / n_chains as f64,
    }];
    let figure = SpeedupFigure {
        id: "fig3-ex4".into(),
        workload: format!("Cholesky, {params:?}"),
        series: vec![
            SpeedupSeries::linear(max_threads),
            SpeedupSeries::from_fn("REC", max_threads, |t| {
                phases_speedup(model, &rec_phases, total, t)
            }),
            SpeedupSeries::from_fn("PDM", max_threads, |t| {
                phases_speedup(model, &pdm_phases, total, t)
            }),
        ],
    };
    let data = figure.to_json();
    ExperimentReport::new(
        "fig3-ex4",
        "Figure 3, Example 4: REC dataflow vs PDM speedups on the Cholesky kernel",
        figure.to_table(),
        data,
    )
}

/// E-M1 — measured wall-clock speedups: the paper's four examples executed
/// for real by [`rcp_runtime::ParallelExecutor`], sequential vs parallel,
/// on this machine's cores.
///
/// This is the counterpart of the Figure-3 *modelled* curves: every number
/// is a ratio of real executions (best-of-`reps` wall clock).  Per thread
/// count, one untimed run is verified race free and every timed run's
/// store is verified bit-identical to the sequential result (see
/// [`crate::speedup::measured_speedup`] for the exact protocol).
pub fn measured_speedups(
    ex1_n: (i64, i64),
    ex2_n: i64,
    ex3_n: i64,
    cholesky: CholeskyParams,
    max_threads: usize,
    reps: usize,
) -> ExperimentReport {
    use crate::speedup::{measured_speedup, MeasuredSeries};

    let mut measured: Vec<MeasuredSeries> = Vec::new();

    // Examples 1–3: Algorithm-1 partitions.
    let loop_examples = [
        ("ex1", example1(), vec![ex1_n.0, ex1_n.1], false),
        ("ex2", example2(), vec![ex2_n], false),
        ("ex3", example3(), vec![ex3_n], true),
    ];
    for (name, program, params, statement_level) in loop_examples {
        let analysis = if statement_level {
            DependenceAnalysis::statement_level(&program)
        } else {
            DependenceAnalysis::loop_level(&program)
        };
        let partition = concrete_partition(&analysis, &params);
        let parallel = Schedule::from_partition(&analysis, &partition, name);
        let sequential = Schedule::sequential(&program, &params);
        let kernel = RefKernel::new(&program);
        measured.push(measured_speedup(
            name,
            &sequential,
            &parallel,
            &kernel,
            max_threads,
            reps,
        ));
    }

    // Example 4 (Cholesky): dataflow stages become DOALL phases.
    let scheduled = cholesky_stage(cholesky)
        .schedule_with("recurrence-chains")
        .expect("the paper's scheme schedules every program");
    measured.push(measured_speedup(
        "ex4",
        scheduled.sequential(),
        scheduled.schedule(),
        &scheduled.kernel(),
        max_threads,
        reps,
    ));

    let hardware_threads = rcp_runtime::pool::available_threads();
    let figure = SpeedupFigure {
        id: "measured".into(),
        workload: format!(
            "measured wall clock, {} hardware thread{} available, requested up to {}{}",
            hardware_threads,
            if hardware_threads == 1 { "" } else { "s" },
            max_threads,
            if max_threads > hardware_threads {
                " (oversubscribed thread counts skipped)"
            } else {
                ""
            }
        ),
        series: measured.iter().map(|m| m.series.clone()).collect(),
    };
    let mut text = figure.to_table();
    for m in &measured {
        text.push_str(&format!(
            "{:<10} sequential {:.2} ms, best parallel {:.2} ms, {}\n",
            m.series.scheme,
            m.sequential_ns / 1e6,
            m.parallel_ns.iter().cloned().fold(f64::INFINITY, f64::min) / 1e6,
            if m.verified {
                "verified bit-identical"
            } else {
                "VERIFICATION FAILED"
            },
        ));
    }
    let all_verified = measured.iter().all(|m| m.verified);
    let data = json!({
        "workload": figure.workload,
        "measured": true,
        "all_verified": all_verified,
        "hardware_threads": hardware_threads,
        "requested_threads": max_threads,
        "series": measured.iter().map(MeasuredSeries::to_json).collect::<Vec<_>>(),
    });
    ExperimentReport::new(
        "measured",
        "Measured (not modelled) ParallelExecutor speedups on examples 1-4",
        text,
        data,
    )
}

/// One load → analyze → partition run of example 1 on one thread, the
/// workload the `guard` and `trace` overhead gates time; `budget` sets an
/// unbounded session work budget, which installs a guard per stage.
fn example1_pipeline(n1: i64, n2: i64, budget: bool) {
    let mut config = Config::new()
        .with_param("N1", n1)
        .with_param("N2", n2)
        .with_threads(1);
    if budget {
        config = config.with_work_budget(u64::MAX);
    }
    let stage = Session::with_config(config)
        .load(example1())
        .expect("example 1 loads")
        .partition()
        .expect("example 1 partitions");
    std::hint::black_box(stage.partition().stats());
}

/// The work units one warm [`example1_pipeline`] run charges, read from a
/// thread-scoped counting guard.  The caches are reset and warmed by one
/// run first, so the count is deterministic and matches the warm runs the
/// gates time.  The counted run has no session budget: a budgeted session
/// installs its own guard per stage, so an outer guard would count
/// nothing, while without one the same checkpoints charge the outer
/// guard.  Panics on a zero count, so an overhead gate can never pass by
/// measuring nothing.
fn pipeline_ticks(n1: i64, n2: i64) -> u64 {
    use rcp_guard::{BudgetSpec, Guard};
    rcp_intlin::reset_solver_cache();
    rcp_presburger::reset_emptiness_cache();
    example1_pipeline(n1, n2, false);
    let counter = Guard::new(BudgetSpec::default());
    let ticks = rcp_guard::scope(&counter, || {
        example1_pipeline(n1, n2, false);
        counter.work_spent()
    });
    assert!(
        ticks > 0,
        "the pipeline charged no work units: the overhead gate would measure nothing"
    );
    ticks
}

/// E-GUARD — budget-check overhead of the guarded session pipeline.
///
/// A/B wall-clock differencing cannot resolve a sub-1% effect on a shared
/// single-CPU runner, so the overhead is computed analytically from two
/// stable measurements: the cost of one `rcp_guard::tick` checkpoint (a
/// tight-loop microbenchmark against a live guard) and the exact number of
/// work units one load → analyze → partition run charges
/// (`pipeline_ticks`, deterministic).  Overhead is then
/// `ticks × per-tick cost / pipeline time`.
///
/// The series payload carries the throughput ratio
/// `1 / (1 + overhead)` (≈ 1.0; it sinks below 0.99 if the checkpoints
/// ever cost more than 1%), so the committed `BENCH_results.json` baseline
/// turns checkpoint-cost creep into a CI regression like any other scheme
/// slowdown.
pub fn guard_overhead(quick: bool) -> ExperimentReport {
    use rcp_guard::{BudgetSpec, Guard, Stage};

    let (n1, n2) = if quick { (30, 30) } else { (60, 60) };
    let passes = if quick { 7 } else { 11 };

    // 1. How many work units one pipeline run charges — deterministic for
    //    a fixed workload.
    let ticks = pipeline_ticks(n1, n2);

    // 2. The wall-clock of one pipeline run with a live session budget
    //    (best-of-`passes` minimum; noise is strictly additive).  The
    //    measured time already *contains* the checkpoint cost — the
    //    overhead estimate errs high, never low.
    example1_pipeline(n1, n2, true);
    let pipeline_ms = (0..passes)
        .map(|_| {
            let start = Instant::now();
            example1_pipeline(n1, n2, true);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);

    // 3. The cost of one checkpoint against a live guard, amortised over a
    //    tight loop long enough to swamp timer resolution.
    let n_ticks: u64 = 4_000_000;
    let micro = Guard::new(BudgetSpec::default());
    let per_tick_ns = rcp_guard::scope(&micro, || {
        (0..passes)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..n_ticks {
                    rcp_guard::tick(Stage::Analysis, 1);
                }
                start.elapsed().as_secs_f64() * 1e9 / n_ticks as f64
            })
            .fold(f64::INFINITY, f64::min)
    });

    let overhead_frac = (ticks as f64 * per_tick_ns) / (pipeline_ms * 1e6);
    let overhead_pct = overhead_frac * 100.0;
    let ratio = 1.0 / (1.0 + overhead_frac);

    let text = format!(
        "example 1 (N1={n1}, N2={n2}), best of {passes} passes:\n\
         pipeline (live budget)  {pipeline_ms:>8.2} ms, charging {ticks} work units\n\
         one checkpoint          {per_tick_ns:>8.2} ns  (tight loop of {n_ticks} ticks \
         against a live guard)\n\
         checkpoint overhead     {overhead_pct:>8.4}%  of pipeline time \
         (budget target: < 1%)\n"
    );
    let data = json!({
        "n1": n1, "n2": n2,
        "pipeline_ms": pipeline_ms,
        "ticks": ticks,
        "per_tick_ns": per_tick_ns,
        "overhead_pct": overhead_pct,
        "series": [json!({ "scheme": "analysis", "speedups": [ratio] })],
    });
    ExperimentReport::new(
        "guard",
        "Budget-checkpoint overhead of the guarded session pipeline",
        text,
        data,
    )
}

/// E-TRACE — disabled-tracing overhead of the instrumented pipeline.
///
/// The profiling instrumentation (docs/OBSERVABILITY.md) must cost nearly
/// nothing when the runtime switch is off: every `span!` site and every
/// guard-checkpoint mirror collapses to one relaxed atomic load.  As with
/// [`guard_overhead`], A/B wall-clock differencing cannot resolve a
/// sub-1% effect on a shared runner, so the overhead is computed
/// analytically: the number of instrumentation events one load → analyze
/// → partition run fires (span entries counted exactly from one traced
/// run; checkpoint loads bounded above by `pipeline_ticks`, so the
/// estimate errs high, never low) times the microbenched cost of one
/// *disabled* `span!` site, over the pipeline wall clock with tracing
/// off — the shipped default.
///
/// The series payload carries the throughput ratio `1 / (1 + overhead)`,
/// which sinks below 0.99 if the dormant instrumentation ever costs more
/// than 1%, so the committed `BENCH_results.json` baseline turns
/// instrumentation-cost creep into a CI regression.
pub fn trace_overhead(quick: bool) -> ExperimentReport {
    let (n1, n2) = if quick { (30, 30) } else { (60, 60) };
    let passes = if quick { 7 } else { 11 };

    // 1a. Checkpoint loads per run, bounded above by the work units one
    //     run charges (bulk charges tick once but count per unit).
    let ticks = pipeline_ticks(n1, n2);

    // 1b. Span entries per run, counted exactly from one traced run (the
    //     workload is single-threaded, so the count is deterministic).
    fn span_count(nodes: &[rcp_trace::SpanNode]) -> u64 {
        nodes
            .iter()
            .map(|n| n.count + span_count(&n.children))
            .sum()
    }
    rcp_trace::reset_spans();
    rcp_trace::set_enabled(true);
    example1_pipeline(n1, n2, false);
    rcp_trace::set_enabled(false);
    let spans = span_count(&rcp_trace::span_tree());
    rcp_trace::reset_spans();
    assert!(
        spans > 0,
        "the traced pipeline fired no span: the gate would measure nothing"
    );
    let events = ticks + spans;

    // 2. The wall clock of one pipeline run with tracing disabled — the
    //    shipped default (best-of-`passes` minimum; noise is additive).
    example1_pipeline(n1, n2, false);
    let pipeline_ms = (0..passes)
        .map(|_| {
            let start = Instant::now();
            example1_pipeline(n1, n2, false);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);

    // 3. The cost of one dormant instrumentation site: a `span!` that
    //    sees the switch off, amortised over a loop long enough to swamp
    //    timer resolution.
    let n_events: u64 = 4_000_000;
    let per_event_ns = (0..passes)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..n_events {
                let span = rcp_trace::span!("bench.noop");
                std::hint::black_box(&span);
            }
            start.elapsed().as_secs_f64() * 1e9 / n_events as f64
        })
        .fold(f64::INFINITY, f64::min);

    let overhead_frac = (events as f64 * per_event_ns) / (pipeline_ms * 1e6);
    let overhead_pct = overhead_frac * 100.0;
    let ratio = 1.0 / (1.0 + overhead_frac);

    let text = format!(
        "example 1 (N1={n1}, N2={n2}), best of {passes} passes, tracing disabled:\n\
         pipeline                {pipeline_ms:>8.2} ms, {events} dormant events \
         ({spans} spans + {ticks} checkpoint loads)\n\
         one dormant site        {per_event_ns:>8.2} ns  (tight loop of {n_events} \
         disabled span! calls)\n\
         dormant overhead        {overhead_pct:>8.4}%  of pipeline time \
         (budget target: < 1%)\n"
    );
    let data = json!({
        "n1": n1, "n2": n2,
        "pipeline_ms": pipeline_ms,
        "span_events": spans,
        "tick_events": ticks,
        "per_event_ns": per_event_ns,
        "overhead_pct": overhead_pct,
        "disabled_overhead_ok": overhead_frac < 0.01,
        "series": [json!({ "scheme": "pipeline", "speedups": [ratio] })],
    });
    ExperimentReport::new(
        "trace",
        "Dormant-instrumentation overhead of the traced session pipeline",
        text,
        data,
    )
}

/// E-A1 — the dependence-analysis pipeline itself: what the memoised
/// HNF/diophantine solver saves on *repeated* corpus classification, and
/// how the sharded analysis scales (with its results verified identical to
/// the single-threaded analysis on examples 1–4).
///
/// Two measurements:
///
/// 1. **Solver cache.**  Every reference-pair dependence system of a
///    synthetic corpus is solved twice on one thread — a cold pass from an
///    empty cache and a warm pass — once through the full analysis front
///    end and once isolating the solver stage the cache memoises.  Hit/miss
///    counters are scoped delta-since-mark snapshots of the [`rcp_trace`]
///    metrics registry (`intlin.cache.*`, `presburger.cache.emptiness.*`)
///    taken around the warm passes, so whatever the other experiments in
///    the same process did to the global counters cannot bleed in.
/// 2. **Sharding.**  Wall clock of `DependenceAnalysis` on examples 1–3
///    for 1..=`max_threads` shards, with every sharded result checked
///    piece for piece against the single-threaded one.
pub fn analysis_pipeline(max_threads: usize) -> ExperimentReport {
    use rcp_depend::{dependence_system, Granularity};
    use rcp_intlin::{reset_solver_cache, solve_linear_system_cached};
    use rcp_presburger::reset_emptiness_cache;
    use rcp_workloads::{random_nest, SmallRng};

    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

    // --- 1. The solver cache on repeated corpus classification. ---
    let n_nests = 400;
    let mut rng = SmallRng::seed_from_u64(2004);
    let nests: Vec<_> = (0..n_nests)
        .map(|id| random_nest(&mut rng, 0.45, id))
        .collect();

    // Best-of-3 minima throughout: wall-clock noise is strictly additive,
    // and a cold pass is made cold again by resetting the cache.
    let best_of = |reps: usize, mut pass: Box<dyn FnMut() -> f64 + '_>| {
        (0..reps.max(1))
            .map(|_| pass())
            .fold(f64::INFINITY, f64::min)
    };
    let analyze_pass = || {
        let start = Instant::now();
        for nest in &nests {
            let _ = DependenceAnalysis::analyze_with_threads(nest, Granularity::LoopLevel, 1);
        }
        ms(start)
    };
    let analyze_cold_ms = best_of(
        3,
        Box::new(|| {
            reset_solver_cache();
            reset_emptiness_cache();
            analyze_pass()
        }),
    );
    // The last cold pass left the caches populated: warm passes hit.  The
    // registry mark taken here scopes the counter reads to exactly the
    // warm passes (delta-since-mark), immune to cross-experiment bleed.
    let cache_mark = rcp_trace::snapshot();
    let analyze_warm_ms = best_of(3, Box::new(analyze_pass));
    let warm = rcp_trace::snapshot().delta_since(&cache_mark);
    let hnf_hits = warm.counter("intlin.cache.hnf.hits");
    let hnf_misses = warm.counter("intlin.cache.hnf.misses");
    let dio_hits = warm.counter("intlin.cache.dio.hits");
    let dio_misses = warm.counter("intlin.cache.dio.misses");
    let cache_lookups = hnf_hits + hnf_misses + dio_hits + dio_misses;
    let cache_hit_rate = (hnf_hits + dio_hits) as f64 / cache_lookups.max(1) as f64;
    let emptiness_hits = warm.counter("presburger.cache.emptiness.hits");
    let emptiness_misses = warm.counter("presburger.cache.emptiness.misses");
    let emptiness_rate = warm.hit_rate(
        "presburger.cache.emptiness.hits",
        "presburger.cache.emptiness.misses",
    );

    // The solver stage in isolation: the *distinct* systems the corpus
    // screens (duplicates removed, so the cold pass is all misses and the
    // warm pass all hits — the intra-pass duplicate hits that already help
    // the cold pass are accounted for by the hit rate above).
    let mut seen = std::collections::HashSet::new();
    let systems: Vec<(rcp_intlin::IMat, Vec<i64>)> = nests
        .iter()
        .flat_map(|nest| {
            let stmts = nest.statements();
            let info = &stmts[0];
            let w = nest.loop_access(info, &info.stmt.refs[0]);
            let r = nest.loop_access(info, &info.stmt.refs[1]);
            [dependence_system(&w, &w), dependence_system(&w, &r)]
        })
        .filter(|system| seen.insert(system.clone()))
        .collect();
    let solver_pass = || {
        let start = Instant::now();
        for (m, rhs) in &systems {
            let _ = solve_linear_system_cached(m, rhs);
        }
        ms(start)
    };
    let solver_cold_ms = best_of(
        3,
        Box::new(|| {
            reset_solver_cache();
            solver_pass()
        }),
    );
    let solver_mark = rcp_trace::snapshot();
    let solver_warm_ms = best_of(3, Box::new(solver_pass));
    let solver_delta = rcp_trace::snapshot().delta_since(&solver_mark);
    let solver_stage_hits = solver_delta.counter("intlin.cache.hnf.hits")
        + solver_delta.counter("intlin.cache.dio.hits");
    let solver_stage_lookups = solver_stage_hits
        + solver_delta.counter("intlin.cache.hnf.misses")
        + solver_delta.counter("intlin.cache.dio.misses");
    let solver_stage_hit_rate = solver_stage_hits as f64 / solver_stage_lookups.max(1) as f64;

    // --- 2. Sharded analysis scaling, verified against 1 thread. ---
    struct ShardedRow {
        name: &'static str,
        ms_per_threads: Vec<f64>,
        identical: bool,
    }
    let mut rows: Vec<ShardedRow> = Vec::new();
    let analysis_workloads = [
        ("ex1-analysis", example1(), Granularity::LoopLevel),
        ("ex2-analysis", example2(), Granularity::LoopLevel),
        ("ex3-analysis", example3(), Granularity::StatementLevel),
    ];
    for (name, program, granularity) in analysis_workloads {
        let start = Instant::now();
        let reference = DependenceAnalysis::analyze_with_threads(&program, granularity, 1);
        let mut ms_per_threads = vec![ms(start)];
        let reference_relation = format!("{:?}", reference.relation);
        let mut identical = true;
        for threads in 2..=max_threads.max(1) {
            let start = Instant::now();
            let sharded = DependenceAnalysis::analyze_with_threads(&program, granularity, threads);
            ms_per_threads.push(ms(start));
            identical &= format!("{:?}", sharded.relation) == reference_relation;
        }
        rows.push(ShardedRow {
            name,
            ms_per_threads,
            identical,
        });
    }
    // --- Report. ---
    let solver_speedup = solver_cold_ms / solver_warm_ms.max(1e-9);
    let analyze_speedup = analyze_cold_ms / analyze_warm_ms.max(1e-9);
    let mut text = format!(
        "solver cache on repeated corpus classification ({n_nests} nests, 1 thread):\n\
           full analysis   cold {analyze_cold_ms:.2} ms   warm {analyze_warm_ms:.2} ms   \
         speedup {analyze_speedup:.2}x\n\
           solver stage    cold {solver_cold_ms:.3} ms   warm {solver_warm_ms:.3} ms   \
         speedup {solver_speedup:.1}x   ({} distinct systems)\n\
           solver cache hit rate    {:.1}% ({} hits / {} lookups)\n\
           emptiness cache hit rate {:.1}% ({} hits / {} FM feasibility lookups)\n\n\
         sharded analysis wall clock (ms per thread count, {} hardware threads):\n",
        systems.len(),
        cache_hit_rate * 100.0,
        hnf_hits + dio_hits,
        cache_lookups,
        emptiness_rate * 100.0,
        emptiness_hits,
        emptiness_hits + emptiness_misses,
        rcp_runtime::pool::available_threads(),
    );
    text.push_str(&format!("{:<14}", "workload"));
    for t in 1..=max_threads.max(1) {
        text.push_str(&format!("{:>10}", format!("{t} thr")));
    }
    text.push_str("  identical\n");
    for row in &rows {
        text.push_str(&format!("{:<14}", row.name));
        for v in &row.ms_per_threads {
            text.push_str(&format!("{:>10.2}", v));
        }
        text.push_str(&format!("  {}\n", if row.identical { "yes" } else { "NO" }));
    }
    let all_identical = rows.iter().all(|r| r.identical);
    let data = json!({
        "corpus_nests": n_nests,
        "cache": json!({
            "analyze_cold_ms": analyze_cold_ms,
            "analyze_warm_ms": analyze_warm_ms,
            "analyze_speedup": analyze_speedup,
            "solver_cold_ms": solver_cold_ms,
            "solver_warm_ms": solver_warm_ms,
            "solver_speedup": solver_speedup,
            "distinct_systems": systems.len(),
            "hit_rate": cache_hit_rate,
            "hnf_hits": hnf_hits,
            "hnf_misses": hnf_misses,
            "dio_hits": dio_hits,
            "dio_misses": dio_misses,
            "solver_stage_hit_rate": solver_stage_hit_rate,
        }),
        "emptiness": json!({
            "hits": emptiness_hits,
            "misses": emptiness_misses,
            "hit_rate": emptiness_rate,
        }),
        "sharded": rows.iter().map(|r| json!({
            "workload": r.name,
            "ms_per_threads": r.ms_per_threads,
            "identical": r.identical,
        })).collect::<Vec<_>>(),
        "all_identical": all_identical,
    });
    ExperimentReport::new(
        "analysis",
        "Dependence-analysis pipeline: solver-cache effect and sharded-analysis scaling",
        text,
        data,
    )
}

/// E-SC1 — the sparse pair-space engine on the **full statement-level
/// Cholesky pair space** at paper scale (NMAT up to 250): cold/warm wall
/// clock of the screened analysis, the per-stage pair-survival counts,
/// and the screened-vs-exact-only comparison proving the screens change
/// the relation by nothing while paying for themselves.
///
/// The pair space is structural (98 same-array pairs whatever the
/// parameter values), but before the engine the exact path priced every
/// pair through 18-dimensional Fourier–Motzkin emptiness; the screens
/// drop the box-disjoint third of the space (`a(L, I, J)` with `I ≤ −1`
/// never meets `a(L, 0, K)`) and answer the diophantine stage once per
/// chain class instead of once per pair.
pub fn scaling_experiment(quick: bool) -> ExperimentReport {
    use rcp_depend::{AnalysisOptions, ScreenConfig};
    use rcp_intlin::reset_solver_cache;
    use rcp_presburger::reset_emptiness_cache;

    let sizes: &[i64] = if quick { &[25, 250] } else { &[25, 100, 250] };
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    let mut text = format!(
        "{:>5} {:>6} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8} {:>9} {:>9} {:>10}\n",
        "NMAT",
        "pairs",
        "gcd",
        "bbox",
        "solver",
        "survive",
        "pieces",
        "classes",
        "cold ms",
        "warm ms",
        "exact ms"
    );
    for &nmat in sizes {
        let params = CholeskyParams {
            nmat,
            m: 4,
            n: 40,
            nrhs: 3,
        };
        let bound = example4_cholesky().bind_params(&params.as_vec());
        let options = AnalysisOptions::new(Granularity::StatementLevel);
        reset_solver_cache();
        reset_emptiness_cache();
        let start = Instant::now();
        let screened = DependenceAnalysis::with_options(&bound, &options);
        let cold_ms = ms(start);
        let start = Instant::now();
        let _ = DependenceAnalysis::with_options(&bound, &options);
        let warm_ms = ms(start);
        reset_solver_cache();
        reset_emptiness_cache();
        let start = Instant::now();
        let exact = DependenceAnalysis::with_options(
            &bound,
            &AnalysisOptions::new(Granularity::StatementLevel)
                .with_screen(ScreenConfig::exact_only()),
        );
        let exact_ms = ms(start);
        let identical = format!("{:?}", screened.relation) == format!("{:?}", exact.relation);
        let stats = screened.screen;
        let pieces = screened.relation.as_set().n_pieces();
        text.push_str(&format!(
            "{:>5} {:>6} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8} {:>9.1} {:>9.1} {:>10.1}{}\n",
            nmat,
            stats.n_pairs,
            stats.by_gcd,
            stats.by_bbox,
            stats.by_solver,
            stats.survivors(),
            pieces,
            stats.n_classes,
            cold_ms,
            warm_ms,
            exact_ms,
            if identical { "" } else { "  RELATION DIVERGED" },
        ));
        rows.push(json!({
            "nmat": nmat,
            "n_pairs": stats.n_pairs,
            "by_gcd": stats.by_gcd,
            "by_bbox": stats.by_bbox,
            "by_solver": stats.by_solver,
            "shared_verdicts": stats.shared_verdicts,
            "n_classes": stats.n_classes,
            "n_shape_buckets": stats.n_shape_buckets,
            "survivors": stats.survivors(),
            "relation_pieces": pieces,
            "cold_ms": cold_ms,
            "warm_ms": warm_ms,
            "exact_only_cold_ms": exact_ms,
            "screen_speedup": exact_ms / cold_ms.max(1e-9),
            "identical_to_exact": identical,
        }));
    }
    text.push_str(
        "(full pair space of the statement-level Cholesky kernel, M=4, N=40, NRHS=3; \
         `exact ms` is the cold pass with every pre-solve screen disabled)\n",
    );
    ExperimentReport::new(
        "scaling",
        "Pair-space screening on full statement-level Cholesky (NMAT up to 250)",
        text,
        json!(rows),
    )
}

/// E-ABL — ablation of the paper's contribution on example 1: the
/// three-set partition with WHILE recurrence chains against pure
/// successive dataflow partitioning of the same loop — barrier phases,
/// critical path in work items, and modelled speedup at `threads`.
pub fn ablation(model: &CostModel, n1: i64, n2: i64, threads: usize) -> ExperimentReport {
    let analysis = DependenceAnalysis::loop_level(&example1());
    let (phi, rel) = analysis.bind_params(&[n1, n2]);
    let phi = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&rel);
    let rec = concrete_partition_from_dense(&analysis, &phi, &rd);
    let dataflow = ConcretePartition::Dataflow {
        stages: dataflow_partition(&phi, &rd),
    };
    let schedules = [
        ("REC", Schedule::from_partition(&analysis, &rec, "rec")),
        (
            "pure-dataflow",
            Schedule::from_partition(&analysis, &dataflow, "dataflow"),
        ),
    ];
    let mut text = format!(
        "example 1, N1={n1}, N2={n2}\n{:<14} {:>7} {:>14}  modelled {threads}-thread speedup\n",
        "scheme", "phases", "critical path"
    );
    let mut series = Vec::new();
    for (name, schedule) in &schedules {
        let speedup = model.speedup(schedule, threads);
        text.push_str(&format!(
            "{:<14} {:>7} {:>14}  {:.2}x\n",
            name,
            schedule.n_phases(),
            schedule.critical_path(),
            speedup
        ));
        series.push(json!({
            "scheme": *name,
            "phases": schedule.n_phases(),
            "critical_path": schedule.critical_path(),
            "speedup": speedup,
        }));
    }
    let data = json!({
        "workload": format!("example 1, N1={n1}, N2={n2}"),
        "threads": threads,
        "schemes": series,
    });
    ExperimentReport::new(
        "ablation",
        "Ablation: recurrence chains vs pure dataflow partitioning (example 1)",
        text,
        data,
    )
}

/// E-T1 — Theorem 1: measured longest chains against the bound.
pub fn theorem1_table() -> ExperimentReport {
    let mut rows = Vec::new();
    let mut text = String::from("workload        size        alpha   longest chain   bound\n");
    for (name, program, params, diag) in [
        (
            "example1",
            example1(),
            vec![30i64, 40],
            ((30.0f64 * 30.0) + 40.0 * 40.0).sqrt(),
        ),
        (
            "example1",
            example1(),
            vec![60, 80],
            ((60.0f64 * 60.0) + 80.0 * 80.0).sqrt(),
        ),
        (
            "example2",
            example2(),
            vec![30],
            (2.0f64 * 30.0 * 30.0).sqrt(),
        ),
        (
            "example2",
            example2(),
            vec![60],
            (2.0f64 * 60.0 * 60.0).sqrt(),
        ),
    ] {
        let analysis = DependenceAnalysis::loop_level(&program);
        let plan = symbolic_plan(&analysis).unwrap();
        let partition = concrete_partition(&analysis, &params);
        let longest = match &partition {
            ConcretePartition::RecurrenceChains { chains, .. } => longest_chain(chains),
            _ => 0,
        };
        let bound = plan.recurrence.critical_path_bound(diag).unwrap();
        text.push_str(&format!(
            "{name:<15} {:<11} {:<7} {longest:<15} {bound}\n",
            format!("{params:?}"),
            plan.recurrence.alpha()
        ));
        rows.push(json!({
            "workload": name, "params": params, "alpha": plan.recurrence.alpha().to_f64(),
            "longest_chain": longest, "bound": bound, "holds": longest <= bound,
        }));
    }
    ExperimentReport::new(
        "theorem1",
        "Theorem 1: measured critical paths never exceed ceil(log_alpha(L)) + 1",
        text,
        json!(rows),
    )
}

/// E-C1 — the bundled `.loop` corpus through the session registry: per
/// file, the classification, the partition shape, and the scheme chosen by
/// Algorithm 1 (with the typed fallback reason when recurrence chains are
/// unavailable), plus which registry schemes apply.
pub fn loop_corpus() -> ExperimentReport {
    let mut text = format!(
        "{:<14} {:>5} {:>6} {:>6} {:>12} {:>7} {:>9} {:>7}  {:<18} {}\n",
        "workload",
        "gran",
        "|Phi|",
        "|Rd|",
        "class",
        "phases",
        "critical",
        "width",
        "branch",
        "applicable schemes / fallback reason"
    );
    let mut rows = Vec::new();
    for bundled in BUNDLED_LOOPS {
        let session = Session::with_config(Config {
            params: bundled
                .survey_params
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            ..Config::new()
        });
        let stage = session
            .bundled(bundled.name)
            .and_then(|analyzed| analyzed.partition())
            .unwrap_or_else(|e| panic!("{}: {e}", bundled.name));
        let granularity = match stage.analysis().granularity {
            Granularity::LoopLevel => "loop",
            Granularity::StatementLevel => "stmt",
        };
        let stats = stage.stats();
        let uniformity = format!("{:?}", stage.uniformity());
        let reason = stage.plan_unavailability().map(|r| r.to_string());
        let branch = match &reason {
            None => "RecurrenceChains",
            Some(_) => "Dataflow",
        };
        // Which registry schemes can schedule this file at all.
        let applicable: Vec<&str> = registry()
            .iter()
            .filter(|scheme| stage.schedule_with(scheme.name()).is_ok())
            .map(|scheme| scheme.name())
            .collect();
        text.push_str(&format!(
            "{:<14} {:>5} {:>6} {:>6} {:>12} {:>7} {:>9} {:>7}  {:<18} {}\n",
            bundled.name,
            granularity,
            stage.phi().len(),
            stage.rd().len(),
            uniformity,
            stats.n_phases,
            stats.critical_path,
            stats.max_width,
            branch,
            match &reason {
                Some(reason) => reason.clone(),
                None => applicable.join(","),
            },
        ));
        rows.push(json!({
            "workload": bundled.name,
            "granularity": granularity,
            "n_iterations": stage.phi().len(),
            "n_dependences": stage.rd().len(),
            "uniformity": uniformity,
            "strategy": branch,
            "fallback_reason": match reason {
                Some(reason) => Json::Str(reason),
                None => Json::Null,
            },
            "n_phases": stats.n_phases,
            "critical_path": stats.critical_path,
            "max_width": stats.max_width,
            "total_iterations": stats.total_iterations,
            "valid": stage.validate().is_empty(),
            "applicable_schemes": applicable,
        }));
    }
    ExperimentReport::new(
        "corpus",
        "Bundled .loop corpus: classification, partition shape and scheme per file",
        text,
        json!(rows),
    )
}

/// E-S1 — the §1 motivating statistics on the synthetic corpus.
pub fn corpus_table() -> ExperimentReport {
    let mut text = String::from(
        "coupled-ref fraction   loops   dependent   non-uniform   uniform   non-uniform %\n",
    );
    let mut rows = Vec::new();
    for coupled in [0.0, 0.25, 0.45, 0.75, 1.0] {
        let stats = corpus_statistics(&CorpusConfig {
            n_loops: 150,
            coupled_fraction: coupled,
            extent: 12,
            seed: 2004,
        });
        text.push_str(&format!(
            "{:>20.2}   {:>5}   {:>9}   {:>11}   {:>7}   {:>12.1}\n",
            coupled,
            stats.total_loops,
            stats.dependent_loops,
            stats.non_uniform_loops,
            stats.uniform_loops,
            stats.non_uniform_fraction() * 100.0
        ));
        rows.push(json!({
            "coupled_fraction": coupled,
            "non_uniform": stats.non_uniform_loops,
            "uniform": stats.uniform_loops,
            "dependent": stats.dependent_loops,
            "total": stats.total_loops,
        }));
    }
    text.push_str(
        "(paper, §1: >46% of SPECfp95 loop nests contain non-uniform dependences; \
                   the synthetic corpus substitutes for the benchmark sources)\n",
    );
    ExperimentReport::new(
        "corpus-synthetic",
        "§1 statistics on the synthetic loop corpus",
        text,
        json!(rows),
    )
}

/// E-FZ — the differential fuzzing campaign as a recorded experiment:
/// the pinned CI seed, nests/sec throughput, and the per-scheme survival
/// table.  Each scheme's survival fraction (applicable cases without a
/// discrepancy, over applicable cases) is recorded as a one-point
/// `series` element, so the CI baseline diff gates on survival dropping
/// exactly like it gates on speedups.
pub fn fuzz_experiment(quick: bool) -> ExperimentReport {
    let config = rcp_fuzz::CampaignConfig {
        seed: 0xC0FFEE,
        count: if quick { 20 } else { 50 },
        minimize: false,
    };
    let campaign = rcp_fuzz::run_campaign(&config);
    let mut text = format!(
        "campaign seed {:#x}, {} nest(s) in {:.2}s ({:.1} nests/sec)\n\
         {:<18} {:>10} {:>7} {:>11} {:>8} {:>13} {:>9}\n",
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
        "survival"
    );
    let mut schemes = Vec::new();
    let mut series = Vec::new();
    for stat in &campaign.stats {
        let survival = if stat.applicable() == 0 {
            1.0
        } else {
            (stat.applicable() - stat.discrepancies) as f64 / stat.applicable() as f64
        };
        text.push_str(&format!(
            "{:<18} {:>10} {:>7} {:>11} {:>8} {:>13} {:>9.2}\n",
            stat.scheme,
            stat.applicable(),
            stat.passed,
            stat.under_synchronised,
            stat.not_applicable,
            stat.discrepancies,
            survival,
        ));
        schemes.push(json!({
            "scheme": stat.scheme,
            "applicable": stat.applicable(),
            "passed": stat.passed,
            "under_synchronised": stat.under_synchronised,
            "not_applicable": stat.not_applicable,
            "discrepancies": stat.discrepancies,
            "survival": survival,
        }));
        series.push(json!({
            "scheme": stat.scheme,
            "speedups": [survival],
        }));
    }
    for error in &campaign.errors {
        text.push_str(&format!("ERROR {error}\n"));
    }
    for ce in &campaign.counterexamples {
        text.push_str(&format!(
            "DISCREPANCY case {}: scheme {}, {} thread(s): {}\n",
            ce.case_id, ce.discrepancy.scheme, ce.discrepancy.threads, ce.discrepancy.detail
        ));
    }
    let clean = campaign.clean();
    text.push_str(if clean {
        "verdict: CLEAN (no discrepancies)\n"
    } else {
        "verdict: FAILED\n"
    });
    let data = json!({
        "seed": format!("{:#x}", campaign.seed),
        "count": campaign.count,
        "nests_per_sec": campaign.nests_per_sec(),
        "schemes": schemes,
        "series": series,
        "discrepancies": campaign.counterexamples.len(),
        "errors": campaign.errors.len(),
        "clean": clean,
    });
    ExperimentReport::new(
        "fuzz",
        "Differential fuzzing campaign: per-scheme survival on the pinned seed",
        text,
        data,
    )
}

/// E-SERVE — the `rcpd` daemon over loopback: cold vs warm (cache-hit)
/// analyze latency per bundled workload, sustained warm throughput, and
/// the content-addressed cache's hit/miss/eviction counters as scraped
/// from `GET /metrics`.
///
/// The headline gate is the cache: the corpus-total warm latency must be
/// at least 10x better than the corpus-total cold latency (docs/SERVING.md
/// records the claim; the per-workload table shows where the ratio comes
/// from).  Cold requests pay parse + full exact analysis; warm requests
/// pay parse + SHA-256 + an `Arc` clone.
pub fn server_experiment(quick: bool) -> ExperimentReport {
    use rcp_serve::client::Client;
    use rcp_serve::{Server, ServerConfig};

    let warm_reps = if quick { 3 } else { 7 };
    let throughput_threads = 4;
    let throughput_reps = if quick { 25 } else { 100 };

    let server = Server::start(ServerConfig {
        workers: 4,
        cache_capacity: BUNDLED_LOOPS.len() + 2,
        ..ServerConfig::default()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    let time_analyze = |client: &Client, name: &str| -> f64 {
        let body = json!({ "workload": name });
        let start = Instant::now();
        let reply = client.post("/v1/analyze", &body).expect("analyze responds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reply.status, 200, "{name}: {}", reply.body);
        elapsed
    };

    // Cold pass: first request per workload misses the cache and pays the
    // full analysis.  Warm pass: best-of-`warm_reps` steady-state hit.
    let mut rows = Vec::new();
    let mut text = String::from(
        "workload              cold-ms   warm-ms   ratio   (cold = first request,\n\
         \x20                                              warm = best cache hit)\n",
    );
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for bundled in BUNDLED_LOOPS {
        let cold = time_analyze(&client, bundled.name);
        let warm = (0..warm_reps)
            .map(|_| time_analyze(&client, bundled.name))
            .fold(f64::INFINITY, f64::min);
        cold_total += cold;
        warm_total += warm;
        text.push_str(&format!(
            "{:<20} {cold:>8.3} {warm:>9.3} {:>7.1}\n",
            bundled.name,
            cold / warm,
        ));
        rows.push(json!({
            "workload": bundled.name,
            "cold_ms": cold,
            "warm_ms": warm,
            "ratio": cold / warm,
        }));
    }
    let corpus_ratio = cold_total / warm_total;

    // Sustained warm throughput: concurrent clients hammering one cached
    // workload (the hit path end to end: connect, parse, hash, respond).
    // The registry mark proves the whole burst re-analyses nothing: the
    // pair-screening counter must not move while it runs.
    let mark = rcp_trace::snapshot();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..throughput_threads {
            let addr = addr.clone();
            scope.spawn(move || {
                let client = Client::new(addr);
                for _ in 0..throughput_reps {
                    let reply = client
                        .post("/v1/analyze", &json!({ "workload": "example1" }))
                        .expect("warm analyze responds");
                    assert_eq!(reply.status, 200);
                }
            });
        }
    });
    let throughput_elapsed = start.elapsed().as_secs_f64();
    let requests = (throughput_threads * throughput_reps) as f64;
    let rps = requests / throughput_elapsed;

    // The cache counters, as a client sees them at GET /metrics.
    let metrics = client.get("/metrics").expect("metrics responds");
    assert_eq!(metrics.status, 200);
    let scrape = |name: &str| -> u64 {
        metrics
            .body
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let (hits, misses, evictions) = (
        scrape("rcp_serve_cache_hits"),
        scrape("rcp_serve_cache_misses"),
        scrape("rcp_serve_cache_evictions"),
    );
    let delta = rcp_trace::snapshot().delta_since(&mark);

    server.shutdown();
    server.join();

    text.push_str(&format!(
        "corpus total         {cold_total:>8.3} {warm_total:>9.3} {corpus_ratio:>7.1}   \
         (gate: warm >= 10x better)\n\
         warm throughput      {rps:>8.0} req/s  ({throughput_threads} client(s) x \
         {throughput_reps} request(s) in {throughput_elapsed:.2}s)\n\
         cache counters       {hits} hit(s), {misses} miss(es), {evictions} eviction(s) \
         (from GET /metrics)\n",
    ));
    let data = json!({
        "workloads": Json::Array(rows),
        "cold_total_ms": cold_total,
        "warm_total_ms": warm_total,
        "corpus_ratio": corpus_ratio,
        "warm_10x": corpus_ratio >= 10.0,
        "throughput_rps": rps,
        "cache": json!({
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "warm_burst_screen_pairs": delta.counter("depend.screen.pairs"),
        }),
    });
    ExperimentReport::new(
        "server",
        "rcpd over loopback: cold vs warm analyze latency, throughput, cache hit rate",
        text,
        data,
    )
}

/// E-SYM — symbolic parametric partitioning: one plan per nest, any
/// binding instantiated in O(pieces).  For every instantiable workload
/// (examples 1–3 plus the instantiable slice of the synthetic corpus) the
/// experiment times, across a binding sweep:
///
/// * `SymbolicPlan::instance(b)` — the O(pieces) instantiation: bind every
///   partition-set piece and `Φ`, no point enumeration (microseconds);
/// * `PlanInstance::materialise()` — the pay-as-you-go dense partition on
///   top of the bind (output-sized work);
/// * `concrete_partition(analysis, b)` — the legacy per-binding
///   re-partition: re-bind Φ and the dependence relation, dense
///   re-enumeration of both, three-set recompute, Algorithm-1 re-run.
///
/// Every materialised partition is asserted bit-identical to the legacy
/// one.  The headline gate is the instantiation: corpus-total
/// `instance()` must be at least 10x faster than the corpus-total legacy
/// re-partition (in practice it is orders of magnitude faster — the dense
/// column shows the end-to-end ratio when the full enumerated partition
/// is also demanded, which is bounded by output size and lands near 2x).
/// Per-workload dense ratios and the overall bind ratio are recorded as
/// one-point `series` elements so the CI baseline diff gates them like
/// scheme speedups.
pub fn symbolic_experiment(quick: bool) -> ExperimentReport {
    use rcp_workloads::{random_nest, SmallRng};

    let inst_reps = if quick { 5 } else { 9 };
    let legacy_reps = if quick { 2 } else { 3 };
    let corpus_nests = if quick { 6 } else { 12 };

    // The binding sweeps: several bindings per nest, so the table shows the
    // per-binding cost is flat for instantiation and growing for the legacy
    // re-partition.
    let two_param: Vec<Vec<i64>> = if quick {
        vec![vec![40, 60], vec![60, 80], vec![80, 100]]
    } else {
        vec![vec![60, 100], vec![120, 200], vec![200, 300]]
    };
    let one_param: Vec<Vec<i64>> = if quick {
        vec![vec![48], vec![64], vec![80]]
    } else {
        vec![vec![80], vec![120], vec![160]]
    };
    let corpus_bindings: Vec<Vec<i64>> = if quick {
        vec![vec![16], vec![24], vec![32]]
    } else {
        vec![vec![24], vec![40], vec![56]]
    };

    let mut candidates = vec![
        ("example1".to_string(), example1(), two_param),
        ("example2".to_string(), example2(), one_param.clone()),
        ("example3".to_string(), example3(), one_param),
    ];
    let mut rng = SmallRng::seed_from_u64(42);
    let mut id = 0usize;
    while candidates.len() < 3 + corpus_nests && id < 400 {
        let nest = random_nest(&mut rng, 0.45, id);
        id += 1;
        let analysis = DependenceAnalysis::loop_level(&nest);
        let instantiable = symbolic_plan(&analysis)
            .ok()
            .is_some_and(|plan| plan.is_instantiable());
        if instantiable {
            candidates.push((format!("corpus-{id:03}"), nest, corpus_bindings.clone()));
        }
    }

    let mut text = format!(
        "{:<12} {:>12} {:>9} {:>9} {:>10} {:>8} {:>8}\n",
        "workload", "binding", "bind-us", "dense-ms", "legacy-ms", "x-bind", "x-dense"
    );
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut skipped = Vec::new();
    let (mut bind_grand, mut dense_grand, mut legacy_grand) = (0.0f64, 0.0f64, 0.0f64);
    for (name, program, bindings) in &candidates {
        let analysis = DependenceAnalysis::loop_level(program);
        let start = Instant::now();
        let plan = match symbolic_plan(&analysis) {
            Ok(plan) if plan.is_instantiable() => plan,
            other => {
                // No silent drops: record why a workload fell out of the
                // sweep (corpus nests are pre-filtered, so this is only
                // reachable for the named examples).
                let reason = match other {
                    Ok(plan) => plan.instantiability().expect("gated plan").to_string(),
                    Err(reason) => reason.to_string(),
                };
                text.push_str(&format!("{name:<12} skipped: {reason}\n"));
                skipped.push(json!({ "workload": name.as_str(), "reason": reason }));
                continue;
            }
        };
        let plan_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut binding_rows = Vec::new();
        let (mut bind_total, mut dense_total, mut legacy_total) = (0.0f64, 0.0f64, 0.0f64);
        for binding in bindings {
            let bind_ms = (0..inst_reps * 5)
                .map(|_| {
                    let start = Instant::now();
                    let _ = plan.instance(binding).expect("instantiable plan");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            let dense_ms = (0..inst_reps)
                .map(|_| {
                    let start = Instant::now();
                    let _ = plan.instantiate(binding).expect("instantiable plan");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            let legacy_ms = (0..legacy_reps)
                .map(|_| {
                    let start = Instant::now();
                    let _ = concrete_partition(&analysis, binding);
                    start.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            // The whole point of the sweep: both paths materialise the
            // same partition, bit for bit, at every binding.
            let instantiated = plan.instantiate(binding).expect("instantiable plan");
            let legacy = concrete_partition(&analysis, binding);
            assert_eq!(
                format!("{instantiated:?}"),
                format!("{legacy:?}"),
                "{name} at {binding:?}: instantiated partition diverges from legacy"
            );
            bind_total += bind_ms;
            dense_total += dense_ms;
            legacy_total += legacy_ms;
            text.push_str(&format!(
                "{:<12} {:>12} {:>9.2} {:>9.3} {:>10.3} {:>8.0} {:>8.1}\n",
                name,
                format!("{binding:?}"),
                bind_ms * 1e3,
                dense_ms,
                legacy_ms,
                legacy_ms / bind_ms,
                legacy_ms / dense_ms,
            ));
            binding_rows.push(json!({
                "binding": binding.clone(),
                "bind_us": bind_ms * 1e3,
                "dense_ms": dense_ms,
                "legacy_ms": legacy_ms,
                "bind_speedup": legacy_ms / bind_ms,
                "dense_speedup": legacy_ms / dense_ms,
            }));
        }
        let dense_speedup = legacy_total / dense_total;
        bind_grand += bind_total;
        dense_grand += dense_total;
        legacy_grand += legacy_total;
        rows.push(json!({
            "workload": name.as_str(),
            "plan_once_ms": plan_ms,
            "bindings": Json::Array(binding_rows),
            "bind_speedup": legacy_total / bind_total,
            "dense_speedup": dense_speedup,
        }));
        series.push(json!({
            "scheme": name.as_str(),
            "speedups": [dense_speedup],
        }));
    }
    let bind_overall = legacy_grand / bind_grand;
    let dense_overall = legacy_grand / dense_grand;
    // The bind speedup grows with the binding size (quick and full runs
    // sweep different sizes), so the baseline-diffed series entry is a
    // gate *fraction*: 1.0 while the >= 10x acceptance bar holds on any
    // sweep, dropping proportionally if O(pieces) binding ever collapses
    // back towards per-binding re-partition cost.
    let bind_gate = (bind_overall / 10.0).min(1.0);
    series.push(json!({ "scheme": "plan-bind", "speedups": [bind_gate] }));
    text.push_str(&format!(
        "corpus total {:>12} {:>9.2} {dense_grand:>9.3} {legacy_grand:>10.3} {bind_overall:>8.0} \
         {dense_overall:>8.1}   (gate: O(pieces) instantiation >= 10x better)\n",
        "",
        bind_grand * 1e3,
    ));
    let data = json!({
        "workloads": Json::Array(rows),
        "skipped": Json::Array(skipped),
        "bind_total_ms": bind_grand,
        "dense_total_ms": dense_grand,
        "legacy_total_ms": legacy_grand,
        "bind_speedup": bind_overall,
        "dense_speedup": dense_overall,
        "speedup_10x": bind_overall >= 10.0,
        "series": Json::Array(series),
    });
    ExperimentReport::new(
        "symbolic",
        "Symbolic plan instantiation vs legacy per-binding re-partition across a binding sweep",
        text,
        data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_counts_match_the_paper() {
        let report = fig1_dependences();
        assert_eq!(report.data["total"], 18);
        assert_eq!(report.data["per_distance"]["2"], 8);
        assert_eq!(report.data["per_distance"]["4"], 6);
        assert_eq!(report.data["per_distance"]["6"], 4);
    }

    #[test]
    fn fig2_partition_matches_the_paper() {
        let report = fig2_chains();
        assert_eq!(report.data["p2"].as_array().unwrap().len(), 0);
        assert_eq!(report.data["longest_chain"], 2);
        assert_eq!(
            report.data["p1"].as_array().unwrap().len(),
            12,
            "P1 = initial {{1..6}} plus independent {{7,12,14,16,18,20}}"
        );
    }

    #[test]
    fn ex2_reports_the_singleton_intermediate_set() {
        let report = ex2_facts();
        assert_eq!(report.data["intermediate_set"], json!([[2, 6]]));
        assert_eq!(report.data["rec_phases"], 3);
        assert!(report.data["unique_phases"].as_u64().unwrap() > 3);
    }

    #[test]
    fn fig3_small_instances_have_the_right_shape() {
        // Small parameters keep the test fast; the shape assertions mirror
        // the full-size claims checked in EXPERIMENTS.md.
        let model = CostModel::default();
        let ex1 = fig3_ex1(&model, 30, 40, 4);
        let fig = SpeedupFigure::from_json(&ex1.data).unwrap();
        let get = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.scheme == name)
                .unwrap()
                .clone()
        };
        assert!(
            get("REC").at(4) > get("PL").at(4),
            "REC must beat PL on example 1"
        );
        // REC and PDM are close on example 1 (the paper's extra REC margin
        // comes from subscript simplification in the generated Fortran,
        // which the cost model deliberately does not include); at small
        // sizes PDM's single barrier gives it a few percent.
        assert!(
            get("REC").at(4) >= get("PDM").at(4) * 0.8,
            "REC must not trail PDM by much"
        );

        let ex2 = fig3_ex2(&model, 30, 4);
        let fig = SpeedupFigure::from_json(&ex2.data).unwrap();
        let get = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.scheme == name)
                .unwrap()
                .clone()
        };
        assert!(
            get("REC").at(4) >= get("UNIQUE").at(4),
            "REC must beat UNIQUE on example 2"
        );

        let ex3 = fig3_ex3(&model, 40, 4);
        let fig = SpeedupFigure::from_json(&ex3.data).unwrap();
        let get = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.scheme == name)
                .unwrap()
                .clone()
        };
        assert!(
            get("REC").at(4) >= get("PAR").at(4),
            "REC must beat inner-loop PAR on example 3"
        );
        assert!(
            get("REC").at(4) >= get("DOACROSS").at(4),
            "REC must beat DOACROSS on example 3"
        );
    }

    #[test]
    fn ex4_small_dataflow_report() {
        let report = ex4_dataflow(CholeskyParams {
            nmat: 2,
            m: 2,
            n: 6,
            nrhs: 1,
        });
        let steps = report.data["steps"].as_u64().unwrap();
        assert!(steps > 5);
        assert!(steps < report.data["instances"].as_u64().unwrap());
    }

    #[test]
    fn analysis_pipeline_reports_cache_and_sharding() {
        let report = analysis_pipeline(2);
        // Sharded results must be identical to single-threaded, always.
        assert_eq!(report.data["all_identical"], true);
        assert_eq!(report.data["sharded"].as_array().unwrap().len(), 3);
        // The warm solver pass answers (almost) everything from the cache.
        let cache = &report.data["cache"];
        assert!(cache["hit_rate"].as_f64().unwrap() > 0.5);
        // Fourier-Motzkin emptiness checks are memoised too: the corpus
        // draws from a small coefficient range, so repeated conjunctions
        // dominate even the cold pass.
        let emptiness = &report.data["emptiness"];
        assert!(emptiness["hit_rate"].as_f64().unwrap() > 0.3);
        assert!(emptiness["hits"].as_u64().unwrap() > 0);
        // Warm must not be slower than cold beyond scheduling noise; the
        // real ≥2x solver-stage margin is recorded by the experiment run
        // (BENCH_results.json), not asserted here where CI noise rules.
        assert!(
            cache["solver_speedup"].as_f64().unwrap() > 1.0,
            "warm solver pass must beat the cold pass"
        );
    }

    #[test]
    fn trace_overhead_is_negligible_when_disabled() {
        let report = trace_overhead(true);
        assert!(
            report.data["span_events"].as_u64().unwrap() > 0,
            "the instrumented pipeline must fire spans when traced"
        );
        assert!(
            report.data["tick_events"].as_u64().unwrap() > 0,
            "the pipeline must pass guard checkpoints"
        );
        assert_eq!(
            report.data["disabled_overhead_ok"], true,
            "dormant instrumentation must stay under 1% of pipeline time \
             (got {:?}%)",
            report.data["overhead_pct"]
        );
        let series = report.data["series"].as_array().unwrap();
        let ratio = series[0]["speedups"].as_array().unwrap()[0]
            .as_f64()
            .unwrap();
        assert!(ratio > 0.99, "throughput ratio {ratio} must stay near 1.0");
    }

    #[test]
    fn loop_corpus_covers_every_bundled_file() {
        let report = loop_corpus();
        let rows = report.data.as_array().unwrap();
        assert_eq!(rows.len(), BUNDLED_LOOPS.len());
        for row in rows {
            let name = row["workload"].as_str().unwrap();
            // Every file's Algorithm-1 partition is valid, and the chosen
            // branch is explained when it is not recurrence chains.
            assert_eq!(row["valid"], true, "{name}");
            match row["strategy"].as_str().unwrap() {
                "RecurrenceChains" => assert!(row["fallback_reason"].as_str().is_none(), "{name}"),
                "Dataflow" => assert!(row["fallback_reason"].as_str().is_some(), "{name}"),
                other => panic!("{name}: unknown strategy {other}"),
            }
            // The paper's own scheme applies everywhere; loop-level files
            // additionally admit the loop-level baselines.
            let schemes = row["applicable_schemes"].as_array().unwrap();
            assert!(
                schemes
                    .iter()
                    .any(|s| s.as_str() == Some("recurrence-chains")),
                "{name}"
            );
            if row["granularity"].as_str() == Some("loop") {
                assert!(schemes.iter().any(|s| s.as_str() == Some("pdm")), "{name}");
            }
        }
        // The known branch facts: example1 takes recurrence chains,
        // cholesky falls back with the statement-level reason.
        let find = |name: &str| {
            rows.iter()
                .find(|r| r["workload"].as_str() == Some(name))
                .unwrap()
        };
        assert_eq!(
            find("example1")["strategy"].as_str(),
            Some("RecurrenceChains")
        );
        assert!(find("cholesky")["fallback_reason"]
            .as_str()
            .unwrap()
            .contains("statement-level"));
    }

    #[test]
    fn scaling_experiment_completes_the_full_pair_space_and_stays_exact() {
        let report = scaling_experiment(true);
        let rows = report.data.as_array().unwrap();
        assert_eq!(rows.len(), 2, "quick mode runs NMAT 25 and 250");
        for row in rows {
            // The full pair space is analysed (nothing silently capped) and
            // the screened relation is identical to the unscreened one.
            assert_eq!(row["identical_to_exact"], true);
            assert!(row["n_pairs"].as_u64().unwrap() >= 90);
            assert!(
                row["by_bbox"].as_u64().unwrap() > 0,
                "the box screen must prune Cholesky's pair space"
            );
            assert!(
                row["survivors"].as_u64().unwrap() < row["n_pairs"].as_u64().unwrap(),
                "screening must prune something"
            );
            assert!(
                row["n_classes"].as_u64().unwrap() < row["n_pairs"].as_u64().unwrap(),
                "chain classes must deduplicate solver work"
            );
        }
        // Paper scale is present and completed.
        assert!(rows.iter().any(|r| r["nmat"].as_i64() == Some(250)));
    }

    #[test]
    fn ablation_reports_both_schemes() {
        let report = ablation(&CostModel::default(), 20, 30, 4);
        let schemes = report.data["schemes"].as_array().unwrap();
        let names: Vec<_> = schemes.iter().map(|s| s["scheme"].as_str()).collect();
        assert_eq!(names, [Some("REC"), Some("pure-dataflow")]);
        for scheme in schemes {
            assert!(scheme["phases"].as_u64().unwrap() > 0);
            assert!(scheme["speedup"].as_f64().unwrap() > 1.0);
        }
    }

    #[test]
    fn theorem1_table_always_holds() {
        let report = theorem1_table();
        for row in report.data.as_array().unwrap() {
            assert_eq!(row["holds"], true);
        }
    }

    #[test]
    fn symbolic_experiment_meets_the_instantiation_gate() {
        // Per-binding `instantiate == concrete_partition` equality is
        // asserted inside the experiment itself; this gate pins the
        // acceptance bar — O(pieces) plan binding at least 10x faster than
        // legacy per-binding re-partition — with enough margin (observed
        // >100x) to be robust on any runner.
        let report = symbolic_experiment(true);
        assert_eq!(report.id, "symbolic");
        assert_eq!(
            report.data["speedup_10x"].as_bool(),
            Some(true),
            "O(pieces) plan binding fell below 10x vs legacy re-partition:\n{}",
            report.text
        );
        let series = report.data["series"].as_array().unwrap();
        let gate = series
            .iter()
            .find(|s| s["scheme"].as_str() == Some("plan-bind"))
            .expect("plan-bind gate series");
        assert_eq!(gate["speedups"].as_array().unwrap()[0].as_f64(), Some(1.0));
    }

    #[test]
    fn fuzz_experiment_is_clean_and_gateable_on_the_pinned_seed() {
        let report = fuzz_experiment(true);
        assert_eq!(report.id, "fuzz");
        assert_eq!(report.data["clean"].as_bool(), Some(true));
        assert_eq!(report.data["seed"].as_str(), Some("0xc0ffee"));
        assert_eq!(report.data["discrepancies"].as_u64(), Some(0));
        let series = report.data["series"].as_array().unwrap();
        assert_eq!(
            series.len(),
            7,
            "one survival series per registry scheme plus the plan-instantiate oracle"
        );
        for elem in series {
            // The baseline diff reads {scheme, speedups}; survival must be
            // a full 1.0 on a clean campaign so any future discrepancy
            // shows up as a gated regression.
            let speedups = elem["speedups"].as_array().unwrap();
            assert_eq!(speedups.len(), 1);
            assert_eq!(speedups[0].as_f64(), Some(1.0));
        }
    }
}
