//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p rcp-bench --bin paper_results            # everything (full size)
//! cargo run --release -p rcp-bench --bin paper_results -- --quick # reduced parameters
//! cargo run --release -p rcp-bench --bin paper_results -- fig3-ex1 ex4
//! cargo run --release -p rcp-bench --bin paper_results -- --json            # BENCH_results.json
//! cargo run --release -p rcp-bench --bin paper_results -- --json out.json
//! cargo run --release -p rcp-bench --bin paper_results -- --serial          # one at a time
//! cargo run --release -p rcp-bench --bin paper_results -- --baseline BENCH_results.json
//! ```
//!
//! Independent experiments run concurrently (bounded by the hardware's
//! available parallelism) and stream their reports in completion order;
//! `--json` output is sorted by experiment id, so it stays deterministic
//! regardless of completion order.  The two experiments that read a clock
//! themselves (`guard`, `trace`) are held back and run serially after the
//! concurrent batch, so concurrent neighbours never pollute their timings.
//! Every other experiment reports counts, or speedups modelled at one
//! per-instance cost: calibrated on this machine, or, under `--baseline`,
//! the one the baseline file recorded, so a diff of modelled series does
//! not depend on the machine it runs on.
//!
//! `--baseline old.json` diffs the fresh run against a recorded result
//! file, reports per-experiment speedup deltas, and **exits non-zero**
//! when any scheme's speedup dropped by more than the gate tolerance
//! (`--baseline-tolerance <frac>`, default the 5% noise band), or when the
//! diff compared nothing: no series at all, a series-carrying experiment
//! the baseline does not record, or a series one side lacks.

use rcp_bench::baseline::{diff_against_baseline, recorded_cost_model};
use rcp_bench::experiments::{
    ablation, calibrated_model, corpus_table, ex1_partition, ex2_facts, ex3_facts, ex4_dataflow,
    fig1_dependences, fig2_chains, fig3_ex1, fig3_ex2, fig3_ex3, fig3_ex4, fuzz_experiment,
    guard_overhead, loop_corpus, scaling_experiment, theorem1_table, trace_overhead,
    ExperimentReport,
};
use rcp_bench::selection::select_experiments;
use rcp_runtime::CostModel;
use rcp_workloads::CholeskyParams;
use std::sync::Mutex;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serial = args.iter().any(|a| a == "--serial");

    // Evaluation parameters (paper values unless --quick).
    let (ex1_n1, ex1_n2) = if quick { (60, 100) } else { (300, 1000) };
    let ex2_n = if quick { 60 } else { 300 };
    let ex3_n = if quick { 60 } else { 300 };
    let cholesky = if quick {
        CholeskyParams {
            nmat: 25,
            m: 4,
            n: 40,
            nrhs: 3,
        }
    } else {
        CholeskyParams::paper()
    };
    let threads = 4;

    // The single experiment registry: ids for selector validation and the
    // run loop both come from here, so they cannot drift.  `timing` marks
    // the experiments that read a clock themselves; they are excluded
    // from the concurrent batch so neighbours cannot skew their numbers.
    // Each experiment receives the cost model the modelled series use.
    struct Experiment {
        id: &'static str,
        timing: bool,
        run: Box<dyn Fn(&CostModel) -> ExperimentReport + Send + Sync>,
    }
    fn exp(
        id: &'static str,
        timing: bool,
        run: impl Fn(&CostModel) -> ExperimentReport + Send + Sync + 'static,
    ) -> Experiment {
        Experiment {
            id,
            timing,
            run: Box::new(run),
        }
    }
    let experiments: Vec<Experiment> = vec![
        exp("fig1", false, |_| fig1_dependences()),
        exp("fig2", false, |_| fig2_chains()),
        exp("ex1", false, move |_| {
            ex1_partition(ex1_n1.min(60), ex1_n2.min(100))
        }),
        exp("ex2", false, |_| ex2_facts()),
        exp("ex3", false, move |_| ex3_facts(ex3_n)),
        exp("ex4", false, move |_| ex4_dataflow(cholesky)),
        exp("fig3-ex1", false, move |model| {
            fig3_ex1(model, ex1_n1, ex1_n2, threads)
        }),
        exp("fig3-ex2", false, move |model| {
            fig3_ex2(model, ex2_n, threads)
        }),
        exp("fig3-ex3", false, move |model| {
            fig3_ex3(model, ex3_n, threads)
        }),
        exp("fig3-ex4", false, move |model| {
            fig3_ex4(model, cholesky, threads)
        }),
        exp("ablation", false, move |model| {
            ablation(model, 60, 80, threads)
        }),
        exp("theorem1", false, |_| theorem1_table()),
        exp("corpus", false, |_| loop_corpus()),
        exp("fuzz", false, move |_| fuzz_experiment(quick)),
        exp("corpus-synthetic", false, |_| corpus_table()),
        exp("scaling", false, move |_| scaling_experiment(quick)),
        exp("guard", true, move |_| guard_overhead(quick)),
        exp("trace", true, move |_| trace_overhead(quick)),
    ];
    let known: Vec<&str> = experiments.iter().map(|e| e.id).collect();

    // `--json [path]`: the next argument is the output path unless it is a
    // flag or an experiment selector; with no path, BENCH_results.json.
    let path_after = |flag: &str| {
        args.iter().position(|a| a == flag).map(|k| {
            args.get(k + 1)
                .filter(|p| !p.starts_with("--") && !known.contains(&p.as_str()))
                .cloned()
        })
    };
    let json_path = path_after("--json").map(|p| p.unwrap_or_else(|| "BENCH_results.json".into()));
    // `--baseline <path>`: diff this run against a recorded result file.
    let baseline_path = match path_after("--baseline") {
        Some(Some(p)) => Some(p),
        Some(None) => {
            eprintln!("error: --baseline requires a path to a recorded results file");
            std::process::exit(2);
        }
        None => None,
    };
    // `--baseline-tolerance <frac>`: the relative speedup drop beyond which
    // the run exits non-zero (so the CI diff gates pushes).  Defaults to
    // the display noise band; CI runners comparing against a baseline
    // recorded on different hardware should pass a wider band.
    let tolerance_arg = args
        .iter()
        .position(|a| a == "--baseline-tolerance")
        .map(|k| {
            args.get(k + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: --baseline-tolerance requires a fraction (e.g. 0.05)");
                std::process::exit(2);
            })
        });
    let baseline_tolerance = match &tolerance_arg {
        Some(raw) => {
            match raw.parse::<f64>() {
                Ok(t) if (0.0..1.0).contains(&t) => t,
                _ => {
                    eprintln!("error: invalid --baseline-tolerance {raw:?} (expected a fraction in [0, 1))");
                    std::process::exit(2);
                }
            }
        }
        None => rcp_bench::baseline::NOISE_BAND,
    };
    let consumed_paths = [&json_path, &baseline_path, &tolerance_arg];
    let is_path_arg = |a: &String| consumed_paths.iter().any(|p| p.as_deref() == Some(a));
    // Resolve the selectors: unknown ids are rejected instead of silently
    // running nothing, and duplicates (`measured measured`) collapse to
    // one selection.
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && !is_path_arg(a))
        .map(|a| a.as_str())
        .collect();
    let selected = select_experiments(&requested, &known).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    });
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    // Read the baseline up front so a bad path fails cleanly — a readable
    // error and a non-zero exit, not a panic backtrace — before any work
    // runs (the CI log should say "baseline missing", not "thread
    // panicked").
    let baseline = baseline_path.map(|path| {
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let parsed = rcp_json::Json::parse(&raw).unwrap_or_else(|e| {
            eprintln!("error: cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        (path, parsed)
    });

    // The modelled series are evaluated at the baseline's recorded
    // per-instance cost when there is one, so a baseline diff compares
    // like with like on any machine; otherwise at this machine's.
    let recorded = baseline
        .as_ref()
        .and_then(|(path, recorded)| recorded_cost_model(recorded).map(|model| (path, model)));
    let model = match recorded {
        Some((path, model)) => {
            eprintln!("using the cost model recorded in {path}");
            model
        }
        None => {
            eprintln!("calibrating the cost model on this machine ...");
            calibrated_model()
        }
    };
    eprintln!(
        "cost model: {:.2} ns per statement instance, {:.0} ns per barrier",
        model.instance_cost_ns, model.barrier_cost_ns
    );

    // Run the concurrent batch first (streamed in completion order), then
    // the timing-sensitive experiments serially on a quiet machine.
    let workers = if serial {
        1
    } else {
        rcp_runtime::pool::available_threads()
    };
    let stdout_gate = Mutex::new(());
    let run_and_stream = |e: &&Experiment| {
        let start = Instant::now();
        let report = (e.run)(&model);
        let elapsed = start.elapsed().as_secs_f64();
        let _gate = stdout_gate.lock().expect("stdout gate poisoned");
        eprintln!("{} done in {elapsed:.1}s", e.id);
        println!(
            "==== {} — {} ====\n{}\n",
            report.id, report.description, report.text
        );
        report
    };
    let concurrent: Vec<&Experiment> = experiments
        .iter()
        .filter(|e| !e.timing && want(e.id))
        .collect();
    let timing: Vec<&Experiment> = experiments
        .iter()
        .filter(|e| e.timing && want(e.id))
        .collect();
    eprintln!(
        "running {} experiment(s) on {workers} worker(s), then {} timing experiment(s) serially ...",
        concurrent.len(),
        timing.len()
    );
    let mut reports: Vec<ExperimentReport> =
        rcp_runtime::pool::par_map(workers, &concurrent, run_and_stream);
    reports.extend(timing.iter().map(&run_and_stream));

    // Deterministic --json output: sorted by experiment id, regardless of
    // the completion order the run streamed in.
    reports.sort_by(|a, b| a.id.cmp(&b.id));

    let mut exit_code = 0;
    if let Some((path, baseline)) = &baseline {
        let diff = diff_against_baseline(&reports, baseline);
        println!("==== baseline diff against {path} ====\n{}", diff.to_text());
        let gating = diff.regressions_beyond(baseline_tolerance);
        if !gating.is_empty() {
            eprintln!(
                "error: {} speedup regression(s) beyond the {:.0}% gate tolerance:",
                gating.len(),
                baseline_tolerance * 100.0
            );
            for d in &gating {
                eprintln!(
                    "  {} / {} at {} thread(s): {:.2} -> {:.2} ({:.2}x)",
                    d.experiment,
                    d.scheme,
                    d.threads,
                    d.old,
                    d.new,
                    d.ratio()
                );
            }
            exit_code = 1;
        } else if !diff.no_regressions() {
            eprintln!(
                "warning: regressions within the {:.0}% gate tolerance but beyond the display noise band",
                baseline_tolerance * 100.0
            );
        }
        let gaps = diff.gaps();
        if !gaps.is_empty() {
            eprintln!("error: the baseline diff left {} gap(s):", gaps.len());
            for gap in &gaps {
                eprintln!("  {gap}");
            }
            exit_code = 1;
        }
    }

    if let Some(path) = json_path {
        let payload = rcp_json::json!({
            "cost_model": rcp_json::json!({
                "instance_cost_ns": model.instance_cost_ns,
                "barrier_cost_ns": model.barrier_cost_ns,
            }),
            "quick": quick,
            "experiments": reports,
        });
        std::fs::write(&path, payload.pretty()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
