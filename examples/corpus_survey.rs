//! The motivating statistics of §1, reproduced on a synthetic loop corpus.
//!
//! The paper measures SPECfp95 ("more than 46% of the nested loops contain
//! non-uniform data dependences"); the benchmark sources are not available
//! here, so the same classification pipeline runs over a synthetic corpus
//! with a controllable fraction of coupled subscripts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example corpus_survey
//! ```

use recurrence_chains::depend::{classify_uniformity, DependenceAnalysis, Granularity};
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::workloads::{corpus_statistics, CorpusConfig, BUNDLED_LOOPS};

/// Classifies one bundled `.loop` workload at its survey parameters.
/// Deep many-statement programs (the Cholesky kernel) are reported by
/// shape only: their statement-level pair space makes exact symbolic
/// analysis too slow for a survey.
fn survey_bundled() {
    println!("\nbundled .loop workloads (examples/loops/*.loop) at survey parameters:");
    println!(
        "{:>14}  {:>6}  {:>6}  {:>10}  {:>12}  {:>12}",
        "workload", "depth", "stmts", "nest", "dependences", "class"
    );
    for bundled in BUNDLED_LOOPS {
        let program = bundled.program();
        let stmts = program.statements().len();
        let nest = if program.is_perfect_nest() {
            "perfect"
        } else {
            "imperfect"
        };
        let (deps, class) = if stmts <= 4 {
            let granularity = if program.is_perfect_nest() {
                Granularity::LoopLevel
            } else {
                Granularity::StatementLevel
            };
            let analysis = DependenceAnalysis::analyze(&program, granularity);
            let values = bundled.survey_values();
            let (phi, rel) = analysis.bind_params(&values);
            let rd = DenseRelation::from_relation(&rel);
            let phi_d = DenseSet::from_union(&phi);
            (
                rd.len().to_string(),
                format!("{:?}", classify_uniformity(&rd, &phi_d)),
            )
        } else {
            ("-".into(), "(shape only)".into())
        };
        println!(
            "{:>14}  {:>6}  {:>6}  {:>10}  {:>12}  {:>12}",
            bundled.name,
            program.max_depth(),
            stmts,
            nest,
            deps,
            class
        );
    }
}

fn main() {
    println!("fraction of generated references with coupled subscripts  ->  observed loop classification");
    println!(
        "{:>8}  {:>8}  {:>10}  {:>12}  {:>10}",
        "coupled", "loops", "dependent", "non-uniform", "uniform"
    );
    for coupled_fraction in [0.0, 0.25, 0.45, 0.75, 1.0] {
        let stats = corpus_statistics(&CorpusConfig {
            n_loops: 150,
            coupled_fraction,
            extent: 12,
            seed: 2004,
        });
        println!(
            "{:>8.2}  {:>8}  {:>10}  {:>12}  {:>10}",
            coupled_fraction,
            stats.total_loops,
            stats.dependent_loops,
            stats.non_uniform_loops,
            stats.uniform_loops
        );
    }
    let stats = corpus_statistics(&CorpusConfig::default());
    println!(
        "\nat the default mix ({}% coupled references): {:.1}% of the loops have non-uniform dependences",
        (CorpusConfig::default().coupled_fraction * 100.0) as i64,
        stats.non_uniform_fraction() * 100.0,
    );
    println!("(the paper reports >46% of SPECfp95 loop nests; the corpus substitutes for the benchmark sources)");
    survey_bundled();
}
