//! Synthetic loop corpus: the SPECfp95 statistics substitution.
//!
//! The paper motivates the technique with measurements over SPECfp95
//! ("more than 46% of the nested loops … contain non-uniform data
//! dependences", "about 12.8% of the coupled subscripts … generate
//! non-uniform dependences").  The benchmark sources are not available
//! here, so the same measurement pipeline — classify every loop nest's
//! reference pairs as coupled/uncoupled and its dependences as
//! uniform/non-uniform — is run over a *synthetic corpus* of randomly
//! generated two-deep loop nests whose subscript-shape mix is controllable.
//! The reproduced artefact is the classifier and the reported statistic,
//! not SPEC's exact percentages.

use crate::rng::SmallRng;
use rcp_depend::{classify_analysis, is_coupled_access, DependenceAnalysis, Uniformity};
use rcp_loopir::expr::{c, v, LinExpr};
use rcp_loopir::program::build::{loop_, stmt};
use rcp_loopir::{ArrayRef, Program};

/// Configuration of the synthetic corpus generator.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Number of loop nests to generate.
    pub n_loops: usize,
    /// Probability that a generated reference uses coupled subscripts
    /// (a loop index appearing in more than one dimension).
    pub coupled_fraction: f64,
    /// Loop bounds used when classifying dependences empirically.
    pub extent: i64,
    /// RNG seed (the corpus is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            n_loops: 200,
            coupled_fraction: 0.45,
            extent: 12,
            seed: 2004,
        }
    }
}

/// Classification counts over a corpus, mirroring the §1 statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Total loop nests generated.
    pub total_loops: usize,
    /// Loop nests whose write reference uses coupled subscripts.
    pub coupled_loops: usize,
    /// Loop nests with at least one loop-carried dependence.
    pub dependent_loops: usize,
    /// Loop nests classified as having non-uniform dependences.
    pub non_uniform_loops: usize,
    /// Loop nests classified as having (only) uniform dependences.
    pub uniform_loops: usize,
}

impl CorpusStats {
    /// Fraction of loops with non-uniform dependences.
    pub fn non_uniform_fraction(&self) -> f64 {
        self.non_uniform_loops as f64 / self.total_loops.max(1) as f64
    }

    /// Fraction of coupled loops among all loops.
    pub fn coupled_fraction(&self) -> f64 {
        self.coupled_loops as f64 / self.total_loops.max(1) as f64
    }

    /// Fraction of coupled loops whose dependences are non-uniform.
    pub fn non_uniform_among_coupled(&self) -> f64 {
        let coupled_non_uniform = self.non_uniform_loops.min(self.coupled_loops);
        coupled_non_uniform as f64 / self.coupled_loops.max(1) as f64
    }
}

/// Generates one random two-deep loop nest.
pub fn random_nest(rng: &mut SmallRng, coupled_fraction: f64, id: usize) -> Program {
    let coupled = rng.gen_bool(coupled_fraction);
    let sub = |rng: &mut SmallRng, coupled: bool| -> Vec<LinExpr> {
        if coupled {
            // Coupled: I appears in both dimensions (the classic source of
            // non-uniform distances).
            let a = rng.gen_range(1..=3);
            let b = rng.gen_range(1..=2);
            let k1 = rng.gen_range(0..=3);
            let k2 = rng.gen_range(0..=3);
            vec![v("I") * a + c(k1), v("I") * b + v("J") + c(k2)]
        } else {
            // Uncoupled translation: each index in its own dimension.
            let k1 = rng.gen_range(0..=2);
            let k2 = rng.gen_range(0..=2);
            vec![v("I") + c(k1), v("J") + c(k2)]
        }
    };
    let write = ArrayRef::write("a", sub(rng, coupled));
    let read_coupled = rng.gen_bool(0.5) && coupled;
    let read = ArrayRef::read("a", sub(rng, read_coupled));
    Program::new(
        &format!("corpus-{id}"),
        &["N"],
        vec![loop_(
            "I",
            c(1),
            v("N"),
            vec![loop_("J", c(1), v("N"), vec![stmt("S", vec![write, read])])],
        )],
    )
}

/// Generates the corpus and classifies every loop nest.
pub fn corpus_statistics(config: &CorpusConfig) -> CorpusStats {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut stats = CorpusStats {
        total_loops: config.n_loops,
        ..Default::default()
    };
    for id in 0..config.n_loops {
        let program = random_nest(&mut rng, config.coupled_fraction, id);
        let analysis = DependenceAnalysis::loop_level(&program);
        let stmts = analysis.program.statements();
        let info = &stmts[0];
        let coupled = info
            .stmt
            .refs
            .iter()
            .any(|r| is_coupled_access(&analysis.program.loop_access(info, r).matrix));
        if coupled {
            stats.coupled_loops += 1;
        }
        match classify_analysis(&analysis, &[config.extent]) {
            Uniformity::Independent => {}
            Uniformity::Uniform => {
                stats.dependent_loops += 1;
                stats.uniform_loops += 1;
            }
            Uniformity::NonUniform => {
                stats.dependent_loops += 1;
                stats.non_uniform_loops += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_for_a_seed() {
        let config = CorpusConfig {
            n_loops: 30,
            ..Default::default()
        };
        let a = corpus_statistics(&config);
        let b = corpus_statistics(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn coupled_subscripts_drive_non_uniformity() {
        // With no coupled references the corpus must contain no non-uniform
        // loops; with many coupled references it must contain some.
        let none = corpus_statistics(&CorpusConfig {
            n_loops: 40,
            coupled_fraction: 0.0,
            extent: 10,
            seed: 7,
        });
        assert_eq!(none.non_uniform_loops, 0);
        assert_eq!(none.coupled_loops, 0);
        let many = corpus_statistics(&CorpusConfig {
            n_loops: 40,
            coupled_fraction: 1.0,
            extent: 10,
            seed: 7,
        });
        assert!(many.coupled_loops == 40);
        assert!(many.non_uniform_loops > 0);
        assert!(many.non_uniform_fraction() > 0.1);
    }

    #[test]
    fn fractions_are_well_defined() {
        let stats = CorpusStats::default();
        assert_eq!(stats.non_uniform_fraction(), 0.0);
        assert_eq!(stats.coupled_fraction(), 0.0);
        assert_eq!(stats.non_uniform_among_coupled(), 0.0);
    }
}
