//! Construction of the exact dependence relation `Rd`.
//!
//! For every pair of references to the same array (at least one of them a
//! write), the dependence equation `i·A + a = j·B + b` (eq. 2) is combined
//! with the iteration-space membership of both end points and with the
//! lexicographic order `src ≺ dst` to form the relation of eq. 4 (loop
//! level) / eq. 7 (statement level):
//!
//! ```text
//! Rd = ⋃ { src → dst | subscripts equal ∧ src ≺ dst ∧ src, dst ∈ Φ }
//! ```
//!
//! `Rd` always points forward in execution order, so `dom Rd` are iterations
//! with a successor and `ran Rd` are iterations with a predecessor — exactly
//! the sets the three-set partitioning of §3.1 operates on.
//!
//! # Sharding and screening
//!
//! Reference pairs are independent of each other, so the per-pair work —
//! building the convex pieces of both directions — is sharded over OS
//! threads with [`rcp_pool::par_map`]
//! ([`DependenceAnalysis::analyze_with_threads`]); results come back in
//! pair order, so the assembled relation is identical to the
//! single-threaded one piece for piece.  Before any piece is built, the
//! whole pair space goes through the pre-solve screens of
//! [`crate::pairspace`] — shape-bucketed GCD test, bounding-box
//! intersection of the accessed regions, and the class-deduplicated
//! diophantine solve of the dependence equation `i·A + a = j·B + b`
//! through the memoised solver
//! ([`rcp_intlin::solve_linear_system_cached`]).  Screened pairs are
//! skipped outright ([`DependenceAnalysis::n_screened_pairs`],
//! [`DependenceAnalysis::screen`]) without changing the resulting
//! relation piece for piece.

use crate::pairspace::{
    reference_box, statement_var_intervals, Interval, PairScreen, ScreenConfig, ScreenStats,
};
use rcp_intlin::{solve_linear_system_cached, IMat, IVec};
use rcp_loopir::{AccessMap, Program, StatementInfo};
use rcp_presburger::{Constraint, ConvexSet, Relation, Space, UnionSet};

/// The granularity at which dependences are computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// One point per iteration of a loop nest (§2).  For perfect nests
    /// this is the classic loop space; for imperfect nests it is the
    /// aggregated group view of [`crate::looplevel`] (one point per
    /// iteration of each top-level nest's maximal perfect prefix).
    LoopLevel,
    /// One point per statement instance in the unified index space (§3.3).
    StatementLevel,
}

/// How the analysis space maps back to the program: directly (the classic
/// perfect-nest loop space, or the statement-level unified space), or
/// through the aggregated loop-group view of an imperfect nest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoopView {
    /// Points are loop iterations of a perfect nest or unified statement
    /// instances — the pre-existing spaces.
    Direct,
    /// Points are `(group, prefix-iteration)` aggregates of an imperfect
    /// nest; each point executes its whole body in program order.
    Groups(Vec<rcp_loopir::LoopGroup>),
}

impl LoopView {
    /// The loop groups of an aggregated view, `None` for direct views.
    pub fn groups(&self) -> Option<&[rcp_loopir::LoopGroup]> {
        match self {
            LoopView::Direct => None,
            LoopView::Groups(g) => Some(g),
        }
    }
}

/// A pair of array references that can induce dependences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefPair {
    /// Statement id of the first reference.
    pub src_stmt: usize,
    /// Reference index within the first statement.
    pub src_ref: usize,
    /// Statement id of the second reference.
    pub dst_stmt: usize,
    /// Reference index within the second statement.
    pub dst_ref: usize,
    /// The shared array.
    pub array: String,
    /// True when the two references have identical access functions
    /// (`A = B`, `a = b`), i.e. the dependence is a pure translation.
    pub identical_access: bool,
}

/// The coupled reference pair used by the recurrence-chain construction
/// when the loop has a *single* pair of coupled subscripts with full-rank
/// coefficient matrices (Lemma 1 / Algorithm 1's then-branch).
#[derive(Clone, Debug)]
pub struct CoupledPair {
    /// Access map of the write reference (`A`, `a`).
    pub write: AccessMap,
    /// Access map of the read reference (`B`, `b`).
    pub read: AccessMap,
}

impl CoupledPair {
    /// True when both coefficient matrices are square and full rank, the
    /// precondition of Lemma 1.
    pub fn full_rank(&self) -> bool {
        self.write.matrix.is_full_rank() && self.read.matrix.is_full_rank()
    }
}

/// The outcome of scanning a program for the *single coupled reference
/// pair* that Algorithm 1's then-branch requires: either the pair, or the
/// precise precondition that failed.
#[derive(Clone, Debug)]
pub enum CoupledPairCheck {
    /// Exactly one same-array write/read pair with square, full-rank
    /// access matrices — the then-branch applies.
    Single(CoupledPair),
    /// The analysis ran at statement level, where the coupled-pair
    /// construction (and hence the recurrence) is not defined.
    StatementLevel,
    /// The analysis ran over the aggregated loop-group view of an
    /// imperfect nest: the statement-local access matrices do not map the
    /// `(group, prefix)` point space, so Lemma 1's recurrence `T = B·A⁻¹`
    /// is not defined there (the partitioner uses validated component
    /// chains instead).
    AggregatedLoopLevel,
    /// No statement reads and writes the same array: no coupled pair can
    /// exist (the loop is independent or uses distinct arrays).
    NoPair,
    /// More than one same-array write/read pair: the recurrence `i = j·T
    /// + u` would not be unique.
    MultiplePairs {
        /// How many coupled pairs the scan found.
        count: usize,
    },
    /// The single pair's access matrices are not square (array rank ≠
    /// nest depth), so no recurrence matrix `T` exists.
    NonSquare {
        /// The array whose access is non-square.
        array: String,
    },
    /// The single pair's access matrices are square but rank deficient,
    /// so `T = B·A⁻¹` cannot be formed (Lemma 1's precondition).
    RankDeficient {
        /// The array whose access is rank deficient.
        array: String,
    },
}

/// Everything an analysis run can be configured with: the granularity,
/// an explicit thread count for the sharded per-pair work, and which
/// pre-solve screens of the pair-space engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Loop-level or statement-level.
    pub granularity: Granularity,
    /// Shard the per-pair work over exactly this many threads; `None`
    /// lets the analysis pick (all hardware threads when the program has
    /// enough reference pairs to amortise spawning).
    pub threads: Option<usize>,
    /// The pre-solve screening stages (see [`crate::pairspace`]).
    pub screen: ScreenConfig,
}

impl AnalysisOptions {
    /// Default options at the given granularity: automatic threading,
    /// full screening.
    pub fn new(granularity: Granularity) -> Self {
        AnalysisOptions {
            granularity,
            threads: None,
            screen: ScreenConfig::full(),
        }
    }

    /// Pins the shard count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Selects the screening stages.
    pub fn with_screen(mut self, screen: ScreenConfig) -> Self {
        self.screen = screen;
        self
    }
}

/// The result of dependence analysis on a program.
#[derive(Clone, Debug)]
pub struct DependenceAnalysis {
    /// The analysed program.
    pub program: Program,
    /// Loop-level or statement-level.
    pub granularity: Granularity,
    /// Dimension of the iteration (or unified) vectors.
    pub dim: usize,
    /// The single-copy space (iteration or unified statement space).
    pub space: Space,
    /// The pair space `[src..., dst..., params...]`.
    pub pair_space: Space,
    /// The iteration space `Φ` as a union of convex sets.
    pub phi: UnionSet,
    /// The exact forward dependence relation `Rd` (src ≺ dst).
    pub relation: Relation,
    /// The reference pairs that contributed to `Rd`.
    pub pairs: Vec<RefPair>,
    /// Reference pairs proven dependence-free by the pre-solve screens
    /// (GCD test, bounding-box disjointness, or an unsolvable dependence
    /// equation), for which no relation pieces were built.
    pub n_screened_pairs: usize,
    /// How many convex pieces of `relation` each entry of `pairs`
    /// contributed (screened pairs contribute 0).  This is the piece
    /// *provenance*: `rcp_core::symbolic_plan` uses it to prove every
    /// dependence comes from the single coupled pair before trusting the
    /// recurrence to reproduce the relation's successor structure.
    pub pair_pieces: Vec<usize>,
    /// Per-stage counts of the pair-space screening pass.
    pub screen: ScreenStats,
    /// How analysis points map back to the program (direct spaces, or
    /// the aggregated loop-group view of an imperfect nest).
    pub view: LoopView,
}

impl DependenceAnalysis {
    /// Below this many reference pairs the default [`Self::analyze`] stays
    /// single-threaded: a couple of pairs finish faster inline than the
    /// first worker thread takes to spawn.
    pub const PAR_ANALYSIS_MIN_PAIRS: usize = 4;

    /// Runs the analysis at the requested granularity, sharding the
    /// per-pair work over all available hardware threads when the program
    /// has enough reference pairs to amortise thread spawning (the result
    /// is identical to the single-threaded analysis either way — see
    /// [`Self::analyze_with_threads`]).
    ///
    /// # Panics
    /// Panics when `LoopLevel` is requested for a program that is not a
    /// perfect loop nest.
    pub fn analyze(program: &Program, granularity: Granularity) -> DependenceAnalysis {
        Self::with_options(program, &AnalysisOptions::new(granularity))
    }

    /// Runs the analysis with the per-reference-pair work sharded over
    /// `n_threads` OS threads (1 runs inline on the caller).
    ///
    /// Pairs are distributed dynamically but per-pair piece lists are
    /// reassembled in pair order, so the resulting relation does not depend
    /// on the thread count.
    ///
    /// # Panics
    /// Panics when `LoopLevel` is requested for a program that is not a
    /// perfect loop nest.
    pub fn analyze_with_threads(
        program: &Program,
        granularity: Granularity,
        n_threads: usize,
    ) -> DependenceAnalysis {
        Self::with_options(
            program,
            &AnalysisOptions::new(granularity).with_threads(n_threads),
        )
    }

    /// The fully configurable entry point behind every other constructor.
    ///
    /// # Panics
    /// Panics when `LoopLevel` is requested for a program with no
    /// loop-level view at all: neither a perfect nest nor decomposable
    /// into top-level loop groups (a bare top-level statement).
    pub fn with_options(program: &Program, options: &AnalysisOptions) -> DependenceAnalysis {
        let _span = rcp_trace::span!("depend.analyze");
        let pairs = reference_pairs(program);
        let n_threads = options.threads.unwrap_or_else(|| {
            if pairs.len() >= Self::PAR_ANALYSIS_MIN_PAIRS {
                rcp_pool::available_threads()
            } else {
                1
            }
        });
        rcp_trace::counter("depend.analysis.pairs").add(pairs.len() as u64);
        rcp_trace::gauge("depend.analysis.threads").set(n_threads as u64);
        match options.granularity {
            Granularity::LoopLevel if program.is_perfect_nest() => {
                analyze_loop_level(program, n_threads, pairs, options.screen)
            }
            Granularity::LoopLevel => {
                crate::looplevel::analyze_aggregated(program, n_threads, pairs, options.screen)
            }
            Granularity::StatementLevel => {
                analyze_statement_level(program, n_threads, pairs, options.screen)
            }
        }
    }

    /// True when this analysis runs over the aggregated loop-group view
    /// of an imperfect nest.
    pub fn is_aggregated(&self) -> bool {
        matches!(self.view, LoopView::Groups(_))
    }

    /// Convenience constructor for the common loop-level case.
    pub fn loop_level(program: &Program) -> DependenceAnalysis {
        Self::analyze(program, Granularity::LoopLevel)
    }

    /// Convenience constructor for the statement-level case.
    pub fn statement_level(program: &Program) -> DependenceAnalysis {
        Self::analyze(program, Granularity::StatementLevel)
    }

    /// When the program has exactly one pair of coupled references
    /// `X(I·A + a) = X(I·B + b)` (one write, one read, same array, square
    /// access matrices), returns it — the precondition for recurrence-chain
    /// partitioning of the intermediate set (Algorithm 1's then-branch).
    ///
    /// Only meaningful at loop level, where the access matrices are square
    /// exactly when the array rank equals the nest depth.
    pub fn single_coupled_pair(&self) -> Option<CoupledPair> {
        match coupled_pair_check(&self.program, self.granularity) {
            CoupledPairCheck::Single(pair) => Some(pair),
            _ => None,
        }
    }

    /// The dependence relation with parameters bound to concrete values.
    pub fn bind_params(&self, values: &[i64]) -> (UnionSet, Relation) {
        (
            self.phi.bind_params(values),
            self.relation.bind_params(values),
        )
    }

    /// The first reference pair that contributed relation pieces but is
    /// *not* the same-statement write/read coupled pair — i.e. a
    /// dependence source the recurrence `i = j·T + u` knows nothing
    /// about.  `None` means every piece of `relation` is attributable to
    /// the coupled pair, so the recurrence maps characterise the whole
    /// relation (the precondition for symbolic instantiation of the
    /// chain partition; see `rcp_core::symbolic_plan`).
    pub fn foreign_piece_source(&self) -> Option<&RefPair> {
        let stmts = self.program.statements();
        self.pairs
            .iter()
            .zip(&self.pair_pieces)
            .find_map(|(pair, &n_pieces)| {
                if n_pieces == 0 {
                    return None;
                }
                let r1 = &stmts[pair.src_stmt].stmt.refs[pair.src_ref];
                let r2 = &stmts[pair.dst_stmt].stmt.refs[pair.dst_ref];
                let is_coupled = pair.src_stmt == pair.dst_stmt
                    && pair.src_ref != pair.dst_ref
                    && (r1.is_write() != r2.is_write());
                if is_coupled {
                    None
                } else {
                    Some(pair)
                }
            })
    }
}

/// The iteration space `Φ` of `program`'s analysis space at
/// `granularity`: the unified statement-level space, the loop set of a
/// perfect nest, or the loop-group view of an imperfect nest.  The
/// analysis builds its `Φ` here, so a consumer that needs only `Φ` skips
/// the pair analysis.
pub fn iteration_space(program: &Program, granularity: Granularity) -> UnionSet {
    match granularity {
        Granularity::StatementLevel => program.unified_iteration_space(),
        Granularity::LoopLevel if program.is_perfect_nest() => {
            UnionSet::from_convex(program.loop_iteration_set())
        }
        Granularity::LoopLevel => {
            crate::looplevel::aggregated_phi(program, &program.loop_groups().unwrap_or_default())
        }
    }
}

/// Scans a program for the *single coupled reference pair* of Algorithm
/// 1's then-branch at `granularity`: either the pair, or the *reason* the
/// then-branch precondition fails, which `rcp_core::plan_unavailability`
/// reports instead of a silent `None`.  The branch reads only the
/// statements' references and the view, and the view follows from the two
/// arguments (loop level over an imperfect nest is the aggregated view), so
/// deciding it needs no dependence analysis.  Subscripts must be affine in
/// the loop indices alone: bind the parameters of a program whose
/// subscripts mention them first.
pub fn coupled_pair_check(program: &Program, granularity: Granularity) -> CoupledPairCheck {
    if granularity != Granularity::LoopLevel {
        return CoupledPairCheck::StatementLevel;
    }
    if !program.is_perfect_nest() {
        // The statement-local access matrices live in each statement's
        // own loop space, not the aggregated (group, prefix) point space —
        // a "single coupled pair" found here must not feed the recurrence
        // machinery (its chains would not be the relation's chains; see
        // `rcp_core::try_chain_partition` for the path aggregated views
        // take instead).
        return CoupledPairCheck::AggregatedLoopLevel;
    }
    let stmts = program.statements();
    let mut found: Option<CoupledPair> = None;
    let mut non_square: Option<String> = None;
    let mut n_pairs = 0;
    for info in &stmts {
        let writes: Vec<&rcp_loopir::ArrayRef> = info.stmt.writes().collect();
        let reads: Vec<&rcp_loopir::ArrayRef> = info.stmt.reads().collect();
        for w in &writes {
            for r in &reads {
                if w.array != r.array {
                    continue;
                }
                n_pairs += 1;
                let wa = program.loop_access(info, w);
                let ra = program.loop_access(info, r);
                if wa.matrix.is_square() && ra.matrix.is_square() {
                    found = Some(CoupledPair {
                        write: wa,
                        read: ra,
                    });
                } else {
                    non_square = Some(w.array.clone());
                }
            }
        }
    }
    match n_pairs {
        0 => CoupledPairCheck::NoPair,
        1 => match found {
            Some(pair) if pair.full_rank() => CoupledPairCheck::Single(pair),
            Some(pair) => CoupledPairCheck::RankDeficient {
                array: pair.write.array.clone(),
            },
            None => CoupledPairCheck::NonSquare {
                array: non_square.unwrap_or_default(),
            },
        },
        count => CoupledPairCheck::MultiplePairs { count },
    }
}

pub(crate) fn reference_pairs(program: &Program) -> Vec<RefPair> {
    let stmts = program.statements();
    let mut pairs = Vec::new();
    // Ordered enumeration of (stmt, ref) positions; consider each unordered
    // pair once (including a reference with itself when it is a write).
    let mut all: Vec<(usize, usize, bool, &str)> = Vec::new();
    for info in &stmts {
        for (ri, r) in info.stmt.refs.iter().enumerate() {
            all.push((info.id, ri, r.is_write(), &r.array));
        }
    }
    for x in 0..all.len() {
        for y in x..all.len() {
            let (s1, r1, w1, a1) = all[x];
            let (s2, r2, w2, a2) = all[y];
            if a1 != a2 || !(w1 || w2) {
                continue;
            }
            let info1 = &stmts[s1];
            let info2 = &stmts[s2];
            let ref1 = &info1.stmt.refs[r1];
            let ref2 = &info2.stmt.refs[r2];
            let identical_access = s1 == s2 && ref1.subscripts == ref2.subscripts;
            pairs.push(RefPair {
                src_stmt: s1,
                src_ref: r1,
                dst_stmt: s2,
                dst_ref: r2,
                array: a1.to_string(),
                identical_access,
            });
        }
    }
    pairs
}

pub(crate) fn pair_space_of(space: &Space) -> Space {
    space.product(space)
}

/// Builds the convex pieces of `{(x, y) | acc1(x) = acc2(y), x ∈ set1,
/// y ∈ set2, x ≺ y}` over the pair space.
fn dependence_pieces(
    pair_space: &Space,
    dim: usize,
    acc1: &AccessMap,
    set1: &ConvexSet,
    acc2: &AccessMap,
    set2: &ConvexSet,
) -> Vec<ConvexSet> {
    let total = pair_space.total();
    // Subscript equality constraints.
    let sub1 = acc1.subscript_affines(total, 0);
    let sub2 = acc2.subscript_affines(total, dim);
    let eqs: Vec<Constraint> = sub1
        .iter()
        .zip(&sub2)
        .map(|(l, r)| Constraint::eq_of(l.clone(), r))
        .collect();
    // Membership of both end points.
    let set1_lifted = set1.insert_dims(dim, dim);
    let set2_lifted = set2.insert_dims(0, dim);
    // One piece per lexicographic-order disjunct.
    Relation::lex_lt_pieces(total, dim)
        .into_iter()
        .map(|lex| {
            let mut cs = eqs.clone();
            cs.extend(lex);
            cs.extend(set1_lifted.constraints().iter().cloned());
            cs.extend(set2_lifted.constraints().iter().cloned());
            ConvexSet::from_constraints(pair_space.clone(), cs)
        })
        .filter(|p| !p.is_certainly_empty())
        .collect()
}

/// The dependence equation of a reference pair as a linear diophantine
/// system over the stacked unknown `(x, y)` (`x` the iteration of `acc1`,
/// `y` of `acc2`): one equation per subscript dimension,
/// `Σ_r A[r][d]·x_r − Σ_r B[r][d]·y_r = b_d − a_d`.
pub fn dependence_system(acc1: &AccessMap, acc2: &AccessMap) -> (IMat, IVec) {
    assert_eq!(
        acc1.matrix.cols(),
        acc2.matrix.cols(),
        "array rank mismatch"
    );
    let n1 = acc1.matrix.rows();
    let n2 = acc2.matrix.rows();
    let rank = acc1.matrix.cols();
    let mut m = IMat::zeros(rank, n1 + n2);
    let mut rhs = vec![0i64; rank];
    for d in 0..rank {
        for r in 0..n1 {
            m[(d, r)] = acc1.matrix[(r, d)];
        }
        for r in 0..n2 {
            m[(d, n1 + r)] = -acc2.matrix[(r, d)];
        }
        rhs[d] = acc2.offset[d] - acc1.offset[d];
    }
    (m, rhs)
}

/// True when the dependence equation of the pair has at least one integer
/// solution (ignoring iteration-space bounds).  When it does not, the pair
/// induces no dependence in either direction — `(x, y)` solves one
/// direction iff `(y, x)` solves the other — so the whole pair can be
/// skipped.  Solves go through the memoised solver, so re-analyses and
/// corpus sweeps answer this from the cache.
pub fn pair_may_depend(acc1: &AccessMap, acc2: &AccessMap) -> bool {
    let (m, rhs) = dependence_system(acc1, acc2);
    solve_linear_system_cached(&m, &rhs).is_some()
}

/// Builds the pieces contributed by one reference pair that survived the
/// pair-space screens: both directions of the dependence relation.
#[allow(clippy::too_many_arguments)]
fn pair_relation_pieces(
    pair_space: &Space,
    dim: usize,
    pair: &RefPair,
    acc1: &AccessMap,
    set1: &ConvexSet,
    acc2: &AccessMap,
    set2: &ConvexSet,
) -> Vec<ConvexSet> {
    // Direction 1: the src end is an instance of ref1, the dst of ref2.
    let mut pieces = dependence_pieces(pair_space, dim, acc1, set1, acc2, set2);
    // Direction 2 (skip when the two references are the same one).
    if !(pair.src_stmt == pair.dst_stmt && pair.src_ref == pair.dst_ref) {
        pieces.extend(dependence_pieces(pair_space, dim, acc2, set2, acc1, set1));
    }
    pieces
}

/// Precomputes, per statement, every reference's access map in the
/// analysis space plus its accessed-region bounding box (computed from
/// the statement-local subscripts, so it is granularity-independent).
pub(crate) fn per_statement_accesses(
    program: &Program,
    stmts: &[StatementInfo],
    map: impl Fn(&StatementInfo, &rcp_loopir::ArrayRef) -> AccessMap,
) -> (Vec<Vec<AccessMap>>, Vec<Vec<Vec<Interval>>>) {
    let mut accesses = Vec::with_capacity(stmts.len());
    let mut boxes = Vec::with_capacity(stmts.len());
    for info in stmts {
        let vars = statement_var_intervals(info, program);
        accesses.push(info.stmt.refs.iter().map(|r| map(info, r)).collect());
        boxes.push(
            info.stmt
                .refs
                .iter()
                .map(|r| reference_box(&r.subscripts, &vars))
                .collect(),
        );
    }
    (accesses, boxes)
}

/// Flattens per-pair piece lists in pair order (deterministic regardless of
/// which thread built which pair), counts screened pairs, and records how
/// many pieces each pair contributed (the provenance consumed by
/// [`DependenceAnalysis::foreign_piece_source`]).
pub(crate) fn assemble_pieces(
    per_pair: Vec<Option<Vec<ConvexSet>>>,
) -> (Vec<ConvexSet>, usize, Vec<usize>) {
    let mut pieces = Vec::new();
    let mut n_screened = 0;
    let mut pair_pieces = Vec::with_capacity(per_pair.len());
    for entry in per_pair {
        match entry {
            Some(p) => {
                pair_pieces.push(p.len());
                pieces.extend(p);
            }
            None => {
                pair_pieces.push(0);
                n_screened += 1;
            }
        }
    }
    (pieces, n_screened, pair_pieces)
}

/// The result of the screen-only pass behind the degradation ladder's
/// middle rung: per-pair conservative verdicts with **no** exact relation
/// construction (no Fourier–Motzkin, no lexicographic pieces).  Pairs the
/// cheap screens cannot prove independent are reported as may-depend —
/// weaker than the exact analysis, never wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScreenSummary {
    /// Reference pairs the screen ran over.
    pub n_pairs: usize,
    /// Pairs proved independent by the screens (GCD, bounding box, or the
    /// memoised exact diophantine solve).
    pub independent_pairs: usize,
    /// Pairs conservatively treated as may-depend.
    pub may_depend_pairs: usize,
    /// Per-stage statistics of the screening pass.
    pub screen: ScreenStats,
}

/// Runs only the pair-space screening pass over `program`'s unified
/// statement space — the fallback analysis the session uses when the exact
/// analysis exhausts its budget.  Costs one screen sweep (interval
/// arithmetic, gcds, memoised solves); never builds dependence relations.
pub fn screen_summary(program: &Program, config: ScreenConfig) -> ScreenSummary {
    let pairs = reference_pairs(program);
    let stmts = program.statements();
    let (accesses, boxes) =
        per_statement_accesses(program, &stmts, |info, r| program.unified_access(info, r));
    let screen = PairScreen::run(config, &pairs, &accesses, &boxes);
    let independent_pairs = (0..pairs.len())
        .filter(|&k| !screen.verdict(k).may_depend())
        .count();
    ScreenSummary {
        n_pairs: pairs.len(),
        independent_pairs,
        may_depend_pairs: pairs.len() - independent_pairs,
        screen: screen.stats(),
    }
}

fn analyze_loop_level(
    program: &Program,
    n_threads: usize,
    pairs: Vec<RefPair>,
    screen_config: ScreenConfig,
) -> DependenceAnalysis {
    assert!(
        program.is_perfect_nest(),
        "loop-level dependence analysis requires a perfect loop nest"
    );
    let space = program.loop_space();
    let dim = space.dim();
    let pair_space = pair_space_of(&space);
    let phi_convex = program.loop_iteration_set();
    let phi = iteration_space(program, Granularity::LoopLevel);
    let stmts = program.statements();
    let (accesses, boxes) =
        per_statement_accesses(program, &stmts, |info, r| program.loop_access(info, r));
    let screen = PairScreen::run(screen_config, &pairs, &accesses, &boxes);

    let _pairs_span = rcp_trace::span!("depend.pairs");
    let per_pair = rcp_pool::par_map_indexed(n_threads, &pairs, |k, pair| {
        if !screen.verdict(k).may_depend() {
            return None;
        }
        rcp_guard::tick(rcp_guard::Stage::Analysis, 1);
        rcp_guard::fail_point("depend::pair-analysis", rcp_guard::Stage::Analysis);
        let acc1 = &accesses[pair.src_stmt][pair.src_ref];
        let acc2 = &accesses[pair.dst_stmt][pair.dst_ref];
        Some(pair_relation_pieces(
            &pair_space,
            dim,
            pair,
            acc1,
            &phi_convex,
            acc2,
            &phi_convex,
        ))
    });
    let (pieces, n_screened_pairs, pair_pieces) = assemble_pieces(per_pair);
    let relation = Relation::new(dim, dim, UnionSet::from_pieces(pair_space.clone(), pieces));
    DependenceAnalysis {
        program: program.clone(),
        granularity: Granularity::LoopLevel,
        dim,
        space,
        pair_space,
        phi,
        relation,
        pairs,
        n_screened_pairs,
        pair_pieces,
        screen: screen.stats(),
        view: LoopView::Direct,
    }
}

fn analyze_statement_level(
    program: &Program,
    n_threads: usize,
    pairs: Vec<RefPair>,
    screen_config: ScreenConfig,
) -> DependenceAnalysis {
    let space = program.unified_space();
    let dim = space.dim();
    let pair_space = pair_space_of(&space);
    let phi = iteration_space(program, Granularity::StatementLevel);
    let stmts = program.statements();
    let (accesses, boxes) =
        per_statement_accesses(program, &stmts, |info, r| program.unified_access(info, r));
    let sets: Vec<ConvexSet> = stmts
        .iter()
        .map(|info| program.statement_instance_set(info))
        .collect();
    let screen = PairScreen::run(screen_config, &pairs, &accesses, &boxes);

    let _pairs_span = rcp_trace::span!("depend.pairs");
    let per_pair = rcp_pool::par_map_indexed(n_threads, &pairs, |k, pair| {
        if !screen.verdict(k).may_depend() {
            return None;
        }
        rcp_guard::tick(rcp_guard::Stage::Analysis, 1);
        rcp_guard::fail_point("depend::pair-analysis", rcp_guard::Stage::Analysis);
        let acc1 = &accesses[pair.src_stmt][pair.src_ref];
        let acc2 = &accesses[pair.dst_stmt][pair.dst_ref];
        Some(pair_relation_pieces(
            &pair_space,
            dim,
            pair,
            acc1,
            &sets[pair.src_stmt],
            acc2,
            &sets[pair.dst_stmt],
        ))
    });
    let (pieces, n_screened_pairs, pair_pieces) = assemble_pieces(per_pair);
    let relation = Relation::new(dim, dim, UnionSet::from_pieces(pair_space.clone(), pieces));
    DependenceAnalysis {
        program: program.clone(),
        granularity: Granularity::StatementLevel,
        dim,
        space,
        pair_space,
        phi,
        relation,
        pairs,
        n_screened_pairs,
        pair_pieces,
        screen: screen.stats(),
        view: LoopView::Direct,
    }
}

/// True when a loop index variable occurs in more than one subscript
/// dimension of the access — the "coupled subscripts" of the paper's
/// introduction, the typical source of non-uniform dependence distances.
pub fn is_coupled_access(matrix: &IMat) -> bool {
    (0..matrix.rows()).any(|r| (0..matrix.cols()).filter(|&c| matrix[(r, c)] != 0).count() >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;
    use rcp_presburger::DenseRelation;

    fn example1() -> Program {
        Program::new(
            "example1",
            &["N1", "N2"],
            vec![loop_(
                "I1",
                c(1),
                v("N1"),
                vec![loop_(
                    "I2",
                    c(1),
                    v("N2"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write(
                                "a",
                                vec![v("I1") * 3 + c(1), v("I1") * 2 + v("I2") - c(1)],
                            ),
                            ArrayRef::read("a", vec![v("I1") + c(3), v("I2") + c(1)]),
                        ],
                    )],
                )],
            )],
        )
    }

    fn figure2() -> Program {
        Program::new(
            "figure2",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(20),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![c(21) - v("I")]),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn example1_direct_dependences_match_figure1() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        assert_eq!(analysis.dim, 2);
        // the write/write (output) pair and the write/read (flow/anti) pair
        assert_eq!(analysis.pairs.len(), 2);
        let (_, rel) = analysis.bind_params(&[10, 10]);
        let dense = DenseRelation::from_relation(&rel);
        // Figure 1: arrows with distance (2,2) from i1=2 (8 of them),
        // (4,4) from i1=3 (6), (6,6) from i1=4 (4): 18 loop-carried
        // dependences in total.
        assert_eq!(dense.len(), 18);
        assert!(dense.contains(&[2, 2], &[4, 4]));
        assert!(dense.contains(&[3, 1], &[7, 5]));
        assert!(dense.contains(&[4, 4], &[10, 10]));
        assert!(!dense.contains(&[1, 1], &[3, 3])); // the non-uniformity example
                                                    // every pair is lexicographically forward
        for (src, dst) in dense.iter() {
            assert!(
                src < dst,
                "dependence {:?} -> {:?} must be forward",
                src,
                dst
            );
        }
        // distances are the multiples of (2,2) announced in the figure
        for (src, dst) in dense.iter() {
            let d = (dst[0] - src[0], dst[1] - src[1]);
            assert!(
                matches!(d, (2, 2) | (4, 4) | (6, 6)),
                "unexpected distance {:?}",
                d
            );
        }
    }

    #[test]
    fn figure2_dependences() {
        let analysis = DependenceAnalysis::loop_level(&figure2());
        let (_, rel) = analysis.bind_params(&[]);
        let dense = DenseRelation::from_relation(&rel);
        // 2i = 21 - j with i, j in [1,20], i != j; solutions with j >= 1:
        // i in 1..=10 gives j odd in 1..19; exclude i == j (i=7, j=7).
        // Forward orientation only.
        for (src, dst) in dense.iter() {
            assert!(src < dst);
            assert!(
                2 * src[0] + dst[0] == 21 || 2 * dst[0] + src[0] == 21,
                "pair {:?}->{:?} does not satisfy the dependence equation",
                src,
                dst
            );
        }
        // The chain of the paper: 6 -> 9, 3 -> 9, 3 -> 15 are all present.
        assert!(dense.contains(&[6], &[9]));
        assert!(dense.contains(&[3], &[9]));
        assert!(dense.contains(&[3], &[15]));
        // 7 -> 7 (self) must not appear.
        assert!(!dense.contains(&[7], &[7]));
    }

    #[test]
    fn single_coupled_pair_detection() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let pair = analysis
            .single_coupled_pair()
            .expect("example 1 has one coupled pair");
        assert!(pair.full_rank());
        assert_eq!(pair.write.matrix.det(), 3);
        assert_eq!(pair.read.matrix.det(), 1);
        // figure 2: 1-D loop, matrices are 1x1 and full rank
        let analysis = DependenceAnalysis::loop_level(&figure2());
        let pair = analysis
            .single_coupled_pair()
            .expect("figure 2 has one coupled pair");
        assert_eq!(pair.write.matrix.det(), 2);
        assert_eq!(pair.read.matrix.det(), -1);
    }

    #[test]
    fn coupled_access_classifier() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let pair = analysis.single_coupled_pair().unwrap();
        // write a(3*I1+1, 2*I1+I2-1): I1 appears in both dimensions.
        assert!(is_coupled_access(&pair.write.matrix));
        // read a(I1+3, I2+1): no index appears twice.
        assert!(!is_coupled_access(&pair.read.matrix));
    }

    #[test]
    fn statement_level_analysis_of_imperfect_nest() {
        // Example 3 (Chen et al.)
        let p = Program::new(
            "example3",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("I"),
                    vec![
                        loop_(
                            "K",
                            v("J"),
                            v("I"),
                            vec![stmt(
                                "S1",
                                vec![ArrayRef::read(
                                    "a",
                                    vec![v("I") + v("K") * 2 + c(5), v("K") * 4 - v("J")],
                                )],
                            )],
                        ),
                        stmt(
                            "S2",
                            vec![ArrayRef::write("a", vec![v("I") - v("J"), v("I") + v("J")])],
                        ),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::statement_level(&p);
        assert_eq!(analysis.dim, 7);
        // Pairs: (S1.read, S2.write) and (S2.write, S2.write).
        assert_eq!(analysis.pairs.len(), 2);
        let (phi, rel) = analysis.bind_params(&[30]);
        let dense = DenseRelation::from_relation(&rel);
        // Every dependence end point is a valid statement instance.
        let dense_phi = rcp_presburger::DenseSet::from_union(&phi);
        for (src, dst) in dense.iter() {
            assert!(src < dst);
            assert!(dense_phi.contains(src), "src {:?} outside phi", src);
            assert!(dense_phi.contains(dst), "dst {:?} outside phi", dst);
        }
        // The write a(I-J, I+J) and read a(I+2K+5, 4K-J) do intersect for
        // some instances at N = 30 (e.g. the paper generates a non-empty P3
        // for N >= 30), so the relation must not be empty.
        assert!(!dense.is_empty(), "example 3 has dependences at N=30");
    }

    #[test]
    fn sharded_analysis_is_identical_to_single_threaded() {
        for (program, granularity) in [
            (example1(), Granularity::LoopLevel),
            (figure2(), Granularity::LoopLevel),
            (example1(), Granularity::StatementLevel),
        ] {
            let reference = DependenceAnalysis::analyze_with_threads(&program, granularity, 1);
            for threads in [2, 3, 4] {
                let sharded =
                    DependenceAnalysis::analyze_with_threads(&program, granularity, threads);
                assert_eq!(
                    format!("{:?}", reference.relation),
                    format!("{:?}", sharded.relation),
                    "{} at {granularity:?} with {threads} threads must match",
                    program.name
                );
                assert_eq!(reference.pairs, sharded.pairs);
                assert_eq!(reference.n_screened_pairs, sharded.n_screened_pairs);
            }
        }
    }

    #[test]
    fn diophantine_screen_skips_parity_independent_pairs() {
        // a(2I) = a(2I + 1): even vs odd elements never meet; the write/read
        // pair is screened, the write/write and read/read pairs are not.
        let p = Program::new(
            "parity",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![v("I") * 2 + c(1)]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        assert_eq!(analysis.n_screened_pairs, 1, "write/read pair screened");
        let (_, rel) = analysis.bind_params(&[10]);
        assert!(DenseRelation::from_relation(&rel).is_empty());
        // The screen must never fire for a pair with real dependences.
        let analysis = DependenceAnalysis::loop_level(&example1());
        assert_eq!(analysis.n_screened_pairs, 0);
    }

    #[test]
    fn bounding_box_screen_fires_without_changing_the_relation() {
        use crate::pairspace::ScreenConfig;
        // a(I) = a(I + 100) over I in 1..=10: writes touch [1,10], reads
        // [101,110] — disjoint boxes, but the dependence equation has
        // integer solutions, so only the box screen can prove independence.
        let p = Program::new(
            "separated",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(10),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("a", vec![v("I") + c(100)]),
                    ],
                )],
            )],
        );
        let screened = DependenceAnalysis::loop_level(&p);
        assert_eq!(screened.screen.by_bbox, 1, "write/read pair box-screened");
        let exact = DependenceAnalysis::with_options(
            &p,
            &AnalysisOptions::new(Granularity::LoopLevel).with_screen(ScreenConfig::exact_only()),
        );
        assert_eq!(exact.screen.by_bbox, 0);
        // Bit-identical relations: the box-screened pair's pieces were all
        // rationally infeasible, so the exact path dropped them too.
        assert_eq!(
            format!("{:?}", screened.relation),
            format!("{:?}", exact.relation)
        );
        assert_eq!(screened.pairs, exact.pairs);
    }

    #[test]
    fn gcd_screen_subsumed_by_the_solver_stage() {
        use crate::pairspace::ScreenConfig;
        // The parity loop: the GCD screen answers without a solver call,
        // and the exact-only path screens the same pair via the solver.
        let p = Program::new(
            "parity",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![v("I") * 2 + c(1)]),
                    ],
                )],
            )],
        );
        let full = DependenceAnalysis::loop_level(&p);
        assert_eq!(full.screen.by_gcd, 1);
        assert_eq!(full.n_screened_pairs, 1);
        let exact = DependenceAnalysis::with_options(
            &p,
            &AnalysisOptions::new(Granularity::LoopLevel).with_screen(ScreenConfig::exact_only()),
        );
        assert_eq!(exact.screen.by_gcd, 0);
        assert_eq!(exact.screen.by_solver, 1);
        assert_eq!(exact.n_screened_pairs, 1);
        assert_eq!(
            format!("{:?}", full.relation),
            format!("{:?}", exact.relation)
        );
    }

    #[test]
    fn chain_classes_share_solver_verdicts() {
        // Two statements with identical access shapes: their write/read
        // pairs share a dependence system, so the class memo answers the
        // second pair without a second solve.
        let p = Program::new(
            "classes",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![
                    stmt(
                        "S1",
                        vec![
                            ArrayRef::write("a", vec![v("I") * 2]),
                            ArrayRef::read("a", vec![v("I") * 2 + c(1)]),
                        ],
                    ),
                    stmt(
                        "S2",
                        vec![
                            ArrayRef::write("b", vec![v("I") * 2]),
                            ArrayRef::read("b", vec![v("I") * 2 + c(1)]),
                        ],
                    ),
                ],
            )],
        );
        let analysis = DependenceAnalysis::statement_level(&p);
        assert!(
            analysis.screen.shared_verdicts > 0,
            "identical systems must share one verdict: {:?}",
            analysis.screen
        );
        assert!(analysis.screen.n_classes < analysis.screen.n_pairs);
        assert!(analysis.screen.n_shape_buckets >= 2);
    }

    #[test]
    fn dependence_system_matches_the_paper_equation() {
        // Example 1 (eq. 3) as built by dependence_system must equal the
        // hand-written system of the diophantine tests.
        let p = example1();
        let stmts = p.statements();
        let info = &stmts[0];
        let w = p.loop_access(info, &info.stmt.refs[0]);
        let r = p.loop_access(info, &info.stmt.refs[1]);
        let (m, rhs) = dependence_system(&w, &r);
        assert_eq!(
            m,
            rcp_intlin::IMat::from_rows(&[vec![3, 0, -1, 0], vec![2, 1, 0, -1]])
        );
        assert_eq!(rhs, vec![2, 2]);
        assert!(pair_may_depend(&w, &r));
    }

    #[test]
    fn no_dependence_for_disjoint_arrays() {
        let p = Program::new(
            "disjoint",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("x", vec![v("I")]),
                        ArrayRef::read("y", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        assert!(analysis
            .pairs
            .iter()
            .all(|p| p.identical_access || p.array == "x" || p.array == "y"));
        let (_, rel) = analysis.bind_params(&[10]);
        assert!(DenseRelation::from_relation(&rel).is_empty());
    }

    #[test]
    fn uniform_translation_dependences() {
        // a(I+1) = a(I): classic uniform distance-1 dependence.
        let p = Program::new(
            "uniform",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") + c(1)]),
                        ArrayRef::read("a", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let (_, rel) = analysis.bind_params(&[10]);
        let dense = DenseRelation::from_relation(&rel);
        // i writes a(i+1), iteration i+1 reads a(i+1): dependences i -> i+1.
        assert_eq!(dense.len(), 9);
        for (src, dst) in dense.iter() {
            assert_eq!(dst[0] - src[0], 1);
        }
    }
}
