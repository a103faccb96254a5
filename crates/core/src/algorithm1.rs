//! Algorithm 1: the recurrence partitioning scheme.
//!
//! Given a dependence analysis, the driver selects between the two branches
//! of the paper's Algorithm 1:
//!
//! * **then-branch** — a single pair of coupled references with full-rank
//!   coefficient matrices: three-set partitioning plus WHILE recurrence
//!   chains in the intermediate set (works even with symbolic loop bounds);
//! * **else-branch** — multiple coupled subscripts but compile-time-known
//!   bounds: successive dataflow partitioning into fully parallel stages.
//!
//! The symbolic plan captures what the compiler can emit without knowing the
//! loop bounds; the concrete partition additionally enumerates the stages /
//! chains once parameters are bound, which is what the runtime executes and
//! what the benchmarks measure.

use crate::chains::{chains_in_intermediate, longest_chain, Chains, NO_CHAIN};
use crate::dataflow::{dataflow_partition, DataflowPartition};
use crate::recurrence::Recurrence;
use crate::three_set::{intermediate, DenseThreeSet, ThreeSetPartition};
use rcp_depend::{coupled_pair_check, CoupledPairCheck, DependenceAnalysis, Granularity};
use rcp_loopir::Program;
use rcp_presburger::{ConvexSet, DenseRelation, DenseSet, Relation, UnionSet};
use std::fmt;
use std::sync::OnceLock;

/// The branch of Algorithm 1 chosen for a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Single coupled pair, full-rank matrices: three sets + WHILE chains.
    RecurrenceChains,
    /// Multiple coupled pairs with known bounds: successive dataflow
    /// partitioning.
    Dataflow,
}

/// Why Algorithm 1 cannot take its recurrence-chain then-branch for a
/// program — the typed replacement for the reason-less `None` that
/// [`symbolic_plan`] used to return.  Consumers (the `rcp partition`
/// report, the session pipeline) surface this instead of silently
/// falling back to dataflow partitioning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanUnavailable {
    /// The analysis ran at statement level (imperfect nest or `--stmt`):
    /// the coupled-pair recurrence is a loop-level construction.
    StatementLevel,
    /// The analysis ran over the aggregated loop-group view of an
    /// imperfect nest, where Lemma 1's recurrence is not defined; the
    /// partitioner attempts validated component chains instead.
    AggregatedLoopLevel,
    /// No statement reads and writes the same array, so there is no
    /// coupled pair; the dependence-free iterations form DOALL stages.
    NoCoupledPair,
    /// The nest has several coupled reference pairs, so no single
    /// recurrence `i = j·T + u` covers all dependences (Algorithm 1's
    /// else-branch condition).
    MultipleCoupledPairs {
        /// Number of same-array write/read pairs found.
        count: usize,
    },
    /// The single pair's access matrices are not square (array rank ≠
    /// nest depth), so no recurrence matrix exists.
    NonSquareAccess {
        /// The array with the non-square access.
        array: String,
    },
    /// The single pair's access matrices are rank deficient, violating
    /// Lemma 1's full-rank precondition for `T = B·A⁻¹`.
    RankDeficientAccess {
        /// The array with the rank-deficient access.
        array: String,
    },
    /// The dependence relation carries pieces from a reference pair other
    /// than the coupled pair (e.g. a second array coupling the
    /// statements), so the recurrence maps do not characterise the whole
    /// relation and a symbolic instantiation could miss dependences.  The
    /// then-branch may still apply per binding through the validated
    /// concrete path.
    ForeignDependenceSource {
        /// The array of the first non-coupled pair that contributed
        /// relation pieces.
        array: String,
    },
    /// At least one symbolic set that instantiation enumerates (`Φ`,
    /// `ran Rd` or `P2`) is flagged as a Fourier–Motzkin
    /// over-approximation: enumerating it could yield extra points, so only
    /// the per-binding concrete path is exact.
    ApproximatePartitionSets,
    /// The program's subscripts mention loop parameters, so no binding-free
    /// symbolic analysis (and hence no symbolic plan) exists; analysis is
    /// deferred until parameters are bound.
    ParametricSubscripts,
    /// Instantiating the symbolic plan at a concrete binding produced a
    /// partition that fails validation (e.g. the WHILE chains do not cover
    /// the intermediate set at this binding); the caller must fall back to
    /// the per-binding concrete path.
    InstantiationInvalid {
        /// The first violated invariant.
        detail: String,
    },
}

impl fmt::Display for PlanUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanUnavailable::StatementLevel => write!(
                f,
                "statement-level analysis: the coupled-pair recurrence is only \
                 defined at loop level"
            ),
            PlanUnavailable::AggregatedLoopLevel => write!(
                f,
                "aggregated loop-level view of an imperfect nest: Lemma 1's \
                 recurrence requires a perfect nest (the partition uses \
                 validated component chains when the structure admits them)"
            ),
            PlanUnavailable::NoCoupledPair => write!(
                f,
                "no coupled reference pair: no statement both reads and writes \
                 the same array"
            ),
            PlanUnavailable::MultipleCoupledPairs { count } => write!(
                f,
                "{count} coupled reference pairs: the recurrence i = j*T + u \
                 requires exactly one"
            ),
            PlanUnavailable::NonSquareAccess { array } => write!(
                f,
                "access matrices of `{array}` are not square (array rank != \
                 nest depth), so no recurrence matrix T exists"
            ),
            PlanUnavailable::RankDeficientAccess { array } => write!(
                f,
                "access matrices of `{array}` are rank deficient, violating \
                 Lemma 1's full-rank precondition"
            ),
            PlanUnavailable::ForeignDependenceSource { array } => write!(
                f,
                "dependences through `{array}` do not come from the coupled \
                 pair, so the recurrence does not characterise the whole \
                 relation (per-binding concrete partitioning still applies)"
            ),
            PlanUnavailable::ApproximatePartitionSets => write!(
                f,
                "a symbolic partition set is a Fourier-Motzkin \
                 over-approximation, so only per-binding concrete \
                 partitioning is exact"
            ),
            PlanUnavailable::ParametricSubscripts => write!(
                f,
                "subscripts mention loop parameters, so analysis (and the \
                 symbolic plan) is deferred until parameters are bound"
            ),
            PlanUnavailable::InstantiationInvalid { detail } => write!(
                f,
                "instantiated plan failed validation at this binding: {detail}"
            ),
        }
    }
}

impl std::error::Error for PlanUnavailable {}

/// The compile-time (symbolic) plan of the then-branch: the primary
/// parametric artifact of the pipeline.  Computed once per program, it
/// holds what a run reads — `Φ`, `ran Rd`, `P2` and the recurrence — and
/// materialises any parameter binding through [`SymbolicPlan::instantiate`]
/// in O(pieces) — no relation re-binding, no pair re-enumeration, no
/// Algorithm-1 re-run.  The symbolic `P1`, `P3` and `W`, which only the
/// listing prints, are built on first use by [`SymbolicPlan::partition`].
#[derive(Clone, Debug)]
pub struct SymbolicPlan {
    /// The recurrence `T`, `u` driving the WHILE chains.
    pub recurrence: Recurrence,
    /// The symbolic iteration space `Φ`, kept so instantiation can
    /// enumerate the space and filter recurrence images without the
    /// originating analysis.
    phi: UnionSet,
    /// The dependence relation `Rd`, from which [`Self::partition`] builds
    /// `P1`, `P3` and `W`.
    relation: Relation,
    /// `ran Rd`, from which instantiation derives `P1` and `P3` (eq. 5).
    ran: UnionSet,
    /// `P2 = ran Rd ∩ dom Rd ∩ Φ`, the intermediate set.
    p2: UnionSet,
    /// The symbolic three-set partition, built on first use.
    partition: OnceLock<ThreeSetPartition>,
    /// Why [`SymbolicPlan::instantiate`] must refuse and the caller fall
    /// back to the validated per-binding concrete path; `None` when the
    /// plan is symbolically instantiable.
    instantiability: Option<PlanUnavailable>,
}

impl SymbolicPlan {
    /// `None` when [`Self::instantiate`] can materialise any binding
    /// exactly; otherwise the precise reason instantiation must defer to
    /// the per-binding concrete path.
    pub fn instantiability(&self) -> Option<&PlanUnavailable> {
        self.instantiability.as_ref()
    }

    /// True when [`Self::instantiate`] can materialise bindings.
    pub fn is_instantiable(&self) -> bool {
        self.instantiability.is_none()
    }

    /// The symbolic three-set partition (`P1`, `P2`, `P3`, `W`) that the
    /// paper's generated code prints, built from `Rd` and `ran Rd` on the
    /// first call.  Instantiation never reads it.
    pub fn partition(&self) -> &ThreeSetPartition {
        self.partition.get_or_init(|| {
            let _span = rcp_trace::span!("core.listing_sets");
            ThreeSetPartition::from_range(&self.phi, &self.relation, &self.ran)
        })
    }

    /// Binds the plan at a concrete parameter binding in O(pieces): `Φ`,
    /// `ran Rd` and `P2` get their parameters substituted piece by piece —
    /// no relation re-binding, no pair re-enumeration, no Algorithm-1
    /// re-run, and crucially no point enumeration at all.  The returned
    /// [`PlanInstance`] answers membership queries
    /// ([`PlanInstance::phase_of`]) in O(pieces) and materialises the full
    /// dense partition on demand ([`PlanInstance::materialise`]).
    ///
    /// # Errors
    /// The stored [`Self::instantiability`] reason when the plan is gated
    /// and the caller must take the per-binding concrete path.
    pub fn instance(&self, values: &[i64]) -> Result<PlanInstance, PlanUnavailable> {
        if let Some(reason) = &self.instantiability {
            return Err(reason.clone());
        }
        Ok(PlanInstance {
            phi: self.phi.bind_params(values),
            // Piece by piece: `ran Rd` is only enumerated and tested for
            // membership, and an empty piece scans to nothing, so it skips
            // the feasibility check with which `UnionSet::bind_params`
            // drops empty pieces.
            ran: self
                .ran
                .pieces()
                .iter()
                .map(|p| p.bind_params(values))
                .collect(),
            p2: self.p2.bind_params(values),
            recurrence: self.recurrence.clone(),
        })
    }

    /// Materialises the plan at a concrete parameter binding: the
    /// O(pieces) [`Self::instance`] bind followed by
    /// [`PlanInstance::materialise`], which enumerates the partition sets
    /// (output-sized work) and walks the WHILE chains directly along the
    /// recurrence maps — the dependence relation is never re-bound and the
    /// pair space never re-enumerated.
    ///
    /// The result is bit-identical to
    /// [`concrete_partition_from_dense`] at the same binding whenever this
    /// returns `Ok` (the equivalence suite in `tests/` proves it point for
    /// point): under the single-coupled-pair provenance gate the dense
    /// relation's successor structure *is* the recurrence's
    /// `{apply, apply_inverse}` image filtered to `Φ` and forward lex
    /// order, so the symbolic walk reproduces the legacy chains exactly.
    ///
    /// # Errors
    /// The stored [`Self::instantiability`] reason when the plan is gated,
    /// or [`PlanUnavailable::InstantiationInvalid`] when the instantiated
    /// partition fails validation at this particular binding (the caller
    /// falls back to the concrete path, which itself falls back to
    /// dataflow stages — exactly what the legacy pipeline does).
    pub fn instantiate(&self, values: &[i64]) -> Result<ConcretePartition, PlanUnavailable> {
        let _span = rcp_trace::span!("core.instantiate");
        self.instance(values)?.materialise()
    }
}

/// Which of the paper's three partition sets an iteration falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionPhase {
    /// `P1`: independent and initial iterations (first parallel phase).
    Initial,
    /// `P2`: intermediate iterations, executed along their WHILE chain.
    Intermediate,
    /// `P3`: final iterations (last parallel phase).
    Final,
}

/// A symbolic plan bound at one parameter binding — the O(pieces)
/// instantiation artifact.  Holds the bound (but not enumerated) `Φ`,
/// `ran Rd` and `P2`, and the recurrence, so per-binding queries cost
/// piece evaluations rather than point enumerations; the dense
/// [`ConcretePartition`] is pay-as-you-go via [`Self::materialise`].
#[derive(Clone, Debug)]
pub struct PlanInstance {
    /// The bound iteration space `Φ`.
    phi: UnionSet,
    /// The pieces of the bound `ran Rd`.
    ran: Vec<ConvexSet>,
    /// The bound intermediate set `P2`.
    p2: UnionSet,
    /// The recurrence `T`, `u` (binding-independent).
    recurrence: Recurrence,
}

impl PlanInstance {
    /// Classifies one iteration into its partition phase in O(pieces):
    /// piece-membership tests against the bound `Φ`, `ran Rd` and `P2`,
    /// no enumeration.  By eq. 5 a point of `Φ` outside `ran Rd` is in
    /// `P1`, and one inside it is in `P2` or else `P3`.  Returns `None`
    /// for points outside `Φ`.
    pub fn phase_of(&self, x: &[i64]) -> Option<PartitionPhase> {
        if !self.phi.contains(x, &[]) {
            None
        } else if !self.ran.iter().any(|piece| piece.contains(x, &[])) {
            Some(PartitionPhase::Initial)
        } else if self.p2.contains(x, &[]) {
            Some(PartitionPhase::Intermediate)
        } else {
            Some(PartitionPhase::Final)
        }
    }

    /// The integral images `apply(x)` and `apply_inverse(x)`: the
    /// iteration whose write `x` reads and the iteration that reads `x`'s
    /// write.  Under the provenance gate, `x`'s neighbours in `Rd` are the
    /// images inside `Φ`, its predecessors the lexicographically earlier
    /// ones and its successors the later ones.
    fn images(&self, x: &[i64]) -> impl Iterator<Item = rcp_intlin::IVec> {
        [self.recurrence.apply(x), self.recurrence.apply_inverse(x)]
            .into_iter()
            .flatten()
    }

    /// The dependence successors of `x`: its lexicographically forward
    /// [`Self::images`] inside `Φ`.
    fn successors(&self, x: &[i64]) -> Vec<rcp_intlin::IVec> {
        let mut out: Vec<rcp_intlin::IVec> = Vec::with_capacity(2);
        for cand in self.images(x) {
            if cand.as_slice() > x && self.phi.contains(&cand, &[]) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }

    /// Enumerates the bound partition sets and walks the WHILE chains
    /// along the recurrence maps, producing the dense
    /// [`ConcretePartition`] — output-sized work on top of the O(pieces)
    /// bind.
    ///
    /// # Errors
    /// [`PlanUnavailable::InstantiationInvalid`] when the chains fail
    /// validation at this binding.
    pub fn materialise(&self) -> Result<ConcretePartition, PlanUnavailable> {
        // The sets of eq. 5 from the enumerated `Φ`, `ran Rd` and `P2`:
        // `P1 = Φ \ ran Rd` and `P3 = (ran Rd ∩ Φ) \ P2`.  `ran Rd` has
        // fewer pieces than `P1` and `P3`, which the subtractions that
        // define them fragment, and each piece costs a compiled scan.
        let phi = DenseSet::from_union(&self.phi);
        let ran = DenseSet::union_all(self.ran.iter().map(ConvexSet::enumerate).collect())
            .unwrap_or_else(|| DenseSet::new(phi.dim()));
        let p2 = DenseSet::from_union(&self.p2);
        let p1 = phi.subtract(&ran);
        let p3 = phi.intersect(&ran).subtract(&p2);
        // `W = {j ∈ P2 | (i → j) ∈ Rd, i ∈ P1}`, read off the recurrence:
        // a predecessor of `j` is one of its images that lies
        // lexicographically before it, and `P1 ⊆ Φ`.
        let w = p2.subset((0..p2.len()).filter(|&id| {
            let x = p2.point(id);
            self.images(x)
                .any(|pred| pred.as_slice() < x && p1.contains(&pred))
        }));

        // The WHILE chain walk of `chains_in_intermediate`, with the dense
        // relation's successor lookup replaced by the recurrence maps.
        // Same guard stage and failpoint site as the legacy walk, so
        // budgets and chaos campaigns see one partitioning pipeline.
        rcp_guard::tick(rcp_guard::Stage::ChainEnumeration, w.len() as u64 + 1);
        rcp_guard::fail_point("core::chains", rcp_guard::Stage::ChainEnumeration);
        let mut chains = Chains::default();
        for start in w.iter() {
            let mut current = start.to_vec();
            while let Some(id) = p2.index_of(&current) {
                chains.push(id);
                let mut succs = self.successors(&current);
                match succs.pop() {
                    Some(next) if succs.is_empty() => current = next,
                    _ => break,
                }
            }
            chains.close();
        }

        // Validation without the dense relation: the chain invariants the
        // concrete path checks, with dependence edges read off the
        // recurrence (exact under the provenance gate).  Failing either
        // here means the legacy path would have rejected the chain
        // candidate too.  Set disjointness, coverage of `Φ`, and `W ⊆ P2`
        // are *not* re-checked densely: the exactness gate
        // (`ApproximatePartitionSets`) guarantees the bound pieces are the
        // true sets, and the construction (`P1 = Φ \ ran`, `P2 ⊆ ran`,
        // `P3 = (ran ∩ Φ) \ P2`, `W ⊆ P2`) makes those invariants hold by
        // algebra, not by enumeration.
        if let Some(detail) = self.validate_instance(&p2, &chains) {
            return Err(PlanUnavailable::InstantiationInvalid { detail });
        }
        let three_set = DenseThreeSet { p1, p2, p3, w };
        Ok(ConcretePartition::RecurrenceChains { three_set, chains })
    }

    /// The materialise-time validation behind
    /// [`SymbolicPlan::instantiate`]: the chains exactly covering `P2`,
    /// and no recurrence edge crossing two chains.  Returns the first
    /// violated invariant.
    fn validate_instance(&self, p2: &DenseSet, chains: &Chains) -> Option<String> {
        if let Some(problem) = crate::chains::validate_chain_cover(chains, p2).pop() {
            return Some(problem);
        }
        // The chains cover P2 exactly once.  The walk followed each
        // iteration's only successor to the next iteration of its chain, so
        // an edge can leave a chain only from its last iteration, and then
        // every successor inside P2 lies on another chain (chains rise
        // lexicographically, and successors are lexicographically forward).
        // Every chain starts in W, whose points have a predecessor, so no
        // chain point of a materialised instance has two successors: this
        // check guards the walk rather than rejecting any instance.
        let owner = chains.owners(p2.len());
        for (k, &last) in chains.iter().filter_map(<[u32]>::last).enumerate() {
            let last = p2.point(last as usize);
            for succ in self.successors(last) {
                if let Some(id) = p2.index_of(&succ) {
                    return Some(format!(
                        "dependence {last:?} -> {succ:?} crosses chains {k} and {}",
                        owner[id]
                    ));
                }
            }
        }
        None
    }
}

/// A concrete (parameter-bound) partition of the iteration space, ready for
/// scheduling and execution.
#[derive(Clone, Debug)]
pub enum ConcretePartition {
    /// Result of the then-branch: the fully parallel `P1`, the chains
    /// through `P2`, then the fully parallel `P3`.  Each point is stored
    /// once, in `three_set`; a chain lists ids into `three_set.p2`.
    RecurrenceChains {
        /// The dense three-set partition: `P1` (independent + initial
        /// iterations), `P2`, `P3` (final iterations) and `W`.
        three_set: DenseThreeSet,
        /// The WHILE chains covering `P2`; each chain is sequential,
        /// different chains are independent.
        chains: Chains,
    },
    /// Result of the else-branch.
    Dataflow {
        /// Fully parallel stages in execution order.
        stages: DataflowPartition,
    },
}

/// Summary statistics of a concrete partition, used by the speedup model
/// and the experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanStats {
    /// Number of barrier-separated phases.
    pub n_phases: usize,
    /// Length of the critical path in iterations (the sequential lower
    /// bound on parallel execution time, in iteration units).
    pub critical_path: usize,
    /// The widest phase (upper bound on exploitable parallelism).
    pub max_width: usize,
    /// Total number of iterations scheduled.
    pub total_iterations: usize,
}

impl ConcretePartition {
    /// Statistics of the plan.
    pub fn stats(&self) -> PlanStats {
        match self {
            ConcretePartition::RecurrenceChains { three_set, chains } => {
                let (p1, p3) = (&three_set.p1, &three_set.p3);
                let longest = longest_chain(chains);
                let mut n_phases = 0;
                let mut critical = 0;
                if !p1.is_empty() {
                    n_phases += 1;
                    critical += 1;
                }
                if !chains.is_empty() {
                    n_phases += 1;
                    critical += longest;
                }
                if !p3.is_empty() {
                    n_phases += 1;
                    critical += 1;
                }
                PlanStats {
                    n_phases,
                    critical_path: critical,
                    max_width: p1.len().max(p3.len()).max(chains.len()),
                    total_iterations: p1.len() + chains.ids().len() + p3.len(),
                }
            }
            ConcretePartition::Dataflow { stages } => PlanStats {
                n_phases: stages.n_stages(),
                critical_path: stages.n_stages(),
                max_width: stages.max_stage_size(),
                total_iterations: stages.total_iterations(),
            },
        }
    }

    /// The strategy that produced this partition.
    pub fn strategy(&self) -> Strategy {
        match self {
            ConcretePartition::RecurrenceChains { .. } => Strategy::RecurrenceChains,
            ConcretePartition::Dataflow { .. } => Strategy::Dataflow,
        }
    }

    /// Validates that the partition is a correct parallel execution order
    /// for the given concrete iteration space and dependence relation:
    /// every iteration is scheduled exactly once and every dependence is
    /// respected by the phase/chain ordering.  Returns violated invariants.
    pub fn validate(&self, phi: &DenseSet, rd: &DenseRelation) -> Vec<String> {
        match self {
            ConcretePartition::RecurrenceChains { three_set, chains } => {
                let p2 = &three_set.p2;
                let mut problems = three_set.validate(phi, rd);
                problems.extend(crate::chains::validate_chain_cover(chains, p2));
                // Consecutive ids rise and are dependences.
                let point = |id: u32| p2.point(id as usize);
                let step = |w: &[u32]| {
                    w[0] < w[1]
                        && (w[1] as usize) < p2.len()
                        && rd.contains(point(w[0]), point(w[1]))
                };
                for (k, c) in chains.iter().enumerate() {
                    if !c.windows(2).all(step) {
                        problems.push(format!("chain {k} is not monotonic"));
                    }
                }
                // Dependences between different chains are not allowed
                // (Lemma 1 guarantees disjoint chains); the last chain
                // listing a `P2` id owns it.
                let owner = chains.owners(p2.len());
                for (src, dst) in rd.edges_within(p2) {
                    let (a, b) = (owner[src as usize], owner[dst as usize]);
                    if a != b && a != NO_CHAIN && b != NO_CHAIN {
                        problems.push(format!(
                            "dependence {:?} -> {:?} crosses chains {a} and {b}",
                            point(src),
                            point(dst)
                        ));
                    }
                }
                problems
            }
            ConcretePartition::Dataflow { stages } => stages.validate(phi, rd),
        }
    }
}

/// Diagnoses whether Algorithm 1's then-branch applies: `None` when the
/// recurrence-chain plan is available, otherwise the precise reason it is
/// not.  The single source of truth for the branch condition, shared by
/// [`symbolic_plan`], [`concrete_partition_from_dense`] and every consumer
/// that reports the chosen strategy (e.g. `rcp analyze`).
pub fn plan_unavailability(analysis: &DependenceAnalysis) -> Option<PlanUnavailable> {
    plan_unavailability_of(&analysis.program, analysis.granularity)
}

/// [`plan_unavailability`] from the program alone: the branch condition
/// reads only the statements' references and the granularity
/// ([`rcp_depend::coupled_pair_check`]), so choosing the branch needs no
/// dependence analysis.  A program whose subscripts mention parameters
/// must be bound first.
pub fn plan_unavailability_of(
    program: &Program,
    granularity: Granularity,
) -> Option<PlanUnavailable> {
    match coupled_pair_check(program, granularity) {
        CoupledPairCheck::Single(pair) => match Recurrence::from_pair(&pair) {
            Some(_) => None,
            // Unreachable for square full-rank pairs, but kept total.
            None => Some(PlanUnavailable::RankDeficientAccess {
                array: pair.write.array.clone(),
            }),
        },
        CoupledPairCheck::StatementLevel => Some(PlanUnavailable::StatementLevel),
        CoupledPairCheck::AggregatedLoopLevel => Some(PlanUnavailable::AggregatedLoopLevel),
        CoupledPairCheck::NoPair => Some(PlanUnavailable::NoCoupledPair),
        CoupledPairCheck::MultiplePairs { count } => {
            Some(PlanUnavailable::MultipleCoupledPairs { count })
        }
        CoupledPairCheck::NonSquare { array } => Some(PlanUnavailable::NonSquareAccess { array }),
        CoupledPairCheck::RankDeficient { array } => {
            Some(PlanUnavailable::RankDeficientAccess { array })
        }
    }
}

/// Builds the symbolic (compile-time) plan when the then-branch of
/// Algorithm 1 applies, i.e. the program has a single coupled reference
/// pair with full-rank matrices: `ran Rd`, `P2` and the recurrence, which
/// is all an instantiation reads.  On failure the error says exactly which
/// precondition broke, so callers can report *why* the program fell back
/// to dataflow partitioning.
// Panic-hygiene allow: both `expect`s restate what `plan_unavailability`
// just verified — the pair and recurrence exist when it returns `None`.
#[allow(clippy::expect_used)]
pub fn symbolic_plan(analysis: &DependenceAnalysis) -> Result<SymbolicPlan, PlanUnavailable> {
    let _span = rcp_trace::span!("core.plan");
    if let Some(reason) = plan_unavailability(analysis) {
        return Err(reason);
    }
    let pair = analysis
        .single_coupled_pair()
        .expect("plan_unavailability returned None, so the pair exists");
    let recurrence = Recurrence::from_pair(&pair)
        .expect("plan_unavailability returned None, so the recurrence exists");
    let ran = analysis.relation.range();
    let p2 = intermediate(&analysis.phi, &ran, &analysis.relation.domain());
    // Instantiability gates: the symbolic walk in `instantiate` is only
    // bit-identical to the dense pipeline when (a) every relation piece
    // comes from the coupled pair — otherwise the recurrence maps miss
    // dependences (e.g. a second array coupling the statements) — and
    // (b) none of the sets it enumerates is a Fourier–Motzkin
    // over-approximation, since enumerating an over-approximate set can
    // yield points the exact dense path never sees.
    let instantiability = if let Some(foreign) = analysis.foreign_piece_source() {
        Some(PlanUnavailable::ForeignDependenceSource {
            array: foreign.array.clone(),
        })
    } else if analysis.phi.is_approximate() || ran.is_approximate() || p2.is_approximate() {
        Some(PlanUnavailable::ApproximatePartitionSets)
    } else {
        None
    };
    Ok(SymbolicPlan {
        recurrence,
        phi: analysis.phi.clone(),
        relation: analysis.relation.clone(),
        ran,
        p2,
        partition: OnceLock::new(),
        instantiability,
    })
}

/// True when Algorithm 1 takes its then-branch for this analysis: a
/// single coupled reference pair with full-rank matrices whose recurrence
/// `i = j·T + u` exists.
pub fn uses_recurrence_chains(analysis: &DependenceAnalysis) -> bool {
    plan_unavailability(analysis).is_none()
}

/// Runs Algorithm 1 for concrete parameter values, choosing the
/// recurrence-chain branch when possible and falling back to dataflow
/// partitioning otherwise.
pub fn concrete_partition(analysis: &DependenceAnalysis, params: &[i64]) -> ConcretePartition {
    let (phi, rel) = analysis.bind_params(params);
    let phi_d = DenseSet::from_union(&phi);
    let rd = DenseRelation::from_relation(&rel);
    concrete_partition_from_dense(analysis, &phi_d, &rd)
}

/// Same as [`concrete_partition`] but starting from already-enumerated
/// sets (used by the benchmarks to avoid re-enumerating large spaces).
pub fn concrete_partition_from_dense(
    analysis: &DependenceAnalysis,
    phi: &DenseSet,
    rd: &DenseRelation,
) -> ConcretePartition {
    if uses_recurrence_chains(analysis) {
        let three_set = DenseThreeSet::compute(phi, rd);
        let chains = chains_in_intermediate(&three_set, rd);
        let candidate = ConcretePartition::RecurrenceChains { three_set, chains };
        // The coupled pair's recurrence is the *syntactic* then-branch
        // condition; when the program carries dependences the recurrence
        // does not generate (a second array coupling the statements), the
        // chain partition can miss intermediate iterations.  Keep it only
        // when it validates against the full dependence relation, else
        // take the else-branch exactly as for multiple coupled pairs.
        if candidate.validate(phi, rd).is_empty() {
            candidate
        } else {
            ConcretePartition::Dataflow {
                stages: dataflow_partition(phi, rd),
            }
        }
    } else if analysis.is_aggregated() {
        // Aggregated loop-level views of imperfect nests have no symbolic
        // recurrence `i = j·T + u`, but the dependence structure often
        // still admits the paper's chain-shaped partition (three sets +
        // disjoint monotonic chains).  Attempt it and keep it only when
        // it validates; otherwise fall back to dataflow stages, exactly
        // like Algorithm 1's else-branch.
        try_chain_partition(phi, rd).unwrap_or_else(|| ConcretePartition::Dataflow {
            stages: dataflow_partition(phi, rd),
        })
    } else {
        ConcretePartition::Dataflow {
            stages: dataflow_partition(phi, rd),
        }
    }
}

/// Attempts the chain-shaped partition of a dense dependence structure
/// without the single-coupled-pair precondition: three sets plus the
/// connected-component chains covering the intermediate set
/// ([`crate::chains::component_chains`] — tolerant of the transitive
/// edges aggregated relations carry), kept only when fully valid
/// (disjoint monotonic chains, every dependence respected).  Used by the
/// aggregated loop-level views, where Lemma 1's recurrence does not exist
/// but the chain decomposition frequently does.
pub fn try_chain_partition(phi: &DenseSet, rd: &DenseRelation) -> Option<ConcretePartition> {
    let three_set = DenseThreeSet::compute(phi, rd);
    let chains = crate::chains::component_chains(&three_set.p2, rd);
    let candidate = ConcretePartition::RecurrenceChains { three_set, chains };
    if candidate.validate(phi, rd).is_empty() {
        Some(candidate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};

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

    /// Example 2 of the paper (Ju & Chaudhary's loop).
    fn example2() -> Program {
        Program::new(
            "example2",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("N"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") * 2 + c(3), v("J") + c(1)]),
                            ArrayRef::read(
                                "a",
                                vec![v("I") + v("J") * 2 + c(1), v("I") + v("J") + c(3)],
                            ),
                        ],
                    )],
                )],
            )],
        )
    }

    #[test]
    fn example1_uses_recurrence_chains() {
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&example1());
        assert!(symbolic_plan(&analysis).is_ok());
        let part = concrete_partition(&analysis, &[10, 10]);
        assert_eq!(part.strategy(), Strategy::RecurrenceChains);
        let (phi, rel) = analysis.bind_params(&[10, 10]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        assert!(part.validate(&phi_d, &rd).is_empty());
        let stats = part.stats();
        assert_eq!(stats.total_iterations, 100);
        assert!(stats.n_phases <= 3);
        // Theorem 1: the critical path never exceeds the bound.
        let plan = symbolic_plan(&analysis).unwrap();
        let l = (10.0f64 * 10.0 + 10.0 * 10.0).sqrt();
        if let ConcretePartition::RecurrenceChains { chains, .. } = &part {
            let bound = plan.recurrence.critical_path_bound(l).unwrap();
            assert!(longest_chain(chains) <= bound);
        }
    }

    #[test]
    fn example2_intermediate_set_is_single_iteration_at_n12() {
        // Paper, Example 2: "For this N=12 case, there is only a single
        // iteration in the intermediate set, particularly iteration (2, 6)."
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&example2());
        let pair = analysis
            .single_coupled_pair()
            .expect("example 2 has one coupled pair");
        assert_eq!(pair.write.matrix.det(), 2);
        assert_eq!(pair.read.matrix.det().abs(), 1);
        let part = concrete_partition(&analysis, &[12]);
        assert_eq!(part.strategy(), Strategy::RecurrenceChains);
        match &part {
            ConcretePartition::RecurrenceChains {
                three_set, chains, ..
            } => {
                assert_eq!(three_set.p2.to_vec(), vec![vec![2, 6]]);
                assert_eq!(chains.len(), 1);
                assert_eq!(chains.ids(), [0], "the one chain is P2's point (2, 6)");
                // REC obtains 3 fully parallel partitions in sequence.
                assert_eq!(part.stats().n_phases, 3);
            }
            _ => panic!("expected recurrence chains"),
        }
        let (phi, rel) = analysis.bind_params(&[12]);
        assert!(part
            .validate(
                &DenseSet::from_union(&phi),
                &DenseRelation::from_relation(&rel)
            )
            .is_empty());
    }

    #[test]
    fn example2_theorem1_bound_scaling() {
        // Paper: with a = |det T| = 2 the longest critical path has at most
        // ceil(log2(n)) + 0.5 iterations; check the chain lengths stay under
        // the Theorem-1 bound for a couple of sizes.
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&example2());
        let plan = symbolic_plan(&analysis).unwrap();
        assert_eq!(plan.recurrence.alpha(), rcp_intlin::Rational::from_int(2));
        for n in [8i64, 12, 20, 30] {
            let part = concrete_partition(&analysis, &[n]);
            if let ConcretePartition::RecurrenceChains { chains, .. } = &part {
                let l = ((2 * n * n) as f64).sqrt();
                let bound = plan.recurrence.critical_path_bound(l).unwrap();
                assert!(
                    longest_chain(chains) <= bound,
                    "chain length {} exceeds Theorem-1 bound {} at N={}",
                    longest_chain(chains),
                    bound,
                    n
                );
            } else {
                panic!("expected recurrence chains");
            }
        }
    }

    #[test]
    fn multi_pair_program_falls_back_to_dataflow() {
        // Two coupled reference pairs: the then-branch no longer applies.
        let p = Program::new(
            "multi",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("N"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") + v("J"), v("J")]),
                            ArrayRef::read("a", vec![v("I"), v("J")]),
                            ArrayRef::read("a", vec![v("J"), v("I")]),
                        ],
                    )],
                )],
            )],
        );
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&p);
        assert!(analysis.single_coupled_pair().is_none());
        assert_eq!(
            symbolic_plan(&analysis).unwrap_err(),
            PlanUnavailable::MultipleCoupledPairs { count: 2 },
            "the fallback must say why the then-branch is unavailable"
        );
        let part = concrete_partition(&analysis, &[6]);
        assert_eq!(part.strategy(), Strategy::Dataflow);
        let (phi, rel) = analysis.bind_params(&[6]);
        assert!(part
            .validate(
                &DenseSet::from_union(&phi),
                &DenseRelation::from_relation(&rel)
            )
            .is_empty());
        assert_eq!(part.stats().total_iterations, 36);
    }

    #[test]
    fn instantiate_equals_concrete_partition_on_the_examples() {
        for (program, bindings) in [
            (example1(), vec![vec![10i64, 10], vec![12, 8], vec![6, 14]]),
            (example2(), vec![vec![8], vec![12], vec![20], vec![30]]),
        ] {
            let analysis = rcp_depend::DependenceAnalysis::loop_level(&program);
            let plan = symbolic_plan(&analysis).unwrap();
            assert!(
                plan.is_instantiable(),
                "{}: {:?}",
                program.name,
                plan.instantiability()
            );
            for values in &bindings {
                let instantiated = plan.instantiate(values).unwrap();
                let legacy = concrete_partition(&analysis, values);
                assert_eq!(
                    format!("{instantiated:?}"),
                    format!("{legacy:?}"),
                    "{} at {values:?}: instantiate diverges from the concrete path",
                    program.name
                );
            }
        }
    }

    /// `a(I + 1) = a(I)`: one uniform chain through the whole loop.
    fn uniform_chain() -> Program {
        Program::new(
            "uniform-chain",
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
        )
    }

    #[test]
    fn instance_phase_queries_match_the_dense_partition() {
        for (program, bindings) in [
            (example1(), vec![vec![10i64, 10], vec![12, 7]]),
            (example2(), vec![vec![12i64], vec![20]]),
            (uniform_chain(), vec![vec![6i64], vec![11]]),
        ] {
            let analysis = rcp_depend::DependenceAnalysis::loop_level(&program);
            let plan = symbolic_plan(&analysis).unwrap();
            for values in &bindings {
                let instance = plan.instance(values).unwrap();
                // The dense three sets of the concrete path, computed from
                // the enumerated relation rather than from the plan.
                let dense = match concrete_partition(&analysis, values) {
                    ConcretePartition::RecurrenceChains { three_set, .. } => three_set,
                    ConcretePartition::Dataflow { .. } => panic!("{} uses chains", program.name),
                };
                // Every point of a box that reaches past every bound.
                let side = values.iter().max().copied().unwrap_or(0) + 2;
                let points = (0..dense.p1.dim()).fold(vec![Vec::new()], |prefixes, _| {
                    let extend =
                        |p: Vec<i64>| (0..=side).map(move |x| [p.as_slice(), &[x]].concat());
                    prefixes.into_iter().flat_map(extend).collect::<Vec<_>>()
                });
                for p in points {
                    let expected = if dense.p1.contains(&p) {
                        Some(PartitionPhase::Initial)
                    } else if dense.p2.contains(&p) {
                        Some(PartitionPhase::Intermediate)
                    } else if dense.p3.contains(&p) {
                        Some(PartitionPhase::Final)
                    } else {
                        None
                    };
                    assert_eq!(
                        instance.phase_of(&p),
                        expected,
                        "{} at {values:?}: phase of {p:?} diverges from the dense partition",
                        program.name
                    );
                }
            }
        }
    }

    #[test]
    fn foreign_dependences_gate_instantiation() {
        // Two statements coupled through a *second* array: the coupled
        // pair is unique (only `a` is both read and written by one
        // statement), but `b` carries dependences the recurrence knows
        // nothing about — instantiate must refuse rather than miscompile.
        let p = Program::new(
            "foreign",
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
                        ArrayRef::write("b", vec![v("I")]),
                        ArrayRef::read("b", vec![v("I") - c(1)]),
                    ],
                )],
            )],
        );
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&p);
        match symbolic_plan(&analysis) {
            Ok(plan) => {
                assert!(
                    matches!(
                        plan.instantiability(),
                        Some(PlanUnavailable::ForeignDependenceSource { .. })
                    ),
                    "expected the foreign-pieces gate, got {:?}",
                    plan.instantiability()
                );
                assert!(plan.instantiate(&[10]).is_err());
            }
            // Several coupled pairs also (correctly) block the plan.
            Err(PlanUnavailable::MultipleCoupledPairs { .. }) => {}
            Err(other) => panic!("unexpected plan error: {other}"),
        }
    }

    #[test]
    fn independent_loop_is_one_parallel_phase() {
        let p = Program::new(
            "indep",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("b", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[16]);
        let stats = part.stats();
        assert_eq!(stats.total_iterations, 16);
        assert_eq!(stats.critical_path, 1);
        assert_eq!(stats.max_width, 16);
    }

    /// `a[I] = a[-2·I]` for `-4 ≤ I ≤ 8`: the recurrence `x ↦ -2x` gives
    /// `-2` two forward successors, `4` and `1`, and every dependence links
    /// a negative iteration to a positive one, so the true `P2` is empty.
    /// `ran Rd` and `P2` are hand-made instead, so only the instance's own
    /// validation stands between bad sets and a partition.
    fn branching_instance(ran: &[i64], p2: &[i64]) -> PlanInstance {
        use rcp_presburger::{Affine, Constraint};
        let program = Program::new(
            "branch",
            &[],
            vec![loop_(
                "I",
                c(-4),
                c(8),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("a", vec![v("I") * -2]),
                    ],
                )],
            )],
        );
        let analysis = rcp_depend::DependenceAnalysis::loop_level(&program);
        let pair = analysis.single_coupled_pair().expect("one coupled pair");
        let space = &analysis.space;
        let points = |xs: &[i64]| {
            let pieces = xs.iter().map(|&x| {
                let at_x = Constraint::eq(Affine::new(vec![1], -x));
                ConvexSet::from_constraints(space.clone(), vec![at_x])
            });
            UnionSet::from_pieces(space.clone(), pieces.collect())
        };
        PlanInstance {
            phi: analysis.phi.bind_params(&[]),
            ran: points(ran).pieces().to_vec(),
            p2: points(p2),
            recurrence: Recurrence::from_pair(&pair).expect("full-rank pair"),
        }
    }

    #[test]
    fn materialise_rejects_chains_that_miss_p2() {
        // -2 has no earlier image, so no chain starts there, and 1 and 4
        // follow -2; only 6, whose predecessor -3 is initial, starts one.
        match branching_instance(&[-2, 1, 4, 6], &[-2, 1, 4, 6]).materialise() {
            Err(PlanUnavailable::InstantiationInvalid { detail }) => {
                assert_eq!(detail, "chains cover 1 of 4 intermediate iterations");
            }
            other => panic!("expected an invalid instantiation, got {other:?}"),
        }
        // With 1 and 4 intermediate, each follows the initial -2 and
        // starts a chain of its own; 8 is final.
        match branching_instance(&[1, 4, 8], &[1, 4]).materialise() {
            Ok(ConcretePartition::RecurrenceChains { three_set, chains }) => {
                let point = |id: &u32| three_set.p2.point(*id as usize);
                let chains: Vec<Vec<_>> = chains
                    .iter()
                    .map(|c| c.iter().map(point).collect())
                    .collect();
                assert_eq!(chains, [[[1]], [[4]]]);
                assert_eq!(three_set.p3.to_vec(), vec![vec![8]]);
            }
            other => panic!("expected recurrence chains, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_a_dependence_that_crosses_chains() {
        // A walk from W never leaves a point with two successors, so no
        // materialised instance reaches the crossing check: it is tested
        // on hand-made chains.  -2's two successors, 4 and 1, lie on
        // chains of their own.
        let instance = branching_instance(&[-2, 1, 4], &[-2, 1, 4]);
        let p2 = DenseSet::from_points(1, [[-2i64], [1], [4]]);
        let mut chains = Chains::default();
        for id in 0..p2.len() {
            chains.push(id);
            chains.close();
        }
        assert_eq!(
            instance.validate_instance(&p2, &chains),
            Some("dependence [-2] -> [4] crosses chains 0 and 2".to_string())
        );
    }

    #[test]
    fn an_approximate_iteration_space_gates_instantiation() {
        use rcp_presburger::{Affine, Constraint};
        // Give example 1's `Φ` a dimension `x` with `2x − I1 ≥ 0` and
        // `−3x + I1 + 1 ≥ 0`, then project it out: Fourier–Motzkin's real
        // shadow `I1 ≤ 2` admits `I1 = 1`, which has no integer `x`, so the
        // projection is flagged approximate.
        let mut analysis = rcp_depend::DependenceAnalysis::loop_level(&example1());
        let inexact = [
            Constraint::geq(Affine::new(vec![2, -1, 0, 0, 0], 0)),
            Constraint::geq(Affine::new(vec![-3, 1, 0, 0, 0], 1)),
        ];
        let pieces = analysis.phi.pieces().iter().map(|piece| {
            piece
                .insert_dims(0, 1)
                .with_all(inexact.clone())
                .project_out(0, 1)
        });
        analysis.phi = UnionSet::from_pieces(analysis.phi.space().clone(), pieces.collect());
        assert!(analysis.phi.is_approximate());
        let plan = symbolic_plan(&analysis).expect("example 1 takes the then-branch");
        assert_eq!(
            plan.instantiability(),
            Some(&PlanUnavailable::ApproximatePartitionSets)
        );
        assert_eq!(
            plan.instantiate(&[10, 10]).unwrap_err(),
            PlanUnavailable::ApproximatePartitionSets
        );
    }
}
