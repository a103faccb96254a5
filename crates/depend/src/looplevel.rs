//! Loop-level granularity for **imperfect** nests: the aggregated view.
//!
//! The paper's §2 loop-level model has one iteration-space point per
//! iteration of a perfect nest.  Imperfect nests used to force the
//! statement-level unified space (and with it Algorithm 1's
//! `PlanUnavailable::StatementLevel` fallback).  This module extends the
//! loop-level model to imperfect programs through their
//! [`rcp_loopir::LoopGroup`] decomposition:
//!
//! * each top-level loop nest (a *group*) is reduced to its **maximal
//!   perfect prefix** — the chain of singleton loops every statement of
//!   the group sits under;
//! * a point of the aggregated space is `(g, i₁ … i_D)` — the group index
//!   followed by the prefix iteration vector, zero-padded to the deepest
//!   prefix.  Lexicographic order on these points is execution order:
//!   groups run in program order and a prefix iteration runs its whole
//!   body (inner loops included, in program order) before the next;
//! * the dependence relation between points is computed exactly per
//!   reference pair — subscript equality plus both statements' bounds
//!   over their own loop variables, with the non-prefix dimensions
//!   projected out by Fourier–Motzkin elimination (an over-approximation
//!   when elimination is inexact, which is the conservative direction for
//!   dependences), intersected with strict lexicographic order so
//!   intra-point dependences (honoured by the sequential body execution)
//!   are dropped.
//!
//! The resulting [`DependenceAnalysis`] carries
//! [`LoopView::Groups`](crate::analysis::LoopView), which the scheduler
//! uses to expand each point into its body instances and the partitioner
//! uses to attempt a chain-shaped (three-set + disjoint chains) partition
//! before falling back to dataflow stages.

use crate::analysis::{
    assemble_pieces, pair_space_of, per_statement_accesses, DependenceAnalysis, Granularity,
    LoopView, RefPair,
};
use crate::pairspace::{PairScreen, ScreenConfig};
use rcp_loopir::{LinExpr, LoopGroup, Program, StatementInfo};
use rcp_presburger::{Affine, Constraint, ConvexSet, Relation, Space, UnionSet};

/// The aggregated point space: `(g, p1 … pD)` plus the program parameters.
fn aggregated_space(program: &Program, max_depth: usize) -> Space {
    let mut names = vec!["g".to_string()];
    names.extend((1..=max_depth).map(|k| format!("p{k}")));
    let dims: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let params: Vec<&str> = program.params.iter().map(|s| s.as_str()).collect();
    Space::with_names(&dims, &params)
}

/// Resolves a bound expression of prefix loop `k` over the aggregated
/// space: prefix loop `j` occupies dimension `1 + j`, parameters follow
/// the set dimensions.
fn prefix_affine(
    e: &LinExpr,
    prefix_names: &[&str],
    params: &[String],
    total: usize,
    dim: usize,
) -> Affine {
    let mut names: Vec<&str> = prefix_names.to_vec();
    names.extend(params.iter().map(|s| s.as_str()));
    let (coeffs, k) = e.resolve(&names);
    let mut full = vec![0i64; total];
    for (j, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if j < prefix_names.len() {
            full[1 + j] = c;
        } else {
            full[dim + (j - prefix_names.len())] = c;
        }
    }
    Affine::new(full, k)
}

/// The set of aggregation points of one group: `g` pinned, padding zero,
/// prefix bounds applied.
fn group_point_set(
    space: &Space,
    program: &Program,
    group: &LoopGroup,
    max_depth: usize,
) -> ConvexSet {
    let total = space.total();
    let dim = space.dim();
    let mut constraints = vec![Constraint::eq(
        Affine::var(total, 0).offset(-(group.group as i64)),
    )];
    for k in group.depth() + 1..=max_depth {
        constraints.push(Constraint::eq(Affine::var(total, k)));
    }
    let prefix_names: Vec<&str> = group.indices.iter().map(|s| s.as_str()).collect();
    for (k, (lowers, uppers)) in group.bounds.iter().enumerate() {
        let var = Affine::var(total, 1 + k);
        for lo in lowers {
            constraints.push(Constraint::geq(var.sub(&prefix_affine(
                lo,
                &prefix_names,
                &program.params,
                total,
                dim,
            ))));
        }
        for up in uppers {
            constraints.push(Constraint::geq(
                prefix_affine(up, &prefix_names, &program.params, total, dim).sub(&var),
            ));
        }
    }
    ConvexSet::from_constraints(space.clone(), constraints)
}

/// The aggregated iteration space `Φ`: one piece per loop group, the
/// group's prefix iterations with `g` pinned and the padding zero.
pub(crate) fn aggregated_phi(program: &Program, groups: &[LoopGroup]) -> UnionSet {
    let max_depth = groups.iter().map(|g| g.depth()).max().unwrap_or(1);
    let space = aggregated_space(program, max_depth);
    let pieces = groups
        .iter()
        .map(|g| group_point_set(&space, program, g, max_depth))
        .collect();
    UnionSet::from_pieces(space, pieces)
}

/// The relation pieces of one ordered direction of a reference pair:
/// instance-level constraints over both statements' own loop variables,
/// inner dimensions projected out, embedded into the pair-point space and
/// split by the strict lexicographic disjuncts.
#[allow(clippy::too_many_arguments)]
fn aggregated_direction_pieces(
    pair_space: &Space,
    max_depth: usize,
    info1: &StatementInfo,
    acc1: &rcp_loopir::AccessMap,
    local1: &ConvexSet,
    g1: usize,
    d1: usize,
    info2: &StatementInfo,
    acc2: &rcp_loopir::AccessMap,
    local2: &ConvexSet,
    g2: usize,
    d2: usize,
) -> Vec<ConvexSet> {
    let depth1 = info1.depth();
    let depth2 = info2.depth();
    let joint = local1.space().product(local2.space());
    let joint_total = joint.total();
    // Subscript equality between the two instance ends.
    let sub1 = acc1.subscript_affines(joint_total, 0);
    let sub2 = acc2.subscript_affines(joint_total, depth1);
    let mut constraints: Vec<Constraint> = sub1
        .iter()
        .zip(&sub2)
        .map(|(l, r)| Constraint::eq_of(l.clone(), r))
        .collect();
    // Membership of both instance ends.
    constraints.extend(
        local1
            .insert_dims(depth1, depth2)
            .constraints()
            .iter()
            .cloned(),
    );
    constraints.extend(local2.insert_dims(0, depth1).constraints().iter().cloned());
    let instance_pairs = ConvexSet::from_constraints(joint, constraints);
    if instance_pairs.is_certainly_empty() {
        return Vec::new();
    }
    // Project out the non-prefix dimensions (back to front so indices
    // stay valid), leaving (src prefix, dst prefix).
    let projected = instance_pairs
        .project_out(depth1 + d2, depth2 - d2)
        .project_out(d1, depth1 - d1);
    if projected.is_certainly_empty() {
        return Vec::new();
    }
    // Embed into the pair-point space: group dims, padding, then the lex
    // disjuncts.
    let embedded = projected
        .insert_dims(0, 1)
        .insert_dims(1 + d1, max_depth - d1)
        .insert_dims(1 + max_depth, 1)
        .insert_dims(1 + max_depth + 1 + d2, max_depth - d2);
    let total = pair_space.total();
    let point_dim = 1 + max_depth;
    let mut pins = vec![
        Constraint::eq(Affine::var(total, 0).offset(-(g1 as i64))),
        Constraint::eq(Affine::var(total, point_dim).offset(-(g2 as i64))),
    ];
    for k in d1 + 1..=max_depth {
        pins.push(Constraint::eq(Affine::var(total, k)));
    }
    for k in d2 + 1..=max_depth {
        pins.push(Constraint::eq(Affine::var(total, point_dim + k)));
    }
    Relation::lex_lt_pieces(total, point_dim)
        .into_iter()
        .map(|lex| {
            let mut cs = embedded.constraints().to_vec();
            cs.extend(pins.iter().cloned());
            cs.extend(lex);
            ConvexSet::from_constraints(pair_space.clone(), cs)
        })
        .filter(|p| !p.is_certainly_empty())
        .collect()
}

/// Runs the aggregated loop-level analysis of an imperfect program.
///
/// # Panics
/// Panics when the program has no loop-group decomposition (a bare
/// top-level statement).
// Panic-hygiene allow: the granularity chooser only selects loop-level
// analysis for programs with a group decomposition; documented invariant.
#[allow(clippy::expect_used)]
pub(crate) fn analyze_aggregated(
    program: &Program,
    n_threads: usize,
    pairs: Vec<RefPair>,
    screen_config: ScreenConfig,
) -> DependenceAnalysis {
    let groups = program.loop_groups().expect(
        "aggregated loop-level analysis requires every top-level node to be a loop \
         (use statement-level granularity otherwise)",
    );
    let stmts = program.statements();
    let mut stmt_group = vec![0usize; stmts.len()];
    for (k, g) in groups.iter().enumerate() {
        for &s in &g.statements {
            stmt_group[s] = k;
        }
    }
    let max_depth = groups.iter().map(|g| g.depth()).max().unwrap_or(1);
    let phi = aggregated_phi(program, &groups);
    let space = phi.space().clone();
    let dim = space.dim();
    let pair_space = pair_space_of(&space);

    let (accesses, boxes) =
        per_statement_accesses(program, &stmts, |info, r| program.loop_access(info, r));
    let local_sets: Vec<ConvexSet> = stmts
        .iter()
        .map(|info| program.statement_local_set(info))
        .collect();
    let screen = PairScreen::run(screen_config, &pairs, &accesses, &boxes);

    let _pairs_span = rcp_trace::span!("depend.pairs");
    let per_pair = rcp_pool::par_map_indexed(n_threads, &pairs, |k, pair| {
        if !screen.verdict(k).may_depend() {
            return None;
        }
        rcp_guard::tick(rcp_guard::Stage::Analysis, 1);
        rcp_guard::fail_point("depend::pair-analysis", rcp_guard::Stage::Analysis);
        let (s1, r1, s2, r2) = (pair.src_stmt, pair.src_ref, pair.dst_stmt, pair.dst_ref);
        let (g1, g2) = (stmt_group[s1], stmt_group[s2]);
        let (d1, d2) = (groups[g1].depth(), groups[g2].depth());
        let mut pieces = aggregated_direction_pieces(
            &pair_space,
            max_depth,
            &stmts[s1],
            &accesses[s1][r1],
            &local_sets[s1],
            groups[g1].group,
            d1,
            &stmts[s2],
            &accesses[s2][r2],
            &local_sets[s2],
            groups[g2].group,
            d2,
        );
        if !(s1 == s2 && r1 == r2) {
            pieces.extend(aggregated_direction_pieces(
                &pair_space,
                max_depth,
                &stmts[s2],
                &accesses[s2][r2],
                &local_sets[s2],
                groups[g2].group,
                d2,
                &stmts[s1],
                &accesses[s1][r1],
                &local_sets[s1],
                groups[g1].group,
                d1,
            ));
        }
        Some(pieces)
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
        view: LoopView::Groups(groups),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;
    use rcp_presburger::{DenseRelation, DenseSet};

    /// jacobi1d-shaped nest: outer time loop, two inner sweeps.
    fn jacobi() -> Program {
        Program::new(
            "jacobi",
            &["T", "N"],
            vec![loop_(
                "t",
                c(1),
                v("T"),
                vec![
                    loop_(
                        "i",
                        c(2),
                        v("N") - c(1),
                        vec![stmt(
                            "S1",
                            vec![
                                ArrayRef::write("b", vec![v("i")]),
                                ArrayRef::read("a", vec![v("i") - c(1)]),
                                ArrayRef::read("a", vec![v("i")]),
                                ArrayRef::read("a", vec![v("i") + c(1)]),
                            ],
                        )],
                    ),
                    loop_(
                        "i",
                        c(2),
                        v("N") - c(1),
                        vec![stmt(
                            "S2",
                            vec![
                                ArrayRef::write("a", vec![v("i")]),
                                ArrayRef::read("b", vec![v("i")]),
                            ],
                        )],
                    ),
                ],
            )],
        )
    }

    /// mvt-shaped program: two top-level perfect nests.
    fn mvt() -> Program {
        let nest = |sname: &str, x: &str, y: &str, transposed: bool| {
            let a_sub = if transposed {
                vec![v("J"), v("I")]
            } else {
                vec![v("I"), v("J")]
            };
            loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("N"),
                    vec![stmt(
                        sname,
                        vec![
                            ArrayRef::write(x, vec![v("I")]),
                            ArrayRef::read(x, vec![v("I")]),
                            ArrayRef::read("a", a_sub),
                            ArrayRef::read(y, vec![v("J")]),
                        ],
                    )],
                )],
            )
        };
        Program::new(
            "mvt",
            &["N"],
            vec![nest("S1", "x1", "y1", false), nest("S2", "x2", "y2", true)],
        )
    }

    #[test]
    fn jacobi_aggregates_to_the_outer_time_loop() {
        let p = jacobi();
        assert!(!p.is_perfect_nest());
        let analysis = DependenceAnalysis::loop_level(&p);
        assert!(matches!(analysis.view, LoopView::Groups(_)));
        // One group, prefix depth 1: points (0, t).
        assert_eq!(analysis.dim, 2);
        let (phi, rel) = analysis.bind_params(&[4, 8]);
        let phi = DenseSet::from_union(&phi);
        assert_eq!(phi.len(), 4, "one point per time step");
        let rd = DenseRelation::from_relation(&rel);
        // The time loop carries all dependences: t -> t' for t < t'
        // (b written and read within t is intra-point and dropped; a
        // written at t is read at every later t).
        assert!(!rd.is_empty());
        for (src, dst) in rd.iter() {
            assert_eq!(src[0], 0, "single group");
            assert!(src < dst, "aggregated dependences are forward");
        }
        assert!(rd.iter().any(|(s, d)| d[1] - s[1] == 1));
    }

    #[test]
    fn mvt_nests_are_independent_points() {
        let p = mvt();
        let analysis = DependenceAnalysis::loop_level(&p);
        assert_eq!(analysis.dim, 3, "(g, I, J)");
        let (phi, rel) = analysis.bind_params(&[4]);
        let phi = DenseSet::from_union(&phi);
        assert_eq!(phi.len(), 2 * 16, "two 4x4 nests");
        let rd = DenseRelation::from_relation(&rel);
        // x1/x2 accumulations: (g, I, J) -> (g, I, J') with J < J';
        // no cross-group dependences (distinct arrays; `a` is read-only).
        for (src, dst) in rd.iter() {
            assert_eq!(src[0], dst[0], "no cross-nest dependence in mvt");
            assert_eq!(src[1], dst[1], "x(I) chains stay within a row");
            assert!(src[2] < dst[2]);
        }
        assert!(!rd.is_empty());
    }

    #[test]
    fn aggregated_endpoints_lie_in_phi() {
        for (p, params) in [(jacobi(), vec![3i64, 7]), (mvt(), vec![3])] {
            let analysis = DependenceAnalysis::loop_level(&p);
            let (phi, rel) = analysis.bind_params(&params);
            let phi = DenseSet::from_union(&phi);
            let rd = DenseRelation::from_relation(&rel);
            for (src, dst) in rd.iter() {
                assert!(phi.contains(src), "{}: src {src:?} outside phi", p.name);
                assert!(phi.contains(dst), "{}: dst {dst:?} outside phi", p.name);
            }
        }
    }
}
