//! The UNIQUE baseline: unique-set oriented partitioning
//! (Ju & Chaudhary, The Computer Journal 1997).
//!
//! Unique-set partitioning splits the iteration space by the *roles*
//! iterations play with respect to the flow and anti dependence hulls of
//! the single coupled reference pair: head (source) sets, tail (sink) sets
//! and their intersections — up to five "unique sets" executed in sequence,
//! each as a DOALL nest, except that a set containing internal dependences
//! stays sequential (the paper notes the third of the five sets is
//! sequential for Example 2).
//!
//! The implementation partitions the concrete iteration space by role
//! signature (source/sink of flow/anti dependences), orders the resulting
//! classes topologically, and schedules every class as a DOALL phase unless
//! it has internal dependences, in which case the class is executed as a
//! sequential chain — preserving exactly the structural property the paper
//! compares against: more, smaller phases than the recurrence-chain
//! partitioning (5 vs 3 on Example 2), with one sequential set.

use rcp_codegen::{PhaseKind, PointExpander, Schedule};
use rcp_depend::DependenceAnalysis;
use rcp_loopir::AccessKind;
use rcp_presburger::{DenseRelation, DenseSet};
use std::collections::BTreeMap;

/// Role signature of an iteration with respect to flow and anti
/// dependences.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
struct Role {
    flow_source: bool,
    flow_sink: bool,
    anti_source: bool,
    anti_sink: bool,
}

/// Builds the unique-set schedule of a loop with a single coupled pair.
///
/// Returns `None` when the role-class graph is cyclic — dependences point
/// both ways between two role classes, so no sequential order of unique
/// sets exists and the published scheme does not apply (differential
/// fuzzing surfaced such nests; they previously tripped an internal
/// assertion).
pub fn unique_sets_schedule(
    analysis: &DependenceAnalysis,
    phi: &DenseSet,
    rd: &DenseRelation,
    name: &str,
) -> Option<Schedule> {
    // Split the dependence pairs into flow (write before read) and anti
    // (read before write) according to the reference kinds.
    let stmts = analysis.program.statements();
    let info = &stmts[0];
    let write_access = info
        .stmt
        .refs
        .iter()
        .find(|r| r.kind == AccessKind::Write)
        .map(|r| analysis.program.loop_access(info, r));
    // Roles and classes are kept per point id of `phi`; `rd` lies inside
    // `phi`, so every dependence is an edge between two ids.
    let pairs = rd.edges_within(phi);
    let mut roles = vec![Role::default(); phi.len()];
    for &(s, d) in &pairs {
        let (s, d) = (s as usize, d as usize);
        let (src, dst) = (phi.point(s), phi.point(d));
        // The dependence is a flow dependence when the source's write maps to
        // the same element as the sink's read; with a single pair the source
        // of a forward dependence acts as writer iff its write address equals
        // the sink's read address (otherwise the roles are reversed: anti).
        let is_flow = write_access
            .as_ref()
            .map(|w| {
                let src_write = w.apply(src);
                // sink reads the same element it would have read via B
                let read_access = info
                    .stmt
                    .refs
                    .iter()
                    .find(|r| r.kind == AccessKind::Read)
                    .map(|r| analysis.program.loop_access(info, r));
                read_access
                    .map(|r| r.apply(dst) == src_write)
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if is_flow {
            roles[s].flow_source = true;
            roles[d].flow_sink = true;
        } else {
            roles[s].anti_source = true;
            roles[d].anti_sink = true;
        }
    }
    // Group iterations by role signature; iterations with no role form the
    // "independent" class scheduled first.
    let mut classes: BTreeMap<Role, Vec<usize>> = BTreeMap::new();
    for (p, role) in roles.iter().enumerate() {
        classes.entry(*role).or_default().push(p);
    }
    // Topological ordering of the classes: a class must run after another if
    // any dependence points from the other into it.
    let class_ids: Vec<Role> = classes.keys().copied().collect();
    let mut class_of = vec![0usize; phi.len()];
    for (k, ids) in classes.values().enumerate() {
        for &p in ids {
            class_of[p] = k;
        }
    }
    let n = class_ids.len();
    let mut edges = vec![vec![false; n]; n];
    let mut internal = vec![false; n];
    for &(src, dst) in &pairs {
        let a = class_of[src as usize];
        let b = class_of[dst as usize];
        if a == b {
            internal[a] = true;
        } else {
            edges[a][b] = true;
        }
    }
    // Kahn order over the class graph, lexicographic minimum first when
    // several classes are ready.  Rd being forward does not make the class
    // graph acyclic: two classes can each contain sources of dependences
    // into the other.
    let mut indeg = vec![0usize; n];
    for row in &edges {
        for (b, &edge) in row.iter().enumerate() {
            if edge {
                indeg[b] += 1;
            }
        }
    }
    let mut order = Vec::new();
    let mut ready: Vec<usize> = (0..n).filter(|&k| indeg[k] == 0).collect();
    while let Some(&k) = ready.first() {
        ready.remove(0);
        order.push(k);
        for b in 0..n {
            if edges[k][b] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    ready.push(b);
                }
            }
        }
        ready.sort();
    }
    if order.len() != n {
        return None;
    }

    let expander = PointExpander::new(analysis, &[]);
    let mut builder = expander.builder(name);
    expander.reserve(&mut builder, phi.len());
    for k in order {
        if internal[k] {
            // sequential unique set
            builder.phase(PhaseKind::ChainSet);
            builder.chain();
        } else {
            builder.phase(PhaseKind::Doall);
        }
        // Each class lists its ids in increasing (lexicographic) order.
        for &p in &classes[&class_ids[k]] {
            expander.item(phi.point(p), &mut builder);
        }
    }
    Some(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_workloads::example2;

    #[test]
    fn example2_unique_sets_structure() {
        // The paper (related work + §4): unique-set partitioning of Example 2
        // yields 5 sets in sequence, more phases than REC's 3, and REC
        // therefore exposes more parallelism.
        let program = example2();
        let analysis = DependenceAnalysis::loop_level(&program);
        let (phi, rel) = analysis.bind_params(&[12]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let schedule = unique_sets_schedule(&analysis, &phi_d, &rd, "unique-ex2")
            .expect("example 2's class graph is acyclic");
        assert!(schedule.validate_coverage(&program, &[12]).is_empty());
        assert!(
            schedule.n_phases() >= 4,
            "unique sets should produce more phases than REC (got {})",
            schedule.n_phases()
        );
        assert_eq!(schedule.n_items(), 144);
        // dependences never point backwards across the phase sequence
        let mut phase_of: BTreeMap<&[i64], usize> = BTreeMap::new();
        for (k, phase) in schedule.phases().enumerate() {
            for (_, idx) in schedule.instances_in(phase.instance_range()) {
                phase_of.insert(idx, k);
            }
        }
        for (src, dst) in rd.iter() {
            assert!(
                phase_of[src] <= phase_of[dst],
                "dependence crosses phases backwards"
            );
        }
    }

    #[test]
    fn independent_loop_is_a_single_doall() {
        use rcp_loopir::expr::{c, v};
        use rcp_loopir::program::build::{loop_, stmt};
        use rcp_loopir::{ArrayRef, Program};
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
        let analysis = DependenceAnalysis::loop_level(&p);
        let (phi, rel) = analysis.bind_params(&[9]);
        let schedule = unique_sets_schedule(
            &analysis,
            &DenseSet::from_union(&phi),
            &DenseRelation::from_relation(&rel),
            "unique-indep",
        )
        .expect("independent loop has no class cycle");
        assert_eq!(schedule.n_phases(), 1);
        assert_eq!(schedule.phase(0).kind(), PhaseKind::Doall);
    }
}
