//! Seeded property test of the compiled scanner behind
//! `ConvexSet::enumerate` and `UnionSet::enumerate`.
//!
//! Every generated set is bounded by a box, so the brute-force oracle is
//! the box scanned in lexicographic order and filtered by `contains_full`.
//! The generator mixes inequalities, equalities with non-unit
//! coefficients (whose projections leave congruences) and `Mod`
//! constraints over 0 to 4 dimensions; infeasible systems come up on
//! their own, and both they and dimension 0 are also forced once each.

use rcp_presburger::{Affine, Constraint, ConvexSet, Space, UnionSet};

/// SplitMix64: a small, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// A box `lo[i] <= x_i <= hi[i]`.
fn box_constraints(lo: &[i64], hi: &[i64]) -> Vec<Constraint> {
    let dim = lo.len();
    let mut cs = Vec::new();
    for i in 0..dim {
        cs.push(Constraint::geq(Affine::var(dim, i).offset(-lo[i])));
        cs.push(Constraint::geq(Affine::var(dim, i).neg().offset(hi[i])));
    }
    cs
}

fn random_constraint(rng: &mut Rng, dim: usize) -> Constraint {
    let coeffs: Vec<i64> = (0..dim).map(|_| rng.range(-3, 3)).collect();
    let expr = Affine::new(coeffs, rng.range(-6, 6));
    match rng.range(0, 3) {
        0 | 1 => Constraint::geq(expr),
        2 => Constraint::eq(expr),
        _ => Constraint::congruent(expr, rng.range(2, 4)),
    }
}

/// A random bounded convex set and the box that bounds it.
fn random_set(rng: &mut Rng, dim: usize) -> (ConvexSet, Vec<i64>, Vec<i64>) {
    let lo: Vec<i64> = (0..dim).map(|_| rng.range(-3, 1)).collect();
    let hi: Vec<i64> = lo.iter().map(|&l| l + rng.range(0, 4)).collect();
    let mut cs = box_constraints(&lo, &hi);
    for _ in 0..rng.range(0, 3) {
        cs.push(random_constraint(rng, dim));
    }
    let space = Space::new(dim);
    (ConvexSet::from_constraints(space, cs), lo, hi)
}

/// Every point of the box in lexicographic order.
fn box_points(lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
    let mut points = vec![vec![]];
    for (&l, &h) in lo.iter().zip(hi) {
        points = points
            .into_iter()
            .flat_map(|p| {
                (l..=h).map(move |v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    points
}

fn brute_force(set: &ConvexSet, lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
    box_points(lo, hi)
        .into_iter()
        .filter(|p| set.contains_full(p))
        .collect()
}

#[test]
fn convex_sets_enumerate_exactly_the_filtered_box() {
    let mut rng = Rng(0x5ca1_ab1e);
    let (mut empty, mut with_mod, mut with_eq) = (0, 0, 0);
    for case in 0..2500 {
        let dim = case % 5;
        let (set, lo, hi) = random_set(&mut rng, dim);
        let want = brute_force(&set, &lo, &hi);
        let got = set.enumerate();
        assert_eq!(got.dim(), dim);
        assert_eq!(got.to_vec(), want, "case {case}: {set:?}");
        empty += usize::from(want.is_empty());
        let kinds = set.constraints().iter().map(|c| format!("{c:?}"));
        with_mod += usize::from(kinds.clone().any(|c| c.contains("mod")));
        with_eq += usize::from(kinds.clone().any(|c| c.contains(" = 0")));
    }
    // The generator must actually reach the cases it claims to cover.
    assert!(empty > 50, "only {empty} infeasible sets");
    assert!(with_mod > 50, "only {with_mod} sets with congruences");
    assert!(with_eq > 50, "only {with_eq} sets with equalities");
}

#[test]
fn non_unit_equalities_leave_strided_projections() {
    // 2x + 3y = 12 inside [-6, 6]^2: the prefix for x carries x ≡ 0 (mod 3).
    let space = Space::new(2);
    let mut cs = box_constraints(&[-6, -6], &[6, 6]);
    cs.push(Constraint::eq(Affine::new(vec![2, 3], -12)));
    let set = ConvexSet::from_constraints(space, cs);
    let want = brute_force(&set, &[-6, -6], &[6, 6]);
    assert_eq!(want.len(), 4); // (x, y) = (3t, 4 - 2t), t in -1..=2
    assert_eq!(set.enumerate().to_vec(), want);
}

#[test]
fn infeasible_and_zero_dimensional_sets() {
    let line = Space::new(1);
    let contradiction = ConvexSet::from_constraints(
        line,
        vec![
            Constraint::geq(Affine::new(vec![1], -3)),
            Constraint::geq(Affine::new(vec![-1], 1)),
        ],
    );
    assert!(contradiction.enumerate().is_empty());

    let point = Space::new(0);
    let holds =
        ConvexSet::from_constraints(point.clone(), vec![Constraint::geq(Affine::new(vec![], 1))]);
    let fails = ConvexSet::from_constraints(
        point.clone(),
        vec![Constraint::geq(Affine::new(vec![], -1))],
    );
    assert_eq!(holds.enumerate().to_vec(), vec![Vec::<i64>::new()]);
    assert!(fails.enumerate().is_empty());
    assert_eq!(ConvexSet::universe(point).enumerate().len(), 1);
}

#[test]
fn unions_of_overlapping_pieces_come_back_sorted_and_deduplicated() {
    let mut rng = Rng(0x00de_c0de);
    let mut overlapping = 0;
    for case in 0..500 {
        let dim = 1 + case % 3;
        let mut pieces = Vec::new();
        let mut want: Vec<Vec<i64>> = Vec::new();
        for _ in 0..rng.range(2, 4) {
            let (set, lo, hi) = random_set(&mut rng, dim);
            want.extend(brute_force(&set, &lo, &hi));
            pieces.push(set);
        }
        let total = want.len();
        want.sort();
        want.dedup();
        overlapping += usize::from(want.len() < total);
        let union = UnionSet::from_pieces(Space::new(dim), pieces);
        assert_eq!(union.enumerate().to_vec(), want, "case {case}");
        assert_eq!(union.count(), want.len());
    }
    assert!(overlapping > 50, "only {overlapping} unions overlapped");
}
