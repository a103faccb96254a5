//! The dense (enumeration) engine: exact point-wise sets and relations.
//!
//! Once symbolic parameters are bound to concrete values, every set and
//! relation in this problem domain is finite.  The dense engine represents
//! them as explicit point collections, which makes the partitioning
//! operations trivially exact.  It serves three purposes:
//!
//! 1. cross-validation of the symbolic engine in tests,
//! 2. the driver for the successive dataflow partitioning of Algorithm 1's
//!    else-branch (Example 4 / Cholesky), where the paper itself iterates
//!    until the concrete iteration space is exhausted, and
//! 3. the execution substrate: schedules run over enumerated iterations.
//!
//! # Layout
//!
//! Both types store their points as **flat sorted rows**: one `Vec<i64>`
//! holding every point back to back, in strictly increasing lexicographic
//! order.  A point's index in that order is its *id*; consumers that walk
//! a graph over the points (Algorithm 1's dataflow levels, the three-set
//! phases, chain components) work on ids and never hash a point.
//!
//! * [`DenseSet`] is the rows of one point set.  Membership is a binary
//!   search; union, intersection and difference are merges.
//! * [`DenseRelation`] stores its pairs as rows `[input..., output...]`
//!   sorted by `(input, output)`, so the successors of a point are one
//!   contiguous run (a CSR layout by source).  One `u32` permutation lists
//!   the pairs in `(output, input)` order for predecessor queries and
//!   `ran R`.  Membership is a binary search with no allocation.
//!
//! The rows come straight from the compiled scanner of
//! [`crate::ConvexSet::enumerate`], which emits them in order.

use crate::relation::Relation;
use crate::union::UnionSet;
use rcp_intlin::IVec;
use std::cmp::Ordering;
use std::fmt;

/// Points of one width stored back to back.  The count is kept separately
/// so that width 0 (the single empty point) has one.  Width and count are
/// `u32`, like the point ids handed out by [`DenseRelation::edges_within`].
#[derive(Clone, PartialEq, Eq, Default)]
pub(crate) struct Rows {
    w: u32,
    n: u32,
    data: Vec<i64>,
}

/// A width or count as `u32`.
///
/// # Panics
/// Panics above `u32::MAX`: point ids are `u32`.
fn small(n: usize) -> u32 {
    assert!(
        n <= u32::MAX as usize,
        "dense sets hold at most u32::MAX points"
    );
    n as u32
}

impl Rows {
    pub(crate) fn new(width: usize) -> Rows {
        Rows {
            w: small(width),
            n: 0,
            data: Vec::new(),
        }
    }

    /// Rows already flattened: `len` rows of `width` values each.
    pub(crate) fn from_flat(width: usize, len: usize, data: Vec<i64>) -> Rows {
        debug_assert_eq!(data.len(), width * len);
        Rows {
            w: small(width),
            n: small(len),
            data,
        }
    }

    fn width(&self) -> usize {
        self.w as usize
    }

    fn len(&self) -> usize {
        self.n as usize
    }

    fn row(&self, k: usize) -> &[i64] {
        &self.data[k * self.width()..(k + 1) * self.width()]
    }

    fn push(&mut self, row: &[i64]) {
        self.data.extend_from_slice(row);
        self.n = small(self.len() + 1);
    }

    /// Pushes `row` unless it equals the last row (deduplicates sorted
    /// input).
    fn push_new(&mut self, row: &[i64]) {
        if self.n == 0 || self.row(self.len() - 1) != row {
            self.push(row);
        }
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[i64]> + '_ {
        (0..self.len()).map(move |k| self.row(k))
    }

    fn is_strictly_sorted(&self) -> bool {
        (1..self.len()).all(|k| self.row(k - 1) < self.row(k))
    }

    /// Sorts the rows lexicographically and drops duplicates.
    pub(crate) fn sort_dedup(&mut self) {
        if self.is_strictly_sorted() {
            return;
        }
        let mut order: Vec<u32> = (0..self.n).collect();
        order.sort_unstable_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
        let mut out = Rows::new(self.width());
        out.data.reserve(self.data.len());
        for k in order {
            out.push_new(self.row(k as usize));
        }
        *self = out;
    }

    /// The index of the first row for which `before` is false, given that
    /// `before` holds for a prefix of the rows (the row analogue of
    /// `slice::partition_point`).
    fn partition_point(&self, before: impl Fn(&[i64]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn find(&self, p: &[i64]) -> Option<usize> {
        let k = self.partition_point(|r| r < p);
        (k < self.len() && self.row(k) == p).then_some(k)
    }
}

/// A finite set of integer points of a fixed dimension, stored as flat
/// rows in lexicographic order (see the module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct DenseSet {
    rows: Rows,
}

impl DenseSet {
    /// The empty set of the given dimension.
    pub fn new(dim: usize) -> Self {
        DenseSet {
            rows: Rows::new(dim),
        }
    }

    /// Builds a set from explicit points (any order, duplicates allowed).
    ///
    /// # Panics
    /// Panics when a point has the wrong dimension.
    pub fn from_points<P: AsRef<[i64]>>(dim: usize, points: impl IntoIterator<Item = P>) -> Self {
        let mut rows = Rows::new(dim);
        for p in points {
            let p = p.as_ref();
            assert_eq!(p.len(), dim, "point dimension mismatch");
            rows.push(p);
        }
        rows.sort_dedup();
        DenseSet { rows }
    }

    /// Wraps rows that are already strictly increasing.
    pub(crate) fn from_sorted_rows(rows: Rows) -> Self {
        debug_assert!(rows.is_strictly_sorted());
        DenseSet { rows }
    }

    /// Enumerates a symbolic union set (parameters already bound); the
    /// same as [`UnionSet::enumerate`].
    pub fn from_union(set: &UnionSet) -> Self {
        set.enumerate()
    }

    /// The dimension of the points.
    pub fn dim(&self) -> usize {
        self.rows.width()
    }

    /// Membership test (binary search).
    pub fn contains(&self, p: &[i64]) -> bool {
        self.index_of(p).is_some()
    }

    /// The id of a point: its index in lexicographic order.
    pub fn index_of(&self, p: &[i64]) -> Option<usize> {
        if p.len() != self.dim() {
            return None;
        }
        self.rows.find(p)
    }

    /// The point with the given id.
    ///
    /// # Panics
    /// Panics when `id >= self.len()`.
    pub fn point(&self, id: usize) -> &[i64] {
        self.rows.row(id)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the set has no points.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// Iterates the points in lexicographic (id) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[i64]> + '_ {
        self.rows.iter()
    }

    /// The points in lexicographic order.
    pub fn to_vec(&self) -> Vec<IVec> {
        self.iter().map(<[i64]>::to_vec).collect()
    }

    /// The points with the given ids, which must be strictly increasing.
    pub fn subset(&self, ids: impl IntoIterator<Item = usize>) -> DenseSet {
        let mut rows = Rows::new(self.dim());
        for id in ids {
            rows.push(self.rows.row(id));
        }
        DenseSet::from_sorted_rows(rows)
    }

    /// For every point of `self`, whether it lies in `other` (one merge).
    pub fn mask_in(&self, other: &DenseSet) -> Vec<bool> {
        let mut mask = vec![false; self.len()];
        self.merge(other, |a, b| {
            if let (Some(a), Some(_)) = (a, b) {
                mask[a] = true;
            }
        });
        mask
    }

    /// Walks both sets in order, calling `visit` with the ids of each
    /// distinct point in `self`, `other` or both.
    fn merge(&self, other: &DenseSet, mut visit: impl FnMut(Option<usize>, Option<usize>)) {
        assert_eq!(self.dim(), other.dim(), "point dimension mismatch");
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            let order = if i == self.len() {
                Ordering::Greater
            } else if j == other.len() {
                Ordering::Less
            } else {
                self.rows.row(i).cmp(other.rows.row(j))
            };
            match order {
                Ordering::Less => {
                    visit(Some(i), None);
                    i += 1;
                }
                Ordering::Greater => {
                    visit(None, Some(j));
                    j += 1;
                }
                Ordering::Equal => {
                    visit(Some(i), Some(j));
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// The points selected by `keep(in self, in other)`, in order, into a
    /// buffer reserved for `capacity` values.
    fn combine(
        &self,
        other: &DenseSet,
        capacity: usize,
        keep: impl Fn(bool, bool) -> bool,
    ) -> DenseSet {
        let mut data = Vec::with_capacity(capacity);
        let mut len = 0;
        self.merge(other, |a, b| {
            if keep(a.is_some(), b.is_some()) {
                let row = match (a, b) {
                    (Some(a), _) => self.rows.row(a),
                    (_, Some(b)) => other.rows.row(b),
                    (None, None) => return,
                };
                data.extend_from_slice(row);
                len += 1;
            }
        });
        DenseSet::from_sorted_rows(Rows::from_flat(self.dim(), len, data))
    }

    /// Union.
    pub fn union(&self, other: &DenseSet) -> DenseSet {
        let capacity = self.rows.data.len() + other.rows.data.len();
        self.combine(other, capacity, |a, b| a || b)
    }

    /// The union of many sets: adjacent sets are merged pairwise until one
    /// is left, so every point is compared and copied about `log2(n)`
    /// times, in sequential passes.  `None` for no sets.
    pub fn union_all(mut sets: Vec<DenseSet>) -> Option<DenseSet> {
        while sets.len() > 1 {
            let mut next = Vec::with_capacity(sets.len().div_ceil(2));
            let mut it = sets.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => a.union(&b),
                    None => a,
                });
            }
            sets = next;
        }
        sets.pop()
    }

    /// Intersection.
    pub fn intersect(&self, other: &DenseSet) -> DenseSet {
        let capacity = self.rows.data.len().min(other.rows.data.len());
        self.combine(other, capacity, |a, b| a && b)
    }

    /// Difference `self \ other`.
    pub fn subtract(&self, other: &DenseSet) -> DenseSet {
        self.combine(other, self.rows.data.len(), |a, b| a && !b)
    }

    /// True when `self` and `other` share no point.
    pub fn is_disjoint(&self, other: &DenseSet) -> bool {
        let mut shared = false;
        self.merge(other, |a, b| shared |= a.is_some() && b.is_some());
        !shared
    }

    /// True when every point of `self` is in `other`.
    pub fn is_subset(&self, other: &DenseSet) -> bool {
        let mut extra = false;
        self.merge(other, |a, b| extra |= a.is_some() && b.is_none());
        !extra
    }
}

impl fmt::Debug for DenseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Points<'a>(&'a DenseSet);
        impl fmt::Debug for Points<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("DenseSet")
            .field("dim", &self.dim())
            .field("points", &Points(self))
            .finish()
    }
}

/// A finite relation between integer points: pairs stored as flat rows
/// `[input..., output...]` sorted by `(input, output)`, plus a `u32`
/// permutation in `(output, input)` order (see the module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct DenseRelation {
    in_dim: usize,
    pairs: Rows,
    by_output: Vec<u32>,
}

impl DenseRelation {
    /// The empty relation.
    pub fn new(in_dim: usize, out_dim: usize) -> Self {
        DenseRelation {
            in_dim,
            pairs: Rows::new(in_dim + out_dim),
            by_output: Vec::new(),
        }
    }

    /// Builds a relation from explicit pairs (any order, duplicates
    /// allowed).
    ///
    /// # Panics
    /// Panics when a point has the wrong dimension.
    pub fn from_pairs(
        in_dim: usize,
        out_dim: usize,
        pairs: impl IntoIterator<Item = (IVec, IVec)>,
    ) -> Self {
        let mut rows = Rows::new(in_dim + out_dim);
        for (a, b) in pairs {
            assert_eq!(a.len(), in_dim, "input dimension mismatch");
            assert_eq!(b.len(), out_dim, "output dimension mismatch");
            rows.data.extend_from_slice(&a);
            rows.push(&b);
        }
        rows.sort_dedup();
        DenseRelation::from_sorted_rows(in_dim, rows)
    }

    /// Wraps strictly increasing pair rows and indexes them by output.
    fn from_sorted_rows(in_dim: usize, pairs: Rows) -> Self {
        let mut by_output: Vec<u32> = (0..pairs.n).collect();
        // Stable: pairs with equal outputs keep their input order.
        by_output.sort_by(|&a, &b| {
            pairs.row(a as usize)[in_dim..].cmp(&pairs.row(b as usize)[in_dim..])
        });
        DenseRelation {
            in_dim,
            pairs,
            by_output,
        }
    }

    /// Enumerates a symbolic relation (parameters already bound).
    pub fn from_relation(rel: &Relation) -> Self {
        let set = rel.as_set().enumerate();
        DenseRelation::from_sorted_rows(rel.in_dim(), set.rows)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.pairs.width() - self.in_dim
    }

    fn input(&self, k: usize) -> &[i64] {
        &self.pairs.row(k)[..self.in_dim]
    }

    fn output(&self, k: usize) -> &[i64] {
        &self.pairs.row(k)[self.in_dim..]
    }

    /// Membership test (binary search, no allocation).
    pub fn contains(&self, a: &[i64], b: &[i64]) -> bool {
        if a.len() != self.in_dim || b.len() != self.out_dim() {
            return false;
        }
        let k = self.pairs.partition_point(|r| {
            let (ra, rb) = r.split_at(self.in_dim);
            (ra, rb) < (a, b)
        });
        k < self.len() && self.input(k) == a && self.output(k) == b
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.len() == 0
    }

    /// Iterates the pairs in `(input, output)` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[i64], &[i64])> + '_ {
        (0..self.len()).map(move |k| self.pairs.row(k).split_at(self.in_dim))
    }

    /// `dom R`.
    pub fn domain(&self) -> DenseSet {
        let mut rows = Rows::new(self.in_dim);
        for k in 0..self.len() {
            rows.push_new(self.input(k));
        }
        DenseSet::from_sorted_rows(rows)
    }

    /// `ran R`.
    pub fn range(&self) -> DenseSet {
        let mut rows = Rows::new(self.out_dim());
        for &k in &self.by_output {
            rows.push_new(self.output(k as usize));
        }
        DenseSet::from_sorted_rows(rows)
    }

    /// Direct successors of a point (images under the relation), in
    /// increasing order: one contiguous run of the pair rows.
    pub fn successors<'a>(&'a self, p: &[i64]) -> impl ExactSizeIterator<Item = &'a [i64]> + 'a {
        let start = self.pairs.partition_point(|r| &r[..self.in_dim] < p);
        let end = self.pairs.partition_point(|r| &r[..self.in_dim] <= p);
        (start..end).map(move |k| self.output(k))
    }

    /// Direct predecessors of a point (pre-images), in increasing order:
    /// one contiguous run of the output-order permutation.
    pub fn predecessors<'a>(&'a self, p: &[i64]) -> impl ExactSizeIterator<Item = &'a [i64]> + 'a {
        let output = |k: &u32| self.output(*k as usize);
        let start = self.by_output.partition_point(|k| output(k) < p);
        let end = self.by_output.partition_point(|k| output(k) <= p);
        self.by_output[start..end]
            .iter()
            .map(move |&k| self.input(k as usize))
    }

    /// Restricts to pairs with both endpoints inside `set` (endpoints must
    /// have the same dimension as `set`).
    pub fn restrict_within(&self, set: &DenseSet) -> DenseRelation {
        let mut rows = Rows::new(self.pairs.width());
        for k in 0..self.len() {
            if set.contains(self.input(k)) && set.contains(self.output(k)) {
                rows.push(self.pairs.row(k));
            }
        }
        DenseRelation::from_sorted_rows(self.in_dim, rows)
    }

    /// The pairs with both endpoints in `set`, as `(source id, target id)`
    /// edges between point ids of `set`, sorted by `(source, target)`.
    /// Two merges over the pair order and the output order; nothing is
    /// hashed or allocated per pair beyond the edge list.
    pub fn edges_within(&self, set: &DenseSet) -> Vec<(u32, u32)> {
        const OUTSIDE: u32 = u32::MAX;
        // Target ids: walk the pairs in output order against the set.
        let mut target = vec![OUTSIDE; self.len()];
        let mut j = 0;
        for &k in &self.by_output {
            let b = self.output(k as usize);
            while j < set.len() && set.rows.row(j) < b {
                j += 1;
            }
            if j < set.len() && set.rows.row(j) == b {
                target[k as usize] = j as u32;
            }
        }
        // Source ids: the pairs are already in input order.
        let mut edges = Vec::new();
        let mut i = 0;
        for (k, &t) in target.iter().enumerate() {
            let a = self.input(k);
            while i < set.len() && set.rows.row(i) < a {
                i += 1;
            }
            if t != OUTSIDE && i < set.len() && set.rows.row(i) == a {
                edges.push((i as u32, t));
            }
        }
        edges
    }
}

impl fmt::Debug for DenseRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Pairs<'a>(&'a DenseRelation);
        impl fmt::Debug for Pairs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("DenseRelation")
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim())
            .field("pairs", &Pairs(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[i64]) -> Vec<IVec> {
        v.iter().map(|&x| vec![x]).collect()
    }

    #[test]
    fn dense_set_algebra() {
        let a = DenseSet::from_points(1, pts(&[1, 2, 3, 4]));
        let b = DenseSet::from_points(1, pts(&[3, 4, 5]));
        assert_eq!(a.union(&b).len(), 5);
        assert_eq!(a.intersect(&b).to_vec(), pts(&[3, 4]));
        assert_eq!(a.subtract(&b).to_vec(), pts(&[1, 2]));
        assert!(a.contains(&[2]));
        assert!(!a.contains(&[5]));
        assert!(!a.is_disjoint(&b));
        assert!(a.intersect(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(DenseSet::new(1).is_empty());
        assert_eq!(a.mask_in(&b), vec![false, false, true, true]);
        assert_eq!(a.index_of(&[3]), Some(2));
        assert_eq!(a.point(2), &[3]);
        assert_eq!(a.subset([0, 2]).to_vec(), pts(&[1, 3]));
    }

    #[test]
    fn points_are_sorted_and_deduplicated() {
        let s = DenseSet::from_points(2, vec![vec![2, 1], vec![1, 5], vec![2, 1], vec![1, -3]]);
        assert_eq!(s.to_vec(), vec![vec![1, -3], vec![1, 5], vec![2, 1]]);
        assert_eq!(
            format!("{s:?}"),
            "DenseSet { dim: 2, points: {[1, -3], [1, 5], [2, 1]} }"
        );
    }

    #[test]
    fn zero_dimensional_sets_hold_at_most_the_empty_point() {
        let one = DenseSet::from_points(0, vec![vec![], vec![]]);
        assert_eq!(one.len(), 1);
        assert!(one.contains(&[]));
        assert_eq!(one.union(&DenseSet::new(0)).len(), 1);
        assert!(DenseSet::new(0).is_subset(&one));
    }

    #[test]
    fn dense_relation_adjacency() {
        // figure 2: i -> 21 - 2i within [1, 20]
        let r = DenseRelation::from_pairs(1, 1, (1..=10i64).map(|i| (vec![i], vec![21 - 2 * i])));
        assert_eq!(r.len(), 10);
        assert!(r.contains(&[6], &[9]));
        assert!(!r.contains(&[6], &[8]));
        assert_eq!(r.successors(&[6]).collect::<Vec<_>>(), vec![&[9][..]]);
        assert_eq!(r.predecessors(&[9]).collect::<Vec<_>>(), vec![&[6][..]]);
        assert_eq!(r.successors(&[11]).len(), 0);
        assert_eq!(r.domain().len(), 10);
        assert_eq!(r.range().len(), 10);
    }

    #[test]
    fn successor_and_predecessor_runs_are_sorted() {
        let r = DenseRelation::from_pairs(
            1,
            1,
            vec![
                (vec![2], vec![7]),
                (vec![1], vec![7]),
                (vec![1], vec![3]),
                (vec![3], vec![7]),
            ],
        );
        assert_eq!(r.successors(&[1]).collect::<Vec<_>>(), vec![&[3][..], &[7]]);
        assert_eq!(
            r.predecessors(&[7]).collect::<Vec<_>>(),
            vec![&[1][..], &[2], &[3]]
        );
        assert_eq!(r.range().to_vec(), pts(&[3, 7]));
    }

    #[test]
    fn duplicate_pairs_are_idempotent() {
        let r = DenseRelation::from_pairs(1, 1, vec![(vec![1], vec![2]), (vec![1], vec![2])]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.successors(&[1]).len(), 1);
    }

    #[test]
    fn restriction_operators() {
        let r = DenseRelation::from_pairs(1, 1, (1..=5i64).map(|i| (vec![i], vec![i + 1])));
        let small = DenseSet::from_points(1, pts(&[1, 2, 3]));
        assert_eq!(r.restrict_within(&small).len(), 2); // 1->2, 2->3
        assert_eq!(r.edges_within(&small), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn from_union_and_relation() {
        use crate::affine::Affine;
        use crate::constraint::Constraint;
        use crate::convex::ConvexSet;
        use crate::space::Space;

        let space = Space::with_names(&["x"], &[]);
        let seg = ConvexSet::universe(space.clone()).with_all(vec![
            Constraint::geq(Affine::new(vec![1], -2)),
            Constraint::geq(Affine::new(vec![-1], 5)),
        ]);
        let u = UnionSet::from_convex(seg);
        let d = DenseSet::from_union(&u);
        assert_eq!(d.to_vec(), pts(&[2, 3, 4, 5]));

        let pair = Space::with_names(&["i", "j"], &[]);
        let rel_cs = vec![
            Constraint::eq(Affine::new(vec![2, 1], -21)),
            Constraint::geq(Affine::new(vec![1, 0], -1)),
            Constraint::geq(Affine::new(vec![-1, 0], 20)),
            Constraint::geq(Affine::new(vec![0, 1], -1)),
            Constraint::geq(Affine::new(vec![0, -1], 20)),
        ];
        let rel = Relation::new(
            1,
            1,
            UnionSet::from_convex(ConvexSet::from_constraints(pair, rel_cs)),
        );
        let dr = DenseRelation::from_relation(&rel);
        assert_eq!(dr.len(), 10);
        assert!(dr.contains(&[6], &[9]));
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        DenseSet::from_points(2, vec![vec![1]]);
    }
}
