//! One element layout per binding: a dense box per array, one flat row per
//! reference.
//!
//! The paper's generated DOALL and WHILE loops address each array through
//! one declared box, as Fortran does, so an access is one linear function
//! of the loop indices.  [`ElementLayout`] gives the runtime's kernel and
//! the dataflow tracer the same addressing.  From one box per statement
//! (each loop index's least and greatest value, a [`StatementBox`]) it
//! bounds every array's elements by interval arithmetic over its
//! references' affine subscripts, and compiles every reference to one flat
//! row `base + Σ c_k·i_k`: the row-major offset of its element in its
//! array's box.  An access is then one dot product and one range check.
//!
//! # The box of an array
//!
//! An array that no reference writes has no box: every read of it reads an
//! element nothing wrote.  A written array's box is the hull of all its
//! references' boxes, or of its writes alone when taking in its reads
//! would pass 32 cells per write access: reads never spend the limit's
//! free cells, so a far read costs a small program no more memory or work
//! budget than its writes do.  A read whose box the array's box does not
//! contain is *outside*: it keeps its per-dimension subscripts
//! ([`Address::Subscripts`]).  An array whose write box alone would pass
//! the limit is *hashed*: the tracer keeps its elements in a table, and
//! the runtime reserves the exact box of the writes its schedule holds,
//! which a band or a coupled subscript keeps far smaller than the
//! interval box.
//!
//! # The cell limit
//!
//! A box costs memory in proportion to its volume, not to its writes.  A
//! layout for `w` write accesses (over all statements, instances times
//! write references) holds at most [`cell_limit`]`(w)` = 32·w + 2^20 cells
//! in all its arrays together.  The runtime's store applies the same
//! function when a write grows a box, with `w` the number of distinct
//! elements it holds after the write.
//!
//! # Why a flat row is exact
//!
//! For an instance inside its statement's box, each subscript of a
//! reference lies in its interval, so the element lies in the array's box
//! unless the reference is outside.  Its row-major offset is then in
//! `0..cells`, and it is an affine function of the loop indices: the flat
//! row.  Rows are built and evaluated modulo 2^64, which changes nothing,
//! since the exact value is in range.  An instance outside its statement's
//! box may alias another element, so every consumer keeps its instances in
//! their boxes: a schedule records the boxes of the instances it holds,
//! and the tracer takes them from the loop bounds.

use crate::compiled::{CompiledRef, CompiledRefs};

/// How many cells a layout may hold per write, on top of [`FREE_CELLS`].
/// The bundled workloads need at most about 20.
const CELLS_PER_WRITE: u64 = 32;

/// How many cells a layout may hold whatever it writes (8 MiB of `f64`s).
const FREE_CELLS: u64 = 1 << 20;

/// The most cells a layout for `writes` writes may hold.  It keeps a dense
/// layout within a constant factor of its writes, plus a few MiB: a
/// diagonal or widely strided write pattern, whose box dwarfs its writes,
/// is hashed or refused instead of allocated.
pub fn cell_limit(writes: u64) -> u64 {
    writes
        .saturating_mul(CELLS_PER_WRITE)
        .saturating_add(FREE_CELLS)
}

/// Where the instances of one statement lie: their number, and the range
/// of each of their loop indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatementBox {
    /// The number of instances.
    pub instances: u64,
    /// Per loop index, outermost first, its least and greatest value: an
    /// empty range (`lo > hi`) while there are no instances.
    pub ranges: Vec<(i64, i64)>,
}

impl StatementBox {
    /// The box of no instance of a statement under `depth` loops.
    pub fn empty(depth: usize) -> Self {
        StatementBox {
            instances: 0,
            ranges: vec![(i64::MAX, i64::MIN); depth],
        }
    }

    /// Takes in one instance at the loop index values `indices`.
    #[inline]
    pub fn add(&mut self, indices: &[i64]) {
        self.instances += 1;
        for ((lo, hi), &x) in self.ranges.iter_mut().zip(indices) {
            *lo = (*lo).min(x);
            *hi = (*hi).max(x);
        }
    }

    fn is_empty(&self) -> bool {
        self.instances == 0 || self.ranges.iter().any(|&(lo, hi)| lo > hi)
    }
}

/// An array's box: per dimension, its least and greatest subscript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayBox {
    /// The least subscript, per dimension.
    pub lo: Vec<i64>,
    /// The greatest subscript, per dimension.
    pub hi: Vec<i64>,
}

impl ArrayBox {
    /// The number of cells; `u64::MAX` when that overflows.
    pub fn cells(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .try_fold(1u64, |n, (&lo, &hi)| {
                let extent = u64::try_from(hi as i128 - lo as i128 + 1).unwrap_or(0);
                n.checked_mul(extent)
            })
            .unwrap_or(u64::MAX)
    }

    /// Row-major strides, the last dimension contiguous (wrapping past
    /// `u64`, which only a box beyond every cell limit reaches).
    fn strides(&self) -> Vec<i64> {
        let mut strides = vec![1i64; self.lo.len()];
        for d in (0..self.lo.len().saturating_sub(1)).rev() {
            let extent = self.hi[d + 1].wrapping_sub(self.lo[d + 1]).wrapping_add(1);
            strides[d] = strides[d + 1].wrapping_mul(extent);
        }
        strides
    }

    /// The row-major offset of the element at `index`, `None` outside the
    /// box.
    pub fn offset(&self, index: &[i64]) -> Option<usize> {
        if index.len() != self.lo.len() {
            return None;
        }
        let mut offset = 0usize;
        for ((&x, &lo), &hi) in index.iter().zip(&self.lo).zip(&self.hi) {
            if x < lo || x > hi {
                return None;
            }
            let extent = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
            let rel = usize::try_from(x - lo).ok()?;
            offset = offset.checked_mul(extent)?.checked_add(rel)?;
        }
        Some(offset)
    }
}

/// How one array's elements are laid out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrayLayout {
    /// No reference writes the array, and it has no box.
    Unwritten,
    /// One dense box.
    Dense(ArrayBox),
    /// Its writes' box, which would pass the cell limit: its elements are
    /// kept sparse, or the layout is refused.
    Hashed(ArrayBox),
}

/// Where one access finds its element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Address {
    /// Its offset in its array's dense box.
    Cell(usize),
    /// By its subscripts: a read outside the box, or an element of an
    /// array kept sparse.
    Subscripts,
    /// Nowhere: a read of an array no instance writes, so the element
    /// keeps its initial value.
    Unwritten,
}

/// How one reference is addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Flat,
    Subscripts,
    Unwritten,
}

/// The flat rows of one statement's references, in reference order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatementRows {
    /// `depth + 1`: the base, then one coefficient per loop index.
    width: usize,
    /// Reference `k`'s row at `rows[k·width..(k + 1)·width]`, zero unless
    /// it is routed flat.
    rows: Box<[i64]>,
    /// Per reference, how it is addressed.
    routes: Box<[Route]>,
}

impl StatementRows {
    /// Where reference `k`'s element at `indices` is: one dot product for
    /// a reference with a flat row.
    #[inline]
    pub fn address(&self, k: usize, indices: &[i64]) -> Address {
        match self.routes[k] {
            Route::Flat => {
                let row = &self.rows[k * self.width..(k + 1) * self.width];
                let offset = row[1..]
                    .iter()
                    .zip(indices)
                    .fold(row[0], |acc, (&c, &i)| acc.wrapping_add(c.wrapping_mul(i)));
                Address::Cell(offset as usize)
            }
            Route::Subscripts => Address::Subscripts,
            Route::Unwritten => Address::Unwritten,
        }
    }
}

/// The element layout of one binding: every array's box and every
/// reference's flat row (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementLayout {
    arrays: Vec<ArrayLayout>,
    writes: u64,
    stmts: Vec<StatementRows>,
}

/// A box per dimension as exact `(lo, hi)` bounds.
type Hull = Vec<(i128, i128)>;

/// The box of `r`'s elements over the instances in `within`.
fn reference_hull(r: &CompiledRef, within: &StatementBox) -> Hull {
    r.rows
        .chunks_exact(r.depth + 1)
        .map(|row| {
            let constant = row[0] as i128;
            row[1..].iter().zip(&within.ranges).fold(
                (constant, constant),
                |(lo, hi), (&c, &(a, b))| {
                    let (x, y) = (c as i128 * a as i128, c as i128 * b as i128);
                    (lo + x.min(y), hi + x.max(y))
                },
            )
        })
        .collect()
}

fn widen(into: &mut Option<Hull>, hull: &Hull) {
    match into {
        Some(into) => {
            for ((lo, hi), &(a, b)) in into.iter_mut().zip(hull) {
                *lo = (*lo).min(a);
                *hi = (*hi).max(b);
            }
        }
        None => *into = Some(hull.clone()),
    }
}

fn contains(outer: &ArrayBox, inner: &Hull) -> bool {
    outer
        .lo
        .iter()
        .zip(&outer.hi)
        .zip(inner)
        .all(|((&lo, &hi), &(a, b))| lo as i128 <= a && b <= hi as i128)
}

/// The hull as an array box, its bounds clamped to `i64`; a clamped box
/// counts `u64::MAX` cells.
fn to_box(hull: &Hull) -> (ArrayBox, u64) {
    let clamp = |x: i128| x.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    let fits = hull
        .iter()
        .all(|&(lo, hi)| clamp(lo) as i128 == lo && clamp(hi) as i128 == hi);
    let array = ArrayBox {
        lo: hull.iter().map(|&(lo, _)| clamp(lo)).collect(),
        hi: hull.iter().map(|&(_, hi)| clamp(hi)).collect(),
    };
    let cells = if fits { array.cells() } else { u64::MAX };
    (array, cells)
}

impl ElementLayout {
    /// The layout of `refs`' arrays over the instances `boxes` holds, one
    /// box per statement id.
    pub fn new(refs: &CompiledRefs, boxes: &[StatementBox]) -> Self {
        let live = |s: usize| boxes.get(s).filter(|b| !b.is_empty());
        let n = refs.arrays.len();
        let (mut written, mut all): (Vec<Option<Hull>>, Vec<Option<Hull>>) =
            (vec![None; n], vec![None; n]);
        let mut writes = 0u64;
        for (s, stmt) in refs.stmts.iter().enumerate() {
            let Some(within) = live(s) else {
                continue;
            };
            for r in stmt {
                let hull = reference_hull(r, within);
                widen(&mut all[r.slot], &hull);
                if r.write {
                    widen(&mut written[r.slot], &hull);
                    writes = writes.saturating_add(within.instances);
                }
            }
        }
        let limit = cell_limit(writes);
        // Written arrays take their write box while the total fits.
        let mut total = 0u64;
        let mut arrays: Vec<ArrayLayout> = written
            .iter()
            .map(|hull| match hull.as_ref().map(to_box) {
                None => ArrayLayout::Unwritten,
                Some((array, cells)) if cells <= limit - total => {
                    total += cells;
                    ArrayLayout::Dense(array)
                }
                Some((array, _)) => ArrayLayout::Hashed(array),
            })
            .collect();
        // With every written array dense, each takes in its reads while the
        // total stays within the limit's share per write.
        let share = writes.saturating_mul(CELLS_PER_WRITE);
        if !arrays.iter().any(|a| matches!(a, ArrayLayout::Hashed(_))) {
            for (array, hull) in arrays.iter_mut().zip(&all) {
                let (ArrayLayout::Dense(dense), Some(hull)) = (&*array, hull) else {
                    continue;
                };
                let (wider, cells) = to_box(hull);
                let now = dense.cells();
                if cells <= share.saturating_sub(total - now) {
                    total = total - now + cells;
                    *array = ArrayLayout::Dense(wider);
                }
            }
        }
        let stmts = refs
            .stmts
            .iter()
            .enumerate()
            .map(|(s, stmt)| {
                let depth = stmt.first().map_or(0, |r| r.depth);
                let width = depth + 1;
                let mut rows = vec![0i64; stmt.len() * width];
                let mut routes = vec![Route::Subscripts; stmt.len()];
                let Some(within) = live(s) else {
                    return StatementRows {
                        width,
                        rows: rows.into_boxed_slice(),
                        routes: routes.into_boxed_slice(),
                    };
                };
                for (k, r) in stmt.iter().enumerate() {
                    let array = match &arrays[r.slot] {
                        ArrayLayout::Dense(array) => array,
                        ArrayLayout::Unwritten => {
                            routes[k] = Route::Unwritten;
                            continue;
                        }
                        ArrayLayout::Hashed(_) => continue,
                    };
                    if !contains(array, &reference_hull(r, within)) {
                        continue;
                    }
                    routes[k] = Route::Flat;
                    let row = &mut rows[k * width..(k + 1) * width];
                    let subscripts = r.rows.chunks_exact(width);
                    for ((sub, &stride), &lo) in subscripts.zip(&array.strides()).zip(&array.lo) {
                        row[0] = row[0].wrapping_add(stride.wrapping_mul(sub[0].wrapping_sub(lo)));
                        for (c, &a) in row[1..].iter_mut().zip(&sub[1..]) {
                            *c = c.wrapping_add(stride.wrapping_mul(a));
                        }
                    }
                }
                StatementRows {
                    width,
                    rows: rows.into_boxed_slice(),
                    routes: routes.into_boxed_slice(),
                }
            })
            .collect();
        ElementLayout {
            arrays,
            writes,
            stmts,
        }
    }

    /// Slot → how the array is laid out.
    pub fn arrays(&self) -> &[ArrayLayout] {
        &self.arrays
    }

    /// The number of write accesses the layout was sized for: per
    /// statement, its instances times its write references.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The flat rows of statement `stmt`'s references (panics past the
    /// last statement).
    #[inline]
    pub fn statement(&self, stmt: usize) -> &StatementRows {
        &self.stmts[stmt]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{c, v};
    use crate::program::build::{loop_, loop_minmax, stmt};
    use crate::{ArrayRef, Program};

    /// Every statement instance's box, from a walk of `program`.
    fn walked_boxes(program: &Program) -> Vec<StatementBox> {
        let walker = program.walker(&[]);
        let mut boxes: Vec<StatementBox> = walker
            .depths()
            .iter()
            .map(|&d| StatementBox::empty(d))
            .collect();
        walker.for_each(|s, indices| boxes[s].add(indices));
        boxes
    }

    /// Checks every access of every instance against the layout: a flat
    /// row gives the row-major offset of the subscripts in the box.
    fn check_every_access(program: &Program, layout: &ElementLayout) -> usize {
        let refs = program.compile_refs();
        let mut flat = 0;
        program.for_each_instance(&[], |s, indices| {
            for (k, r) in refs.stmts[s].iter().enumerate() {
                let mut subscripts = vec![0i64; r.rank];
                r.eval(indices, &mut subscripts);
                match (
                    layout.statement(s).address(k, indices),
                    &layout.arrays()[r.slot],
                ) {
                    (Address::Cell(offset), ArrayLayout::Dense(array)) => {
                        assert_eq!(array.offset(&subscripts), Some(offset), "{subscripts:?}");
                        flat += 1;
                    }
                    (Address::Cell(_), other) => panic!("a flat row into {other:?}"),
                    _ => assert!(!r.write, "a write without a flat row"),
                }
            }
        });
        flat
    }

    #[test]
    fn negative_coefficients_swap_the_interval_ends() {
        // a(10 - 2I, J - I) over I = 1..4, J = I..6: the first subscript
        // runs 8 down to 2, the second from -3 (J = 1 at I = 4 in the box)
        // up to 5.
        let p = Program::new(
            "negative",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(4),
                vec![loop_(
                    "J",
                    v("I"),
                    c(6),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![c(10) - v("I") * 2, v("J") - v("I")]),
                            ArrayRef::read("a", vec![c(0) - v("I"), v("J")]),
                        ],
                    )],
                )],
            )],
        );
        let boxes = walked_boxes(&p);
        assert_eq!(boxes[0].ranges, vec![(1, 4), (1, 6)]);
        let layout = ElementLayout::new(&p.compile_refs(), &boxes);
        // The hull of both references: -4..8 by -3..6.
        assert_eq!(
            layout.arrays(),
            &[ArrayLayout::Dense(ArrayBox {
                lo: vec![-4, -3],
                hi: vec![8, 6]
            })]
        );
        assert_eq!(layout.writes(), boxes[0].instances);
        assert_eq!(check_every_access(&p, &layout), 2 * 18);
    }

    #[test]
    fn max_and_min_bounds_bound_the_statement_box() {
        // DO I = max(1, 3), min(9, N) with N = 7, then J = max(I - 2, 2) to
        // min(I, 5): the walked box is I in 3..7, J in 2..5.
        let p = Program::new(
            "minmax",
            &["N"],
            vec![loop_minmax(
                "I",
                vec![c(1), c(3)],
                vec![c(9), v("N")],
                vec![loop_minmax(
                    "J",
                    vec![v("I") - c(2), c(2)],
                    vec![v("I"), c(5)],
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") + v("J")]),
                            ArrayRef::read("a", vec![v("I") - v("J") - c(40)]),
                        ],
                    )],
                )],
            )],
        )
        .bind_params(&[7]);
        let boxes = walked_boxes(&p);
        assert_eq!(boxes[0].ranges, vec![(3, 7), (2, 5)]);
        let layout = ElementLayout::new(&p.compile_refs(), &boxes);
        // The write box is 5..12; the read (-42..-35) is taken in as well.
        assert_eq!(
            layout.arrays(),
            &[ArrayLayout::Dense(ArrayBox {
                lo: vec![-42],
                hi: vec![12]
            })]
        );
        check_every_access(&p, &layout);
    }

    #[test]
    fn a_hull_past_the_limit_keeps_the_write_box_and_reads_outside() {
        // a(I) = a(I + 2^22): the hull of both would pass the limit of 1000
        // writes, so the box holds the writes and the read is outside.
        let far = 1 << 22;
        let p = Program::new(
            "far",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(1000),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("a", vec![v("I") + c(far)]),
                        ArrayRef::read("b", vec![v("I")]),
                    ],
                )],
            )],
        );
        let layout = ElementLayout::new(&p.compile_refs(), &walked_boxes(&p));
        assert_eq!(
            layout.arrays(),
            &[
                ArrayLayout::Dense(ArrayBox {
                    lo: vec![1],
                    hi: vec![1000]
                }),
                ArrayLayout::Unwritten
            ]
        );
        let rows = layout.statement(0);
        assert_eq!(rows.address(0, &[7]), Address::Cell(6));
        assert_eq!(rows.address(1, &[7]), Address::Subscripts, "outside");
        assert_eq!(rows.address(2, &[7]), Address::Unwritten);
        assert_eq!(check_every_access(&p, &layout), 1000);
    }

    #[test]
    fn reads_spend_no_free_cells() {
        // 100 instances write a(I) and b(I): 200 writes, a share of 6 400
        // cells.  a's read widens its box to 2 100 cells within the share;
        // b's would bring the total to 7 200, which the limit's free cells
        // would hold but reads do not spend, so it stays outside.
        let p = Program::new(
            "reads",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(100),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I")]),
                        ArrayRef::read("a", vec![v("I") + c(2000)]),
                        ArrayRef::write("b", vec![v("I")]),
                        ArrayRef::read("b", vec![v("I") + c(5000)]),
                    ],
                )],
            )],
        );
        let layout = ElementLayout::new(&p.compile_refs(), &walked_boxes(&p));
        assert_eq!(layout.writes(), 200);
        assert_eq!(
            layout.arrays(),
            &[
                ArrayLayout::Dense(ArrayBox {
                    lo: vec![1],
                    hi: vec![2100]
                }),
                ArrayLayout::Dense(ArrayBox {
                    lo: vec![1],
                    hi: vec![100]
                })
            ]
        );
        let rows = layout.statement(0);
        assert_eq!(rows.address(1, &[7]), Address::Cell(2006));
        assert_eq!(rows.address(3, &[7]), Address::Subscripts, "outside");
        assert_eq!(check_every_access(&p, &layout), 300);
    }

    #[test]
    fn a_diagonal_past_the_limit_is_hashed() {
        let p = Program::new(
            "diagonal",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(100_000),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I"), v("I")]),
                        ArrayRef::write("b", vec![v("I")]),
                    ],
                )],
            )],
        );
        let layout = ElementLayout::new(&p.compile_refs(), &walked_boxes(&p));
        assert_eq!(layout.writes(), 200_000);
        let diagonal = ArrayBox {
            lo: vec![1, 1],
            hi: vec![100_000, 100_000],
        };
        assert_eq!(diagonal.cells(), 10_000_000_000);
        assert_eq!(layout.arrays()[0], ArrayLayout::Hashed(diagonal));
        assert!(matches!(layout.arrays()[1], ArrayLayout::Dense(_)));
        assert_eq!(layout.statement(0).address(0, &[5]), Address::Subscripts);
        assert_eq!(layout.statement(0).address(1, &[5]), Address::Cell(4));
    }

    #[test]
    fn statements_without_instances_get_no_rows() {
        let p = Program::new(
            "empty",
            &[],
            vec![
                loop_(
                    "I",
                    c(1),
                    c(0),
                    vec![stmt("S", vec![ArrayRef::write("a", vec![v("I")])])],
                ),
                stmt("T", vec![ArrayRef::write("a", vec![c(3)])]),
            ],
        );
        let layout = ElementLayout::new(&p.compile_refs(), &walked_boxes(&p));
        assert_eq!(
            layout.arrays(),
            &[ArrayLayout::Dense(ArrayBox {
                lo: vec![3],
                hi: vec![3]
            })]
        );
        assert_eq!(layout.statement(0).address(0, &[1]), Address::Subscripts);
        assert_eq!(layout.statement(1).address(0, &[]), Address::Cell(0));
        assert_eq!(cell_limit(1), 32 + (1 << 20));
    }
}
