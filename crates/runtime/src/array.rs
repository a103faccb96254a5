//! The array store: the memory the generated loops compute on.
//!
//! Every array is a dense box, like a Fortran array with declared bounds:
//! an origin and an extent per dimension (negative subscripts, such as
//! Cholesky's, only move the origin), row-major strides, one `f64` cell
//! per element and a bitmap of the cells that have been written.  An
//! unwritten element reads as a deterministic, index-dependent
//! [`Array::initial_value`], so that the sequential and the parallel store
//! compare meaningfully even where a program reads what it never wrote.
//!
//! A store grows on demand: a write outside an array's box regrows the box
//! geometrically, so `ArrayStore::new()` plus writes needs no up-front
//! sizing.  Executors instead reserve every box before a run
//! ([`crate::Kernel::reserve`]), and parallel units then write in place
//! through shared references: cells are `AtomicU64`s holding `f64` bits.
//! Arrays are keyed by name *and* rank, as the element indices they hold
//! are, and the store's slot order is a layout detail that no comparison
//! sees.
//!
//! A store a kernel lays out as an [`rcp_loopir::ElementLayout`] keeps that
//! layout while its geometry stays as laid out, checked once when it is
//! laid out: the kernel then reaches a cell by its reference's flat offset
//! instead of its per-dimension subscripts.  Any change of geometry or
//! slot order drops the layout.
//!
//! A box costs memory in proportion to its bounding box, not to its
//! writes, so a store applies the cell limit of [`rcp_loopir::cell_limit`]:
//! 32 cells per write plus 2^20 in all its arrays together.  A reservation
//! counts the write accesses the run will make (jacobi1d at TSTEPS=20,
//! N=300 makes 11,920 writes into 596 elements); a write that grows a box
//! counts the distinct elements the store holds after it.  A layout beyond
//! the limit is refused before anything is allocated: it unwinds with a
//! typed [`rcp_guard::BudgetExceeded`] (stage `execution`, resource
//! `cells`), which the session's checked entry points report as an error.
//!
//! Kernels reach the store only through a [`StoreView`]: an exclusive view
//! grows boxes, a shared view (one per worker and phase) does not, and on
//! checked runs either one stamps every cell it writes with the writing
//! unit, so that a unit touching a cell another unit of the same phase
//! wrote is reported as a conflict.
//!
//! Memory ordering: the executor's phase barrier orders one phase's
//! writes before the next phase's reads.  Within a phase a write stores
//! the stamp, then the value with `Release`, then sets the written bit
//! with a `Release` read-modify-write; a read loads the bit and the value
//! with `Acquire`, then the stamp.  A read that sees another unit's value
//! therefore sees its stamp as well.

use rcp_intlin::IVec;
use rcp_loopir::{cell_limit, ArrayLayout, ElementLayout};
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense, growable multi-dimensional array of `f64`.
pub struct Array {
    /// The lowest index the box holds, per dimension.
    origin: Vec<i64>,
    /// How many indices the box holds, per dimension.
    extents: Vec<usize>,
    /// Row-major strides (the last dimension is contiguous).
    strides: Vec<usize>,
    /// The cells' `f64` bits; meaningful only where `written` is set.
    cells: Vec<AtomicU64>,
    /// One bit per cell, set by the cell's first write.
    written: Vec<AtomicU64>,
    /// On checked runs, the stamp of each cell's last writer; empty
    /// otherwise.
    stamps: Vec<AtomicU64>,
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    std::iter::repeat_with(|| AtomicU64::new(0))
        .take(n)
        .collect()
}

#[inline]
fn bit(offset: usize) -> (usize, u64) {
    (offset >> 6, 1u64 << (offset & 63))
}

/// True when a cell last stamped `previous` is touched by the unit
/// stamped `stamp`: a different unit of the same phase (stamps carry the
/// phase in their high half; 0 is "unchecked").
#[inline]
fn collides(previous: u64, stamp: u64) -> bool {
    stamp != 0 && previous != stamp && previous >> 32 == stamp >> 32
}

impl Array {
    fn with_rank(rank: usize) -> Self {
        // A rank-0 array is one cell from the start: its box cannot grow.
        let len = usize::from(rank == 0);
        Array {
            origin: vec![0; rank],
            extents: vec![0; rank],
            strides: vec![0; rank],
            cells: zeroed(len),
            written: zeroed(len),
            stamps: Vec::new(),
        }
    }

    /// The number of subscripts of the array's elements.
    pub(crate) fn rank(&self) -> usize {
        self.origin.len()
    }

    /// The linear offset of `index` in the box, `None` outside it.
    #[inline]
    fn offset(&self, index: &[i64]) -> Option<usize> {
        if index.len() != self.origin.len() {
            return None;
        }
        let mut offset = 0usize;
        for (((&x, &lo), &extent), &stride) in index
            .iter()
            .zip(&self.origin)
            .zip(&self.extents)
            .zip(&self.strides)
        {
            let rel = x.wrapping_sub(lo) as u64;
            if rel >= extent as u64 {
                return None;
            }
            offset += rel as usize * stride;
        }
        Some(offset)
    }

    /// The index of the cell at `offset`, written into `index`.
    fn index_of(&self, mut offset: usize, index: &mut [i64]) {
        for ((x, &lo), &stride) in index.iter_mut().zip(&self.origin).zip(&self.strides) {
            *x = lo + (offset / stride) as i64;
            offset %= stride;
        }
    }

    #[inline]
    fn is_written(&self, offset: usize) -> bool {
        let (word, mask) = bit(offset);
        self.written[word].load(Ordering::Acquire) & mask != 0
    }

    /// The written value at `offset`, if any.
    #[inline]
    fn cell(&self, offset: usize) -> Option<f64> {
        self.is_written(offset)
            .then(|| f64::from_bits(self.cells[offset].load(Ordering::Acquire)))
    }

    /// Reads an element; unwritten elements read [`Self::initial_value`].
    pub(crate) fn get(&self, index: &[i64]) -> f64 {
        self.offset(index)
            .and_then(|o| self.cell(o))
            .unwrap_or_else(|| Self::initial_value(index))
    }

    /// Number of elements that have been written.
    pub(crate) fn written_len(&self) -> usize {
        self.written
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// The deterministic initial value of an element.
    #[inline]
    pub fn initial_value(index: &[i64]) -> f64 {
        // A small, smooth, index-dependent value keeps kernels numerically
        // tame while making distinct elements distinguishable.
        let mut acc = 1.0f64;
        for (k, &x) in index.iter().enumerate() {
            acc += (x as f64) * 0.01 * (k as f64 + 1.0);
        }
        acc
    }

    /// Calls `f(offset)` for every written cell, in row-major order.
    fn for_each_written(&self, mut f: impl FnMut(usize)) {
        for (w, word) in self.written.iter().enumerate() {
            let mut bits = word.load(Ordering::Acquire);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Re-lays the array out as `layout`, which must contain every written
    /// cell, carrying written cells (and stamps) over.
    fn relayout(&mut self, layout: Layout) {
        let len = usize::try_from(layout.cells()).unwrap_or(usize::MAX);
        let Layout { origin, extents } = layout;
        let mut strides = vec![1usize; extents.len()];
        for d in (0..extents.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
        let stamped = !self.stamps.is_empty();
        let mut next = Array {
            origin,
            extents,
            strides,
            cells: zeroed(len),
            written: zeroed(len.div_ceil(64)),
            stamps: if stamped { zeroed(len) } else { Vec::new() },
        };
        let mut index = vec![0i64; self.rank()];
        self.for_each_written(|o| {
            self.index_of(o, &mut index);
            if let Some(n) = next.offset(&index) {
                let (word, mask) = bit(n);
                *next.written[word].get_mut() |= mask;
                *next.cells[n].get_mut() = self.cells[o].load(Ordering::Relaxed);
                if stamped {
                    *next.stamps[n].get_mut() = self.stamps[o].load(Ordering::Relaxed);
                }
            }
        });
        *self = next;
    }

    /// The box's inclusive bounds per dimension, `None` while it is empty.
    fn span(&self) -> Option<(Vec<i128>, Vec<i128>)> {
        (!self.cells.is_empty()).then(|| {
            let lo: Vec<i128> = self.origin.iter().map(|&a| a as i128).collect();
            let hi = lo
                .iter()
                .zip(&self.extents)
                .map(|(&a, &n)| a + n as i128 - 1);
            (lo.clone(), hi.collect())
        })
    }

    /// The smallest box containing the current one and `lo..=hi`.
    fn covering(&self, lo: &[i64], hi: &[i64]) -> Option<Layout> {
        let mut lo: Vec<i128> = lo.iter().map(|&x| x as i128).collect();
        let mut hi: Vec<i128> = hi.iter().map(|&x| x as i128).collect();
        if let Some((a, b)) = self.span() {
            for d in 0..lo.len() {
                lo[d] = lo[d].min(a[d]);
                hi[d] = hi[d].max(b[d]);
            }
        }
        Layout::spanning(&lo, &hi)
    }

    /// The box to grow to for a write at `index`: a dimension that must
    /// grow at least doubles, towards the side that needed it, so a run
    /// of out-of-box writes regrows O(log n) times.
    fn doubling(&self, index: &[i64]) -> Option<Layout> {
        let Some((mut lo, mut hi)) = self.span() else {
            return self.covering(index, index);
        };
        for (d, &x) in index.iter().enumerate() {
            let (x, n) = (x as i128, hi[d] - lo[d] + 1);
            if x < lo[d] {
                lo[d] = x.min(hi[d] + 1 - 2 * n).max(i64::MIN as i128);
            } else if x > hi[d] {
                hi[d] = x.max(lo[d] - 1 + 2 * n).min(i64::MAX as i128);
            }
        }
        Layout::spanning(&lo, &hi)
    }

    /// Writes `bits` to the cell at `offset` through a shared reference,
    /// stamping it with `stamp` unless that is 0; returns the cell's
    /// previous stamp (0 when unstamped).
    #[inline]
    fn write(&self, offset: usize, bits: u64, stamp: u64) -> u64 {
        // Stamp, then value (release), then written bit: a reader whose
        // acquire load sees the value also sees the stamp.  Unstamped
        // writes (single-unit phases, unchecked runs) leave the stamp
        // alone: no other unit runs beside them.
        let previous = match self.stamps.get(offset) {
            Some(s) if stamp != 0 => s.swap(stamp, Ordering::AcqRel),
            _ => 0,
        };
        self.cells[offset].store(bits, Ordering::Release);
        let (word, mask) = bit(offset);
        let word = &self.written[word];
        if word.load(Ordering::Relaxed) & mask == 0 {
            word.fetch_or(mask, Ordering::Release);
        }
        previous
    }
}

/// A box to lay an array out as.
struct Layout {
    origin: Vec<i64>,
    extents: Vec<usize>,
}

impl Layout {
    /// The box from `lo` to `hi`, inclusive per dimension; `None` when its
    /// indices or extents do not fit `i64` and `usize`.
    fn spanning(lo: &[i128], hi: &[i128]) -> Option<Layout> {
        let origin: Option<Vec<i64>> = lo.iter().map(|&a| i64::try_from(a).ok()).collect();
        let extents: Option<Vec<usize>> = lo
            .iter()
            .zip(hi)
            .map(|(&a, &b)| usize::try_from((b - a + 1).max(0)).ok())
            .collect();
        Some(Layout {
            origin: origin?,
            extents: extents?,
        })
    }

    /// The number of cells; `u64::MAX` when that overflows.
    fn cells(&self) -> u64 {
        self.extents
            .iter()
            .try_fold(1u64, |n, &e| n.checked_mul(e as u64))
            .unwrap_or(u64::MAX)
    }
}

impl std::fmt::Debug for Array {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Array")
            .field("origin", &self.origin)
            .field("extents", &self.extents)
            .field("written", &self.written_len())
            .finish()
    }
}

/// A named collection of arrays.
#[derive(Debug, Default)]
pub struct ArrayStore {
    arrays: Arrays,
    /// The element layout a kernel laid the arrays out as.
    layout: Option<LaidOut>,
}

/// An element layout a store's arrays were laid out as.
#[derive(Debug)]
struct LaidOut {
    /// The id of the kernel that laid the store out.
    owner: u64,
    /// The arrays' generation then: the layout holds while it is current.
    generation: u64,
    layout: ElementLayout,
}

/// A store's arrays by slot.  Kernels address arrays by slot
/// ([`ArrayStore::bind`]); every public operation goes by name.
#[derive(Debug, Default)]
struct Arrays {
    /// Slot → (name, array).
    list: Vec<(String, Array)>,
    /// Counts the changes of a box or of the slot order.
    generation: u64,
}

impl Arrays {
    fn slot(&self, name: &str, rank: usize) -> Option<usize> {
        self.list
            .iter()
            .position(|(n, a)| n == name && a.rank() == rank)
    }

    fn slot_or_insert(&mut self, name: &str, rank: usize) -> usize {
        self.slot(name, rank).unwrap_or_else(|| {
            self.list.push((name.to_string(), Array::with_rank(rank)));
            self.list.len() - 1
        })
    }

    fn relayout(&mut self, slot: usize, layout: Layout) {
        if let Some((_, array)) = self.list.get_mut(slot) {
            array.relayout(layout);
            self.generation += 1;
        }
    }

    /// Grows slot `slot`'s box so that it contains `index`: geometrically
    /// when the store's cell limit allows, else exactly, else not at all —
    /// the write is then refused with a typed unwind (see [`Self::admit`]).
    fn grow(&mut self, slot: usize, index: &[i64]) {
        let Some((_, array)) = self.list.get(slot) else {
            return;
        };
        if index.len() != array.rank() {
            return;
        }
        let writes = self.written_len() as u64 + 1;
        let others = self.cells() - array.cells.len() as u64;
        let total = |layout: &Option<Layout>| {
            others.saturating_add(layout.as_ref().map_or(u64::MAX, Layout::cells))
        };
        let doubled = array.doubling(index);
        let layout = if total(&doubled) <= cell_limit(writes) {
            doubled
        } else {
            array.covering(index, index)
        };
        self.admit(total(&layout), writes);
        if let Some(layout) = layout {
            self.relayout(slot, layout);
        }
    }

    /// The cells laid out across all arrays.
    fn cells(&self) -> u64 {
        self.list.iter().map(|(_, a)| a.cells.len() as u64).sum()
    }

    /// Number of written elements across all arrays.
    fn written_len(&self) -> usize {
        self.list.iter().map(|(_, a)| a.written_len()).sum()
    }

    /// Admits a layout of `cells` cells in all for a store holding
    /// `writes` written elements: refuses it when it exceeds
    /// [`cell_limit`], else charges the cells it adds to the execution
    /// budget.  A refusal, by the limit or by an exhausted budget, unwinds
    /// with a typed [`rcp_guard::BudgetExceeded`] before anything is
    /// allocated; the session's checked entry points turn it into an
    /// error.
    fn admit(&self, cells: u64, writes: u64) {
        rcp_guard::limit(
            rcp_guard::Stage::Execution,
            rcp_guard::Resource::Cells,
            cells,
            cell_limit(writes),
        );
        rcp_guard::tick(
            rcp_guard::Stage::Execution,
            cells.saturating_sub(self.cells()),
        );
    }

    /// The name of the array in `slot`.
    fn name(&self, slot: usize) -> &str {
        self.list.get(slot).map_or("", |(n, _)| n.as_str())
    }
}

impl ArrayStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ArrayStore::default()
    }

    /// Makes slot `k` hold array `arrays[k]` (a name and a rank) for every
    /// `k`, moving or creating arrays as needed.  Slot order is invisible to
    /// every public operation, so binding never changes what the store
    /// holds.
    pub(crate) fn bind(&mut self, arrays: &[(String, usize)]) {
        let store = &mut self.arrays;
        for (k, (name, rank)) in arrays.iter().enumerate() {
            let bound = store
                .list
                .get(k)
                .is_some_and(|(n, a)| n == name && a.rank() == *rank);
            if !bound {
                let from = store.slot_or_insert(name, *rank);
                store.list.swap(k, from);
                store.generation += 1;
            }
        }
    }

    /// Lays the bound arrays out as `layout` for a run of kernel `owner`'s,
    /// which makes [`ElementLayout::writes`] writes: reserves each dense
    /// box, and each hashed array's write box, which the cell limit then
    /// refuses (see [`Self::reserve`]; `RefKernel` reserves the writes of
    /// a layout that hashes an array itself).  The store keeps the layout
    /// when every dense array's box is exactly the layout's and no array
    /// the layout leaves unwritten holds a value, as in a store that held
    /// nothing before.
    pub(crate) fn lay_out(&mut self, owner: u64, layout: ElementLayout) {
        let boxes: Vec<(Vec<i64>, Vec<i64>)> = layout
            .arrays()
            .iter()
            .map(|array| match array {
                ArrayLayout::Dense(b) | ArrayLayout::Hashed(b) => (b.lo.clone(), b.hi.clone()),
                ArrayLayout::Unwritten => (Vec::new(), Vec::new()),
            })
            .collect();
        self.reserve(&boxes, layout.writes());
        let exact = layout.arrays().iter().enumerate().all(|(slot, laid)| {
            let Some((_, array)) = self.arrays.list.get(slot) else {
                return false;
            };
            match laid {
                ArrayLayout::Dense(b) => {
                    array.origin == b.lo
                        && array.extents.len() == b.hi.len()
                        && array
                            .origin
                            .iter()
                            .zip(&b.hi)
                            .zip(&array.extents)
                            .all(|((&lo, &hi), &n)| hi as i128 - lo as i128 + 1 == n as i128)
                }
                ArrayLayout::Unwritten => array.written_len() == 0,
                ArrayLayout::Hashed(_) => true,
            }
        });
        self.layout = exact.then_some(LaidOut {
            owner,
            generation: self.arrays.generation,
            layout,
        });
    }

    /// Forgets the layout a kernel laid the store out as: later accesses
    /// go by subscripts.
    pub(crate) fn forget_layout(&mut self) {
        self.layout = None;
    }

    /// Grows each slot's box to contain its `lo..=hi` (`boxes` is indexed
    /// by slot; a box with `lo > hi` leaves its slot alone) for a run that
    /// writes `writes` elements, refusing the layout — before allocating
    /// it — when it exceeds the store's cell limit (see [`Arrays::admit`]).
    pub(crate) fn reserve(&mut self, boxes: &[(Vec<i64>, Vec<i64>)], writes: u64) {
        let store = &mut self.arrays;
        let mut layouts = Vec::new();
        let mut cells = store.cells();
        for (slot, (lo, hi)) in boxes.iter().enumerate() {
            let Some((_, array)) = store.list.get(slot) else {
                continue;
            };
            let fits = lo.len() == array.rank() && hi.len() == array.rank();
            if !fits || lo.iter().zip(hi).any(|(l, h)| l > h) || array.rank() == 0 {
                continue;
            }
            let layout = array.covering(lo, hi);
            let now = array.cells.len() as u64;
            cells = (cells - now).saturating_add(layout.as_ref().map_or(u64::MAX, Layout::cells));
            layouts.push((slot, layout));
        }
        store.admit(cells, writes.saturating_add(store.written_len() as u64));
        for (slot, layout) in layouts {
            let Some(layout) = layout else {
                continue;
            };
            let same = store
                .list
                .get(slot)
                .is_some_and(|(_, a)| layout.origin == a.origin && layout.extents == a.extents);
            if !same {
                store.relayout(slot, layout);
            }
        }
    }

    /// Starts (`true`) or ends (`false`) per-cell writer stamping for a
    /// checked run.
    pub(crate) fn set_stamping(&mut self, on: bool) {
        for (_, array) in &mut self.arrays.list {
            array.stamps = if on {
                zeroed(array.cells.len())
            } else {
                Vec::new()
            };
        }
    }

    /// Reads `array[index]`.
    pub fn get(&self, array: &str, index: &[i64]) -> f64 {
        match self.arrays.slot(array, index.len()) {
            Some(slot) => self.arrays.list[slot].1.get(index),
            None => Array::initial_value(index),
        }
    }

    /// Writes `array[index] = value`.
    pub fn set(&mut self, array: &str, index: &[i64], value: f64) {
        StoreView::exclusive(self).write(array, index, value);
    }

    /// Total number of written elements across all arrays.
    pub fn written_len(&self) -> usize {
        self.arrays.written_len()
    }

    /// Compares two stores element-wise; returns the mismatching
    /// `(array, index, left, right)` tuples in array-name and index order.
    ///
    /// Two elements match when both are written and their values agree —
    /// bit for bit at tolerance 0.0, within the absolute `tolerance`
    /// otherwise (a NaN matches only its own bit pattern) — or when
    /// neither is written.  An element written on one side only is a
    /// mismatch whatever its value.  Schedule verification passes 0.0
    /// ([`crate::Verification::check`]): a legal schedule computes every
    /// element with the same operations in the same order as the
    /// sequential run, so its store matches bit for bit, and `==` is
    /// exactly `diff(_, 0.0).is_empty()`.
    pub fn diff(&self, other: &ArrayStore, tolerance: f64) -> Vec<(String, IVec, f64, f64)> {
        let _span = rcp_trace::span!("executor.diff");
        let mut mismatches = Vec::new();
        compare(self, other, tolerance, |name, index, a, b| {
            mismatches.push((name.to_string(), index.to_vec(), a, b));
            true
        });
        mismatches.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
        mismatches
    }
}

/// "Same written elements, same bits": see [`ArrayStore::diff`].  Stores
/// with the same contents are equal whatever their boxes or slot order.
impl PartialEq for ArrayStore {
    fn eq(&self, other: &Self) -> bool {
        let mut equal = true;
        compare(self, other, 0.0, |_, _, _, _| {
            equal = false;
            false
        });
        equal
    }
}

fn same(a: f64, b: f64, tolerance: f64) -> bool {
    a.to_bits() == b.to_bits() || (tolerance > 0.0 && (a - b).abs() <= tolerance)
}

/// Calls `mismatch(name, index, left, right)` for every element on which
/// the stores disagree (see [`ArrayStore::diff`]) until it returns false.
fn compare(
    left: &ArrayStore,
    right: &ArrayStore,
    tolerance: f64,
    mut mismatch: impl FnMut(&str, &[i64], f64, f64) -> bool,
) {
    for (name, a) in &left.arrays.list {
        let go = match right.arrays.slot(name, a.rank()) {
            Some(s) => compare_arrays(name, a, &right.arrays.list[s].1, tolerance, &mut mismatch),
            None => compare_arrays(
                name,
                a,
                &Array::with_rank(a.rank()),
                tolerance,
                &mut mismatch,
            ),
        };
        if !go {
            return;
        }
    }
    for (name, b) in &right.arrays.list {
        if left.arrays.slot(name, b.rank()).is_none()
            && !compare_arrays(
                name,
                &Array::with_rank(b.rank()),
                b,
                tolerance,
                &mut mismatch,
            )
        {
            return;
        }
    }
}

/// One array pair of [`compare`]; false once `mismatch` asks to stop.
fn compare_arrays(
    name: &str,
    a: &Array,
    b: &Array,
    tolerance: f64,
    mismatch: &mut impl FnMut(&str, &[i64], f64, f64) -> bool,
) -> bool {
    let mut index = vec![0i64; a.rank().max(b.rank())];
    let mut go = true;
    if a.origin == b.origin && a.extents == b.extents {
        // One geometry (both boxes reserved for the same writes): compare
        // cell by cell, decoding an index only for a mismatch.
        for (o, (wa, wb)) in a.written.iter().zip(&b.written).enumerate() {
            let (wa, wb) = (wa.load(Ordering::Acquire), wb.load(Ordering::Acquire));
            let mut bits = wa | wb;
            while go && bits != 0 {
                let offset = o * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (x, y) = (a.cell(offset), b.cell(offset));
                if !matches!((x, y), (Some(x), Some(y)) if same(x, y, tolerance)) {
                    a.index_of(offset, &mut index);
                    go = mismatch(name, &index, a.get(&index), b.get(&index));
                }
            }
        }
        return go;
    }
    a.for_each_written(|o| {
        if !go {
            return;
        }
        a.index_of(o, &mut index);
        let x = a.get(&index);
        match b.offset(&index).and_then(|p| b.cell(p)) {
            Some(y) if same(x, y, tolerance) => {}
            _ => go = mismatch(name, &index, x, b.get(&index)),
        }
    });
    b.for_each_written(|o| {
        if !go {
            return;
        }
        b.index_of(o, &mut index);
        if a.offset(&index).and_then(|p| a.cell(p)).is_none() {
            go = mismatch(name, &index, a.get(&index), b.get(&index));
        }
    });
    go
}

/// How a [`StoreView`] holds the store's arrays.
enum Holding<'s> {
    /// Sole access: writes may grow boxes.
    Exclusive(&'s mut Arrays),
    /// Shared with the other units of a parallel phase: boxes are fixed,
    /// cells are written atomically.
    Shared(&'s Arrays),
}

/// A kernel's access to the store while it runs one unit of work.
///
/// Compiled kernels address arrays by slot ([`Self::read_slot`],
/// [`Self::write_slot`]); [`Self::read`] and [`Self::write`] go by name.
/// A write outside a shared view's reserved box is not made and is
/// reported as a conflict, as is, on checked runs, any access to a cell
/// another unit of the same phase wrote.  An exclusive view grows the box
/// instead, and refuses a growth beyond the store's cell limit with a
/// typed unwind (see the module docs).
pub struct StoreView<'s> {
    store: Holding<'s>,
    /// The element layout the arrays are laid out as and the kernel that
    /// laid them out, while the layout holds: checked once, when the view
    /// is made, and dropped when the view grows a box.
    layout: Option<(u64, &'s ElementLayout)>,
    /// The running unit's `(phase + 1) << 32 | unit` stamp on checked
    /// runs, 0 otherwise.
    stamp: u64,
    conflicts: Vec<(String, IVec)>,
}

impl<'s> StoreView<'s> {
    /// A view with sole access to `store`.
    pub(crate) fn exclusive(store: &'s mut ArrayStore) -> Self {
        let ArrayStore { arrays, layout } = store;
        let layout = layout
            .as_ref()
            .filter(|l| l.generation == arrays.generation)
            .map(|l| (l.owner, &l.layout));
        StoreView {
            store: Holding::Exclusive(arrays),
            layout,
            stamp: 0,
            conflicts: Vec::new(),
        }
    }

    /// A view sharing `store` with other units of the same phase.
    pub(crate) fn shared(store: &'s ArrayStore) -> Self {
        let layout = store
            .layout
            .as_ref()
            .filter(|l| l.generation == store.arrays.generation)
            .map(|l| (l.owner, &l.layout));
        StoreView {
            store: Holding::Shared(&store.arrays),
            layout,
            stamp: 0,
            conflicts: Vec::new(),
        }
    }

    /// Stamps later accesses as unit `unit` of phase `phase`, or stops
    /// stamping (`None`).
    pub(crate) fn set_unit(&mut self, unit: Option<(usize, usize)>) {
        self.stamp = unit.map_or(0, |(phase, unit)| {
            ((phase as u64 + 1) << 32) | (unit as u64 & 0xffff_ffff)
        });
    }

    /// The conflicts found so far.
    pub(crate) fn into_conflicts(self) -> Vec<(String, IVec)> {
        self.conflicts
    }

    #[inline]
    fn arrays(&self) -> &Arrays {
        match &self.store {
            Holding::Exclusive(arrays) => arrays,
            Holding::Shared(arrays) => arrays,
        }
    }

    fn conflict(&mut self, slot: usize, index: &[i64]) {
        let name = self.arrays().name(slot).to_string();
        self.conflicts.push((name, index.to_vec()));
    }

    /// The element layout the store is laid out as, when kernel `owner`
    /// laid it out and it still holds.  It borrows the store, not the
    /// view.
    #[inline]
    pub(crate) fn layout(&self, owner: u64) -> Option<&'s ElementLayout> {
        match self.layout {
            Some((id, layout)) if id == owner => Some(layout),
            _ => None,
        }
    }

    /// Reads the cell at `offset` of the array in `slot`: `Some` of its
    /// value, `None` while it is unwritten.  Outside the array's cells it
    /// reads nothing and returns `Err`.  A flat offset addresses the right
    /// cell only while the layout that gave it holds.
    #[inline]
    pub(crate) fn read_cell(&mut self, slot: usize, offset: usize) -> Result<Option<f64>, ()> {
        let stamp = self.stamp;
        let Some((_, array)) = self.arrays().list.get(slot) else {
            return Err(());
        };
        if offset >= array.cells.len() {
            return Err(());
        }
        // Value (acquire) before stamp: see `write_slot`.
        let value = array.cell(offset);
        if stamp != 0
            && collides(
                array
                    .stamps
                    .get(offset)
                    .map_or(0, |s| s.load(Ordering::Relaxed)),
                stamp,
            )
        {
            self.conflict_at(slot, offset);
        }
        Ok(value)
    }

    /// Writes the cell at `offset` of the array in `slot` (see
    /// [`Self::read_cell`]); false, writing nothing, outside the array's
    /// cells.
    #[inline]
    pub(crate) fn write_cell(&mut self, slot: usize, offset: usize, value: f64) -> bool {
        let stamp = self.stamp;
        let previous = match self.arrays().list.get(slot) {
            Some((_, array)) if offset < array.cells.len() => {
                array.write(offset, value.to_bits(), stamp)
            }
            _ => return false,
        };
        if collides(previous, stamp) {
            self.conflict_at(slot, offset);
        }
        true
    }

    /// Reports a conflict on the cell at `offset` of the array in `slot`.
    #[cold]
    fn conflict_at(&mut self, slot: usize, offset: usize) {
        let array = &self.arrays().list[slot].1;
        let mut index = vec![0i64; array.rank()];
        array.index_of(offset, &mut index);
        self.conflict(slot, &index);
    }

    /// Reads element `index` of the array in `slot`.
    #[inline]
    pub fn read_slot(&mut self, slot: usize, index: &[i64]) -> f64 {
        let stamp = self.stamp;
        let located = self
            .arrays()
            .list
            .get(slot)
            .and_then(|(_, array)| array.offset(index).map(|o| (array, o)));
        let (value, collided) = match located {
            Some((array, o)) => {
                // Value (acquire) before stamp: see `write_slot`.
                let value = array.cell(o);
                let collided = stamp != 0
                    && collides(
                        array.stamps.get(o).map_or(0, |s| s.load(Ordering::Relaxed)),
                        stamp,
                    );
                (value, collided)
            }
            None => (None, false),
        };
        if collided {
            self.conflict(slot, index);
        }
        value.unwrap_or_else(|| Array::initial_value(index))
    }

    /// Writes element `index` of the array in `slot`.
    #[inline]
    pub fn write_slot(&mut self, slot: usize, index: &[i64], value: f64) {
        let located = |arrays: &Arrays| {
            arrays
                .list
                .get(slot)
                .and_then(|(_, array)| array.offset(index))
        };
        let mut offset = located(self.arrays());
        if offset.is_none() {
            if let Holding::Exclusive(arrays) = &mut self.store {
                arrays.grow(slot, index);
                offset = located(arrays);
                // The box moved: flat offsets no longer hold.
                self.layout = None;
            }
        }
        let stamp = self.stamp;
        let previous = offset.and_then(|o| {
            let (_, array) = self.arrays().list.get(slot)?;
            Some(array.write(o, value.to_bits(), stamp))
        });
        match previous {
            Some(previous) if !collides(previous, stamp) => {}
            _ => self.conflict(slot, index),
        }
    }

    /// Reads `array[index]`.
    pub fn read(&mut self, array: &str, index: &[i64]) -> f64 {
        match self.arrays().slot(array, index.len()) {
            Some(slot) => self.read_slot(slot, index),
            None => Array::initial_value(index),
        }
    }

    /// Writes `array[index] = value`.
    pub fn write(&mut self, array: &str, index: &[i64], value: f64) {
        let slot = match &mut self.store {
            Holding::Exclusive(arrays) => Some(arrays.slot_or_insert(array, index.len())),
            Holding::Shared(arrays) => arrays.slot(array, index.len()),
        };
        match slot {
            Some(slot) => self.write_slot(slot, index, value),
            None => self.conflicts.push((array.to_string(), index.to_vec())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_are_deterministic() {
        let s = ArrayStore::new();
        assert_eq!(s.get("a", &[3, 4]), s.get("a", &[3, 4]));
        assert_ne!(s.get("a", &[3, 4]), s.get("a", &[4, 3]));
        assert_eq!(s.get("a", &[3, 4]), s.get("b", &[3, 4])); // array-independent init
    }

    #[test]
    fn read_write_round_trip() {
        let mut s = ArrayStore::new();
        s.set("a", &[1, 2], 42.0);
        assert_eq!(s.get("a", &[1, 2]), 42.0);
        assert_ne!(s.get("a", &[2, 1]), 42.0);
        s.set("a", &[-3, 0], 7.0); // negative subscripts are fine
        assert_eq!(s.get("a", &[-3, 0]), 7.0);
        assert_eq!(s.get("a", &[1, 2]), 42.0, "growth keeps written cells");
        assert_eq!(s.get("a", &[0, 1]), Array::initial_value(&[0, 1]));
        s.set("a", &[5], 1.0); // another rank is another array
        assert_eq!(s.get("a", &[5]), 1.0);
        assert_eq!(s.written_len(), 3);
    }

    #[test]
    fn growth_is_geometric_and_keeps_every_value() {
        let mut s = ArrayStore::new();
        for i in 0..1000 {
            s.set("a", &[i, -i], i as f64);
        }
        for i in 0..1000 {
            assert_eq!(s.get("a", &[i, -i]), i as f64);
        }
        assert_eq!(s.written_len(), 1000);
        let a = &s.arrays.list[0].1;
        assert!(a.extents.iter().all(|&n| (1000..2048).contains(&n)));
    }

    #[test]
    fn diff_detects_mismatches() {
        let mut a = ArrayStore::new();
        let mut b = ArrayStore::new();
        a.set("x", &[1], 1.0);
        b.set("x", &[1], 1.0);
        assert!(a.diff(&b, 1e-9).is_empty());
        b.set("x", &[2], 5.0);
        let d = a.diff(&b, 1e-9);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, vec![2]);
        // within tolerance, but not bit for bit
        let mut c = ArrayStore::new();
        c.set("x", &[1], 1.0 + 1e-12);
        assert!(a.diff(&c, 1e-9).is_empty());
        assert_eq!(a.diff(&c, 0.0).len(), 1);
        // a NaN matches only itself
        c.set("x", &[1], f64::NAN);
        assert_eq!(a.diff(&c, 1e-9).len(), 1);
        assert!(c.diff(&c, 0.0).is_empty());
    }

    #[test]
    fn a_nan_store_equals_itself() {
        let nan = || {
            let mut s = ArrayStore::new();
            s.set("x", &[1], f64::NAN);
            s
        };
        let s = nan();
        assert!(s == s, "same bits are equal, NaN included");
        assert!(s == nan());
        assert!(s.diff(&s, 0.0).is_empty());
    }

    #[test]
    fn signed_zeros_differ_at_tolerance_zero() {
        let (mut a, mut b) = (ArrayStore::new(), ArrayStore::new());
        a.set("x", &[1], 0.0);
        b.set("x", &[1], -0.0);
        assert_eq!(a.diff(&b, 0.0).len(), 1, "+0.0 and -0.0 differ in bits");
        assert!(a != b);
        assert!(a.diff(&b, 1e-9).is_empty());
    }

    #[test]
    fn written_sets_must_agree_whatever_the_values() {
        let (mut a, b) = (ArrayStore::new(), ArrayStore::new());
        a.set("x", &[4], Array::initial_value(&[4]));
        assert_eq!(a.diff(&b, 0.0).len(), 1);
        assert_eq!(b.diff(&a, 0.0).len(), 1);
        assert!(a != b);
    }

    #[test]
    fn grown_and_reserved_stores_with_the_same_writes_are_equal() {
        let writes = [(vec![3, -2], 1.5), (vec![0, 7], 2.5), (vec![9, 9], 3.5)];
        let mut grown = ArrayStore::new();
        let mut reserved = ArrayStore::new();
        reserved.bind(&[("b".to_string(), 1), ("a".to_string(), 2)]);
        reserved.reserve(&[(vec![], vec![]), (vec![-5, -5], vec![20, 20])], 3);
        for (index, value) in &writes {
            grown.set("a", index, *value);
            reserved.set("a", index, *value);
        }
        assert!(grown == reserved);
        assert!(grown.diff(&reserved, 0.0).is_empty());
        assert_eq!(grown.written_len(), reserved.written_len());
        reserved.set("a", &[1, 1], 0.0);
        assert!(grown != reserved);
        assert_eq!(grown.diff(&reserved, 0.0).len(), 1);
    }

    /// The typed refusal `f` unwinds with, as (spent, limit) cells.
    fn refusal(f: impl FnOnce()) -> (u64, u64) {
        match rcp_guard::catch(f) {
            Err(rcp_guard::Interrupt::Budget(b)) => {
                assert_eq!(b.stage, rcp_guard::Stage::Execution);
                assert_eq!(b.resource, rcp_guard::Resource::Cells);
                (b.spent, b.limit)
            }
            other => panic!("expected a refused layout, got {other:?}"),
        }
    }

    #[test]
    fn layouts_beyond_the_cell_limit_are_refused_before_allocation() {
        // A diagonal of 100 000 writes has a box of 10^10 cells.
        let mut store = ArrayStore::new();
        store.bind(&[("a".to_string(), 2)]);
        let diagonal = (vec![1, 1], vec![100_000, 100_000]);
        let (spent, limit) = refusal(|| store.reserve(&[diagonal], 100_000));
        assert_eq!((spent, limit), (10_000_000_000, cell_limit(100_000)));
        assert_eq!(store.arrays.cells(), 0, "nothing was allocated");
        // A strided write grows no box past the limit either, and the
        // store keeps what it held.
        let mut store = ArrayStore::new();
        store.set("a", &[0], 1.0);
        let (spent, limit) = refusal(|| store.set("a", &[1 << 40], 2.0));
        assert_eq!((spent, limit), ((1 << 40) + 1, cell_limit(2)));
        assert_eq!(store.get("a", &[0]), 1.0);
        assert_eq!(store.written_len(), 1);
        // A box whose extent overflows is refused, not dropped.
        store.set("b", &[i64::MIN], 1.0);
        let (spent, _) = refusal(|| store.set("b", &[i64::MAX], 2.0));
        assert_eq!(spent, u64::MAX);
        assert_eq!(store.get("b", &[i64::MIN]), 1.0);
    }

    #[test]
    fn growth_falls_back_to_the_exact_box_near_the_limit() {
        // Doubling a 2^10 x 2^10 box would quadruple it past the limit of
        // 2^10 writes; the exact box one row and column larger fits.
        let mut store = ArrayStore::new();
        let n = 1 << 10;
        store.set("a", &[0, 0], 0.0);
        store.set("a", &[n - 1, n - 1], 0.0);
        for i in 1..n - 1 {
            store.set("a", &[i, i], 0.0);
        }
        store.set("a", &[n, n], 0.0);
        assert_eq!(store.arrays.list[0].1.extents, vec![n as usize + 1; 2]);
        assert_eq!(store.written_len(), n as usize + 1);
    }

    #[test]
    fn shared_views_write_in_place_and_report_what_they_cannot_place() {
        let mut store = ArrayStore::new();
        store.bind(&[("a".to_string(), 1)]);
        store.reserve(&[(vec![0], vec![9])], 10);
        let mut view = StoreView::shared(&store);
        view.write_slot(0, &[3], 2.0);
        view.write_slot(0, &[10], 1.0); // outside the reserved box
        assert_eq!(view.read_slot(0, &[3]), 2.0);
        let conflicts = view.into_conflicts();
        assert_eq!(conflicts, vec![("a".to_string(), vec![10])]);
        assert_eq!(store.get("a", &[3]), 2.0);
        assert_eq!(store.written_len(), 1);
    }

    #[test]
    fn stamps_flag_cross_unit_accesses_within_a_phase() {
        let mut store = ArrayStore::new();
        store.bind(&[("a".to_string(), 1)]);
        store.reserve(&[(vec![0], vec![9])], 10);
        store.set_stamping(true);
        let mut view = StoreView::shared(&store);
        view.set_unit(Some((0, 0)));
        view.write_slot(0, &[1], 1.0);
        view.read_slot(0, &[1]); // its own write
        view.set_unit(Some((0, 1)));
        view.read_slot(0, &[1]); // another unit's write: a conflict
        view.set_unit(Some((1, 0)));
        view.write_slot(0, &[1], 2.0); // a later phase: fine
        assert_eq!(view.into_conflicts(), vec![("a".to_string(), vec![1])]);
    }
}
