//! The array store: the memory the generated loops compute on.
//!
//! Arrays are stored sparsely (element index vector → `f64`), which handles
//! the negative subscripts of the Cholesky kernel and the unknown extents of
//! parametric loops without any up-front sizing.  Elements that were never
//! written read as a deterministic, index-dependent initial value so that
//! result comparison between the sequential and the parallel execution is
//! meaningful even for partially-initialised arrays.

use rcp_intlin::IVec;
use std::collections::HashMap;

/// A single (sparse, dynamically sized) multi-dimensional array of `f64`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Array {
    elements: HashMap<IVec, f64>,
}

impl Array {
    /// Creates an empty array.
    pub fn new() -> Self {
        Array::default()
    }

    /// Reads an element; unwritten elements return a deterministic initial
    /// value derived from the index (a stand-in for "whatever the program
    /// initialised the array with").
    pub fn get(&self, index: &[i64]) -> f64 {
        match self.elements.get(index) {
            Some(&v) => v,
            None => Self::initial_value(index),
        }
    }

    /// Writes an element.
    pub fn set(&mut self, index: &[i64], value: f64) {
        self.elements.insert(index.to_vec(), value);
    }

    /// Number of elements that have been written.
    pub fn written_len(&self) -> usize {
        self.elements.len()
    }

    /// The deterministic initial value of an element.
    pub fn initial_value(index: &[i64]) -> f64 {
        // A small, smooth, index-dependent value keeps kernels numerically
        // tame while making distinct elements distinguishable.
        let mut acc = 1.0f64;
        for (k, &x) in index.iter().enumerate() {
            acc += (x as f64) * 0.01 * (k as f64 + 1.0);
        }
        acc
    }

    /// Iterates the written elements.
    pub fn iter(&self) -> impl Iterator<Item = (&IVec, &f64)> {
        self.elements.iter()
    }
}

/// A named collection of arrays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArrayStore {
    arrays: HashMap<String, Array>,
}

impl ArrayStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ArrayStore::default()
    }

    /// Reads `array[index]`.
    pub fn get(&self, array: &str, index: &[i64]) -> f64 {
        match self.arrays.get(array) {
            Some(a) => a.get(index),
            None => Array::initial_value(index),
        }
    }

    /// Writes `array[index] = value`.
    pub fn set(&mut self, array: &str, index: &[i64], value: f64) {
        self.arrays
            .entry(array.to_string())
            .or_default()
            .set(index, value);
    }

    /// The named array, if any element of it has been written.
    pub fn array(&self, name: &str) -> Option<&Array> {
        self.arrays.get(name)
    }

    /// Removes and returns the named array (an empty array when it was
    /// never written).  Together with [`Self::insert_array`] this lets the
    /// phase-barrier merge take disjoint arrays out of the store, fill them
    /// on different threads, and put them back.
    pub fn take_array(&mut self, name: &str) -> Array {
        self.arrays.remove(name).unwrap_or_default()
    }

    /// (Re-)inserts an array under the given name, replacing any existing
    /// contents.
    pub fn insert_array(&mut self, name: &str, array: Array) {
        self.arrays.insert(name.to_string(), array);
    }

    /// Total number of written elements across all arrays.
    pub fn written_len(&self) -> usize {
        self.arrays.values().map(|a| a.written_len()).sum()
    }

    /// Compares two stores element-wise; returns the mismatching
    /// `(array, index, left, right)` tuples, those whose values differ by
    /// more than the absolute `tolerance` (a NaN matches only the same
    /// bit pattern).  Schedule verification passes
    /// 0.0 ([`crate::Verification::check`]): a legal schedule computes
    /// every element with the same operations in the same order as the
    /// sequential run, so its store matches bit for bit.
    pub fn diff(&self, other: &ArrayStore, tolerance: f64) -> Vec<(String, IVec, f64, f64)> {
        let mut mismatches = Vec::new();
        let mut names: Vec<&String> = self.arrays.keys().chain(other.arrays.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let empty = Array::new();
            let left = self.arrays.get(name.as_str()).unwrap_or(&empty);
            let right = other.arrays.get(name.as_str()).unwrap_or(&empty);
            let mut indices: Vec<&IVec> =
                left.elements.keys().chain(right.elements.keys()).collect();
            indices.sort();
            indices.dedup();
            for idx in indices {
                let a = left.get(idx);
                let b = right.get(idx);
                // A NaN matches only its own bit pattern: the difference
                // test alone would let it pass.
                let differ = (a - b).abs() > tolerance || a.is_nan() || b.is_nan();
                if differ && a.to_bits() != b.to_bits() {
                    mismatches.push((name.clone(), idx.clone(), a, b));
                }
            }
        }
        mismatches
    }
}

/// A read/write view of the store used by kernels.  The plain store
/// implements it directly; the parallel executor supplies buffered views
/// that defer writes until the end of a phase.
pub trait StoreView {
    /// Reads `array[index]`.
    fn read(&self, array: &str, index: &[i64]) -> f64;
    /// Writes `array[index] = value`.
    fn write(&mut self, array: &str, index: &[i64], value: f64);
}

impl StoreView for ArrayStore {
    fn read(&self, array: &str, index: &[i64]) -> f64 {
        self.get(array, index)
    }
    fn write(&mut self, array: &str, index: &[i64], value: f64) {
        self.set(array, index, value);
    }
}

/// A view that reads through to a frozen base store but keeps all writes in
/// a local overlay: used for chains and work items executed concurrently
/// with others in the same phase.
///
/// The overlay is keyed per array so that the hot read path needs no
/// allocation (a `&str` array name and `&[i64]` index borrow straight into
/// the maps).
pub struct BufferedView<'a> {
    base: &'a ArrayStore,
    overlay: HashMap<String, HashMap<IVec, f64>>,
}

impl<'a> BufferedView<'a> {
    /// Creates a view over a frozen base store.
    pub fn new(base: &'a ArrayStore) -> Self {
        BufferedView {
            base,
            overlay: HashMap::new(),
        }
    }

    /// The buffered writes grouped by array, in insertion-independent
    /// (sorted) order.
    pub fn into_writes(self) -> Vec<(String, Vec<(IVec, f64)>)> {
        let mut writes: Vec<(String, Vec<(IVec, f64)>)> = self
            .overlay
            .into_iter()
            .map(|(array, elements)| {
                let mut elements: Vec<(IVec, f64)> = elements.into_iter().collect();
                elements.sort_by(|x, y| x.0.cmp(&y.0));
                (array, elements)
            })
            .collect();
        writes.sort_by(|x, y| x.0.cmp(&y.0));
        writes
    }

    /// Total number of buffered writes.
    pub fn n_writes(&self) -> usize {
        self.overlay.values().map(|m| m.len()).sum()
    }
}

impl StoreView for BufferedView<'_> {
    fn read(&self, array: &str, index: &[i64]) -> f64 {
        match self.overlay.get(array).and_then(|m| m.get(index)) {
            Some(&v) => v,
            None => self.base.get(array, index),
        }
    }
    fn write(&mut self, array: &str, index: &[i64], value: f64) {
        match self.overlay.get_mut(array) {
            Some(m) => {
                m.insert(index.to_vec(), value);
            }
            None => {
                let mut m = HashMap::new();
                m.insert(index.to_vec(), value);
                self.overlay.insert(array.to_string(), m);
            }
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
        assert_eq!(s.written_len(), 2);
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
    fn buffered_view_semantics() {
        let mut base = ArrayStore::new();
        base.set("a", &[1], 10.0);
        let mut view = BufferedView::new(&base);
        // reads fall through
        assert_eq!(view.read("a", &[1]), 10.0);
        // writes are visible to later reads through the view…
        view.write("a", &[1], 20.0);
        view.write("a", &[2], 30.0);
        assert_eq!(view.read("a", &[1]), 20.0);
        // …but do not touch the base store
        assert_eq!(base.get("a", &[1]), 10.0);
        assert_eq!(view.n_writes(), 2);
        let writes = BufferedView::into_writes(view);
        assert_eq!(writes.len(), 1, "one array was written");
        assert_eq!(writes[0].1, vec![(vec![1], 20.0), (vec![2], 30.0)]);
    }
}
