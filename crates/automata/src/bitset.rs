//! A dense, fixed-capacity bit set.
//!
//! Sleep sets (§5 of the paper) and Floyd/Hoare assertion sets are small,
//! dense sets over a fixed universe, so a `Vec<u64>`-backed bit set is the
//! natural representation. The type is `Ord + Hash` so it can key visited-set
//! maps during the on-the-fly proof check.

use std::fmt;

/// A set of `usize` values below a fixed capacity, stored as packed bits.
///
/// # Example
///
/// ```
/// use automata::BitSet;
///
/// let mut s = BitSet::new(128);
/// s.insert(3);
/// s.insert(77);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 77]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`, returning `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= self.capacity()`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(value < self.capacity, "bitset value out of range");
        let (w, b) = (value / 64, value % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Tests membership of `value`.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / 64] & (1 << (value % 64)) != 0
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no element.
    pub fn is_disjoint_from(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set whose capacity is one past the maximum
    /// value (or zero for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for v in values {
            set.insert(v);
        }
        set
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Iterator over the elements of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(s.insert(0));
        assert!(s.insert(199));
        assert!(!s.insert(0), "re-insert reports not fresh");
        assert!(s.contains(0));
        assert!(s.contains(199));
        assert!(!s.contains(100));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1_000_000));
    }

    #[test]
    fn set_ops() {
        let mut a: BitSet = [1usize, 2, 3].into_iter().collect();
        let b: BitSet = [2usize, 3].into_iter().collect();
        // from_iter capacities: a has cap 4, b has cap 4.
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
        a.union_with(&[0usize, 3].into_iter().collect());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn disjoint() {
        let a: BitSet = [0usize, 2].into_iter().collect();
        let mut b = BitSet::new(3);
        b.insert(1);
        assert!(a.is_disjoint_from(&b));
        b.insert(2);
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn iter_order() {
        let mut s = BitSet::new(300);
        for v in [257, 3, 64, 65, 128] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 128, 257]);
    }

    #[test]
    fn empty_and_clear() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut t = BitSet::new(70);
        t.insert(69);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = BitSet::new(4);
        assert_eq!(format!("{s:?}"), "{}");
    }
}
