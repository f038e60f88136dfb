//! A fixed-capacity bitset used for exact past/future-cone computation.
//!
//! The cone DP unions one ancestor set into another millions of times per
//! analysis pass; a dense `u64`-word bitset makes that a straight word-wise
//! OR which the compiler auto-vectorizes.

/// Fixed-capacity set of `usize` indices `< capacity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Insert `i`. Returns whether the bit was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit index {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// `self ∪= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.remove(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_adds_the_other_set() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(70);
        b.insert(3);
        a.union_with(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(200);
        for &i in &[199, 0, 65, 64, 127] {
            s.insert(i);
        }
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 64, 65, 127, 199]);
    }

    #[test]
    fn a_new_set_is_empty() {
        let s = BitSet::new(10);
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }
}
