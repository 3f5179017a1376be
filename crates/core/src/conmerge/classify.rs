//! Sparsity-level classification and the SortBuffer (paper Fig. 13).
//!
//! "A sparsity-level classifier first counts the number of non-zero bits in
//! the bitmask and decides the sparsity level of each input data, from high
//! dense to high sparse. Next, the SortBuffer selects a class and stores the
//! data in the corresponding class … if a class is full, it sends the input
//! bitmask with the column index to the next sparse class, and if that is
//! also full, it sends the bitmask to the extra class."
//!
//! The result is a *coarse* sort — "not completely but in a coarse manner,
//! which is sufficient to increase the success ratio of merging".

use super::merge::ColumnEntry;

/// The SortBuffer's five sparsity classes, densest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SparsityClass {
    /// ≥ 75% of rows set.
    HighDense,
    /// 50–75% set.
    Dense,
    /// 25–50% set.
    Sparse,
    /// < 25% set (but non-zero — all-zero columns are condensed away).
    HighSparse,
    /// Overflow class for entries whose own and fallback classes were full.
    Extra,
}

impl SparsityClass {
    /// Classifies a column by the set-bit count of its `height`-row bitmask.
    ///
    /// # Panics
    ///
    /// Panics if `popcount` is 0 (condensed columns never reach the
    /// SortBuffer) or exceeds `height`.
    pub fn classify(popcount: usize, height: usize) -> Self {
        assert!(
            popcount > 0,
            "all-zero columns are condensed, not classified"
        );
        assert!(
            popcount <= height,
            "popcount {popcount} exceeds height {height}"
        );
        let frac = popcount as f64 / height as f64;
        if frac >= 0.75 {
            SparsityClass::HighDense
        } else if frac >= 0.5 {
            SparsityClass::Dense
        } else if frac >= 0.25 {
            SparsityClass::Sparse
        } else {
            SparsityClass::HighSparse
        }
    }

    /// The next-sparser class an overflowing entry falls through to
    /// (`Extra` is terminal).
    pub fn next_sparser(&self) -> SparsityClass {
        match self {
            SparsityClass::HighDense => SparsityClass::Dense,
            SparsityClass::Dense => SparsityClass::Sparse,
            SparsityClass::Sparse => SparsityClass::HighSparse,
            SparsityClass::HighSparse | SparsityClass::Extra => SparsityClass::Extra,
        }
    }
}

/// The CAU's class-partitioned sort buffer.
///
/// Entries land in their sparsity class (falling through on overflow per the
/// paper), and [`SortBuffer::drain_densest_first`] yields the coarsely sorted
/// column order the ConMerge vector generator consumes.
#[derive(Debug, Clone)]
pub struct SortBuffer {
    height: usize,
    capacity_per_class: usize,
    classes: [Vec<ColumnEntry>; 5],
}

impl SortBuffer {
    /// Creates a buffer for `height`-row tiles. `capacity_per_class` bounds
    /// each non-`Extra` class (the hardware's fixed SRAM banks); the `Extra`
    /// class is unbounded in the model.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_class` is zero.
    pub fn new(height: usize, capacity_per_class: usize) -> Self {
        assert!(capacity_per_class > 0, "class capacity must be positive");
        Self {
            height,
            capacity_per_class,
            classes: Default::default(),
        }
    }

    fn class_index(class: SparsityClass) -> usize {
        match class {
            SparsityClass::HighDense => 0,
            SparsityClass::Dense => 1,
            SparsityClass::Sparse => 2,
            SparsityClass::HighSparse => 3,
            SparsityClass::Extra => 4,
        }
    }

    /// Inserts a column entry, applying the overflow fall-through rule.
    ///
    /// # Panics
    ///
    /// Panics if the entry's bitmask is all-zero (should have been condensed).
    pub fn push(&mut self, entry: ColumnEntry) {
        let pop = entry.mask.count_ones() as usize;
        let mut class = SparsityClass::classify(pop, self.height);
        loop {
            let idx = Self::class_index(class);
            let is_extra = class == SparsityClass::Extra;
            if is_extra || self.classes[idx].len() < self.capacity_per_class {
                self.classes[idx].push(entry);
                return;
            }
            class = class.next_sparser();
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently in `class`.
    pub fn class(&self, class: SparsityClass) -> &[ColumnEntry] {
        &self.classes[Self::class_index(class)]
    }

    /// Drains all entries, densest class first (`Extra` entries are emitted by
    /// their own popcount position: the model re-sorts only the coarse class
    /// order, matching the hardware's class-granular read).
    pub fn drain_densest_first(&mut self) -> Vec<ColumnEntry> {
        let mut out = Vec::with_capacity(self.len());
        // Extra entries rejoin the stream after HighSparse (they overflowed
        // toward the sparse end by construction).
        for class in [
            SparsityClass::HighDense,
            SparsityClass::Dense,
            SparsityClass::Sparse,
            SparsityClass::HighSparse,
            SparsityClass::Extra,
        ] {
            out.append(&mut self.classes[Self::class_index(class)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(origin: usize, mask: u64) -> ColumnEntry {
        ColumnEntry { origin, mask }
    }

    #[test]
    fn classify_bands() {
        assert_eq!(SparsityClass::classify(16, 16), SparsityClass::HighDense);
        assert_eq!(SparsityClass::classify(12, 16), SparsityClass::HighDense);
        assert_eq!(SparsityClass::classify(8, 16), SparsityClass::Dense);
        assert_eq!(SparsityClass::classify(4, 16), SparsityClass::Sparse);
        assert_eq!(SparsityClass::classify(1, 16), SparsityClass::HighSparse);
    }

    #[test]
    #[should_panic(expected = "condensed")]
    fn classify_rejects_zero_popcount() {
        let _ = SparsityClass::classify(0, 16);
    }

    #[test]
    fn next_sparser_chain_terminates_at_extra() {
        let mut c = SparsityClass::HighDense;
        for _ in 0..10 {
            c = c.next_sparser();
        }
        assert_eq!(c, SparsityClass::Extra);
    }

    #[test]
    fn push_lands_in_matching_class() {
        let mut buf = SortBuffer::new(16, 4);
        buf.push(entry(0, 0xFFFF)); // 16 ones → HighDense
        buf.push(entry(1, 0x0001)); // 1 one → HighSparse
        assert_eq!(buf.class(SparsityClass::HighDense).len(), 1);
        assert_eq!(buf.class(SparsityClass::HighSparse).len(), 1);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn overflow_falls_through_to_sparser_class_then_extra() {
        let mut buf = SortBuffer::new(16, 1);
        buf.push(entry(0, 0xFFFF)); // HighDense (fills it)
        buf.push(entry(1, 0xFFFF)); // overflows → Dense
        buf.push(entry(2, 0xFFFF)); // overflows Dense → Sparse
        buf.push(entry(3, 0xFFFF)); // → HighSparse
        buf.push(entry(4, 0xFFFF)); // → Extra
        buf.push(entry(5, 0xFFFF)); // Extra is unbounded
        assert_eq!(buf.class(SparsityClass::Dense).len(), 1);
        assert_eq!(buf.class(SparsityClass::Extra).len(), 2);
    }

    #[test]
    fn drain_is_coarsely_densest_first() {
        let mut buf = SortBuffer::new(16, 8);
        buf.push(entry(0, 0x0001)); // HighSparse
        buf.push(entry(1, 0xFFFF)); // HighDense
        buf.push(entry(2, 0x00FF)); // Dense
        let order: Vec<usize> = buf.drain_densest_first().iter().map(|e| e.origin).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert!(buf.is_empty());
    }
}
