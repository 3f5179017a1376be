//! Shared sparsity and operation-count bookkeeping.

/// Zero / total element counters with a sparsity accessor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparsityStats {
    /// Number of sparse (skipped / zero) elements.
    pub zero: u64,
    /// Total number of elements.
    pub total: u64,
}

impl SparsityStats {
    /// Creates stats from explicit counts.
    ///
    /// # Panics
    ///
    /// Panics if `zero > total`.
    pub fn new(zero: u64, total: u64) -> Self {
        assert!(zero <= total, "zero count {zero} exceeds total {total}");
        Self { zero, total }
    }

    /// Fraction of sparse elements in `[0, 1]`; 0.0 for an empty population.
    pub fn sparsity(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.zero as f64 / self.total as f64
        }
    }

    /// Merges two populations.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            zero: self.zero + other.zero,
            total: self.total + other.total,
        }
    }
}

/// Multiply-accumulate operation counters: `performed` vs the `dense`
/// baseline, giving the paper's "# of Ops reduction" percentages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// MAC operations actually performed.
    pub performed: u64,
    /// MAC operations a dense execution would have performed.
    pub dense: u64,
}

impl OpCounts {
    /// Creates counters from explicit values.
    pub fn new(performed: u64, dense: u64) -> Self {
        Self { performed, dense }
    }

    /// Fraction of dense work skipped, in `[0, 1]`; 0.0 for an empty baseline.
    pub fn reduction(&self) -> f64 {
        if self.dense == 0 {
            0.0
        } else {
            1.0 - self.performed as f64 / self.dense as f64
        }
    }

    /// Merges two counters.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            performed: self.performed + other.performed,
            dense: self.dense + other.dense,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_fraction() {
        let s = SparsityStats::new(97, 100);
        assert!((s.sparsity() - 0.97).abs() < 1e-12);
        assert_eq!(SparsityStats::default().sparsity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn sparsity_rejects_impossible_counts() {
        let _ = SparsityStats::new(5, 4);
    }

    #[test]
    fn merge_adds_counts() {
        let a = SparsityStats::new(1, 2);
        let b = SparsityStats::new(3, 4);
        let m = a.merge(&b);
        assert_eq!(m, SparsityStats::new(4, 6));
    }

    #[test]
    fn op_reduction() {
        let o = OpCounts::new(25, 100);
        assert!((o.reduction() - 0.75).abs() < 1e-12);
        assert_eq!(OpCounts::default().reduction(), 0.0);
    }

    #[test]
    fn op_merge() {
        let m = OpCounts::new(1, 2).merge(&OpCounts::new(3, 4));
        assert_eq!(m, OpCounts::new(4, 6));
    }
}
