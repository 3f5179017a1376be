//! Condensing: removing all-zero output columns (paper Fig. 8).
//!
//! "When all elements in a column are sparse, the condensing process removes
//! the corresponding column. This reduces the number of required operations
//! in the MMUL proportionally … Moreover, it decreases the required external
//! memory accesses for fetching weight data."

use crate::bitmask::Bitmask2D;

/// Outcome of global condensing over a full output bitmask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondenseStats {
    /// Original column count.
    pub total: usize,
    /// Columns with at least one non-sparse element (must still be computed).
    pub remaining: usize,
    /// Indices of the remaining columns, in original order.
    pub kept_columns: Vec<usize>,
}

impl CondenseStats {
    /// Remaining-column fraction (the paper's Fig. 8 percentages: 13.8% for
    /// MLD, 77.4% for Stable Diffusion).
    pub fn remaining_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.remaining as f64 / self.total as f64
        }
    }
}

/// Applies global condensing: a column survives iff any row has a set bit.
pub fn condense_global(mask: &Bitmask2D) -> CondenseStats {
    let kept_columns: Vec<usize> = (0..mask.cols()).filter(|&c| !mask.col_is_zero(c)).collect();
    CondenseStats {
        total: mask.cols(),
        remaining: kept_columns.len(),
        kept_columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_nonzero_columns() {
        let mask = Bitmask2D::from_fn(4, 5, |r, c| c == 1 || (c == 3 && r == 2));
        let stats = condense_global(&mask);
        assert_eq!(stats.total, 5);
        assert_eq!(stats.remaining, 2);
        assert_eq!(stats.kept_columns, vec![1, 3]);
        assert!((stats.remaining_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn all_zero_mask_condenses_fully() {
        let stats = condense_global(&Bitmask2D::zeros(8, 8));
        assert_eq!(stats.remaining, 0);
        assert!(stats.kept_columns.is_empty());
    }

    #[test]
    fn dense_mask_keeps_everything() {
        let stats = condense_global(&Bitmask2D::ones(2, 3));
        assert_eq!(stats.remaining, 3);
        assert!((stats.remaining_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tall_matrix_condenses_poorly() {
        // The paper's Stable Diffusion observation: with many rows, a column
        // is rarely all-zero even at high overall sparsity.
        let short = Bitmask2D::from_fn(4, 100, |r, c| (r * 53 + c * 7) % 20 == 0);
        let tall = Bitmask2D::from_fn(256, 100, |r, c| (r * 53 + c * 7) % 20 == 0);
        let f_short = condense_global(&short).remaining_fraction();
        let f_tall = condense_global(&tall).remaining_fraction();
        assert!(f_tall > f_short, "tall {f_tall} vs short {f_short}");
    }
}
