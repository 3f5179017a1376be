//! The ConMerge vector generator (paper Figs. 13–14): drives per-tile
//! condensing, sorting, and the block-merge schedule, and accounts the cycles
//! the CAU spends doing it.
//!
//! Cycle model (documented here, used by Fig. 12's sorted-vs-unsorted
//! comparison and by the simulator's CAU pipeline):
//!
//! * 1 cycle per incoming column entry (sparsity-level classification and
//!   SortBuffer insert — pipelined with the SDUE's dense iteration),
//! * 1 cycle per block read out of the SortBuffer,
//! * per merge attempt: 1 cycle to build the bitmask map, 1 cycle for the
//!   initial DOF evaluation, and 1 cycle per conflict-solving step — whether
//!   the attempt ultimately succeeds or fails;
//! * a failed attempt additionally pays a retry penalty (SortBuffer re-read,
//!   bitmask-map teardown, pipeline restart) — the waste that sorting
//!   removes (Fig. 12).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use super::classify::SortBuffer;
use super::merge::{Block, ColumnEntry, MergedBlock};

/// Extra cycles a failed merge attempt wastes on top of its resolution steps
/// (SortBuffer re-read and bitmask-map teardown before retrying).
const FAILED_ATTEMPT_PENALTY: u64 = 4;

/// Result of generating ConMerge vectors for one row-tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvgResult {
    /// The merged blocks the SDUE will execute, in schedule order.
    pub merged_blocks: Vec<MergedBlock>,
    /// CVG cycles spent (classification + reads + merge attempts).
    pub cycles: u64,
    /// Cycles spent in the merge phase only (attempts, conflict resolution,
    /// failure penalties) — the quantity Fig. 12 compares sorted vs unsorted.
    pub merge_cycles: u64,
    /// Columns presented to the CAU.
    pub input_cols: usize,
    /// Columns surviving per-tile condensing (non-zero bitmask).
    pub surviving_cols: usize,
    /// Merge attempts that failed (wasted work, reduced by sorting).
    pub failed_attempts: u64,
}

impl CvgResult {
    /// Equivalent remaining-column count: each merged block still occupies a
    /// full array pass of `width` columns.
    pub fn remaining_equivalent_cols(&self, width: usize) -> usize {
        self.merged_blocks.len() * width
    }
}

/// Per-tile ConMerge vector generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorGenerator {
    height: usize,
    width: usize,
    sorted: bool,
    max_merges: usize,
}

impl VectorGenerator {
    /// Creates a generator for `height`-row tiles on a `width`-column array.
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or exceeds 64, or `width` is 0.
    pub fn new(height: usize, width: usize, sorted: bool) -> Self {
        assert!((1..=64).contains(&height), "tile height must be in 1..=64");
        assert!(width > 0, "array width must be positive");
        Self {
            height,
            width,
            sorted,
            max_merges: 2,
        }
    }

    /// Sets the maximum number of merges per output block (EXION: 2).
    pub fn with_max_merges(mut self, max_merges: usize) -> Self {
        self.max_merges = max_merges;
        self
    }

    /// Generates the merged-block schedule for one tile's column entries.
    ///
    /// # Panics
    ///
    /// Panics if any entry's mask has bits above the tile height.
    pub fn generate(&self, entries: Vec<ColumnEntry>) -> CvgResult {
        let input_cols = entries.len();
        // Classification: one cycle per column (Fig. 13's monitoring logic).
        let mut cycles = input_cols as u64;

        // Per-tile condensing: all-zero columns are never stored.
        let surviving: Vec<ColumnEntry> = entries.into_iter().filter(|e| e.mask != 0).collect();
        let surviving_cols = surviving.len();

        // Coarse sparsity sort (or the original order for the ablation).
        let ordered = if self.sorted {
            let mut buf = SortBuffer::new(self.height, surviving_cols.max(1));
            for e in surviving {
                buf.push(e);
            }
            buf.drain_densest_first()
        } else {
            surviving
        };

        // Chunk into blocks of array width; one read cycle per block.
        let mut queue: VecDeque<Block> = ordered
            .chunks(self.width)
            .map(|chunk| Block::new(self.height, chunk.to_vec()))
            .collect();
        cycles += queue.len() as u64;

        let mut merged_blocks = Vec::new();
        let mut failed_attempts = 0u64;
        let mut merge_cycles = 0u64;
        while let Some(base) = queue.pop_front() {
            let mut merged = MergedBlock::from_block(&base, self.width);
            let mut merges_done = 0;
            while merges_done < self.max_merges && !queue.is_empty() {
                let mut success = None;
                for t in 0..queue.len() {
                    // Sorted: pair the dense front with candidates from the
                    // sparse back ("(Dense+Sparse) + Sparse_Next"). Unsorted:
                    // take blocks in their arrival order.
                    let i = if self.sorted { queue.len() - 1 - t } else { t };
                    match merged.try_merge(&queue[i], (merges_done + 1) as u8) {
                        Ok((m, c)) => {
                            merge_cycles += c;
                            success = Some((m, i));
                            break;
                        }
                        Err(c) => {
                            merge_cycles += c + FAILED_ATTEMPT_PENALTY;
                            failed_attempts += 1;
                        }
                    }
                }
                match success {
                    Some((m, i)) => {
                        merged = m;
                        queue.remove(i);
                        merges_done += 1;
                    }
                    None => break,
                }
            }
            merged_blocks.push(merged);
        }
        cycles += merge_cycles;

        CvgResult {
            merged_blocks,
            cycles,
            merge_cycles,
            input_cols,
            surviving_cols,
            failed_attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn entries_from_masks(masks: &[u64]) -> Vec<ColumnEntry> {
        masks
            .iter()
            .enumerate()
            .map(|(origin, &mask)| ColumnEntry { origin, mask })
            .collect()
    }

    #[test]
    fn empty_tile_produces_no_blocks() {
        let r = VectorGenerator::new(16, 16, true).generate(Vec::new());
        assert!(r.merged_blocks.is_empty());
        assert_eq!(r.input_cols, 0);
    }

    #[test]
    fn all_zero_columns_are_condensed() {
        let r = VectorGenerator::new(16, 16, true).generate(entries_from_masks(&[0, 0, 0, 0]));
        assert_eq!(r.input_cols, 4);
        assert_eq!(r.surviving_cols, 0);
        assert!(r.merged_blocks.is_empty());
    }

    #[test]
    fn three_sparse_blocks_merge_into_one() {
        // 3 columns of width-1 array, disjoint rows → 3 blocks merge to 1.
        let r = VectorGenerator::new(4, 1, true)
            .generate(entries_from_masks(&[0b0001, 0b0010, 0b0100]));
        assert_eq!(r.merged_blocks.len(), 1);
        assert_eq!(r.merged_blocks[0].source_blocks(), 3);
        assert_eq!(r.remaining_equivalent_cols(1), 1);
    }

    #[test]
    fn max_merges_zero_disables_merging() {
        let r = VectorGenerator::new(4, 1, true)
            .with_max_merges(0)
            .generate(entries_from_masks(&[0b0001, 0b0010, 0b0100]));
        assert_eq!(r.merged_blocks.len(), 3);
        assert!(r.merged_blocks.iter().all(|b| b.source_blocks() == 1));
    }

    #[test]
    fn coverage_preserved_across_schedule() {
        let masks = [0b1010u64, 0b0101, 0b0011, 0b1000, 0b0110, 0, 0b0001];
        let r = VectorGenerator::new(4, 2, true).generate(entries_from_masks(&masks));
        let total_bits: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
        let placed: usize = r.merged_blocks.iter().map(|b| b.occupied_slots()).sum();
        assert_eq!(placed, total_bits);
        // Every original (row, col) bit appears exactly once.
        let mut cover: Vec<(usize, usize)> =
            r.merged_blocks.iter().flat_map(|b| b.coverage()).collect();
        cover.sort_unstable();
        let mut want = Vec::new();
        for (c, &m) in masks.iter().enumerate() {
            for row in 0..4 {
                if m >> row & 1 == 1 {
                    want.push((row, c));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(cover, want);
    }

    #[test]
    fn sorting_reduces_cycles_on_mixed_density_workloads() {
        // Fig. 12: merging after sorting cuts CVG cycles by 29–73%. Use a
        // bimodal, randomly interleaved column population (very dense and
        // very sparse): unsorted blocks end up mixed-density and their merges
        // fail often, wasting resolution cycles.
        let mut rng = StdRng::seed_from_u64(42);
        let mut masks: Vec<u64> = Vec::new();
        for _ in 0..96 {
            // popcount ~13 of 16
            let mut dense = 0xFFFFu64;
            for _ in 0..3 {
                dense &= !(1u64 << rng.random_range(0..16));
            }
            masks.push(dense);
            masks.push(1u64 << rng.random_range(0..16));
        }
        // Shuffle deterministically so density is interleaved arbitrarily.
        for i in (1..masks.len()).rev() {
            masks.swap(i, rng.random_range(0..i + 1));
        }
        let sorted = VectorGenerator::new(16, 16, true).generate(entries_from_masks(&masks));
        let unsorted = VectorGenerator::new(16, 16, false).generate(entries_from_masks(&masks));
        assert!(
            sorted.cycles < unsorted.cycles,
            "sorted {} vs unsorted {}",
            sorted.cycles,
            unsorted.cycles
        );
        assert!(sorted.merged_blocks.len() <= unsorted.merged_blocks.len());
    }

    #[test]
    fn merged_block_count_bounded_below_by_thirds() {
        // With max 3 sources per block, N surviving blocks cannot shrink below
        // ceil(N/3).
        let masks: Vec<u64> = (0..48).map(|i| 1u64 << (i % 16)).collect();
        let r = VectorGenerator::new(16, 16, true).generate(entries_from_masks(&masks));
        let dense_blocks = 48usize.div_ceil(16);
        assert!(r.merged_blocks.len() >= dense_blocks.div_ceil(3));
    }

    #[test]
    fn cycles_grow_with_input() {
        let small = VectorGenerator::new(16, 16, true).generate(entries_from_masks(&[0xFFFF; 16]));
        let large = VectorGenerator::new(16, 16, true).generate(entries_from_masks(&[0xFFFF; 64]));
        assert!(large.cycles > small.cycles);
    }
}
