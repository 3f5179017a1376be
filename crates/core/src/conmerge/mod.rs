//! The ConMerge data-compaction mechanism (paper Section III-B, Figs. 8–9 and
//! 12–14).
//!
//! GPUs cannot exploit the fine-grained, unstructured *output* sparsity that
//! FFN-Reuse and eager prediction create. ConMerge converts the large sparse
//! output bitmask into a small number of dense 16×16 work blocks:
//!
//! 1. **Condensing** ([`condense`]) removes columns whose bitmask is entirely
//!    zero. This happens at two granularities: globally (Fig. 8's metric) and
//!    per 16-row tile inside the CAU — "when data in bitmasks are all zero,
//!    those inputs are not stored in the SortBuffer, constituting the
//!    condensing in the ConMerge mechanism" (Fig. 13).
//! 2. **Sorting** ([`classify`]) coarsely orders the surviving columns by
//!    sparsity level in the SortBuffer, so dense blocks are merged with sparse
//!    blocks, cutting merge-failure cycles by 29–73% (Fig. 12).
//! 3. **Merging** ([`merge`]) overlays up to three blocks into one, resolving
//!    position conflicts by relocating elements to empty rows under the
//!    conflict-vector constraint (one alternate input row per DPU lane) and
//!    the triple-buffered-WMEM constraint (at most three weight-column origins
//!    per array column).
//!
//! [`TileCompactor`] runs the full pipeline over a whole output bitmask, one
//! row-tile at a time, exactly as the hardware does, and [`cvg`] accounts the
//! ConMerge-vector-generation cycles.

pub mod classify;
pub mod condense;
pub mod cvg;
pub mod encoding;
pub mod merge;

pub use classify::{SortBuffer, SparsityClass};
pub use condense::{condense_global, CondenseStats};
pub use cvg::{CvgResult, VectorGenerator};
pub use encoding::{blocks_per_cvmem, EncodedVectors};
pub use merge::{Block, ColumnEntry, MergedBlock, Slot};

use crate::bitmask::Bitmask2D;

/// Configuration of the compaction pipeline, defaulting to the paper's
/// EXION configuration (16×16 DPU array, sorted merging, two merge steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionConfig {
    /// DPU-array height (rows per tile; IMEM/OMEM bank count). Max 64.
    pub tile_height: usize,
    /// DPU-array width (columns per block; WMEM bank count).
    pub tile_width: usize,
    /// Sort columns by sparsity class before merging (Fig. 12). Disable for
    /// the unsorted ablation.
    pub sorted: bool,
    /// Maximum merges per output block: 2 in EXION (triple-buffered WMEM ⇒
    /// up to 3 source blocks). 0 disables merging (condense-only ablation).
    pub max_merges: usize,
}

impl CompactionConfig {
    /// The paper's toy model of Figs. 8–9 and 11: an 8-row × 3-column array.
    pub fn toy() -> Self {
        Self {
            tile_height: 8,
            tile_width: 3,
            sorted: true,
            max_merges: 2,
        }
    }
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            tile_height: 16,
            tile_width: 16,
            sorted: true,
            max_merges: 2,
        }
    }
}

/// Aggregate result of compacting a whole output bitmask.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionReport {
    /// Number of row-tiles processed.
    pub tiles: usize,
    /// Column count of the original output matrix.
    pub input_cols: usize,
    /// Dense execution baseline: blocks the array would run without ConMerge
    /// (`tiles * ceil(input_cols / width)`).
    pub dense_blocks: u64,
    /// Blocks remaining after condense + merge.
    pub merged_blocks: u64,
    /// Columns surviving *global* condensing (the Fig. 8 metric: a column is
    /// removed only if it is zero across **all** rows).
    pub global_condense_cols: usize,
    /// Block count if only per-tile condensing ran (merging disabled).
    pub condense_only_blocks: u64,
    /// Total CVG cycles spent generating ConMerge vectors.
    pub cvg_cycles: u64,
    /// Occupied slot fraction over all merged blocks (what clock gating acts
    /// on after merging).
    pub mean_block_utilization: f64,
}

impl CompactionReport {
    /// Remaining-column fraction after the full ConMerge pipeline
    /// (the Fig. 9 / Fig. 17 "Merging" metric).
    pub fn remaining_column_fraction(&self) -> f64 {
        if self.dense_blocks == 0 {
            0.0
        } else {
            self.merged_blocks as f64 / self.dense_blocks as f64
        }
    }

    /// Remaining-column fraction after global condensing only
    /// (the Fig. 8 / Fig. 17 "Condensing" metric).
    pub fn global_condense_fraction(&self) -> f64 {
        if self.input_cols == 0 {
            0.0
        } else {
            self.global_condense_cols as f64 / self.input_cols as f64
        }
    }

    /// Remaining-block fraction with per-tile condensing but no merging
    /// (ablation).
    pub fn condense_only_fraction(&self) -> f64 {
        if self.dense_blocks == 0 {
            0.0
        } else {
            self.condense_only_blocks as f64 / self.dense_blocks as f64
        }
    }
}

/// Runs the ConMerge pipeline over whole output bitmasks, tile by tile.
#[derive(Debug, Clone)]
pub struct TileCompactor {
    config: CompactionConfig,
}

impl TileCompactor {
    /// Creates a compactor.
    ///
    /// # Panics
    ///
    /// Panics if `tile_height` is 0 or exceeds 64, or `tile_width` is 0.
    pub fn new(config: CompactionConfig) -> Self {
        assert!(
            (1..=64).contains(&config.tile_height),
            "tile height must be in 1..=64"
        );
        assert!(config.tile_width > 0, "tile width must be positive");
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> CompactionConfig {
        self.config
    }

    /// Compacts one row-tile `[row0, row0 + height)` of an output bitmask.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds the mask bounds.
    pub fn compact_tile(&self, mask: &Bitmask2D, row0: usize, height: usize) -> CvgResult {
        let entries: Vec<ColumnEntry> = (0..mask.cols())
            .map(|c| ColumnEntry {
                origin: c,
                mask: mask.tile_col_mask(row0, height, c),
            })
            .collect();
        VectorGenerator::new(height, self.config.tile_width, self.config.sorted)
            .with_max_merges(self.config.max_merges)
            .generate(entries)
    }

    /// Compacts a whole output bitmask and aggregates the per-tile results.
    pub fn compact_matrix(&self, mask: &Bitmask2D) -> CompactionReport {
        let width = self.config.tile_width;
        let mut report = CompactionReport {
            input_cols: mask.cols(),
            global_condense_cols: condense_global(mask).remaining,
            ..CompactionReport::default()
        };
        let mut occupied = 0u64;
        let mut slots = 0u64;
        let mut row0 = 0;
        while row0 < mask.rows() {
            let height = self.config.tile_height.min(mask.rows() - row0);
            let r = self.compact_tile(mask, row0, height);
            report.tiles += 1;
            report.dense_blocks += mask.cols().div_ceil(width) as u64;
            report.merged_blocks += r.merged_blocks.len() as u64;
            report.condense_only_blocks += r.surviving_cols.div_ceil(width) as u64;
            report.cvg_cycles += r.cycles;
            for b in &r.merged_blocks {
                occupied += b.occupied_slots() as u64;
                slots += (b.height() * b.width()) as u64;
            }
            row0 += height;
        }
        report.mean_block_utilization = if slots == 0 {
            0.0
        } else {
            occupied as f64 / slots as f64
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_mask_cannot_compact() {
        let mask = Bitmask2D::ones(16, 64);
        let report = TileCompactor::new(CompactionConfig::default()).compact_matrix(&mask);
        assert_eq!(report.merged_blocks, report.dense_blocks);
        assert!((report.remaining_column_fraction() - 1.0).abs() < 1e-12);
        assert!((report.global_condense_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mask_compacts_to_nothing() {
        let mask = Bitmask2D::zeros(16, 64);
        let report = TileCompactor::new(CompactionConfig::default()).compact_matrix(&mask);
        assert_eq!(report.merged_blocks, 0);
        assert_eq!(report.global_condense_cols, 0);
    }

    #[test]
    fn sparse_mask_compacts_below_condense_only() {
        // ~6% density, scattered: global condensing barely helps (tall
        // matrix), but tile condensing + merging collapse most blocks.
        let mask = Bitmask2D::from_fn(64, 128, |r, c| (r * 37 + c * 11) % 17 == 0);
        let report = TileCompactor::new(CompactionConfig::default()).compact_matrix(&mask);
        assert!(report.merged_blocks <= report.condense_only_blocks);
        assert!(report.remaining_column_fraction() < report.global_condense_fraction());
    }

    #[test]
    fn merging_never_increases_blocks() {
        let mask = Bitmask2D::from_fn(32, 96, |r, c| (r + c) % 7 == 0);
        let merged = TileCompactor::new(CompactionConfig::default()).compact_matrix(&mask);
        let condense_only = TileCompactor::new(CompactionConfig {
            max_merges: 0,
            ..CompactionConfig::default()
        })
        .compact_matrix(&mask);
        assert!(merged.merged_blocks <= condense_only.merged_blocks);
        assert_eq!(
            condense_only.merged_blocks,
            condense_only.condense_only_blocks
        );
    }

    #[test]
    fn ragged_tail_tile_is_processed() {
        let mask = Bitmask2D::from_fn(20, 20, |r, c| r == 0 && c < 3);
        let report = TileCompactor::new(CompactionConfig::default()).compact_matrix(&mask);
        assert_eq!(report.tiles, 2); // 16 + 4 rows
        assert_eq!(report.merged_blocks, 1); // only the first tile has work
    }

    #[test]
    #[should_panic(expected = "tile height")]
    fn rejects_oversized_tile_height() {
        let _ = TileCompactor::new(CompactionConfig {
            tile_height: 65,
            ..CompactionConfig::default()
        });
    }
}
