//! Merging: overlaying sparse blocks into one dense block (paper Figs. 9
//! and 14).
//!
//! A *block* is up to `width` output columns over one row-tile. Merging
//! overlays an incoming block onto a (possibly already merged) block:
//!
//! * positions occupied in only one block transfer directly;
//! * positions occupied in both — **conflicts** — are resolved by moving the
//!   incoming element "to other sparse rows within the same column";
//! * each relocation makes the destination DPU lane read the source input row
//!   over its *conflict line*, so a lane can host relocated elements from at
//!   most **one** source row — the per-lane conflict vector (CV) slot;
//! * each array column can broadcast at most three weight columns (the
//!   triple-buffered WMEM), so a merged block has at most three source blocks.
//!
//! Conflict resolution order follows Fig. 14: the column with the smallest
//! *degree of freedom* (empty-and-CV-writable slots minus pending conflicts)
//! is resolved first, pairing its first conflict with its first compatible
//! empty slot.

use serde::{Deserialize, Serialize};

/// One output column of a row-tile: its original weight-column index and its
/// packed row bitmask (bit `i` = row `i` must be computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnEntry {
    /// Original weight-column index (the CAU's 10-bit "Col. Origin Idx").
    pub origin: usize,
    /// Row bitmask (the CAU's 16-bit "BitMask", generalized to 64 rows).
    pub mask: u64,
}

impl ColumnEntry {
    /// Number of rows that must be computed.
    pub fn popcount(&self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// Up to `width` column entries scheduled together on the DPU array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    height: usize,
    cols: Vec<ColumnEntry>,
}

impl Block {
    /// Creates a block over a `height`-row tile.
    ///
    /// # Panics
    ///
    /// Panics if `height` exceeds 64 or any mask has bits above `height`.
    pub fn new(height: usize, cols: Vec<ColumnEntry>) -> Self {
        assert!(height <= 64, "tile height above 64 unsupported");
        for c in &cols {
            assert!(
                height == 64 || c.mask >> height == 0,
                "column {} mask has bits above height {height}",
                c.origin
            );
        }
        Self { height, cols }
    }

    /// Tile height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of columns in the block.
    pub fn width_used(&self) -> usize {
        self.cols.len()
    }

    /// The column entries.
    pub fn cols(&self) -> &[ColumnEntry] {
        &self.cols
    }

    /// Total number of set bits.
    pub fn popcount(&self) -> usize {
        self.cols.iter().map(|c| c.popcount()).sum()
    }
}

/// One DPU's work assignment inside a merged block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Input row the DPU reads (its own lane row, or the CV row over the
    /// conflict line).
    pub input_row: usize,
    /// Original weight-column index (selects the WMEM bank content).
    pub weight_col: usize,
    /// Which of the three WMEM buffers holds the weight column (the 2-bit
    /// `w_sw` control).
    pub wmem: u8,
}

/// A (possibly multi-source) block mapped onto the DPU array, together with
/// its ConMerge vectors: per-slot control maps and per-lane conflict vectors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergedBlock {
    height: usize,
    width: usize,
    slots: Vec<Option<Slot>>,
    /// Per-column occupancy: bit `r` of entry `j` is set when slot `(r, j)`
    /// holds work.
    occupancy: Vec<u64>,
    cv: Vec<Option<usize>>,
    source_blocks: usize,
    relocations: usize,
}

impl MergedBlock {
    /// Maps a single block directly onto the array (WMEM buffer 0, all
    /// elements on their original rows).
    ///
    /// # Panics
    ///
    /// Panics if the block has more columns than the array width.
    pub fn from_block(block: &Block, width: usize) -> Self {
        assert!(
            block.width_used() <= width,
            "block width {} exceeds array width {width}",
            block.width_used()
        );
        let height = block.height();
        let mut slots = vec![None; height * width];
        let mut occupancy = vec![0; width];
        for (j, col) in block.cols().iter().enumerate() {
            for r in set_bits(col.mask) {
                slots[r * width + j] = Some(Slot {
                    input_row: r,
                    weight_col: col.origin,
                    wmem: 0,
                });
            }
            occupancy[j] = col.mask;
        }
        Self {
            height,
            width,
            slots,
            occupancy,
            cv: vec![None; height],
            source_blocks: 1,
            relocations: 0,
        }
    }

    /// Tile height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Array width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of source blocks merged in (1–3).
    pub fn source_blocks(&self) -> usize {
        self.source_blocks
    }

    /// Number of conflict relocations performed.
    pub fn relocations(&self) -> usize {
        self.relocations
    }

    /// The slot at `(row, col)` of the array.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn slot(&self, r: usize, j: usize) -> Option<Slot> {
        assert!(
            r < self.height && j < self.width,
            "slot index out of bounds"
        );
        self.slots[r * self.width + j]
    }

    /// The per-lane conflict vectors.
    pub fn cv(&self) -> &[Option<usize>] {
        &self.cv
    }

    /// Number of occupied slots.
    pub fn occupied_slots(&self) -> usize {
        self.occupancy.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Occupied fraction of the array (what clock gating leaves idle).
    pub fn utilization(&self) -> f64 {
        self.occupied_slots() as f64 / (self.height * self.width) as f64
    }

    /// All `(input_row, weight_col)` pairs covered by this block — used to
    /// verify that merging loses and duplicates nothing.
    pub fn coverage(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .slots
            .iter()
            .flatten()
            .map(|s| (s.input_row, s.weight_col))
            .collect();
        v.sort_unstable();
        v
    }

    /// Attempts to merge `incoming` into this block using WMEM buffer `wmem`.
    ///
    /// On success returns the merged block and the CVG cycles spent; on
    /// failure returns the cycles wasted before the failure was detected.
    /// The merge is decided on one `u64` occupancy mask per column and the
    /// per-lane CV; only a successful merge copies the block and writes
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if heights differ, the incoming block is wider than the array,
    /// or `wmem` is not 1 or 2 (buffer 0 belongs to the base block).
    pub fn try_merge(&self, incoming: &Block, wmem: u8) -> Result<(MergedBlock, u64), u64> {
        assert_eq!(incoming.height(), self.height, "tile height mismatch");
        assert!(
            incoming.width_used() <= self.width,
            "incoming block wider than array"
        );
        assert!(wmem == 1 || wmem == 2, "merge buffers are WMEM #1 and #2");

        // Cycle 1: build the bitmask map (Fig. 14's 2-bit cell codes). An
        // incoming bit on an empty slot places directly (code 01); one on an
        // occupied slot is a pending conflict (code 11).
        let mut cycles = 1u64;
        let n = incoming.width_used();
        let mut inline = [MergeColumn::default(); INLINE_COLS];
        let mut spilled = Vec::new();
        let columns = if n <= INLINE_COLS {
            &mut inline[..n]
        } else {
            spilled.resize(n, MergeColumn::default());
            &mut spilled[..]
        };
        for ((column, col), &occupied) in
            columns.iter_mut().zip(incoming.cols()).zip(&self.occupancy)
        {
            column.occupied = occupied | col.mask;
            column.pending = occupied & col.mask;
        }
        // The CV as masks: lanes without a conflict line, and per input row
        // the lanes reading it over theirs.
        let mut free_lanes = 0u64;
        let mut lanes_reading = [0u64; 64];
        for (lane, cv) in self.cv.iter().enumerate() {
            match cv {
                None => free_lanes |= 1 << lane,
                Some(row) => lanes_reading[*row] |= 1 << lane,
            }
        }

        // Cycle 2: initial degree-of-freedom evaluation.
        cycles += 1;
        let mut relocations = 0;
        loop {
            // Pick the column with the smallest DOF ("Comparator → Smallest
            // DOF"), hardest first: its empty slots on lanes whose CV is free
            // or already reads one of its pending rows, minus its pending
            // conflicts. Ties go to the first column.
            let mut best: Option<(i64, usize)> = None;
            for (j, column) in columns.iter().enumerate() {
                if column.pending == 0 {
                    continue;
                }
                let compatible =
                    set_bits(column.pending).fold(free_lanes, |lanes, r| lanes | lanes_reading[r]);
                let dof = i64::from((!column.occupied & compatible).count_ones())
                    - i64::from(column.pending.count_ones());
                if best.is_none_or(|(d, _)| dof < d) {
                    best = Some((dof, j));
                }
            }
            let Some((_, j)) = best else { break };

            // First conflict row of the column, first compatible empty lane.
            let column = &mut columns[j];
            let r = column.pending.trailing_zeros() as usize;
            column.pending &= column.pending - 1;
            let targets = !column.occupied & (free_lanes | lanes_reading[r]);
            if targets == 0 {
                return Err(cycles);
            }
            let bit = 1u64 << targets.trailing_zeros();
            column.occupied |= bit;
            free_lanes &= !bit;
            lanes_reading[r] |= bit;
            relocations += 1;
            cycles += 1; // one conflict-solving step
        }

        let mut next = self.clone();
        for (r, &lanes) in lanes_reading.iter().enumerate() {
            for lane in set_bits(lanes) {
                next.cv[lane] = Some(r);
            }
        }
        for (j, (column, col)) in columns.iter().zip(incoming.cols()).enumerate() {
            let placed = self.occupancy[j] | col.mask;
            for r in set_bits(col.mask & !self.occupancy[j]) {
                next.slots[r * self.width + j] = Some(Slot {
                    input_row: r,
                    weight_col: col.origin,
                    wmem,
                });
            }
            for lane in set_bits(column.occupied & !placed) {
                next.slots[lane * self.width + j] = Some(Slot {
                    input_row: next.cv[lane].expect("a relocated slot's lane reads its row"),
                    weight_col: col.origin,
                    wmem,
                });
            }
            next.occupancy[j] = column.occupied;
        }
        next.relocations += relocations;
        next.source_blocks += 1;
        Ok((next, cycles))
    }
}

/// Incoming columns a merge attempt tracks on the stack; wider arrays
/// spill to the heap.
const INLINE_COLS: usize = 64;

/// One array column's state during a merge attempt.
#[derive(Debug, Clone, Copy, Default)]
struct MergeColumn {
    /// Rows holding work: the base block's, the incoming block's and the
    /// relocations so far.
    occupied: u64,
    /// Incoming rows that conflicted and await relocation.
    pending: u64,
}

/// The set bits of `mask`, lowest first.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            r
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(height: usize, cols: &[(usize, u64)]) -> Block {
        Block::new(
            height,
            cols.iter()
                .map(|&(origin, mask)| ColumnEntry { origin, mask })
                .collect(),
        )
    }

    #[test]
    fn from_block_places_bits_on_their_rows() {
        let b = block(4, &[(10, 0b0101), (20, 0b0010)]);
        let m = MergedBlock::from_block(&b, 3);
        assert_eq!(
            m.slot(0, 0),
            Some(Slot {
                input_row: 0,
                weight_col: 10,
                wmem: 0
            })
        );
        assert_eq!(m.slot(2, 0).unwrap().weight_col, 10);
        assert_eq!(m.slot(1, 1).unwrap().weight_col, 20);
        assert_eq!(m.slot(3, 2), None);
        assert_eq!(m.occupied_slots(), 3);
        assert_eq!(m.source_blocks(), 1);
    }

    #[test]
    fn disjoint_merge_needs_no_relocation() {
        let a = block(4, &[(0, 0b0011)]);
        let b = block(4, &[(1, 0b1100)]);
        let base = MergedBlock::from_block(&a, 1);
        let (merged, cycles) = base.try_merge(&b, 1).expect("disjoint merge succeeds");
        assert_eq!(merged.relocations(), 0);
        assert_eq!(merged.occupied_slots(), 4);
        assert_eq!(merged.source_blocks(), 2);
        assert_eq!(cycles, 2); // map + DOF, no conflict steps
        assert!(merged.cv().iter().all(|c| c.is_none()));
        assert_eq!(merged.slot(3, 0).unwrap().wmem, 1);
    }

    #[test]
    fn conflict_relocates_to_empty_row_and_sets_cv() {
        // Both blocks occupy row 0; rows 1–3 are free.
        let a = block(4, &[(0, 0b0001)]);
        let b = block(4, &[(1, 0b0001)]);
        let base = MergedBlock::from_block(&a, 1);
        let (merged, _) = base.try_merge(&b, 1).expect("relocatable conflict");
        assert_eq!(merged.relocations(), 1);
        // The incoming element moved to the first empty row (row 1) but still
        // reads input row 0 via the conflict line.
        let moved = merged.slot(1, 0).expect("relocated slot");
        assert_eq!(moved.input_row, 0);
        assert_eq!(moved.weight_col, 1);
        assert_eq!(merged.cv()[1], Some(0));
    }

    #[test]
    fn coverage_is_union_of_sources() {
        let a = block(8, &[(0, 0b0110_1001), (1, 0b0000_1111)]);
        let b = block(8, &[(2, 0b0110_1001), (3, 0b1111_0000)]);
        let base = MergedBlock::from_block(&a, 2);
        let (merged, _) = base.try_merge(&b, 1).expect("merge succeeds");
        let mut want: Vec<(usize, usize)> = Vec::new();
        for blk in [&a, &b] {
            for col in blk.cols() {
                for r in 0..8 {
                    if col.mask >> r & 1 == 1 {
                        want.push((r, col.origin));
                    }
                }
            }
        }
        want.sort_unstable();
        assert_eq!(merged.coverage(), want);
    }

    #[test]
    fn merge_fails_when_column_is_saturated() {
        let a = block(2, &[(0, 0b11)]);
        let b = block(2, &[(1, 0b01)]);
        let base = MergedBlock::from_block(&a, 1);
        let err = base.try_merge(&b, 1).expect_err("no free slot in column");
        assert!(err >= 2);
    }

    #[test]
    fn cv_slot_conflict_forces_alternate_row() {
        // Fig. 14 scenario: a CV slot already holds a different source row, so
        // a later conflict must pick another empty row.
        let a = block(4, &[(0, 0b0011), (1, 0b0001)]);
        // incoming column 0 conflicts at rows 0 and 1; incoming column 1
        // conflicts at row 0.
        let b = block(4, &[(2, 0b0011), (3, 0b0001)]);
        let base = MergedBlock::from_block(&a, 2);
        let (merged, _) = base.try_merge(&b, 1).expect("resolvable with two lanes");
        // Each lane's CV holds at most one source row, and every relocated
        // slot's input row matches its lane's CV.
        for r in 0..4 {
            for j in 0..2 {
                if let Some(s) = merged.slot(r, j) {
                    assert!(
                        s.input_row == r || merged.cv()[r] == Some(s.input_row),
                        "lane {r} slot input {} not covered by CV {:?}",
                        s.input_row,
                        merged.cv()[r]
                    );
                }
            }
        }
        assert_eq!(merged.relocations(), 3);
    }

    #[test]
    fn second_merge_uses_wmem_two() {
        let a = block(4, &[(0, 0b0001)]);
        let b = block(4, &[(1, 0b0010)]);
        let c = block(4, &[(2, 0b0100)]);
        let m0 = MergedBlock::from_block(&a, 1);
        let (m1, _) = m0.try_merge(&b, 1).expect("first merge");
        let (m2, _) = m1.try_merge(&c, 2).expect("second merge");
        assert_eq!(m2.source_blocks(), 3);
        assert_eq!(m2.slot(2, 0).unwrap().wmem, 2);
        assert!((m2.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn arrays_wider_than_the_inline_columns_merge() {
        // 70 columns: the attempt tracks its columns on the heap. Only the
        // last column conflicts, at row 0, and relocates to lane 1.
        let base = block(4, &(0..70).map(|c| (c, 0b0001)).collect::<Vec<_>>());
        let incoming = block(
            4,
            &(0..70)
                .map(|c| (100 + c, if c == 69 { 0b0001 } else { 0b0010 }))
                .collect::<Vec<_>>(),
        );
        let m = MergedBlock::from_block(&base, 70);
        let (merged, cycles) = m.try_merge(&incoming, 1).expect("one relocation");
        assert_eq!(merged.relocations(), 1);
        assert_eq!(cycles, 3);
        assert_eq!(merged.cv()[1], Some(0));
        let moved = merged.slot(1, 69).expect("relocated slot");
        assert_eq!((moved.input_row, moved.weight_col), (0, 169));
        assert_eq!(merged.occupied_slots(), 140);
    }

    #[test]
    #[should_panic(expected = "merge buffers")]
    fn rejects_buffer_zero_for_merging() {
        let a = block(2, &[(0, 0b01)]);
        let base = MergedBlock::from_block(&a, 1);
        let _ = base.try_merge(&a, 0);
    }

    #[test]
    fn relocated_elements_from_same_row_share_cv() {
        // Two conflicting columns, both at row 0: their relocations can share
        // lane 1's CV (both read input row 0).
        let a = block(2, &[(0, 0b01), (1, 0b01)]);
        let b = block(2, &[(2, 0b01), (3, 0b01)]);
        let base = MergedBlock::from_block(&a, 2);
        let (merged, _) = base.try_merge(&b, 1).expect("shared CV");
        assert_eq!(merged.cv()[1], Some(0));
        assert_eq!(merged.slot(1, 0).unwrap().input_row, 0);
        assert_eq!(merged.slot(1, 1).unwrap().input_row, 0);
    }
}
