//! Bit-level encoding of ConMerge vectors for the CVMEM (paper Figs. 11/13).
//!
//! The CAU stores, per merged block, everything the SDUE's switches need:
//!
//! * per DPU lane: the conflict vector — a 4-bit IMEM bank index plus a valid
//!   bit (`cv_sw` is a 16-to-1 mux);
//! * per DPU: a control map — 2-bit WMEM select (`w_sw`, 3-to-1) and 1-bit
//!   input-line select (`i_sw`, 2-to-1);
//! * per array column and WMEM buffer: the 10-bit original weight-column
//!   index ("Col. Origin Idx(10b)", Fig. 13).
//!
//! The encoding here packs those fields exactly, so the 50 kB CVMEM budget of
//! the paper's configuration can be checked against real schedules.

use super::merge::MergedBlock;

/// Raised when a merged block cannot be represented in the hardware's field
/// widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeVectorsError {
    what: String,
}

impl std::fmt::Display for EncodeVectorsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot encode ConMerge vectors: {}", self.what)
    }
}

impl std::error::Error for EncodeVectorsError {}

/// Width of the weight-column origin index field (Fig. 13: 10 bits).
pub const COL_ORIGIN_BITS: u32 = 10;

/// Packed ConMerge vectors of one merged block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedVectors {
    height: usize,
    width: usize,
    /// Per lane: bit 4 = valid, bits 0..4 = source IMEM bank.
    cv: Vec<u8>,
    /// Per DPU (row-major): bit 2 = occupied, bit 1..2 = unused here,
    /// bits 0..2 = w_sw, bit 3 = i_sw (conflict line).
    cm: Vec<u8>,
    /// Per (buffer, column): 10-bit weight-column origin, `0x3FF` = unused.
    origins: Vec<u16>,
}

impl EncodedVectors {
    /// Packs a merged block's vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if a weight-column origin exceeds the 10-bit field,
    /// a CV bank index exceeds 4 bits, or more than three weight buffers
    /// would be needed.
    pub fn encode(block: &MergedBlock) -> Result<Self, EncodeVectorsError> {
        let height = block.height();
        let width = block.width();
        let mut cv = vec![0u8; height];
        for (lane, entry) in block.cv().iter().enumerate() {
            if let Some(src) = entry {
                if *src >= 16 {
                    return Err(EncodeVectorsError {
                        what: format!("CV source row {src} exceeds 4-bit bank index"),
                    });
                }
                cv[lane] = 0x10 | *src as u8;
            }
        }

        let unused = (1u16 << COL_ORIGIN_BITS) - 1;
        let mut origins = vec![unused; 3 * width];
        let mut cm = vec![0u8; height * width];
        for r in 0..height {
            for j in 0..width {
                let Some(slot) = block.slot(r, j) else {
                    continue;
                };
                if slot.wmem >= 3 {
                    return Err(EncodeVectorsError {
                        what: format!("WMEM buffer {} out of range", slot.wmem),
                    });
                }
                if slot.weight_col >= 1 << COL_ORIGIN_BITS {
                    return Err(EncodeVectorsError {
                        what: format!(
                            "weight column {} exceeds {COL_ORIGIN_BITS}-bit origin index",
                            slot.weight_col
                        ),
                    });
                }
                let origin_idx = slot.wmem as usize * width + j;
                let packed = slot.weight_col as u16;
                if origins[origin_idx] != unused && origins[origin_idx] != packed {
                    return Err(EncodeVectorsError {
                        what: format!(
                            "buffer {} column {j} holds two different origins",
                            slot.wmem
                        ),
                    });
                }
                origins[origin_idx] = packed;
                let conflict_line = slot.input_row != r;
                cm[r * width + j] = 0x4 | (slot.wmem & 0x3) | u8::from(conflict_line) << 3;
            }
        }
        Ok(Self {
            height,
            width,
            cv,
            cm,
            origins,
        })
    }

    /// Occupied DPU at `(r, j)`?
    pub fn occupied(&self, r: usize, j: usize) -> bool {
        self.cm[r * self.width + j] & 0x4 != 0
    }

    /// The `w_sw` selection at `(r, j)`.
    pub fn w_sw(&self, r: usize, j: usize) -> u8 {
        self.cm[r * self.width + j] & 0x3
    }

    /// The `i_sw` selection at `(r, j)` (true = conflict line).
    pub fn i_sw_conflict(&self, r: usize, j: usize) -> bool {
        self.cm[r * self.width + j] & 0x8 != 0
    }

    /// The conflict vector of `lane`.
    pub fn cv_source(&self, lane: usize) -> Option<usize> {
        let v = self.cv[lane];
        if v & 0x10 != 0 {
            Some((v & 0xF) as usize)
        } else {
            None
        }
    }

    /// The weight-column origin broadcast to array column `j` from `buffer`.
    pub fn origin(&self, buffer: u8, j: usize) -> Option<usize> {
        let v = self.origins[buffer as usize * self.width + j];
        if v == (1 << COL_ORIGIN_BITS) - 1 {
            None
        } else {
            Some(v as usize)
        }
    }

    /// Storage footprint in CVMEM bits: 5 bits per lane CV, 4 bits per DPU
    /// CM, 10 bits per (buffer, column) origin.
    pub fn bits(&self) -> usize {
        5 * self.height + 4 * self.height * self.width + COL_ORIGIN_BITS as usize * 3 * self.width
    }

    /// Storage footprint in bytes (bit-packed, rounded up).
    pub fn bytes(&self) -> usize {
        self.bits().div_ceil(8)
    }
}

/// How many merged blocks' vectors fit a CVMEM of `cvmem_bytes` (the paper's
/// configuration: 50 kB).
pub fn blocks_per_cvmem(cvmem_bytes: usize, height: usize, width: usize) -> usize {
    let per_block_bits = 5 * height + 4 * height * width + COL_ORIGIN_BITS as usize * 3 * width;
    (cvmem_bytes * 8) / per_block_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conmerge::merge::{Block, ColumnEntry};

    fn merged_pair() -> MergedBlock {
        let a = Block::new(
            4,
            vec![
                ColumnEntry {
                    origin: 7,
                    mask: 0b0011,
                },
                ColumnEntry {
                    origin: 9,
                    mask: 0b0001,
                },
            ],
        );
        let b = Block::new(
            4,
            vec![
                ColumnEntry {
                    origin: 20,
                    mask: 0b0001,
                }, // conflicts at row 0
                ColumnEntry {
                    origin: 21,
                    mask: 0b0110,
                },
            ],
        );
        let base = MergedBlock::from_block(&a, 2);
        base.try_merge(&b, 1).expect("merge succeeds").0
    }

    #[test]
    fn round_trip_matches_block() {
        let block = merged_pair();
        let enc = EncodedVectors::encode(&block).expect("encodes");
        for r in 0..block.height() {
            assert_eq!(enc.cv_source(r), block.cv()[r], "lane {r} CV");
            for j in 0..block.width() {
                match block.slot(r, j) {
                    Some(slot) => {
                        assert!(enc.occupied(r, j));
                        assert_eq!(enc.w_sw(r, j), slot.wmem);
                        assert_eq!(enc.i_sw_conflict(r, j), slot.input_row != r);
                        assert_eq!(
                            enc.origin(slot.wmem, j),
                            Some(slot.weight_col),
                            "origin at buffer {} col {j}",
                            slot.wmem
                        );
                    }
                    None => assert!(!enc.occupied(r, j)),
                }
            }
        }
    }

    #[test]
    fn footprint_matches_field_widths() {
        let block = merged_pair();
        let enc = EncodedVectors::encode(&block).expect("encodes");
        // 4 lanes × 5 + 8 DPUs × 4 + 3 buffers × 2 cols × 10 = 112 bits.
        assert_eq!(enc.bits(), 112);
        assert_eq!(enc.bytes(), 14);
    }

    #[test]
    fn exion_cvmem_holds_many_blocks() {
        // 16×16 array: 5·16 + 4·256 + 10·48 = 1584 bits ≈ 198 B per block;
        // the 50 kB CVMEM holds ~258 of them — far more than the double-
        // buffered schedule depth needs.
        let capacity = blocks_per_cvmem(50 * 1024, 16, 16);
        assert!(capacity > 250, "capacity {capacity}");
    }

    #[test]
    fn oversized_origin_rejected() {
        let a = Block::new(
            2,
            vec![ColumnEntry {
                origin: 1 << 10,
                mask: 0b01,
            }],
        );
        let m = MergedBlock::from_block(&a, 1);
        let err = EncodedVectors::encode(&m).expect_err("origin too wide");
        assert!(err.to_string().contains("10-bit"));
    }

    #[test]
    fn relocated_slots_encode_conflict_line() {
        let block = merged_pair();
        let enc = EncodedVectors::encode(&block).expect("encodes");
        let mut conflict_slots = 0;
        for r in 0..block.height() {
            for j in 0..block.width() {
                if enc.occupied(r, j) && enc.i_sw_conflict(r, j) {
                    conflict_slots += 1;
                    // A conflict-line slot requires a valid CV on its lane.
                    assert!(enc.cv_source(r).is_some());
                }
            }
        }
        assert_eq!(conflict_slots, block.relocations());
    }
}
