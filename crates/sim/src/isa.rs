//! The top controller's instruction set (paper Fig. 10: top controller,
//! decoder, 3 kB INSTMEM).
//!
//! "Operation flow begins by fetching instructions, input, and weight data
//! from the external DRAM to the GSC. Then, the top controller fetches
//! instructions from INSTMEM and, depending on the tiling strategy, unicasts
//! or broadcasts the input and weight to the IMEM and WMEM."
//!
//! Instructions are fixed 64-bit words: an opcode selecting the engine plus
//! packed operand fields. [`assemble_iteration`] lowers a workload
//! [`IterationPlan`] into a program, and the encoder/decoder round-trips
//! bit-exactly, so INSTMEM capacity can be checked against real schedules.

use crate::workload::{DscOp, IterationPlan};

/// A decoded top-controller instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// DMA a tile from GSC/DRAM into IMEM or WMEM (buffer-select in `buf`).
    Load {
        /// Destination: 0 = IMEM, 1 = WMEM, 2 = CVMEM.
        target: u8,
        /// Buffer copy index (double/triple buffering).
        buf: u8,
        /// Transfer length in 32-byte beats (20 bits).
        beats: u32,
    },
    /// Run the SDUE over a tile sequence.
    Mmul {
        /// Row tiles (12 bits).
        row_tiles: u16,
        /// Blocks per row tile (12 bits).
        blocks: u16,
        /// Dot-product k-steps per block (12 bits).
        k_steps: u16,
        /// Merged-block mode (ConMerge vectors drive the switches).
        merged: bool,
    },
    /// Run a CFSE special-function pass.
    Special {
        /// Function selector (0 softmax, 1 layernorm, 2 gelu, 3 residual,
        /// 4 quantize).
        func: u8,
        /// Element count in SIMD beats (24 bits).
        beats: u32,
        /// Two-way 16-bit mode.
        two_way: bool,
    },
    /// Run the EPRE attention prediction for one tile group.
    Predict {
        /// Token rows (12 bits).
        tokens: u16,
        /// Heads (6 bits).
        heads: u8,
    },
    /// Run the CAU's classify/sort/merge pipeline.
    Merge {
        /// Columns presented (12 bits).
        cols: u16,
        /// Row tiles (12 bits).
        tiles: u16,
    },
    /// Write OMEM tiles back to GSC/DRAM.
    Store {
        /// Transfer length in 32-byte beats (20 bits).
        beats: u32,
    },
    /// End of iteration marker (barrier for all engines).
    Barrier,
}

/// Raised when a 64-bit word does not decode to a known instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeInstructionError {
    word: u64,
}

impl std::fmt::Display for DecodeInstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid instruction word {:#018x}", self.word)
    }
}

impl std::error::Error for DecodeInstructionError {}

const OP_LOAD: u64 = 1;
const OP_MMUL: u64 = 2;
const OP_SPECIAL: u64 = 3;
const OP_PREDICT: u64 = 4;
const OP_MERGE: u64 = 5;
const OP_STORE: u64 = 6;
const OP_BARRIER: u64 = 7;

impl Instruction {
    /// Encodes to a 64-bit word: opcode in bits 60..64, operands below.
    pub fn encode(&self) -> u64 {
        match *self {
            Instruction::Load { target, buf, beats } => {
                OP_LOAD << 60
                    | u64::from(target & 0x3) << 24
                    | u64::from(buf & 0x3) << 20
                    | u64::from(beats & 0xF_FFFF)
            }
            Instruction::Mmul {
                row_tiles,
                blocks,
                k_steps,
                merged,
            } => {
                OP_MMUL << 60
                    | u64::from(merged) << 36
                    | u64::from(row_tiles & 0xFFF) << 24
                    | u64::from(blocks & 0xFFF) << 12
                    | u64::from(k_steps & 0xFFF)
            }
            Instruction::Special {
                func,
                beats,
                two_way,
            } => {
                OP_SPECIAL << 60
                    | u64::from(func & 0x7) << 25
                    | u64::from(two_way) << 24
                    | u64::from(beats & 0xFF_FFFF)
            }
            Instruction::Predict { tokens, heads } => {
                OP_PREDICT << 60 | u64::from(tokens & 0xFFF) << 6 | u64::from(heads & 0x3F)
            }
            Instruction::Merge { cols, tiles } => {
                OP_MERGE << 60 | u64::from(cols & 0xFFF) << 12 | u64::from(tiles & 0xFFF)
            }
            Instruction::Store { beats } => OP_STORE << 60 | u64::from(beats & 0xF_FFFF),
            Instruction::Barrier => OP_BARRIER << 60,
        }
    }

    /// Decodes a 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown opcodes.
    pub fn decode(word: u64) -> Result<Self, DecodeInstructionError> {
        match word >> 60 {
            OP_LOAD => Ok(Instruction::Load {
                target: (word >> 24 & 0x3) as u8,
                buf: (word >> 20 & 0x3) as u8,
                beats: (word & 0xF_FFFF) as u32,
            }),
            OP_MMUL => Ok(Instruction::Mmul {
                row_tiles: (word >> 24 & 0xFFF) as u16,
                blocks: (word >> 12 & 0xFFF) as u16,
                k_steps: (word & 0xFFF) as u16,
                merged: word >> 36 & 1 == 1,
            }),
            OP_SPECIAL => Ok(Instruction::Special {
                func: (word >> 25 & 0x7) as u8,
                two_way: word >> 24 & 1 == 1,
                beats: (word & 0xFF_FFFF) as u32,
            }),
            OP_PREDICT => Ok(Instruction::Predict {
                tokens: (word >> 6 & 0xFFF) as u16,
                heads: (word & 0x3F) as u8,
            }),
            OP_MERGE => Ok(Instruction::Merge {
                cols: (word >> 12 & 0xFFF) as u16,
                tiles: (word & 0xFFF) as u16,
            }),
            OP_STORE => Ok(Instruction::Store {
                beats: (word & 0xF_FFFF) as u32,
            }),
            OP_BARRIER => Ok(Instruction::Barrier),
            _ => Err(DecodeInstructionError { word }),
        }
    }
}

/// Lowers one iteration's workload descriptors into an instruction program
/// for a single DSC (the top controller broadcasts the same program to all
/// DSCs with different tile bases).
pub fn assemble_iteration(plan: &IterationPlan, array: usize, lane: usize) -> Vec<Instruction> {
    let mut prog = Vec::new();
    for op in &plan.ops {
        match op {
            DscOp::Mmul(d) => {
                let weight_bytes = d.weight_bytes(1.5);
                if weight_bytes > 0 {
                    prog.push(Instruction::Load {
                        target: 1,
                        buf: 0,
                        beats: (weight_bytes.div_ceil(32)).min(0xF_FFFF_u64) as u32,
                    });
                }
                let dense_blocks = d.n.div_ceil(array as u64) as f64;
                let blocks = (dense_blocks * d.block_frac).ceil().max(1.0) as u16;
                prog.push(Instruction::Mmul {
                    row_tiles: d.m.div_ceil(array as u64).min(0xFFF) as u16,
                    blocks: blocks.min(0xFFF),
                    k_steps: d.k_eff().div_ceil(lane as u64).min(0xFFF) as u16,
                    merged: d.block_frac < 1.0,
                });
                prog.push(Instruction::Store {
                    beats: ((d.m * d.n.min(array as u64 * blocks as u64) * 3 / 2).div_ceil(32))
                        .min(0xF_FFFF_u64) as u32,
                });
            }
            DscOp::Special {
                func,
                elements,
                width,
            } => {
                let f = match func {
                    crate::cfse::SpecialFunc::Softmax => 0,
                    crate::cfse::SpecialFunc::LayerNorm => 1,
                    crate::cfse::SpecialFunc::Gelu => 2,
                    crate::cfse::SpecialFunc::Residual => 3,
                    crate::cfse::SpecialFunc::Quantize => 4,
                };
                prog.push(Instruction::Special {
                    func: f,
                    beats: elements.div_ceil(16).min(0xFF_FFFF_u64) as u32,
                    two_way: *width == crate::cfse::CfseWidth::TwoWay16,
                });
            }
            DscOp::EpPredict { tokens, heads, .. } => prog.push(Instruction::Predict {
                tokens: (*tokens).min(0xFFF_u64) as u16,
                heads: (*heads).min(0x3F) as u8,
            }),
            DscOp::CauGenerate { cols, tiles, .. } => prog.push(Instruction::Merge {
                cols: (*cols).min(0xFFF_u64) as u16,
                tiles: (*tiles).min(0xFFF_u64) as u16,
            }),
        }
    }
    prog.push(Instruction::Barrier);
    prog
}

/// Whether a program fits an instruction memory of `instmem_bytes` (the
/// paper: 3 kB ⇒ 384 64-bit instructions).
pub fn fits_instmem(program: &[Instruction], instmem_bytes: usize) -> bool {
    program.len() * 8 <= instmem_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_iteration, IterationKindFlags, SparsityProfile};
    use exion_model::config::{ModelConfig, ModelKind, NetworkType};

    #[test]
    fn encode_decode_round_trip() {
        let cases = [
            Instruction::Load {
                target: 1,
                buf: 2,
                beats: 123_456,
            },
            Instruction::Mmul {
                row_tiles: 12,
                blocks: 256,
                k_steps: 64,
                merged: true,
            },
            Instruction::Mmul {
                row_tiles: 1,
                blocks: 1,
                k_steps: 1,
                merged: false,
            },
            Instruction::Special {
                func: 4,
                beats: 9_999_999,
                two_way: true,
            },
            Instruction::Predict {
                tokens: 196,
                heads: 16,
            },
            Instruction::Merge {
                cols: 4000,
                tiles: 13,
            },
            Instruction::Store { beats: 77 },
            Instruction::Barrier,
        ];
        for inst in cases {
            let word = inst.encode();
            assert_eq!(Instruction::decode(word).expect("valid"), inst, "{inst:?}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Instruction::decode(0).is_err());
        assert!(Instruction::decode(0xF << 60).is_err());
    }

    #[test]
    fn assembles_a_real_iteration() {
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let flags = IterationKindFlags {
            ffn_sparse: true,
            ffn_dense_with_cau: false,
            ep: true,
        };
        let profile = SparsityProfile::analytic(0.95, 0.95, 16);
        let plan = build_iteration(
            &model.paper,
            NetworkType::TransformerOnly,
            false,
            flags,
            &profile,
            1,
        );
        let prog = assemble_iteration(&plan, 16, 16);
        assert!(matches!(prog.last(), Some(Instruction::Barrier)));
        // Sparse FFN-1 MMULs are marked merged.
        let merged_mmuls = prog
            .iter()
            .filter(|i| matches!(i, Instruction::Mmul { merged: true, .. }))
            .count();
        assert!(merged_mmuls > 0, "sparse iteration uses ConMerge mode");
        // Every instruction survives an encode/decode round trip.
        for inst in &prog {
            assert_eq!(Instruction::decode(inst.encode()).unwrap(), *inst);
        }
    }

    #[test]
    fn per_block_program_fits_instmem() {
        // The top controller loops one transformer block's program across all
        // blocks (and all heads share the same attention sub-program with
        // different tile bases), so the 3 kB INSTMEM must hold one *block's*
        // instruction sequence for the largest benchmark.
        let mut model = ModelConfig::for_kind(ModelKind::Dit);
        model.paper.blocks = 1;
        let flags = IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: true,
            ep: true,
        };
        let plan = build_iteration(
            &model.paper,
            NetworkType::TransformerOnly,
            false,
            flags,
            &SparsityProfile::analytic(0.95, 0.95, 16),
            1,
        );
        let prog = assemble_iteration(&plan, 16, 16);
        assert!(
            fits_instmem(&prog, 3 * 1024),
            "{} instructions = {} B exceed 3 kB",
            prog.len(),
            prog.len() * 8
        );
    }
}
