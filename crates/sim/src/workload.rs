//! Workload descriptors: what one diffusion iteration asks of the DSC.
//!
//! The simulator consumes per-layer descriptors (shapes plus
//! sparsity/compaction summaries), exactly the information the real
//! accelerator's scheduler has. [`SparsityProfile`] carries those summaries —
//! either from functional measurements (`exion-model` runs through
//! `exion-core`'s ConMerge) or from the closed-form tile model.

use exion_model::config::{NetworkType, ScaleParams};

use crate::cfse::{CfseWidth, SpecialFunc};
use crate::perf::SimError;

/// Sparsity and compaction summary of one model under one ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityProfile {
    /// First-FFN-layer output sparsity at sparse iterations (FFN-Reuse).
    pub inter_sparsity: f64,
    /// Remaining block fraction of FFN-1 outputs after ConMerge.
    pub ffn_block_frac: f64,
    /// Occupied-slot fraction within executed FFN blocks (clock gating).
    pub ffn_utilization: f64,
    /// Fraction of FFN-1 weight columns fetched (post-condensing).
    pub ffn_weight_frac: f64,
    /// Attention-score output sparsity (eager prediction).
    pub intra_sparsity: f64,
    /// Remaining block fraction of attention scores after ConMerge.
    pub attn_block_frac: f64,
    /// Occupied-slot fraction within executed attention blocks.
    pub attn_utilization: f64,
    /// Fraction of Q-projection rows skipped (one-hot rows).
    pub q_skip: f64,
    /// Fraction of K/V-projection columns skipped (unused tokens).
    pub kv_skip: f64,
}

impl SparsityProfile {
    /// A dense profile (no sparsity anywhere) — the `_Base` ablation.
    pub fn dense() -> Self {
        Self {
            inter_sparsity: 0.0,
            ffn_block_frac: 1.0,
            ffn_utilization: 1.0,
            ffn_weight_frac: 1.0,
            intra_sparsity: 0.0,
            attn_block_frac: 1.0,
            attn_utilization: 1.0,
            q_skip: 0.0,
            kv_skip: 0.0,
        }
    }

    /// Checks that every field is a finite fraction in `[0, 1]`, naming the
    /// first that is not. A NaN or out-of-range field would otherwise price
    /// silently: NaN work casts to zero rows, a block fraction above 1 runs
    /// more blocks than the dense layer has.
    pub fn validate(&self) -> Result<(), SimError> {
        let fields = [
            ("inter_sparsity", self.inter_sparsity),
            ("ffn_block_frac", self.ffn_block_frac),
            ("ffn_utilization", self.ffn_utilization),
            ("ffn_weight_frac", self.ffn_weight_frac),
            ("intra_sparsity", self.intra_sparsity),
            ("attn_block_frac", self.attn_block_frac),
            ("attn_utilization", self.attn_utilization),
            ("q_skip", self.q_skip),
            ("kv_skip", self.kv_skip),
        ];
        match fields.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
            Some(&(field, _)) => Err(SimError::InvalidProfile { field }),
            None => Ok(()),
        }
    }

    /// Closed-form tile model: for a random bitmask of sparsity `s` over
    /// `h`-row tiles, a tile-column survives condensing with probability
    /// `1 − s^h`; merging packs up to three source blocks per output block
    /// and is additionally bounded by slot occupancy at a finite fill
    /// efficiency. Used when functional measurements are not available.
    ///
    /// # Panics
    ///
    /// Panics if sparsities are outside `[0, 1]`.
    // One machine-code instance only: `powi`'s expansion is not pinned by
    // IEEE semantics, so separately inlined copies of this function can
    // disagree in the last ULP — and bit-identical profiles across call
    // sites are load-bearing (memoized pricing, fingerprint parity tests).
    #[inline(never)]
    pub fn analytic(inter_sparsity: f64, intra_sparsity: f64, tile_height: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&inter_sparsity),
            "inter sparsity range"
        );
        assert!(
            (0.0..=1.0).contains(&intra_sparsity),
            "intra sparsity range"
        );
        const FILL_EFFICIENCY: f64 = 0.75;
        let block_frac = |s: f64| -> f64 {
            if s == 0.0 {
                return 1.0;
            }
            let surviving = 1.0 - s.powi(tile_height as i32);
            (surviving / 3.0).max((1.0 - s) / FILL_EFFICIENCY).min(1.0)
        };
        let utilization = |s: f64, bf: f64| ((1.0 - s) / bf).clamp(0.05, 1.0);
        let ffn_bf = block_frac(inter_sparsity);
        let attn_bf = block_frac(intra_sparsity);
        Self {
            inter_sparsity,
            ffn_block_frac: ffn_bf,
            ffn_utilization: utilization(inter_sparsity, ffn_bf),
            ffn_weight_frac: (1.0 - inter_sparsity.powi(tile_height as i32)).min(1.0),
            intra_sparsity,
            attn_block_frac: attn_bf,
            attn_utilization: utilization(intra_sparsity, attn_bf),
            // Paper averages: 26% of Q and 22% of K/V projections skipped;
            // the skip opportunity scales with how aggressive the top-k is.
            q_skip: (0.30 * intra_sparsity).min(0.9),
            kv_skip: (0.25 * intra_sparsity).min(0.9),
        }
    }
}

/// One MMUL's descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmulDesc {
    /// Output rows.
    pub m: u64,
    /// Inner dimension.
    pub k: u64,
    /// Output columns.
    pub n: u64,
    /// Remaining block fraction vs dense (ConMerge outcome; 1.0 = dense).
    pub block_frac: f64,
    /// Occupied-slot fraction within executed blocks (clock gating).
    pub utilization: f64,
    /// Fraction of weight bytes fetched from DRAM (condensing saves fetches).
    pub weight_frac: f64,
    /// Effective inner-dimension fraction (sparse-hidden FFN-2, pruned-key
    /// attention·V).
    pub k_frac: f64,
    /// Whether weights stream from DRAM (false: operand lives on chip).
    pub weights_from_dram: bool,
}

impl MmulDesc {
    /// A dense MMUL with DRAM-resident weights.
    pub fn dense(m: u64, k: u64, n: u64) -> Self {
        Self {
            m,
            k,
            n,
            block_frac: 1.0,
            utilization: 1.0,
            weight_frac: 1.0,
            k_frac: 1.0,
            weights_from_dram: true,
        }
    }

    /// A dense MMUL whose second operand is on-chip (attention score / A·V).
    pub fn dense_onchip(m: u64, k: u64, n: u64) -> Self {
        Self {
            weights_from_dram: false,
            ..Self::dense(m, k, n)
        }
    }

    /// Effective inner dimension.
    pub fn k_eff(&self) -> u64 {
        ((self.k as f64 * self.k_frac).ceil() as u64).max(1)
    }

    /// Weight bytes fetched at `bytes_per_operand`.
    pub fn weight_bytes(&self, bytes_per_operand: f64) -> u64 {
        if !self.weights_from_dram {
            return 0;
        }
        (self.k as f64 * self.n as f64 * self.weight_frac * bytes_per_operand) as u64
    }
}

/// One unit of DSC work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DscOp {
    /// An MMUL on the SDUE.
    Mmul(MmulDesc),
    /// A special function on the CFSE.
    Special {
        /// Function kind.
        func: SpecialFunc,
        /// Element count.
        elements: u64,
        /// ALU width mode.
        width: CfseWidth,
    },
    /// An attention prediction on the EPRE.
    EpPredict {
        /// Query/key tokens.
        tokens: u64,
        /// Model width.
        d_model: u64,
        /// Heads.
        heads: u64,
    },
    /// ConMerge vector generation on the CAU.
    CauGenerate {
        /// Columns per row-tile presented to the CAU.
        cols: u64,
        /// Fraction surviving per-tile condensing.
        surviving_frac: f64,
        /// Number of row-tiles.
        tiles: u64,
    },
}

/// The op list of one diffusion iteration plus its dense-equivalent MAC
/// count (the numerator of effective TOPS).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationPlan {
    /// Ops in schedule order.
    pub ops: Vec<DscOp>,
    /// MACs a dense execution of this iteration performs.
    pub dense_equivalent_macs: u64,
}

/// ResBlock passes one denoising iteration of a Type-2 (UNetRes) model
/// executes — the unit pipeline-parallel stage cuts partition.
pub const RESBLOCKS_PER_ITERATION: usize = 2;

/// One shard's slice of a partitioned iteration: a tensor-parallel rank
/// (column/row splits of every projection, whole heads per rank) and/or a
/// pipeline-parallel stage (a contiguous transformer-block range plus a
/// ResBlock share). [`ShardSpec::full`] reproduces the unpartitioned plan
/// bit-identically, so [`build_iteration`] is the degenerate case of
/// [`build_iteration_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Tensor-parallel ways (1 = unsplit).
    pub tp_ways: u32,
    /// This shard's tensor-parallel rank (`< tp_ways`).
    pub tp_rank: u32,
    /// First transformer block this shard executes.
    pub block_start: usize,
    /// One past the last transformer block this shard executes.
    pub block_end: usize,
    /// First ResBlock pass this shard executes (UNetRes models only).
    pub resblock_start: usize,
    /// One past the last ResBlock pass this shard executes.
    pub resblock_end: usize,
}

impl ShardSpec {
    /// The whole, unpartitioned iteration.
    pub fn full(params: &ScaleParams) -> Self {
        Self {
            tp_ways: 1,
            tp_rank: 0,
            block_start: 0,
            block_end: params.blocks,
            resblock_start: 0,
            resblock_end: RESBLOCKS_PER_ITERATION,
        }
    }

    /// Rank `rank` of a `ways`-way tensor-parallel split (all blocks, split
    /// widths).
    pub fn tensor(params: &ScaleParams, ways: u32, rank: u32) -> Self {
        Self {
            tp_ways: ways.max(1),
            tp_rank: rank,
            ..Self::full(params)
        }
    }

    /// Stage `stage` of a `stages`-deep pipeline-parallel split: a
    /// cumulative contiguous block range (so stage ranges partition the
    /// blocks exactly) and the matching ResBlock share.
    pub fn pipeline(params: &ScaleParams, stages: u32, stage: u32) -> Self {
        let s = stages.max(1) as usize;
        let i = (stage as usize).min(s - 1);
        Self {
            tp_ways: 1,
            tp_rank: 0,
            block_start: params.blocks * i / s,
            block_end: params.blocks * (i + 1) / s,
            resblock_start: RESBLOCKS_PER_ITERATION * i / s,
            resblock_end: RESBLOCKS_PER_ITERATION * (i + 1) / s,
        }
    }
}

/// Flags selecting which optimizations are active for an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationKindFlags {
    /// FFN-Reuse enabled and this is a *sparse* iteration.
    pub ffn_sparse: bool,
    /// FFN-Reuse enabled and this is a *dense* iteration (CAU bitmask
    /// generation runs).
    pub ffn_dense_with_cau: bool,
    /// Eager prediction enabled.
    pub ep: bool,
}

/// Builds the op list of one diffusion iteration at the given scale.
///
/// `network` adds the unoptimized ResBlock MMULs for Type-2 models; UNet
/// topologies run their transformer blocks at half the token count
/// (downsampled), with ResBlocks at full count.
pub fn build_iteration(
    params: &ScaleParams,
    network: NetworkType,
    geglu: bool,
    flags: IterationKindFlags,
    profile: &SparsityProfile,
    batch: u64,
) -> IterationPlan {
    build_iteration_shard(
        params,
        network,
        geglu,
        flags,
        profile,
        batch,
        &ShardSpec::full(params),
    )
}

/// Builds the op list `shard` executes of one diffusion iteration.
///
/// Tensor-parallel ranks follow the Megatron convention: QKV and FFN-1 are
/// column-split, output projection and FFN-2 are row-split, whole attention
/// heads go to one rank, and LayerNorm/residual math is replicated. Widths
/// are partitioned with a cumulative integer split, so the ranks' slices
/// cover every column/head exactly once. Pipeline stages execute only their
/// block (and ResBlock) range. Collective traffic (TP all-reduces, PP
/// activation hand-offs) is *not* in the plan — it crosses the interconnect,
/// not the DSC engines — and is priced by
/// [`crate::partition::PartitionPlan`].
pub fn build_iteration_shard(
    params: &ScaleParams,
    network: NetworkType,
    geglu: bool,
    flags: IterationKindFlags,
    profile: &SparsityProfile,
    batch: u64,
    shard: &ShardSpec,
) -> IterationPlan {
    let mut ops = Vec::new();
    // Attention is per-sample (batch keeps score matrices m × m); linear
    // layers see batch × tokens rows.
    let m = match network {
        NetworkType::TransformerOnly => params.tokens as u64,
        _ => (params.tokens as u64 / 2).max(1),
    };
    let m_lin = m * batch;
    let full_tokens = params.tokens as u64 * batch;
    let d = params.d_model as u64;
    let d_ff = params.d_ff as u64;
    let hidden = if geglu { d_ff / 2 } else { d_ff };
    let heads = params.heads as u64;
    let d_head = (d / heads).max(1);

    // Cumulative integer split: rank `r` of `ways` owns
    // `dim·(r+1)/ways − dim·r/ways` columns, so the ranks partition `dim`
    // exactly (no double-counted or dropped columns for any dim).
    let ways = shard.tp_ways.max(1) as u64;
    let rank = (shard.tp_rank as u64).min(ways - 1);
    let share = |dim: u64| dim * (rank + 1) / ways - dim * rank / ways;
    let heads_here = share(heads);
    let d_cols = share(d);
    let d_ff_cols = share(d_ff);
    let hidden_cols = share(hidden);

    let mut dense_macs = 0u64;

    // ResBlocks (Type 2 only): kernel-3 double conv, column-split under TP
    // and range-assigned under PP.
    if network == NetworkType::UNetRes {
        for _ in shard.resblock_start..shard.resblock_end.min(RESBLOCKS_PER_ITERATION) {
            if d_cols == 0 {
                continue;
            }
            for _ in 0..6 {
                ops.push(DscOp::Mmul(MmulDesc::dense(full_tokens, d, d_cols)));
            }
            ops.push(DscOp::Special {
                func: SpecialFunc::Gelu,
                elements: full_tokens * d_cols,
                width: CfseWidth::TwoWay16,
            });
            dense_macs += 6 * full_tokens * d * d_cols;
        }
    }

    for _ in shard.block_start..shard.block_end.min(params.blocks) {
        // Pre-attention LayerNorm.
        ops.push(DscOp::Special {
            func: SpecialFunc::LayerNorm,
            elements: m_lin * d,
            width: CfseWidth::OneWay32,
        });

        // EPRE prediction, one pass per sample (pipelined under the SDUE by
        // the DSC timeline); each TP rank predicts for its own heads.
        if flags.ep && heads_here > 0 {
            for _ in 0..batch {
                ops.push(DscOp::EpPredict {
                    tokens: m,
                    d_model: d,
                    heads: heads_here,
                });
            }
        }
        let (q_skip, kv_skip, intra, attn_bf, attn_util) = if flags.ep {
            (
                profile.q_skip,
                profile.kv_skip,
                profile.intra_sparsity,
                profile.attn_block_frac,
                profile.attn_utilization,
            )
        } else {
            (0.0, 0.0, 0.0, 1.0, 1.0)
        };

        // QKV (column-split under TP) + output projection over all batch
        // rows.
        let m_q = ((m_lin as f64 * (1.0 - q_skip)).ceil() as u64).max(1);
        let m_kv = ((m_lin as f64 * (1.0 - kv_skip)).ceil() as u64).max(1);
        if d_cols > 0 {
            ops.push(DscOp::Mmul(MmulDesc::dense(m_q, d, d_cols)));
            ops.push(DscOp::Mmul(MmulDesc::dense(m_kv, d, d_cols)));
            ops.push(DscOp::Mmul(MmulDesc::dense(m_kv, d, d_cols)));
            dense_macs += 3 * m_lin * d * d_cols;
        }

        // Per-sample, per-head attention score and probability·V (whole
        // heads per TP rank).
        for _ in 0..batch {
            for _ in 0..heads_here {
                ops.push(DscOp::Mmul(MmulDesc {
                    block_frac: attn_bf,
                    utilization: attn_util,
                    ..MmulDesc::dense_onchip(m, d_head, m)
                }));
                ops.push(DscOp::Special {
                    func: SpecialFunc::Softmax,
                    elements: ((m * m) as f64 * (1.0 - intra)).ceil() as u64,
                    width: CfseWidth::OneWay32,
                });
                ops.push(DscOp::Mmul(MmulDesc {
                    k_frac: 1.0 - intra,
                    ..MmulDesc::dense_onchip(m, m, d_head)
                }));
            }
        }
        dense_macs += 2 * batch * m * m * d_head * heads_here;

        // Output projection (row-split under TP) + residual.
        if d_cols > 0 {
            ops.push(DscOp::Mmul(MmulDesc::dense(m_lin, d_cols, d)));
            dense_macs += m_lin * d_cols * d;
        }
        ops.push(DscOp::Special {
            func: SpecialFunc::Residual,
            elements: m_lin * d,
            width: CfseWidth::TwoWay16,
        });

        // Pre-FFN LayerNorm.
        ops.push(DscOp::Special {
            func: SpecialFunc::LayerNorm,
            elements: m_lin * d,
            width: CfseWidth::OneWay32,
        });

        // FFN pair: FFN-1 column-split, FFN-2 row-split under TP.
        if flags.ffn_sparse {
            let s = profile.inter_sparsity;
            if d_ff_cols > 0 {
                ops.push(DscOp::Mmul(MmulDesc {
                    block_frac: profile.ffn_block_frac,
                    utilization: profile.ffn_utilization,
                    weight_frac: profile.ffn_weight_frac,
                    ..MmulDesc::dense(m_lin, d, d_ff_cols)
                }));
                ops.push(DscOp::Special {
                    func: SpecialFunc::Gelu,
                    elements: ((m_lin * d_ff_cols) as f64 * (1.0 - s)).ceil() as u64,
                    width: CfseWidth::TwoWay16,
                });
            }
            if hidden_cols > 0 {
                ops.push(DscOp::Mmul(MmulDesc {
                    k_frac: 1.0 - s,
                    weight_frac: (1.0 - s).min(1.0),
                    ..MmulDesc::dense(m_lin, hidden_cols, d)
                }));
            }
        } else {
            if d_ff_cols > 0 {
                ops.push(DscOp::Mmul(MmulDesc::dense(m_lin, d, d_ff_cols)));
                ops.push(DscOp::Special {
                    func: SpecialFunc::Gelu,
                    elements: m_lin * d_ff_cols,
                    width: CfseWidth::TwoWay16,
                });
            }
            if flags.ffn_dense_with_cau && hidden_cols > 0 {
                // Threshold compare + bitmask generation, then CVG.
                ops.push(DscOp::Special {
                    func: SpecialFunc::Quantize,
                    elements: m_lin * hidden_cols,
                    width: CfseWidth::TwoWay16,
                });
                ops.push(DscOp::CauGenerate {
                    cols: hidden_cols,
                    surviving_frac: profile.ffn_weight_frac,
                    tiles: m_lin.div_ceil(16),
                });
            }
            if hidden_cols > 0 {
                ops.push(DscOp::Mmul(MmulDesc::dense(m_lin, hidden_cols, d)));
            }
        }
        dense_macs += m_lin * d_ff_cols * d + m_lin * hidden_cols * d;
        ops.push(DscOp::Special {
            func: SpecialFunc::Residual,
            elements: m_lin * d,
            width: CfseWidth::TwoWay16,
        });
    }

    IterationPlan {
        ops,
        dense_equivalent_macs: dense_macs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::{ModelConfig, ModelKind};

    fn dit_params() -> ScaleParams {
        ModelConfig::for_kind(ModelKind::Dit).paper
    }

    #[test]
    fn dense_profile_is_all_ones() {
        let p = SparsityProfile::dense();
        assert_eq!(p.ffn_block_frac, 1.0);
        assert_eq!(p.intra_sparsity, 0.0);
    }

    #[test]
    fn analytic_profile_matches_tile_model() {
        // 95% sparsity over 16-row tiles: ~56% of tile-columns survive,
        // merging compacts toward max(0.56/3, 0.05/0.75) ≈ 18.7%.
        let p = SparsityProfile::analytic(0.95, 0.0, 16);
        assert!(
            (p.ffn_weight_frac - 0.5599).abs() < 0.01,
            "{}",
            p.ffn_weight_frac
        );
        assert!(
            (p.ffn_block_frac - 0.187).abs() < 0.01,
            "{}",
            p.ffn_block_frac
        );
        assert!(p.ffn_utilization > 0.2);
        // Dense input leaves everything dense.
        let d = SparsityProfile::analytic(0.0, 0.0, 16);
        assert_eq!(d.ffn_block_frac, 1.0);
    }

    #[test]
    fn iteration_plan_contains_expected_ops() {
        let flags = IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: false,
            ep: false,
        };
        let plan = build_iteration(
            &dit_params(),
            NetworkType::TransformerOnly,
            false,
            flags,
            &SparsityProfile::dense(),
            1,
        );
        let mmuls = plan
            .ops
            .iter()
            .filter(|o| matches!(o, DscOp::Mmul(_)))
            .count();
        // Per block: 3 qkv + 2·heads attention + 1 output + 2 ffn.
        let p = dit_params();
        assert_eq!(mmuls, p.blocks * (3 + 2 * p.heads + 1 + 2));
        assert!(plan.dense_equivalent_macs > 0);
    }

    #[test]
    fn sparse_iteration_shrinks_work_not_dense_equivalent() {
        let p = dit_params();
        let profile = SparsityProfile::analytic(0.95, 0.95, 16);
        let dense_flags = IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: false,
            ep: false,
        };
        let sparse_flags = IterationKindFlags {
            ffn_sparse: true,
            ffn_dense_with_cau: false,
            ep: true,
        };
        let dense = build_iteration(
            &p,
            NetworkType::TransformerOnly,
            false,
            dense_flags,
            &SparsityProfile::dense(),
            1,
        );
        let sparse = build_iteration(
            &p,
            NetworkType::TransformerOnly,
            false,
            sparse_flags,
            &profile,
            1,
        );
        assert_eq!(dense.dense_equivalent_macs, sparse.dense_equivalent_macs);
        assert!(sparse.ops.len() > dense.ops.len()); // EP ops added
    }

    #[test]
    fn unet_res_adds_resblock_mmuls() {
        let config = ModelConfig::for_kind(ModelKind::StableDiffusion);
        let flags = IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: false,
            ep: false,
        };
        let plan = build_iteration(
            &config.paper,
            config.network,
            config.geglu,
            flags,
            &SparsityProfile::dense(),
            1,
        );
        let dit_plan = build_iteration(
            &config.paper,
            NetworkType::TransformerOnly,
            config.geglu,
            flags,
            &SparsityProfile::dense(),
            1,
        );
        // Transformer blocks run at half tokens (downsampled) but ResBlocks
        // add full-resolution conv MMULs.
        assert!(plan.dense_equivalent_macs > dit_plan.dense_equivalent_macs / 3);
        assert!(plan.ops.len() > dit_plan.ops.len());
    }

    #[test]
    fn batch_scales_rows() {
        let flags = IterationKindFlags {
            ffn_sparse: false,
            ffn_dense_with_cau: false,
            ep: false,
        };
        let b1 = build_iteration(
            &dit_params(),
            NetworkType::TransformerOnly,
            false,
            flags,
            &SparsityProfile::dense(),
            1,
        );
        let b8 = build_iteration(
            &dit_params(),
            NetworkType::TransformerOnly,
            false,
            flags,
            &SparsityProfile::dense(),
            8,
        );
        assert!(b8.dense_equivalent_macs > 7 * b1.dense_equivalent_macs);
    }

    #[test]
    fn mmul_desc_helpers() {
        let d = MmulDesc::dense(10, 100, 20);
        assert_eq!(d.k_eff(), 100);
        assert_eq!(d.weight_bytes(1.5), 3000);
        let on_chip = MmulDesc::dense_onchip(10, 100, 20);
        assert_eq!(on_chip.weight_bytes(1.5), 0);
        let sparse = MmulDesc {
            k_frac: 0.25,
            ..MmulDesc::dense(10, 100, 20)
        };
        assert_eq!(sparse.k_eff(), 25);
    }
}
