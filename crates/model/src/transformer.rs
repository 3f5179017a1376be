//! The transformer block of paper Fig. 3(b), with switchable execution
//! policies.
//!
//! Every block runs the canonical sequence — LayerNorm, multi-head attention
//! (QKV projection, scaled dot-product, output projection), residual add,
//! LayerNorm, FFN, residual add — and can execute each stage:
//!
//! * **vanilla** (dense f32),
//! * with **FFN-Reuse** (`exion_core::ffn_reuse`) on the FFN pair,
//! * with **eager prediction** (`exion_core::ep`) on the attention path:
//!   a log-domain EPRE pass predicts Q', K' and the attention score, then the
//!   real-domain pass computes only the plan's surviving elements,
//! * with **INT12 post-training quantization** on every MMUL operand
//!   (quantize→dequantize round trips, numerically equivalent to the SDUE's
//!   integer datapath with scale factors).

use exion_core::ep::{
    execute_dense_attention, execute_sparse_attention, log_matmul, AttentionPlan, EpConfig, EpStats,
};
use exion_core::ffn_reuse::{FfnIterationReport, FfnReuseConfig, FfnReuseEngine, FfnWeights};
use exion_core::{Bitmask2D, OpCounts};
use exion_tensor::norm::layer_norm;
use exion_tensor::{ops, Activation, IntWidth, Matrix, QuantMatrix, QuantParams};

use crate::config::ScaleParams;

/// How the pipeline executes transformer blocks — the paper's ablation axes
/// (Table I rows: Vanilla / FFN-Reuse / +EP / +Quant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// FFN-Reuse configuration (None = dense FFN every iteration).
    pub ffn_reuse: Option<FfnReuseConfig>,
    /// Eager-prediction configuration (None = dense attention).
    pub ep: Option<EpConfig>,
    /// INT12 post-training quantization of MMUL operands.
    pub quant: bool,
    /// Capture full activation snapshots (Fig. 7) — vanilla runs only.
    pub capture_hidden: bool,
    /// Capture output bitmasks for ConMerge analysis (Figs. 8–9, 17).
    pub capture_masks: bool,
}

impl ExecPolicy {
    /// Dense baseline.
    pub fn vanilla() -> Self {
        Self {
            ffn_reuse: None,
            ep: None,
            quant: false,
            capture_hidden: false,
            capture_masks: false,
        }
    }

    /// FFN-Reuse only (the paper's second ablation row).
    pub fn with_ffn_reuse(mut self, config: FfnReuseConfig) -> Self {
        self.ffn_reuse = Some(config);
        self
    }

    /// Adds eager prediction (the paper's third ablation row).
    pub fn with_ep(mut self, config: EpConfig) -> Self {
        self.ep = Some(config);
        self
    }

    /// Adds INT12 PTQ (the paper's fourth ablation row).
    pub fn with_quant(mut self) -> Self {
        self.quant = true;
        self
    }

    /// Enables activation snapshots.
    pub fn with_hidden_capture(mut self) -> Self {
        self.capture_hidden = true;
        self
    }

    /// Enables bitmask capture.
    pub fn with_mask_capture(mut self) -> Self {
        self.capture_masks = true;
        self
    }
}

/// All weights of one transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Query projection (`d_model × d_model`).
    pub wq: Matrix,
    /// Key projection.
    pub wk: Matrix,
    /// Value projection.
    pub wv: Matrix,
    /// Output projection.
    pub wo: Matrix,
    /// FFN weights.
    pub ffn: FfnWeights,
    /// Pre-attention LayerNorm scale/shift.
    pub ln1: (Vec<f32>, Vec<f32>),
    /// Pre-FFN LayerNorm scale/shift.
    pub ln2: (Vec<f32>, Vec<f32>),
    /// Attention heads.
    pub heads: usize,
}

impl BlockWeights {
    /// Xavier-initialized block weights.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `heads`.
    pub fn random(params: &ScaleParams, geglu: bool, seed: u64) -> Self {
        assert_eq!(
            params.d_model % params.heads,
            0,
            "d_model must divide into heads"
        );
        let d = params.d_model;
        let act = if geglu {
            Activation::Geglu
        } else {
            Activation::Gelu
        };
        // Residual-branch output projections are scaled down (GPT-2-style
        // 1/sqrt(2L) initialization). With unscaled random weights, the
        // near-uniform attention of an untrained block injects an identical
        // vector into every token's residual stream, artificially correlating
        // all token rows — which would corrupt the sparsity-structure
        // measurements (Figs. 7–9, 17).
        let residual_scale = 1.0 / (2.0 * params.blocks.max(1) as f32).sqrt() * 0.5;
        let mut ffn = FfnWeights::random(d, params.d_ff, act, seed.wrapping_add(4));
        ffn.w2 = ops::scale(&ffn.w2, residual_scale);
        Self {
            wq: exion_tensor::rng::xavier_uniform(d, d, seed),
            wk: exion_tensor::rng::xavier_uniform(d, d, seed.wrapping_add(1)),
            wv: exion_tensor::rng::xavier_uniform(d, d, seed.wrapping_add(2)),
            wo: ops::scale(
                &exion_tensor::rng::xavier_uniform(d, d, seed.wrapping_add(3)),
                residual_scale,
            ),
            ffn,
            ln1: (vec![1.0; d], vec![0.0; d]),
            ln2: (vec![1.0; d], vec![0.0; d]),
            heads: params.heads,
        }
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.wq.rows()
    }

    /// Per-head width.
    pub fn d_head(&self) -> usize {
        self.d_model() / self.heads
    }
}

/// Instrumentation emitted by one block execution.
#[derive(Debug, Clone, Default)]
pub struct BlockReport {
    /// FFN-Reuse iteration report (None when running dense FFN).
    pub ffn: Option<FfnIterationReport>,
    /// Eager-prediction statistics over heads: the three fractions are
    /// averaged, `one_hot_rows` is summed (None without EP).
    pub ep_stats: Option<EpStats>,
    /// QKV + output projection MACs (performed vs dense).
    pub qkv_ops: OpCounts,
    /// Attention score + probability·V MACs (performed vs dense).
    pub attention_ops: OpCounts,
    /// FFN MACs (performed vs dense).
    pub ffn_ops: OpCounts,
    /// First-FFN-layer output bitmask (FFN-Reuse sparse iterations with mask
    /// capture).
    pub ffn_mask: Option<Bitmask2D>,
    /// Per-head attention keep bitmasks (EP with mask capture).
    pub attention_masks: Vec<Bitmask2D>,
    /// Full activation output of the FFN non-linearity (vanilla runs with
    /// hidden capture).
    pub hidden: Option<Matrix>,
}

impl BlockReport {
    /// Total MACs performed vs dense across all MMUL stages.
    pub fn total_ops(&self) -> OpCounts {
        self.qkv_ops.merge(&self.attention_ops).merge(&self.ffn_ops)
    }
}

/// A stateful transformer block (owns its FFN-Reuse engine across diffusion
/// iterations).
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    weights: BlockWeights,
    ffn_engine: Option<FfnReuseEngine>,
}

impl TransformerBlock {
    /// Wraps block weights.
    pub fn new(weights: BlockWeights) -> Self {
        Self {
            weights,
            ffn_engine: None,
        }
    }

    /// The block's weights.
    pub fn weights(&self) -> &BlockWeights {
        &self.weights
    }

    /// Resets FFN-Reuse state (next iteration runs dense).
    pub fn reset(&mut self) {
        self.ffn_engine = None;
    }

    /// Executes the block on `x` (`tokens × d_model`) under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width differs from the block's `d_model`.
    pub fn forward(&mut self, x: &Matrix, policy: &ExecPolicy) -> (Matrix, BlockReport) {
        assert_eq!(x.cols(), self.weights.d_model(), "input width mismatch");
        let mut report = BlockReport::default();

        // --- Multi-head attention ---------------------------------------
        let normed = layer_norm(x, &self.weights.ln1.0, &self.weights.ln1.1, 1e-5);
        let attn_out = self.attention(&normed, policy, &mut report);
        let x = ops::add(x, &attn_out);

        // --- FFN ----------------------------------------------------------
        let normed = layer_norm(&x, &self.weights.ln2.0, &self.weights.ln2.1, 1e-5);
        let ffn_in = if policy.quant {
            quantize_roundtrip(&normed)
        } else {
            normed
        };
        let ffn_out = match policy.ffn_reuse {
            Some(config) => {
                let engine = self
                    .ffn_engine
                    .get_or_insert_with(|| FfnReuseEngine::new(config));
                let (out, ffn_report) = engine.forward(&ffn_in, &self.weights.ffn);
                report.ffn_ops = ffn_report.ops;
                if policy.capture_masks {
                    report.ffn_mask = engine.bitmask().cloned();
                }
                report.ffn = Some(ffn_report);
                out
            }
            None => {
                let hidden = self.weights.ffn.hidden_dense(&ffn_in);
                let out = ops::add_bias(
                    &ops::matmul(&hidden, &self.weights.ffn.w2),
                    &self.weights.ffn.b2,
                );
                let n = ffn_in.rows() as u64;
                let d = self.weights.d_model() as u64;
                let dense = n * self.weights.ffn.d_ff() as u64 * d
                    + n * self.weights.ffn.hidden_cols() as u64 * d;
                report.ffn_ops = OpCounts::new(dense, dense);
                if policy.capture_hidden {
                    report.hidden = Some(hidden);
                }
                out
            }
        };
        (ops::add(&x, &ffn_out), report)
    }

    /// Multi-head attention with optional EP and quantization.
    fn attention(&self, h: &Matrix, policy: &ExecPolicy, report: &mut BlockReport) -> Matrix {
        let n = h.rows();
        let d = self.weights.d_model();
        let heads = self.weights.heads;
        let dh = self.weights.d_head();
        let inv_sqrt_dh = 1.0 / (dh as f32).sqrt();

        // Eager prediction runs first, from the *input* of the projections
        // (the EPRE's own log-domain pass), producing per-head plans.
        let plans: Option<Vec<AttentionPlan>> = policy
            .ep
            .map(|ep| self.predict_plans(h, &ep, heads, dh, inv_sqrt_dh));

        // Real-domain projections (PTQ round-trips model the INT12 SDUE).
        let (hq, wq, wk, wv) = if policy.quant {
            (
                quantize_roundtrip(h),
                quantize_roundtrip(&self.weights.wq),
                quantize_roundtrip(&self.weights.wk),
                quantize_roundtrip(&self.weights.wv),
            )
        } else {
            (
                h.clone(),
                self.weights.wq.clone(),
                self.weights.wk.clone(),
                self.weights.wv.clone(),
            )
        };
        let q = ops::matmul(&hq, &wq);
        let k = ops::matmul(&hq, &wk);
        let v = ops::matmul(&hq, &wv);

        // Projection op accounting: Q rows skip when every head one-hots the
        // row; K/V columns skip when no head uses the token.
        let proj = (n * d * d) as u64;
        let dense_qkv = 4 * proj; // q, k, v, output
        let performed_qkv = match &plans {
            Some(plans) => {
                let q_skipped = (0..n)
                    .filter(|&r| plans.iter().all(|p| p.one_hot()[r].is_some()))
                    .count() as u64;
                let kv_skipped = (0..n)
                    .filter(|&c| plans.iter().all(|p| !p.col_used()[c]))
                    .count() as u64;
                let q_ops = (n as u64 - q_skipped) * (d * d) as u64;
                let kv_ops = 2 * (n as u64 - kv_skipped) * (d * d) as u64;
                q_ops + kv_ops + proj
            }
            None => dense_qkv,
        };
        report.qkv_ops = OpCounts::new(performed_qkv, dense_qkv);

        // Per-head attention.
        let mut concat = Matrix::zeros(n, d);
        let mut attn_ops = OpCounts::default();
        let mut ep_acc = EpStats::default();
        for head in 0..heads {
            let qh = q.submatrix(0, head * dh, n, dh);
            let kh = k.submatrix(0, head * dh, n, dh);
            let vh = v.submatrix(0, head * dh, n, dh);
            let out_h = match &plans {
                Some(plans) => {
                    let plan = &plans[head];
                    let r = execute_sparse_attention(&qh, &kh, &vh, plan, inv_sqrt_dh);
                    attn_ops = attn_ops.merge(&r.ops);
                    let s = plan.stats();
                    ep_acc.score_sparsity += s.score_sparsity / heads as f64;
                    ep_acc.one_hot_rows += s.one_hot_rows;
                    ep_acc.q_skip_fraction += s.q_skip_fraction / heads as f64;
                    ep_acc.kv_skip_fraction += s.kv_skip_fraction / heads as f64;
                    if policy.capture_masks {
                        report.attention_masks.push(plan.keep().clone());
                    }
                    r.out
                }
                None => {
                    let dense = 2 * (n * n * dh) as u64;
                    attn_ops = attn_ops.merge(&OpCounts::new(dense, dense));
                    execute_dense_attention(&qh, &kh, &vh, inv_sqrt_dh)
                }
            };
            for r in 0..n {
                concat.row_mut(r)[head * dh..(head + 1) * dh].copy_from_slice(out_h.row(r));
            }
        }
        report.attention_ops = attn_ops;
        if plans.is_some() {
            report.ep_stats = Some(ep_acc);
        }

        let wo = if policy.quant {
            quantize_roundtrip(&self.weights.wo)
        } else {
            self.weights.wo.clone()
        };
        ops::matmul(&concat, &wo)
    }

    /// The EPRE pass: log-domain Q'/K' projections, re-quantization, and
    /// per-head score prediction.
    fn predict_plans(
        &self,
        h: &Matrix,
        ep: &EpConfig,
        heads: usize,
        dh: usize,
        inv_sqrt_dh: f32,
    ) -> Vec<AttentionPlan> {
        let xq = QuantMatrix::quantize(h, IntWidth::Int12);
        let wq = QuantMatrix::quantize(&self.weights.wq, IntWidth::Int12);
        let wk = QuantMatrix::quantize(&self.weights.wk, IntWidth::Int12);
        let q_pred = log_matmul(&xq, &wq, ep.lod, ep.accum);
        let k_pred = log_matmul(&xq, &wk, ep.lod, ep.accum);
        let proj_scale = xq.params().scale * wq.params().scale;
        let (q12, q_scale) = requantize(&q_pred, proj_scale);
        let proj_scale_k = xq.params().scale * wk.params().scale;
        let (k12, k_scale) = requantize(&k_pred, proj_scale_k);

        (0..heads)
            .map(|head| {
                let qh = slice_cols(&q12, head * dh, dh);
                let kh = slice_cols(&k12, head * dh, dh);
                let score_scale = q_scale * k_scale * inv_sqrt_dh;
                AttentionPlan::predict(&qh, &kh, score_scale, ep)
            })
            .collect()
    }
}

/// INT12 quantize→dequantize round trip (PTQ simulation of one MMUL operand).
pub fn quantize_roundtrip(m: &Matrix) -> Matrix {
    QuantMatrix::quantize(m, IntWidth::Int12).dequantize()
}

/// Re-quantizes log-domain prediction integers back to INT12, preserving the
/// real-valued scale (`value ≈ int12 * scale`).
fn requantize(scores: &exion_core::ep::LogScores, in_scale: f32) -> (QuantMatrix, f32) {
    let rows = scores.rows();
    let cols = scores.cols();
    let max_abs = (0..rows)
        .flat_map(|r| scores.row(r).iter().copied())
        .map(i64::abs)
        .max()
        .unwrap_or(0);
    let max_q = IntWidth::Int12.max_value() as i64;
    let shrink = (max_abs / max_q) + 1; // integer downscale factor ≥ 1
    let data: Vec<i32> = (0..rows)
        .flat_map(|r| scores.row(r).iter().map(|&s| (s / shrink) as i32))
        .collect();
    let params = QuantParams {
        scale: 1.0, // integer-domain matrix; scale carried separately
        width: IntWidth::Int12,
    };
    (
        QuantMatrix::from_parts(rows, cols, data, params),
        in_scale * shrink as f32,
    )
}

/// Column slice of a quantized matrix (per-head view).
fn slice_cols(m: &QuantMatrix, c0: usize, width: usize) -> QuantMatrix {
    let data: Vec<i32> = (0..m.rows())
        .flat_map(|r| (0..width).map(move |j| m.get(r, c0 + j)))
        .collect();
    QuantMatrix::from_parts(m.rows(), width, data, m.params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_tensor::rng::seeded_uniform;
    use exion_tensor::stats;

    fn params() -> ScaleParams {
        ScaleParams {
            tokens: 12,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            blocks: 1,
            cond_tokens: 0,
            resblock_ops_share: 0.0,
        }
    }

    fn input(seed: u64) -> Matrix {
        seeded_uniform(12, 16, -1.0, 1.0, seed)
    }

    #[test]
    fn vanilla_forward_preserves_shape_and_is_deterministic() {
        let w = BlockWeights::random(&params(), false, 1);
        let mut b1 = TransformerBlock::new(w.clone());
        let mut b2 = TransformerBlock::new(w);
        let x = input(2);
        let (y1, r) = b1.forward(&x, &ExecPolicy::vanilla());
        let (y2, _) = b2.forward(&x, &ExecPolicy::vanilla());
        assert_eq!(y1.shape(), x.shape());
        assert_eq!(y1, y2);
        assert_eq!(r.total_ops().reduction(), 0.0);
    }

    #[test]
    fn residual_path_dominates_small_weights() {
        // A transformer block is residual: output correlates with input.
        let w = BlockWeights::random(&params(), false, 3);
        let mut b = TransformerBlock::new(w);
        let x = input(4);
        let (y, _) = b.forward(&x, &ExecPolicy::vanilla());
        let cos = stats::cosine_similarity(x.as_slice(), y.as_slice());
        assert!(cos > 0.5, "residual cosine {cos}");
    }

    #[test]
    fn ffn_reuse_reduces_ops_after_dense_iteration() {
        let w = BlockWeights::random(&params(), false, 5);
        let mut b = TransformerBlock::new(w);
        let policy =
            ExecPolicy::vanilla().with_ffn_reuse(FfnReuseConfig::with_target_sparsity(0.9, 3));
        let x = input(6);
        let (_, r0) = b.forward(&x, &policy);
        let (_, r1) = b.forward(&x, &policy);
        assert_eq!(r0.ffn_ops.reduction(), 0.0);
        assert!(r1.ffn_ops.reduction() > 0.5);
        assert!(r1.ffn.expect("ffn report").output_sparsity > 0.8);
    }

    #[test]
    fn ffn_reuse_output_tracks_vanilla_on_similar_inputs() {
        let w = BlockWeights::random(&params(), false, 7);
        let mut reuse_block = TransformerBlock::new(w.clone());
        let mut vanilla_block = TransformerBlock::new(w);
        let policy =
            ExecPolicy::vanilla().with_ffn_reuse(FfnReuseConfig::with_target_sparsity(0.85, 4));
        let x = input(8);
        let _ = reuse_block.forward(&x, &policy);
        let x2 = x.map(|v| v + 0.02);
        let (y_reuse, _) = reuse_block.forward(&x2, &policy);
        let (y_exact, _) = vanilla_block.forward(&x2, &ExecPolicy::vanilla());
        let err = stats::relative_error(&y_exact, &y_reuse);
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn ep_reduces_attention_and_projection_ops() {
        let w = BlockWeights::random(&params(), false, 9);
        let mut b = TransformerBlock::new(w);
        let policy = ExecPolicy::vanilla().with_ep(EpConfig::new(0.5, 0.25));
        let (_, r) = b.forward(&input(10), &policy);
        assert!(r.attention_ops.reduction() > 0.5);
        let s = r.ep_stats.expect("ep stats");
        assert!(s.score_sparsity > 0.5);
        // Output projection always runs, so qkv reduction is bounded.
        assert!(r.qkv_ops.performed <= r.qkv_ops.dense);
    }

    #[test]
    fn ep_output_stays_close_with_generous_top_k() {
        let w = BlockWeights::random(&params(), false, 11);
        let mut ep_block = TransformerBlock::new(w.clone());
        let mut vanilla_block = TransformerBlock::new(w);
        let x = input(12);
        let (y_ep, _) = ep_block.forward(
            &x,
            &ExecPolicy::vanilla().with_ep(EpConfig::new(f32::INFINITY, 0.9)),
        );
        let (y_dense, _) = vanilla_block.forward(&x, &ExecPolicy::vanilla());
        let err = stats::relative_error(&y_dense, &y_ep);
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn quantization_is_close_to_fp32() {
        let w = BlockWeights::random(&params(), false, 13);
        let mut q_block = TransformerBlock::new(w.clone());
        let mut f_block = TransformerBlock::new(w);
        let x = input(14);
        let (yq, _) = q_block.forward(&x, &ExecPolicy::vanilla().with_quant());
        let (yf, _) = f_block.forward(&x, &ExecPolicy::vanilla());
        let err = stats::relative_error(&yf, &yq);
        assert!(err < 0.02, "quantization error {err}");
    }

    #[test]
    fn mask_capture_provides_bitmasks() {
        let w = BlockWeights::random(&params(), false, 15);
        let mut b = TransformerBlock::new(w);
        let policy = ExecPolicy::vanilla()
            .with_ffn_reuse(FfnReuseConfig::with_target_sparsity(0.9, 2))
            .with_ep(EpConfig::new(0.5, 0.3))
            .with_mask_capture();
        let x = input(16);
        let (_, _) = b.forward(&x, &policy);
        let (_, r) = b.forward(&x, &policy);
        let mask = r.ffn_mask.expect("ffn mask captured");
        assert_eq!(mask.shape(), (12, 32));
        assert_eq!(r.attention_masks.len(), 2); // one per head
        assert_eq!(r.attention_masks[0].shape(), (12, 12));
    }

    #[test]
    fn hidden_capture_in_vanilla_mode() {
        let w = BlockWeights::random(&params(), false, 17);
        let mut b = TransformerBlock::new(w);
        let (_, r) = b.forward(&input(18), &ExecPolicy::vanilla().with_hidden_capture());
        assert_eq!(r.hidden.expect("hidden").shape(), (12, 32));
    }

    #[test]
    fn geglu_block_works() {
        let w = BlockWeights::random(&params(), true, 19);
        let mut b = TransformerBlock::new(w);
        let (y, r) = b.forward(&input(20), &ExecPolicy::vanilla());
        assert_eq!(y.shape(), (12, 16));
        assert!(r.ffn_ops.dense > 0);
    }
}
