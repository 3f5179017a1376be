//! Attention-score prediction and the sparse attention plan (paper Fig. 5(b)).
//!
//! The EPRE predicts the attention score in the log domain, then EXION
//! derives a *plan*: which score elements must be computed in the real
//! domain, which rows collapse to one-hot outputs, and which Q rows / K,V
//! columns can skip their projections entirely.

use exion_tensor::softmax::softmax_row_inplace;
use exion_tensor::{ops, Matrix, QuantMatrix};

use crate::bitmask::Bitmask2D;
use crate::ep::logdomain::{log_matmul_transpose_b, AccumMode, LodMode};
use crate::sparsity::OpCounts;

/// Eager-prediction configuration (the paper's Table I per-model `q_th` and
/// `k` values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpConfig {
    /// Dominance threshold, in real score units: if the predicted row maximum
    /// exceeds the runner-up by more than `q_th`, the row's computation is
    /// skipped entirely (one-hot approximation).
    pub q_th: f32,
    /// Top-k selection ratio (`k = 0.5` keeps 50% of each row).
    pub top_k_ratio: f32,
    /// Leading-one-detection depth used for the prediction.
    pub lod: LodMode,
    /// Accumulation model of the LD_DPU datapath.
    pub accum: AccumMode,
}

impl EpConfig {
    /// Creates a config with EXION's TS-LOD + OR-tree datapath.
    pub fn new(q_th: f32, top_k_ratio: f32) -> Self {
        Self {
            q_th,
            top_k_ratio,
            lod: LodMode::TwoStep,
            accum: AccumMode::OneHotOrTree,
        }
    }

    /// Same thresholds but with the original FACT-style single-step LOD.
    pub fn with_single_lod(mut self) -> Self {
        self.lod = LodMode::Single;
        self
    }
}

impl Default for EpConfig {
    fn default() -> Self {
        Self::new(0.5, 0.5)
    }
}

/// Statistics of one prediction (the paper's intra-iteration sparsity and
/// projection-skip percentages).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpStats {
    /// Fraction of attention-score elements whose real-domain computation is
    /// skipped (zeroed by top-k or covered by a one-hot row) — the paper's
    /// *intra-iteration output sparsity* (20–95% across benchmarks).
    pub score_sparsity: f64,
    /// Number of rows collapsed to a one-hot output.
    pub one_hot_rows: usize,
    /// Fraction of Q-projection rows skipped (paper average: 26%).
    pub q_skip_fraction: f64,
    /// Fraction of K/V-projection columns skipped (paper average: 22%).
    pub kv_skip_fraction: f64,
}

/// The outcome of eager prediction: what the real-domain attention pass must
/// still compute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionPlan {
    keep: Bitmask2D,
    one_hot: Vec<Option<usize>>,
    col_used: Vec<bool>,
    stats: EpStats,
}

impl AttentionPlan {
    /// Predicts the attention score `q · kᵀ` in the log domain and derives
    /// the plan.
    ///
    /// `score_scale` converts predicted integer scores to real units
    /// (`scale_q * scale_k / sqrt(d_head)`), so `q_th` is comparable across
    /// quantization calibrations.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `k` have different feature widths, or if
    /// `top_k_ratio` is outside `(0, 1]`.
    pub fn predict(q: &QuantMatrix, k: &QuantMatrix, score_scale: f32, config: &EpConfig) -> Self {
        assert!(
            config.top_k_ratio > 0.0 && config.top_k_ratio <= 1.0,
            "top_k_ratio {} outside (0, 1]",
            config.top_k_ratio
        );
        let scores = log_matmul_transpose_b(q, k, config.lod, config.accum);
        let rows = scores.rows();
        let cols = scores.cols();
        let mut keep = Bitmask2D::zeros(rows, cols);
        let mut one_hot = vec![None; rows];
        let mut col_used = vec![false; cols];
        if cols == 0 {
            // No keys, nothing to keep: the empty plan.
            return Self {
                keep,
                one_hot,
                col_used,
                stats: EpStats::default(),
            };
        }
        // The epsilon guards against f32→f64 artifacts (0.8f32 as f64 is
        // slightly above 0.8, which would bump the ceil).
        let keep_per_row =
            (((cols as f64 * config.top_k_ratio as f64) - 1e-6).ceil() as usize).clamp(1, cols);
        let mut order = Vec::with_capacity(cols);

        #[allow(clippy::needless_range_loop)] // r indexes scores, one_hot and keep together
        for r in 0..rows {
            let row = scores.row(r);
            let (arg_max, max, second) = max_and_runner_up(row);
            let dominance = (max - second) as f64 * score_scale as f64;
            if cols > 1 && dominance > config.q_th as f64 {
                // One-hot approximation: the softmax output is effectively a
                // delta at arg_max; the whole row is skipped.
                one_hot[r] = Some(arg_max);
                col_used[arg_max] = true;
                continue;
            }
            for &c in top_k_indices(row, keep_per_row, &mut order) {
                keep.set(r, c, true);
                col_used[c] = true;
            }
        }

        let kept = keep.count_ones();
        let total = rows * cols;
        let used_cols = col_used.iter().filter(|&&u| u).count();
        let one_hot_rows = one_hot.iter().filter(|o| o.is_some()).count();
        let stats = EpStats {
            score_sparsity: if total == 0 {
                0.0
            } else {
                1.0 - kept as f64 / total as f64
            },
            one_hot_rows,
            q_skip_fraction: if rows == 0 {
                0.0
            } else {
                one_hot_rows as f64 / rows as f64
            },
            kv_skip_fraction: 1.0 - used_cols as f64 / cols as f64,
        };
        Self {
            keep,
            one_hot,
            col_used,
            stats,
        }
    }

    /// The keep bitmask over the attention score (1 = compute in real domain).
    pub fn keep(&self) -> &Bitmask2D {
        &self.keep
    }

    /// Per-row one-hot decision (`Some(col)` = row skipped, output is V\[col\]).
    pub fn one_hot(&self) -> &[Option<usize>] {
        &self.one_hot
    }

    /// Which key/value columns must still be projected.
    pub fn col_used(&self) -> &[bool] {
        &self.col_used
    }

    /// Prediction statistics.
    pub fn stats(&self) -> EpStats {
        self.stats
    }
}

/// Result of executing attention under a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseAttentionOutput {
    /// The attention output (`rows × d_v`).
    pub out: Matrix,
    /// Real-domain MACs performed vs. a dense attention computation
    /// (score MMUL + probability·V MMUL).
    pub ops: OpCounts,
}

/// Executes attention in the real domain, computing only what the plan keeps.
///
/// One-hot rows copy the dominant token's value row. Kept positions get exact
/// scores, a masked softmax, and a sparse probability·V accumulation.
///
/// # Panics
///
/// Panics on any shape mismatch between `q`, `k`, `v` and the plan.
pub fn execute_sparse_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    plan: &AttentionPlan,
    inv_sqrt_d: f32,
) -> SparseAttentionOutput {
    let rows = q.rows();
    let cols = k.rows();
    assert_eq!(q.cols(), k.cols(), "q/k width mismatch");
    assert_eq!(v.rows(), cols, "v row mismatch");
    assert_eq!(plan.keep.shape(), (rows, cols), "plan shape mismatch");
    let d = q.cols() as u64;
    let d_v = v.cols() as u64;

    let mut out = Matrix::zeros(rows, v.cols());
    let mut performed = 0u64;
    for r in 0..rows {
        if let Some(c) = plan.one_hot[r] {
            out.row_mut(r).copy_from_slice(v.row(c));
            continue;
        }
        let kept: Vec<usize> = (0..cols).filter(|&c| plan.keep.get(r, c)).collect();
        if kept.is_empty() {
            continue;
        }
        let mut scores: Vec<f32> = kept
            .iter()
            .map(|&c| ops::dot(q.row(r), k.row(c)) * inv_sqrt_d)
            .collect();
        performed += kept.len() as u64 * d;
        softmax_row_inplace(&mut scores);
        let out_row = out.row_mut(r);
        for (&c, &p) in kept.iter().zip(&scores) {
            for (o, &vv) in out_row.iter_mut().zip(v.row(c)) {
                *o += p * vv;
            }
        }
        performed += kept.len() as u64 * d_v;
    }

    let dense = rows as u64 * cols as u64 * (d + d_v);
    SparseAttentionOutput {
        out,
        ops: OpCounts::new(performed, dense),
    }
}

/// Dense reference attention (`softmax(q·kᵀ / sqrt(d)) · v`).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn execute_dense_attention(q: &Matrix, k: &Matrix, v: &Matrix, inv_sqrt_d: f32) -> Matrix {
    let scores = ops::scale(&ops::matmul_transpose_b(q, k), inv_sqrt_d);
    let probs = exion_tensor::softmax::softmax_rows(&scores);
    ops::matmul(&probs, v)
}

/// Index of maximum, maximum, and runner-up of a score row.
///
/// For a single-column row the runner-up equals the maximum, so no row can
/// be declared dominant.
fn max_and_runner_up(row: &[i64]) -> (usize, i64, i64) {
    debug_assert!(!row.is_empty());
    let mut arg = 0;
    let mut max = i64::MIN;
    let mut second = i64::MIN;
    for (i, &x) in row.iter().enumerate() {
        if x > max {
            second = max;
            max = x;
            arg = i;
        } else if x > second {
            second = x;
        }
    }
    if second == i64::MIN {
        second = max;
    }
    (arg, max, second)
}

/// Indices of the `k <= row.len()` largest entries (ties broken by lower
/// index), in no particular order. `order` is scratch space reused across
/// rows.
fn top_k_indices<'a>(row: &[i64], k: usize, order: &'a mut Vec<usize>) -> &'a [usize] {
    order.clear();
    order.extend(0..row.len());
    if k < row.len() {
        order.select_nth_unstable_by(k, |&a, &b| row[b].cmp(&row[a]).then(a.cmp(&b)));
    }
    &order[..k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_tensor::rng::seeded_uniform;
    use exion_tensor::{stats, IntWidth};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn quantize(m: &Matrix) -> QuantMatrix {
        QuantMatrix::quantize(m, IntWidth::Int12)
    }

    fn score_scale(q: &QuantMatrix, k: &QuantMatrix, d: usize) -> f32 {
        q.params().scale * k.params().scale / (d as f32).sqrt()
    }

    #[test]
    fn keep_all_plan_matches_dense_attention() {
        let d = 16;
        let q = seeded_uniform(8, d, -1.0, 1.0, 1);
        let k = seeded_uniform(12, d, -1.0, 1.0, 2);
        let v = seeded_uniform(12, 8, -1.0, 1.0, 3);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let config = EpConfig {
            q_th: f32::INFINITY,
            top_k_ratio: 1.0,
            lod: LodMode::TwoStep,
            accum: AccumMode::Exact,
        };
        let plan = AttentionPlan::predict(&qq, &qk, score_scale(&qq, &qk, d), &config);
        assert_eq!(plan.stats().one_hot_rows, 0);
        assert_eq!(plan.keep().count_ones(), 8 * 12);
        let sparse = execute_sparse_attention(&q, &k, &v, &plan, 1.0 / (d as f32).sqrt());
        let dense = execute_dense_attention(&q, &k, &v, 1.0 / (d as f32).sqrt());
        assert!(stats::relative_error(&dense, &sparse.out) < 1e-5);
        assert_eq!(sparse.ops.reduction(), 0.0);
    }

    #[test]
    fn top_k_keeps_exact_count_per_row() {
        let d = 8;
        let q = seeded_uniform(6, d, -1.0, 1.0, 4);
        let k = seeded_uniform(20, d, -1.0, 1.0, 5);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let config = EpConfig {
            q_th: f32::INFINITY, // no one-hot rows
            top_k_ratio: 0.25,
            lod: LodMode::TwoStep,
            accum: AccumMode::OneHotOrTree,
        };
        let plan = AttentionPlan::predict(&qq, &qk, score_scale(&qq, &qk, d), &config);
        for r in 0..6 {
            assert_eq!(plan.keep().row_count_ones(r), 5); // ceil(20 * 0.25)
        }
        assert!((plan.stats().score_sparsity - 0.75).abs() < 1e-9);
    }

    #[test]
    fn dominant_score_triggers_one_hot_row() {
        // Query 0 aligned with key 3, much larger than everything else.
        let d = 8;
        let mut q = Matrix::zeros(2, d);
        q.row_mut(0)[0] = 1.0;
        q.row_mut(1).fill(0.01);
        let mut k = Matrix::full(6, d, 0.01);
        k.row_mut(3)[0] = 1.0;
        let v = seeded_uniform(6, 4, -1.0, 1.0, 6);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let config = EpConfig::new(0.05, 0.5);
        let plan = AttentionPlan::predict(&qq, &qk, score_scale(&qq, &qk, d), &config);
        assert_eq!(plan.one_hot()[0], Some(3));
        let out = execute_sparse_attention(&q, &k, &v, &plan, 1.0 / (d as f32).sqrt());
        assert_eq!(out.out.row(0), v.row(3));
    }

    #[test]
    fn one_hot_rows_skip_all_row_ops() {
        let d = 8;
        let mut q = Matrix::zeros(1, d);
        q.row_mut(0)[0] = 1.0;
        let mut k = Matrix::zeros(4, d);
        k.row_mut(2)[0] = 1.0;
        let v = seeded_uniform(4, 4, -1.0, 1.0, 7);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let plan = AttentionPlan::predict(
            &qq,
            &qk,
            score_scale(&qq, &qk, d),
            &EpConfig::new(0.01, 0.5),
        );
        let out = execute_sparse_attention(&q, &k, &v, &plan, 1.0);
        assert_eq!(out.ops.performed, 0);
        assert!((plan.stats().q_skip_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unused_columns_reported_for_kv_skip() {
        let d = 8;
        let q = seeded_uniform(4, d, -1.0, 1.0, 8);
        let k = seeded_uniform(16, d, -1.0, 1.0, 9);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let config = EpConfig {
            q_th: f32::INFINITY,
            top_k_ratio: 0.1, // keep 2 of 16 per row → at most 8 used columns
            lod: LodMode::TwoStep,
            accum: AccumMode::OneHotOrTree,
        };
        let plan = AttentionPlan::predict(&qq, &qk, score_scale(&qq, &qk, d), &config);
        let used = plan.col_used().iter().filter(|&&u| u).count();
        assert!(used <= 8);
        assert!(plan.stats().kv_skip_fraction >= 0.5);
        // Every kept bit is in a used column.
        for (_, c) in plan.keep().iter_ones() {
            assert!(plan.col_used()[c]);
        }
    }

    #[test]
    fn sparse_attention_approximates_dense_with_generous_top_k() {
        let d = 16;
        let q = seeded_uniform(10, d, -1.0, 1.0, 10);
        let k = seeded_uniform(10, d, -1.0, 1.0, 11);
        let v = seeded_uniform(10, 8, -1.0, 1.0, 12);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let inv = 1.0 / (d as f32).sqrt();
        let plan = AttentionPlan::predict(
            &qq,
            &qk,
            score_scale(&qq, &qk, d),
            &EpConfig::new(f32::INFINITY, 0.8),
        );
        let sparse = execute_sparse_attention(&q, &k, &v, &plan, inv);
        let dense = execute_dense_attention(&q, &k, &v, inv);
        // Random Q/K produce a near-uniform softmax, the worst case for
        // top-k pruning; trained attention is far more concentrated. The
        // bound here only checks the approximation tracks dense attention.
        let err = stats::relative_error(&dense, &sparse.out);
        assert!(err < 0.3, "relative error {err}");
        assert!(sparse.ops.reduction() > 0.15);
    }

    #[test]
    fn single_column_never_one_hot() {
        let q = Matrix::full(2, 4, 1.0);
        let k = Matrix::full(1, 4, 1.0);
        let (qq, qk) = (quantize(&q), quantize(&k));
        let plan = AttentionPlan::predict(&qq, &qk, 1.0, &EpConfig::new(0.0, 1.0));
        assert!(plan.one_hot().iter().all(|o| o.is_none()));
        assert_eq!(plan.keep().count_ones(), 2);
    }

    #[test]
    fn helper_max_and_runner_up() {
        assert_eq!(max_and_runner_up(&[5, 1, 9, 9]), (2, 9, 9));
        assert_eq!(max_and_runner_up(&[3]), (0, 3, 3));
        assert_eq!(max_and_runner_up(&[-5, -2]), (1, -2, -5));
    }

    /// The selected index set, ascending.
    fn top_k_set(row: &[i64], k: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut set = top_k_indices(row, k, &mut order).to_vec();
        set.sort_unstable();
        set
    }

    /// Full-sort reference: the first `k` indices under (score descending,
    /// index ascending), as an ascending set.
    fn top_k_by_sort(row: &[i64], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].cmp(&row[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    #[test]
    fn helper_top_k() {
        assert_eq!(top_k_set(&[5, 1, 9, 7], 2), vec![2, 3]);
        assert_eq!(top_k_set(&[1, 1, 1], 2), vec![0, 1]);
    }

    #[test]
    fn selection_top_k_matches_the_full_sort_with_ties() {
        let mut rng = StdRng::seed_from_u64(0x70B);
        for _ in 0..200 {
            let len = rng.random_range(1..48);
            // Few distinct values, so most rows carry ties at the cut.
            let levels = rng.random_range(1..6i64);
            let row: Vec<i64> = (0..len)
                .map(|_| rng.random_range(-levels..levels + 1))
                .collect();
            for k in 1..=len {
                assert_eq!(
                    top_k_set(&row, k),
                    top_k_by_sort(&row, k),
                    "row {row:?}, k {k}"
                );
            }
        }
    }

    #[test]
    fn predict_without_keys_returns_the_empty_plan() {
        let q = quantize(&seeded_uniform(3, 4, -1.0, 1.0, 13));
        let k = QuantMatrix::from_parts(0, 4, Vec::new(), q.params());
        let plan = AttentionPlan::predict(&q, &k, 1.0, &EpConfig::default());
        assert_eq!(plan.keep().shape(), (3, 0));
        assert_eq!(plan.one_hot(), &[None; 3]);
        assert!(plan.col_used().is_empty());
        assert_eq!(plan.stats(), EpStats::default());
        let v = Matrix::zeros(0, 2);
        let out = execute_sparse_attention(&q.dequantize(), &k.dequantize(), &v, &plan, 0.5);
        assert_eq!(out.out, Matrix::zeros(3, 2));
    }
}
