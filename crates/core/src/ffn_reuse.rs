//! The FFN-Reuse algorithm (paper Section III-A, Fig. 6).
//!
//! Diffusion models denoise over many iterations, and the output of the
//! non-linearity between the two FFN linear layers changes very little from
//! one iteration to the next (Fig. 7). FFN-Reuse exploits this *temporal data
//! redundancy*:
//!
//! 1. A **dense iteration** computes both FFN layers fully, compares the
//!    activation output against a threshold, and stores
//!    * a *bitmask* (1 = above threshold ⇒ recompute every iteration,
//!      0 = below threshold ⇒ reuse),
//!    * the activation values themselves, and
//!    * the *partial sums of sparse data*: the second layer's contribution of
//!      all reused activation values.
//! 2. The following **N sparse iterations** recompute only bitmask-1 positions
//!    in the first layer (the rest of that layer's output is never produced —
//!    this is the *inter-iteration output sparsity*), and the second layer
//!    adds only the recomputed values onto the stored partial sums.
//!
//! The thresholds "vary across iterations and transformer blocks" and are
//! "determined through empirical experiments" — [`calibrate_threshold`]
//! implements that calibration as a quantile of the dense activation
//! magnitudes.

use exion_tensor::{activation, ops, Activation, Matrix};
use serde::{Deserialize, Serialize};

use crate::bitmask::Bitmask2D;
use crate::sparsity::OpCounts;

/// Weights of one transformer FFN (two linear layers around a non-linearity).
#[derive(Debug, Clone, PartialEq)]
pub struct FfnWeights {
    /// First linear layer, `d_model × d_ff`.
    pub w1: Matrix,
    /// First-layer bias, length `d_ff`.
    pub b1: Vec<f32>,
    /// Second linear layer, `act.output_cols(d_ff) × d_model`.
    pub w2: Matrix,
    /// Second-layer bias, length `d_model`.
    pub b2: Vec<f32>,
    /// Non-linearity between the layers.
    pub activation: Activation,
}

impl FfnWeights {
    /// Creates Xavier-initialized FFN weights.
    ///
    /// For [`Activation::Geglu`], `d_ff` is the first layer's output width and
    /// the activation output (and second layer input) has `d_ff / 2` features.
    ///
    /// # Panics
    ///
    /// Panics if `Geglu` is requested with an odd `d_ff`.
    pub fn random(d_model: usize, d_ff: usize, activation: Activation, seed: u64) -> Self {
        assert!(
            activation != Activation::Geglu || d_ff.is_multiple_of(2),
            "GEGLU requires an even d_ff"
        );
        let hidden_out = activation.output_cols(d_ff);
        // Normalize first-layer column norms: trained networks keep hidden
        // channels at comparable scales (normalization layers see to it).
        // Raw Xavier columns vary in norm, which would create artificial
        // whole-column sparsity under a global threshold and distort the
        // condensing behaviour the paper measures (Fig. 8).
        let mut w1 = exion_tensor::rng::xavier_uniform(d_model, d_ff, seed);
        let norms: Vec<f32> = (0..d_ff)
            .map(|c| w1.col(c).iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let mean_norm = norms.iter().sum::<f32>() / d_ff.max(1) as f32;
        for r in 0..d_model {
            let row = w1.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                if norms[c] > 0.0 {
                    *v *= mean_norm / norms[c];
                }
            }
        }
        Self {
            w1,
            b1: vec![0.0; d_ff],
            w2: exion_tensor::rng::xavier_uniform(hidden_out, d_model, seed.wrapping_add(1)),
            b2: vec![0.0; d_model],
            activation,
        }
    }

    /// Model width (`d_model`).
    pub fn d_model(&self) -> usize {
        self.w1.rows()
    }

    /// First-layer output width (`d_ff`).
    pub fn d_ff(&self) -> usize {
        self.w1.cols()
    }

    /// Width of the activation output / second-layer input.
    pub fn hidden_cols(&self) -> usize {
        self.activation.output_cols(self.d_ff())
    }

    /// Full (dense) activation output `act(x·w1 + b1)`.
    pub fn hidden_dense(&self, x: &Matrix) -> Matrix {
        self.activation.apply(&ops::linear(x, &self.w1, &self.b1))
    }

    /// Full (dense) FFN forward pass.
    pub fn forward_dense(&self, x: &Matrix) -> Matrix {
        ops::add_bias(&ops::matmul(&self.hidden_dense(x), &self.w2), &self.b2)
    }

    /// Recomputes the activation outputs of one token row `x_row` at the
    /// ascending activation-output columns `cols`, into `out`.
    ///
    /// `w1` is swept row by row over the wanted columns (and, for GEGLU,
    /// their gate partners), never gathered by column. Each accumulator
    /// starts from `-0.0`, the value `f32: Sum` starts from, and adds the
    /// products in `ops::dot`'s order, so every pre-activation equals
    /// `ops::dot(x_row, &w1.col(c))` bit for bit. `pre` is scratch space.
    fn hidden_row_at(&self, x_row: &[f32], cols: &[usize], pre: &mut Vec<f32>, out: &mut Vec<f32>) {
        let half = self.d_ff() / 2;
        let gated = self.activation == Activation::Geglu;
        pre.clear();
        pre.resize(if gated { 2 * cols.len() } else { cols.len() }, -0.0);
        let (left, right) = pre.split_at_mut(cols.len());
        for (p, &xv) in x_row.iter().enumerate() {
            let w_row = self.w1.row(p);
            for (acc, &c) in left.iter_mut().zip(cols) {
                *acc += xv * w_row[c];
            }
            for (acc, &c) in right.iter_mut().zip(cols) {
                *acc += xv * w_row[half + c];
            }
        }
        out.clear();
        let (left, right) = pre.split_at(cols.len());
        let biased = cols.iter().zip(left).map(|(&c, &s)| s + self.b1[c]);
        match self.activation {
            Activation::Geglu => out.extend(
                biased
                    .zip(cols.iter().zip(right))
                    .map(|(l, (&c, &r))| activation::gelu(l) * (r + self.b1[half + c])),
            ),
            Activation::Gelu => out.extend(biased.map(activation::gelu)),
            Activation::Silu => out.extend(biased.map(activation::silu)),
            Activation::Relu => out.extend(biased.map(activation::relu)),
        }
    }

    /// MACs one hidden element costs to recompute.
    fn macs_per_hidden_element(&self) -> u64 {
        let per_col = self.d_model() as u64;
        match self.activation {
            Activation::Geglu => 2 * per_col,
            _ => per_col,
        }
    }
}

/// Configuration of the FFN-Reuse schedule for one FFN layer pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FfnReuseConfig {
    /// Bitmask threshold: activation magnitudes above it are recomputed every
    /// iteration; values at or below it are reused. When `target_sparsity` is
    /// set, this is recalibrated at every dense iteration.
    pub threshold: f32,
    /// Number of sparse iterations between two dense iterations (the paper's
    /// per-model `N`, Fig. 6: 2–9).
    pub sparse_iters: usize,
    /// When set, each dense iteration recalibrates the threshold to this
    /// bitmask sparsity — the paper's per-block, per-iteration-group empirical
    /// threshold selection.
    pub target_sparsity: Option<f64>,
}

impl FfnReuseConfig {
    /// Creates a fixed-threshold config.
    pub fn new(threshold: f32, sparse_iters: usize) -> Self {
        Self {
            threshold,
            sparse_iters,
            target_sparsity: None,
        }
    }

    /// Creates a config that recalibrates its threshold at every dense
    /// iteration to hit `target_sparsity` (the paper's Fig. 6 per-model
    /// sparsity levels, 70–97%).
    ///
    /// # Panics
    ///
    /// Panics if `target_sparsity` is outside `[0, 1]`.
    pub fn with_target_sparsity(target_sparsity: f64, sparse_iters: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_sparsity),
            "target sparsity {target_sparsity} outside [0, 1]"
        );
        Self {
            threshold: 0.0,
            sparse_iters,
            target_sparsity: Some(target_sparsity),
        }
    }
}

impl Default for FfnReuseConfig {
    fn default() -> Self {
        Self {
            threshold: 0.1,
            sparse_iters: 4,
            target_sparsity: None,
        }
    }
}

/// Picks the threshold whose bitmask hits a target sparsity on a dense
/// activation output — the paper's "determined through empirical experiments"
/// calibration.
///
/// Returns the `target_sparsity` quantile of the absolute activation values.
///
/// # Panics
///
/// Panics if `h` is empty or `target_sparsity` is outside `[0, 1]`.
pub fn calibrate_threshold(h: &Matrix, target_sparsity: f64) -> f32 {
    assert!(!h.is_empty(), "cannot calibrate on an empty activation");
    assert!(
        (0.0..=1.0).contains(&target_sparsity),
        "target sparsity {target_sparsity} outside [0, 1]"
    );
    let mut mags: Vec<f32> = h.as_slice().iter().map(|x| x.abs()).collect();
    let idx = ((mags.len() as f64 * target_sparsity) as usize).min(mags.len() - 1);
    *mags
        .select_nth_unstable_by(idx, |a, b| {
            a.partial_cmp(b).expect("activation magnitudes are not NaN")
        })
        .1
}

/// Whether an iteration ran dense or sparse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IterationKind {
    /// Full computation; bitmask and partial sums are (re)generated.
    Dense,
    /// Bitmask-guided partial computation reusing the dense iteration's data.
    Sparse,
}

/// Per-iteration report of the reuse engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FfnIterationReport {
    /// Dense or sparse iteration.
    pub kind: IterationKind,
    /// Output sparsity of the first FFN layer this iteration (0.0 for dense
    /// iterations; for sparse iterations this is the paper's *inter-iteration
    /// output sparsity*, the fraction of hidden elements never computed).
    pub output_sparsity: f64,
    /// MACs performed vs. a dense execution of both FFN layers.
    pub ops: OpCounts,
}

/// State captured by a dense iteration and consumed by sparse iterations.
#[derive(Debug, Clone)]
struct DenseState {
    /// Full activation output of the dense iteration.
    hidden: Matrix,
    /// 1 = recompute every iteration, 0 = reuse.
    bitmask: Bitmask2D,
    /// Second-layer contribution of all reused (bit = 0) activations,
    /// including the output bias.
    reuse_partial: Matrix,
}

/// Stateful FFN-Reuse executor for one FFN layer pair.
///
/// Call [`FfnReuseEngine::forward`] once per diffusion iteration; the engine
/// runs the dense/sparse schedule (`1` dense followed by `N` sparse,
/// repeating) automatically.
///
/// # Examples
///
/// ```
/// use exion_core::{FfnReuseConfig, FfnReuseEngine, FfnWeights};
/// use exion_tensor::{rng, Activation};
///
/// let w = FfnWeights::random(8, 32, Activation::Gelu, 1);
/// let x = rng::seeded_uniform(4, 8, -1.0, 1.0, 2);
/// let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.05, 3));
/// let (y_dense, r0) = engine.forward(&x, &w);
/// let (y_sparse, r1) = engine.forward(&x, &w);
/// assert_eq!(y_dense.shape(), y_sparse.shape());
/// assert!(r1.ops.performed < r0.ops.performed);
/// ```
#[derive(Debug, Clone)]
pub struct FfnReuseEngine {
    config: FfnReuseConfig,
    state: Option<DenseState>,
    iterations_since_dense: usize,
}

impl FfnReuseEngine {
    /// Creates an engine; the first `forward` call runs dense.
    pub fn new(config: FfnReuseConfig) -> Self {
        Self {
            config,
            state: None,
            iterations_since_dense: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> FfnReuseConfig {
        self.config
    }

    /// Replaces the threshold (e.g. per-iteration-group calibration) without
    /// disturbing the schedule.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.config.threshold = threshold;
    }

    /// The current bitmask, if a dense iteration has run.
    pub fn bitmask(&self) -> Option<&Bitmask2D> {
        self.state.as_ref().map(|s| &s.bitmask)
    }

    /// Forces the next iteration to run dense.
    pub fn reset(&mut self) {
        self.state = None;
        self.iterations_since_dense = 0;
    }

    /// Whether the next `forward` call will run dense.
    pub fn next_is_dense(&self) -> bool {
        self.state.is_none() || self.iterations_since_dense >= self.config.sparse_iters
    }

    /// Runs one diffusion iteration of the FFN pair on input `x`
    /// (`tokens × d_model`).
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width differs from the weights' `d_model`, or if the
    /// token count changes between a dense iteration and its sparse followers.
    pub fn forward(&mut self, x: &Matrix, w: &FfnWeights) -> (Matrix, FfnIterationReport) {
        assert_eq!(x.cols(), w.d_model(), "input width must equal d_model");
        if self.next_is_dense() {
            self.forward_dense(x, w)
        } else {
            self.forward_sparse(x, w)
        }
    }

    /// Dense MAC baseline for both layers on a `rows`-token input.
    fn dense_macs(rows: usize, w: &FfnWeights) -> u64 {
        let l1 = rows as u64 * w.d_ff() as u64 * w.d_model() as u64;
        let l2 = rows as u64 * w.hidden_cols() as u64 * w.d_model() as u64;
        l1 + l2
    }

    fn forward_dense(&mut self, x: &Matrix, w: &FfnWeights) -> (Matrix, FfnIterationReport) {
        let hidden = w.hidden_dense(x);
        if let Some(target) = self.config.target_sparsity {
            self.config.threshold = calibrate_threshold(&hidden, target);
        }
        let bitmask = Bitmask2D::from_threshold(&hidden, self.config.threshold);

        // Split the second layer's accumulation into reuse / recompute parts.
        // The hardware produces both in the same pass (one accumulator group
        // per class), so this costs exactly the dense MAC count.
        let hidden_reused = Matrix::from_fn(hidden.rows(), hidden.cols(), |r, c| {
            if bitmask.get(r, c) {
                0.0
            } else {
                hidden[(r, c)]
            }
        });
        let reuse_partial = ops::add_bias(&ops::matmul(&hidden_reused, &w.w2), &w.b2);
        let hidden_recomputed = ops::sub(&hidden, &hidden_reused);
        let y = ops::add(&reuse_partial, &ops::matmul(&hidden_recomputed, &w.w2));

        self.state = Some(DenseState {
            hidden,
            bitmask,
            reuse_partial,
        });
        self.iterations_since_dense = 0;

        let dense = Self::dense_macs(x.rows(), w);
        let report = FfnIterationReport {
            kind: IterationKind::Dense,
            output_sparsity: 0.0,
            ops: OpCounts::new(dense, dense),
        };
        (y, report)
    }

    fn forward_sparse(&mut self, x: &Matrix, w: &FfnWeights) -> (Matrix, FfnIterationReport) {
        let state = self
            .state
            .as_ref()
            .expect("sparse iteration requires dense state");
        assert_eq!(
            x.rows(),
            state.hidden.rows(),
            "token count changed between dense and sparse iterations"
        );
        let bitmask = &state.bitmask;
        let recompute_count = bitmask.count_ones() as u64;

        // First layer: only bitmask-1 positions are produced at all.
        // Second layer: their contributions are accumulated onto the stored
        // partial sums ("Add Output to Partial Sums Only When Bitmask Bit is
        // 1", Fig. 6).
        let mut y = state.reuse_partial.clone();
        let (mut cols, mut pre, mut hidden) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..x.rows() {
            cols.clear();
            cols.extend(bitmask.row_ones(r));
            w.hidden_row_at(x.row(r), &cols, &mut pre, &mut hidden);
            let y_row = y.row_mut(r);
            for (&c, &h) in cols.iter().zip(&hidden) {
                for (yv, &wv) in y_row.iter_mut().zip(w.w2.row(c)) {
                    *yv += h * wv;
                }
            }
        }

        self.iterations_since_dense += 1;

        let dense = Self::dense_macs(x.rows(), w);
        let performed = recompute_count * (w.macs_per_hidden_element() + w.d_model() as u64);
        let report = FfnIterationReport {
            kind: IterationKind::Sparse,
            output_sparsity: bitmask.sparsity(),
            ops: OpCounts::new(performed, dense),
        };
        (y, report)
    }
}

/// Aggregates iteration reports over a full diffusion run into the paper's
/// Fig. 6 table quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FfnReuseSummary {
    /// Number of dense iterations.
    pub dense_iterations: usize,
    /// Number of sparse iterations.
    pub sparse_iterations: usize,
    /// Mean first-layer output sparsity over sparse iterations.
    pub mean_output_sparsity: f64,
    /// Total MACs performed vs. dense baseline across all iterations.
    pub ops: OpCounts,
}

impl FfnReuseSummary {
    /// Builds a summary from per-iteration reports.
    pub fn from_reports(reports: &[FfnIterationReport]) -> Self {
        let mut s = Self::default();
        let mut sparsity_sum = 0.0;
        for r in reports {
            match r.kind {
                IterationKind::Dense => s.dense_iterations += 1,
                IterationKind::Sparse => {
                    s.sparse_iterations += 1;
                    sparsity_sum += r.output_sparsity;
                }
            }
            s.ops = s.ops.merge(&r.ops);
        }
        if s.sparse_iterations > 0 {
            s.mean_output_sparsity = sparsity_sum / s.sparse_iterations as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_tensor::rng::seeded_uniform;
    use exion_tensor::stats;

    fn setup(seed: u64) -> (FfnWeights, Matrix) {
        let w = FfnWeights::random(16, 64, Activation::Gelu, seed);
        let x = seeded_uniform(8, 16, -1.0, 1.0, seed + 100);
        (w, x)
    }

    #[test]
    fn dense_iteration_matches_plain_forward() {
        let (w, x) = setup(1);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.1, 2));
        let (y, report) = engine.forward(&x, &w);
        let reference = w.forward_dense(&x);
        assert!(stats::relative_error(&reference, &y) < 1e-5);
        assert_eq!(report.kind, IterationKind::Dense);
        assert_eq!(report.ops.reduction(), 0.0);
    }

    #[test]
    fn sparse_iteration_with_same_input_is_exact_at_zero_threshold() {
        let (w, x) = setup(2);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.0, 2));
        let (y_dense, _) = engine.forward(&x, &w);
        let (y_sparse, report) = engine.forward(&x, &w);
        assert_eq!(report.kind, IterationKind::Sparse);
        // Threshold 0 ⇒ everything recomputed ⇒ identical output.
        assert!(stats::relative_error(&y_dense, &y_sparse) < 1e-5);
    }

    #[test]
    fn infinite_threshold_reuses_everything() {
        let (w, x) = setup(3);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(f32::INFINITY, 2));
        let (y_dense, _) = engine.forward(&x, &w);
        let x2 = seeded_uniform(8, 16, -1.0, 1.0, 999);
        let (y_sparse, report) = engine.forward(&x2, &w);
        // Everything reused: output equals the dense output regardless of x2,
        // and no MACs were performed.
        assert!(stats::relative_error(&y_dense, &y_sparse) < 1e-6);
        assert_eq!(report.ops.performed, 0);
        assert!((report.output_sparsity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_iteration_approximates_full_recompute_for_similar_inputs() {
        let (w, x) = setup(4);
        let hidden = w.hidden_dense(&x);
        let threshold = calibrate_threshold(&hidden, 0.9);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(threshold, 4));
        let (_, _) = engine.forward(&x, &w);
        // Small perturbation, like adjacent diffusion iterations.
        let x2 = x.map(|v| v + 0.01);
        let (y_sparse, report) = engine.forward(&x2, &w);
        let y_exact = w.forward_dense(&x2);
        assert!(
            report.ops.reduction() > 0.5,
            "reduction {}",
            report.ops.reduction()
        );
        assert!(
            stats::relative_error(&y_exact, &y_sparse) < 0.05,
            "error {}",
            stats::relative_error(&y_exact, &y_sparse)
        );
    }

    #[test]
    fn schedule_runs_one_dense_then_n_sparse() {
        let (w, x) = setup(5);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.1, 3));
        let mut kinds = Vec::new();
        for _ in 0..9 {
            let (_, r) = engine.forward(&x, &w);
            kinds.push(r.kind);
        }
        use IterationKind::{Dense, Sparse};
        assert_eq!(
            kinds,
            vec![Dense, Sparse, Sparse, Sparse, Dense, Sparse, Sparse, Sparse, Dense]
        );
    }

    #[test]
    fn calibrated_threshold_hits_target_sparsity() {
        let (w, x) = setup(6);
        let hidden = w.hidden_dense(&x);
        for target in [0.5, 0.8, 0.95] {
            let th = calibrate_threshold(&hidden, target);
            let mask = Bitmask2D::from_threshold(&hidden, th);
            assert!(
                (mask.sparsity() - target).abs() < 0.05,
                "target {target} got {}",
                mask.sparsity()
            );
        }
    }

    #[test]
    fn geglu_reuse_is_consistent() {
        let w = FfnWeights::random(16, 64, Activation::Geglu, 7);
        assert_eq!(w.hidden_cols(), 32);
        let x = seeded_uniform(4, 16, -1.0, 1.0, 70);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.0, 1));
        let (y_dense, _) = engine.forward(&x, &w);
        let (y_sparse, _) = engine.forward(&x, &w);
        assert!(stats::relative_error(&y_dense, &y_sparse) < 1e-5);
        assert!(stats::relative_error(&w.forward_dense(&x), &y_dense) < 1e-5);
    }

    #[test]
    fn reset_forces_dense() {
        let (w, x) = setup(8);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.1, 5));
        let _ = engine.forward(&x, &w);
        assert!(!engine.next_is_dense());
        engine.reset();
        assert!(engine.next_is_dense());
    }

    #[test]
    fn summary_aggregates_reports() {
        let (w, x) = setup(9);
        let hidden = w.hidden_dense(&x);
        let th = calibrate_threshold(&hidden, 0.9);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(th, 4));
        let mut reports = Vec::new();
        for _ in 0..10 {
            let (_, r) = engine.forward(&x, &w);
            reports.push(r);
        }
        let s = FfnReuseSummary::from_reports(&reports);
        assert_eq!(s.dense_iterations, 2);
        assert_eq!(s.sparse_iterations, 8);
        assert!(s.mean_output_sparsity > 0.8);
        // Paper Fig. 6: 52–85% FFN op reduction with N=2..9 and 70–97% sparsity.
        assert!(
            s.ops.reduction() > 0.5,
            "total reduction {}",
            s.ops.reduction()
        );
    }

    #[test]
    fn target_sparsity_recalibrates_each_dense_iteration() {
        let (w, x) = setup(11);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::with_target_sparsity(0.9, 1));
        let (_, _) = engine.forward(&x, &w);
        let mask_sparsity = engine.bitmask().expect("dense state").sparsity();
        assert!((mask_sparsity - 0.9).abs() < 0.05, "got {mask_sparsity}");
        // Next dense iteration on a very different input recalibrates.
        let (_, _) = engine.forward(&x, &w);
        let x2 = seeded_uniform(8, 16, -5.0, 5.0, 77);
        let (_, r) = engine.forward(&x2, &w);
        assert_eq!(r.kind, IterationKind::Dense);
        let s2 = engine.bitmask().expect("dense state").sparsity();
        assert!((s2 - 0.9).abs() < 0.05, "got {s2}");
    }

    /// Sorted-quantile reference for [`calibrate_threshold`].
    fn sorted_quantile(h: &Matrix, target_sparsity: f64) -> f32 {
        let mut mags: Vec<f32> = h.as_slice().iter().map(|x| x.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
        let idx = ((mags.len() as f64 * target_sparsity) as usize).min(mags.len() - 1);
        mags[idx]
    }

    #[test]
    fn calibrate_threshold_equals_the_sorted_quantile() {
        let (w, x) = setup(12);
        // Dense activations, a matrix of heavy ties (including signed
        // zeros), and a single element.
        let ties = Matrix::from_fn(9, 7, |r, c| [0.0, -0.0, 0.5, -0.5, 2.0][(r * 3 + c) % 5]);
        for h in [w.hidden_dense(&x), ties, Matrix::full(1, 1, -3.0)] {
            for target in [0.0, 0.1, 0.25, 0.5, 0.8, 0.9, 0.97, 1.0] {
                assert_eq!(
                    calibrate_threshold(&h, target).to_bits(),
                    sorted_quantile(&h, target).to_bits(),
                    "target {target}"
                );
            }
        }
    }

    /// The per-element reference the sparse iteration replaced: gather one
    /// `w1` column per recomputed element and take `ops::dot`.
    fn hidden_at_reference(w: &FfnWeights, x: &Matrix, r: usize, c: usize) -> f32 {
        let pre = |col: usize| ops::dot(x.row(r), &w.w1.col(col)) + w.b1[col];
        match w.activation {
            Activation::Geglu => activation::gelu(pre(c)) * pre(w.d_ff() / 2 + c),
            act => act.apply(&Matrix::from_vec(1, 1, vec![pre(c)]))[(0, 0)],
        }
    }

    #[test]
    fn sparse_iteration_equals_the_per_element_dot_reference_bit_for_bit() {
        for (i, act) in [
            Activation::Gelu,
            Activation::Geglu,
            Activation::Silu,
            Activation::Relu,
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 40 + i as u64;
            let mut w = FfnWeights::random(16, 96, act, seed);
            // Half the biases non-zero, so both bias paths are exercised.
            let bias = seeded_uniform(1, 96, -0.2, 0.2, seed + 1);
            for (c, b) in w.b1.iter_mut().enumerate() {
                *b = if c % 2 == 0 { bias[(0, c)] } else { 0.0 };
            }
            let x = seeded_uniform(10, 16, -1.0, 1.0, seed + 2);
            // The next iteration's input: perturbed, with an all-zero row.
            let mut x2 = x.map(|v| v + 0.03);
            x2.row_mut(3).fill(-0.0);
            let mut engine = FfnReuseEngine::new(FfnReuseConfig::with_target_sparsity(0.8, 2));
            let _ = engine.forward(&x, &w);
            let state = engine.state.clone().expect("dense state");
            let (y, report) = engine.forward(&x2, &w);
            assert_eq!(report.kind, IterationKind::Sparse);

            let mut want = state.reuse_partial.clone();
            for (r, c) in state.bitmask.iter_ones() {
                let h = hidden_at_reference(&w, &x2, r, c);
                for (yv, &wv) in want.row_mut(r).iter_mut().zip(w.w2.row(c)) {
                    *yv += h * wv;
                }
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want), "{act:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn target_sparsity_validated() {
        let _ = FfnReuseConfig::with_target_sparsity(1.5, 2);
    }

    #[test]
    #[should_panic(expected = "token count changed")]
    fn sparse_iteration_rejects_shape_change() {
        let (w, x) = setup(10);
        let mut engine = FfnReuseEngine::new(FfnReuseConfig::new(0.1, 2));
        let _ = engine.forward(&x, &w);
        let bad = seeded_uniform(9, 16, -1.0, 1.0, 1);
        let _ = engine.forward(&bad, &w);
    }
}
