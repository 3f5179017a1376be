//! The seven EXION benchmark model configurations.
//!
//! Per-model optimization settings come from the paper's Table I and Fig. 6.
//! Where the two tables' OCR-ambiguous rows disagree, the `(N, sparsity)`
//! pairing was chosen to reproduce the *reported FFN op reduction* via the
//! closed form `reduction ≈ N·s/(N+1)` (the test
//! `ffn_reuse_settings_match_paper_closed_form` checks each model within
//! 5 points).
//!
//! Paper-scale dimensions approximate the published architectures
//! (MLD latent transformer, MDM/EDGE motion transformers, Make-an-Audio and
//! Stable Diffusion latent UNets, DiT-XL/2, VideoCrafter2) and are used only
//! for analytic op counting; sim-scale dimensions drive the functional
//! experiments.

/// The three diffusion-network topologies of paper Fig. 3(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkType {
    /// Type 1: UNet without ResBlocks (down/up sampling around transformer
    /// blocks).
    UNetPlain,
    /// Type 2: UNet with ResBlocks (convolutional residual stages around the
    /// transformer blocks — the part EXION does *not* optimize).
    UNetRes,
    /// Type 3: transformer blocks only (DiT-style).
    TransformerOnly,
}

/// The seven benchmark models of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Text-to-motion in a motion latent space (CVPR'23).
    Mld,
    /// Human Motion Diffusion Model, raw motion tokens (ICLR'23).
    Mdm,
    /// Editable Dance GEneration, music-to-motion (CVPR'23).
    Edge,
    /// Text-to-audio latent diffusion (ICML'23).
    MakeAnAudio,
    /// Latent text-to-image diffusion (CVPR'22).
    StableDiffusion,
    /// Scalable diffusion transformer, class-to-image (ICCV'23).
    Dit,
    /// Text-to-video latent diffusion (CVPR'24).
    VideoCrafter2,
}

impl ModelKind {
    /// All seven benchmarks in the paper's ordering.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Mld,
        ModelKind::Mdm,
        ModelKind::MakeAnAudio,
        ModelKind::StableDiffusion,
        ModelKind::VideoCrafter2,
        ModelKind::Dit,
        ModelKind::Edge,
    ];

    /// Human-readable benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mld => "MLD",
            ModelKind::Mdm => "MDM",
            ModelKind::Edge => "EDGE",
            ModelKind::MakeAnAudio => "Make-an-Audio",
            ModelKind::StableDiffusion => "Stable Diffusion",
            ModelKind::Dit => "DiT",
            ModelKind::VideoCrafter2 => "VideoCrafter2",
        }
    }

    /// The generation task (paper Table I).
    pub fn task(&self) -> &'static str {
        match self {
            ModelKind::Mld | ModelKind::Mdm => "Text-to-Motion",
            ModelKind::Edge => "Music-to-Motion",
            ModelKind::MakeAnAudio => "Text-to-Audio",
            ModelKind::StableDiffusion => "Text-to-Image",
            ModelKind::Dit => "Image Generation",
            ModelKind::VideoCrafter2 => "Text-to-Video",
        }
    }
}

/// Transformer dimensions at one scale (paper or sim).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleParams {
    /// Sequence length entering the transformer blocks.
    pub tokens: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (`d_model % heads == 0`).
    pub heads: usize,
    /// First FFN layer output width (2× the activation width for GEGLU).
    pub d_ff: usize,
    /// Number of transformer blocks.
    pub blocks: usize,
    /// Conditioning tokens (0 = unconditional).
    pub cond_tokens: usize,
    /// Fraction of per-iteration compute spent outside transformer blocks
    /// (ResBlocks, embeddings, sampling math) — drives Fig. 4's "Etc." bar
    /// and the Type-2 models' unoptimized portion.
    pub resblock_ops_share: f64,
}

impl ScaleParams {
    /// Per-head width.
    pub fn d_head(&self) -> usize {
        self.d_model / self.heads
    }
}

/// FFN-Reuse setting for one model (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FfnReuseSetting {
    /// Sparse iterations between dense iterations.
    pub sparse_iters: usize,
    /// Target inter-iteration output sparsity of the first FFN layer,
    /// consistent with the reported op reduction via `N·s/(N+1)`.
    pub target_sparsity: f64,
    /// The FFN op reduction the paper reports for this model (%, Fig. 6).
    pub paper_op_reduction_pct: f64,
    /// The FFN output sparsity the paper's ConMerge figures (8/9/17) quote
    /// for this model. For five of the seven models it differs from the
    /// `target_sparsity` that reproduces the Fig. 6 op reduction (Stable
    /// Diffusion 0.97 against 0.70, VideoCrafter2 0.70 against 0.95); the
    /// compaction experiments use this value.
    pub conmerge_sparsity: f64,
}

/// Phase of one denoising iteration under FFN-Reuse: dense iterations
/// recompute the first FFN layer fully (and regenerate the sparsity
/// bitmasks); sparse iterations reuse them and skip the predicted zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterationPhase {
    /// Full recomputation (an FFN-Reuse phase boundary).
    Dense,
    /// Bitmask-reusing sparse execution.
    Sparse,
}

impl IterationPhase {
    /// Whether this is the sparse (reusing) phase.
    pub fn is_sparse(&self) -> bool {
        matches!(self, IterationPhase::Sparse)
    }
}

impl FfnReuseSetting {
    /// The FFN-Reuse period: one dense iteration followed by `sparse_iters`
    /// sparse ones.
    pub fn period(&self) -> usize {
        self.sparse_iters + 1
    }

    /// The phase of denoising step `step` (0-based) when FFN-Reuse is
    /// active. Step 0 and every `period()`-th step after it are dense.
    pub fn phase_of_step(&self, step: usize) -> IterationPhase {
        if step.is_multiple_of(self.period()) {
            IterationPhase::Dense
        } else {
            IterationPhase::Sparse
        }
    }

    /// Steps until the next dense phase boundary at or after `step`
    /// (0 when `step` itself is a boundary). Continuous-batching schedulers
    /// use this to admit requests only at aligned iteration boundaries.
    pub fn steps_to_boundary(&self, step: usize) -> usize {
        let rem = step % self.period();
        if rem == 0 {
            0
        } else {
            self.period() - rem
        }
    }
}

/// Eager-prediction setting for one model (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpSetting {
    /// Dominance threshold `q_th`.
    pub q_th: f32,
    /// Top-k ratio `k`.
    pub top_k_ratio: f32,
    /// The intra-iteration sparsity the paper reports (%).
    pub paper_sparsity_pct: f64,
}

/// Full benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Which benchmark.
    pub kind: ModelKind,
    /// Network topology (Fig. 3(a)).
    pub network: NetworkType,
    /// Whether the FFN uses GEGLU (Stable Diffusion / VideoCrafter2) or GELU.
    pub geglu: bool,
    /// Denoising iterations (Table I: 50, DiT 100).
    pub iterations: usize,
    /// Published-architecture dimensions for analytic op counting.
    pub paper: ScaleParams,
    /// Reduced dimensions for functional simulation.
    pub sim: ScaleParams,
    /// FFN-Reuse configuration.
    pub ffn_reuse: FfnReuseSetting,
    /// Eager-prediction configuration.
    pub ep: EpSetting,
}

impl ModelConfig {
    /// The configuration of one benchmark.
    pub fn for_kind(kind: ModelKind) -> Self {
        match kind {
            ModelKind::Mld => Self {
                kind,
                network: NetworkType::TransformerOnly,
                geglu: false,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 8,
                    d_model: 256,
                    heads: 4,
                    d_ff: 1024,
                    blocks: 9,
                    cond_tokens: 77,
                    resblock_ops_share: 0.0,
                },
                sim: ScaleParams {
                    // MLD denoises a tiny latent sequence — few output rows
                    // are what make whole-column condensing so effective for
                    // it (Fig. 8).
                    tokens: 8,
                    d_model: 32,
                    heads: 4,
                    d_ff: 256,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.0,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 4,
                    target_sparsity: 0.97,
                    paper_op_reduction_pct: 77.58,
                    conmerge_sparsity: 0.97,
                },
                ep: EpSetting {
                    q_th: 0.3,
                    top_k_ratio: 0.7,
                    paper_sparsity_pct: 30.0,
                },
            },
            ModelKind::Mdm => Self {
                kind,
                network: NetworkType::TransformerOnly,
                geglu: false,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 196,
                    d_model: 512,
                    heads: 4,
                    d_ff: 2048,
                    blocks: 8,
                    cond_tokens: 77,
                    resblock_ops_share: 0.0,
                },
                sim: ScaleParams {
                    tokens: 32,
                    d_model: 32,
                    heads: 4,
                    d_ff: 256,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.0,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 5,
                    target_sparsity: 0.95,
                    paper_op_reduction_pct: 79.51,
                    conmerge_sparsity: 0.97,
                },
                ep: EpSetting {
                    q_th: 0.3,
                    top_k_ratio: 0.05,
                    paper_sparsity_pct: 95.0,
                },
            },
            ModelKind::Edge => Self {
                kind,
                network: NetworkType::TransformerOnly,
                geglu: false,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 150,
                    d_model: 512,
                    heads: 8,
                    d_ff: 2048,
                    blocks: 12,
                    cond_tokens: 150,
                    resblock_ops_share: 0.0,
                },
                sim: ScaleParams {
                    tokens: 32,
                    d_model: 32,
                    heads: 4,
                    d_ff: 256,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.0,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 5,
                    target_sparsity: 0.95,
                    paper_op_reduction_pct: 77.86,
                    conmerge_sparsity: 0.80,
                },
                ep: EpSetting {
                    q_th: 0.9,
                    top_k_ratio: 0.5,
                    paper_sparsity_pct: 50.0,
                },
            },
            ModelKind::MakeAnAudio => Self {
                kind,
                network: NetworkType::UNetRes,
                geglu: false,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 256,
                    d_model: 320,
                    heads: 8,
                    d_ff: 1280,
                    blocks: 8,
                    cond_tokens: 77,
                    resblock_ops_share: 0.35,
                },
                sim: ScaleParams {
                    tokens: 32,
                    d_model: 32,
                    heads: 4,
                    d_ff: 256,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.35,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 2,
                    target_sparsity: 0.8,
                    paper_op_reduction_pct: 52.79,
                    conmerge_sparsity: 0.95,
                },
                ep: EpSetting {
                    q_th: 0.7,
                    top_k_ratio: 0.2,
                    paper_sparsity_pct: 80.0,
                },
            },
            ModelKind::StableDiffusion => Self {
                kind,
                network: NetworkType::UNetRes,
                geglu: true,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 1024,
                    d_model: 640,
                    heads: 10,
                    d_ff: 5120,
                    blocks: 16,
                    cond_tokens: 77,
                    resblock_ops_share: 0.33,
                },
                sim: ScaleParams {
                    tokens: 96,
                    d_model: 32,
                    heads: 4,
                    d_ff: 512,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.33,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 3,
                    target_sparsity: 0.7,
                    paper_op_reduction_pct: 52.47,
                    conmerge_sparsity: 0.97,
                },
                ep: EpSetting {
                    q_th: 0.8,
                    top_k_ratio: 0.8,
                    paper_sparsity_pct: 20.0,
                },
            },
            ModelKind::Dit => Self {
                kind,
                network: NetworkType::TransformerOnly,
                geglu: false,
                iterations: 100,
                paper: ScaleParams {
                    tokens: 256,
                    d_model: 1152,
                    heads: 16,
                    d_ff: 4608,
                    blocks: 28,
                    cond_tokens: 1,
                    resblock_ops_share: 0.0,
                },
                sim: ScaleParams {
                    tokens: 32,
                    d_model: 32,
                    heads: 4,
                    d_ff: 256,
                    blocks: 2,
                    cond_tokens: 4,
                    resblock_ops_share: 0.0,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 9,
                    target_sparsity: 0.95,
                    paper_op_reduction_pct: 85.41,
                    conmerge_sparsity: 0.95,
                },
                ep: EpSetting {
                    q_th: 0.15,
                    top_k_ratio: 0.05,
                    paper_sparsity_pct: 95.0,
                },
            },
            ModelKind::VideoCrafter2 => Self {
                kind,
                network: NetworkType::UNetRes,
                geglu: true,
                iterations: 50,
                paper: ScaleParams {
                    tokens: 1600,
                    d_model: 1024,
                    heads: 16,
                    d_ff: 8192,
                    blocks: 16,
                    cond_tokens: 77,
                    resblock_ops_share: 0.07,
                },
                sim: ScaleParams {
                    tokens: 96,
                    d_model: 32,
                    heads: 4,
                    d_ff: 512,
                    blocks: 2,
                    cond_tokens: 8,
                    resblock_ops_share: 0.07,
                },
                ffn_reuse: FfnReuseSetting {
                    sparse_iters: 5,
                    target_sparsity: 0.95,
                    paper_op_reduction_pct: 77.89,
                    conmerge_sparsity: 0.70,
                },
                ep: EpSetting {
                    q_th: 2.0,
                    top_k_ratio: 0.5,
                    paper_sparsity_pct: 50.0,
                },
            },
        }
    }

    /// All seven benchmark configurations.
    pub fn all() -> Vec<ModelConfig> {
        ModelKind::ALL.iter().map(|&k| Self::for_kind(k)).collect()
    }

    /// The phases of every denoising iteration, in order: a materialized
    /// view over [`FfnReuseSetting::phase_of_step`] for offline analysis
    /// and plotting. Schedulers on the hot path should query
    /// `phase_of_step`/`period` directly instead of allocating this.
    pub fn iteration_phases(&self) -> Vec<IterationPhase> {
        (0..self.iterations)
            .map(|i| self.ffn_reuse.phase_of_step(i))
            .collect()
    }

    /// A copy with sim-scale dimensions shrunk further (for fast unit tests):
    /// tokens/d_model/d_ff divided by `factor` (floored at hardware-friendly
    /// minimums), block count capped at 1, iterations capped at `max_iters`.
    pub fn shrunk(mut self, factor: usize, max_iters: usize) -> Self {
        let f = factor.max(1);
        self.sim.tokens = (self.sim.tokens / f).max(8);
        self.sim.d_model = (self.sim.d_model / f).max(16);
        self.sim.heads = self.sim.heads.min(2);
        self.sim.d_ff = (self.sim.d_ff / f).max(32);
        self.sim.blocks = 1;
        self.sim.cond_tokens = self.sim.cond_tokens.min(4);
        self.iterations = self.iterations.min(max_iters);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_benchmarks_present() {
        let configs = ModelConfig::all();
        assert_eq!(configs.len(), 7);
        let names: Vec<&str> = configs.iter().map(|c| c.kind.name()).collect();
        assert!(names.contains(&"Stable Diffusion"));
        assert!(names.contains(&"DiT"));
    }

    #[test]
    fn head_widths_divide_evenly() {
        for c in ModelConfig::all() {
            assert_eq!(c.paper.d_model % c.paper.heads, 0, "{}", c.kind.name());
            assert_eq!(c.sim.d_model % c.sim.heads, 0, "{}", c.kind.name());
        }
    }

    #[test]
    fn geglu_models_have_even_d_ff() {
        for c in ModelConfig::all() {
            if c.geglu {
                assert_eq!(c.paper.d_ff % 2, 0);
                assert_eq!(c.sim.d_ff % 2, 0);
            }
        }
    }

    #[test]
    fn dit_runs_100_iterations_others_50() {
        for c in ModelConfig::all() {
            let want = if c.kind == ModelKind::Dit { 100 } else { 50 };
            assert_eq!(c.iterations, want, "{}", c.kind.name());
        }
    }

    #[test]
    fn ffn_reuse_settings_match_paper_closed_form() {
        // reduction ≈ N·s/(N+1) should land within a few points of the
        // paper's Fig. 6 values.
        for c in ModelConfig::all() {
            let n = c.ffn_reuse.sparse_iters as f64;
            let s = c.ffn_reuse.target_sparsity;
            let predicted = 100.0 * n * s / (n + 1.0);
            let gap = (predicted - c.ffn_reuse.paper_op_reduction_pct).abs();
            assert!(
                gap < 5.0,
                "{}: closed-form {predicted:.1}% vs paper {:.2}%",
                c.kind.name(),
                c.ffn_reuse.paper_op_reduction_pct
            );
        }
    }

    #[test]
    fn ep_sparsity_matches_top_k() {
        // Table I: intra-iteration sparsity ≈ 1 − k.
        for c in ModelConfig::all() {
            let implied = 100.0 * (1.0 - c.ep.top_k_ratio as f64);
            assert!(
                (implied - c.ep.paper_sparsity_pct).abs() < 1.0,
                "{}",
                c.kind.name()
            );
        }
    }

    #[test]
    fn resblock_share_only_on_unet_res() {
        for c in ModelConfig::all() {
            match c.network {
                NetworkType::UNetRes => assert!(c.paper.resblock_ops_share > 0.0),
                _ => assert_eq!(c.paper.resblock_ops_share, 0.0),
            }
        }
    }

    #[test]
    fn iteration_phase_metadata_matches_period() {
        for c in ModelConfig::all() {
            let phases = c.iteration_phases();
            assert_eq!(phases.len(), c.iterations);
            assert_eq!(phases[0], IterationPhase::Dense, "{}", c.kind.name());
            let period = c.ffn_reuse.period();
            let dense = phases.iter().filter(|p| !p.is_sparse()).count();
            assert_eq!(dense, c.iterations.div_ceil(period), "{}", c.kind.name());
            for (i, p) in phases.iter().enumerate() {
                assert_eq!(p.is_sparse(), i % period != 0);
                let to_boundary = c.ffn_reuse.steps_to_boundary(i);
                assert_eq!((i + to_boundary) % period, 0);
                assert!(to_boundary < period);
            }
        }
    }

    #[test]
    fn shrunk_caps_dimensions() {
        let c = ModelConfig::for_kind(ModelKind::StableDiffusion).shrunk(2, 6);
        assert!(c.sim.tokens <= 48);
        assert_eq!(c.sim.blocks, 1);
        assert_eq!(c.iterations, 6);
        assert_eq!(c.sim.d_model % c.sim.heads, 0);
    }
}
