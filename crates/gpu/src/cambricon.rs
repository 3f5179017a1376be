//! Cambricon-D baseline (Fig. 19(b)).
//!
//! Cambricon-D (ISCA'24) applies *differential acceleration* to diffusion
//! models: consecutive iterations' inputs differ little, so it computes on
//! deltas, which works extremely well for convolutional layers (narrow value
//! ranges, cheap delta arithmetic) and much less well for transformer blocks
//! (softmax and layernorm break delta linearity). The paper's comparison
//! point: on Stable Diffusion (conv-heavy) Cambricon-D slightly beats
//! EXION42 (7.9× vs 7.0× over an A100); on DiT (transformer-only) EXION42
//! wins (5.2× vs 3.3×).
//!
//! The model here is a weighted harmonic mean of per-portion speedups over
//! the A100 baseline — enough to reproduce the *structural* result that
//! differential acceleration needs convolutions to shine.

use exion_model::config::ModelConfig;

/// Analytical Cambricon-D accelerator model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CambriconD {
    /// Speedup of convolutional portions over the A100 baseline.
    pub conv_speedup: f64,
    /// Speedup of transformer portions over the A100 baseline.
    pub transformer_speedup: f64,
}

impl CambriconD {
    /// Calibrated against Fig. 19(b): DiT (0% conv) pins the transformer
    /// speedup at 3.3×; the conv speedup is set so conv-heavy workloads land
    /// near the reported Stable Diffusion advantage.
    pub fn paper_calibrated() -> Self {
        Self {
            conv_speedup: 16.0,
            transformer_speedup: 3.3,
        }
    }

    /// Overall speedup over the A100 on a workload whose convolutional share
    /// of operations is `conv_share` (weighted harmonic mean — Amdahl over
    /// the two portions).
    ///
    /// # Panics
    ///
    /// Panics if `conv_share` is outside `[0, 1]`.
    pub fn speedup_over_gpu(&self, conv_share: f64) -> f64 {
        assert!((0.0..=1.0).contains(&conv_share), "conv share range");
        1.0 / (conv_share / self.conv_speedup + (1.0 - conv_share) / self.transformer_speedup)
    }

    /// Speedup for one benchmark, reading the conv share from its config
    /// (`resblock_ops_share` — the portion EXION also leaves unoptimized).
    pub fn speedup_for_model(&self, config: &ModelConfig) -> f64 {
        self.speedup_over_gpu(config.paper.resblock_ops_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;

    #[test]
    fn transformer_only_matches_calibration() {
        let cd = CambriconD::paper_calibrated();
        let dit = ModelConfig::for_kind(ModelKind::Dit);
        let s = cd.speedup_for_model(&dit);
        assert!((s - 3.3).abs() < 0.01, "got {s}");
    }

    #[test]
    fn conv_share_increases_speedup() {
        let cd = CambriconD::paper_calibrated();
        assert!(cd.speedup_over_gpu(0.33) > cd.speedup_over_gpu(0.0));
        assert!(cd.speedup_over_gpu(1.0) > cd.speedup_over_gpu(0.33));
        assert!((cd.speedup_over_gpu(1.0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn stable_diffusion_beats_dit_for_cambricon() {
        // The structural Fig. 19(b) result from Cambricon-D's side.
        let cd = CambriconD::paper_calibrated();
        let sd = cd.speedup_for_model(&ModelConfig::for_kind(ModelKind::StableDiffusion));
        let dit = cd.speedup_for_model(&ModelConfig::for_kind(ModelKind::Dit));
        assert!(sd > dit, "SD {sd} vs DiT {dit}");
    }

    #[test]
    #[should_panic(expected = "conv share range")]
    fn conv_share_validated() {
        let _ = CambriconD::paper_calibrated().speedup_over_gpu(1.5);
    }
}
