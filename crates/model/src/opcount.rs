//! Analytic per-iteration operation counts (paper Fig. 4).
//!
//! Fig. 4 breaks each benchmark's per-iteration operations into QKV
//! projection, attention computation, FFN layers, and "Etc." (everything
//! outside transformer blocks), and observes that FFN layers dominate the
//! transformer block because diffusion token lengths are short. The counts
//! here follow the standard convention of 2 ops (multiply + add) per MAC.

use crate::config::{ModelConfig, ScaleParams};

/// Per-iteration operation counts of one model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Q/K/V and output projections.
    pub qkv: u64,
    /// Attention score (`QKᵀ`) and probability·V MMULs.
    pub attention: u64,
    /// Both FFN linear layers.
    pub ffn: u64,
    /// Everything outside transformer blocks (ResBlocks, embeddings, …).
    pub etc: u64,
}

impl OpBreakdown {
    /// Computes the per-iteration breakdown at the given scale.
    pub fn per_iteration(p: &ScaleParams, geglu: bool) -> Self {
        let n = p.tokens as u64;
        let d = p.d_model as u64;
        let d_ff = p.d_ff as u64;
        let hidden = if geglu { d_ff / 2 } else { d_ff };
        let blocks = p.blocks as u64;

        let qkv = 2 * 4 * n * d * d * blocks;
        let attention = 2 * 2 * n * n * d * blocks;
        let ffn = 2 * (n * d_ff * d + n * hidden * d) * blocks;
        let transformer = qkv + attention + ffn;
        // resblock_ops_share is Etc.'s share of the *total*:
        // etc = share / (1 - share) * transformer.
        let share = p.resblock_ops_share.clamp(0.0, 0.95);
        let etc = if share > 0.0 {
            (share / (1.0 - share) * transformer as f64) as u64
        } else {
            0
        };
        Self {
            qkv,
            attention,
            ffn,
            etc,
        }
    }

    /// Breakdown for a benchmark's paper-scale dimensions.
    pub fn for_model(config: &ModelConfig) -> Self {
        Self::per_iteration(&config.paper, config.geglu)
    }

    /// Total operations per iteration.
    pub fn total(&self) -> u64 {
        self.qkv + self.attention + self.ffn + self.etc
    }

    /// Transformer-block share of the total (Fig. 4: 38–100%).
    pub fn transformer_share(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.qkv + self.attention + self.ffn) as f64 / self.total() as f64
    }

    /// FFN share of the transformer block (Fig. 4: FFN is the main
    /// bottleneck, up to 67%).
    pub fn ffn_share_of_transformer(&self) -> f64 {
        let t = self.qkv + self.attention + self.ffn;
        if t == 0 {
            return 0.0;
        }
        self.ffn as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelKind, NetworkType};

    #[test]
    fn known_small_case() {
        let p = ScaleParams {
            tokens: 2,
            d_model: 4,
            heads: 1,
            d_ff: 8,
            blocks: 1,
            cond_tokens: 0,
            resblock_ops_share: 0.0,
        };
        let b = OpBreakdown::per_iteration(&p, false);
        assert_eq!(b.qkv, 2 * 4 * 2 * 4 * 4);
        assert_eq!(b.attention, 2 * 2 * 2 * 2 * 4);
        assert_eq!(b.ffn, 2 * (2 * 8 * 4 + 2 * 8 * 4));
        assert_eq!(b.etc, 0);
        assert!((b.transformer_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ffn_dominates_transformer_for_short_sequences() {
        // The paper's core observation: diffusion models have short token
        // lengths, so FFN layers dominate over attention.
        for config in ModelConfig::all() {
            let b = OpBreakdown::for_model(&config);
            assert!(
                b.ffn > b.attention,
                "{}: ffn {} vs attention {}",
                config.kind.name(),
                b.ffn,
                b.attention
            );
        }
    }

    #[test]
    fn ffn_share_in_papers_range() {
        for config in ModelConfig::all() {
            let share = OpBreakdown::for_model(&config).ffn_share_of_transformer();
            assert!(
                (0.35..=0.80).contains(&share),
                "{}: FFN share {share:.2}",
                config.kind.name()
            );
        }
    }

    #[test]
    fn transformer_share_matches_topology() {
        for config in ModelConfig::all() {
            let share = OpBreakdown::for_model(&config).transformer_share();
            match config.network {
                NetworkType::TransformerOnly => assert!((share - 1.0).abs() < 1e-9),
                _ => assert!(share < 1.0, "{}", config.kind.name()),
            }
        }
    }

    #[test]
    fn dit_is_the_largest_transformer_workload() {
        let dit = OpBreakdown::for_model(&ModelConfig::for_kind(ModelKind::Dit)).total();
        let mld = OpBreakdown::for_model(&ModelConfig::for_kind(ModelKind::Mld)).total();
        assert!(dit > 100 * mld);
    }

    #[test]
    fn geglu_counts_double_width_first_layer() {
        let p = ScaleParams {
            tokens: 4,
            d_model: 8,
            heads: 2,
            d_ff: 16,
            blocks: 1,
            cond_tokens: 0,
            resblock_ops_share: 0.0,
        };
        let gelu = OpBreakdown::per_iteration(&p, false).ffn;
        let geglu = OpBreakdown::per_iteration(&p, true).ffn;
        // GEGLU halves the second layer's input width.
        assert!(geglu < gelu);
    }
}
