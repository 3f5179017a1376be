//! Table I — model accuracy evaluation across the ablation stack.
//!
//! The paper's dataset metrics (FID/IS/R-Precision/FAD/…) require the
//! pre-trained models and datasets; the reproduction uses the relative
//! metrics of [`exion_tensor::stats`]: PSNR against the vanilla pipeline
//! (Table I's own "PSNR w/ Vanil." columns), cosine similarity, and a
//! proxy-FID (Fréchet distance over random-projection features) between the
//! vanilla output distribution and each ablation's.

use exion_model::config::ModelConfig;
use exion_model::pipeline::{Ablation, GenerationPipeline};
use exion_model::transformer::ExecPolicy;
use exion_tensor::stats::{cosine_similarity, proxy_fid, psnr};
use exion_tensor::Matrix;

use crate::fmt::render_table;

/// Accuracy of one (model, ablation) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Benchmark name.
    pub model: &'static str,
    /// Ablation name.
    pub method: &'static str,
    /// PSNR vs the vanilla output (dB), `inf` for vanilla itself.
    pub psnr_db: f64,
    /// Cosine similarity vs the vanilla output.
    pub cosine: f64,
    /// Proxy-FID between the vanilla batch and this ablation's batch.
    pub proxy_fid: f64,
    /// Mean inter-iteration sparsity achieved.
    pub inter_sparsity: f64,
    /// Mean intra-iteration sparsity achieved.
    pub intra_sparsity: f64,
}

/// The ablation rows of Table I.
const METHODS: [Ablation; 4] = [
    Ablation::Vanilla,
    Ablation::FfnReuse,
    Ablation::FfnReuseEp,
    Ablation::FfnReuseEpQuant,
];

/// Evaluates all benchmarks × ablations.
///
/// `iteration_cap` shortens runs for tests; `batch` sets the proxy-FID batch
/// size (paper-equivalent distribution check).
pub fn compute(iteration_cap: Option<usize>, batch: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for config in ModelConfig::all() {
        let mut c = config;
        if let Some(cap) = iteration_cap {
            c.iterations = c.iterations.min(cap);
        }
        let seed = 0x7AB1;
        let noise = 0xACC0;
        let prompt = "a corgi dog surfed the waves with a bright yellow surfboard";

        let mut vanilla = GenerationPipeline::new(&c, ExecPolicy::vanilla(), seed);
        let (reference, _) = vanilla.generate(prompt, noise);
        let reference_batch = vanilla.generate_batch(prompt, batch, noise.wrapping_add(1));

        for method in METHODS {
            let (out, batch_out, inter, intra) = if method == Ablation::Vanilla {
                (reference.clone(), reference_batch.clone(), 0.0, 0.0)
            } else {
                let mut p = GenerationPipeline::new(&c, method.policy(&c), seed);
                let (out, report) = p.generate(prompt, noise);
                let b = p.generate_batch(prompt, batch, noise.wrapping_add(1));
                (
                    out,
                    b,
                    report.mean_inter_iteration_sparsity(),
                    report.mean_intra_iteration_sparsity(),
                )
            };
            cells.push(Cell {
                model: c.kind.name(),
                method: method.name(),
                psnr_db: psnr(&reference, &out),
                cosine: cosine_similarity(reference.as_slice(), out.as_slice()),
                proxy_fid: normalized_fid(&reference_batch, &batch_out),
                inter_sparsity: inter,
                intra_sparsity: intra,
            });
        }
    }
    cells
}

/// Proxy-FID normalized by the reference batch's feature scale, so values
/// are comparable across models.
fn normalized_fid(reference: &Matrix, generated: &Matrix) -> f64 {
    let raw = proxy_fid(reference, generated, 24, 0xF1D);
    let self_scale = reference.frobenius_norm() as f64 / (reference.len() as f64).sqrt();
    if self_scale == 0.0 {
        raw
    } else {
        raw / (self_scale * self_scale)
    }
}

/// Renders the table.
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::from(
        "Table I — Model accuracy evaluation (relative metrics vs vanilla stand in for the\n\
         dataset metrics). Paper reports trivial degradation for all methods.\n\n",
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.model.to_string(),
                c.method.to_string(),
                if c.psnr_db.is_infinite() {
                    "ref".to_string()
                } else {
                    format!("{:.1}", c.psnr_db)
                },
                format!("{:.4}", c.cosine),
                format!("{:.4}", c.proxy_fid),
                format!("{:.0}%", 100.0 * c.inter_sparsity),
                format!("{:.0}%", 100.0 * c.intra_sparsity),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "Benchmark",
            "Method",
            "PSNR (dB)",
            "Cosine",
            "proxy-FID",
            "Inter-sp.",
            "Intra-sp.",
        ],
        &rows,
    ));
    out
}

/// Runs the full experiment (paper iteration counts, batch 4).
pub fn run() -> String {
    render(&compute(None, 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;

    /// Reduced single-model variant for fast checks.
    fn one_model(kind: ModelKind, cap: usize) -> Vec<Cell> {
        let mut c = ModelConfig::for_kind(kind).shrunk(2, cap);
        c.iterations = cap;
        let seed = 1;
        let noise = 2;
        let mut vanilla = GenerationPipeline::new(&c, ExecPolicy::vanilla(), seed);
        let (reference, _) = vanilla.generate("t", noise);
        METHODS
            .iter()
            .map(|&m| {
                let out = if m == Ablation::Vanilla {
                    reference.clone()
                } else {
                    let mut p = GenerationPipeline::new(&c, m.policy(&c), seed);
                    p.generate("t", noise).0
                };
                Cell {
                    model: c.kind.name(),
                    method: m.name(),
                    psnr_db: psnr(&reference, &out),
                    cosine: cosine_similarity(reference.as_slice(), out.as_slice()),
                    proxy_fid: 0.0,
                    inter_sparsity: 0.0,
                    intra_sparsity: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn approximations_track_vanilla() {
        let cells = one_model(ModelKind::Mld, 8);
        for c in &cells {
            if c.method == "Vanilla" {
                assert!(c.psnr_db.is_infinite());
            } else {
                assert!(c.psnr_db > 6.0, "{}: {:.1} dB", c.method, c.psnr_db);
                assert!(c.cosine > 0.8, "{}: cosine {:.3}", c.method, c.cosine);
            }
        }
    }

    #[test]
    fn ffn_reuse_alone_is_most_accurate_approximation() {
        let cells = one_model(ModelKind::Mld, 8);
        let reuse = cells.iter().find(|c| c.method == "FFN-Reuse").unwrap();
        let quant = cells
            .iter()
            .find(|c| c.method == "FFN-Reuse+EP+Quant")
            .unwrap();
        assert!(reuse.psnr_db >= quant.psnr_db - 0.5);
    }
}
