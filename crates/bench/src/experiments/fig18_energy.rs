//! Fig. 18 — energy-efficiency comparison (TOPS/W) of EXION4 vs the edge GPU
//! and EXION24 vs the server GPU, with the Base/EP/FFNR/All ablations at
//! batch sizes 1 and 8.
//!
//! Paper headline: EXION4_All is 196.9–4668.2× more energy-efficient than
//! the edge GPU; EXION24_All is 45.1–3067.6× more than the server GPU.

use exion_gpu::diffusion_cost::estimate_generation;
use exion_gpu::GpuSpec;
use exion_model::config::{ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::perf::{simulate_model, SimAblation};

use crate::fmt::{ratio, render_table};
use crate::profiles::measure_profile;

/// One (platform, model, ablation, batch) efficiency point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// `EXION4_All`-style configuration name.
    pub config: String,
    /// Benchmark name.
    pub model: &'static str,
    /// Batch size.
    pub batch: u64,
    /// EXION energy efficiency (dense-equivalent TOPS/W).
    pub exion_tops_w: f64,
    /// GPU energy efficiency (TOPS/W).
    pub gpu_tops_w: f64,
}

impl Point {
    /// Efficiency gain over the GPU.
    pub fn gain(&self) -> f64 {
        if self.gpu_tops_w == 0.0 {
            0.0
        } else {
            self.exion_tops_w / self.gpu_tops_w
        }
    }
}

/// Edge benchmarks (paper: "large models are not considered since executing
/// them on an edge GPU is infeasible due to insufficient memory size").
pub const EDGE_MODELS: [ModelKind; 4] = [
    ModelKind::Mld,
    ModelKind::Mdm,
    ModelKind::Edge,
    ModelKind::MakeAnAudio,
];

/// Computes all points of one platform pairing.
pub fn compute_platform(
    hw: &HwConfig,
    gpu: &GpuSpec,
    models: &[ModelKind],
    batches: &[u64],
    iteration_cap: Option<usize>,
) -> Vec<Point> {
    let cap = iteration_cap.unwrap_or(10);
    let mut points = Vec::new();
    for &kind in models {
        let config = ModelConfig::for_kind(kind);
        let measured = measure_profile(&config, cap, 0xF18);
        for &batch in batches {
            let gpu_cost = estimate_generation(gpu, &config, batch);
            let gpu_tops_w = gpu_cost.tops_per_watt();
            for ablation in SimAblation::ALL {
                let r = simulate_model(hw, &config, &measured.profile, ablation, batch);
                points.push(Point {
                    config: r.name.clone(),
                    model: config.kind.name(),
                    batch,
                    exion_tops_w: r.tops_per_watt,
                    gpu_tops_w,
                });
            }
        }
    }
    points
}

/// Computes both platform pairings (Fig. 18(a) and (b)).
pub fn compute(iteration_cap: Option<usize>) -> (Vec<Point>, Vec<Point>) {
    let edge = compute_platform(
        &HwConfig::exion4(),
        &GpuSpec::jetson_orin_nano(),
        &EDGE_MODELS,
        &[1, 8],
        iteration_cap,
    );
    let server = compute_platform(
        &HwConfig::exion24(),
        &GpuSpec::rtx6000_ada(),
        &ModelKind::ALL,
        &[1, 8],
        iteration_cap,
    );
    (edge, server)
}

/// Renders one platform's points.
pub fn render_platform(title: &str, gpu_name: &str, points: &[Point]) -> String {
    let mut out = format!("{title}\n\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.to_string(),
                p.batch.to_string(),
                p.config.clone(),
                format!("{:.3}", p.exion_tops_w),
                format!("{:.5}", p.gpu_tops_w),
                ratio(p.gain()),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "Benchmark",
            "Batch",
            "Config",
            "EXION TOPS/W",
            &format!("{gpu_name} TOPS/W"),
            "Gain",
        ],
        &rows,
    ));
    out
}

/// Runs the full experiment.
pub fn run() -> String {
    let (edge, server) = compute(None);
    let mut out = render_platform(
        "Fig. 18(a) — Energy efficiency vs edge GPU (EXION4, paper gain 196.9-4668.2x for _All)",
        "Jetson",
        &edge,
    );
    out.push('\n');
    out.push_str(&render_platform(
        "Fig. 18(b) — Energy efficiency vs server GPU (EXION24, paper gain 45.1-3067.6x for _All)",
        "RTX6000",
        &server,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_points() -> Vec<Point> {
        compute_platform(
            &HwConfig::exion4(),
            &GpuSpec::jetson_orin_nano(),
            &[ModelKind::Mld, ModelKind::Mdm],
            &[1],
            Some(6),
        )
    }

    #[test]
    fn exion_all_beats_gpu_by_orders_of_magnitude() {
        let points = edge_points();
        for p in points.iter().filter(|p| p.config.ends_with("_All")) {
            assert!(
                p.gain() > 100.0,
                "{} on {}: gain {}",
                p.config,
                p.model,
                p.gain()
            );
        }
    }

    #[test]
    fn ablation_ordering_holds() {
        let points = edge_points();
        let by = |suffix: &str, model: &str| {
            points
                .iter()
                .find(|p| p.config.ends_with(suffix) && p.model == model)
                .map(|p| p.exion_tops_w)
                .unwrap()
        };
        for model in ["MLD", "MDM"] {
            let base = by("_Base", model);
            let all = by("_All", model);
            assert!(all > base, "{model}: All {all} vs Base {base}");
            // FFN-Reuse is the paper's main lever: _FFNR ≥ _EP.
            assert!(by("_FFNR", model) >= by("_EP", model) * 0.8);
        }
    }
}
