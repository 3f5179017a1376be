//! Fig. 19(b) — speedup over the A100 GPU: Cambricon-D vs EXION42 on
//! Stable Diffusion (conv-heavy) and DiT (transformer-only).
//!
//! Paper values: Stable Diffusion — Cambricon-D 7.9×, EXION42 7.0×
//! (Cambricon-D slightly ahead thanks to its conv differential
//! acceleration); DiT — Cambricon-D 3.3×, EXION42 5.2× (EXION ahead on
//! transformer-only networks). The *structural* crossover is the claim this
//! experiment checks: [`render`] states who leads on each model, from the
//! measured rows, and whether the paper's crossover reproduced.

use exion_gpu::cambricon::CambriconD;
use exion_gpu::diffusion_cost::estimate_generation;
use exion_gpu::GpuSpec;
use exion_model::config::{ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::perf::{simulate_model, SimAblation};

use crate::fmt::{ratio, render_table};
use crate::profiles::measure_profile;

/// One benchmark's three-way comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub model: &'static str,
    /// Cambricon-D speedup over the A100.
    pub cambricon_speedup: f64,
    /// EXION42_All speedup over the A100.
    pub exion_speedup: f64,
    /// Paper's Cambricon-D value.
    pub paper_cambricon: f64,
    /// Paper's EXION42 value.
    pub paper_exion: f64,
}

/// Computes both benchmark rows.
pub fn compute(iteration_cap: Option<usize>) -> Vec<Row> {
    let cap = iteration_cap.unwrap_or(10);
    let gpu = GpuSpec::a100();
    let hw = HwConfig::exion42();
    let cd = CambriconD::paper_calibrated();
    [
        (ModelKind::StableDiffusion, 7.9, 7.0),
        (ModelKind::Dit, 3.3, 5.2),
    ]
    .iter()
    .map(|&(kind, paper_cd, paper_ex)| {
        let config = ModelConfig::for_kind(kind);
        let measured = measure_profile(&config, cap, 0xF19B);
        let exion = simulate_model(&hw, &config, &measured.profile, SimAblation::All, 1);
        let a100 = estimate_generation(&gpu, &config, 1);
        Row {
            model: config.kind.name(),
            cambricon_speedup: cd.speedup_for_model(&config),
            exion_speedup: a100.latency_ms / exion.latency_ms,
            paper_cambricon: paper_cd,
            paper_exion: paper_ex,
        }
    })
    .collect()
}

/// Renders the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from("Fig. 19(b) — Speedup over the NVIDIA A100 (batch 1)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                format!(
                    "{} (paper {}x)",
                    ratio(r.cambricon_speedup),
                    r.paper_cambricon
                ),
                format!("{} (paper {}x)", ratio(r.exion_speedup), r.paper_exion),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["Benchmark", "Cambricon-D", "EXION42_All"],
        &table_rows,
    ));
    out.push_str("\nShape check:\n");
    for r in rows {
        out.push_str(&format!(
            "  {}: {} leads (paper: {} leads)\n",
            r.model,
            leader(r.exion_speedup, r.cambricon_speedup),
            leader(r.paper_exion, r.paper_cambricon)
        ));
    }
    let verdict = if crossover_reproduced(rows) {
        "reproduced"
    } else {
        "not reproduced"
    };
    out.push_str(&format!(
        "The paper's crossover, Cambricon-D ahead on the conv-heavy model and EXION\n\
         ahead on the transformer-only model, is {verdict}.\n"
    ));
    out
}

/// The accelerator ahead at the given speedups.
fn leader(exion: f64, cambricon: f64) -> &'static str {
    if exion > cambricon {
        "EXION42"
    } else {
        "Cambricon-D"
    }
}

/// Whether every row's measured leader is the paper's leader for that
/// model, i.e. the paper's crossover reproduced.
fn crossover_reproduced(rows: &[Row]) -> bool {
    rows.iter().all(|r| {
        leader(r.exion_speedup, r.cambricon_speedup) == leader(r.paper_exion, r.paper_cambricon)
    })
}

/// Runs the full experiment.
pub fn run() -> String {
    render(&compute(None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_crossover_reproduced() {
        let rows = compute(Some(6));
        let sd = rows.iter().find(|r| r.model == "Stable Diffusion").unwrap();
        let dit = rows.iter().find(|r| r.model == "DiT").unwrap();
        // DiT: EXION must beat Cambricon-D.
        assert!(
            dit.exion_speedup > dit.cambricon_speedup,
            "DiT: EXION {} vs Cambricon {}",
            dit.exion_speedup,
            dit.cambricon_speedup
        );
        // Cambricon-D must do relatively better on SD than on DiT.
        assert!(
            sd.cambricon_speedup > dit.cambricon_speedup,
            "Cambricon: SD {} vs DiT {}",
            sd.cambricon_speedup,
            dit.cambricon_speedup
        );
        // Both accelerators beat the A100 on both models.
        for r in &rows {
            assert!(r.exion_speedup > 1.0, "{}: {}", r.model, r.exion_speedup);
        }
    }

    fn row(model: &'static str, cambricon: f64, exion: f64, paper: (f64, f64)) -> Row {
        Row {
            model,
            cambricon_speedup: cambricon,
            exion_speedup: exion,
            paper_cambricon: paper.0,
            paper_exion: paper.1,
        }
    }

    #[test]
    fn shape_check_reports_what_was_measured() {
        // EXION ahead on both models: the crossover did not reproduce, and
        // the text must not claim Cambricon-D leads anywhere.
        let exion_everywhere = [
            row("Stable Diffusion", 4.47, 15.6, (7.9, 7.0)),
            row("DiT", 3.3, 8.26, (3.3, 5.2)),
        ];
        let text = render(&exion_everywhere);
        assert!(!crossover_reproduced(&exion_everywhere));
        assert!(!text.contains("Cambricon-D leads on"), "{text}");
        assert!(
            text.contains("Stable Diffusion: EXION42 leads (paper: Cambricon-D leads)"),
            "{text}"
        );
        assert!(text.contains("is not reproduced"), "{text}");

        let as_in_paper = [
            row("Stable Diffusion", 7.9, 7.0, (7.9, 7.0)),
            row("DiT", 3.3, 5.2, (3.3, 5.2)),
        ];
        let text = render(&as_in_paper);
        assert!(crossover_reproduced(&as_in_paper));
        assert!(
            text.contains("Stable Diffusion: Cambricon-D leads (paper: Cambricon-D leads)"),
            "{text}"
        );
        assert!(text.contains("is reproduced"), "{text}");
    }
}
