//! Cross-crate integration tests: the full generation pipeline under every
//! ablation, feeding the compaction mechanism and the cycle-level simulator.

use exion::core::conmerge::{CompactionConfig, TileCompactor};
use exion::model::{Ablation, ExecPolicy, GenerationPipeline, ModelConfig, ModelKind, RunReport};
use exion::sim::config::HwConfig;
use exion::sim::perf::{simulate_model, PerfReport, SimAblation};
use exion::sim::workload::SparsityProfile;
use exion::tensor::stats;

fn tiny(kind: ModelKind) -> ModelConfig {
    ModelConfig::for_kind(kind).shrunk(2, 6)
}

#[test]
fn every_benchmark_generates_under_every_ablation() {
    for kind in ModelKind::ALL {
        let config = tiny(kind);
        let mut vanilla = GenerationPipeline::new(&config, ExecPolicy::vanilla(), 1);
        let (reference, _) = vanilla.generate("integration", 2);
        for ablation in [
            Ablation::FfnReuse,
            Ablation::Ep,
            Ablation::FfnReuseEp,
            Ablation::FfnReuseEpQuant,
        ] {
            let mut p = GenerationPipeline::new(&config, ablation.policy(&config), 1);
            let (out, report) = p.generate("integration", 2);
            assert_eq!(out.shape(), reference.shape(), "{kind:?}/{ablation:?}");
            let psnr = stats::psnr(&reference, &out);
            assert!(
                psnr > 5.0,
                "{kind:?}/{ablation:?}: PSNR {psnr:.1} dB vs vanilla"
            );
            assert!(
                report.total_ops().performed <= report.total_ops().dense,
                "{kind:?}/{ablation:?}: op accounting"
            );
        }
    }
}

/// FNV-style fold over one functional run — the fold `tests/event_core.rs`
/// pins the serving core with: the output's `f32` bit patterns, the set
/// bits of every captured FFN and attention mask (with each mask's shape),
/// and the run's performed and dense MACs.
fn pipeline_fingerprint(out: &exion::tensor::Matrix, report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &x in out.as_slice() {
        mix(u64::from(x.to_bits()));
    }
    for mask in report
        .ffn_masks()
        .into_iter()
        .chain(report.attention_masks())
    {
        mix(mask.rows() as u64);
        mix(mask.cols() as u64);
        for (r, c) in mask.iter_ones() {
            mix(r as u64);
            mix(c as u64);
        }
    }
    let ops = report.total_ops();
    mix(ops.performed);
    mix(ops.dense);
    h
}

/// The ablations the goldens below pin, in column order.
const GOLDEN_ABLATIONS: [Ablation; 2] = [Ablation::Ep, Ablation::FfnReuseEpQuant];

/// Fingerprints of every zoo model at `shrunk(2, 6)` (weight seed 1, noise
/// seed 2, mask capture on) under eager prediction alone and under the full
/// FFN-Reuse + EP + INT12 stack, captured on the reference kernels
/// (`log_dot` per product, sorted top-k, sorted calibration quantile,
/// gathered `w1` columns). Kernel rewrites must reproduce every run bit for
/// bit.
const PIPELINE_GOLDENS: [(ModelKind, [u64; 2]); 7] = [
    (
        ModelKind::Mld,
        [0x4239_fd6e_7aa4_1fa9, 0x818a_14db_78e5_0bab],
    ),
    (
        ModelKind::Mdm,
        [0x2eef_f51d_99d8_e43a, 0xaa42_1078_ca6b_7ecc],
    ),
    (
        ModelKind::MakeAnAudio,
        [0x57f4_4c98_7547_a07a, 0x7b94_be16_daae_05e1],
    ),
    (
        ModelKind::StableDiffusion,
        [0xf25f_82a9_77a4_43d7, 0x7c34_5c84_4caa_ca6a],
    ),
    (
        ModelKind::VideoCrafter2,
        [0x7e43_baa8_8298_65f5, 0x2a1d_2bc4_6b0f_eb2e],
    ),
    (
        ModelKind::Dit,
        [0xde79_c550_7f3f_cb36, 0xd37e_2558_4b02_168a],
    ),
    (
        ModelKind::Edge,
        [0xb59d_420c_2645_d032, 0xffc4_866a_a735_4832],
    ),
];

#[test]
fn functional_pipeline_matches_its_golden_fingerprints() {
    let pinned: Vec<ModelKind> = PIPELINE_GOLDENS.iter().map(|g| g.0).collect();
    assert_eq!(pinned, ModelKind::ALL, "one golden row per zoo model");
    let mut mismatches = Vec::new();
    for (kind, goldens) in PIPELINE_GOLDENS {
        let config = tiny(kind);
        for (ablation, golden) in GOLDEN_ABLATIONS.into_iter().zip(goldens) {
            let policy = ablation.policy(&config).with_mask_capture();
            let mut p = GenerationPipeline::new(&config, policy, 1);
            let (out, report) = p.generate("golden", 2);
            let fp = pipeline_fingerprint(&out, &report);
            if fp != golden {
                mismatches.push(format!("{kind:?}/{ablation:?}: {fp:#018x}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "functional pipeline diverged from its goldens:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn generation_is_bit_reproducible() {
    let config = tiny(ModelKind::Dit);
    let policy = Ablation::FfnReuseEp.policy(&config);
    let run = || {
        let mut p = GenerationPipeline::new(&config, policy, 3);
        p.generate("repro", 4).0
    };
    assert_eq!(run(), run());
}

#[test]
fn masks_flow_from_pipeline_into_conmerge() {
    let config = tiny(ModelKind::Mdm);
    let policy = Ablation::FfnReuseEp.policy(&config).with_mask_capture();
    let mut p = GenerationPipeline::new(&config, policy, 5);
    let (_, report) = p.generate("mask flow", 6);
    let compactor = TileCompactor::new(CompactionConfig::default());
    let mut compacted_any = false;
    for mask in report.ffn_masks() {
        let r = compactor.compact_matrix(mask);
        assert!(r.merged_blocks <= r.dense_blocks);
        assert!(r.remaining_column_fraction() <= 1.0);
        compacted_any = true;
    }
    assert!(compacted_any, "pipeline produced FFN masks");
}

#[test]
fn simulator_consumes_all_benchmarks() {
    // Paper-scale simulation of every benchmark on both instances.
    for kind in ModelKind::ALL {
        let mut model = ModelConfig::for_kind(kind);
        model.iterations = 4;
        let profile = SparsityProfile::analytic(
            model.ffn_reuse.target_sparsity,
            model.ep.paper_sparsity_pct / 100.0,
            16,
        );
        for hw in [HwConfig::exion4(), HwConfig::exion24()] {
            let base = simulate_model(&hw, &model, &profile, SimAblation::Base, 1);
            let all = simulate_model(&hw, &model, &profile, SimAblation::All, 1);
            assert!(base.latency_ms > 0.0 && all.latency_ms > 0.0, "{kind:?}");
            assert!(
                all.energy_mj < base.energy_mj,
                "{kind:?} on {}: All {} mJ vs Base {} mJ",
                hw.name,
                all.energy_mj,
                base.energy_mj
            );
            assert!(
                all.latency_ms <= base.latency_ms * 1.01,
                "{kind:?} on {}",
                hw.name
            );
        }
    }
}

/// A hand-written profile the grid golden pins beside the analytic one.
/// Its nine fields all differ, so a field read in place of another moves a
/// fingerprint.
const HAND_PROFILE: SparsityProfile = SparsityProfile {
    inter_sparsity: 0.83,
    ffn_block_frac: 0.41,
    ffn_utilization: 0.62,
    ffn_weight_frac: 0.57,
    intra_sparsity: 0.71,
    attn_block_frac: 0.36,
    attn_utilization: 0.48,
    q_skip: 0.19,
    kv_skip: 0.13,
};

/// The fold of [`pipeline_fingerprint`] over every field of one
/// `simulate_model` report: the name, the five headline figures, the
/// simulator's cycles, seconds and energies, per-engine energy and busy
/// cycles, and the DRAM statistics.
fn perf_fingerprint(h: &mut u64, r: &PerfReport) {
    let mut mix = |v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in r.name.bytes() {
        mix(u64::from(b));
    }
    let d = &r.detail;
    for x in [
        r.latency_ms,
        r.energy_mj,
        r.dense_ops,
        r.effective_tops,
        r.tops_per_watt,
        d.total_cycles,
        d.seconds,
        d.dsc_energy_mj,
        d.dram_energy_mj,
        d.busy.sdue,
        d.busy.epre,
        d.busy.cfse,
        d.busy.cau,
        d.busy.dram,
        d.dram_stats.last_completion_ns,
    ] {
        mix(x.to_bits());
    }
    for &(engine, mj) in &d.engine_energy_mj {
        mix(engine as u64);
        mix(mj.to_bits());
    }
    mix(d.dram_stats.bytes_read);
    mix(d.dram_stats.bytes_written);
    mix(d.dram_stats.row_hits);
    mix(d.dram_stats.row_misses);
}

/// Denoising iterations the grid golden runs: two DiT FFN-Reuse periods
/// plus a boundary, so every model runs both iteration classes and carries
/// DRAM and residency state between them.
const GRID_ITERATIONS: usize = 21;

/// Per-model fingerprints of the Fig. 18/19 `simulate_model` grid at
/// paper scale with iterations capped at [`GRID_ITERATIONS`]: EXION4 and
/// EXION24, every ablation, batch 1 and 8, under the analytic profile and
/// [`HAND_PROFILE`]. Captured before iteration classes were priced once
/// per generation; the simulator must reproduce every report bit for bit.
const GRID_GOLDENS: [(ModelKind, u64); 7] = [
    (ModelKind::Mld, 0x8bc7_0c9b_8745_e640),
    (ModelKind::Mdm, 0x24c1_0b36_941a_37f3),
    (ModelKind::MakeAnAudio, 0xb660_69f5_5539_a766),
    (ModelKind::StableDiffusion, 0xef9e_3963_3f13_4322),
    (ModelKind::VideoCrafter2, 0xd1be_fb58_f6fe_1d96),
    (ModelKind::Dit, 0xf2e5_06db_0ac6_07e8),
    (ModelKind::Edge, 0x0a14_4bef_317a_5bb2),
];

#[test]
fn simulate_model_grid_matches_its_golden_fingerprints() {
    let pinned: Vec<ModelKind> = GRID_GOLDENS.iter().map(|g| g.0).collect();
    assert_eq!(pinned, ModelKind::ALL, "one golden per zoo model");
    let mut mismatches = Vec::new();
    for (kind, golden) in GRID_GOLDENS {
        let mut model = ModelConfig::for_kind(kind);
        model.iterations = model.iterations.min(GRID_ITERATIONS);
        let analytic = SparsityProfile::analytic(
            model.ffn_reuse.target_sparsity,
            model.ep.paper_sparsity_pct / 100.0,
            16,
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for profile in [analytic, HAND_PROFILE] {
            for hw in [HwConfig::exion4(), HwConfig::exion24()] {
                for ablation in SimAblation::ALL {
                    for batch in [1, 8] {
                        let r = simulate_model(&hw, &model, &profile, ablation, batch);
                        perf_fingerprint(&mut h, &r);
                    }
                }
            }
        }
        if h != golden {
            mismatches.push(format!("{kind:?}: {h:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulate_model grid diverged from its goldens:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn meta_crate_reexports_work() {
    // Compile-time check that the meta crate exposes every subsystem.
    let _ = exion::tensor::Matrix::zeros(1, 1);
    let _ = exion::core::Bitmask2D::zeros(1, 1);
    let _ = exion::dram::DramTiming::lpddr5();
    let _ = exion::gpu::GpuSpec::a100();
    let _ = exion::sim::config::HwConfig::single_dsc();
    let _ = exion::model::ModelConfig::all();
}
