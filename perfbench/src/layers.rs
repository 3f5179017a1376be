//! Standalone timings behind the per-layer rows.
//!
//! Each function calls one layer's public entry point outside any workload,
//! at the shapes a workload uses, and returns the mean wall time per call.
//! The workloads report each timing next to the number of calls they make,
//! so per-call cost × calls can be compared with the enclosing span. Byte
//! counts are computed from tensor sizes, not measured.

use std::hint::black_box;
use std::time::Instant;

use exion_core::ep::{log_matmul, AttentionPlan, EpConfig};
use exion_core::{FfnReuseConfig, FfnReuseEngine};
use exion_model::config::{IterationPhase, ModelConfig, NetworkType};
use exion_model::transformer::{quantize_roundtrip, BlockWeights};
use exion_serve::{CostModel, EventCalendar, EventKind};
use exion_sim::config::HwConfig;
use exion_sim::partition::PartitionPlan;
use exion_sim::perf::{simulate_iteration, SimAblation};
use exion_sim::workload::SparsityProfile;
use exion_tensor::quant::{IntWidth, QuantMatrix};
use exion_tensor::{ops, rng, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Wall time each standalone kernel timing aims to spend per shape.
const KERNEL_BUDGET_S: f64 = 0.02;

/// Mean seconds per call of `f`, repeated until [`KERNEL_BUDGET_S`] is
/// spent (at least 3 calls).
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed().as_secs_f64() < KERNEL_BUDGET_S {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Token rows a transformer block of `config` sees at sim scale: the UNet
/// topologies downsample the sequence by two before their blocks.
pub fn block_rows(config: &ModelConfig) -> usize {
    match config.network {
        NetworkType::UNetPlain | NetworkType::UNetRes => config.sim.tokens.div_ceil(2),
        NetworkType::TransformerOnly => config.sim.tokens,
    }
}

/// Per-call timings of the paper layers at one model's sim-scale block
/// shape.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    /// `FfnReuseEngine::forward`, dense iteration (s).
    pub ffn_dense: f64,
    /// `FfnReuseEngine::forward`, sparse iteration (s).
    pub ffn_sparse: f64,
    /// Bytes a dense FFN iteration reads and writes.
    pub ffn_dense_bytes: f64,
    /// `log_matmul` of the EPRE's Q' projection (s).
    pub log_matmul: f64,
    /// Bytes one `log_matmul` reads and writes.
    pub log_matmul_bytes: f64,
    /// `AttentionPlan::predict` for one head (s).
    pub predict: f64,
    /// `ops::matmul` seconds per multiply-accumulate, over the block's
    /// projection and FFN shapes.
    pub matmul_per_mac: f64,
    /// `quantize_roundtrip`, averaged over the six operands one quantized
    /// block iteration round-trips (s).
    pub quant_roundtrip: f64,
}

/// Times the paper layers at `config`'s block shape.
pub fn kernel_times(config: &ModelConfig, seed: u64) -> KernelTimes {
    let rows = block_rows(config);
    let d = config.sim.d_model;
    let dh = d / config.sim.heads;
    let w = BlockWeights::random(&config.sim, config.geglu, seed);
    let x = rng::seeded_uniform(rows, d, -1.0, 1.0, seed.wrapping_add(1));

    // FFN-Reuse: one dense iteration, then the model's sparse iterations
    // reusing it, timed apart.
    let reuse = FfnReuseConfig::with_target_sparsity(
        config.ffn_reuse.target_sparsity,
        config.ffn_reuse.sparse_iters,
    );
    let (mut dense_s, mut sparse_s, mut dense_n, mut sparse_n) = (0.0, 0.0, 0u32, 0u32);
    let start = Instant::now();
    while dense_n < 3 || start.elapsed().as_secs_f64() < 2.0 * KERNEL_BUDGET_S {
        let mut engine = FfnReuseEngine::new(reuse);
        for i in 0..=config.ffn_reuse.sparse_iters {
            let t = Instant::now();
            black_box(engine.forward(&x, &w.ffn));
            if i == 0 {
                dense_s += t.elapsed().as_secs_f64();
                dense_n += 1;
            } else {
                sparse_s += t.elapsed().as_secs_f64();
                sparse_n += 1;
            }
        }
    }
    let hidden_cols = w.ffn.hidden_cols();
    let d_ff = config.sim.d_ff;
    let ffn_dense_bytes =
        4.0 * (rows * d + d * d_ff + d_ff + hidden_cols * d + d + rows * d_ff + rows * d) as f64;

    // Eager prediction: the log-domain Q' projection and one head's score
    // prediction over INT12 operands.
    let ep = EpConfig::new(config.ep.q_th, config.ep.top_k_ratio);
    let xq = QuantMatrix::quantize(&x, IntWidth::Int12);
    let wq = QuantMatrix::quantize(&w.wq, IntWidth::Int12);
    let log_matmul_s = per_call(|| {
        black_box(log_matmul(&xq, &wq, ep.lod, ep.accum));
    });
    let log_matmul_bytes = (4 * (rows * d + d * d) + 8 * rows * d) as f64;
    let qh = QuantMatrix::quantize(
        &rng::seeded_uniform(rows, dh, -1.0, 1.0, seed.wrapping_add(2)),
        IntWidth::Int12,
    );
    let kh = QuantMatrix::quantize(
        &rng::seeded_uniform(rows, dh, -1.0, 1.0, seed.wrapping_add(3)),
        IntWidth::Int12,
    );
    let score_scale = qh.params().scale * kh.params().scale / (dh as f32).sqrt();
    let predict_s = per_call(|| {
        black_box(AttentionPlan::predict(&qh, &kh, score_scale, &ep));
    });

    // Dense kernels: the projection and first FFN layer shapes.
    let shapes: [(&Matrix, usize); 2] = [(&w.wq, d), (&w.ffn.w1, d_ff)];
    let mut matmul_s = 0.0;
    let mut macs = 0.0;
    for (weight, cols) in shapes {
        matmul_s += per_call(|| {
            black_box(ops::matmul(&x, weight));
        });
        macs += (rows * d * cols) as f64;
    }
    // One quantized block iteration round-trips the block input, the four
    // attention weights and the FFN input.
    let operands: [&Matrix; 6] = [&x, &w.wq, &w.wk, &w.wv, &w.wo, &x];
    let quant_s = per_call(|| {
        for m in operands {
            black_box(quantize_roundtrip(m));
        }
    }) / operands.len() as f64;

    KernelTimes {
        ffn_dense: dense_s / dense_n as f64,
        ffn_sparse: if sparse_n == 0 {
            0.0
        } else {
            sparse_s / sparse_n as f64
        },
        ffn_dense_bytes,
        log_matmul: log_matmul_s,
        log_matmul_bytes,
        predict: predict_s,
        matmul_per_mac: matmul_s / macs,
        quant_roundtrip: quant_s,
    }
}

/// Mean seconds per `simulate_iteration` of `models` on `hw` at batch 1,
/// fully resident, over a dense and a sparse step — the path a serving
/// cost-model miss takes.
pub fn sim_iteration_s(hw: &HwConfig, models: &[(ModelConfig, SparsityProfile)]) -> f64 {
    let mut total = 0.0;
    for (config, profile) in models {
        total += per_call(|| {
            for step in [0, 1] {
                black_box(
                    simulate_iteration(hw, config, profile, SimAblation::All, 1, step, 1.0)
                        .expect("step 1 lies inside every model's schedule"),
                );
            }
        }) / 2.0;
    }
    total / models.len().max(1) as f64
}

/// Residency quanta the serving cost model keys on (0/32 … 32/32).
const RESIDENCY_QUANTA: u32 = 32;

/// First-touch and warm `CostModel` pricing over `models` × batch
/// `1..=max_batch` × phase × the 33 residency quanta, plus every shard of
/// each of `plans` (the gang strategies the workload can deploy). Returns
/// `(cold seconds per key, warm seconds per lookup, keys)`.
pub fn cost_times(
    hw: HwConfig,
    models: &[ModelConfig],
    max_batch: u64,
    plans: &[PartitionPlan],
) -> (f64, f64, u64) {
    let mut cost = CostModel::new(hw, SimAblation::All);
    let price_all = |cost: &mut CostModel| {
        let mut keys = 0u64;
        for model in models {
            for batch in 1..=max_batch {
                for phase in [IterationPhase::Dense, IterationPhase::Sparse] {
                    for q in 0..=RESIDENCY_QUANTA {
                        let frac = f64::from(q) / f64::from(RESIDENCY_QUANTA);
                        black_box(
                            cost.iteration(model, batch, phase, frac)
                                .expect("batch ≥ 1"),
                        );
                        keys += 1;
                        for plan in plans {
                            for shard in 0..plan.num_shards() {
                                black_box(
                                    cost.iteration_shard(model, plan, shard, batch, phase, frac)
                                        .expect("batch ≥ 1"),
                                );
                                keys += 1;
                            }
                        }
                    }
                }
            }
        }
        keys
    };
    let start = Instant::now();
    let keys = price_all(&mut cost);
    let cold = start.elapsed().as_secs_f64() / keys as f64;
    let mut lookups = 0u64;
    let start = Instant::now();
    while lookups < 3 * keys || start.elapsed().as_secs_f64() < KERNEL_BUDGET_S {
        lookups += price_all(&mut cost);
    }
    let warm = start.elapsed().as_secs_f64() / lookups as f64;
    (cold, warm, keys)
}

/// Seconds per event of `EventCalendar` churn over `units` unit slots:
/// each of `events` pops reschedules its unit a seeded 1–11 ms later, the
/// unit-boundary traffic of a serving run without the cluster around it.
pub fn calendar_s_per_event(units: usize, events: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut calendar = EventCalendar::new(units);
    for unit in 0..units {
        calendar.schedule_unit(unit, 10.0 * rng.random_f64(), EventKind::UnitBoundary);
    }
    let start = Instant::now();
    for _ in 0..events {
        let ev = calendar.pop().expect("every popped unit is rescheduled");
        calendar.schedule_unit(
            ev.unit,
            ev.at_ms + 1.0 + 10.0 * rng.random_f64(),
            EventKind::UnitBoundary,
        );
    }
    black_box(&calendar);
    start.elapsed().as_secs_f64() / events.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;

    #[test]
    fn unet_blocks_see_half_the_tokens() {
        let sd = ModelConfig::for_kind(ModelKind::StableDiffusion);
        let dit = ModelConfig::for_kind(ModelKind::Dit);
        assert_eq!(block_rows(&sd), sd.sim.tokens.div_ceil(2));
        assert_eq!(block_rows(&dit), dit.sim.tokens);
    }

    #[test]
    fn standalone_timings_are_positive() {
        let config = ModelConfig::for_kind(ModelKind::Mld).shrunk(2, 4);
        let k = kernel_times(&config, 1);
        for t in [
            k.ffn_dense,
            k.ffn_sparse,
            k.log_matmul,
            k.predict,
            k.matmul_per_mac,
            k.quant_roundtrip,
        ] {
            assert!(t > 0.0 && t.is_finite());
        }
        assert!(calendar_s_per_event(4, 1_000, 1) > 0.0);
        let (cold, warm, keys) = cost_times(HwConfig::exion4(), &[config], 2, &[]);
        assert_eq!(keys, 2 * 2 * 33);
        assert!(cold > warm && warm > 0.0);
    }
}
