//! End-to-end model simulation (the entry point of Figs. 18–19).

use exion_model::config::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::config::HwConfig;
use crate::dsc::{DscReport, DscSimulator, PlanCycles};
use crate::energy::Engine;
use crate::partition::simulate_iteration_shard;
use crate::workload::{build_iteration, IterationKindFlags, ShardSpec, SparsityProfile};

/// The ablation axes of Fig. 18 (`EXIONx_Base` / `_EP` / `_FFNR` / `_All`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimAblation {
    /// No sparsity optimizations.
    Base,
    /// Eager prediction only.
    Ep,
    /// FFN-Reuse only.
    Ffnr,
    /// Both.
    All,
}

impl SimAblation {
    /// All ablations in the paper's plotting order.
    pub const ALL: [SimAblation; 4] = [
        SimAblation::Base,
        SimAblation::Ep,
        SimAblation::Ffnr,
        SimAblation::All,
    ];

    /// Suffix used in the paper's config names.
    pub fn suffix(&self) -> &'static str {
        match self {
            SimAblation::Base => "Base",
            SimAblation::Ep => "EP",
            SimAblation::Ffnr => "FFNR",
            SimAblation::All => "All",
        }
    }

    /// Whether FFN-Reuse is active.
    pub fn ffn_reuse(&self) -> bool {
        matches!(self, SimAblation::Ffnr | SimAblation::All)
    }

    /// Whether eager prediction is active.
    pub fn ep(&self) -> bool {
        matches!(self, SimAblation::Ep | SimAblation::All)
    }
}

/// Errors of the non-panicking simulation entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// `batch == 0` was requested.
    ZeroBatch,
    /// A per-iteration simulation was asked for a step past the model's
    /// denoising schedule.
    StepOutOfRange {
        /// The requested 0-based step.
        step: usize,
        /// The model's iteration count.
        iterations: usize,
    },
    /// A [`SparsityProfile`] field is NaN, infinite or outside `[0, 1]`.
    InvalidProfile {
        /// The first offending field.
        field: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ZeroBatch => write!(f, "batch must be positive"),
            SimError::StepOutOfRange { step, iterations } => {
                write!(f, "step {step} out of range for {iterations} iterations")
            }
            SimError::InvalidProfile { field } => {
                write!(
                    f,
                    "sparsity profile field {field} is not a fraction in [0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// End-to-end performance report of one (hardware, model, ablation, batch)
/// point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Configuration name, e.g. `EXION24_All`.
    pub name: String,
    /// End-to-end generation latency (ms).
    pub latency_ms: f64,
    /// Total energy: DSCs + DRAM (mJ).
    pub energy_mj: f64,
    /// Dense-equivalent operations of the workload (2 ops per MAC).
    pub dense_ops: f64,
    /// Effective throughput (dense-equivalent TOPS).
    pub effective_tops: f64,
    /// Energy efficiency (dense-equivalent TOPS/W) — Fig. 18's y-axis.
    pub tops_per_watt: f64,
    /// Underlying simulator report.
    pub detail: DscReport,
}

impl PerfReport {
    /// Mean power during the run (W).
    pub fn mean_power_w(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            self.energy_mj / self.latency_ms
        }
    }

    /// Energy share of one engine across DSCs.
    pub fn engine_share(&self, engine: Engine) -> f64 {
        let total: f64 = self.detail.engine_energy_mj.iter().map(|(_, e)| e).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.detail
            .engine_energy_mj
            .iter()
            .find(|(e, _)| *e == engine)
            .map(|(_, v)| v / total)
            .unwrap_or(0.0)
    }
}

/// The iteration flags `ablation` implies for denoising step `step` of
/// `model` — the FFN-Reuse phase comes from the model's iteration-boundary
/// metadata.
pub(crate) fn flags_for_step(
    model: &ModelConfig,
    ablation: SimAblation,
    step: usize,
) -> IterationKindFlags {
    let ffnr = ablation.ffn_reuse();
    let sparse = ffnr && model.ffn_reuse.phase_of_step(step).is_sparse();
    IterationKindFlags {
        ffn_sparse: sparse,
        ffn_dense_with_cau: ffnr && !sparse,
        ep: ablation.ep(),
    }
}

/// Cost of one denoising iteration on an accelerator instance — the
/// per-iteration hook that request-level serving simulators batch against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Iteration latency (ms).
    pub latency_ms: f64,
    /// Iteration energy: DSCs + DRAM (mJ).
    pub energy_mj: f64,
    /// Dense-equivalent operations of the iteration.
    pub dense_ops: f64,
}

/// Simulates a single denoising iteration of `model` at `batch` rows: the
/// whole-model case of [`simulate_iteration_shard`].
///
/// `step` selects the FFN-Reuse phase (dense boundary or sparse reuse) via
/// the model's iteration metadata. `resident_frac` is the fraction of the
/// model's weight working set already GSC-resident, as tracked by a
/// capacity-aware residency model ([`crate::residency::GscCache`]): `1.0`
/// is the steady state of a single-tenant serving loop, `0.0` a fully cold
/// model switch, and anything between prices a partial refill. The value is
/// clamped to `[0, 1]`.
pub fn simulate_iteration(
    hw: &HwConfig,
    model: &ModelConfig,
    profile: &SparsityProfile,
    ablation: SimAblation,
    batch: u64,
    step: usize,
    resident_frac: f64,
) -> Result<IterationCost, SimError> {
    simulate_iteration_shard(
        hw,
        model,
        &ShardSpec::full(&model.paper),
        profile,
        ablation,
        batch,
        step,
        resident_frac,
    )
}

/// Simulates one benchmark end to end on an accelerator instance.
///
/// `profile` carries the measured (or analytic) sparsity/compaction summary
/// for this model; the `Base` ablation ignores it. `batch` multiplies the
/// token rows (Fig. 18/19 use batch 1 and 8).
///
/// # Panics
///
/// Panics if `batch == 0` or `profile` is invalid. [`try_simulate_model`]
/// is the non-panicking variant.
pub fn simulate_model(
    hw: &HwConfig,
    model: &ModelConfig,
    profile: &SparsityProfile,
    ablation: SimAblation,
    batch: u64,
) -> PerfReport {
    match try_simulate_model(hw, model, profile, ablation, batch) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking [`simulate_model`]: rejects `batch == 0` and an invalid
/// profile ([`SparsityProfile::validate`]) as a [`SimError`].
pub fn try_simulate_model(
    hw: &HwConfig,
    model: &ModelConfig,
    profile: &SparsityProfile,
    ablation: SimAblation,
    batch: u64,
) -> Result<PerfReport, SimError> {
    if batch == 0 {
        return Err(SimError::ZeroBatch);
    }
    profile.validate()?;
    let dense_profile = SparsityProfile::dense();
    let active_profile = if ablation == SimAblation::Base {
        &dense_profile
    } else {
        profile
    };
    let mut sim = DscSimulator::new(hw);
    // Within one generation the plan depends only on the iteration's flags,
    // which take at most two values (the dense and the sparse FFN-Reuse
    // step): price each class once, apply it on every iteration.
    let mut classes: Vec<(IterationKindFlags, PlanCycles, u64)> = Vec::with_capacity(2);
    let mut dense_macs = 0u64;
    for i in 0..model.iterations {
        let flags = flags_for_step(model, ablation, i);
        let class = match classes.iter().position(|(f, ..)| *f == flags) {
            Some(class) => class,
            None => {
                let plan = build_iteration(
                    &model.paper,
                    model.network,
                    model.geglu,
                    flags,
                    active_profile,
                    batch,
                );
                classes.push((flags, sim.plan_cycles(&plan), plan.dense_equivalent_macs));
                classes.len() - 1
            }
        };
        let (_, cycles, macs) = &classes[class];
        dense_macs += macs;
        sim.apply(cycles);
    }

    let detail = sim.finish();
    let dense_ops = 2.0 * dense_macs as f64;
    let latency_ms = detail.seconds * 1e3;
    let energy_mj = detail.total_energy_mj();
    let effective_tops = if detail.seconds > 0.0 {
        dense_ops / detail.seconds / 1e12
    } else {
        0.0
    };
    let tops_per_watt = if energy_mj > 0.0 {
        dense_ops / (energy_mj * 1e-3) / 1e12
    } else {
        0.0
    };
    Ok(PerfReport {
        name: format!("{}_{}", hw.name, ablation.suffix()),
        latency_ms,
        energy_mj,
        dense_ops,
        effective_tops,
        tops_per_watt,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;

    fn profile_for(model: &ModelConfig) -> SparsityProfile {
        SparsityProfile::analytic(
            model.ffn_reuse.target_sparsity,
            model.ep.paper_sparsity_pct / 100.0,
            16,
        )
    }

    #[test]
    fn ablations_strictly_improve_efficiency() {
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let profile = profile_for(&model);
        let hw = HwConfig::exion24();
        let base = simulate_model(&hw, &model, &profile, SimAblation::Base, 1);
        let ep = simulate_model(&hw, &model, &profile, SimAblation::Ep, 1);
        let ffnr = simulate_model(&hw, &model, &profile, SimAblation::Ffnr, 1);
        let all = simulate_model(&hw, &model, &profile, SimAblation::All, 1);
        // Fig. 18's ordering: Base < EP < FFNR < All for DiT-like models.
        assert!(ep.tops_per_watt > base.tops_per_watt);
        assert!(ffnr.tops_per_watt > ep.tops_per_watt);
        assert!(all.tops_per_watt > ffnr.tops_per_watt);
        assert!(all.latency_ms < base.latency_ms);
    }

    #[test]
    fn base_effective_tops_bounded_by_peak() {
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let hw = HwConfig::exion24();
        let base = simulate_model(&hw, &model, &SparsityProfile::dense(), SimAblation::Base, 8);
        assert!(base.effective_tops <= hw.peak_tops());
        assert!(base.effective_tops > 0.05 * hw.peak_tops());
    }

    #[test]
    fn sparsity_can_exceed_peak_effective_throughput() {
        // Skipped work counts in the numerator, so _All can beat peak TOPS —
        // this is how the paper reports up to 67.8 TOPS/W on a 39-TOPS part.
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let profile = profile_for(&model);
        let hw = HwConfig::exion24();
        let all = simulate_model(&hw, &model, &profile, SimAblation::All, 8);
        let base = simulate_model(&hw, &model, &profile, SimAblation::Base, 8);
        assert!(all.effective_tops > 2.0 * base.effective_tops);
    }

    #[test]
    fn batch_8_amortizes_weight_traffic() {
        let model = ModelConfig::for_kind(ModelKind::StableDiffusion);
        let profile = profile_for(&model);
        let hw = HwConfig::exion4();
        let b1 = simulate_model(&hw, &model, &profile, SimAblation::All, 1);
        let b8 = simulate_model(&hw, &model, &profile, SimAblation::All, 8);
        // 8× work in less than 8× latency.
        assert!(b8.latency_ms < 8.0 * b1.latency_ms);
        assert!(b8.latency_ms > b1.latency_ms);
    }

    #[test]
    fn report_shares_sum_to_one() {
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let profile = profile_for(&model);
        let r = simulate_model(&HwConfig::exion4(), &model, &profile, SimAblation::All, 1);
        let total: f64 = Engine::ALL.iter().map(|&e| r.engine_share(e)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.mean_power_w() > 0.0);
    }

    #[test]
    fn try_simulate_matches_panicking_variant() {
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let profile = profile_for(&model);
        let hw = HwConfig::exion4();
        let a = simulate_model(&hw, &model, &profile, SimAblation::All, 2);
        let b = try_simulate_model(&hw, &model, &profile, SimAblation::All, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            try_simulate_model(&hw, &model, &profile, SimAblation::All, 0),
            Err(SimError::ZeroBatch)
        );
    }

    #[test]
    fn iteration_costs_sum_to_generation_latency() {
        // Warm per-iteration costs plus one cold first step reproduce the
        // end-to-end simulation within the pipeline-fill rounding.
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let profile = profile_for(&model);
        let hw = HwConfig::exion4();
        let full = simulate_model(&hw, &model, &profile, SimAblation::All, 1);
        let mut summed = 0.0;
        for step in 0..model.iterations {
            let frac = if step > 0 { 1.0 } else { 0.0 };
            let c =
                simulate_iteration(&hw, &model, &profile, SimAblation::All, 1, step, frac).unwrap();
            summed += c.latency_ms;
        }
        let gap = (summed - full.latency_ms).abs() / full.latency_ms;
        assert!(gap < 0.05, "sum {summed} vs full {}", full.latency_ms);
    }

    #[test]
    fn sparse_steps_are_cheaper_than_dense() {
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let profile = profile_for(&model);
        let hw = HwConfig::exion24();
        let dense = simulate_iteration(&hw, &model, &profile, SimAblation::All, 4, 0, 1.0).unwrap();
        let sparse =
            simulate_iteration(&hw, &model, &profile, SimAblation::All, 4, 1, 1.0).unwrap();
        assert!(sparse.latency_ms < dense.latency_ms);
        assert!(sparse.energy_mj < dense.energy_mj);
        // Dense-equivalent work is identical either way.
        assert_eq!(sparse.dense_ops, dense.dense_ops);
    }

    #[test]
    fn residency_fraction_interpolates_cold_to_warm() {
        // MDM's weights fit the GSC entirely, so the requested fraction is
        // not capacity-capped and each residency level prices distinctly.
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let profile = profile_for(&model);
        let hw = HwConfig::exion4();
        let at = |frac: f64| {
            simulate_iteration(&hw, &model, &profile, SimAblation::All, 1, 0, frac)
                .unwrap()
                .latency_ms
        };
        let (cold, half, warm) = (at(0.0), at(0.5), at(1.0));
        // Latency is monotone non-increasing in residency: a cold start is
        // DRAM-bound and strictly slower; once the stream dips under the
        // compute time further residency cannot help (overlapped DMA).
        assert!(cold > half, "cold {cold} vs half {half}");
        assert!(half >= warm, "half {half} vs warm {warm}");
    }

    #[test]
    fn iteration_step_bounds_checked() {
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let err = simulate_iteration(
            &HwConfig::exion4(),
            &model,
            &SparsityProfile::dense(),
            SimAblation::Base,
            1,
            model.iterations,
            1.0,
        );
        assert_eq!(
            err,
            Err(SimError::StepOutOfRange {
                step: model.iterations,
                iterations: model.iterations
            })
        );
    }

    /// Profiles with NaN, out-of-range and infinite fields, each with the
    /// first field validation names.
    fn invalid_profiles(model: &ModelConfig) -> [(SparsityProfile, &'static str); 3] {
        let valid = profile_for(model);
        [
            (
                SparsityProfile {
                    inter_sparsity: f64::NAN,
                    ffn_weight_frac: f64::NAN,
                    ..valid
                },
                "inter_sparsity",
            ),
            (
                SparsityProfile {
                    ffn_block_frac: -3.0,
                    attn_block_frac: 7.5,
                    ..valid
                },
                "ffn_block_frac",
            ),
            (
                SparsityProfile {
                    kv_skip: f64::INFINITY,
                    ..valid
                },
                "kv_skip",
            ),
        ]
    }

    #[test]
    fn invalid_profiles_are_rejected_at_every_entry_point() {
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let hw = HwConfig::exion24();
        let valid = profile_for(&model);
        assert_eq!(valid.validate(), Ok(()));
        assert!(try_simulate_model(&hw, &model, &valid, SimAblation::All, 1).is_ok());
        let tp_rank = ShardSpec::tensor(&model.paper, 2, 1);
        for (profile, field) in invalid_profiles(&model) {
            let want = Some(SimError::InvalidProfile { field });
            assert_eq!(profile.validate().err(), want);
            // `Base` prices a dense profile, but a bad input is still
            // rejected rather than ignored.
            for ablation in [SimAblation::Base, SimAblation::All] {
                let whole = try_simulate_model(&hw, &model, &profile, ablation, 1);
                assert_eq!(whole.err(), want, "{field} under {ablation:?}");
            }
            let step = simulate_iteration(&hw, &model, &profile, SimAblation::All, 1, 1, 1.0);
            assert_eq!(step.err(), want, "{field}");
            let shard = simulate_iteration_shard(
                &hw,
                &model,
                &tp_rank,
                &profile,
                SimAblation::All,
                1,
                1,
                1.0,
            );
            assert_eq!(shard.err(), want, "{field}");
        }
        let msg = SimError::InvalidProfile { field: "q_skip" }.to_string();
        assert!(msg.contains("q_skip"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let _ = simulate_model(
            &HwConfig::exion4(),
            &model,
            &SparsityProfile::dense(),
            SimAblation::Base,
            0,
        );
    }
}
