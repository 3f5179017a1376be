//! Cached per-iteration cost lookups against the cycle-level simulator,
//! and the one owner of every partition plan.
//!
//! The scheduler prices every (model, shard, batch size, FFN-Reuse phase,
//! weight residency) combination it executes through
//! [`exion_sim::simulate_iteration_shard`] and memoizes the result, so a
//! serving run of tens of thousands of iterations costs only a handful of
//! one-iteration cycle simulations. A whole-model replica is the one-shard
//! case: it prices the full [`ShardSpec`] under the same memo key as shard 0
//! of a [`PartitionStrategy::Replicated`] plan. Residency is a *fraction* of
//! the weight working set held by the GSC — quantized to 1/32nds for
//! memoization — not a warm/cold flag; partially resident tenants price a
//! partial refill.
//!
//! [`CostModel::plan`] cuts each (model, strategy) once per cost model and
//! serves every fabric from that cut, so the scheduling context, the
//! capacity estimate and the placement planner read one plan per unit type
//! (a replica's is cut over the default fabric; it drives no link).
//! Whole generations are priced per unit, through the unit's
//! [`PartitionPlan`]: [`CostModel::generation_cost`] sums the schedule of
//! one unit whose members all sit at a given residency, with the
//! uncontended collective of every step. A replica is the `Replicated`
//! plan, so the placement planner and the capacity estimate price replicas
//! and gangs with the same call. [`CostModel::generation_latency_ms`] is
//! the warm replica generation that SLOs scale.
//!
//! Every serving member looks up its price once per iteration, so the memo
//! and the plan table hash their keys with the crate's one deterministic
//! multiplicative hasher rather than std's SipHash: each key is made by
//! the program, and none can be chosen to flood a table. Nothing reads the
//! maps' iteration order. The model counts its memo hits and misses, which
//! each run reports in its `RunProfile`.

use exion_model::config::{IterationPhase, ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::partition::{
    simulate_iteration_shard, Interconnect, PartitionPlan, PartitionStrategy,
};
use exion_sim::perf::{IterationCost, SimAblation, SimError};
use exion_sim::workload::{ShardSpec, SparsityProfile};

use crate::hash::FxHashMap;

/// Residency-fraction quantization for memo keys (1/32 ≈ 3% granularity —
/// finer than any latency effect the DRAM model resolves).
const RESIDENCY_QUANTA: f64 = 32.0;

/// Packs everything a memo key needs beyond the model and batch into one
/// word: the strategy tag (bits 23–24), the gang degree (15–22), the shard
/// index (7–14), the phase (6) and the residency quantum (0–5). The whole
/// model and shard 0 of a [`PartitionStrategy::Replicated`] plan share a
/// slot, because they price the same [`ShardSpec`].
///
/// # Panics
///
/// Panics when the degree or the shard index exceeds [`u8::MAX`]: the slot
/// keeps 8 bits for each, and a truncated field would alias another plan's
/// key.
fn slot(strategy: PartitionStrategy, shard: usize, phase: IterationPhase, frac_q: u32) -> u32 {
    let (tag, degree) = match strategy {
        PartitionStrategy::Replicated => (0, 1),
        PartitionStrategy::Tensor { .. } => (1, strategy.degree()),
        PartitionStrategy::Pipeline { .. } => (2, strategy.degree()),
    };
    let field = |what: &str, v: usize| {
        u8::try_from(v).unwrap_or_else(|_| {
            panic!(
                "cost memo keys hold a gang {what} of at most {}, got {v}",
                u8::MAX
            )
        }) as u32
    };
    tag << 23
        | field("degree", degree) << 15
        | field("shard index", shard) << 7
        | (phase.is_sparse() as u32) << 6
        | frac_q
}

/// Memoized iteration-cost oracle for one hardware instance type.
#[derive(Debug, Clone)]
pub struct CostModel {
    hw: HwConfig,
    ablation: SimAblation,
    /// Iteration costs by `(model, batch, slot)` — see [`slot`].
    memo: FxHashMap<(ModelKind, u64, u32), IterationCost>,
    /// Each model's cut per strategy, over the default fabric — see
    /// [`Self::plan`].
    plans: FxHashMap<(ModelKind, PartitionStrategy), PartitionPlan>,
    /// Measured per-model profiles (e.g. `exion-bench::profiles`) override
    /// the analytic closed form when present.
    profiles: FxHashMap<ModelKind, SparsityProfile>,
    /// Memo lookups answered from `memo`, and those that simulated.
    hits: u64,
    misses: u64,
}

impl CostModel {
    /// A cost model for `hw` running under `ablation`.
    pub fn new(hw: HwConfig, ablation: SimAblation) -> Self {
        Self {
            hw,
            ablation,
            memo: FxHashMap::default(),
            plans: FxHashMap::default(),
            profiles: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The hardware this model prices.
    pub fn hw(&self) -> &HwConfig {
        &self.hw
    }

    /// The analytic sparsity profile of `model` (same closed form the
    /// Fig. 18/19 experiments use when functional measurements are absent).
    pub fn analytic_profile(model: &ModelConfig) -> SparsityProfile {
        SparsityProfile::analytic(
            model.ffn_reuse.target_sparsity,
            model.ep.paper_sparsity_pct / 100.0,
            16,
        )
    }

    /// Installs a measured sparsity profile for `kind` (from
    /// `exion-bench::profiles` functional runs), replacing the analytic
    /// closed form for all subsequent pricing. Cached costs of that model
    /// are invalidated. An invalid profile ([`SparsityProfile::validate`])
    /// is rejected here, where it is installed, and changes nothing.
    pub fn set_profile(
        &mut self,
        kind: ModelKind,
        profile: SparsityProfile,
    ) -> Result<(), SimError> {
        profile.validate()?;
        self.profiles.insert(kind, profile);
        self.memo.retain(|(k, _, _), _| *k != kind);
        Ok(())
    }

    /// The profile `model` is priced under: the measured override when
    /// installed, else the analytic closed form.
    pub fn profile_for(&self, model: &ModelConfig) -> SparsityProfile {
        self.profiles
            .get(&model.kind)
            .copied()
            .unwrap_or_else(|| Self::analytic_profile(model))
    }

    /// The scheduling period of `model` under this ablation: the FFN-Reuse
    /// period when reuse is active, else 1 (every iteration is a boundary).
    pub fn period(&self, model: &ModelConfig) -> usize {
        if self.ablation.ffn_reuse() {
            model.ffn_reuse.period()
        } else {
            1
        }
    }

    /// The cut of `model` under `strategy`, pricing its collectives over
    /// `link`. Each (model, strategy) is cut once per cost model (a
    /// pipeline cut walks the model's whole dense op list) and every
    /// fabric — the placement's link, the planner's fabric, a degraded
    /// window — is served from that cut. A replica drives no link, so its
    /// plan stays on the default fabric whatever `link` is: its collective
    /// terms are zero on any valid link.
    pub fn plan(
        &mut self,
        model: &ModelConfig,
        strategy: PartitionStrategy,
        link: Interconnect,
    ) -> PartitionPlan {
        let operand_bytes = self.hw.operand_bytes();
        let cut = self
            .plans
            .entry((model.kind, strategy))
            .or_insert_with(|| {
                PartitionPlan::new(model, strategy, Interconnect::default(), operand_bytes)
            })
            .clone();
        match strategy {
            PartitionStrategy::Replicated => cut,
            _ => cut.with_interconnect(link),
        }
    }

    /// Cost of one denoising iteration of `model` at `batch` rows in
    /// `phase`, with `resident_frac` of the weight working set GSC-resident
    /// (1.0 = steady-state warm, 0.0 = fully cold switch): the full
    /// [`ShardSpec`], priced as shard 0 of the `Replicated` plan.
    pub fn iteration(
        &mut self,
        model: &ModelConfig,
        batch: u64,
        phase: IterationPhase,
        resident_frac: f64,
    ) -> Result<IterationCost, SimError> {
        let whole = ShardSpec::full(&model.paper);
        let replica = PartitionStrategy::Replicated;
        self.price(model, replica, 0, &whole, batch, phase, resident_frac)
    }

    /// Cost of one *shard's* share of a denoising iteration under `plan`,
    /// with `resident_frac` of the shard's own weight working set
    /// GSC-resident on its member instance. Pure shard compute — the gang
    /// collective term is added by [`PartitionPlan::combine`].
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of the plan's range, or when the plan's
    /// degree exceeds the memo key's 8-bit field (255 ways).
    pub fn iteration_shard(
        &mut self,
        model: &ModelConfig,
        plan: &PartitionPlan,
        shard: usize,
        batch: u64,
        phase: IterationPhase,
        resident_frac: f64,
    ) -> Result<IterationCost, SimError> {
        let (strategy, spec) = (plan.strategy(), plan.spec(shard));
        self.price(model, strategy, shard, spec, batch, phase, resident_frac)
    }

    /// The one memoized pricer: `spec`, shard `shard` of a `strategy` plan.
    #[allow(clippy::too_many_arguments)]
    fn price(
        &mut self,
        model: &ModelConfig,
        strategy: PartitionStrategy,
        shard: usize,
        spec: &ShardSpec,
        batch: u64,
        phase: IterationPhase,
        resident_frac: f64,
    ) -> Result<IterationCost, SimError> {
        // Without FFN-Reuse every step prices as a dense boundary step.
        let phase = if self.ablation.ffn_reuse() {
            phase
        } else {
            IterationPhase::Dense
        };
        let frac_q = (resident_frac.clamp(0.0, 1.0) * RESIDENCY_QUANTA).round() as u32;
        let key = (model.kind, batch, slot(strategy, shard, phase, frac_q));
        if let Some(&cost) = self.memo.get(&key) {
            self.hits += 1;
            return Ok(cost);
        }
        self.misses += 1;
        // Step 0 is always dense; step 1 is sparse whenever FFN-Reuse is on
        // (every benchmark has sparse_iters ≥ 1).
        let step = match phase {
            IterationPhase::Dense => 0,
            IterationPhase::Sparse => 1,
        };
        let cost = simulate_iteration_shard(
            &self.hw,
            model,
            spec,
            &self.profile_for(model),
            self.ablation,
            batch,
            step,
            frac_q as f64 / RESIDENCY_QUANTA,
        )?;
        self.memo.insert(key, cost);
        Ok(cost)
    }

    /// Warm full-generation latency of `model` at `batch` rows: the
    /// generation of one replica (the memoized `Replicated` plan) with
    /// weights GSC-resident throughout — the currency SLOs scale.
    pub fn generation_latency_ms(&mut self, model: &ModelConfig, batch: u64) -> f64 {
        let replica = self.plan(
            model,
            PartitionStrategy::Replicated,
            Interconnect::default(),
        );
        self.generation_cost(model, &replica, batch, 1.0).latency_ms
    }

    /// Full-generation cost (latency, energy and dense ops summed over the
    /// denoising schedule) of one unit serving `model` under `plan` at
    /// `batch` rows, with every member holding `resident_frac` of its own
    /// shard every iteration. Each step folds the shard costs and the
    /// uncontended collective through [`PartitionPlan::combine`]. A replica
    /// is the [`PartitionStrategy::Replicated`] plan: one member, no
    /// collective, priced bit for bit like the whole model.
    pub fn generation_cost(
        &mut self,
        model: &ModelConfig,
        plan: &PartitionPlan,
        batch: u64,
        resident_frac: f64,
    ) -> IterationCost {
        const PRICEABLE: &str = "positive batch, in-range steps and installed profiles cannot fail";
        let collective = plan.collective(batch);
        let mut shards = Vec::with_capacity(plan.num_shards());
        let mut total = IterationCost {
            latency_ms: 0.0,
            energy_mj: 0.0,
            dense_ops: 0.0,
        };
        for step in 0..model.iterations {
            let phase = model.ffn_reuse.phase_of_step(step);
            shards.clear();
            for s in 0..plan.num_shards() {
                let c = self.iteration_shard(model, plan, s, batch, phase, resident_frac);
                shards.push(c.expect(PRICEABLE));
            }
            let cost = plan.combine(&shards, collective);
            total.latency_ms += cost.latency_ms;
            total.energy_mj += cost.energy_mj;
            total.dense_ops += cost.dense_ops;
        }
        total
    }

    /// Iteration-memo lookups so far, `(hits, misses)`: each miss ran one
    /// cycle simulation.
    pub(crate) fn memo_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Wall-clock cost (ms) per byte moved across this hardware's DRAM
    /// interface — the single pricing rule every serve-layer transfer
    /// estimate (weight refills, latent spills and reloads) derives from.
    pub fn dram_ms_per_byte(&self) -> f64 {
        1.0 / (self.hw.dram_gbps * 1e6)
    }

    /// Transfer energy (mJ) per byte moved across the DRAM interface, from
    /// the device's read/write energy (`DramTiming::rw_pj_per_bit`).
    pub fn dram_mj_per_byte(&self) -> f64 {
        8.0 * self.hw.dram_timing().rw_pj_per_bit * 1e-9
    }
}

#[cfg(test)]
impl CostModel {
    /// Plans cut so far: one per (model, strategy) asked for.
    pub(crate) fn cuts(&self) -> usize {
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_return_identical_costs() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let a = cm
            .iteration(&model, 4, IterationPhase::Sparse, 1.0)
            .unwrap();
        let b = cm
            .iteration(&model, 4, IterationPhase::Sparse, 1.0)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cm.memo.len(), 1);
        // Nearby fractions share a residency quantum; distant ones do not.
        cm.iteration(&model, 4, IterationPhase::Sparse, 0.999)
            .unwrap();
        assert_eq!(cm.memo.len(), 1);
        cm.iteration(&model, 4, IterationPhase::Sparse, 0.5)
            .unwrap();
        assert_eq!(cm.memo.len(), 2);
    }

    #[test]
    fn whole_model_is_shard_zero_of_a_replicated_plan() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let plan = PartitionPlan::new(
            &model,
            PartitionStrategy::Replicated,
            exion_sim::partition::Interconnect::default(),
            cm.hw().operand_bytes(),
        );
        let mut entries = 0;
        for phase in [IterationPhase::Dense, IterationPhase::Sparse] {
            for frac in [0.25, 1.0] {
                let whole = cm.iteration(&model, 2, phase, frac).unwrap();
                let shard = cm
                    .iteration_shard(&model, &plan, 0, 2, phase, frac)
                    .unwrap();
                assert_eq!(whole.latency_ms.to_bits(), shard.latency_ms.to_bits());
                assert_eq!(whole.energy_mj.to_bits(), shard.energy_mj.to_bits());
                assert_eq!(whole.dense_ops.to_bits(), shard.dense_ops.to_bits());
                entries += 1;
                assert_eq!(cm.memo.len(), entries, "one entry serves both calls");
            }
        }
        // Summed over a whole generation, the Replicated plan's unit cost
        // is the whole model's iterations summed, warm and at a partial
        // residency.
        let bits = |c: IterationCost| [c.latency_ms, c.energy_mj, c.dense_ops].map(f64::to_bits);
        for batch in [1, 8] {
            for frac in [0.25, 1.0] {
                let mut whole = IterationCost {
                    latency_ms: 0.0,
                    energy_mj: 0.0,
                    dense_ops: 0.0,
                };
                for step in 0..model.iterations {
                    let phase = model.ffn_reuse.phase_of_step(step);
                    let c = cm.iteration(&model, batch, phase, frac).unwrap();
                    whole.latency_ms += c.latency_ms;
                    whole.energy_mj += c.energy_mj;
                    whole.dense_ops += c.dense_ops;
                }
                let unit = cm.generation_cost(&model, &plan, batch, frac);
                assert_eq!(bits(whole), bits(unit), "batch {batch}, residency {frac}");
            }
            assert_eq!(
                cm.generation_latency_ms(&model, batch).to_bits(),
                cm.generation_cost(&model, &plan, batch, 1.0)
                    .latency_ms
                    .to_bits()
            );
        }
    }

    #[test]
    fn plan_memo_cuts_once_and_serves_every_fabric() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::VideoCrafter2);
        let operand_bytes = cm.hw().operand_bytes();
        let bits = |c: IterationCost| [c.latency_ms, c.energy_mj, c.dense_ops].map(f64::to_bits);
        let slow = Interconnect {
            link_gbps: 8.0,
            latency_us: 20.0,
            ..Interconnect::ring()
        };
        // A gang strategy over two fabrics: one cut, and each fabric prices
        // its own collective exactly as a cut over it would.
        let strategy = PartitionStrategy::Pipeline { stages: 2 };
        let mut costs = Vec::new();
        for link in [Interconnect::ring(), slow] {
            let plan = cm.plan(&model, strategy, link);
            assert_eq!(cm.cuts(), 1, "{link:?} re-cut the model");
            assert_eq!(plan.interconnect(), link);
            let fresh = PartitionPlan::new(&model, strategy, link, operand_bytes);
            assert_eq!(plan, fresh);
            let unit = cm.generation_cost(&model, &plan, 4, 0.5);
            assert_eq!(bits(unit), bits(cm.generation_cost(&model, &fresh, 4, 0.5)));
            costs.push(unit.latency_ms);
        }
        assert!(
            costs[1] > costs[0],
            "the slow link must price slower: {costs:?}"
        );
        // A replica asked over a non-default valid fabric prices iterations
        // and generations bit for bit like the default-fabric plan, as a
        // replica cut over that fabric would.
        let odd = Interconnect {
            link_gbps: 8.0,
            latency_us: 20.0,
            pj_per_bit: 9.0,
            ..Interconnect::all_to_all()
        };
        let replicated = PartitionStrategy::Replicated;
        let default =
            PartitionPlan::new(&model, replicated, Interconnect::default(), operand_bytes);
        for plan in [
            cm.plan(&model, replicated, odd),
            PartitionPlan::new(&model, replicated, odd, operand_bytes),
        ] {
            for phase in [IterationPhase::Dense, IterationPhase::Sparse] {
                let one = cm.iteration_shard(&model, &plan, 0, 2, phase, 0.5).unwrap();
                let base = cm.iteration_shard(&model, &default, 0, 2, phase, 0.5);
                assert_eq!(bits(one), bits(base.unwrap()));
            }
            for batch in [1, 8] {
                assert_eq!(
                    bits(cm.generation_cost(&model, &plan, batch, 0.5)),
                    bits(cm.generation_cost(&model, &default, batch, 0.5)),
                    "batch {batch}"
                );
            }
        }
        assert_eq!(cm.cuts(), 2);
    }

    #[test]
    #[should_panic(expected = "cost memo keys hold a gang degree of at most 255, got 256")]
    fn oversized_degree_panics_instead_of_aliasing_a_memo_key() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let plan = PartitionPlan::new(
            &model,
            PartitionStrategy::Tensor { ways: 256 },
            exion_sim::partition::Interconnect::default(),
            cm.hw().operand_bytes(),
        );
        let _ = cm.iteration_shard(&model, &plan, 0, 1, IterationPhase::Dense, 1.0);
    }

    #[test]
    fn batching_amortizes_per_request_cost() {
        let mut cm = CostModel::new(HwConfig::exion24(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::StableDiffusion);
        let b1 = cm.iteration(&model, 1, IterationPhase::Dense, 1.0).unwrap();
        let b8 = cm.iteration(&model, 8, IterationPhase::Dense, 1.0).unwrap();
        assert!(b8.latency_ms < 8.0 * b1.latency_ms);
        assert!(b8.latency_ms > b1.latency_ms);
    }

    #[test]
    fn base_ablation_prices_everything_dense() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::Base);
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        assert_eq!(cm.period(&model), 1);
        let s = cm
            .iteration(&model, 2, IterationPhase::Sparse, 1.0)
            .unwrap();
        let d = cm.iteration(&model, 2, IterationPhase::Dense, 1.0).unwrap();
        assert_eq!(s, d);
    }

    #[test]
    fn partial_residency_prices_between_cold_and_warm() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let cold = cm.iteration(&model, 1, IterationPhase::Dense, 0.0).unwrap();
        let half = cm.iteration(&model, 1, IterationPhase::Dense, 0.5).unwrap();
        let warm = cm.iteration(&model, 1, IterationPhase::Dense, 1.0).unwrap();
        assert!(cold.latency_ms > half.latency_ms);
        assert!(half.latency_ms >= warm.latency_ms);
    }

    #[test]
    fn measured_profile_override_changes_pricing() {
        let mut cm = CostModel::new(HwConfig::exion24(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let analytic = cm
            .iteration(&model, 4, IterationPhase::Sparse, 1.0)
            .unwrap();
        // A deliberately denser measured profile must re-price the model.
        let mut measured = CostModel::analytic_profile(&model);
        measured.inter_sparsity *= 0.5;
        measured.ffn_block_frac = (measured.ffn_block_frac * 2.0).min(1.0);
        cm.set_profile(ModelKind::Mdm, measured).unwrap();
        let overridden = cm
            .iteration(&model, 4, IterationPhase::Sparse, 1.0)
            .unwrap();
        assert!(
            overridden.latency_ms > analytic.latency_ms,
            "denser profile must price slower: {} vs {}",
            overridden.latency_ms,
            analytic.latency_ms
        );
        // Other models keep their analytic pricing.
        let mld = ModelConfig::for_kind(ModelKind::Mld);
        assert_eq!(cm.profile_for(&mld), CostModel::analytic_profile(&mld));
    }

    #[test]
    fn invalid_profiles_are_rejected_where_installed() {
        let mut cm = CostModel::new(HwConfig::exion24(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let before = cm
            .iteration(&model, 1, IterationPhase::Sparse, 1.0)
            .unwrap();
        let mut bad = CostModel::analytic_profile(&model);
        bad.inter_sparsity = f64::NAN;
        bad.ffn_weight_frac = f64::NAN;
        assert_eq!(
            cm.set_profile(ModelKind::Dit, bad),
            Err(SimError::InvalidProfile {
                field: "inter_sparsity"
            })
        );
        // Nothing was installed: the model still prices analytically.
        assert_eq!(cm.profile_for(&model), CostModel::analytic_profile(&model));
        let after = cm
            .iteration(&model, 1, IterationPhase::Sparse, 1.0)
            .unwrap();
        assert_eq!(after, before);
    }
}
