//! Cached per-iteration cost lookups against the cycle-level simulator.
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

use std::collections::HashMap;

use exion_model::config::{IterationPhase, ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::partition::{simulate_iteration_shard, PartitionPlan, PartitionStrategy};
use exion_sim::perf::{IterationCost, SimAblation, SimError};
use exion_sim::workload::{ShardSpec, SparsityProfile};

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
    memo: HashMap<(ModelKind, u64, u32), IterationCost>,
    isolated: HashMap<ModelKind, f64>,
    /// Measured per-model profiles (e.g. `exion-bench::profiles`) override
    /// the analytic closed form when present.
    profiles: HashMap<ModelKind, SparsityProfile>,
}

impl CostModel {
    /// A cost model for `hw` running under `ablation`.
    pub fn new(hw: HwConfig, ablation: SimAblation) -> Self {
        Self {
            hw,
            ablation,
            memo: HashMap::new(),
            isolated: HashMap::new(),
            profiles: HashMap::new(),
        }
    }

    /// The hardware this model prices.
    pub fn hw(&self) -> &HwConfig {
        &self.hw
    }

    /// The ablation under which iterations are priced.
    pub fn ablation(&self) -> SimAblation {
        self.ablation
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
    /// are invalidated.
    pub fn set_profile(&mut self, kind: ModelKind, profile: SparsityProfile) {
        self.profiles.insert(kind, profile);
        self.memo.retain(|(k, _, _), _| *k != kind);
        self.isolated.remove(&kind);
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

    /// Cost of one denoising iteration of `model` at `batch` rows in
    /// `phase`, with `resident_frac` of the weight working set GSC-resident
    /// (1.0 = steady-state warm, 0.0 = fully cold switch).
    pub fn iteration(
        &mut self,
        model: &ModelConfig,
        batch: u64,
        phase: IterationPhase,
        resident_frac: f64,
    ) -> Result<IterationCost, SimError> {
        self.price(model, None, 0, batch, phase, resident_frac)
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
        self.price(model, Some(plan), shard, batch, phase, resident_frac)
    }

    /// The one memoized pricer: shard `shard` of `plan`, or the whole model
    /// when `plan` is `None`.
    fn price(
        &mut self,
        model: &ModelConfig,
        plan: Option<&PartitionPlan>,
        shard: usize,
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
        let strategy = plan.map_or(PartitionStrategy::Replicated, PartitionPlan::strategy);
        let key = (model.kind, batch, slot(strategy, shard, phase, frac_q));
        if let Some(&cost) = self.memo.get(&key) {
            return Ok(cost);
        }
        let spec = plan.map_or_else(|| ShardSpec::full(&model.paper), |p| *p.spec(shard));
        // Step 0 is always dense; step 1 is sparse whenever FFN-Reuse is on
        // (every benchmark has sparse_iters ≥ 1).
        let step = match phase {
            IterationPhase::Dense => 0,
            IterationPhase::Sparse => 1,
        };
        let cost = simulate_iteration_shard(
            &self.hw,
            model,
            &spec,
            &self.profile_for(model),
            self.ablation,
            batch,
            step,
            frac_q as f64 / RESIDENCY_QUANTA,
        )?;
        self.memo.insert(key, cost);
        Ok(cost)
    }

    /// Warm full-generation latency of one gang serving `model` under
    /// `plan` at `batch` rows — the sharded analogue of
    /// [`Self::generation_latency_ms`], anchoring capacity estimates for
    /// sharded placements.
    pub fn gang_generation_latency_ms(
        &mut self,
        model: &ModelConfig,
        plan: &PartitionPlan,
        batch: u64,
    ) -> f64 {
        self.gang_generation_cost_at_residency(model, plan, batch, 1.0, 1)
            .latency_ms
    }

    /// Warm full-generation latency of `model` at `batch` rows: the sum of
    /// per-iteration costs across the denoising schedule with weights
    /// GSC-resident throughout.
    pub fn generation_latency_ms(&mut self, model: &ModelConfig, batch: u64) -> f64 {
        self.generation_cost_at_residency(model, batch, 1.0)
            .latency_ms
    }

    /// Full-generation cost (latency + energy summed over the denoising
    /// schedule) of `model` at `batch` rows with `resident_frac` of the
    /// weight working set GSC-resident every iteration — the steady-state
    /// projection a placement planner prices a *replica* unit with (a
    /// tenant bigger than the GSC never gets warmer than its partial
    /// residency, so its real service time sits well above the warm one).
    pub fn generation_cost_at_residency(
        &mut self,
        model: &ModelConfig,
        batch: u64,
        resident_frac: f64,
    ) -> IterationCost {
        self.generation_sum(model, None, batch, resident_frac, 0.0)
    }

    /// The sharded analogue of [`Self::generation_cost_at_residency`]: one
    /// gang's full generation under `plan` with every member holding
    /// `resident_frac` of its own shard, and the collective term priced
    /// with `concurrent_gangs` gangs contending for the board fabric
    /// ([`PartitionPlan::collective_ms_contended`]).
    pub fn gang_generation_cost_at_residency(
        &mut self,
        model: &ModelConfig,
        plan: &PartitionPlan,
        batch: u64,
        resident_frac: f64,
        concurrent_gangs: usize,
    ) -> IterationCost {
        let contention_extra =
            plan.collective_ms_contended(batch, concurrent_gangs) - plan.collective_ms(batch);
        self.generation_sum(model, Some(plan), batch, resident_frac, contention_extra)
    }

    /// The one schedule loop behind both generation sums: every denoising
    /// step priced at `resident_frac` — the whole model when `plan` is
    /// `None`, else every shard folded by [`PartitionPlan::combine`] — plus
    /// the fabric-contention surcharge `contention_ms` per step.
    fn generation_sum(
        &mut self,
        model: &ModelConfig,
        plan: Option<&PartitionPlan>,
        batch: u64,
        resident_frac: f64,
        contention_ms: f64,
    ) -> IterationCost {
        const PRICEABLE: &str = "positive batch and in-range steps cannot fail";
        let mut shards = Vec::with_capacity(plan.map_or(0, PartitionPlan::num_shards));
        let mut total = IterationCost {
            latency_ms: 0.0,
            energy_mj: 0.0,
            dense_ops: 0.0,
        };
        for step in 0..model.iterations {
            let phase = model.ffn_reuse.phase_of_step(step);
            let cost = match plan {
                None => self
                    .price(model, None, 0, batch, phase, resident_frac)
                    .expect(PRICEABLE),
                Some(plan) => {
                    shards.clear();
                    for s in 0..plan.num_shards() {
                        let c = self.price(model, Some(plan), s, batch, phase, resident_frac);
                        shards.push(c.expect(PRICEABLE));
                    }
                    plan.combine(&shards, batch)
                }
            };
            total.latency_ms += cost.latency_ms + contention_ms;
            total.energy_mj += cost.energy_mj;
            total.dense_ops += cost.dense_ops;
        }
        total
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

    /// Estimated wall-clock cost (ms) of streaming the *entire* weight
    /// working set of `model` from DRAM: the upper bound a fully cold
    /// switch adds to the first iteration, and the refill currency
    /// residency-aware routing and cost-aware eviction rank tenants by.
    pub fn full_refill_ms(&self, weight_bytes: u64) -> f64 {
        weight_bytes as f64 * self.dram_ms_per_byte()
    }

    /// Isolated batch-1 generation latency of `model` on this hardware
    /// (cold first step, warm thereafter): the no-contention reference
    /// point for speedup/slowdown analysis. SLOs scale the full-batch
    /// service time instead (see `ServeSimulator::run`).
    pub fn isolated_latency_ms(&mut self, model: &ModelConfig) -> f64 {
        if let Some(&ms) = self.isolated.get(&model.kind) {
            return ms;
        }
        let cold_extra = {
            let cold = self
                .iteration(model, 1, IterationPhase::Dense, 0.0)
                .expect("batch 1 cannot fail");
            let warm = self
                .iteration(model, 1, IterationPhase::Dense, 1.0)
                .expect("batch 1 cannot fail");
            cold.latency_ms - warm.latency_ms
        };
        let total = self.generation_latency_ms(model, 1) + cold_extra;
        self.isolated.insert(model.kind, total);
        total
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
        cm.set_profile(ModelKind::Mdm, measured);
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
    fn isolated_latency_matches_end_to_end_sim() {
        let mut cm = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let model = ModelConfig::for_kind(ModelKind::Mdm);
        let isolated = cm.isolated_latency_ms(&model);
        let full = exion_sim::perf::simulate_model(
            &HwConfig::exion4(),
            &model,
            &CostModel::analytic_profile(&model),
            SimAblation::All,
            1,
        );
        let gap = (isolated - full.latency_ms).abs() / full.latency_ms;
        assert!(
            gap < 0.05,
            "isolated {isolated} vs full {}",
            full.latency_ms
        );
    }
}
