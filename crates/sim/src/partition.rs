//! Model partitioning across accelerator instances (tensor / pipeline
//! parallel).
//!
//! A VideoCrafter2-class backbone streams hundreds of megabytes of weights
//! per denoising iteration — far past one instance's GSC — so a replicated
//! deployment re-reads most of the working set from DRAM every iteration.
//! Sharding cuts the model across a *gang* of instances instead:
//! tensor-parallel ranks take column/row slices of every projection (whole
//! attention heads per rank) and pay a per-block all-reduce; pipeline stages
//! take contiguous block ranges and pay activation hand-offs. Either way,
//! each member instance holds only its shard's working set, so per-shard
//! GSC residency ([`crate::residency::GscObject::WeightShard`]) recovers
//! what whole-model residency cannot.
//!
//! [`PartitionPlan`] is the per-model description of one such cut: the
//! exact byte partition of the weight working set (shard bytes *sum to the
//! whole-model bytes by construction* — a cumulative integer split for TP,
//! disjoint op assignment for PP), the [`ShardSpec`] each member executes,
//! and the interconnect collective term. [`simulate_iteration_shard`]
//! prices one shard's compute; [`PartitionPlan::combine`] folds the shard
//! costs and one step's [`Collective`] into the gang-level iteration cost
//! (max + all-reduce for TP, sum + hand-offs for PP).

use exion_model::config::ModelConfig;

use crate::config::HwConfig;
use crate::perf::{flags_for_step, IterationCost, SimAblation, SimError};
use crate::residency::{model_weight_bytes, spec_weight_bytes};
use crate::workload::{build_iteration_shard, ShardSpec, SparsityProfile};

/// How a model is cut across the member instances of one serving gang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// No cut: one instance holds (and executes) the whole model.
    Replicated,
    /// Tensor parallel: every projection is column/row-split `ways` ways,
    /// whole attention heads per rank; two all-reduces per transformer
    /// block per iteration.
    Tensor {
        /// Parallel ways (gang size).
        ways: u32,
    },
    /// Pipeline parallel: contiguous transformer-block ranges per stage;
    /// one activation hand-off per stage boundary per iteration.
    Pipeline {
        /// Pipeline depth (gang size).
        stages: u32,
    },
}

impl PartitionStrategy {
    /// Instances one gang of this strategy occupies.
    pub fn degree(&self) -> usize {
        match *self {
            PartitionStrategy::Replicated => 1,
            PartitionStrategy::Tensor { ways } => ways.max(1) as usize,
            PartitionStrategy::Pipeline { stages } => stages.max(1) as usize,
        }
    }

    /// Short label for reports (`replicated`, `tp2`, `pp4`, …).
    pub fn label(&self) -> String {
        match *self {
            PartitionStrategy::Replicated => "replicated".to_string(),
            PartitionStrategy::Tensor { ways } => format!("tp{}", ways.max(1)),
            PartitionStrategy::Pipeline { stages } => format!("pp{}", stages.max(1)),
        }
    }
}

/// How the board fabric wires instances together — the shape of the links
/// a gang's collectives run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A unidirectional ring: each member drives one link, every gang's
    /// traffic crosses the same shared segments. The cheap board layout —
    /// and the one the original collective model priced implicitly.
    Ring,
    /// A fully connected (all-to-all) fabric: each member pair owns a
    /// dedicated link, so a tensor all-reduce spreads its payload across
    /// `degree − 1` links in parallel and concurrent gangs never contend.
    AllToAll,
}

impl Topology {
    /// Short name for reports (`ring`, `all-to-all`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Ring => "ring",
            Topology::AllToAll => "all-to-all",
        }
    }
}

/// The link between gang members (board-level die-to-die interconnect).
///
/// The paper's instances scale DSC count within one chip; a multi-instance
/// gang crosses a board-level link, slower than DRAM bandwidth but cheap in
/// energy relative to DRAM refills — the trade sharding monetizes. The
/// [`Topology`] decides how many links a collective can drive at once and
/// whether concurrent gangs contend for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Link bandwidth per direction (GB/s).
    pub link_gbps: f64,
    /// Per-collective launch latency (µs).
    pub latency_us: f64,
    /// Transfer energy (pJ/bit) — below DRAM's ~15–20 pJ/bit.
    pub pj_per_bit: f64,
    /// How the board fabric wires the members together.
    pub topology: Topology,
}

impl Default for Interconnect {
    fn default() -> Self {
        Self::ring()
    }
}

impl Interconnect {
    /// The default board fabric: a ring at 64 GB/s per link.
    pub fn ring() -> Self {
        Self {
            link_gbps: 64.0,
            latency_us: 2.0,
            pj_per_bit: 4.0,
            topology: Topology::Ring,
        }
    }

    /// The same link parameters over a fully connected fabric.
    pub fn all_to_all() -> Self {
        Self {
            topology: Topology::AllToAll,
            ..Self::ring()
        }
    }

    /// Bandwidth-sharing divisor when `concurrent_gangs` gangs drive
    /// collectives over this fabric at once: ring segments are shared by
    /// every gang's traffic, an all-to-all fabric gives each member pair a
    /// dedicated link and never contends across gangs.
    pub fn contention_factor(&self, concurrent_gangs: usize) -> f64 {
        match self.topology {
            Topology::Ring => concurrent_gangs.max(1) as f64,
            Topology::AllToAll => 1.0,
        }
    }
}

/// One iteration's collectives at one batch size, evaluated once so a unit
/// folds them into its step cost and books its link totals from the same
/// figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Collective {
    /// Per-member interconnect bytes.
    pub bytes: u64,
    /// Uncontended wall-clock (ms): payload over the fabric plus per-launch
    /// latency.
    pub ms: f64,
    /// Transfer energy (mJ).
    pub energy_mj: f64,
}

/// One model's cut across a gang: per-shard execution specs, the exact
/// byte partition of the weight working set, and the collective term.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    strategy: PartitionStrategy,
    interconnect: Interconnect,
    specs: Vec<ShardSpec>,
    shard_bytes: Vec<u64>,
    total_bytes: u64,
    /// Per-member interconnect bytes of one iteration at batch 1 (scales
    /// linearly with batch rows).
    collective_bytes_b1: u64,
    /// Collective launches per iteration (all-reduces or hand-offs).
    collective_ops: u64,
}

impl PartitionPlan {
    /// Plans `model` under `strategy` over `interconnect`, with weights at
    /// `bytes_per_operand`.
    pub fn new(
        model: &ModelConfig,
        strategy: PartitionStrategy,
        interconnect: Interconnect,
        bytes_per_operand: f64,
    ) -> Self {
        let n = strategy.degree();
        let params = &model.paper;
        let specs: Vec<ShardSpec> = (0..n as u32)
            .map(|i| match strategy {
                PartitionStrategy::Replicated => ShardSpec::full(params),
                PartitionStrategy::Tensor { ways } => ShardSpec::tensor(params, ways, i),
                PartitionStrategy::Pipeline { stages } => ShardSpec::pipeline(params, stages, i),
            })
            .collect();
        let total_bytes = model_weight_bytes(model, bytes_per_operand);
        let shard_bytes: Vec<u64> = match strategy {
            // Column/row splits slice every weight matrix proportionally;
            // the cumulative integer split partitions the byte total
            // exactly (a replica's one shard is the whole total).
            PartitionStrategy::Replicated | PartitionStrategy::Tensor { .. } => (0..n as u64)
                .map(|r| total_bytes * (r + 1) / n as u64 - total_bytes * r / n as u64)
                .collect(),
            // Stages own disjoint op subsets of the full plan, so summing
            // their dense per-op weight bytes partitions the total exactly.
            PartitionStrategy::Pipeline { .. } => specs
                .iter()
                .map(|spec| spec_weight_bytes(model, spec, bytes_per_operand))
                .collect(),
        };

        // Activation rows one transformer block emits per sample (UNet
        // topologies run their blocks downsampled).
        let m = match model.network {
            exion_model::config::NetworkType::TransformerOnly => params.tokens as u64,
            _ => (params.tokens as u64 / 2).max(1),
        };
        let act_bytes =
            |rows: u64| (rows as f64 * params.d_model as f64 * bytes_per_operand) as u64;
        let (collective_bytes_b1, collective_ops) = match strategy {
            PartitionStrategy::Replicated => (0, 0),
            PartitionStrategy::Tensor { ways } => {
                let w = ways.max(1) as u64;
                // Two all-reduces per transformer block (post-attention,
                // post-FFN) and one per ResBlock pass; a ring moves
                // 2·(w−1)/w of the payload per member.
                let resblocks = if model.network == exion_model::config::NetworkType::UNetRes {
                    crate::workload::RESBLOCKS_PER_ITERATION as u64
                } else {
                    0
                };
                let launches = 2 * params.blocks as u64 + resblocks;
                let payload = params.blocks as u64 * 2 * act_bytes(m)
                    + resblocks * act_bytes(params.tokens as u64);
                let per_member = (payload as f64 * 2.0 * (w - 1) as f64 / w as f64) as u64;
                (per_member, launches)
            }
            PartitionStrategy::Pipeline { stages } => {
                let s = stages.max(1) as u64;
                // One activation hand-off per stage boundary.
                ((s - 1) * act_bytes(m), s - 1)
            }
        };

        Self {
            strategy,
            interconnect,
            specs,
            shard_bytes,
            total_bytes,
            collective_bytes_b1,
            collective_ops,
        }
    }

    /// The strategy this plan realizes.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The interconnect this plan prices its collectives over.
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// The same cut pricing its collectives over `interconnect`: the shard
    /// specs and byte partition do not depend on the fabric, so re-linking
    /// equals re-cutting over it.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Gang size (shards in the plan).
    pub fn num_shards(&self) -> usize {
        self.specs.len()
    }

    /// The iteration slice shard `shard` executes.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn spec(&self, shard: usize) -> &ShardSpec {
        &self.specs[shard]
    }

    /// The weight working-set bytes shard `shard` is responsible for — its
    /// GSC residency footprint. Shards partition
    /// [`Self::total_weight_bytes`] exactly (property-tested in
    /// `tests/serving.rs`).
    pub fn shard_weight_bytes(&self, shard: usize) -> u64 {
        self.shard_bytes[shard]
    }

    /// The whole model's weight working-set bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The largest member footprint in the plan — the GSC-capacity
    /// currency of placement feasibility checks (an uneven pipeline cut is
    /// only as resident as its heaviest stage).
    pub fn max_shard_bytes(&self) -> u64 {
        self.shard_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The steady-state resident fraction the most loaded member can hold
    /// in a GSC of `gsc_bytes` — what a placement planner projects each
    /// gang member's warm fraction to be once traffic settles.
    pub fn min_member_residency(&self, gsc_bytes: f64) -> f64 {
        crate::residency::partial_residency(gsc_bytes, self.max_shard_bytes() as f64)
    }

    /// Per-member interconnect bytes of one iteration at `batch` rows.
    pub fn collective_bytes(&self, batch: u64) -> u64 {
        self.collective_bytes_b1 * batch.max(1)
    }

    /// Links each member can drive concurrently for this plan's
    /// collectives: a tensor all-reduce over a fully connected fabric
    /// spreads its payload across the `ways − 1` peer links, everything
    /// else (ring steps, pipeline hand-offs — both neighbor-to-neighbor)
    /// moves over one link at a time.
    fn parallel_links(&self) -> f64 {
        match (self.strategy, self.interconnect.topology) {
            (PartitionStrategy::Tensor { ways }, Topology::AllToAll) => {
                ways.saturating_sub(1).max(1) as f64
            }
            _ => 1.0,
        }
    }

    /// Wall-clock cost (ms) of one iteration's collectives at `batch` rows:
    /// payload over the fabric (spread across however many links the
    /// topology lets one member drive) plus per-launch latency.
    pub fn collective_ms(&self, batch: u64) -> f64 {
        self.collective_ms_contended(batch, 1)
    }

    /// Like [`Self::collective_ms`], but with `concurrent_gangs` gangs
    /// sharing the board fabric: ring segments divide their bandwidth
    /// across every gang's traffic ([`Interconnect::contention_factor`]),
    /// a fully connected fabric does not contend. The placement planner
    /// prices candidate multi-gang placements with this term.
    pub fn collective_ms_contended(&self, batch: u64, concurrent_gangs: usize) -> f64 {
        self.wire_ms(self.collective_bytes(batch), concurrent_gangs)
    }

    /// Wall-clock (ms) of moving `bytes` per member through this plan's
    /// collective launches with `concurrent_gangs` gangs on the fabric.
    fn wire_ms(&self, bytes: u64, concurrent_gangs: usize) -> f64 {
        let effective_gbps = self.interconnect.link_gbps * self.parallel_links()
            / self.interconnect.contention_factor(concurrent_gangs);
        bytes as f64 / (effective_gbps.max(1e-9) * 1e6)
            + self.collective_ops as f64 * self.interconnect.latency_us * 1e-3
    }

    /// One iteration's uncontended collectives at `batch` rows: wire bytes,
    /// [`Self::collective_ms`] and transfer energy, from one byte count.
    pub fn collective(&self, batch: u64) -> Collective {
        let bytes = self.collective_bytes(batch);
        Collective {
            bytes,
            ms: self.wire_ms(bytes, 1),
            energy_mj: bytes as f64 * 8.0 * self.interconnect.pj_per_bit * 1e-9,
        }
    }

    /// Folds per-shard iteration costs into the gang-level cost: tensor
    /// ranks run concurrently (latency is the slowest shard), pipeline
    /// stages run a batch sequentially (latency is the stage sum); both add
    /// the step's `collective` ([`Self::collective`] at the batch the
    /// shards ran). Energy and dense-equivalent ops sum.
    ///
    /// # Panics
    ///
    /// Panics when `shard_costs.len()` differs from the gang size.
    pub fn combine(&self, shard_costs: &[IterationCost], collective: Collective) -> IterationCost {
        assert_eq!(
            shard_costs.len(),
            self.num_shards(),
            "one cost per gang member"
        );
        let compute_ms = match self.strategy {
            PartitionStrategy::Replicated | PartitionStrategy::Tensor { .. } => {
                shard_costs.iter().map(|c| c.latency_ms).fold(0.0, f64::max)
            }
            PartitionStrategy::Pipeline { .. } => shard_costs.iter().map(|c| c.latency_ms).sum(),
        };
        IterationCost {
            latency_ms: compute_ms + collective.ms,
            energy_mj: shard_costs.iter().map(|c| c.energy_mj).sum::<f64>() + collective.energy_mj,
            dense_ops: shard_costs.iter().map(|c| c.dense_ops).sum(),
        }
    }
}

/// Simulates the slice `spec` of a single denoising iteration of `model` at
/// `batch` rows: one tensor-parallel rank or pipeline stage of a gang, or
/// the whole model under [`ShardSpec::full`] (which is how
/// [`crate::perf::simulate_iteration`] prices a replica).
///
/// `step` selects the FFN-Reuse phase (dense boundary or sparse reuse) via
/// the model's iteration metadata. `resident_frac` is the fraction of *this
/// slice's* weight working set already GSC-resident on the instance
/// executing it, clamped to `[0, 1]`. The returned cost is pure compute —
/// a gang's collective term is added by [`PartitionPlan::combine`], which
/// also resolves tensor-vs-pipeline latency composition. A zero batch, a
/// step past the schedule and an invalid profile
/// ([`SparsityProfile::validate`]) are rejected as a [`SimError`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_iteration_shard(
    hw: &HwConfig,
    model: &ModelConfig,
    spec: &ShardSpec,
    profile: &SparsityProfile,
    ablation: SimAblation,
    batch: u64,
    step: usize,
    resident_frac: f64,
) -> Result<IterationCost, SimError> {
    if batch == 0 {
        return Err(SimError::ZeroBatch);
    }
    if step >= model.iterations {
        return Err(SimError::StepOutOfRange {
            step,
            iterations: model.iterations,
        });
    }
    profile.validate()?;
    let dense_profile = SparsityProfile::dense();
    let active_profile = if ablation == SimAblation::Base {
        &dense_profile
    } else {
        profile
    };
    let iter_plan = build_iteration_shard(
        &model.paper,
        model.network,
        model.geglu,
        flags_for_step(model, ablation, step),
        active_profile,
        batch,
        spec,
    );
    let mut sim = crate::dsc::DscSimulator::new(hw);
    sim.preload_weight_fraction(resident_frac.clamp(0.0, 1.0));
    sim.execute_iteration(&iter_plan);
    let detail = sim.finish();
    Ok(IterationCost {
        latency_ms: detail.seconds * 1e3,
        energy_mj: detail.total_energy_mj(),
        dense_ops: 2.0 * iter_plan.dense_equivalent_macs as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::{ModelConfig, ModelKind};

    const BPO: f64 = 1.5;

    fn plan_for(kind: ModelKind, strategy: PartitionStrategy) -> (ModelConfig, PartitionPlan) {
        let model = ModelConfig::for_kind(kind);
        let plan = PartitionPlan::new(&model, strategy, Interconnect::default(), BPO);
        (model, plan)
    }

    #[test]
    fn shard_bytes_partition_the_total_exactly() {
        for kind in [ModelKind::VideoCrafter2, ModelKind::Dit, ModelKind::Mld] {
            for strategy in [
                PartitionStrategy::Replicated,
                PartitionStrategy::Tensor { ways: 2 },
                PartitionStrategy::Tensor { ways: 3 },
                PartitionStrategy::Pipeline { stages: 2 },
                PartitionStrategy::Pipeline { stages: 4 },
            ] {
                let (model, plan) = plan_for(kind, strategy);
                let sum: u64 = (0..plan.num_shards())
                    .map(|s| plan.shard_weight_bytes(s))
                    .sum();
                assert_eq!(
                    sum,
                    model_weight_bytes(&model, BPO),
                    "{} {}",
                    kind.name(),
                    strategy.label()
                );
                assert_eq!(plan.num_shards(), strategy.degree());
            }
        }
    }

    #[test]
    fn full_shard_spec_reproduces_the_whole_plan() {
        use crate::workload::{build_iteration, IterationKindFlags};
        let model = ModelConfig::for_kind(ModelKind::StableDiffusion);
        let flags = IterationKindFlags {
            ffn_sparse: true,
            ffn_dense_with_cau: false,
            ep: true,
        };
        let profile = SparsityProfile::analytic(0.9, 0.5, 16);
        let whole = build_iteration(&model.paper, model.network, model.geglu, flags, &profile, 4);
        let via_shard = build_iteration_shard(
            &model.paper,
            model.network,
            model.geglu,
            flags,
            &profile,
            4,
            &ShardSpec::full(&model.paper),
        );
        assert_eq!(whole, via_shard);
    }

    #[test]
    fn tensor_shards_split_compute_and_pay_a_collective() {
        let (model, plan) = plan_for(ModelKind::Dit, PartitionStrategy::Tensor { ways: 2 });
        let hw = HwConfig::exion24();
        let profile = SparsityProfile::dense();
        let whole =
            crate::perf::simulate_iteration(&hw, &model, &profile, SimAblation::Base, 1, 0, 1.0)
                .unwrap();
        let shards: Vec<IterationCost> = (0..2)
            .map(|s| {
                simulate_iteration_shard(
                    &hw,
                    &model,
                    plan.spec(s),
                    &profile,
                    SimAblation::Base,
                    1,
                    0,
                    1.0,
                )
                .unwrap()
            })
            .collect();
        // Each rank runs roughly half the compute.
        for c in &shards {
            assert!(c.latency_ms < 0.75 * whole.latency_ms, "{c:?} vs {whole:?}");
            assert!(c.dense_ops < 0.6 * whole.dense_ops);
        }
        let gang = plan.combine(&shards, plan.collective(1));
        // The gang beats one instance but pays the all-reduce over the max.
        assert!(gang.latency_ms < whole.latency_ms);
        assert!(gang.latency_ms > shards[0].latency_ms.max(shards[1].latency_ms));
        assert!(plan.collective_bytes(1) > 0);
        // Dense-equivalent work is conserved across the split.
        let shard_ops: f64 = shards.iter().map(|c| c.dense_ops).sum();
        let rel = (shard_ops - whole.dense_ops).abs() / whole.dense_ops;
        assert!(
            rel < 0.01,
            "split ops {shard_ops} vs whole {}",
            whole.dense_ops
        );
    }

    #[test]
    fn pipeline_stages_sum_and_hand_off() {
        let (model, plan) = plan_for(
            ModelKind::VideoCrafter2,
            PartitionStrategy::Pipeline { stages: 2 },
        );
        let hw = HwConfig::exion24();
        let profile = SparsityProfile::dense();
        let shards: Vec<IterationCost> = (0..2)
            .map(|s| {
                simulate_iteration_shard(
                    &hw,
                    &model,
                    plan.spec(s),
                    &profile,
                    SimAblation::Base,
                    1,
                    0,
                    0.0,
                )
                .unwrap()
            })
            .collect();
        let gang = plan.combine(&shards, plan.collective(1));
        let sum: f64 = shards.iter().map(|c| c.latency_ms).sum();
        assert!(gang.latency_ms > sum, "stage hand-off must cost time");
        assert!((gang.latency_ms - sum - plan.collective_ms(1)).abs() < 1e-9);
    }

    #[test]
    fn collectives_scale_with_batch_and_ways() {
        let (_, tp2) = plan_for(ModelKind::Dit, PartitionStrategy::Tensor { ways: 2 });
        let (_, tp4) = plan_for(ModelKind::Dit, PartitionStrategy::Tensor { ways: 4 });
        assert_eq!(tp2.collective_bytes(4), 4 * tp2.collective_bytes(1));
        // Ring all-reduce per-member traffic grows with ways: 2(w−1)/w.
        assert!(tp4.collective_bytes(1) > tp2.collective_bytes(1));
        let (_, rep) = plan_for(ModelKind::Dit, PartitionStrategy::Replicated);
        assert_eq!(rep.collective_bytes(8), 0);
        assert_eq!(rep.collective_ms(8), 0.0);
        // A replica books its one shard through `combine`: the fold must
        // hand that shard's cost back bit for bit.
        let bits = |c: IterationCost| [c.latency_ms, c.energy_mj, c.dense_ops].map(f64::to_bits);
        for batch in [1, 8] {
            let collective = rep.collective(batch);
            assert_eq!(collective.energy_mj.to_bits(), 0.0f64.to_bits());
            for c in [
                IterationCost {
                    latency_ms: 0.1 + 0.2,
                    energy_mj: 1.0 / 3.0,
                    dense_ops: 7.5e9,
                },
                IterationCost {
                    latency_ms: 38.273_397_100_840_79,
                    energy_mj: 217.357_837_211_334_34,
                    dense_ops: 1.25,
                },
            ] {
                assert_eq!(
                    bits(rep.combine(&[c], collective)),
                    bits(c),
                    "batch {batch}"
                );
            }
        }
    }

    #[test]
    fn all_to_all_strictly_beats_ring_at_world_size_4() {
        let model = ModelConfig::for_kind(ModelKind::Dit);
        let strategy = PartitionStrategy::Tensor { ways: 4 };
        let ring = PartitionPlan::new(&model, strategy, Interconnect::ring(), BPO);
        let full = PartitionPlan::new(&model, strategy, Interconnect::all_to_all(), BPO);
        // Same wire bytes, but the all-reduce payload spreads across the
        // three dedicated peer links.
        assert_eq!(ring.collective_bytes(4), full.collective_bytes(4));
        assert!(
            full.collective_ms(4) < ring.collective_ms(4),
            "all-to-all {} vs ring {}",
            full.collective_ms(4),
            ring.collective_ms(4)
        );
        // At world size 2 there is only one peer either way.
        let s2 = PartitionStrategy::Tensor { ways: 2 };
        let ring2 = PartitionPlan::new(&model, s2, Interconnect::ring(), BPO);
        let full2 = PartitionPlan::new(&model, s2, Interconnect::all_to_all(), BPO);
        assert_eq!(ring2.collective_ms(1), full2.collective_ms(1));
    }

    #[test]
    fn ring_contention_divides_bandwidth_all_to_all_does_not() {
        let model = ModelConfig::for_kind(ModelKind::VideoCrafter2);
        let strategy = PartitionStrategy::Tensor { ways: 2 };
        let ring = PartitionPlan::new(&model, strategy, Interconnect::ring(), BPO);
        let solo = ring.collective_ms_contended(1, 1);
        let shared = ring.collective_ms_contended(1, 3);
        assert_eq!(solo, ring.collective_ms(1));
        // Three gangs on the ring: the bandwidth term triples, the launch
        // latency term does not.
        let launch = ring.collective_ops as f64 * ring.interconnect.latency_us * 1e-3;
        assert!((shared - launch - 3.0 * (solo - launch)).abs() < 1e-12);
        let full = PartitionPlan::new(&model, strategy, Interconnect::all_to_all(), BPO);
        assert_eq!(
            full.collective_ms_contended(1, 3),
            full.collective_ms_contended(1, 1)
        );
        assert_eq!(Interconnect::ring().contention_factor(3), 3.0);
        assert_eq!(Interconnect::all_to_all().contention_factor(3), 1.0);
        assert_eq!(Topology::Ring.name(), "ring");
        assert_eq!(Topology::AllToAll.name(), "all-to-all");
    }

    #[test]
    fn capacity_helpers_bound_member_residency() {
        let (model, plan) = plan_for(
            ModelKind::VideoCrafter2,
            PartitionStrategy::Pipeline { stages: 3 },
        );
        let max = plan.max_shard_bytes();
        assert!(max >= plan.total_weight_bytes() / 3);
        assert!(max <= plan.total_weight_bytes());
        assert!((0..3).any(|s| plan.shard_weight_bytes(s) == max));
        // A GSC holding the heaviest shard outright gives full residency;
        // half of it gives half.
        assert_eq!(plan.min_member_residency(max as f64), 1.0);
        assert!((plan.min_member_residency(max as f64 / 2.0) - 0.5).abs() < 1e-12);
        let (_, rep) = plan_for(ModelKind::VideoCrafter2, PartitionStrategy::Replicated);
        assert_eq!(rep.max_shard_bytes(), model_weight_bytes(&model, BPO));
    }

    #[test]
    fn strategy_labels_and_degrees() {
        assert_eq!(PartitionStrategy::Replicated.degree(), 1);
        assert_eq!(PartitionStrategy::Tensor { ways: 2 }.label(), "tp2");
        assert_eq!(PartitionStrategy::Pipeline { stages: 3 }.label(), "pp3");
        assert_eq!(PartitionStrategy::Pipeline { stages: 3 }.degree(), 3);
    }
}
