//! The per-instance continuous batcher, residency-aware and preemptible.
//!
//! DDIM denoising is an iterative loop, so a running batch reaches a
//! scheduling point at every iteration boundary: finished requests leave,
//! queued requests are admitted into the freed slots without waiting for
//! the whole batch to drain (continuous batching at iteration granularity),
//! and — under a preemptive policy — running requests can be *parked*: their
//! denoising latent is stashed in the GSC (or spilled to DRAM at a priced
//! penalty) and they re-enter the queue with their step count intact.
//!
//! Scheduling *decisions* are delegated to a pluggable
//! [`SchedulerPolicy`]: the batcher files each queued request under the
//! policy's ordering key, and asks it, against a read-only
//! [`SchedSnapshot`] of its state, for batch-join gating and the key
//! bounds below which a queued request preempts or swaps. The batcher
//! itself owns the *mechanism* — the request-id tie-break, residency
//! pricing, migration penalties, the deadline-feasibility thrash guard,
//! and latent parking.
//!
//! An instance executes one model at a time; how much of that model's
//! weight working set is GSC-resident is tracked byte-accurately by a
//! [`GscCache`], and each iteration is priced by the resident *fraction*
//! rather than a warm/cold flag. Multi-tenant traffic therefore pays real
//! partial refills instead of fictitious full cold switches.

use std::sync::Arc;

use exion_model::config::{IterationPhase, ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::partition::{Interconnect, PartitionPlan, PartitionStrategy};
use exion_sim::perf::IterationCost;
use exion_sim::residency::{latent_state_bytes, EvictionPolicy, GscCache, GscObject};

use crate::cost::CostModel;
use crate::hash::FxHashMap;
use crate::metrics::InstanceStats;
use crate::policy::{SchedSnapshot, SchedulerPolicy};
use crate::queue::{key_from_bits, ReadyQueue};
use crate::request::{Completion, Request};

/// Precomputed per-model scheduling constants.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// The model configuration requests of this kind execute.
    pub config: ModelConfig,
    /// FFN-Reuse scheduling period under the active ablation.
    pub period: usize,
    /// Parked denoising-latent state per request (bytes).
    pub latent_bytes: u64,
    /// Mean warm per-iteration latency at batch 1 (ms), the minimum over
    /// [`Self::plans`]: the fastest rate any unit could possibly serve one
    /// request at — the feasibility currency of the preemption thrash
    /// guard (optimistic by design, so the guard only blocks requests that
    /// cannot make their deadline even with dedicated service).
    pub warm_step_ms: f64,
    /// Mean warm per-iteration latency at the deployment's full batch
    /// size (ms): the steady-state service currency admission control
    /// projects completion times with (SLOs scale the same full-batch
    /// generation time, so the two stay consistent).
    pub batched_step_ms: f64,
    /// The model's cut for each unit type the context serves, read from
    /// the cost model's plan memo ([`CostModel::plan`]): the
    /// [`PartitionStrategy::Replicated`] plan (a replica is its one-member
    /// unit) first and always, then the gang plan when the placement
    /// deploys gangs. Each member's GSC footprint and step price come from
    /// its unit's plan ([`Self::plan`]).
    pub plans: Vec<PartitionPlan>,
}

impl ModelInfo {
    /// The plan units of `strategy` run this model under.
    ///
    /// # Panics
    ///
    /// Panics if the context carries no `strategy` plan: gang plans exist
    /// only when the context was built with them.
    pub fn plan(&self, strategy: PartitionStrategy) -> &PartitionPlan {
        self.plans
            .iter()
            .find(|p| p.strategy() == strategy)
            .unwrap_or_else(|| panic!("no {} plan in the scheduling context", strategy.label()))
    }
}

/// Everything an [`Instance`] needs to make scheduling decisions: the
/// policy, the batch bound, and the per-model constant tables.
#[derive(Debug, Clone)]
pub struct SchedContext {
    /// Admission/preemption policy.
    pub policy: Arc<dyn SchedulerPolicy>,
    /// Maximum batch rows per instance.
    pub max_batch: usize,
    /// Wall-clock per byte over the DRAM interface (latent spill/reload
    /// pricing; from [`CostModel::dram_ms_per_byte`]).
    dram_ms_per_byte: f64,
    /// Transfer energy per byte over the DRAM interface (mJ).
    dram_mj_per_byte: f64,
    /// Wall-clock per byte over the gang interconnect (intra-unit latent
    /// shipping for sharded latent parking).
    link_ms_per_byte: f64,
    /// Per-transfer launch latency of the gang interconnect (ms) — the
    /// same fixed term every collective pays in
    /// [`exion_sim::partition::PartitionPlan::collective_ms`].
    link_latency_ms: f64,
    /// Transfer energy per byte over the gang interconnect (mJ).
    link_mj_per_byte: f64,
    models: FxHashMap<ModelKind, ModelInfo>,
}

impl SchedContext {
    /// Builds the context for `kinds`, pricing refills against `cost`'s
    /// hardware and intra-gang transfers against `interconnect`.
    /// `config_of` supplies each kind's model configuration (shrunk
    /// configs in tests, the real zoo in production runs). Each kind
    /// carries the `Replicated` plan and, when the placement deploys gangs
    /// of strategy `gang`, that plan over `interconnect`; both come from
    /// `cost`'s plan memo ([`CostModel::plan`]), so a rebuild cuts nothing.
    pub fn build(
        policy: Arc<dyn SchedulerPolicy>,
        max_batch: usize,
        kinds: &[ModelKind],
        cost: &mut CostModel,
        interconnect: Interconnect,
        config_of: impl Fn(ModelKind) -> ModelConfig,
        gang: Option<PartitionStrategy>,
    ) -> Self {
        let operand_bytes = cost.hw().operand_bytes();
        let models = kinds
            .iter()
            .map(|&k| {
                let config = config_of(k);
                let plans: Vec<PartitionPlan> = std::iter::once(PartitionStrategy::Replicated)
                    .chain(gang)
                    .map(|strategy| cost.plan(&config, strategy, interconnect))
                    .collect();
                let iters = config.iterations.max(1) as f64;
                // The fastest rate any unit in this placement could serve
                // one request at: a TP gang's combined step undercuts the
                // replica step, so a mixed cluster takes the minimum.
                let warm_step_ms = plans
                    .iter()
                    .map(|p| cost.generation_cost(&config, p, 1, 1.0).latency_ms / iters)
                    .fold(f64::INFINITY, f64::min);
                let batched_step_ms =
                    cost.generation_latency_ms(&config, max_batch.max(1) as u64) / iters;
                (
                    k,
                    ModelInfo {
                        config,
                        period: cost.period(&config),
                        latent_bytes: latent_state_bytes(&config, operand_bytes),
                        warm_step_ms,
                        batched_step_ms,
                        plans,
                    },
                )
            })
            .collect();
        Self {
            policy,
            max_batch,
            dram_ms_per_byte: cost.dram_ms_per_byte(),
            dram_mj_per_byte: cost.dram_mj_per_byte(),
            link_ms_per_byte: 1.0 / (interconnect.link_gbps.max(1e-9) * 1e6),
            link_latency_ms: interconnect.latency_us * 1e-3,
            link_mj_per_byte: 8.0 * interconnect.pj_per_bit * 1e-9,
            models,
        }
    }

    /// The constants of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not in the `kinds` the context was built for —
    /// the cluster builds the context from the trace's model mix, so every
    /// kind a request can carry is present by construction.
    pub fn info(&self, kind: ModelKind) -> &ModelInfo {
        self.models
            .get(&kind)
            .expect("scheduling context covers every traced model kind")
    }

    /// Wall-clock cost (ms) of moving `bytes` across the DRAM interface.
    pub(crate) fn transfer_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * self.dram_ms_per_byte
    }

    /// The admission-key penalty a foreign unit pays: a request whose
    /// latent still sits on a member of another unit costs a DRAM
    /// migration read everywhere outside that unit, so foreign schedulers
    /// defer it by exactly that reload time (resume affinity). The parking
    /// unit — identified by its member-id range `unit_first..unit_first +
    /// unit_len` — sees the unshifted key and wins ties.
    pub(crate) fn migration_penalty_ms(
        &self,
        r: &Request,
        unit_first: usize,
        unit_len: usize,
    ) -> f64 {
        match r.parked_on {
            Some(home)
                if r.steps_done > 0 && !(unit_first..unit_first + unit_len).contains(&home) =>
            {
                self.transfer_ms(self.info(r.model).latent_bytes)
            }
            _ => 0.0,
        }
    }

    /// Whether `r` can still meet its deadline if it starts now and runs
    /// uninterrupted at the warm per-step rate — the preemption thrash
    /// guard: parking a running batch for a request that will blow its
    /// deadline anyway only churns the GSC.
    pub(crate) fn deadline_feasible(&self, r: &Request, now_ms: f64) -> bool {
        now_ms + r.steps_left() as f64 * self.info(r.model).warm_step_ms <= r.deadline_ms()
    }
}

/// What one admission pass did: requests admitted into the batch and
/// requests parked (preempted) back into the queue, each stamped with the
/// boundary time. The cluster uses both for queue-depth accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmitOutcome {
    /// `(request id, boundary ms)` per admitted request.
    pub admitted: Vec<(u64, f64)>,
    /// `(request id, boundary ms)` per parked request.
    pub parked: Vec<(u64, f64)>,
    /// `(request id, boundary ms)` per admitted request that resumed from
    /// a previous park (a subset of `admitted`) — telemetry distinguishes
    /// fresh batch-joins from resumes.
    pub resumed: Vec<(u64, f64)>,
}

impl AdmitOutcome {
    /// Empties the outcome for reuse — the cluster loop keeps one
    /// `AdmitOutcome` alive across boundaries so the zero-allocation
    /// admission path never churns these vectors.
    pub fn clear(&mut self) {
        self.admitted.clear();
        self.parked.clear();
        self.resumed.clear();
    }

    /// Net change this boundary made to the unit's in-flight row count:
    /// admissions joined the running batch, parks left it. The cluster
    /// loop folds these deltas into its fleet-wide in-flight gauge so a
    /// metrics snapshot never re-scans every unit.
    pub fn inflight_delta(&self) -> i64 {
        self.admitted.len() as i64 - self.parked.len() as i64
    }
}

/// Folds `model`'s candidate `key` into the running argmin under the strict
/// `(key, request id)` order, so the winner never depends on the order
/// buckets or models are visited in.
fn fold_min(best: &mut Option<((f64, u64), ModelKind)>, key: (f64, u64), model: ModelKind) {
    if best.is_none_or(|(k, _)| key < k) {
        *best = Some((key, model));
    }
}

/// One accelerator instance's scheduler state: one member of a
/// scheduling unit, holding shard `shard` of the unit's
/// [`PartitionStrategy`] plan of every model it serves. A replica holds
/// shard 0 of the [`PartitionStrategy::Replicated`] plan — the whole
/// model — so every member keys, sizes and prices its weights the same
/// way.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance index within the cluster.
    pub id: usize,
    /// Local clock (ms). `f64::INFINITY` marks a drained instance.
    pub now_ms: f64,
    /// The model whose batch is currently running (sticky after drain).
    pub active_model: Option<ModelKind>,
    /// The running batch.
    pub running: Vec<Request>,
    /// First member id of the scheduling unit this instance belongs to
    /// (itself for replicas).
    unit_first: usize,
    /// Member count of the unit (1 for replicas).
    unit_len: usize,
    /// How the unit cuts its models: selects the plan in
    /// [`ModelInfo::plans`] this member's footprint and price come from.
    strategy: PartitionStrategy,
    /// The plan shard this instance holds (0 on a replica); keys its
    /// weight residency as a [`GscObject::WeightShard`].
    shard: u8,
    /// Byte-accounted GSC residency of weight shards and parked latents.
    gsc: GscCache,
    busy_ms: f64,
    energy_mj: f64,
    iterations: u64,
    sparse_iterations: u64,
    batch_rows: u64,
    preemptions: u64,
    latent_spills: u64,
    weight_refill_iterations: u64,
    weight_hit_bytes: u64,
    weight_refill_bytes: u64,
    /// Latents eviction pushed out since the last drain: the cluster clears
    /// those requests' `parked_on` affinity hints (their latent now lives
    /// in DRAM, so no instance is preferable anymore).
    evicted_latents: Vec<u64>,
}

impl Instance {
    /// A fresh idle replica — shard 0 of the `Replicated` plan — backed by
    /// `hw`'s GSC under `eviction`.
    pub fn new(id: usize, hw: &HwConfig, eviction: EvictionPolicy) -> Self {
        Self {
            id,
            now_ms: 0.0,
            active_model: None,
            running: Vec::new(),
            unit_first: id,
            unit_len: 1,
            strategy: PartitionStrategy::Replicated,
            shard: 0,
            gsc: GscCache::new(hw.gsc_bytes() as u64, eviction),
            busy_ms: 0.0,
            energy_mj: 0.0,
            iterations: 0,
            sparse_iterations: 0,
            batch_rows: 0,
            preemptions: 0,
            latent_spills: 0,
            weight_refill_iterations: 0,
            weight_hit_bytes: 0,
            weight_refill_bytes: 0,
            evicted_latents: Vec::new(),
        }
    }

    /// A fresh unit-member instance holding shard `shard` of its unit's
    /// `strategy` plan of every model it serves.
    pub fn new_shard(
        id: usize,
        hw: &HwConfig,
        eviction: EvictionPolicy,
        strategy: PartitionStrategy,
        shard: u8,
    ) -> Self {
        Self {
            strategy,
            shard,
            ..Self::new(id, hw, eviction)
        }
    }

    /// Declares this instance a member of the unit spanning instance ids
    /// `first..first + len` (the gang constructor calls this; replicas
    /// default to the singleton unit of their own id).
    pub(crate) fn set_unit(&mut self, first: usize, len: usize) {
        self.unit_first = first;
        self.unit_len = len.max(1);
    }

    /// Whether the instance has no running batch.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// The read-only view of this instance's state a [`SchedulerPolicy`]
    /// decides against.
    pub fn snapshot<'a>(&'a self, ctx: &SchedContext) -> SchedSnapshot<'a> {
        SchedSnapshot {
            instance: self.id,
            now_ms: self.now_ms,
            active_model: self.active_model,
            running: &self.running,
            max_batch: ctx.max_batch,
            steps_into_period: self
                .active_model
                .map(|m| self.steps_into_period(ctx.info(m).period))
                .unwrap_or(0),
        }
    }

    /// The GSC key of the weights this instance holds for `kind`: its
    /// shard of the unit's plan (shard 0, the whole model, on a replica).
    pub fn weight_obj(&self, kind: ModelKind) -> GscObject {
        GscObject::WeightShard {
            model: kind,
            shard: self.shard,
        }
    }

    /// The weight working-set bytes this instance is responsible for: its
    /// shard's footprint in the unit's plan.
    fn weight_footprint(&self, info: &ModelInfo) -> u64 {
        info.plan(self.strategy)
            .shard_weight_bytes(self.shard as usize)
    }

    /// Resident fraction of this member's share of `kind`'s weight working
    /// set in this instance's GSC.
    pub fn weight_residency(&self, kind: ModelKind) -> f64 {
        self.gsc.resident_fraction(self.weight_obj(kind))
    }

    /// Moves `bytes` of latent state across the DRAM interface (one way):
    /// the transfer occupies the instance, so it counts toward the busy
    /// time and energy the report compares across policies — not just the
    /// clock.
    fn latent_transfer(&mut self, bytes: u64, ctx: &SchedContext) {
        let ms = bytes as f64 * ctx.dram_ms_per_byte;
        self.now_ms += ms;
        self.busy_ms += ms;
        self.energy_mj += bytes as f64 * ctx.dram_mj_per_byte;
    }

    /// Moves `bytes` of latent state across the gang interconnect (one
    /// way): intra-unit latent shipping for sharded latent parking. Pays
    /// the per-transfer launch latency plus the bandwidth term, like every
    /// other transfer over this link.
    fn link_transfer(&mut self, bytes: u64, ctx: &SchedContext) {
        let ms = ctx.link_latency_ms + bytes as f64 * ctx.link_ms_per_byte;
        self.now_ms += ms;
        self.busy_ms += ms;
        self.energy_mj += bytes as f64 * ctx.link_mj_per_byte;
    }

    /// Steps the running members sit past their last dense boundary.
    /// Members admitted under [`crate::policy::SparsityAware`] stay
    /// mutually aligned, so the first member is representative; under
    /// other policies the value is only used for reporting.
    fn steps_into_period(&self, period: usize) -> usize {
        self.running
            .first()
            .map(|r| r.steps_done % period)
            .unwrap_or(0)
    }

    /// Makes `model` the active one, moving the weight pin.
    fn set_active(&mut self, model: ModelKind) {
        if let Some(old) = self.active_model {
            if old != model {
                self.gsc.set_pinned(self.weight_obj(old), false);
            }
        }
        self.active_model = Some(model);
    }

    /// Releases the weight pin of `kind` (gangs unpin follower shards on a
    /// model switch; the leader unpins itself through [`Self::set_active`]).
    pub(crate) fn unpin_weights(&mut self, kind: ModelKind) {
        self.gsc.set_pinned(self.weight_obj(kind), false);
    }

    /// Prices the eviction fallout of a GSC request: parked latents pushed
    /// out are dirty state and must be written back to DRAM now (and their
    /// requests' resume-affinity hints become stale); weight shards are
    /// clean and simply re-stream on their next use.
    fn price_evictions(&mut self, evicted: &[(GscObject, u64)], ctx: &SchedContext) {
        for &(obj, bytes) in evicted {
            if let GscObject::Latent(id) = obj {
                self.latent_transfer(bytes, ctx);
                self.latent_spills += 1;
                self.evicted_latents.push(id);
            }
        }
    }

    /// Drains the ids of latents evicted since the last call (the cluster
    /// uses them to clear stale `parked_on` hints in the shared queue).
    pub(crate) fn take_evicted_latents(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.evicted_latents)
    }

    /// Summed GSC-resident bytes (weights and parked latents) — migration
    /// accounting.
    pub(crate) fn gsc_occupancy_bytes(&self) -> u64 {
        self.gsc.occupancy_bytes()
    }

    /// GSC requests and evictions so far — the run profile's residency
    /// work counts.
    pub(crate) fn gsc_work(&self) -> (u64, u64) {
        (self.gsc.requests(), self.gsc.evictions())
    }

    /// Parks every running request straight to DRAM for a placement
    /// migration: each latent pays the write-back transfer on this
    /// instance's clock, the request re-enters `queue` with its step count
    /// intact (a migration is a preemption — the counter travels with the
    /// request), and the active weight pin is released so the teardown
    /// leaves nothing pinned. Returns `(id, drain ms)` stamps.
    pub(crate) fn drain_running(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
    ) -> Vec<(u64, f64)> {
        if let Some(model) = self.active_model {
            self.gsc.set_pinned(self.weight_obj(model), false);
        }
        let mut stamps = Vec::new();
        for mut r in std::mem::take(&mut self.running) {
            let info = ctx.info(r.model);
            self.latent_transfer(info.latent_bytes, ctx);
            self.latent_spills += 1;
            r.preemptions += 1;
            self.preemptions += 1;
            r.parked_on = None;
            r.ready_ms = self.now_ms;
            stamps.push((r.id, self.now_ms));
            queue.push(r, ctx);
        }
        stamps
    }

    /// Fault-path drain: this instance just died. Running requests whose
    /// latents were previously checkpointed to DRAM requeue with
    /// `steps_done` rolled back to the checkpoint — nothing is billed,
    /// the spill was already priced when the checkpoint was taken — and
    /// the rest are destroyed (returned for lost accounting). The active
    /// weight pin is released so teardown leaves nothing pinned.
    pub(crate) fn drain_running_lost(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        at_ms: f64,
    ) -> (Vec<(u64, f64)>, Vec<Request>) {
        if let Some(model) = self.active_model {
            self.gsc.set_pinned(self.weight_obj(model), false);
        }
        let mut requeued = Vec::new();
        let mut lost = Vec::new();
        for mut r in std::mem::take(&mut self.running) {
            match r.checkpointed_steps {
                Some(step) => {
                    r.steps_done = step;
                    r.preemptions += 1;
                    self.preemptions += 1;
                    r.parked_on = None;
                    r.ready_ms = at_ms;
                    requeued.push((r.id, at_ms));
                    queue.push(r, ctx);
                }
                None => lost.push(r),
            }
        }
        (requeued, lost)
    }

    /// Opt-in periodic latent checkpointing: every running request whose
    /// step count just crossed a multiple of `every_steps` spills its
    /// latent to DRAM — a priced one-way transfer on this instance's
    /// clock — and records the checkpointed step, bounding what a later
    /// crash can destroy. Returns `(spills, bytes)` for fault reporting.
    pub(crate) fn checkpoint_running(
        &mut self,
        ctx: &SchedContext,
        every_steps: usize,
    ) -> (usize, u64) {
        let every = every_steps.max(1);
        let mut spills = 0usize;
        let mut bytes = 0u64;
        for i in 0..self.running.len() {
            let r = self.running[i];
            if r.steps_done > 0
                && r.steps_done.is_multiple_of(every)
                && r.checkpointed_steps != Some(r.steps_done)
            {
                let latent_bytes = ctx.info(r.model).latent_bytes;
                self.latent_transfer(latent_bytes, ctx);
                self.latent_spills += 1;
                self.running[i].checkpointed_steps = Some(r.steps_done);
                spills += 1;
                bytes += latent_bytes;
            }
        }
        (spills, bytes)
    }

    /// Parks one running request at this iteration boundary. The latent
    /// goes to the *least-GSC-pressured* member of this unit — among the
    /// members that can actually house it (leader or `peers` follower,
    /// ranked by capacity not already committed to pinned shards or other
    /// parked latents) — cutting leader-GSC thrash under heavy preemption;
    /// ties prefer the leader, so single-member units behave exactly as
    /// before. Only when *no* member could house the latent even by
    /// evicting every unpinned entry does it spill to DRAM at a priced
    /// write-back. Either way the request re-enters `queue` with
    /// `steps_done` intact — preempt/resume conserves DDIM iterations by
    /// construction, since the step counter travels with the request.
    fn park(
        &mut self,
        mut r: Request,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        peers: &mut [Instance],
    ) -> (u64, f64) {
        let info = ctx.info(r.model);
        r.preemptions += 1;
        self.preemptions += 1;
        let latent = GscObject::Latent(r.id);
        // Sharded latent parking: among the unit members that can house
        // the latent (admission pre-check per member — evicting every
        // unpinned entry must suffice, else requesting would uselessly
        // push other tenants out first), rank by headroom not already
        // committed to pins or parked latents. The selection key is the
        // explicit total order `(headroom desc, member id asc)`: equal
        // headroom always resolves to the lowest member id — the leader
        // first, then followers in gang order — so gang runs stay
        // byte-identical across platforms no matter how member headrooms
        // collide (and replicas, whose `peers` slice is empty, always
        // park locally).
        let mut sink: Option<(u64, usize, Option<usize>)> = None; // (headroom, member id, peer idx; None = leader)
        if info.latent_bytes <= self.gsc.evictable_bytes() {
            sink = Some((self.gsc.park_headroom_bytes(), self.id, None));
        }
        for (i, p) in peers.iter().enumerate() {
            if info.latent_bytes <= p.gsc.evictable_bytes() {
                let h = p.gsc.park_headroom_bytes();
                let better = match sink {
                    None => true,
                    Some((best_h, best_id, _)) => {
                        (h, std::cmp::Reverse(p.id)) > (best_h, std::cmp::Reverse(best_id))
                    }
                };
                if better {
                    sink = Some((h, p.id, Some(i)));
                }
            }
        }
        let refill_cost_ms = info.latent_bytes as f64 * ctx.dram_ms_per_byte;
        match sink {
            // No member can house the latent: spill straight to DRAM.
            None => {
                self.latent_transfer(info.latent_bytes, ctx);
                self.latent_spills += 1;
                r.parked_on = None;
            }
            Some((_, _, None)) => {
                let out = self
                    .gsc
                    .request(latent, info.latent_bytes, refill_cost_ms, false);
                self.price_evictions(&out.evicted, ctx);
                debug_assert_eq!(
                    out.resident_bytes, info.latent_bytes,
                    "pre-checked latent must fit after eviction"
                );
                r.parked_on = Some(self.id);
            }
            Some((_, _, Some(i))) => {
                let peer = &mut peers[i];
                // Ship the latent across the gang link to the chosen
                // member; any latents its arrival evicts there are
                // spilled (and billed) by that member.
                self.link_transfer(info.latent_bytes, ctx);
                let out = peer
                    .gsc
                    .request(latent, info.latent_bytes, refill_cost_ms, false);
                peer.price_evictions(&out.evicted, ctx);
                debug_assert_eq!(
                    out.resident_bytes, info.latent_bytes,
                    "pre-checked latent must fit after eviction"
                );
                r.parked_on = Some(peer.id);
                // The park completes only when the slowest participant is
                // done (the gang re-syncs member clocks afterwards).
                self.now_ms = self.now_ms.max(peer.now_ms);
            }
        }
        // The request becomes admissible again only once the park (and any
        // spill it priced) has finished on this instance's clock.
        r.ready_ms = self.now_ms;
        let stamp = (r.id, self.now_ms);
        queue.push(r, ctx);
        stamp
    }

    /// Re-establishes a previously parked request's latent when it re-enters
    /// a batch: a GSC hit on this member is free; a latent parked on a
    /// sibling member of the same unit is pulled across the gang link; a
    /// DRAM-spilled (or evicted, or cross-unit migrated) latent pays the
    /// DRAM read back.
    fn resume(&mut self, r: &mut Request, ctx: &SchedContext, peers: &mut [Instance]) {
        let latent = GscObject::Latent(r.id);
        if self.gsc.resident_fraction(latent) >= 1.0 {
            self.gsc.remove(latent);
        } else if let Some(peer) = r
            .parked_on
            .and_then(|home| peers.iter_mut().find(|p| p.id == home))
        {
            let held = peer.gsc.remove(latent);
            if held > 0 {
                self.link_transfer(ctx.info(r.model).latent_bytes, ctx);
            } else {
                self.latent_transfer(ctx.info(r.model).latent_bytes, ctx);
            }
        } else {
            self.gsc.remove(latent);
            self.latent_transfer(ctx.info(r.model).latent_bytes, ctx);
        }
        r.parked_on = None;
    }

    /// Releases a parked-latent copy after the request resumed on *another*
    /// unit. If this instance still held the latent on chip, the
    /// migration physically required writing it back to DRAM for the
    /// resuming instance to read — bill that write here (the read was
    /// billed by the resumer). Either way the entry is dropped so it
    /// neither depresses this instance's weight residency nor is mispriced
    /// as a dirty spill when eviction eventually finds it.
    pub fn discard_latent(&mut self, id: u64, ctx: &SchedContext) {
        let bytes = self.gsc.remove(GscObject::Latent(id));
        if bytes > 0 {
            self.latent_transfer(bytes, ctx);
            self.latent_spills += 1;
        }
    }

    /// The admission-ordering key of `r` on *this* instance, tie-broken by
    /// request id: the policy key shifted by the latent-migration penalty
    /// when the request's parked latent lives on another unit's GSC
    /// (resume affinity — the parking unit sees the unshifted key and wins
    /// ties).
    fn local_key(&self, r: &Request, ctx: &SchedContext) -> (f64, u64) {
        (
            ctx.policy.ordering_key(r)
                + ctx.migration_penalty_ms(r, self.unit_first, self.unit_len),
            r.id,
        )
    }

    /// Scores one model's seed candidacy: its most urgent visible key
    /// shifted by the refill cost of this member's non-resident weight
    /// fraction, folded into the running best by the strict
    /// `(score, key)` order (the id component keeps the argmin unique, so
    /// model iteration order never matters).
    fn fold_seed_candidate(
        &self,
        model: ModelKind,
        key: (f64, u64),
        ctx: &SchedContext,
        best: &mut Option<(f64, (f64, u64), ModelKind)>,
    ) {
        let info = ctx.info(model);
        let refill =
            (1.0 - self.weight_residency(model)) * ctx.transfer_ms(self.weight_footprint(info));
        let score = key.0 + refill;
        let better = match best {
            None => true,
            Some((s, k, _)) => (score, key) < (*s, *k),
        };
        if better {
            *best = Some((score, key, model));
        }
    }

    /// Residency-aware seed choice for an idle instance: among the queued
    /// models, pick the one minimizing the policy key *adjusted by the
    /// refill cost of its non-resident weight fraction* (of this member's
    /// shard, for gang members). A tenant whose shards this instance
    /// already holds wins unless another model's most urgent request beats
    /// it by more than the switch actually costs.
    ///
    /// Indexed: each fresh bucket's first element is its model's minimum
    /// (fresh requests are visible and penalty-free by construction), and
    /// the small deferred list folds its per-unit local keys on top — so
    /// the seed scan is O(models + deferred), not O(queue).
    fn seed_model(&self, queue: &mut ReadyQueue, ctx: &SchedContext) -> ModelKind {
        let mut mins = std::mem::take(&mut queue.scratch_seed);
        mins.clear();
        for (model, bucket) in queue.fresh_buckets() {
            if let Some(&(kb, id)) = bucket.iter().next() {
                mins.push((model, (key_from_bits(kb), id)));
            }
        }
        for &id in queue.deferred_ids() {
            let r = &queue.as_slice()[queue.slot(id)];
            if r.ready_ms > self.now_ms {
                continue;
            }
            let key = self.local_key(r, ctx);
            match mins.iter_mut().find(|(m, _)| *m == r.model) {
                Some((_, k)) => {
                    if key < *k {
                        *k = key;
                    }
                }
                None => mins.push((r.model, key)),
            }
        }
        let mut best: Option<(f64, (f64, u64), ModelKind)> = None;
        for &(model, key) in mins.iter() {
            self.fold_seed_candidate(model, key, ctx, &mut best);
        }
        mins.clear();
        queue.scratch_seed = mins;
        best.expect("seed_model called with a visible queue member")
            .2
    }

    /// The reference (pre-index) seed scan over the flat queue slice —
    /// kept verbatim for [`Self::admit_reference`].
    fn seed_model_reference(&self, queue: &[Request], ctx: &SchedContext) -> ModelKind {
        let mut best: Option<(f64, (f64, u64), ModelKind)> = None;
        let mut seen: Vec<ModelKind> = Vec::new();
        for r in queue.iter().filter(|r| r.ready_ms <= self.now_ms) {
            if seen.contains(&r.model) {
                continue;
            }
            seen.push(r.model);
            let key = queue
                .iter()
                .filter(|q| q.model == r.model && q.ready_ms <= self.now_ms)
                .map(|q| self.local_key(q, ctx))
                .min_by(|a, b| a.partial_cmp(b).expect("policy keys are finite"))
                .expect("model taken from a visible queue member");
            self.fold_seed_candidate(r.model, key, ctx, &mut best);
        }
        best.expect("seed_model called with a non-empty queue").2
    }

    /// Admits queued requests into free slots at this iteration boundary,
    /// preempting running ones first when the policy's bounds allow it.
    ///
    /// An idle instance seeds a batch of the residency-adjusted most urgent
    /// queued model; a busy one tops up with its active model, gated by the
    /// policy's [`SchedulerPolicy::admits_join`] rule. A visible queued
    /// cross-model request keyed below the policy's
    /// [`SchedulerPolicy::preempt_key_bound`] (and deemed feasible by the
    /// thrash guard) parks the whole batch; a same-model request keyed
    /// below [`SchedulerPolicy::swap_key_bound`] displaces the worst member
    /// of a full batch. `peers` are the other members of this unit (empty
    /// for replicas) — parked latents land on whichever member is least
    /// GSC-pressured.
    pub fn admit(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        peers: &mut [Instance],
    ) -> AdmitOutcome {
        let mut outcome = AdmitOutcome::default();
        self.admit_into(queue, ctx, peers, &mut outcome);
        outcome
    }

    /// [`Self::admit`] writing into a caller-owned outcome buffer — the
    /// zero-allocation boundary path. Together with the queue's scratch
    /// vectors, a steady-state boundary performs no heap allocation at
    /// all.
    ///
    /// Decision structure (each sub-linear in queue depth):
    ///
    /// * *urgency / seed* — every fresh bucket's first element is its
    ///   model's admission minimum (visible and penalty-free by the queue
    ///   contract), merged with the small deferred list's per-unit local
    ///   keys: O(models + deferred);
    /// * *preempt / swap* — one ascending scan per bucket that stops at
    ///   the policy's [`SchedulerPolicy::preempt_key_bound`] /
    ///   [`SchedulerPolicy::swap_key_bound`] or at the first feasible
    ///   candidate (ascending keys make it the bucket's minimum), plus the
    ///   deferred list's members keyed below the same bound. A `None`
    ///   bound skips the scan: the policy never parks;
    /// * *batch join* — the first `free` bucket entries merged with the
    ///   visible same-model deferred keys: O(free + deferred +
    ///   log queue) per admitted request.
    ///
    /// Ties are broken everywhere by the explicit `(key, request id)`
    /// total order, so every argmin is unique and bucket/model iteration
    /// order never leaks into decisions.
    pub fn admit_into(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        peers: &mut [Instance],
        outcome: &mut AdmitOutcome,
    ) {
        outcome.clear();
        // Only *ready* requests are admissible: a request parked on another
        // instance at a later clock must not be resumed before its park
        // happened. Fresh (never-preempted) requests are ready by the
        // queue's release contract; the deferred list carries the ones
        // whose visibility genuinely varies.
        let now = self.now_ms;
        #[cfg(debug_assertions)]
        {
            queue.debug_check(ctx);
            for (_, bucket) in queue.fresh_buckets() {
                for &(_, id) in bucket.iter() {
                    debug_assert!(
                        queue.as_slice()[queue.slot(id)].ready_ms <= now,
                        "fresh request {id} enqueued before admissible"
                    );
                }
            }
        }
        // The policy's most urgent visible queued request (keys shifted by
        // the resume-affinity migration penalty on foreign units).
        let urgent_model = {
            let mut best = None;
            for (model, bucket) in queue.fresh_buckets() {
                if let Some(&(kb, id)) = bucket.iter().next() {
                    fold_min(&mut best, (key_from_bits(kb), id), model);
                }
            }
            for &id in queue.deferred_ids() {
                let r = &queue.as_slice()[queue.slot(id)];
                if r.ready_ms <= now {
                    fold_min(&mut best, self.local_key(r, ctx), r.model);
                }
            }
            match best {
                Some((_, model)) => model,
                None => return,
            }
        };

        if self.running.is_empty() {
            let model = self.seed_model(queue, ctx);
            self.set_active(model);
        } else {
            let model = self
                .active_model
                .expect("a non-empty batch always has an active model");
            if urgent_model != model {
                // The preemption trigger is the most urgent *feasible*
                // cross-model request keyed below the policy's bound: a
                // doomed request cannot justify a park (thrash guard — past
                // saturation every deadline is blown and parks stop paying
                // for themselves), but neither may it shadow a feasible
                // request queued behind it.
                let bound = ctx.policy.preempt_key_bound(&self.snapshot(ctx));
                let trigger = bound.and_then(|bound| {
                    let mut best = None;
                    for (bucket_model, bucket) in queue.fresh_buckets() {
                        if bucket_model == model {
                            continue;
                        }
                        // Keys ascend: the first feasible entry below the
                        // bound is this bucket's minimum.
                        let first = bucket
                            .iter()
                            .map(|&(kb, id)| (key_from_bits(kb), id))
                            .take_while(|&(k, _)| k < bound)
                            .find(|&(_, id)| {
                                ctx.deadline_feasible(&queue.as_slice()[queue.slot(id)], now)
                            });
                        if let Some(key) = first {
                            fold_min(&mut best, key, bucket_model);
                        }
                    }
                    for &id in queue.deferred_ids() {
                        let r = &queue.as_slice()[queue.slot(id)];
                        if r.model != model
                            && r.ready_ms <= now
                            && ctx.policy.ordering_key(r) < bound
                            && ctx.deadline_feasible(r, now)
                        {
                            fold_min(&mut best, self.local_key(r, ctx), r.model);
                        }
                    }
                    best.map(|(_, m)| m)
                });
                if let Some(switch_to) = trigger {
                    // Iteration-boundary preemption: park the whole batch
                    // and switch to the urgent tenant immediately instead
                    // of head-of-line blocking it for a full generation.
                    // Unpin the outgoing shards first — they are clean and
                    // about to lose the instance anyway, so the parked
                    // latents may claim their space instead of being forced
                    // into DRAM spills.
                    self.gsc.set_pinned(self.weight_obj(model), false);
                    for r in std::mem::take(&mut self.running) {
                        outcome.parked.push(self.park(r, queue, ctx, peers));
                    }
                    self.set_active(switch_to);
                } else {
                    // Anti-starvation drain: stop topping up so the batch
                    // can empty and the instance can switch.
                    return;
                }
            } else {
                if self.running.len() >= ctx.max_batch {
                    // Same-model swap: a full batch yields its worst member
                    // to a feasible request keyed below the policy's bound.
                    let bound = ctx.policy.swap_key_bound(&self.snapshot(ctx));
                    let swap = bound.is_some_and(|bound| {
                        queue.fresh_bucket(model).is_some_and(|bucket| {
                            bucket
                                .iter()
                                .take_while(|&&(kb, _)| key_from_bits(kb) < bound)
                                .any(|&(_, id)| {
                                    ctx.deadline_feasible(&queue.as_slice()[queue.slot(id)], now)
                                })
                        }) || queue.deferred_ids().iter().any(|&id| {
                            let r = &queue.as_slice()[queue.slot(id)];
                            r.model == model
                                && r.ready_ms <= now
                                && ctx.policy.ordering_key(r) < bound
                                && ctx.deadline_feasible(r, now)
                        })
                    });
                    if swap {
                        // `running` is id-sorted by construction, matching
                        // the historical post-admit sort order, so this
                        // argmax picks the same victim (`max_by` keeps the
                        // last of equal deadlines — the highest id).
                        let worst = (0..self.running.len())
                            .max_by(|&a, &b| {
                                self.running[a]
                                    .deadline_ms()
                                    .total_cmp(&self.running[b].deadline_ms())
                            })
                            .expect("non-empty running batch");
                        let victim = self.running.remove(worst);
                        outcome.parked.push(self.park(victim, queue, ctx, peers));
                    } else {
                        return;
                    }
                }
                if !ctx.policy.admits_join(&self.snapshot(ctx)) {
                    return;
                }
            }
        }

        let model = self
            .active_model
            .expect("seeding or the running batch set the active model above");
        let free = ctx.max_batch.saturating_sub(self.running.len());
        let mut cand = std::mem::take(&mut queue.scratch_keys);
        let mut slots = std::mem::take(&mut queue.scratch_slots);
        cand.clear();
        slots.clear();
        // Only the first `free` bucket entries can win slots (the bucket is
        // already in admission order); the deferred list contributes its
        // visible same-model members at their penalty-shifted local keys.
        if let Some(bucket) = queue.fresh_bucket(model) {
            for &(kb, id) in bucket.iter().take(free) {
                cand.push((key_from_bits(kb), id));
            }
        }
        for &id in queue.deferred_ids() {
            let r = &queue.as_slice()[queue.slot(id)];
            if r.model == model && r.ready_ms <= now {
                cand.push(self.local_key(r, ctx));
            }
        }
        cand.sort_by(|a, b| a.partial_cmp(b).expect("policy keys are finite"));
        cand.truncate(free);
        slots.extend(cand.iter().map(|&(_, id)| queue.slot(id)));
        // Remove back-to-front so earlier slots stay valid — the exact
        // historical swap_remove order, which keeps the flat entry slice
        // and the admitted stamps byte-identical.
        slots.sort_unstable_by(|a, b| b.cmp(a));
        for &slot in slots.iter() {
            let mut r = queue.take_slot(slot);
            if r.steps_done > 0 {
                self.resume(&mut r, ctx, peers);
                outcome.resumed.push((r.id, self.now_ms));
            }
            if r.admitted_ms.is_none() {
                r.admitted_ms = Some(self.now_ms);
            }
            outcome.admitted.push((r.id, self.now_ms));
            // Keep the batch id-sorted by construction (no per-boundary
            // re-sort).
            let pos = self.running.partition_point(|q| q.id < r.id);
            self.running.insert(pos, r);
        }
        cand.clear();
        slots.clear();
        queue.scratch_keys = cand;
        queue.scratch_slots = slots;
        debug_assert!(
            self.running.windows(2).all(|w| w[0].id < w[1].id),
            "running batch stays id-sorted by construction"
        );
    }

    /// The retained pre-index scheduler: the exact historical linear-scan
    /// algorithm over the flat queue slice, decision-for-decision the
    /// specification [`Self::admit_into`] is differentially tested
    /// against (`tests/scheduler_diff.rs`). Not part of the supported API.
    #[doc(hidden)]
    pub fn admit_reference(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        peers: &mut [Instance],
    ) -> AdmitOutcome {
        let mut outcome = AdmitOutcome::default();
        let now = self.now_ms;
        let visible = |r: &Request| r.ready_ms <= now;
        let urgent_model = {
            let q = queue.as_slice();
            let Some(urgent_idx) = (0..q.len()).filter(|&i| visible(&q[i])).min_by(|&a, &b| {
                self.local_key(&q[a], ctx)
                    .partial_cmp(&self.local_key(&q[b], ctx))
                    .expect("policy keys are finite")
            }) else {
                return outcome;
            };
            q[urgent_idx].model
        };

        if self.running.is_empty() {
            let model = self.seed_model_reference(queue.as_slice(), ctx);
            self.set_active(model);
        } else {
            let model = self
                .active_model
                .expect("a non-empty batch always has an active model");
            if urgent_model != model {
                let bound = ctx.policy.preempt_key_bound(&self.snapshot(ctx));
                let trigger = bound.and_then(|bound| {
                    let q = queue.as_slice();
                    (0..q.len())
                        .filter(|&i| {
                            let r = &q[i];
                            r.model != model
                                && visible(r)
                                && ctx.policy.ordering_key(r) < bound
                                && ctx.deadline_feasible(r, now)
                        })
                        .min_by(|&a, &b| {
                            self.local_key(&q[a], ctx)
                                .partial_cmp(&self.local_key(&q[b], ctx))
                                .expect("policy keys are finite")
                        })
                });
                if let Some(t) = trigger {
                    let switch_to = queue.as_slice()[t].model;
                    self.gsc.set_pinned(self.weight_obj(model), false);
                    for r in std::mem::take(&mut self.running) {
                        outcome.parked.push(self.park(r, queue, ctx, peers));
                    }
                    self.set_active(switch_to);
                } else {
                    return outcome;
                }
            } else {
                if self.running.len() >= ctx.max_batch {
                    let bound = ctx.policy.swap_key_bound(&self.snapshot(ctx));
                    let swap = bound.is_some_and(|bound| {
                        queue.iter().any(|r| {
                            r.model == model
                                && visible(r)
                                && ctx.policy.ordering_key(r) < bound
                                && ctx.deadline_feasible(r, now)
                        })
                    });
                    if swap {
                        let worst = (0..self.running.len())
                            .max_by(|&a, &b| {
                                self.running[a]
                                    .deadline_ms()
                                    .total_cmp(&self.running[b].deadline_ms())
                            })
                            .expect("non-empty running batch");
                        let victim = self.running.swap_remove(worst);
                        outcome.parked.push(self.park(victim, queue, ctx, peers));
                    } else {
                        return outcome;
                    }
                }
                if !ctx.policy.admits_join(&self.snapshot(ctx)) {
                    return outcome;
                }
            }
        }

        let model = self
            .active_model
            .expect("seeding or the running batch set the active model above");
        let free = ctx.max_batch.saturating_sub(self.running.len());
        let mut candidates: Vec<usize> = {
            let q = queue.as_slice();
            let mut c: Vec<usize> = (0..q.len())
                .filter(|&i| q[i].model == model && visible(&q[i]))
                .collect();
            c.sort_by(|&a, &b| {
                self.local_key(&q[a], ctx)
                    .partial_cmp(&self.local_key(&q[b], ctx))
                    .expect("policy keys are finite")
            });
            c
        };
        candidates.truncate(free);
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for idx in candidates {
            let mut r = queue.take_slot(idx);
            if r.steps_done > 0 {
                self.resume(&mut r, ctx, peers);
                outcome.resumed.push((r.id, self.now_ms));
            }
            if r.admitted_ms.is_none() {
                r.admitted_ms = Some(self.now_ms);
            }
            outcome.admitted.push((r.id, self.now_ms));
            self.running.push(r);
        }
        self.running.sort_by_key(|r| r.id);
        outcome
    }

    /// The FFN-Reuse phase the running batch executes next: sparse only
    /// when every member is in its sparse phase; one member at a dense
    /// boundary forces a dense (bitmask regenerating) pass for the whole
    /// batch.
    pub(crate) fn batch_phase(&self, period: usize) -> IterationPhase {
        let all_sparse = self.running.iter().all(|r| r.steps_done % period != 0);
        if all_sparse {
            IterationPhase::Sparse
        } else {
            IterationPhase::Dense
        }
    }

    /// This member's part of one iteration of its unit's running batch
    /// (`batch` rows of `info`'s model in `phase`): touches its shard's
    /// weight entry, refilling it toward full residency and pricing
    /// eviction fallout, then prices its shard's compute on the unit's
    /// plan at the fraction found resident. The unit books the cost
    /// ([`Self::finish_iteration_into`] on the leader,
    /// [`Self::advance_lockstep`] on followers).
    pub(crate) fn price_step(
        &mut self,
        cost: &mut CostModel,
        ctx: &SchedContext,
        info: &ModelInfo,
        batch: u64,
        phase: IterationPhase,
    ) -> IterationCost {
        let plan = info.plan(self.strategy);
        let shard = self.shard as usize;
        let full_bytes = plan.shard_weight_bytes(shard);
        let obj = self.weight_obj(info.config.kind);
        let out = self
            .gsc
            .request(obj, full_bytes, ctx.transfer_ms(full_bytes), true);
        self.price_evictions(&out.evicted, ctx);
        self.weight_hit_bytes += out.prior_bytes;
        self.weight_refill_bytes += out.refilled_bytes;
        if out.refilled_bytes > 0 {
            self.weight_refill_iterations += 1;
        }
        let warm = out.prior_fraction(full_bytes);
        cost.iteration_shard(&info.config, plan, shard, batch, phase, warm)
            .expect("non-empty batch and in-range step")
    }

    /// Advances this instance past one externally priced iteration of the
    /// running batch: clock, busy time, energy, batch accounting, and the
    /// completions the step produced — appended into the caller-owned
    /// buffer (the zero-allocation boundary path reuses one completions
    /// vector across all events).
    pub(crate) fn finish_iteration_into(
        &mut self,
        latency_ms: f64,
        energy_mj: f64,
        phase: IterationPhase,
        done: &mut Vec<Completion>,
    ) {
        let batch = self.running.len() as u64;
        self.now_ms += latency_ms;
        self.busy_ms += latency_ms;
        self.energy_mj += energy_mj;
        self.iterations += 1;
        if phase.is_sparse() {
            self.sparse_iterations += 1;
        }
        self.batch_rows += batch;

        let now = self.now_ms;
        let id = self.id;
        self.running.retain_mut(|r| {
            r.steps_done += 1;
            if r.is_done() {
                done.push(Completion {
                    id: r.id,
                    model: r.model,
                    arrival_ms: r.arrival_ms,
                    admitted_ms: r
                        .admitted_ms
                        .expect("a running request was stamped at first admission"),
                    finished_ms: now,
                    slo_ms: r.slo_ms,
                    instance: id,
                    preemptions: r.preemptions,
                    steps: r.total_steps,
                    degraded: r.degraded,
                });
                false
            } else {
                true
            }
        });
    }

    /// Advances a gang follower in lockstep with its leader: the member is
    /// occupied for the whole gang iteration (it cannot serve anything
    /// else), burns its own shard's energy, and keeps its clock mirrored.
    pub(crate) fn advance_lockstep(&mut self, to_ms: f64, busy_ms: f64, energy_mj: f64) {
        self.now_ms = to_ms;
        self.busy_ms += busy_ms;
        self.energy_mj += energy_mj;
    }

    /// Cumulative weight bytes streamed from DRAM — telemetry reads the
    /// per-iteration delta to size refill slices on the timeline.
    pub(crate) fn refill_bytes_so_far(&self) -> u64 {
        self.weight_refill_bytes
    }

    /// Final accounting over a makespan.
    pub fn stats(&self, makespan_ms: f64) -> InstanceStats {
        let weight_traffic = self.weight_hit_bytes + self.weight_refill_bytes;
        InstanceStats {
            utilization: if makespan_ms > 0.0 {
                self.busy_ms / makespan_ms
            } else {
                0.0
            },
            iterations: self.iterations,
            sparse_iteration_frac: if self.iterations > 0 {
                self.sparse_iterations as f64 / self.iterations as f64
            } else {
                0.0
            },
            mean_batch: if self.iterations > 0 {
                self.batch_rows as f64 / self.iterations as f64
            } else {
                0.0
            },
            rows_executed: self.batch_rows,
            energy_mj: self.energy_mj,
            preemptions: self.preemptions,
            latent_spills: self.latent_spills,
            weight_refill_iterations: self.weight_refill_iterations,
            weight_hit_bytes: self.weight_hit_bytes,
            weight_refill_bytes: self.weight_refill_bytes,
            residency_hit_rate: if weight_traffic > 0 {
                self.weight_hit_bytes as f64 / weight_traffic as f64
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Gang;
    use crate::policy::{Fcfs, PreemptiveEdf, SparsityAware};
    use exion_sim::perf::SimAblation;

    fn tiny(kind: ModelKind) -> ModelConfig {
        ModelConfig::for_kind(kind).shrunk(1, 12)
    }

    fn ctx_for(
        policy: Arc<dyn SchedulerPolicy>,
        max_batch: usize,
        cost: &mut CostModel,
    ) -> SchedContext {
        SchedContext::build(
            policy,
            max_batch,
            &[ModelKind::Mld, ModelKind::Mdm, ModelKind::StableDiffusion],
            cost,
            Interconnect::default(),
            tiny,
            None,
        )
    }

    // Already-released requests (arrival 0, so all visible at clock 0);
    // FCFS ordering falls to the id tie-break, which follows slice order.
    fn queue_of(kinds: &[ModelKind], ctx: &SchedContext) -> ReadyQueue {
        ReadyQueue::from_requests(
            kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| Request::new(i as u64, k, 0.0, 1e9, tiny(k).iterations))
                .collect(),
            ctx,
        )
    }

    fn instance() -> Instance {
        Instance::new(0, &HwConfig::exion4(), EvictionPolicy::Lru)
    }

    fn replica() -> Gang {
        Gang::replica(0, &HwConfig::exion4(), EvictionPolicy::Lru)
    }

    #[test]
    fn admission_fills_slots_with_one_model() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(Fcfs), 8, &mut cost);
        let mut inst = instance();
        let mut queue = queue_of(&[ModelKind::Mld, ModelKind::Mdm, ModelKind::Mld], &ctx);
        let out = inst.admit(&mut queue, &ctx, &mut []);
        // Seeded with MLD (first by FCFS tie-break and cheapest refill), so
        // both MLD requests join.
        assert_eq!(out.admitted.len(), 2);
        assert!(out.parked.is_empty());
        assert_eq!(inst.active_model, Some(ModelKind::Mld));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].model, ModelKind::Mdm);
    }

    #[test]
    fn max_batch_bounds_admission() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(Fcfs), 4, &mut cost);
        let mut inst = instance();
        let mut queue = queue_of(&[ModelKind::Mld; 12], &ctx);
        let out = inst.admit(&mut queue, &ctx, &mut []);
        assert_eq!(out.admitted.len(), 4);
        // Earliest arrivals won the slots.
        let ids: Vec<u64> = inst.running.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sparsity_aware_waits_for_boundary() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let sparsity_ctx = ctx_for(Arc::new(SparsityAware), 2, &mut cost);
        let mut unit = replica();
        let mut queue = queue_of(&[ModelKind::Mld; 4], &sparsity_ctx);
        unit.admit(&mut queue, &sparsity_ctx);
        assert_eq!(unit.leader().running.len(), 2);
        // One step in: mid-period, so the gate closes.
        unit.execute_iteration(&mut cost, &sparsity_ctx);
        let wider = ctx_for(Arc::new(SparsityAware), 4, &mut cost);
        assert!(unit.admit(&mut queue, &wider).admitted.is_empty());
        // FCFS would have admitted immediately.
        let fcfs = ctx_for(Arc::new(Fcfs), 4, &mut cost);
        assert_eq!(unit.admit(&mut queue, &fcfs).admitted.len(), 2);
    }

    #[test]
    fn completions_carry_timing() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(Fcfs), 8, &mut cost);
        let mut unit = Gang::replica(3, &HwConfig::exion4(), EvictionPolicy::Lru);
        let mut queue = queue_of(&[ModelKind::Mld], &ctx);
        unit.admit(&mut queue, &ctx);
        let total = tiny(ModelKind::Mld).iterations;
        let mut done = Vec::new();
        for _ in 0..total {
            done.extend(unit.execute_iteration(&mut cost, &ctx));
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].instance, 3);
        assert_eq!(done[0].preemptions, 0);
        assert_eq!(done[0].steps, total);
        assert!(!done[0].degraded);
        assert!(done[0].finished_ms > 0.0);
        assert!(unit.is_idle());
        let stats = unit.leader().stats(unit.now_ms());
        assert_eq!(stats.iterations, total as u64);
        assert_eq!(stats.rows_executed, total as u64);
        assert!(stats.utilization > 0.99);
        // The first iteration streamed weights; later ones hit the GSC.
        assert!(stats.residency_hit_rate > 0.5);
        assert!(stats.weight_refill_iterations >= 1);
    }

    #[test]
    fn preemptive_edf_parks_for_an_urgent_tenant() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 8, &mut cost);
        let mut unit = replica();
        // A relaxed-deadline SD batch is running...
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::StableDiffusion,
                0.0,
                1e6,
                tiny(ModelKind::StableDiffusion).iterations,
            )],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        unit.execute_iteration(&mut cost, &ctx);
        assert_eq!(unit.leader().active_model, Some(ModelKind::StableDiffusion));
        // ...when an urgent MLD request arrives.
        queue.push(
            Request::new(
                1,
                ModelKind::Mld,
                1.0,
                10.0,
                tiny(ModelKind::Mld).iterations,
            ),
            &ctx,
        );
        let out = unit.admit(&mut queue, &ctx);
        assert_eq!(out.parked.len(), 1, "SD batch must be parked");
        assert_eq!(out.admitted.len(), 1);
        assert_eq!(unit.leader().active_model, Some(ModelKind::Mld));
        assert_eq!(unit.leader().running[0].model, ModelKind::Mld);
        // The parked request kept its progress and counts its preemption.
        let parked = queue
            .iter()
            .find(|r| r.id == 0)
            .expect("parked back into queue");
        assert_eq!(parked.steps_done, 1);
        assert_eq!(parked.preemptions, 1);
        assert_eq!(unit.leader().stats(1.0).preemptions, 1);
    }

    #[test]
    fn non_preemptive_edf_drains_instead() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(crate::policy::Edf), 8, &mut cost);
        let mut unit = replica();
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::StableDiffusion,
                0.0,
                1e6,
                tiny(ModelKind::StableDiffusion).iterations,
            )],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        unit.execute_iteration(&mut cost, &ctx);
        queue.push(
            Request::new(
                1,
                ModelKind::Mld,
                1.0,
                10.0,
                tiny(ModelKind::Mld).iterations,
            ),
            &ctx,
        );
        let out = unit.admit(&mut queue, &ctx);
        assert!(out.parked.is_empty());
        assert!(out.admitted.is_empty());
        assert_eq!(unit.leader().active_model, Some(ModelKind::StableDiffusion));
    }

    #[test]
    fn same_model_swap_evicts_the_worst_deadline() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 2, &mut cost);
        let mut unit = replica();
        let steps = tiny(ModelKind::Mld).iterations;
        let mut queue = ReadyQueue::from_requests(
            vec![
                Request::new(0, ModelKind::Mld, 0.0, 500.0, steps),
                Request::new(1, ModelKind::Mld, 0.0, 900.0, steps),
            ],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        unit.execute_iteration(&mut cost, &ctx);
        // A tighter-deadline request displaces id 1 (deadline 900).
        queue.push(Request::new(2, ModelKind::Mld, 0.0, 50.0, steps), &ctx);
        let out = unit.admit(&mut queue, &ctx);
        assert_eq!(out.parked.len(), 1);
        assert_eq!(out.parked[0].0, 1);
        let ids: Vec<u64> = unit.leader().running.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn resumed_requests_finish_with_all_steps() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 8, &mut cost);
        let mut unit = replica();
        let sd_steps = tiny(ModelKind::StableDiffusion).iterations;
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::StableDiffusion,
                0.0,
                1e6,
                sd_steps,
            )],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        unit.execute_iteration(&mut cost, &ctx);
        queue.push(
            Request::new(
                1,
                ModelKind::Mld,
                1.0,
                10.0,
                tiny(ModelKind::Mld).iterations,
            ),
            &ctx,
        );
        unit.admit(&mut queue, &ctx); // parks SD, runs MLD
        let mut done = Vec::new();
        let mut guard = 0;
        while done.len() < 2 {
            if unit.is_idle() {
                unit.admit(&mut queue, &ctx);
            }
            done.extend(unit.execute_iteration(&mut cost, &ctx));
            guard += 1;
            assert!(guard < 10 * (sd_steps as u32 + 12), "scheduler livelock");
        }
        let sd = done.iter().find(|c| c.id == 0).expect("SD completed");
        assert_eq!(sd.preemptions, 1);
        // Total executed rows equal total requested steps: conservation.
        let stats = unit.leader().stats(unit.now_ms());
        let requested = (sd_steps + tiny(ModelKind::Mld).iterations) as u64;
        assert_eq!(stats.rows_executed, requested);
    }

    #[test]
    fn resume_affinity_prefers_the_parking_instance() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        // Batch bound 1: only the best-ranked candidate wins the slot.
        let ctx = ctx_for(Arc::new(Fcfs), 1, &mut cost);
        let mut inst = instance(); // id 0
        let steps = tiny(ModelKind::Mld).iterations;
        // Two parked requests, identical arrivals: FCFS would tie-break by
        // id toward request 0, but its latent lives on instance 1, so the
        // migration penalty defers it behind the locally parked request 1.
        let mut foreign = Request::new(0, ModelKind::Mld, 0.0, 1e9, steps);
        foreign.steps_done = 1;
        foreign.parked_on = Some(1);
        let mut local = Request::new(1, ModelKind::Mld, 0.0, 1e9, steps);
        local.steps_done = 1;
        local.parked_on = Some(0);
        let mut queue = ReadyQueue::from_requests(vec![foreign, local], &ctx);
        let out = inst.admit(&mut queue, &ctx, &mut []);
        assert_eq!(out.admitted.len(), 1);
        assert_eq!(out.admitted[0].0, 1, "locally parked request must win");
        assert_eq!(queue[0].id, 0);
        // The admitted request's affinity hint is consumed.
        assert_eq!(inst.running[0].parked_on, None);
        // A fresh (never-parked) request carries no penalty anywhere.
        let fresh = Request::new(2, ModelKind::Mld, 0.0, 1e9, steps);
        assert_eq!(ctx.migration_penalty_ms(&fresh, 5, 1), 0.0);
        assert!(ctx.migration_penalty_ms(&queue[0], 0, 1) > 0.0);
        assert_eq!(ctx.migration_penalty_ms(&queue[0], 1, 1), 0.0);
        // A unit spanning ids 0..2 contains the latent's home: no penalty.
        assert_eq!(ctx.migration_penalty_ms(&queue[0], 0, 2), 0.0);
    }

    #[test]
    fn doomed_requests_do_not_trigger_preemption() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 8, &mut cost);
        let mut unit = replica();
        // A relaxed-deadline SD batch is running...
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::StableDiffusion,
                0.0,
                1e6,
                tiny(ModelKind::StableDiffusion).iterations,
            )],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        unit.execute_iteration(&mut cost, &ctx);
        // ...when an MLD request arrives whose deadline has already passed:
        // its EDF key beats every running member, but parking the batch for
        // a request that cannot finish in time only churns the GSC.
        queue.push(
            Request::new(1, ModelKind::Mld, 0.0, 0.0, tiny(ModelKind::Mld).iterations),
            &ctx,
        );
        assert!(!ctx.deadline_feasible(&queue[0], unit.now_ms()));
        let out = unit.admit(&mut queue, &ctx);
        assert!(out.parked.is_empty(), "thrash guard must block the park");
        assert_eq!(unit.leader().active_model, Some(ModelKind::StableDiffusion));
        assert_eq!(unit.leader().stats(1.0).preemptions, 0);
    }

    #[test]
    fn idle_seeding_prefers_the_resident_tenant() {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        let ctx = ctx_for(Arc::new(Fcfs), 8, &mut cost);
        let mut unit = replica();
        // Run an MDM generation to make its shards resident.
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::Mdm,
                0.0,
                1e9,
                tiny(ModelKind::Mdm).iterations,
            )],
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        while !unit.is_idle() {
            unit.execute_iteration(&mut cost, &ctx);
        }
        assert_eq!(unit.leader().weight_residency(ModelKind::Mdm), 1.0);
        // Two simultaneous arrivals: FCFS alone would seed SD (lower id
        // wins the tie-break), but its cold refill tips the residency-
        // adjusted score toward the already-resident MDM.
        let now = unit.now_ms();
        queue.push(
            Request::new(
                1,
                ModelKind::StableDiffusion,
                now,
                1e9,
                tiny(ModelKind::StableDiffusion).iterations,
            ),
            &ctx,
        );
        queue.push(
            Request::new(2, ModelKind::Mdm, now, 1e9, tiny(ModelKind::Mdm).iterations),
            &ctx,
        );
        unit.admit(&mut queue, &ctx);
        assert_eq!(unit.leader().active_model, Some(ModelKind::Mdm));
    }

    #[test]
    fn park_member_selection_tie_breaks_to_the_lowest_id() {
        // Two peers with byte-identical headroom: the park must land on
        // the lower member id (stable total order on equal headroom), not
        // on whichever the iteration order happened to visit last.
        let hw = HwConfig::exion4();
        let mut cost = CostModel::new(hw, SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 8, &mut cost);
        let mut leader = Instance::new(0, &hw, EvictionPolicy::Lru);
        leader.set_unit(0, 3);
        let mut peers: Vec<Instance> = (1..3)
            .map(|id| {
                let mut p = Instance::new(id, &hw, EvictionPolicy::Lru);
                p.set_unit(0, 3);
                p
            })
            .collect();
        // The leader already hosts another parked latent, so both empty
        // peers strictly beat it — and tie with each other exactly.
        let occupied = ctx.info(ModelKind::Mld).latent_bytes;
        leader
            .gsc
            .request(GscObject::Latent(99), occupied, 0.1, false);
        assert_eq!(
            peers[0].gsc.park_headroom_bytes(),
            peers[1].gsc.park_headroom_bytes()
        );
        let steps = tiny(ModelKind::Mld).iterations;
        let mut r = Request::new(5, ModelKind::Mld, 0.0, 1e9, steps);
        r.steps_done = 1;
        let mut queue = ReadyQueue::new();
        leader.park(r, &mut queue, &ctx, &mut peers);
        let parked = queue.iter().find(|q| q.id == 5).expect("parked");
        assert_eq!(
            parked.parked_on,
            Some(1),
            "equal headroom resolves to the lowest id"
        );
    }

    #[test]
    fn parked_latents_spread_across_unit_members() {
        // Sharded latent parking: consecutive parks land on distinct unit
        // members (whoever is least GSC-pressured), not all on the leader.
        // The first park ties toward the leader (the outgoing weights were
        // just unpinned, so both members look equally free); from then on
        // the leader's resident latent tips the choice to the peer.
        let hw = HwConfig::exion4();
        let mut cost = CostModel::new(hw, SimAblation::All);
        let ctx = ctx_for(Arc::new(PreemptiveEdf), 8, &mut cost);
        let mut leader = Instance::new(0, &hw, EvictionPolicy::Lru);
        leader.set_unit(0, 2);
        let mut peer = Instance::new(1, &hw, EvictionPolicy::Lru);
        peer.set_unit(0, 2);
        let mut peers = vec![peer];
        // One iteration on the leader, through the member step and booking
        // `Gang::execute_iteration_into` runs (the hand-made peer idles).
        let step = |leader: &mut Instance, cost: &mut CostModel| {
            let info = ctx.info(leader.active_model.expect("a running batch"));
            let phase = leader.batch_phase(info.period);
            let batch = leader.running.len() as u64;
            let c = leader.price_step(cost, &ctx, info, batch, phase);
            leader.finish_iteration_into(c.latency_ms, c.energy_mj, phase, &mut Vec::new());
        };
        // Round 1: a relaxed SD batch runs, an urgent MLD preempts it.
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(
                0,
                ModelKind::StableDiffusion,
                0.0,
                1e6,
                tiny(ModelKind::StableDiffusion).iterations,
            )],
            &ctx,
        );
        leader.admit(&mut queue, &ctx, &mut peers);
        step(&mut leader, &mut cost);
        let now = leader.now_ms;
        queue.push(
            Request::new(
                1,
                ModelKind::Mld,
                now,
                500.0,
                tiny(ModelKind::Mld).iterations,
            ),
            &ctx,
        );
        leader.admit(&mut queue, &ctx, &mut peers);
        step(&mut leader, &mut cost);
        let sd = queue.iter().find(|r| r.id == 0).expect("SD parked");
        assert_eq!(sd.parked_on, Some(0), "first park ties toward the leader");
        // Round 2: a tighter-deadline MDM preempts the MLD batch; the
        // leader now hosts the SD latent, so the MLD latent spreads to the
        // peer — and the affinity hint follows it.
        let now = leader.now_ms;
        queue.push(
            Request::new(
                2,
                ModelKind::Mdm,
                now,
                50.0,
                tiny(ModelKind::Mdm).iterations,
            ),
            &ctx,
        );
        let out = leader.admit(&mut queue, &ctx, &mut peers);
        assert_eq!(out.parked.len(), 1, "MLD batch must be parked");
        let mld = queue.iter().find(|r| r.id == 1).expect("MLD parked");
        assert_eq!(
            mld.parked_on,
            Some(1),
            "second park must land on the least-pressured member"
        );
        // Intra-unit parking carries no migration penalty for the unit...
        assert_eq!(ctx.migration_penalty_ms(mld, 0, 2), 0.0);
        // ...but a foreign unit pays the DRAM read.
        assert!(ctx.migration_penalty_ms(mld, 5, 1) > 0.0);
        // Resuming on the leader pulls the latent back from the peer.
        let mut resumed = *mld;
        leader.resume(&mut resumed, &ctx, &mut peers);
        assert_eq!(resumed.parked_on, None);
        assert_eq!(
            peers[0].gsc.resident_bytes(GscObject::Latent(resumed.id)),
            0,
            "peer copy consumed by the resume"
        );
    }
}
