//! Placement: grouping instances into whole-model replicas and sharded
//! TP/PP gangs.
//!
//! A [`Gang`] is the cluster's unit of execution: [`PartitionStrategy::degree`]
//! members, member `s` holding *shard `s`* of every served model's
//! [`exion_sim::partition::PartitionPlan`] in *its own* GSC
//! ([`exion_sim::residency::GscObject::WeightShard`] entries priced per
//! member). A replica is the one-member unit of the
//! [`PartitionStrategy::Replicated`] plan, whose one shard is the whole
//! model. Gangs are iteration-synchronous: a sharded batch
//! advances only when every member has finished its shard (tensor ranks run
//! concurrently, pipeline stages sequentially), so the gang keeps one
//! logical clock — the leader's — and followers advance in lockstep.
//!
//! Scheduling stays on the leader: the shared queue, continuous batching,
//! and preemption all act on `members[0]`. Parked latents, however, land on
//! the *least-GSC-pressured* member of the unit (the one with the most
//! capacity not committed to pinned shards or other parked latents), with
//! the request's `parked_on` affinity hint updated to that member — so
//! heavy preemption spreads latent pressure across the gang instead of
//! thrashing the leader's GSC. Followers contribute their shard's
//! residency, compute time, and energy.

use exion_model::config::ModelKind;
use exion_sim::config::HwConfig;
use exion_sim::partition::{Interconnect, PartitionStrategy};
use exion_sim::perf::IterationCost;
use exion_sim::residency::EvictionPolicy;

use crate::cost::CostModel;
use crate::metrics::{GangStats, InstanceStats};
use crate::queue::ReadyQueue;
use crate::request::Completion;
use crate::scheduler::{AdmitOutcome, Instance, SchedContext};

/// How a cluster's instances are grouped: `replicas` single-instance
/// whole-model units plus `gangs` sharded units of `strategy.degree()`
/// members each, all pulling from one shared queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Whole-model single-instance units.
    pub replicas: usize,
    /// Sharded gangs.
    pub gangs: usize,
    /// How each gang cuts its models.
    pub strategy: PartitionStrategy,
    /// The link between gang members.
    pub interconnect: Interconnect,
}

impl Placement {
    /// `n` whole-model replicas (the classic cluster).
    pub fn replicated(n: usize) -> Self {
        Self {
            replicas: n.max(1),
            gangs: 0,
            strategy: PartitionStrategy::Replicated,
            interconnect: Interconnect::default(),
        }
    }

    /// `gangs` sharded gangs under `strategy`, no replicas.
    pub fn sharded(gangs: usize, strategy: PartitionStrategy) -> Self {
        Self {
            replicas: 0,
            gangs: gangs.max(1),
            strategy,
            interconnect: Interconnect::default(),
        }
    }

    /// A mixed cluster: replicas and sharded gangs side by side (the
    /// scheduler routes requests to whichever unit frees up first, with
    /// residency-aware seeding per unit). A placement needs at least one
    /// unit, so zero-everything falls back to one replica.
    pub fn mixed(replicas: usize, gangs: usize, strategy: PartitionStrategy) -> Self {
        Self {
            replicas: if replicas + gangs == 0 { 1 } else { replicas },
            gangs,
            strategy,
            interconnect: Interconnect::default(),
        }
    }

    /// Replaces the gang interconnect.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Scheduling units (replicas + gangs).
    pub fn units(&self) -> usize {
        self.replicas + self.gangs
    }

    /// Each unit type the placement deploys, with its unit count, replicas
    /// first. A replica is the one-member unit of a
    /// [`PartitionStrategy::Replicated`] plan; types with no units are
    /// skipped.
    pub(crate) fn unit_types(&self) -> impl Iterator<Item = (PartitionStrategy, usize)> {
        [
            (PartitionStrategy::Replicated, self.replicas),
            (self.strategy, self.gangs),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
    }

    /// Hardware instances the placement occupies in total.
    pub fn total_instances(&self) -> usize {
        self.replicas + self.gangs * self.strategy.degree()
    }

    /// Human-readable summary (`replicated x2`, `tp2 gang x1`,
    /// `1 replica + 1 tp2 gang`) — the label planner reports and replan
    /// events carry.
    pub fn summary(&self) -> String {
        if self.gangs == 0 {
            format!("replicated x{}", self.replicas)
        } else if self.replicas == 0 {
            format!("{} gang x{}", self.strategy.label(), self.gangs)
        } else {
            format!(
                "{} replica{} + {} {} gang{}",
                self.replicas,
                if self.replicas == 1 { "" } else { "s" },
                self.gangs,
                self.strategy.label(),
                if self.gangs == 1 { "" } else { "s" },
            )
        }
    }
}

/// What draining a unit produced: requests parked back to the shared
/// queue (with `(id, stamp ms)` queue-depth stamps) and — on a unit with
/// dead members — running requests destroyed because their latents lived
/// on hardware that no longer exists and no DRAM checkpoint covered them.
#[derive(Debug, Clone, Default)]
pub struct DrainOutcome {
    /// `(request id, drain ms)` stamps of the requeued requests.
    pub requeued: Vec<(u64, f64)>,
    /// Running requests destroyed by the fault (lost accounting).
    pub lost: Vec<crate::request::Request>,
}

/// One scheduling unit: a single whole-model replica or an
/// iteration-synchronous sharded gang. `members[0]` is the leader — it owns
/// the clock, the running batch, and the parked latents.
#[derive(Debug, Clone)]
pub struct Gang {
    /// Member instances; length 1 for replicas, `strategy.degree()` for
    /// sharded gangs.
    pub members: Vec<Instance>,
    strategy: PartitionStrategy,
    /// The model whose shard pins the followers currently hold.
    last_model: Option<ModelKind>,
    /// Per-member death mask, set by fault injection. A gang with any
    /// dead member is stalled: TP/PP iterations need every shard, so the
    /// whole unit's capacity is out until repair replaces it.
    dead: Vec<bool>,
    /// Per-member iteration costs, reused across iterations so the
    /// execution path never allocates.
    costs: Vec<IterationCost>,
    collective_ms: f64,
    collective_bytes: u64,
}

impl Gang {
    /// A whole-model replica unit over instance id `id`: the one-member
    /// unit of the [`PartitionStrategy::Replicated`] plan.
    pub fn replica(id: usize, hw: &HwConfig, eviction: EvictionPolicy) -> Self {
        Self::sharded(id, hw, eviction, PartitionStrategy::Replicated)
    }

    /// A unit of `strategy` whose members take instance ids `first_id..`,
    /// shard `s` to member `s` (one whole-model member under
    /// [`PartitionStrategy::Replicated`]).
    pub fn sharded(
        first_id: usize,
        hw: &HwConfig,
        eviction: EvictionPolicy,
        strategy: PartitionStrategy,
    ) -> Self {
        let degree = strategy.degree();
        let mut members: Vec<Instance> = (0..degree)
            .map(|s| Instance::new_shard(first_id + s, hw, eviction, strategy, s as u8))
            .collect();
        for m in &mut members {
            m.set_unit(first_id, degree);
        }
        Self {
            dead: vec![false; degree],
            costs: Vec::with_capacity(degree),
            members,
            strategy,
            last_model: None,
            collective_ms: 0.0,
            collective_bytes: 0,
        }
    }

    /// Whether this unit shards its models.
    pub fn is_sharded(&self) -> bool {
        self.strategy != PartitionStrategy::Replicated
    }

    /// The unit's partition strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The unit's logical clock (the leader's).
    pub fn now_ms(&self) -> f64 {
        self.members[0].now_ms
    }

    /// Jumps an idle unit's clock forward to `at_ms` (never backward).
    pub fn jump_to(&mut self, at_ms: f64) {
        let to = self.members[0].now_ms.max(at_ms);
        for m in &mut self.members {
            m.now_ms = to;
        }
    }

    /// Whether the unit has no running batch.
    pub fn is_idle(&self) -> bool {
        self.members[0].is_idle()
    }

    /// The leader instance (batch owner).
    pub fn leader(&self) -> &Instance {
        &self.members[0]
    }

    /// Admits queued requests at this iteration boundary — the leader's
    /// continuous-batching logic (seeding, preemption, same-model swaps),
    /// with the follower members offered as latent-park sinks — and keeps
    /// member clocks in lockstep past any latent transfers the admission
    /// priced.
    pub fn admit(&mut self, queue: &mut ReadyQueue, ctx: &SchedContext) -> AdmitOutcome {
        let mut out = AdmitOutcome::default();
        self.admit_into(queue, ctx, &mut out);
        out
    }

    /// [`Self::admit`] writing into a caller-owned outcome buffer — the
    /// zero-allocation boundary path.
    pub fn admit_into(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        outcome: &mut AdmitOutcome,
    ) {
        let (leader, peers) = self
            .members
            .split_first_mut()
            .expect("a unit has at least one member");
        leader.admit_into(queue, ctx, peers, outcome);
        self.sync_clocks();
    }

    /// Releases a parked-latent copy after its request resumed on another
    /// unit (the latent may live on any member under sharded parking).
    pub fn discard_latent(&mut self, id: u64, ctx: &SchedContext) {
        for m in &mut self.members {
            m.discard_latent(id, ctx);
        }
        self.sync_clocks();
    }

    /// Lockstep: every member waits for the slowest one (latent shipping
    /// during parking can momentarily advance a follower past the leader).
    fn sync_clocks(&mut self) {
        let now = self
            .members
            .iter()
            .map(|m| m.now_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        for m in &mut self.members {
            m.now_ms = now;
        }
    }

    /// Drains the ids of latents this unit evicted since the last call
    /// (sharded parking can put latents on any member, so every member is
    /// drained).
    pub fn take_evicted_latents(&mut self) -> Vec<u64> {
        self.members
            .iter_mut()
            .flat_map(Instance::take_evicted_latents)
            .collect()
    }

    /// Marks member `slot` (modulo the gang width) dead. On a replica
    /// unit the single member dies, which is a whole-unit crash.
    pub fn mark_member_dead(&mut self, slot: usize) {
        let i = slot % self.dead.len();
        self.dead[i] = true;
    }

    /// Marks every member dead — a whole-unit crash.
    pub fn mark_all_dead(&mut self) {
        self.dead.iter_mut().for_each(|d| *d = true);
    }

    /// Whether any member is dead (a gang missing a member is stalled:
    /// its next iteration can never run).
    pub fn any_dead(&self) -> bool {
        self.dead.iter().any(|&d| d)
    }

    /// Instance ids of the dead members (parked latents there are gone).
    pub fn dead_member_ids(&self) -> Vec<usize> {
        self.members
            .iter()
            .zip(&self.dead)
            .filter(|(_, &d)| d)
            .map(|(m, _)| m.id)
            .collect()
    }

    /// Drains this unit for a placement migration or a fault teardown.
    ///
    /// With every member alive, each running request is parked straight
    /// to DRAM (a priced latent write-back on the leader) and re-enters
    /// `queue` with its DDIM step count intact and no affinity hint —
    /// the unit is about to be torn down, so nothing on it is worth
    /// steering back to.
    ///
    /// With any member dead (fault path), there is no live gang to
    /// execute write-backs: a running request survives only if a DRAM
    /// checkpoint covers it (requeued at `at_ms` with `steps_done`
    /// rolled back to the checkpoint, nothing billed — the spill was
    /// priced when taken); the rest are destroyed and returned in
    /// [`DrainOutcome::lost`]. Billing a transfer off dead hardware
    /// would credit the fault with machine time that never ran.
    pub fn drain_for_migration(
        &mut self,
        queue: &mut ReadyQueue,
        ctx: &SchedContext,
        at_ms: f64,
    ) -> DrainOutcome {
        if self.any_dead() {
            let (requeued, lost) = self.members[0].drain_running_lost(queue, ctx, at_ms);
            self.sync_clocks();
            return DrainOutcome { requeued, lost };
        }
        let requeued = self.members[0].drain_running(queue, ctx);
        self.sync_clocks();
        DrainOutcome {
            requeued,
            lost: Vec::new(),
        }
    }

    /// Opt-in periodic latent checkpointing at this iteration boundary:
    /// the leader spills each due running request's latent to DRAM (a
    /// priced transfer) and the gang re-syncs its lockstep clocks past
    /// the spill time. Returns `(spills, bytes)`.
    pub fn checkpoint_running(&mut self, ctx: &SchedContext, every_steps: usize) -> (usize, u64) {
        let out = self.members[0].checkpoint_running(ctx, every_steps);
        self.sync_clocks();
        out
    }

    /// Releases the parked latent of request `request` from member
    /// `member_id` (if this unit owns that member and it holds the
    /// latent), pricing the DRAM write-back there — the migration path's
    /// analogue of [`Self::discard_latent`].
    pub fn discard_member_latent(&mut self, member_id: usize, request: u64, ctx: &SchedContext) {
        let mut touched = false;
        for m in &mut self.members {
            if m.id == member_id {
                m.discard_latent(request, ctx);
                touched = true;
            }
        }
        if touched {
            self.sync_clocks();
        }
    }

    /// Summed GSC-resident bytes across this unit's members — what a
    /// migration walks away from (and the new placement re-streams).
    pub fn resident_bytes(&self) -> u64 {
        self.members.iter().map(Instance::gsc_occupancy_bytes).sum()
    }

    /// Cumulative interconnect-collective accounting `(ms, bytes)` —
    /// telemetry reads the per-iteration delta to size collective slices
    /// on the timeline (always zero for replicas, whose plan has no
    /// collective).
    pub fn collective_totals(&self) -> (f64, u64) {
        (self.collective_ms, self.collective_bytes)
    }

    /// Executes one denoising iteration of the unit's running batch — the
    /// only execution path, for replicas and gangs alike.
    ///
    /// Every member touches *its* shard of the unit's plan (the whole model
    /// on a replica) in *its own* GSC and prices its compute at its warm
    /// fraction. The unit advances only when all members are done:
    /// [`exion_sim::partition::PartitionPlan::combine`] max-composes tensor
    /// ranks, sum-composes pipeline stages and adds the step's collective,
    /// evaluated once and booked into the unit's link totals too — for a
    /// replica's one shard it returns that shard's cost bit for bit, since
    /// the `Replicated` plan has no collective.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn execute_iteration(
        &mut self,
        cost: &mut CostModel,
        ctx: &SchedContext,
    ) -> Vec<Completion> {
        let mut done = Vec::new();
        self.execute_iteration_into(cost, ctx, &mut done);
        done
    }

    /// [`Self::execute_iteration`] appending into a caller-owned buffer.
    pub fn execute_iteration_into(
        &mut self,
        cost: &mut CostModel,
        ctx: &SchedContext,
        done: &mut Vec<Completion>,
    ) {
        let leader = &self.members[0];
        assert!(!leader.running.is_empty(), "executing an empty batch");
        let model = leader
            .active_model
            .expect("a non-empty batch always has an active model");
        let info = ctx.info(model);
        let phase = leader.batch_phase(info.period);
        let batch = leader.running.len() as u64;

        // Moving to a new tenant releases the followers' old shard pins
        // (the leader moved its own pin during admission seeding).
        if self.last_model != Some(model) {
            if let Some(old) = self.last_model {
                for m in &mut self.members[1..] {
                    m.unpin_weights(old);
                }
            }
            self.last_model = Some(model);
        }

        self.costs.clear();
        for member in &mut self.members {
            self.costs
                .push(member.price_step(cost, ctx, info, batch, phase));
        }
        let plan = info.plan(self.strategy);
        let collective = plan.collective(batch);
        let gang_cost = plan.combine(&self.costs, collective);
        self.collective_ms += collective.ms;
        self.collective_bytes += collective.bytes;
        // The link energy is booked on the leader along with its shard; the
        // whole gang is occupied for the combined latency (lockstep).
        let link_energy = gang_cost.energy_mj - self.costs.iter().map(|c| c.energy_mj).sum::<f64>();
        let latency_ms = gang_cost.latency_ms;
        let leader_energy_mj = self.costs[0].energy_mj + link_energy;
        self.members[0].finish_iteration_into(latency_ms, leader_energy_mj, phase, done);
        let now = self.members[0].now_ms;
        for (member, c) in self.members[1..].iter_mut().zip(&self.costs[1..]) {
            member.advance_lockstep(now, latency_ms, c.energy_mj);
        }
    }

    /// Per-member accounting over a makespan.
    pub fn member_stats(&self, makespan_ms: f64) -> Vec<InstanceStats> {
        self.members.iter().map(|m| m.stats(makespan_ms)).collect()
    }

    /// Gang-level accounting over a makespan.
    pub fn stats(&self, makespan_ms: f64) -> GangStats {
        let leader = self.members[0].stats(makespan_ms);
        GangStats {
            strategy: self.strategy.label(),
            members: self.members.len(),
            iterations: leader.iterations,
            utilization: leader.utilization,
            collective_ms: self.collective_ms,
            collective_bytes: self.collective_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fcfs;
    use crate::request::Request;
    use exion_model::config::ModelConfig;
    use exion_sim::perf::SimAblation;
    use std::sync::Arc;

    fn tiny(kind: ModelKind) -> ModelConfig {
        ModelConfig::for_kind(kind).shrunk(1, 12)
    }

    #[test]
    fn placement_shapes() {
        let rep = Placement::replicated(3);
        assert_eq!(rep.units(), 3);
        assert_eq!(rep.total_instances(), 3);
        let tp = Placement::sharded(2, PartitionStrategy::Tensor { ways: 2 });
        assert_eq!(tp.units(), 2);
        assert_eq!(tp.total_instances(), 4);
        let mixed = Placement::mixed(1, 1, PartitionStrategy::Pipeline { stages: 3 });
        assert_eq!(mixed.units(), 2);
        assert_eq!(mixed.total_instances(), 4);
    }

    #[test]
    fn sharded_gang_runs_a_batch_with_per_member_residency() {
        let hw = HwConfig::exion4();
        let mut cost = CostModel::new(hw, SimAblation::All);
        let strategy = PartitionStrategy::Tensor { ways: 2 };
        let ctx = SchedContext::build(
            Arc::new(Fcfs),
            4,
            &[ModelKind::VideoCrafter2],
            &mut cost,
            Interconnect::default(),
            tiny,
            Some(strategy),
        );
        let mut gang = Gang::sharded(0, &hw, EvictionPolicy::Lru, strategy);
        assert!(gang.is_sharded());
        let steps = tiny(ModelKind::VideoCrafter2).iterations;
        let mut queue = ReadyQueue::from_requests(
            vec![Request::new(0, ModelKind::VideoCrafter2, 0.0, 1e9, steps)],
            &ctx,
        );
        gang.admit(&mut queue, &ctx);
        let mut done = Vec::new();
        while !gang.is_idle() {
            done.extend(gang.execute_iteration(&mut cost, &ctx));
        }
        assert_eq!(done.len(), 1);
        // Both members carried weight traffic for their own shard, priced
        // in their own GSC.
        let stats = gang.member_stats(gang.now_ms());
        for (i, s) in stats.iter().enumerate() {
            assert!(
                s.weight_hit_bytes + s.weight_refill_bytes > 0,
                "member {i} saw no weight traffic"
            );
        }
        // Lockstep: every member was busy for the same wall-clock span.
        assert!((stats[0].utilization - stats[1].utilization).abs() < 1e-9);
        // The gang accrued interconnect traffic.
        let g = gang.stats(gang.now_ms());
        assert!(g.collective_bytes > 0);
        assert!(g.collective_ms > 0.0);
        assert_eq!(g.members, 2);
        assert_eq!(g.strategy, "tp2");
    }
}
