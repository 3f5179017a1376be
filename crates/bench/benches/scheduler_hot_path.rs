//! Bench of the scheduler's per-boundary decision cost at queue depth 16 /
//! 1k / 16k: the indexed admission path (`Gang::admit` on a replica unit,
//! bucket argmins + bounded preempt/swap scans) against the retained
//! linear-scan reference (`Instance::admit_reference` on the unit's
//! leader), plus the indexed path on a TP=2 gang, whose iterations price
//! and combine two shards. Each sample clones a prebuilt (unit, queue) pair
//! once and then runs a burst of boundary decisions (admit + execute), so
//! the clone amortizes and the measured delta is the decision path itself.
//! Run with `cargo bench -p exion-bench --bench scheduler_hot_path`; it
//! prints the mean time of each of the nine cases. Numbers are recorded in
//! `crates/bench/benches/README.md`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exion_model::config::{ModelConfig, ModelKind};
use exion_serve::{
    policy, AdmitOutcome, CostModel, Gang, PartitionStrategy, ReadyQueue, Request, SchedContext,
};
use exion_sim::config::HwConfig;
use exion_sim::partition::Interconnect;
use exion_sim::perf::SimAblation;
use exion_sim::residency::EvictionPolicy;

const KINDS: [ModelKind; 3] = [ModelKind::Mld, ModelKind::Mdm, ModelKind::StableDiffusion];

/// Boundary decisions per sample (one clone amortized across the burst).
const BURST: usize = 64;

fn config(kind: ModelKind) -> ModelConfig {
    ModelConfig::for_kind(kind).shrunk(1, 12)
}

/// A context whose models are cut under `strategy`: the `Replicated` plan
/// the context always carries, plus a gang plan for any other strategy.
fn ctx_for(policy: Arc<dyn policy::SchedulerPolicy>, strategy: PartitionStrategy) -> SchedContext {
    let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
    SchedContext::build(
        policy,
        8,
        &KINDS,
        &mut cost,
        Interconnect::default(),
        config,
        (strategy != PartitionStrategy::Replicated).then_some(strategy),
    )
}

/// A `depth`-deep ready queue of mixed-model, mixed-deadline arrivals, all
/// released by `now` (the deep-backlog shape: everything visible, nothing
/// parked), plus a `strategy` unit whose clock sits past the last arrival.
fn seed_state(ctx: &SchedContext, depth: usize, strategy: PartitionStrategy) -> (Gang, ReadyQueue) {
    let mut requests = Vec::with_capacity(depth);
    for id in 0..depth as u64 {
        let kind = KINDS[(id % 3) as usize];
        let info = ctx.info(kind);
        let arrival_ms = 0.1 * id as f64;
        let steps = info.config.iterations;
        // Deadline spread wide enough that EDF ordering is non-trivial.
        let slo_ms = (1.0 + (id % 17) as f64) * steps as f64 * info.warm_step_ms;
        requests.push(Request::new(id, kind, arrival_ms, slo_ms, steps));
    }
    let last_arrival = 0.1 * depth.saturating_sub(1) as f64;
    let mut unit = Gang::sharded(0, &HwConfig::exion4(), EvictionPolicy::Lru, strategy);
    unit.jump_to(last_arrival);
    (unit, ReadyQueue::from_requests(requests, ctx))
}

/// Runs one burst of boundary decisions from a clone of `seed`, admitting
/// with `admit` and executing through the unit.
fn burst(
    seed: &(Gang, ReadyQueue),
    ctx: &SchedContext,
    cost: &mut CostModel,
    admit: impl Fn(&mut Gang, &mut ReadyQueue) -> AdmitOutcome,
) -> usize {
    let (mut unit, mut queue) = seed.clone();
    for _ in 0..BURST {
        black_box(admit(&mut unit, &mut queue).admitted.len());
        if !unit.is_idle() {
            black_box(unit.execute_iteration(cost, ctx).len());
        }
    }
    queue.len()
}

/// Times one case: a warm-up call, then a batch sized to about 50 ms and
/// capped at 1,000 calls, and prints the batch's mean time per call.
fn time_case(label: &str, mut routine: impl FnMut() -> usize) {
    let start = Instant::now();
    black_box(routine());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let calls = (Duration::from_millis(50).as_nanos() / once.as_nanos()).clamp(1, 1000) as u32;
    let start = Instant::now();
    for _ in 0..calls {
        black_box(routine());
    }
    let mean_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(calls);
    println!("bench scheduler_hot_path/{label:<20} {mean_us:>12.2} µs/iter");
}

fn main() {
    let policy = policy::by_name("preemptive-edf").expect("builtin");
    let tp2 = PartitionStrategy::Tensor { ways: 2 };
    let ctx = ctx_for(policy.clone(), PartitionStrategy::Replicated);
    let gang_ctx = ctx_for(policy, tp2);
    let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
    for depth in [16usize, 1_000, 16_000] {
        let seed = seed_state(&ctx, depth, PartitionStrategy::Replicated);
        time_case(&format!("indexed/{depth}"), || {
            burst(&seed, &ctx, &mut cost, |unit, queue| {
                unit.admit(queue, &ctx)
            })
        });
        time_case(&format!("reference/{depth}"), || {
            burst(&seed, &ctx, &mut cost, |unit, queue| {
                unit.members[0].admit_reference(queue, &ctx, &mut [])
            })
        });
        let gang_seed = seed_state(&gang_ctx, depth, tp2);
        time_case(&format!("tp2_gang/{depth}"), || {
            burst(&gang_seed, &gang_ctx, &mut cost, |unit, queue| {
                unit.admit(queue, &gang_ctx)
            })
        });
    }
}
