//! Differential pin of the indexed scheduler: on randomized traces the
//! bucket-indexed admission path (`Gang::admit` on a replica unit) must
//! make decisions identical to the retained linear-scan reference
//! (`Instance::admit_reference` on the leader) — same seeds, same joins,
//! same parks, same resumes, same clocks, and byte-identical queue
//! evolution — across all four builtin policies and a test-local
//! preemptive EDF over coarse deadline buckets, whose keys tie with each
//! other and with its preempt and swap bounds. The bound is the whole
//! preempt/swap rule, so only such ties exercise where its early exit
//! stops. Fingerprint parity of whole runs (sinks on and off) is pinned
//! separately by `tests/event_core.rs`' goldens; this test closes the gap
//! at the single-decision level, where a divergence is actually
//! debuggable.

use std::sync::Arc;

use exion::model::config::{ModelConfig, ModelKind};
use exion::serve::{
    policy, CostModel, Gang, ReadyQueue, Request, SchedContext, SchedSnapshot, SchedulerPolicy,
};
use exion::sim::config::HwConfig;
use exion::sim::partition::Interconnect;
use exion::sim::perf::SimAblation;
use exion::sim::residency::EvictionPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const KINDS: [ModelKind; 3] = [ModelKind::Mld, ModelKind::Mdm, ModelKind::StableDiffusion];

/// Width of [`CoarsePreemptiveEdf`]'s deadline buckets (ms).
const BUCKET_MS: f64 = 50.0;

/// The 50-ms deadline bucket `deadline_ms` falls in, as its start time.
fn bucket_of(deadline_ms: f64) -> f64 {
    (deadline_ms / BUCKET_MS).floor() * BUCKET_MS
}

/// Preemptive EDF over 50-ms deadline buckets: requests in one bucket tie
/// on the key, and a candidate in the bucket of the earliest (preempt) or
/// worst (swap) running deadline ties with the bound, so it must not
/// qualify.
#[derive(Debug)]
struct CoarsePreemptiveEdf;

impl SchedulerPolicy for CoarsePreemptiveEdf {
    fn name(&self) -> &str {
        "coarse-preemptive-edf"
    }

    fn ordering_key(&self, r: &Request) -> f64 {
        bucket_of(r.deadline_ms())
    }

    fn preempt_key_bound(&self, snap: &SchedSnapshot<'_>) -> Option<f64> {
        Some(bucket_of(snap.earliest_running_deadline()))
    }

    fn swap_key_bound(&self, snap: &SchedSnapshot<'_>) -> Option<f64> {
        Some(bucket_of(snap.worst_running_deadline()))
    }
}

fn ctx_for(policy: Arc<dyn SchedulerPolicy>, max_batch: usize) -> SchedContext {
    let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
    SchedContext::build(
        policy,
        max_batch,
        &KINDS,
        &mut cost,
        Interconnect::default(),
        |k| ModelConfig::for_kind(k).shrunk(1, 12),
        None,
    )
}

/// One scripted arrival: model choice, inter-arrival gap, SLO tightness
/// (tight multipliers exercise the deadline-feasibility thrash guard and
/// the preempt/swap bounds), and — for a minority — synthetic parked
/// state (progress plus a possibly-foreign latent home), which lands the
/// request on the deferred path with a migration penalty.
#[derive(Debug, Clone)]
struct ScriptedArrival {
    kind_idx: usize,
    gap_ms: f64,
    slo_scale: f64,
    parked: Option<(usize, usize)>,
}

/// Samples one script from `seed` (the vendored proptest stub only exposes
/// range strategies, so composite shapes are drawn by hand). Roughly one
/// arrival in five is a tight-deadline straggler, one in five is effectively
/// unbounded, and one in five arrives pre-parked with progress.
fn sample_script(seed: u64, len: usize) -> Vec<ScriptedArrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_D1FF);
    (0..len)
        .map(|_| {
            let slo_scale = match rng.random_range(0u8..5) {
                0 => 0.05,
                4 => 1e6,
                _ => rng.random_range(0.5f64..4.0),
            };
            let parked = if rng.random_range(0u8..5) == 0 {
                Some((rng.random_range(1usize..6), rng.random_range(0usize..3)))
            } else {
                None
            };
            ScriptedArrival {
                kind_idx: rng.random_range(0usize..KINDS.len()),
                gap_ms: rng.random_range(0.0f64..30.0),
                slo_scale,
                parked,
            }
        })
        .collect()
}

/// Drives one (replica unit, queue) pair per scheduler through the same
/// script and asserts bit-equality after every decision.
fn run_differential(
    policy: Arc<dyn SchedulerPolicy>,
    max_batch: usize,
    script: &[ScriptedArrival],
) {
    let ctx = ctx_for(policy, max_batch);
    let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
    let mut unit_a = Gang::replica(0, &HwConfig::exion4(), EvictionPolicy::Lru);
    let mut unit_b = Gang::replica(0, &HwConfig::exion4(), EvictionPolicy::Lru);
    let mut queue_a = ReadyQueue::new();
    let mut queue_b = ReadyQueue::new();

    let mut next_id = 0u64;
    let mut pending = script.iter();
    // Worst case every request runs its full 12 iterations solo, plus the
    // admit-only hops while arrivals trickle in.
    let mut steps_left = 16 * script.len() * 12 + 256;
    loop {
        // Release the next scripted arrival at (or after) the current
        // clock so fresh requests are visible by construction — the same
        // contract the cluster's releaser upholds.
        if let Some(a) = pending.next() {
            let kind = KINDS[a.kind_idx];
            let info = ctx.info(kind);
            let at_ms = unit_a.now_ms() + a.gap_ms;
            let steps = info.config.iterations;
            let slo_ms = a.slo_scale * steps as f64 * info.warm_step_ms;
            let mut r = Request::new(next_id, kind, at_ms, slo_ms, steps);
            next_id += 1;
            if let Some((done, home)) = a.parked {
                r.steps_done = done.min(steps.saturating_sub(1)).max(1);
                r.preemptions = 1;
                r.parked_on = Some(home);
            }
            // The clock may sit behind the arrival: jump both mirrors
            // forward so the push lands visible (release semantics).
            unit_a.jump_to(at_ms);
            unit_b.jump_to(at_ms);
            queue_a.push(r, &ctx);
            queue_b.push(r, &ctx);
        } else if queue_a.is_empty() && unit_a.leader().running.is_empty() {
            break;
        }
        steps_left -= 1;
        assert!(steps_left > 0, "differential driver failed to drain");

        let out_a = unit_a.admit(&mut queue_a, &ctx);
        let out_b = unit_b.members[0].admit_reference(&mut queue_b, &ctx, &mut []);
        assert_eq!(out_a, out_b, "admit outcomes diverged");
        assert_eq!(
            unit_a.leader().running,
            unit_b.leader().running,
            "running batches diverged after admit"
        );
        assert_eq!(
            queue_a.as_slice(),
            queue_b.as_slice(),
            "queue evolution diverged after admit"
        );
        assert_eq!(
            unit_a.now_ms().to_bits(),
            unit_b.now_ms().to_bits(),
            "clocks diverged after admit"
        );
        assert_eq!(unit_a.leader().active_model, unit_b.leader().active_model);

        if unit_a.leader().running.is_empty() {
            // Nothing admissible yet (a deferred request's ready time lies
            // ahead): jump past the earliest wake like the cluster would.
            if pending.len() == 0 {
                let wake = queue_a
                    .iter()
                    .map(|r| r.ready_ms)
                    .fold(f64::INFINITY, f64::min);
                assert!(wake.is_finite(), "stuck with an empty batch");
                unit_a.jump_to(wake);
                unit_b.jump_to(wake);
            }
            continue;
        }
        let done_a = unit_a.execute_iteration(&mut cost, &ctx);
        let done_b = unit_b.execute_iteration(&mut cost, &ctx);
        assert_eq!(done_a, done_b, "completions diverged");
        assert_eq!(
            unit_a.now_ms().to_bits(),
            unit_b.now_ms().to_bits(),
            "clocks diverged after execute"
        );
    }
    assert_eq!(queue_a.len(), 0);
    assert_eq!(
        unit_a.leader().stats(1.0).preemptions,
        unit_b.leader().stats(1.0).preemptions
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(480))]

    #[test]
    fn indexed_admission_matches_the_linear_reference(
        policy_idx in 0usize..5,
        max_batch in 1usize..6,
        script_len in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut policies = policy::builtin_policies();
        prop_assert_eq!(policies.len(), 4, "differential covers every builtin");
        policies.push(Arc::new(CoarsePreemptiveEdf));
        let script = sample_script(seed, script_len);
        run_differential(policies[policy_idx].clone(), max_batch, &script);
    }
}
