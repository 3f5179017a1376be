//! Scheduler, residency, and control-plane invariants of the serving
//! simulator: conservation (every admitted request completes exactly once;
//! preempt/resume never loses or duplicates a DDIM step; under shedding,
//! served + shed + in-flight == arrivals), monotonicity (mean latency is
//! non-decreasing in offered load), determinism (identical seeds give
//! identical traces and reports), GSC capacity safety (occupancy never
//! exceeds capacity under any op sequence), the preemption win (the urgent
//! tenant class's p95 under preemptive EDF beats non-preemptive EDF and
//! FCFS on the seeded bursty trace), degrade-budget safety (a degraded
//! request's step budget stays deadline-feasible and above the quality
//! floor), the trait-based control plane's exact parity with the
//! pre-refactor enum scheduler on a fixed seed, and goldens that pin every
//! planner candidate score and capacity estimate bit for bit.

use std::collections::HashSet;

use exion::model::config::{ModelConfig, ModelKind};
use exion::serve::{
    gsc_feasible, policy, CostModel, Placement, PlacementPlanner, PlannerConfig, Request,
    SchedulerPolicy, ServeConfig, ServeReport, ServeSimulator, TraceConfig, TrafficPattern,
    WorkloadMix,
};
use exion::sim::config::HwConfig;
use exion::sim::partition::{Interconnect, PartitionPlan, PartitionStrategy, Topology};
use exion::sim::residency::{model_weight_bytes, EvictionPolicy, GscCache, GscObject};
use exion_bench::experiments::serve_sweep::{bursty_trace, bursty_trace_over};
use proptest::prelude::*;

fn motion_trace(rate_rps: f64, seed: u64) -> TraceConfig {
    TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps },
        horizon_ms: 1_500.0,
        seed,
        mix: WorkloadMix::text_to_motion(),
    }
}

#[test]
fn conservation_every_request_completes_exactly_once() {
    for policy in policy::builtin_policies() {
        for instances in [1, 3] {
            let mut sim = ServeSimulator::new(
                ServeConfig::builder(HwConfig::exion4())
                    .policy_arc(policy.clone())
                    .instances(instances)
                    .build(),
            );
            let capacity = sim.capacity_estimate_rps(&WorkloadMix::text_to_motion());
            let report = sim.run(&motion_trace(0.8 * capacity, 11));
            assert!(report.arrivals > 0);
            assert_eq!(
                report.completed,
                report.arrivals,
                "{} x{instances}: dropped or duplicated requests",
                policy.name()
            );
            let ids: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
            assert_eq!(ids.len(), report.completed, "duplicate completion ids");
            for c in &report.completions {
                assert!(c.arrival_ms <= c.admitted_ms, "admitted before arrival");
                assert!(c.admitted_ms < c.finished_ms, "finished before admission");
            }
        }
    }
}

#[test]
fn mean_latency_monotone_in_arrival_rate() {
    let mut sim = ServeSimulator::new(ServeConfig::new(HwConfig::exion4()));
    let capacity = sim.capacity_estimate_rps(&WorkloadMix::text_to_motion());
    let mut prev = 0.0f64;
    for frac in [0.25, 0.5, 1.0, 1.5] {
        let report = sim.run(&motion_trace(frac * capacity, 7));
        let mean = report.latency.mean;
        // Small tolerance: traces at different rates are different discrete
        // samples, so exact monotonicity only holds in expectation.
        assert!(
            mean >= 0.95 * prev,
            "mean latency fell from {prev} to {mean} at load {frac}"
        );
        prev = prev.max(mean);
    }
    // Across the sweep the knee must be visible end to end.
    assert!(prev > 0.0);
}

#[test]
fn identical_seeds_identical_reports() {
    let config = ServeConfig::builder(HwConfig::exion24())
        .policy_name("edf")
        .build();
    let trace = motion_trace(40.0, 123);
    let a = ServeSimulator::new(config.clone()).run(&trace);
    let b = ServeSimulator::new(config.clone()).run(&trace);
    assert_eq!(a, b, "same seed and config must reproduce bit-identically");

    let c = ServeSimulator::new(config).run(&motion_trace(40.0, 124));
    assert_ne!(a.completions, c.completions, "different seeds must differ");
}

#[test]
fn registry_and_struct_configs_are_equivalent() {
    // Choosing the policy and admission controller by name and passing the
    // concrete types must configure the identical control plane.
    let trace = motion_trace(45.0, 321);
    let by_name = ServeSimulator::new(
        ServeConfig::builder(HwConfig::exion4())
            .policy_name("preemptive-edf")
            .admission_name("deadline")
            .build(),
    )
    .run(&trace);
    let by_struct = ServeSimulator::new(
        ServeConfig::builder(HwConfig::exion4())
            .policy(exion::serve::PreemptiveEdf)
            .admission(exion::serve::DeadlineFeasibility::default())
            .build(),
    )
    .run(&trace);
    assert_eq!(by_name, by_struct);
}

#[test]
fn custom_policy_plugs_into_the_builder() {
    // The README's custom-policy example at a shorter horizon: any
    // `SchedulerPolicy` implementation drops into the builder as a plain
    // type.
    /// A custom policy: shortest-remaining-work-first.
    #[derive(Debug)]
    struct Srwf;

    impl SchedulerPolicy for Srwf {
        fn name(&self) -> &str {
            "srwf"
        }
        // Stable while queued: a queued request's remaining steps never
        // change, and a parked request is re-pushed with its new count.
        fn ordering_key(&self, r: &Request) -> f64 {
            r.steps_left() as f64
        }
    }

    let config = ServeConfig::builder(HwConfig::exion24())
        .instances(2)
        .policy(Srwf)
        .admission_name("deadline")
        .build();
    let report = ServeSimulator::new(config).run(&TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: 120.0 },
        horizon_ms: 1_000.0,
        seed: 42,
        mix: WorkloadMix::multi_tenant(),
    });
    assert_eq!(report.policy, "srwf");
    assert!(report.arrivals > 0);
    assert_eq!(
        report.completed + report.shed_requests + report.lost_requests,
        report.arrivals,
        "every arrival is served, shed or lost"
    );
}

#[test]
fn sparsity_aware_preserves_sparse_iterations() {
    // Single-tenant image traffic at steady load: the sparsity-aware gate
    // must never run fewer sparse-phase iterations than free admission.
    let run_with = |policy: &str| {
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(HwConfig::exion24())
                .policy_name(policy)
                .build(),
        );
        let capacity = sim.capacity_estimate_rps(&WorkloadMix::text_to_image());
        sim.run(&TraceConfig {
            pattern: TrafficPattern::Poisson {
                rate_rps: 0.85 * capacity,
            },
            horizon_ms: 1_500.0,
            seed: 31,
            mix: WorkloadMix::text_to_image(),
        })
    };
    let fcfs = run_with("fcfs");
    let aligned = run_with("sparsity-aware");
    assert!(
        aligned.sparse_iteration_frac >= fcfs.sparse_iteration_frac,
        "aligned {} vs fcfs {}",
        aligned.sparse_iteration_frac,
        fcfs.sparse_iteration_frac
    );
}

/// Runs the seeded bursty-MMPP multi-tenant trace (the acceptance trace of
/// the preemption work) under `policy` on EXION24 at 85% load.
fn bursty_run(policy: &str) -> exion::serve::ServeReport {
    let mut sim = ServeSimulator::new(
        ServeConfig::builder(HwConfig::exion24())
            .policy_name(policy)
            .build(),
    );
    let capacity = sim.capacity_estimate_rps(&WorkloadMix::multi_tenant());
    sim.run(&bursty_trace(capacity, 0.85, 2_000.0))
}

#[test]
fn preemption_conserves_ddim_steps() {
    let report = bursty_run("preemptive-edf");
    assert_eq!(report.completed, report.arrivals, "dropped or duplicated");
    assert!(report.preemptions > 0, "the bursty trace must preempt");
    // Every executed batch row is one DDIM step of one request; park/resume
    // must neither lose nor duplicate any: the rows the cluster executed
    // equal exactly the steps the completed requests demanded.
    let demanded: u64 = report
        .completions
        .iter()
        .map(|c| ModelConfig::for_kind(c.model).iterations as u64)
        .sum();
    let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
    assert_eq!(demanded, executed, "DDIM steps not conserved");
    // Preempted requests really resumed rather than restarting.
    assert!(report.completions.iter().any(|c| c.preemptions > 0));
}

#[test]
fn preemptive_edf_protects_the_urgent_class() {
    let fcfs = bursty_run("fcfs");
    let edf = bursty_run("edf");
    let preemptive = bursty_run("preemptive-edf");
    assert!(preemptive.preemptions > 0);
    assert_eq!(edf.preemptions, 0, "non-preemptive EDF must not park");
    // The urgent (3x-SLO) tenants' p95 must strictly improve over
    // non-preemptive EDF, and never regress against FCFS.
    for kind in [ModelKind::Mld, ModelKind::Mdm] {
        let pre = preemptive.class_latency(kind).p95;
        let non = edf.class_latency(kind).p95;
        let base = fcfs.class_latency(kind).p95;
        assert!(
            pre < non,
            "{}: preemptive p95 {pre} vs edf {non}",
            kind.name()
        );
        assert!(
            pre <= base,
            "{}: preemptive p95 {pre} vs fcfs {base}",
            kind.name()
        );
    }
    // Residency accounting is live and reported.
    assert!(preemptive.residency_hit_rate > 0.0 && preemptive.residency_hit_rate < 1.0);
    assert!(preemptive.weight_refill_bytes > 0);
}

#[test]
fn eviction_policies_preserve_conservation() {
    // Two instances: parked requests may migrate across GSCs on resume.
    for eviction in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(HwConfig::exion4())
                .policy_name("preemptive-edf")
                .eviction(eviction)
                .instances(2)
                .build(),
        );
        let capacity = sim.capacity_estimate_rps(&WorkloadMix::multi_tenant());
        let report = sim.run(&bursty_trace(capacity, 1.7, 1_200.0));
        assert_eq!(report.completed, report.arrivals, "{}", eviction.name());
        let demanded: u64 = report
            .completions
            .iter()
            .map(|c| ModelConfig::for_kind(c.model).iterations as u64)
            .sum();
        let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
        assert_eq!(demanded, executed, "{}", eviction.name());
    }
}

/// Tiny deterministic generator for the cache op fuzzer (the vendored
/// proptest has no collection strategies, so the op stream derives from a
/// sampled seed).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GSC invariant: whatever sequence of requests (pinned or not),
    /// removals, and pin flips runs against the cache, occupancy never
    /// exceeds capacity and resident fractions stay in [0, 1].
    #[test]
    fn gsc_occupancy_never_exceeds_capacity(
        seed in 0u64..100_000,
        capacity_mib in 1u64..96,
        ops in 16usize..120,
    ) {
        const MIB: u64 = 1024 * 1024;
        let mut rng = XorShift(seed);
        for policy in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
            let mut gsc = GscCache::new(capacity_mib * MIB, policy);
            for _ in 0..ops {
                let obj = if rng.next().is_multiple_of(2) {
                    GscObject::WeightShard {
                        model: ModelKind::ALL[(rng.next() % 7) as usize],
                        shard: 0,
                    }
                } else {
                    GscObject::Latent(rng.next() % 12)
                };
                match rng.next() % 8 {
                    0 => {
                        gsc.remove(obj);
                    }
                    1 => gsc.set_pinned(obj, rng.next().is_multiple_of(2)),
                    _ => {
                        // Footprints up to 2x capacity exercise the
                        // partial-residency truncation path.
                        let bytes = rng.next() % (2 * capacity_mib * MIB);
                        let cost = (rng.next() % 1000) as f64 / 100.0;
                        let pinned = rng.next().is_multiple_of(4);
                        let out = gsc.request(obj, bytes, cost, pinned);
                        prop_assert!(out.resident_bytes <= bytes);
                        prop_assert!(out.prior_bytes + out.refilled_bytes == bytes);
                    }
                }
                prop_assert!(
                    gsc.occupancy_bytes() <= gsc.capacity_bytes(),
                    "occupancy {} over capacity {} under {}",
                    gsc.occupancy_bytes(),
                    gsc.capacity_bytes(),
                    policy.name()
                );
                let frac = gsc.resident_fraction(obj);
                prop_assert!((0.0..=1.0).contains(&frac));
            }
        }
    }
}

#[test]
fn size_skew_mix_separates_cost_aware_eviction_from_lru() {
    // VideoCrafter2's working set dwarfs the GSC while MLD fits many times
    // over; under preemption the parked latents give eviction a real
    // choice, and ranking victims by refill cost keeps more of the
    // expensive tenant resident than recency does. (On the multi-tenant
    // mix the refill costs are too similar for the policies to diverge —
    // this mix exists to separate them.)
    let run_with = |eviction: EvictionPolicy| {
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(HwConfig::exion4())
                .policy_name("preemptive-edf")
                .eviction(eviction)
                .build(),
        );
        let capacity = sim.capacity_estimate_rps(&WorkloadMix::size_skew());
        sim.run(&TraceConfig {
            pattern: TrafficPattern::Bursty {
                rate_rps: 1.0,
                burst_multiplier: 4.0,
                mean_dwell_ms: 400.0,
            }
            .with_mean_rps(0.9 * capacity),
            horizon_ms: 2_500.0,
            seed: 0x5E17E,
            mix: WorkloadMix::size_skew(),
        })
    };
    let lru = run_with(EvictionPolicy::Lru);
    let cost_aware = run_with(EvictionPolicy::CostAware);
    assert_eq!(lru.completed, lru.arrivals);
    assert_eq!(cost_aware.completed, cost_aware.arrivals);
    assert!(lru.preemptions > 0, "the skewed bursty trace must preempt");
    assert!(
        cost_aware.weight_refill_bytes < lru.weight_refill_bytes,
        "cost-aware refilled {} vs LRU {}",
        cost_aware.weight_refill_bytes,
        lru.weight_refill_bytes
    );
    assert!(
        cost_aware.residency_hit_rate > lru.residency_hit_rate,
        "cost-aware hit {} vs LRU {}",
        cost_aware.residency_hit_rate,
        lru.residency_hit_rate
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharding invariant: for any strategy and degree, the per-shard
    /// weight working-set bytes partition the whole model's bytes exactly —
    /// nothing double-counted, nothing dropped.
    #[test]
    fn shard_bytes_always_sum_to_the_model(
        kind_idx in 0usize..7,
        tensor in 0u64..2,
        degree in 1u32..7,
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let model = ModelConfig::for_kind(kind);
        let strategy = if tensor == 1 {
            PartitionStrategy::Tensor { ways: degree }
        } else {
            PartitionStrategy::Pipeline { stages: degree }
        };
        let bpo = HwConfig::exion4().operand_bytes();
        let plan = PartitionPlan::new(&model, strategy, Interconnect::default(), bpo);
        prop_assert_eq!(plan.num_shards(), strategy.degree());
        let sum: u64 = (0..plan.num_shards()).map(|s| plan.shard_weight_bytes(s)).sum();
        prop_assert_eq!(sum, model_weight_bytes(&model, bpo), "{} {}", kind.name(), strategy.label());
        prop_assert_eq!(plan.total_weight_bytes(), sum);
    }
}

/// Runs the text-to-video trace on a sharded placement.
fn sharded_run(strategy: PartitionStrategy, rate_rps: f64, seed: u64) -> exion::serve::ServeReport {
    let mut sim = ServeSimulator::new(
        ServeConfig::builder(HwConfig::exion4())
            .placement(Placement::sharded(1, strategy))
            .build(),
    );
    sim.run(&TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps },
        horizon_ms: 1_500.0,
        seed,
        mix: WorkloadMix::text_to_video(),
    })
}

#[test]
fn gang_scheduling_is_deterministic_under_a_fixed_seed() {
    for strategy in [
        PartitionStrategy::Tensor { ways: 2 },
        PartitionStrategy::Pipeline { stages: 2 },
    ] {
        let a = sharded_run(strategy, 1.0, 77);
        let b = sharded_run(strategy, 1.0, 77);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce bit-identically",
            strategy.label()
        );
        let c = sharded_run(strategy, 1.0, 78);
        assert_ne!(a.completions, c.completions, "{}", strategy.label());
    }
}

#[test]
fn gangs_serve_a_working_set_exceeding_model_with_per_shard_residency() {
    // The acceptance scenario: VideoCrafter2's per-iteration weight bytes
    // exceed one instance's GSC outright, yet a TP=2 (and a PP=2) gang
    // serves it with each member accounting its own shard's residency.
    let hw = HwConfig::exion4();
    let model = ModelConfig::for_kind(ModelKind::VideoCrafter2);
    let total = model_weight_bytes(&model, hw.operand_bytes());
    assert!(total as f64 > hw.gsc_bytes(), "VC2 must exceed the GSC");
    for strategy in [
        PartitionStrategy::Tensor { ways: 2 },
        PartitionStrategy::Pipeline { stages: 2 },
    ] {
        let report = sharded_run(strategy, 1.2, 13);
        assert!(report.arrivals > 0);
        assert_eq!(report.completed, report.arrivals, "{}", strategy.label());
        assert_eq!(report.gangs, 1);
        assert_eq!(report.per_instance.len(), 2);
        assert_eq!(report.per_gang[0].strategy, strategy.label());
        assert!(report.collective_bytes > 0, "{}", strategy.label());
        // Every member moved weight bytes for its own shard, and each
        // shard's working set (about half the model) still exceeds what a
        // 64 MiB GSC can hold — residency stays partial *per member*.
        for (i, inst) in report.per_instance.iter().enumerate() {
            let traffic = inst.weight_hit_bytes + inst.weight_refill_bytes;
            assert!(
                traffic > 0,
                "{} member {i} saw no weight traffic",
                strategy.label()
            );
            assert!(
                inst.residency_hit_rate < 1.0,
                "{} member {i}: an oversized shard cannot be fully resident",
                strategy.label()
            );
        }
        // DDIM-step conservation holds through gang execution.
        let demanded: u64 = report
            .completions
            .iter()
            .map(|c| ModelConfig::for_kind(c.model).iterations as u64)
            .sum();
        let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
        assert_eq!(demanded, executed, "{}", strategy.label());
    }
}

#[test]
fn more_instances_cut_tail_latency_at_fixed_load() {
    let report_for = |instances: usize| {
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(HwConfig::exion4())
                .instances(instances)
                .build(),
        );
        // Load that saturates one instance but not three.
        let one_cap = {
            let mut probe = ServeSimulator::new(ServeConfig::new(HwConfig::exion4()));
            probe.capacity_estimate_rps(&WorkloadMix::text_to_motion())
        };
        sim.run(&motion_trace(1.2 * one_cap, 99))
    };
    let single = report_for(1);
    let triple = report_for(3);
    assert!(
        triple.latency.p99 < single.latency.p99,
        "p99 {} vs {}",
        triple.latency.p99,
        single.latency.p99
    );
    assert!(triple.throughput_rps >= single.throughput_rps);
}

/// Order-insensitive-free FNV-style fold over the report's completion
/// stream (ids ascending) — the parity currency of the control-plane
/// refactor. Must match the capture harness that recorded the pre-refactor
/// fingerprints bit for bit.
fn fingerprint(report: &ServeReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(report.arrivals as u64);
    for c in &report.completions {
        mix(c.id);
        mix(c.finished_ms.to_bits());
        mix(c.admitted_ms.to_bits());
        mix(c.instance as u64);
        mix(c.preemptions as u64);
    }
    h
}

#[test]
fn trait_policies_reproduce_the_pre_refactor_enum_runs() {
    // The fingerprints below were captured on this trace with the closed
    // `Policy` enum scheduler immediately before the trait-based control
    // plane replaced it (same toolchain, same seed). The trait-based FCFS
    // and EDF must reproduce those runs bit for bit: identical completion
    // ids, clocks (f64 bit patterns), instance assignments, and preemption
    // counts.
    let trace = TraceConfig {
        pattern: TrafficPattern::Bursty {
            rate_rps: 1.0,
            burst_multiplier: 4.0,
            mean_dwell_ms: 400.0,
        }
        .with_mean_rps(60.0),
        horizon_ms: 1_500.0,
        seed: 0xEA51,
        mix: WorkloadMix::multi_tenant(),
    };
    for (policy, expected) in [
        ("fcfs", 0xecc9_1e60_64ac_e07f_u64),
        ("edf", 0xfe6d_71da_5c2d_5525_u64),
    ] {
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(HwConfig::exion24())
                .policy_name(policy)
                .build(),
        );
        let report = sim.run(&trace);
        assert_eq!(report.arrivals, 114, "{policy}: trace changed");
        assert_eq!(report.completed, 114, "{policy}: conservation changed");
        assert_eq!(
            fingerprint(&report),
            expected,
            "{policy}: trait-based run diverged from the pre-refactor enum run"
        );
    }
}

/// Runs the bursty motion trace under deadline-feasibility admission.
fn deadline_run(load_frac: f64, horizon_ms: f64, seed_shift: u64) -> ServeReport {
    let mix = WorkloadMix::text_to_motion();
    let capacity =
        ServeSimulator::new(ServeConfig::new(HwConfig::exion4())).capacity_estimate_rps(&mix);
    let mut trace = bursty_trace_over(capacity, load_frac, horizon_ms, mix);
    trace.seed ^= seed_shift;
    ServeSimulator::new(
        ServeConfig::builder(HwConfig::exion4())
            .policy_name("edf")
            .admission_name("deadline")
            .build(),
    )
    .run(&trace)
}

#[test]
fn shedding_conserves_requests_and_degrades_within_budget() {
    let report = deadline_run(1.5, 2_000.0, 0);
    assert!(report.arrivals > 0);
    assert!(report.shed_requests > 0, "1.5x load must shed");
    assert!(report.degraded_requests > 0, "1.5x load must degrade");
    // Conservation under shedding: the cluster drains, so in-flight is
    // zero and served + shed == arrivals, with disjoint id sets.
    assert_eq!(report.completed + report.shed_requests, report.arrivals);
    let completed: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
    let shed: HashSet<u64> = report.sheds.iter().map(|s| s.id).collect();
    assert_eq!(completed.len(), report.completed);
    assert_eq!(shed.len(), report.shed_requests);
    assert!(
        completed.is_disjoint(&shed),
        "a shed request cannot complete"
    );
    // Executed rows match the (possibly degraded) step budgets exactly.
    let demanded: u64 = report.completions.iter().map(|c| c.steps as u64).sum();
    let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
    assert_eq!(demanded, executed, "DDIM steps not conserved under degrade");
    // Per-class shed accounting adds up.
    let class_sheds: usize = WorkloadMix::text_to_motion()
        .kinds()
        .iter()
        .map(|&k| report.sheds.iter().filter(|s| s.model == k).count())
        .sum();
    assert_eq!(class_sheds, report.shed_requests);
    for &kind in &WorkloadMix::text_to_motion().kinds() {
        let rate = report.class_shed_rate(kind);
        assert!((0.0..=1.0).contains(&rate), "{}: {rate}", kind.name());
    }
    // Degrade-budget safety: every degraded completion ran fewer steps
    // than the full schedule, at least the 50% quality floor, and its
    // budget was deadline-feasible at the full-batch service rate when it
    // was admitted (wait >= 0, so steps * step_ms <= SLO slack).
    let mut cost =
        exion::serve::CostModel::new(HwConfig::exion4(), exion::sim::perf::SimAblation::All);
    let degraded: Vec<_> = report.completions.iter().filter(|c| c.degraded).collect();
    assert!(!degraded.is_empty());
    for c in &degraded {
        let config = ModelConfig::for_kind(c.model);
        let full = config.iterations;
        let floor = (0.5 * full as f64).ceil() as usize;
        assert!(c.steps < full, "degraded must run fewer than {full} steps");
        assert!(c.steps >= floor, "degraded below the quality floor");
        let step_ms = cost.generation_latency_ms(&config, 8) / full.max(1) as f64;
        assert!(
            c.steps as f64 * step_ms <= c.slo_ms + 1e-9,
            "budget {} x {step_ms} ms must fit the {} ms SLO",
            c.steps,
            c.slo_ms
        );
    }
    // Full-schedule completions are never marked degraded.
    for c in report.completions.iter().filter(|c| !c.degraded) {
        assert_eq!(c.steps, ModelConfig::for_kind(c.model).iterations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Request conservation under shedding holds for any seed and load:
    /// served + shed + in-flight == arrivals (in-flight is zero once the
    /// cluster drains), and every degraded completion stays inside the
    /// legal budget band.
    #[test]
    fn shedding_conservation_holds_across_seeds(
        seed_shift in 0u64..1_000,
        load_pct in 40u64..170,
    ) {
        let report = deadline_run(load_pct as f64 / 100.0, 600.0, seed_shift);
        prop_assert_eq!(
            report.completed + report.shed_requests,
            report.arrivals,
            "served + shed must equal arrivals"
        );
        let demanded: u64 = report.completions.iter().map(|c| c.steps as u64).sum();
        let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
        prop_assert_eq!(demanded, executed);
        for c in &report.completions {
            let full = ModelConfig::for_kind(c.model).iterations;
            if c.degraded {
                let floor = (0.5 * full as f64).ceil() as usize;
                prop_assert!(c.steps >= floor && c.steps < full, "budget band");
            } else {
                prop_assert_eq!(c.steps, full);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Planner invariants: for any budget, forecast, and mix, the chosen
    /// placement fits the budget, is GSC-feasible, and never scores below
    /// the worst enumerated candidate (it *is* the argmax of the beam).
    #[test]
    fn planner_output_is_gsc_feasible_and_never_worst(
        budget in 1usize..6,
        load_decirps in 1u64..40,
        mix_idx in 0usize..2,
    ) {
        let hw = HwConfig::exion4();
        let mix = if mix_idx == 0 {
            WorkloadMix::text_to_video()
        } else {
            WorkloadMix::text_to_motion()
        };
        let mut cost = CostModel::new(hw, exion::sim::perf::SimAblation::All);
        let planner = PlacementPlanner::new(PlannerConfig::new(budget));
        let forecast = load_decirps as f64 / 10.0;
        let out = planner.plan(&hw, &mix, forecast, &mut cost);
        let chosen = &out.chosen;
        prop_assert!(chosen.placement.total_instances() <= budget.max(1));
        prop_assert!(chosen.placement.units() >= 1);
        prop_assert!(
            chosen.placement.gangs == 0
                || gsc_feasible(&hw, &mix, chosen.placement.strategy),
            "{} is not GSC-feasible for the mix",
            chosen.label
        );
        let worst = out
            .candidates
            .iter()
            .map(|c| c.score)
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            chosen.score >= worst,
            "chosen {} scores {} below the worst candidate {}",
            chosen.label,
            chosen.score,
            worst
        );
        prop_assert_eq!(chosen, &out.candidates[0]);
        // Scores and projections stay finite and ordered.
        for c in &out.candidates {
            prop_assert!(c.score.is_finite());
            prop_assert!(c.capacity_rps > 0.0);
            prop_assert!((0.0..=1.0).contains(&c.slo_attainment));
        }
    }
}

/// One FNV-style step over a 64-bit word — the fold of the projection
/// goldens below.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds every field of a placement: unit counts, the strategy and the
/// fabric's link parameters.
fn fold_placement(h: u64, p: &Placement) -> u64 {
    let link = p.interconnect;
    [
        p.replicas as u64,
        p.gangs as u64,
        link.link_gbps.to_bits(),
        link.latency_us.to_bits(),
        link.pj_per_bit.to_bits(),
    ]
    .into_iter()
    .chain(p.strategy.label().bytes().map(u64::from))
    .chain(link.topology.name().bytes().map(u64::from))
    .fold(h, fnv)
}

/// Budgets the planner golden enumerates at.
const GOLDEN_BUDGETS: [usize; 5] = [1, 2, 3, 4, 8];

/// Light, mid and overload forecasts, as fractions of the budget's warm
/// replicated capacity.
const GOLDEN_LOADS: [f64; 3] = [0.1, 0.6, 2.0];

/// Placements the capacity golden estimates: replica-only, every
/// single-strategy gang placement and mixed clusters, on both fabrics.
fn capacity_golden_placements() -> Vec<Placement> {
    let tp2 = PartitionStrategy::Tensor { ways: 2 };
    let tp4 = PartitionStrategy::Tensor { ways: 4 };
    let pp2 = PartitionStrategy::Pipeline { stages: 2 };
    let pp4 = PartitionStrategy::Pipeline { stages: 4 };
    let mut out = vec![
        Placement::replicated(1),
        Placement::replicated(3),
        Placement::sharded(1, tp2),
        Placement::sharded(2, tp2),
        Placement::sharded(1, tp4),
        Placement::sharded(1, pp2),
        Placement::sharded(1, pp4),
        Placement::mixed(1, 1, tp2),
        Placement::mixed(2, 1, pp2),
        Placement::mixed(1, 1, tp4),
    ];
    let fully_connected: Vec<Placement> = out
        .iter()
        .filter(|p| p.gangs > 0)
        .map(|p| p.with_interconnect(Interconnect::all_to_all()))
        .collect();
    out.extend(fully_connected);
    out
}

/// Per hardware and mix: every `CandidateScore` field of every candidate,
/// over ring and all-to-all fabrics × `GOLDEN_BUDGETS` × `GOLDEN_LOADS`.
const PLANNER_GOLDENS: [(&str, u64); 8] = [
    ("exion4 multi-tenant", 0x5d1b_ef84_2cf4_bbb5),
    ("exion4 text-to-video", 0xa278_5e15_0b2c_a19f),
    ("exion4 size-skew", 0x7fe0_f056_d1c5_79b3),
    ("exion4 text-to-motion", 0x25e9_1269_36b8_cc29),
    ("exion24 multi-tenant", 0x05ac_3bf0_000d_c851),
    ("exion24 text-to-video", 0x4b69_545f_9a67_5d79),
    ("exion24 size-skew", 0x97f7_9bbf_847b_ebe6),
    ("exion24 text-to-motion", 0xff36_2cf5_0daa_a6d7),
];

/// Per hardware and mix: `capacity_estimate_rps` over
/// `capacity_golden_placements`.
const CAPACITY_GOLDENS: [(&str, u64); 8] = [
    ("exion4 multi-tenant", 0x4aa4_6b76_8382_e411),
    ("exion4 text-to-video", 0xfe09_84d2_b3b4_c74a),
    ("exion4 size-skew", 0x66d8_45e2_3e97_e46c),
    ("exion4 text-to-motion", 0x178c_c532_ff3c_38e3),
    ("exion24 multi-tenant", 0xfc47_6cbf_aa18_15f8),
    ("exion24 text-to-video", 0x6fb8_f562_9cff_ede1),
    ("exion24 size-skew", 0xb9a0_844c_059a_410b),
    ("exion24 text-to-motion", 0x8d68_bf34_8ad1_ca60),
];

#[test]
fn planner_scores_and_capacity_estimates_match_their_goldens() {
    let mixes = [
        ("multi-tenant", WorkloadMix::multi_tenant()),
        ("text-to-video", WorkloadMix::text_to_video()),
        ("size-skew", WorkloadMix::size_skew()),
        ("text-to-motion", WorkloadMix::text_to_motion()),
    ];
    let mut cells = Vec::new();
    for (hw_name, hw) in [
        ("exion4", HwConfig::exion4()),
        ("exion24", HwConfig::exion24()),
    ] {
        // One memo serves the whole grid: iteration costs do not depend
        // on the fabric, the budget or the forecast.
        let mut cost = CostModel::new(hw, exion::sim::perf::SimAblation::All);
        for (mix_name, mix) in &mixes {
            let total_w: f64 = mix.entries.iter().map(|&(_, w, _)| w).sum();
            let warm_spr: f64 = mix
                .entries
                .iter()
                .map(|&(kind, w, _)| {
                    w / total_w * cost.generation_latency_ms(&ModelConfig::for_kind(kind), 8)
                        / 8_000.0
                })
                .sum();
            let mut planner_h = 0xcbf2_9ce4_8422_2325;
            for interconnect in [Interconnect::ring(), Interconnect::all_to_all()] {
                for budget in GOLDEN_BUDGETS {
                    let mut config = PlannerConfig::new(budget).with_interconnect(interconnect);
                    config.beam_width = usize::MAX;
                    let planner = PlacementPlanner::new(config);
                    for load in GOLDEN_LOADS {
                        let forecast = load * budget as f64 / warm_spr;
                        for c in planner.plan(&hw, mix, forecast, &mut cost).candidates {
                            planner_h = c.label.bytes().map(u64::from).fold(planner_h, fnv);
                            planner_h = fold_placement(planner_h, &c.placement);
                            planner_h = [
                                c.capacity_rps,
                                c.latency_ms,
                                c.slo_attainment,
                                c.joules_per_request,
                                c.goodput_rps,
                                c.score,
                            ]
                            .into_iter()
                            .map(f64::to_bits)
                            .fold(planner_h, fnv);
                        }
                    }
                }
            }
            let mut capacity_h = 0xcbf2_9ce4_8422_2325;
            for placement in capacity_golden_placements() {
                let config = ServeConfig::builder(hw).placement(placement).build();
                let capacity = ServeSimulator::new(config).capacity_estimate_rps(mix);
                capacity_h = fnv(fold_placement(capacity_h, &placement), capacity.to_bits());
            }
            cells.push((format!("{hw_name} {mix_name}"), planner_h, capacity_h));
        }
    }
    let mut diverged = Vec::new();
    for (i, (cell, planner_h, capacity_h)) in cells.iter().enumerate() {
        for (half, h, (name, golden)) in [
            ("planner", planner_h, PLANNER_GOLDENS[i]),
            ("capacity", capacity_h, CAPACITY_GOLDENS[i]),
        ] {
            assert_eq!(cell, name, "cell order changed");
            if *h != golden {
                diverged.push(format!("{cell} {half}: {h:#x}, golden {golden:#x}"));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "planner or capacity projections diverged from their goldens:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn all_to_all_strictly_beats_ring_collectives_at_world_size_4() {
    // The topology satellite: same wire bytes, but a fully connected
    // fabric spreads a tensor all-reduce across the three peer links.
    let bpo = HwConfig::exion4().operand_bytes();
    for kind in [ModelKind::VideoCrafter2, ModelKind::Dit] {
        let model = ModelConfig::for_kind(kind);
        let strategy = PartitionStrategy::Tensor { ways: 4 };
        let ring = PartitionPlan::new(&model, strategy, Interconnect::ring(), bpo);
        let full = PartitionPlan::new(&model, strategy, Interconnect::all_to_all(), bpo);
        assert_eq!(ring.collective_bytes(8), full.collective_bytes(8));
        assert!(
            full.collective_ms(8) < ring.collective_ms(8),
            "{}: all-to-all {} must beat ring {}",
            kind.name(),
            full.collective_ms(8),
            ring.collective_ms(8)
        );
    }
    assert_eq!(Interconnect::default().topology, Topology::Ring);
}

/// Runs the text-to-video mix under auto-placement on a diurnal ramp that
/// forces at least one re-plan (mirrors `serve_sweep::planner_comparison`'s
/// online half, at a test-sized horizon).
fn planned_diurnal_run(seed: u64) -> ServeReport {
    let hw = HwConfig::exion4();
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    let planner = PlacementPlanner::new(PlannerConfig::new(2).with_replanning(1_000.0, 0.35));
    let mut sim = ServeSimulator::new(
        ServeConfig::builder(hw)
            .auto_placement(planner, 0.3 * capacity)
            .build(),
    );
    sim.run(&TraceConfig {
        pattern: TrafficPattern::Diurnal {
            peak_rps: 0.9 * capacity,
            trough_frac: 0.3,
        },
        horizon_ms: 4_000.0,
        seed,
        mix,
    })
}

#[test]
fn auto_placement_replans_conserve_requests_and_steps() {
    let report = planned_diurnal_run(0x5E17E);
    let pr = report.planner.as_ref().expect("planner accounting");
    assert!(pr.replan_count() >= 1, "the ramp must force a re-plan");
    assert!(pr.migration_bytes() > 0, "migrations are priced");
    assert!(!pr.epochs.is_empty());
    for e in &pr.epochs {
        assert!(e.error >= 0.0);
    }
    for r in &pr.replans {
        assert_ne!(r.from, r.to, "a re-plan event records a placement change");
    }
    // Conservation holds across the migration: every arrival completes
    // exactly once, and drained requests resume without losing steps.
    assert_eq!(report.completed, report.arrivals);
    let ids: HashSet<u64> = report.completions.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), report.completed);
    let demanded: u64 = report
        .completions
        .iter()
        .map(|c| ModelConfig::for_kind(c.model).iterations as u64)
        .sum();
    let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
    assert_eq!(
        demanded, executed,
        "DDIM steps not conserved across migration"
    );
    // Determinism: the same seed reproduces the run bit for bit.
    let again = planned_diurnal_run(0x5E17E);
    assert_eq!(report, again);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Auto-placement conservation holds for any seed — whatever epochs,
    /// re-plans, and drain timings a trace produces (including re-plans
    /// firing while part of the cluster sits idle-jumped ahead), every
    /// arrival still completes exactly once.
    #[test]
    fn auto_placement_conserves_across_seeds(seed in 0u64..10_000) {
        let report = planned_diurnal_run(seed);
        prop_assert_eq!(report.completed, report.arrivals);
        let demanded: u64 = report
            .completions
            .iter()
            .map(|c| ModelConfig::for_kind(c.model).iterations as u64)
            .sum();
        let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
        prop_assert_eq!(demanded, executed);
        if let Some(pr) = &report.planner {
            for r in &pr.replans {
                prop_assert!(r.at_ms.is_finite(), "migration hand-off must be finite");
            }
        }
    }
}
