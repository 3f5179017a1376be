//! Fault-injection pins: an empty `FaultPlan` must leave every fixed-seed
//! golden byte-identical (sinks on and off), faulted runs must obey the
//! extended conservation law `served + shed + lost == arrivals` and stay
//! bit-identical across repeated runs, checkpointing must bound what a
//! crash destroys, a gang losing one member must stall whole while a
//! replicated fleet degrades gracefully, and the planner must re-place
//! around a mid-horizon crash and recover attainment afterwards.

use exion::serve::{
    FaultPlan, MemorySink, MissCause, PartitionStrategy, Phase, Placement, PlacementPlanner,
    PlannerConfig, ServeConfig, ServeReport, ServeSimulator, TraceConfig, TrafficPattern,
    WorkloadMix,
};
use exion::sim::config::HwConfig;
use exion_bench::experiments::serve_sweep::{chaos_comparison, standard_scenarios};
use proptest::prelude::*;

/// The completion-stream fingerprint `tests/event_core.rs` pins the
/// standard scenarios with, extended over every terminal outcome: sheds
/// and losts fold in too, so chaos determinism covers the failure path,
/// not just the happy one.
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
    for s in &report.sheds {
        mix(s.id);
        mix(s.at_ms.to_bits());
    }
    for l in &report.losts {
        mix(l.id);
        mix(l.at_ms.to_bits());
        mix(l.steps_lost as u64);
    }
    h
}

/// The completions-only fold of `tests/event_core.rs`, bit for bit — the
/// goldens below were captured with it.
fn completions_fingerprint(report: &ServeReport) -> u64 {
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

/// `served + shed + lost == arrivals`: the conservation law every run
/// obeys once the cluster drains, faults or not. (Row conservation —
/// demanded steps == executed rows — deliberately does NOT hold under
/// faults: a crashed unit's in-flight iteration never completes and a
/// lost request's remaining steps are never executed.)
fn assert_conservation(report: &ServeReport, context: &str) {
    assert_eq!(
        report.completed + report.shed_requests + report.lost_requests,
        report.arrivals,
        "{context}: served {} + shed {} + lost {} != arrivals {}",
        report.completed,
        report.shed_requests,
        report.lost_requests,
        report.arrivals,
    );
}

/// The horizon the event-core goldens were captured at.
const GOLDEN_HORIZON_MS: f64 = 1_200.0;

/// The `tests/event_core.rs` golden fingerprints. Installing an *empty*
/// fault plan must reproduce each one bit for bit, sinks on and off: the
/// fault subsystem's default path schedules nothing, draws no randomness,
/// and perturbs no clock.
const GOLDEN_FINGERPRINTS: [(&str, u64); 4] = [
    ("poisson_90pct_exion4", 0xfcd3_cad0_f4b6_c883),
    ("bursty_preemptive_edf_exion24", 0x47d0_5a21_314b_51d2),
    ("tp2_gang_video_exion4", 0xaf23_68ff_4876_2c10),
    ("planned_diurnal_exion4", 0x7494_0884_e39d_a282),
];

#[test]
fn empty_fault_plan_keeps_every_golden_byte_identical() {
    for (scenario, mut config, trace) in standard_scenarios(GOLDEN_HORIZON_MS) {
        let golden = GOLDEN_FINGERPRINTS
            .iter()
            .find(|(name, _)| *name == scenario)
            .map(|&(_, fp)| fp)
            .expect("every standard scenario carries a golden");
        config.fault_plan = FaultPlan::empty();
        let untraced = ServeSimulator::new(config.clone()).run(&trace);
        let mut sink = MemorySink::new();
        let traced = ServeSimulator::new(config).run_traced(&trace, &mut sink);
        assert!(
            untraced.fault.is_none(),
            "{scenario}: empty plan, no report"
        );
        assert!(
            untraced.losts.is_empty(),
            "{scenario}: empty plan, no losses"
        );
        assert_eq!(
            completions_fingerprint(&untraced),
            golden,
            "{scenario}: an explicitly empty fault plan moved the untraced \
             golden to {:#018x}",
            completions_fingerprint(&untraced),
        );
        assert_eq!(
            completions_fingerprint(&traced),
            golden,
            "{scenario}: an explicitly empty fault plan moved the traced golden"
        );
        assert_eq!(untraced, traced, "{scenario}: sink perturbed the run");
    }
}

#[test]
fn midpoint_crash_conserves_recovers_and_reports() {
    const CRASH_AT_MS: f64 = 750.0;
    // Text-to-video runs a few long generations; the multi-tenant mix runs
    // many short ones, so its requests end on both sides of the crash and
    // the fault-window checks below bite.
    for (input, mix) in [
        ("text-to-video", WorkloadMix::text_to_video()),
        ("multi-tenant", WorkloadMix::multi_tenant()),
    ] {
        let hw = HwConfig::exion4();
        let capacity = ServeSimulator::new(ServeConfig::builder(hw).instances(2).build())
            .capacity_estimate_rps(&mix);
        let trace = TraceConfig {
            pattern: TrafficPattern::Poisson {
                rate_rps: 0.7 * capacity,
            },
            horizon_ms: 1_500.0,
            seed: 0xC4A5,
            mix,
        };
        let config = ServeConfig::builder(hw)
            .placement(Placement::replicated(2))
            .fault_plan(FaultPlan::empty().crash(CRASH_AT_MS, 0, 400.0))
            .build();
        let report = ServeSimulator::new(config).run(&trace);
        assert_conservation(&report, input);
        let fault = report.fault.as_ref().expect("faulted run carries a report");
        assert_eq!(
            fault.faults_injected, 1,
            "{input}: the crash must land on live hw"
        );
        assert_eq!(fault.faults_noop, 0, "{input}");
        assert_eq!(fault.records.len(), 1, "{input}");
        assert_eq!(fault.records[0].kind, "unit-crash", "{input}");
        assert_eq!(fault.records[0].lost, report.lost_requests, "{input}");
        assert_eq!(fault.lost_requests, report.lost_requests, "{input}");
        assert!(
            (0.0..=1.0).contains(&fault.attainment_under_failure),
            "{input}: in-window attainment {} out of range",
            fault.attainment_under_failure
        );
        // The repaired unit rejoins: the recovery fires within the run (the
        // cluster drains past the repair), and mean time-to-recover is at
        // least the repair delay (the unit cannot rejoin before its
        // in-flight iteration's clock, and never before `at + repair_ms`).
        assert_eq!(fault.recoveries, 1, "{input}: the crashed unit must rejoin");
        assert!(
            fault.mean_time_to_recover_ms >= 400.0,
            "{input}: recovered after {} ms, repair delay is 400 ms",
            fault.mean_time_to_recover_ms
        );
        // Lost requests are priced as SLO misses: attainment counts them
        // in the denominator.
        let within = report.completions.iter().filter(|c| c.within_slo()).count();
        let answered = report.completions.len() + report.sheds.len() + report.losts.len();
        assert!(
            (report.slo_attainment - within as f64 / answered as f64).abs() < 1e-9,
            "{input}: lost requests must dilute SLO attainment"
        );
        // No fault phase accrues on a request that ended before the crash.
        let attribution = report.attribution.as_ref().expect("on by default");
        let before: Vec<_> = attribution
            .requests
            .iter()
            .filter(|r| r.end_ms < CRASH_AT_MS)
            .collect();
        for r in &before {
            for phase in [Phase::FaultStall, Phase::DegradedWindow] {
                assert_eq!(
                    r.phases.get(phase),
                    0.0,
                    "{input}: request {} ended at {} ms, before the crash, with {} time",
                    r.id,
                    r.end_ms,
                    phase.label()
                );
            }
        }
        // The crash shows up where the attribution plane puts it, on both
        // inputs.
        assert!(
            attribution.totals.get(Phase::FaultStall) > 0.0,
            "{input}: the crash left no fault-stall"
        );
        assert!(
            attribution.miss_causes[MissCause::Fault.index()] > 0,
            "{input}: no miss classifies as fault: {:?}",
            attribution.miss_causes
        );
        // Text-to-video's few long generations all outlive the crash;
        // the multi-tenant input must end some requests before it, or
        // the window check above checks nothing.
        if input == "multi-tenant" {
            assert!(
                !before.is_empty(),
                "{input}: no request ended before the crash"
            );
        }
    }
}

#[test]
fn checkpointing_bounds_what_a_crash_destroys() {
    let hw = HwConfig::exion4();
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::new(hw)).capacity_estimate_rps(&mix);
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 0.8 * capacity,
        },
        horizon_ms: 1_500.0,
        seed: 0xC4A6,
        mix,
    };
    let config = |checkpoint: Option<usize>| {
        let b = ServeConfig::builder(hw)
            .placement(Placement::replicated(1))
            .fault_plan(FaultPlan::empty().crash(750.0, 0, 300.0));
        match checkpoint {
            Some(steps) => b.checkpoint_every(steps),
            None => b,
        }
        .build()
    };
    let plain = ServeSimulator::new(config(None)).run(&trace);
    let ckpt = ServeSimulator::new(config(Some(4))).run(&trace);
    assert_conservation(&plain, "crash without checkpointing");
    assert_conservation(&ckpt, "crash with checkpointing");
    let pf = plain.fault.as_ref().expect("fault report");
    let cf = ckpt.fault.as_ref().expect("fault report");
    assert_eq!(pf.checkpoint_spills, 0, "no policy, no spills");
    assert!(cf.checkpoint_spills > 0, "busy unit must take checkpoints");
    assert!(cf.checkpoint_bytes > 0, "spills move priced bytes");
    assert!(
        cf.checkpointed_recoveries > 0,
        "a request running at the crash must survive through its checkpoint"
    );
    assert!(
        ckpt.lost_requests <= plain.lost_requests,
        "checkpointing lost {} requests, uncheckpointed lost {}",
        ckpt.lost_requests,
        plain.lost_requests,
    );
}

#[test]
fn replicas_degrade_gracefully_where_a_gang_stalls_whole() {
    let sweeps = chaos_comparison(&HwConfig::exion4(), Some(1_500.0));
    assert_eq!(sweeps.len(), 2);
    let replicated = &sweeps[0];
    let gang = &sweeps[1];
    assert_eq!(replicated.label, "replicated x2");
    assert_eq!(gang.label, "tp2 gang");
    for c in &sweeps {
        assert!(c.baseline.fault.is_none(), "{}: clean baseline", c.label);
        assert_conservation(&c.faulted, &c.label);
        let f = c.faulted.fault.as_ref().expect("faulted run reports");
        assert_eq!(f.faults_injected, 1, "{}", c.label);
        assert!(
            c.faulted.slo_attainment <= c.baseline.slo_attainment + 1e-9,
            "{}: losing an instance cannot improve attainment",
            c.label
        );
    }
    // The replicated fleet keeps its surviving replica serving through
    // the outage; the TP=2 gang missing one member stalls whole. The
    // comparison ran at a 1500 ms horizon: the instance dies at 750 ms
    // and rejoins no earlier than 1125 ms. The replicas must finish work
    // inside that window; the single-gang fleet cannot (the 200 ms of
    // slack covers the in-flight iteration the dying unit's clock had
    // already passed when the fault fired).
    let finished_in = |r: &ServeReport, lo: f64, hi: f64| {
        r.completions
            .iter()
            .filter(|c| c.finished_ms > lo && c.finished_ms < hi)
            .count()
    };
    assert!(
        finished_in(&replicated.faulted, 750.0, 1_125.0) > 0,
        "the surviving replica must keep completing through the outage"
    );
    assert_eq!(
        finished_in(&gang.faulted, 950.0, 1_125.0),
        0,
        "a gang missing one member cannot complete anything until repair"
    );
    // And the stall shows up as lost capacity: the gang's faulted run
    // answers within SLO no more often than the replicas' faulted run.
    let rf = replicated.faulted.fault.as_ref().unwrap();
    let gf = gang.faulted.fault.as_ref().unwrap();
    assert!(
        rf.attainment_under_failure >= gf.attainment_under_failure,
        "replicas answered {:.3} in-window, the stalled gang {:.3}",
        rf.attainment_under_failure,
        gf.attainment_under_failure,
    );
}

#[test]
fn link_degradation_prices_collectives_and_destroys_nothing() {
    let hw = HwConfig::exion4();
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 0.6 * capacity,
        },
        horizon_ms: 1_500.0,
        seed: 0xC4A7,
        mix,
    };
    let config = |plan: FaultPlan| {
        ServeConfig::builder(hw)
            .placement(Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }))
            .fault_plan(plan)
            .build()
    };
    let baseline = ServeSimulator::new(config(FaultPlan::empty())).run(&trace);
    let degraded =
        ServeSimulator::new(config(FaultPlan::empty().link_degrade(375.0, 4.0, 750.0))).run(&trace);
    assert_conservation(&degraded, "link degradation");
    let f = degraded.fault.as_ref().expect("fault report");
    assert_eq!(f.faults_injected, 1);
    assert_eq!(f.lost_requests, 0, "a slow link destroys no state");
    assert_eq!(degraded.lost_requests, 0);
    assert_eq!(degraded.arrivals, baseline.arrivals, "same trace");
    assert!(
        degraded.collective_ms > baseline.collective_ms,
        "quarter bandwidth for half the horizon must stretch collectives: \
         {} ms vs {} ms",
        degraded.collective_ms,
        baseline.collective_ms,
    );
}

#[test]
fn planner_replans_around_a_crash_and_recovers_attainment() {
    let hw = HwConfig::exion4();
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    let crash_at = 800.0;
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 0.6 * capacity,
        },
        horizon_ms: 2_000.0,
        seed: 0xC4A8,
        mix: mix.clone(),
    };
    // Epochs pushed past the horizon: every re-plan in this run is
    // fault-driven, not cadence-driven.
    let planner = PlacementPlanner::new(PlannerConfig::new(2).with_replanning(1e12, 0.5));
    let config = ServeConfig::builder(hw)
        .auto_placement(planner, 0.6 * capacity)
        .fault_plan(FaultPlan::empty().crash(crash_at, 0, 400.0))
        .build();
    let report = ServeSimulator::new(config).run(&trace);
    assert_conservation(&report, "planned crash");
    let fault = report.fault.as_ref().expect("fault report");
    assert_eq!(fault.faults_injected, 1);
    assert!(
        fault.replans_triggered >= 1,
        "the crash must force an out-of-cadence re-plan"
    );
    let planner_report = report.planner.as_ref().expect("auto-placed run");
    assert!(
        !planner_report.replans.is_empty(),
        "fault re-plans must be booked as priced migrations"
    );
    // The acceptance pin: after the mid-horizon crash, the re-planned
    // fleet still answers — attainment over post-crash arrivals is
    // nonzero, not a flatline.
    let post: Vec<_> = report
        .completions
        .iter()
        .filter(|c| c.arrival_ms > crash_at)
        .collect();
    assert!(!post.is_empty(), "post-crash arrivals must still complete");
    let post_within = post.iter().filter(|c| c.within_slo()).count();
    assert!(
        post_within > 0,
        "the re-planned fleet must recover nonzero SLO attainment"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chaos invariants on randomized fleet-sized placements under
    /// seeded crash plans plus a link-degradation window: the extended
    /// conservation law holds, and two runs of the same faulted config
    /// produce bit-identical terminal streams (completions, sheds, losts
    /// and the fault records themselves).
    #[test]
    fn faulted_fleets_conserve_requests_and_are_deterministic(
        replicas in 1usize..6,
        gangs in 0usize..3,
        rate_decirps in 50u64..300,
        fault_seed in 0u64..1_000,
    ) {
        let placement = Placement::mixed(replicas, gangs, PartitionStrategy::Tensor { ways: 2 });
        let horizon_ms = 600.0;
        let plan = FaultPlan::seeded(fault_seed, horizon_ms, 150.0, 120.0, 3)
            .link_degrade(horizon_ms / 3.0, 2.0, horizon_ms / 4.0);
        let config = ServeConfig::builder(HwConfig::exion4())
            .placement(placement)
            .policy_name("edf")
            .fault_plan(plan)
            .checkpoint_every(6)
            .build();
        let trace = TraceConfig {
            pattern: TrafficPattern::Poisson { rate_rps: rate_decirps as f64 / 10.0 },
            horizon_ms,
            seed: 0xFA17 ^ fault_seed,
            mix: WorkloadMix::text_to_motion(),
        };
        let report = ServeSimulator::new(config.clone()).run(&trace);
        prop_assert_eq!(
            report.completed + report.shed_requests + report.lost_requests,
            report.arrivals,
            "served + shed + lost must equal arrivals once the cluster drains"
        );
        let fault = report.fault.as_ref().expect("chaos run carries a fault report");
        prop_assert_eq!(
            fault.lost_requests,
            report.lost_requests,
            "the fault report and the terminal stream must agree on losses"
        );
        let rerun = ServeSimulator::new(config).run(&trace);
        prop_assert_eq!(
            fingerprint(&report),
            fingerprint(&rerun),
            "a faulted run must be bit-identical under repetition"
        );
        prop_assert_eq!(
            &report.fault,
            &rerun.fault,
            "fault records must be deterministic too"
        );
    }
}

/// Overlapping link windows that close out of opening order must leave
/// the fabric priced exactly as healthy. Both windows below open and
/// close before the first arrival (about 2.06 ms), so the run must
/// complete exactly as a fault-free one. A running product of slowdowns
/// divided back out window by window ends one unit in the last place off
/// 1.0 here, and that mis-priced ring moves the completion stream.
#[test]
fn link_windows_closing_out_of_order_restore_the_healthy_fabric() {
    let config = |plan: FaultPlan| {
        ServeConfig::builder(HwConfig::exion4())
            .placement(Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }))
            .fault_plan(plan)
            .build()
    };
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: 150.0 },
        horizon_ms: 300.0,
        seed: 11,
        mix: WorkloadMix::text_to_motion(),
    };
    let healthy = ServeSimulator::new(config(FaultPlan::empty())).run(&trace);
    let windows = FaultPlan::empty()
        .link_degrade(0.001, 1.75, 0.010)
        .link_degrade(0.002, 1.2, 0.005);
    let restored = ServeSimulator::new(config(windows)).run(&trace);
    let first_arrival = restored
        .completions
        .iter()
        .map(|c| c.arrival_ms)
        .fold(f64::INFINITY, f64::min);
    assert!(
        first_arrival > 0.011,
        "both windows close before any arrival"
    );
    assert_eq!(restored.fault.as_ref().map(|f| f.faults_injected), Some(2));
    assert_eq!(
        restored.completions, healthy.completions,
        "closed link windows must price the healthy fabric bit for bit"
    );
}
