//! Event-calendar core pins: the heap-driven cluster loop must reproduce
//! the pre-refactor unit-scan loop bit for bit on the four standard
//! scenarios (`serve_sweep::standard_scenarios`; fixed seeds, sinks on and
//! off), and each scenario's phase mix, run counts and residency and
//! pricing work must match exact goldens. Idle units must execute nothing
//! during arrival gaps, metric snapshots must land on exact cadence
//! multiples, a fleet-sized run's calendar must stay bounded by its units,
//! a deep backlog must build and drain (with work goldens of its own),
//! conservation + determinism must hold on randomized fleet-sized
//! placements, and a 49-config corpus must reproduce its whole report and
//! telemetry stream byte for byte.
//!
//! Timing is not pinned here: the repository benchmark (`perfbench/`)
//! measures it, and CI gates it against `BENCH_serve.json`.

use exion::serve::policy::BUILTIN_POLICY_NAMES;
use exion::serve::{
    FaultPlan, MemorySink, PartitionStrategy, Placement, PlacementPlanner, PlannerConfig,
    RunProfile, ServeConfig, ServeReport, ServeSimulator, SliceKind, TraceConfig, TrafficPattern,
    WorkloadMix,
};
use exion::sim::config::HwConfig;
use exion_bench::experiments::serve_sweep::{bursty_trace_over, standard_scenarios, SWEEP_SEED};
use proptest::prelude::*;

/// FNV-style fold over the deterministic completion stream — the same
/// fingerprint `tests/serving.rs` pins policy refactors with: completion
/// ids, clocks (f64 bit patterns), instance assignments, and preemption
/// counts.
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

/// FNV-style fold over what a run did rather than what it served: the
/// bits of every phase share of the attribution mix, then the
/// deterministic [`RunProfile`] counts (completions, iterations, calendar
/// events, peak calendar size, planner passes) and the makespan bits.
fn work_fingerprint(report: &ServeReport, profile: &RunProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let phase_mix = report
        .attribution
        .as_ref()
        .expect("attribution is on by default")
        .phase_mix();
    for share in phase_mix {
        mix(share.to_bits());
    }
    mix(profile.completed as u64);
    mix(profile.iterations);
    mix(profile.events_executed);
    mix(profile.peak_calendar_events as u64);
    mix(profile.planner_calls);
    mix(profile.makespan_ms.to_bits());
    h
}

/// The residency and pricing work of a run: GSC requests and evictions
/// summed over every instance it deployed, then the cost model's memo
/// hits and misses.
fn work_counts(profile: &RunProfile) -> [u64; 4] {
    [
        profile.gsc_requests,
        profile.gsc_evictions,
        profile.cost_memo_hits,
        profile.cost_memo_misses,
    ]
}

/// [`work_counts`] of the four standard scenarios and of the deep-backlog
/// run, captured while the GSC cache and the cost memo were still
/// `RandomState` hash maps: the storage behind either may change, the
/// work they do may not.
const GOLDEN_WORK_COUNTS: [(&str, [u64; 4]); 5] = [
    ("poisson_90pct_exion4", [850, 10, 1_422, 28]),
    ("bursty_preemptive_edf_exion24", [615, 8, 1_182, 33]),
    ("tp2_gang_video_exion4", [300, 0, 510, 40]),
    ("planned_diurnal_exion4", [220, 0, 2_622, 48]),
    ("deep_backlog", [11_310, 154, 11_836, 74]),
];

fn assert_work_counts(run: &str, profile: &RunProfile) {
    let golden = GOLDEN_WORK_COUNTS
        .iter()
        .find(|(name, _)| *name == run)
        .map(|&(_, counts)| counts)
        .expect("every pinned run carries work counts");
    assert_eq!(
        work_counts(profile),
        golden,
        "{run}: [GSC requests, GSC evictions, memo hits, memo misses] diverged"
    );
}

/// The horizon the goldens below were captured at.
const GOLDEN_HORIZON_MS: f64 = 1_200.0;

/// Fingerprints of the four standard scenarios, captured on the
/// pre-event-core unit-scan loop (same toolchain, same seeds) immediately
/// before the calendar refactor. The event core must reproduce each run
/// bit for bit, with and without a telemetry sink attached.
const GOLDEN_FINGERPRINTS: [(&str, u64); 4] = [
    ("poisson_90pct_exion4", 0xfcd3_cad0_f4b6_c883),
    ("bursty_preemptive_edf_exion24", 0x47d0_5a21_314b_51d2),
    ("tp2_gang_video_exion4", 0xaf23_68ff_4876_2c10),
    ("planned_diurnal_exion4", 0x7494_0884_e39d_a282),
];

/// [`work_fingerprint`] of the four standard scenarios, captured before
/// the single-shot perf trajectory that used to gate their phase mix was
/// deleted. Unlike a growth bound, the pin is exact: any change in where
/// the requests spend their time, or in the work the calendar does to
/// serve them, moves it.
const GOLDEN_WORK_FINGERPRINTS: [(&str, u64); 4] = [
    ("poisson_90pct_exion4", 0x4928_10c9_f39a_39f8),
    ("bursty_preemptive_edf_exion24", 0x5493_2a0c_2561_0b8a),
    ("tp2_gang_video_exion4", 0xae2b_94d2_6ccd_3984),
    ("planned_diurnal_exion4", 0x8ba2_91ff_efad_e97f),
];

#[test]
fn standard_scenario_fingerprints_survive_the_event_core() {
    for (scenario, config, trace) in standard_scenarios(GOLDEN_HORIZON_MS) {
        let golden = GOLDEN_FINGERPRINTS
            .iter()
            .find(|(name, _)| *name == scenario)
            .map(|&(_, fp)| fp)
            .expect("every standard scenario carries a golden");
        let golden_work = GOLDEN_WORK_FINGERPRINTS
            .iter()
            .find(|(name, _)| *name == scenario)
            .map(|&(_, fp)| fp)
            .expect("every standard scenario carries a work golden");
        let mut sim = ServeSimulator::new(config.clone());
        let untraced = sim.run(&trace);
        let profile = sim.last_run_profile().expect("run leaves a profile");
        let work = work_fingerprint(&untraced, profile);
        assert_work_counts(scenario, profile);
        assert_eq!(
            work,
            golden_work,
            "{scenario}: work fingerprint {work:#018x} diverged (phase mix {:?}, {profile:?})",
            untraced.attribution.as_ref().map(|a| a.phase_mix()),
        );
        let mut sink = MemorySink::new();
        let traced = ServeSimulator::new(config.clone()).run_traced(&trace, &mut sink);
        assert!(!sink.is_empty(), "{scenario}: traced run must emit");
        assert_eq!(
            fingerprint(&untraced),
            golden,
            "{scenario}: untraced fingerprint {:#018x} diverged from the \
             pre-refactor golden",
            fingerprint(&untraced),
        );
        assert_eq!(
            fingerprint(&traced),
            golden,
            "{scenario}: traced fingerprint diverged from the golden"
        );
        assert_eq!(untraced, traced, "{scenario}: sink perturbed the run");
        // Latency attribution is a pure observer: switching it off must
        // change nothing but the report's attribution field itself.
        assert!(
            untraced.attribution.is_some(),
            "{scenario}: attribution is on by default"
        );
        let mut disabled_config = config;
        disabled_config.attribution = false;
        let disabled = ServeSimulator::new(disabled_config).run(&trace);
        assert!(
            disabled.attribution.is_none(),
            "{scenario}: disabled run must not attribute"
        );
        assert_eq!(
            fingerprint(&disabled),
            golden,
            "{scenario}: attribution perturbed the simulation"
        );
        assert_eq!(
            disabled.completions, untraced.completions,
            "{scenario}: attribution perturbed the completion stream"
        );
    }
}

/// A long arrival gap must cost nothing: with the calendar core, an idle
/// unit has no scheduled event until the next arrival wakes it, so no
/// busy slice may start inside the gap and the iteration count must be
/// exactly what the two bursts of work need.
#[test]
fn idle_units_execute_nothing_during_an_arrival_gap() {
    use exion::serve::{ServeConfig, TraceConfig, TrafficPattern, WorkloadMix};
    use exion::sim::config::HwConfig;

    // Two short bursts separated by a 60 s dead zone. The bursty MMPP at
    // a tiny calm rate would be fragile; a hand-made gap is exact: run
    // one Poisson trace, then re-run with the same trace shifted — here
    // we just use a very low rate over a long horizon so gaps dominate.
    let config = ServeConfig::new(HwConfig::exion4());
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: 0.05 },
        horizon_ms: 120_000.0,
        seed: 0x6A9,
        mix: WorkloadMix::text_to_motion(),
    };
    let mut sink = MemorySink::new();
    let mut sim = ServeSimulator::new(config);
    let report = sim.run_traced(&trace, &mut sink);
    assert!(report.arrivals >= 2, "need at least one gap");
    assert_eq!(report.completed, report.arrivals);
    let profile = sim.last_run_profile().expect("profile");
    // Every iteration carries at least one request row: the unit never
    // busy-waits through empty simulated time.
    let max_steps: u64 = report.completions.iter().map(|c| c.steps as u64).sum();
    assert!(
        profile.iterations <= max_steps,
        "{} iterations for {} total requested steps: the idle path \
         executed work during gaps",
        profile.iterations,
        max_steps
    );
    // The calendar executes a bounded number of events: unit boundaries
    // (≤ one per iteration + one wake per arrival + terminal pops), never
    // one per simulated millisecond.
    assert!(
        profile.events_executed <= profile.iterations + 4 * report.arrivals as u64 + 16,
        "{} events for {} iterations / {} arrivals",
        profile.events_executed,
        profile.iterations,
        report.arrivals
    );
    // No busy slice may lie strictly inside an arrival gap: collect the
    // arrival times, and check every busy slice starts at or after an
    // arrival that is still in flight.
    let mut arrivals: Vec<f64> = sink
        .spans
        .iter()
        .filter(|s| matches!(s.event, exion::serve::RequestEvent::Arrival))
        .map(|s| s.at_ms)
        .collect();
    arrivals.sort_by(f64::total_cmp);
    let completions: Vec<(f64, f64)> = report
        .completions
        .iter()
        .map(|c| (c.arrival_ms, c.finished_ms))
        .collect();
    for s in sink.slices.iter().filter(|s| s.kind == SliceKind::Busy) {
        let covered = completions
            .iter()
            .any(|&(a, f)| s.start_ms >= a - 1e-9 && s.start_ms < f + 1e-9);
        assert!(
            covered,
            "busy slice at {} ms lies outside every request's lifetime",
            s.start_ms
        );
    }
}

/// `stats_interval_ms` is a recurring calendar event: every snapshot
/// timestamp must be an exact multiple of the cadence.
#[test]
fn metric_snapshots_land_on_exact_cadence_multiples() {
    use exion::serve::{ServeConfig, TraceConfig, TrafficPattern, WorkloadMix};
    use exion::sim::config::HwConfig;

    let interval = 75.0;
    let config = ServeConfig::builder(HwConfig::exion4())
        .stats_interval_ms(interval)
        .build();
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: 30.0 },
        horizon_ms: 1_000.0,
        seed: 0x57A7,
        mix: WorkloadMix::text_to_motion(),
    };
    let report = ServeSimulator::new(config).run(&trace);
    assert!(report.series.len() >= 5, "cadence must fire repeatedly");
    for (i, snap) in report.series.iter().enumerate() {
        let k = (snap.at_ms / interval).round();
        assert!(
            (snap.at_ms - k * interval).abs() < 1e-9,
            "snapshot {i} at {} ms is not a multiple of {interval} ms",
            snap.at_ms
        );
        assert_eq!(snap.at_ms, (i as f64 + 1.0) * interval, "gap in cadence");
    }
}

/// Arrivals stream lazily and the calendar skips idle units, so a fleet
/// run's heap is bounded by its units: on six replicas beside two TP=2
/// gangs it holds one live entry per unit, the recurring events and
/// transiently stale reschedule leftovers — never anything that scales
/// with the trace.
#[test]
fn fleet_scale_run_streams_a_bounded_heap() {
    let mix = WorkloadMix::multi_tenant();
    let tp2 = PartitionStrategy::Tensor { ways: 2 };
    let config = ServeConfig::builder(HwConfig::exion4())
        .placement(Placement::mixed(6, 2, tp2))
        .build();
    let rate_rps = 0.8 * ServeSimulator::new(config.clone()).capacity_estimate_rps(&mix);
    // 10% headroom over the expectation so Poisson variance cannot leave
    // the run short of 400 arrivals.
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps },
        horizon_ms: 1_100.0 * 400.0 / rate_rps,
        seed: SWEEP_SEED,
        mix,
    };
    let mut sim = ServeSimulator::new(config);
    let report = sim.run(&trace);
    let profile = sim.last_run_profile().expect("run leaves a profile");
    assert!(report.arrivals >= 400, "{} arrivals", report.arrivals);
    assert_eq!(profile.completed, report.arrivals);
    assert!(profile.events_executed >= profile.iterations);
    assert!(profile.peak_calendar_events <= 64, "{profile:?}");
}

/// [`work_fingerprint`] of the deep-backlog run below, captured before
/// the single-shot perf trajectory that metered the same scenario was
/// deleted.
const GOLDEN_DEEP_BACKLOG_WORK: u64 = 0x2f17_7db4_0888_fd2a;

/// Bursty traffic at twice one instance's capacity under EDF and
/// admit-all: roughly half the trace is still queued at the horizon, and
/// the post-horizon drain still completes every request.
#[test]
fn deep_backlog_run_builds_and_drains_the_backlog() {
    let mix = WorkloadMix::multi_tenant();
    let config = ServeConfig::builder(HwConfig::exion4())
        .policy_name("edf")
        .build();
    let capacity = ServeSimulator::new(config.clone()).capacity_estimate_rps(&mix);
    // 10% headroom over the expectation so burst-phase variance cannot
    // leave the run short of 1 500 arrivals.
    let horizon_ms = 1_100.0 * 1_500.0 / (2.0 * capacity);
    let mut sim = ServeSimulator::new(config);
    let report = sim.run(&bursty_trace_over(capacity, 2.0, horizon_ms, mix));
    let profile = sim.last_run_profile().expect("run leaves a profile");
    assert!(report.arrivals >= 1_500, "{} arrivals", report.arrivals);
    assert_eq!(profile.completed, report.arrivals, "admit-all sheds");
    // The drain tail stretches the makespan well past the horizon:
    // evidence the run went through a deep backlog rather than keeping up
    // with arrivals.
    assert!(
        profile.makespan_ms > 1.3 * horizon_ms,
        "makespan {} vs horizon {}",
        profile.makespan_ms,
        horizon_ms
    );
    assert!(profile.iterations > 0);
    assert_work_counts("deep_backlog", profile);
    let work = work_fingerprint(&report, profile);
    assert_eq!(
        work,
        GOLDEN_DEEP_BACKLOG_WORK,
        "work fingerprint {work:#018x} diverged (phase mix {:?}, {profile:?})",
        report.attribution.as_ref().map(|a| a.phase_mix()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Calendar-core invariants on randomized fleet-sized placements:
    /// conservation (served + shed == arrivals, demanded rows == executed
    /// rows) and determinism (two runs of the same config produce the
    /// same fingerprint, so heap tie-breaking is total, not incidental).
    #[test]
    fn fleet_sized_runs_conserve_requests_and_are_deterministic(
        replicas in 1usize..12,
        gangs in 0usize..4,
        rate_decirps in 50u64..400,
        seed_shift in 0u64..1_000,
    ) {
        use exion::serve::{
            Placement, PartitionStrategy, ServeConfig, TraceConfig, TrafficPattern,
            WorkloadMix,
        };
        use exion::sim::config::HwConfig;

        let placement = Placement::mixed(replicas, gangs, PartitionStrategy::Tensor { ways: 2 });
        let config = ServeConfig::builder(HwConfig::exion4())
            .placement(placement)
            .policy_name("edf")
            .build();
        let trace = TraceConfig {
            pattern: TrafficPattern::Poisson { rate_rps: rate_decirps as f64 / 10.0 },
            horizon_ms: 400.0,
            seed: 0xF1EE7 ^ seed_shift,
            mix: WorkloadMix::text_to_motion(),
        };
        let report = ServeSimulator::new(config.clone()).run(&trace);
        prop_assert_eq!(
            report.completed + report.shed_requests,
            report.arrivals,
            "served + shed must equal arrivals once the cluster drains"
        );
        let demanded: u64 = report.completions.iter().map(|c| c.steps as u64).sum();
        let executed: u64 = report.per_instance.iter().map(|s| s.rows_executed).sum();
        prop_assert_eq!(demanded, executed, "row conservation across the fleet");
        let rerun = ServeSimulator::new(config).run(&trace);
        prop_assert_eq!(
            fingerprint(&report),
            fingerprint(&rerun),
            "same config + seed must replay bit for bit"
        );
    }
}

/// FNV-1a over a value's `Debug` rendering. `f64` renders as its
/// shortest round-trip decimal, so the fold pins every field bit for bit.
fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The horizon the whole-run corpus was captured at.
const CORPUS_HORIZON_MS: f64 = 400.0;

/// The whole-run corpus: every built-in policy on four placements
/// (three replicas, two replicas beside a TP=2 gang, one PP=2 gang, and
/// auto-placement over a three-instance budget) under three fault plans
/// (none; seeded crashes plus one ×2 link window; a directed crash plus a
/// member loss), with deadline admission, checkpointing and a stats
/// cadence spread across the cells and offered load between 0.8× and
/// 1.6× capacity. Half the auto-placed cells serve the video mix, whose
/// working set makes the planner migrate at epoch boundaries. One more
/// case strands: a single-instance auto fleet whose only unit crashes.
fn whole_run_corpus() -> Vec<(String, ServeConfig, TraceConfig)> {
    let hw = HwConfig::exion4();
    let horizon_ms = CORPUS_HORIZON_MS;
    let tp2 = PartitionStrategy::Tensor { ways: 2 };
    let pp2 = PartitionStrategy::Pipeline { stages: 2 };
    let placements = [
        ("replicated3", Some(Placement::replicated(3))),
        ("mixed2+tp2", Some(Placement::mixed(2, 1, tp2))),
        ("pp2", Some(Placement::sharded(1, pp2))),
        ("auto3", None),
    ];
    let plans = [
        ("clean", FaultPlan::empty()),
        (
            "seeded",
            FaultPlan::seeded(0x5EED, horizon_ms, 120.0, 80.0, 3).link_degrade(150.0, 2.0, 100.0),
        ),
        (
            "directed",
            FaultPlan::empty()
                .crash(120.0, 0, 100.0)
                .member_loss(230.0, 1, 1, 80.0),
        ),
    ];
    let mut corpus = Vec::new();
    let mut cell = 0u64;
    for (placement_name, placement) in placements {
        for (policy_index, policy) in BUILTIN_POLICY_NAMES.into_iter().enumerate() {
            let mix = if placement.is_none() && policy_index % 2 == 1 {
                WorkloadMix::text_to_video()
            } else {
                WorkloadMix::multi_tenant()
            };
            let capacity = ServeSimulator::new(
                ServeConfig::builder(hw)
                    .placement(placement.unwrap_or(Placement::replicated(3)))
                    .build(),
            )
            .capacity_estimate_rps(&mix);
            for (plan_name, plan) in &plans {
                let rate_rps = capacity * (0.8 + 0.8 * (cell % 7) as f64 / 6.0);
                let mut builder = ServeConfig::builder(hw)
                    .policy_name(policy)
                    .fault_plan(plan.clone());
                builder = match placement {
                    Some(p) => builder.placement(p),
                    None => builder.auto_placement(
                        PlacementPlanner::new(PlannerConfig::new(3).with_replanning(100.0, 0.2)),
                        0.3 * rate_rps,
                    ),
                };
                if cell % 4 == 1 {
                    builder = builder.admission_name("deadline");
                }
                if cell % 2 == 1 {
                    builder = builder.checkpoint_every(5);
                }
                if cell % 5 == 2 {
                    builder = builder.stats_interval_ms(50.0);
                }
                let trace = TraceConfig {
                    pattern: TrafficPattern::Poisson { rate_rps },
                    horizon_ms,
                    seed: 0xC0_4B05 ^ cell,
                    mix: mix.clone(),
                };
                corpus.push((
                    format!("{placement_name}/{policy}/{plan_name}"),
                    builder.build(),
                    trace,
                ));
                cell += 1;
            }
        }
    }
    let mix = WorkloadMix::multi_tenant();
    let capacity = ServeSimulator::new(ServeConfig::new(hw)).capacity_estimate_rps(&mix);
    corpus.push((
        "auto1/fcfs/stranded".to_string(),
        ServeConfig::builder(hw)
            .auto_placement(PlacementPlanner::new(PlannerConfig::new(1)), capacity)
            .fault_plan(FaultPlan::empty().crash(150.0, 0, 100.0))
            .build(),
        TraceConfig {
            pattern: TrafficPattern::Poisson {
                rate_rps: 1.6 * capacity,
            },
            horizon_ms,
            seed: 0x57_4A4D,
            mix,
        },
    ));
    corpus
}

/// `(config, report fingerprint, sink fingerprint)` of every corpus run,
/// captured on the monolithic cluster loop before it was split into
/// per-event handlers.
#[rustfmt::skip]
const CORPUS_FINGERPRINTS: [(&str, u64, u64); 49] = [
    ("replicated3/fcfs/clean", 0x5346f7098c144ab9, 0x51cf75f00c76ad72),
    ("replicated3/fcfs/seeded", 0x32ae42a8a529fd84, 0xbf7728a2995c97cf),
    ("replicated3/fcfs/directed", 0xc5dfb97c1d6a77ea, 0x5f90dc8f3a9a2148),
    ("replicated3/edf/clean", 0x7380539db5934f8e, 0x88142e91ac770229),
    ("replicated3/edf/seeded", 0x1c5264f20df8d1c6, 0x942c13c15db98646),
    ("replicated3/edf/directed", 0xd8b6cb3ceb0130c4, 0x992bee92a4f817c8),
    ("replicated3/preemptive-edf/clean", 0x8fe0a79defea7ec1, 0x37f33d9a86890c05),
    ("replicated3/preemptive-edf/seeded", 0xff17ded17d0dd179, 0xc5a7d8fec60e4b2e),
    ("replicated3/preemptive-edf/directed", 0x40c0b3e4df6d535a, 0x7ca590954724d6ba),
    ("replicated3/sparsity-aware/clean", 0x68e8879a9ad6b0d6, 0x65a1d6f4947ecf85),
    ("replicated3/sparsity-aware/seeded", 0xf0e3fe1ae346cfda, 0xf8e21688f4a78edf),
    ("replicated3/sparsity-aware/directed", 0x709d8c440d50827f, 0x031b7d0b113cdfe6),
    ("mixed2+tp2/fcfs/clean", 0x218623f2f847173a, 0x9c2f8b3148e0c6d3),
    ("mixed2+tp2/fcfs/seeded", 0x2824a623cce90f07, 0x77a10334a5041e56),
    ("mixed2+tp2/fcfs/directed", 0x1dda17dc011e5a6a, 0x671a30b83f239775),
    ("mixed2+tp2/edf/clean", 0xb1f965c641bf27e8, 0x7c48abf8ea7336c2),
    ("mixed2+tp2/edf/seeded", 0xf8b06f812d4d5d07, 0xa5a5f9392527d4fa),
    ("mixed2+tp2/edf/directed", 0xd25c3ef01d027f98, 0x5c474b94be7d6f9f),
    ("mixed2+tp2/preemptive-edf/clean", 0x9104136758d2fdba, 0x90fc9992d1f2b4e1),
    ("mixed2+tp2/preemptive-edf/seeded", 0x053fbef9e24c71e1, 0x644aba71fdc8faad),
    ("mixed2+tp2/preemptive-edf/directed", 0x030830b6cfafe3ef, 0x40d2238a24f9c8b3),
    ("mixed2+tp2/sparsity-aware/clean", 0xe10d3a5277ebd6a8, 0x089a903a0fa1e2f7),
    ("mixed2+tp2/sparsity-aware/seeded", 0xc3479ba2c5ece5b3, 0x97e451cb9e5b7326),
    ("mixed2+tp2/sparsity-aware/directed", 0x6f2065eac27041f7, 0x3c09b4df674e690c),
    ("pp2/fcfs/clean", 0xe3101454d231ded6, 0x84f6aef8f085d50c),
    ("pp2/fcfs/seeded", 0x34523c78ab8b187f, 0x465400d7a578ffde),
    ("pp2/fcfs/directed", 0xf034725a8fde9af9, 0x11a70ee5524e1561),
    ("pp2/edf/clean", 0x9bfa64367b6117b2, 0x1225ce64ded2a6bb),
    ("pp2/edf/seeded", 0xed6c37097bf636ed, 0x32fa802015f841d7),
    ("pp2/edf/directed", 0x732eeb111eebacb7, 0x44d32d7ae705a114),
    ("pp2/preemptive-edf/clean", 0x00b3e7d7a65b8c1a, 0x449e82f1cf0523a4),
    ("pp2/preemptive-edf/seeded", 0x72e80a289c9fe13b, 0xe62f945be149d974),
    ("pp2/preemptive-edf/directed", 0x212425d226f03091, 0xa88dd29242f03f25),
    ("pp2/sparsity-aware/clean", 0x906caaa1d754d9d7, 0xd0c8b044c4cf0fa8),
    ("pp2/sparsity-aware/seeded", 0x3d17441e81e0415b, 0xab5acb62dad4ec3c),
    ("pp2/sparsity-aware/directed", 0x8cc4f3e5f3fc4147, 0x1b8f312ae73c9f35),
    ("auto3/fcfs/clean", 0x2609f04fffbe8dfc, 0xce63c76dd86d3b38),
    ("auto3/fcfs/seeded", 0xbab6f3c40e6bfd84, 0x6c1d4ce78b6edcfe),
    ("auto3/fcfs/directed", 0x871496d2105b0d3a, 0xff7b17966fbd7185),
    ("auto3/edf/clean", 0xf5e66c896a19ff8e, 0xd93cbabcb283fd70),
    ("auto3/edf/seeded", 0x0ad5ccb521f2c64e, 0x56c93de6192a295c),
    ("auto3/edf/directed", 0x360b31865d9e2684, 0x45b2e9015b7e6405),
    ("auto3/preemptive-edf/clean", 0x2923923c184a4745, 0x9d919e46c003cd39),
    ("auto3/preemptive-edf/seeded", 0x4dd7eb4cb3c7fe3a, 0xd6860b7994c4b276),
    ("auto3/preemptive-edf/directed", 0x8f4e93bb497a0c82, 0x40609841f04c6ad5),
    ("auto3/sparsity-aware/clean", 0xdb20316a80fdb6b5, 0x809bccefa44a9dd7),
    ("auto3/sparsity-aware/seeded", 0xc0a26ad837f39b54, 0x5b79db94a2d22be1),
    ("auto3/sparsity-aware/directed", 0x9aa67120f5ec9d72, 0xa851b1926f618f5b),
    ("auto1/fcfs/stranded", 0x5a0fe77f114f2a82, 0xb8b3ff1729f9c9ee),
];

/// The whole-run pin: every corpus config must reproduce its report and
/// its full telemetry stream (spans, slices, instants, counters, tracks,
/// in emission order) byte for byte. Sinks and attribution stay pure
/// observers throughout: the traced report equals the untraced one, and
/// a traced run without attribution emits the same stream and the same
/// report apart from the attribution field itself.
#[test]
fn whole_run_corpus_matches_its_fingerprints() {
    let corpus = whole_run_corpus();
    assert_eq!(corpus.len(), CORPUS_FINGERPRINTS.len());
    // The corpus must reach every terminal and every re-plan trigger.
    let (mut shed, mut lost, mut stranded) = (0, 0, false);
    let (mut epoch_replans, mut fault_replans) = (0, 0);
    for ((name, config, trace), &(golden_name, golden_report, golden_sink)) in
        corpus.iter().zip(&CORPUS_FINGERPRINTS)
    {
        assert_eq!(name, golden_name, "corpus order changed");
        let untraced = ServeSimulator::new(config.clone()).run(trace);
        let mut sink = MemorySink::new();
        let traced = ServeSimulator::new(config.clone()).run_traced(trace, &mut sink);
        assert_eq!(untraced, traced, "{name}: sink perturbed the run");
        let report_fp = debug_fingerprint(&traced);
        let sink_fp = debug_fingerprint(&sink);
        assert_eq!(
            report_fp, golden_report,
            "{name}: report fingerprint {report_fp:#018x} diverged"
        );
        assert_eq!(
            sink_fp, golden_sink,
            "{name}: sink fingerprint {sink_fp:#018x} diverged"
        );
        let mut quiet = config.clone();
        quiet.attribution = false;
        let mut quiet_sink = MemorySink::new();
        let mut quiet_report = ServeSimulator::new(quiet).run_traced(trace, &mut quiet_sink);
        assert!(
            quiet_report.attribution.is_none(),
            "{name}: attribution off"
        );
        assert_eq!(quiet_sink, sink, "{name}: attribution perturbed the sink");
        quiet_report.attribution = traced.attribution.clone();
        assert_eq!(
            quiet_report, traced,
            "{name}: attribution perturbed the run"
        );
        shed += traced.shed_requests;
        lost += traced.lost_requests;
        let replans = traced.planner.as_ref().map_or(0, |p| p.replan_count());
        let on_fault = traced.fault.as_ref().map_or(0, |f| f.replans_triggered);
        epoch_replans += replans - on_fault;
        fault_replans += on_fault;
        stranded |= name.ends_with("stranded") && traced.lost_requests > 0;
    }
    assert!(shed > 0 && lost > 0 && stranded);
    assert!(epoch_replans > 0 && fault_replans > 0);
}
