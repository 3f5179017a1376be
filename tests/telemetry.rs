//! Telemetry invariants: the instrumentation plane is a *pure observer*
//! (a run with a sink attached produces a report identical to one
//! without), request span chains are conserved (every arrival opens
//! exactly one chain and every chain ends in exactly one terminal event,
//! matching the report's completion/shed/lost accounting), the Chrome trace
//! export is well-formed JSON with per-unit timeline coverage, metric
//! time-series sample on the configured cadence, and the streaming
//! log-bucketed histogram's percentiles stay within one bucket width of
//! the exact sorted percentiles for arbitrary sample sets.

use std::collections::HashMap;

use exion::serve::telemetry::json::is_well_formed;
use exion::serve::{
    chrome_trace_json, FaultPlan, LogHistogram, MemorySink, PartitionStrategy, Placement,
    PlacementPlanner, PlannerConfig, RequestEvent, ServeConfig, ServeReport, ServeSimulator,
    SliceKind, TraceConfig, TrafficPattern, WorkloadMix,
};
use exion::sim::config::HwConfig;
use proptest::prelude::*;

/// The diurnal auto-placement scenario: ramps through a re-plan so the
/// trace exercises migrations, drains, and replan markers — the hardest
/// path for observer purity.
fn planned_scenario() -> (ServeConfig, TraceConfig) {
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw))
        .capacity_estimate_rps(&WorkloadMix::text_to_motion());
    let horizon_ms = 1_200.0;
    let planner =
        PlacementPlanner::new(PlannerConfig::new(2).with_replanning(horizon_ms / 4.0, 0.35));
    let config = ServeConfig::builder(hw)
        .auto_placement(planner, 0.3 * capacity)
        .build();
    let trace = TraceConfig {
        pattern: TrafficPattern::Diurnal {
            peak_rps: 0.9 * capacity,
            trough_frac: 0.3,
        },
        horizon_ms,
        seed: 0xEA51,
        mix: WorkloadMix::text_to_motion(),
    };
    (config, trace)
}

/// A shedding/degrading scenario so terminal accounting covers more than
/// completions.
fn admission_scenario() -> (ServeConfig, TraceConfig) {
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw))
        .capacity_estimate_rps(&WorkloadMix::text_to_motion());
    let config = ServeConfig::builder(hw)
        .policy_name("preemptive-edf")
        .admission_name("deadline")
        .build();
    let trace = TraceConfig {
        pattern: TrafficPattern::Bursty {
            rate_rps: 1.0,
            burst_multiplier: 4.0,
            mean_dwell_ms: 250.0,
        }
        .with_mean_rps(1.6 * capacity),
        horizon_ms: 1_200.0,
        seed: 0xBEEF,
        mix: WorkloadMix::multi_tenant(),
    };
    (config, trace)
}

/// A faulted scenario: a whole-unit crash and a gang-member loss with no
/// checkpoints, so requests die mid-flight and in the queue and span
/// accounting must cover the `Lost` terminal too.
fn faulted_scenario() -> (ServeConfig, TraceConfig) {
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw))
        .capacity_estimate_rps(&WorkloadMix::text_to_motion());
    let config = ServeConfig::builder(hw)
        .placement(Placement::mixed(
            1,
            1,
            PartitionStrategy::Tensor { ways: 2 },
        ))
        .policy_name("preemptive-edf")
        .fault_plan(
            FaultPlan::empty()
                .crash(300.0, 0, 100.0)
                .member_loss(600.0, 1, 1, 100.0),
        )
        .build();
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 1.5 * capacity,
        },
        horizon_ms: 1_200.0,
        seed: 0xFA11,
        mix: WorkloadMix::text_to_motion(),
    };
    (config, trace)
}

fn traced_run(config: &ServeConfig, trace: &TraceConfig) -> (ServeReport, MemorySink) {
    let mut sink = MemorySink::new();
    let report = ServeSimulator::new(config.clone()).run_traced(trace, &mut sink);
    (report, sink)
}

#[test]
fn attached_sink_never_perturbs_the_simulation() {
    for (config, trace) in [planned_scenario(), admission_scenario()] {
        let baseline = ServeSimulator::new(config.clone()).run(&trace);
        let (traced, sink) = traced_run(&config, &trace);
        assert_eq!(
            baseline, traced,
            "a run with a sink attached must be indistinguishable from one without"
        );
        assert!(!sink.is_empty(), "traced run must emit telemetry");
    }
}

#[test]
fn span_chains_are_conserved() {
    for (config, trace) in [planned_scenario(), admission_scenario(), faulted_scenario()] {
        let (report, sink) = traced_run(&config, &trace);
        let mut arrivals: HashMap<u64, usize> = HashMap::new();
        let mut terminals: HashMap<u64, usize> = HashMap::new();
        let mut completed = 0usize;
        let mut shed = 0usize;
        let mut lost = 0usize;
        for s in &sink.spans {
            match s.event {
                RequestEvent::Arrival => *arrivals.entry(s.request).or_default() += 1,
                RequestEvent::Completed { .. } => {
                    completed += 1;
                    *terminals.entry(s.request).or_default() += 1;
                }
                RequestEvent::Shed => {
                    shed += 1;
                    *terminals.entry(s.request).or_default() += 1;
                }
                RequestEvent::Lost => {
                    lost += 1;
                    *terminals.entry(s.request).or_default() += 1;
                }
                _ => {}
            }
        }
        assert_eq!(arrivals.len(), report.arrivals, "one chain per arrival");
        assert!(arrivals.values().all(|&n| n == 1), "duplicate Arrival span");
        assert_eq!(completed, report.completed);
        assert_eq!(shed, report.shed_requests);
        assert_eq!(lost, report.lost_requests);
        for (id, n) in &terminals {
            assert_eq!(*n, 1, "request {id} must end in exactly one terminal");
            assert!(arrivals.contains_key(id), "terminal without arrival: {id}");
        }
        // Every chain that opened also closed: the cluster drains fully.
        assert_eq!(terminals.len(), arrivals.len(), "unterminated span chains");
        // Chains are causally ordered: no event precedes its arrival.
        let mut first_seen: HashMap<u64, f64> = HashMap::new();
        for s in &sink.spans {
            if let RequestEvent::Arrival = s.event {
                first_seen.insert(s.request, s.at_ms);
            }
        }
        for s in &sink.spans {
            let t0 = first_seen[&s.request];
            assert!(
                s.at_ms >= t0 - 1e-9,
                "event {:?} at {} precedes arrival at {t0}",
                s.event,
                s.at_ms
            );
        }
    }
}

#[test]
fn chrome_trace_export_is_well_formed_and_covers_units() {
    let (config, trace) = planned_scenario();
    let (report, sink) = traced_run(&config, &trace);
    assert!(
        sink.slices.iter().any(|s| s.kind == SliceKind::Busy),
        "timeline must carry busy slices"
    );
    assert!(
        sink.slices.iter().any(|s| s.kind == SliceKind::Idle),
        "timeline must carry idle slices"
    );
    if report
        .planner
        .as_ref()
        .map(|p| p.replan_count())
        .unwrap_or(0)
        > 0
    {
        assert!(
            sink.slices.iter().any(|s| s.kind == SliceKind::Drain),
            "a re-planned run must show migration drains"
        );
        assert!(
            sink.instants.iter().any(|m| m.name == "replan"),
            "re-plans must drop instant markers"
        );
    }
    for s in &sink.slices {
        assert!(s.dur_ms > 0.0, "zero/negative-width slice: {s:?}");
        assert!(s.start_ms.is_finite() && s.start_ms >= 0.0);
        assert!(
            sink.tracks.iter().any(|(id, _)| *id == s.instance),
            "slice on undeclared track {}",
            s.instance
        );
    }
    let json = chrome_trace_json(&sink);
    assert!(is_well_formed(&json), "export must be valid JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(
        json.matches("\"ph\":\"X\"").count() > 0,
        "no complete events"
    );
    assert!(json.matches("\"ph\":\"b\"").count() > 0, "no span opens");
}

#[test]
fn metric_series_sample_on_the_configured_cadence() {
    let hw = HwConfig::exion4();
    let config = ServeConfig::builder(hw)
        .admission_name("deadline")
        .stats_interval_ms(100.0)
        .build();
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: 40.0 },
        horizon_ms: 1_000.0,
        seed: 9,
        mix: WorkloadMix::text_to_motion(),
    };
    let report = ServeSimulator::new(config).run(&trace);
    assert!(
        report.series.len() >= 5,
        "a 1s horizon at 100ms cadence must sample repeatedly, got {}",
        report.series.len()
    );
    let mut prev = f64::NEG_INFINITY;
    for snap in &report.series {
        assert!(snap.at_ms > prev, "snapshots must advance in time");
        prev = snap.at_ms;
        assert!(!snap.values.is_empty());
    }
    // Counters are cumulative (Prometheus-style): non-decreasing across
    // snapshots and never beyond the run totals.
    let values_of = |name: &str| -> Vec<f64> {
        report
            .series
            .iter()
            .flat_map(|s| &s.values)
            .filter(|v| v.name == name)
            .map(|v| v.value)
            .collect()
    };
    for (name, total) in [
        ("completed", report.completed),
        ("shed", report.shed_requests),
        ("degraded", report.degraded_requests),
        ("arrivals_released", report.arrivals),
    ] {
        let vals = values_of(name);
        assert_eq!(vals.len(), report.series.len(), "{name} missing samples");
        assert!(
            vals.windows(2).all(|w| w[1] >= w[0]),
            "{name} counter went backward"
        );
        assert!(
            *vals.last().unwrap() <= total as f64,
            "{name} exceeded the run total"
        );
    }
    // By the last sample most of the trace has been released.
    assert!(*values_of("arrivals_released").last().unwrap() > 0.0);
}

#[test]
fn run_profile_meters_the_run() {
    let (config, trace) = planned_scenario();
    let mut sim = ServeSimulator::new(config);
    assert!(sim.last_run_profile().is_none());
    let report = sim.run(&trace);
    let profile = *sim.last_run_profile().expect("run must leave a profile");
    assert!(profile.wall_ms > 0.0);
    assert!(profile.planner_calls >= 1, "offline plan must be metered");
    assert!(profile.planner_wall_ms <= profile.wall_ms);
    assert!(profile.iterations > 0);
    assert_eq!(profile.completed, report.completed);
    assert_eq!(profile.makespan_ms, report.makespan_ms);
    assert!(profile.sim_ms_per_wall_ms() > 0.0);
}

/// Splitmix-style generator (the vendored proptest has no collection
/// strategies, so sample sets derive from a sampled seed).
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

    /// A latency-shaped sample in (0, ~1e5) ms, log-uniformly spread so
    /// every histogram decade gets traffic.
    fn sample_ms(&mut self) -> f64 {
        let u = (self.next() % 1_000_000) as f64 / 1_000_000.0;
        10f64.powf(u * 7.0 - 2.0)
    }
}

/// Exact nearest-rank percentile over a sorted slice — the reference the
/// streaming histogram is allowed to deviate from by at most one bucket.
fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any sample set, every reported percentile is within one
    /// log-bucket width (a multiplicative factor of the bucket growth) of
    /// the exact sorted nearest-rank percentile.
    #[test]
    fn histogram_percentiles_within_one_bucket_of_exact(
        seed in 0u64..1_000_000,
        n in 1usize..4_000,
    ) {
        let mut rng = XorShift(seed);
        let mut hist = LogHistogram::default();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.sample_ms();
            hist.record(v);
            samples.push(v);
        }
        samples.sort_by(f64::total_cmp);
        let growth = hist.growth();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_percentile(&samples, q);
            let est = hist.percentile(q);
            prop_assert!(
                est >= exact / growth - 1e-12 && est <= exact * growth + 1e-12,
                "p{q}: estimate {est} outside one bucket of exact {exact} (growth {growth})"
            );
        }
        prop_assert_eq!(hist.count(), n as u64);
        prop_assert!(hist.percentile(1.0) <= hist.max() + 1e-12);
        prop_assert!(hist.percentile(0.0) >= hist.min() - 1e-12);
    }
}
