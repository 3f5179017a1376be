//! Serving-traffic forensics: run one representative scenario, print its
//! latency-attribution table (where requests spend their time, and what the
//! SLO misses died of), and optionally export its timeline and full
//! attribution report.
//!
//! ```sh
//! cargo run --release --example serving_sim
//! ```
//!
//! The serving experiments — load sweeps and the saturation knee, policy,
//! preemption, admission, sharding, planner and chaos comparisons — are
//! `serve_sweep` (`cargo run --release -p exion-bench --bin serve_sweep`).
//! Timing the serving stack is the repository benchmark's job
//! (`perfbench/`, workloads `serve_fleet`, `serve_backlog` and
//! `serve_control`), whose repeated runs `BENCH_serve.json` records.
//!
//! `EXION_SERVE_MODE` selects the scenario (see [`MODES`]; unset means
//! `default`): `default` is the single-instance sparsity-aware batcher at
//! 90% load, `sharded` a TP=2 gang, `admission` deadline admission past the
//! knee, `planned` auto-placement over a diurnal ramp, and `chaos` the
//! `planned` scenario over the multi-tenant mix with unit 0 crashing at
//! mid-horizon for a quarter horizon.
//! `EXION_SERVE_HORIZON_MS` caps the trace horizon (CI smoke runs use a
//! small value; the default is the full 4 s trace).
//! `EXION_SERVE_TRACE=<path>` writes the scenario's timeline as Chrome
//! trace-event JSON to `<path>` (load in Perfetto or `chrome://tracing`).
//! `EXION_SERVE_ATTRIB=<path>` writes the scenario's full latency-attribution
//! report (per-request phase breakdowns, miss forensics) as JSON to
//! `<path>`.

use exion::serve::{
    attribution_json, chrome_trace_json, FaultPlan, MemorySink, MissCause, Phase, Placement,
    PlacementPlanner, PlannerConfig, ServeConfig, ServeConfigBuilder, ServeReport, ServeSimulator,
    TraceConfig, TrafficPattern, WorkloadMix,
};
use exion::sim::config::HwConfig;
use exion::sim::partition::PartitionStrategy;

/// The scenarios `EXION_SERVE_MODE` selects from.
const MODES: [&str; 5] = ["default", "sharded", "admission", "planned", "chaos"];

fn horizon_ms() -> f64 {
    std::env::var("EXION_SERVE_HORIZON_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v.max(100.0))
        .unwrap_or(4_000.0)
}

/// Asserts the extended conservation law (`served + shed + lost ==
/// arrivals`) and prints the run's fault accounting, if it ran faults.
fn report_chaos(report: &ServeReport) {
    assert_eq!(
        report.completed + report.shed_requests + report.lost_requests,
        report.arrivals,
        "conservation: every released arrival must be served, shed, or lost"
    );
    let Some(f) = &report.fault else {
        return;
    };
    println!(
        "  chaos: {} injected ({} noop) | {} lost | {} checkpoint-recovered | \
         {} re-plan(s) | {} recovered (mean {:.0} ms) | SLO under failure {:.1}%",
        f.faults_injected,
        f.faults_noop,
        f.lost_requests,
        f.checkpointed_recoveries,
        f.replans_triggered,
        f.recoveries,
        f.mean_time_to_recover_ms,
        100.0 * f.attainment_under_failure,
    );
}

/// The representative scenario of `mode`: the one run the attribution
/// table and both exports describe.
///
/// # Panics
///
/// Panics on a mode outside [`MODES`], listing them.
fn representative_scenario(horizon_ms: f64, mode: &str) -> (ServeConfigBuilder, TraceConfig) {
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw))
        .capacity_estimate_rps(&WorkloadMix::multi_tenant());
    match mode {
        // Auto-placement over a diurnal ramp: re-plans show up as replan
        // instants and migration-drain slices. Chaos mode serves the
        // multi-tenant mix, whose short generations finish before the
        // fault, crashes unit 0 at mid-horizon and repairs it a quarter
        // horizon later.
        "planned" | "chaos" => {
            let builder = ServeConfig::builder(hw).auto_placement(
                PlacementPlanner::new(
                    PlannerConfig::new(2).with_replanning(horizon_ms / 4.0, 0.35),
                ),
                0.3 * capacity,
            );
            let (builder, mix) = if mode == "chaos" {
                let crash = FaultPlan::empty().crash(horizon_ms / 2.0, 0, horizon_ms / 4.0);
                (builder.fault_plan(crash), WorkloadMix::multi_tenant())
            } else {
                (builder, WorkloadMix::text_to_video())
            };
            (
                builder,
                TraceConfig {
                    pattern: TrafficPattern::Diurnal {
                        peak_rps: 0.9 * capacity,
                        trough_frac: 0.3,
                    },
                    horizon_ms,
                    seed: 42,
                    mix,
                },
            )
        }
        // A TP=2 gang: every iteration carries collective slices on both
        // member tracks.
        "sharded" => (
            ServeConfig::builder(hw)
                .placement(Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 })),
            TraceConfig {
                pattern: TrafficPattern::Poisson {
                    rate_rps: 0.8 * capacity,
                },
                horizon_ms,
                seed: 42,
                mix: WorkloadMix::text_to_video(),
            },
        ),
        // Deadline admission past the knee: shed terminals and degraded
        // admissions join the span chains.
        "admission" => (
            ServeConfig::builder(hw)
                .policy_name("preemptive-edf")
                .admission_name("deadline"),
            TraceConfig {
                pattern: TrafficPattern::Bursty {
                    rate_rps: 1.0,
                    burst_multiplier: 4.0,
                    mean_dwell_ms: 400.0,
                }
                .with_mean_rps(1.3 * capacity),
                horizon_ms,
                seed: 42,
                mix: WorkloadMix::multi_tenant(),
            },
        ),
        // The single-instance multi-tenant batcher at 90% load.
        "default" => (
            ServeConfig::builder(hw).policy_name("sparsity-aware"),
            TraceConfig {
                pattern: TrafficPattern::Poisson {
                    rate_rps: 0.9 * capacity,
                },
                horizon_ms,
                seed: 42,
                mix: WorkloadMix::multi_tenant(),
            },
        ),
        other => panic!("unknown EXION_SERVE_MODE {other:?}; modes: {MODES:?}"),
    }
}

/// Prints a report's latency-attribution table: per-phase share of the
/// aggregate breakdown with tail quantiles, the dominant bottleneck
/// phases, classified miss causes, and the worst-overshoot forensics rows.
fn print_attribution(report: &ServeReport) {
    let Some(a) = &report.attribution else {
        return;
    };
    println!(
        "  latency attribution | {} requests, {} missed",
        a.requests.len(),
        a.missed_requests(),
    );
    let grand = a.totals.total_ms().max(1e-9);
    for (phase, stats) in Phase::ALL.iter().zip(&a.phase_stats) {
        let total = a.totals.get(*phase);
        if total <= 0.0 {
            continue;
        }
        println!(
            "    {:>15} | {:>5.1}% of latency | p50 {:>8.2} ms | p95 {:>8.2} ms | \
             max {:>8.2} ms",
            phase.label(),
            100.0 * total / grand,
            stats.p50,
            stats.p95,
            stats.max,
        );
    }
    if let (Some(p50), Some(p95)) = (a.dominant_p50, a.dominant_p95) {
        println!(
            "    bottleneck: {} dominates the median request, {} the p95 tail",
            p50.label(),
            p95.label(),
        );
    }
    if let Some(missed) = a.missed_dominant_p95 {
        println!(
            "    missed requests spend their p95 tail in {}",
            missed.label()
        );
    }
    let causes: Vec<String> = MissCause::ALL
        .iter()
        .zip(&a.miss_causes)
        .filter(|(_, &n)| n > 0)
        .map(|(c, n)| format!("{} x{n}", c.label()))
        .collect();
    if !causes.is_empty() {
        println!("    miss causes: {}", causes.join(", "));
    }
    for m in a.top_misses.iter().take(3) {
        println!(
            "    worst miss: request {} ({}) overshot its {:.0} ms SLO by {:>7.1} ms \
             ({}, dominant {})",
            m.id,
            m.model.name(),
            m.slo_ms,
            m.overshoot_ms,
            m.cause.label(),
            m.dominant.map_or("-", |p| p.label()),
        );
    }
}

fn main() {
    let horizon_ms = horizon_ms();
    let mode = std::env::var("EXION_SERVE_MODE").unwrap_or_else(|_| "default".to_string());
    let (config, trace) = representative_scenario(horizon_ms, &mode);
    let trace_path = std::env::var("EXION_SERVE_TRACE").ok();
    // Telemetry is a pure observer: the traced run's report equals the
    // untraced one, so one run serves the table and both exports.
    let mut sink = MemorySink::new();
    let mut sim = ServeSimulator::new(config.build());
    let report = match trace_path {
        Some(_) => sim.run_traced(&trace, &mut sink),
        None => sim.run(&trace),
    };

    println!("== latency attribution | representative {mode:?} scenario");
    print_attribution(&report);
    report_chaos(&report);
    if let Ok(path) = std::env::var("EXION_SERVE_ATTRIB") {
        let attrib = report
            .attribution
            .as_ref()
            .expect("attribution is on by default");
        let json = attribution_json(attrib);
        assert!(
            exion::serve::telemetry::json::is_well_formed(&json),
            "attribution export must be well-formed JSON"
        );
        std::fs::write(&path, &json).expect("write attribution JSON");
        println!(
            "  wrote attribution report for mode {mode:?} to {path}: {} requests, \
             {} forensics rows",
            attrib.requests.len(),
            attrib.top_misses.len(),
        );
    }
    if mode == "default" {
        println!();
    }

    let Some(path) = trace_path else {
        return;
    };
    std::fs::write(&path, chrome_trace_json(&sink)).expect("write Chrome trace");
    let profile = sim.last_run_profile().expect("a run leaves a profile");
    println!(
        "wrote Chrome trace for mode {mode:?} to {path}: {} spans, {} slices, \
         {} instants over {} requests ({:.0} sim-ms/wall-ms)",
        sink.spans.len(),
        sink.slices.len(),
        sink.instants.len(),
        report.arrivals,
        profile.sim_ms_per_wall_ms(),
    );
    if let Some(f) = &report.fault {
        // The chaos scenario is busy at its fault time, so the plan must
        // kill something (a plan that only no-ops is wired to nothing),
        // and the kill must reach the exported timeline.
        assert!(
            f.faults_injected > 0,
            "the fault plan fired only no-ops against the scenario"
        );
        assert!(
            sink.instants.iter().any(|i| i.name == "fault"),
            "injected faults must appear as trace instants"
        );
    }
}
