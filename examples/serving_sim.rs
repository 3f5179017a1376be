//! Serving-traffic simulation: sweep the arrival rate across traffic
//! patterns and hardware instances to find each deployment's saturation
//! knee, compare scheduling policies at high load, measure what
//! iteration-boundary preemption buys the urgent tenant class under bursty
//! traffic, and show deadline-feasibility admission turning goodput
//! collapse into saturation.
//!
//! ```sh
//! cargo run --release --example serving_sim
//! ```
//!
//! The example prints simulated results; timing the serving stack is the
//! repository benchmark's job (`perfbench/`, workloads `serve_fleet`,
//! `serve_backlog` and `serve_control`), whose repeated runs
//! `BENCH_serve.json` records.
//!
//! `EXION_SERVE_HORIZON_MS` caps the trace horizon (CI smoke runs use a
//! small value; the default is the full 4 s trace).
//! `EXION_SERVE_MODE=sharded` runs only the replicated-vs-sharded
//! comparison (the CI sharded smoke step).
//! `EXION_SERVE_MODE=planned` runs only the placement-planner comparison
//! (the CI planner smoke step).
//! `EXION_SERVE_ADMISSION=<name>` runs only the admission comparison,
//! with `<name>` (an admission-registry name, e.g. `deadline`) validated
//! against the registry (the CI admission smoke step).
//! `EXION_SERVE_TRACE=<path>` additionally runs one representative traced
//! scenario for the selected mode and writes its timeline as Chrome
//! trace-event JSON to `<path>` (load in Perfetto or `chrome://tracing`).
//! `EXION_SERVE_ATTRIB=<path>` writes the representative scenario's full
//! latency-attribution report (per-request phase breakdowns, miss
//! forensics) as JSON to `<path>`; the attribution table the example
//! prints per mode comes from the same representative run.
//! `EXION_SERVE_FAULTS=<spec>` injects a fault plan into every scenario
//! this example builds itself (the load sweeps, the policy/preemption
//! comparisons, and the traced scenario of whichever mode is selected):
//! a comma-separated `key=value` list (`crashes=2,seed=7,mtbf_ms=900`,
//! or a directed `unit=0,at_ms=600,repair_ms=300`, optionally
//! `member=<m>`, plus `degrade=<x>,degrade_ms=<w>`) or a bare preset
//! name (`midpoint-crash`, `member-loss`, `ring-degrade`). The chaos
//! comparison section (faults on vs off at matched load) always runs in
//! the default mode.

use exion::serve::{
    admission, attribution_json, chrome_trace_json, policy, FaultPlan, MemorySink, MissCause,
    Phase, Placement, PlacementPlanner, PlannerConfig, ServeConfig, ServeConfigBuilder,
    ServeSimulator, TraceConfig, TrafficPattern, WorkloadMix,
};
use exion::sim::config::HwConfig;
use exion::sim::partition::PartitionStrategy;
use exion_bench::experiments::serve_sweep::{
    admission_comparison, chaos_comparison, goodput_crossover, planner_comparison,
    sharding_comparison,
};
use exion_model::config::ModelKind;

fn horizon_ms() -> f64 {
    std::env::var("EXION_SERVE_HORIZON_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v.max(100.0))
        .unwrap_or(4_000.0)
}

/// `EXION_SERVE_FAULTS=<spec>`: the fault plan every example-built
/// scenario runs under (`None` when the knob is unset — the default,
/// byte-identical to a build without the fault subsystem).
fn fault_plan_from_env(horizon_ms: f64) -> Option<FaultPlan> {
    let spec = std::env::var("EXION_SERVE_FAULTS").ok()?;
    let plan = FaultPlan::from_env_spec(&spec, horizon_ms)
        .unwrap_or_else(|e| panic!("EXION_SERVE_FAULTS: {e}"));
    (!plan.is_empty()).then_some(plan)
}

/// Applies the `EXION_SERVE_FAULTS` plan (if any) to a config under
/// construction.
fn with_env_faults(builder: ServeConfigBuilder, horizon_ms: f64) -> ServeConfigBuilder {
    match fault_plan_from_env(horizon_ms) {
        Some(plan) => builder.fault_plan(plan),
        None => builder,
    }
}

/// Prints a run's fault accounting and asserts the extended conservation
/// law (`served + shed + lost == arrivals`) the chaos CI smoke pins.
fn report_chaos(report: &exion::serve::ServeReport) {
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

/// Chaos comparison: SLO attainment with faults on vs off at matched
/// load, replicated x2 vs one TP=2 gang. Replicas degrade gracefully; a
/// gang losing one member loses the whole gang's capacity until repair.
fn chaos_section(horizon_ms: f64) {
    println!(
        "== EXION4 | fault injection at 60% load (text-to-video, one \
         instance lost mid-horizon)"
    );
    for c in chaos_comparison(&HwConfig::exion4(), Some(horizon_ms)) {
        let f = c.faulted.fault.clone().unwrap_or_default();
        println!(
            "  {:>14} | no faults: SLO {:>5.1}% goodput {:>5.2} rps | {}: \
             SLO {:>5.1}% (in-window {:>5.1}%) | {} lost, {} requeued",
            c.label,
            100.0 * c.baseline.slo_attainment,
            c.baseline.goodput_rps,
            c.fault,
            100.0 * c.faulted.slo_attainment,
            100.0 * f.attainment_under_failure,
            f.lost_requests,
            f.records.iter().map(|r| r.requeued).sum::<usize>(),
        );
        report_chaos(&c.faulted);
    }
}

/// Replicated-vs-sharded comparison: two whole-model replicas vs one TP=2
/// gang vs one PP=2 gang on the working-set-exceeding VideoCrafter2 mix.
fn sharded_comparison(horizon_ms: f64) {
    println!(
        "== EXION4 | replicated vs sharded on a 2-instance budget \
         (text-to-video: VideoCrafter2 exceeds one GSC)"
    );
    let sweeps = sharding_comparison(&HwConfig::exion4(), Some(horizon_ms));
    for sweep in &sweeps {
        println!("-- {}", sweep.label);
        for p in &sweep.points {
            let r = &p.report;
            println!(
                "  load {:>3.0}% | p50 {:>8.1} ms | p95 {:>8.1} ms | goodput {:>5.2} rps | \
                 GSC hit {:>5.1}% | collectives {:>7.1} ms",
                100.0 * p.load_frac,
                r.latency.p50,
                r.latency.p95,
                r.goodput_rps,
                100.0 * r.residency_hit_rate,
                r.collective_ms,
            );
        }
    }
    for sharded in &sweeps[1..] {
        match goodput_crossover(&sweeps[0], sharded) {
            Some(frac) => println!(
                "  {} vs replicated: goodput leader flips at {:.0}% load",
                sharded.label,
                100.0 * frac
            ),
            None => println!(
                "  {} vs replicated: one placement leads across the swept range",
                sharded.label
            ),
        }
    }
}

/// Placement-planner comparison: auto-placement vs every hand-picked
/// static placement on the text-to-video mix and a 2-instance budget, plus
/// the diurnal online re-planning run (the CI planner smoke step).
fn planned_comparison(horizon_ms: f64) {
    println!(
        "== EXION4 | placement planner vs hand-picked placements \
         (text-to-video, 2-instance budget)"
    );
    let cmp = planner_comparison(&HwConfig::exion4(), Some(horizon_ms));
    for (label, points) in cmp
        .static_sweeps
        .iter()
        .map(|s| (s.label.clone(), &s.points))
        .chain(std::iter::once(("planned".to_string(), &cmp.planned)))
    {
        println!("-- {label}");
        for p in points {
            let r = &p.report;
            println!(
                "  load {:>3.0}% | p50 {:>8.1} ms | p95 {:>8.1} ms | goodput {:>5.2} rps | \
                 SLO {:>5.1}%",
                100.0 * p.load_frac,
                r.latency.p50,
                r.latency.p95,
                r.goodput_rps,
                100.0 * r.slo_attainment,
            );
        }
    }
    for (frac, pick) in &cmp.picks {
        println!("  planner pick at {:.0}% load: {pick}", 100.0 * frac);
    }
    if let Some(pr) = &cmp.diurnal.planner {
        println!(
            "  diurnal ramp: {} -> {} | {} re-plan(s), {:.1} MB migrated, \
             mean forecast error {:.0}%",
            pr.initial_placement,
            pr.final_placement,
            pr.replan_count(),
            pr.migration_bytes() as f64 / 1e6,
            100.0 * pr.mean_forecast_error(),
        );
        for r in &pr.replans {
            println!(
                "    re-plan at {:>6.0} ms: {} -> {} ({:.1} MB re-streamed, {} drained)",
                r.at_ms,
                r.from,
                r.to,
                r.migration_bytes as f64 / 1e6,
                r.drained_requests,
            );
        }
    }
}

/// Admission-control comparison on the bursty MMPP text-to-motion trace:
/// the admit-all baseline vs `subject` (an admission-registry name) —
/// load shedding turns goodput collapse past the knee into saturation.
fn admission_section(horizon_ms: f64, subject: &str) {
    println!(
        "== EXION24 | admission control, bursty MMPP text-to-motion trace (EDF)\n\
         (deadline sheds/degrades arrivals whose projected completion misses the SLO)"
    );
    let sweeps = admission_comparison(&HwConfig::exion24(), Some(horizon_ms));
    let shown: Vec<_> = sweeps
        .iter()
        .filter(|s| s.label == "admit-all" || s.label == subject)
        .collect();
    for sweep in &shown {
        println!("-- {}", sweep.label);
        for p in &sweep.points {
            let r = &p.report;
            println!(
                "  load {:>3.0}% | goodput {:>6.1} rps | SLO {:>5.1}% | \
                 shed {:>4} ({:>4.1}%) | degraded {:>4} | p95 {:>7.1} ms",
                100.0 * p.load_frac,
                r.goodput_rps,
                100.0 * r.slo_attainment,
                r.shed_requests,
                100.0 * r.shed_rate(),
                r.degraded_requests,
                r.latency.p95,
            );
        }
    }
    match &shown[..] {
        [admit_all, shedding] => {
            let a = &admit_all.points.last().expect("swept points").report;
            let d = &shedding.points.last().expect("swept points").report;
            let verdict = if d.goodput_rps > a.goodput_rps {
                "shedding turned the collapse into saturation"
            } else {
                "no win at this horizon — expected only past the knee on long traces"
            };
            println!(
                "  past the knee: goodput {:.1} rps (admit-all) vs {:.1} rps ({}); {}",
                a.goodput_rps, d.goodput_rps, shedding.label, verdict,
            );
        }
        _ => println!(
            "  subject {subject:?} is the admit-all baseline itself — \
             no comparison to draw"
        ),
    }
}

/// One representative scenario per example mode — the run the Chrome
/// trace export, the attribution table, and the attribution JSON export
/// all share, so the three observability surfaces describe the same
/// simulated traffic.
fn representative_scenario(horizon_ms: f64, mode: &str) -> (ServeConfigBuilder, TraceConfig) {
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw))
        .capacity_estimate_rps(&WorkloadMix::multi_tenant());
    match mode {
        // Auto-placement over a diurnal ramp: re-plans show up as replan
        // instants and migration-drain slices.
        "planned" => (
            ServeConfig::builder(hw).auto_placement(
                PlacementPlanner::new(
                    PlannerConfig::new(2).with_replanning(horizon_ms / 4.0, 0.35),
                ),
                0.3 * capacity,
            ),
            TraceConfig {
                pattern: TrafficPattern::Diurnal {
                    peak_rps: 0.9 * capacity,
                    trough_frac: 0.3,
                },
                horizon_ms,
                seed: 42,
                mix: WorkloadMix::text_to_video(),
            },
        ),
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
        // Default: the single-instance multi-tenant batcher at 90% load.
        _ => (
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
    }
}

/// `EXION_SERVE_TRACE=<path>`: run one representative traced scenario for
/// `mode` and dump its timeline as Chrome trace-event JSON. The traced
/// run is dedicated (the comparisons above stay untraced), and telemetry
/// is a pure observer, so the numbers printed elsewhere are unaffected.
fn maybe_export_chrome_trace(horizon_ms: f64, mode: &str) {
    let Ok(path) = std::env::var("EXION_SERVE_TRACE") else {
        return;
    };
    let (config, trace) = representative_scenario(horizon_ms, mode);
    let mut sink = MemorySink::new();
    let mut sim = ServeSimulator::new(with_env_faults(config, horizon_ms).build());
    let report = sim.run_traced(&trace, &mut sink);
    let json = chrome_trace_json(&sink);
    std::fs::write(&path, &json).expect("write Chrome trace");
    let profile = sim.last_run_profile().expect("traced run leaves a profile");
    println!(
        "wrote Chrome trace for mode {mode:?} to {path}: {} spans, {} slices, \
         {} instants over {} requests ({:.0} sim-ms/wall-ms)",
        sink.spans.len(),
        sink.slices.len(),
        sink.instants.len(),
        report.arrivals,
        profile.sim_ms_per_wall_ms(),
    );
    report_chaos(&report);
    if fault_plan_from_env(horizon_ms).is_some() {
        // The CI chaos smoke pins this: the traced scenario is busy at
        // every mode's fault times, so the plan must actually kill
        // something (a plan that only no-ops means the knob is wired to
        // nothing).
        let f = report.fault.as_ref().expect("chaos run carries a report");
        assert!(
            f.faults_injected > 0,
            "EXION_SERVE_FAULTS fired only no-ops against the traced scenario"
        );
        assert!(
            sink.instants.iter().any(|i| i.name == "fault"),
            "injected faults must appear as trace instants"
        );
    }
}

/// Prints a report's latency-attribution table: per-phase share of the
/// aggregate breakdown with tail quantiles, the dominant bottleneck
/// phases, classified miss causes, and the worst-overshoot forensics rows.
fn print_attribution(report: &exion::serve::ServeReport) {
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

/// Attribution forensics for the selected mode: run the representative
/// scenario (untraced — attribution needs no sink), print its phase
/// table, and honor `EXION_SERVE_ATTRIB=<path>` by writing the full
/// attribution report as JSON.
fn attribution_section(horizon_ms: f64, mode: &str) {
    let (config, trace) = representative_scenario(horizon_ms, mode);
    let report = ServeSimulator::new(with_env_faults(config, horizon_ms).build()).run(&trace);
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
}

fn main() {
    let mix = WorkloadMix::multi_tenant();
    let horizon_ms = horizon_ms();
    if std::env::var("EXION_SERVE_MODE").as_deref() == Ok("sharded") {
        // CI sharded smoke: just the gang-scheduling path.
        sharded_comparison(horizon_ms);
        attribution_section(horizon_ms, "sharded");
        maybe_export_chrome_trace(horizon_ms, "sharded");
        return;
    }
    if std::env::var("EXION_SERVE_MODE").as_deref() == Ok("planned") {
        // CI planner smoke: auto-placement (offline picks + online
        // re-planning) only.
        planned_comparison(horizon_ms);
        attribution_section(horizon_ms, "planned");
        maybe_export_chrome_trace(horizon_ms, "planned");
        return;
    }
    if let Ok(name) = std::env::var("EXION_SERVE_ADMISSION") {
        // CI admission smoke: run only the admission comparison, with the
        // named controller (validated against the registry) as its subject
        // next to the admit-all baseline.
        assert!(
            admission::by_name(&name).is_some(),
            "unknown admission controller {name:?}; built-ins: {:?}",
            admission::BUILTIN_ADMISSION_NAMES
        );
        admission_section(horizon_ms, &name);
        attribution_section(horizon_ms, "admission");
        maybe_export_chrome_trace(horizon_ms, "admission");
        return;
    }
    let load_fractions = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5];

    for hw in [HwConfig::exion4(), HwConfig::exion24()] {
        let mut sim =
            ServeSimulator::new(with_env_faults(ServeConfig::builder(hw), horizon_ms).build());
        let capacity = sim.capacity_estimate_rps(&mix);
        println!(
            "== {} | 1 instance, max batch {}, mixed multi-tenant traffic \
             (est. capacity {:.1} rps)",
            hw.name,
            sim.config().max_batch,
            capacity,
        );

        for pattern in TrafficPattern::standard_suite() {
            println!("-- {} arrivals", pattern.name());
            for frac in load_fractions {
                let trace = TraceConfig {
                    pattern: pattern.with_mean_rps(frac * capacity),
                    horizon_ms,
                    seed: 42,
                    mix: mix.clone(),
                };
                let report = sim.run(&trace);
                println!("  load {:>3.0}% {}", 100.0 * frac, report.summary_line());
                report_chaos(&report);
            }
        }
        println!();
    }

    // Policy comparison at heavy (90% of capacity) Poisson load on the
    // server instance: EDF trades mean latency for SLO attainment, the
    // sparsity-aware batcher buys back sparse iterations, and preemptive
    // EDF protects the tight-SLO tenants. Policies come from the registry,
    // so a custom-registered policy would join this loop unchanged.
    let hw = HwConfig::exion24();
    println!("== {} | policy comparison at 90% load", hw.name);
    for policy in policy::builtin_policies() {
        let mut sim = ServeSimulator::new(
            with_env_faults(
                ServeConfig::builder(hw).policy_arc(policy.clone()),
                horizon_ms,
            )
            .build(),
        );
        let capacity = sim.capacity_estimate_rps(&mix);
        let trace = TraceConfig {
            pattern: TrafficPattern::Poisson {
                rate_rps: 0.9 * capacity,
            },
            horizon_ms,
            seed: 42,
            mix: mix.clone(),
        };
        let report = sim.run(&trace);
        println!(
            "  {:>15}: p99 {:>9.2} ms | SLO {:>5.1}% | sparse iters {:>5.1}% | \
             GSC hit {:>5.1}% | {:.3} J/req",
            policy.name(),
            report.latency.p99,
            100.0 * report.slo_attainment,
            100.0 * report.sparse_iteration_frac,
            100.0 * report.residency_hit_rate,
            report.joules_per_request,
        );
    }

    // Preemption under bursty multi-tenant traffic: a heavy Stable
    // Diffusion generation head-of-line blocks the urgent motion tenants
    // for up to a full generation unless the batcher can park its latents
    // at an iteration boundary and switch.
    println!(
        "\n== {} | preemptive vs non-preemptive EDF, bursty MMPP at 85% load",
        hw.name
    );
    let mut urgent_p95 = Vec::new();
    for name in ["edf", "preemptive-edf"] {
        let mut sim = ServeSimulator::new(
            with_env_faults(ServeConfig::builder(hw).policy_name(name), horizon_ms).build(),
        );
        let capacity = sim.capacity_estimate_rps(&mix);
        let trace = TraceConfig {
            pattern: TrafficPattern::Bursty {
                rate_rps: 1.0,
                burst_multiplier: 4.0,
                mean_dwell_ms: 400.0,
            }
            .with_mean_rps(0.85 * capacity),
            horizon_ms,
            seed: 42,
            mix: mix.clone(),
        };
        let report = sim.run(&trace);
        let mld = report.class_latency(ModelKind::Mld).p95;
        urgent_p95.push(mld);
        println!(
            "  {:>15}: MLD p95 {:>8.1} ms | MDM p95 {:>8.1} ms | SD p95 {:>9.1} ms | \
             SLO {:>5.1}% | {} preemptions, {} spills",
            name,
            mld,
            report.class_latency(ModelKind::Mdm).p95,
            report.class_latency(ModelKind::StableDiffusion).p95,
            100.0 * report.slo_attainment,
            report.preemptions,
            report.latent_spills,
        );
    }
    if let [edf, pre] = urgent_p95[..] {
        println!(
            "  urgent-class p95 improvement: {:.1}x (iteration-boundary preemption \
             bounds head-of-line blocking)",
            edf / pre.max(1e-9)
        );
    }

    // Admission control: shedding/degrading infeasible arrivals makes
    // goodput saturate at the knee instead of collapsing past it.
    println!();
    admission_section(horizon_ms, "deadline");

    // Sharding: when one model's weight working set exceeds a single
    // instance's GSC, a TP/PP gang with per-shard residency beats
    // replicating the thrashing whole model — up to the load where the
    // replicas' independent queues win back the throughput.
    println!();
    sharded_comparison(horizon_ms);

    // Auto-placement: the planner picks the replicas-vs-gangs split per
    // load regime by itself, and re-plans (with a priced migration) when
    // the diurnal ramp's realized load diverges from its forecast.
    println!();
    planned_comparison(horizon_ms);

    // Fault injection: the same trace with faults on and off, replicated
    // vs TP=2 — replicas degrade gracefully, a gang losing one member
    // loses the whole gang's capacity until repair.
    println!();
    chaos_section(horizon_ms);

    // Latency attribution: where the representative scenario's requests
    // actually spend their time, and what the misses died of.
    println!();
    attribution_section(horizon_ms, "default");

    println!();
    maybe_export_chrome_trace(horizon_ms, "default");
}
