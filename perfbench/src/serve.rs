//! The serving workloads: `serve_fleet`, `serve_backlog` and
//! `serve_control`.
//!
//! Each is a batch job on the host: an open-loop arrival schedule in
//! simulated time, drawn from the workload seed, driven through a fresh
//! `ServeSimulator` per timed pass so first-touch iteration pricing stays
//! inside the pass, as users pay it. One operation is one simulated
//! request.

use exion_model::config::ModelConfig;
use exion_serve::{
    FaultPlan, MemorySink, Placement, PlacementPlanner, PlannerConfig, RunProfile, ServeConfig,
    ServeReport, ServeSimulator, TraceConfig, TrafficPattern, WorkloadMix,
};
use exion_sim::config::HwConfig;
use exion_sim::partition::{PartitionPlan, PartitionStrategy};

use crate::layers::{calendar_s_per_event, cost_times, sim_iteration_s};
use crate::report::{peak_rss_mb, Outcome, PHASE_KEYS};
use crate::span::Tracer;
use crate::stats::median;
use crate::{ops_per_s, timed_passes, Args, Workload};

/// Expected arrivals per pass of each serving workload at full size.
fn full_arrivals(workload: Workload) -> usize {
    match workload {
        Workload::ServeFleet => 40_000,
        Workload::ServeBacklog => 100_000,
        Workload::ServeControl => 40_000,
        Workload::PaperEval => unreachable!("paper_eval is not a serving workload"),
    }
}

/// A serving workload, built: the cluster, the trace and what its checks
/// and standalone timings need to know.
#[derive(Debug, Clone)]
struct Shape {
    config: ServeConfig,
    trace: TraceConfig,
    /// Admit-all workloads must complete every arrival.
    admit_all: bool,
    /// Scheduling units the calendar holds slots for.
    units: usize,
    /// Gang strategies the workload can deploy (priced per shard).
    strategies: Vec<PartitionStrategy>,
}

/// Builds the workload's cluster and sizes its trace for `arrivals`
/// expected requests: the set-up, which runs `capacity_estimate_rps`.
fn build(workload: Workload, seed: u64, arrivals: usize) -> Shape {
    let hw = HwConfig::exion4();
    let horizon_for = |pattern: &TrafficPattern| 1_000.0 * arrivals as f64 / pattern.mean_rps();
    match workload {
        // The fleet shape: 90 replicas plus 12 TP=2 gangs, Poisson
        // multi-tenant traffic at 80 % of fleet capacity, admit-all.
        Workload::ServeFleet => {
            let tp2 = PartitionStrategy::Tensor { ways: 2 };
            let config = ServeConfig::builder(hw)
                .placement(Placement::mixed(90, 12, tp2))
                .build();
            let mix = WorkloadMix::multi_tenant();
            let capacity = ServeSimulator::new(config.clone()).capacity_estimate_rps(&mix);
            let pattern = TrafficPattern::Poisson {
                rate_rps: 0.8 * capacity,
            };
            Shape {
                trace: TraceConfig {
                    horizon_ms: horizon_for(&pattern),
                    pattern,
                    seed,
                    mix,
                },
                config,
                admit_all: true,
                units: 102,
                strategies: vec![tp2],
            }
        }
        // The deep-backlog shape: one EXION4 instance under EDF, admit-all,
        // bursty MMPP multi-tenant traffic at twice its capacity.
        Workload::ServeBacklog => {
            let config = ServeConfig::builder(hw).policy_name("edf").build();
            let mix = WorkloadMix::multi_tenant();
            let capacity = ServeSimulator::new(config.clone()).capacity_estimate_rps(&mix);
            let pattern = TrafficPattern::Bursty {
                rate_rps: 1.0,
                burst_multiplier: 4.0,
                mean_dwell_ms: 400.0,
            }
            .with_mean_rps(2.0 * capacity);
            Shape {
                trace: TraceConfig {
                    horizon_ms: horizon_for(&pattern),
                    pattern,
                    seed,
                    mix,
                },
                config,
                admit_all: true,
                units: 1,
                strategies: Vec::new(),
            }
        }
        // The control plane: an 8-instance budget under auto-placement
        // with online re-planning, preemptive EDF and deadline admission,
        // seeded crashes with periodic checkpoints, and the size-skew mix
        // on a diurnal trace. The peak sits at 0.4x the replica capacity
        // estimate: crashes and migrations take capacity away, so admission
        // still sheds a few percent, while the seed-to-seed spread of the
        // simulated latency stays near 2 % (at 0.5x it is near 20 %, at
        // 0.8x half the trace is shed). Forty short crashes rather than a
        // few long ones average the fault path over the trace instead of
        // letting one crash's timing decide the run.
        Workload::ServeControl => {
            let budget = 8;
            let mix = WorkloadMix::size_skew();
            let capacity = ServeSimulator::new(ServeConfig::builder(hw).instances(budget).build())
                .capacity_estimate_rps(&mix);
            let pattern = TrafficPattern::Diurnal {
                peak_rps: 0.4 * capacity,
                trough_frac: 0.3,
            };
            let horizon_ms = horizon_for(&pattern);
            let planner_config =
                PlannerConfig::new(budget).with_replanning(horizon_ms / 16.0, 0.35);
            let strategies = planner_config.strategies.clone();
            let config = ServeConfig::builder(hw)
                .auto_placement(PlacementPlanner::new(planner_config), pattern.mean_rps())
                .policy_name("preemptive-edf")
                .admission_name("deadline")
                .fault_plan(FaultPlan::seeded(
                    seed,
                    horizon_ms,
                    horizon_ms / 40.0,
                    horizon_ms / 80.0,
                    40,
                ))
                .checkpoint_every(10)
                .build();
            Shape {
                trace: TraceConfig {
                    horizon_ms,
                    pattern,
                    seed,
                    mix,
                },
                config,
                admit_all: false,
                units: budget,
                strategies,
            }
        }
        Workload::PaperEval => unreachable!("paper_eval is not a serving workload"),
    }
}

/// The deterministic outcome of one run that passes must reproduce bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    arrivals: usize,
    completed: usize,
    shed: usize,
    lost: usize,
    degraded: usize,
    mean_latency_ms: f64,
    p99_ms: f64,
    energy_mj: f64,
    joules_per_request: f64,
    events: u64,
    iterations: u64,
}

/// One timed pass's result.
struct PassResult {
    summary: Summary,
    failed: u64,
    profile: RunProfile,
    report: Option<ServeReport>,
}

/// Exact mean and nearest-rank p99 of completed requests' simulated
/// latency (ms).
fn latency_ms(report: &ServeReport) -> (f64, f64) {
    let mut latencies: Vec<f64> = report
        .completions
        .iter()
        .map(|c| c.finished_ms - c.arrival_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    (
        crate::stats::mean(&latencies),
        exion_serve::metrics::percentile(&latencies, 0.99),
    )
}

/// Requests of `report` that fail an output check:
/// served + shed + lost must equal arrivals; admit-all workloads must
/// complete every arrival; every request's attributed phases must sum to
/// its latency; every completion's simulated latency must be finite and
/// positive. Also checks the run's simulated energy.
fn failed_requests(report: &ServeReport, config: &ServeConfig, admit_all: bool) -> u64 {
    let n = report.arrivals;
    let mut failed = vec![false; n];
    let mut mark = |id: u64| {
        if let Some(f) = failed.get_mut(id as usize) {
            *f = true;
        }
    };
    for c in &report.completions {
        let latency = c.finished_ms - c.arrival_ms;
        if !(latency.is_finite() && latency > 0.0) {
            mark(c.id);
        }
    }
    // A run with attribution off attributes nothing and is not checked
    // for it.
    let attributed = match &report.attribution {
        Some(a) => {
            for r in &a.requests {
                let latency = r.latency_ms();
                let error = (r.phases.total_ms() - latency).abs();
                if error.is_nan() || error > 1e-9 * (1.0 + latency.abs()) {
                    mark(r.id);
                }
            }
            a.requests.len()
        }
        None if config.attribution => 0,
        None => n,
    };
    let mut count = failed.iter().filter(|&&f| f).count() as u64;
    let terminal = report.completed + report.shed_requests + report.lost_requests;
    // Requests never accounted for, or never attributed, fail as a block.
    count += n.abs_diff(terminal) as u64;
    count += n.abs_diff(attributed) as u64;
    if admit_all {
        count += (n - report.completed.min(n)) as u64;
    }
    let energy_ok = report.energy_mj.is_finite()
        && report.energy_mj > 0.0
        && report.joules_per_request.is_finite()
        && report.joules_per_request > 0.0;
    if !energy_ok {
        count = n as u64;
    }
    count.min(n as u64)
}

/// One run of `trace` on a fresh simulator: its report and run profile.
fn run_once(
    config: &ServeConfig,
    trace: &TraceConfig,
    sink: Option<&mut MemorySink>,
) -> (ServeReport, RunProfile) {
    let mut sim = ServeSimulator::new(config.clone());
    let report = match sink {
        Some(sink) => sim.run_traced(trace, sink),
        None => sim.run(trace),
    };
    (
        report,
        *sim.last_run_profile().expect("a run leaves a profile"),
    )
}

/// Summarizes and checks one run, optionally keeping the full report.
fn judge(
    shape: &Shape,
    config: &ServeConfig,
    (report, profile): (ServeReport, RunProfile),
    keep: bool,
) -> PassResult {
    let (mean_latency_ms, p99_ms) = latency_ms(&report);
    let summary = Summary {
        arrivals: report.arrivals,
        completed: report.completed,
        shed: report.shed_requests,
        lost: report.lost_requests,
        degraded: report.degraded_requests,
        mean_latency_ms,
        p99_ms,
        energy_mj: report.energy_mj,
        joules_per_request: report.joules_per_request,
        events: profile.events_executed,
        iterations: profile.iterations,
    };
    PassResult {
        failed: failed_requests(&report, config, shape.admit_all),
        summary,
        profile,
        report: keep.then_some(report),
    }
}

/// Runs a serving workload at full size.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    run_sized(args, tracer, full_arrivals(args.workload))
}

/// Runs a serving workload with `arrivals` expected requests per pass.
pub fn run_sized(args: &Args, tracer: &mut Tracer, arrivals: usize) -> Outcome {
    let setup = || build(args.workload, args.seed, arrivals);
    let shape = tracer.span("setup", None, |_| setup());
    let mut out = Outcome::default();
    let untraced_s = if tracer.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The first pass keeps its report for the traced run's checks.
    let mut untraced = timed_passes(
        untraced_s,
        setup,
        |shape| run_once(&shape.config, &shape.trace, None),
        |i, shape, run| judge(shape, &shape.config, run, i == 0),
    );
    let traced = if tracer.enabled() {
        timed_passes(
            args.seconds / 2.0,
            setup,
            |shape| {
                let run = tracer.span("cluster.run", None, |_| {
                    run_once(&shape.config, &shape.trace, None)
                });
                tracer.count("cluster.events", run.1.events_executed);
                tracer.count("cluster.iterations", run.1.iterations);
                tracer.count("trace.arrivals", run.0.arrivals as u64);
                run
            },
            |_, shape, run| judge(shape, &shape.config, run, false),
        )
    } else {
        Vec::new()
    };

    let first = untraced[0].result.summary.clone();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        out.attempted += p.result.summary.arrivals as u64;
        out.failed += p.result.failed;
        if p.result.summary != first {
            out.problem(format!("pass {i} differs from pass 0 at the same seed"));
        }
    }
    if untraced[0].result.failed > 0 {
        eprintln!(
            "exion-perfbench: {} of {} requests failed an output check in pass 0",
            untraced[0].result.failed, first.arrivals
        );
    }

    let pass_s: Vec<f64> = untraced.iter().map(|p| p.run_s).collect();
    let setup_s: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("ops_per_s", ops_per_s(first.arrivals, &pass_s));
    m.insert("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    m.insert("sim_latency_ms", first.mean_latency_ms);
    m.insert("sim_joules_per_request", first.joules_per_request);

    if tracer.enabled() {
        let report = untraced[0]
            .result
            .report
            .take()
            .expect("the first pass keeps its report");
        let traced_s: Vec<f64> = traced.iter().map(|p| p.run_s).collect();
        let profiles: Vec<RunProfile> = traced.iter().map(|p| p.result.profile).collect();
        per_layer(
            &mut out,
            &shape,
            &report,
            &profiles,
            median(&pass_s),
            tracer,
        );
        let m = &mut out.metrics;
        m.insert("metrics.p99_ms", first.p99_ms);
        m.insert(
            "bench.trace_overhead_s",
            median(&traced_s) - median(&pass_s),
        );
        m.insert("bench.passes", (untraced.len() + traced.len()) as f64);
    }
    out
}

/// The per-layer metrics of a traced serving run: the report's layer
/// counters, the traced passes' run profiles, the paired observer runs and
/// the standalone layer timings.
fn per_layer(
    out: &mut Outcome,
    shape: &Shape,
    report: &ServeReport,
    profiles: &[RunProfile],
    default_s: f64,
    tracer: &mut Tracer,
) {
    // Observer pairing: attribution off and a recording sink must leave
    // every deterministic field of the report unchanged. Each paired report
    // is compared and dropped before the next run.
    let attr_off_config = ServeConfig {
        attribution: false,
        ..shape.config.clone()
    };
    let (run, attr_off_s) = tracer.span("observer.attribution_off", None, |_| {
        time_one(|| run_once(&attr_off_config, &shape.trace, None))
    });
    let mut attr_off = judge(shape, &attr_off_config, run, true);
    let expected = ServeReport {
        attribution: None,
        ..report.clone()
    };
    if attr_off.report.take() != Some(expected) {
        out.problem("the run with attribution off differs from the default run".into());
    }
    let mut sink = MemorySink::new();
    let (run, sink_s) = tracer.span("observer.memory_sink", None, |_| {
        time_one(|| run_once(&shape.config, &shape.trace, Some(&mut sink)))
    });
    let sink_spans = sink.spans.len();
    drop(sink);
    let mut sinked = judge(shape, &shape.config, run, true);
    if sinked.report.take().as_ref() != Some(report) {
        out.problem("the run with a MemorySink differs from the default run".into());
    }
    out.attempted += (attr_off.summary.arrivals + sinked.summary.arrivals) as u64;
    out.failed += attr_off.failed + sinked.failed;

    // Standalone layer timings at the workload's shapes.
    let (arrivals_drawn, gen_s) = tracer.span("standalone.trace_draw", None, |_| {
        time_one(|| exion_serve::trace::ArrivalStream::new(&shape.trace).count())
    });
    if arrivals_drawn != report.arrivals {
        out.problem(format!(
            "the stream alone drew {arrivals_drawn} arrivals, the run released {}",
            report.arrivals
        ));
    }
    let models: Vec<ModelConfig> = shape
        .trace
        .mix
        .kinds()
        .into_iter()
        .map(ModelConfig::for_kind)
        .collect();
    let hw = shape.config.hw;
    let plans: Vec<PartitionPlan> = models
        .iter()
        .flat_map(|model| {
            shape.strategies.iter().map(|&strategy| {
                PartitionPlan::new(
                    model,
                    strategy,
                    shape.config.placement.interconnect,
                    hw.operand_bytes(),
                )
            })
        })
        .collect();
    let (cold, warm, keys) = tracer.span("standalone.cost", None, |_| {
        cost_times(hw, &models, shape.config.max_batch as u64, &plans)
    });
    let events = profiles.first().map_or(0, |p| p.events_executed);
    let calendar = tracer.span("standalone.calendar", None, |_| {
        calendar_s_per_event(shape.units, events, shape.trace.seed)
    });
    let sim_models: Vec<_> = models
        .iter()
        .map(|c| (*c, exion_serve::CostModel::analytic_profile(c)))
        .collect();
    let sim_iteration = tracer.span("standalone.sim_iteration", None, |_| {
        sim_iteration_s(&hw, &sim_models)
    });

    let median_of =
        |f: &dyn Fn(&RunProfile) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let p = profiles[0];
    let planner = report.planner.as_ref();
    let fault = report.fault.as_ref();
    let m = &mut out.metrics;
    m.insert("trace.gen_s", gen_s);
    m.insert("cost.warm_lookup_ns", 1e9 * warm);
    m.insert("cost.cold_price_us", 1e6 * cold);
    m.insert("cost.keys", keys as f64);
    m.insert("cluster.events", p.events_executed as f64);
    m.insert("cluster.iterations", p.iterations as f64);
    m.insert(
        "cluster.peak_calendar_events",
        p.peak_calendar_events as f64,
    );
    m.insert(
        "cluster.ns_per_event",
        median_of(&|p| 1e6 * p.cluster_wall_ms() / p.events_executed.max(1) as f64),
    );
    m.insert("calendar.ns_per_event", 1e9 * calendar);
    m.insert("scheduler.mean_queue_depth", report.mean_queue_depth);
    m.insert("scheduler.peak_queue_depth", report.peak_queue_depth as f64);
    m.insert("scheduler.preemptions", report.preemptions as f64);
    m.insert("scheduler.latent_spills", report.latent_spills as f64);
    m.insert("admission.shed", report.shed_requests as f64);
    m.insert("admission.degraded", report.degraded_requests as f64);
    m.insert("residency.hit_rate", report.residency_hit_rate);
    m.insert(
        "residency.refill_gb",
        report.weight_refill_bytes as f64 / 1e9,
    );
    m.insert("placement.collective_ms", report.collective_ms);
    m.insert(
        "placement.collective_gb",
        report.collective_bytes as f64 / 1e9,
    );
    m.insert("planner.calls", p.planner_calls as f64);
    m.insert("planner.wall_s", median_of(&|p| p.planner_wall_ms / 1e3));
    m.insert(
        "planner.replans",
        planner.map_or(0, |r| r.replan_count()) as f64,
    );
    m.insert(
        "planner.migration_gb",
        planner.map_or(0, |r| r.migration_bytes()) as f64 / 1e9,
    );
    m.insert(
        "fault.injected",
        fault.map_or(0, |f| f.faults_injected) as f64,
    );
    m.insert("fault.lost", fault.map_or(0, |f| f.lost_requests) as f64);
    m.insert(
        "fault.checkpoint_spills",
        fault.map_or(0, |f| f.checkpoint_spills) as f64,
    );
    m.insert(
        "fault.mttr_ms",
        fault.map_or(0.0, |f| f.mean_time_to_recover_ms),
    );
    m.insert("attribution.overhead_s", default_s - attr_off_s);
    if let Some(a) = &report.attribution {
        for (key, share) in PHASE_KEYS.iter().zip(a.phase_mix()) {
            m.insert(key, share);
        }
    }
    m.insert("telemetry.sink_overhead_s", sink_s - default_s);
    m.insert("telemetry.spans", sink_spans as f64);
    m.insert("metrics.goodput_rps", report.goodput_rps);
    m.insert("sim.iteration_us", 1e6 * sim_iteration);
}

/// Runs `f` once and returns its result with its wall seconds.
fn time_one<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_reaches_the_stream_and_the_fault_plan() {
        let a = build(Workload::ServeControl, 1, 1_000);
        let b = build(Workload::ServeControl, 2, 1_000);
        assert_eq!((a.trace.seed, b.trace.seed), (1, 2));
        assert!(!a.config.fault_plan.is_empty());
        assert_ne!(a.config.fault_plan, b.config.fault_plan);
    }
}
