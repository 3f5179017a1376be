//! `serve_sweep` — serving-traffic saturation sweep (beyond the paper).
//!
//! The paper evaluates single generations at fixed batch sizes (Figs.
//! 18–19); this experiment drives the `exion-serve` request-level simulator
//! instead: Poisson/bursty/diurnal arrival streams over the multi-tenant
//! model mix, swept across offered load on the edge (EXION4) and server
//! (EXION24) instances, plus an admission-policy comparison near
//! saturation. The headline shape is the saturation knee: tail latency and
//! queue depth explode once offered load crosses the instance's continuous-
//! batching capacity, while goodput collapses.
//!
//! Four control-plane sections extend it:
//!
//! * **Preemption** — non-preemptive vs preemptive EDF under the bursty
//!   MMPP trace: per-tenant-class p95, preemption counts, and GSC residency
//!   hit-rate, showing iteration-boundary preemption bounding the urgent
//!   class's head-of-line blocking;
//! * **Admission** — admit-all vs deadline-feasibility admission across
//!   load on the bursty trace: with shedding/degrading installed, goodput
//!   *saturates* at the knee instead of collapsing past it;
//! * **Autoscaling frontier** — at a fixed arrival rate, the minimum
//!   instance count whose p95 SLO attainment reaches the target, per
//!   traffic pattern;
//! * **Placement planner** — auto-placement vs every hand-picked static
//!   placement on the text-to-video mix: the planner's offline pick
//!   matches the best static placement's goodput on both sides of the
//!   replicated-vs-TP crossover, and a diurnal ramp exercises the online
//!   re-planner (priced migration when realized load diverges from the
//!   forecast);
//! * **Measured profiles** — `exion-bench::profiles` functional
//!   measurements wired through `CostModel` in place of the analytic
//!   closed form.

use exion_model::config::{ModelConfig, ModelKind};
use exion_serve::{
    admission, policy, FaultPlan, MissCause, Phase, Placement, PlacementPlanner, PlannerConfig,
    ServeConfig, ServeReport, ServeSimulator, TraceConfig, TrafficPattern, WorkloadMix, PHASES,
};
use exion_sim::config::HwConfig;
use exion_sim::partition::PartitionStrategy;

use crate::fmt::{pct, render_table};
use crate::profiles::measure_profile;

/// The seed every serving experiment here runs under.
pub const SWEEP_SEED: u64 = 0x5E17E;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load as a fraction of the estimated capacity.
    pub load_frac: f64,
    /// The serving report at that load.
    pub report: ServeReport,
}

/// The sweep of one (hardware, pattern) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Hardware instance name.
    pub hw: &'static str,
    /// Traffic-pattern name.
    pub pattern: &'static str,
    /// Estimated continuous-batching capacity (requests/s).
    pub capacity_rps: f64,
    /// Reports per load fraction, ascending.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// p99 latency blow-up from the lightest to the heaviest load.
    pub fn knee_ratio(&self) -> f64 {
        let first = self.points.first().map(|p| p.report.latency.p99);
        let last = self.points.last().map(|p| p.report.latency.p99);
        match (first, last) {
            (Some(a), Some(b)) if a > 0.0 => b / a,
            _ => 0.0,
        }
    }
}

/// The load fractions the sweep visits (around the knee at 1.0).
pub const LOAD_FRACTIONS: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.3];

/// Runs the sweep for both hardware instances and all three patterns.
///
/// `horizon_cap_ms` bounds the trace horizon (`None` = the full 4 s run);
/// integration tests pass a smaller horizon.
pub fn compute(horizon_cap_ms: Option<f64>) -> Vec<Sweep> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::multi_tenant();
    let mut sweeps = Vec::new();
    for hw in [HwConfig::exion4(), HwConfig::exion24()] {
        for pattern in TrafficPattern::standard_suite() {
            let mut sim = ServeSimulator::new(ServeConfig::new(hw));
            let capacity = sim.capacity_estimate_rps(&mix);
            let points = LOAD_FRACTIONS
                .iter()
                .map(|&frac| SweepPoint {
                    load_frac: frac,
                    report: sim.run(&TraceConfig {
                        pattern: pattern.with_mean_rps(frac * capacity),
                        horizon_ms,
                        seed: SWEEP_SEED,
                        mix: mix.clone(),
                    }),
                })
                .collect();
            sweeps.push(Sweep {
                hw: hw.name,
                pattern: pattern.name(),
                capacity_rps: capacity,
                points,
            });
        }
    }
    sweeps
}

/// Compares every registered scheduling policy at 90% Poisson load on
/// `hw`: `(policy name, report)` pairs in registry order.
pub fn compare_policies(hw: &HwConfig, horizon_cap_ms: Option<f64>) -> Vec<(String, ServeReport)> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::multi_tenant();
    policy::builtin_policies()
        .into_iter()
        .map(|policy| {
            let name = policy.name().to_string();
            let mut sim = ServeSimulator::new(ServeConfig::builder(*hw).policy_arc(policy).build());
            let capacity = sim.capacity_estimate_rps(&mix);
            let report = sim.run(&TraceConfig {
                pattern: TrafficPattern::Poisson {
                    rate_rps: 0.9 * capacity,
                },
                horizon_ms,
                seed: SWEEP_SEED,
                mix: mix.clone(),
            });
            (name, report)
        })
        .collect()
}

/// A bursty-MMPP trace over `mix` at `load_frac × capacity` (shared with
/// `tests/serving.rs` so the acceptance invariants and the experiments
/// cannot diverge).
pub fn bursty_trace_over(
    capacity_rps: f64,
    load_frac: f64,
    horizon_ms: f64,
    mix: WorkloadMix,
) -> TraceConfig {
    TraceConfig {
        pattern: TrafficPattern::Bursty {
            rate_rps: 1.0,
            burst_multiplier: 4.0,
            mean_dwell_ms: 400.0,
        }
        .with_mean_rps(load_frac * capacity_rps),
        horizon_ms,
        seed: SWEEP_SEED,
        mix,
    }
}

/// The bursty-MMPP multi-tenant trace at `load_frac × capacity` the
/// preemption comparison runs on.
pub fn bursty_trace(capacity_rps: f64, load_frac: f64, horizon_ms: f64) -> TraceConfig {
    bursty_trace_over(
        capacity_rps,
        load_frac,
        horizon_ms,
        WorkloadMix::multi_tenant(),
    )
}

/// Non-preemptive vs preemptive EDF on the seeded bursty-MMPP multi-tenant
/// trace: `(policy name, report)` pairs at 85% of estimated capacity.
pub fn compare_preemption(
    hw: &HwConfig,
    horizon_cap_ms: Option<f64>,
) -> Vec<(String, ServeReport)> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    // One policy-independent capacity estimate anchors one shared trace,
    // so the two policies see identical arrivals.
    let capacity = ServeSimulator::new(ServeConfig::new(*hw))
        .capacity_estimate_rps(&WorkloadMix::multi_tenant());
    let trace = bursty_trace(capacity, 0.85, horizon_ms);
    ["edf", "preemptive-edf"]
        .iter()
        .map(|&name| {
            let mut sim = ServeSimulator::new(ServeConfig::builder(*hw).policy_name(name).build());
            (name.to_string(), sim.run(&trace))
        })
        .collect()
}

/// One admission controller's load sweep in the admit-all vs
/// deadline-feasibility comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSweep {
    /// Controller name (`admit-all`, `deadline`).
    pub label: String,
    /// Reports per load fraction, ascending.
    pub points: Vec<SweepPoint>,
}

/// The load fractions the admission comparison visits: around the knee at
/// 1.0 and deep past it at 1.5 — the point the acceptance criterion reads
/// (goodput must *saturate* under shedding where admit-all collapses).
pub const ADMISSION_LOAD_FRACTIONS: [f64; 4] = [0.6, 1.0, 1.25, 1.5];

/// Admit-all vs deadline-feasibility admission on the seeded bursty-MMPP
/// *text-to-motion* trace, swept across offered load under EDF scheduling.
/// Identical traces per load fraction (anchored on one controller-
/// independent capacity estimate), so every delta is attributable to the
/// admission decision: without shedding, queues grow without bound past
/// the knee and goodput collapses (nearly every completion blows its SLO
/// through queueing delay); with deadline-feasibility admission the excess
/// is shed or degraded and goodput *saturates* near capacity with a
/// bounded tail.
///
/// The motion mix is the right regime for this demonstration: its knee is
/// a genuine aggregate-overload knee. On the heterogeneous multi-tenant
/// mix the urgent classes' misses come from cross-tenant head-of-line
/// blocking — which admission cannot fix and *preemption* does (see
/// [`compare_preemption`]).
pub fn admission_comparison(hw: &HwConfig, horizon_cap_ms: Option<f64>) -> Vec<AdmissionSweep> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::text_to_motion();
    let capacity = ServeSimulator::new(ServeConfig::new(*hw)).capacity_estimate_rps(&mix);
    admission::AdmissionRegistry::builtin()
        .all()
        .into_iter()
        .map(|controller| {
            let label = controller.name().to_string();
            let mut sim = ServeSimulator::new(
                ServeConfig::builder(*hw)
                    .policy_name("edf")
                    .admission_arc(controller)
                    .build(),
            );
            let points = ADMISSION_LOAD_FRACTIONS
                .iter()
                .map(|&frac| SweepPoint {
                    load_frac: frac,
                    report: sim.run(&bursty_trace_over(capacity, frac, horizon_ms, mix.clone())),
                })
                .collect();
            AdmissionSweep { label, points }
        })
        .collect()
}

/// One pattern's autoscaling-frontier result: p95 SLO attainment per
/// instance count at a fixed arrival rate, and the minimum count meeting
/// the target.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Traffic-pattern name.
    pub pattern: &'static str,
    /// Fixed offered load (requests/s).
    pub rate_rps: f64,
    /// `(instances, slo_attainment, p95 ms)` per tried size, ascending.
    pub points: Vec<(usize, f64, f64)>,
    /// Minimum instance count with `slo_attainment ≥ target`, if any
    /// tried size reached it.
    pub min_instances: Option<usize>,
}

/// The p95-SLO target of the autoscaling frontier: 95% of completions
/// within their class SLO.
pub const FRONTIER_SLO_TARGET: f64 = 0.95;

/// Sweeps instance count at a fixed arrival rate (`load_frac ×` the
/// *single-instance* capacity) and finds the minimum cluster size whose
/// p95 SLO attainment reaches [`FRONTIER_SLO_TARGET`], per traffic pattern.
pub fn autoscaling_frontier(
    hw: &HwConfig,
    load_frac: f64,
    max_instances: usize,
    horizon_cap_ms: Option<f64>,
) -> Vec<Frontier> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::multi_tenant();
    let one_cap = ServeSimulator::new(ServeConfig::new(*hw)).capacity_estimate_rps(&mix);
    let rate = load_frac * one_cap;
    TrafficPattern::standard_suite()
        .iter()
        .map(|pattern| {
            let mut points = Vec::new();
            let mut min_instances = None;
            for n in 1..=max_instances.max(1) {
                let mut sim = ServeSimulator::new(ServeConfig::builder(*hw).instances(n).build());
                let report = sim.run(&TraceConfig {
                    pattern: pattern.with_mean_rps(rate),
                    horizon_ms,
                    seed: SWEEP_SEED,
                    mix: mix.clone(),
                });
                points.push((n, report.slo_attainment, report.latency.p95));
                if min_instances.is_none() && report.slo_attainment >= FRONTIER_SLO_TARGET {
                    min_instances = Some(n);
                    break;
                }
            }
            Frontier {
                pattern: pattern.name(),
                rate_rps: rate,
                points,
                min_instances,
            }
        })
        .collect()
}

/// One placement's load sweep in the replicated-vs-sharded comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSweep {
    /// Placement label (`replicated x2`, `tp2 gang`, `pp2 gang`).
    pub label: String,
    /// The placement swept.
    pub placement: Placement,
    /// Reports per load fraction, ascending.
    pub points: Vec<SweepPoint>,
}

/// The load fractions the sharding comparison visits (fractions of the
/// *replicated* capacity, so every placement sees identical traces).
pub const SHARDING_LOAD_FRACTIONS: [f64; 4] = [0.3, 0.6, 0.9, 1.2];

/// Replicated-vs-sharded comparison on a two-instance hardware budget
/// serving the working-set-exceeding text-to-video mix (VideoCrafter2's
/// per-iteration weight footprint is far past one instance's GSC): two
/// whole-model replicas vs one TP=2 gang vs one PP=2 gang, swept across
/// offered load. Identical traces per load fraction (anchored on the
/// replicated capacity estimate), identical SLOs (scaled from the replica
/// service time), so every delta is attributable to the placement.
pub fn sharding_comparison(hw: &HwConfig, horizon_cap_ms: Option<f64>) -> Vec<PlacementSweep> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(*hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    [
        ("replicated x2", Placement::replicated(2)),
        (
            "tp2 gang",
            Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }),
        ),
        (
            "pp2 gang",
            Placement::sharded(1, PartitionStrategy::Pipeline { stages: 2 }),
        ),
    ]
    .iter()
    .map(|(label, placement)| {
        let mut sim = ServeSimulator::new(ServeConfig::builder(*hw).placement(*placement).build());
        let points = SHARDING_LOAD_FRACTIONS
            .iter()
            .map(|&frac| SweepPoint {
                load_frac: frac,
                report: sim.run(&TraceConfig {
                    pattern: TrafficPattern::Poisson {
                        rate_rps: frac * capacity,
                    },
                    horizon_ms,
                    seed: SWEEP_SEED,
                    mix: mix.clone(),
                }),
            })
            .collect();
        PlacementSweep {
            label: label.to_string(),
            placement: *placement,
            points,
        }
    })
    .collect()
}

/// The latency/goodput crossover of two placement sweeps over identical
/// traces: the first load fraction at which the goodput leader flips away
/// from the lighter-load leader (`None` when one placement dominates the
/// whole swept range). Below the crossover the sharded gang's shorter
/// generations win the tail; past it the replicas' independent queues win
/// throughput.
pub fn goodput_crossover(a: &PlacementSweep, b: &PlacementSweep) -> Option<f64> {
    let lead = |p: &SweepPoint, q: &SweepPoint| {
        let (gp, gq) = (p.report.goodput_rps, q.report.goodput_rps);
        // Ties within 2% count as the standing order, not a flip.
        if (gp - gq).abs() <= 0.02 * gp.max(gq) {
            0
        } else if gp > gq {
            1
        } else {
            -1
        }
    };
    let mut initial = 0;
    for (p, q) in a.points.iter().zip(&b.points) {
        let l = lead(p, q);
        if initial == 0 {
            initial = l;
        } else if l != 0 && l != initial {
            return Some(p.load_frac);
        }
    }
    None
}

/// The loads the planner comparison visits: the acceptance points on
/// either side of the replicated-vs-TP goodput crossover (fractions of the
/// warm replicated-x2 capacity, matching [`SHARDING_LOAD_FRACTIONS`]'s
/// anchoring).
pub const PLANNER_LOAD_FRACTIONS: [f64; 2] = [0.3, 0.9];

/// The outcome of [`planner_comparison`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerComparison {
    /// Hand-picked static placements (`replicated x2`, `tp2 gang`,
    /// `pp2 gang`) swept over [`PLANNER_LOAD_FRACTIONS`].
    pub static_sweeps: Vec<PlacementSweep>,
    /// The planner-driven runs over the same traces (offline plan only —
    /// epochs are pushed past the horizon so no re-plan fires).
    pub planned: Vec<SweepPoint>,
    /// `(load fraction, placement the planner chose)` per planned point.
    pub picks: Vec<(f64, String)>,
    /// The online re-planning run: a diurnal ramp whose realized load
    /// diverges from the trough-level forecast, forcing at least one
    /// priced migration mid-trace.
    pub diurnal: ServeReport,
}

/// Auto-placement vs every hand-picked static placement on the
/// text-to-video mix and a 2-instance budget (the sharding comparison's
/// setting): identical traces per load fraction, so the planner's run
/// *matches* the best static placement's goodput whenever its offline pick
/// is right — TP=2 below the goodput crossover, replicated x2 past it —
/// and beats every mis-picked one. The diurnal run then exercises the
/// online half: the planner starts from a trough-level forecast (picking
/// the gang), watches realized per-epoch load climb past its hysteresis
/// threshold, and executes a priced migration (drained gangs, GSC state
/// re-streamed as refill bytes, affinities cleared) mid-trace.
pub fn planner_comparison(hw: &HwConfig, horizon_cap_ms: Option<f64>) -> PlannerComparison {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(*hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    let trace_at = |rps: f64| TraceConfig {
        pattern: TrafficPattern::Poisson { rate_rps: rps },
        horizon_ms,
        seed: SWEEP_SEED,
        mix: mix.clone(),
    };

    let static_sweeps: Vec<PlacementSweep> = [
        ("replicated x2", Placement::replicated(2)),
        (
            "tp2 gang",
            Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }),
        ),
        (
            "pp2 gang",
            Placement::sharded(1, PartitionStrategy::Pipeline { stages: 2 }),
        ),
    ]
    .iter()
    .map(|(label, placement)| {
        let mut sim = ServeSimulator::new(ServeConfig::builder(*hw).placement(*placement).build());
        let points = PLANNER_LOAD_FRACTIONS
            .iter()
            .map(|&frac| SweepPoint {
                load_frac: frac,
                report: sim.run(&trace_at(frac * capacity)),
            })
            .collect();
        PlacementSweep {
            label: label.to_string(),
            placement: *placement,
            points,
        }
    })
    .collect();

    let mut planned = Vec::new();
    let mut picks = Vec::new();
    for &frac in &PLANNER_LOAD_FRACTIONS {
        // Offline-only: the epoch is pushed past any horizon so the run
        // exercises exactly the placement the offline pass chose.
        let planner = PlacementPlanner::new(PlannerConfig::new(2).with_replanning(1e12, 0.5));
        let mut sim = ServeSimulator::new(
            ServeConfig::builder(*hw)
                .auto_placement(planner, frac * capacity)
                .build(),
        );
        let report = sim.run(&trace_at(frac * capacity));
        picks.push((
            frac,
            report
                .planner
                .as_ref()
                .expect("auto-placement runs carry planner accounting")
                .initial_placement
                .clone(),
        ));
        planned.push(SweepPoint {
            load_frac: frac,
            report,
        });
    }

    // The online half: a diurnal ramp from a ~30%-of-capacity trough to a
    // past-the-crossover peak, planned against the trough-level forecast.
    // Epochs quantize the horizon so several fall inside the ramp.
    let diurnal_trace = TraceConfig {
        pattern: TrafficPattern::Diurnal {
            peak_rps: 0.9 * capacity,
            trough_frac: 0.3,
        },
        horizon_ms,
        seed: SWEEP_SEED,
        mix: mix.clone(),
    };
    let planner =
        PlacementPlanner::new(PlannerConfig::new(2).with_replanning(horizon_ms / 4.0, 0.35));
    let mut sim = ServeSimulator::new(
        ServeConfig::builder(*hw)
            .auto_placement(planner, 0.3 * capacity)
            .build(),
    );
    let diurnal = sim.run(&diurnal_trace);

    PlannerComparison {
        static_sweeps,
        planned,
        picks,
        diurnal,
    }
}

/// Prices the text-to-motion mix under measured (functional) sparsity
/// profiles instead of the analytic closed form and reports both runs:
/// `(analytic, measured)`. `iteration_cap` bounds the instrumented
/// profile-measurement generations (tests use small caps).
pub fn measured_profile_comparison(
    hw: &HwConfig,
    iteration_cap: usize,
    horizon_cap_ms: Option<f64>,
) -> (ServeReport, ServeReport) {
    let horizon_ms = horizon_cap_ms.unwrap_or(2_000.0).max(100.0);
    let mix = WorkloadMix::text_to_motion();
    // One trace for both runs (anchored on the analytic capacity estimate)
    // so every reported delta is attributable to the repriced iterations,
    // not to a different arrival stream.
    let mut analytic = ServeSimulator::new(ServeConfig::new(*hw));
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 0.8 * analytic.capacity_estimate_rps(&mix),
        },
        horizon_ms,
        seed: SWEEP_SEED,
        mix: mix.clone(),
    };
    let analytic_report = analytic.run(&trace);

    let mut measured = ServeSimulator::new(ServeConfig::new(*hw));
    for kind in mix.kinds() {
        // Functional measurement runs at sim scale; the measured summary
        // then prices the paper-scale serving workload.
        let config = ModelConfig::for_kind(kind).shrunk(2, iteration_cap);
        let m = measure_profile(&config, iteration_cap, SWEEP_SEED);
        measured
            .set_sparsity_profile(kind, m.profile)
            .expect("measured profiles are fractions in [0, 1]");
    }
    let measured_report = measured.run(&trace);
    (analytic_report, measured_report)
}

/// One placement's run of the chaos comparison: the same trace with the
/// fault plan off and on, so every delta is attributable to the failure.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// Human-readable placement label.
    pub label: String,
    /// What fails (the fault plan's own description).
    pub fault: String,
    /// The run with no faults injected.
    pub baseline: ServeReport,
    /// The same trace under the fault plan.
    pub faulted: ServeReport,
}

/// SLO attainment with faults on vs off at matched load, replicated vs
/// TP=2 on the text-to-video mix (the sharding comparison's setting).
/// Both placements lose one instance at the midpoint for a quarter
/// horizon: the replicated fleet degrades gracefully (the surviving
/// replica keeps serving, the dead one's in-flight work requeues or is
/// lost), while the TP=2 gang losing one member stalls whole — a gang
/// cannot run a sharded iteration short-handed, so the entire capacity
/// is out until repair.
pub fn chaos_comparison(hw: &HwConfig, horizon_cap_ms: Option<f64>) -> Vec<ChaosSweep> {
    let horizon_ms = horizon_cap_ms.unwrap_or(4_000.0).max(100.0);
    let mix = WorkloadMix::text_to_video();
    let capacity = ServeSimulator::new(ServeConfig::builder(*hw).instances(2).build())
        .capacity_estimate_rps(&mix);
    let trace = TraceConfig {
        pattern: TrafficPattern::Poisson {
            rate_rps: 0.6 * capacity,
        },
        horizon_ms,
        seed: SWEEP_SEED,
        mix,
    };
    let midpoint = horizon_ms / 2.0;
    let repair = horizon_ms / 4.0;
    [
        (
            "replicated x2",
            Placement::replicated(2),
            "unit 0 crash at midpoint",
            FaultPlan::empty().crash(midpoint, 0, repair),
        ),
        (
            "tp2 gang",
            Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }),
            "member 1 loss at midpoint",
            FaultPlan::empty().member_loss(midpoint, 0, 1, repair),
        ),
    ]
    .into_iter()
    .map(|(label, placement, fault, plan)| {
        let config = |plan: FaultPlan| {
            ServeConfig::builder(*hw)
                .placement(placement)
                .fault_plan(plan)
                .build()
        };
        ChaosSweep {
            label: label.to_string(),
            fault: fault.to_string(),
            baseline: ServeSimulator::new(config(FaultPlan::empty())).run(&trace),
            faulted: ServeSimulator::new(config(plan)).run(&trace),
        }
    })
    .collect()
}

/// One placement's row of the attribution comparison: where requests
/// spend their time with the fault plan off vs on, over identical traces.
#[derive(Debug, Clone)]
pub struct AttributionComparison {
    /// Human-readable placement label.
    pub label: String,
    /// What fails (the fault plan's own description).
    pub fault: String,
    /// Phase shares of the fault-free run (sums to 1).
    pub baseline_mix: [f64; PHASES],
    /// Phase shares of the same trace under the fault plan.
    pub faulted_mix: [f64; PHASES],
    /// The fault-free run's p95-tail bottleneck phase.
    pub baseline_dominant: Option<Phase>,
    /// The faulted run's p95-tail bottleneck phase.
    pub faulted_dominant: Option<Phase>,
    /// Classified miss causes of the faulted run (indexed by
    /// [`MissCause::ALL`] order).
    pub faulted_miss_causes: [u64; 5],
}

/// Latency attribution under failure: the [`chaos_comparison`] runs
/// (crash vs gang-member loss at 60% load over identical traces) read
/// through the attribution plane. The fault-free baselines spend nothing
/// in the fault phases; the faulted runs shift their mix into fault-stall
/// (and their misses into the `fault` cause), quantifying *where* the
/// failure's latency actually lands rather than just how much SLO it
/// costs.
pub fn attribution_comparison(
    hw: &HwConfig,
    horizon_cap_ms: Option<f64>,
) -> Vec<AttributionComparison> {
    chaos_comparison(hw, horizon_cap_ms)
        .into_iter()
        .map(|c| {
            let base = c
                .baseline
                .attribution
                .expect("attribution is on by default");
            let faulted = c.faulted.attribution.expect("attribution is on by default");
            AttributionComparison {
                label: c.label,
                fault: c.fault,
                baseline_mix: base.phase_mix(),
                faulted_mix: faulted.phase_mix(),
                baseline_dominant: base.dominant_p95,
                faulted_dominant: faulted.dominant_p95,
                faulted_miss_causes: faulted.miss_causes,
            }
        })
        .collect()
}

/// The four standard scenarios at `horizon_ms`: the single-instance
/// batcher, the preemptive control plane under bursty load, a TP gang
/// with collectives, and the planned diurnal ramp. One definition shared
/// by the goldens of `tests/event_core.rs`, `tests/chaos.rs` and
/// `tests/attribution.rs`, so the scenarios each suite pins cannot
/// diverge.
pub fn standard_scenarios(horizon_ms: f64) -> Vec<(&'static str, ServeConfig, TraceConfig)> {
    let mix = WorkloadMix::multi_tenant();
    let hw = HwConfig::exion4();
    let capacity = ServeSimulator::new(ServeConfig::new(hw)).capacity_estimate_rps(&mix);
    let server = HwConfig::exion24();
    let server_capacity = ServeSimulator::new(ServeConfig::new(server)).capacity_estimate_rps(&mix);
    let video = WorkloadMix::text_to_video();
    vec![
        (
            "poisson_90pct_exion4",
            ServeConfig::new(hw),
            TraceConfig {
                pattern: TrafficPattern::Poisson {
                    rate_rps: 0.9 * capacity,
                },
                horizon_ms,
                seed: SWEEP_SEED,
                mix: mix.clone(),
            },
        ),
        (
            "bursty_preemptive_edf_exion24",
            ServeConfig::builder(server)
                .policy_name("preemptive-edf")
                .admission_name("deadline")
                .build(),
            bursty_trace_over(server_capacity, 0.85, horizon_ms, mix),
        ),
        (
            "tp2_gang_video_exion4",
            ServeConfig::builder(hw)
                .placement(Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 }))
                .build(),
            TraceConfig {
                pattern: TrafficPattern::Poisson {
                    rate_rps: 0.6 * capacity,
                },
                horizon_ms,
                seed: SWEEP_SEED,
                mix: video.clone(),
            },
        ),
        (
            "planned_diurnal_exion4",
            ServeConfig::builder(hw)
                .auto_placement(
                    PlacementPlanner::new(
                        PlannerConfig::new(2).with_replanning(horizon_ms / 4.0, 0.35),
                    ),
                    0.3 * capacity,
                )
                .build(),
            TraceConfig {
                pattern: TrafficPattern::Diurnal {
                    peak_rps: 0.9 * capacity,
                    trough_frac: 0.3,
                },
                horizon_ms,
                seed: SWEEP_SEED,
                mix: video,
            },
        ),
    ]
}

/// Runs the full experiment.
pub fn run() -> String {
    let mut out = String::from(
        "serve_sweep — request-level serving over EXION instances\n\
         (continuous batching at DDIM iteration boundaries, multi-tenant mix)\n\n",
    );
    for sweep in compute(None) {
        out.push_str(&format!(
            "{} | {} arrivals | est. capacity {:.1} rps\n",
            sweep.hw, sweep.pattern, sweep.capacity_rps
        ));
        let rows: Vec<Vec<String>> = sweep
            .points
            .iter()
            .map(|p| {
                let r = &p.report;
                vec![
                    format!("{:.0}%", 100.0 * p.load_frac),
                    format!("{:.1}", r.offered_rps),
                    format!("{:.2}", r.latency.p50),
                    format!("{:.2}", r.latency.p99),
                    format!("{:.1}", r.goodput_rps),
                    pct(r.mean_utilization),
                    format!("{:.2}", r.mean_batch_occupancy),
                    pct(r.residency_hit_rate),
                    format!("{:.3}", r.joules_per_request),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "load", "rps", "p50 ms", "p99 ms", "goodput", "util", "batch", "GSC hit", "J/req",
            ],
            &rows,
        ));
        out.push('\n');
    }

    out.push_str("Admission policies at 90% Poisson load (EXION24):\n");
    let rows: Vec<Vec<String>> = compare_policies(&HwConfig::exion24(), None)
        .iter()
        .map(|(policy, r)| {
            vec![
                policy.clone(),
                format!("{:.2}", r.latency.p99),
                pct(r.slo_attainment),
                pct(r.sparse_iteration_frac),
                format!("{:.3}", r.joules_per_request),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["policy", "p99 ms", "SLO", "sparse iters", "J/req"],
        &rows,
    ));

    out.push_str(
        "\nPreemption under the bursty MMPP trace at 85% load (EXION24):\n\
         (urgent tenants: MLD/MDM at 3x SLO; lenient: Stable Diffusion at 6x)\n",
    );
    let rows: Vec<Vec<String>> = compare_preemption(&HwConfig::exion24(), None)
        .iter()
        .map(|(policy, r)| {
            vec![
                policy.clone(),
                format!("{:.1}", r.class_latency(ModelKind::Mld).p95),
                format!("{:.1}", r.class_latency(ModelKind::Mdm).p95),
                format!("{:.1}", r.class_latency(ModelKind::StableDiffusion).p95),
                pct(r.slo_attainment),
                format!("{}", r.preemptions),
                format!("{}", r.latent_spills),
                pct(r.residency_hit_rate),
                format!("{:.1}", r.weight_refill_bytes as f64 / 1e6),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "policy",
            "MLD p95",
            "MDM p95",
            "SD p95",
            "SLO",
            "preempt",
            "spills",
            "GSC hit",
            "refill MB",
        ],
        &rows,
    ));

    out.push_str(
        "\nAdmission control under the bursty MMPP text-to-motion trace (EXION24, EDF):\n\
         (admit-all queues everything; deadline sheds/degrades arrivals whose \
         projected completion misses the SLO)\n",
    );
    let admission_sweeps = admission_comparison(&HwConfig::exion24(), None);
    let rows: Vec<Vec<String>> = admission_sweeps
        .iter()
        .flat_map(|sweep| {
            sweep.points.iter().map(|p| {
                let r = &p.report;
                vec![
                    sweep.label.clone(),
                    format!("{:.0}%", 100.0 * p.load_frac),
                    format!("{:.1}", r.offered_rps),
                    format!("{:.1}", r.goodput_rps),
                    pct(r.slo_attainment),
                    format!("{}", r.shed_requests),
                    format!("{}", r.degraded_requests),
                    format!("{:.0}", r.latency.p95),
                ]
            })
        })
        .collect();
    out.push_str(&render_table(
        &[
            "admission",
            "load",
            "rps",
            "goodput",
            "SLO",
            "shed",
            "degraded",
            "p95 ms",
        ],
        &rows,
    ));
    if let [admit_all, deadline] = &admission_sweeps[..] {
        let baseline = admit_all.points.last().expect("swept points");
        let shedding = deadline.points.last().expect("swept points");
        let verdict = if shedding.report.goodput_rps > baseline.report.goodput_rps {
            "shedding turned the collapse into saturation"
        } else {
            "no shedding win at this horizon"
        };
        out.push_str(&format!(
            "at {:.0}% load: goodput {:.1} rps (admit-all) vs {:.1} rps (deadline) — {}\n",
            100.0 * baseline.load_frac,
            baseline.report.goodput_rps,
            shedding.report.goodput_rps,
            verdict,
        ));
    }

    out.push_str(&format!(
        "\nAutoscaling frontier at 2.5x single-instance load (EXION4, target {:.0}% SLO):\n",
        100.0 * FRONTIER_SLO_TARGET
    ));
    let rows: Vec<Vec<String>> = autoscaling_frontier(&HwConfig::exion4(), 2.5, 6, None)
        .iter()
        .map(|f| {
            let last = f.points.last().expect("at least one size tried");
            vec![
                f.pattern.to_string(),
                format!("{:.1}", f.rate_rps),
                f.min_instances
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!(">{}", f.points.len())),
                pct(last.1),
                format!("{:.1}", last.2),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["pattern", "rps", "min inst", "SLO@min", "p95@min ms"],
        &rows,
    ));

    out.push_str(
        "\nReplicated vs sharded on a 2-instance budget (EXION4, text-to-video):\n\
         (VideoCrafter2's weight working set exceeds one instance's GSC; \
         loads are fractions of the replicated capacity)\n",
    );
    let sharding = sharding_comparison(&HwConfig::exion4(), None);
    let rows: Vec<Vec<String>> = sharding
        .iter()
        .flat_map(|sweep| {
            sweep.points.iter().map(|p| {
                let r = &p.report;
                vec![
                    sweep.label.clone(),
                    format!("{:.0}%", 100.0 * p.load_frac),
                    format!("{:.0}", r.latency.p50),
                    format!("{:.0}", r.latency.p95),
                    format!("{:.2}", r.goodput_rps),
                    pct(r.residency_hit_rate),
                    format!("{:.1}", r.collective_ms),
                ]
            })
        })
        .collect();
    out.push_str(&render_table(
        &[
            "placement",
            "load",
            "p50 ms",
            "p95 ms",
            "goodput",
            "GSC hit",
            "coll ms",
        ],
        &rows,
    ));
    for sharded in &sharding[1..] {
        match goodput_crossover(&sharding[0], sharded) {
            Some(frac) => out.push_str(&format!(
                "{} vs replicated: goodput leader flips at {:.0}% load\n",
                sharded.label,
                100.0 * frac
            )),
            None => out.push_str(&format!(
                "{} vs replicated: one placement leads across the swept range\n",
                sharded.label
            )),
        }
    }

    out.push_str(
        "\nPlacement planner vs hand-picked placements (EXION4, text-to-video, budget 2):\n\
         (the planner scores replicas/TP/PP candidates on residency-adjusted \
         capacity and projected SLO attainment, then re-plans online)\n",
    );
    let planner = planner_comparison(&HwConfig::exion4(), None);
    let rows: Vec<Vec<String>> = planner
        .static_sweeps
        .iter()
        .map(|sweep| (sweep.label.clone(), &sweep.points))
        .chain(std::iter::once(("planned".to_string(), &planner.planned)))
        .flat_map(|(label, points)| {
            points
                .iter()
                .map(move |p| {
                    let r = &p.report;
                    vec![
                        label.clone(),
                        format!("{:.0}%", 100.0 * p.load_frac),
                        format!("{:.0}", r.latency.p50),
                        format!("{:.0}", r.latency.p95),
                        format!("{:.2}", r.goodput_rps),
                        pct(r.slo_attainment),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    out.push_str(&render_table(
        &["placement", "load", "p50 ms", "p95 ms", "goodput", "SLO"],
        &rows,
    ));
    for (frac, pick) in &planner.picks {
        out.push_str(&format!(
            "planner pick at {:.0}% load: {pick}\n",
            100.0 * frac
        ));
    }
    if let Some(pr) = &planner.diurnal.planner {
        out.push_str(&format!(
            "diurnal ramp: {} -> {} | {} re-plan(s), {:.1} MB migrated, \
             mean forecast error {:.0}%, goodput {:.2} rps\n",
            pr.initial_placement,
            pr.final_placement,
            pr.replan_count(),
            pr.migration_bytes() as f64 / 1e6,
            100.0 * pr.mean_forecast_error(),
            planner.diurnal.goodput_rps,
        ));
    }

    out.push_str(
        "\nFault injection at 60% load (EXION4, text-to-video, one instance \
         lost mid-horizon):\n\
         (replicas degrade gracefully; a TP gang losing one member stalls whole)\n",
    );
    let chaos = chaos_comparison(&HwConfig::exion4(), None);
    let rows: Vec<Vec<String>> = chaos
        .iter()
        .flat_map(|c| {
            let fr = c.faulted.fault.clone().unwrap_or_default();
            [
                (c.label.clone(), "none".to_string(), &c.baseline, 0, 0.0),
                (
                    c.label.clone(),
                    c.fault.clone(),
                    &c.faulted,
                    fr.lost_requests,
                    fr.attainment_under_failure,
                ),
            ]
            .into_iter()
            .map(|(label, fault, r, lost, under)| {
                vec![
                    label,
                    fault,
                    pct(r.slo_attainment),
                    pct(under),
                    format!("{lost}"),
                    format!("{:.2}", r.goodput_rps),
                ]
            })
            .collect::<Vec<_>>()
        })
        .collect();
    out.push_str(&render_table(
        &["placement", "fault", "SLO", "SLO@fault", "lost", "goodput"],
        &rows,
    ));

    out.push_str(
        "\nLatency attribution under failure (same chaos runs, phase shares):\n\
         (the fault's latency lands in fault-stall; misses classify as `fault`)\n",
    );
    let rows: Vec<Vec<String>> = attribution_comparison(&HwConfig::exion4(), None)
        .iter()
        .flat_map(|c| {
            [
                ("none", &c.baseline_mix, c.baseline_dominant, None),
                (
                    c.fault.as_str(),
                    &c.faulted_mix,
                    c.faulted_dominant,
                    Some(&c.faulted_miss_causes),
                ),
            ]
            .into_iter()
            .map(|(fault, mix, dominant, causes)| {
                let share = |p: Phase| pct(mix[p.index()]);
                vec![
                    c.label.clone(),
                    fault.to_string(),
                    share(Phase::Queue),
                    share(Phase::Compute),
                    share(Phase::Collective),
                    share(Phase::FaultStall),
                    dominant.map_or("-".to_string(), |p| p.label().to_string()),
                    causes.map_or("-".to_string(), |cs| {
                        MissCause::ALL
                            .iter()
                            .zip(cs)
                            .filter(|(_, &n)| n > 0)
                            .map(|(cause, n)| format!("{} x{n}", cause.label()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    }),
                ]
            })
            .collect::<Vec<_>>()
        })
        .collect();
    out.push_str(&render_table(
        &[
            "placement",
            "fault",
            "queue",
            "compute",
            "coll",
            "stall",
            "p95 bottleneck",
            "miss causes",
        ],
        &rows,
    ));

    out.push_str("\nMeasured vs analytic sparsity profiles (EXION4, text-to-motion):\n");
    let (analytic, measured) = measured_profile_comparison(&HwConfig::exion4(), 8, None);
    let rows: Vec<Vec<String>> = [("analytic", &analytic), ("measured", &measured)]
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{:.2}", r.latency.p50),
                format!("{:.2}", r.latency.p99),
                pct(r.slo_attainment),
                pct(r.sparse_iteration_frac),
                format!("{:.3}", r.joules_per_request),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "profile",
            "p50 ms",
            "p99 ms",
            "SLO",
            "sparse iters",
            "J/req",
        ],
        &rows,
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_saturation_knee() {
        let sweeps = compute(Some(1_500.0));
        assert_eq!(sweeps.len(), 6); // 2 hw × 3 patterns
        for sweep in &sweeps {
            assert!(sweep.capacity_rps > 0.0);
            assert_eq!(sweep.points.len(), LOAD_FRACTIONS.len());
            // Past the knee the tail latency must have blown up.
            assert!(
                sweep.knee_ratio() > 3.0,
                "{} {}: knee ratio {}",
                sweep.hw,
                sweep.pattern,
                sweep.knee_ratio()
            );
        }
    }

    #[test]
    fn utilization_rises_with_load() {
        let sweeps = compute(Some(1_000.0));
        for sweep in &sweeps {
            let first = sweep.points.first().unwrap().report.mean_utilization;
            let last = sweep.points.last().unwrap().report.mean_utilization;
            assert!(
                last > first,
                "{} {}: {first} vs {last}",
                sweep.hw,
                sweep.pattern
            );
        }
    }

    #[test]
    fn policies_all_conserve_requests() {
        let results = compare_policies(&HwConfig::exion4(), Some(800.0));
        assert_eq!(results.len(), policy::BUILTIN_POLICY_NAMES.len());
        for (policy, report) in results {
            assert_eq!(
                report.completed, report.arrivals,
                "{policy} dropped requests"
            );
        }
    }

    #[test]
    fn deadline_admission_saturates_goodput_past_the_knee() {
        // The acceptance criterion: at 1.5x the saturation knee on the
        // bursty MMPP trace (text-to-motion mix — see admission_comparison's
        // docs for why that regime, not multi-tenant, is the aggregate-
        // overload knee admission fixes), deadline-feasibility admission
        // must beat admit-all's collapsing goodput strictly — shedding
        // turns collapse into saturation.
        let sweeps = admission_comparison(&HwConfig::exion24(), Some(2_000.0));
        assert_eq!(sweeps.len(), 2);
        let admit_all = &sweeps[0];
        let deadline = &sweeps[1];
        assert_eq!(admit_all.label, "admit-all");
        assert_eq!(deadline.label, "deadline");
        for sweep in &sweeps {
            assert_eq!(sweep.points.len(), ADMISSION_LOAD_FRACTIONS.len());
            for p in &sweep.points {
                let r = &p.report;
                // Conservation under shedding: every arrival is either
                // served or refused once the cluster drains.
                assert_eq!(
                    r.completed + r.shed_requests,
                    r.arrivals,
                    "{} at {}x",
                    sweep.label,
                    p.load_frac
                );
            }
        }
        // Admit-all never sheds or degrades.
        for p in &admit_all.points {
            assert_eq!(p.report.shed_requests, 0);
            assert_eq!(p.report.degraded_requests, 0);
        }
        let collapse = &admit_all.points.last().expect("swept").report;
        let saturate = &deadline.points.last().expect("swept").report;
        assert!(
            saturate.goodput_rps > collapse.goodput_rps,
            "deadline goodput {} must beat admit-all {} at 1.5x load",
            saturate.goodput_rps,
            collapse.goodput_rps
        );
        assert!(saturate.shed_requests > 0, "overload must shed");
        assert!(saturate.degraded_requests > 0, "overload must also degrade");
        // The saturated tail stays bounded while the collapsing one blows up.
        assert!(
            saturate.latency.p95 < collapse.latency.p95,
            "deadline p95 {} vs admit-all {}",
            saturate.latency.p95,
            collapse.latency.p95
        );
        // Shedding intensifies with load.
        let light = &deadline.points.first().expect("swept").report;
        assert!(
            light.shed_rate() < saturate.shed_rate(),
            "shed rate must rise with load: {} vs {}",
            light.shed_rate(),
            saturate.shed_rate()
        );
    }

    #[test]
    fn preemption_cuts_urgent_class_tail() {
        let results = compare_preemption(&HwConfig::exion24(), Some(2_000.0));
        let edf = &results[0].1;
        let preemptive = &results[1].1;
        assert!(preemptive.preemptions > 0, "preemption never fired");
        let urgent_edf = edf.class_latency(ModelKind::Mld).p95;
        let urgent_pre = preemptive.class_latency(ModelKind::Mld).p95;
        assert!(
            urgent_pre < urgent_edf,
            "urgent p95 {urgent_pre} vs non-preemptive {urgent_edf}"
        );
    }

    #[test]
    fn frontier_finds_a_feasible_size() {
        let frontiers = autoscaling_frontier(&HwConfig::exion4(), 1.6, 4, Some(1_000.0));
        assert_eq!(frontiers.len(), 3);
        for f in &frontiers {
            // SLO attainment is monotone enough for the break-at-first rule;
            // one instance at 1.6x load must not satisfy the target.
            assert!(f.points[0].1 < FRONTIER_SLO_TARGET, "{}", f.pattern);
            if let Some(n) = f.min_instances {
                assert!(n > 1, "{}: one instance cannot absorb 1.6x load", f.pattern);
                assert_eq!(f.points.last().unwrap().0, n);
            }
        }
    }

    #[test]
    fn sharding_comparison_accounts_shard_residency_per_member() {
        let sweeps = sharding_comparison(&HwConfig::exion4(), Some(1_500.0));
        assert_eq!(sweeps.len(), 3);
        let rep = &sweeps[0];
        let tp = &sweeps[1];
        let pp = &sweeps[2];
        for sweep in &sweeps {
            assert_eq!(sweep.points.len(), SHARDING_LOAD_FRACTIONS.len());
            for p in &sweep.points {
                let r = &p.report;
                assert_eq!(r.completed, r.arrivals, "{} dropped requests", sweep.label);
                assert!(r.arrivals > 0, "{}", sweep.label);
            }
        }
        let light_rep = &rep.points[0].report;
        let light_tp = &tp.points[0].report;
        let light_pp = &pp.points[0].report;
        // Each TP member holds only its half-shard, so its GSC covers about
        // twice the fraction a whole-model replica manages — residency is
        // accounted per member, per shard.
        assert!(
            light_tp.residency_hit_rate > 1.5 * light_rep.residency_hit_rate,
            "tp {} vs replicated {}",
            light_tp.residency_hit_rate,
            light_rep.residency_hit_rate
        );
        assert!(light_pp.residency_hit_rate > 1.5 * light_rep.residency_hit_rate);
        // Gangs pay the interconnect; replicas do not.
        assert!(light_tp.collective_bytes > 0);
        assert!(light_pp.collective_bytes > 0);
        assert_eq!(light_rep.collective_bytes, 0);
        assert_eq!(light_tp.gangs, 1);
        assert_eq!(light_tp.per_gang.len(), 1);
        assert_eq!(light_tp.per_instance.len(), 2);
        // A TP=2 gang halves the generation critical path at light load.
        assert!(
            light_tp.latency.p50 < light_rep.latency.p50,
            "tp p50 {} vs replicated {}",
            light_tp.latency.p50,
            light_rep.latency.p50
        );
    }

    #[test]
    fn planner_matches_or_beats_every_static_placement() {
        // The acceptance criterion: at both 30% and 90% of the replicated
        // capacity on the text-to-video mix, the planner's placement must
        // match or beat every hand-picked static placement's goodput —
        // which happens exactly when its offline pick lands on the
        // empirical winner on each side of the crossover.
        let cmp = planner_comparison(&HwConfig::exion4(), None);
        assert_eq!(cmp.static_sweeps.len(), 3);
        assert_eq!(cmp.planned.len(), PLANNER_LOAD_FRACTIONS.len());
        // The fixed-seed picks on either side of the crossover: the TP
        // gang's halved critical path below it, the replicas' independent
        // queues past it.
        assert_eq!(cmp.picks[0], (0.3, "tp2 gang x1".to_string()));
        assert_eq!(cmp.picks[1], (0.9, "replicated x2".to_string()));
        for (i, planned) in cmp.planned.iter().enumerate() {
            let pr = planned.report.planner.as_ref().expect("planner accounting");
            assert_eq!(pr.replan_count(), 0, "offline points must not re-plan");
            for sweep in &cmp.static_sweeps {
                let static_point = &sweep.points[i];
                assert!(
                    planned.report.goodput_rps >= static_point.report.goodput_rps - 1e-9,
                    "planned goodput {} must match/beat {} ({}) at {}x",
                    planned.report.goodput_rps,
                    static_point.report.goodput_rps,
                    sweep.label,
                    planned.load_frac
                );
            }
            // Conservation holds through auto-placement.
            assert_eq!(planned.report.completed, planned.report.arrivals);
        }
        // The diurnal ramp must exercise (and price) at least one re-plan.
        let pr = cmp.diurnal.planner.as_ref().expect("planner accounting");
        assert!(pr.replan_count() >= 1, "diurnal ramp must re-plan");
        assert!(pr.migration_bytes() > 0, "migration must be priced");
        assert!(!pr.epochs.is_empty(), "epochs must be tracked");
        assert_eq!(cmp.diurnal.completed, cmp.diurnal.arrivals);
    }

    #[test]
    fn measured_profiles_reprice_the_mix() {
        let (analytic, measured) = measured_profile_comparison(&HwConfig::exion4(), 4, Some(600.0));
        assert_eq!(analytic.completed, analytic.arrivals);
        assert_eq!(measured.completed, measured.arrivals);
        // The functional measurement differs from the closed form, so the
        // priced latencies must differ too (either direction). Compare the
        // mean — exact under the streaming histogram, where quantized
        // percentiles may land in the same bucket.
        assert_ne!(analytic.latency.mean, measured.latency.mean);
    }

    #[test]
    fn attribution_comparison_lands_fault_latency_in_fault_stall() {
        let rows = attribution_comparison(&HwConfig::exion4(), Some(1_200.0));
        assert_eq!(rows.len(), 2);
        for c in &rows {
            let sum: f64 = c.baseline_mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: baseline mix", c.label);
            let sum: f64 = c.faulted_mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: faulted mix", c.label);
            // Fault-free runs spend nothing in the fault phases.
            assert_eq!(c.baseline_mix[Phase::FaultStall.index()], 0.0);
            assert_eq!(c.baseline_mix[Phase::DegradedWindow.index()], 0.0);
            // The injected failure must actually land latency in
            // fault-stall — the share the chaos CI smoke asserts on.
            assert!(
                c.faulted_mix[Phase::FaultStall.index()] > 0.0,
                "{} under {}: no fault-stall share",
                c.label,
                c.fault
            );
            // Any faulted-run misses beyond the baseline's classify as
            // fault-caused for this mid-horizon outage.
            let fault_misses = c.faulted_miss_causes[MissCause::Fault.index()];
            let total: u64 = c.faulted_miss_causes.iter().sum();
            assert!(
                total == 0 || fault_misses > 0,
                "{} under {}: misses {:?} never classify as fault",
                c.label,
                c.fault,
                c.faulted_miss_causes
            );
        }
    }
}
