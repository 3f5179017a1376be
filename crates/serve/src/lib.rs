//! # exion-serve
//!
//! Request-level serving simulation over the EXION accelerator: the layer
//! between the cycle-level simulator (one inference at a fixed batch) and
//! the ROADMAP's production-scale north star (heavy traffic from millions of
//! users).
//!
//! The subsystem models the full request path:
//!
//! * [`trace`] — deterministic, seeded arrival streams (Poisson steady
//!   state, two-state bursty MMPP, diurnal ramp) over weighted model mixes
//!   of the `exion-model` zoo;
//! * [`admission`] — the enqueue-time half of the pluggable control plane:
//!   an [`AdmissionController`] may accept an arrival, *shed* it (a priced
//!   refusal counted as an SLO miss), or *degrade* it to a reduced DDIM
//!   step budget that still meets the deadline — so goodput saturates at
//!   the knee instead of collapsing past it ([`DeadlineFeasibility`]);
//! * [`scheduler`] / [`cluster`] — a continuous batcher that exploits the
//!   iterative structure of DDIM denoising: requests join and leave running
//!   batches at *iteration boundaries* rather than waiting for a full batch
//!   drain, across one or more hardware instances; each instance carries a
//!   byte-accounted [`exion_sim::residency::GscCache`] of weight shards and
//!   parked request latents, and idle instances seed the tenant whose
//!   refill-adjusted urgency wins (residency-aware routing, with a
//!   resume-affinity hint that steers parked requests back to the unit
//!   still holding their latent);
//! * [`placement`] — groups instances into whole-model replicas and
//!   tensor/pipeline-parallel *gangs* ([`exion_sim::partition`]): a gang
//!   serves models whose weight working set exceeds one instance's GSC by
//!   giving each member its own shard (and shard-granular residency),
//!   advancing a sharded batch only when every member is done and pricing
//!   the interconnect collectives; preempted latents park on the gang's
//!   least-GSC-pressured member, spreading pressure off the leader;
//! * [`planner`] — the placement planner: an offline optimizer that turns
//!   (model mix, load forecast, hardware, instance budget) into a
//!   [`Placement`] by enumerating replica/TP/PP candidates, pruning
//!   GSC-infeasible cuts, and scoring residency-adjusted capacity and
//!   projected SLO attainment over the topology-aware interconnect model
//!   (ring vs all-to-all, with link contention between concurrent gangs);
//!   installed through `ServeConfigBuilder::auto_placement` it also
//!   re-plans online at epoch boundaries, executing priced migrations when
//!   realized load diverges past its hysteresis threshold;
//! * [`fault`] — seeded fault injection: a [`FaultPlan`] schedules
//!   instance crashes, gang-member losses, and interconnect degradations
//!   as first-class calendar events; a gang missing a member stalls,
//!   in-flight latents on dead hardware are *lost* (a third terminal
//!   outcome priced as an SLO miss, with conservation extended to
//!   `served + shed + lost == arrivals`) unless an opt-in periodic
//!   checkpoint policy spilled them to DRAM, the planner re-places around
//!   the reduced fleet out of cadence, and recovery rejoins capacity
//!   after a repair delay — all summarized in a [`FaultReport`];
//! * [`policy`] — the scheduling half of the control plane: a
//!   [`SchedulerPolicy`] trait object keys each request's admission
//!   order and, against a read-only [`SchedSnapshot`], gates batch joins
//!   and bounds preemption; FCFS, SLO-aware EDF, *preemptive* EDF, and
//!   the sparsity-aware phase-aligning policy ship as named
//!   implementations ([`policy::by_name`]);
//! * [`cost`] — memoized per-iteration pricing through
//!   [`exion_sim::simulate_iteration`]: each iteration is priced by the
//!   *fraction* of the model's weight working set GSC-resident (partial
//!   refills, not a warm/cold flag), under the analytic sparsity profile or
//!   a measured override (`exion-bench::profiles`);
//! * [`metrics`] — p50/p95/p99 latency (from streaming log-bucketed
//!   histograms, no full-sample sort), goodput, SLO attainment,
//!   utilization, queue depth, joules per request, preemption counts,
//!   residency hit-rate, refill bytes, shed/degrade accounting, and
//!   fixed-cadence metric time-series ([`MetricsSnapshot`]);
//! * [`telemetry`] (re-export of `exion-telemetry`) — a pure-observer
//!   instrumentation plane: request-lifecycle spans and per-instance
//!   busy/idle/collective/refill/drain timeline slices are emitted through
//!   a [`Sink`] by [`ServeSimulator::run_traced`], exportable as Chrome
//!   trace-event JSON ([`chrome_trace_json`], loadable in Perfetto /
//!   `chrome://tracing`); a run with a sink attached produces a report
//!   identical to one without, and [`ServeSimulator::last_run_profile`]
//!   self-meters the wall-clock cost of every run;
//! * [`attribution`] — latency attribution and SLO forensics: every
//!   request accumulates a ten-phase [`PhaseBreakdown`] conserved to its
//!   end-to-end latency by construction, aggregated in
//!   [`ServeReport::attribution`][metrics::ServeReport::attribution] into
//!   per-phase distributions, dominant-phase bottlenecks, a five-way
//!   [`MissCause`] classification, and a worst-overshoot forensics
//!   digest — a pure observer (on by default; the simulation is
//!   byte-identical with it off) exportable as JSON via
//!   [`attribution_json`].
//!
//! # Example
//!
//! ```
//! use exion_serve::{ServeConfig, ServeSimulator, TraceConfig, TrafficPattern, WorkloadMix};
//! use exion_sim::config::HwConfig;
//!
//! let config = ServeConfig::builder(HwConfig::exion4())
//!     .policy_name("sparsity-aware")
//!     .admission_name("admit-all")
//!     .build();
//! let mut sim = ServeSimulator::new(config);
//! let report = sim.run(&TraceConfig {
//!     pattern: TrafficPattern::Poisson { rate_rps: 50.0 },
//!     horizon_ms: 500.0,
//!     seed: 7,
//!     mix: WorkloadMix::text_to_motion(),
//! });
//! assert_eq!(report.completed, report.arrivals);
//! assert!(report.latency.p99 >= report.latency.p50);
//! ```

pub mod admission;
pub mod attribution;
pub mod calendar;
pub mod cluster;
pub mod cost;
pub mod fault;
mod hash;
pub mod metrics;
pub mod placement;
pub mod planner;
pub mod policy;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod trace;

/// The instrumentation crate, re-exported so downstream users need not
/// depend on `exion-telemetry` directly.
pub use exion_telemetry as telemetry;

pub use admission::{
    AdmissionController, AdmissionDecision, AdmissionView, AdmitAll, DeadlineFeasibility,
};
pub use attribution::{
    attribution_json, AttributionReport, MissCause, MissRecord, ModelAttribution, Phase,
    PhaseBreakdown, RequestAttribution, RequestOutcome, PHASES,
};
pub use calendar::{Event, EventCalendar, EventKind};
pub use cluster::{RunProfile, ServeConfig, ServeConfigBuilder, ServeSimulator};
pub use cost::CostModel;
pub use exion_sim::partition::Topology;
pub use exion_sim::partition::{Interconnect, PartitionPlan, PartitionStrategy};
pub use exion_sim::residency::EvictionPolicy;
pub use exion_telemetry::{
    chrome_trace_json, LogHistogram, MemorySink, NullSink, RequestEvent, Sink, SliceKind,
    SpanRecord, TimelineSlice,
};
pub use fault::{CheckpointPolicy, FaultKind, FaultPlan, FaultSpec};
pub use metrics::{
    EpochStat, FaultRecord, FaultReport, GangStats, InstanceStats, LatencyStats, MetricSample,
    MetricsSnapshot, PlannerReport, ReplanEvent, ServeReport,
};
pub use placement::{Gang, Placement};
pub use planner::{gsc_feasible, CandidateScore, PlacementPlanner, PlanOutcome, PlannerConfig};
pub use policy::{Edf, Fcfs, PreemptiveEdf, SchedSnapshot, SchedulerPolicy, SparsityAware};
pub use queue::{BacklogIndex, ReadyQueue};
pub use request::{Completion, LostRecord, Request, RequestId, ShedRecord};
pub use scheduler::{AdmitOutcome, Instance, ModelInfo, SchedContext};
pub use trace::{Arrival, TraceConfig, TrafficPattern, WorkloadMix};
