//! Cluster-level serving simulation: arrivals → admission → queue → units
//! → report.
//!
//! Scheduling units (whole-model replicas and sharded TP/PP gangs — see
//! [`crate::placement`]) pull work from one shared queue (central
//! scheduler, unit pull), each advancing its own clock one denoising
//! iteration at a time. The loop is driven by an event calendar
//! ([`crate::calendar`]): a binary heap holding each unit's next
//! iteration boundary (or idle wake) plus the recurring stats-snapshot
//! and planner-epoch events, popped in deterministic (time, kind, unit)
//! order — which keeps arrival release causal across units, makes the
//! whole simulation deterministic for a fixed trace, and lets idle units
//! cost nothing during arrival gaps. Arrivals stream lazily from the
//! trace generator, so memory is bounded by in-flight state, not trace
//! length.
//!
//! Both halves of the control plane are pluggable trait objects carried by
//! [`ServeConfig`]: a [`SchedulerPolicy`] decides admission ordering,
//! batch-join gating, and preemption at iteration boundaries, and an
//! [`AdmissionController`] is consulted once per arrival — before the
//! request enters the queue — and may accept, shed (a priced refusal), or
//! degrade it to a reduced DDIM step budget. Configs are assembled with
//! [`ServeConfig::builder`].

use std::collections::VecDeque;
use std::sync::Arc;

use exion_model::config::{ModelConfig, ModelKind};
use exion_sim::config::HwConfig;
use exion_sim::partition::{Interconnect, PartitionStrategy};
use exion_sim::perf::{SimAblation, SimError};
use exion_sim::residency::EvictionPolicy;
use exion_telemetry::{
    CounterSample, InstantMarker, LogHistogram, NullSink, RequestEvent, Sink, SliceKind,
    SpanRecord, StopWatch, TimelineSlice,
};

use crate::admission::{self, AdmissionController, AdmissionDecision, AdmissionView, AdmitAll};
use crate::attribution::AttributionBuilder;
use crate::calendar::{EventCalendar, EventKind};
use crate::cost::CostModel;
use crate::fault::{CheckpointPolicy, FaultKind, FaultPlan, FaultSpec};
use crate::hash::FxHashMap;
use crate::metrics::{
    DepthTracker, EpochStat, FaultRecord, FaultReport, LatencyStats, PlannerReport, ReplanEvent,
    SeriesRecorder, ServeReport,
};
use crate::placement::{Gang, Placement};
use crate::planner::PlacementPlanner;
use crate::policy::{self, Fcfs, SchedulerPolicy};
use crate::queue::ReadyQueue;
use crate::request::{Completion, LostRecord, Request, ShedRecord};
use crate::scheduler::{AdmitOutcome, SchedContext};
use crate::trace::{Arrival, ArrivalStream, TraceConfig, WorkloadMix};

/// The widest gang one placement may declare: partition shard indices are
/// `u8`, and nothing on a board approaches this.
const MAX_GANG_DEGREE: usize = 64;

/// Auto-placement: the planner that chooses (and online re-chooses) the
/// cluster's placement, plus the offered-load forecast the initial offline
/// plan is built against. Installed with
/// [`ServeConfigBuilder::auto_placement`]; when present, the static
/// [`ServeConfig::placement`] is ignored.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AutoPlacement {
    /// The optimizer and its re-planning knobs.
    pub planner: PlacementPlanner,
    /// The offered-load forecast (requests/s) the initial plan targets.
    pub forecast_rps: f64,
}

/// Why a [`ServeConfigBuilder`] refused to produce a configuration —
/// returned by [`ServeConfigBuilder::try_build`] so placement mistakes
/// surface as descriptive errors at build time instead of panics deep in
/// the cluster loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The placement declares no scheduling unit at all.
    EmptyPlacement,
    /// Gangs were declared under a single-member strategy (a world-size-1
    /// "gang" is a replica; the partition plan would have nothing to cut).
    DegenerateGangStrategy {
        /// The offending strategy label.
        strategy: String,
    },
    /// A gang's world size exceeds what instance indexing supports.
    OversizedGang {
        /// The declared gang degree.
        degree: usize,
        /// The maximum supported degree.
        max: usize,
    },
    /// An interconnect field is NaN, infinite or out of range:
    /// `link_gbps` must be positive, `latency_us` and `pj_per_bit`
    /// non-negative.
    InvalidInterconnect {
        /// The offending field.
        field: &'static str,
        /// Its declared value.
        value: f64,
    },
    /// The auto-placement planner's knobs are unusable.
    InvalidPlanner {
        /// What was wrong.
        reason: String,
    },
    /// The telemetry sampling interval cannot schedule snapshots.
    InvalidStatsInterval {
        /// The declared interval (ms).
        interval_ms: f64,
    },
    /// The fault plan carries an unschedulable event.
    InvalidFaultPlan {
        /// What was wrong.
        reason: String,
    },
    /// The checkpoint policy can never fire.
    InvalidCheckpoint {
        /// The declared period (denoising steps).
        every_steps: usize,
    },
    /// A [`TraceConfig`] field is NaN, infinite or out of range (see
    /// [`TraceConfig::validate`] for the rules).
    InvalidTrace {
        /// The offending field.
        field: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyPlacement => {
                write!(f, "placement declares zero replicas and zero gangs")
            }
            ConfigError::DegenerateGangStrategy { strategy } => write!(
                f,
                "placement declares gangs under single-member strategy {strategy:?}; \
                 use replicas (or a TP/PP strategy with degree >= 2)"
            ),
            ConfigError::OversizedGang { degree, max } => write!(
                f,
                "gang degree {degree} exceeds the supported maximum of {max} members"
            ),
            ConfigError::InvalidInterconnect { field, value } => {
                write!(
                    f,
                    "interconnect {field} is NaN, infinite or out of range: {value}"
                )
            }
            ConfigError::InvalidPlanner { reason } => {
                write!(f, "auto-placement planner misconfigured: {reason}")
            }
            ConfigError::InvalidStatsInterval { interval_ms } => write!(
                f,
                "telemetry stats interval must be positive and finite, got {interval_ms} ms"
            ),
            ConfigError::InvalidFaultPlan { reason } => {
                write!(f, "fault plan is unschedulable: {reason}")
            }
            ConfigError::InvalidCheckpoint { every_steps } => write!(
                f,
                "checkpoint period must be at least one step, got {every_steps}"
            ),
            ConfigError::InvalidTrace { field } => {
                write!(f, "trace {field} is NaN, infinite, empty or out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Serving-cluster configuration. Assemble with [`ServeConfig::builder`];
/// [`ServeConfig::new`] is the all-defaults shorthand (one replica, batch
/// 8, FCFS, admit-all, LRU eviction). Every run prices iterations with all
/// of EXION's optimizations active.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The accelerator instance type.
    pub hw: HwConfig,
    /// How instances are grouped into replicas and sharded gangs.
    pub placement: Placement,
    /// Maximum batch rows per unit.
    pub max_batch: usize,
    /// Scheduling policy (admission ordering, batch-join gating,
    /// preemption decisions).
    pub policy: Arc<dyn SchedulerPolicy>,
    /// Admission controller consulted once per arrival at enqueue time.
    pub admission: Arc<dyn AdmissionController>,
    /// GSC eviction policy of every instance's residency cache.
    pub eviction: EvictionPolicy,
    /// Auto-placement: when set, the planner chooses the initial placement
    /// for the traced mix and re-plans at epoch boundaries; the static
    /// `placement` field is ignored.
    pub auto_placement: Option<AutoPlacement>,
    /// Telemetry sampling interval (ms of simulated time): when set, the
    /// cluster's counters and gauges are snapshotted into
    /// [`ServeReport::series`] every interval (in addition to planner
    /// epoch boundaries). `None` (the default) samples at epoch
    /// boundaries only.
    pub stats_interval_ms: Option<f64>,
    /// Seeded fault-injection plan: crashes, gang-member losses, and
    /// interconnect degradations scheduled on the event calendar. The
    /// empty plan (the default) schedules nothing — the run is
    /// byte-identical to a fault-free simulation.
    pub fault_plan: FaultPlan,
    /// Opt-in periodic latent checkpointing: every N denoising steps each
    /// running request parks a DRAM copy of its latent (priced as a spill
    /// transfer), so a later fault requeues it from the checkpoint
    /// instead of losing it. `None` (the default) checkpoints nothing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Whether the run accumulates per-request latency attribution into
    /// [`ServeReport::attribution`] (on by default). Attribution is a
    /// pure observer — disabling it changes memory footprint only, never
    /// simulation outcomes; the golden-fingerprint tests pin that.
    pub attribution: bool,
}

impl ServeConfig {
    /// A builder over the defaults: one replica, batch 8, FCFS
    /// scheduling, admit-all admission, LRU eviction.
    pub fn builder(hw: HwConfig) -> ServeConfigBuilder {
        ServeConfigBuilder {
            inner: Self::new(hw),
        }
    }

    /// The all-defaults configuration for `hw` (see [`Self::builder`]).
    pub fn new(hw: HwConfig) -> Self {
        Self {
            hw,
            placement: Placement::replicated(1),
            max_batch: 8,
            policy: Arc::new(Fcfs),
            admission: Arc::new(AdmitAll),
            eviction: EvictionPolicy::Lru,
            auto_placement: None,
            stats_interval_ms: None,
            fault_plan: FaultPlan::empty(),
            checkpoint: None,
            attribution: true,
        }
    }
}

/// Builder for [`ServeConfig`] — the one construction path for every
/// non-default cluster (ad-hoc field mutation is gone; policies and
/// admission controllers plug in as trait objects or built-in names).
///
/// ```
/// use exion_serve::{DeadlineFeasibility, Placement, ServeConfig};
/// use exion_sim::config::HwConfig;
///
/// let config = ServeConfig::builder(HwConfig::exion24())
///     .placement(Placement::replicated(2))
///     .policy_name("preemptive-edf")
///     .admission(DeadlineFeasibility::default())
///     .max_batch(16)
///     .build();
/// assert_eq!(config.policy.name(), "preemptive-edf");
/// assert_eq!(config.admission.name(), "deadline");
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    inner: ServeConfig,
}

impl ServeConfigBuilder {
    /// Replaces the placement (replicas, sharded gangs, or a mix).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.inner.placement = placement;
        self
    }

    /// Shorthand for a placement of `n` whole-model replicas.
    pub fn instances(self, n: usize) -> Self {
        self.placement(Placement::replicated(n))
    }

    /// Replaces the scheduling policy with a concrete implementation.
    pub fn policy(self, policy: impl SchedulerPolicy + 'static) -> Self {
        self.policy_arc(Arc::new(policy))
    }

    /// Replaces the scheduling policy with a shared trait object.
    pub fn policy_arc(mut self, policy: Arc<dyn SchedulerPolicy>) -> Self {
        self.inner.policy = policy;
        self
    }

    /// Installs the built-in policy `name` ([`policy::by_name`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name, listing the built-in ones.
    pub fn policy_name(self, name: &str) -> Self {
        let policy = policy::by_name(name).unwrap_or_else(|| {
            panic!(
                "unknown scheduling policy {name:?}; built-ins: {:?}",
                policy::BUILTIN_POLICY_NAMES
            )
        });
        self.policy_arc(policy)
    }

    /// Replaces the admission controller with a concrete implementation.
    pub fn admission(self, controller: impl AdmissionController + 'static) -> Self {
        self.admission_arc(Arc::new(controller))
    }

    /// Replaces the admission controller with a shared trait object.
    pub fn admission_arc(mut self, controller: Arc<dyn AdmissionController>) -> Self {
        self.inner.admission = controller;
        self
    }

    /// Installs the built-in admission controller `name`
    /// ([`admission::by_name`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name, listing the built-in ones.
    pub fn admission_name(self, name: &str) -> Self {
        let controller = admission::by_name(name).unwrap_or_else(|| {
            panic!(
                "unknown admission controller {name:?}; built-ins: {:?}",
                admission::BUILTIN_ADMISSION_NAMES
            )
        });
        self.admission_arc(controller)
    }

    /// Replaces the per-unit batch bound (at least 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.inner.max_batch = max_batch.max(1);
        self
    }

    /// Replaces the GSC eviction policy.
    pub fn eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.inner.eviction = eviction;
        self
    }

    /// Installs auto-placement: `planner` chooses the initial placement
    /// for the traced mix at `forecast_rps` offered load and re-plans at
    /// epoch boundaries when realized load diverges past its hysteresis
    /// threshold. The static placement is ignored while installed.
    pub fn auto_placement(mut self, planner: PlacementPlanner, forecast_rps: f64) -> Self {
        self.inner.auto_placement = Some(AutoPlacement {
            planner,
            forecast_rps,
        });
        self
    }

    /// Samples the cluster's counters and gauges into the report's
    /// time-series every `interval_ms` of simulated time (planner epoch
    /// boundaries are always sampled; this adds a fixed cadence for
    /// statically placed runs).
    pub fn stats_interval_ms(mut self, interval_ms: f64) -> Self {
        self.inner.stats_interval_ms = Some(interval_ms);
        self
    }

    /// Installs a fault-injection plan: its events are scheduled on the
    /// event calendar and fire in deterministic order alongside the
    /// simulation's own events (see [`crate::fault`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inner.fault_plan = plan;
        self
    }

    /// Enables periodic latent checkpointing: every `steps` denoising
    /// steps each running request parks a DRAM copy of its latent (a
    /// priced spill transfer) so a fault on its unit requeues it from the
    /// checkpoint instead of losing it.
    pub fn checkpoint_every(mut self, steps: usize) -> Self {
        self.inner.checkpoint = Some(CheckpointPolicy::every(steps));
        self
    }

    /// Toggles per-request latency attribution (on by default). Turning
    /// it off drops [`ServeReport::attribution`] — useful for
    /// memory-constrained fleet-scale sweeps — and changes nothing else:
    /// attribution never feeds back into the simulation.
    pub fn attribution(mut self, enabled: bool) -> Self {
        self.inner.attribution = enabled;
        self
    }

    /// The finished, validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid setting —
    /// an empty placement, gangs under a single-member strategy, a gang
    /// wider than instance indexing supports, an interconnect field that
    /// is NaN, infinite or out of range (on the placement or the
    /// planner's fabric), or unusable planner knobs — instead of letting
    /// the cluster loop panic or price NaN mid-run.
    pub fn try_build(mut self) -> Result<ServeConfig, ConfigError> {
        let placement = self.inner.placement;
        if placement.units() == 0 {
            return Err(ConfigError::EmptyPlacement);
        }
        validate_gangs(&placement)?;
        validate_link(&placement.interconnect)?;
        if let Some(interval_ms) = self.inner.stats_interval_ms {
            if !interval_ms.is_finite() || interval_ms <= 0.0 {
                return Err(ConfigError::InvalidStatsInterval { interval_ms });
            }
        }
        self.inner
            .fault_plan
            .validate()
            .map_err(|reason| ConfigError::InvalidFaultPlan { reason })?;
        if let Some(policy) = self.inner.checkpoint {
            if policy.every_steps == 0 {
                return Err(ConfigError::InvalidCheckpoint {
                    every_steps: policy.every_steps,
                });
            }
        }
        if let Some(ap) = &mut self.inner.auto_placement {
            // The planner must price candidates at the deployment's real
            // batch bound, whatever order the builder calls came in.
            ap.planner.config.max_batch = self.inner.max_batch;
            let cfg = &ap.planner.config;
            if cfg.budget == 0 {
                return Err(ConfigError::InvalidPlanner {
                    reason: "instance budget is zero".to_string(),
                });
            }
            if !cfg.epoch_ms.is_finite() || cfg.epoch_ms <= 0.0 {
                return Err(ConfigError::InvalidPlanner {
                    reason: format!("epoch_ms must be positive, got {}", cfg.epoch_ms),
                });
            }
            if !cfg.hysteresis.is_finite() || cfg.hysteresis < 0.0 {
                return Err(ConfigError::InvalidPlanner {
                    reason: format!("hysteresis must be non-negative, got {}", cfg.hysteresis),
                });
            }
            if !ap.forecast_rps.is_finite() || ap.forecast_rps <= 0.0 {
                return Err(ConfigError::InvalidPlanner {
                    reason: format!(
                        "forecast must be a positive offered load, got {} rps",
                        ap.forecast_rps
                    ),
                });
            }
            validate_link(&cfg.interconnect)?;
            for &strategy in &cfg.strategies {
                if strategy.degree() > MAX_GANG_DEGREE {
                    return Err(ConfigError::OversizedGang {
                        degree: strategy.degree(),
                        max: MAX_GANG_DEGREE,
                    });
                }
            }
        }
        Ok(self.inner)
    }

    /// The finished configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when the configuration is
    /// invalid; use [`Self::try_build`] to handle the error instead.
    pub fn build(self) -> ServeConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("invalid serving configuration: {e}"),
        }
    }
}

/// Validates the gang half of a placement: real multi-member strategies
/// within indexing bounds.
fn validate_gangs(placement: &Placement) -> Result<(), ConfigError> {
    if placement.gangs == 0 {
        return Ok(());
    }
    let degree = placement.strategy.degree();
    if degree < 2 {
        return Err(ConfigError::DegenerateGangStrategy {
            strategy: placement.strategy.label(),
        });
    }
    if degree > MAX_GANG_DEGREE {
        return Err(ConfigError::OversizedGang {
            degree,
            max: MAX_GANG_DEGREE,
        });
    }
    Ok(())
}

/// Accepts only a finite, positive link bandwidth and a finite,
/// non-negative launch latency and transfer energy: any other value
/// prices collectives, their energy and capacity estimates as NaN or
/// infinity.
fn validate_link(link: &Interconnect) -> Result<(), ConfigError> {
    let fields = [
        ("link_gbps", link.link_gbps, link.link_gbps > 0.0),
        ("latency_us", link.latency_us, link.latency_us >= 0.0),
        ("pj_per_bit", link.pj_per_bit, link.pj_per_bit >= 0.0),
    ];
    match fields
        .into_iter()
        .find(|&(_, value, in_range)| !(value.is_finite() && in_range))
    {
        Some((field, value, _)) => Err(ConfigError::InvalidInterconnect { field, value }),
        None => Ok(()),
    }
}

/// The online re-planner's running state: the planner, the forecast it is
/// currently operating on, and the accounting it accumulates.
#[derive(Debug, Clone)]
struct PlannerState {
    planner: PlacementPlanner,
    forecast_rps: f64,
    epoch_start_ms: f64,
    report: PlannerReport,
}

impl PlannerState {
    /// Scores the planner's candidates for `mix` at the current forecast
    /// and budget, returning the chosen placement.
    fn plan(
        &self,
        hw: &HwConfig,
        mix: &WorkloadMix,
        cost: &mut CostModel,
        watch: &mut StopWatch,
    ) -> Placement {
        self.planner
            .plan_timed(hw, mix, self.forecast_rps, cost, watch)
            .chosen
            .placement
    }
}

/// Declares one timeline track per member instance of `units` on `sink`
/// (called at cluster build and after every migration, so retired and new
/// instances each keep their own named track in the exported trace).
fn declare_unit_tracks(units: &[Gang], sink: &mut dyn Sink) {
    for unit in units {
        let label = unit.strategy().label();
        for (slot, m) in unit.members.iter().enumerate() {
            let name = if unit.members.len() == 1 {
                format!("inst {} ({label})", m.id)
            } else {
                format!("inst {} ({label} member {slot})", m.id)
            };
            sink.declare_track(m.id as u32, name);
        }
    }
}

/// One entry of the cluster loop's runtime fault table. The calendar's
/// [`EventKind::Fault`] entries carry indices into this table: the
/// configured plan's events occupy the head, and the recoveries / link
/// restores each fault pairs itself with are appended as it fires.
#[derive(Debug, Clone, Copy)]
enum RuntimeFault {
    /// A planned fault, as configured.
    Inject(FaultSpec),
    /// Crashed capacity rejoins after its repair delay. `instances` is
    /// the planner-budget slice to restore (0 under static placement,
    /// where the slot-sleeping replacement wakes by itself).
    Recover { crashed_at: f64, instances: usize },
    /// The interconnect degradation window opened by fault-table entry
    /// `opened` closes.
    LinkRestore { opened: usize },
}

/// `placement` with its gang interconnect degraded by `slowdown` (a
/// bandwidth cut by that factor on every link). A slowdown of exactly 1.0
/// returns the placement untouched, so healthy runs price the configured
/// fabric bit-for-bit.
fn degraded_placement(placement: &Placement, slowdown: f64) -> Placement {
    if slowdown == 1.0 {
        return *placement;
    }
    let mut p = *placement;
    p.interconnect.link_gbps /= slowdown;
    p
}

/// What one executed iteration added to a unit's stall counters: its
/// collective milliseconds and each member's DRAM weight-refill bytes.
/// Filled once per iteration into a buffer reused across the run, and
/// read by both the timeline slices and the attribution clocks.
#[derive(Debug, Clone, Default)]
struct IterationDeltas {
    coll_ms: f64,
    refill_bytes: Vec<u64>,
}

impl IterationDeltas {
    /// Snapshots `unit`'s cumulative counters before the iteration.
    fn begin(&mut self, unit: &Gang) {
        self.coll_ms = unit.collective_totals().0;
        self.refill_bytes.clear();
        self.refill_bytes
            .extend(unit.members.iter().map(|m| m.refill_bytes_so_far()));
    }

    /// Turns the snapshot into the iteration's deltas.
    fn end(&mut self, unit: &Gang) {
        self.coll_ms = unit.collective_totals().0 - self.coll_ms;
        for (bytes, m) in self.refill_bytes.iter_mut().zip(&unit.members) {
            *bytes = m.refill_bytes_so_far() - *bytes;
        }
    }
}

/// Per-unit attribution clock: the facts the [`AttributionBuilder`] needs
/// that the simulation does not hand over directly. Tracks the unit's
/// previous boundary instant (the batch-join "door floor") and running
/// collective / refill-stall milliseconds, folded in from each executed
/// iteration's [`IterationDeltas`]. Pure observation — nothing here is
/// read by the scheduler.
#[derive(Debug, Clone)]
struct UnitAttrib {
    /// The unit's previous boundary event instant (ms).
    prev_boundary_ms: f64,
    /// Cumulative collective milliseconds attributed so far.
    coll_ms: f64,
    /// Cumulative refill-stall milliseconds attributed so far.
    refill_ms: f64,
}

impl UnitAttrib {
    fn new(unit: &Gang) -> Self {
        Self {
            prev_boundary_ms: unit.now_ms(),
            coll_ms: 0.0,
            refill_ms: 0.0,
        }
    }

    /// Folds one executed iteration of `dur` ms into the running stall
    /// counters: the collective delta clamps to the iteration, and the
    /// refill stall is the slowest member's transfer time for its fresh
    /// refill bytes, clamped to what the iteration has left after
    /// collectives.
    fn after_iteration(&mut self, deltas: &IterationDeltas, ctx: &SchedContext, dur: f64) {
        let coll_delta = deltas.coll_ms.clamp(0.0, dur);
        self.coll_ms += coll_delta;
        let mut refill_stall: f64 = 0.0;
        for &bytes in &deltas.refill_bytes {
            if bytes > 0 {
                refill_stall = refill_stall.max(ctx.transfer_ms(bytes));
            }
        }
        self.refill_ms += refill_stall.min((dur - coll_delta).max(0.0));
    }
}

/// Self-metering of one simulator run: wall-clock cost beside the
/// simulated time it bought. Deliberately kept *outside* [`ServeReport`]
/// — wall readings are non-deterministic and must never enter the state
/// determinism tests compare. Retrieve with
/// [`ServeSimulator::last_run_profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunProfile {
    /// Total wall-clock of the run (ms).
    pub wall_ms: f64,
    /// Wall-clock spent scoring placements (offline pick + epoch
    /// re-plans, ms).
    pub planner_wall_ms: f64,
    /// Planner scoring passes (1 offline + executed re-scores).
    pub planner_calls: u64,
    /// Denoising iterations the cluster executed.
    pub iterations: u64,
    /// Calendar events the core executed (unit boundaries, idle wakes,
    /// stats samples, epoch boundaries) — the quantity wall time actually
    /// scales with under the event-driven loop.
    pub events_executed: u64,
    /// Largest number of entries the event calendar held at once.
    pub peak_calendar_events: usize,
    /// Simulated makespan the run produced (ms).
    pub makespan_ms: f64,
    /// Requests completed.
    pub completed: usize,
    /// GSC requests (weight-shard touches and latent parks) over every
    /// instance the run deployed, live and retired.
    pub gsc_requests: u64,
    /// GSC evictions over every instance the run deployed, live and
    /// retired.
    pub gsc_evictions: u64,
    /// Iteration prices the cost model answered from its memo during the
    /// run.
    pub cost_memo_hits: u64,
    /// Iteration prices the cost model had to simulate during the run.
    pub cost_memo_misses: u64,
}

impl RunProfile {
    /// Simulated milliseconds bought per wall-clock millisecond (0.0 when
    /// the run was too fast to measure). One run's reading is a print-out,
    /// not a benchmark: the repository benchmark (`perfbench/`) reports
    /// host throughput as `ops_per_s` over repeated timed passes.
    pub fn sim_ms_per_wall_ms(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.makespan_ms / self.wall_ms
        } else {
            0.0
        }
    }

    /// Wall-clock spent stepping the cluster (everything outside planner
    /// scoring, ms).
    pub fn cluster_wall_ms(&self) -> f64 {
        (self.wall_ms - self.planner_wall_ms).max(0.0)
    }
}

/// Lazily draws [`Arrival`]s off the seeded [`ArrivalStream`], releasing
/// them in generation order as unit clocks pass their timestamps. The
/// epoch handler's lookahead (counting realized load up to an epoch end)
/// buffers at most the arrivals of one epoch that no unit clock has
/// reached yet, so a million-request trace never materializes: memory
/// stays bounded by the lookahead window, not the horizon.
struct ArrivalReleaser {
    stream: ArrivalStream,
    /// Arrivals pulled off the stream by epoch-count lookahead but not
    /// yet released to the cluster (all at future timestamps).
    buffered: VecDeque<Arrival>,
    exhausted: bool,
    released: usize,
}

impl ArrivalReleaser {
    fn new(trace: &TraceConfig) -> Self {
        Self {
            stream: ArrivalStream::new(trace),
            buffered: VecDeque::new(),
            exhausted: false,
            released: 0,
        }
    }

    /// The next unreleased arrival's timestamp (`None` once the trace is
    /// exhausted) — the idle-wake target.
    fn peek_at_ms(&mut self) -> Option<f64> {
        if self.buffered.is_empty() && !self.exhausted {
            match self.stream.next() {
                Some(a) => self.buffered.push_back(a),
                None => self.exhausted = true,
            }
        }
        self.buffered.front().map(|a| a.at_ms)
    }

    /// Releases the next arrival if it has happened by `now_ms`, assigning
    /// the generation-order request id the materialized trace used to.
    fn release_through(&mut self, now_ms: f64) -> Option<(u64, Arrival)> {
        match self.peek_at_ms() {
            Some(at_ms) if at_ms <= now_ms => {
                let id = self.released as u64;
                self.released += 1;
                Some((id, self.buffered.pop_front().expect("peeked")))
            }
            _ => None,
        }
    }

    /// How many arrivals the trace generates strictly before `t_ms`,
    /// buffering whatever lookahead that takes. Monotone `t_ms` across
    /// calls (epoch ends only grow); released arrivals all lie before any
    /// epoch end being counted, because an epoch event fires only once
    /// every unit clock has passed it.
    fn count_generated_before(&mut self, t_ms: f64) -> usize {
        while !self.exhausted && self.buffered.back().is_none_or(|a| a.at_ms < t_ms) {
            match self.stream.next() {
                Some(a) => self.buffered.push_back(a),
                None => self.exhausted = true,
            }
        }
        // `buffered` is time-sorted (trace order), so the count before
        // `t_ms` is a partition point — no linear re-scan of the lookahead
        // buffer per epoch.
        self.released + self.buffered.partition_point(|a| a.at_ms < t_ms)
    }

    /// Arrivals released so far (= generated, once the run drains).
    fn released(&self) -> usize {
        self.released
    }
}

/// Request-level serving simulator over a cluster of EXION instances.
#[derive(Debug, Clone)]
pub struct ServeSimulator {
    config: ServeConfig,
    cost: CostModel,
    last_profile: Option<RunProfile>,
}

impl ServeSimulator {
    /// A simulator for `config`, with every EXION optimization active.
    /// Iteration costs and partition plans are priced lazily and cached
    /// across runs of the same simulator.
    pub fn new(config: ServeConfig) -> Self {
        let cost = CostModel::new(config.hw, SimAblation::All);
        Self {
            config,
            cost,
            last_profile: None,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Self-metering of the most recent [`Self::run`] /
    /// [`Self::run_traced`]: wall-clock beside the simulated time it
    /// bought (`None` before the first run). Kept out of the
    /// [`ServeReport`] because wall readings are non-deterministic.
    pub fn last_run_profile(&self) -> Option<&RunProfile> {
        self.last_profile.as_ref()
    }

    /// Installs a measured sparsity profile for `kind` (e.g. from
    /// `exion-bench::profiles` functional runs): all subsequent pricing —
    /// iteration costs, SLO scaling, capacity estimates — uses it instead
    /// of the analytic closed form. An invalid profile is rejected as
    /// [`SimError::InvalidProfile`] and changes nothing.
    pub fn set_sparsity_profile(
        &mut self,
        kind: ModelKind,
        profile: exion_sim::workload::SparsityProfile,
    ) -> Result<(), SimError> {
        self.cost.set_profile(kind, profile)
    }

    /// Builds the scheduling context for the traced `kinds` under
    /// `placement` (the static config's, or whatever the planner currently
    /// has deployed), reading every plan from the cost model's memo.
    fn sched_context(&mut self, kinds: &[ModelKind], placement: &Placement) -> SchedContext {
        let sharded = placement.gangs > 0 && placement.strategy != PartitionStrategy::Replicated;
        SchedContext::build(
            self.config.policy.clone(),
            self.config.max_batch,
            kinds,
            &mut self.cost,
            placement.interconnect,
            ModelConfig::for_kind,
            sharded.then_some(placement.strategy),
        )
    }

    /// Analytic saturation-throughput estimate (requests/s) for `mix`:
    /// per unit type of the placement (a replica is the one-member unit of
    /// the `Replicated` plan), the warm full-batch generation of one unit
    /// under the type's plan — collectives included, uncontended —
    /// weighted by the mix's traffic shares and summed across units.
    /// Arrival-rate sweeps anchor on this to place the saturation knee
    /// without hand-tuning per hardware instance.
    pub fn capacity_estimate_rps(&mut self, mix: &WorkloadMix) -> f64 {
        let batch = self.config.max_batch as u64;
        let placement = self.config.placement;
        let total_w: f64 = mix.entries.iter().map(|&(_, w, _)| w).sum();
        let mut capacity = 0.0;
        for (strategy, units) in placement.unit_types() {
            // Weighted harmonic mean per unit type: a fraction w_k of
            // requests each occupying 1/r_k of a unit-second gives
            // 1 / Σ (w_k / r_k) requests/s per unit.
            let mut spr = 0.0;
            for &(kind, w, _) in &mix.entries {
                let config = ModelConfig::for_kind(kind);
                let plan = self.cost.plan(&config, strategy, placement.interconnect);
                let gen_ms = self
                    .cost
                    .generation_cost(&config, &plan, batch, 1.0)
                    .latency_ms;
                spr += w / total_w / (batch as f64 / (gen_ms / 1000.0));
            }
            capacity += units as f64 / spr;
        }
        capacity
    }

    /// Runs the trace to completion and reports serving metrics.
    ///
    /// Every arrival the admission controller accepts is eventually
    /// admitted and completed; refused (shed) arrivals never enter the
    /// queue, so `completed + shed_requests == arrivals` once the cluster
    /// drains. Under the default [`AdmitAll`] controller saturation shows
    /// up as unbounded queueing delay rather than lost requests. SLOs
    /// scale the *replica* full-batch service time regardless of
    /// placement, so goodput is comparable across replicated and sharded
    /// deployments of the same trace.
    ///
    /// # Panics
    ///
    /// As [`Self::run_traced`]: on a trace that fails
    /// [`TraceConfig::validate`].
    pub fn run(&mut self, trace: &TraceConfig) -> ServeReport {
        self.run_traced(trace, &mut NullSink)
    }

    /// [`Self::run`] with telemetry emitted to `sink`: request-lifecycle
    /// spans, per-instance timeline slices, and planner markers (see
    /// [`exion_telemetry`]). The sink is a pure observer — it only ever
    /// receives copies of simulation facts — so the produced report (and
    /// every completion in it) is byte-identical to an untraced run; the
    /// telemetry tests pin that property. With the default [`NullSink`]
    /// every emission site reduces to one branch.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message, before any arrival is
    /// drawn or any placement is planned, when `trace` fails
    /// [`TraceConfig::validate`] (the check [`ArrivalStream::new`] makes).
    pub fn run_traced(&mut self, trace: &TraceConfig, sink: &mut dyn Sink) -> ServeReport {
        ClusterRun::new(self, trace, sink).run()
    }
}

/// One run of the cluster loop over the event calendar: each unit keeps
/// exactly one scheduled event (its next iteration boundary, or its idle
/// wake), the stats cadence, planner epochs and fault-plan events are
/// calendar entries of their own, and the loop pops in deterministic
/// (time, kind rank, unit index) order until no unit has an event left —
/// idle units cost nothing, and wall time scales with events executed
/// rather than horizon × units.
///
/// The run owns the fleet, the queue and every observer plane together,
/// so each [`EventKind`] has one handler and each lifecycle fact (a
/// request lost or requeued, a degraded window opened, a re-plan booked,
/// a unit put to sleep, …) is recorded by one method that feeds every
/// plane the fact touches: the sink, the [`AttributionBuilder`], the
/// series counters, the queue-depth tracker and the histograms. The
/// observers are pure: nothing in the loop reads them back, so a report
/// is byte-identical with the sink or attribution on or off.
struct ClusterRun<'a> {
    sim: &'a mut ServeSimulator,
    trace: &'a TraceConfig,
    sink: &'a mut dyn Sink,
    /// Whether `sink` records anything (false for [`NullSink`]).
    traced: bool,
    run_start: std::time::Instant,
    planner_watch: StopWatch,
    kinds: Vec<ModelKind>,
    /// Per-kind `(slo_ms, steps)` released requests are minted with.
    request_proto: FxHashMap<ModelKind, (f64, usize)>,
    releaser: ArrivalReleaser,

    /// The deployed placement (planner-chosen under auto-placement).
    placement: Placement,
    planner: Option<PlannerState>,
    units: Vec<Gang>,
    /// Birth instant of each live unit, parallel to `units`: utilization
    /// is taken over the window a unit actually existed, and a crashed
    /// slot's replacement is born at its recovery instant.
    units_birth: Vec<f64>,
    /// Retired units with their `(birth, death)` live windows.
    retired: Vec<(Gang, f64, f64)>,
    /// Next free instance id (monotone across migrations, so retired and
    /// new instances never collide).
    next_id: usize,
    queue: ReadyQueue,
    /// Per-model scheduling constants, rebuilt whenever the placement or
    /// the interconnect's health changes.
    ctx: SchedContext,
    calendar: EventCalendar,

    completions: Vec<Completion>,
    sheds: Vec<ShedRecord>,
    losts: Vec<LostRecord>,
    degraded_requests: usize,

    /// Streaming queue depth: stamps fold in as the calendar advances.
    depth: DepthTracker,
    /// Per-request latency attribution (when configured) with its
    /// per-unit clocks, parallel to `units`.
    attrib: Option<AttributionBuilder>,
    unit_attrib: Vec<UnitAttrib>,
    /// Latency and queue-delay histograms: report percentiles never sort
    /// the full sample.
    latency_hist: LogHistogram,
    queue_hist: LogHistogram,
    /// Counter/gauge time-series, sampled at epoch boundaries and every
    /// `stats_interval_ms`; the running totals below are what it records.
    series: SeriesRecorder,
    enqueued_total: u64,
    parks_total: u64,
    resumes_total: u64,
    drains_total: u64,
    /// In-flight batch rows across the fleet, tracked from admit /
    /// complete / drain deltas so snapshots never re-scan every unit.
    inflight_rows: i64,

    /// Indexed by [`EventKind::Fault`] entries (see [`RuntimeFault`]).
    fault_table: Vec<RuntimeFault>,
    /// Fault accounting, accumulated as faults fire and finished when
    /// the report is assembled.
    fault: FaultReport,
    /// Open interconnect degradations as `(fault-table index, slowdown)`,
    /// in opening order. The fabric is priced at their product, which is
    /// exactly 1.0 — the healthy fabric — when none is open.
    link_windows: Vec<(usize, f64)>,
    /// Crash-to-recovery and degrade-to-restore windows, for the
    /// attainment-under-failure split.
    degraded_windows: Vec<(f64, f64)>,
    /// Set when the whole fleet dies un-recoverably: queued work strands
    /// at this instant and converts to lost after the loop.
    stranded_at: Option<f64>,

    executed_iterations: u64,
    events_executed: u64,
    /// The cost model's `(hits, misses)` when the run started: the
    /// memo outlives runs, so the profile reports the difference.
    memo_at_start: (u64, u64),
    /// Arrivals generated before the current planner epoch started.
    epoch_cum_start: usize,
    /// Boundary-path scratch reused across every event, so a
    /// steady-state iteration boundary allocates nothing.
    boundary_outcome: AdmitOutcome,
    boundary_done: Vec<Completion>,
    deltas: IterationDeltas,
}

impl<'a> ClusterRun<'a> {
    /// Plans (under auto-placement) and deploys the initial fleet, and
    /// schedules the first unit boundaries, the stats cadence, the first
    /// planner epoch and every fault-plan event.
    fn new(sim: &'a mut ServeSimulator, trace: &'a TraceConfig, sink: &'a mut dyn Sink) -> Self {
        let run_start = std::time::Instant::now();
        let memo_at_start = sim.cost.memo_counts();
        // Opening the stream validates the trace, so a bad one fails here,
        // before any pricing or planning.
        let releaser = ArrivalReleaser::new(trace);
        let mut planner_watch = StopWatch::new();
        // Requests are minted at release time from per-kind constants: the
        // SLO scales the model's steady-state service time (a full
        // generation at the deployment's batch size), so it is attainable
        // under batching and degrades only through queueing.
        let max_batch = sim.config.max_batch as u64;
        let kinds = trace.mix.kinds();
        let request_proto = kinds
            .iter()
            .map(|&kind| {
                let config = ModelConfig::for_kind(kind);
                let slo_ms = trace.mix.slo_multiplier(kind)
                    * sim.cost.generation_latency_ms(&config, max_batch);
                (kind, (slo_ms, config.iterations))
            })
            .collect();
        // Auto-placement: the offline pass picks the initial placement for
        // the traced mix at the configured forecast; statically placed
        // clusters keep the config's placement.
        let (placement, planner) = match &sim.config.auto_placement {
            Some(ap) => {
                let mut state = PlannerState {
                    planner: ap.planner.clone(),
                    forecast_rps: ap.forecast_rps,
                    epoch_start_ms: 0.0,
                    report: PlannerReport {
                        initial_placement: String::new(),
                        final_placement: String::new(),
                        initial_forecast_rps: ap.forecast_rps,
                        replans: Vec::new(),
                        epochs: Vec::new(),
                    },
                };
                let chosen = state.plan(
                    &sim.config.hw,
                    &trace.mix,
                    &mut sim.cost,
                    &mut planner_watch,
                );
                state.report.initial_placement = chosen.summary();
                state.report.final_placement = chosen.summary();
                (chosen, Some(state))
            }
            None => (sim.config.placement, None),
        };
        let ctx = sim.sched_context(&kinds, &placement);
        let mut run = ClusterRun {
            traced: sink.enabled(),
            run_start,
            planner_watch,
            kinds,
            request_proto,
            releaser,
            placement,
            planner,
            units: Vec::new(),
            units_birth: Vec::new(),
            retired: Vec::new(),
            next_id: 0,
            queue: ReadyQueue::new(),
            ctx,
            calendar: EventCalendar::new(0),
            completions: Vec::new(),
            sheds: Vec::new(),
            losts: Vec::new(),
            degraded_requests: 0,
            depth: DepthTracker::default(),
            attrib: sim.config.attribution.then(AttributionBuilder::new),
            unit_attrib: Vec::new(),
            latency_hist: LogHistogram::default(),
            queue_hist: LogHistogram::default(),
            series: SeriesRecorder::new(),
            enqueued_total: 0,
            parks_total: 0,
            resumes_total: 0,
            drains_total: 0,
            inflight_rows: 0,
            fault_table: Vec::new(),
            fault: FaultReport::default(),
            link_windows: Vec::new(),
            degraded_windows: Vec::new(),
            stranded_at: None,
            executed_iterations: 0,
            events_executed: 0,
            memo_at_start,
            epoch_cum_start: 0,
            boundary_outcome: AdmitOutcome::default(),
            boundary_done: Vec::new(),
            deltas: IterationDeltas::default(),
            sim,
            trace,
            sink,
        };
        run.deploy(placement, 0.0);
        if let Some(interval) = run.sim.config.stats_interval_ms {
            run.calendar.schedule_stats(interval);
        }
        if let Some(state) = &run.planner {
            let first_epoch = state.planner.config.epoch_ms;
            if first_epoch <= trace.horizon_ms {
                run.calendar.schedule_epoch(first_epoch);
            }
        }
        for (index, spec) in run.sim.config.fault_plan.events.iter().enumerate() {
            run.fault_table.push(RuntimeFault::Inject(*spec));
            run.calendar.schedule_fault(spec.at_ms, index);
        }
        run
    }

    /// Pops and handles events until no unit has one left, then reports.
    fn run(mut self) -> ServeReport {
        while self.calendar.scheduled_units() > 0 {
            let Some(ev) = self.calendar.pop() else { break };
            self.events_executed += 1;
            // Fold queue-depth stamps that nothing can precede anymore:
            // future stamps land at or past this event's time (calendar
            // pops are time-ordered) or at a still-unreleased arrival.
            let next_arrival = self.releaser.peek_at_ms().unwrap_or(f64::INFINITY);
            self.depth.advance(ev.at_ms.min(next_arrival));
            match ev.kind {
                EventKind::StatsSample => self.on_stats_sample(ev.at_ms),
                EventKind::EpochBoundary => self.on_epoch_boundary(ev.at_ms),
                EventKind::Fault => self.on_fault(ev.unit, ev.at_ms),
                EventKind::UnitBoundary | EventKind::IdleWake => {
                    self.on_unit_event(ev.unit, ev.at_ms)
                }
            }
        }
        // A fleet that died un-recoverably strands whatever was queued:
        // those requests are lost, which keeps conservation over released
        // arrivals (`served + shed + lost == arrivals`) intact.
        if let Some(at_ms) = self.stranded_at {
            let stranded: Vec<u64> = self.queue.iter().map(|r| r.id).collect();
            for id in stranded {
                if let Some(r) = self.queue.remove_by_id(id, &self.ctx) {
                    self.depth.stamp(at_ms, -1);
                    self.lose(&r, at_ms);
                }
            }
        }
        self.finish()
    }

    /// Fixed-cadence counter/gauge snapshot (when configured). Pure
    /// observation — nothing feeds back into the run — so it ranks
    /// before same-instant epoch and unit events.
    fn on_stats_sample(&mut self, at_ms: f64) {
        self.snapshot_series(at_ms);
        let interval = self
            .sim
            .config
            .stats_interval_ms
            .expect("sampling only runs when configured");
        self.calendar.schedule_stats(at_ms + interval);
    }

    /// Planner epoch end (auto-placement only). The heap cannot surface
    /// this before every scheduled unit event lies at or past it, so it
    /// fires exactly when the cluster-wide minimum clock passes the
    /// boundary — record realized-vs-forecast load and snapshot the
    /// series; past the hysteresis threshold, adopt the realized load and
    /// re-plan.
    fn on_epoch_boundary(&mut self, epoch_end: f64) {
        let now = self.calendar.min_unit_time_ms();
        let cum = self.releaser.count_generated_before(epoch_end);
        let count = cum - self.epoch_cum_start;
        self.epoch_cum_start = cum;
        self.snapshot_series(epoch_end);
        let state = self
            .planner
            .as_mut()
            .expect("epoch events are scheduled only under auto-placement");
        let epoch_ms = state.planner.config.epoch_ms;
        let realized = count as f64 / (epoch_ms / 1000.0);
        let error = (realized - state.forecast_rps).abs() / state.forecast_rps.max(1e-9);
        state.report.epochs.push(EpochStat {
            start_ms: state.epoch_start_ms,
            forecast_rps: state.forecast_rps,
            realized_rps: realized,
            error,
        });
        state.epoch_start_ms = epoch_end;
        // The chain self-schedules while it stays inside the arrival
        // horizon.
        let next_end = epoch_end + epoch_ms;
        if next_end <= self.trace.horizon_ms {
            self.calendar.schedule_epoch(next_end);
        }
        // Hysteresis: small errors keep the placement and the forecast;
        // an empty epoch carries no load signal.
        if error <= state.planner.config.hysteresis || realized <= 0.0 {
            return;
        }
        state.forecast_rps = realized;
        self.replan(now, false);
    }

    /// An injected fault or one of its paired follow-ups (recovery, link
    /// restore); `index` points into the runtime fault table.
    fn on_fault(&mut self, index: usize, at_ms: f64) {
        match self.fault_table[index] {
            RuntimeFault::Inject(spec) => match spec.kind {
                FaultKind::UnitCrash { unit, repair_ms }
                | FaultKind::MemberLoss {
                    unit, repair_ms, ..
                } => self.kill_unit(spec.kind, unit, repair_ms, at_ms),
                FaultKind::LinkDegrade {
                    slowdown,
                    duration_ms,
                } => {
                    self.link_windows.push((index, slowdown));
                    self.open_degraded_window(at_ms, at_ms + duration_ms);
                    self.rebuild_ctx();
                    self.fault.faults_injected += 1;
                    self.fault.records.push(FaultRecord {
                        at_ms,
                        kind: spec.kind.label().to_string(),
                        unit: usize::MAX,
                        lost: 0,
                        requeued: 0,
                    });
                    self.instant(at_ms, "fault", || {
                        format!("link degrade x{slowdown} for {duration_ms} ms")
                    });
                    self.fault_table
                        .push(RuntimeFault::LinkRestore { opened: index });
                    let restore = self.fault_table.len() - 1;
                    self.calendar.schedule_fault(at_ms + duration_ms, restore);
                }
            },
            RuntimeFault::Recover {
                crashed_at,
                instances,
            } => {
                self.fault.recoveries += 1;
                // Summed here; `finish` divides it into the mean.
                self.fault.mean_time_to_recover_ms += at_ms - crashed_at;
                self.instant(at_ms, "recover", || {
                    format!("capacity restored after {:.1} ms", at_ms - crashed_at)
                });
                if instances > 0 {
                    // The repaired capacity rejoins the planner's budget,
                    // and a re-plan may grow the fleet back, booked as
                    // cold-GSC refill on the new units.
                    let state = self
                        .planner
                        .as_mut()
                        .expect("only auto-placement restores budget");
                    state.planner.config.budget += instances;
                    if self.replan(at_ms, false) {
                        self.fault.replans_triggered += 1;
                    }
                }
            }
            RuntimeFault::LinkRestore { opened } => {
                let pos = self
                    .link_windows
                    .iter()
                    .position(|&(i, _)| i == opened)
                    .expect("a restore closes an open window");
                let (_, slowdown) = self.link_windows.remove(pos);
                self.rebuild_ctx();
                self.instant(at_ms, "recover", || format!("link restored (/{slowdown})"));
            }
        }
    }

    /// A unit crash or gang-member loss on unit slot `unit` (modulo the
    /// live fleet). The unit retires at the fault — its in-flight
    /// iteration never completes — and its capacity rejoins after
    /// `repair_ms`: under auto-placement the planner re-places the
    /// surviving fleet around the hole; under static placement the slot
    /// sleeps through the repair and a fresh unit of the same shape swaps
    /// in at the wake.
    fn kill_unit(&mut self, kind: FaultKind, unit: usize, repair_ms: f64, at_ms: f64) {
        if self.units.is_empty() {
            self.fault.faults_noop += 1;
            return;
        }
        let u = unit % self.units.len();
        if !self.calendar.is_unit_scheduled(u) {
            // The slot retired (trace exhausted, nothing queued): there
            // is nothing left to kill.
            self.fault.faults_noop += 1;
            return;
        }
        match kind {
            FaultKind::MemberLoss { member, .. } => self.units[u].mark_member_dead(member),
            _ => self.units[u].mark_all_dead(),
        }
        let (requeued, lost) = self.teardown(u, at_ms);
        self.fault.checkpointed_recoveries += requeued;
        self.fault.faults_injected += 1;
        self.fault.records.push(FaultRecord {
            at_ms,
            kind: kind.label().to_string(),
            unit: u,
            lost,
            requeued,
        });
        self.instant(at_ms, "fault", || {
            format!(
                "{} unit {u} ({lost} lost, {requeued} requeued, repair {repair_ms} ms)",
                kind.label()
            )
        });
        let death = self.units[u].now_ms().max(at_ms);
        let recover_at = (at_ms + repair_ms).max(death);
        self.open_degraded_window(at_ms, recover_at);
        let instances = match self.planner.as_mut() {
            Some(state) => {
                // The dead unit's capacity leaves the planner's budget.
                let instances = self.units[u].members.len();
                let reduced = state.planner.config.budget.saturating_sub(instances);
                if reduced == 0 {
                    // The dead unit *was* the fleet: nothing to re-place
                    // onto. Retire it; the queue strands and converts to
                    // lost after the loop.
                    let old = self.units.remove(u);
                    self.retired.push((old, self.units_birth.remove(u), death));
                    if !self.unit_attrib.is_empty() {
                        self.unit_attrib.remove(u);
                    }
                    self.calendar.unschedule_unit(u);
                    self.stranded_at = Some(death);
                    return;
                }
                state.planner.config.budget = reduced;
                // Forced: the fleet must be rebuilt regardless, to clear
                // the dead unit out of it.
                self.replan(at_ms, true);
                self.fault.replans_triggered += 1;
                instances
            }
            None => {
                // The replacement's cold GSC books the recovery as refill
                // bytes naturally.
                let fresh = self.new_unit(self.units[u].strategy());
                let old = std::mem::replace(&mut self.units[u], fresh);
                self.retired.push((old, self.units_birth[u], death));
                self.units_birth[u] = recover_at;
                self.units[u].jump_to(recover_at);
                if let Some(a) = self.unit_attrib.get_mut(u) {
                    *a = UnitAttrib::new(&self.units[u]);
                }
                self.calendar
                    .reschedule_unit(u, recover_at, EventKind::IdleWake);
                if self.traced {
                    declare_unit_tracks(std::slice::from_ref(&self.units[u]), self.sink);
                }
                0
            }
        };
        self.fault_table.push(RuntimeFault::Recover {
            crashed_at: at_ms,
            instances,
        });
        let recover = self.fault_table.len() - 1;
        self.calendar.schedule_fault(recover_at, recover);
    }

    /// Applies a fault's destruction semantics to unit `u`, already
    /// marked dead: drains its batch (checkpointed requests requeue with
    /// their steps rolled back, the rest are lost) and resolves every
    /// queued request whose parked latent lives on this unit — survivors
    /// of a member loss write the latent back to DRAM (priced on the
    /// holding member), while a latent on a dead member is gone and its
    /// request restarts from a DRAM checkpoint or is lost. Returns
    /// `(requeued, lost)` counts.
    fn teardown(&mut self, u: usize, at_ms: f64) -> (usize, usize) {
        let out = self.units[u].drain_for_migration(&mut self.queue, &self.ctx, at_ms);
        self.inflight_rows -= (out.requeued.len() + out.lost.len()) as i64;
        for &(id, t) in &out.requeued {
            self.requeue(u, id, t, AttributionBuilder::fault_requeue);
        }
        for r in &out.lost {
            self.lose(r, at_ms);
        }
        let (mut requeued, mut lost) = (out.requeued.len(), out.lost.len());
        let unit = &self.units[u];
        let dead_ids = unit.dead_member_ids();
        let homed: Vec<(u64, usize)> = self
            .queue
            .iter()
            .filter_map(|r| {
                r.parked_on
                    .filter(|p| unit.members.iter().any(|m| m.id == *p))
                    .map(|p| (r.id, p))
            })
            .collect();
        for (id, home) in homed {
            if !dead_ids.contains(&home) {
                self.units[u].discard_member_latent(home, id, &self.ctx);
                self.queue.clear_parked_hint(id);
                continue;
            }
            let mut r = self
                .queue
                .remove_by_id(id, &self.ctx)
                .expect("listed from the queue above");
            match r.checkpointed_steps {
                Some(step) => {
                    r.steps_done = step;
                    r.parked_on = None;
                    r.ready_ms = r.ready_ms.max(at_ms);
                    requeued += 1;
                    let (coll, refill) = self.unit_stalls(u);
                    if let Some(ab) = self.attrib.as_mut() {
                        ab.fault_requeue(r.id, at_ms, coll, refill);
                    }
                    self.queue.push(r, &self.ctx);
                }
                None => {
                    lost += 1;
                    self.depth.stamp(at_ms, -1);
                    self.lose(&r, at_ms);
                }
            }
        }
        (requeued, lost)
    }

    /// A unit's iteration boundary or idle wake: both were scheduled at
    /// the unit's (jumped) clock, so the clock and the event agree on
    /// "now". Releases the arrivals the clock has passed, then admits
    /// and executes one iteration — or puts the unit to sleep.
    fn on_unit_event(&mut self, i: usize, at_ms: f64) {
        let now = self.units[i].now_ms();
        debug_assert_eq!(
            now.to_bits(),
            at_ms.to_bits(),
            "unit clock drifted from its scheduled event"
        );
        // Attribution's batch-join "door floor": a request admitted at
        // this event could not have joined before the unit's previous
        // boundary — queue wait up to that door, batch-join wait from it.
        let door_floor = match self.unit_attrib.get_mut(i) {
            Some(a) => std::mem::replace(&mut a.prev_boundary_ms, now),
            None => now,
        };
        self.release_arrivals(now);
        if self.units[i].is_idle() && self.queue.is_empty() {
            match self.releaser.peek_at_ms() {
                Some(wake) => self.sleep(i, wake),
                // Trace exhausted and nothing queued: the unit retires
                // with no further event, and the run ends when the last
                // one does.
                None => self.units[i].jump_to(f64::INFINITY),
            }
            return;
        }
        self.admit(i, door_floor);
        if self.units[i].is_idle() {
            // A sparsity gate cannot block an idle unit, so nothing in the
            // queue is admissible yet: every queued request is a parked
            // one whose ready time lies ahead of this clock (fresh
            // requests are always admissible). Sleep until the earliest
            // wake-up — a parked request becoming ready, or the next
            // arrival; the queue is non-empty, so the target is finite.
            debug_assert!(self.queue.fresh_buckets().all(|(_, b)| b.is_empty()));
            let next_arrival = self.releaser.peek_at_ms().unwrap_or(f64::INFINITY);
            let wake = self.queue.min_deferred_ready_ms().min(next_arrival);
            self.sleep(i, wake);
            return;
        }
        self.execute_iteration(i);
    }

    /// Releases arrivals up to `now`, consulting the admission controller
    /// once per arrival. The decision fires at the *release* instant (the
    /// iteration boundary whose clock passed the arrival) — up to one
    /// iteration after arrival — so the view carries that clock and
    /// feasibility sees the slack that actually remains, not the full SLO.
    fn release_arrivals(&mut self, now: f64) {
        while let Some((id, a)) = self.releaser.release_through(now) {
            let &(slo_ms, steps) = self
                .request_proto
                .get(&a.model)
                .expect("every traced model kind is precomputed");
            let mut r = Request::new(id, a.model, a.at_ms, slo_ms, steps);
            let decided_at = now.max(r.arrival_ms);
            let view =
                AdmissionView::new(decided_at, self.queue.as_slice(), &self.units, &self.ctx)
                    .with_index(self.queue.backlog());
            let decision = self.sim.config.admission.decide(&r, &view);
            let model = r.model.name();
            self.span(r.arrival_ms, id, model, RequestEvent::Arrival);
            let admitted = match decision {
                AdmissionDecision::Accept => RequestEvent::Admitted,
                AdmissionDecision::Degrade { steps } => {
                    r.degrade_to(steps);
                    if r.degraded {
                        self.degraded_requests += 1;
                        RequestEvent::Degraded {
                            steps: r.total_steps as u32,
                        }
                    } else {
                        RequestEvent::Admitted
                    }
                }
                AdmissionDecision::Shed => {
                    // Priced refusal: recorded (and counted against SLO
                    // attainment), but the request never queues.
                    self.sheds.push(ShedRecord {
                        id,
                        model: r.model,
                        at_ms: decided_at,
                    });
                    if let Some(ab) = self.attrib.as_mut() {
                        ab.shed(id, r.model, r.arrival_ms, r.slo_ms, decided_at);
                    }
                    self.span(decided_at, id, model, RequestEvent::Shed);
                    continue;
                }
            };
            self.span(decided_at, id, model, admitted);
            if let Some(ab) = self.attrib.as_mut() {
                ab.admit(id, r.model, r.arrival_ms, r.slo_ms, decided_at);
            }
            self.depth.stamp(r.arrival_ms, 1);
            self.enqueued_total += 1;
            self.span(decided_at, id, model, RequestEvent::Enqueued);
            self.queue.push(r, &self.ctx);
        }
    }

    /// Iteration boundary: unit `i` admits from the queue (possibly
    /// preempting), and the parks, resumes and joins feed every plane.
    fn admit(&mut self, i: usize, door_floor: f64) {
        self.units[i].admit_into(&mut self.queue, &self.ctx, &mut self.boundary_outcome);
        let outcome = &self.boundary_outcome;
        self.parks_total += outcome.parked.len() as u64;
        self.resumes_total += outcome.resumed.len() as u64;
        self.inflight_rows += outcome.inflight_delta();
        if self.traced {
            let inst = self.units[i].leader().id as u32;
            for &(id, at_ms) in &outcome.parked {
                // The park pushed the request back into the queue; read
                // its model (and the member actually holding the latent)
                // from there.
                let (model, holder) = self.queue.get(id).map_or(("unknown", inst), |r| {
                    (r.model.name(), r.parked_on.map_or(inst, |p| p as u32))
                });
                self.sink.span(SpanRecord {
                    at_ms,
                    request: id,
                    model,
                    event: RequestEvent::Parked { instance: holder },
                });
            }
            let model = self.units[i]
                .leader()
                .active_model
                .map_or("unknown", |m| m.name());
            for &(id, at_ms) in &outcome.admitted {
                let resumed = outcome.resumed.iter().any(|&(rid, _)| rid == id);
                let event = if resumed {
                    RequestEvent::Resumed { instance: inst }
                } else {
                    RequestEvent::BatchJoin { instance: inst }
                };
                self.sink.span(SpanRecord {
                    at_ms,
                    request: id,
                    model,
                    event,
                });
            }
        }
        for &(_, at_ms) in &outcome.parked {
            self.depth.stamp(at_ms, 1);
        }
        for &(_, at_ms) in &outcome.admitted {
            self.depth.stamp(at_ms, -1);
        }
        if let Some(ab) = self.attrib.as_mut() {
            let ua = &self.unit_attrib[i];
            for &(id, at_ms) in &outcome.parked {
                ab.park(id, at_ms, ua.coll_ms, ua.refill_ms);
            }
            for &(id, at_ms) in &outcome.admitted {
                ab.join(id, at_ms, door_floor, ua.coll_ms, ua.refill_ms);
            }
        }
        // A request parked on one unit may resume on another; release any
        // latent copy the parking unit still holds (billing the migration
        // write-back there) so it neither depresses that unit's weight
        // residency nor is later mispriced as a dirty spill. Only resumes
        // can hold a foreign latent — a fresh admit never parked anywhere
        // — so the cross-unit sweep skips the fleet-dominant fresh case.
        if !outcome.resumed.is_empty() {
            for (j, other) in self.units.iter_mut().enumerate() {
                if j == i {
                    continue;
                }
                let before = other.now_ms();
                for &(id, _) in &outcome.resumed {
                    other.discard_latent(id, &self.ctx);
                }
                // Discarding a latent bills the write-back transfer to the
                // unit that held it, advancing its clock; its calendar
                // entry must follow or it fires in the past.
                let after = other.now_ms();
                if after > before && self.calendar.is_unit_scheduled(j) {
                    self.calendar
                        .reschedule_unit(j, after, EventKind::UnitBoundary);
                }
            }
        }
        // Parks can evict other parked latents; their queued requests'
        // resume-affinity hints are now stale (the latent is in DRAM, no
        // instance is preferable) and must not keep deferring them.
        for id in self.units[i].take_evicted_latents() {
            self.queue.clear_parked_hint(id);
        }
    }

    /// Executes one iteration of unit `i`'s batch and books it: timeline
    /// slices, spans and counters, the attribution clocks, completions and
    /// histograms, then the opt-in checkpoint and the unit's next boundary.
    fn execute_iteration(&mut self, i: usize) {
        let observed = self.traced || self.attrib.is_some();
        let unit = &mut self.units[i];
        let iter_start = unit.now_ms();
        let batch = unit.leader().running.len() as u32;
        if observed {
            self.deltas.begin(unit);
        }
        self.boundary_done.clear();
        unit.execute_iteration_into(&mut self.sim.cost, &self.ctx, &mut self.boundary_done);
        self.executed_iterations += 1;
        if observed {
            self.deltas.end(unit);
        }
        if self.traced {
            self.emit_iteration(i, iter_start, batch);
        }
        if let Some(ab) = self.attrib.as_mut() {
            // Fold the executed iteration into the unit's stall clocks,
            // then close the finishers' in-batch segments against the
            // updated cumulatives.
            let dur = (self.units[i].now_ms() - iter_start).max(0.0);
            let ua = &mut self.unit_attrib[i];
            ua.after_iteration(&self.deltas, &self.ctx, dur);
            for c in &self.boundary_done {
                ab.complete(
                    c.id,
                    c.finished_ms,
                    ua.coll_ms,
                    ua.refill_ms,
                    !c.within_slo(),
                );
            }
        }
        for c in &self.boundary_done {
            self.latency_hist.record(c.latency_ms());
            self.queue_hist.record(c.queue_ms());
        }
        self.inflight_rows -= self.boundary_done.len() as i64;
        self.completions.append(&mut self.boundary_done);
        // Weight refills can evict parked latents too.
        for id in self.units[i].take_evicted_latents() {
            self.queue.clear_parked_hint(id);
        }
        // Opt-in periodic checkpoint: each running request at a multiple
        // of the policy period parks a DRAM copy of its latent — a priced
        // spill transfer on this unit's clock — so a later fault requeues
        // it from the checkpoint instead of losing it.
        if let Some(policy) = self.sim.config.checkpoint {
            let (spills, bytes) = self.units[i].checkpoint_running(&self.ctx, policy.every_steps);
            self.fault.checkpoint_spills += spills;
            self.fault.checkpoint_bytes += bytes;
        }
        // The executed iteration advanced this unit's clock; its next
        // boundary is its next event.
        let next = self.units[i].now_ms();
        self.calendar
            .schedule_unit(i, next, EventKind::UnitBoundary);
    }

    /// Emits the telemetry of unit `i`'s just-executed iteration: busy,
    /// refill and collective slices per member, one `Iteration` span per
    /// running request and one `Completed` per finisher, and the queue
    /// depth, in-flight and GSC counter tracks at the iteration end.
    fn emit_iteration(&mut self, i: usize, iter_start: f64, batch: u32) {
        let unit = &self.units[i];
        let iter_end = unit.now_ms();
        let dur_ms = iter_end - iter_start;
        let coll_ms = self.deltas.coll_ms.min(dur_ms);
        let label = unit.leader().active_model.map_or("iteration", |m| m.name());
        for (m, &refill_bytes) in unit.members.iter().zip(&self.deltas.refill_bytes) {
            let instance = m.id as u32;
            if dur_ms > 0.0 {
                self.sink.slice(TimelineSlice {
                    instance,
                    kind: SliceKind::Busy,
                    start_ms: iter_start,
                    dur_ms,
                    label,
                    batch,
                });
            }
            // Weight-refill traffic this iteration, priced at DRAM
            // bandwidth and drawn nested at the head of the slice.
            if refill_bytes > 0 {
                let refill_ms = self.ctx.transfer_ms(refill_bytes).min(dur_ms);
                if refill_ms > 0.0 {
                    self.sink.slice(TimelineSlice {
                        instance,
                        kind: SliceKind::Refill,
                        start_ms: iter_start,
                        dur_ms: refill_ms,
                        label: "weight refill",
                        batch,
                    });
                }
            }
            // Collective time is charged at the tail of the iteration
            // (activations sync before the boundary).
            if coll_ms > 0.0 {
                self.sink.slice(TimelineSlice {
                    instance,
                    kind: SliceKind::Collective,
                    start_ms: iter_end - coll_ms,
                    dur_ms: coll_ms,
                    label: "collective",
                    batch,
                });
            }
        }
        let inst = unit.leader().id as u32;
        for r in &unit.leader().running {
            self.sink.span(SpanRecord {
                at_ms: iter_end,
                request: r.id,
                model: r.model.name(),
                event: RequestEvent::Iteration {
                    instance: inst,
                    step: r.steps_done as u32,
                },
            });
        }
        for c in &self.boundary_done {
            self.sink.span(SpanRecord {
                at_ms: c.finished_ms,
                request: c.id,
                model: c.model.name(),
                event: RequestEvent::Completed {
                    instance: c.instance as u32,
                },
            });
        }
        // Counter tracks beside the slices: cluster queue depth, this
        // unit's in-flight rows, and its GSC occupancy at the iteration
        // end — the "why did that busy slice stall" context in the export.
        for (instance, name, value) in [
            (
                CounterSample::CLUSTER,
                "queue depth",
                self.queue.len() as f64,
            ),
            (inst, "inflight rows", unit.leader().running.len() as f64),
            (inst, "gsc bytes", unit.resident_bytes() as f64),
        ] {
            self.sink.counter(CounterSample {
                instance,
                at_ms: iter_end,
                name,
                value,
            });
        }
    }

    /// Re-scores the planner at its current forecast and budget. When
    /// the chosen placement differs from the deployed one — or `force`d:
    /// a fault must clear a dead unit out regardless — migrates the
    /// fleet to it at `at_ms` and books the priced [`ReplanEvent`].
    /// Returns whether a migration ran.
    fn replan(&mut self, at_ms: f64, force: bool) -> bool {
        let state = self
            .planner
            .as_ref()
            .expect("re-plans run only under auto-placement");
        let chosen = state.plan(
            &self.sim.config.hw,
            &self.trace.mix,
            &mut self.sim.cost,
            &mut self.planner_watch,
        );
        if !force && chosen == self.placement {
            return false;
        }
        let replan = self.migrate(chosen, at_ms);
        let state = self.planner.as_mut().expect("still auto-placed");
        state.report.replans.push(replan);
        state.report.final_placement = self.placement.summary();
        true
    }

    /// Executes a priced fleet migration to `new_placement`: drains every
    /// unit (in-flight requests park to DRAM and requeue with their steps
    /// intact; requests on a dead member are lost unless checkpointed),
    /// clears stale resume-affinity hints, retires the old fleet, and
    /// deploys the replacement at the hand-off instant.
    fn migrate(&mut self, new_placement: Placement, t_floor: f64) -> ReplanEvent {
        // The new units take over once the slowest *draining* unit
        // finishes — idle units' clocks are excluded from that hand-off
        // point, because an idle clock may be an artificial jump (to the
        // next arrival, or to infinity on a locally-drained tail) rather
        // than real work, and maxing it in would stall — or with an
        // infinite jump, strand — the drained requests. Dead units' clocks
        // are excluded too: their in-flight iteration never completed.
        let mut drained = 0usize;
        let mut t_start = t_floor;
        for u in 0..self.units.len() {
            let unit = &mut self.units[u];
            let was_busy = !unit.is_idle() && !unit.any_dead();
            let drain_from = unit.now_ms();
            let out = unit.drain_for_migration(&mut self.queue, &self.ctx, t_floor);
            if was_busy {
                t_start = t_start.max(unit.now_ms());
            }
            let drain_ms = unit.now_ms() - drain_from;
            if self.traced && drain_ms > 0.0 {
                for m in &unit.members {
                    self.sink.slice(TimelineSlice {
                        instance: m.id as u32,
                        kind: SliceKind::Drain,
                        start_ms: drain_from,
                        dur_ms: drain_ms,
                        label: "drain",
                        batch: out.requeued.len() as u32,
                    });
                }
            }
            drained += out.requeued.len();
            self.inflight_rows -= (out.requeued.len() + out.lost.len()) as i64;
            for &(id, at_ms) in &out.requeued {
                self.requeue(u, id, at_ms, AttributionBuilder::drain_to_migration);
            }
            // In-flight requests on a dead member with no DRAM checkpoint
            // die with it.
            for r in &out.lost {
                self.lose(r, t_floor);
            }
        }
        // Queued requests parked on a retiring member: the latent is
        // written back to DRAM (priced on the holder) and the stale
        // affinity hint cleared — no instance of the new placement holds
        // it.
        let mut parked_homes: Vec<(u64, usize)> = Vec::new();
        self.queue.take_parked_homes(&mut parked_homes);
        for &(id, home) in &parked_homes {
            for unit in self.units.iter_mut() {
                // A dead member's latent cannot be written back — skipping
                // it keeps a fault teardown from billing a transfer off
                // hardware that no longer exists (the request itself was
                // already resolved by the teardown).
                if unit.any_dead() && unit.dead_member_ids().contains(&home) {
                    continue;
                }
                unit.discard_member_latent(home, id, &self.ctx);
            }
        }
        // What the teardown walks away from: GSC-resident state the new
        // placement must re-stream as refill bytes.
        let migration_bytes: u64 = self.units.iter().map(Gang::resident_bytes).sum();
        debug_assert!(t_start.is_finite(), "migration hand-off must be finite");
        let (from, to) = (self.placement.summary(), new_placement.summary());
        self.instant(t_start, "replan", || {
            format!("{from} -> {to} ({drained} drained, {migration_bytes} bytes)")
        });
        for (unit, birth) in self.units.drain(..).zip(self.units_birth.drain(..)) {
            // A dead unit died at the fault instant, not the hand-off.
            let death = if unit.any_dead() {
                unit.now_ms().max(t_floor).min(t_start)
            } else {
                t_start
            };
            self.retired.push((unit, birth, death));
        }
        self.deploy(new_placement, t_start);
        // The partition strategy may have changed: rebuild the scheduling
        // constants before the new fleet's first boundary fires.
        self.rebuild_ctx();
        ReplanEvent {
            at_ms: t_start,
            from,
            to,
            migration_bytes,
            drained_requests: drained,
        }
    }

    /// Builds `placement`'s units born at `at_ms`, gives each an
    /// attribution clock and a timeline track, and schedules their first
    /// boundaries (invalidating any retired fleet's calendar entries).
    fn deploy(&mut self, placement: Placement, at_ms: f64) {
        self.placement = placement;
        let strategies = std::iter::repeat_n(PartitionStrategy::Replicated, placement.replicas)
            .chain(std::iter::repeat_n(placement.strategy, placement.gangs));
        self.units = strategies.map(|s| self.new_unit(s)).collect();
        self.units_birth = vec![at_ms; self.units.len()];
        for unit in &mut self.units {
            unit.jump_to(at_ms);
        }
        if self.attrib.is_some() {
            self.unit_attrib = self.units.iter().map(UnitAttrib::new).collect();
        }
        if self.traced {
            declare_unit_tracks(&self.units, self.sink);
        }
        self.calendar.reset_units(self.units.len());
        for u in 0..self.units.len() {
            self.calendar
                .schedule_unit(u, at_ms, EventKind::UnitBoundary);
        }
    }

    /// A fresh unit of `strategy` — a whole-model replica under
    /// [`PartitionStrategy::Replicated`] — over the next free instance
    /// ids.
    fn new_unit(&mut self, strategy: PartitionStrategy) -> Gang {
        let config = &self.sim.config;
        let unit = Gang::sharded(self.next_id, &config.hw, config.eviction, strategy);
        self.next_id += strategy.degree();
        unit
    }

    /// Rebuilds the scheduling constants for the deployed placement over
    /// the interconnect as the open link windows currently degrade it.
    fn rebuild_ctx(&mut self) {
        let slowdown: f64 = self.link_windows.iter().map(|&(_, s)| s).product();
        let placement = degraded_placement(&self.placement, slowdown);
        self.ctx = self.sim.sched_context(&self.kinds, &placement);
    }

    /// Unit `u`'s cumulative `(collective, refill)` stall milliseconds,
    /// as its attribution clock has them (zero with attribution off).
    fn unit_stalls(&self, u: usize) -> (f64, f64) {
        self.unit_attrib
            .get(u)
            .map_or((0.0, 0.0), |a| (a.coll_ms, a.refill_ms))
    }

    /// A request drained off unit `u` re-entered the queue at `at_ms`:
    /// counted as a drain, stamped into the depth, its open attribution
    /// segment closed by `book` (a migration drain or a fault requeue),
    /// and a `Migrated` span emitted.
    fn requeue(
        &mut self,
        u: usize,
        id: u64,
        at_ms: f64,
        book: fn(&mut AttributionBuilder, u64, f64, f64, f64),
    ) {
        self.drains_total += 1;
        self.depth.stamp(at_ms, 1);
        let (coll, refill) = self.unit_stalls(u);
        if let Some(ab) = self.attrib.as_mut() {
            book(ab, id, at_ms, coll, refill);
        }
        if self.traced {
            let model = self.queue.get(id).map_or("unknown", |r| r.model.name());
            self.span(at_ms, id, model, RequestEvent::Migrated);
        }
    }

    /// A fault destroyed `r` at `at_ms` — the third terminal outcome,
    /// beside completion and shedding. The caller has already taken `r`
    /// out of its batch or the queue (and stamped the depth for a queued
    /// one).
    fn lose(&mut self, r: &Request, at_ms: f64) {
        self.losts.push(LostRecord {
            id: r.id,
            model: r.model,
            at_ms,
            steps_lost: r.steps_done,
        });
        if let Some(ab) = self.attrib.as_mut() {
            ab.lost(r.id, at_ms);
        }
        self.span(at_ms, r.id, r.model.name(), RequestEvent::Lost);
    }

    /// A window of degraded service (crash to recovery, or degrade to
    /// restore) opened at `start_ms`: it splits attainment in the fault
    /// report, and queue time inside it books to the degraded-window
    /// phase.
    fn open_degraded_window(&mut self, start_ms: f64, end_ms: f64) {
        self.degraded_windows.push((start_ms, end_ms));
        if let Some(ab) = self.attrib.as_mut() {
            ab.push_degraded_window(start_ms, end_ms);
        }
    }

    /// Snapshots the running counters and gauges into the report
    /// time-series.
    fn snapshot_series(&mut self, at_ms: f64) {
        debug_assert_eq!(
            self.inflight_rows,
            self.units
                .iter()
                .map(|u| u.leader().running.len() as i64)
                .sum::<i64>(),
            "incremental in-flight gauge drifted from the fleet"
        );
        self.series.snapshot(
            at_ms,
            [
                self.releaser.released() as u64,
                self.enqueued_total,
                self.sheds.len() as u64,
                self.degraded_requests as u64,
                self.completions.len() as u64,
                self.parks_total,
                self.resumes_total,
                self.drains_total,
                self.losts.len() as u64,
            ],
            [self.queue.len() as f64, self.inflight_rows as f64, at_ms],
        );
    }

    /// Puts idle unit `i` to sleep until `wake`: it holds no calendar
    /// entry before then, and its members' timelines show the gap as one
    /// idle slice each instead of a silent hole.
    fn sleep(&mut self, i: usize, wake: f64) {
        let unit = &mut self.units[i];
        let start_ms = unit.now_ms();
        if self.traced && wake > start_ms {
            for m in &unit.members {
                self.sink.slice(TimelineSlice {
                    instance: m.id as u32,
                    kind: SliceKind::Idle,
                    start_ms,
                    dur_ms: wake - start_ms,
                    label: "idle",
                    batch: 0,
                });
            }
        }
        unit.jump_to(wake);
        self.calendar.schedule_unit(i, wake, EventKind::IdleWake);
    }

    /// Emits one request-lifecycle span.
    fn span(&mut self, at_ms: f64, request: u64, model: &'static str, event: RequestEvent) {
        if self.traced {
            self.sink.span(SpanRecord {
                at_ms,
                request,
                model,
                event,
            });
        }
    }

    /// Drops one point-in-time marker; `detail` is only formatted when
    /// traced.
    fn instant(&mut self, at_ms: f64, name: &'static str, detail: impl FnOnce() -> String) {
        if self.traced {
            self.sink.instant(InstantMarker {
                at_ms,
                name,
                detail: detail(),
            });
        }
    }

    /// Records the run profile and assembles the report: retired units
    /// join the final ones, each over its own live window (birth to
    /// death; the final units live to the makespan).
    fn finish(mut self) -> ServeReport {
        self.completions.sort_by_key(|c| c.id);
        let mut units = self.retired;
        units.extend(
            self.units
                .into_iter()
                .zip(self.units_birth)
                .map(|(u, birth)| (u, birth, f64::INFINITY)),
        );
        let completions = self.completions;
        let makespan_ms = completions
            .iter()
            .map(|c| c.finished_ms)
            .fold(0.0, f64::max);
        let (mut gsc_requests, mut gsc_evictions) = (0, 0);
        for member in units.iter().flat_map(|(u, ..)| &u.members) {
            let (requests, evictions) = member.gsc_work();
            gsc_requests += requests;
            gsc_evictions += evictions;
        }
        let sim = self.sim;
        let (hits, misses) = sim.cost.memo_counts();
        sim.last_profile = Some(RunProfile {
            wall_ms: self.run_start.elapsed().as_secs_f64() * 1e3,
            planner_wall_ms: self.planner_watch.wall_ms(),
            planner_calls: self.planner_watch.laps(),
            iterations: self.executed_iterations,
            events_executed: self.events_executed,
            peak_calendar_events: self.calendar.peak_len(),
            makespan_ms,
            completed: completions.len(),
            gsc_requests,
            gsc_evictions,
            cost_memo_hits: hits - self.memo_at_start.0,
            cost_memo_misses: misses - self.memo_at_start.1,
        });
        let (mean_queue_depth, peak_queue_depth) = self.depth.finish(makespan_ms);
        let (sheds, losts) = (self.sheds, self.losts);
        let config = &sim.config;
        // Fault report: assembled only when something could have differed
        // from a fault-free run (a non-empty plan, or an active checkpoint
        // policy whose spills should be visible).
        let fault = (!config.fault_plan.is_empty() || config.checkpoint.is_some()).then(|| {
            // Attainment under failure: SLO attainment over the requests
            // that arrived inside a degraded window, plus every lost
            // request — a direct fault casualty regardless of when it
            // arrived.
            let windows = &self.degraded_windows;
            let in_window = |t: f64| windows.iter().any(|&(a, b)| t >= a && t < b);
            let mut win_answered = 0usize;
            let mut win_within = 0usize;
            for c in completions.iter().filter(|c| in_window(c.arrival_ms)) {
                win_answered += 1;
                if c.within_slo() {
                    win_within += 1;
                }
            }
            win_answered += sheds.iter().filter(|s| in_window(s.at_ms)).count();
            win_answered += losts.len();
            let mut fault = self.fault;
            fault.lost_requests = losts.len();
            if fault.recoveries > 0 {
                fault.mean_time_to_recover_ms /= fault.recoveries as f64;
            }
            if win_answered > 0 {
                fault.attainment_under_failure = win_within as f64 / win_answered as f64;
            }
            fault
        });
        let makespan_s = (makespan_ms / 1000.0).max(1e-9);
        let within_slo = completions.iter().filter(|c| c.within_slo()).count();
        // Percentiles come from the streaming histograms the run loop fed —
        // no full-sample sort; error is bounded by one log-bucket width.
        debug_assert_eq!(self.latency_hist.count(), completions.len() as u64);
        // Utilization is busy time over each unit's *live* window (birth to
        // retirement, or the makespan for the final units) — a migrated
        // cluster's retired and replacement units each existed for only
        // part of the run.
        let live_ms = |birth: f64, death: f64| (death.min(makespan_ms) - birth).max(0.0);
        let per_gang: Vec<_> = units
            .iter()
            .map(|(u, birth, death)| u.stats(live_ms(*birth, *death)))
            .collect();
        let per_instance: Vec<_> = units
            .iter()
            .flat_map(|(u, birth, death)| u.member_stats(live_ms(*birth, *death)))
            .collect();
        let energy_mj: f64 = per_instance.iter().map(|s| s.energy_mj).sum();
        // Iterations, batch occupancy, and executed rows are gang-level
        // quantities (a gang iteration occupies every member once), so the
        // leader-recorded per-instance counters sum correctly.
        let total_iters: u64 = per_instance.iter().map(|s| s.iterations).sum();
        let sparse_iters: f64 = per_instance
            .iter()
            .map(|s| s.sparse_iteration_frac * s.iterations as f64)
            .sum();
        let batch_rows: f64 = per_instance
            .iter()
            .map(|s| s.mean_batch * s.iterations as f64)
            .sum();
        let hit_bytes: u64 = per_instance.iter().map(|s| s.weight_hit_bytes).sum();
        let refill_bytes: u64 = per_instance.iter().map(|s| s.weight_refill_bytes).sum();
        let arrivals = self.releaser.released();
        let trace = self.trace;
        // Priced refusals and fault losses: a shed or lost request is a
        // definite SLO miss — both join the attainment denominator even
        // though neither consumed further machine time.
        let answered = completions.len() + sheds.len() + losts.len();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        ServeReport {
            hw_name: config.hw.name.to_string(),
            policy: config.policy.name().to_string(),
            admission: config.admission.name().to_string(),
            pattern: trace.pattern.name().to_string(),
            instances: self.placement.total_instances(),
            arrivals,
            completed: completions.len(),
            shed_requests: sheds.len(),
            lost_requests: losts.len(),
            degraded_requests: self.degraded_requests,
            offered_rps: arrivals as f64 / (trace.horizon_ms / 1000.0).max(1e-9),
            throughput_rps: completions.len() as f64 / makespan_s,
            goodput_rps: within_slo as f64 / makespan_s,
            slo_attainment: ratio(within_slo as f64, answered as f64),
            horizon_ms: trace.horizon_ms,
            makespan_ms,
            latency: LatencyStats::from_histogram(&self.latency_hist),
            queue_delay: LatencyStats::from_histogram(&self.queue_hist),
            energy_mj,
            joules_per_request: ratio(energy_mj / 1000.0, completions.len() as f64),
            mean_utilization: ratio(
                per_instance.iter().map(|s| s.utilization).sum::<f64>(),
                per_instance.len() as f64,
            ),
            mean_batch_occupancy: ratio(batch_rows, total_iters as f64),
            sparse_iteration_frac: ratio(sparse_iters, total_iters as f64),
            mean_queue_depth,
            peak_queue_depth,
            preemptions: per_instance.iter().map(|s| s.preemptions).sum(),
            latent_spills: per_instance.iter().map(|s| s.latent_spills).sum(),
            weight_refill_bytes: refill_bytes,
            residency_hit_rate: if hit_bytes + refill_bytes > 0 {
                hit_bytes as f64 / (hit_bytes + refill_bytes) as f64
            } else {
                1.0
            },
            gangs: self.placement.gangs,
            collective_ms: per_gang.iter().map(|g| g.collective_ms).sum(),
            collective_bytes: per_gang.iter().map(|g| g.collective_bytes).sum(),
            planner: self.planner.map(|s| s.report),
            fault,
            attribution: self.attrib.map(AttributionBuilder::finish),
            series: self.series.into_series(),
            per_gang,
            per_instance,
            completions,
            sheds,
            losts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;

    #[test]
    fn set_sparsity_profile_rejects_invalid_profiles() {
        let mut sim = ServeSimulator::new(ServeConfig::new(HwConfig::exion4()));
        let model = ModelConfig::for_kind(ModelKind::Mld);
        let valid = CostModel::analytic_profile(&model);
        let bad = exion_sim::workload::SparsityProfile {
            ffn_block_frac: -3.0,
            attn_block_frac: 7.5,
            ..valid
        };
        assert_eq!(
            sim.set_sparsity_profile(ModelKind::Mld, bad),
            Err(SimError::InvalidProfile {
                field: "ffn_block_frac"
            })
        );
        assert_eq!(sim.set_sparsity_profile(ModelKind::Mld, valid), Ok(()));
    }

    #[test]
    fn try_build_accepts_valid_placements() {
        let hw = HwConfig::exion4();
        for placement in [
            Placement::replicated(3),
            Placement::sharded(2, PartitionStrategy::Tensor { ways: 2 }),
            Placement::mixed(1, 1, PartitionStrategy::Pipeline { stages: 4 }),
        ] {
            let config = ServeConfig::builder(hw)
                .placement(placement)
                .try_build()
                .expect("valid placement");
            assert_eq!(config.placement, placement);
        }
        let planned = ServeConfig::builder(hw)
            .auto_placement(PlacementPlanner::new(PlannerConfig::new(2)), 3.0)
            .max_batch(4)
            .try_build()
            .expect("valid planner");
        // The planner prices candidates at the deployment's batch bound.
        let ap = planned.auto_placement.expect("installed");
        assert_eq!(ap.planner.config.max_batch, 4);
    }

    #[test]
    fn try_build_rejects_bad_placements_descriptively() {
        let hw = HwConfig::exion4();
        // Zero units (only constructible by hand — the Placement
        // constructors all refuse it).
        let empty = Placement {
            replicas: 0,
            gangs: 0,
            strategy: PartitionStrategy::Replicated,
            interconnect: exion_sim::partition::Interconnect::default(),
        };
        assert!(matches!(
            ServeConfig::builder(hw).placement(empty).try_build(),
            Err(ConfigError::EmptyPlacement)
        ));
        // Gangs whose world size is 1: the gang-vs-partition world-size
        // match that used to surface as a degenerate gang deep in the run.
        let degenerate = ServeConfig::builder(hw)
            .placement(Placement::sharded(1, PartitionStrategy::Replicated))
            .try_build();
        assert!(matches!(
            degenerate,
            Err(ConfigError::DegenerateGangStrategy { .. })
        ));
        // A 200-way gang exceeds instance indexing.
        let oversized = ServeConfig::builder(hw)
            .placement(Placement::sharded(
                1,
                PartitionStrategy::Tensor { ways: 200 },
            ))
            .try_build();
        assert!(matches!(oversized, Err(ConfigError::OversizedGang { .. })));
        // A link that cannot move bytes, or any NaN or infinite link
        // field, on every placement (replicas included) and on the
        // planner's fabric. NaN fails every comparison, so it must not
        // slip past as "not non-positive".
        let link = |edit: fn(&mut Interconnect)| {
            let mut link = Interconnect::default();
            edit(&mut link);
            link
        };
        let tp2 = Placement::sharded(1, PartitionStrategy::Tensor { ways: 2 });
        let mut nan_planner = PlannerConfig::new(2);
        nan_planner.interconnect = link(|l| l.link_gbps = f64::NAN);
        for (field, placement) in [
            (
                "link_gbps",
                tp2.with_interconnect(link(|l| l.link_gbps = 0.0)),
            ),
            (
                "link_gbps",
                tp2.with_interconnect(link(|l| l.link_gbps = f64::NAN)),
            ),
            (
                "latency_us",
                Placement::replicated(2).with_interconnect(link(|l| l.latency_us = f64::NAN)),
            ),
            (
                "pj_per_bit",
                tp2.with_interconnect(link(|l| l.pj_per_bit = f64::INFINITY)),
            ),
        ] {
            let built = ServeConfig::builder(hw).placement(placement).try_build();
            assert!(
                matches!(built, Err(ConfigError::InvalidInterconnect { field: f, .. }) if f == field),
                "bad {field} accepted: {built:?}"
            );
        }
        let nan_planned = ServeConfig::builder(hw)
            .auto_placement(PlacementPlanner::new(nan_planner), 100.0)
            .try_build();
        assert!(matches!(
            nan_planned,
            Err(ConfigError::InvalidInterconnect {
                field: "link_gbps",
                ..
            })
        ));
        // Planner with an unusable forecast.
        let bad_forecast = ServeConfig::builder(hw)
            .auto_placement(PlacementPlanner::new(PlannerConfig::new(2)), 0.0)
            .try_build();
        assert!(matches!(
            bad_forecast,
            Err(ConfigError::InvalidPlanner { .. })
        ));
        // Every error renders a descriptive message.
        for err in [
            ConfigError::EmptyPlacement,
            ConfigError::DegenerateGangStrategy {
                strategy: "replicated".to_string(),
            },
            ConfigError::OversizedGang {
                degree: 200,
                max: MAX_GANG_DEGREE,
            },
            ConfigError::InvalidInterconnect {
                field: "link_gbps",
                value: 0.0,
            },
            ConfigError::InvalidPlanner {
                reason: "x".to_string(),
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "invalid serving trace: trace horizon_ms is NaN")]
    fn run_panics_on_a_nan_horizon_before_drawing_arrivals() {
        let mut sim = ServeSimulator::new(ServeConfig::new(HwConfig::exion4()));
        let _ = sim.run(&TraceConfig {
            pattern: crate::trace::TrafficPattern::Poisson { rate_rps: 10.0 },
            horizon_ms: f64::NAN,
            seed: 1,
            mix: WorkloadMix::text_to_motion(),
        });
    }

    #[test]
    #[should_panic(expected = "invalid serving configuration")]
    fn build_panics_early_with_the_descriptive_error() {
        let _ = ServeConfig::builder(HwConfig::exion4())
            .placement(Placement::sharded(
                1,
                PartitionStrategy::Tensor { ways: 200 },
            ))
            .build();
    }
}
