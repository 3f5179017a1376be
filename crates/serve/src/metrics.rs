//! Serving metrics: tail latency, goodput, utilization, energy per request.

use exion_telemetry::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::request::{Completion, LostRecord, ShedRecord};

/// Nearest-rank percentile of an ascending-sorted slice (`q ∈ [0, 1]`) —
/// the exact reference the streaming-histogram error-bound tests compare
/// against.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distribution summary of a latency-like sample, read off a streaming
/// log-bucketed [`LogHistogram`] — O(1) memory however many samples were
/// recorded.
///
/// Percentiles are nearest-rank estimates within one histogram bucket
/// (≤ [`LogHistogram::growth`] relative, about 4.1% at the default
/// resolution) of the exact sorted-sample value; `mean`, `max`, and
/// `count` are exact. When `count == 0` every field is 0.0 — check
/// [`Self::is_empty`] to tell an empty sample from a real all-zero one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median (ms).
    pub p50: f64,
    /// 95th percentile (ms).
    pub p95: f64,
    /// 99th percentile (ms).
    pub p99: f64,
    /// Mean (ms, exact).
    pub mean: f64,
    /// Maximum (ms, exact).
    pub max: f64,
    /// Samples recorded — 0 marks an empty distribution whose zeros carry
    /// no information.
    pub count: u64,
}

impl LatencyStats {
    /// The empty distribution (all zeros, `count == 0`).
    pub const EMPTY: Self = Self {
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        mean: 0.0,
        max: 0.0,
        count: 0,
    };

    /// Reads the summary off a streaming histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        if h.is_empty() {
            return Self::EMPTY;
        }
        Self {
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            mean: h.mean(),
            max: h.max(),
            count: h.count(),
        }
    }

    /// Streams `samples` through a default-resolution histogram and reads
    /// the summary off it — the one-shot path for derived views (e.g.
    /// per-class latency).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut h = LogHistogram::default();
        for s in samples {
            h.record(s);
        }
        Self::from_histogram(&h)
    }

    /// Whether the distribution recorded no samples (its zeros are
    /// placeholders, not measurements).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One named value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name: one of [`SERIES_COUNTERS`] or [`SERIES_GAUGES`].
    pub name: String,
    /// Value at the snapshot instant (counters as `f64`).
    pub value: f64,
}

/// The cluster's counters and gauges captured at one stats or epoch
/// instant — the rows of [`ServeReport::series`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Simulated time of the snapshot (ms).
    pub at_ms: f64,
    /// Every [`SERIES_COUNTERS`] running total, then every
    /// [`SERIES_GAUGES`] level, in those constants' order.
    pub values: Vec<MetricSample>,
}

/// Counter names in snapshot order.
pub const SERIES_COUNTERS: [&str; 9] = [
    "arrivals_released",
    "enqueued",
    "shed",
    "degraded",
    "completed",
    "preemption_parks",
    "resumes",
    "migration_drains",
    "lost",
];

/// Gauge names in snapshot order.
pub const SERIES_GAUGES: [&str; 3] = ["queue_depth", "inflight_rows", "clock_ms"];

/// The snapshots taken at calendar stats/epoch events. Counters arrive as
/// the cluster's running totals and gauges as current levels, so the hot
/// loop never touches the recorder.
#[derive(Debug, Clone, Default)]
pub struct SeriesRecorder {
    series: Vec<MetricsSnapshot>,
}

impl SeriesRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes one snapshot at `at_ms`: `counters` are running totals in
    /// [`SERIES_COUNTERS`] order, `gauges` current levels in
    /// [`SERIES_GAUGES`] order.
    pub fn snapshot(&mut self, at_ms: f64, counters: [u64; 9], gauges: [f64; 3]) {
        let counters = counters.map(|total| total as f64);
        if let Some(prev) = self.series.last() {
            for (sample, total) in prev.values.iter().zip(counters) {
                debug_assert!(
                    total >= sample.value,
                    "counter {} went backward",
                    sample.name
                );
            }
        }
        let names = SERIES_COUNTERS.into_iter().chain(SERIES_GAUGES);
        let values = counters.into_iter().chain(gauges);
        self.series.push(MetricsSnapshot {
            at_ms,
            values: names
                .zip(values)
                .map(|(name, value)| MetricSample {
                    name: name.to_string(),
                    value,
                })
                .collect(),
        });
    }

    /// The recorded time-series, consumed into a report.
    pub fn into_series(self) -> Vec<MetricsSnapshot> {
        self.series
    }
}

/// Per-instance accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Busy fraction of the instance's live window (the whole makespan for
    /// statically placed clusters; birth-to-retirement for units a
    /// migration created or tore down).
    pub utilization: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Fraction of iterations run in the FFN-Reuse sparse phase.
    pub sparse_iteration_frac: f64,
    /// Mean batch occupancy over executed iterations (rows/iteration).
    pub mean_batch: f64,
    /// Exact request-iterations executed (rows summed over iterations) —
    /// conservation accounting: equals the summed step demand of every
    /// request this instance completed work for.
    pub rows_executed: u64,
    /// Energy consumed (mJ).
    pub energy_mj: f64,
    /// Requests parked at iteration boundaries (preemptions performed).
    pub preemptions: u64,
    /// Parked latents written back to DRAM (no GSC room, or evicted).
    pub latent_spills: u64,
    /// Iterations that streamed any weight bytes from DRAM (partial or
    /// full refills — the residency-aware replacement for "cold switches").
    pub weight_refill_iterations: u64,
    /// Weight bytes served from the GSC.
    pub weight_hit_bytes: u64,
    /// Weight bytes streamed from DRAM.
    pub weight_refill_bytes: u64,
    /// GSC residency hit-rate over weight traffic (1.0 = fully resident).
    pub residency_hit_rate: f64,
}

/// Per-gang accounting: one row per scheduling unit (replica or sharded
/// gang).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GangStats {
    /// Partition strategy label (`replicated`, `tp2`, `pp2`, …).
    pub strategy: String,
    /// Member instances in the unit.
    pub members: usize,
    /// Gang-level iterations executed (each occupies every member).
    pub iterations: u64,
    /// Busy fraction of the unit's live window (lockstep across members).
    pub utilization: f64,
    /// Wall-clock spent in interconnect collectives (ms).
    pub collective_ms: f64,
    /// Per-member interconnect bytes moved by collectives.
    pub collective_bytes: u64,
}

/// One epoch of the online re-planner's forecast tracking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStat {
    /// Epoch start (ms of simulated time).
    pub start_ms: f64,
    /// The offered load the planner was operating on entering the epoch
    /// (requests/s).
    pub forecast_rps: f64,
    /// The offered load actually observed over the epoch (requests/s).
    pub realized_rps: f64,
    /// Relative forecast error: `|realized − forecast| / max(forecast, ε)`
    /// — the quantity the hysteresis threshold gates re-planning on.
    pub error: f64,
}

/// One executed re-plan: the placement switch and its priced migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanEvent {
    /// When the migration fired (ms of simulated time).
    pub at_ms: f64,
    /// Placement summary before the switch.
    pub from: String,
    /// Placement summary after the switch.
    pub to: String,
    /// GSC-resident bytes the old placement held at teardown — the weight
    /// (and stale latent) state the new placement must re-stream from
    /// DRAM as refill bytes.
    pub migration_bytes: u64,
    /// In-flight requests drained back into the queue (their latents were
    /// written to DRAM at a priced spill; they resume on the new units
    /// with their DDIM step counts intact).
    pub drained_requests: usize,
}

/// Planner accounting carried by a [`ServeReport`] when the cluster ran
/// under auto-placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerReport {
    /// The initial placement the offline pass chose.
    pub initial_placement: String,
    /// The placement serving when the trace drained.
    pub final_placement: String,
    /// The forecast the initial plan was built against (requests/s).
    pub initial_forecast_rps: f64,
    /// Executed re-plans (placement actually changed), in time order.
    pub replans: Vec<ReplanEvent>,
    /// Per-epoch forecast tracking, in time order.
    pub epochs: Vec<EpochStat>,
}

impl PlannerReport {
    /// Executed re-plans.
    pub fn replan_count(&self) -> usize {
        self.replans.len()
    }

    /// Total GSC-resident bytes torn down across every migration.
    pub fn migration_bytes(&self) -> u64 {
        self.replans.iter().map(|r| r.migration_bytes).sum()
    }

    /// Mean relative forecast error across epochs (0.0 when no epoch
    /// completed).
    pub fn mean_forecast_error(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.epochs.iter().map(|e| e.error).sum::<f64>() / self.epochs.len() as f64
        }
    }
}

/// One injected fault and what it destroyed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// When the fault fired (ms).
    pub at_ms: f64,
    /// Fault-kind label (`unit-crash`, `member-loss`, `link-degrade`).
    pub kind: String,
    /// The unit slot it hit (`usize::MAX` for fleet-wide link faults).
    pub unit: usize,
    /// Requests destroyed by this fault.
    pub lost: usize,
    /// Requests requeued (checkpoint recoveries plus priced write-backs
    /// off surviving members).
    pub requeued: usize,
}

/// Fault-injection accounting carried by a [`ServeReport`] when the run
/// had a non-empty [`crate::fault::FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Fault-plan events that actually fired and hit live hardware.
    pub faults_injected: usize,
    /// Fault-plan events that fired against nothing (target unit already
    /// retired or the fleet already drained) — no-ops, not failures.
    pub faults_noop: usize,
    /// Requests destroyed across every fault.
    pub lost_requests: usize,
    /// Running requests that survived a crash through a DRAM checkpoint.
    pub checkpointed_recoveries: usize,
    /// Latent checkpoints taken by the periodic checkpoint policy.
    pub checkpoint_spills: usize,
    /// Bytes those checkpoints moved to DRAM (each a priced transfer).
    pub checkpoint_bytes: u64,
    /// Out-of-cadence re-plans faults triggered (auto-placement runs).
    pub replans_triggered: usize,
    /// Crashed units that rejoined within the horizon.
    pub recoveries: usize,
    /// Mean crash-to-rejoin time over completed recoveries (ms).
    pub mean_time_to_recover_ms: f64,
    /// SLO attainment over requests that *arrived inside a degraded
    /// window* (a crash-to-recover or degrade-to-restore interval) —
    /// the report-level answer to "what did the faults cost the users
    /// who hit them". 0.0 when no request arrived in such a window.
    pub attainment_under_failure: f64,
    /// Per-fault records, in fire order.
    pub records: Vec<FaultRecord>,
}

/// The full report of one serving simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Hardware instance name (e.g. `EXION4`).
    pub hw_name: String,
    /// Scheduler policy name.
    pub policy: String,
    /// Admission-controller name.
    pub admission: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Hardware instance count of the (final) placement. After a
    /// migration, `per_instance` additionally carries the retired units'
    /// rows, so its length can exceed this.
    pub instances: usize,
    /// Requests that arrived within the horizon.
    pub arrivals: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Arrivals refused (shed) by admission control: `completed +
    /// shed_requests + lost_requests == arrivals` once the cluster drains.
    pub shed_requests: usize,
    /// Requests destroyed by injected faults (their latents lived on dead
    /// hardware with no DRAM checkpoint to resume from). Counted as SLO
    /// misses; 0 without a fault plan.
    pub lost_requests: usize,
    /// Completions admission degraded to a reduced DDIM step budget.
    pub degraded_requests: usize,
    /// Offered load (requests/s over the horizon).
    pub offered_rps: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Within-SLO completions per second of makespan.
    pub goodput_rps: f64,
    /// Fraction of completed requests that met their SLO.
    pub slo_attainment: f64,
    /// Trace horizon (ms).
    pub horizon_ms: f64,
    /// Time until the last completion (ms).
    pub makespan_ms: f64,
    /// End-to-end latency distribution (ms).
    pub latency: LatencyStats,
    /// Queueing-delay distribution (ms).
    pub queue_delay: LatencyStats,
    /// Total energy over all instances (mJ).
    pub energy_mj: f64,
    /// Energy per completed request (J).
    pub joules_per_request: f64,
    /// Mean busy fraction across instances.
    pub mean_utilization: f64,
    /// Mean batch occupancy across executed iterations.
    pub mean_batch_occupancy: f64,
    /// Fraction of executed iterations in the sparse phase.
    pub sparse_iteration_frac: f64,
    /// Time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Peak queue depth.
    pub peak_queue_depth: usize,
    /// Total preemptions (requests parked at iteration boundaries).
    pub preemptions: u64,
    /// Total parked latents spilled to DRAM.
    pub latent_spills: u64,
    /// Total weight bytes streamed from DRAM (refills).
    pub weight_refill_bytes: u64,
    /// Cluster-wide GSC residency hit-rate over weight traffic.
    pub residency_hit_rate: f64,
    /// Sharded gangs in the placement (0 = replica-only cluster).
    pub gangs: usize,
    /// Total wall-clock spent in gang collectives (ms, summed over gangs).
    pub collective_ms: f64,
    /// Total per-member interconnect bytes moved by gang collectives.
    pub collective_bytes: u64,
    /// Planner accounting: chosen placement, re-plans, migration bytes,
    /// and per-epoch forecast error (`None` for statically placed runs).
    pub planner: Option<PlannerReport>,
    /// Fault-injection accounting (`None` when the fault plan was empty).
    pub fault: Option<FaultReport>,
    /// Latency attribution: per-request conserved phase breakdowns,
    /// per-class phase histograms, bottleneck attribution, and the SLO
    /// miss-forensics digest (`None` when disabled via
    /// `ServeConfigBuilder::attribution(false)`).
    pub attribution: Option<crate::attribution::AttributionReport>,
    /// Counter/gauge time-series: the cluster's running totals and levels
    /// snapshotted at planner epoch boundaries (and at the configured
    /// `stats_interval_ms`, when set), in time order. Empty for static
    /// runs without a sampling interval.
    pub series: Vec<MetricsSnapshot>,
    /// Per-unit accounting (replicas and gangs alike; retired pre-migration
    /// units included, in retirement-then-active order).
    pub per_gang: Vec<GangStats>,
    /// Per-instance accounting (gang members flattened in unit order).
    pub per_instance: Vec<InstanceStats>,
    /// Every completion record (tests and downstream analysis).
    pub completions: Vec<Completion>,
    /// Every shed record (per-class refusal accounting).
    pub sheds: Vec<ShedRecord>,
    /// Every lost-request record (per-class fault accounting).
    pub losts: Vec<LostRecord>,
}

impl ServeReport {
    /// End-to-end latency distribution of one tenant class (all zeros when
    /// the class completed nothing) — the per-tenant tail view preemption
    /// experiments compare.
    pub fn class_latency(&self, kind: exion_model::config::ModelKind) -> LatencyStats {
        LatencyStats::from_samples(
            self.completions
                .iter()
                .filter(|c| c.model == kind)
                .map(|c| c.latency_ms()),
        )
    }

    /// Fraction of arrivals refused at enqueue (0.0 without admission
    /// control).
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed_requests as f64 / self.arrivals as f64
        }
    }

    /// Shed rate of one tenant class: refusals of `kind` over that class's
    /// arrivals (completions + sheds + losts; 0.0 when the class saw no
    /// traffic).
    pub fn class_shed_rate(&self, kind: exion_model::config::ModelKind) -> f64 {
        let shed = self.sheds.iter().filter(|s| s.model == kind).count();
        let served = self.completions.iter().filter(|c| c.model == kind).count();
        let lost = self.losts.iter().filter(|l| l.model == kind).count();
        if shed + served + lost == 0 {
            0.0
        } else {
            shed as f64 / (shed + served + lost) as f64
        }
    }

    /// Fraction of arrivals destroyed by faults (0.0 without a fault
    /// plan).
    pub fn lost_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.lost_requests as f64 / self.arrivals as f64
        }
    }

    /// Lost rate of one tenant class: fault losses of `kind` over that
    /// class's answered arrivals (completions + sheds + losts; 0.0 when
    /// the class saw no traffic).
    pub fn class_lost_rate(&self, kind: exion_model::config::ModelKind) -> f64 {
        let lost = self.losts.iter().filter(|l| l.model == kind).count();
        let shed = self.sheds.iter().filter(|s| s.model == kind).count();
        let served = self.completions.iter().filter(|c| c.model == kind).count();
        if shed + served + lost == 0 {
            0.0
        } else {
            lost as f64 / (shed + served + lost) as f64
        }
    }

    /// One-line summary for sweeps.
    pub fn summary_line(&self) -> String {
        format!(
            "{:>8.1} rps | p50 {:>9.2} ms | p99 {:>10.2} ms | goodput {:>7.1} rps | \
             util {:>5.1}% | batch {:>4.2} | {:>7.3} J/req",
            self.offered_rps,
            self.latency.p50,
            self.latency.p99,
            self.goodput_rps,
            100.0 * self.mean_utilization,
            self.mean_batch_occupancy,
            self.joules_per_request,
        )
    }
}

/// Online queue-depth integrator: the incremental replacement for
/// buffering every `(time, ±1)` stamp of a run and sorting at the end
/// ([`queue_depth_stats`]).
///
/// Stamps may arrive out of time order (an arrival's `+1` is stamped at
/// its *arrival* instant, which can precede park/admit stamps already
/// recorded at later boundary clocks), so folding is gated by a
/// *watermark*: the caller advances it to a time no future stamp can
/// precede (the minimum of the current event time and the next
/// unreleased arrival), and everything strictly before it is folded into
/// the running area/peak in exactly the `(time, delta)` order the batch
/// sort used. The pending heap therefore stays bounded by the in-flight
/// stamp count (≈ queue depth) instead of growing with total arrivals.
#[derive(Debug, Clone, Default)]
pub(crate) struct DepthTracker {
    /// Un-folded stamps as a min-heap on `(time bits, delta rank)` —
    /// times are non-negative finite, so the bit pattern orders like the
    /// float, and rank 0 (`-1`) sorts before rank 1 (`+1`) at equal
    /// times, matching the batch sort's tie-break.
    pending: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u8)>>,
    stamps: u64,
    depth: i64,
    peak: i64,
    area: f64,
    prev_ms: f64,
}

impl DepthTracker {
    /// Records a `±1` depth change at `t_ms`.
    pub(crate) fn stamp(&mut self, t_ms: f64, delta: i64) {
        debug_assert!(
            t_ms >= 0.0 && t_ms.is_finite(),
            "depth stamps are in-run times"
        );
        let rank = if delta < 0 { 0 } else { 1 };
        self.pending.push(std::cmp::Reverse((t_ms.to_bits(), rank)));
        self.stamps += 1;
    }

    /// Folds every pending stamp strictly before `watermark_ms`. The
    /// caller guarantees no later [`Self::stamp`] precedes the watermark.
    pub(crate) fn advance(&mut self, watermark_ms: f64) {
        while let Some(&std::cmp::Reverse((bits, rank))) = self.pending.peek() {
            let t = f64::from_bits(bits);
            if t >= watermark_ms {
                break;
            }
            self.pending.pop();
            self.fold(t, rank);
        }
    }

    fn fold(&mut self, t: f64, rank: u8) {
        self.area += self.depth as f64 * (t - self.prev_ms);
        self.prev_ms = t;
        self.depth += if rank == 0 { -1 } else { 1 };
        self.peak = self.peak.max(self.depth);
    }

    /// Drains the remaining stamps and closes the integral over
    /// `[0, end_ms]`, returning `(time-weighted mean depth, peak depth)`
    /// exactly as [`queue_depth_stats`] would have.
    pub(crate) fn finish(mut self, end_ms: f64) -> (f64, usize) {
        if self.stamps == 0 || end_ms <= 0.0 {
            return (0.0, 0);
        }
        while let Some(std::cmp::Reverse((bits, rank))) = self.pending.pop() {
            let t = f64::from_bits(bits).min(end_ms);
            self.fold(t, rank);
        }
        self.area += self.depth as f64 * (end_ms - self.prev_ms).max(0.0);
        (self.area / end_ms, self.peak.max(0) as usize)
    }
}

/// Integrates a `(time, +1/-1)` event stream into time-weighted mean and
/// peak depth over `[0, end_ms]` — the batch reference [`DepthTracker`]
/// is differentially tested against (the run loop itself now integrates
/// online).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn queue_depth_stats(events: &mut [(f64, i64)], end_ms: f64) -> (f64, usize) {
    if events.is_empty() || end_ms <= 0.0 {
        return (0.0, 0);
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth = 0i64;
    let mut peak = 0i64;
    let mut area = 0.0;
    let mut prev = 0.0;
    for &(t, delta) in events.iter() {
        let t = t.min(end_ms);
        area += depth as f64 * (t - prev);
        prev = t;
        depth += delta;
        peak = peak.max(depth);
    }
    area += depth as f64 * (end_ms - prev).max(0.0);
    (area / end_ms, peak.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn stats_of_constant_sample() {
        // Percentile estimates clamp to the observed [min, max], so a
        // constant sample stays exact even through the histogram.
        let s = LatencyStats::from_samples(vec![7.0; 32]);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.count, 32);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_sample_is_distinguishable_from_zero_latencies() {
        let empty = LatencyStats::from_samples(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty, LatencyStats::EMPTY);
        // A real all-zero sample reports the same percentiles but a
        // non-zero count.
        let zeros = LatencyStats::from_samples(vec![0.0; 5]);
        assert!(!zeros.is_empty());
        assert_eq!(zeros.count, 5);
        assert_eq!(zeros.p99, 0.0);
        assert_ne!(zeros, empty);
    }

    #[test]
    fn histogram_percentiles_track_exact_sorted_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(|i| (i * i) as f64 / 37.0).collect();
        let s = LatencyStats::from_samples(samples.iter().copied());
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        let growth = exion_telemetry::LogHistogram::default().growth();
        for (est, q) in [(s.p50, 0.50), (s.p95, 0.95), (s.p99, 0.99)] {
            let exact = percentile(&sorted, q);
            assert!(
                est / exact <= growth && exact / est <= growth,
                "p{q}: {est} vs {exact}"
            );
        }
        assert_eq!(s.max, *sorted.last().unwrap());
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn queue_depth_integration() {
        // Depth 1 over [0,4), 2 over [4,6), 0 after 8 → area 4+4+2 = 10 over 10.
        let mut events = vec![(0.0, 1), (4.0, 1), (6.0, -1), (8.0, -1)];
        let (mean, peak) = queue_depth_stats(&mut events, 10.0);
        assert!((mean - 1.0).abs() < 1e-12, "{mean}");
        assert_eq!(peak, 2);
    }

    #[test]
    fn depth_tracker_matches_the_batch_integrator() {
        // Stamps arrive out of time order (the +1 at t=1.0 lands after the
        // later boundary stamps, like a released arrival's back-dated
        // stamp), interleaved with watermark advances that never outrun a
        // future stamp. The online result must equal the batch sort's
        // bit for bit.
        let stream: [(f64, i64); 7] = [
            (0.0, 1),
            (4.0, 1),
            (4.0, -1),
            (1.0, 1),
            (6.0, -1),
            (7.5, 1),
            (9.0, -1),
        ];
        let mut tracker = DepthTracker::default();
        for (i, &(t, d)) in stream.iter().enumerate() {
            tracker.stamp(t, d);
            if i == 3 {
                // Everything stamped so far lies strictly before 5.0.
                tracker.advance(5.0);
            }
        }
        let online = tracker.finish(10.0);
        let mut events = stream.to_vec();
        let batch = queue_depth_stats(&mut events, 10.0);
        assert_eq!(online.0.to_bits(), batch.0.to_bits());
        assert_eq!(online.1, batch.1);

        assert_eq!(DepthTracker::default().finish(10.0), (0.0, 0));
    }
}
