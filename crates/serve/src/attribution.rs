//! Latency attribution: where every millisecond of a request's end-to-end
//! latency went, and why the ones that missed their SLO missed it.
//!
//! Every released request accumulates a [`PhaseBreakdown`] — a conserved
//! decomposition of its end-to-end latency into ten phases (admission
//! delay, queue wait, batch-join wait, compute, collective, refill stall,
//! parked/preempted, migration, fault stall, degraded window). *Conserved*
//! means the phases sum to the request's end-to-end latency by
//! construction: the cluster loop feeds the [`AttributionBuilder`] one
//! contiguous segment per lifecycle transition, and the terminal close
//! folds float residue back into the dominant phase, so the property test
//! can assert `Σ phases == end − arrival` for every served, shed, lost,
//! and degraded request.
//!
//! Attribution is a **pure observer**: it only ever reads simulation facts
//! (boundary clocks, cumulative collective/refill stall counters) and
//! never feeds anything back, so a run with attribution enabled is
//! byte-identical to one without — the golden-fingerprint tests pin that.
//!
//! # Phase taxonomy
//!
//! | Phase | Books the time between |
//! |---|---|
//! | `admission` | arrival and the admission decision (the release boundary) |
//! | `queue` | enqueue and the admitting unit's previous boundary |
//! | `batch-join` | the admitting unit's previous boundary and the actual join |
//! | `compute` | iteration time net of collective and refill stalls |
//! | `collective` | gang-interconnect synchronization inside iterations |
//! | `refill` | DRAM weight-refill stalls inside iterations |
//! | `parked` | a preemption park and the re-join |
//! | `migration` | a placement-drain requeue and the re-join |
//! | `fault-stall` | a fault requeue and the re-join (and a lost request's final stretch) |
//! | `degraded-window` | queue wait overlapping a crash/degrade window |
//!
//! Checkpoint spills and foreign latent write-backs advance unit clocks
//! *between* iteration boundaries, so their cost lands in the `compute`
//! residual of the enclosing in-batch segment — deliberately not in
//! `fault-stall`, which books only time a fault demonstrably caused
//! (requeue waits and destroyed final stretches). That keeps "fault-stall
//! is zero outside fault windows" a hard invariant even with periodic
//! checkpointing enabled.
//!
//! # Miss-cause classification
//!
//! A missed request's cause is the argmax over phase groups: **queueing**
//! (admission + queue + batch-join), **capacity** (compute),
//! **contention** (collective + parked + migration), **residency**
//! (refill), **fault** (fault-stall + degraded-window). Shed requests are
//! always `queueing` (admission refused them under load) and lost requests
//! always `fault` (a fault destroyed them); ties break in the listed
//! order.

use exion_model::config::ModelKind;
use exion_telemetry::json::{push_f64, push_str};
use exion_telemetry::LogHistogram;

use crate::metrics::LatencyStats;

/// Number of attribution phases.
pub const PHASES: usize = 10;

/// How many missed requests the forensics digest keeps full breakdowns
/// for.
pub const TOP_MISSES: usize = 8;

/// One phase of a request's end-to-end latency (see the module docs for
/// the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Arrival to the admission decision at the release boundary.
    Admission,
    /// Enqueue to the admitting unit's previous iteration boundary.
    Queue,
    /// The admitting unit's previous boundary to the actual batch join.
    BatchJoin,
    /// In-batch iteration time net of collective and refill stalls.
    Compute,
    /// Gang-interconnect collective time inside iterations.
    Collective,
    /// DRAM weight-refill stall inside iterations.
    Refill,
    /// Parked (preempted) between a park and the re-join.
    Parked,
    /// Between a migration-drain requeue and the re-join.
    Migration,
    /// Between a fault requeue and the re-join, plus a lost request's
    /// final stretch.
    FaultStall,
    /// Queue wait overlapping a degraded-service window.
    DegradedWindow,
}

impl Phase {
    /// Every phase, in breakdown index order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Admission,
        Phase::Queue,
        Phase::BatchJoin,
        Phase::Compute,
        Phase::Collective,
        Phase::Refill,
        Phase::Parked,
        Phase::Migration,
        Phase::FaultStall,
        Phase::DegradedWindow,
    ];

    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Queue => "queue",
            Phase::BatchJoin => "batch-join",
            Phase::Compute => "compute",
            Phase::Collective => "collective",
            Phase::Refill => "refill",
            Phase::Parked => "parked",
            Phase::Migration => "migration",
            Phase::FaultStall => "fault-stall",
            Phase::DegradedWindow => "degraded-window",
        }
    }

    /// The phase's index into a [`PhaseBreakdown::ms`] array.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// A conserved decomposition of one request's end-to-end latency: the ten
/// phase values sum to `end − arrival` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Milliseconds per phase, indexed by [`Phase::index`].
    pub ms: [f64; PHASES],
}

impl PhaseBreakdown {
    /// The value of one phase (ms).
    pub fn get(&self, phase: Phase) -> f64 {
        self.ms[phase.index()]
    }

    /// Adds `ms` to `phase`.
    pub fn add(&mut self, phase: Phase, ms: f64) {
        self.ms[phase.index()] += ms;
    }

    /// Sum over all phases (the reconstructed end-to-end latency, ms).
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Folds `other` in phase-by-phase.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        for (a, b) in self.ms.iter_mut().zip(&other.ms) {
            *a += b;
        }
    }

    /// The largest phase (`None` when every phase is zero); ties break
    /// toward the earlier [`Phase::ALL`] index.
    pub fn dominant(&self) -> Option<Phase> {
        let mut best: Option<(Phase, f64)> = None;
        for p in Phase::ALL {
            let v = self.get(p);
            if v > 0.0 && best.map(|(_, bv)| v > bv).unwrap_or(true) {
                best = Some((p, v));
            }
        }
        best.map(|(p, _)| p)
    }
}

/// The terminal outcome of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Ran to completion.
    Completed,
    /// Refused by admission control (never queued).
    Shed,
    /// Destroyed by a fault.
    Lost,
}

impl RequestOutcome {
    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Lost => "lost",
        }
    }
}

/// Why a request missed its SLO (see the module docs for the
/// classification rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// Admission delay, queue wait, or batch-join wait dominated (or the
    /// request was shed outright).
    Queueing,
    /// Compute dominated: the machine was simply not fast enough for the
    /// offered deadline.
    Capacity,
    /// Collective sync, preemption parking, or migration drains dominated.
    Contention,
    /// DRAM weight-refill stalls dominated (working set exceeds the GSC).
    Residency,
    /// Fault stall or degraded-window time dominated (or the request was
    /// destroyed by a fault).
    Fault,
}

impl MissCause {
    /// Every cause, in classification tie-break order.
    pub const ALL: [MissCause; 5] = [
        MissCause::Queueing,
        MissCause::Capacity,
        MissCause::Contention,
        MissCause::Residency,
        MissCause::Fault,
    ];

    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            MissCause::Queueing => "queueing",
            MissCause::Capacity => "capacity",
            MissCause::Contention => "contention",
            MissCause::Residency => "residency",
            MissCause::Fault => "fault",
        }
    }

    /// The cause's index into a miss-cause count array.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// Classifies why a missed request missed: sheds are queueing, losts are
/// fault casualties, and completed misses take the argmax phase group
/// (ties break in [`MissCause::ALL`] order).
pub fn classify_miss(outcome: RequestOutcome, phases: &PhaseBreakdown) -> MissCause {
    match outcome {
        RequestOutcome::Shed => MissCause::Queueing,
        RequestOutcome::Lost => MissCause::Fault,
        RequestOutcome::Completed => {
            let groups = [
                phases.get(Phase::Admission)
                    + phases.get(Phase::Queue)
                    + phases.get(Phase::BatchJoin),
                phases.get(Phase::Compute),
                phases.get(Phase::Collective)
                    + phases.get(Phase::Parked)
                    + phases.get(Phase::Migration),
                phases.get(Phase::Refill),
                phases.get(Phase::FaultStall) + phases.get(Phase::DegradedWindow),
            ];
            let mut best = MissCause::Queueing;
            let mut best_v = groups[0];
            for (cause, &v) in MissCause::ALL.iter().zip(&groups) {
                if v > best_v {
                    best = *cause;
                    best_v = v;
                }
            }
            best
        }
    }
}

/// One request's finished attribution record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestAttribution {
    /// Request identifier (arrival rank).
    pub id: u64,
    /// Benchmark model.
    pub model: ModelKind,
    /// Arrival time (ms).
    pub arrival_ms: f64,
    /// Terminal instant: completion, shed decision, or destruction (ms).
    pub end_ms: f64,
    /// Latency SLO from arrival (ms).
    pub slo_ms: f64,
    /// Terminal outcome.
    pub outcome: RequestOutcome,
    /// Whether the request missed its SLO (sheds and losts always do).
    pub missed: bool,
    /// The conserved phase decomposition of `end_ms − arrival_ms`.
    pub phases: PhaseBreakdown,
}

impl RequestAttribution {
    /// End-to-end latency (ms).
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.arrival_ms
    }
}

/// One row of the SLO miss-forensics digest: a missed request with its
/// full breakdown and classified cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRecord {
    /// Request identifier.
    pub id: u64,
    /// Benchmark model.
    pub model: ModelKind,
    /// Arrival time (ms).
    pub arrival_ms: f64,
    /// Terminal instant (ms).
    pub end_ms: f64,
    /// End-to-end latency (ms).
    pub latency_ms: f64,
    /// The SLO it missed (ms).
    pub slo_ms: f64,
    /// How far past the deadline it finished (ms).
    pub overshoot_ms: f64,
    /// Classified miss cause.
    pub cause: MissCause,
    /// The dominant phase of its breakdown.
    pub dominant: Option<Phase>,
    /// The full breakdown.
    pub phases: PhaseBreakdown,
}

/// Files `record` into `worst`, the digest so far: at most
/// [`TOP_MISSES`] records, largest overshoot first and then lowest id. The
/// order is total (ids are unique), so the digest equals sorting every
/// miss and keeping the first [`TOP_MISSES`], without holding or sorting
/// them all.
fn keep_worst(worst: &mut Vec<MissRecord>, record: MissRecord) {
    let at = worst.partition_point(|m| {
        m.overshoot_ms
            .total_cmp(&record.overshoot_ms)
            .reverse()
            .then(m.id.cmp(&record.id))
            .is_lt()
    });
    if at < TOP_MISSES {
        if worst.len() == TOP_MISSES {
            worst.pop();
        }
        worst.insert(at, record);
    }
}

/// Per-model phase aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAttribution {
    /// The model class.
    pub model: ModelKind,
    /// Requests of this class (all outcomes).
    pub requests: u64,
    /// Summed phase milliseconds across the class.
    pub totals: PhaseBreakdown,
    /// Per-phase distribution across the class's requests, indexed by
    /// [`Phase::index`].
    pub phase_stats: [LatencyStats; PHASES],
}

/// The cluster-wide latency-attribution report carried by
/// [`crate::ServeReport::attribution`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Every request's finished record, in id (arrival) order.
    pub requests: Vec<RequestAttribution>,
    /// Summed phase milliseconds across every request.
    pub totals: PhaseBreakdown,
    /// Per-phase distribution across every request, indexed by
    /// [`Phase::index`]. The overall histograms are merged up from the
    /// per-model ones ([`LogHistogram::merge`]), not re-streamed.
    pub phase_stats: [LatencyStats; PHASES],
    /// Per-phase distribution restricted to SLO-missed requests.
    pub missed_phase_stats: [LatencyStats; PHASES],
    /// Per-model aggregation, sorted by model name.
    pub per_model: Vec<ModelAttribution>,
    /// The phase with the largest p50 across requests (`None` when no
    /// request recorded any time).
    pub dominant_p50: Option<Phase>,
    /// The phase with the largest p95 across requests.
    pub dominant_p95: Option<Phase>,
    /// The phase with the largest p50 across SLO-missed requests.
    pub missed_dominant_p50: Option<Phase>,
    /// The phase with the largest p95 across SLO-missed requests.
    pub missed_dominant_p95: Option<Phase>,
    /// Missed-request counts per cause, indexed by [`MissCause::index`]
    /// (sheds and losts included).
    pub miss_causes: [u64; 5],
    /// The worst completed misses (largest deadline overshoot first, at
    /// most [`TOP_MISSES`]), each with its full breakdown.
    pub top_misses: Vec<MissRecord>,
    /// Degraded-service windows the run saw (crash-to-recover and
    /// degrade-to-restore intervals, ms).
    pub degraded_windows: Vec<(f64, f64)>,
}

impl AttributionReport {
    /// Each phase's share of the total attributed milliseconds (all zeros
    /// when nothing was attributed). Deterministic at a seed, so the work
    /// goldens in `tests/event_core.rs` pin it bit for bit.
    pub fn phase_mix(&self) -> [f64; PHASES] {
        let total = self.totals.total_ms();
        let mut mix = [0.0; PHASES];
        if total > 0.0 {
            for (m, v) in mix.iter_mut().zip(&self.totals.ms) {
                *m = v / total;
            }
        }
        mix
    }

    /// Missed requests across all causes.
    pub fn missed_requests(&self) -> u64 {
        self.miss_causes.iter().sum()
    }
}

/// The segment a live request is currently in. Segments chain
/// contiguously — each close instant is the next segment's open instant —
/// which is what makes the breakdown conserved.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// Waiting in the ready queue since the admission decision.
    Queue { since: f64 },
    /// Running in a batch; `coll0`/`refill0` snapshot the unit's
    /// cumulative collective/refill stall at the join.
    InBatch {
        since: f64,
        coll0: f64,
        refill0: f64,
    },
    /// Parked (preempted) since the park boundary.
    Parked { since: f64 },
    /// Requeued by a migration drain, waiting to re-join.
    Migration { since: f64 },
    /// Requeued by a fault, waiting to re-join.
    FaultWait { since: f64 },
    /// Terminal (completed, shed, or lost).
    Closed,
}

/// One live request's accumulating state.
#[derive(Debug, Clone)]
struct LiveEntry {
    model: ModelKind,
    arrival_ms: f64,
    slo_ms: f64,
    phases: PhaseBreakdown,
    seg: Seg,
    outcome: Option<RequestOutcome>,
    end_ms: f64,
    missed: bool,
}

/// Accumulates per-request phase breakdowns as the cluster loop feeds it
/// lifecycle transitions, then aggregates into an [`AttributionReport`].
/// Request ids are dense arrival ranks, so live state is a flat vector.
#[derive(Debug, Clone, Default)]
pub struct AttributionBuilder {
    live: Vec<LiveEntry>,
    degraded: Vec<(f64, f64)>,
}

impl AttributionBuilder {
    /// A builder with no requests seen.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_entry(&mut self, id: u64, model: ModelKind, arrival_ms: f64, slo_ms: f64) {
        debug_assert_eq!(
            id as usize,
            self.live.len(),
            "request ids arrive dense, in release order"
        );
        self.live.push(LiveEntry {
            model,
            arrival_ms,
            slo_ms,
            phases: PhaseBreakdown::default(),
            seg: Seg::Closed,
            outcome: None,
            end_ms: arrival_ms,
            missed: false,
        });
    }

    /// Overlap (ms) of `[a, b]` with the degraded windows seen so far.
    /// Windows are pushed at their opening instant, so any window
    /// overlapping a past interval is already registered.
    fn degraded_overlap(&self, a: f64, b: f64) -> f64 {
        let mut overlap: f64 = 0.0;
        for &(s, e) in &self.degraded {
            overlap += (b.min(e) - a.max(s)).max(0.0);
        }
        overlap.min((b - a).max(0.0))
    }

    /// The request was admitted (possibly degraded) at `decided_at` and
    /// entered the queue.
    pub fn admit(
        &mut self,
        id: u64,
        model: ModelKind,
        arrival_ms: f64,
        slo_ms: f64,
        decided_at: f64,
    ) {
        self.push_entry(id, model, arrival_ms, slo_ms);
        let e = &mut self.live[id as usize];
        e.phases
            .add(Phase::Admission, (decided_at - arrival_ms).max(0.0));
        e.seg = Seg::Queue { since: decided_at };
    }

    /// The request was refused (shed) at `decided_at` — terminal, always
    /// an SLO miss.
    pub fn shed(
        &mut self,
        id: u64,
        model: ModelKind,
        arrival_ms: f64,
        slo_ms: f64,
        decided_at: f64,
    ) {
        self.push_entry(id, model, arrival_ms, slo_ms);
        let e = &mut self.live[id as usize];
        e.phases
            .add(Phase::Admission, (decided_at - arrival_ms).max(0.0));
        e.end_ms = decided_at;
        e.outcome = Some(RequestOutcome::Shed);
        e.missed = true;
        Self::fold_conservation(e, Phase::Admission);
    }

    /// Closes an in-batch segment at `at_ms`, splitting the elapsed time
    /// into collective, refill, and the compute residual.
    fn close_batch(
        e: &mut LiveEntry,
        at_ms: f64,
        since: f64,
        coll0: f64,
        refill0: f64,
        coll: f64,
        refill: f64,
    ) {
        let elapsed = (at_ms - since).max(0.0);
        let coll_ms = (coll - coll0).clamp(0.0, elapsed);
        let refill_ms = (refill - refill0).clamp(0.0, elapsed - coll_ms);
        e.phases.add(Phase::Collective, coll_ms);
        e.phases.add(Phase::Refill, refill_ms);
        e.phases.add(Phase::Compute, elapsed - coll_ms - refill_ms);
    }

    /// Closes whatever waiting segment is open at `at_ms` into its own
    /// phase (in-batch segments split via [`Self::close_batch`]).
    fn close_seg(&mut self, id: u64, at_ms: f64, coll: f64, refill: f64) {
        let e = &mut self.live[id as usize];
        match e.seg {
            Seg::Queue { since } => {
                // The whole wait books as queue here (no door split — this
                // close comes from a drain/fault, not a join); degraded
                // overlap is still carved out.
                let span = (at_ms - since).max(0.0);
                let overlap = self.degraded_overlap(since, at_ms);
                let e = &mut self.live[id as usize];
                e.phases.add(Phase::Queue, span - overlap);
                e.phases.add(Phase::DegradedWindow, overlap);
            }
            Seg::InBatch {
                since,
                coll0,
                refill0,
            } => {
                Self::close_batch(e, at_ms, since, coll0, refill0, coll, refill);
            }
            Seg::Parked { since } => e.phases.add(Phase::Parked, (at_ms - since).max(0.0)),
            Seg::Migration { since } => e.phases.add(Phase::Migration, (at_ms - since).max(0.0)),
            Seg::FaultWait { since } => e.phases.add(Phase::FaultStall, (at_ms - since).max(0.0)),
            Seg::Closed => debug_assert!(false, "closing a terminal request {id}"),
        }
        self.live[id as usize].seg = Seg::Closed;
    }

    /// The request joined a batch at `at_ms`. `door_floor_ms` is the
    /// admitting unit's previous boundary (the earliest instant it could
    /// have opened its door); `coll`/`refill` are that unit's cumulative
    /// stall counters, snapshotted for the in-batch close.
    pub fn join(&mut self, id: u64, at_ms: f64, door_floor_ms: f64, coll: f64, refill: f64) {
        match self.live[id as usize].seg {
            Seg::Queue { since } => {
                // Queue wait runs until the unit's door could have opened;
                // the rest of the wait is batch-join delay. Queue time
                // overlapping a degraded window books to the window.
                let door = door_floor_ms.max(since).min(at_ms);
                let overlap = self.degraded_overlap(since, door);
                let e = &mut self.live[id as usize];
                e.phases.add(Phase::Queue, (door - since) - overlap);
                e.phases.add(Phase::DegradedWindow, overlap);
                e.phases.add(Phase::BatchJoin, at_ms - door);
            }
            Seg::InBatch { .. } | Seg::Closed => {
                debug_assert!(false, "request {id} joined from a non-waiting segment");
            }
            // Parked, migration and fault waits each book whole to their
            // own phase.
            _ => self.close_seg(id, at_ms, coll, refill),
        }
        self.live[id as usize].seg = Seg::InBatch {
            since: at_ms,
            coll0: coll,
            refill0: refill,
        };
    }

    /// The request was preempted (parked) at `at_ms`.
    pub fn park(&mut self, id: u64, at_ms: f64, coll: f64, refill: f64) {
        self.close_seg(id, at_ms, coll, refill);
        self.live[id as usize].seg = Seg::Parked { since: at_ms };
    }

    /// The request was drained back into the queue by a placement
    /// migration at `at_ms`.
    pub fn drain_to_migration(&mut self, id: u64, at_ms: f64, coll: f64, refill: f64) {
        self.close_seg(id, at_ms, coll, refill);
        self.live[id as usize].seg = Seg::Migration { since: at_ms };
    }

    /// The request was requeued by a fault (checkpoint recovery or
    /// surviving-member write-back) at `at_ms`.
    pub fn fault_requeue(&mut self, id: u64, at_ms: f64, coll: f64, refill: f64) {
        self.close_seg(id, at_ms, coll, refill);
        self.live[id as usize].seg = Seg::FaultWait { since: at_ms };
    }

    /// The request completed at `finished_ms` — terminal.
    pub fn complete(&mut self, id: u64, finished_ms: f64, coll: f64, refill: f64, missed: bool) {
        self.close_seg(id, finished_ms, coll, refill);
        let e = &mut self.live[id as usize];
        e.end_ms = finished_ms;
        e.outcome = Some(RequestOutcome::Completed);
        e.missed = missed;
        Self::fold_conservation(e, Phase::Compute);
    }

    /// A fault destroyed the request at `at_ms` — terminal, always an SLO
    /// miss. Whatever segment was open books entirely to fault stall: the
    /// fault caused the request's final stretch to be wasted, whatever it
    /// was spent on.
    pub fn lost(&mut self, id: u64, at_ms: f64) {
        let e = &mut self.live[id as usize];
        let since = match e.seg {
            Seg::Queue { since }
            | Seg::InBatch { since, .. }
            | Seg::Parked { since }
            | Seg::Migration { since }
            | Seg::FaultWait { since } => since,
            Seg::Closed => {
                debug_assert!(false, "losing a terminal request {id}");
                at_ms
            }
        };
        e.phases.add(Phase::FaultStall, (at_ms - since).max(0.0));
        e.seg = Seg::Closed;
        e.end_ms = at_ms;
        e.outcome = Some(RequestOutcome::Lost);
        e.missed = true;
        Self::fold_conservation(e, Phase::FaultStall);
    }

    /// Registers a degraded-service window `[start_ms, end_ms]` (pushed at
    /// its opening instant, so past queue intervals always see every
    /// window that could overlap them).
    pub fn push_degraded_window(&mut self, start_ms: f64, end_ms: f64) {
        self.degraded.push((start_ms, end_ms));
    }

    /// Folds float residue (`e2e − Σ phases`, a few ulps of segment
    /// arithmetic) back into `fold`, so the conservation property holds by
    /// construction at the terminal close.
    fn fold_conservation(e: &mut LiveEntry, fold: Phase) {
        let e2e = (e.end_ms - e.arrival_ms).max(0.0);
        for _ in 0..4 {
            let diff = e2e - e.phases.total_ms();
            if diff == 0.0 {
                break;
            }
            e.phases.ms[fold.index()] += diff;
        }
    }

    /// Aggregates every finished request into the report.
    pub fn finish(self) -> AttributionReport {
        let mut requests: Vec<RequestAttribution> = Vec::with_capacity(self.live.len());
        // Per-model phase histograms, merged up into the overall stats so
        // the rollup exercises the same path the sweep harness uses.
        let mut models: Vec<(ModelKind, u64, PhaseBreakdown, Box<[LogHistogram; PHASES]>)> =
            Vec::new();
        let mut missed_hists: [LogHistogram; PHASES] =
            std::array::from_fn(|_| LogHistogram::default());
        let mut totals = PhaseBreakdown::default();
        let mut miss_causes = [0u64; 5];
        // The digest so far: at most TOP_MISSES records in digest order.
        let mut misses: Vec<MissRecord> = Vec::with_capacity(TOP_MISSES);

        for (id, e) in self.live.iter().enumerate() {
            let Some(outcome) = e.outcome else {
                debug_assert!(false, "request {id} never reached a terminal outcome");
                continue;
            };
            let r = RequestAttribution {
                id: id as u64,
                model: e.model,
                arrival_ms: e.arrival_ms,
                end_ms: e.end_ms,
                slo_ms: e.slo_ms,
                outcome,
                missed: e.missed,
                phases: e.phases,
            };
            totals.accumulate(&r.phases);
            let slot = match models.iter().position(|(m, ..)| *m == r.model) {
                Some(s) => s,
                None => {
                    models.push((
                        r.model,
                        0,
                        PhaseBreakdown::default(),
                        Box::new(std::array::from_fn(|_| LogHistogram::default())),
                    ));
                    models.len() - 1
                }
            };
            let (_, count, m_totals, hists) = &mut models[slot];
            *count += 1;
            m_totals.accumulate(&r.phases);
            for (h, &v) in hists.iter_mut().zip(&r.phases.ms) {
                h.record(v.max(0.0));
            }
            if r.missed {
                miss_causes[classify_miss(outcome, &r.phases).index()] += 1;
                for (h, &v) in missed_hists.iter_mut().zip(&r.phases.ms) {
                    h.record(v.max(0.0));
                }
                if outcome == RequestOutcome::Completed {
                    keep_worst(
                        &mut misses,
                        MissRecord {
                            id: r.id,
                            model: r.model,
                            arrival_ms: r.arrival_ms,
                            end_ms: r.end_ms,
                            latency_ms: r.latency_ms(),
                            slo_ms: r.slo_ms,
                            overshoot_ms: r.latency_ms() - r.slo_ms,
                            cause: classify_miss(outcome, &r.phases),
                            dominant: r.phases.dominant(),
                            phases: r.phases,
                        },
                    );
                }
            }
            requests.push(r);
        }

        // The overall per-phase histograms are the merge of the per-model
        // shards — no re-streaming.
        let mut overall: [LogHistogram; PHASES] = std::array::from_fn(|_| LogHistogram::default());
        for (_, _, _, hists) in &models {
            for (o, h) in overall.iter_mut().zip(hists.iter()) {
                o.merge(h);
            }
        }
        let phase_stats: [LatencyStats; PHASES] =
            std::array::from_fn(|i| LatencyStats::from_histogram(&overall[i]));
        let missed_phase_stats: [LatencyStats; PHASES] =
            std::array::from_fn(|i| LatencyStats::from_histogram(&missed_hists[i]));

        let mut per_model: Vec<ModelAttribution> = models
            .into_iter()
            .map(|(model, requests, totals, hists)| ModelAttribution {
                model,
                requests,
                totals,
                phase_stats: std::array::from_fn(|i| LatencyStats::from_histogram(&hists[i])),
            })
            .collect();
        per_model.sort_by_key(|m| m.model.name());

        let dominant_at = |stats: &[LatencyStats; PHASES], pick: fn(&LatencyStats) -> f64| {
            let mut best: Option<(Phase, f64)> = None;
            for p in Phase::ALL {
                let v = pick(&stats[p.index()]);
                if v > 0.0 && best.map(|(_, bv)| v > bv).unwrap_or(true) {
                    best = Some((p, v));
                }
            }
            best.map(|(p, _)| p)
        };

        AttributionReport {
            dominant_p50: dominant_at(&phase_stats, |s| s.p50),
            dominant_p95: dominant_at(&phase_stats, |s| s.p95),
            missed_dominant_p50: dominant_at(&missed_phase_stats, |s| s.p50),
            missed_dominant_p95: dominant_at(&missed_phase_stats, |s| s.p95),
            requests,
            totals,
            phase_stats,
            missed_phase_stats,
            per_model,
            miss_causes,
            top_misses: misses,
            degraded_windows: self.degraded,
        }
    }
}

/// Renders `report` as a standalone JSON document (schema 1): aggregate
/// phase stats, miss forensics, degraded windows, and one record per
/// request — enough for external tooling (and the CI chaos smoke) to
/// re-derive any slice of the attribution without the binary report.
pub fn attribution_json(report: &AttributionReport) -> String {
    let mut out = String::with_capacity(256 + 220 * report.requests.len());
    out.push_str("{\"schema\":1,\"phases\":[");
    for (i, p) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(&mut out, p.label());
    }
    out.push_str("],\"totals_ms\":[");
    for (i, v) in report.totals.ms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(&mut out, *v);
    }
    out.push_str("],\"phase_stats\":[");
    for (i, (p, s)) in Phase::ALL.iter().zip(&report.phase_stats).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"phase\":");
        push_str(&mut out, p.label());
        out.push_str(",\"p50\":");
        push_f64(&mut out, s.p50);
        out.push_str(",\"p95\":");
        push_f64(&mut out, s.p95);
        out.push_str(",\"p99\":");
        push_f64(&mut out, s.p99);
        out.push_str(",\"mean\":");
        push_f64(&mut out, s.mean);
        out.push_str(",\"max\":");
        push_f64(&mut out, s.max);
        out.push_str(",\"count\":");
        out.push_str(&s.count.to_string());
        out.push('}');
    }
    out.push_str("],\"miss_causes\":{");
    for (i, c) in MissCause::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(&mut out, c.label());
        out.push(':');
        out.push_str(&report.miss_causes[c.index()].to_string());
    }
    out.push_str("},\"dominant_p50\":");
    match report.dominant_p50 {
        Some(p) => push_str(&mut out, p.label()),
        None => out.push_str("null"),
    }
    out.push_str(",\"dominant_p95\":");
    match report.dominant_p95 {
        Some(p) => push_str(&mut out, p.label()),
        None => out.push_str("null"),
    }
    out.push_str(",\"degraded_windows\":[");
    for (i, &(s, e)) in report.degraded_windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_f64(&mut out, s);
        out.push(',');
        push_f64(&mut out, e);
        out.push(']');
    }
    out.push_str("],\"top_misses\":[");
    for (i, m) in report.top_misses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&m.id.to_string());
        out.push_str(",\"model\":");
        push_str(&mut out, m.model.name());
        out.push_str(",\"latency_ms\":");
        push_f64(&mut out, m.latency_ms);
        out.push_str(",\"slo_ms\":");
        push_f64(&mut out, m.slo_ms);
        out.push_str(",\"overshoot_ms\":");
        push_f64(&mut out, m.overshoot_ms);
        out.push_str(",\"cause\":");
        push_str(&mut out, m.cause.label());
        out.push_str(",\"phases_ms\":[");
        for (j, v) in m.phases.ms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push_str("]}");
    }
    out.push_str("],\"requests\":[");
    for (i, r) in report.requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&r.id.to_string());
        out.push_str(",\"model\":");
        push_str(&mut out, r.model.name());
        out.push_str(",\"arrival_ms\":");
        push_f64(&mut out, r.arrival_ms);
        out.push_str(",\"end_ms\":");
        push_f64(&mut out, r.end_ms);
        out.push_str(",\"slo_ms\":");
        push_f64(&mut out, r.slo_ms);
        out.push_str(",\"outcome\":");
        push_str(&mut out, r.outcome.label());
        out.push_str(",\"missed\":");
        out.push_str(if r.missed { "true" } else { "false" });
        out.push_str(",\"phases_ms\":[");
        for (j, v) in r.phases.ms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_telemetry::json::is_well_formed;

    fn conserved(e2e: f64, phases: &PhaseBreakdown) {
        let sum = phases.total_ms();
        assert!(
            (sum - e2e).abs() <= 1e-9 * (1.0 + e2e.abs()),
            "Σ phases {sum} != e2e {e2e}"
        );
    }

    #[test]
    fn straight_through_request_splits_into_queue_join_and_compute() {
        let mut b = AttributionBuilder::new();
        // Arrives at 0, decided at 2 (admission 2), unit door at 5, joins
        // at 8, completes at 20 with 3 ms collective and 1 ms refill.
        b.admit(0, ModelKind::Mld, 0.0, 100.0, 2.0);
        b.join(0, 8.0, 5.0, 0.0, 0.0);
        b.complete(0, 20.0, 3.0, 1.0, false);
        let r = b.finish();
        let p = &r.requests[0].phases;
        assert_eq!(p.get(Phase::Admission), 2.0);
        assert_eq!(p.get(Phase::Queue), 3.0); // 2 → door 5
        assert_eq!(p.get(Phase::BatchJoin), 3.0); // door 5 → join 8
        assert_eq!(p.get(Phase::Collective), 3.0);
        assert_eq!(p.get(Phase::Refill), 1.0);
        assert_eq!(p.get(Phase::Compute), 8.0); // 12 in batch − 3 − 1
        conserved(20.0, p);
        assert_eq!(r.requests[0].outcome, RequestOutcome::Completed);
        assert!(!r.requests[0].missed);
        assert_eq!(r.missed_requests(), 0);
    }

    #[test]
    fn park_resume_and_migration_book_their_own_phases() {
        let mut b = AttributionBuilder::new();
        b.admit(0, ModelKind::Dit, 0.0, 50.0, 0.0);
        b.join(0, 0.0, 0.0, 0.0, 0.0);
        b.park(0, 10.0, 2.0, 0.0); // 10 in batch: 2 collective, 8 compute
        b.join(0, 16.0, 12.0, 5.0, 0.0); // 6 parked
        b.drain_to_migration(0, 22.0, 9.0, 0.0); // 6 in batch: 4 coll, 2 compute
        b.join(0, 30.0, 25.0, 0.0, 0.0); // 8 migration
        b.complete(0, 40.0, 1.0, 0.5, true); // 10 in batch: 1 coll, 0.5 refill
        let r = b.finish();
        let p = &r.requests[0].phases;
        assert_eq!(p.get(Phase::Parked), 6.0);
        assert_eq!(p.get(Phase::Migration), 8.0);
        assert_eq!(p.get(Phase::Collective), 2.0 + 4.0 + 1.0);
        assert_eq!(p.get(Phase::Refill), 0.5);
        conserved(40.0, p);
        assert!(r.requests[0].missed);
        // Contention (collective + parked + migration = 21) dominates.
        assert_eq!(r.miss_causes[MissCause::Contention.index()], 1);
        assert_eq!(r.top_misses.len(), 1);
        assert_eq!(r.top_misses[0].cause, MissCause::Contention);
    }

    #[test]
    fn shed_and_lost_are_terminal_misses_with_conserved_phases() {
        let mut b = AttributionBuilder::new();
        b.shed(0, ModelKind::Mld, 1.0, 10.0, 4.0);
        b.admit(1, ModelKind::Mld, 2.0, 10.0, 3.0);
        b.join(1, 5.0, 3.0, 0.0, 0.0);
        b.fault_requeue(1, 9.0, 1.0, 0.0);
        b.lost(1, 15.0);
        let r = b.finish();
        let shed = &r.requests[0];
        assert_eq!(shed.outcome, RequestOutcome::Shed);
        assert_eq!(shed.phases.get(Phase::Admission), 3.0);
        conserved(3.0, &shed.phases);
        let lost = &r.requests[1];
        assert_eq!(lost.outcome, RequestOutcome::Lost);
        // Requeued at 9 then destroyed at 15: the fault-wait books 6 ms of
        // fault stall on top of the in-batch split.
        assert_eq!(lost.phases.get(Phase::FaultStall), 6.0);
        conserved(13.0, &lost.phases);
        assert_eq!(r.miss_causes[MissCause::Queueing.index()], 1);
        assert_eq!(r.miss_causes[MissCause::Fault.index()], 1);
        // Sheds and losts never enter the completed-miss digest.
        assert!(r.top_misses.is_empty());

        // More completed misses than the digest keeps, beside a shed and an
        // on-time completion: it holds the worst TOP_MISSES by overshoot,
        // and equal overshoots (one tie straddles the cut) go to the lower
        // id.
        let overshoots = [5.0, 3.0, 5.0, 1.0, 7.0, 3.0, 5.0, 2.0, 9.0, 3.0, 4.0, 6.0];
        let mut b = AttributionBuilder::new();
        for (id, &over) in overshoots.iter().enumerate() {
            let (id, t0) = (id as u64, id as f64);
            b.admit(id, ModelKind::Mld, t0, 10.0, t0);
            b.join(id, t0, t0, 0.0, 0.0);
            b.complete(id, t0 + 10.0 + over, 0.0, 0.0, true);
        }
        b.shed(12, ModelKind::Dit, 12.0, 10.0, 50.0);
        b.admit(13, ModelKind::Mld, 13.0, 10.0, 13.0);
        b.join(13, 13.0, 13.0, 0.0, 0.0);
        b.complete(13, 20.0, 0.0, 0.0, false);
        let r = b.finish();
        let digest: Vec<(u64, f64)> = r
            .top_misses
            .iter()
            .map(|m| (m.id, m.overshoot_ms))
            .collect();
        assert_eq!(
            digest,
            [
                (8, 9.0),
                (4, 7.0),
                (11, 6.0),
                (0, 5.0),
                (2, 5.0),
                (6, 5.0),
                (10, 4.0),
                (1, 3.0)
            ]
        );
    }

    #[test]
    fn queue_wait_overlapping_a_degraded_window_books_to_the_window() {
        let mut b = AttributionBuilder::new();
        b.push_degraded_window(5.0, 9.0);
        b.admit(0, ModelKind::Mld, 0.0, 100.0, 0.0);
        // Queue 0 → door 10: 4 ms overlap the window.
        b.join(0, 12.0, 10.0, 0.0, 0.0);
        b.complete(0, 20.0, 0.0, 0.0, false);
        let r = b.finish();
        let p = &r.requests[0].phases;
        assert_eq!(p.get(Phase::DegradedWindow), 4.0);
        assert_eq!(p.get(Phase::Queue), 6.0);
        assert_eq!(p.get(Phase::BatchJoin), 2.0);
        conserved(20.0, p);
        assert_eq!(r.degraded_windows, vec![(5.0, 9.0)]);
    }

    #[test]
    fn per_model_rollup_merges_into_the_overall_stats() {
        let mut b = AttributionBuilder::new();
        for id in 0..6u64 {
            let model = if id % 2 == 0 {
                ModelKind::Mld
            } else {
                ModelKind::Dit
            };
            let t0 = id as f64 * 10.0;
            b.admit(id, model, t0, 1000.0, t0 + 1.0);
            b.join(id, t0 + 3.0, t0 + 1.0, 0.0, 0.0);
            b.complete(id, t0 + 9.0, 0.0, 0.0, false);
        }
        let r = b.finish();
        assert_eq!(r.per_model.len(), 2);
        // Models are sorted by name, and the merged overall count equals
        // the per-model sum phase by phase.
        let names: Vec<&str> = r.per_model.iter().map(|m| m.model.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for p in Phase::ALL {
            let merged = r.phase_stats[p.index()].count;
            let summed: u64 = r
                .per_model
                .iter()
                .map(|m| m.phase_stats[p.index()].count)
                .sum();
            assert_eq!(merged, summed, "{}", p.label());
        }
        assert_eq!(r.requests.len(), 6);
        // Compute dominates every request (6 ms in batch vs 2+2 waits).
        assert_eq!(r.dominant_p50, Some(Phase::Compute));
        assert_eq!(r.dominant_p95, Some(Phase::Compute));
    }

    #[test]
    fn attribution_json_is_well_formed_and_carries_the_records() {
        let mut b = AttributionBuilder::new();
        b.push_degraded_window(1.0, 2.0);
        b.admit(0, ModelKind::Mld, 0.0, 5.0, 1.0);
        b.join(0, 2.0, 1.0, 0.0, 0.0);
        b.complete(0, 30.0, 0.0, 0.0, true);
        b.shed(1, ModelKind::Dit, 3.0, 5.0, 4.0);
        let json = attribution_json(&b.finish());
        assert!(is_well_formed(&json), "{json}");
        assert!(json.contains("\"schema\":1"));
        assert!(json.contains("\"fault-stall\""));
        assert!(json.contains("\"outcome\":\"shed\""));
        assert!(json.contains("\"degraded_windows\":[[1,2]]"));
        assert!(json.contains("\"top_misses\":[{\"id\":0"));
    }

    #[test]
    fn classification_tie_breaks_in_declared_order() {
        // All-zero phases: queueing wins the tie.
        let z = PhaseBreakdown::default();
        assert_eq!(
            classify_miss(RequestOutcome::Completed, &z),
            MissCause::Queueing
        );
        let mut residency = PhaseBreakdown::default();
        residency.add(Phase::Refill, 5.0);
        residency.add(Phase::Compute, 4.0);
        assert_eq!(
            classify_miss(RequestOutcome::Completed, &residency),
            MissCause::Residency
        );
        assert_eq!(classify_miss(RequestOutcome::Shed, &z), MissCause::Queueing);
        assert_eq!(classify_miss(RequestOutcome::Lost, &z), MissCause::Fault);
    }
}
