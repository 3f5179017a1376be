//! Deterministic event calendar for the cluster loop.
//!
//! The serving simulator is a discrete-event simulation: nothing happens
//! between a unit's iteration boundaries, an idle unit's wake, a metric
//! cadence tick, or a planner epoch end, so the cluster loop only ever
//! needs the *next* of those instants. [`EventCalendar`] keeps them in a
//! binary heap ordered by `(time, kind rank, unit index)` — pop cost is
//! `O(log events)` regardless of fleet size, where the legacy loop paid an
//! `O(units)` minimum-clock scan per iteration boundary.
//!
//! Determinism is load-bearing: fixed-seed report fingerprints pin every
//! policy and core refactor, so the pop order must be a *total* order that
//! reproduces the legacy scan exactly. Ties at one timestamp break by
//! [`EventKind`] rank — observation ([`EventKind::StatsSample`]) before
//! control plane ([`EventKind::EpochBoundary`]) before unit work — and
//! unit events at one timestamp break by unit index, which is precisely
//! the order the legacy `min_by(clock).then(index)` scan stepped units in.
//!
//! Unit entries are invalidated wholesale when a migration replaces the
//! fleet: the calendar bumps an era counter and stale entries are skipped
//! lazily at pop time, so a re-plan never pays a heap rebuild.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled calendar entry does when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Snapshot the cluster's counters and gauges (recurring
    /// `stats_interval_ms` cadence).
    StatsSample,
    /// A planner epoch end: record realized load and possibly re-plan.
    EpochBoundary,
    /// A fault-plan event fires: a crash, member loss, link degradation,
    /// or a scheduled recovery/restore. The `unit` field carries an index
    /// into the cluster loop's runtime fault table, not a unit slot.
    Fault,
    /// A busy unit's next iteration boundary.
    UnitBoundary,
    /// An idle unit's wake: the next arrival, or a parked request's ready
    /// time.
    IdleWake,
}

impl EventKind {
    /// Tie-break rank at equal timestamps. [`UnitBoundary`] and
    /// [`IdleWake`] deliberately share a rank: the legacy scan ordered
    /// same-clock units purely by index, blind to why each was scheduled,
    /// and fingerprint identity requires reproducing that.
    ///
    /// [`UnitBoundary`]: EventKind::UnitBoundary
    /// [`IdleWake`]: EventKind::IdleWake
    fn rank(self) -> u8 {
        match self {
            EventKind::StatsSample => 0,
            EventKind::EpochBoundary => 1,
            EventKind::Fault => 2,
            EventKind::UnitBoundary | EventKind::IdleWake => 3,
        }
    }

    fn is_unit(self) -> bool {
        self.rank() == 3
    }
}

/// One scheduled instant. Constructed only by [`EventCalendar`]; the era
/// and generation stamps that invalidate superseded unit entries stay
/// private.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires (simulated ms).
    pub at_ms: f64,
    /// What it does.
    pub kind: EventKind,
    /// The unit it steps ([`usize::MAX`] for non-unit events).
    pub unit: usize,
    era: u64,
    gen: u64,
}

impl Event {
    /// The total pop order: time, then kind rank, then unit index.
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.at_ms
            .total_cmp(&other.at_ms)
            .then_with(|| self.kind.rank().cmp(&other.kind.rank()))
            .then_with(|| self.unit.cmp(&other.unit))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap; the smallest key pops
        // first.
        other.key_cmp(self)
    }
}

/// The min-heap of pending events plus the unit bookkeeping the cluster
/// loop needs: how many units still have a scheduled event (the loop's
/// termination condition) and the earliest scheduled unit time (the epoch
/// handler's effective "now").
#[derive(Debug, Clone, Default)]
pub struct EventCalendar {
    heap: BinaryHeap<Event>,
    /// Bumped when a migration replaces the fleet; unit entries from
    /// older eras are skipped at pop time.
    era: u64,
    /// Scheduled fire time per unit slot (`INFINITY` = unscheduled).
    unit_times: Vec<f64>,
    /// Per-unit generation: bumped when a reschedule supersedes a live
    /// entry (a billed transfer moved the unit's clock), so the old entry
    /// dies lazily in the heap.
    unit_gens: Vec<u64>,
    scheduled_units: usize,
    peak_len: usize,
}

impl EventCalendar {
    /// An empty calendar over `units` unit slots.
    pub fn new(units: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            era: 0,
            unit_times: vec![f64::INFINITY; units],
            unit_gens: vec![0; units],
            scheduled_units: 0,
            peak_len: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        self.heap.push(ev);
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Schedules `unit`'s next event at `at_ms`. Each unit holds at most
    /// one live entry: the caller schedules only at the unit's own pop
    /// (or after a fleet reset), so nothing is ever superseded in place.
    pub fn schedule_unit(&mut self, unit: usize, at_ms: f64, kind: EventKind) {
        debug_assert!(kind.is_unit(), "unit slots only take unit events");
        debug_assert!(
            self.unit_times[unit].is_infinite(),
            "unit {unit} already has a scheduled event"
        );
        debug_assert!(at_ms.is_finite(), "unit events fire at finite times");
        self.unit_times[unit] = at_ms;
        self.scheduled_units += 1;
        self.push(Event {
            at_ms,
            kind,
            unit,
            era: self.era,
            gen: self.unit_gens[unit],
        });
    }

    /// Moves `unit`'s live entry to `at_ms`: a billed transfer (e.g. a
    /// latent write-back charged to a peer) advanced the unit's clock
    /// past its scheduled time. The legacy min-clock scan re-read every
    /// clock per pop and followed such moves implicitly; the calendar
    /// supersedes the stale entry explicitly, leaving it to die in the
    /// heap.
    pub fn reschedule_unit(&mut self, unit: usize, at_ms: f64, kind: EventKind) {
        debug_assert!(kind.is_unit(), "unit slots only take unit events");
        debug_assert!(
            self.unit_times[unit].is_finite(),
            "unit {unit} has no live entry to reschedule"
        );
        debug_assert!(at_ms.is_finite(), "unit events fire at finite times");
        self.unit_gens[unit] += 1;
        self.unit_times[unit] = at_ms;
        self.push(Event {
            at_ms,
            kind,
            unit,
            era: self.era,
            gen: self.unit_gens[unit],
        });
    }

    /// Whether `unit` currently holds a live scheduled entry.
    pub fn is_unit_scheduled(&self, unit: usize) -> bool {
        self.unit_times[unit].is_finite()
    }

    /// Schedules the next counter/gauge snapshot.
    pub fn schedule_stats(&mut self, at_ms: f64) {
        let era = self.era;
        self.push(Event {
            at_ms,
            kind: EventKind::StatsSample,
            unit: usize::MAX,
            era,
            gen: 0,
        });
    }

    /// Schedules the next planner epoch boundary.
    pub fn schedule_epoch(&mut self, at_ms: f64) {
        let era = self.era;
        self.push(Event {
            at_ms,
            kind: EventKind::EpochBoundary,
            unit: usize::MAX,
            era,
            gen: 0,
        });
    }

    /// Schedules a fault-plan event. `fault` indexes the cluster loop's
    /// runtime fault table (it rides in the entry's `unit` field). Like
    /// stats and epoch entries, fault entries are era-less — they survive
    /// fleet resets — and do not keep the loop alive on their own: a
    /// fault scheduled after every unit has retired is simply dropped.
    pub fn schedule_fault(&mut self, at_ms: f64, fault: usize) {
        let era = self.era;
        self.push(Event {
            at_ms,
            kind: EventKind::Fault,
            unit: fault,
            era,
            gen: 0,
        });
    }

    /// Drops `unit`'s live entry without replacing it — the unit is dead
    /// and will never fire again. The stale heap entry dies lazily via
    /// the generation bump, exactly as a reschedule would kill it.
    pub fn unschedule_unit(&mut self, unit: usize) {
        debug_assert!(
            self.unit_times[unit].is_finite(),
            "unit {unit} has no live entry to unschedule"
        );
        self.unit_gens[unit] += 1;
        self.unit_times[unit] = f64::INFINITY;
        self.scheduled_units -= 1;
    }

    /// Pops the next live event in deterministic `(time, rank, unit)`
    /// order, skipping unit entries a fleet reset invalidated. A popped
    /// unit's slot becomes unscheduled; the handler reschedules it (or
    /// lets it retire).
    pub fn pop(&mut self) -> Option<Event> {
        while let Some(ev) = self.heap.pop() {
            if ev.kind.is_unit() {
                if ev.era != self.era || ev.gen != self.unit_gens[ev.unit] {
                    continue; // superseded by a migration or a reschedule
                }
                self.unit_times[ev.unit] = f64::INFINITY;
                self.scheduled_units -= 1;
            }
            return Some(ev);
        }
        None
    }

    /// Units that still have a scheduled event — the loop runs while this
    /// is non-zero (leftover stats/epoch entries alone keep nothing
    /// alive, matching the legacy loop's drain condition).
    pub fn scheduled_units(&self) -> usize {
        self.scheduled_units
    }

    /// The earliest scheduled unit event (`INFINITY` when none): the
    /// cluster-wide minimum clock the legacy loop's epoch handler saw,
    /// since every scheduled unit's clock sits exactly at its entry.
    pub fn min_unit_time_ms(&self) -> f64 {
        self.unit_times
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Invalidates every unit entry and re-sizes to `units` slots — the
    /// migration path: old entries die lazily in the heap, and the caller
    /// schedules the replacement fleet's first boundaries.
    pub fn reset_units(&mut self, units: usize) {
        self.era += 1;
        self.unit_times.clear();
        self.unit_times.resize(units, f64::INFINITY);
        self.unit_gens.clear();
        self.unit_gens.resize(units, 0);
        self.scheduled_units = 0;
    }

    /// Pending entries (live and stale).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing at all is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest number of pending entries seen, exported as
    /// `RunProfile::peak_calendar_events`: perfbench reports it as
    /// `cluster.peak_calendar_events`, and `tests/event_core.rs` pins it
    /// in its work goldens and bounds it on a fleet-sized run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_rank_then_unit_order() {
        let mut cal = EventCalendar::new(4);
        cal.schedule_unit(3, 5.0, EventKind::UnitBoundary);
        cal.schedule_unit(1, 5.0, EventKind::IdleWake);
        cal.schedule_unit(0, 7.0, EventKind::UnitBoundary);
        cal.schedule_epoch(5.0);
        cal.schedule_stats(5.0);
        cal.schedule_unit(2, 3.0, EventKind::UnitBoundary);
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| cal.pop())
            .map(|e| (e.at_ms, e.unit))
            .collect();
        // 3.0 first; at 5.0 stats (rank 0) before epoch (rank 1) before
        // units 1 and 3 by index — idle wakes and boundaries tie equally.
        assert_eq!(
            order,
            vec![
                (3.0, 2),
                (5.0, usize::MAX),
                (5.0, usize::MAX),
                (5.0, 1),
                (5.0, 3),
                (7.0, 0)
            ]
        );
    }

    #[test]
    fn unit_bookkeeping_tracks_schedules_and_pops() {
        let mut cal = EventCalendar::new(2);
        assert_eq!(cal.scheduled_units(), 0);
        assert!(cal.min_unit_time_ms().is_infinite());
        cal.schedule_unit(0, 10.0, EventKind::UnitBoundary);
        cal.schedule_unit(1, 4.0, EventKind::IdleWake);
        cal.schedule_stats(1.0);
        assert_eq!(cal.scheduled_units(), 2);
        assert_eq!(cal.min_unit_time_ms(), 4.0);
        let stats = cal.pop().expect("stats first");
        assert_eq!(stats.kind, EventKind::StatsSample);
        assert_eq!(cal.scheduled_units(), 2, "stats pops leave units alone");
        let wake = cal.pop().expect("unit 1");
        assert_eq!(wake.unit, 1);
        assert_eq!(cal.scheduled_units(), 1);
        assert_eq!(cal.min_unit_time_ms(), 10.0);
        cal.schedule_unit(1, 12.0, EventKind::UnitBoundary);
        assert_eq!(cal.min_unit_time_ms(), 10.0);
        assert_eq!(cal.peak_len(), 3);
    }

    #[test]
    fn fault_entries_rank_between_control_plane_and_units() {
        let mut cal = EventCalendar::new(2);
        cal.schedule_unit(0, 5.0, EventKind::UnitBoundary);
        cal.schedule_fault(5.0, 0);
        cal.schedule_epoch(5.0);
        cal.schedule_stats(5.0);
        let kinds: Vec<EventKind> = std::iter::from_fn(|| cal.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::StatsSample,
                EventKind::EpochBoundary,
                EventKind::Fault,
                EventKind::UnitBoundary
            ]
        );
    }

    #[test]
    fn fault_entries_survive_resets_and_do_not_keep_the_loop_alive() {
        let mut cal = EventCalendar::new(2);
        cal.schedule_unit(0, 2.0, EventKind::UnitBoundary);
        cal.schedule_fault(4.0, 7);
        cal.reset_units(1);
        assert_eq!(cal.scheduled_units(), 0, "faults alone keep nothing alive");
        let ev = cal.pop().expect("fault survives the reset");
        assert_eq!((ev.kind, ev.unit), (EventKind::Fault, 7));
    }

    #[test]
    fn unschedule_unit_kills_the_live_entry_lazily() {
        let mut cal = EventCalendar::new(2);
        cal.schedule_unit(0, 3.0, EventKind::UnitBoundary);
        cal.schedule_unit(1, 4.0, EventKind::IdleWake);
        cal.unschedule_unit(0);
        assert_eq!(cal.scheduled_units(), 1);
        assert!(!cal.is_unit_scheduled(0));
        let ev = cal.pop().expect("unit 1 still live");
        assert_eq!(ev.unit, 1);
        assert!(cal.pop().is_none());
    }

    #[test]
    fn reset_units_invalidates_stale_entries_lazily() {
        let mut cal = EventCalendar::new(3);
        for u in 0..3 {
            cal.schedule_unit(u, 2.0 + u as f64, EventKind::UnitBoundary);
        }
        cal.schedule_stats(2.5);
        cal.reset_units(2);
        assert_eq!(cal.scheduled_units(), 0);
        cal.schedule_unit(0, 9.0, EventKind::UnitBoundary);
        cal.schedule_unit(1, 9.0, EventKind::UnitBoundary);
        // The stale 2.0/3.0/4.0 entries are skipped; the stats entry
        // survives the reset.
        let stats = cal.pop().expect("stats survives");
        assert_eq!(stats.kind, EventKind::StatsSample);
        assert_eq!(stats.at_ms, 2.5);
        let first = cal.pop().expect("fresh unit 0");
        assert_eq!((first.at_ms, first.unit), (9.0, 0));
        let second = cal.pop().expect("fresh unit 1");
        assert_eq!((second.at_ms, second.unit), (9.0, 1));
        assert!(cal.pop().is_none());
        assert_eq!(cal.scheduled_units(), 0);
    }
}
