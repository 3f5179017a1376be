//! The indexed shared request queue of the cluster scheduler.
//!
//! PR 7 made *time advance* O(log units); this module makes scheduling
//! *decisions* sub-linear too. A [`ReadyQueue`] keeps three synchronized
//! views of the waiting requests:
//!
//! * `entries` — a flat `Vec<Request>` that evolves through exactly the
//!   same `push` / `swap_remove` sequence the historical scheduler used,
//!   so every consumer that folds over the raw slice (admission-control
//!   backlog scans, telemetry lookups, reports) observes bit-identical
//!   state;
//! * per-model **fresh buckets** — `BTreeSet`s of `(ordering-key bits,
//!   id)` over the never-preempted requests (`steps_done == 0`). Fresh
//!   requests enter the queue only once admissible (the cluster releases
//!   an arrival when a unit clock passes it, and event time is
//!   non-decreasing), and they carry no resume-affinity penalty, so a
//!   bucket's ascending order *is* the policy's admission order on every
//!   unit and its first element is the bucket minimum — no visibility or
//!   penalty filtering needed;
//! * a **deferred list** — the ids of previously preempted requests
//!   (`steps_done > 0`), whose `ready_ms` visibility and per-unit
//!   migration-penalty shift genuinely vary by unit. The list is bounded
//!   by how many requests were ever simultaneously parked (a slice of the
//!   in-flight set, not of the backlog), so the scheduler scans it
//!   linearly.
//!
//! Float ordering keys are mapped to order-preserving `u64` bits
//! ([`key_bits`]), making the BTree order identical to the scheduler's
//! historical `(f64, u64)` `partial_cmp` order for the finite keys the
//! [`crate::policy::SchedulerPolicy::ordering_key`] contract requires.
//! The queue also maintains a [`BacklogIndex`] — per-model Fenwick trees
//! over queued DDIM steps in deadline order — so deadline-feasibility
//! admission projects its competing backlog in O(log n) per arrival
//! instead of rescanning the queue.

use std::collections::BTreeSet;

use exion_model::config::ModelKind;

use crate::hash::FxHashMap;
use crate::request::Request;
use crate::scheduler::SchedContext;

/// Maps a finite ordering key to bits whose unsigned order equals the
/// float's `total_cmp` order (which agrees with `partial_cmp` for the
/// finite, non-NaN keys the policy contract requires, up to the
/// irrelevant `-0.0`/`+0.0` distinction).
#[inline]
pub fn key_bits(key: f64) -> u64 {
    let b = key.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`key_bits`].
#[inline]
pub fn key_from_bits(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits ^ 0x8000_0000_0000_0000)
    } else {
        f64::from_bits(!bits)
    }
}

/// Where one queued request lives: its slot in the flat entry vector and
/// the cached ordering-key bits its bucket entry is filed under (cached so
/// removal — and the [`ReadyQueue::rekey`] hook — never depends on the
/// policy still returning the old key).
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    idx: usize,
    key: u64,
}

/// The shared scheduler queue, indexed for O(log n) decisions. See the
/// module docs for the invariants tying the three views together.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    entries: Vec<Request>,
    slot_of: FxHashMap<u64, SlotInfo>,
    fresh: FxHashMap<ModelKind, BTreeSet<(u64, u64)>>,
    deferred: Vec<u64>,
    backlog: BacklogIndex,
    // Reusable scratch of the scheduler's boundary path (candidate keys,
    // removal slots, per-model seed minima): admit takes them, works, and
    // puts them back, so steady-state boundaries allocate nothing.
    pub(crate) scratch_keys: Vec<(f64, u64)>,
    pub(crate) scratch_slots: Vec<usize>,
    pub(crate) scratch_seed: Vec<(ModelKind, (f64, u64))>,
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding `requests` in order (test/bench convenience).
    pub fn from_requests(requests: Vec<Request>, ctx: &SchedContext) -> Self {
        let mut q = Self::new();
        for r in requests {
            q.push(r, ctx);
        }
        q
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The flat entry slice, in the exact historical queue order.
    pub fn as_slice(&self) -> &[Request] {
        &self.entries
    }

    /// Iterates the waiting requests in flat-slice order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.entries.iter()
    }

    /// The queued request of `id`, if any (O(1)).
    pub fn get(&self, id: u64) -> Option<&Request> {
        self.slot_of.get(&id).map(|s| &self.entries[s.idx])
    }

    /// The flat-slice slot of queued request `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not queued.
    pub(crate) fn slot(&self, id: u64) -> usize {
        self.slot_of.get(&id).expect("queued request id").idx
    }

    /// Enqueues `r`, filing it under its policy ordering key.
    ///
    /// Contract: a never-preempted request (`steps_done == 0`) may only be
    /// enqueued once admissible — `r.ready_ms` (its arrival) at or before
    /// every boundary clock that will observe the queue from now on. The
    /// cluster guarantees this by releasing arrivals in event-time order.
    pub fn push(&mut self, r: Request, ctx: &SchedContext) {
        let key = key_bits(ctx.policy.ordering_key(&r).0);
        let idx = self.entries.len();
        let prev = self.slot_of.insert(r.id, SlotInfo { idx, key });
        debug_assert!(prev.is_none(), "request {} enqueued twice", r.id);
        if r.steps_done == 0 {
            self.fresh.entry(r.model).or_default().insert((key, r.id));
        } else {
            self.deferred.push(r.id);
        }
        self.backlog.enqueue(&r);
        self.entries.push(r);
    }

    /// Removes and returns the request in flat slot `slot`, preserving the
    /// historical `swap_remove` slot evolution.
    pub(crate) fn take_slot(&mut self, slot: usize, _ctx: &SchedContext) -> Request {
        let r = self.entries.swap_remove(slot);
        let info = self
            .slot_of
            .remove(&r.id)
            .expect("every entry has a slot record");
        debug_assert_eq!(info.idx, slot, "slot map out of sync");
        if let Some(moved) = self.entries.get(slot) {
            self.slot_of
                .get_mut(&moved.id)
                .expect("moved entry has a slot record")
                .idx = slot;
        }
        if r.steps_done == 0 {
            let bucket = self
                .fresh
                .get_mut(&r.model)
                .expect("fresh entries have a bucket");
            let removed = bucket.remove(&(info.key, r.id));
            debug_assert!(removed, "fresh entry filed under its cached key");
        } else {
            let pos = self
                .deferred
                .iter()
                .position(|&id| id == r.id)
                .expect("deferred entries are listed");
            self.deferred.swap_remove(pos);
        }
        self.backlog.dequeue(&r);
        r
    }

    /// Removes and returns the queued request `id` (test convenience).
    pub fn remove_by_id(&mut self, id: u64, ctx: &SchedContext) -> Option<Request> {
        let slot = self.slot_of.get(&id)?.idx;
        Some(self.take_slot(slot, ctx))
    }

    /// The "key changed" hook of the
    /// [`crate::policy::SchedulerPolicy::ordering_key`] contract: re-files
    /// `id` under its current ordering key after an in-place mutation
    /// changed it. The built-in policies key on arrival/deadline, which
    /// never change while queued, so the cluster never needs this — it
    /// exists for custom policies with mutable keys.
    pub fn rekey(&mut self, id: u64, ctx: &SchedContext) {
        let Some(info) = self.slot_of.get(&id).copied() else {
            return;
        };
        let r = &self.entries[info.idx];
        let key = key_bits(ctx.policy.ordering_key(r).0);
        if key == info.key {
            return;
        }
        if r.steps_done == 0 {
            let bucket = self
                .fresh
                .get_mut(&r.model)
                .expect("fresh entries have a bucket");
            bucket.remove(&(info.key, id));
            bucket.insert((key, id));
        }
        self.slot_of.get_mut(&id).expect("checked above").key = key;
    }

    /// Clears the resume-affinity hint of queued request `id` (its parked
    /// latent was evicted to DRAM, so no unit is preferable anymore).
    pub(crate) fn clear_parked_hint(&mut self, id: u64) {
        if let Some(info) = self.slot_of.get(&id) {
            self.entries[info.idx].parked_on = None;
        }
    }

    /// Takes every queued request's resume-affinity hint, appending
    /// `(id, home instance)` pairs to `out` — the epoch-migration teardown
    /// that both clears the hints and tells the cluster which latent
    /// copies to discard.
    pub(crate) fn take_parked_homes(&mut self, out: &mut Vec<(u64, usize)>) {
        for r in &mut self.entries {
            if let Some(home) = r.parked_on.take() {
                out.push((r.id, home));
            }
        }
    }

    /// Per-model fresh buckets (ascending ordering-key order). Buckets may
    /// be empty once drained; callers skip those naturally via `first()`.
    pub(crate) fn fresh_buckets(&self) -> impl Iterator<Item = (ModelKind, &BTreeSet<(u64, u64)>)> {
        self.fresh.iter().map(|(&k, v)| (k, v))
    }

    /// The fresh bucket of `model`, if any requests of it ever queued.
    pub(crate) fn fresh_bucket(&self, model: ModelKind) -> Option<&BTreeSet<(u64, u64)>> {
        self.fresh.get(&model)
    }

    /// Ids of the previously preempted (visibility- and penalty-carrying)
    /// requests, in no particular order.
    pub(crate) fn deferred_ids(&self) -> &[u64] {
        &self.deferred
    }

    /// Earliest `ready_ms` among the deferred requests (`+inf` when none).
    /// Fresh requests are admissible by construction, so when a unit goes
    /// idle with work still queued, the deferred minimum *is* the queue
    /// minimum — the idle-wake scan the cluster used to fold over the
    /// whole queue.
    pub(crate) fn min_deferred_ready_ms(&self) -> f64 {
        self.deferred
            .iter()
            .map(|id| self.entries[self.slot(*id)].ready_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// The incremental deadline-backlog projection over the queued set.
    pub fn backlog(&self) -> &BacklogIndex {
        &self.backlog
    }

    /// Invariant sweep (tests and debug asserts): every id filed exactly
    /// once, every fresh entry under its current key, slots in sync.
    #[cfg_attr(not(any(test, debug_assertions)), allow(dead_code))]
    pub(crate) fn debug_check(&self, ctx: &SchedContext) {
        assert_eq!(self.entries.len(), self.slot_of.len());
        let filed: usize = self.fresh.values().map(|b| b.len()).sum();
        assert_eq!(filed + self.deferred.len(), self.entries.len());
        for (idx, r) in self.entries.iter().enumerate() {
            let info = self.slot_of[&r.id];
            assert_eq!(info.idx, idx);
            if r.steps_done == 0 {
                assert_eq!(info.key, key_bits(ctx.policy.ordering_key(r).0));
                assert!(self.fresh[&r.model].contains(&(info.key, r.id)));
            } else {
                assert!(self.deferred.contains(&r.id));
            }
        }
    }
}

impl std::ops::Index<usize> for ReadyQueue {
    type Output = Request;

    fn index(&self, idx: usize) -> &Request {
        &self.entries[idx]
    }
}

impl<'a> IntoIterator for &'a ReadyQueue {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Incremental deadline-ordered backlog projection: per model, a Fenwick
/// tree over queued DDIM steps in deadline order, updated O(log n) per
/// enqueue/dequeue. [`crate::admission::AdmissionView::competing_backlog_ms`]
/// answers "how many queued steps compete with a deadline-`d` arrival"
/// as a prefix sum instead of rescanning the queue.
///
/// Deadlines of a model arrive non-decreasing in real traces (per-kind
/// SLO scaling over non-decreasing arrival times), so positions are
/// append-only; if a caller ever enqueues out of deadline order the
/// model's index marks itself non-monotone and queries decline
/// (`None`), letting the view fall back to the exact scan.
#[derive(Debug, Clone, Default)]
pub struct BacklogIndex {
    models: Vec<ModelBacklog>,
}

#[derive(Debug, Clone)]
struct ModelBacklog {
    kind: ModelKind,
    /// Deadline per position, in first-enqueue order.
    deadlines: Vec<f64>,
    /// Fenwick tree (1-based) over currently queued steps per position.
    tree: Vec<u64>,
    /// Request id -> 1-based Fenwick position.
    position: FxHashMap<u64, usize>,
    monotone: bool,
}

impl ModelBacklog {
    fn new(kind: ModelKind) -> Self {
        Self {
            kind,
            deadlines: Vec::new(),
            tree: Vec::new(),
            position: FxHashMap::default(),
            monotone: true,
        }
    }

    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Appends a new position holding `steps`, seeding the Fenwick node
    /// that covers it with the range sum it is responsible for.
    fn append(&mut self, deadline: f64, steps: u64) -> usize {
        let i = self.tree.len() + 1;
        if let Some(&last) = self.deadlines.last() {
            if deadline < last {
                self.monotone = false;
            }
        }
        self.deadlines.push(deadline);
        let lower = i - (i & i.wrapping_neg());
        let node = self.prefix(i - 1) - self.prefix(lower) + steps;
        self.tree.push(node);
        i
    }
}

impl BacklogIndex {
    fn model_mut(&mut self, kind: ModelKind) -> &mut ModelBacklog {
        if let Some(i) = self.models.iter().position(|m| m.kind == kind) {
            &mut self.models[i]
        } else {
            self.models.push(ModelBacklog::new(kind));
            self.models.last_mut().expect("just pushed")
        }
    }

    fn enqueue(&mut self, r: &Request) {
        let steps = r.steps_left() as u64;
        let deadline = r.deadline_ms();
        let id = r.id;
        let m = self.model_mut(r.model);
        match m.position.get(&id) {
            Some(&pos) => m.add(pos, steps as i64),
            None => {
                let pos = m.append(deadline, steps);
                m.position.insert(id, pos);
            }
        }
    }

    fn dequeue(&mut self, r: &Request) {
        let steps = r.steps_left() as u64;
        let m = self.model_mut(r.model);
        let pos = *m.position.get(&r.id).expect("dequeued requests enqueued");
        m.add(pos, -(steps as i64));
    }

    /// Queued steps of `kind` with deadline at or before `deadline_ms`,
    /// or `None` when the model's deadlines were not enqueued in order
    /// (callers fall back to the exact scan).
    pub fn queued_steps_through(&self, kind: ModelKind, deadline_ms: f64) -> Option<u64> {
        match self.models.iter().find(|m| m.kind == kind) {
            None => Some(0),
            Some(m) if !m.monotone => None,
            Some(m) => {
                let hi = m.deadlines.partition_point(|d| *d <= deadline_ms);
                Some(m.prefix(hi))
            }
        }
    }

    /// The per-model queued-step sums competing with a deadline-`d`
    /// arrival, in deterministic first-enqueue model order, or `None`
    /// when any model's index declined (non-monotone deadlines).
    pub fn competing_steps(
        &self,
        deadline_ms: f64,
        mut per_model: impl FnMut(ModelKind, u64),
    ) -> Option<()> {
        for m in &self.models {
            if !m.monotone {
                return None;
            }
            let hi = m.deadlines.partition_point(|d| *d <= deadline_ms);
            per_model(m.kind, m.prefix(hi));
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::policy::Edf;
    use exion_model::config::ModelConfig;
    use exion_sim::config::HwConfig;
    use exion_sim::partition::Interconnect;
    use exion_sim::perf::SimAblation;
    use std::sync::Arc;

    fn ctx() -> SchedContext {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        SchedContext::build(
            Arc::new(Edf),
            8,
            &[ModelKind::Mld, ModelKind::Mdm],
            &mut cost,
            Interconnect::default(),
            |k| ModelConfig::for_kind(k).shrunk(1, 12),
            None,
        )
    }

    #[test]
    fn key_bits_preserve_order() {
        let keys = [
            f64::NEG_INFINITY,
            -1e300,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            2.25,
            7.0e12,
            f64::INFINITY,
        ];
        for w in keys.windows(2) {
            assert!(key_bits(w[0]) <= key_bits(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &k in &keys {
            assert_eq!(
                key_from_bits(key_bits(k)).total_cmp(&k),
                std::cmp::Ordering::Equal
            );
        }
    }

    #[test]
    fn push_take_keeps_views_in_sync() {
        let ctx = ctx();
        let mut q = ReadyQueue::new();
        for i in 0..6u64 {
            let kind = if i % 2 == 0 {
                ModelKind::Mld
            } else {
                ModelKind::Mdm
            };
            let mut r = Request::new(i, kind, i as f64, 100.0 + i as f64, 12);
            if i >= 4 {
                r.steps_done = 3; // deferred class
            }
            q.push(r, &ctx);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.deferred_ids().len(), 2);
        assert_eq!(q.get(3).map(|r| r.model), Some(ModelKind::Mdm));
        // EDF bucket order: ascending deadline within the model.
        let mld: Vec<u64> = q
            .fresh_bucket(ModelKind::Mld)
            .expect("bucket")
            .iter()
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(mld, vec![0, 2]);
        // swap_remove semantics on the flat slice.
        let r = q.take_slot(0, &ctx);
        assert_eq!(r.id, 0);
        assert_eq!(q[0].id, 5, "last entry swapped into the hole");
        assert_eq!(q.slot(5), 0);
        q.debug_check(&ctx);
        let r = q.remove_by_id(4, &ctx).expect("queued");
        assert_eq!(r.id, 4);
        assert_eq!(q.deferred_ids(), &[5]);
        q.debug_check(&ctx);
    }

    #[test]
    fn backlog_prefix_matches_scan() {
        let ctx = ctx();
        let mut q = ReadyQueue::new();
        for i in 0..32u64 {
            let kind = if i % 3 == 0 {
                ModelKind::Mdm
            } else {
                ModelKind::Mld
            };
            q.push(
                Request::new(i, kind, i as f64, 50.0 + 2.0 * i as f64, 12),
                &ctx,
            );
        }
        // Dequeue a few to exercise removals.
        for id in [0u64, 7, 20] {
            q.remove_by_id(id, &ctx).expect("queued");
        }
        for d in [0.0, 60.0, 77.0, 1e9] {
            for kind in [ModelKind::Mld, ModelKind::Mdm] {
                let scan: u64 = q
                    .iter()
                    .filter(|r| r.model == kind && r.deadline_ms() <= d)
                    .map(|r| r.steps_left() as u64)
                    .sum();
                assert_eq!(
                    q.backlog().queued_steps_through(kind, d),
                    Some(scan),
                    "kind {kind:?} deadline {d}"
                );
            }
        }
    }

    #[test]
    fn backlog_declines_on_non_monotone_deadlines() {
        let ctx = ctx();
        let mut q = ReadyQueue::new();
        q.push(Request::new(0, ModelKind::Mld, 0.0, 100.0, 12), &ctx);
        q.push(Request::new(1, ModelKind::Mld, 0.0, 50.0, 12), &ctx);
        assert_eq!(
            q.backlog().queued_steps_through(ModelKind::Mld, 1e9),
            None,
            "out-of-order deadlines must fall back to the scan"
        );
        assert_eq!(
            q.backlog().queued_steps_through(ModelKind::Mdm, 1e9),
            Some(0)
        );
    }

    #[test]
    fn rekey_refiles_under_the_new_key() {
        let ctx = ctx();
        let mut q = ReadyQueue::new();
        q.push(Request::new(0, ModelKind::Mld, 0.0, 100.0, 12), &ctx);
        q.push(Request::new(1, ModelKind::Mld, 0.0, 200.0, 12), &ctx);
        let first = |q: &ReadyQueue| {
            q.fresh_bucket(ModelKind::Mld)
                .and_then(|b| b.iter().next().map(|&(_, id)| id))
        };
        assert_eq!(first(&q), Some(0));
        // Mutate the key in place (tests only — slo_ms moves the EDF
        // deadline), then notify the queue.
        let slot = q.slot(0);
        q.entries[slot].slo_ms = 500.0;
        q.rekey(0, &ctx);
        assert_eq!(first(&q), Some(1));
        q.debug_check(&ctx);
    }
}
