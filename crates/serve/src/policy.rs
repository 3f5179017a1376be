//! The scheduling half of the pluggable serving control plane.
//!
//! Scheduling behavior is no longer a closed enum with hard-coded branches
//! in the batcher: a [`SchedulerPolicy`] is a trait object that answers the
//! three questions continuous batching asks at every iteration boundary —
//! *in what order do queued requests admit* ([`SchedulerPolicy::admission_key`]),
//! *may new members join the running batch right now*
//! ([`SchedulerPolicy::admits_join`]), and *should the running batch yield
//! to a queued request* ([`SchedulerPolicy::preempt_for`] /
//! [`SchedulerPolicy::swap_for`]) — against a read-only [`SchedSnapshot`]
//! of the unit's state. The four historical policies (FCFS, EDF,
//! preemptive EDF, sparsity-aware) are ordinary implementations that
//! [`by_name`] resolves from their names, and downstream crates plug in
//! their own implementations as plain types
//! ([`crate::ServeConfigBuilder::policy`]) without touching the scheduler.

use std::fmt;
use std::sync::Arc;

use exion_model::config::ModelKind;

use crate::request::Request;

/// Admission-ordering key: smaller admits first. The second component is
/// the request id tie-break that keeps every ordering total and
/// deterministic.
pub type PolicyKey = (f64, u64);

/// A read-only view of one scheduling unit's state at an iteration
/// boundary — everything a [`SchedulerPolicy`] may base a decision on.
/// Policies never see the mutable scheduler internals (GSC, clocks,
/// counters); the batcher owns those and prices the mechanism (migration
/// penalties, thrash guards, latent parking) itself.
#[derive(Debug, Clone, Copy)]
pub struct SchedSnapshot<'a> {
    /// Instance id of the unit's leader.
    pub instance: usize,
    /// The unit's clock (ms).
    pub now_ms: f64,
    /// The model whose batch is running (sticky after drain).
    pub active_model: Option<ModelKind>,
    /// The running batch, in deterministic id order.
    pub running: &'a [Request],
    /// Maximum batch rows of the unit.
    pub max_batch: usize,
    /// Steps the running members sit past their last FFN-Reuse dense
    /// boundary (0 at a boundary or when idle).
    pub steps_into_period: usize,
}

impl SchedSnapshot<'_> {
    /// Free batch rows at this boundary.
    pub fn free_slots(&self) -> usize {
        self.max_batch.saturating_sub(self.running.len())
    }

    /// The tightest running deadline (`+inf` when idle): the bar a
    /// cross-model candidate must beat to justify parking the whole batch.
    pub fn earliest_running_deadline(&self) -> f64 {
        self.running
            .iter()
            .map(Request::deadline_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// The loosest running deadline (`-inf` when idle): the member a
    /// same-model candidate displaces in a full-batch swap.
    pub fn worst_running_deadline(&self) -> f64 {
        self.running
            .iter()
            .map(Request::deadline_ms)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A pluggable scheduling policy of the continuous batcher.
///
/// Implementations must be deterministic pure functions of their inputs:
/// the cluster event loop replays identically for a fixed trace, and the
/// test suite asserts bit-identical reports per seed.
pub trait SchedulerPolicy: fmt::Debug + Send + Sync {
    /// Registry/report name (e.g. `"edf"`).
    fn name(&self) -> &str;

    /// The *stable* admission-ordering key of `r`: smaller admits first,
    /// ties broken by the id component. This is the key the indexed
    /// scheduler queue precomputes and buckets requests under, so it must
    /// be a pure function of the request alone — finite, and immutable
    /// for as long as the request sits queued (arrival time and deadline
    /// qualify; anything depending on the unit's state does not — that
    /// belongs in [`Self::admission_key`]'s snapshot, or in the batcher's
    /// own migration-penalty shift). A policy whose key for a queued
    /// request *does* change must notify the queue through
    /// [`crate::queue::ReadyQueue::rekey`].
    fn ordering_key(&self, r: &Request) -> PolicyKey;

    /// Admission-ordering key of `r` on the unit `snap` describes. The
    /// default delegates to [`Self::ordering_key`]; overriding it with a
    /// snapshot-dependent key forfeits the indexed fast path's exactness,
    /// so overrides must keep it equal to `ordering_key` for queued
    /// ordering (the built-ins all use the default).
    fn admission_key(&self, r: &Request, _snap: &SchedSnapshot<'_>) -> PolicyKey {
        self.ordering_key(r)
    }

    /// Batch-join gating: whether new members may join the running batch
    /// at this boundary. The sparsity-aware policy closes the gate
    /// mid-period so co-batched requests stay phase-aligned; most policies
    /// leave it open.
    fn admits_join(&self, _snap: &SchedSnapshot<'_>) -> bool {
        true
    }

    /// Whether the policy may park running requests at iteration
    /// boundaries at all (cheap capability probe; the per-candidate
    /// decisions are [`Self::preempt_for`] and [`Self::swap_for`]).
    fn preemptive(&self) -> bool {
        false
    }

    /// Preemption decision: should the running batch be parked so the
    /// cross-model `candidate` can take the unit? The batcher only asks
    /// for visible candidates and additionally applies its deadline-
    /// feasibility thrash guard; the policy supplies the urgency rule.
    fn preempt_for(&self, _candidate: &Request, _snap: &SchedSnapshot<'_>) -> bool {
        false
    }

    /// Full-batch swap decision: should the worst running member yield its
    /// slot to the same-model `candidate`?
    fn swap_for(&self, _candidate: &Request, _snap: &SchedSnapshot<'_>) -> bool {
        false
    }

    /// Optional fast-path contract for [`Self::preempt_for`]: when this
    /// returns `Some(bound)`, the batcher assumes
    /// `preempt_for(r, snap) == (ordering_key(r).0 < bound)` for every
    /// queued `r`, letting it early-exit an ascending bucket scan at the
    /// first key at or past the bound instead of probing each candidate.
    /// Return `None` (the default) when no such threshold exists; the
    /// batcher then falls back to per-candidate probes.
    fn preempt_key_bound(&self, _snap: &SchedSnapshot<'_>) -> Option<f64> {
        None
    }

    /// Optional fast-path contract for [`Self::swap_for`], analogous to
    /// [`Self::preempt_key_bound`]:
    /// `swap_for(r, snap) == (ordering_key(r).0 < bound)`.
    fn swap_key_bound(&self, _snap: &SchedSnapshot<'_>) -> Option<f64> {
        None
    }
}

/// First-come-first-served on arrival time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulerPolicy for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn ordering_key(&self, r: &Request) -> PolicyKey {
        (r.arrival_ms, r.id)
    }
}

/// SLO-aware earliest-deadline-first, non-preemptive: an urgent request
/// still waits for the running batch to drain before the unit can switch
/// models.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf;

impl SchedulerPolicy for Edf {
    fn name(&self) -> &str {
        "edf"
    }

    fn ordering_key(&self, r: &Request) -> PolicyKey {
        (r.deadline_ms(), r.id)
    }
}

/// EDF with iteration-boundary preemption: when a queued request's
/// deadline beats every running member's, the batcher parks the running
/// requests' denoising latents (GSC if they fit, DRAM at a priced
/// write-back otherwise) and switches immediately; a same-model request
/// beating the worst member swaps into a full batch. DDIM step counts are
/// conserved by construction — the counter travels with the request.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptiveEdf;

impl SchedulerPolicy for PreemptiveEdf {
    fn name(&self) -> &str {
        "preemptive-edf"
    }

    fn ordering_key(&self, r: &Request) -> PolicyKey {
        (r.deadline_ms(), r.id)
    }

    fn preemptive(&self) -> bool {
        true
    }

    fn preempt_for(&self, candidate: &Request, snap: &SchedSnapshot<'_>) -> bool {
        candidate.deadline_ms() < snap.earliest_running_deadline()
    }

    fn swap_for(&self, candidate: &Request, snap: &SchedSnapshot<'_>) -> bool {
        candidate.deadline_ms() < snap.worst_running_deadline()
    }

    fn preempt_key_bound(&self, snap: &SchedSnapshot<'_>) -> Option<f64> {
        Some(snap.earliest_running_deadline())
    }

    fn swap_key_bound(&self, snap: &SchedSnapshot<'_>) -> Option<f64> {
        Some(snap.worst_running_deadline())
    }
}

/// FCFS ordering, but admission into a non-empty batch waits for the
/// batch's FFN-Reuse dense boundary, so every member stays in the same
/// dense/sparse phase and sparse iterations are never forfeited to a
/// straggler.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparsityAware;

impl SchedulerPolicy for SparsityAware {
    fn name(&self) -> &str {
        "sparsity-aware"
    }

    fn ordering_key(&self, r: &Request) -> PolicyKey {
        (r.arrival_ms, r.id)
    }

    fn admits_join(&self, snap: &SchedSnapshot<'_>) -> bool {
        snap.steps_into_period == 0
    }
}

/// The built-in policy names, in presentation order (sweeps iterate this).
pub const BUILTIN_POLICY_NAMES: [&str; 4] = ["fcfs", "edf", "preemptive-edf", "sparsity-aware"];

/// Resolves a built-in policy name (one of [`BUILTIN_POLICY_NAMES`]).
pub fn by_name(name: &str) -> Option<Arc<dyn SchedulerPolicy>> {
    match name {
        "fcfs" => Some(Arc::new(Fcfs)),
        "edf" => Some(Arc::new(Edf)),
        "preemptive-edf" => Some(Arc::new(PreemptiveEdf)),
        "sparsity-aware" => Some(Arc::new(SparsityAware)),
        _ => None,
    }
}

/// The four built-in policies, in presentation order.
pub fn builtin_policies() -> Vec<Arc<dyn SchedulerPolicy>> {
    BUILTIN_POLICY_NAMES
        .iter()
        .map(|name| by_name(name).expect("every built-in name resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;

    fn snap<'a>(running: &'a [Request], steps_into_period: usize) -> SchedSnapshot<'a> {
        SchedSnapshot {
            instance: 0,
            now_ms: 0.0,
            active_model: running.first().map(|r| r.model),
            running,
            max_batch: 8,
            steps_into_period,
        }
    }

    #[test]
    fn edf_orders_by_deadline_not_arrival() {
        let early_arrival = Request::new(0, ModelKind::Mld, 0.0, 100.0, 50);
        let urgent = Request::new(1, ModelKind::Mld, 10.0, 20.0, 50);
        let s = snap(&[], 0);
        assert!(Fcfs.admission_key(&early_arrival, &s) < Fcfs.admission_key(&urgent, &s));
        assert!(Edf.admission_key(&urgent, &s) < Edf.admission_key(&early_arrival, &s));
        assert_eq!(
            PreemptiveEdf.admission_key(&urgent, &s),
            Edf.admission_key(&urgent, &s)
        );
    }

    #[test]
    fn sparsity_aware_gates_on_boundary() {
        let batch = [Request::new(0, ModelKind::Mld, 0.0, 1e9, 50)];
        assert!(SparsityAware.admits_join(&snap(&batch, 0)));
        assert!(!SparsityAware.admits_join(&snap(&batch, 3)));
        assert!(Fcfs.admits_join(&snap(&batch, 3)));
        assert!(Edf.admits_join(&snap(&batch, 3)));
        assert!(PreemptiveEdf.admits_join(&snap(&batch, 3)));
    }

    #[test]
    fn only_preemptive_edf_preempts() {
        for p in builtin_policies() {
            assert_eq!(p.preemptive(), p.name() == "preemptive-edf", "{}", p.name());
        }
        let running = [Request::new(0, ModelKind::StableDiffusion, 0.0, 500.0, 50)];
        let urgent = Request::new(1, ModelKind::Mld, 1.0, 10.0, 50);
        let lax = Request::new(2, ModelKind::Mld, 1.0, 10_000.0, 50);
        let s = snap(&running, 0);
        assert!(PreemptiveEdf.preempt_for(&urgent, &s));
        assert!(!PreemptiveEdf.preempt_for(&lax, &s));
        assert!(!Edf.preempt_for(&urgent, &s));
        assert!(PreemptiveEdf.swap_for(&urgent, &s));
        assert!(!Fcfs.swap_for(&urgent, &s));
    }

    #[test]
    fn registry_resolves_builtin_names() {
        let names: Vec<String> = builtin_policies()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert_eq!(names, BUILTIN_POLICY_NAMES);
        for name in BUILTIN_POLICY_NAMES {
            assert_eq!(by_name(name).expect("builtin").name(), name);
        }
        assert!(by_name("no-such-policy").is_none());
    }
}
