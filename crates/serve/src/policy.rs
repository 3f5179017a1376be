//! The scheduling half of the pluggable serving control plane.
//!
//! Scheduling behavior is no longer a closed enum with hard-coded branches
//! in the batcher: a [`SchedulerPolicy`] is a trait object that answers the
//! three questions continuous batching asks at every iteration boundary —
//! *in what order do queued requests admit* ([`SchedulerPolicy::ordering_key`]),
//! *may new members join the running batch right now*
//! ([`SchedulerPolicy::admits_join`]), and *which queued requests may make
//! the running batch yield* ([`SchedulerPolicy::preempt_key_bound`] /
//! [`SchedulerPolicy::swap_key_bound`]). The key is a function of the
//! request alone; the gate and the bounds read a read-only
//! [`SchedSnapshot`] of the unit's state. The four historical policies
//! (FCFS, EDF, preemptive EDF, sparsity-aware) are ordinary
//! implementations that [`by_name`] resolves from their names, and
//! downstream crates plug in their own implementations as plain types
//! ([`crate::ServeConfigBuilder::policy`]) without touching the scheduler.

use std::fmt;
use std::sync::Arc;

use exion_model::config::ModelKind;

use crate::request::Request;

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

    /// The admission-ordering key of `r`: smaller admits first. The
    /// indexed scheduler queue files each request under this key when it
    /// is pushed, so the key must be a finite pure function of the request
    /// alone that stays fixed while the request sits queued (arrival time
    /// and deadline qualify; anything depending on the unit's state does
    /// not). The batcher breaks ties by request id and adds the resume
    /// migration penalty on units that do not hold a parked latent.
    fn ordering_key(&self, r: &Request) -> f64;

    /// Batch-join gating: whether new members may join the running batch
    /// at this boundary. The sparsity-aware policy closes the gate
    /// mid-period so co-batched requests stay phase-aligned; most policies
    /// leave it open.
    fn admits_join(&self, _snap: &SchedSnapshot<'_>) -> bool {
        true
    }

    /// The whole preemption rule. `Some(bound)`: a visible queued request
    /// of another model whose [`Self::ordering_key`] lies below `bound`
    /// parks the running batch, if the batcher's deadline-feasibility
    /// thrash guard passes it, and the most urgent such request's model
    /// takes the unit. `None` (the default) never preempts.
    fn preempt_key_bound(&self, _snap: &SchedSnapshot<'_>) -> Option<f64> {
        None
    }

    /// The whole full-batch swap rule, analogous to
    /// [`Self::preempt_key_bound`]: with `Some(bound)`, a visible feasible
    /// same-model request keyed below `bound` displaces the worst-deadline
    /// member of a full batch. `None` (the default) never swaps.
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

    fn ordering_key(&self, r: &Request) -> f64 {
        r.arrival_ms
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

    fn ordering_key(&self, r: &Request) -> f64 {
        r.deadline_ms()
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

    fn ordering_key(&self, r: &Request) -> f64 {
        r.deadline_ms()
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

    fn ordering_key(&self, r: &Request) -> f64 {
        r.arrival_ms
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
        assert!(Fcfs.ordering_key(&early_arrival) < Fcfs.ordering_key(&urgent));
        assert!(Edf.ordering_key(&urgent) < Edf.ordering_key(&early_arrival));
        assert_eq!(
            PreemptiveEdf.ordering_key(&urgent),
            Edf.ordering_key(&urgent)
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
        // Running deadlines 500 and 2 000 ms: the preempt bound is the
        // earliest, the swap bound the worst.
        let running = [
            Request::new(0, ModelKind::StableDiffusion, 0.0, 500.0, 50),
            Request::new(1, ModelKind::StableDiffusion, 0.0, 2_000.0, 50),
        ];
        let s = snap(&running, 0);
        for p in builtin_policies() {
            let name = p.name();
            let preemptive = name == "preemptive-edf";
            assert_eq!(p.preempt_key_bound(&s).is_some(), preemptive, "{name}");
            assert_eq!(p.swap_key_bound(&s).is_some(), preemptive, "{name}");
        }
        let below = |bound: Option<f64>, r: &Request| {
            bound.is_some_and(|b| PreemptiveEdf.ordering_key(r) < b)
        };
        let urgent = Request::new(2, ModelKind::Mld, 1.0, 10.0, 50);
        let middling = Request::new(3, ModelKind::Mld, 1.0, 1_000.0, 50);
        let lax = Request::new(4, ModelKind::Mld, 1.0, 10_000.0, 50);
        assert!(below(PreemptiveEdf.preempt_key_bound(&s), &urgent));
        assert!(!below(PreemptiveEdf.preempt_key_bound(&s), &middling));
        assert!(below(PreemptiveEdf.swap_key_bound(&s), &middling));
        assert!(!below(PreemptiveEdf.swap_key_bound(&s), &lax));
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
