//! Seeded fault injection: chaos plans, failure semantics, and the
//! checkpoint policy that bounds what a crash can destroy.
//!
//! A [`FaultPlan`] is a deterministic, plain-data list of failure events
//! the cluster loop schedules on its event calendar before the run
//! starts. Three failure kinds are modeled:
//!
//! - [`FaultKind::UnitCrash`] — a whole scheduling unit (a replica or an
//!   entire gang) dies and rejoins after a repair delay. In-flight
//!   latents on the unit are lost unless previously checkpointed to
//!   DRAM; lost requests become the `lost` terminal outcome, priced as
//!   SLO misses. The rejoined unit starts with a cold GSC, so recovery
//!   cost shows up as refill bytes.
//! - [`FaultKind::MemberLoss`] — one gang member dies. A gang missing a
//!   member stalls at its next iteration boundary: the surviving members
//!   cannot run a TP/PP iteration alone, so the whole unit's capacity is
//!   out until repair. Latents held on the dead member are lost;
//!   latents parked on surviving members are written back to DRAM (a
//!   priced transfer) and their requests stay queued with steps intact.
//! - [`FaultKind::LinkDegrade`] — the interconnect loses bandwidth for a
//!   window: every collective and migration transfer in the window pays
//!   the slowdown, and the window closes on its own.
//!
//! Plans are hand-built ([`FaultPlan::crash`] etc.) or seed-derived
//! ([`FaultPlan::seeded`] draws MTBF-exponential crash times from the same
//! generator family as the arrival streams).
//!
//! An empty plan is the default and is free: it schedules nothing,
//! draws no randomness, and leaves every fixed-seed golden byte-identical.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::exp_sample;

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Injection time (ms into the run).
    pub at_ms: f64,
    /// What fails.
    pub kind: FaultKind,
}

/// The failure kinds the injector models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A whole scheduling unit crashes and rejoins `repair_ms` later.
    ///
    /// `unit` is taken modulo the live fleet size at injection time, so
    /// one plan stays valid across re-plans that change the fleet shape.
    UnitCrash {
        /// Target scheduling unit (modulo fleet size at fire time).
        unit: usize,
        /// Repair delay before the unit rejoins (ms).
        repair_ms: f64,
    },
    /// One gang member dies; the whole gang stalls until repair.
    ///
    /// On a replica unit (gang of one) this is equivalent to
    /// [`FaultKind::UnitCrash`].
    MemberLoss {
        /// Target scheduling unit (modulo fleet size at fire time).
        unit: usize,
        /// Member slot within the gang (modulo gang width).
        member: usize,
        /// Repair delay before the unit rejoins (ms).
        repair_ms: f64,
    },
    /// The interconnect loses bandwidth for a window.
    LinkDegrade {
        /// Bandwidth divisor while degraded (e.g. `4.0` = quarter speed).
        slowdown: f64,
        /// Window length (ms); the link restores itself afterwards.
        duration_ms: f64,
    },
}

impl FaultKind {
    /// Short label for telemetry instants and fault records.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::UnitCrash { .. } => "unit-crash",
            FaultKind::MemberLoss { .. } => "member-loss",
            FaultKind::LinkDegrade { .. } => "link-degrade",
        }
    }
}

/// Opt-in periodic latent checkpointing: every `every_steps` completed
/// denoising steps, each running request's latent is spilled to DRAM (a
/// priced transfer on its unit's clock). A crash then loses only the
/// steps since the last checkpoint instead of the whole generation: the
/// request requeues with `steps_done` rolled back to the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint cadence in denoising steps (≥ 1).
    pub every_steps: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `every_steps` completed steps.
    pub fn every(every_steps: usize) -> Self {
        CheckpointPolicy { every_steps }
    }
}

/// A deterministic schedule of failures for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled failures, in any order (the calendar sorts them).
    pub events: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The no-fault plan (the default): schedules nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a whole-unit crash at `at_ms`, repaired `repair_ms` later.
    pub fn crash(mut self, at_ms: f64, unit: usize, repair_ms: f64) -> Self {
        self.events.push(FaultSpec {
            at_ms,
            kind: FaultKind::UnitCrash { unit, repair_ms },
        });
        self
    }

    /// Adds a single-member loss at `at_ms`, repaired `repair_ms` later.
    pub fn member_loss(mut self, at_ms: f64, unit: usize, member: usize, repair_ms: f64) -> Self {
        self.events.push(FaultSpec {
            at_ms,
            kind: FaultKind::MemberLoss {
                unit,
                member,
                repair_ms,
            },
        });
        self
    }

    /// Adds an interconnect degradation window starting at `at_ms`.
    pub fn link_degrade(mut self, at_ms: f64, slowdown: f64, duration_ms: f64) -> Self {
        self.events.push(FaultSpec {
            at_ms,
            kind: FaultKind::LinkDegrade {
                slowdown,
                duration_ms,
            },
        });
        self
    }

    /// Seed-derived chaos: draws crash times from an exponential
    /// inter-failure distribution with mean `mtbf_ms` (the same inversion
    /// sampler as the arrival streams), rotating the target unit, until
    /// the horizon is exhausted or `max_faults` crashes are placed. Each
    /// crash repairs after `repair_ms`. Deterministic in `seed`.
    pub fn seeded(
        seed: u64,
        horizon_ms: f64,
        mtbf_ms: f64,
        repair_ms: f64,
        max_faults: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::empty();
        let mut t = 0.0;
        for _ in 0..max_faults {
            t += exp_sample(&mut rng, mtbf_ms.max(1e-9));
            if t >= horizon_ms {
                break;
            }
            // Spread targets across the fleet deterministically; the
            // cluster reduces modulo the live fleet size at fire time.
            let unit = rng.random_range(0usize..usize::MAX);
            plan = plan.crash(t, unit, repair_ms);
        }
        plan
    }

    /// Checks the plan is well-formed: finite non-negative times, finite
    /// positive repair delays, slowdowns > 1, positive durations.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.at_ms.is_finite() || ev.at_ms < 0.0 {
                return Err(format!(
                    "fault {i}: at_ms {} is not finite and non-negative",
                    ev.at_ms
                ));
            }
            match ev.kind {
                FaultKind::UnitCrash { repair_ms, .. }
                | FaultKind::MemberLoss { repair_ms, .. } => {
                    if !repair_ms.is_finite() || repair_ms < 0.0 {
                        return Err(format!(
                            "fault {i}: repair_ms {repair_ms} is not finite and non-negative"
                        ));
                    }
                }
                FaultKind::LinkDegrade {
                    slowdown,
                    duration_ms,
                } => {
                    if !slowdown.is_finite() || slowdown <= 1.0 {
                        return Err(format!(
                            "fault {i}: slowdown {slowdown} must be finite and > 1"
                        ));
                    }
                    if !duration_ms.is_finite() || duration_ms <= 0.0 {
                        return Err(format!(
                            "fault {i}: duration_ms {duration_ms} must be finite and positive"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_free() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::empty(), FaultPlan::default());
        assert!(FaultPlan::empty().validate().is_ok());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(11, 4_000.0, 800.0, 500.0, 4);
        let b = FaultPlan::seeded(11, 4_000.0, 800.0, 500.0, 4);
        assert_eq!(a, b);
        assert!(a.events.len() <= 4);
        for ev in &a.events {
            assert!(ev.at_ms > 0.0 && ev.at_ms < 4_000.0);
            assert!(matches!(ev.kind, FaultKind::UnitCrash { .. }));
        }
        let c = FaultPlan::seeded(12, 4_000.0, 800.0, 500.0, 4);
        assert_ne!(a, c, "different seeds should move the crash times");
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        assert!(FaultPlan::empty()
            .crash(f64::NAN, 0, 1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::empty().crash(-1.0, 0, 1.0).validate().is_err());
        assert!(FaultPlan::empty()
            .link_degrade(10.0, 1.0, 5.0)
            .validate()
            .is_err());
        assert!(FaultPlan::empty()
            .link_degrade(10.0, 2.0, 0.0)
            .validate()
            .is_err());
        assert!(FaultPlan::empty()
            .member_loss(10.0, 0, 1, f64::INFINITY)
            .validate()
            .is_err());
    }
}
