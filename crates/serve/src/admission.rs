//! The admission half of the pluggable serving control plane: load
//! shedding and quality degradation at enqueue time.
//!
//! Without admission control every arrival is eventually served, so past
//! the saturation knee queues grow without bound and *goodput collapses*:
//! completions still happen, but almost none inside their SLO. An
//! [`AdmissionController`] is consulted once per arrival — before the
//! request enters the shared queue — and may [`AdmissionDecision::Accept`]
//! it, [`AdmissionDecision::Shed`] it (a priced refusal: the shed counts
//! as an SLO miss in the report's attainment, it just never consumes
//! machine time), or [`AdmissionDecision::Degrade`] it to a reduced DDIM
//! step budget — a cheaper quality tier that still meets the deadline.
//! With [`DeadlineFeasibility`] installed, goodput *saturates* at the
//! knee instead of collapsing past it.
//!
//! Controllers are registered by name (see [`AdmissionRegistry`]), so
//! configs stay serde-able as controller names — `"admit-all"` and
//! `"deadline"` ship built in.

use std::fmt;
use std::sync::Arc;

use exion_model::config::ModelKind;

use crate::placement::Gang;
use crate::queue::BacklogIndex;
use crate::request::Request;
use crate::scheduler::SchedContext;

/// What admission control decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue the request untouched.
    Accept,
    /// Refuse the request outright: it never enters the queue. The
    /// refusal is priced — the report counts it as a definite SLO miss.
    Shed,
    /// Enqueue a cheaper variant limited to `steps` DDIM iterations (the
    /// quality-tier knob): clamped to `1..=full_steps` by
    /// [`Request::degrade_to`].
    Degrade {
        /// The reduced step budget.
        steps: usize,
    },
}

/// The read-only cluster view an [`AdmissionController`] decides against:
/// the shared queue, every unit's in-flight work, and the per-model
/// pricing constants of the scheduling context.
pub struct AdmissionView<'a> {
    /// The decision instant (ms): the clock of the unit releasing the
    /// arrival into the queue — at or shortly after the arrival time.
    now_ms: f64,
    queue: &'a [Request],
    units: &'a [Gang],
    ctx: &'a SchedContext,
    /// Incremental per-model backlog projection (Fenwick prefix sums over
    /// queued steps in deadline order), when the caller maintains one —
    /// turns the competing-backlog scan into an O(models × log queue)
    /// lookup. `None` (or a declined index) falls back to the exact scan.
    backlog: Option<&'a BacklogIndex>,
}

impl<'a> AdmissionView<'a> {
    pub(crate) fn new(
        now_ms: f64,
        queue: &'a [Request],
        units: &'a [Gang],
        ctx: &'a SchedContext,
    ) -> Self {
        Self {
            now_ms,
            queue,
            units,
            ctx,
            backlog: None,
        }
    }

    /// Attaches the caller's incrementally maintained [`BacklogIndex`] so
    /// deadline projections stop re-scanning the queue per arrival.
    pub(crate) fn with_index(mut self, backlog: &'a BacklogIndex) -> Self {
        self.backlog = Some(backlog);
        self
    }

    /// The instant the decision is made at (ms): the releasing unit's
    /// clock, up to one iteration past the arrival time.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Scheduling units (replicas + gangs) serving the queue.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Requests waiting in the shared queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Steady-state per-iteration latency of `kind` at the deployment's
    /// full batch size (ms) — the same service currency SLOs scale, so
    /// feasibility projections and deadlines stay consistent.
    pub fn batched_step_ms(&self, kind: ModelKind) -> f64 {
        self.ctx.info(kind).batched_step_ms
    }

    /// Total projected backlog (ms): the summed remaining work of every
    /// queued and running request at the full-batch amortized per-row
    /// rate, spread over the cluster's units. Deliberately simple — an
    /// M/M/c-style estimate, not a schedule simulation — so controllers
    /// stay O(queue) per arrival. Deadline-aware controllers use
    /// [`Self::competing_backlog_ms`] instead.
    pub fn backlog_ms(&self) -> f64 {
        let per_row = |r: &Request| {
            let info = self.ctx.info(r.model);
            r.steps_left() as f64 * info.batched_step_ms / self.ctx.max_batch.max(1) as f64
        };
        let queued: f64 = self.queue.iter().map(per_row).sum();
        let drains: f64 = self
            .units
            .iter()
            .map(|unit| {
                unit.leader()
                    .running
                    .iter()
                    .map(|r| r.steps_left() as f64 * self.ctx.info(r.model).batched_step_ms)
                    .fold(0.0, f64::max)
            })
            .sum();
        (queued + drains) / self.units.len().max(1) as f64
    }

    /// Like [`Self::backlog_ms`], but projecting the wait of an arrival of
    /// `kind` due at `deadline_ms` the way the continuous batcher will
    /// actually serve it:
    ///
    /// * only queued requests with earlier-or-equal deadlines compete —
    ///   under EDF a tight-deadline arrival jumps the lax backlog, so
    ///   charging it the *total* queue would shed feasible traffic;
    /// * a running batch's rows advance *concurrently*, so a unit's drain
    ///   is the slowest member's remaining schedule at the full-batch
    ///   iteration rate — not the summed rows — and the arrival only waits
    ///   for the *best* unit, not all of them;
    /// * a unit that is idle, or already running `kind` with a free batch
    ///   slot, can take the arrival at the next iteration boundary
    ///   (continuous batching joins mid-generation), so it contributes no
    ///   drain at all.
    pub fn competing_backlog_ms(&self, kind: ModelKind, deadline_ms: f64) -> f64 {
        let per_row = |r: &Request| {
            let info = self.ctx.info(r.model);
            r.steps_left() as f64 * info.batched_step_ms / self.ctx.max_batch.max(1) as f64
        };
        // With a backlog index attached, the competing work is a per-model
        // Fenwick prefix (the step counts are integers, so the per-model
        // sums are exact); without one — or if any model's deadlines
        // arrived out of order and its index declined — the exact scan.
        let indexed: Option<f64> = self.backlog.and_then(|idx| {
            let mut sum = 0.0;
            let max_batch = self.ctx.max_batch.max(1) as f64;
            idx.competing_steps(deadline_ms, |m, steps| {
                sum += steps as f64 * self.ctx.info(m).batched_step_ms / max_batch;
            })?;
            Some(sum)
        });
        let queued: f64 = indexed.unwrap_or_else(|| {
            self.queue
                .iter()
                .filter(|q| q.deadline_ms() <= deadline_ms)
                .map(per_row)
                .sum()
        });
        let best_drain = self
            .units
            .iter()
            .map(|unit| {
                let leader = unit.leader();
                let joinable = leader.is_idle()
                    || (leader.active_model == Some(kind)
                        && leader.running.len() < self.ctx.max_batch);
                if joinable {
                    0.0
                } else {
                    leader
                        .running
                        .iter()
                        .map(|r| r.steps_left() as f64 * self.ctx.info(r.model).batched_step_ms)
                        .fold(0.0, f64::max)
                }
            })
            .fold(f64::INFINITY, f64::min);
        let best_drain = if best_drain.is_finite() {
            best_drain
        } else {
            0.0
        };
        queued / self.units.len().max(1) as f64 + best_drain
    }
}

/// A pluggable admission controller, consulted once per arrival at
/// enqueue time. Implementations must be deterministic pure functions of
/// their inputs (the cluster replays identically for a fixed trace).
pub trait AdmissionController: fmt::Debug + Send + Sync {
    /// Registry/report name (e.g. `"deadline"`).
    fn name(&self) -> &str;

    /// The decision for arrival `r` given the cluster state `view`.
    fn decide(&self, r: &Request, view: &AdmissionView<'_>) -> AdmissionDecision;
}

/// Accept every arrival (the historical behavior): saturation shows up as
/// unbounded queueing delay and collapsing goodput rather than refusals.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn name(&self) -> &str {
        "admit-all"
    }

    fn decide(&self, _r: &Request, _view: &AdmissionView<'_>) -> AdmissionDecision {
        AdmissionDecision::Accept
    }
}

/// Shed or degrade arrivals whose projected completion at the current
/// queue depth misses their SLO.
///
/// The projection prices the request's own service and the backlog ahead
/// of it at the full-batch steady-state rate (the same currency its SLO
/// was scaled from). When the full DDIM schedule cannot finish inside the
/// deadline, the controller first tries a *degraded* variant — the largest
/// step budget that still fits, as long as it keeps at least
/// [`Self::min_steps_frac`] of the schedule (quality floor) — and only
/// sheds when even the floor variant would miss.
///
/// The projection is an estimate, not a schedule simulation, and it is
/// deliberately conservative: during bursts it sheds a little traffic
/// that would have squeaked inside its SLO, costing a few percent of
/// goodput *below* the knee in exchange for a bounded tail — and past the
/// knee it is the difference between goodput saturating and collapsing
/// (see `serve_sweep::admission_comparison`).
#[derive(Debug, Clone, Copy)]
pub struct DeadlineFeasibility {
    /// Smallest fraction of the full DDIM schedule a degraded variant may
    /// run (the quality floor below which refusal beats degradation).
    pub min_steps_frac: f64,
}

impl Default for DeadlineFeasibility {
    fn default() -> Self {
        Self {
            min_steps_frac: 0.5,
        }
    }
}

impl AdmissionController for DeadlineFeasibility {
    fn name(&self) -> &str {
        "deadline"
    }

    fn decide(&self, r: &Request, view: &AdmissionView<'_>) -> AdmissionDecision {
        let step_ms = view.batched_step_ms(r.model);
        if step_ms <= 0.0 {
            return AdmissionDecision::Accept;
        }
        let wait_ms = view.competing_backlog_ms(r.model, r.deadline_ms());
        // Slack remaining at the decision instant: the decision fires when
        // the releasing unit's clock passes the arrival, so part of the SLO
        // may already have elapsed — budgeting the full `slo_ms` here would
        // admit variants that are already infeasible.
        let slack_ms = r.deadline_ms() - view.now_ms();
        if slack_ms <= 0.0 {
            return AdmissionDecision::Shed;
        }
        if wait_ms + r.total_steps as f64 * step_ms <= slack_ms {
            return AdmissionDecision::Accept;
        }
        // The largest step budget that still fits the deadline behind the
        // projected backlog.
        let budget = ((slack_ms - wait_ms) / step_ms).floor();
        let floor = (self.min_steps_frac * r.total_steps as f64).ceil().max(1.0);
        if budget >= floor {
            AdmissionDecision::Degrade {
                steps: (budget as usize).min(r.total_steps),
            }
        } else {
            AdmissionDecision::Shed
        }
    }
}

/// The built-in admission-controller names, in presentation order.
pub const BUILTIN_ADMISSION_NAMES: [&str; 2] = ["admit-all", "deadline"];

/// A name-keyed registry of admission controllers — the serde-able
/// configuration surface (configs and env switches carry controller
/// *names*) and the extension point for custom controllers. Registration
/// order is iteration order, and re-registering a name replaces the entry
/// in place (the semantics live in the crate-private `NamedRegistry`,
/// shared with the policy registry).
#[derive(Debug, Clone, Default)]
pub struct AdmissionRegistry {
    inner: crate::registry::NamedRegistry<dyn AdmissionController>,
}

impl AdmissionRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The registry holding the built-in controllers.
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        reg.register(Arc::new(AdmitAll));
        reg.register(Arc::new(DeadlineFeasibility::default()));
        reg
    }

    /// Registers `controller` under its own [`AdmissionController::name`],
    /// replacing any previous entry of that name.
    pub fn register(&mut self, controller: Arc<dyn AdmissionController>) {
        self.inner
            .register(controller.name().to_string(), controller);
    }

    /// Resolves `name` to its controller.
    pub fn get(&self, name: &str) -> Option<Arc<dyn AdmissionController>> {
        self.inner.get(name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.inner.names()
    }

    /// Every registered controller, in registration order.
    pub fn all(&self) -> Vec<Arc<dyn AdmissionController>> {
        self.inner.all()
    }
}

/// Resolves `name` against the built-in registry.
pub fn by_name(name: &str) -> Option<Arc<dyn AdmissionController>> {
    AdmissionRegistry::builtin().get(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::policy::Fcfs;
    use exion_model::config::ModelConfig;
    use exion_sim::config::HwConfig;
    use exion_sim::partition::Interconnect;
    use exion_sim::perf::SimAblation;

    fn tiny(kind: ModelKind) -> ModelConfig {
        ModelConfig::for_kind(kind).shrunk(1, 12)
    }

    fn ctx() -> SchedContext {
        let mut cost = CostModel::new(HwConfig::exion4(), SimAblation::All);
        SchedContext::build(
            Arc::new(Fcfs),
            8,
            &[ModelKind::Mld],
            &mut cost,
            Interconnect::default(),
            tiny,
            |_| None,
        )
    }

    #[test]
    fn admit_all_accepts_everything() {
        let ctx = ctx();
        let queue: Vec<Request> = Vec::new();
        let units: Vec<Gang> = Vec::new();
        let view = AdmissionView::new(0.0, &queue, &units, &ctx);
        let r = Request::new(0, ModelKind::Mld, 0.0, 0.0, 12);
        assert_eq!(AdmitAll.decide(&r, &view), AdmissionDecision::Accept);
    }

    #[test]
    fn deadline_controller_accepts_degrades_and_sheds() {
        let ctx = ctx();
        let units: Vec<Gang> = Vec::new();
        let queue: Vec<Request> = Vec::new();
        let view = AdmissionView::new(0.0, &queue, &units, &ctx);
        let controller = DeadlineFeasibility::default();
        let step_ms = view.batched_step_ms(ModelKind::Mld);
        assert!(step_ms > 0.0);

        // Ample slack: the full schedule fits.
        let easy = Request::new(0, ModelKind::Mld, 0.0, 100.0 * 12.0 * step_ms, 12);
        assert_eq!(controller.decide(&easy, &view), AdmissionDecision::Accept);

        // Slack for ~8 of 12 steps (≥ the 50% floor): degraded, and the
        // budget itself is deadline-feasible.
        let tight = Request::new(1, ModelKind::Mld, 0.0, 8.4 * step_ms, 12);
        match controller.decide(&tight, &view) {
            AdmissionDecision::Degrade { steps } => {
                assert!((6..12).contains(&steps), "budget {steps}");
                assert!(steps as f64 * step_ms <= tight.slo_ms, "budget must fit");
            }
            other => panic!("expected degrade, got {other:?}"),
        }

        // Slack below the quality floor: shed.
        let hopeless = Request::new(2, ModelKind::Mld, 0.0, 2.0 * step_ms, 12);
        assert_eq!(controller.decide(&hopeless, &view), AdmissionDecision::Shed);
    }

    #[test]
    fn backlog_defers_the_projection() {
        let ctx = ctx();
        let units: Vec<Gang> = Vec::new();
        // A deep queue of *tight-deadline* requests ahead of the arrival:
        // they will be served first under deadline ordering, so they count
        // against the projection.
        let queue: Vec<Request> = (0..64)
            .map(|i| Request::new(i, ModelKind::Mld, 0.0, 0.0, 12))
            .collect();
        let view = AdmissionView::new(0.0, &queue, &units, &ctx);
        assert!(view.backlog_ms() > 0.0);
        let controller = DeadlineFeasibility::default();
        let step_ms = view.batched_step_ms(ModelKind::Mld);
        // Would be comfortably feasible on an empty cluster...
        let r = Request::new(99, ModelKind::Mld, 0.0, 13.0 * step_ms, 12);
        let empty_queue: Vec<Request> = Vec::new();
        let empty = AdmissionView::new(0.0, &empty_queue, &units, &ctx);
        assert_eq!(controller.decide(&r, &empty), AdmissionDecision::Accept);
        // ...but the competing backlog pushes it past the deadline.
        assert_ne!(controller.decide(&r, &view), AdmissionDecision::Accept);
        // Lax backlog (later deadlines) does not compete under EDF: the
        // same queue with huge slack leaves the arrival feasible.
        let lax: Vec<Request> = (0..64)
            .map(|i| Request::new(i, ModelKind::Mld, 0.0, 1e9, 12))
            .collect();
        let lax_view = AdmissionView::new(0.0, &lax, &units, &ctx);
        assert!(
            lax_view.competing_backlog_ms(ModelKind::Mld, r.deadline_ms()) < lax_view.backlog_ms()
        );
        assert_eq!(controller.decide(&r, &lax_view), AdmissionDecision::Accept);
    }

    #[test]
    fn registry_resolves_builtin_names() {
        let reg = AdmissionRegistry::builtin();
        assert_eq!(reg.names(), BUILTIN_ADMISSION_NAMES.to_vec());
        for name in BUILTIN_ADMISSION_NAMES {
            assert_eq!(reg.get(name).expect("builtin").name(), name);
            assert_eq!(by_name(name).expect("builtin").name(), name);
        }
        assert!(by_name("no-such-controller").is_none());
    }
}
