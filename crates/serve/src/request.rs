//! Generation requests and their lifecycle records.

use exion_model::config::ModelKind;

/// Monotone request identifier, assigned in arrival order.
pub type RequestId = u64;

/// One in-flight generation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Identifier (also the arrival rank).
    pub id: RequestId,
    /// Which benchmark model the request targets.
    pub model: ModelKind,
    /// Arrival time (ms since simulation start).
    pub arrival_ms: f64,
    /// Latency SLO measured from arrival (ms).
    pub slo_ms: f64,
    /// Denoising steps the request needs in total (possibly reduced by a
    /// [`Self::degrade_to`] admission decision).
    pub total_steps: usize,
    /// The full DDIM step schedule the request originally asked for.
    pub full_steps: usize,
    /// Whether admission degraded the request to a reduced step budget.
    pub degraded: bool,
    /// Denoising steps already executed.
    pub steps_done: usize,
    /// When the request was first admitted into a running batch (ms);
    /// `None` while queued (or parked after a preemption, in which case
    /// the first-admission stamp is retained).
    pub admitted_ms: Option<f64>,
    /// Times the request was preempted (parked at an iteration boundary).
    pub preemptions: u32,
    /// Earliest time the request may (re-)enter a batch (ms): the arrival
    /// time for fresh requests, the park-completion time after a
    /// preemption. Keeps multi-instance admission causal — an instance
    /// whose clock trails the parking instance's cannot resume a request
    /// before it was parked.
    pub ready_ms: f64,
    /// The instance whose GSC holds this request's parked latent (`None`
    /// for fresh requests or DRAM-spilled parks). Resume-affinity hint:
    /// scheduling on the parking instance reloads the latent for free,
    /// anywhere else pays a DRAM migration read — so foreign instances
    /// deprioritize the request by exactly that cost.
    pub parked_on: Option<usize>,
    /// The step count of the request's last DRAM latent checkpoint
    /// (`None` = never checkpointed). Written by the opt-in periodic
    /// checkpoint policy; consulted only when a fault kills the unit
    /// holding the request — a checkpointed request requeues with
    /// `steps_done` rolled back to this count instead of being lost.
    pub checkpointed_steps: Option<usize>,
}

impl Request {
    /// A fresh queued request.
    pub fn new(
        id: RequestId,
        model: ModelKind,
        arrival_ms: f64,
        slo_ms: f64,
        total_steps: usize,
    ) -> Self {
        Self {
            id,
            model,
            arrival_ms,
            slo_ms,
            total_steps,
            full_steps: total_steps,
            degraded: false,
            steps_done: 0,
            admitted_ms: None,
            preemptions: 0,
            ready_ms: arrival_ms,
            parked_on: None,
            checkpointed_steps: None,
        }
    }

    /// Degrades the request to a reduced DDIM step budget (an admission
    /// [`crate::admission::AdmissionDecision::Degrade`] decision): the
    /// cheaper variant still meets the deadline at the cost of a lower
    /// quality tier. Clamped to `1..=full_steps`; a budget at or above the
    /// full schedule leaves the request untouched.
    pub fn degrade_to(&mut self, steps: usize) {
        let steps = steps.clamp(1, self.full_steps);
        if steps < self.full_steps {
            self.total_steps = steps;
            self.degraded = true;
        }
    }

    /// Absolute completion deadline (ms).
    pub fn deadline_ms(&self) -> f64 {
        self.arrival_ms + self.slo_ms
    }

    /// Remaining denoising steps.
    pub fn steps_left(&self) -> usize {
        self.total_steps.saturating_sub(self.steps_done)
    }

    /// Whether every denoising step has run.
    pub fn is_done(&self) -> bool {
        self.steps_done >= self.total_steps
    }
}

/// The immutable record of one finished request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request identifier.
    pub id: RequestId,
    /// Benchmark model.
    pub model: ModelKind,
    /// Arrival time (ms).
    pub arrival_ms: f64,
    /// First admission into a batch (ms).
    pub admitted_ms: f64,
    /// Completion time (ms).
    pub finished_ms: f64,
    /// Latency SLO from arrival (ms).
    pub slo_ms: f64,
    /// Index of the hardware instance that completed the request.
    pub instance: usize,
    /// Times the request was preempted over its lifetime.
    pub preemptions: u32,
    /// DDIM steps the request executed (the degraded budget when admission
    /// reduced it, the full schedule otherwise).
    pub steps: usize,
    /// Whether admission degraded the request's step budget.
    pub degraded: bool,
}

impl Completion {
    /// End-to-end latency: queueing plus service (ms).
    pub fn latency_ms(&self) -> f64 {
        self.finished_ms - self.arrival_ms
    }

    /// Time spent queued before first admission (ms).
    pub fn queue_ms(&self) -> f64 {
        self.admitted_ms - self.arrival_ms
    }

    /// Whether the request met its SLO.
    pub fn within_slo(&self) -> bool {
        self.latency_ms() <= self.slo_ms
    }
}

/// The record of one request refused (shed) at enqueue by admission
/// control — the priced refusal: sheds count as SLO misses in the
/// report's attainment, they just never consume machine time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Request identifier.
    pub id: RequestId,
    /// Benchmark model (per-class shed-rate accounting).
    pub model: ModelKind,
    /// When the refusal was issued (the decision instant — the releasing
    /// unit's clock, at or shortly after arrival; ms).
    pub at_ms: f64,
}

/// The record of one request destroyed by a fault: its latent lived on a
/// unit (or gang member) that died, and no DRAM checkpoint existed to
/// resume from. Lost requests are the third terminal outcome next to
/// completions and sheds — they count as SLO misses, and conservation
/// extends to `served + shed + lost == arrivals`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LostRecord {
    /// Request identifier.
    pub id: RequestId,
    /// Benchmark model (per-class lost-rate accounting).
    pub model: ModelKind,
    /// When the fault destroyed the request (ms).
    pub at_ms: f64,
    /// Denoising steps of progress destroyed with the latent.
    pub steps_lost: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_accessors() {
        let mut r = Request::new(3, ModelKind::Mld, 10.0, 40.0, 50);
        assert_eq!(r.deadline_ms(), 50.0);
        assert_eq!(r.steps_left(), 50);
        assert!(!r.is_done());
        r.steps_done = 50;
        assert!(r.is_done());
        assert_eq!(r.steps_left(), 0);
    }

    #[test]
    fn degrade_clamps_and_flags() {
        let mut r = Request::new(0, ModelKind::Mld, 0.0, 100.0, 50);
        r.degrade_to(60); // at/above the full schedule: untouched
        assert!(!r.degraded);
        assert_eq!(r.total_steps, 50);
        r.degrade_to(30);
        assert!(r.degraded);
        assert_eq!(r.total_steps, 30);
        assert_eq!(r.full_steps, 50);
        assert_eq!(r.steps_left(), 30);
        let mut floor = Request::new(1, ModelKind::Mld, 0.0, 100.0, 50);
        floor.degrade_to(0); // clamped to at least one step
        assert_eq!(floor.total_steps, 1);
        assert!(floor.degraded);
    }

    #[test]
    fn completion_latency_split() {
        let c = Completion {
            id: 1,
            model: ModelKind::Dit,
            arrival_ms: 5.0,
            admitted_ms: 9.0,
            finished_ms: 30.0,
            slo_ms: 26.0,
            instance: 0,
            preemptions: 0,
            steps: 50,
            degraded: false,
        };
        assert_eq!(c.latency_ms(), 25.0);
        assert_eq!(c.queue_ms(), 4.0);
        assert!(c.within_slo());
    }
}
