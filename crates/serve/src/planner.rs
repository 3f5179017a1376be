//! The placement planner: workload-driven auto-placement of replicas vs
//! TP/PP gangs.
//!
//! The planner is the control-plane tier between the cost model and the
//! scheduler: an offline optimizer that turns (model mix, load forecast,
//! hardware, instance budget) into a [`Placement`].
//!
//! [`PlacementPlanner::plan`] enumerates every placement the budget admits
//! — `r` whole-model replicas plus `g` gangs of each candidate
//! [`PartitionStrategy`] (TP=2/4, PP=2/4 by default), including mixed
//! clusters — prunes the GSC-infeasible ones ([`gsc_feasible`]), scores
//! the survivors against the forecast, and keeps the top
//! [`PlannerConfig::beam_width`].
//!
//! Every unit type is priced one way. A replica is the one-member unit of
//! the [`PartitionStrategy::Replicated`] plan and a gang the unit of its
//! strategy's plan, and each (strategy, model) pair gets one projection:
//! the model's [`PartitionPlan`] (read from the cost model's plan memo,
//! [`CostModel::plan`], so no pass cuts a model twice over a run) and its
//! uncontended full-batch and
//! batch-1 generations ([`CostModel::generation_cost`]) at the members'
//! steady-state residency ([`PartitionPlan::min_member_residency`]; for a
//! replica that is the whole model's partial residency, since a tenant
//! bigger than the GSC never gets warmer). A candidate adds one term of
//! its own: its units of each type contend for the board fabric
//! ([`PartitionPlan::collective_ms_contended`] — concurrent gangs on a
//! ring share its links; a replica has no collective, so its surcharge is
//! exactly zero). From the projections the score builds the same
//! currencies the cluster runs on:
//!
//! * **capacity** — per unit type, the mix-weighted harmonic unit
//!   throughput at the full batch times the type's unit count, summed
//!   over the types;
//! * **SLO attainment** — per-model projected latency (service at the
//!   load-implied batch occupancy, routed across unit types by capacity
//!   share, plus an M/M/c-flavored queueing term) against the same SLOs
//!   the cluster scales from the warm replica service time;
//! * **latency pressure** — a small tie-break penalty so that when two
//!   placements both meet every SLO (light load), the one with the
//!   shorter generations wins — exactly the regime where a TP gang's
//!   halved critical path beats replicas, before the replicas' independent
//!   queues win the throughput race past the goodput crossover.
//!
//! The online half — epoch re-planning against realized load with a priced
//! migration — lives in the cluster loop (`ServeConfigBuilder::
//! auto_placement`); this module only decides.

use exion_model::config::ModelConfig;
use exion_sim::config::HwConfig;
use exion_sim::partition::{Interconnect, PartitionPlan, PartitionStrategy};
use exion_sim::perf::IterationCost;
use exion_sim::residency::latent_state_bytes;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::placement::Placement;
use crate::trace::WorkloadMix;

/// Weight of the latency-pressure tie-break in the score: large enough to
/// separate placements that both meet every SLO, small enough never to
/// override a real goodput difference.
const LATENCY_PRESSURE_WEIGHT: f64 = 0.1;

/// Queueing blow-up factor charged to a candidate driven at or past its
/// capacity (the projection's stand-in for an unbounded queue).
const OVERLOAD_LATENCY_FACTOR: f64 = 10.0;

/// Configuration of the placement planner: the instance budget, the gang
/// strategies worth considering, and the online re-planning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Hardware instances the placement may occupy in total.
    pub budget: usize,
    /// Candidate gang strategies (replicas are always enumerated).
    pub strategies: Vec<PartitionStrategy>,
    /// The board fabric gang members would communicate over.
    pub interconnect: Interconnect,
    /// The deployment's per-unit batch bound (must match the serving
    /// config's; `ServeConfigBuilder::auto_placement` syncs it).
    pub max_batch: usize,
    /// Candidates kept (and reported) after scoring — the beam.
    pub beam_width: usize,
    /// Online re-planning cadence (ms of simulated time).
    pub epoch_ms: f64,
    /// Relative forecast-vs-realized divergence that triggers a re-plan
    /// (e.g. 0.35 = re-plan when realized load strays 35% from the
    /// forecast). Hysteresis: below the threshold the current placement
    /// and forecast are kept, so noise does not churn the cluster.
    pub hysteresis: f64,
}

impl PlannerConfig {
    /// The default planner over `budget` instances: TP=2/4 and PP=2/4
    /// candidate cuts, ring interconnect, batch 8, beam 8, 1 s epochs,
    /// 35% hysteresis.
    pub fn new(budget: usize) -> Self {
        Self {
            budget: budget.max(1),
            strategies: vec![
                PartitionStrategy::Tensor { ways: 2 },
                PartitionStrategy::Tensor { ways: 4 },
                PartitionStrategy::Pipeline { stages: 2 },
                PartitionStrategy::Pipeline { stages: 4 },
            ],
            interconnect: Interconnect::default(),
            max_batch: 8,
            beam_width: 8,
            epoch_ms: 1_000.0,
            hysteresis: 0.35,
        }
    }

    /// Replaces the board fabric candidates are priced over.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Replaces the online re-planning knobs.
    pub fn with_replanning(mut self, epoch_ms: f64, hysteresis: f64) -> Self {
        self.epoch_ms = epoch_ms.max(1.0);
        self.hysteresis = hysteresis.max(0.0);
        self
    }
}

/// One scored placement candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateScore {
    /// The placement scored.
    pub placement: Placement,
    /// Human-readable summary (`replicated x2`, `tp2 gang x1`, …).
    pub label: String,
    /// Residency-adjusted cluster capacity (requests/s).
    pub capacity_rps: f64,
    /// Mix-weighted projected request latency at the forecast load (ms).
    pub latency_ms: f64,
    /// Mix-weighted projected SLO attainment at the forecast load.
    pub slo_attainment: f64,
    /// Projected energy per request (J), capacity-weighted across unit
    /// types.
    pub joules_per_request: f64,
    /// Projected goodput (requests/s): served rate times attainment.
    pub goodput_rps: f64,
    /// The scalar the planner ranks by: projected goodput shaded by the
    /// latency-pressure tie-break.
    pub score: f64,
}

/// What one planning pass produced: the chosen placement and the scored
/// beam it won against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// The winning candidate.
    pub chosen: CandidateScore,
    /// The scored beam, best first (contains `chosen` at index 0).
    pub candidates: Vec<CandidateScore>,
}

/// Whether a gang under `strategy` is structurally and GSC-feasible for
/// every model of `mix` on `hw`:
///
/// * every model's parked-latent footprint fits the GSC (a member that
///   cannot even park one latent cannot take part in preemptive serving);
/// * a pipeline cut never has more stages than the model has transformer
///   blocks (an empty stage would idle a member every iteration);
/// * a tensor cut never has more ways than attention heads (ranks own
///   whole heads).
///
/// Weight working sets are *not* required to fit — partial residency is
/// exactly what the cost model prices.
pub fn gsc_feasible(hw: &HwConfig, mix: &WorkloadMix, strategy: PartitionStrategy) -> bool {
    let gsc = hw.gsc_bytes();
    let operand = hw.operand_bytes();
    mix.kinds().iter().all(|&kind| {
        let model = ModelConfig::for_kind(kind);
        if latent_state_bytes(&model, operand) as f64 > gsc {
            return false;
        }
        match strategy {
            PartitionStrategy::Replicated => true,
            PartitionStrategy::Tensor { ways } => (ways.max(1) as usize) <= model.paper.heads,
            PartitionStrategy::Pipeline { stages } => {
                (stages.max(1) as usize) <= model.paper.blocks
            }
        }
    })
}

/// One mix model's traffic share and SLO, shared by every unit type.
struct Tenant {
    /// Normalized traffic share.
    share: f64,
    /// The model's SLO in absolute terms (the cluster's SLO currency).
    slo_ms: f64,
    /// DDIM steps per generation (scales per-iteration contention terms).
    iterations: f64,
}

/// Placement-invariant pricing of one mix model on one unit type: the
/// model's cut under the unit's strategy and its *uncontended* generation
/// costs at the members' steady-state residency (candidates add their own
/// fabric contention in [`PlacementPlanner::score`]).
struct Projection {
    /// The model's cut (a replica's is the `Replicated` plan).
    plan: PartitionPlan,
    /// One full-batch generation.
    full: IterationCost,
    /// Batch-1 generation latency (light-load tail).
    b1_ms: f64,
}

/// The offline placement optimizer. Construct with a [`PlannerConfig`] and
/// call [`Self::plan`]; the same planner object drives the cluster loop's
/// epoch re-planning when installed through
/// `ServeConfigBuilder::auto_placement`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlanner {
    /// The planner's knobs.
    pub config: PlannerConfig,
}

impl PlacementPlanner {
    /// A planner over `config`.
    pub fn new(config: PlannerConfig) -> Self {
        Self { config }
    }

    /// Every placement the budget admits: `r` replicas alone, and every
    /// `r` replicas + `g` gangs mix per candidate strategy. GSC-infeasible
    /// strategies are pruned before scoring.
    fn enumerate(&self, hw: &HwConfig, mix: &WorkloadMix) -> Vec<Placement> {
        let budget = self.config.budget.max(1);
        let mut out: Vec<Placement> = (1..=budget)
            .map(|r| Placement::replicated(r).with_interconnect(self.config.interconnect))
            .collect();
        for &strategy in &self.config.strategies {
            let degree = strategy.degree();
            if degree < 2 || degree > budget || !gsc_feasible(hw, mix, strategy) {
                continue;
            }
            for gangs in 1..=budget / degree {
                for replicas in 0..=budget - gangs * degree {
                    out.push(
                        Placement::mixed(replicas, gangs, strategy)
                            .with_interconnect(self.config.interconnect),
                    );
                }
            }
        }
        out
    }

    /// [`Self::plan`] with its wall-clock cost accumulated into `watch` —
    /// the self-metering hook the cluster loop wraps every offline pick
    /// and epoch re-score in, so run profiles can report how much of a
    /// run's wall time went to planner scoring.
    pub fn plan_timed(
        &self,
        hw: &HwConfig,
        mix: &WorkloadMix,
        forecast_rps: f64,
        cost: &mut CostModel,
        watch: &mut exion_telemetry::StopWatch,
    ) -> PlanOutcome {
        let t0 = std::time::Instant::now();
        let outcome = self.plan(hw, mix, forecast_rps, cost);
        watch.add(t0.elapsed());
        outcome
    }

    /// Plans a placement for `mix` at the forecast offered load on `hw`,
    /// pricing candidates through `cost`. Always returns a plan: if every
    /// gang strategy is infeasible the replicated candidates remain (a
    /// budget-wide replicated placement is always enumerable).
    pub fn plan(
        &self,
        hw: &HwConfig,
        mix: &WorkloadMix,
        forecast_rps: f64,
        cost: &mut CostModel,
    ) -> PlanOutcome {
        let placements = self.enumerate(hw, mix);
        let batch = self.config.max_batch.max(1) as u64;
        let total_w: f64 = mix.entries.iter().map(|&(_, w, _)| w).sum();
        let tenants: Vec<Tenant> = mix
            .entries
            .iter()
            .map(|&(kind, w, slo_mult)| {
                let model = ModelConfig::for_kind(kind);
                Tenant {
                    share: w / total_w.max(1e-12),
                    // The cluster's SLO currency: the warm replica service
                    // time.
                    slo_ms: slo_mult * cost.generation_latency_ms(&model, batch),
                    iterations: model.iterations as f64,
                }
            })
            .collect();
        // Placement-invariant pricing is hoisted out of the candidate
        // loop: one projection per unit type any candidate deploys.
        let mut projections: Vec<(PartitionStrategy, Vec<Projection>)> = Vec::new();
        for p in &placements {
            for (strategy, _) in p.unit_types() {
                if projections.iter().all(|(s, _)| *s != strategy) {
                    projections.push((strategy, self.projections(hw, mix, strategy, cost)));
                }
            }
        }
        let mut candidates: Vec<CandidateScore> = placements
            .into_iter()
            .map(|p| self.score(p, forecast_rps, &tenants, &projections))
            .collect();
        // Deterministic total order: score, then capacity, then the label
        // (so equal-scoring candidates rank identically on every platform).
        candidates.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(b.capacity_rps.total_cmp(&a.capacity_rps))
                .then(a.label.cmp(&b.label))
        });
        candidates.truncate(self.config.beam_width.max(1));
        PlanOutcome {
            chosen: candidates[0].clone(),
            candidates,
        }
    }

    /// The projections of every mix model on a unit of `strategy`: the
    /// model's cut (from the cost model's plan memo) and its uncontended
    /// full-batch and batch-1 generation costs with every member at its
    /// steady-state residency — computed once per (strategy, plan call).
    fn projections(
        &self,
        hw: &HwConfig,
        mix: &WorkloadMix,
        strategy: PartitionStrategy,
        cost: &mut CostModel,
    ) -> Vec<Projection> {
        let batch = self.config.max_batch.max(1) as u64;
        mix.entries
            .iter()
            .map(|&(kind, _, _)| {
                let model = ModelConfig::for_kind(kind);
                let plan = cost.plan(&model, strategy, self.config.interconnect);
                let frac = plan.min_member_residency(hw.gsc_bytes());
                Projection {
                    full: cost.generation_cost(&model, &plan, batch, frac),
                    b1_ms: cost.generation_cost(&model, &plan, 1, frac).latency_ms,
                    plan,
                }
            })
            .collect()
    }

    /// Scores one candidate placement against the forecast, using the
    /// hoisted per-tenant data and unit-type projections.
    fn score(
        &self,
        placement: Placement,
        forecast_rps: f64,
        tenants: &[Tenant],
        projections: &[(PartitionStrategy, Vec<Projection>)],
    ) -> CandidateScore {
        let batch = self.config.max_batch.max(1) as u64;
        // The only placement-dependent term of a generation: the `n` units
        // of one type contending for the board fabric, paid once per
        // iteration (exactly zero for a replica).
        let contended = |t: &Tenant, p: &Projection, n: usize, base_ms: f64, b: u64| {
            base_ms
                + t.iterations * (p.plan.collective_ms_contended(b, n) - p.plan.collective_ms(b))
        };
        // Per unit type: its projections, its unit count, and its
        // capacity — the count over the mix-weighted unit seconds per
        // request at the full batch (a weighted harmonic mean, as in the
        // cluster's capacity estimate, but residency-adjusted).
        let types: Vec<(&[Projection], usize, f64)> = placement
            .unit_types()
            .map(|(strategy, n)| {
                let projs = projections
                    .iter()
                    .find(|(s, _)| *s == strategy)
                    .map(|(_, p)| p.as_slice())
                    .expect("every deployed unit type is projected");
                let spr: f64 = tenants
                    .iter()
                    .zip(projs)
                    .map(|(t, p)| {
                        t.share * contended(t, p, n, p.full.latency_ms, batch)
                            / 1000.0
                            / batch as f64
                    })
                    .sum();
                (projs, n, n as f64 / spr.max(1e-12))
            })
            .collect();
        let capacity: f64 = types.iter().map(|&(_, _, cap)| cap).sum();
        let units = placement.units().max(1) as f64;
        let rho = forecast_rps / capacity.max(1e-12);
        let served = forecast_rps.min(capacity);
        // How full batches run at this load, for the service-latency term.
        let occupancy = ((rho * batch as f64).ceil() as u64).clamp(1, batch);
        let occ_frac = (occupancy as f64 / batch as f64).clamp(0.0, 1.0);

        let mut latency_ms = 0.0;
        let mut attainment = 0.0;
        let mut pressure = 0.0;
        let mut energy_mj_per_req = 0.0;
        for (i, t) in tenants.iter().enumerate() {
            // Capacity shares route traffic between unit types (the shared
            // queue feeds whichever unit frees up first); each type serves
            // at the load-implied occupancy, interpolated between its
            // batch-1 and full-batch generations.
            let mut svc = 0.0;
            let mut energy_mj = 0.0;
            for &(projs, n, cap) in &types {
                let p = &projs[i];
                let weight = cap / capacity.max(1e-12);
                let b1 = contended(t, p, n, p.b1_ms, 1);
                let full = contended(t, p, n, p.full.latency_ms, batch);
                svc += weight * (b1 + (full - b1) * occ_frac);
                energy_mj += weight * p.full.energy_mj;
            }
            // M/M/c-flavored wait, capped at the overload blow-up so the
            // projection stays monotone through the capacity wall (an
            // uncapped 1/(1−ρ) would price 98% load *worse* than 120%).
            let wait = if rho < 1.0 {
                (svc * rho / (units * (1.0 - rho))).min(svc * OVERLOAD_LATENCY_FACTOR)
            } else {
                svc * OVERLOAD_LATENCY_FACTOR
            };
            let latency = svc + wait;
            latency_ms += t.share * latency;
            attainment += t.share * (t.slo_ms / latency.max(1e-9)).min(1.0);
            pressure += t.share * (latency / t.slo_ms.max(1e-9)).min(1.0);
            energy_mj_per_req += t.share * energy_mj / batch as f64;
        }
        let goodput = served * attainment;
        CandidateScore {
            placement,
            label: placement.summary(),
            capacity_rps: capacity,
            latency_ms,
            slo_attainment: attainment,
            joules_per_request: energy_mj_per_req / 1000.0,
            goodput_rps: goodput,
            score: goodput * (1.0 - LATENCY_PRESSURE_WEIGHT * pressure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_model::config::ModelKind;
    use exion_sim::perf::SimAblation;

    #[test]
    fn enumeration_respects_the_budget_and_prunes_infeasible_cuts() {
        let hw = HwConfig::exion4();
        let mix = WorkloadMix::text_to_video();
        let planner = PlacementPlanner::new(PlannerConfig::new(2));
        let candidates = planner.enumerate(&hw, &mix);
        assert!(!candidates.is_empty());
        for p in &candidates {
            assert!(p.total_instances() <= 2, "{} over budget", p.summary());
            assert!(p.units() >= 1);
        }
        // TP=4/PP=4 need four instances: pruned at budget 2.
        assert!(candidates.iter().all(|p| p.strategy.degree() <= 2));
        // A budget of 4 admits them (and mixed replica+gang splits).
        let wide = PlacementPlanner::new(PlannerConfig::new(4));
        let candidates = wide.enumerate(&hw, &mix);
        assert!(candidates
            .iter()
            .any(|p| p.strategy == PartitionStrategy::Tensor { ways: 4 }));
        assert!(
            candidates.iter().any(|p| p.replicas > 0 && p.gangs > 0),
            "mixed placements enumerated"
        );
    }

    #[test]
    fn infeasible_pipeline_cut_is_pruned() {
        let hw = HwConfig::exion4();
        // MLD has few transformer blocks; a 64-stage pipeline cannot give
        // every stage a block.
        let mix = WorkloadMix {
            entries: vec![(ModelKind::Mld, 1.0, 4.0)],
        };
        assert!(!gsc_feasible(
            &hw,
            &mix,
            PartitionStrategy::Pipeline { stages: 64 }
        ));
        assert!(gsc_feasible(
            &hw,
            &mix,
            PartitionStrategy::Pipeline { stages: 2 }
        ));
        assert!(gsc_feasible(&hw, &mix, PartitionStrategy::Replicated));
        let mut config = PlannerConfig::new(64);
        config.strategies = vec![PartitionStrategy::Pipeline { stages: 64 }];
        let planner = PlacementPlanner::new(config);
        let candidates = planner.enumerate(&hw, &mix);
        assert!(candidates
            .iter()
            .all(|p| p.strategy == PartitionStrategy::Replicated));
    }

    #[test]
    fn plan_is_deterministic_and_ranked() {
        let hw = HwConfig::exion4();
        let mix = WorkloadMix::text_to_video();
        let mut cost = CostModel::new(hw, SimAblation::All);
        let planner = PlacementPlanner::new(PlannerConfig::new(2));
        let a = planner.plan(&hw, &mix, 2.0, &mut cost);
        let cuts = cost.cuts();
        let b = planner.plan(&hw, &mix, 2.0, &mut cost);
        assert_eq!(a, b);
        assert_eq!(cost.cuts(), cuts, "a repeated pass re-cut a model");
        assert_eq!(a.chosen, a.candidates[0]);
        for w in a.candidates.windows(2) {
            assert!(w[0].score >= w[1].score, "beam must be sorted");
        }
        for c in &a.candidates {
            assert!(c.capacity_rps > 0.0, "{}", c.label);
            assert!(c.latency_ms > 0.0, "{}", c.label);
            assert!((0.0..=1.0).contains(&c.slo_attainment), "{}", c.label);
        }
    }
}
