//! The diffusion-sparsity-aware core timeline (paper Fig. 10).
//!
//! One representative DSC executes its share of each iteration's ops (rows
//! are data-parallel across DSCs; weights are fetched once and broadcast).
//! Within an iteration the engines and the DMA overlap — the paper pipelines
//! EPRE under SDUE/CFSE and double/triple-buffers IMEM/WMEM to hide fetch
//! latency — so iteration latency is the maximum of the per-engine busy
//! times plus a small fill overhead.

use exion_dram::{Dram, DramStats};

use crate::cau::CauModel;
use crate::cfse::CfseModel;
use crate::config::HwConfig;
use crate::energy::{EnergyAccumulator, Engine};
use crate::epre::EpreModel;
use crate::sdue::SdueModel;
use crate::workload::{DscOp, IterationPlan};

/// Pipeline fill/drain overhead per iteration (cycles).
const ITERATION_FILL_CYCLES: f64 = 64.0;

/// Accumulated per-engine busy cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineBusy {
    /// SDUE busy cycles.
    pub sdue: f64,
    /// EPRE busy cycles.
    pub epre: f64,
    /// CFSE busy cycles.
    pub cfse: f64,
    /// CAU busy cycles.
    pub cau: f64,
    /// DRAM-bound cycles.
    pub dram: f64,
}

/// One iteration plan's engine cycles on one DSC and the weight bytes it
/// streams: each sum folds the plan's ops in op order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PlanCycles {
    sdue: f64,
    /// SDUE cycles weighted by block utilization (clock gating).
    sdue_active: f64,
    epre: f64,
    cfse: f64,
    cau: f64,
    weight_bytes: u64,
}

/// Final report of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DscReport {
    /// Total elapsed cycles.
    pub total_cycles: f64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Energy of all DSCs (mJ).
    pub dsc_energy_mj: f64,
    /// DRAM energy, dynamic + background (mJ).
    pub dram_energy_mj: f64,
    /// Per-engine energy across all DSCs (mJ), Table III order.
    pub engine_energy_mj: Vec<(Engine, f64)>,
    /// Per-engine busy cycles (one DSC).
    pub busy: EngineBusy,
    /// DRAM statistics.
    pub dram_stats: DramStats,
}

impl DscReport {
    /// Total accelerator energy (mJ).
    pub fn total_energy_mj(&self) -> f64 {
        self.dsc_energy_mj + self.dram_energy_mj
    }
}

/// Cycle-level simulator of one accelerator instance.
#[derive(Debug, Clone)]
pub struct DscSimulator {
    config: HwConfig,
    sdue: SdueModel,
    epre: EpreModel,
    cfse: CfseModel,
    cau: CauModel,
    dram: Dram,
    acc: EnergyAccumulator,
    now_ns: f64,
    busy: EngineBusy,
    /// Fraction of the iteration's weight working set GSC-resident before
    /// the next iteration (0.0 = cold, capacity-capped on execution).
    resident_weight_frac: f64,
}

impl DscSimulator {
    /// Creates a simulator for an accelerator instance.
    pub fn new(config: &HwConfig) -> Self {
        Self {
            config: *config,
            sdue: SdueModel::new(config.geometry),
            epre: EpreModel::new(config.geometry),
            cfse: CfseModel::new(config.geometry),
            cau: CauModel::new(config.geometry.array_cols),
            dram: Dram::for_bandwidth(config.dram_timing(), config.dram_gbps),
            acc: EnergyAccumulator::new(),
            now_ns: 0.0,
            busy: EngineBusy::default(),
            resident_weight_frac: 0.0,
        }
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// Marks `frac` of the model's weight working set as already
    /// GSC-resident, as reported by a capacity-aware residency model
    /// ([`crate::residency::GscCache`]) multiplexing tenants over this
    /// instance. The next iteration streams only the non-resident
    /// remainder; the fraction is additionally capped by what the GSC can
    /// physically hold. `1.0` reproduces the steady state of a single-tenant
    /// serving loop, `0.0` a fully cold switch.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn preload_weight_fraction(&mut self, frac: f64) {
        assert!((0.0..=1.0).contains(&frac), "resident fraction range");
        self.resident_weight_frac = frac;
    }

    /// Executes one diffusion iteration's op list: prices the plan, then
    /// applies it to the timeline.
    pub fn execute_iteration(&mut self, plan: &IterationPlan) {
        let cycles = self.plan_cycles(plan);
        self.apply(&cycles);
    }

    /// Sums one plan's per-engine cycles and weight bytes. Pure: it reads
    /// only the plan and the hardware, so one generation prices each
    /// iteration class once and applies the sum on every iteration of it.
    pub(crate) fn plan_cycles(&self, plan: &IterationPlan) -> PlanCycles {
        let dsc = self.config.dsc_count as u64;
        let mut c = PlanCycles::default();
        for op in &plan.ops {
            match op {
                DscOp::Mmul(desc) => {
                    let m_share = desc.m.div_ceil(dsc);
                    let dense_blocks = self.sdue.dense_blocks_per_tile(desc.n) as f64;
                    let blocks = (dense_blocks * desc.block_frac)
                        .max(f64::from(u8::from(desc.block_frac > 0.0)));
                    let sdue = self.sdue.mmul_cycles(m_share, desc.k_eff(), blocks) as f64;
                    c.sdue += sdue;
                    c.sdue_active += sdue * desc.utilization;
                    c.weight_bytes += desc.weight_bytes(self.config.operand_bytes());
                }
                DscOp::Special {
                    func,
                    elements,
                    width,
                } => {
                    let share = elements.div_ceil(dsc);
                    c.cfse += self.cfse.cycles(*func, share, *width) as f64;
                }
                DscOp::EpPredict {
                    tokens,
                    d_model,
                    heads,
                } => {
                    let share = tokens.div_ceil(dsc);
                    c.epre += self.epre.attention_predict_cycles(share, *d_model, *heads) as f64;
                }
                DscOp::CauGenerate {
                    cols,
                    surviving_frac,
                    tiles,
                } => {
                    let tile_share = tiles.div_ceil(dsc);
                    c.cau += (self.cau.estimate_cycles(*cols, *surviving_frac) * tile_share) as f64;
                }
            }
        }
        c
    }

    /// Advances the timeline by one iteration priced at `c`: streams the
    /// non-resident weights, then books the clock, energy and busy cycles.
    pub(crate) fn apply(&mut self, c: &PlanCycles) {
        // DMA: weights are fetched once per tile group and broadcast;
        // streaming overlaps compute via the double/triple-buffered memories.
        // The GSC-resident fraction of the working set skips DRAM entirely;
        // residency is partial — the capacity cap and any externally
        // reported residency (a multi-tenant cache model) compose as a
        // minimum, never as an all-or-nothing warm/cold flag.
        let dram_bytes = c.weight_bytes;
        let capacity_frac =
            crate::residency::partial_residency(self.config.gsc_bytes(), dram_bytes as f64);
        let resident = self.resident_weight_frac.min(capacity_frac);
        let effective_bytes = (dram_bytes as f64 * (1.0 - resident)) as u64;
        let dram_c = if effective_bytes > 0 {
            let done = self
                .dram
                .stream_transfer(effective_bytes, false, self.now_ns);
            (done - self.now_ns) / self.config.cycle_ns()
        } else {
            0.0
        };
        if dram_bytes > 0 {
            // Whatever fit stays resident for the following iterations.
            self.resident_weight_frac = capacity_frac;
        }

        let iter_cycles =
            c.sdue.max(c.epre).max(c.cfse).max(c.cau).max(dram_c) + ITERATION_FILL_CYCLES;

        self.acc.record(Engine::Sdue, c.sdue_active, 1.0);
        self.acc.record(Engine::Epre, c.epre, 1.0);
        self.acc.record(Engine::Cfse, c.cfse, 1.0);
        self.acc.record(Engine::Cau, c.cau, 1.0);
        self.acc.record(Engine::Memories, c.sdue.max(c.cfse), 1.0);
        self.acc.record(Engine::Control, dram_c, 1.0);
        self.acc.advance(iter_cycles);
        self.now_ns += iter_cycles * self.config.cycle_ns();

        self.busy.sdue += c.sdue;
        self.busy.epre += c.epre;
        self.busy.cfse += c.cfse;
        self.busy.cau += c.cau;
        self.busy.dram += dram_c;
    }

    /// Finalizes the run into a report.
    pub fn finish(&self) -> DscReport {
        let clock = self.config.clock_mhz;
        let dsc_count = self.config.dsc_count as f64;
        let seconds = self.acc.elapsed_cycles * 1e-6 / clock;
        let engine_energy_mj: Vec<(Engine, f64)> = Engine::ALL
            .iter()
            .map(|&e| (e, self.acc.engine_energy_mj(e, clock) * dsc_count))
            .collect();
        let dsc_energy_mj = engine_energy_mj.iter().map(|(_, e)| e).sum();
        let dram_energy_mj =
            (self.dram.dynamic_energy_pj() + self.dram.background_energy_pj(self.now_ns)) * 1e-9;
        DscReport {
            total_cycles: self.acc.elapsed_cycles,
            seconds,
            dsc_energy_mj,
            dram_energy_mj,
            engine_energy_mj,
            busy: self.busy,
            dram_stats: self.dram.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MmulDesc, SparsityProfile};
    use exion_model::config::NetworkType;

    fn plan_one_mmul(desc: MmulDesc) -> IterationPlan {
        IterationPlan {
            ops: vec![DscOp::Mmul(desc)],
            dense_equivalent_macs: desc.m * desc.k * desc.n,
        }
    }

    #[test]
    fn sparse_mmul_is_faster_than_dense() {
        let hw = HwConfig::single_dsc();
        let mut dense_sim = DscSimulator::new(&hw);
        dense_sim.execute_iteration(&plan_one_mmul(MmulDesc::dense(256, 1024, 4096)));
        let dense = dense_sim.finish();

        let mut sparse_sim = DscSimulator::new(&hw);
        sparse_sim.execute_iteration(&plan_one_mmul(MmulDesc {
            block_frac: 0.15,
            utilization: 0.4,
            weight_frac: 0.2,
            ..MmulDesc::dense(256, 1024, 4096)
        }));
        let sparse = sparse_sim.finish();

        assert!(sparse.total_cycles < dense.total_cycles / 2.0);
        assert!(sparse.total_energy_mj() < dense.total_energy_mj());
    }

    #[test]
    fn more_dscs_reduce_latency() {
        let plan = plan_one_mmul(MmulDesc::dense(4096, 1024, 4096));
        let mut one = DscSimulator::new(&HwConfig::single_dsc());
        one.execute_iteration(&plan);
        let mut many = DscSimulator::new(&HwConfig::exion24());
        many.execute_iteration(&plan);
        let r1 = one.finish();
        let r24 = many.finish();
        assert!(
            r24.total_cycles < r1.total_cycles / 8.0,
            "1 DSC {} vs 24 DSC {}",
            r1.total_cycles,
            r24.total_cycles
        );
    }

    #[test]
    fn dram_bound_layers_hit_the_bandwidth_wall() {
        // A skinny MMUL (few rows, huge weights) is DRAM-bound: latency
        // tracks the weight fetch, not the SDUE.
        let hw = HwConfig::exion4();
        let mut sim = DscSimulator::new(&hw);
        let desc = MmulDesc::dense(16, 4096, 16384);
        sim.execute_iteration(&plan_one_mmul(desc));
        let r = sim.finish();
        let weight_ns = desc.weight_bytes(hw.operand_bytes()) as f64 / hw.dram_gbps;
        let weight_cycles = weight_ns / hw.cycle_ns();
        assert!(r.busy.dram > r.busy.sdue);
        assert!(r.total_cycles > 0.9 * weight_cycles);
    }

    #[test]
    fn engine_overlap_latency_is_max_not_sum() {
        let hw = HwConfig::single_dsc();
        let mut sim = DscSimulator::new(&hw);
        let plan = IterationPlan {
            ops: vec![
                DscOp::Mmul(MmulDesc::dense_onchip(256, 256, 256)),
                DscOp::EpPredict {
                    tokens: 256,
                    d_model: 256,
                    heads: 4,
                },
            ],
            dense_equivalent_macs: 0,
        };
        sim.execute_iteration(&plan);
        let r = sim.finish();
        assert!(r.total_cycles < r.busy.sdue + r.busy.epre);
        assert!(r.total_cycles + 1.0 >= r.busy.sdue.max(r.busy.epre));
    }

    #[test]
    fn gsc_resident_weights_amortize_dram_traffic() {
        // A model whose weights fit the GSC pays DRAM only on iteration 0.
        let hw = HwConfig::exion4(); // 16 MiB GSC
        let small = MmulDesc::dense(64, 256, 256); // 96 kB of INT12 weights
        let mut sim = DscSimulator::new(&hw);
        sim.execute_iteration(&plan_one_mmul(small));
        let first_read = sim.finish().dram_stats.bytes_read;
        sim.execute_iteration(&plan_one_mmul(small));
        sim.execute_iteration(&plan_one_mmul(small));
        let total_read = sim.finish().dram_stats.bytes_read;
        assert_eq!(total_read, first_read, "later iterations hit the GSC");
    }

    #[test]
    fn partial_residency_interpolates_dram_time() {
        // A skinny DRAM-bound MMUL: iteration latency tracks the streamed
        // bytes, so each preloaded fraction prices strictly cheaper.
        let hw = HwConfig::exion4();
        let desc = MmulDesc::dense(16, 4096, 16384); // ~100 MB of weights
        let cycles_at = |frac: f64| {
            let mut sim = DscSimulator::new(&hw);
            sim.preload_weight_fraction(frac);
            sim.execute_iteration(&plan_one_mmul(desc));
            sim.finish().total_cycles
        };
        let (cold, third, capped) = (cycles_at(0.0), cycles_at(0.3), cycles_at(0.6));
        assert!(cold > third, "{cold} vs {third}");
        assert!(third > capped, "{third} vs {capped}");
    }

    #[test]
    fn oversized_weights_keep_streaming() {
        let hw = HwConfig::single_dsc(); // 0.5 MiB GSC
        let big = MmulDesc::dense(64, 2048, 2048); // 6 MiB of INT12 weights
        let mut sim = DscSimulator::new(&hw);
        sim.execute_iteration(&plan_one_mmul(big));
        let first = sim.finish().dram_stats.bytes_read;
        sim.execute_iteration(&plan_one_mmul(big));
        let second = sim.finish().dram_stats.bytes_read - first;
        // Over 90% of the weights must re-stream each iteration.
        assert!(second as f64 > 0.9 * first as f64, "{second} vs {first}");
    }

    #[test]
    fn full_iteration_produces_energy_breakdown() {
        let hw = HwConfig::exion4();
        let params =
            exion_model::config::ModelConfig::for_kind(exion_model::config::ModelKind::Mdm).paper;
        let flags = crate::workload::IterationKindFlags {
            ffn_sparse: true,
            ffn_dense_with_cau: false,
            ep: true,
        };
        let profile = SparsityProfile::analytic(0.95, 0.95, 16);
        let plan = crate::workload::build_iteration(
            &params,
            NetworkType::TransformerOnly,
            false,
            flags,
            &profile,
            1,
        );
        let mut sim = DscSimulator::new(&hw);
        sim.execute_iteration(&plan);
        let r = sim.finish();
        assert!(r.dsc_energy_mj > 0.0);
        assert!(r.dram_energy_mj > 0.0);
        assert_eq!(r.engine_energy_mj.len(), 6);
        // SDUE consumes the largest share among engines when computing.
        let sdue = r.engine_energy_mj[0].1;
        assert!(sdue > 0.0);
    }
}
