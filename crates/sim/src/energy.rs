//! Power/area model derived from the paper's Table III (single DSC,
//! synthesized at 14 nm, 800 MHz, 0.8 V).
//!
//! | Component | Area (mm²) | Power (mW) |
//! |---|---|---|
//! | SDUE | 1.35 | 957.97 |
//! | CAU | 0.04 | 16.03 |
//! | EPRE | 0.81 | 265.15 |
//! | CFSE | 0.32 | 160.61 |
//! | On-chip memories | 1.79 | 60.41 |
//! | Top controller, DMA, etc. | 0.06 | 51.27 |
//! | **Total** | **4.37** | **1511.43** |
//!
//! The dynamic portion of each engine's power scales with its activity
//! (clock gating: "clock gating is applied to all the registers in the
//! SDUE's datapath … addresses any remaining output sparsity after merging");
//! a fixed leakage/idle fraction is always drawn.

/// The engines of one DSC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Sparse-dense unified engine (the DPU array).
    Sdue,
    /// ConMerge assistant unit.
    Cau,
    /// Eager-prediction engine.
    Epre,
    /// Configurable SIMD engine.
    Cfse,
    /// On-chip SRAM (IMEM/WMEM/OMEM/CVMEM/GSC/INSTMEM).
    Memories,
    /// Top controller, DMA, bus.
    Control,
}

impl Engine {
    /// All engines in Table III order.
    pub const ALL: [Engine; 6] = [
        Engine::Sdue,
        Engine::Cau,
        Engine::Epre,
        Engine::Cfse,
        Engine::Memories,
        Engine::Control,
    ];

    /// Table III nominal power at full activity (mW).
    pub fn nominal_power_mw(&self) -> f64 {
        match self {
            Engine::Sdue => 957.97,
            Engine::Cau => 16.03,
            Engine::Epre => 265.15,
            Engine::Cfse => 160.61,
            Engine::Memories => 60.41,
            Engine::Control => 51.27,
        }
    }

    /// Table III area (mm²).
    pub fn area_mm2(&self) -> f64 {
        match self {
            Engine::Sdue => 1.35,
            Engine::Cau => 0.04,
            Engine::Epre => 0.81,
            Engine::Cfse => 0.32,
            Engine::Memories => 1.79,
            Engine::Control => 0.06,
        }
    }

    /// Display name matching Table III.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sdue => "SDUE",
            Engine::Cau => "CAU",
            Engine::Epre => "EPRE",
            Engine::Cfse => "CFSE",
            Engine::Memories => "On-Chip Memories",
            Engine::Control => "Top Controller, DMA, Etc.",
        }
    }
}

/// Fraction of nominal power drawn even when an engine is clock-gated idle
/// (leakage + clock tree residue at 14 nm).
pub const IDLE_POWER_FRACTION: f64 = 0.12;

/// SRAM macro area per MiB at 14 nm, calibrated so 24 DSCs (24 × 4.37 mm²)
/// plus a 64 MiB GSC reproduce the paper's 152.28 mm² for EXION24.
pub const SRAM_MM2_PER_MIB: f64 = 0.741;

/// Per-DSC energy accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccumulator {
    /// Active (cycles × utilization) per engine, in cycle units.
    active_cycles: [f64; 6],
    /// Total elapsed cycles.
    pub elapsed_cycles: f64,
}

impl EnergyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(engine: Engine) -> usize {
        Engine::ALL
            .iter()
            .position(|&e| e == engine)
            .expect("known engine")
    }

    /// Records `cycles` of activity on `engine` at the given utilization
    /// (clock gating scales dynamic power by the active fraction).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn record(&mut self, engine: Engine, cycles: f64, utilization: f64) {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} outside [0, 1]"
        );
        self.active_cycles[Self::idx(engine)] += cycles * utilization;
    }

    /// Advances total elapsed time.
    pub fn advance(&mut self, cycles: f64) {
        self.elapsed_cycles += cycles;
    }

    /// Active cycle count of one engine.
    pub fn active(&self, engine: Engine) -> f64 {
        self.active_cycles[Self::idx(engine)]
    }

    /// Energy of one engine over the recorded timeline (mJ) at `clock_mhz`:
    /// dynamic (activity-scaled) plus idle draw over the whole elapsed time.
    pub fn engine_energy_mj(&self, engine: Engine, clock_mhz: f64) -> f64 {
        let p = engine.nominal_power_mw();
        let cycle_s = 1e-6 / clock_mhz;
        let active_s = self.active(engine) * cycle_s;
        let elapsed_s = self.elapsed_cycles * cycle_s;
        let dynamic = p * (1.0 - IDLE_POWER_FRACTION) * active_s;
        let idle = p * IDLE_POWER_FRACTION * elapsed_s;
        dynamic + idle
    }

    /// Total DSC energy (mJ).
    pub fn total_energy_mj(&self, clock_mhz: f64) -> f64 {
        Engine::ALL
            .iter()
            .map(|&e| self.engine_energy_mj(e, clock_mhz))
            .sum()
    }

    /// Mean power over the elapsed timeline (mW).
    pub fn mean_power_mw(&self, clock_mhz: f64) -> f64 {
        if self.elapsed_cycles == 0.0 {
            return 0.0;
        }
        let elapsed_s = self.elapsed_cycles * 1e-6 / clock_mhz;
        self.total_energy_mj(clock_mhz) / elapsed_s
    }
}

/// Total single-DSC power at full activity (Table III bottom line, mW).
pub fn dsc_nominal_power_mw() -> f64 {
    Engine::ALL.iter().map(|e| e.nominal_power_mw()).sum()
}

/// Total single-DSC area (Table III bottom line, mm²).
pub fn dsc_area_mm2() -> f64 {
    Engine::ALL.iter().map(|e| e.area_mm2()).sum()
}

/// Total accelerator area: DSCs plus a shared global scratchpad of
/// `gsc_mib` (the paper: EXION24 with 64 MB GSC occupies 152.28 mm²).
pub fn accelerator_area_mm2(dsc_count: usize, gsc_mib: f64) -> f64 {
    dsc_count as f64 * dsc_area_mm2() + gsc_mib * SRAM_MM2_PER_MIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_totals() {
        assert!((dsc_nominal_power_mw() - 1511.44).abs() < 0.1);
        assert!((dsc_area_mm2() - 4.37).abs() < 0.01);
    }

    #[test]
    fn exion24_area_matches_paper() {
        let area = accelerator_area_mm2(24, 64.0);
        assert!((area - 152.28).abs() < 0.5, "got {area}");
    }

    #[test]
    fn sdue_dominates_power() {
        let sdue = Engine::Sdue.nominal_power_mw();
        for e in Engine::ALL {
            assert!(sdue >= e.nominal_power_mw());
        }
        // Sparsity-handling hardware (EPRE + CAU) is up to ~18.6% of total.
        let overhead = (Engine::Epre.nominal_power_mw() + Engine::Cau.nominal_power_mw())
            / dsc_nominal_power_mw();
        assert!((overhead - 0.186).abs() < 0.01, "got {overhead}");
    }

    #[test]
    fn idle_engine_still_draws_leakage() {
        let mut acc = EnergyAccumulator::new();
        acc.advance(800e6); // one second at 800 MHz
        let e = acc.engine_energy_mj(Engine::Sdue, 800.0);
        let expect = Engine::Sdue.nominal_power_mw() * IDLE_POWER_FRACTION;
        assert!((e - expect).abs() / expect < 1e-6, "got {e} want {expect}");
    }

    #[test]
    fn full_activity_draws_nominal_power() {
        let mut acc = EnergyAccumulator::new();
        acc.advance(800e6);
        for e in Engine::ALL {
            acc.record(e, 800e6, 1.0);
        }
        let p = acc.mean_power_mw(800.0);
        assert!((p - dsc_nominal_power_mw()).abs() < 0.5, "got {p}");
    }

    #[test]
    fn clock_gating_halves_dynamic_energy() {
        let mut full = EnergyAccumulator::new();
        full.advance(1000.0);
        full.record(Engine::Sdue, 1000.0, 1.0);
        let mut half = EnergyAccumulator::new();
        half.advance(1000.0);
        half.record(Engine::Sdue, 1000.0, 0.5);
        let ef = full.engine_energy_mj(Engine::Sdue, 800.0);
        let eh = half.engine_energy_mj(Engine::Sdue, 800.0);
        let dynamic_f = ef * (1.0 - IDLE_POWER_FRACTION);
        assert!(eh < ef && eh > ef / 2.0 - dynamic_f * 0.01);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn utilization_validated() {
        let mut acc = EnergyAccumulator::new();
        acc.record(Engine::Sdue, 1.0, 1.5);
    }
}
