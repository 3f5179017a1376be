//! Hardware configurations (paper Table II and Fig. 11).

use exion_dram::DramTiming;

/// Geometry and clocking of one diffusion-sparsity-aware core (DSC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DscGeometry {
    /// DPU array rows (= DPU lanes = IMEM/OMEM banks).
    pub array_rows: usize,
    /// DPU array columns (= WMEM banks).
    pub array_cols: usize,
    /// Multipliers per DPU (elements of the dot product consumed per cycle).
    pub lane_length: usize,
    /// CFSE ALU lanes.
    pub cfse_lanes: usize,
}

impl DscGeometry {
    /// The paper's EXION configuration: 16×16 DPUs, lane length 16, and a
    /// 16-lane configurable SIMD engine.
    pub fn exion() -> Self {
        Self {
            array_rows: 16,
            array_cols: 16,
            lane_length: 16,
            cfse_lanes: 16,
        }
    }

    /// The toy model of Figs. 8–9/11: an 8-row × 3-column array.
    pub fn toy() -> Self {
        Self {
            array_rows: 8,
            array_cols: 3,
            lane_length: 4,
            cfse_lanes: 4,
        }
    }

    /// MACs the SDUE completes per cycle.
    pub fn sdue_macs_per_cycle(&self) -> u64 {
        (self.array_rows * self.array_cols * self.lane_length) as u64
    }

    /// Log-domain MACs the EPRE completes per cycle (same array shape,
    /// LD_DPUs).
    pub fn epre_macs_per_cycle(&self) -> u64 {
        self.sdue_macs_per_cycle()
    }
}

/// On-chip memory sizes of one DSC (Fig. 10/11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySizes {
    /// IMEM per bank, bytes (double-buffered).
    pub imem_bank_bytes: usize,
    /// WMEM per bank, bytes (triple-buffered).
    pub wmem_bank_bytes: usize,
    /// OMEM per bank, bytes.
    pub omem_bank_bytes: usize,
    /// ConMerge vector memory, bytes.
    pub cvmem_bytes: usize,
    /// Global scratchpad, bytes.
    pub gsc_bytes: usize,
    /// Instruction memory, bytes.
    pub instmem_bytes: usize,
}

impl MemorySizes {
    /// The paper's sizes: IMEM/OMEM 1.5 kB × 16 banks, WMEM 12 kB × 16 banks,
    /// CVMEM 50 kB, GSC 512 kB, INSTMEM 3 kB.
    pub fn exion() -> Self {
        Self {
            imem_bank_bytes: 1536,
            wmem_bank_bytes: 12288,
            omem_bank_bytes: 1536,
            cvmem_bytes: 50 * 1024,
            gsc_bytes: 512 * 1024,
            instmem_bytes: 3 * 1024,
        }
    }
}

/// A full accelerator instance: DSC count, clock, memories and DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// Human-readable instance name.
    pub name: &'static str,
    /// Number of DSCs.
    pub dsc_count: usize,
    /// Core clock (MHz); the paper synthesizes at 800 MHz / 0.8 V.
    pub clock_mhz: f64,
    /// Per-DSC geometry.
    pub geometry: DscGeometry,
    /// Per-DSC memory sizes.
    pub memory: MemorySizes,
    /// Aggregate DRAM bandwidth (GB/s).
    pub dram_gbps: f64,
    /// Whether DRAM is LPDDR5 (edge) or GDDR6 (server).
    pub lpddr: bool,
    /// MMUL operand width in bits (INT12).
    pub operand_bits: u32,
    /// Shared global scratchpad capacity (MiB). Weights that fit stay
    /// resident across iterations ("data such as weights and intermediate
    /// results are continuously transferred among the DSC, GSC, and external
    /// DRAM"); the paper gives 64 MB for EXION24.
    pub gsc_mib: f64,
}

impl HwConfig {
    /// EXION4: the edge instance (Table II — 39.2 TOPS, 51 GB/s LPDDR5,
    /// ~3.18 W), matched against the Jetson Orin Nano.
    pub fn exion4() -> Self {
        Self {
            name: "EXION4",
            // The paper sizes EXION24's GSC at 64 MB; the edge instance's is
            // unspecified. The reported edge TOPS/W numbers are only
            // reachable compute-bound, i.e. with benchmark weights resident,
            // so the same 64 MiB is assumed.
            gsc_mib: 64.0,
            dsc_count: 4,
            clock_mhz: 800.0,
            geometry: DscGeometry::exion(),
            memory: MemorySizes::exion(),
            dram_gbps: 51.0,
            lpddr: true,
            operand_bits: 12,
        }
    }

    /// EXION24: the server instance (Table II — 235.2 TOPS, 819 GB/s GDDR6,
    /// ~20.4 W), matched against the RTX 6000 Ada.
    pub fn exion24() -> Self {
        Self {
            name: "EXION24",
            gsc_mib: 64.0,
            dsc_count: 24,
            clock_mhz: 800.0,
            geometry: DscGeometry::exion(),
            memory: MemorySizes::exion(),
            dram_gbps: 819.0,
            lpddr: false,
            operand_bits: 12,
        }
    }

    /// EXION42: the Cambricon-D comparison instance (Fig. 19(b) — 42 DSCs,
    /// 1935 GB/s), matched against the A100.
    pub fn exion42() -> Self {
        Self {
            name: "EXION42",
            gsc_mib: 64.0,
            dsc_count: 42,
            clock_mhz: 800.0,
            geometry: DscGeometry::exion(),
            memory: MemorySizes::exion(),
            dram_gbps: 1935.0,
            lpddr: false,
            operand_bits: 12,
        }
    }

    /// A single-DSC instance (Table III's power/area unit).
    pub fn single_dsc() -> Self {
        Self {
            name: "EXION1",
            gsc_mib: 0.5,
            dsc_count: 1,
            clock_mhz: 800.0,
            geometry: DscGeometry::exion(),
            memory: MemorySizes::exion(),
            dram_gbps: 12.8,
            lpddr: true,
            operand_bits: 12,
        }
    }

    /// The DRAM device timing for this instance.
    pub fn dram_timing(&self) -> DramTiming {
        if self.lpddr {
            DramTiming::lpddr5()
        } else {
            DramTiming::gddr6()
        }
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / self.clock_mhz
    }

    /// Peak throughput in TOPS: SDUE MACs at 2 ops each plus EPRE log-MACs
    /// at 1 op each. For the paper's geometry this yields 9.8 TOPS per DSC
    /// (Table II's footnote: "throughput of a single DSC is 9.8 TOPS").
    pub fn peak_tops(&self) -> f64 {
        let per_dsc_ops_per_cycle =
            2 * self.geometry.sdue_macs_per_cycle() + self.geometry.epre_macs_per_cycle();
        per_dsc_ops_per_cycle as f64 * self.dsc_count as f64 * self.clock_mhz * 1e6 / 1e12
    }

    /// Operand width in bytes (INT12 packs to 1.5 bytes).
    pub fn operand_bytes(&self) -> f64 {
        self.operand_bits as f64 / 8.0
    }

    /// Global scratchpad capacity in bytes.
    pub fn gsc_bytes(&self) -> f64 {
        self.gsc_mib * 1024.0 * 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_dsc_peak_matches_paper() {
        let c = HwConfig::single_dsc();
        assert!((c.peak_tops() - 9.83).abs() < 0.05, "got {}", c.peak_tops());
    }

    #[test]
    fn exion4_matches_table_ii() {
        let c = HwConfig::exion4();
        // Table II: 39.2 TOPS, 51 GB/s.
        assert!((c.peak_tops() - 39.3).abs() < 0.2, "got {}", c.peak_tops());
        assert!((c.dram_gbps - 51.0).abs() < 1e-9);
        assert!(c.lpddr);
    }

    #[test]
    fn exion24_matches_table_ii() {
        let c = HwConfig::exion24();
        // Table II: 235.2 TOPS, 819 GB/s GDDR6.
        assert!((c.peak_tops() - 235.9).abs() < 1.0, "got {}", c.peak_tops());
        assert!(!c.lpddr);
    }

    #[test]
    fn geometry_mac_rates() {
        let g = DscGeometry::exion();
        assert_eq!(g.sdue_macs_per_cycle(), 4096);
        let toy = DscGeometry::toy();
        assert_eq!(toy.sdue_macs_per_cycle(), 8 * 3 * 4);
    }

    #[test]
    fn cycle_time_at_800mhz() {
        assert!((HwConfig::exion4().cycle_ns() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn memory_sizes_match_figure_11() {
        let m = MemorySizes::exion();
        assert_eq!(m.imem_bank_bytes * 16, 24 * 1024); // 24 kB IMEM
        assert_eq!(m.wmem_bank_bytes * 16, 192 * 1024); // 192 kB WMEM
        assert_eq!(m.omem_bank_bytes * 16, 24 * 1024); // 24 kB OMEM
    }
}
