//! DRAM device timing and energy parameter sets.
//!
//! Values are standard datasheet-class numbers for LPDDR5 and GDDR6 devices
//! (the paper cites vendor energy presentations \[14\], \[17\] for its power
//! modelling; the per-bit and activation energies here sit in the same
//! ranges).

/// Timing/energy parameters of one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Peak data bandwidth of one channel (GB/s).
    pub channel_gbps: f64,
    /// CAS latency (ns).
    pub t_cas_ns: f64,
    /// RAS-to-CAS (activate) delay (ns).
    pub t_rcd_ns: f64,
    /// Row precharge time (ns).
    pub t_rp_ns: f64,
    /// Banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Burst transfer granularity in bytes.
    pub burst_bytes: u64,
    /// Energy of one row activation (pJ).
    pub act_energy_pj: f64,
    /// Read/write transfer energy (pJ per bit).
    pub rw_pj_per_bit: f64,
    /// Background/standby power per channel (mW).
    pub background_mw: f64,
}

impl DramTiming {
    /// LPDDR5-6400 class channel (x16 at 6.4 Gb/s/pin ⇒ 12.8 GB/s),
    /// the edge configuration's memory (Table II: EXION4 uses 51 GB/s
    /// LPDDR5).
    pub fn lpddr5() -> Self {
        Self {
            channel_gbps: 12.8,
            t_cas_ns: 18.0,
            t_rcd_ns: 18.0,
            t_rp_ns: 18.0,
            banks: 16,
            row_bytes: 2048,
            burst_bytes: 32,
            act_energy_pj: 2000.0,
            rw_pj_per_bit: 4.0,
            background_mw: 40.0,
        }
    }

    /// GDDR6 class channel (x16 at 16 Gb/s/pin ⇒ 32 GB/s), the server
    /// configuration's memory (Table II: EXION24 uses 819 GB/s).
    pub fn gddr6() -> Self {
        Self {
            channel_gbps: 32.0,
            t_cas_ns: 15.0,
            t_rcd_ns: 14.0,
            t_rp_ns: 14.0,
            banks: 16,
            row_bytes: 2048,
            burst_bytes: 32,
            act_energy_pj: 3000.0,
            rw_pj_per_bit: 7.5,
            background_mw: 120.0,
        }
    }

    /// Nanoseconds one burst occupies the channel's data bus.
    pub fn burst_ns(&self) -> f64 {
        self.burst_bytes as f64 / self.channel_gbps
    }

    /// Bursts per row (row-buffer hit streak length for sequential access).
    pub fn bursts_per_row(&self) -> u64 {
        self.row_bytes / self.burst_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for t in [DramTiming::lpddr5(), DramTiming::gddr6()] {
            assert!(t.channel_gbps > 0.0);
            assert!(t.t_cas_ns > 0.0 && t.t_rcd_ns > 0.0 && t.t_rp_ns > 0.0);
            assert!(t.row_bytes % t.burst_bytes == 0);
            assert!(t.banks.is_power_of_two());
        }
    }

    #[test]
    fn gddr6_is_faster_but_hungrier() {
        let lp = DramTiming::lpddr5();
        let g6 = DramTiming::gddr6();
        assert!(g6.channel_gbps > lp.channel_gbps);
        assert!(g6.rw_pj_per_bit > lp.rw_pj_per_bit);
    }

    #[test]
    fn burst_time_matches_bandwidth() {
        let t = DramTiming::lpddr5();
        // 32 B at 12.8 GB/s = 2.5 ns.
        assert!((t.burst_ns() - 2.5).abs() < 1e-9);
        assert_eq!(t.bursts_per_row(), 64);
    }
}
