//! Multi-channel DRAM controller with statistics and energy accounting.

use crate::bank::BankState;
use crate::timing::DramTiming;

/// Access statistics and derived energy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Last completion time seen (ns).
    pub last_completion_ns: f64,
}

impl DramStats {
    /// Row-hit rate in `[0, 1]` (0.0 with no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// One channel: banks plus a serialized data bus.
#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<BankState>,
    bus_free_ns: f64,
}

/// A multi-channel DRAM device model.
#[derive(Debug, Clone)]
pub struct Dram {
    timing: DramTiming,
    channels: Vec<Channel>,
    stats: DramStats,
}

impl Dram {
    /// Creates a device with an explicit channel count.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(timing: DramTiming, channels: usize) -> Self {
        assert!(channels > 0, "at least one channel required");
        Self {
            timing,
            channels: (0..channels)
                .map(|_| Channel {
                    banks: vec![BankState::default(); timing.banks],
                    bus_free_ns: 0.0,
                })
                .collect(),
            stats: DramStats::default(),
        }
    }

    /// Creates a device with enough channels to reach `target_gbps`
    /// aggregate peak bandwidth (Table II: 51, 819, 1935 GB/s).
    ///
    /// # Panics
    ///
    /// Panics if `target_gbps <= 0`.
    pub fn for_bandwidth(timing: DramTiming, target_gbps: f64) -> Self {
        assert!(target_gbps > 0.0, "bandwidth must be positive");
        let channels = (target_gbps / timing.channel_gbps).ceil().max(1.0) as usize;
        Self::new(timing, channels)
    }

    /// The device timing.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Aggregate peak bandwidth (GB/s).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.timing.channel_gbps * self.channels.len() as f64
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Clears state and statistics.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.bus_free_ns = 0.0;
            for b in &mut ch.banks {
                *b = BankState::default();
            }
        }
        self.stats = DramStats::default();
    }

    /// Transfers `[addr, addr + bytes)` starting no earlier than `now_ns`,
    /// returning the completion time (ns). Consecutive bursts interleave
    /// across channels and stream through rows, so large sequential transfers
    /// approach peak bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn transfer(&mut self, addr: u64, bytes: u64, is_write: bool, now_ns: f64) -> f64 {
        assert!(bytes > 0, "empty transfer");
        let t = self.timing;
        let nch = self.channels.len() as u64;
        let bursts_per_row = t.bursts_per_row();
        let first_burst = addr / t.burst_bytes;
        let last_burst = (addr + bytes - 1) / t.burst_bytes;
        let mut completion = now_ns;

        for gb in first_burst..=last_burst {
            let ch_idx = (gb % nch) as usize;
            let col = gb / nch;
            let bank_idx = ((col / bursts_per_row) % t.banks as u64) as usize;
            let row = col / (bursts_per_row * t.banks as u64);

            let ch = &mut self.channels[ch_idx];
            let access = ch.banks[bank_idx].access(row, now_ns, &t);
            let data_start = access.data_ready_ns.max(ch.bus_free_ns);
            let done = data_start + t.burst_ns();
            ch.bus_free_ns = done;
            completion = completion.max(done);

            if access.row_hit {
                self.stats.row_hits += 1;
            } else {
                self.stats.row_misses += 1;
            }
        }

        if is_write {
            self.stats.bytes_written += bytes;
        } else {
            self.stats.bytes_read += bytes;
        }
        self.stats.last_completion_ns = self.stats.last_completion_ns.max(completion);
        completion
    }

    /// Analytic fast path for large sequential streams: O(1) instead of
    /// per-burst simulation. Sequential streams pipeline row activations
    /// behind bus transfers, so the time is first-access latency plus the
    /// bandwidth-limited transfer; statistics are updated with the exact
    /// hit/miss counts a sequential walk would produce.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn stream_transfer(&mut self, bytes: u64, is_write: bool, now_ns: f64) -> f64 {
        assert!(bytes > 0, "empty transfer");
        let t = self.timing;
        let first_access = t.t_rcd_ns + t.t_cas_ns;
        let start = now_ns.max(self.channels[0].bus_free_ns);
        let done = start + first_access + bytes as f64 / self.peak_bandwidth_gbps();
        for ch in &mut self.channels {
            ch.bus_free_ns = ch.bus_free_ns.max(done);
        }
        let bursts = bytes.div_ceil(t.burst_bytes);
        let misses = bytes.div_ceil(t.row_bytes).max(1);
        self.stats.row_misses += misses;
        self.stats.row_hits += bursts.saturating_sub(misses);
        if is_write {
            self.stats.bytes_written += bytes;
        } else {
            self.stats.bytes_read += bytes;
        }
        self.stats.last_completion_ns = self.stats.last_completion_ns.max(done);
        done
    }

    /// Dynamic DRAM energy of all traffic so far (pJ): activations plus
    /// per-bit transfer energy.
    pub fn dynamic_energy_pj(&self) -> f64 {
        let bits = 8.0 * (self.stats.bytes_read + self.stats.bytes_written) as f64;
        self.stats.row_misses as f64 * self.timing.act_energy_pj + bits * self.timing.rw_pj_per_bit
    }

    /// Background energy over `elapsed_ns` across all channels (pJ).
    pub fn background_energy_pj(&self, elapsed_ns: f64) -> f64 {
        // mW · ns = pJ.
        self.timing.background_mw * self.channels.len() as f64 * elapsed_ns
    }

    /// Lower-bound transfer time for `bytes` at peak bandwidth (ns).
    pub fn min_transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.peak_bandwidth_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_bandwidth_picks_channel_count() {
        let d = Dram::for_bandwidth(DramTiming::lpddr5(), 51.0);
        assert_eq!(d.channels(), 4); // 4 × 12.8 = 51.2 GB/s
        let d = Dram::for_bandwidth(DramTiming::gddr6(), 819.0);
        assert_eq!(d.channels(), 26);
    }

    #[test]
    fn sequential_stream_approaches_peak_bandwidth() {
        let mut d = Dram::for_bandwidth(DramTiming::lpddr5(), 51.0);
        let bytes = 4 << 20; // 4 MiB
        let done = d.transfer(0, bytes, false, 0.0);
        let achieved = bytes as f64 / done; // GB/s (bytes per ns)
        let peak = d.peak_bandwidth_gbps();
        assert!(
            achieved > 0.8 * peak,
            "achieved {achieved:.1} GB/s of peak {peak:.1}"
        );
        assert!(d.stats().hit_rate() > 0.95);
    }

    #[test]
    fn scattered_access_is_slower_than_sequential() {
        let mut seq = Dram::new(DramTiming::lpddr5(), 1);
        let seq_done = seq.transfer(0, 32 * 1024, false, 0.0);

        let mut scat = Dram::new(DramTiming::lpddr5(), 1);
        let mut scat_done = 0.0f64;
        // 1024 reads of one burst, each in a different row of the same bank.
        let t = DramTiming::lpddr5();
        let row_stride = t.row_bytes * t.banks as u64;
        for i in 0..1024u64 {
            scat_done = scat_done.max(scat.transfer(i * row_stride, 32, false, 0.0));
        }
        assert!(
            scat_done > 3.0 * seq_done,
            "scattered {scat_done:.0} ns vs sequential {seq_done:.0} ns"
        );
        assert!(scat.stats().hit_rate() < 0.05);
    }

    #[test]
    fn transfer_is_deterministic() {
        let mut a = Dram::new(DramTiming::gddr6(), 2);
        let mut b = Dram::new(DramTiming::gddr6(), 2);
        assert_eq!(
            a.transfer(128, 8192, true, 5.0),
            b.transfer(128, 8192, true, 5.0)
        );
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut d = Dram::new(DramTiming::lpddr5(), 2);
        let _ = d.transfer(0, 1000, false, 0.0);
        let _ = d.transfer(4096, 500, true, 0.0);
        assert_eq!(d.stats().bytes_read, 1000);
        assert_eq!(d.stats().bytes_written, 500);
        d.reset();
        assert_eq!(d.stats().bytes_read, 0);
    }

    #[test]
    fn energy_grows_with_traffic_and_misses() {
        let mut d = Dram::new(DramTiming::lpddr5(), 1);
        let _ = d.transfer(0, 1024, false, 0.0);
        let e1 = d.dynamic_energy_pj();
        let t = DramTiming::lpddr5();
        let _ = d.transfer(t.row_bytes * t.banks as u64 * 7, 1024, false, 1e6);
        let e2 = d.dynamic_energy_pj();
        assert!(e2 > e1);
        assert!(d.background_energy_pj(1000.0) > 0.0);
    }

    #[test]
    fn min_transfer_matches_peak() {
        let d = Dram::for_bandwidth(DramTiming::gddr6(), 819.0);
        let ns = d.min_transfer_ns(832 * 1000);
        assert!((ns - 1000.0).abs() < 10.0); // 832 GB/s ⇒ ~1 µs for 832 kB
    }

    #[test]
    fn stream_transfer_matches_burst_simulation() {
        let bytes = 1 << 20;
        let mut fine = Dram::for_bandwidth(DramTiming::lpddr5(), 51.0);
        let fine_done = fine.transfer(0, bytes, false, 0.0);
        let mut coarse = Dram::for_bandwidth(DramTiming::lpddr5(), 51.0);
        let coarse_done = coarse.stream_transfer(bytes, false, 0.0);
        let ratio = coarse_done / fine_done;
        assert!((0.8..1.25).contains(&ratio), "coarse/fine ratio {ratio}");
        assert_eq!(coarse.stats().bytes_read, bytes);
    }

    #[test]
    fn stream_transfers_serialize_on_the_bus() {
        let mut d = Dram::for_bandwidth(DramTiming::gddr6(), 819.0);
        let first = d.stream_transfer(1 << 20, false, 0.0);
        let second = d.stream_transfer(1 << 20, false, 0.0);
        assert!(second > first);
    }

    #[test]
    #[should_panic(expected = "empty transfer")]
    fn zero_byte_transfer_rejected() {
        let mut d = Dram::new(DramTiming::lpddr5(), 1);
        let _ = d.transfer(0, 0, false, 0.0);
    }
}
