//! Banked on-chip SRAM with double/triple buffering (paper Fig. 10/11).
//!
//! "Input and weight memories (IMEM and WMEM) are double-buffered and
//! triple-buffered, respectively. This buffering scheme is utilized not only
//! to hide the latency of data fetching but also to broadcast the required
//! data to SDUE."

/// Buffer replication of a banked memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// One buffer (no fetch/compute overlap).
    Single,
    /// Two buffers (fetch next tile while computing, IMEM/OMEM).
    Double,
    /// Three buffers (WMEM — also holds the up-to-three weight-column origins
    /// of a twice-merged block).
    Triple,
}

impl Buffering {
    /// Number of buffer copies.
    pub fn copies(&self) -> usize {
        match self {
            Buffering::Single => 1,
            Buffering::Double => 2,
            Buffering::Triple => 3,
        }
    }
}

/// A banked, buffered scratch memory with access accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BankedMemory {
    name: String,
    banks: usize,
    bank_bytes: usize,
    buffering: Buffering,
    reads: u64,
    writes: u64,
}

impl BankedMemory {
    /// Creates a memory of `banks × bank_bytes` per buffer copy.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `bank_bytes` is zero.
    pub fn new(name: &str, banks: usize, bank_bytes: usize, buffering: Buffering) -> Self {
        assert!(banks > 0 && bank_bytes > 0, "memory must have capacity");
        Self {
            name: name.to_string(),
            banks,
            bank_bytes,
            buffering,
            reads: 0,
            writes: 0,
        }
    }

    /// Memory name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity of one buffer copy (bytes).
    pub fn buffer_bytes(&self) -> usize {
        self.banks * self.bank_bytes
    }

    /// Total capacity across buffer copies (bytes).
    pub fn total_bytes(&self) -> usize {
        self.buffer_bytes() * self.buffering.copies()
    }

    /// Whether one tile of `bytes` fits a single buffer copy — i.e. its
    /// [`Self::capacity_fraction`] reaches 1.0.
    pub fn tile_fits(&self, bytes: usize) -> bool {
        self.capacity_fraction(bytes) >= 1.0
    }

    /// Fraction of a `working_set_bytes` object one buffer copy can hold —
    /// the same byte-proportional partial-residency rule the GSC model uses
    /// ([`crate::residency::partial_residency`]); tiles larger than a buffer
    /// stream the remainder rather than refusing outright.
    pub fn capacity_fraction(&self, working_set_bytes: usize) -> f64 {
        crate::residency::partial_residency(self.buffer_bytes() as f64, working_set_bytes as f64)
    }

    /// Largest tile rows that fit given `bytes_per_row` (per-bank row
    /// granularity: one row per bank).
    pub fn max_rows(&self, bytes_per_row: usize) -> usize {
        if bytes_per_row == 0 {
            return self.banks;
        }
        self.banks.min(self.buffer_bytes() / bytes_per_row)
    }

    /// Records a read of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.reads += bytes;
    }

    /// Records a write of `bytes`.
    pub fn record_write(&mut self, bytes: u64) {
        self.writes += bytes;
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.reads
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exion_wmem_capacity() {
        // 16 banks × 12 kB, triple-buffered = 576 kB total, 192 kB per copy.
        let m = BankedMemory::new("WMEM", 16, 12288, Buffering::Triple);
        assert_eq!(m.buffer_bytes(), 192 * 1024);
        assert_eq!(m.total_bytes(), 576 * 1024);
    }

    #[test]
    fn tile_fit_checks() {
        let m = BankedMemory::new("IMEM", 16, 1536, Buffering::Double);
        assert!(m.tile_fits(24 * 1024));
        assert!(!m.tile_fits(24 * 1024 + 1));
    }

    #[test]
    fn capacity_fraction_is_partial_not_binary() {
        let m = BankedMemory::new("IMEM", 16, 1536, Buffering::Double);
        assert_eq!(m.capacity_fraction(12 * 1024), 1.0);
        assert_eq!(m.capacity_fraction(48 * 1024), 0.5);
        assert_eq!(m.capacity_fraction(0), 1.0);
    }

    #[test]
    fn max_rows_bounded_by_banks() {
        let m = BankedMemory::new("IMEM", 16, 1536, Buffering::Double);
        assert_eq!(m.max_rows(10), 16); // plenty of space, bank-limited
        assert_eq!(m.max_rows(4096), 6); // 24576 / 4096
    }

    #[test]
    fn access_accounting() {
        let mut m = BankedMemory::new("OMEM", 16, 1536, Buffering::Double);
        m.record_read(100);
        m.record_write(50);
        m.record_read(10);
        assert_eq!(m.bytes_read(), 110);
        assert_eq!(m.bytes_written(), 50);
    }

    #[test]
    fn buffering_copies() {
        assert_eq!(Buffering::Single.copies(), 1);
        assert_eq!(Buffering::Double.copies(), 2);
        assert_eq!(Buffering::Triple.copies(), 3);
    }
}
