//! Per-bank row-buffer state machines.

use crate::timing::DramTiming;

/// The row-buffer state of one DRAM bank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Earliest time (ns) the bank can accept a new column command.
    pub ready_ns: f64,
}

/// Outcome of issuing one burst to a bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankAccess {
    /// Time (ns) the column access was issued.
    pub issue_ns: f64,
    /// Time (ns) data is available at the bank's I/O (before bus transfer).
    pub data_ready_ns: f64,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

impl BankState {
    /// Issues one burst for `row` at `now_ns`, updating the open row.
    ///
    /// A hit pays CAS only; a miss pays precharge (if another row was open)
    /// plus activate plus CAS.
    pub fn access(&mut self, row: u64, now_ns: f64, t: &DramTiming) -> BankAccess {
        let mut issue = now_ns.max(self.ready_ns);
        let row_hit = self.open_row == Some(row);
        if !row_hit {
            if self.open_row.is_some() {
                issue += t.t_rp_ns;
            }
            issue += t.t_rcd_ns;
            self.open_row = Some(row);
        }
        let data_ready = issue + t.t_cas_ns;
        // The bank can pipeline subsequent column commands to the same row
        // once the current command is issued.
        self.ready_ns = issue + t.burst_ns();
        BankAccess {
            issue_ns: issue,
            data_ready_ns: data_ready,
            row_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_miss_without_precharge() {
        let t = DramTiming::lpddr5();
        let mut b = BankState::default();
        let a = b.access(3, 0.0, &t);
        assert!(!a.row_hit);
        assert!((a.issue_ns - t.t_rcd_ns).abs() < 1e-9);
        assert_eq!(b.open_row, Some(3));
    }

    #[test]
    fn second_access_same_row_hits() {
        let t = DramTiming::lpddr5();
        let mut b = BankState::default();
        let _ = b.access(3, 0.0, &t);
        let a = b.access(3, 100.0, &t);
        assert!(a.row_hit);
        assert!((a.data_ready_ns - (100.0 + t.t_cas_ns)).abs() < 1e-9);
    }

    #[test]
    fn row_switch_pays_precharge_and_activate() {
        let t = DramTiming::lpddr5();
        let mut b = BankState::default();
        let _ = b.access(3, 0.0, &t);
        let a = b.access(4, 100.0, &t);
        assert!(!a.row_hit);
        assert!((a.issue_ns - (100.0 + t.t_rp_ns + t.t_rcd_ns)).abs() < 1e-9);
        assert_eq!(b.open_row, Some(4));
    }

    #[test]
    fn bank_backpressure_applies() {
        let t = DramTiming::lpddr5();
        let mut b = BankState::default();
        let a0 = b.access(1, 0.0, &t);
        // Immediately issuing again queues behind the bank's ready time.
        let a1 = b.access(1, 0.0, &t);
        assert!(a1.issue_ns >= a0.issue_ns + t.burst_ns() - 1e-9);
    }
}
