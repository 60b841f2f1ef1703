//! Banked DRAM timing model.

use std::collections::VecDeque;

/// DRAM geometry and timing (core-clock cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (requests to distinct banks proceed in parallel);
    /// a power of two.
    pub banks: usize,
    /// Access latency once a bank accepts the request.
    pub access_latency: u64,
    /// Bank occupancy per request (time until the bank is free again).
    pub bank_occupancy: u64,
}

impl DramConfig {
    /// Baseline: 16 banks, 100-cycle access, 16-cycle occupancy — a
    /// GDDR-like ratio at the Table 2 core clock.
    pub fn baseline() -> Self {
        DramConfig {
            banks: 16,
            access_latency: 100,
            bank_occupancy: 16,
        }
    }
}

/// DRAM activity counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub accesses: u64,
    /// Total cycles requests waited for a busy bank.
    pub bank_wait_cycles: u64,
    /// Requests per bank (for bank-level-parallelism analysis, §6.2.2).
    pub per_bank: Vec<u64>,
}

impl DramStats {
    /// Mean cycles a request waited on a busy bank.
    pub fn mean_bank_wait(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.bank_wait_cycles as f64 / self.accesses as f64
        }
    }

    /// Bank-level parallelism proxy: normalized inverse imbalance of the
    /// per-bank request distribution (1.0 = perfectly balanced). §6.2.2
    /// reports repacking "improves bank parallelism in the DRAM by 41%";
    /// this metric captures the same balance effect.
    pub fn bank_balance(&self) -> f64 {
        let total: u64 = self.per_bank.iter().sum();
        if total == 0 || self.per_bank.is_empty() {
            return 0.0;
        }
        // Inverse Herfindahl index normalized by bank count.
        let hhi: f64 = self
            .per_bank
            .iter()
            .map(|&c| {
                let share = c as f64 / total as f64;
                share * share
            })
            .sum();
        1.0 / (hhi * self.per_bank.len() as f64)
    }
}

/// Banked DRAM with occupancy-based contention.
///
/// Each request maps to a bank by line address, interleaving consecutive
/// lines of the given size over the banks (the simulator passes the L2
/// line size). A request occupies its bank for `bank_occupancy` cycles,
/// in the earliest window at or after its own time that overlaps no
/// window already reserved on that bank: requests need not arrive in
/// time order, and one issued later for an earlier time does not queue
/// behind it. No row-buffer model — the occupancy parameter captures
/// average activation cost.
///
/// # Examples
///
/// ```
/// use rip_gpusim::{Dram, DramConfig};
///
/// let mut d = Dram::new(DramConfig::baseline(), 128);
/// let t1 = d.access(0, 0);
/// let t2 = d.access(0, 0); // same bank: must wait for occupancy
/// assert!(t2 > t1);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    /// `log2` of the interleaving line size.
    line_shift: u32,
    /// `banks − 1`: a line's bank is a mask, not a remainder.
    bank_mask: u64,
    /// Per bank, the start times of its reserved occupancy windows, in
    /// order; the windows never overlap.
    windows: Vec<VecDeque<u64>>,
    /// No request comes earlier than this time (see [`Dram::advance_to`]).
    horizon: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM whose banks interleave `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics when `banks` is zero or not a power of two, or when
    /// `line_bytes` is not a power of two.
    pub fn new(config: DramConfig, line_bytes: usize) -> Self {
        assert!(config.banks > 0, "need at least one bank");
        assert!(
            config.banks.is_power_of_two(),
            "{} banks: the bank count must be a power of two",
            config.banks
        );
        assert!(
            line_bytes.is_power_of_two(),
            "{line_bytes}-byte lines: the line size must be a power of two"
        );
        Dram {
            config,
            line_shift: line_bytes.trailing_zeros(),
            bank_mask: config.banks as u64 - 1,
            windows: vec![VecDeque::new(); config.banks],
            horizon: 0,
            stats: DramStats {
                per_bank: vec![0; config.banks],
                ..Default::default()
            },
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Issues a request for `addr` at time `now`; returns the completion
    /// time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `now` lies before the time last passed
    /// to [`Dram::advance_to`].
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        debug_assert!(now >= self.horizon, "a request before the horizon");
        let occupancy = self.config.bank_occupancy;
        let bank = ((addr >> self.line_shift) & self.bank_mask) as usize;
        let windows = &mut self.windows[bank];
        while windows
            .front()
            .is_some_and(|&start| start + occupancy <= self.horizon)
        {
            windows.pop_front();
        }
        // The first window ending after `now`, then the first gap at or
        // after `now` that holds a whole window.
        let mut at = windows.partition_point(|&start| start + occupancy <= now);
        let mut start = now;
        while let Some(&taken) = windows.get(at) {
            if taken >= start + occupancy {
                break;
            }
            start = start.max(taken + occupancy);
            at += 1;
        }
        windows.insert(at, start);
        self.stats.bank_wait_cycles += start - now;
        self.stats.accesses += 1;
        self.stats.per_bank[bank] += 1;
        start + self.config.access_latency
    }

    /// Promises that no later request comes before `now`, so windows
    /// that end by then can be forgotten.
    pub fn advance_to(&mut self, now: u64) {
        self.horizon = self.horizon.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_banks_proceed_in_parallel() {
        let mut d = Dram::new(
            DramConfig {
                banks: 4,
                access_latency: 100,
                bank_occupancy: 20,
            },
            128,
        );
        let a = d.access(0, 0); // bank 0
        let b = d.access(128, 0); // bank 1
        assert_eq!(a, 100);
        assert_eq!(b, 100);
        assert_eq!(d.stats().bank_wait_cycles, 0);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = Dram::new(
            DramConfig {
                banks: 4,
                access_latency: 100,
                bank_occupancy: 20,
            },
            128,
        );
        let a = d.access(0, 0);
        let b = d.access(4 * 128, 0); // also bank 0
        assert_eq!(a, 100);
        assert_eq!(b, 120);
        assert_eq!(d.stats().bank_wait_cycles, 20);
    }

    #[test]
    fn bank_frees_over_time() {
        let mut d = Dram::new(
            DramConfig {
                banks: 1,
                access_latency: 50,
                bank_occupancy: 10,
            },
            128,
        );
        let _ = d.access(0, 0);
        let late = d.access(0, 100); // bank long since free
        assert_eq!(late, 150);
    }

    #[test]
    fn a_request_takes_the_earliest_free_window() {
        let mut d = Dram::new(
            DramConfig {
                banks: 4,
                access_latency: 100,
                bank_occupancy: 16,
            },
            128,
        );
        assert_eq!(d.access(0, 200), 300);
        // Issued later but for an earlier time: it fits before the first
        // window instead of queueing behind it.
        assert_eq!(d.access(4 * 128, 0), 100);
        assert_eq!(d.stats().bank_wait_cycles, 0);
        // A gap too short for a whole window is skipped.
        assert_eq!(d.access(0, 190), 316);
        // It waits only for the window it overlaps.
        assert_eq!(d.access(0, 10), 116);
        assert_eq!(d.stats().bank_wait_cycles, 26 + 6);
        // Forgotten windows end by the horizon, so nothing later sees them.
        d.advance_to(300);
        assert_eq!(d.access(0, 300), 400);
        assert_eq!(d.windows[0], [300]);
    }

    #[test]
    fn balance_metric_prefers_spread_traffic() {
        let mut spread = Dram::new(
            DramConfig {
                banks: 4,
                access_latency: 1,
                bank_occupancy: 1,
            },
            128,
        );
        for i in 0..40u64 {
            spread.access(i * 128, i);
        }
        let mut hot = Dram::new(
            DramConfig {
                banks: 4,
                access_latency: 1,
                bank_occupancy: 1,
            },
            128,
        );
        for i in 0..40u64 {
            hot.access(0, i * 2);
        }
        assert!(spread.stats().bank_balance() > hot.stats().bank_balance());
        assert!((spread.stats().bank_balance() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "3 banks: the bank count must be a power of two")]
    fn non_power_of_two_bank_count_panics() {
        let _ = Dram::new(
            DramConfig {
                banks: 3,
                access_latency: 1,
                bank_occupancy: 1,
            },
            128,
        );
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = Dram::new(
            DramConfig {
                banks: 0,
                access_latency: 1,
                bank_occupancy: 1,
            },
            128,
        );
    }
}
