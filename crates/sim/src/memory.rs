//! Shared memory-bandwidth model.
//!
//! The memory controller is the one resource all cores contend for. It is
//! modelled as a serial channel of `bytes_per_cycle` capacity plus an access
//! latency: a request issued at time `t` starts transferring when the
//! channel frees up, occupies it for `bytes / bytes_per_cycle` cycles and
//! completes `latency` cycles after its transfer finishes. Under symmetric
//! load the channel can equivalently be partitioned into fair per-core
//! shares; [`MemoryController::fair_share`] builds that per-core view.

/// A bandwidth-limited, latency-bearing memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryController {
    bytes_per_cycle: f64,
    latency_cycles: f64,
    busy_until: f64,
    bytes_transferred: f64,
    busy_cycles: f64,
}

impl MemoryController {
    /// Creates a channel with the given capacity and unloaded latency.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive or the latency is
    /// negative.
    #[must_use]
    pub fn new(bytes_per_cycle: f64, latency_cycles: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(latency_cycles >= 0.0, "latency cannot be negative");
        MemoryController {
            bytes_per_cycle,
            latency_cycles,
            busy_until: 0.0,
            bytes_transferred: 0.0,
            busy_cycles: 0.0,
        }
    }

    /// Builds the per-core fair-share view of a socket-level channel:
    /// `total_bytes_per_cycle / cores` of bandwidth and no intrinsic
    /// latency (callers add latency where prefetching can hide it).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn fair_share(total_bytes_per_cycle: f64, cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        MemoryController::new(total_bytes_per_cycle / cores as f64, 0.0)
    }

    /// Channel capacity in bytes per cycle.
    #[must_use]
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Unloaded access latency in cycles.
    #[must_use]
    pub fn latency_cycles(&self) -> f64 {
        self.latency_cycles
    }

    /// Issues a transfer of `bytes` at time `now`; returns the cycle at
    /// which the data is available `extra_latency` cycles downstream of the
    /// controller (e.g. in the L2 or in a DECA load queue).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or `now` is not finite.
    pub fn request(&mut self, now: f64, bytes: f64, extra_latency: f64) -> f64 {
        assert!(bytes >= 0.0 && now.is_finite(), "invalid memory request");
        let start = now.max(self.busy_until);
        let transfer = bytes / self.bytes_per_cycle;
        self.busy_until = start + transfer;
        self.bytes_transferred += bytes;
        self.busy_cycles += transfer;
        self.busy_until + self.latency_cycles + extra_latency
    }

    /// Total bytes transferred so far.
    #[must_use]
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Cycles during which the channel was actively transferring.
    #[must_use]
    pub fn busy_cycles(&self) -> f64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_serialize_on_bandwidth() {
        let mut mem = MemoryController::new(8.0, 100.0);
        // 800 bytes = 100 cycles of transfer.
        let t1 = mem.request(0.0, 800.0, 0.0);
        assert_eq!(t1, 200.0); // 100 transfer + 100 latency
                               // Issued immediately after, but the channel is busy until cycle 100.
        let t2 = mem.request(1.0, 800.0, 0.0);
        assert_eq!(t2, 300.0);
        assert_eq!(mem.bytes_transferred(), 1600.0);
        assert_eq!(mem.busy_cycles(), 200.0);
    }

    #[test]
    fn latency_is_added_after_transfer() {
        let mut mem = MemoryController::new(64.0, 50.0);
        let done = mem.request(10.0, 64.0, 16.0);
        assert_eq!(done, 10.0 + 1.0 + 50.0 + 16.0);
    }

    #[test]
    fn idle_channel_starts_at_request_time() {
        let mut mem = MemoryController::new(4.0, 0.0);
        let t = mem.request(1000.0, 40.0, 0.0);
        assert_eq!(t, 1010.0);
    }

    #[test]
    fn utilization_is_busy_over_total() {
        let mut mem = MemoryController::new(8.0, 0.0);
        // 400 bytes at 8 B/cycle keep the channel busy for 50 cycles: half
        // of a 100-cycle window, whatever the latency.
        mem.request(0.0, 400.0, 0.0);
        assert_eq!(mem.busy_cycles(), 50.0);
        mem.request(60.0, 400.0, 500.0);
        assert_eq!(mem.busy_cycles(), 100.0);
    }

    #[test]
    fn fair_share_divides_bandwidth() {
        let per_core = MemoryController::fair_share(340.0, 56);
        assert!((per_core.bytes_per_cycle() - 340.0 / 56.0).abs() < 1e-12);
        assert_eq!(per_core.latency_cycles(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_is_rejected() {
        let _ = MemoryController::new(0.0, 10.0);
    }
}
