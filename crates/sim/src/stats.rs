//! Simulation statistics.

use deca_roofsurface::MachineConfig;

/// Per-run statistics of a simulated compressed GeMM.
///
/// All cycle counts are per core (the simulated cores are symmetric);
/// socket-level rates multiply by the core count of the machine the run was
/// configured with.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmStats {
    /// Number of cores the run modelled.
    pub cores: usize,
    /// Weight tiles processed per core.
    pub tiles_per_core: usize,
    /// Total weight tiles processed across all cores.
    pub tiles_processed: usize,
    /// Cycles from start to the last tile's completion (per core).
    pub total_cycles: f64,
    /// Cycles the per-core share of the memory channel spent transferring.
    pub memory_busy_cycles: f64,
    /// Cycles the TMUL was busy (per core).
    pub tmul_busy_cycles: f64,
    /// Cycles the decompression engine (AVX ports or DECA PE) was busy (per
    /// core).
    pub decompress_busy_cycles: f64,
    /// Cycles' worth of core issue/commit slots consumed (per core).
    pub core_issue_cycles: f64,
    /// Bytes fetched from memory per core.
    pub bytes_per_core: f64,
}

impl GemmStats {
    /// Memory-bandwidth utilization in `[0, 1]`.
    #[must_use]
    pub fn memory_utilization(&self) -> f64 {
        ratio(self.memory_busy_cycles, self.total_cycles)
    }

    /// TMUL utilization in `[0, 1]`.
    #[must_use]
    pub fn tmul_utilization(&self) -> f64 {
        ratio(self.tmul_busy_cycles, self.total_cycles)
    }

    /// Decompression-engine utilization in `[0, 1]`.
    #[must_use]
    pub fn decompress_utilization(&self) -> f64 {
        ratio(self.decompress_busy_cycles, self.total_cycles)
    }

    /// Fraction of core issue/commit slots used, the statistic quoted in
    /// §4.2 ("cores are already using 40–80 % of their commit slots").
    #[must_use]
    pub fn core_issue_utilization(&self) -> f64 {
        ratio(self.core_issue_cycles, self.total_cycles)
    }

    /// Cycles per tile at steady state (per core).
    #[must_use]
    pub fn cycles_per_tile(&self) -> f64 {
        if self.tiles_per_core == 0 {
            0.0
        } else {
            self.total_cycles / self.tiles_per_core as f64
        }
    }

    /// Socket-level tile throughput in tiles per second.
    #[must_use]
    pub fn tiles_per_second(&self, machine: &MachineConfig) -> f64 {
        if self.total_cycles <= 0.0 {
            return 0.0;
        }
        let seconds = self.total_cycles / machine.frequency_hz();
        self.tiles_processed as f64 / seconds
    }

    /// Socket-level FLOPS (FMAs/s) for batch size `n`.
    #[must_use]
    pub fn flops(&self, machine: &MachineConfig, n: usize) -> f64 {
        deca_roofsurface::FLOPS_PER_TILE_OP_PER_N
            * n.min(16) as f64
            * self.tiles_per_second(machine)
    }

    /// Socket-level TFLOPS for batch size `n`.
    #[must_use]
    pub fn tflops(&self, machine: &MachineConfig, n: usize) -> f64 {
        self.flops(machine, n) / 1e12
    }

    /// Wall-clock seconds this GeMM (the simulated portion) took.
    #[must_use]
    pub fn seconds(&self, machine: &MachineConfig) -> f64 {
        self.total_cycles / machine.frequency_hz()
    }

    /// A compact utilization summary in the style of Table 3.
    #[must_use]
    pub fn utilization_report(&self) -> UtilizationReport {
        UtilizationReport {
            memory: self.memory_utilization(),
            tmul: self.tmul_utilization(),
            decompressor: self.decompress_utilization(),
            core_issue: self.core_issue_utilization(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

/// The MEM / TMUL / decompressor utilization triple reported in Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationReport {
    /// Memory bandwidth utilization.
    pub memory: f64,
    /// TMUL utilization.
    pub tmul: f64,
    /// AVX-or-DECA utilization.
    pub decompressor: f64,
    /// Core issue/commit slot utilization.
    pub core_issue: f64,
}

impl std::fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MEM {:>5.1}%  TMUL {:>5.1}%  DECOMP {:>5.1}%  ISSUE {:>5.1}%",
            self.memory * 100.0,
            self.tmul * 100.0,
            self.decompressor * 100.0,
            self.core_issue * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GemmStats {
        GemmStats {
            cores: 56,
            tiles_per_core: 1000,
            tiles_processed: 56_000,
            total_cycles: 64_000.0,
            memory_busy_cycles: 32_000.0,
            tmul_busy_cycles: 16_000.0,
            decompress_busy_cycles: 60_000.0,
            core_issue_cycles: 30_000.0,
            bytes_per_core: 512_000.0,
        }
    }

    #[test]
    fn utilizations_are_ratios() {
        let s = sample();
        assert!((s.memory_utilization() - 0.5).abs() < 1e-12);
        assert!((s.tmul_utilization() - 0.25).abs() < 1e-12);
        assert!((s.decompress_utilization() - 0.9375).abs() < 1e-12);
        assert!((s.core_issue_utilization() - 0.46875).abs() < 1e-12);
        assert_eq!(s.cycles_per_tile(), 64.0);
    }

    #[test]
    fn socket_rates_scale_with_cores_and_frequency() {
        let s = sample();
        let machine = MachineConfig::spr_hbm();
        let seconds = 64_000.0 / 2.5e9;
        let tps = 56_000.0 / seconds;
        assert!((s.tiles_per_second(&machine) - tps).abs() / tps < 1e-12);
        assert!((s.flops(&machine, 1) - 512.0 * tps).abs() / (512.0 * tps) < 1e-12);
        assert_eq!(s.flops(&machine, 16), s.flops(&machine, 99));
        assert!((s.seconds(&machine) - seconds).abs() < 1e-18);
    }

    #[test]
    fn report_formats_percentages() {
        let s = sample().utilization_report();
        let text = s.to_string();
        assert!(text.contains("MEM"));
        assert!(text.contains("TMUL"));
        assert!(text.contains('%'));
    }

    #[test]
    fn degenerate_stats_do_not_divide_by_zero() {
        let mut s = sample();
        s.total_cycles = 0.0;
        s.tiles_per_core = 0;
        assert_eq!(s.memory_utilization(), 0.0);
        assert_eq!(s.cycles_per_tile(), 0.0);
        assert_eq!(s.tiles_per_second(&MachineConfig::spr_hbm()), 0.0);
    }
}
