//! Machine descriptions (SPR-like server parameters, §8).

/// Parameters of a CPU server with in-core matrix engines, as used by both
/// the analytical models and (via `deca-sim`) the simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name (e.g. "SPR-HBM").
    pub name: String,
    /// Core (and DECA PE) clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Number of cores (each with one TMUL and, optionally, one DECA PE).
    pub cores: usize,
    /// SIMD AVX units per core that can execute decompression vector ops.
    pub simd_units_per_core: usize,
    /// Achievable memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Cycles one TMUL tile operation occupies the matrix unit (§2.3: 16).
    pub tmul_cycles_per_op: u32,
    /// Loaded memory latency in nanoseconds (used by the simulator, not by
    /// the analytic model).
    pub memory_latency_ns: f64,
}

impl MachineConfig {
    /// The paper's HBM-equipped 56-core SPR configuration (§8): 2.5 GHz,
    /// 2 AVX-512 FMA ports per core, ~850 GB/s.
    #[must_use]
    pub fn spr_hbm() -> Self {
        MachineConfig {
            name: "SPR-HBM".to_string(),
            frequency_ghz: 2.5,
            cores: 56,
            simd_units_per_core: 2,
            memory_bandwidth_gbps: 850.0,
            tmul_cycles_per_op: 16,
            memory_latency_ns: 130.0,
        }
    }

    /// The paper's DDR5-based 56-core SPR configuration (§8): ~260 GB/s.
    #[must_use]
    pub fn spr_ddr() -> Self {
        MachineConfig {
            name: "SPR-DDR".to_string(),
            memory_bandwidth_gbps: 260.0,
            memory_latency_ns: 110.0,
            ..MachineConfig::spr_hbm()
        }
    }

    /// Returns a copy with a different number of active cores (memory
    /// bandwidth is unchanged — it is a socket-level resource).
    #[must_use]
    pub fn with_cores(&self, cores: usize) -> Self {
        MachineConfig {
            name: format!("{}-{}c", self.name, cores),
            cores,
            ..self.clone()
        }
    }

    /// Returns a copy with the per-core vector throughput scaled by
    /// `factor` (e.g. 4× more AVX units, Fig. 6 / Fig. 15).
    #[must_use]
    pub fn with_vector_scaling(&self, factor: usize) -> Self {
        MachineConfig {
            name: format!("{}-{}xVOS", self.name, factor),
            simd_units_per_core: self.simd_units_per_core * factor,
            ..self.clone()
        }
    }

    /// Core clock frequency in Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_ghz * 1e9
    }

    /// Memory bandwidth in bytes per second (`MBW`).
    #[must_use]
    pub fn memory_bandwidth_bytes_per_sec(&self) -> f64 {
        self.memory_bandwidth_gbps * 1e9
    }

    /// Matrix throughput `MOS` in tile operations per second:
    /// `f · cores / tmul_cycles_per_op` (§4.1).
    #[must_use]
    pub fn mos(&self) -> f64 {
        self.frequency_hz() * self.cores as f64 / f64::from(self.tmul_cycles_per_op)
    }

    /// CPU vector throughput `VOS` in vector operations per second:
    /// `f · cores · simd_units_per_core` (§4.1).
    #[must_use]
    pub fn cpu_vos(&self) -> f64 {
        self.frequency_hz() * self.cores as f64 * self.simd_units_per_core as f64
    }

    /// DECA vector throughput: one vOp per cycle per PE, one PE per core
    /// (§6.2): `f · cores`.
    #[must_use]
    pub fn deca_vos(&self) -> f64 {
        self.frequency_hz() * self.cores as f64
    }

    /// Peak GeMM FLOPS (FMAs/s) for batch size `n`, saturating at the
    /// TMUL's N=16 limit (§2.3).
    #[must_use]
    pub fn peak_flops(&self, n: usize) -> f64 {
        crate::FLOPS_PER_TILE_OP_PER_N * effective_batch(n) as f64 * self.mos()
    }
}

/// The TMUL performs `512·N` FMAs per tile op but saturates at N=16 because
/// an activation tile holds at most 16 rows (§2.3).
#[must_use]
pub(crate) fn effective_batch(n: usize) -> usize {
    n.min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spr_hbm_derived_rates_match_paper() {
        let m = MachineConfig::spr_hbm();
        // MOS = 2.5 GHz * 56 / 16 = 8.75e9 tile ops/s.
        assert!((m.mos() - 8.75e9).abs() < 1e6);
        // CPU VOS = 2.5 GHz * 56 * 2 = 280e9 vops/s.
        assert!((m.cpu_vos() - 280e9).abs() < 1e6);
        // DECA VOS = 2.5 GHz * 56 = 140e9 vops/s.
        assert!((m.deca_vos() - 140e9).abs() < 1e6);
        // Peak FLOPS at N=1: 512 * 8.75e9 = 4.48 TFLOPS.
        assert!((m.peak_flops(1) - 4.48e12).abs() < 1e10);
        // Peak saturates at N=16.
        assert_eq!(m.peak_flops(16), m.peak_flops(64));
        assert!((m.peak_flops(16) - 71.68e12).abs() < 1e10);
    }

    #[test]
    fn ddr_variant_differs_only_in_memory() {
        let hbm = MachineConfig::spr_hbm();
        let ddr = MachineConfig::spr_ddr();
        assert_eq!(ddr.cores, hbm.cores);
        assert_eq!(ddr.mos(), hbm.mos());
        assert!(ddr.memory_bandwidth_gbps < hbm.memory_bandwidth_gbps);
        assert!((ddr.memory_bandwidth_bytes_per_sec() - 260e9).abs() < 1.0);
    }

    #[test]
    fn with_cores_scales_compute_not_memory() {
        let m = MachineConfig::spr_hbm().with_cores(16);
        assert_eq!(m.cores, 16);
        assert!((m.mos() - 2.5e9).abs() < 1e6);
        assert_eq!(m.memory_bandwidth_gbps, 850.0);
        assert!(m.name.contains("16c"));
    }

    #[test]
    fn vector_scaling_multiplies_vos() {
        let base = MachineConfig::spr_hbm();
        let scaled = base.with_vector_scaling(4);
        assert!((scaled.cpu_vos() - 4.0 * base.cpu_vos()).abs() < 1.0);
        assert_eq!(scaled.mos(), base.mos());
    }

    #[test]
    fn effective_batch_saturates_at_16() {
        assert_eq!(effective_batch(1), 1);
        assert_eq!(effective_batch(16), 16);
        assert_eq!(effective_batch(17), 16);
    }
}
