//! Kernel signatures: the `(AIX_M, AIX_V)` pair.
//!
//! In the Roof-Surface model a kernel is fully characterized (for a fixed
//! machine) by two numbers: how many matrix operations it can execute per
//! byte loaded from memory (`AIX_M`) and per vector operation executed
//! (`AIX_V`), §4.1. Two kernels with the same signature have the same
//! projected performance.

use deca_compress::CompressionScheme;

/// The `(AIX_M, AIX_V)` signature of a compressed-GeMM kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSignature {
    /// Display label (usually the compression-scheme label, e.g. `Q8_20%`).
    pub label: String,
    /// matriX-to-Memory arithmetic intensity: matrix ops per byte.
    pub aix_m: f64,
    /// matriX-to-Vector arithmetic intensity: matrix ops per vector op.
    pub aix_v: f64,
}

impl KernelSignature {
    /// Creates a signature from raw intensities.
    ///
    /// # Panics
    ///
    /// Panics if either intensity is not strictly positive and finite.
    #[must_use]
    pub fn new(label: impl Into<String>, aix_m: f64, aix_v: f64) -> Self {
        assert!(
            aix_m > 0.0 && aix_m.is_finite() && aix_v > 0.0 && aix_v.is_finite(),
            "arithmetic intensities must be positive and finite"
        );
        KernelSignature {
            label: label.into(),
            aix_m,
            aix_v,
        }
    }

    /// Builds the signature of a kernel that decompresses tiles of `scheme`
    /// using `vops_per_tile` vector operations per weight tile.
    ///
    /// `AIX_M` comes from the scheme's byte accounting; `AIX_V` is simply
    /// `1 / vops_per_tile`.
    ///
    /// # Panics
    ///
    /// Panics if `vops_per_tile` is not strictly positive.
    #[must_use]
    pub fn from_scheme_and_vops(scheme: &CompressionScheme, vops_per_tile: f64) -> Self {
        assert!(vops_per_tile > 0.0, "vops_per_tile must be positive");
        KernelSignature {
            label: scheme.label(),
            aix_m: scheme.aix_m(),
            aix_v: 1.0 / vops_per_tile,
        }
    }

    /// Vector operations needed per tile (`1 / AIX_V`).
    #[must_use]
    pub fn vops_per_tile(&self) -> f64 {
        1.0 / self.aix_v
    }

    /// Bytes fetched from memory per tile (`1 / AIX_M`).
    #[must_use]
    pub fn bytes_per_tile(&self) -> f64 {
        1.0 / self.aix_m
    }
}

impl std::fmt::Display for KernelSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (AIX_M={:.5}, AIX_V={:.5})",
            self.label, self.aix_m, self.aix_v
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_from_scheme_uses_byte_accounting() {
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let sig = KernelSignature::from_scheme_and_vops(&scheme, 144.0);
        assert_eq!(sig.label, "Q8_20%");
        assert!((sig.bytes_per_tile() - 166.4).abs() < 1e-9);
        assert!((sig.vops_per_tile() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn reciprocal_relationships_hold() {
        let sig = KernelSignature::new("x", 0.004, 0.01);
        assert!((sig.bytes_per_tile() - 250.0).abs() < 1e-9);
        assert!((sig.vops_per_tile() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_intensity_is_rejected() {
        let _ = KernelSignature::new("bad", 0.0, 0.1);
    }

    #[test]
    fn display_and_relabel() {
        let sig = KernelSignature::new("Q4-deca", 0.003, 0.05);
        assert_eq!(sig.label, "Q4-deca");
        assert!(sig.to_string().contains("Q4-deca"));
    }
}
