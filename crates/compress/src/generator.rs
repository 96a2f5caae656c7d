//! Synthetic weight generation.
//!
//! The paper evaluates on real pruned/quantized LLM weights; those are not
//! available here, so evaluation matrices are generated synthetically. What
//! matters for performance is (1) the density, (2) the *spatial* distribution
//! of nonzeros — the paper assumes uniformly distributed unstructured
//! sparsity, which drives DECA's binomial bubble statistics — and (3) a value
//! distribution broadly similar to trained weights (zero-mean, small
//! standard deviation). All three are controlled here.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::WeightMatrix;

/// Deterministic, seedable generator of synthetic weight matrices.
#[derive(Debug, Clone)]
pub struct WeightGenerator {
    seed: u64,
    std_dev: f64,
}

impl WeightGenerator {
    /// Creates a generator with the given seed and a weight standard
    /// deviation of 0.02 (typical of trained transformer FC layers).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WeightGenerator {
            seed,
            std_dev: 0.02,
        }
    }

    /// Sets the standard deviation of generated weights.
    #[must_use]
    pub fn with_std_dev(mut self, std_dev: f64) -> Self {
        self.std_dev = std_dev;
        self
    }

    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Samples an approximately normal value using the sum of uniform
    /// deviates (Irwin–Hall with 12 terms), which avoids needing a dedicated
    /// distributions crate.
    fn sample_normalish(rng: &mut StdRng, std_dev: f64) -> f32 {
        let sum: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
        ((sum - 6.0) * std_dev) as f32
    }

    /// Generates a fully dense matrix with zero-mean weights.
    #[must_use]
    pub fn dense_matrix(&self, rows: usize, cols: usize) -> WeightMatrix {
        let mut rng = self.rng(0xD15E);
        let mut m = WeightMatrix::zeros(rows, cols);
        for v in m.data_mut() {
            // Ensure strictly nonzero values so that the measured density of
            // a "dense" matrix is exactly 1.0.
            let mut x = Self::sample_normalish(&mut rng, self.std_dev);
            if x == 0.0 {
                x = self.std_dev as f32 * 0.1;
            }
            *v = x;
        }
        m
    }

    /// Generates a sparse matrix with the requested density of nonzeros:
    /// every element is independently nonzero with probability `density`
    /// (the paper's uniform unstructured-sparsity assumption).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn sparse_matrix(&self, rows: usize, cols: usize, density: f64) -> WeightMatrix {
        assert!(
            density > 0.0 && density <= 1.0,
            "density must be in (0, 1], got {density}"
        );
        let mut rng = self.rng(0x5BA5);
        let mut m = WeightMatrix::zeros(rows, cols);
        let bern = rand::distributions::Bernoulli::new(density).expect("density validated above");
        for v in m.data_mut() {
            if bern.sample(&mut rng) {
                let mut x = Self::sample_normalish(&mut rng, self.std_dev);
                if x == 0.0 {
                    x = self.std_dev as f32 * 0.1;
                }
                *v = x;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matrix_is_fully_dense_and_deterministic() {
        let g = WeightGenerator::new(42);
        let a = g.dense_matrix(32, 64);
        let b = g.dense_matrix(32, 64);
        assert_eq!(a, b, "same seed must give identical matrices");
        assert_eq!(a.density(), 1.0);
        let other = WeightGenerator::new(43).dense_matrix(32, 64);
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn sparse_matrix_hits_target_density_approximately() {
        let g = WeightGenerator::new(1);
        let m = g.sparse_matrix(128, 128, 0.3);
        let d = m.density();
        assert!((d - 0.3).abs() < 0.05, "measured density {d}");
    }

    #[test]
    fn weights_are_zero_mean_and_small() {
        let g = WeightGenerator::new(3).with_std_dev(0.02);
        let m = g.dense_matrix(64, 64);
        let mean: f64 = m.data().iter().map(|v| f64::from(*v)).sum::<f64>() / m.elems() as f64;
        let max = m.data().iter().fold(0f32, |acc, v| acc.max(v.abs()));
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!(max < 0.2, "max |w| {max}");
    }

    #[test]
    #[should_panic(expected = "density")]
    fn invalid_density_panics() {
        let _ = WeightGenerator::new(0).sparse_matrix(8, 8, 0.0);
    }

    #[test]
    fn full_density_sparse_equals_dense_density() {
        let g = WeightGenerator::new(9);
        let m = g.sparse_matrix(32, 32, 1.0);
        assert_eq!(m.density(), 1.0);
    }
}
