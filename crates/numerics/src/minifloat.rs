//! Generic ≤8-bit floating point codec ("minifloat").
//!
//! DECA dequantizes arbitrary quantized formats of at most 8 bits by looking
//! the code word up in a programmable 256-entry LUT. That flexibility is
//! mirrored here: a [`Minifloat`] describes an arbitrary 1-sign / E-exponent /
//! M-mantissa split and provides exact decode plus round-to-nearest encode.
//!
//! Encoding is implemented by nearest-value search over the (small) code
//! space, pre-sorted at construction time. This is exactly correct for every
//! geometry, including ones without IEEE semantics. A search costs about
//! 40 ns per value (perfbench's `numerics.minifloat_encode_ns`, E5M2), but
//! construction decodes and sorts every code, so build a codec once and
//! hold it across values, as `deca_compress::Compressor` does.

use crate::{Bf16, FormatError};

/// A floating point format with 1 sign bit, `exp_bits` exponent bits and
/// `man_bits` mantissa bits, totalling at most 8 bits.
///
/// Subnormals are supported; the maximum exponent is treated as a *normal*
/// value range (no Inf/NaN codes) for formats of 4 bits or fewer — matching
/// OCP MX FP4 — and as Inf/NaN for 8-bit formats, matching E5M2/E4M3 usage in
/// ML stacks (E4M3 reserves only the all-ones mantissa for NaN).
///
/// ```
/// use deca_numerics::Minifloat;
/// let fp4 = Minifloat::e2m1();
/// assert_eq!(fp4.decode(fp4.encode(6.0)), 6.0);   // FP4 max normal
/// assert_eq!(fp4.decode(fp4.encode(100.0)), 6.0); // saturates
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Minifloat {
    exp_bits: u8,
    man_bits: u8,
    bias: i32,
    has_inf_nan: bool,
    /// (value, code) pairs sorted by value, excluding NaN codes, used for
    /// nearest-value encoding.
    sorted: Vec<(f32, u8)>,
}

impl Minifloat {
    /// Creates a new minifloat geometry.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidGeometry`] when the total width is not
    /// in `2..=8` bits or there are no exponent bits.
    pub fn new(exp_bits: u8, man_bits: u8) -> Result<Self, FormatError> {
        let total = 1 + exp_bits + man_bits;
        if exp_bits == 0 || !(2..=8).contains(&total) {
            return Err(FormatError::InvalidGeometry { exp_bits, man_bits });
        }
        let bias = (1 << (exp_bits - 1)) - 1;
        // E5M2 follows IEEE-style Inf/NaN at the top exponent. E4M3 (ML
        // convention) and everything of <=6 bits use the whole top binade as
        // finite values, except E4M3 which reserves mantissa=all-ones as NaN.
        let has_inf_nan = exp_bits == 5 && man_bits == 2;
        let mut mf = Minifloat {
            exp_bits,
            man_bits,
            bias,
            has_inf_nan,
            sorted: Vec::new(),
        };
        let n_codes = 1u16 << total;
        let mut sorted: Vec<(f32, u8)> = (0..n_codes)
            .map(|c| (mf.decode_raw(c as u8), c as u8))
            .filter(|(v, _)| v.is_finite())
            .collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        mf.sorted = sorted;
        Ok(mf)
    }

    /// BF8: 8-bit brain floating point, E5M2 (the paper's "Q8").
    #[must_use]
    pub fn bf8() -> Self {
        Minifloat::new(5, 2).expect("E5M2 is a valid geometry")
    }

    /// E4M3, the higher-precision 8-bit float used by some ML stacks.
    #[must_use]
    pub fn e4m3() -> Self {
        Minifloat::new(4, 3).expect("E4M3 is a valid geometry")
    }

    /// E2M1: the 4-bit element format of MXFP4 (the paper's "Q4").
    #[must_use]
    pub fn e2m1() -> Self {
        Minifloat::new(2, 1).expect("E2M1 is a valid geometry")
    }

    /// Total storage bits (1 + exponent + mantissa).
    #[must_use]
    pub fn bits(&self) -> u8 {
        1 + self.exp_bits + self.man_bits
    }

    /// The largest finite magnitude representable in this format.
    #[must_use]
    pub fn max_value(&self) -> f32 {
        self.sorted
            .last()
            .map(|(v, _)| *v)
            .expect("format has at least one finite code")
    }

    /// The smallest positive normal magnitude.
    #[must_use]
    pub fn min_normal(&self) -> f32 {
        2f32.powi(1 - self.bias)
    }

    /// The smallest positive subnormal magnitude (the format's absolute
    /// resolution): values below half of this flush to zero under
    /// round-to-nearest encoding.
    #[must_use]
    pub fn min_subnormal(&self) -> f32 {
        self.min_normal() * 2f32.powi(-i32::from(self.man_bits))
    }

    /// Decodes a code word to its `f32` value.
    ///
    /// Code bits above the format width are ignored (masked off), mirroring
    /// hardware LUT addressing where narrow codes index a sub-LUT.
    #[must_use]
    pub fn decode(&self, code: u8) -> f32 {
        let mask = if self.bits() >= 8 {
            0xFF
        } else {
            (1u16 << self.bits()) as u8 - 1
        };
        self.decode_raw(code & mask)
    }

    fn decode_raw(&self, code: u8) -> f32 {
        let total = self.bits();
        let sign = (code >> (total - 1)) & 1;
        let exp_mask = (1u32 << self.exp_bits) - 1;
        let exp = (u32::from(code) >> self.man_bits) & exp_mask;
        let man_mask = (1u32 << self.man_bits) - 1;
        let man = u32::from(code) & man_mask;
        let sign_f = if sign == 1 { -1.0f32 } else { 1.0f32 };
        let man_scale = f64::from(1u32 << self.man_bits);

        let magnitude = if exp == 0 {
            // Subnormal: (man / 2^mb) * 2^(1 - bias)
            (f64::from(man) / man_scale) * 2f64.powi(1 - self.bias)
        } else if exp == exp_mask && self.has_inf_nan {
            if man == 0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        } else if exp == exp_mask && self.exp_bits == 4 && self.man_bits == 3 && man == man_mask {
            // E4M3 ML convention: only S.1111.111 is NaN.
            f64::NAN
        } else {
            (1.0 + f64::from(man) / man_scale) * 2f64.powi(exp.cast_signed() - self.bias)
        };
        sign_f * magnitude as f32
    }

    /// Encodes an `f32` into the nearest representable code
    /// (round-to-nearest, ties-to-even-code), saturating at the format's
    /// maximum finite magnitude.
    #[must_use]
    pub fn encode(&self, value: f32) -> u8 {
        if value.is_nan() {
            // Any NaN encoding; formats without NaN store the max code.
            return if self.has_inf_nan {
                // E5M2 NaN: exponent all ones, mantissa nonzero.
                let exp_all = ((1u16 << self.exp_bits) - 1) as u8;
                (exp_all << self.man_bits) | 1
            } else {
                self.sorted.last().expect("nonempty").1
            };
        }
        let v = value.clamp(-self.max_value(), self.max_value());
        // Binary search for insertion point in the sorted finite values.
        let idx = self.sorted.partition_point(|(cand, _)| *cand < v);
        let lower = idx.checked_sub(1).map(|i| self.sorted[i]);
        let upper = self.sorted.get(idx).copied();
        match (lower, upper) {
            (Some(lo), Some(hi)) => {
                let dl = (v - lo.0).abs();
                let dh = (hi.0 - v).abs();
                if dl < dh {
                    lo.1
                } else if dh < dl {
                    hi.1
                } else if lo.1 % 2 == 0 {
                    lo.1
                } else {
                    hi.1
                }
            }
            (Some(lo), None) => lo.1,
            (None, Some(hi)) => hi.1,
            (None, None) => 0,
        }
    }

    /// Iterates over all finite `(value, code)` pairs in ascending value
    /// order. Useful for building dequantization LUT content.
    pub fn finite_codes(&self) -> impl Iterator<Item = (f32, u8)> + '_ {
        self.sorted.iter().copied()
    }

    /// Quantizes a value and returns the dequantized result, i.e. the value
    /// the rest of the pipeline will actually see.
    #[must_use]
    pub fn quantize_value(&self, value: f32) -> f32 {
        self.decode(self.encode(value))
    }

    /// Decodes a code directly to [`Bf16`], as DECA's LUT array stores BF16
    /// entries.
    #[must_use]
    pub fn decode_bf16(&self, code: u8) -> Bf16 {
        Bf16::from_f32(self.decode(code))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(Minifloat::new(0, 3).is_err());
        assert!(Minifloat::new(6, 2).is_err()); // 9 bits
        assert!(Minifloat::new(5, 3).is_err()); // 9 bits
        assert!(Minifloat::new(1, 0).is_ok()); // 2-bit float is allowed
    }

    #[test]
    fn e5m2_basic_values() {
        let f = Minifloat::bf8();
        assert_eq!(f.bits(), 8);
        // Bias 15: the smallest normal is 2^(1-15).
        assert_eq!(f.min_normal(), 2f32.powi(-14));
        // 1.0 = exponent 15, mantissa 0 -> 0x3C
        assert_eq!(f.decode(0x3C), 1.0);
        assert_eq!(f.encode(1.0), 0x3C);
        // Max finite E5M2 value is 57344.
        assert_eq!(f.max_value(), 57344.0);
        assert_eq!(f.decode(f.encode(1e9)), 57344.0, "saturating encode");
    }

    #[test]
    fn e5m2_has_inf_and_nan_codes() {
        let f = Minifloat::bf8();
        // Exponent all ones, mantissa zero => +inf
        assert!(f.decode(0b0_11111_00).is_infinite());
        assert!(f.decode(0b0_11111_01).is_nan());
        assert!(f.decode(f.encode(f32::NAN)).is_nan());
    }

    #[test]
    fn e4m3_max_value_matches_ml_convention() {
        let f = Minifloat::e4m3();
        // ML E4M3: max finite = 448 (S.1111.110), S.1111.111 is NaN.
        assert_eq!(f.max_value(), 448.0);
        assert!(f.decode(0b0_1111_111).is_nan());
    }

    #[test]
    fn e2m1_value_set_matches_mx_spec() {
        let f = Minifloat::e2m1();
        // OCP MX FP4 (E2M1) represents {0, 0.5, 1, 1.5, 2, 3, 4, 6} and their
        // negatives.
        let mut values: Vec<f32> = f.finite_codes().map(|(v, _)| v).collect();
        values.dedup();
        let positives: Vec<f32> = values.iter().copied().filter(|v| *v > 0.0).collect();
        assert_eq!(positives, vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
        assert_eq!(f.max_value(), 6.0);
    }

    #[test]
    fn subnormals_decode_correctly() {
        let f = Minifloat::bf8();
        // Smallest positive subnormal of E5M2: (1/4) * 2^(1-15) = 2^-16.
        let smallest = f.decode(0x01);
        assert_eq!(smallest, 2f32.powi(-16));
        assert!(smallest > 0.0);
    }

    #[test]
    fn encode_decode_roundtrip_is_idempotent() {
        for fmt in [Minifloat::bf8(), Minifloat::e4m3(), Minifloat::e2m1()] {
            for (v, _) in fmt.finite_codes() {
                let q = fmt.quantize_value(v);
                assert_eq!(q, v, "representable values survive quantization");
                // Quantization is idempotent.
                assert_eq!(fmt.quantize_value(q), q);
            }
        }
    }

    #[test]
    fn encode_picks_nearest_value() {
        let f = Minifloat::e2m1();
        assert_eq!(f.decode(f.encode(0.9)), 1.0);
        assert_eq!(f.decode(f.encode(2.4)), 2.0);
        assert_eq!(f.decode(f.encode(2.6)), 3.0);
        assert_eq!(f.decode(f.encode(-5.9)), -6.0);
    }

    #[test]
    fn zero_encodes_to_zero() {
        for fmt in [Minifloat::bf8(), Minifloat::e4m3(), Minifloat::e2m1()] {
            assert_eq!(fmt.decode(fmt.encode(0.0)), 0.0);
            assert_eq!(fmt.decode(fmt.encode(-0.0)), 0.0);
        }
    }

    #[test]
    fn decode_bf16_matches_decode() {
        let f = Minifloat::bf8();
        for code in 0..=255u8 {
            let direct = f.decode(code);
            let via_bf16 = f.decode_bf16(code).to_f32();
            if direct.is_nan() {
                assert!(via_bf16.is_nan());
            } else {
                // BF16 has more precision than any 8-bit float, so the
                // conversion must be exact.
                assert_eq!(via_bf16, direct, "code {code:#x}");
            }
        }
    }

    #[test]
    fn narrow_codes_are_masked() {
        let f = Minifloat::e2m1();
        // Upper 4 bits must be ignored for a 4-bit format.
        assert_eq!(f.decode(0xF3), f.decode(0x03));
    }
}
