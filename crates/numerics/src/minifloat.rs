//! Generic ≤8-bit floating point codec ("minifloat").
//!
//! DECA dequantizes arbitrary quantized formats of at most 8 bits by looking
//! the code word up in a programmable 256-entry LUT. That flexibility is
//! mirrored here: a [`Minifloat`] describes an arbitrary 1-sign / E-exponent /
//! M-mantissa split and provides exact decode plus round-to-nearest encode.
//!
//! Encoding rounds on the `f32` bits: normal magnitudes round the mantissa
//! to nearest-even with integer adds, subnormal ones with one `f32` add, so
//! no per-value search, division or branch on the data remains. The result
//! equals a nearest-value search over every finite code (ties to the even
//! code, saturating at the maximum), which the tests keep as the reference
//! and check on every geometry. Construction derives the rounding constants
//! once; build a codec once and hold it across values, as
//! `deca_compress::Compressor` does.

use std::hint::select_unpredictable;

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
    /// `f32` bits of the largest finite magnitude, where encoding saturates.
    max_bits: u32,
    /// The code a NaN encodes to: E5M2's NaN, or the maximum code in
    /// formats without NaN.
    nan_code: u8,
    /// `f32` bits of the smallest normal magnitude: below it encoding
    /// rounds on the subnormal grid.
    min_normal_bits: u32,
    /// `23 - man_bits`: the `f32` mantissa bits that rounding drops.
    shift: u32,
    /// `(127 - bias) << man_bits`: the `f32` exponent rebias, in code units.
    rebias: u32,
    /// `2^(man_bits + bias - 1)`: one over the subnormal step.
    inv_subnormal_step: f32,
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
            max_bits: 0,
            nan_code: 0,
            min_normal_bits: 2f32.powi(1 - bias).to_bits(),
            shift: 23 - u32::from(man_bits),
            rebias: (127 - bias).cast_unsigned() << man_bits,
            inv_subnormal_step: 2f32.powi(i32::from(man_bits) + bias - 1),
        };
        // The largest finite code sits just below the sign bit, or below the
        // Inf/NaN codes of the top exponent.
        let max_code = (0..(1u8 << (total - 1)))
            .rev()
            .find(|&code| mf.decode_raw(code).is_finite())
            .expect("code 0 is finite");
        mf.max_bits = mf.decode_raw(max_code).to_bits();
        // E5M2 NaN: exponent all ones, mantissa nonzero.
        mf.nan_code = if has_inf_nan {
            (((1u8 << exp_bits) - 1) << man_bits) | 1
        } else {
            max_code
        };
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
        f32::from_bits(self.max_bits)
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
    ///
    /// The rounding works on the bits of `|value|`, clamped to the maximum.
    /// At or above the smallest normal, the dropped mantissa bits round to
    /// nearest-even by an integer add, and a carry moves into the exponent
    /// as it should; the rebiased result is the code's magnitude index.
    /// Below it, `|value|` is scaled onto the subnormal grid and added to
    /// `2^23`, where an `f32` add rounds to the nearest integer, ties to
    /// even. Code parity is index parity, since the sign is the top bit.
    ///
    /// Zero rule: a value whose magnitude rounds to index 0 takes the
    /// sign-bit ("negative zero") code when it is positive and code 0
    /// otherwise, so `+0.01` becomes `-0` in E2M1 while `-0.01`, `0.0` and
    /// `-0.0` become code 0. Every other index takes the sign bit exactly
    /// when `value < 0`. A NaN encodes as E5M2's NaN code, or as the
    /// maximum code in formats without NaN.
    #[must_use]
    #[inline]
    pub fn encode(&self, value: f32) -> u8 {
        // Which side of the maximum and of the smallest normal a weight
        // falls on is data, and after group scaling an unpredictable one:
        // both selects must stay conditional moves. A NaN runs the same
        // arithmetic (clamped to the maximum) and is replaced at the end.
        let bits = value.to_bits();
        let magnitude = bits & 0x7FFF_FFFF;
        let magnitude = select_unpredictable(magnitude > self.max_bits, self.max_bits, magnitude);
        let odd = (magnitude >> self.shift) & 1;
        let rounded = magnitude + (1 << (self.shift - 1)) - 1 + odd;
        let normal = (rounded >> self.shift).wrapping_sub(self.rebias);
        let grid = f32::from_bits(magnitude) * self.inv_subnormal_step + 8_388_608.0;
        let subnormal = grid.to_bits().wrapping_sub(8_388_608f32.to_bits());
        let index = select_unpredictable(magnitude < self.min_normal_bits, subnormal, normal);
        // The zero rule: index 0 flips the sign bit of every value except
        // +0.0, so positive values take the sign-bit code and negative ones
        // and -0.0 take code 0.
        let signed = (bits >> 31) ^ (u32::from(index == 0) & u32::from(bits != 0));
        let code = (index | (signed << (self.bits() - 1))) as u8;
        if value.is_nan() {
            self.nan_code
        } else {
            code
        }
    }

    /// Iterates over all finite `(value, code)` pairs in ascending value
    /// order; equal values (the two zeros) keep code order.
    pub fn finite_codes(&self) -> impl Iterator<Item = (f32, u8)> + '_ {
        let mut sorted: Vec<(f32, u8)> = (0..1u16 << self.bits())
            .map(|c| (self.decode_raw(c as u8), c as u8))
            .filter(|(v, _)| v.is_finite())
            .collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        sorted.into_iter()
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

    /// Nearest-value search over the sorted finite codes, ties to the even
    /// code: the reference `encode`'s bit rounding must equal.
    fn search_encode(mf: &Minifloat, sorted: &[(f32, u8)], value: f32) -> u8 {
        if value.is_nan() {
            return if mf.has_inf_nan {
                let exp_all = ((1u16 << mf.exp_bits) - 1) as u8;
                (exp_all << mf.man_bits) | 1
            } else {
                sorted.last().expect("nonempty").1
            };
        }
        let max = sorted.last().expect("nonempty").0;
        let v = value.clamp(-max, max);
        let idx = sorted.partition_point(|(cand, _)| *cand < v);
        let lower = idx.checked_sub(1).map(|i| sorted[i]);
        let upper = sorted.get(idx).copied();
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

    /// Every geometry [`Minifloat::new`] accepts.
    fn all_geometries() -> Vec<Minifloat> {
        let geometries: Vec<Minifloat> = (1..=7u8)
            .flat_map(|exp_bits| (0..=7 - exp_bits).map(move |man_bits| (exp_bits, man_bits)))
            .map(|(exp_bits, man_bits)| Minifloat::new(exp_bits, man_bits).expect("valid"))
            .collect();
        assert_eq!(geometries.len(), 28);
        geometries
    }

    /// `value` and the patterns one and two ulps either side of it.
    fn with_neighbours(value: f32) -> impl Iterator<Item = f32> {
        let bits = value.to_bits();
        [0u32, 1, 2]
            .into_iter()
            .flat_map(move |k| [bits.wrapping_add(k), bits.wrapping_sub(k)])
            .map(f32::from_bits)
    }

    #[test]
    fn encode_matches_the_search_on_every_geometry() {
        for mf in all_geometries() {
            let sorted: Vec<(f32, u8)> = mf.finite_codes().collect();
            assert_eq!(mf.max_value(), sorted.last().expect("nonempty").0);
            let codes = (0..1u16 << mf.bits()).map(|c| mf.decode_raw(c as u8));
            let midpoints = sorted.windows(2).map(|pair| pair[0].0.midpoint(pair[1].0));
            let max = mf.max_value();
            let edges = [
                0.0,
                -0.0,
                f32::from_bits(1),
                f32::from_bits(0x007F_FFFF),
                f32::MIN_POSITIVE,
                max,
                -max,
                f32::MAX,
                f32::INFINITY,
                f32::NAN,
            ];
            let bf16_patterns = (0..=u16::MAX).map(|b| f32::from_bits(u32::from(b) << 16));
            let inputs = codes
                .chain(midpoints)
                .chain(edges)
                .flat_map(|v| with_neighbours(v).chain(with_neighbours(-v)))
                .chain(bf16_patterns);
            for value in inputs {
                assert_eq!(
                    mf.encode(value),
                    search_encode(&mf, &sorted, value),
                    "E{}M{} at input bits {:#010x}",
                    mf.exp_bits,
                    mf.man_bits,
                    value.to_bits()
                );
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 f32 patterns per format: run in release with --ignored"]
    fn encode_matches_the_search_on_every_f32_pattern() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        for mf in [Minifloat::bf8(), Minifloat::e4m3(), Minifloat::e2m1()] {
            let sorted: Vec<(f32, u8)> = mf.finite_codes().collect();
            let span = (1u64 << 32).div_ceil(threads as u64);
            let first_mismatches: Vec<u32> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads as u64)
                    .map(|t| {
                        let (mf, sorted) = (&mf, &sorted);
                        scope.spawn(move || {
                            let end = ((t + 1) * span).min(1 << 32);
                            (t * span..end).map(|b| b as u32).find(|&bits| {
                                let value = f32::from_bits(bits);
                                mf.encode(value) != search_encode(mf, sorted, value)
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .filter_map(|w| w.join().expect("sweep worker"))
                    .collect()
            });
            assert!(
                first_mismatches.is_empty(),
                "E{}M{}: encode differs from the search at input bits {first_mismatches:#010x?}",
                mf.exp_bits,
                mf.man_bits
            );
        }
    }

    #[test]
    fn positive_values_that_round_to_zero_take_the_negative_zero_code() {
        // The search's sorted table holds +0's code before -0's, so a
        // positive value nearer zero than the smallest subnormal (ties
        // included) lands on -0's code, while a negative one lands on +0's.
        for (mf, negative_zero) in [
            (Minifloat::bf8(), 0x80),
            (Minifloat::e4m3(), 0x80),
            (Minifloat::e2m1(), 0x8),
        ] {
            let half_step = mf.min_subnormal() / 2.0;
            for magnitude in [half_step / 8.0, half_step] {
                assert_eq!(mf.encode(magnitude), negative_zero, "{mf:?} {magnitude}");
                assert_eq!(mf.encode(-magnitude), 0, "{mf:?} -{magnitude}");
            }
            assert_eq!(mf.encode(0.0), 0);
            assert_eq!(mf.encode(-0.0), 0);
            let decoded = mf.decode(negative_zero);
            assert!(decoded == 0.0 && decoded.is_sign_negative());
        }
        // As MXFP4 stores it: +0.01 in a group whose max is 6.0 (scale 1).
        assert_eq!(Minifloat::e2m1().encode(0.01), 0x8);
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
