//! 16-bit brain floating point (BF16).
//!
//! BF16 keeps the 8-bit exponent of IEEE-754 binary32 and truncates the
//! mantissa to 7 bits, so conversion to/from `f32` is a simple bit shift with
//! round-to-nearest-even on the dropped bits. BF16 is the *output* format of
//! the DECA decompression pipeline: every decompressed tile holds 512 BF16
//! elements ready for the TMUL.

/// A 16-bit brain floating point number.
///
/// ```
/// use deca_numerics::Bf16;
/// let x = Bf16::from_f32(0.15625);
/// assert_eq!(x.to_f32(), 0.15625); // exactly representable
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// The value 1.0.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Creates a BF16 from its raw bit pattern.
    #[must_use]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to BF16 with round-to-nearest-even.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Preserve a quiet NaN with the sign bit.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even: add 0x7FFF plus the LSB of the retained part.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts this BF16 to an `f32` exactly (BF16 ⊂ f32).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(u32::from(self.0) << 16)
    }

    /// True if this value is a NaN.
    #[must_use]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }

    /// True if the value is positive or negative zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.abs().0 == 0
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Self {
        Bf16(self.0 & 0x7FFF)
    }
}

/// Multiplies two BF16 values, rounding the result back to BF16.
///
/// This mirrors what DECA's scaling stage does when applying a group scale
/// factor to a dequantized element.
impl std::ops::Mul for Bf16 {
    type Output = Bf16;

    fn mul(self, other: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * other.to_f32())
    }
}

impl From<f32> for Bf16 {
    fn from(value: f32) -> Self {
        Bf16::from_f32(value)
    }
}

impl From<Bf16> for f32 {
    fn from(value: Bf16) -> Self {
        value.to_f32()
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_constants() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert!(Bf16::ZERO.is_zero());
        assert!(!Bf16::ONE.is_zero());
    }

    #[test]
    fn exact_roundtrip_for_representable_values() {
        for v in [0.0_f32, 1.0, -1.0, 0.5, 2.0, -3.5, 0.15625, 65280.0] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn rounding_is_nearest() {
        // 1.0 + 2^-8 is not representable; it must round to 1.0.
        let v = 1.0 + 2f32.powi(-9);
        assert_eq!(Bf16::from_f32(v).to_f32(), 1.0);
        // Halfway cases round to even mantissa.
        let one_ulp = 2f32.powi(-7);
        let halfway = 1.0 + one_ulp / 2.0;
        let rounded = Bf16::from_f32(halfway).to_f32();
        assert_eq!(rounded, 1.0, "ties-to-even keeps the even mantissa");
    }

    #[test]
    fn relative_error_is_bounded() {
        // BF16 has 8 bits of significand (1 implicit + 7 stored): relative
        // error of round-to-nearest is at most 2^-8.
        let mut v = 1.000001_f32;
        for _ in 0..200 {
            let r = Bf16::from_f32(v).to_f32();
            let rel = ((r - v) / v).abs();
            assert!(rel <= 2f32.powi(-8), "v={v} r={r} rel={rel}");
            v *= 1.37;
            if !v.is_finite() {
                break;
            }
        }
    }

    #[test]
    fn nan_is_preserved() {
        let nan = Bf16::from_f32(f32::NAN);
        assert!(nan.is_nan());
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn negative_zero_is_zero() {
        let nz = Bf16::from_f32(-0.0);
        assert!(nz.is_zero());
    }

    #[test]
    fn infinity_roundtrip() {
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // Values above BF16 max (~3.39e38) round to infinity.
        let v = 3.4e38_f32;
        let r = Bf16::from_f32(v).to_f32();
        assert!(r.is_infinite() || r > 3.3e38);
    }

    #[test]
    fn mul_applies_scale() {
        let a = Bf16::from_f32(1.5);
        let s = Bf16::from_f32(4.0);
        assert_eq!((a * s).to_f32(), 6.0);
    }

    #[test]
    fn abs_clears_sign() {
        assert_eq!(Bf16::from_f32(-2.5).abs().to_f32(), 2.5);
    }
}
