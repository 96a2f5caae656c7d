//! Microscaling (MX) shared group scales.
//!
//! MXFP4 stores every weight as a 4-bit E2M1 element plus one shared 8-bit
//! power-of-two scale (E8M0) for each group of 32 consecutive weights
//! (OCP MX specification, referenced by the paper). The compressor picks
//! each group's scale with [`ScaleE8M0::for_group`]; the decompression
//! pipeline dequantizes the element through the LUT and multiplies by the
//! group scale in the scaling stage.

use crate::Bf16;

/// The MX default group size (weights per shared scale).
pub const MX_GROUP_SIZE: usize = 32;

/// An 8-bit shared power-of-two scale (E8M0): value is `2^(code - 127)`;
/// code 255 is reserved for NaN in the OCP spec and is not produced here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScaleE8M0(u8);

impl ScaleE8M0 {
    /// Scale of 1.0 (code 127).
    pub const ONE: ScaleE8M0 = ScaleE8M0(127);

    /// Creates a scale from its raw 8-bit code.
    #[must_use]
    pub const fn from_code(code: u8) -> Self {
        ScaleE8M0(code)
    }

    /// The raw 8-bit code.
    #[must_use]
    pub const fn code(self) -> u8 {
        self.0
    }

    /// The scale value `2^(code-127)`, built from its `f32` bits: the code
    /// is the exponent field, except that code 0 is the subnormal 2^-127
    /// (`0x0040_0000`) and code 255 is +inf. That is bit for bit what
    /// `2f32.powi(code - 127)` returns.
    #[must_use]
    pub fn value(self) -> f32 {
        f32::from_bits(match self.0 {
            0 => 0x0040_0000,
            code => u32::from(code) << 23,
        })
    }

    /// The scale as BF16 (exactly representable: it is a power of two within
    /// BF16's exponent range).
    #[must_use]
    pub fn to_bf16(self) -> Bf16 {
        Bf16::from_f32(self.value())
    }

    /// Picks the scale for a group: `2^(floor(log2(max_abs)) - emax_elem)`,
    /// clamped to the representable exponent range, where `emax_elem` is the
    /// exponent of the element format's largest power of two.
    #[must_use]
    pub fn for_group(max_abs: f32, element_emax: i32) -> Self {
        if max_abs == 0.0 || !max_abs.is_finite() {
            return ScaleE8M0::ONE;
        }
        let shared_exp = max_abs.log2().floor() as i32 - element_emax;
        let code = (shared_exp + 127).clamp(0, 254);
        ScaleE8M0(code as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_codes_and_values() {
        assert_eq!(ScaleE8M0::ONE.value(), 1.0);
        assert_eq!(ScaleE8M0::from_code(128).value(), 2.0);
        assert_eq!(ScaleE8M0::from_code(126).value(), 0.5);
        assert_eq!(ScaleE8M0::from_code(130).code(), 130);
        assert_eq!(ScaleE8M0::from_code(128).to_bf16().to_f32(), 2.0);
    }

    #[test]
    fn values_equal_powi_bit_for_bit_on_every_code() {
        for code in 0..=u8::MAX {
            let scale = ScaleE8M0::from_code(code);
            let want = 2f32.powi(i32::from(code) - 127);
            assert_eq!(scale.value().to_bits(), want.to_bits(), "code {code}");
            assert_eq!(scale.to_bf16(), Bf16::from_f32(want), "code {code}");
        }
        // Code 0 is the f32 subnormal 2^-127, the one code whose value
        // has no exponent field of its own.
        assert_eq!(ScaleE8M0::from_code(0).value().to_bits(), 0x0040_0000);
        assert_eq!(ScaleE8M0::from_code(0).to_bf16().to_bits(), 0x0040);
        // Code 255 is +inf: the engines route a forged 255 to their
        // portable path because of it.
        assert_eq!(ScaleE8M0::from_code(255).value(), f32::INFINITY);
        assert_eq!(ScaleE8M0::from_code(255).to_bf16().to_bits(), 0x7F80);
    }

    #[test]
    fn scale_for_group_targets_element_range() {
        // FP4 emax is 2 (largest power of two = 4). A group max of 48 should
        // give shared exp floor(log2(48)) - 2 = 5 - 2 = 3 -> scale 8, so
        // 48/8 = 6 lands exactly on FP4's max value.
        let s = ScaleE8M0::for_group(48.0, 2);
        assert_eq!(s.value(), 8.0);
        // Zero group falls back to scale 1.
        assert_eq!(ScaleE8M0::for_group(0.0, 2).value(), 1.0);
    }
}
