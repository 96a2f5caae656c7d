//! Microscaling (MX) group quantization.
//!
//! MXFP4 stores every weight as a 4-bit E2M1 element plus one shared 8-bit
//! power-of-two scale (E8M0) for each group of 32 consecutive weights
//! (OCP MX specification, referenced by the paper). The decompression
//! pipeline dequantizes the element through the LUT and multiplies by the
//! group scale in the scaling stage.

use crate::{Bf16, FormatError, Minifloat, QuantFormat};

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

    /// The scale value `2^(code-127)`.
    #[must_use]
    pub fn value(self) -> f32 {
        2f32.powi(i32::from(self.0) - 127)
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

/// A group-quantized block: `group_size` element codes plus one shared scale.
#[derive(Debug, Clone, PartialEq)]
pub struct MxGroup {
    /// Quantized element codes (one per weight, zeros included).
    pub codes: Vec<u8>,
    /// Shared power-of-two scale.
    pub scale: ScaleE8M0,
}

/// Encoder/decoder for MX-style group quantization over any minifloat
/// element format.
#[derive(Debug, Clone)]
pub struct MxCodec {
    element: Minifloat,
    group_size: usize,
    element_emax: i32,
}

impl MxCodec {
    /// Creates an MX codec for the given element format and group size.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidGroupSize`] if `group_size` is zero and
    /// [`FormatError::InvalidGeometry`] if the format has no minifloat codec
    /// (BF16 or integer formats).
    pub fn new(element: QuantFormat, group_size: usize) -> Result<Self, FormatError> {
        if group_size == 0 {
            return Err(FormatError::InvalidGroupSize(group_size));
        }
        let mf = element.minifloat().ok_or(FormatError::InvalidGeometry {
            exp_bits: 0,
            man_bits: element.bits(),
        })?;
        // Largest power of two representable by the element format.
        let element_emax = mf.max_value().log2().floor() as i32;
        Ok(MxCodec {
            element: mf,
            group_size,
            element_emax,
        })
    }

    /// The standard MXFP4 codec: E2M1 elements, groups of 32.
    #[must_use]
    pub fn mxfp4() -> Self {
        MxCodec::new(QuantFormat::Fp4, MX_GROUP_SIZE).expect("MXFP4 is a valid MX configuration")
    }

    /// Weights per shared scale.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The element minifloat codec.
    #[must_use]
    pub fn element(&self) -> &Minifloat {
        &self.element
    }

    /// Quantizes one group of values (length ≤ `group_size`; a short tail
    /// group is allowed).
    #[must_use]
    pub fn quantize_group(&self, values: &[f32]) -> MxGroup {
        let max_abs = values.iter().fold(0f32, |m, v| m.max(v.abs()));
        let scale = ScaleE8M0::for_group(max_abs, self.element_emax);
        let s = scale.value();
        let codes = values.iter().map(|v| self.element.encode(v / s)).collect();
        MxGroup { codes, scale }
    }

    /// Dequantizes a single element code under a group scale, returning BF16
    /// exactly as DECA's scaling stage produces it.
    #[must_use]
    pub fn dequantize(&self, code: u8, scale: ScaleE8M0) -> Bf16 {
        let element = self.element.decode(code);
        Bf16::from_f32(element * scale.value())
    }

    /// Quantizes a full slice, splitting it into groups of `group_size`, and
    /// returns the per-group results in order.
    #[must_use]
    pub fn quantize(&self, values: &[f32]) -> Vec<MxGroup> {
        values
            .chunks(self.group_size)
            .map(|chunk| self.quantize_group(chunk))
            .collect()
    }

    /// Dequantizes a sequence of groups back to f32 values.
    #[must_use]
    pub fn dequantize_all(&self, groups: &[MxGroup]) -> Vec<f32> {
        groups
            .iter()
            .flat_map(|g| {
                g.codes
                    .iter()
                    .map(move |&c| self.dequantize(c, g.scale).to_f32())
            })
            .collect()
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
    fn scale_for_group_targets_element_range() {
        // FP4 emax is 2 (largest power of two = 4). A group max of 48 should
        // give shared exp floor(log2(48)) - 2 = 5 - 2 = 3 -> scale 8, so
        // 48/8 = 6 lands exactly on FP4's max value.
        let s = ScaleE8M0::for_group(48.0, 2);
        assert_eq!(s.value(), 8.0);
        // Zero group falls back to scale 1.
        assert_eq!(ScaleE8M0::for_group(0.0, 2).value(), 1.0);
    }

    #[test]
    fn mxfp4_codec_parameters() {
        let mx = MxCodec::mxfp4();
        assert_eq!(mx.group_size(), 32);
        assert_eq!(mx.element().bits(), 4);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(matches!(
            MxCodec::new(QuantFormat::Fp4, 0),
            Err(FormatError::InvalidGroupSize(0))
        ));
        assert!(MxCodec::new(QuantFormat::Bf16, 32).is_err());
        assert!(MxCodec::new(QuantFormat::Int4, 32).is_err());
    }

    #[test]
    fn roundtrip_error_is_bounded() {
        let mx = MxCodec::mxfp4();
        // Values spanning several binades within one group.
        let values: Vec<f32> = (0..32).map(|i| ((i as f32) - 16.0) * 0.37 + 0.01).collect();
        let groups = mx.quantize(&values);
        assert_eq!(groups.len(), 1);
        let back = mx.dequantize_all(&groups);
        let max_abs = values.iter().fold(0f32, |m, v| m.max(v.abs()));
        for (v, b) in values.iter().zip(&back) {
            // MX error bound: relative to the group max because small values
            // in a group with a large max lose precision.
            let tol = max_abs * 0.26 + 1e-6;
            assert!((v - b).abs() <= tol, "{v} -> {b}");
        }
    }

    #[test]
    fn exact_values_survive_roundtrip() {
        let mx = MxCodec::mxfp4();
        // Powers of two and small multiples representable in FP4 after
        // scaling by the group scale.
        let values = vec![6.0f32, 4.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.0];
        let groups = mx.quantize(&values);
        let back = mx.dequantize_all(&groups);
        assert_eq!(values, back);
    }

    #[test]
    fn zeros_stay_zero() {
        let mx = MxCodec::mxfp4();
        let values = vec![0.0f32; 64];
        let back = mx.dequantize_all(&mx.quantize(&values));
        assert!(back.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn groups_are_split_correctly() {
        let mx = MxCodec::mxfp4();
        let values = vec![1.0f32; 80]; // 2 full groups + 16 tail
        let groups = mx.quantize(&values);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].codes.len(), 32);
        assert_eq!(groups[2].codes.len(), 16);
        assert_eq!(mx.dequantize_all(&groups).len(), 80);
    }

    #[test]
    fn per_group_scales_are_independent() {
        let mx = MxCodec::mxfp4();
        let mut values = vec![0.001f32; 32];
        values.extend(vec![1000.0f32; 32]);
        let groups = mx.quantize(&values);
        assert!(groups[0].scale.value() < groups[1].scale.value());
        let back = mx.dequantize_all(&groups);
        // The small group must not be flattened to zero by the large group's
        // scale.
        assert!(back[..32].iter().all(|v| *v > 0.0));
    }

    #[test]
    fn bf8_groups_also_work() {
        let mx = MxCodec::new(QuantFormat::Bf8, 32).expect("valid");
        let values: Vec<f32> = (0..32).map(|i| i as f32 * 0.25).collect();
        let back = mx.dequantize_all(&mx.quantize(&values));
        for (v, b) in values.iter().zip(&back) {
            // E5M2 has 2 mantissa bits: worst-case round-to-nearest relative
            // error is 2^-3 = 12.5 % (half a ULP at the bottom of a binade).
            assert!((v - b).abs() <= 0.126 * v.abs().max(0.1), "{v} -> {b}");
        }
    }
}
