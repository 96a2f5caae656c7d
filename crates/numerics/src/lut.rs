//! Dequantization LUT content.
//!
//! DECA's dequantization stage is an array of `L` "big" LUTs, each holding
//! 256 BF16 entries and internally split into four 64-entry sub-LUTs with one
//! read port each (§6.1). The *content* of those LUTs is a pure function of
//! the quantized format; this module builds it. The geometry (how many
//! parallel lookups per cycle a given bit-width allows) lives with the
//! accelerator model in the `deca` crate.

use crate::{Bf16, IntCodec, QuantFormat};

/// The 256-entry BF16 dequantization table for one quantized format.
///
/// For formats narrower than 8 bits only the low `2^bits` entries are
/// meaningful; the rest are replicated so that any 8-bit address decodes to a
/// valid value (the paper notes redundant entries for narrow formats).
///
/// ```
/// use deca_numerics::{DequantTable, QuantFormat};
/// let lut = DequantTable::for_format(QuantFormat::Fp4);
/// assert_eq!(lut.lookup(0b0001).to_f32(), 0.5); // FP4 code 1 = 0.5
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DequantTable {
    format: QuantFormat,
    entries: Vec<Bf16>,
}

impl DequantTable {
    /// Number of entries in a big LUT.
    pub const ENTRIES: usize = 256;

    /// Builds the table for a quantized format.
    ///
    /// Integer formats are stored *unscaled* (code value as BF16); the group
    /// scale is applied by the scaling stage, exactly as DECA does for
    /// MX-style formats.
    ///
    /// # Panics
    ///
    /// Panics if called for [`QuantFormat::Bf16`], which is never dequantized
    /// through a LUT.
    #[must_use]
    pub fn for_format(format: QuantFormat) -> Self {
        assert!(
            format.bits() <= 8,
            "dequant LUTs only exist for formats of at most 8 bits, got {format}"
        );
        let entries: Vec<Bf16> = match format {
            QuantFormat::Bf16 => unreachable!("checked above"),
            QuantFormat::Int8 => (0..Self::ENTRIES)
                .map(|c| {
                    let codec = IntCodec::int8();
                    Bf16::from_f32(f32::from(codec.from_storage(c as u8)))
                })
                .collect(),
            QuantFormat::Int4 => (0..Self::ENTRIES)
                .map(|c| {
                    let codec = IntCodec::int4();
                    Bf16::from_f32(f32::from(codec.from_storage((c % 16) as u8)))
                })
                .collect(),
            float_fmt => {
                let mf = float_fmt
                    .minifloat()
                    .expect("non-integer sub-8-bit formats have a minifloat codec");
                let native = 1usize << mf.bits();
                (0..Self::ENTRIES)
                    .map(|c| mf.decode_bf16((c % native) as u8))
                    .collect()
            }
        };
        DequantTable { format, entries }
    }

    /// The format this table dequantizes.
    #[must_use]
    pub fn format(&self) -> QuantFormat {
        self.format
    }

    /// Looks up the BF16 value for a code.
    #[must_use]
    pub fn lookup(&self, code: u8) -> Bf16 {
        self.entries[usize::from(code)]
    }

    /// All 256 entries (including the replicated ones for narrow formats).
    #[must_use]
    pub fn entries(&self) -> &[Bf16] {
        &self.entries
    }

    /// How many independent lookups one big LUT can serve per cycle for this
    /// format: 1 for 8-bit and 7-bit codes that span sub-LUT boundaries is
    /// conservative, so the paper's rule is used directly — `1` for 8-bit,
    /// `2` for 7-bit, `4` for 6-bit and below (§6.1).
    #[must_use]
    pub fn lookups_per_lut_per_cycle(&self) -> usize {
        lookups_per_lut_per_cycle(self.format.bits())
    }
}

/// The paper's rule for parallel lookups from one big LUT per cycle as a
/// function of the code bit-width: `1` for 8 bits, `2` for 7 bits, `4` for 6
/// bits or fewer.
#[must_use]
pub fn lookups_per_lut_per_cycle(bits: u8) -> usize {
    match bits {
        8 => 1,
        7 => 2,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Minifloat;

    #[test]
    fn bf8_table_matches_codec() {
        let lut = DequantTable::for_format(QuantFormat::Bf8);
        let mf = Minifloat::bf8();
        for code in 0..=255u8 {
            let direct = mf.decode(code);
            let via_lut = lut.lookup(code).to_f32();
            if direct.is_nan() {
                assert!(via_lut.is_nan());
            } else {
                assert_eq!(via_lut, direct, "code {code:#x}");
            }
        }
    }

    #[test]
    fn fp4_table_replicates_16_entries() {
        let lut = DequantTable::for_format(QuantFormat::Fp4);
        for code in 0..=255u8 {
            assert_eq!(
                lut.lookup(code).to_f32(),
                lut.lookup(code % 16).to_f32(),
                "entries must repeat with period 16"
            );
        }
        assert_eq!(lut.lookup(0).to_f32(), 0.0);
        assert_eq!(lut.lookup(0b0111).to_f32(), 6.0); // FP4 max
    }

    #[test]
    fn int4_table_sign_extends() {
        let lut = DequantTable::for_format(QuantFormat::Int4);
        assert_eq!(lut.lookup(0x1).to_f32(), 1.0);
        assert_eq!(lut.lookup(0xF).to_f32(), -1.0);
        assert_eq!(lut.lookup(0x8).to_f32(), -8.0);
    }

    #[test]
    fn int8_table_sign_extends() {
        let lut = DequantTable::for_format(QuantFormat::Int8);
        assert_eq!(lut.lookup(1).to_f32(), 1.0);
        assert_eq!(lut.lookup(0xFF).to_f32(), -1.0);
        assert_eq!(lut.lookup(0x80).to_f32(), -128.0);
    }

    #[test]
    #[should_panic(expected = "at most 8 bits")]
    fn bf16_has_no_lut() {
        let _ = DequantTable::for_format(QuantFormat::Bf16);
    }

    #[test]
    fn parallel_lookup_rule() {
        assert_eq!(lookups_per_lut_per_cycle(8), 1);
        assert_eq!(lookups_per_lut_per_cycle(7), 2);
        assert_eq!(lookups_per_lut_per_cycle(6), 4);
        assert_eq!(lookups_per_lut_per_cycle(4), 4);
        assert_eq!(lookups_per_lut_per_cycle(1), 4);
        let lut = DequantTable::for_format(QuantFormat::Bf8);
        assert_eq!(lut.lookups_per_lut_per_cycle(), 1);
        let lut = DequantTable::for_format(QuantFormat::Fp4);
        assert_eq!(lut.lookups_per_lut_per_cycle(), 4);
    }

    #[test]
    fn custom_format_lut() {
        let fmt = QuantFormat::Custom {
            exp_bits: 3,
            man_bits: 2,
        };
        let lut = DequantTable::for_format(fmt);
        assert_eq!(lut.entries().len(), DequantTable::ENTRIES);
        assert_eq!(lut.format(), fmt);
        // A 6-bit format's 64 codes repeat over the 256 entries.
        assert_eq!(lut.lookup(0x3F), lut.lookup(0xFF));
        // Code 0 is zero for every float format.
        assert_eq!(lut.lookup(0).to_f32(), 0.0);
    }
}
