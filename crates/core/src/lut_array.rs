//! The dequantization LUT array (§6.1).
//!
//! The dequantization stage holds `L` "big" LUTs of 256 BF16 entries, each
//! split into four 64-entry sub-LUTs with one read port apiece. Programming
//! the array with a format's [`DequantTable`] configures DECA for that
//! format; the number of parallel lookups per cycle follows from the code
//! bit-width (`L` for 8-bit, `2L` for 7-bit, `4L` for ≤6-bit codes).

use deca_numerics::{Bf16, DequantTable, QuantFormat};

/// The programmable LUT array of one DECA PE.
#[derive(Debug, Clone, PartialEq)]
pub struct LutArray {
    l: usize,
    table: Option<DequantTable>,
}

impl LutArray {
    /// Creates an array of `l` big LUTs, initially unprogrammed.
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero.
    #[must_use]
    pub fn new(l: usize) -> Self {
        assert!(l > 0, "the LUT array needs at least one LUT");
        LutArray { l, table: None }
    }

    /// Programs every LUT with the dequantization table of `format`
    /// (a privileged-store sequence from the core in real hardware).
    pub fn program(&mut self, format: QuantFormat) {
        if format == QuantFormat::Bf16 {
            // BF16 payloads bypass the LUTs entirely.
            self.table = None;
        } else {
            self.table = Some(DequantTable::for_format(format));
        }
    }

    /// The format the array is currently programmed for, if any.
    #[must_use]
    pub fn programmed_format(&self) -> Option<QuantFormat> {
        self.table.as_ref().map(DequantTable::format)
    }

    /// Dequantizes a batch of codes into the front of `values`, returning
    /// the number of cycles the dequantization stage is occupied
    /// (`ceil(len / Lq)`, minimum 1).
    ///
    /// For an unprogrammed array (BF16 passthrough) the codes are
    /// reinterpreted as raw BF16 bit patterns and take a single cycle.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than `codes`.
    pub fn dequantize(&self, codes: &[u16], values: &mut [Bf16]) -> u32 {
        let values = &mut values[..codes.len()];
        match &self.table {
            None => {
                for (value, &code) in values.iter_mut().zip(codes) {
                    *value = Bf16::from_bits(code);
                }
                1
            }
            Some(table) => {
                for (value, &code) in values.iter_mut().zip(codes) {
                    *value = table.lookup(code as u8);
                }
                let lq = self.l * table.lookups_per_lut_per_cycle();
                codes.len().div_ceil(lq).max(1) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_numerics::Minifloat;

    #[test]
    fn programming_selects_format() {
        let mut arr = LutArray::new(8);
        assert_eq!(arr.programmed_format(), None);
        arr.program(QuantFormat::Bf8);
        assert_eq!(arr.programmed_format(), Some(QuantFormat::Bf8));
        arr.program(QuantFormat::Bf16);
        assert_eq!(arr.programmed_format(), None);
    }

    #[test]
    fn lookups_per_cycle_follow_bit_width() {
        // Lq = L for 8-bit codes, 2L for 7-bit and 4L for 4-bit: 64 codes
        // occupy an 8-LUT array for 8, 4 and 2 cycles.
        let codes = [0u16; 64];
        let mut values = [Bf16::ZERO; 64];
        let mut arr = LutArray::new(8);
        arr.program(QuantFormat::Bf8);
        assert_eq!(arr.dequantize(&codes, &mut values), 8);
        arr.program(QuantFormat::Fp4);
        assert_eq!(arr.dequantize(&codes, &mut values), 2);
        arr.program(QuantFormat::Custom {
            exp_bits: 4,
            man_bits: 2,
        }); // 7-bit
        assert_eq!(arr.dequantize(&codes, &mut values), 4);
    }

    #[test]
    fn dequantize_counts_occupancy_cycles() {
        let mut arr = LutArray::new(8);
        arr.program(QuantFormat::Bf8);
        let codes: Vec<u16> = (0..32).collect();
        let mut values = [Bf16::ZERO; 32];
        // 32 codes / 8 lookups per cycle.
        assert_eq!(arr.dequantize(&codes, &mut values), 4);
        assert_eq!(arr.dequantize(&codes[..8], &mut values), 1);
        assert_eq!(
            arr.dequantize(&[], &mut values),
            1,
            "an empty window still occupies one cycle"
        );
    }

    #[test]
    fn dequantize_values_match_codec() {
        let mut arr = LutArray::new(4);
        arr.program(QuantFormat::Bf8);
        let mf = Minifloat::bf8();
        let codes: Vec<u16> = vec![0x3C, 0x40, 0x00, 0xBC];
        let mut values = [Bf16::ZERO; 4];
        arr.dequantize(&codes, &mut values);
        for (code, value) in codes.iter().zip(&values) {
            assert_eq!(value.to_f32(), mf.decode(*code as u8));
        }
    }

    #[test]
    fn bf16_passthrough_reinterprets_bits() {
        let arr = LutArray::new(8);
        let one = Bf16::from_f32(1.0).to_bits();
        let mut values = [Bf16::ZERO; 1];
        assert_eq!(arr.dequantize(&[one], &mut values), 1);
        assert_eq!(values[0].to_f32(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_luts_rejected() {
        let _ = LutArray::new(0);
    }
}
