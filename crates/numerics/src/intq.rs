//! Symmetric integer codes (INT8 / INT4).
//!
//! Integer formats store a signed integer code and rely on an external scale
//! factor (per group or per tensor) for magnitude — this is how AWQ-style
//! INT4 schemes work, which the paper notes are performance-equivalent to
//! MXFP4 from DECA's point of view. The compressor picks the scale; this
//! codec defines the code range and its packed storage form.

/// A symmetric signed-integer code with `bits` bits per code.
///
/// Codes are two's-complement in the range `[-2^(bits-1)+1, 2^(bits-1)-1]`
/// (the most negative code is unused so the range is symmetric).
///
/// ```
/// use deca_numerics::IntCodec;
/// let int4 = IntCodec::int4();
/// assert_eq!(int4.max_code(), 7);
/// let raw = int4.to_storage(-3);
/// assert_eq!(raw, 0b1101);
/// assert_eq!(int4.from_storage(raw), -3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntCodec {
    bits: u8,
}

impl IntCodec {
    /// The standard INT8 codec.
    #[must_use]
    pub fn int8() -> Self {
        IntCodec { bits: 8 }
    }

    /// The standard INT4 codec.
    #[must_use]
    pub fn int4() -> Self {
        IntCodec { bits: 4 }
    }

    /// Largest positive code value.
    #[must_use]
    pub fn max_code(self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Encodes a code into its unsigned storage representation (the low
    /// `bits` bits of the two's-complement value), as it would be packed in a
    /// compressed tile.
    #[must_use]
    pub fn to_storage(self, code: i8) -> u8 {
        (code as u8) & (((1u16 << self.bits) - 1) as u8)
    }

    /// Decodes a storage byte back into a sign-extended code.
    #[must_use]
    pub fn from_storage(self, raw: u8) -> i8 {
        let shift = 8 - self.bits;
        (raw << shift).cast_signed() >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_codes() {
        assert_eq!(IntCodec::int8().max_code(), 127);
        assert_eq!(IntCodec::int4().max_code(), 7);
    }

    #[test]
    fn storage_roundtrip_sign_extends() {
        let c = IntCodec::int4();
        for code in -7i8..=7 {
            let raw = c.to_storage(code);
            assert!(raw <= 0x0F);
            assert_eq!(c.from_storage(raw), code);
        }
        let c8 = IntCodec::int8();
        for code in [-128i8, -1, 0, 1, 127] {
            assert_eq!(c8.from_storage(c8.to_storage(code)), code);
        }
    }
}
