//! Property-based tests for the numeric formats.

use deca_numerics::{Bf16, DequantTable, Minifloat, QuantFormat};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// BF16 conversion never increases magnitude error beyond half a ULP
    /// (2^-8 relative) for normal values.
    #[test]
    fn bf16_roundtrip_error_bound(v in -1.0e30f32..1.0e30) {
        prop_assume!(v.is_finite() && v != 0.0 && v.abs() > 1.0e-30);
        let r = Bf16::from_f32(v).to_f32();
        let rel = ((r - v) / v).abs();
        prop_assert!(rel <= 2f32.powi(-8), "{} -> {} rel {}", v, r, rel);
    }

    /// BF16 conversion is idempotent.
    #[test]
    fn bf16_idempotent(bits in any::<u16>()) {
        let x = Bf16::from_bits(bits);
        prop_assume!(!x.is_nan());
        let y = Bf16::from_f32(x.to_f32());
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }

    /// Minifloat encode always returns the representable value nearest to
    /// the input (validated against exhaustive search).
    #[test]
    fn minifloat_encode_is_nearest(v in -70000.0f32..70000.0, exp_bits in 2u8..=5, man_bits in 0u8..=3) {
        prop_assume!(1 + exp_bits + man_bits <= 8);
        let fmt = Minifloat::new(exp_bits, man_bits).unwrap();
        let clamped = v.clamp(-fmt.max_value(), fmt.max_value());
        let encoded = fmt.decode(fmt.encode(v));
        let best = fmt
            .finite_codes()
            .map(|(val, _)| val)
            .min_by(|a, b| {
                (a - clamped).abs().partial_cmp(&(b - clamped).abs()).unwrap()
            })
            .unwrap();
        prop_assert_eq!((encoded - clamped).abs(), (best - clamped).abs(),
            "encode({}) = {} but nearest is {}", v, encoded, best);
    }

    /// Quantization through any minifloat is idempotent.
    #[test]
    fn minifloat_quantize_idempotent(v in -1000.0f32..1000.0, man_bits in 0u8..=2) {
        let fmt = Minifloat::new(4, man_bits).unwrap();
        let q = fmt.quantize_value(v);
        prop_assert_eq!(fmt.quantize_value(q), q);
    }

    /// The dequant LUT agrees with the codec for every format and code.
    #[test]
    fn lut_matches_codec(code in any::<u8>()) {
        for format in [QuantFormat::Bf8, QuantFormat::E4m3, QuantFormat::Fp4] {
            let lut = DequantTable::for_format(format);
            let mf = format.minifloat().unwrap();
            let native = 1u16 << mf.bits();
            let wrapped = (u16::from(code) % native) as u8;
            let direct = mf.decode(wrapped);
            let via = lut.lookup(code).to_f32();
            if direct.is_nan() {
                prop_assert!(via.is_nan());
            } else {
                prop_assert_eq!(via, direct);
            }
        }
    }

    /// Every finite code of every supported format decodes to a value that
    /// re-encodes to an equivalent code (value-level round trip).
    #[test]
    fn code_value_roundtrip(code in any::<u8>()) {
        for fmt in [Minifloat::bf8(), Minifloat::e4m3(), Minifloat::e2m1()] {
            let v = fmt.decode(code);
            prop_assume!(v.is_finite());
            let re = fmt.decode(fmt.encode(v));
            prop_assert_eq!(re, v);
        }
    }
}
