//! From-scratch IEEE-754 binary16 implementation.
//!
//! The paper's mixed-precision recipe stores parameters and gradients in
//! half precision (Sec. 2). We implement the format directly rather than
//! pulling in a dependency: conversion in both directions uses
//! round-to-nearest-even and handles subnormals, infinities and NaN.

/// IEEE-754 binary16 value stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7bff);

    /// Convert from f32 with round-to-nearest-even.
    pub fn from_f32(x: f32) -> F16 {
        let b = x.to_bits();
        let sign = ((b >> 16) & 0x8000) as u16;
        let exp = ((b >> 23) & 0xff) as i32;
        let mant = b & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN. Collapse NaN payloads to a canonical quiet NaN.
            return if mant == 0 { F16(sign | 0x7c00) } else { F16(sign | 0x7e00) };
        }

        let unbiased = exp - 127;
        if unbiased > 15 {
            // Too large for half: overflow to infinity.
            return F16(sign | 0x7c00);
        }
        if unbiased >= -14 {
            // Normal half-precision range.
            let half_exp = (unbiased + 15) as u32;
            let mut out = (half_exp << 10) | (mant >> 13);
            let rem = mant & 0x1fff;
            if rem > 0x1000 || (rem == 0x1000 && (out & 1) != 0) {
                // Carry may ripple into the exponent; 0x7c00 (infinity) is
                // exactly what rounding up from MAX should produce.
                out += 1;
            }
            return F16(sign | out as u16);
        }
        if unbiased >= -25 {
            // Subnormal half: value = mant10 * 2^-24.
            let full = mant | 0x0080_0000;
            let shift = (-(unbiased + 1)) as u32;
            let mut out = full >> shift;
            let rem = full & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            if rem > half || (rem == half && (out & 1) != 0) {
                out += 1;
            }
            return F16(sign | out as u16);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Convert to f32 (exact).
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1f;
        let mant = h & 0x3ff;
        let bits = if exp == 0x1f {
            sign | 0x7f80_0000 | (mant << 13)
        } else if exp != 0 {
            sign | ((exp + 112) << 23) | (mant << 13)
        } else if mant != 0 {
            // Subnormal: normalize into f32's normal range.
            let p = 31 - mant.leading_zeros();
            let rest = mant ^ (1 << p);
            sign | ((p + 103) << 23) | (rest << (23 - p))
        } else {
            sign
        };
        f32::from_bits(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// True if finite (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: F16 = F16(0x3c00);
    /// Smallest positive subnormal (2^-24).
    const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(F16::NAN.to_f32().is_nan());
    }

    #[test]
    fn simple_values_exact() {
        for &v in &[0.5f32, 1.0, 2.0, -3.5, 1024.0, 0.125, -0.25, 40960.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        // Just above MAX rounds to infinity; just below stays finite.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(65503.0), F16::MAX);
    }

    #[test]
    fn subnormals() {
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny), MIN_POSITIVE_SUBNORMAL);
        assert_eq!(MIN_POSITIVE_SUBNORMAL.to_f32(), tiny);
        // Largest subnormal: 1023 * 2^-24.
        let big_sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(F16(0x03ff).to_f32(), big_sub);
        assert_eq!(F16::from_f32(big_sub), F16(0x03ff));
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        assert_eq!(F16::from_f32(-2.0f32.powi(-26)), F16(0x8000));
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half value;
        // round-to-even keeps 1.0 (even mantissa).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway), ONE);
        // 1 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).0, 0x3c02);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!ONE.to_f32().is_nan());
        assert!(F16::INFINITY.to_f32().is_infinite());
        assert!(!F16::INFINITY.is_finite());
        assert!(ONE.is_finite());
    }

    #[test]
    fn exhaustive_round_trip_all_finite_bit_patterns() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if !h.is_finite() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bit pattern {bits:#06x}");
        }
    }

    #[test]
    fn slice_helpers() {
        let src = [0.5f32, -1.5, 100.0];
        let mut half = [F16::ZERO; 3];
        crate::simd::f32_to_f16_slice(&src, &mut half);
        let mut back = [0f32; 3];
        crate::simd::f16_to_f32_slice(&half, &mut back);
        assert_eq!(src, back);
    }
}
