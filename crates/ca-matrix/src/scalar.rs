//! The sealed [`Scalar`] trait: the two IEEE-754 element types the
//! workspace factors in (`f32`, `f64`).
//!
//! Every layer that used to be hard-wired to `f64` — [`crate::Matrix`],
//! the views, [`crate::aligned::AlignedBuf`], and the kernels in
//! `ca-kernels` — is generic over this trait with `f64` as the default
//! type parameter, so all existing call sites compile unchanged while the
//! f32 tier (the doubled-throughput base for mixed-precision refinement,
//! Demmel–Grigori–Hoemmen–Langou §5) reuses the exact same code paths.
//!
//! The trait is **sealed**: kernels carry `unsafe` SIMD microkernels whose
//! correctness is only established for these two types, so downstream
//! crates must not be able to add implementations.

use core::fmt::{Debug, Display, LowerExp};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    /// Seals [`super::Scalar`]: only `f32` and `f64` implement it.
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A real floating-point element type (`f32` or `f64`).
///
/// Bundles the arithmetic operators plus the handful of intrinsics the
/// factorization kernels need (absolute value, square root, `hypot`,
/// `copysign`, NaN checks) and conversion bridges to `f64` so that
/// precision-independent bookkeeping (growth factors, norms, thresholds)
/// can stay in double precision.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + LowerExp
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (`f32::EPSILON` / `f64::EPSILON`).
    const EPSILON: Self;
    /// Smallest positive normal value (underflow guard in pivot tests).
    const MIN_POSITIVE: Self;
    /// Type name for dispatch tables and reports (`"f32"` / `"f64"`).
    const NAME: &'static str;
    /// Storage size of one element in bytes (4 / 8) — the on-disk element
    /// width for the out-of-core tile store and other binary codecs.
    const BYTES: usize;

    /// Lossless widening to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// Conversion from `f64` (rounds for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused `self * a + b` with a single rounding. One instruction only
    /// inside a function compiled with the `fma` target feature; elsewhere
    /// a (slow, still exact) library call.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `sqrt(self² + other²)` without intermediate overflow.
    fn hypot(self, other: Self) -> Self;
    /// Magnitude of `self` with the sign of `sign`.
    fn copysign(self, sign: Self) -> Self;
    /// IEEE maximum (NaN-ignoring, as `f64::max`).
    fn max(self, other: Self) -> Self;
    /// `true` iff NaN.
    fn is_nan(self) -> bool;
    /// `true` iff neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// Raw bit pattern widened to `u64` (bitwise-identity assertions).
    fn to_bits_u64(self) -> u64;
    /// Inverse of [`Scalar::to_bits_u64`]: reconstructs the value from the
    /// low [`Scalar::BYTES`]·8 bits (binary deserialization).
    fn from_bits_u64(bits: u64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $bits:ty, $name:literal) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const NAME: &'static str = $name;
            const BYTES: usize = core::mem::size_of::<$t>();

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline(always)]
            fn copysign(self, sign: Self) -> Self {
                <$t>::copysign(self, sign)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn to_bits_u64(self) -> u64 {
                self.to_bits() as u64
            }
            #[inline(always)]
            fn from_bits_u64(bits: u64) -> Self {
                <$t>::from_bits(bits as $bits)
            }
        }
    };
}

impl_scalar!(f32, u32, "f32");
impl_scalar!(f64, u64, "f64");

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert!(T::EPSILON.to_f64() > 0.0);
        assert!((-T::ONE).abs() == T::ONE);
        assert!(T::from_f64(f64::NAN).is_nan());
        assert!(T::ONE.is_finite());
    }

    #[test]
    fn both_types_satisfy_contract() {
        roundtrip::<f32>();
        roundtrip::<f64>();
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
        assert_eq!(3.0f64.to_bits_u64(), 3.0f64.to_bits());
    }

    #[test]
    fn bit_roundtrip_is_exact_for_both_widths() {
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
        for v in [0.0f64, -0.0, 1.0, -1.5e-300, f64::MIN_POSITIVE, f64::MAX] {
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
        }
        for v in [0.0f32, -0.0, 1.0, -1.5e-30, f32::MIN_POSITIVE, f32::MAX] {
            assert_eq!(f32::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f32_epsilon_is_coarser() {
        assert!(f32::EPSILON.to_f64() > f64::EPSILON);
    }
}
