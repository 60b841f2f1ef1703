//! Four-lane `f32` arithmetic with a bit-identical portable fallback.
//!
//! The vectorized wide traversal (the `wide` module) tests the four
//! child slabs of a compressed wide node — and four leaf triangles — in
//! lockstep. This module provides the lane type it runs on:
//!
//! * with the `simd` cargo feature on an `x86_64` target, [`F32x4`] wraps
//!   an SSE2 `__m128` and every operation lowers to one packed
//!   instruction;
//! * everywhere else it is a plain `[f32; 4]` evaluated lane by lane.
//!
//! **Bit-identity contract.** Both backends perform the *same* IEEE-754
//! single-precision operation per lane: packed add/sub/mul/div/sqrt are
//! correctly rounded exactly like their scalar counterparts, comparisons
//! return false on NaN in both worlds, [`F32x4::min_num`] /
//! [`F32x4::max_num`] reproduce [`f32::min`] / [`f32::max`] NaN semantics
//! (the non-NaN operand wins), and [`F32x4::abs`] clears the sign bit.
//! The one latitude is the sign of a zero result when the operands are
//! `+0.0` and `-0.0` — IEEE minNum/maxNum may return either, and the two
//! backends can disagree there. That cannot leak into results: min/max
//! outputs feed only comparisons and ordering, which treat the two zeros
//! as equal. A build with the feature off therefore produces the same hit
//! bits as a build with it on — `rip-testkit` pins this with a committed
//! hit-digest snapshot verified under both configurations.
//!
//! Comparison results are returned as 4-bit lane masks (`u8`, bit *i* =
//! lane *i*) so mask composition is ordinary integer bit-twiddling that
//! cannot diverge between backends.

/// Which lane backend this build uses: `"sse2"` or `"scalar"`.
///
/// Diagnostic only — results are bit-identical either way.
pub fn backend_name() -> &'static str {
    backend::BACKEND_NAME
}

/// Whether this build vectorizes the wide kernel with explicit SIMD.
pub fn simd_enabled() -> bool {
    backend::BACKEND_NAME != "scalar"
}

pub use backend::F32x4;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod backend {
    //! SSE2 backend. `x86_64` guarantees SSE2 statically, so every
    //! intrinsic used here is available on any target this module
    //! compiles for.
    use core::arch::x86_64::*;

    pub(super) const BACKEND_NAME: &str = "sse2";

    /// Four `f32` lanes in one SSE register.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4(__m128);

    impl F32x4 {
        /// Lanes from an array (`v[i]` becomes lane `i`).
        #[inline(always)]
        pub fn new(v: [f32; 4]) -> Self {
            F32x4(unsafe { _mm_set_ps(v[3], v[2], v[1], v[0]) })
        }

        /// All four lanes equal to `v`.
        #[inline(always)]
        pub fn splat(v: f32) -> Self {
            F32x4(unsafe { _mm_set1_ps(v) })
        }

        /// The lanes as an array (lane `i` at index `i`).
        #[inline(always)]
        pub fn to_array(self) -> [f32; 4] {
            let mut out = [0.0f32; 4];
            unsafe { _mm_storeu_ps(out.as_mut_ptr(), self.0) };
            out
        }

        /// Lane-wise `|x|` (sign bit cleared, NaN payload preserved).
        #[inline(always)]
        pub fn abs(self) -> Self {
            F32x4(unsafe { _mm_andnot_ps(_mm_set1_ps(-0.0), self.0) })
        }

        /// Lane-wise square root (correctly rounded, like [`f32::sqrt`]).
        #[inline(always)]
        pub fn sqrt(self) -> Self {
            F32x4(unsafe { _mm_sqrt_ps(self.0) })
        }

        /// Lane-wise minimum with [`f32::min`] NaN semantics: if exactly
        /// one operand is NaN the other wins; NaN only when both are.
        /// The sign of a zero result is unspecified for `(+0.0, -0.0)`
        /// operands (as with [`f32::min`]); callers must not depend on it.
        #[inline(always)]
        pub fn min_num(self, rhs: Self) -> Self {
            unsafe {
                // _mm_min_ps(a, b) = a < b ? a : b, i.e. b whenever a is
                // NaN — but NaN whenever only b is. Patch the latter case
                // back to a with a b-is-NaN blend.
                let raw = _mm_min_ps(self.0, rhs.0);
                let rhs_nan = _mm_cmpunord_ps(rhs.0, rhs.0);
                F32x4(_mm_or_ps(
                    _mm_and_ps(rhs_nan, self.0),
                    _mm_andnot_ps(rhs_nan, raw),
                ))
            }
        }

        /// Lane-wise maximum with [`f32::max`] NaN semantics.
        #[inline(always)]
        pub fn max_num(self, rhs: Self) -> Self {
            unsafe {
                let raw = _mm_max_ps(self.0, rhs.0);
                let rhs_nan = _mm_cmpunord_ps(rhs.0, rhs.0);
                F32x4(_mm_or_ps(
                    _mm_and_ps(rhs_nan, self.0),
                    _mm_andnot_ps(rhs_nan, raw),
                ))
            }
        }

        /// Lane mask of `self <= rhs` (false on NaN, like scalar `<=`).
        #[inline(always)]
        pub fn le(self, rhs: Self) -> u8 {
            unsafe { _mm_movemask_ps(_mm_cmple_ps(self.0, rhs.0)) as u8 }
        }

        /// Lane mask of `self < rhs`.
        #[inline(always)]
        pub fn lt(self, rhs: Self) -> u8 {
            unsafe { _mm_movemask_ps(_mm_cmplt_ps(self.0, rhs.0)) as u8 }
        }

        /// Lane mask of `self >= rhs`.
        #[inline(always)]
        pub fn ge(self, rhs: Self) -> u8 {
            unsafe { _mm_movemask_ps(_mm_cmpge_ps(self.0, rhs.0)) as u8 }
        }

        /// Lane mask of `self > rhs`.
        #[inline(always)]
        pub fn gt(self, rhs: Self) -> u8 {
            unsafe { _mm_movemask_ps(_mm_cmpgt_ps(self.0, rhs.0)) as u8 }
        }

        /// Lane mask of `self == rhs` (false on NaN).
        #[inline(always)]
        pub fn eq_mask(self, rhs: Self) -> u8 {
            unsafe { _mm_movemask_ps(_mm_cmpeq_ps(self.0, rhs.0)) as u8 }
        }
    }

    impl std::ops::Add for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn add(self, rhs: F32x4) -> F32x4 {
            F32x4(unsafe { _mm_add_ps(self.0, rhs.0) })
        }
    }

    impl std::ops::Sub for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn sub(self, rhs: F32x4) -> F32x4 {
            F32x4(unsafe { _mm_sub_ps(self.0, rhs.0) })
        }
    }

    impl std::ops::Mul for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn mul(self, rhs: F32x4) -> F32x4 {
            F32x4(unsafe { _mm_mul_ps(self.0, rhs.0) })
        }
    }

    impl std::ops::Div for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn div(self, rhs: F32x4) -> F32x4 {
            F32x4(unsafe { _mm_div_ps(self.0, rhs.0) })
        }
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod backend {
    //! Portable backend: the same operations lane by lane. Every method
    //! body is the scalar IEEE-754 definition of its SSE2 counterpart,
    //! which is what makes the two builds bit-identical.

    pub(super) const BACKEND_NAME: &str = "scalar";

    /// Four `f32` lanes in a plain array.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4([f32; 4]);

    #[inline(always)]
    fn map2(a: [f32; 4], b: [f32; 4], f: impl Fn(f32, f32) -> f32) -> [f32; 4] {
        [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
    }

    #[inline(always)]
    fn mask2(a: [f32; 4], b: [f32; 4], f: impl Fn(f32, f32) -> bool) -> u8 {
        (0..4).fold(0u8, |m, i| m | (u8::from(f(a[i], b[i])) << i))
    }

    impl F32x4 {
        /// Lanes from an array (`v[i]` becomes lane `i`).
        #[inline(always)]
        pub fn new(v: [f32; 4]) -> Self {
            F32x4(v)
        }

        /// All four lanes equal to `v`.
        #[inline(always)]
        pub fn splat(v: f32) -> Self {
            F32x4([v; 4])
        }

        /// The lanes as an array (lane `i` at index `i`).
        #[inline(always)]
        pub fn to_array(self) -> [f32; 4] {
            self.0
        }

        /// Lane-wise `|x|` (sign bit cleared, NaN payload preserved).
        #[inline(always)]
        pub fn abs(self) -> Self {
            F32x4(self.0.map(f32::abs))
        }

        /// Lane-wise square root (correctly rounded, like [`f32::sqrt`]).
        #[inline(always)]
        pub fn sqrt(self) -> Self {
            F32x4(self.0.map(f32::sqrt))
        }

        /// Lane-wise minimum with [`f32::min`] NaN semantics.
        #[inline(always)]
        pub fn min_num(self, rhs: Self) -> Self {
            F32x4(map2(self.0, rhs.0, f32::min))
        }

        /// Lane-wise maximum with [`f32::max`] NaN semantics.
        #[inline(always)]
        pub fn max_num(self, rhs: Self) -> Self {
            F32x4(map2(self.0, rhs.0, f32::max))
        }

        /// Lane mask of `self <= rhs` (false on NaN, like scalar `<=`).
        #[inline(always)]
        pub fn le(self, rhs: Self) -> u8 {
            mask2(self.0, rhs.0, |a, b| a <= b)
        }

        /// Lane mask of `self < rhs`.
        #[inline(always)]
        pub fn lt(self, rhs: Self) -> u8 {
            mask2(self.0, rhs.0, |a, b| a < b)
        }

        /// Lane mask of `self >= rhs`.
        #[inline(always)]
        pub fn ge(self, rhs: Self) -> u8 {
            mask2(self.0, rhs.0, |a, b| a >= b)
        }

        /// Lane mask of `self > rhs`.
        #[inline(always)]
        pub fn gt(self, rhs: Self) -> u8 {
            mask2(self.0, rhs.0, |a, b| a > b)
        }

        /// Lane mask of `self == rhs` (false on NaN).
        #[inline(always)]
        pub fn eq_mask(self, rhs: Self) -> u8 {
            mask2(self.0, rhs.0, |a, b| a == b)
        }
    }

    impl std::ops::Add for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn add(self, rhs: F32x4) -> F32x4 {
            F32x4(map2(self.0, rhs.0, |a, b| a + b))
        }
    }

    impl std::ops::Sub for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn sub(self, rhs: F32x4) -> F32x4 {
            F32x4(map2(self.0, rhs.0, |a, b| a - b))
        }
    }

    impl std::ops::Mul for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn mul(self, rhs: F32x4) -> F32x4 {
            F32x4(map2(self.0, rhs.0, |a, b| a * b))
        }
    }

    impl std::ops::Div for F32x4 {
        type Output = F32x4;
        #[inline(always)]
        fn div(self, rhs: F32x4) -> F32x4 {
            F32x4(map2(self.0, rhs.0, |a, b| a / b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_scalar_bits() {
        let a = [1.5f32, -0.0, f32::MIN_POSITIVE, 3.0e38];
        let b = [2.5f32, 7.0, 1.0e-40, 3.0e38];
        let va = F32x4::new(a);
        let vb = F32x4::new(b);
        for (lane, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!((va + vb).to_array()[lane].to_bits(), (x + y).to_bits());
            assert_eq!((va - vb).to_array()[lane].to_bits(), (x - y).to_bits());
            assert_eq!((va * vb).to_array()[lane].to_bits(), (x * y).to_bits());
            assert_eq!((va / vb).to_array()[lane].to_bits(), (x / y).to_bits());
            assert_eq!(va.sqrt().to_array()[lane].to_bits(), x.sqrt().to_bits());
            assert_eq!(va.abs().to_array()[lane].to_bits(), x.abs().to_bits());
        }
    }

    #[test]
    fn min_max_match_f32_nan_semantics() {
        let cases = [
            (1.0f32, 2.0f32),
            (2.0, 1.0),
            (f32::NAN, 5.0),
            (5.0, f32::NAN),
            (f32::NAN, f32::NAN),
            (f32::INFINITY, f32::NEG_INFINITY),
            (-0.0, 0.0),
        ];
        for &(x, y) in &cases {
            let got_min = F32x4::splat(x).min_num(F32x4::splat(y)).to_array()[0];
            let got_max = F32x4::splat(x).max_num(F32x4::splat(y)).to_array()[0];
            // Bits-or-both-NaN, with numeric equality admitting the one
            // permitted divergence: minNum/maxNum of (+0.0, -0.0) may return
            // either zero (see module docs — consumers never see the sign).
            let same =
                |g: f32, w: f32| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()) || g == w;
            assert!(same(got_min, x.min(y)), "min({x}, {y}) -> {got_min}");
            assert!(same(got_max, x.max(y)), "max({x}, {y}) -> {got_max}");
        }
    }

    #[test]
    fn comparisons_are_false_on_nan() {
        let a = F32x4::new([1.0, f32::NAN, 3.0, f32::NAN]);
        let b = F32x4::new([2.0, 2.0, f32::NAN, f32::NAN]);
        assert_eq!(a.le(b), 0b0001);
        assert_eq!(a.lt(b), 0b0001);
        assert_eq!(a.ge(b), 0b0000);
        assert_eq!(b.gt(a), 0b0001);
        assert_eq!(a.eq_mask(a) & 0b0101, 0b0101);
        assert_eq!(a.eq_mask(a) & 0b1010, 0);
    }

    #[test]
    fn backend_name_is_consistent() {
        assert_eq!(simd_enabled(), backend_name() != "scalar");
    }
}
