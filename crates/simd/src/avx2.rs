//! AVX2 + FMA implementation of [`SimdF32`] (x86-64 only).
//!
//! The only file in the workspace that touches `core::arch` intrinsics.
//! Methods are `#[inline(always)]` so they flatten into the
//! `#[target_feature(enable = "avx2,fma")]` kernel wrappers in
//! [`crate::kernels`]; dispatch guarantees those wrappers only run after
//! runtime detection confirmed AVX2+FMA support.

use core::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
    _mm256_movemask_ps, _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_shuffle_ps,
    _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _CMP_GE_OQ,
    _CMP_NEQ_UQ,
};

use crate::vec::{SimdF32, LANES};

/// Eight `f32` lanes in one AVX YMM register.
#[derive(Clone, Copy)]
#[repr(transparent)]
pub(crate) struct A8(__m256);

impl SimdF32 for A8 {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: caller contract — AVX2 available and `src` addresses 8
        // readable f32s; loadu has no alignment requirement.
        A8(unsafe { _mm256_loadu_ps(src) })
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        // SAFETY: caller contract — AVX2 available and `dst` addresses 8
        // writable f32s; storeu has no alignment requirement.
        unsafe { _mm256_storeu_ps(dst, self.0) }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_add_ps(self.0, o.0) })
    }

    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_sub_ps(self.0, o.0) })
    }

    #[inline(always)]
    unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        // Fused: one rounding per step — the level's numeric signature.
        // SAFETY: caller contract — FMA confirmed by runtime detection.
        A8(unsafe { _mm256_fmadd_ps(self.0, m.0, a.0) })
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        // Ordered-quiet >=: NaN lanes compare false, like scalar `>=`.
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_cmp_ps::<_CMP_GE_OQ>(self.0, o.0) })
    }

    #[inline(always)]
    unsafe fn select(mask: Self, t: Self, f: Self) -> Self {
        // blendv picks by each lane's sign bit; cmp masks are all-ones or
        // all-zeros so this is the exact bit-select the trait specifies.
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_blendv_ps(f.0, t.0, mask.0) })
    }

    #[inline(always)]
    unsafe fn ne(self, o: Self) -> Self {
        // Unordered-quiet !=: NaN lanes compare true, like scalar `!=`.
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        A8(unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, o.0) })
    }

    #[inline(always)]
    unsafe fn movemask(self) -> u32 {
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        unsafe { _mm256_movemask_ps(self.0) }.cast_unsigned()
    }

    #[inline(always)]
    unsafe fn transpose8(rows: [Self; LANES]) -> [Self; LANES] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows.map(|r| r.0);
        // Interleave pairs of rows, then pairs of pairs within each 128-bit
        // half, then swap halves: the classic 24-shuffle 8×8 transpose.
        // Every step moves bits; none rounds.
        // SAFETY: caller contract — AVX2 confirmed by runtime detection.
        unsafe {
            let t0 = _mm256_unpacklo_ps(r0, r1);
            let t1 = _mm256_unpackhi_ps(r0, r1);
            let t2 = _mm256_unpacklo_ps(r2, r3);
            let t3 = _mm256_unpackhi_ps(r2, r3);
            let t4 = _mm256_unpacklo_ps(r4, r5);
            let t5 = _mm256_unpackhi_ps(r4, r5);
            let t6 = _mm256_unpacklo_ps(r6, r7);
            let t7 = _mm256_unpackhi_ps(r6, r7);
            let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                A8(_mm256_permute2f128_ps::<0x20>(s0, s4)),
                A8(_mm256_permute2f128_ps::<0x20>(s1, s5)),
                A8(_mm256_permute2f128_ps::<0x20>(s2, s6)),
                A8(_mm256_permute2f128_ps::<0x20>(s3, s7)),
                A8(_mm256_permute2f128_ps::<0x31>(s0, s4)),
                A8(_mm256_permute2f128_ps::<0x31>(s1, s5)),
                A8(_mm256_permute2f128_ps::<0x31>(s2, s6)),
                A8(_mm256_permute2f128_ps::<0x31>(s3, s7)),
            ]
        }
    }
}
