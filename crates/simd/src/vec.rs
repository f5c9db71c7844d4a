//! The SIMD operation trait and the portable 8-lane implementation.
//!
//! [`SimdF32`] is the dispatch trait the generic kernels in
//! [`crate::kernels`] are written against: 8 lanes of `f32` with the
//! handful of operations the TCL hot paths need. Implementations exist for
//! the portable [`W8`] struct (safe Rust the compiler autovectorizes —
//! NEON on aarch64, SSE/AVX on x86) and, on x86-64, for AVX2+FMA
//! (`crate::avx2::A8`).
//!
//! All methods are `unsafe fn`s with a uniform contract: the caller must
//! ensure (a) the host supports the implementation's instruction set and
//! (b) every pointer passed to `load`/`store` addresses at least
//! [`LANES`] readable/writable `f32`s. The public kernels validate slice
//! geometry up front and only then enter the vector loops.

/// Lanes per vector. Fixed at 8 so a 4×16 GEBP tile is exactly 4×2
/// vectors; both implementations use this width.
pub const LANES: usize = 8;

/// Eight lanes of `f32`: the operation set the generic kernels need.
///
/// `mul_add(m, a)` computes `self * m + a`. Whether the multiply-add is
/// *fused* is implementation-defined: [`W8`] rounds twice (bitwise equal
/// to scalar code), AVX2 fuses (one rounding). Kernels that must stay
/// bitwise identical across levels (`if_step`, `gather_rows`) therefore
/// avoid `mul_add`.
pub trait SimdF32: Copy {
    /// Broadcasts one value to all lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn splat(v: f32) -> Self;

    /// Loads [`LANES`] consecutive values (unaligned).
    ///
    /// # Safety
    ///
    /// ISA support, and `src` must address at least [`LANES`] readable
    /// `f32`s.
    unsafe fn load(src: *const f32) -> Self;

    /// Stores [`LANES`] consecutive values (unaligned).
    ///
    /// # Safety
    ///
    /// ISA support, and `dst` must address at least [`LANES`] writable
    /// `f32`s.
    unsafe fn store(self, dst: *mut f32);

    /// Lanewise `self + o`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn add(self, o: Self) -> Self;

    /// Lanewise `self - o`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn sub(self, o: Self) -> Self;

    /// Lanewise `self * m + a` (fusion implementation-defined, see trait
    /// docs).
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn mul_add(self, m: Self, a: Self) -> Self;

    /// Lanewise ordered `self >= o`, as an all-ones/all-zeros bitmask per
    /// lane (NaN compares false, matching scalar `>=`).
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn ge(self, o: Self) -> Self;

    /// Lanewise bit-select: `t` where `mask` lanes are all-ones, `f`
    /// elsewhere. Exact bit copy — never rounds.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn select(mask: Self, t: Self, f: Self) -> Self;

    /// Lanewise unordered `self != o`, as an all-ones/all-zeros bitmask
    /// per lane (NaN compares true, matching scalar `!=`).
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn ne(self, o: Self) -> Self;

    /// The lanes' sign bits as an integer: bit `l` is lane `l`'s sign bit,
    /// so a compare mask turns into one bit per lane.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn movemask(self) -> u32;

    /// Transposes eight vectors viewed as the rows of an 8×8 block: lane
    /// `j` of output `i` is lane `i` of input `j`. Exact bit moves.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports this implementation's ISA.
    unsafe fn transpose8(rows: [Self; LANES]) -> [Self; LANES];
}

/// Portable 8-wide vector: safe elementwise Rust over `[f32; 8]`.
///
/// Every operation maps to a fixed-bound lane loop the compiler
/// autovectorizes for whatever the build target offers. Multiplies and
/// adds are separate rounded operations, so results are bitwise identical
/// to the scalar kernels.
#[derive(Debug, Clone, Copy)]
#[repr(transparent)]
pub struct W8([f32; LANES]);

impl SimdF32 for W8 {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        W8([v; LANES])
    }

    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: caller guarantees LANES readable f32s at `src`.
        W8(unsafe { std::ptr::read_unaligned(src.cast::<[f32; LANES]>()) })
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        // SAFETY: caller guarantees LANES writable f32s at `dst`.
        unsafe { std::ptr::write_unaligned(dst.cast::<[f32; LANES]>(), self.0) }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        W8(std::array::from_fn(|i| self.0[i] + o.0[i]))
    }

    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        W8(std::array::from_fn(|i| self.0[i] - o.0[i]))
    }

    #[inline(always)]
    unsafe fn mul_add(self, m: Self, a: Self) -> Self {
        // Deliberately unfused (`*` then `+`): rustc performs no floating
        // contraction, so this is bitwise the scalar accumulation.
        W8(std::array::from_fn(|i| self.0[i] * m.0[i] + a.0[i]))
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        W8(std::array::from_fn(|i| {
            f32::from_bits(if self.0[i] >= o.0[i] { u32::MAX } else { 0 })
        }))
    }

    #[inline(always)]
    unsafe fn select(mask: Self, t: Self, f: Self) -> Self {
        W8(std::array::from_fn(|i| {
            let m = mask.0[i].to_bits();
            f32::from_bits((t.0[i].to_bits() & m) | (f.0[i].to_bits() & !m))
        }))
    }

    #[inline(always)]
    unsafe fn ne(self, o: Self) -> Self {
        W8(std::array::from_fn(|i| {
            f32::from_bits(if self.0[i] != o.0[i] { u32::MAX } else { 0 })
        }))
    }

    #[inline(always)]
    unsafe fn movemask(self) -> u32 {
        self.0
            .iter()
            .enumerate()
            .fold(0, |m, (l, v)| m | (v.to_bits() >> 31) << l)
    }

    #[inline(always)]
    unsafe fn transpose8(rows: [Self; LANES]) -> [Self; LANES] {
        std::array::from_fn(|i| W8(std::array::from_fn(|j| rows[j].0[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_lane_ops_match_scalar() {
        let a: [f32; LANES] = std::array::from_fn(|i| i as f32 - 3.5);
        let b: [f32; LANES] = std::array::from_fn(|i| 0.25 * i as f32 + 0.1);
        // SAFETY: W8 is plain safe Rust; pointers cover LANES elements.
        unsafe {
            let va = W8::load(a.as_ptr());
            let vb = W8::load(b.as_ptr());
            let mut out = [0.0f32; LANES];
            va.add(vb).store(out.as_mut_ptr());
            for i in 0..LANES {
                assert_eq!(out[i].to_bits(), (a[i] + b[i]).to_bits());
            }
            va.mul_add(vb, W8::splat(1.0)).store(out.as_mut_ptr());
            for i in 0..LANES {
                assert_eq!(out[i].to_bits(), (a[i] * b[i] + 1.0).to_bits());
            }
        }
    }

    #[test]
    fn ge_select_is_exact_and_nan_safe() {
        let v = [1.0, f32::NAN, -0.0, 2.5, -1.0, 0.0, 3.0, 1.5];
        let thr = [1.0f32; LANES];
        // SAFETY: portable impl, lengths are LANES.
        unsafe {
            let mask = W8::load(v.as_ptr()).ge(W8::load(thr.as_ptr()));
            let mut picked = [0.0f32; LANES];
            W8::select(mask, W8::splat(1.0), W8::splat(0.0)).store(picked.as_mut_ptr());
            let expect = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0];
            assert_eq!(picked, expect, "NaN must compare false like scalar >=");
        }
    }
}
