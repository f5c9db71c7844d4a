//! The TCL hot-path kernels, one implementation per dispatch level.
//!
//! Each public entry point validates slice geometry with real assertions,
//! then dispatches on [`Level`]: the scalar path is plain safe Rust
//! (bit-for-bit the pre-SIMD kernels), the `Wide`/`Avx2` paths run one
//! generic vector implementation monomorphized per [`SimdF32`] impl. The
//! AVX2 instantiations sit behind `#[target_feature(enable = "avx2,fma")]`
//! wrappers so the whole inlined loop is compiled with those features,
//! and are only reachable after runtime detection (the [`Level`]
//! availability assert).
//!
//! Numerics per kernel:
//!
//! * [`gebp_4x16`] / [`axpy`] accumulate in ascending-`k` order at every
//!   level; `Wide` is bitwise equal to `Scalar` (unfused), `Avx2` fuses
//!   multiply-adds and differs by at most the accumulated-rounding drift.
//! * [`if_step`] and [`gather_rows`] are elementwise (no reassociation,
//!   no fusion) and produce bitwise identical results at **every** level.
//! * [`nonzero_mask`], [`add_assign`] and [`transpose_8x8`] — the event
//!   convolution's kernels — compare, add once per lane, or move bits, so
//!   they too are bitwise identical at every level.

use crate::dispatch::Level;
use crate::vec::{SimdF32, LANES, W8};

/// Rows per GEBP register tile (matches `tcl-tensor`'s packing).
pub const MR: usize = 4;
/// Columns per GEBP register tile: two 8-lane vectors.
pub const NR: usize = 16;

// ---------------------------------------------------------------------------
// GEBP 4×16 micro-kernel
// ---------------------------------------------------------------------------

/// Accumulates one full `MR`×`NR` output tile from packed operands.
///
/// `a_band` is one `p`-major `MR`-row band (`a_band[p·MR + r]`), `b_pack`
/// one contiguous `k`×`NR` column tile; the tile `out[i0.., j0..]` of the
/// row-major `[.., n]` output is accumulated in ascending-`p` order.
///
/// # Panics
///
/// Asserts `level` is available on this host and that the slices cover the
/// stated geometry (`a_band ≥ k·MR`, `b_pack ≥ k·NR`, the tile inside
/// `out`).
#[allow(clippy::too_many_arguments)] // micro-kernel: all args are tile geometry
#[inline]
pub fn gebp_4x16(
    level: Level,
    a_band: &[f32],
    b_pack: &[f32],
    k: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert!(a_band.len() >= k * MR, "a_band too short for k={k}");
    assert!(b_pack.len() >= k * NR, "b_pack too short for k={k}");
    assert!(j0 + NR <= n, "tile columns {j0}..{} exceed n={n}", j0 + NR);
    assert!(
        (i0 + MR - 1) * n + j0 + NR <= out.len(),
        "tile rows {i0}..{} exceed out",
        i0 + MR
    );
    match level {
        Level::Scalar => gebp_4x16_scalar(a_band, b_pack, k, out, i0, j0, n),
        // SAFETY: geometry validated above; W8 is portable safe Rust, so
        // the ISA half of the contract is vacuous.
        Level::Wide => unsafe { gebp_4x16_v::<W8>(a_band, b_pack, k, out, i0, j0, n) },
        Level::Avx2 => gebp_4x16_avx2_entry(a_band, b_pack, k, out, i0, j0, n),
    }
}

/// Scalar GEBP tile — bit-for-bit the blocked kernel this crate replaced
/// in `tcl-tensor`: `NR`-wide accumulator rows updated in ascending `p`
/// with separate multiply and add.
fn gebp_4x16_scalar(
    a_band: &[f32],
    b_pack: &[f32],
    k: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    let mut acc0 = [0.0f32; NR];
    let mut acc1 = [0.0f32; NR];
    let mut acc2 = [0.0f32; NR];
    let mut acc3 = [0.0f32; NR];
    for (ap, bp) in a_band[..k * MR]
        .chunks_exact(MR)
        .zip(b_pack[..k * NR].chunks_exact(NR))
    {
        let b_row: &[f32; NR] = bp.try_into().unwrap_or(&[0.0; NR]);
        let (a0, a1, a2, a3) = (ap[0], ap[1], ap[2], ap[3]);
        for c in 0..NR {
            acc0[c] += a0 * b_row[c];
            acc1[c] += a1 * b_row[c];
            acc2[c] += a2 * b_row[c];
            acc3[c] += a3 * b_row[c];
        }
    }
    for (r, acc) in [acc0, acc1, acc2, acc3].iter().enumerate() {
        let o_row = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR];
        for (o, &acc_v) in o_row.iter_mut().zip(acc) {
            *o += acc_v;
        }
    }
}

/// Generic vector GEBP tile: 8 accumulator vectors (4 rows × 2), one
/// broadcast + two multiply-adds per row per `p` step, same ascending-`p`
/// per-element order as the scalar tile.
///
/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and that the
/// slices cover the geometry (validated by [`gebp_4x16`]).
#[inline(always)]
unsafe fn gebp_4x16_v<V: SimdF32>(
    a_band: &[f32],
    b_pack: &[f32],
    k: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    // SAFETY: pointer arithmetic stays inside the ranges asserted by the
    // public entry point; V's ISA is supported per the caller contract.
    unsafe {
        let mut acc = [[V::splat(0.0); 2]; MR];
        let mut ap = a_band.as_ptr();
        let mut bp = b_pack.as_ptr();
        for _ in 0..k {
            let b0 = V::load(bp);
            let b1 = V::load(bp.add(LANES));
            for (r, row_acc) in acc.iter_mut().enumerate() {
                let a = V::splat(*ap.add(r));
                row_acc[0] = a.mul_add(b0, row_acc[0]);
                row_acc[1] = a.mul_add(b1, row_acc[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let out_ptr = out.as_mut_ptr();
        for (r, row_acc) in acc.iter().enumerate() {
            let o = out_ptr.add((i0 + r) * n + j0);
            V::load(o).add(row_acc[0]).store(o);
            V::load(o.add(LANES)).add(row_acc[1]).store(o.add(LANES));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gebp_4x16_avx2(
    a_band: &[f32],
    b_pack: &[f32],
    k: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    // SAFETY: forwarded caller contract; AVX2+FMA enabled on this fn.
    unsafe { gebp_4x16_v::<crate::avx2::A8>(a_band, b_pack, k, out, i0, j0, n) }
}

fn gebp_4x16_avx2_entry(
    a_band: &[f32],
    b_pack: &[f32],
    k: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: Level::Avx2 passed the availability assert (runtime
    // detection of avx2+fma) and geometry was validated by the caller.
    unsafe {
        gebp_4x16_avx2(a_band, b_pack, k, out, i0, j0, n);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // Unreachable in practice (Avx2 is never available off x86-64); the
    // portable path keeps this arm total without a panic.
    // SAFETY: W8 is portable; geometry validated by the caller.
    unsafe {
        gebp_4x16_v::<W8>(a_band, b_pack, k, out, i0, j0, n);
    }
}

// ---------------------------------------------------------------------------
// axpy — the sparse zero-skip matmul's inner row update
// ---------------------------------------------------------------------------

/// `y[i] += alpha · x[i]` over matching slices, ascending `i`.
///
/// # Panics
///
/// Asserts `level` is available and `x.len() == y.len()`.
#[inline]
pub fn axpy(level: Level, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match level {
        Level::Scalar => axpy_scalar(alpha, x, y),
        // SAFETY: lengths validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { axpy_v::<W8>(alpha, x, y) },
        Level::Avx2 => axpy_avx2_entry(alpha, x, y),
    }
}

fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and
/// `x.len() == y.len()`.
#[inline(always)]
unsafe fn axpy_v<V: SimdF32>(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let main = n - n % LANES;
    // SAFETY: indices stay below `main ≤ n == x.len() == y.len()`.
    unsafe {
        let a = V::splat(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i < main {
            V::load(xp.add(i))
                .mul_add(a, V::load(yp.add(i)))
                .store(yp.add(i));
            i += LANES;
        }
    }
    axpy_scalar(alpha, &x[main..], &mut y[main..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    // SAFETY: forwarded caller contract; AVX2+FMA enabled on this fn.
    unsafe { axpy_v::<crate::avx2::A8>(alpha, x, y) }
}

fn axpy_avx2_entry(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; lengths validated.
    unsafe {
        axpy_avx2(alpha, x, y);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; lengths validated by the caller.
    unsafe {
        axpy_v::<W8>(alpha, x, y);
    }
}

// ---------------------------------------------------------------------------
// Integrate-and-fire step
// ---------------------------------------------------------------------------

/// One IF-neuron timestep over a bank: `V += z`; lanes with `V ≥ thr` emit
/// a unit spike and reset (subtract the threshold, or clamp to zero).
///
/// Elementwise adds/subtracts/compares only — no fusion, no reassociation
/// — so the result is **bitwise identical at every level**, which is what
/// lets the golden SNN trajectories survive dispatch. NaN potentials never
/// spike (ordered compare), matching scalar `>=`.
///
/// Returns the number of spikes written, counted from the compare masks as
/// the lanes are stepped, so callers need no second pass over `spikes`.
///
/// # Panics
///
/// Asserts `level` is available and all three slices have equal length.
#[inline]
pub fn if_step(
    level: Level,
    potential: &mut [f32],
    input: &[f32],
    spikes: &mut [f32],
    threshold: f32,
    subtract: bool,
) -> usize {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert_eq!(potential.len(), input.len(), "if_step length mismatch");
    assert_eq!(potential.len(), spikes.len(), "if_step length mismatch");
    match level {
        Level::Scalar => if_step_scalar(potential, input, spikes, threshold, subtract),
        // SAFETY: lengths validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { if_step_v::<W8>(potential, input, spikes, threshold, subtract) },
        Level::Avx2 => if_step_avx2_entry(potential, input, spikes, threshold, subtract),
    }
}

fn if_step_scalar(
    potential: &mut [f32],
    input: &[f32],
    spikes: &mut [f32],
    thr: f32,
    subtract: bool,
) -> usize {
    let mut fired = 0;
    for ((v, s), &z) in potential.iter_mut().zip(spikes.iter_mut()).zip(input) {
        *v += z;
        if *v >= thr {
            *s = 1.0;
            *v = if subtract { *v - thr } else { 0.0 };
            fired += 1;
        } else {
            *s = 0.0;
        }
    }
    fired
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and the slices
/// have equal length.
#[inline(always)]
unsafe fn if_step_v<V: SimdF32>(
    potential: &mut [f32],
    input: &[f32],
    spikes: &mut [f32],
    thr: f32,
    subtract: bool,
) -> usize {
    let n = potential.len();
    let main = n - n % LANES;
    let mut fired = 0;
    // SAFETY: indices stay below `main ≤ n`, the common slice length.
    unsafe {
        let thrv = V::splat(thr);
        let one = V::splat(1.0);
        let zero = V::splat(0.0);
        let vp = potential.as_mut_ptr();
        let zp = input.as_ptr();
        let sp = spikes.as_mut_ptr();
        let mut i = 0;
        while i < main {
            let vv = V::load(vp.add(i)).add(V::load(zp.add(i)));
            let mask = vv.ge(thrv);
            fired += mask.movemask().count_ones() as usize;
            V::select(mask, one, zero).store(sp.add(i));
            let reset = if subtract { vv.sub(thrv) } else { zero };
            V::select(mask, reset, vv).store(vp.add(i));
            i += LANES;
        }
    }
    fired
        + if_step_scalar(
            &mut potential[main..],
            &input[main..],
            &mut spikes[main..],
            thr,
            subtract,
        )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn if_step_avx2(
    potential: &mut [f32],
    input: &[f32],
    spikes: &mut [f32],
    thr: f32,
    subtract: bool,
) -> usize {
    // SAFETY: forwarded caller contract; AVX2 enabled on this fn.
    unsafe { if_step_v::<crate::avx2::A8>(potential, input, spikes, thr, subtract) }
}

fn if_step_avx2_entry(
    potential: &mut [f32],
    input: &[f32],
    spikes: &mut [f32],
    thr: f32,
    subtract: bool,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; lengths validated.
    unsafe {
        if_step_avx2(potential, input, spikes, thr, subtract)
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; lengths validated by the caller.
    unsafe {
        if_step_v::<W8>(potential, input, spikes, thr, subtract)
    }
}

// ---------------------------------------------------------------------------
// Spike-lane gather (engine compaction / retain_rows)
// ---------------------------------------------------------------------------

/// Copies the rows listed in `lanes` (each `row_len` long, indices into
/// `src`'s leading dimension) into `dst`, in order. A straight bit copy —
/// identical output at every level; the vector path moves 8 lanes per
/// step, which beats per-row `memcpy` dispatch for the short rows the
/// engine compacts.
///
/// # Panics
///
/// Asserts `level` is available, `dst.len() == lanes.len() · row_len`, and
/// every lane index is in range.
#[inline]
pub fn gather_rows(level: Level, src: &[f32], row_len: usize, lanes: &[usize], dst: &mut [f32]) {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert_eq!(dst.len(), lanes.len() * row_len, "gather_rows dst length");
    if row_len == 0 {
        return;
    }
    let rows = src.len() / row_len;
    for &lane in lanes {
        assert!(
            lane < rows,
            "gather_rows: lane {lane} out of range for {rows} rows"
        );
    }
    match level {
        Level::Scalar => {
            for (d, &lane) in dst.chunks_exact_mut(row_len).zip(lanes) {
                d.copy_from_slice(&src[lane * row_len..(lane + 1) * row_len]);
            }
        }
        // SAFETY: geometry validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { gather_rows_v::<W8>(src, row_len, lanes, dst) },
        Level::Avx2 => gather_rows_avx2_entry(src, row_len, lanes, dst),
    }
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported, every lane row
/// lies inside `src`, and `dst` holds `lanes.len() · row_len` elements.
#[inline(always)]
unsafe fn gather_rows_v<V: SimdF32>(src: &[f32], row_len: usize, lanes: &[usize], dst: &mut [f32]) {
    let main = row_len - row_len % LANES;
    // SAFETY: per the caller contract each source row `lane·row_len +
    // row_len` is inside `src` and the j-th destination row inside `dst`.
    unsafe {
        for (j, &lane) in lanes.iter().enumerate() {
            let sp = src.as_ptr().add(lane * row_len);
            let dp = dst.as_mut_ptr().add(j * row_len);
            let mut i = 0;
            while i < main {
                V::load(sp.add(i)).store(dp.add(i));
                i += LANES;
            }
            for t in main..row_len {
                *dp.add(t) = *sp.add(t);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gather_rows_avx2(src: &[f32], row_len: usize, lanes: &[usize], dst: &mut [f32]) {
    // SAFETY: forwarded caller contract; AVX2 enabled on this fn.
    unsafe { gather_rows_v::<crate::avx2::A8>(src, row_len, lanes, dst) }
}

fn gather_rows_avx2_entry(src: &[f32], row_len: usize, lanes: &[usize], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; geometry validated.
    unsafe {
        gather_rows_avx2(src, row_len, lanes, dst);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; geometry validated by the caller.
    unsafe {
        gather_rows_v::<W8>(src, row_len, lanes, dst);
    }
}

// ---------------------------------------------------------------------------
// Nonzero mask — the event convolution's spike scan
// ---------------------------------------------------------------------------

/// Bits of one mask word: the most entries [`nonzero_mask`] takes.
pub const MASK_BITS: usize = 64;

/// The nonzero entries of `src` (at most [`MASK_BITS`] long) as a bit
/// mask: bit `i` is set exactly when `src[i] != 0.0`. Either zero clears
/// its bit; NaN sets it, as scalar `!=` does. Bits past `src.len()` are
/// clear. The same mask at every level.
///
/// # Panics
///
/// Asserts `level` is available and `src.len() ≤ 64`.
#[inline]
pub fn nonzero_mask(level: Level, src: &[f32]) -> u64 {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert!(
        src.len() <= MASK_BITS,
        "nonzero_mask takes at most {MASK_BITS} entries, got {}",
        src.len()
    );
    match level {
        Level::Scalar => nonzero_mask_scalar(src),
        // SAFETY: length validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { nonzero_mask_v::<W8>(src) },
        Level::Avx2 => nonzero_mask_avx2_entry(src),
    }
}

fn nonzero_mask_scalar(src: &[f32]) -> u64 {
    src.iter()
        .enumerate()
        .fold(0, |m, (i, &v)| m | u64::from(v != 0.0) << i)
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and
/// `src.len() ≤ 64`.
#[inline(always)]
unsafe fn nonzero_mask_v<V: SimdF32>(src: &[f32]) -> u64 {
    let main = src.len() - src.len() % LANES;
    let mut mask = 0u64;
    // SAFETY: indices stay below `main ≤ src.len()`.
    unsafe {
        let zero = V::splat(0.0);
        let p = src.as_ptr();
        let mut i = 0;
        while i < main {
            mask |= u64::from(V::load(p.add(i)).ne(zero).movemask()) << i;
            i += LANES;
        }
    }
    if main < src.len() {
        mask |= nonzero_mask_scalar(&src[main..]) << main;
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn nonzero_mask_avx2(src: &[f32]) -> u64 {
    // SAFETY: forwarded caller contract; AVX2 enabled on this fn.
    unsafe { nonzero_mask_v::<crate::avx2::A8>(src) }
}

fn nonzero_mask_avx2_entry(src: &[f32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; length validated.
    unsafe {
        nonzero_mask_avx2(src)
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; length validated by the caller.
    unsafe {
        nonzero_mask_v::<W8>(src)
    }
}

// ---------------------------------------------------------------------------
// Lane-wise add — the event convolution's tap accumulate
// ---------------------------------------------------------------------------

/// `dst[i] += src[i]` over matching slices. One rounded add per lane, so
/// the result is bitwise identical at every level.
///
/// # Panics
///
/// Asserts `level` is available and `dst.len() == src.len()`.
#[inline]
pub fn add_assign(level: Level, dst: &mut [f32], src: &[f32]) {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    match level {
        Level::Scalar => add_assign_scalar(dst, src),
        // SAFETY: lengths validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { add_assign_v::<W8>(dst, src) },
        Level::Avx2 => add_assign_avx2_entry(dst, src),
    }
}

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and
/// `dst.len() == src.len()`.
#[inline(always)]
unsafe fn add_assign_v<V: SimdF32>(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    let main = n - n % LANES;
    // SAFETY: indices stay below `main ≤ n == src.len()`.
    unsafe {
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i < main {
            V::load(dp.add(i)).add(V::load(sp.add(i))).store(dp.add(i));
            i += LANES;
        }
    }
    add_assign_scalar(&mut dst[main..], &src[main..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
    // SAFETY: forwarded caller contract; AVX2 enabled on this fn.
    unsafe { add_assign_v::<crate::avx2::A8>(dst, src) }
}

fn add_assign_avx2_entry(dst: &mut [f32], src: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; lengths validated.
    unsafe {
        add_assign_avx2(dst, src);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; lengths validated by the caller.
    unsafe {
        add_assign_v::<W8>(dst, src);
    }
}

// ---------------------------------------------------------------------------
// 8×8 transpose copy — the event convolution's copy-out
// ---------------------------------------------------------------------------

/// Copies an 8×8 block transposed: `dst[j·dst_stride + i] =
/// src[i·src_stride + j]` for `i, j < 8`. Rows are `stride` apart in
/// each slice; entries outside the block are left alone. A bit copy —
/// identical at every level.
///
/// # Panics
///
/// Asserts `level` is available, both strides are at least 8, and each
/// slice holds its eight rows (`7·stride + 8` entries).
#[inline]
pub fn transpose_8x8(
    level: Level,
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    assert!(
        level.is_available(),
        "SIMD level {} unavailable",
        level.name()
    );
    assert!(
        src_stride >= LANES && dst_stride >= LANES,
        "transpose_8x8 strides {src_stride}/{dst_stride} below 8"
    );
    assert!(
        src.len() >= 7 * src_stride + LANES,
        "transpose_8x8 src too short for stride {src_stride}"
    );
    assert!(
        dst.len() >= 7 * dst_stride + LANES,
        "transpose_8x8 dst too short for stride {dst_stride}"
    );
    match level {
        Level::Scalar => transpose_8x8_scalar(src, src_stride, dst, dst_stride),
        // SAFETY: geometry validated above; W8 is portable safe Rust.
        Level::Wide => unsafe { transpose_8x8_v::<W8>(src, src_stride, dst, dst_stride) },
        Level::Avx2 => transpose_8x8_avx2_entry(src, src_stride, dst, dst_stride),
    }
}

fn transpose_8x8_scalar(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
    for j in 0..LANES {
        for i in 0..LANES {
            dst[j * dst_stride + i] = src[i * src_stride + j];
        }
    }
}

/// # Safety
///
/// Caller must guarantee the ISA behind `V` is supported and that both
/// slices hold eight rows of 8 at their strides.
#[inline(always)]
unsafe fn transpose_8x8_v<V: SimdF32>(
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    // SAFETY: row `r < 8` starts at `r·stride` and ends by `7·stride + 8`,
    // inside each slice per the caller contract.
    unsafe {
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let rows: [V; LANES] = std::array::from_fn(|r| V::load(sp.add(r * src_stride)));
        for (r, v) in V::transpose8(rows).into_iter().enumerate() {
            v.store(dp.add(r * dst_stride));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn transpose_8x8_avx2(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
    // SAFETY: forwarded caller contract; AVX2 enabled on this fn.
    unsafe { transpose_8x8_v::<crate::avx2::A8>(src, src_stride, dst, dst_stride) }
}

fn transpose_8x8_avx2_entry(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted by the caller; geometry validated.
    unsafe {
        transpose_8x8_avx2(src, src_stride, dst, dst_stride);
    }
    #[cfg(not(target_arch = "x86_64"))]
    // SAFETY: W8 is portable; geometry validated by the caller.
    unsafe {
        transpose_8x8_v::<W8>(src, src_stride, dst, dst_stride);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (xorshift*), no external deps.
    fn fill(len: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s >> 40) as f32 / (1u32 << 24) as f32;
                lo + (hi - lo) * u
            })
            .collect()
    }

    #[test]
    fn gebp_levels_match_scalar() {
        for k in [1usize, 2, 7, 64, 200] {
            let (i0, j0, n) = (1usize, 3, 24);
            let a_band = fill(k * MR, 11 + k as u64, -1.0, 1.0);
            let b_pack = fill(k * NR, 29 + k as u64, -1.0, 1.0);
            let base = fill((i0 + MR) * n, 3, -1.0, 1.0);
            let mut reference = base.clone();
            gebp_4x16(
                Level::Scalar,
                &a_band,
                &b_pack,
                k,
                &mut reference,
                i0,
                j0,
                n,
            );
            for level in Level::available() {
                let mut out = base.clone();
                gebp_4x16(level, &a_band, &b_pack, k, &mut out, i0, j0, n);
                for (c, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                    match level {
                        // Unfused paths replay the scalar bits exactly.
                        Level::Scalar | Level::Wide => assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} k={k} elem {c}: {got} vs {want}",
                            level.name()
                        ),
                        // FMA saves one rounding per step; with |a·b| ≤ 1
                        // the two accumulations drift apart by at most a
                        // few roundings of the running sum per step.
                        Level::Avx2 => assert!(
                            (got - want).abs() <= k as f32 * 1e-5,
                            "avx2 k={k} elem {c}: {got} vs {want}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn gebp_untouched_outside_tile() {
        let k = 5;
        let (i0, j0, n) = (0usize, 0, 20);
        let a_band = fill(k * MR, 1, -1.0, 1.0);
        let b_pack = fill(k * NR, 2, -1.0, 1.0);
        for level in Level::available() {
            let mut out = vec![7.0f32; MR * n];
            gebp_4x16(level, &a_band, &b_pack, k, &mut out, i0, j0, n);
            for r in 0..MR {
                for c in NR..n {
                    assert_eq!(out[r * n + c], 7.0, "{} leaked", level.name());
                }
            }
        }
    }

    #[test]
    fn axpy_levels_match_scalar() {
        for len in [0usize, 1, 7, 8, 9, 63, 250] {
            let x = fill(len, 5, -2.0, 2.0);
            let base = fill(len, 6, -2.0, 2.0);
            let mut reference = base.clone();
            axpy(Level::Scalar, 0.37, &x, &mut reference);
            for level in Level::available() {
                let mut y = base.clone();
                axpy(level, 0.37, &x, &mut y);
                for (i, (&got, &want)) in y.iter().zip(&reference).enumerate() {
                    if level == Level::Avx2 {
                        // One fused step per element: the only divergence
                        // is the skipped product rounding.
                        assert!(
                            (got - want).abs() <= 1e-6,
                            "avx2 len={len} elem {i}: {got} vs {want}"
                        );
                    } else {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} len={len} elem {i}: {got} vs {want}",
                            level.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn if_step_is_bitwise_across_levels() {
        for len in [1usize, 8, 13, 70] {
            for subtract in [true, false] {
                let mut z = fill(len, 7 + len as u64, -0.5, 1.5);
                if len > 2 {
                    z[2] = f32::NAN; // NaN potential must never spike
                }
                let base_v = fill(len, 8, 0.0, 0.9);
                let mut ref_v = base_v.clone();
                let mut ref_s = vec![0.0f32; len];
                if_step(Level::Scalar, &mut ref_v, &z, &mut ref_s, 1.0, subtract);
                for level in Level::available() {
                    let mut v = base_v.clone();
                    let mut s = vec![0.0f32; len];
                    if_step(level, &mut v, &z, &mut s, 1.0, subtract);
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&v), bits(&ref_v), "{} potentials", level.name());
                    assert_eq!(bits(&s), bits(&ref_s), "{} spikes", level.name());
                }
            }
        }
    }

    #[test]
    fn gather_rows_is_bitwise_across_levels() {
        for row_len in [0usize, 1, 5, 8, 19, 40] {
            let rows = 6;
            let src = fill(rows * row_len, 9, -3.0, 3.0);
            let lanes = [4usize, 0, 0, 5, 2];
            let mut reference = vec![0.0f32; lanes.len() * row_len];
            gather_rows(Level::Scalar, &src, row_len, &lanes, &mut reference);
            for (j, &lane) in lanes.iter().enumerate() {
                assert_eq!(
                    reference[j * row_len..(j + 1) * row_len],
                    src[lane * row_len..(lane + 1) * row_len]
                );
            }
            for level in Level::available() {
                let mut dst = vec![0.0f32; lanes.len() * row_len];
                gather_rows(level, &src, row_len, &lanes, &mut dst);
                assert_eq!(dst, reference, "{} row_len={row_len}", level.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        axpy(Level::Scalar, 1.0, &[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_out_of_range_lane() {
        let src = [0.0f32; 8];
        let mut dst = [0.0f32; 4];
        gather_rows(Level::Scalar, &src, 4, &[2], &mut dst);
    }
}
