//! Matrix multiplication and transpose kernels.
//!
//! These are the hot paths of both ANN training (via im2col convolution) and
//! SNN simulation (synaptic current computation). The dense kernel is
//! cache-blocked and register-tiled: the output is computed in `MR`×`NR`
//! tiles whose accumulators live in registers across the **entire** shared
//! dimension. Full tiles run through the runtime-dispatched SIMD
//! micro-kernel [`tcl_simd::gebp_4x16`] (AVX2+FMA, portable 8-wide, or
//! scalar — see [`crate::simd`]); ragged edges keep the autovectorized
//! scalar tile. Large products additionally fan out across threads (see
//! [`crate::par`]), splitting only along output rows.
//!
//! # Determinism
//!
//! Every output element is accumulated in ascending `k` order with exactly
//! one store, and threads split the output only at `MR`-row band
//! boundaries, so for a fixed shape the result is bitwise identical across
//! thread counts **for a fixed SIMD level**. The level is resolved once per
//! call ([`tcl_simd::current`]) and passed to every worker, so a product
//! never mixes levels. `Scalar` and `Wide` are bitwise identical to each
//! other and to [`matmul_into_naive`], whichever tile a row lands in, so at
//! those levels a row's bits do not depend on its position or on `m`.
//!
//! `Avx2` fuses multiply-adds, and only in the full-tile micro-kernel: the
//! ragged right columns and the ragged bottom rows (the last `m % MR`) run
//! unfused tiles. So at `Avx2` a row's bits depend on where it
//! sits — row 4 of a 5-row product is ragged and unfused, while the same
//! row as row 0 of a 4-row product is fused — and differ within an
//! accumulated-rounding bound. The exception is exact products: with 0/1
//! left-hand entries (binary spikes) `1·b` rounds nothing, so fused and
//! unfused tiles agree bitwise. Pin `TCL_SIMD=scalar` to replay reference
//! numerics. The `*_with` variants take an explicit [`Parallelism`]
//! budget; the plain entry points use the process default
//! ([`crate::par::current`], i.e. `TCL_THREADS`).
//!
//! # Zero-skipping
//!
//! The seed implementation skipped `a[i][p] == 0.0` multiplicands
//! everywhere. That is only valid when the right-hand side is finite
//! (`0.0 * NaN` is `NaN`, not `0.0`), so the skip now lives solely in
//! [`matmul_into_sparse`], the kernel the SNN simulator uses for mostly-zero
//! spike matrices; the dense kernels are IEEE-faithful.

use crate::error::{Result, TensorError};
use crate::par::{self, Parallelism};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use tcl_simd::Level;

/// Rows per register tile; must match [`tcl_simd::kernels::MR`].
const MR: usize = tcl_simd::kernels::MR;
/// Columns per register tile (two 8-lane vectors); must match
/// [`tcl_simd::kernels::NR`].
const NR: usize = tcl_simd::kernels::NR;
/// Edge length of the cache blocks used by [`transpose_into`].
const TRANSPOSE_BLOCK: usize = 32;
/// Minimum `m·k·n` volume before a matmul fans out across threads.
const PAR_MIN_VOLUME: usize = 1 << 18;

/// Computes the matrix product `a @ b` of two rank-2 tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either input is not rank 2, or
/// [`TensorError::MatmulDimMismatch`] if `a.cols != b.rows`.
///
/// # Examples
///
/// ```
/// use tcl_tensor::{ops, Tensor};
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let identity = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(ops::matmul(&a, &identity)?, a);
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(par::current(), a, b)
}

/// [`matmul`] with an explicit thread budget.
///
/// # Errors
///
/// As for [`matmul`].
pub fn matmul_with(par: Parallelism, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = Tensor::zeros([m, n]);
    matmul_into_with(par, a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Computes `aᵀ @ b` where `a` is `[k, m]` and `b` is `[k, n]`.
///
/// Implemented as a blocked transpose of `a` (an `O(k·m)` copy) followed by
/// the blocked dense kernel, which beats a strided direct traversal for the
/// `O(m·k·n)` multiply. Used by the convolution backward pass (input
/// gradients).
///
/// # Errors
///
/// Returns a rank or dimension mismatch error as in [`matmul`].
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_tn_with(par::current(), a, b)
}

/// [`matmul_tn`] with an explicit thread budget.
///
/// # Errors
///
/// As for [`matmul_tn`].
pub fn matmul_tn_with(par: Parallelism, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: m,
            right_rows: k2,
        });
    }
    let mut at = vec![0.0f32; m * k];
    transpose_into(a.data(), &mut at, k, m);
    let mut out = Tensor::zeros([m, n]);
    matmul_into_with(par, &at, b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// Computes `a @ bᵀ` where `a` is `[m, k]` and `b` is `[n, k]`.
///
/// Implemented as a blocked transpose of `b` plus the blocked dense kernel
/// (see [`matmul_tn`]). Used by the convolution backward pass (weight
/// gradients) and fully connected layers.
///
/// # Errors
///
/// Returns a rank or dimension mismatch error as in [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_nt_with(par::current(), a, b)
}

/// [`matmul_nt`] with an explicit thread budget.
///
/// # Errors
///
/// As for [`matmul_nt`].
pub fn matmul_nt_with(par: Parallelism, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut bt = vec![0.0f32; k * n];
    transpose_into(b.data(), &mut bt, n, k);
    let mut out = Tensor::zeros([m, n]);
    matmul_into_with(par, a.data(), &bt, out.data_mut(), m, k, n);
    Ok(out)
}

/// Raw `[m,k] @ [k,n] -> [m,n]` kernel over contiguous slices.
///
/// `out` is accumulated into (callers must zero it first if they want a pure
/// product). Exposed so the convolution and SNN paths can reuse preallocated
/// buffers. Uses the process-default thread budget.
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are inconsistent with the
/// stated dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_into_with(par::current(), a, b, out, m, k, n);
}

/// [`matmul_into`] with an explicit thread budget.
///
/// Bitwise deterministic: for fixed inputs and shape the result is identical
/// for every `par`, because the row partition only decides *which thread*
/// runs a row, never how a row is computed.
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are inconsistent with the
/// stated dimensions.
pub fn matmul_into_with(
    par: Parallelism,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    product_into(par, a, b, None, out, m, k, n);
}

/// A constant `[k, n]` right-hand operand with its full `NR`-column tiles
/// packed once: tile `t` holds columns `t·NR..(t+1)·NR` of every row,
/// `k`-major (`tiles[t·k·NR + p·NR + j] = b[p][t·NR + j]`), the layout
/// the blocked kernel otherwise copies each tile into on every call. The
/// row-major operand is kept beside it, because the narrow, ragged-edge and
/// zero-skip kernels read that layout.
///
/// [`matmul_into_packed`] with it computes [`matmul_into`]'s bits: the
/// tiles hold the same values, and the kernel reads them in the same
/// order. Build it once per constant operand, not per call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedPanel {
    /// `[k, n]`, row-major.
    panel: Tensor,
    /// The `n / NR` full column tiles, each `[k][NR]`.
    tiles: Vec<f32>,
}

impl PackedPanel {
    /// Packs `panel`'s full column tiles.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `panel` is not rank 2.
    pub fn new(panel: Tensor) -> Result<Self> {
        let (k, n) = panel.shape().as_matrix()?;
        let full_tiles = n - n % NR;
        let mut tiles = vec![0.0f32; full_tiles * k];
        for (tile, j0) in tiles
            .chunks_exact_mut((k * NR).max(1))
            .zip((0..full_tiles).step_by(NR))
        {
            for (dst, row) in tile.chunks_exact_mut(NR).zip(panel.data().chunks_exact(n)) {
                dst.copy_from_slice(&row[j0..j0 + NR]);
            }
        }
        Ok(PackedPanel { panel, tiles })
    }

    /// The row-major `[k, n]` operand.
    pub fn panel(&self) -> &Tensor {
        &self.panel
    }

    /// Scales every entry in place, in both layouts.
    pub fn scale_inplace(&mut self, factor: f32) {
        self.panel.scale_inplace(factor);
        for v in &mut self.tiles {
            *v *= factor;
        }
    }
}

/// `a @ b` accumulated into `out` for a [`PackedPanel`] `b` of `[k, n]`,
/// with `a` `[m, k]`: [`matmul_into`]'s kernel, thread split and bits,
/// reading `b`'s full column tiles from the panel instead of copying them.
/// Uses the process-default thread budget.
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are inconsistent with
/// `m` and the panel's shape.
pub fn matmul_into_packed(a: &[f32], b: &PackedPanel, out: &mut [f32], m: usize) {
    let (k, n) = (b.panel.dims()[0], b.panel.dims()[1]);
    product_into(
        par::current(),
        a,
        b.panel.data(),
        Some(&b.tiles),
        out,
        m,
        k,
        n,
    );
}

/// The body of [`matmul_into_with`] and [`matmul_into_packed`]: `b`'s full
/// column tiles come from `tiles` when the operand is prepacked, else each
/// is packed per call.
#[allow(clippy::too_many_arguments)] // kernel entry: operands plus geometry
fn product_into(
    par: Parallelism,
    a: &[f32],
    b: &[f32],
    tiles: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 0 {
        return;
    }
    let _span = tcl_telemetry::span_with("matmul", || {
        vec![("m", m as f64), ("k", k as f64), ("n", n as f64)]
    });
    // Resolve the SIMD level once and hand it to every worker: one product
    // never mixes micro-kernel numerics across its row partition.
    let level = tcl_simd::current();
    // Split only if every worker gets enough rows to amortize a spawn.
    let min_rows = (PAR_MIN_VOLUME / (k * n).max(1)).max(MR);
    par::par_items_mut(par, out, n, MR, min_rows, |first_row, out_rows| {
        let rows = out_rows.len() / n;
        let a_rows = &a[first_row * k..(first_row + rows) * k];
        kernel_rows(level, a_rows, b, tiles, out_rows, rows, k, n);
    });
}

/// Dense kernel over a contiguous row range: blocked/register-tiled when the
/// output is at least `NR` wide, row-streaming saxpy otherwise. The path is
/// chosen by shape alone, so it never affects determinism.
///
/// Full `MR`-row bands are packed into a `p`-major scratch buffer once per
/// band, so the hot tile loop streams two contiguous pointers (packed A,
/// B tile) instead of `MR` strided row cursors. Packing copies each A
/// element once per band — `O(rows·k)` against the `O(rows·k·n)` multiply.
/// Each full `NR`-column B tile comes from `tiles` when the operand is
/// prepacked ([`PackedPanel`]); otherwise it is copied into a scratch tile
/// when a full band reads it, and read in place by the ragged rows alone.
/// Full tiles dispatch to [`tcl_simd::gebp_4x16`] at the caller-resolved
/// `level`. The ragged bottom rows (fewer than `MR`) run [`ragged_tile`],
/// whose height is a compile-time constant, and the ragged right columns
/// the general [`micro_tile`]; neither fuses — the source of `Avx2`'s
/// row-position dependence (module docs).
#[allow(clippy::too_many_arguments)] // kernel body: operands plus geometry
fn kernel_rows(
    level: Level,
    a: &[f32],
    b: &[f32],
    tiles: Option<&[f32]>,
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    if n < NR {
        matmul_into_naive(a, b, out, rows, k, n);
        return;
    }
    if k == 0 {
        // An empty sum: nothing to accumulate, and no band to pack.
        return;
    }
    let full_bands = rows - rows % MR;
    let full_tiles = n - n % NR;
    let edge = n - full_tiles;
    let tail = rows - full_bands;
    // A is packed once, `p`-major within each MR-row band
    // (`a_pack[band][p·MR + r] = a[band·MR + r][p]`). The copy is `O(size)`
    // against the `O(m·k·n)` multiply, and it lets the hot loop stream two
    // dense cursors with the B tile L1-resident across every band.
    let mut a_pack = vec![0.0f32; full_bands * k];
    for (band, band_pack) in a_pack.chunks_exact_mut(MR * k).enumerate() {
        for r in 0..MR {
            let row = &a[(band * MR + r) * k..(band * MR + r + 1) * k];
            for (p, &v) in row.iter().enumerate() {
                band_pack[p * MR + r] = v;
            }
        }
    }
    let mut b_pack = Vec::new();
    for j0 in (0..full_tiles).step_by(NR) {
        // The tile and its row stride.
        let (tile, stride) = match tiles {
            Some(tiles) => (&tiles[j0 * k..(j0 + NR) * k], NR),
            None if full_bands > 0 => {
                b_pack.resize(k * NR, 0.0);
                for (bp, brow) in b_pack.chunks_exact_mut(NR).zip(b[j0..].chunks(n)) {
                    bp.copy_from_slice(&brow[..NR]);
                }
                (&b_pack[..], NR)
            }
            None => (&b[j0..], n),
        };
        for (band, band_pack) in a_pack.chunks_exact(MR * k).enumerate() {
            tcl_simd::gebp_4x16(level, band_pack, tile, k, out, band * MR, j0, n);
        }
        // Ragged bottom rows (fewer than MR), at a fixed height.
        match tail {
            0 => {}
            1 => ragged_tile::<1>(a, tile, stride, out, full_bands, j0, k, n),
            2 => ragged_tile::<2>(a, tile, stride, out, full_bands, j0, k, n),
            _ => ragged_tile::<3>(a, tile, stride, out, full_bands, j0, k, n),
        }
    }
    if edge > 0 {
        // Ragged right edge: general tile over the original layouts, the
        // full bands first, then the ragged corner.
        for i0 in (0..full_bands).step_by(MR) {
            micro_tile(a, b, out, i0, full_tiles, MR, edge, k, n);
        }
        if tail > 0 {
            micro_tile(a, b, out, full_bands, full_tiles, tail, edge, k, n);
        }
    }
}

/// One `H`×`NR` output tile (`H < MR`, rows `i0..i0 + H`, columns
/// `j0..j0 + NR`), whose B tile row `p` is `tile[p·stride..][..NR]`. With
/// the height a constant the accumulators stay in registers across the
/// whole `k` range; each element accumulates `acc += a·b` unfused in
/// ascending `k` from zero, then one `+=` store — the order of
/// [`micro_tile`] and [`matmul_into_naive`] on a zeroed output.
#[inline]
#[allow(clippy::too_many_arguments)] // edge-tile kernel: all args are tight-loop geometry
fn ragged_tile<const H: usize>(
    a: &[f32],
    tile: &[f32],
    stride: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let a_rows: [&[f32]; H] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
    let mut acc = [[0.0f32; NR]; H];
    for p in 0..k {
        let b_row: &[f32; NR] = tile[p * stride..p * stride + NR]
            .try_into()
            // lint: allow(P1) the slice is exactly NR long by the range
            .expect("tile is NR wide");
        for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[p];
            for (acc_v, &bv) in acc_r.iter_mut().zip(b_row) {
                *acc_v += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o_row = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR];
        for (o, &acc_v) in o_row.iter_mut().zip(acc_r) {
            *o += acc_v;
        }
    }
}

/// One `height`×`width` output tile (`height ≤ MR`, `width < NR`): the
/// ragged right edge. Accumulates over the full `k` range, then a single
/// `+=` store per element.
#[inline]
#[allow(clippy::too_many_arguments)] // edge-tile kernel: all args are tight-loop geometry
fn micro_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    height: usize,
    width: usize,
    k: usize,
    n: usize,
) {
    // Row slices hoisted so the p-loop indexes with a constant bound.
    let a_row = |r: usize| {
        let row = i0 + if r < height { r } else { 0 };
        &a[row * k..(row + 1) * k]
    };
    let a_rows: [&[f32]; MR] = std::array::from_fn(a_row);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let b_row = &b[p * n + j0..p * n + j0 + width];
        for r in 0..height {
            let av = a_rows[r][p];
            for (acc_v, &bv) in acc[r][..width].iter_mut().zip(b_row) {
                *acc_v += av * bv;
            }
        }
    }
    for r in 0..height {
        let o_row = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
        for (o, &acc_v) in o_row.iter_mut().zip(&acc[r][..width]) {
            *o += acc_v;
        }
    }
}

/// Reference `i-k-j` saxpy kernel, IEEE-faithful (no zero-skipping).
///
/// Serves as the narrow-output path of the blocked kernel and as the
/// baseline the criterion benches compare against. Accumulates into `out`.
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are inconsistent with the
/// stated dimensions.
pub fn matmul_into_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Sparse-row `[m,k] @ [k,n] -> [m,n]` kernel that skips zero left-hand
/// entries — the seed's zero-skipping saxpy, kept as a dedicated entry point
/// for spike-train matrices (mostly zeros by construction).
///
/// **Caveat:** skipping `a[i][p] == 0.0` also skips `0.0 × NaN` and
/// `0.0 × ±inf`, so this kernel assumes a finite right-hand side. Spiking
/// weights are finite by construction; dense callers must use
/// [`matmul_into`] instead. Accumulates into `out`.
///
/// The surviving (nonzero) row updates run through [`tcl_simd::axpy`] at
/// the process SIMD level, so the kernel's throughput tracks the dense
/// kernel's instead of falling back to scalar saxpy — the zero-skip only
/// pays off when the skip rate beats the vector width (see
/// `tcl-snn::synop`'s density gate).
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are inconsistent with the
/// stated dimensions.
pub fn matmul_into_sparse(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let level = tcl_simd::current();
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            tcl_simd::axpy(level, av, &b[p * n..(p + 1) * n], o_row);
        }
    }
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the input is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = a.shape().as_matrix()?;
    let mut out = Tensor::zeros([n, m]);
    transpose_into(a.data(), out.data_mut(), m, n);
    Ok(out)
}

/// Blocked transpose of an `[m, n]` row-major slice into `dst` (`[n, m]`).
///
/// Walks `TRANSPOSE_BLOCK`² blocks so both the row-wise reads and the
/// strided writes stay within a cache-resident footprint, instead of the
/// naive full-row sweep that misses on every write for large `m`.
///
/// # Panics
///
/// Panics (debug assertions) if the slice lengths are not `m * n`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(dst.len(), m * n);
    const B: usize = TRANSPOSE_BLOCK;
    let mut i0 = 0;
    while i0 < m {
        let ih = (m - i0).min(B);
        let mut j0 = 0;
        while j0 < n {
            let jw = (n - j0).min(B);
            for i in i0..i0 + ih {
                let s_row = &src[i * n + j0..i * n + j0 + jw];
                for (dj, &v) in s_row.iter().enumerate() {
                    dst[(j0 + dj) * m + i] = v;
                }
            }
            j0 += B;
        }
        i0 += B;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec([rows, cols], v.to_vec()).unwrap()
    }

    /// Pseudo-random but deterministic fill for kernel cross-checks.
    fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = crate::rng::SeededRng::new(seed);
        rng.uniform_tensor([rows, cols], -1.0, 1.0)
    }

    #[test]
    fn small_product_is_correct() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let id = t2(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let a = t2(2, 3, &[0.0; 6]);
        let b = t2(2, 3, &[0.0; 6]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let a = Tensor::zeros([2, 3, 1]);
        let b = Tensor::zeros([3, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t2(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let expected = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(matmul_tn(&a, &b).unwrap(), expected);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t2(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = t2(4, 3, &(0..12).map(|i| i as f32 - 4.0).collect::<Vec<_>>());
        let expected = matmul(&a, &transpose(&b).unwrap()).unwrap();
        let got = matmul_nt(&a, &b).unwrap();
        assert!(got.max_abs_diff(&expected).unwrap() < 1e-5);
    }

    #[test]
    fn transpose_is_involution() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [1.0, 1.0, 1.0, 1.0];
        matmul_into(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn blocked_kernel_matches_naive_on_awkward_shapes() {
        // Cover all tile-edge combinations: rows % MR, cols % NR, narrow
        // outputs, and k both smaller and larger than a tile.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 4, 16),
            (5, 3, 17),
            (7, 33, 15),
            (13, 70, 47),
            (33, 9, 64),
            (3, 128, 2),
        ] {
            let a = fill(m, k, 1 + m as u64);
            let b = fill(k, n, 100 + n as u64);
            let mut naive = vec![0.0f32; m * n];
            matmul_into_naive(a.data(), b.data(), &mut naive, m, k, n);
            for level in tcl_simd::Level::available() {
                let mut blocked = vec![0.0f32; m * n];
                tcl_simd::with_level(level, || {
                    matmul_into_with(
                        Parallelism::serial(),
                        a.data(),
                        b.data(),
                        &mut blocked,
                        m,
                        k,
                        n,
                    );
                });
                match level {
                    // Same inputs, same per-element accumulation order,
                    // unfused arithmetic → bitwise.
                    Level::Scalar | Level::Wide => {
                        assert_eq!(blocked, naive, "{} shape {m}x{k}x{n}", level.name());
                    }
                    // FMA tiles save one rounding per accumulation step.
                    Level::Avx2 => {
                        for (g, w) in blocked.iter().zip(&naive) {
                            assert!(
                                (g - w).abs() <= k as f32 * 1e-5,
                                "avx2 shape {m}x{k}x{n}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_kernel_propagates_nonfinite_products() {
        // Regression for the seed's zero-skip bug: 0 · NaN and 0 · inf must
        // reach the output as NaN in the dense kernels.
        let a = t2(1, 2, &[0.0, 1.0]);
        let b = t2(2, 2, &[f32::NAN, f32::INFINITY, 1.0, 2.0]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.at(0).is_nan(), "0 * NaN + 1 * 1 must be NaN, got {c:?}");
        assert!(c.at(1).is_nan(), "0 * inf + 1 * 2 must be NaN, got {c:?}");

        // matmul_tn had the same skip on its left operand.
        let at = transpose(&a).unwrap();
        let c_tn = matmul_tn(&at, &b).unwrap();
        assert!(c_tn.at(0).is_nan() && c_tn.at(1).is_nan(), "{c_tn:?}");

        // The sparse kernel intentionally keeps the skip (finite weights).
        let mut sparse = vec![0.0f32; 2];
        matmul_into_sparse(a.data(), b.data(), &mut sparse, 1, 2, 2);
        assert_eq!(sparse, [1.0, 2.0]);
    }

    #[test]
    fn sparse_kernel_matches_dense_on_spike_like_input() {
        let mut rng = crate::rng::SeededRng::new(5);
        let (m, k, n) = (6, 40, 30);
        // ~80% zeros, like a spike raster.
        let spikes: Vec<f32> = (0..m * k)
            .map(|_| {
                if rng.uniform(0.0, 1.0) < 0.2 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let b = fill(k, n, 9);
        let mut dense = vec![0.0f32; m * n];
        let mut sparse = vec![0.0f32; m * n];
        matmul_into_with(
            Parallelism::serial(),
            &spikes,
            b.data(),
            &mut dense,
            m,
            k,
            n,
        );
        matmul_into_sparse(&spikes, b.data(), &mut sparse, m, k, n);
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((d - s).abs() < 1e-5, "{d} vs {s}");
        }
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        for &(m, n) in &[(1usize, 1usize), (3, 5), (31, 33), (64, 64), (70, 130)] {
            let a = fill(m, n, 7 + (m * n) as u64);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = a.data()[i * n + j];
                }
            }
            let blocked = transpose(&a).unwrap();
            assert_eq!(blocked.data(), &naive[..], "shape {m}x{n}");
            assert_eq!(blocked.dims(), &[n, m]);
        }
    }

    #[test]
    fn parallel_matmul_is_bitwise_equal_to_serial() {
        let (m, k, n) = (37, 23, 29);
        let a = fill(m, k, 21);
        let b = fill(k, n, 22);
        let mut serial = vec![0.0f32; m * n];
        matmul_into_with(
            Parallelism::serial(),
            a.data(),
            b.data(),
            &mut serial,
            m,
            k,
            n,
        );
        for threads in [2usize, 3, 8] {
            let mut parallel = vec![0.0f32; m * n];
            matmul_into_with(
                Parallelism::new(threads),
                a.data(),
                b.data(),
                &mut parallel,
                m,
                k,
                n,
            );
            assert_eq!(serial, parallel, "threads {threads}");
        }
    }

    #[test]
    fn packed_panel_matches_per_call_packing_bitwise() {
        // Ragged rows, ragged columns, a single tile, narrow outputs, and
        // thread counts that split the rows.
        for &(m, k, n) in &[
            (1usize, 7usize, 16usize),
            (3, 20, 33),
            (5, 64, 128),
            (12, 33, 47),
            (37, 23, 64),
            (6, 9, 5),
            (4, 0, 32),
        ] {
            let a = fill(m, k, 31 + m as u64);
            let b = fill(k, n, 32 + n as u64);
            let packed = PackedPanel::new(b.clone()).unwrap();
            for level in tcl_simd::Level::available() {
                tcl_simd::with_level(level, || {
                    let mut want = vec![0.5f32; m * n];
                    matmul_into_with(
                        Parallelism::serial(),
                        a.data(),
                        b.data(),
                        &mut want,
                        m,
                        k,
                        n,
                    );
                    for threads in [1usize, 2, 4] {
                        let mut got = vec![0.5f32; m * n];
                        product_into(
                            Parallelism::new(threads),
                            a.data(),
                            b.data(),
                            Some(&packed.tiles),
                            &mut got,
                            m,
                            k,
                            n,
                        );
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{} {m}x{k}x{n} threads {threads}",
                            level.name()
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn packed_panel_scales_both_layouts() {
        let b = fill(9, 40, 3);
        let mut packed = PackedPanel::new(b.clone()).unwrap();
        packed.scale_inplace(0.3);
        let scaled = PackedPanel::new(b.scale(0.3)).unwrap();
        assert_eq!(packed.panel(), scaled.panel());
        assert_eq!(packed.tiles, scaled.tiles);
        assert!(PackedPanel::new(Tensor::zeros([2, 3, 4])).is_err());
    }

    #[test]
    fn degenerate_dims_are_handled() {
        // m = 0, k = 0, n = 0 must not panic and must respect accumulate
        // semantics (k = 0 adds nothing).
        let mut out: Vec<f32> = vec![];
        matmul_into(&[], &[0.0; 16], &mut out, 0, 4, 4);

        let mut out = [7.0f32; 4];
        matmul_into(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, [7.0; 4]);

        let mut out: Vec<f32> = vec![];
        matmul_into(&[1.0, 2.0], &[], &mut out, 1, 2, 0);
    }
}
