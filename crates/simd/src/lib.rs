//! # tcl-simd
//!
//! Runtime-dispatched SIMD kernels for the TCL ANN-to-SNN stack, modeled on
//! rten's `rten-simd` design: a small vector-operation trait
//! ([`vec::SimdF32`]), one implementation per instruction-set level, and
//! generic kernels monomorphized per level behind a safe dispatch surface.
//!
//! This crate is the workspace's **only unsafe island**. Every other crate
//! keeps `#![forbid(unsafe_code)]` and reaches vectors exclusively through
//! the safe entry points in [`kernels`] (`gebp_4x16`, `axpy`, `if_step`,
//! `gather_rows`, and the event convolution's `nonzero_mask`, `add_assign`
//! and `transpose_8x8`), passing the [`Level`] returned by [`current`]. The
//! `tcl-lint` rule **S1** enforces that raw intrinsics (`core::arch`,
//! `_mm*`) and `unsafe` never appear outside `crates/simd`.
//!
//! ## Dispatch levels
//!
//! * [`Level::Scalar`] — plain `f32` loops, bit-for-bit the pre-SIMD
//!   kernels. Golden suites pin this level.
//! * [`Level::Wide`] — a portable 8-lane `[f32; 8]` struct. No intrinsics:
//!   the compiler autovectorizes it (NEON on aarch64, SSE/AVX on x86).
//!   Multiplies and adds stay **unfused**, so this level is bitwise
//!   identical to `Scalar` — it is a faster spelling of the same floats.
//! * [`Level::Avx2`] — AVX2 + FMA intrinsics (x86-64 only). Fused
//!   multiply-adds skip one rounding per accumulation step, so dot-product
//!   kernels differ from `Scalar` within an accumulated-rounding bound
//!   (≈ half an ulp per fused step); elementwise kernels (`if_step`,
//!   `gather_rows`, `nonzero_mask`, `add_assign`, `transpose_8x8`) perform
//!   no reassociation or fusion and remain bitwise identical across *all*
//!   levels.
//!
//! ## Resolution order and determinism
//!
//! [`current`] resolves, in order: a thread-scoped [`with_level`] override →
//! the process-wide [`pin`] (first resolution wins) → the `TCL_SIMD`
//! environment variable (`scalar` / `wide` / `avx2` / `native`) → runtime
//! detection of the widest supported level. The result is latched for the
//! process, so a run never migrates between levels mid-flight.
//!
//! Within any fixed level the kernels keep the workspace determinism
//! contract: identical per-element operation order regardless of threading,
//! so serial == parallel bitwise at every level. `tcl-tensor`'s fork-join
//! helpers and the `tcl-snn` engine capture the caller's level and re-apply
//! it on their workers, which makes the contract hold even under scoped
//! overrides.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod dispatch;
pub mod kernels;
pub(crate) mod vec;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

pub use dispatch::{current, detect_widest, pin, with_level, Level};
pub use kernels::{
    add_assign, axpy, gather_rows, gebp_4x16, if_step, nonzero_mask, transpose_8x8, MASK_BITS,
};
