//! Dense numeric substrate for the FVAE reproduction.
//!
//! This crate provides the small set of dense building blocks every model in
//! the workspace is written against:
//!
//! * [`Matrix`] — a row-major, heap-allocated `f32` matrix with the
//!   multiplication variants needed by hand-written backpropagation
//!   (`A·B`, `A·Bᵀ`, `Aᵀ·B`),
//! * [`ops`] — vector kernels (dot, axpy, softmax, log-softmax, …),
//! * [`simd`] — the runtime-dispatched micro-kernel vtable behind [`ops`]
//!   and the GEMM tiles: scalar reference, AVX2 (x86_64, runtime-detected),
//!   NEON (aarch64), plus the int8 serving dot and the shared `tanh` (a
//!   port of fdlibm's `tanhf`, bit-exact on every backend); `FVAE_SIMD=0`
//!   pins scalar,
//! * [`dist`] — random distributions implemented from scratch on top of the
//!   `rand` core (Gaussian via Box–Muller, Gamma via Marsaglia–Tsang,
//!   Dirichlet, Zipf) plus an alias table for O(1) discrete sampling.
//!
//! Everything is `f32`: the paper trains with single precision and the
//! datasets here are small enough that accumulation error is negligible
//! (verified by the gradient-check tests in `fvae-nn`).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod dist;
pub mod linalg;
pub mod matrix;
pub mod ops;
pub mod simd;

pub use matrix::{Matrix, PAR_MIN_FLOPS};
