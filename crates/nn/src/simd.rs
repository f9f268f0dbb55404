//! Explicit-SIMD element kernels with a runtime-dispatched scalar
//! fallback.
//!
//! # Determinism contract
//!
//! Every operation here is **element-wise**: each output element is a
//! function of the corresponding input elements only, combined with
//! individually rounded IEEE-754 operations (add, mul, div, sqrt, and
//! `mul_add` where — and only where — the scalar reference uses
//! `f32::mul_add`). AVX per-lane arithmetic is correctly rounded, so
//! vectorising *across* independent elements never changes a result
//! bit: the dispatched paths are bit-identical to the `*_scalar`
//! reference twins below, which the proptests in this module enforce
//! over ragged lengths (including non-lane-multiple tails).
//!
//! Two op-order rules are load-bearing and must never be "optimised":
//!
//! * [`axpy`] is multiply *then* add (two roundings), matching the
//!   scalar `*dst += src * s` it replaces — fusing it into one FMA
//!   would change results.
//! * [`adam_update`] reproduces the exact expression shapes of
//!   `Adam::step` (e.g. `(1-β₂)·g·g` associates left), so training
//!   trajectories — and therefore records, journal and manifest bytes —
//!   do not move.
//!
//! # Dispatch
//!
//! [`active_lane`] probes the CPU once (`is_x86_feature_detected!`) and
//! caches the result: AVX-512F if present, else AVX2+FMA, else scalar.
//! Compiling with `--no-default-features` (the `simd` feature off)
//! removes every intrinsic and pins the lane to [`Lane::Scalar`].
//!
//! # Safety
//!
//! This module contains the only `unsafe` in the workspace: calls into
//! `core::arch` intrinsics behind `#[target_feature]` functions that
//! are reached strictly after the matching runtime CPU probe, plus the
//! unaligned vector load/stores inside them, whose bounds are
//! established by the surrounding slice arithmetic (every 16/8-wide
//! access is guarded by `i + LANES <= len`; tails run scalar).
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Which SIMD instruction set the element kernels execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Plain scalar loops (also the compile-time fallback when the
    /// `simd` feature is off).
    Scalar,
    /// 8-wide AVX2 with FMA.
    Avx2Fma,
    /// 16-wide AVX-512F.
    Avx512,
}

impl Lane {
    /// Stable lowercase name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Avx2Fma => "avx2-fma",
            Lane::Avx512 => "avx512",
        }
    }
}

fn detect() -> Lane {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return Lane::Avx512;
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return Lane::Avx2Fma;
        }
    }
    Lane::Scalar
}

static LANE: OnceLock<Lane> = OnceLock::new();

/// The lane every dispatched op in this module executes on, probed once
/// per process.
pub fn active_lane() -> Lane {
    *LANE.get_or_init(detect)
}

/// Scalar constants of one Adam update batch, computed once per step
/// call exactly as `Adam::step` computes them.
#[derive(Debug, Clone, Copy)]
pub struct AdamConsts {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
    /// Bias correction `1 - β₁ᵗ`.
    pub b1t: f32,
    /// Bias correction `1 - β₂ᵗ`.
    pub b2t: f32,
    /// Learning rate.
    pub lr: f32,
}

// ---------------------------------------------------------------------
// Scalar reference twins (the semantics; SIMD paths must match bitwise)
// ---------------------------------------------------------------------

/// `dst[i] += src[i]` — scalar reference.
pub fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] *= s` — scalar reference.
pub fn scale_assign_scalar(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// `dst[i] += src[i] * s` (multiply then add, two roundings — **not**
/// an FMA) — scalar reference.
pub fn axpy_scalar(dst: &mut [f32], src: &[f32], s: f32) {
    for (d, &g) in dst.iter_mut().zip(src) {
        *d += g * s;
    }
}

/// One Adam update over parallel slices — scalar reference, the exact
/// expression shapes of `Adam::step`.
pub fn adam_update_scalar(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamConsts) {
    for i in 0..p.len() {
        let gv = g[i];
        m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * gv;
        v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * gv * gv;
        let mhat = m[i] / c.b1t;
        let vhat = v[i] / c.b2t;
        p[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
    }
}

/// `dst[i] = (q[i] as f32).mul_add(s, dst[i])` — scalar reference for
/// the int8 dequantise-accumulate (a *fused* multiply-add: the int8
/// path is a new kernel, specified with `mul_add` from the start).
pub fn i8_axpy_scalar(dst: &mut [f32], q: &[i8], s: f32) {
    for (d, &qv) in dst.iter_mut().zip(q) {
        *d = f32::from(qv).mul_add(s, *d);
    }
}

// ---------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------

/// `dst[i] += src[i]` on the active lane.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match active_lane() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx512 => unsafe { x86::add_assign_avx512(dst, src) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx2Fma => unsafe { x86::add_assign_avx2(dst, src) },
        _ => add_assign_scalar(dst, src),
    }
}

/// `dst[i] *= s` on the active lane.
#[inline]
pub fn scale_assign(dst: &mut [f32], s: f32) {
    match active_lane() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx512 => unsafe { x86::scale_assign_avx512(dst, s) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx2Fma => unsafe { x86::scale_assign_avx2(dst, s) },
        _ => scale_assign_scalar(dst, s),
    }
}

/// `dst[i] += src[i] * s` (mul then add) on the active lane.
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], s: f32) {
    debug_assert_eq!(dst.len(), src.len());
    match active_lane() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx512 => unsafe { x86::axpy_avx512(dst, src, s) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx2Fma => unsafe { x86::axpy_avx2(dst, src, s) },
        _ => axpy_scalar(dst, src, s),
    }
}

/// One Adam update over parallel slices on the active lane.
#[inline]
pub fn adam_update(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamConsts) {
    debug_assert_eq!(p.len(), g.len());
    debug_assert_eq!(p.len(), m.len());
    debug_assert_eq!(p.len(), v.len());
    match active_lane() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx512 => unsafe { x86::adam_update_avx512(p, m, v, g, c) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx2Fma => unsafe { x86::adam_update_avx2(p, m, v, g, c) },
        _ => adam_update_scalar(p, m, v, g, c),
    }
}

/// Hint the cache hierarchy to pull `slice` toward L1. A pure memory
/// hint (`prefetcht0`): no architectural effect, so results are
/// unchanged on every lane — used to hide the row-fetch latency of the
/// sparse embedding sweeps over the (much larger than cache) token table
/// and optimiser state.
/// No-op on non-x86 targets and with the `simd` feature off.
#[inline]
pub fn prefetch_read(slice: &[f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = slice.as_ptr().cast::<i8>();
        let mut off = 0usize;
        while off < slice.len() * 4 {
            // SAFETY: `prefetch` is a hint; it cannot fault and needs no
            // feature gate on x86_64 (SSE is baseline).
            unsafe { _mm_prefetch(ptr.add(off), _MM_HINT_T0) };
            off += 64;
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = slice;
}

/// [`prefetch_read`] for quantised `i8` rows (a quarter of the cache
/// lines of the same `f32` row — the int8 gather is fully
/// bandwidth-bound only once these hints keep its two lines per row in
/// flight).
#[inline]
pub fn prefetch_read_i8(slice: &[i8]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = slice.as_ptr();
        let mut off = 0usize;
        while off < slice.len() {
            // SAFETY: `prefetch` is a hint; it cannot fault and needs no
            // feature gate on x86_64 (SSE is baseline).
            unsafe { _mm_prefetch(ptr.add(off), _MM_HINT_T0) };
            off += 64;
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = slice;
}

/// Int8 dequantise-accumulate `dst[i] = fma(q[i] as f32, s, dst[i])` on
/// the active lane.
#[inline]
pub fn i8_axpy(dst: &mut [f32], q: &[i8], s: f32) {
    debug_assert_eq!(dst.len(), q.len());
    match active_lane() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx512 => unsafe { x86::i8_axpy_avx512(dst, q, s) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lane::Avx2Fma => unsafe { x86::i8_axpy_avx2(dst, q, s) },
        _ => i8_axpy_scalar(dst, q, s),
    }
}

// ---------------------------------------------------------------------
// x86 lanes
// ---------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::AdamConsts;
    use core::arch::x86_64::*;

    /// True once both bias corrections are exactly 1.0. The lanes then
    /// skip the two correction divides: `x / 1.0 == x` bit for bit in
    /// IEEE 754 (no FTZ/DAZ is enabled, and `m`, `v` are results of
    /// arithmetic, so never signalling NaNs). The scalar reference keeps
    /// its divides, and the lanes are tested against it.
    #[inline(always)]
    fn settled(c: &AdamConsts) -> bool {
        c.b1t == 1.0 && c.b2t == 1.0
    }

    // ---- AVX-512F (16-wide) ----

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_assign_avx512(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let d = _mm512_loadu_ps(dp.add(i));
                let s = _mm512_loadu_ps(sp.add(i));
                _mm512_storeu_ps(dp.add(i), _mm512_add_ps(d, s));
            }
            i += 16;
        }
        super::add_assign_scalar(&mut dst[i..n], &src[i..n]);
    }

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale_assign_avx512(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let vs = _mm512_set1_ps(s);
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let d = _mm512_loadu_ps(dp.add(i));
                _mm512_storeu_ps(dp.add(i), _mm512_mul_ps(d, vs));
            }
            i += 16;
        }
        super::scale_assign_scalar(&mut dst[i..], s);
    }

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_avx512(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let vs = _mm512_set1_ps(s);
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let d = _mm512_loadu_ps(dp.add(i));
                let g = _mm512_loadu_ps(sp.add(i));
                // mul then add — two roundings, matching the scalar.
                _mm512_storeu_ps(dp.add(i), _mm512_add_ps(d, _mm512_mul_ps(g, vs)));
            }
            i += 16;
        }
        super::axpy_scalar(&mut dst[i..n], &src[i..n], s);
    }

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn adam_update_avx512(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        c: &AdamConsts,
    ) {
        let n = p.len().min(m.len()).min(v.len()).min(g.len());
        let (pp, mp, vp, gp) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
        let b1 = _mm512_set1_ps(c.beta1);
        let c1 = _mm512_set1_ps(1.0 - c.beta1);
        let b2 = _mm512_set1_ps(c.beta2);
        let c2 = _mm512_set1_ps(1.0 - c.beta2);
        let b1t = _mm512_set1_ps(c.b1t);
        let b2t = _mm512_set1_ps(c.b2t);
        let lr = _mm512_set1_ps(c.lr);
        let eps = _mm512_set1_ps(c.eps);
        let settled = settled(c);
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let gv = _mm512_loadu_ps(gp.add(i));
                // m = β₁·m + (1-β₁)·g   (each product rounded, then add)
                let mv = _mm512_add_ps(
                    _mm512_mul_ps(b1, _mm512_loadu_ps(mp.add(i))),
                    _mm512_mul_ps(c1, gv),
                );
                _mm512_storeu_ps(mp.add(i), mv);
                // v = β₂·v + ((1-β₂)·g)·g   (left-associated, as scalar)
                let vv = _mm512_add_ps(
                    _mm512_mul_ps(b2, _mm512_loadu_ps(vp.add(i))),
                    _mm512_mul_ps(_mm512_mul_ps(c2, gv), gv),
                );
                _mm512_storeu_ps(vp.add(i), vv);
                let (mhat, vhat) = if settled {
                    (mv, vv)
                } else {
                    (_mm512_div_ps(mv, b1t), _mm512_div_ps(vv, b2t))
                };
                let step = _mm512_div_ps(
                    _mm512_mul_ps(lr, mhat),
                    _mm512_add_ps(_mm512_sqrt_ps(vhat), eps),
                );
                _mm512_storeu_ps(pp.add(i), _mm512_sub_ps(_mm512_loadu_ps(pp.add(i)), step));
            }
            i += 16;
        }
        super::adam_update_scalar(&mut p[i..n], &mut m[i..n], &mut v[i..n], &g[i..n], c);
    }

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn i8_axpy_avx512(dst: &mut [f32], q: &[i8], s: f32) {
        let n = dst.len().min(q.len());
        let (dp, qp) = (dst.as_mut_ptr(), q.as_ptr());
        let vs = _mm512_set1_ps(s);
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                // 16 × i8 → i32 → f32 (exact: |q| ≤ 127), then one FMA.
                let qv = _mm_loadu_si128(qp.add(i).cast());
                let qf = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(qv));
                let d = _mm512_loadu_ps(dp.add(i));
                _mm512_storeu_ps(dp.add(i), _mm512_fmadd_ps(qf, vs, d));
            }
            i += 16;
        }
        super::i8_axpy_scalar(&mut dst[i..n], &q[i..n], s);
    }

    // ---- AVX2 + FMA (8-wide) ----

    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                let s = _mm256_loadu_ps(sp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
            }
            i += 8;
        }
        super::add_assign_scalar(&mut dst[i..n], &src[i..n]);
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_assign_avx2(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, vs));
            }
            i += 8;
        }
        super::scale_assign_scalar(&mut dst[i..], s);
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            unsafe {
                let d = _mm256_loadu_ps(dp.add(i));
                let g = _mm256_loadu_ps(sp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(g, vs)));
            }
            i += 8;
        }
        super::axpy_scalar(&mut dst[i..n], &src[i..n], s);
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_update_avx2(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        c: &AdamConsts,
    ) {
        let n = p.len().min(m.len()).min(v.len()).min(g.len());
        let (pp, mp, vp, gp) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
        let b1 = _mm256_set1_ps(c.beta1);
        let c1 = _mm256_set1_ps(1.0 - c.beta1);
        let b2 = _mm256_set1_ps(c.beta2);
        let c2 = _mm256_set1_ps(1.0 - c.beta2);
        let b1t = _mm256_set1_ps(c.b1t);
        let b2t = _mm256_set1_ps(c.b2t);
        let lr = _mm256_set1_ps(c.lr);
        let eps = _mm256_set1_ps(c.eps);
        let settled = settled(c);
        let mut i = 0;
        while i + 8 <= n {
            unsafe {
                let gv = _mm256_loadu_ps(gp.add(i));
                let mv = _mm256_add_ps(
                    _mm256_mul_ps(b1, _mm256_loadu_ps(mp.add(i))),
                    _mm256_mul_ps(c1, gv),
                );
                _mm256_storeu_ps(mp.add(i), mv);
                let vv = _mm256_add_ps(
                    _mm256_mul_ps(b2, _mm256_loadu_ps(vp.add(i))),
                    _mm256_mul_ps(_mm256_mul_ps(c2, gv), gv),
                );
                _mm256_storeu_ps(vp.add(i), vv);
                let (mhat, vhat) = if settled {
                    (mv, vv)
                } else {
                    (_mm256_div_ps(mv, b1t), _mm256_div_ps(vv, b2t))
                };
                let step = _mm256_div_ps(
                    _mm256_mul_ps(lr, mhat),
                    _mm256_add_ps(_mm256_sqrt_ps(vhat), eps),
                );
                _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), step));
            }
            i += 8;
        }
        super::adam_update_scalar(&mut p[i..n], &mut m[i..n], &mut v[i..n], &g[i..n], c);
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn i8_axpy_avx2(dst: &mut [f32], q: &[i8], s: f32) {
        let n = dst.len().min(q.len());
        let (dp, qp) = (dst.as_mut_ptr(), q.as_ptr());
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            unsafe {
                let qv = _mm_loadl_epi64(qp.add(i).cast());
                let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qv));
                let d = _mm256_loadu_ps(dp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(qf, vs, d));
            }
            i += 8;
        }
        super::i8_axpy_scalar(&mut dst[i..n], &q[i..n], s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn floats(len: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-1.0e3f32..1.0e3, len)
    }

    /// A float of the class `kind` picks (±0.0, subnormal, large or
    /// ordinary), sign and payload from `bits`. Large magnitudes stay
    /// below 2⁶¹ so `(1-β₂)·g·g` is finite.
    fn edge_float(kind: u8, bits: u32) -> f32 {
        let sign = bits & 0x8000_0000;
        match kind % 4 {
            0 => f32::from_bits(sign),
            1 => f32::from_bits(sign | (bits & 0x007f_ffff).max(1)),
            2 => f32::from_bits(sign | (0x5d00_0000 + (bits & 0x00ff_ffff))),
            _ => (bits % 2_000_001) as f32 / 1000.0 - 1000.0,
        }
    }

    /// Every Adam kernel this machine can run: the dispatched lane, plus
    /// the AVX2 kernel explicitly when the dispatcher picks AVX-512.
    type AdamKernel = fn(&mut [f32], &mut [f32], &mut [f32], &[f32], &AdamConsts);

    fn adam_kernels() -> Vec<AdamKernel> {
        #[allow(unused_mut)]
        let mut kernels: Vec<AdamKernel> = vec![adam_update];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both features were detected at runtime just above.
            kernels.push(|p, m, v, g, c| unsafe { x86::adam_update_avx2(p, m, v, g, c) });
        }
        kernels
    }

    proptest! {
        #[test]
        fn add_assign_matches_scalar_bitwise(len in 0usize..70, seed in floats(70), src in floats(70)) {
            let mut a = seed[..len].to_vec();
            let mut b = a.clone();
            add_assign(&mut a, &src[..len]);
            add_assign_scalar(&mut b, &src[..len]);
            prop_assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }

        #[test]
        fn scale_assign_matches_scalar_bitwise(len in 0usize..70, seed in floats(70), s in -10.0f32..10.0) {
            let mut a = seed[..len].to_vec();
            let mut b = a.clone();
            scale_assign(&mut a, s);
            scale_assign_scalar(&mut b, s);
            prop_assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }

        #[test]
        fn axpy_matches_scalar_bitwise(len in 0usize..70, seed in floats(70), src in floats(70), s in -10.0f32..10.0) {
            let mut a = seed[..len].to_vec();
            let mut b = a.clone();
            axpy(&mut a, &src[..len], s);
            axpy_scalar(&mut b, &src[..len], s);
            prop_assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }

        #[test]
        fn adam_update_matches_scalar_bitwise(
            len in 0usize..70,
            p0 in floats(70), m0 in floats(70), g in floats(70),
            v_seed in proptest::collection::vec(0.0f32..1.0e3, 70),
        ) {
            let c = AdamConsts { beta1: 0.9, beta2: 0.999, eps: 1e-8, b1t: 0.19, b2t: 0.002, lr: 0.01 };
            let (mut p1, mut m1, mut v1) = (p0[..len].to_vec(), m0[..len].to_vec(), v_seed[..len].to_vec());
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            adam_update(&mut p1, &mut m1, &mut v1, &g[..len], &c);
            adam_update_scalar(&mut p2, &mut m2, &mut v2, &g[..len], &c);
            for (x, y) in [(&p1, &p2), (&m1, &m2), (&v1, &v2)] {
                prop_assert_eq!(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
        }

        #[test]
        fn settled_adam_update_matches_scalar_bitwise(
            len in 0usize..70,
            p0 in floats(70),
            kinds in proptest::collection::vec(0u8..4, 210),
            bits in proptest::collection::vec(any::<u32>(), 210),
        ) {
            // Bias corrections of exactly 1.0: the lanes skip the
            // divides the scalar reference still performs.
            let c = AdamConsts { beta1: 0.9, beta2: 0.999, eps: 1e-8, b1t: 1.0, b2t: 1.0, lr: 0.01 };
            let edge = |k: usize| edge_float(kinds[k], bits[k]);
            let m0: Vec<f32> = (0..len).map(edge).collect();
            let v0: Vec<f32> = (0..len).map(|i| edge(70 + i).abs()).collect();
            let g: Vec<f32> = (0..len).map(|i| edge(140 + i)).collect();
            let (mut p2, mut m2, mut v2) = (p0[..len].to_vec(), m0.clone(), v0.clone());
            adam_update_scalar(&mut p2, &mut m2, &mut v2, &g, &c);
            for kernel in adam_kernels() {
                let (mut p1, mut m1, mut v1) = (p0[..len].to_vec(), m0.clone(), v0.clone());
                kernel(&mut p1, &mut m1, &mut v1, &g, &c);
                for (x, y) in [(&p1, &p2), (&m1, &m2), (&v1, &v2)] {
                    prop_assert_eq!(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                }
            }
        }

        #[test]
        fn i8_axpy_matches_scalar_bitwise(
            len in 0usize..70,
            seed in floats(70),
            q in proptest::collection::vec(-127i8..=127, 70),
            s in -2.0f32..2.0,
        ) {
            let mut a = seed[..len].to_vec();
            let mut b = a.clone();
            i8_axpy(&mut a, &q[..len], s);
            i8_axpy_scalar(&mut b, &q[..len], s);
            prop_assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lane_is_stable_and_named() {
        let l = active_lane();
        assert_eq!(l, active_lane(), "lane probe is cached");
        assert!(!l.name().is_empty());
        #[cfg(not(feature = "simd"))]
        assert_eq!(l, Lane::Scalar, "feature off pins the scalar lane");
    }
}
