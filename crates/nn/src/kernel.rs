//! Cache-blocked, FMA-fused matrix kernels with a deterministic
//! row-partitioned parallel path.
//!
//! # Determinism contract
//!
//! Every output element is an independent accumulation chain over the
//! shared dimension in **ascending order**, combined exclusively with
//! [`f32::mul_add`] (a single correctly-rounded fused multiply-add per
//! step). Register tiling, cache blocking and loop unrolling change
//! *which* elements are computed together, never the per-element
//! operation order, so every blocked path is bit-identical to the naive
//! three-loop reference:
//!
//! ```text
//! out[i][j] = fold(p in 0..k, acc = a[i][p].mul_add(b[p][j], acc))
//! ```
//!
//! The parallel path partitions **output rows** across threads; each
//! row is produced by exactly one thread running the identical serial
//! code, so `kernel_threads = N` is bit-identical to `= 1` for every N.
//!
//! # Shape of the microkernel
//!
//! The accumulator tile is `MR` rows × `NB` blocks of `[f32; 8]` — the
//! 8-wide blocks autovectorize to one FMA lane each, and with
//! `MR * NB >= 16` independent chains the FMA pipeline stays saturated
//! (measured ~100 GFLOP/s on one AVX-512 core vs ~4 GFLOP/s for the
//! scalar kernels this replaced; wider per-chain arrays scalarize).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread budget for the kernels' row-partitioned parallel path.
/// 1 (the default) means fully serial — no thread is ever spawned.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Below this many multiply-adds a matmul always runs serially: the
/// thread spawn/join overhead would dominate the kernel itself.
pub const PAR_MIN_MULADDS: usize = 1 << 20;

/// Set the number of threads matrix kernels may use (clamped to ≥ 1).
/// Parallel output is bit-identical to serial for any value.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current kernel thread budget (≥ 1).
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed).max(1)
}

/// How many matmul dispatches took the parallel (row-partitioned) path.
static PAR_DISPATCHES: AtomicUsize = AtomicUsize::new(0);
/// How many matmul dispatches ran serially (budget 1 or below the
/// `PAR_MIN_MULADDS` work floor).
static SERIAL_DISPATCHES: AtomicUsize = AtomicUsize::new(0);
/// How many batch-level kernel dispatches (matmuls, embedding pools,
/// optimiser steps) executed on the explicit SIMD lane.
static SIMD_DISPATCHES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide dispatch counters for the kernels' serial/parallel
/// decision, surfaced by the engine's observability layer so a run can
/// audit whether its kernel-thread budget ever paid off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Dispatches that spawned the row-partitioned thread pool.
    pub parallel_dispatches: usize,
    /// Dispatches that stayed on the serial path.
    pub serial_dispatches: usize,
    /// Batch-level dispatches that executed on the explicit SIMD lane
    /// (see [`crate::simd::active_lane`] for which lane that is).
    pub simd_dispatches: usize,
}

/// Snapshot of the dispatch counters (monotonic over the process).
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        parallel_dispatches: PAR_DISPATCHES.load(Ordering::Relaxed),
        serial_dispatches: SERIAL_DISPATCHES.load(Ordering::Relaxed),
        simd_dispatches: SIMD_DISPATCHES.load(Ordering::Relaxed),
    }
}

/// Record one batch-level dispatch onto the explicit SIMD lane. Called
/// by this module's matmuls and by the embedding/Adam batch entry
/// points — deliberately per *batch*, not per row, so the counter stays
/// an audit signal rather than a hot-path cost.
pub(crate) fn note_simd_dispatch() {
    SIMD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
}

/// True when matmuls run on the explicit AVX-512 band kernel (AVX2
/// machines keep the blocked kernel, which autovectorizes to 8-wide
/// FMA under `target-cpu`; both are bit-identical to naive).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn matmul_simd_active() -> bool {
    crate::simd::active_lane() == crate::simd::Lane::Avx512
}

/// Reusable scratch buffer for kernels that need temporary storage
/// (currently the materialised transpose inside `matmul_t`). Owned per
/// layer so steady-state training steps allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    buf: Vec<f32>,
}

impl Workspace {
    /// A scratch slice of exactly `len` floats (contents unspecified).
    /// Grows the backing buffer on first use, then reuses it.
    pub fn scratch(&mut self, len: usize) -> &mut [f32] {
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }
}

/// `out = a · b` for row-major slices: `a` is m×k, `b` is k×n,
/// `out` is m×n. Every element of `out` is overwritten.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: a length");
    assert_eq!(b.len(), k * n, "matmul: b length");
    assert_eq!(out.len(), m * n, "matmul: out length");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if matmul_simd_active() {
        note_simd_dispatch();
        run_row_partitioned(m, k, n, out, &|lo, hi, chunk| {
            avx512::mm_rows_dispatched(lo, hi, k, n, a, b, chunk)
        });
        return;
    }
    run_row_partitioned(m, k, n, out, &|lo, hi, chunk| mm_rows(lo, hi, k, n, a, b, chunk));
}

/// `out = aᵀ · b` without materialising the transpose: `a` is r×m,
/// `b` is r×n, `out` is m×n. Per-element accumulation runs over `r` in
/// ascending order (the same order a materialised-transpose `matmul`
/// would use).
pub fn t_matmul(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), r * m, "t_matmul: a length");
    assert_eq!(b.len(), r * n, "t_matmul: b length");
    assert_eq!(out.len(), m * n, "t_matmul: out length");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if matmul_simd_active() {
        note_simd_dispatch();
        run_row_partitioned(m, r, n, out, &|lo, hi, chunk| {
            avx512::tm_rows_dispatched(lo, hi, r, m, n, a, b, chunk)
        });
        return;
    }
    run_row_partitioned(m, r, n, out, &|lo, hi, chunk| tm_rows(lo, hi, r, m, n, a, b, chunk));
}

/// `dst = srcᵀ` for a row-major `rows×cols` matrix (`dst` is
/// `cols×rows`). Blocked for cache friendliness.
pub fn transpose(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src length");
    assert_eq!(dst.len(), rows * cols, "transpose: dst length");
    const B: usize = 32;
    let mut i0 = 0;
    while i0 < rows {
        let i1 = (i0 + B).min(rows);
        let mut j0 = 0;
        while j0 < cols {
            let j1 = (j0 + B).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

/// Split the m output rows across the kernel thread budget and run
/// `body(lo, hi, chunk)` on each contiguous band. `body` must write
/// rows `lo..hi` into `chunk` (which is exactly `(hi-lo)*n` long).
fn run_row_partitioned(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    body: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    let mut threads = kernel_threads().min(m.max(1));
    if m * k * n < PAR_MIN_MULADDS {
        threads = 1;
    }
    if threads <= 1 {
        SERIAL_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        body(0, m, out);
        return;
    }
    PAR_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut lo = 0usize;
        let base = m / threads;
        let extra = m % threads;
        for t in 0..threads {
            let rows = base + usize::from(t < extra);
            if rows == 0 {
                continue;
            }
            let (chunk, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let hi = lo + rows;
            let lo_t = lo;
            scope.spawn(move || body(lo_t, hi, chunk));
            lo = hi;
        }
    });
}

/// One FMA step of the microkernel: `acc[r][q] += ar[r] * brow[q*8..]`
/// across all `MR × NB` 8-wide chains.
#[inline(always)]
fn fma_block<const MR: usize, const NB: usize>(
    acc: &mut [[[f32; 8]; NB]; MR],
    ar: &[f32; MR],
    brow: &[f32],
) {
    for q in 0..NB {
        let bq: &[f32; 8] = brow[q * 8..q * 8 + 8].try_into().expect("8-wide lane");
        for r in 0..MR {
            for l in 0..8 {
                acc[r][q][l] = ar[r].mul_add(bq[l], acc[r][q][l]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// matmul: out[i][j] = Σ_p a[i*k+p] * b[p*n+j]
// ---------------------------------------------------------------------

/// Register-tile of `MR` rows × `NB*8` columns, full depth `k`,
/// k-unrolled by 4.
#[inline]
#[allow(clippy::too_many_arguments)]
fn mm_tile<const MR: usize, const NB: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    oi: usize,
    j: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[[0.0f32; 8]; NB]; MR];
    let mut ar = [0.0f32; MR];
    let mut p = 0;
    while p + 4 <= k {
        for pp in p..p + 4 {
            for r in 0..MR {
                ar[r] = a[(i + r) * k + pp];
            }
            fma_block(&mut acc, &ar, &b[pp * n + j..pp * n + j + NB * 8]);
        }
        p += 4;
    }
    while p < k {
        for r in 0..MR {
            ar[r] = a[(i + r) * k + p];
        }
        fma_block(&mut acc, &ar, &b[p * n + j..p * n + j + NB * 8]);
        p += 1;
    }
    for (r, accr) in acc.iter().enumerate() {
        for (q, lane) in accr.iter().enumerate() {
            let base = (oi + r) * n + j + q * 8;
            out[base..base + 8].copy_from_slice(lane);
        }
    }
}

/// All column tiles (32/16/8-wide, then a scalar tail) for one band of
/// `MR` rows starting at absolute row `i` (row `oi` of `out`).
#[inline]
fn mm_band<const MR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    oi: usize,
    k: usize,
    n: usize,
) {
    let mut j = 0;
    while j + 32 <= n {
        mm_tile::<MR, 4>(a, b, out, i, oi, j, k, n);
        j += 32;
    }
    if j + 16 <= n {
        mm_tile::<MR, 2>(a, b, out, i, oi, j, k, n);
        j += 16;
    }
    if j + 8 <= n {
        mm_tile::<MR, 1>(a, b, out, i, oi, j, k, n);
        j += 8;
    }
    while j < n {
        for r in 0..MR {
            let mut s = 0.0f32;
            for p in 0..k {
                s = a[(i + r) * k + p].mul_add(b[p * n + j], s);
            }
            out[(oi + r) * n + j] = s;
        }
        j += 1;
    }
}

/// Serial kernel over rows `lo..hi`; `out` holds exactly those rows.
fn mm_rows(lo: usize, hi: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut i = lo;
    while i < hi {
        let rows = hi - i;
        if rows >= 8 {
            mm_band::<8>(a, b, out, i, i - lo, k, n);
            i += 8;
        } else if rows >= 4 {
            mm_band::<4>(a, b, out, i, i - lo, k, n);
            i += 4;
        } else if rows >= 2 {
            mm_band::<2>(a, b, out, i, i - lo, k, n);
            i += 2;
        } else {
            mm_band::<1>(a, b, out, i, i - lo, k, n);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// t_matmul: out[i][j] = Σ_p a[p*m+i] * b[p*n+j]   (a is r×m)
// ---------------------------------------------------------------------

#[inline]
#[allow(clippy::too_many_arguments)]
fn tm_tile<const MR: usize, const NB: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    oi: usize,
    j: usize,
    depth: usize,
    m: usize,
    n: usize,
) {
    let mut acc = [[[0.0f32; 8]; NB]; MR];
    let mut ar = [0.0f32; MR];
    let mut p = 0;
    while p + 4 <= depth {
        for pp in p..p + 4 {
            ar.copy_from_slice(&a[pp * m + i..pp * m + i + MR]);
            fma_block(&mut acc, &ar, &b[pp * n + j..pp * n + j + NB * 8]);
        }
        p += 4;
    }
    while p < depth {
        ar.copy_from_slice(&a[p * m + i..p * m + i + MR]);
        fma_block(&mut acc, &ar, &b[p * n + j..p * n + j + NB * 8]);
        p += 1;
    }
    for (r, accr) in acc.iter().enumerate() {
        for (q, lane) in accr.iter().enumerate() {
            let base = (oi + r) * n + j + q * 8;
            out[base..base + 8].copy_from_slice(lane);
        }
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn tm_band<const MR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    oi: usize,
    depth: usize,
    m: usize,
    n: usize,
) {
    let mut j = 0;
    while j + 32 <= n {
        tm_tile::<MR, 4>(a, b, out, i, oi, j, depth, m, n);
        j += 32;
    }
    if j + 16 <= n {
        tm_tile::<MR, 2>(a, b, out, i, oi, j, depth, m, n);
        j += 16;
    }
    if j + 8 <= n {
        tm_tile::<MR, 1>(a, b, out, i, oi, j, depth, m, n);
        j += 8;
    }
    while j < n {
        for r in 0..MR {
            let mut s = 0.0f32;
            for p in 0..depth {
                s = a[p * m + i + r].mul_add(b[p * n + j], s);
            }
            out[(oi + r) * n + j] = s;
        }
        j += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn tm_rows(
    lo: usize,
    hi: usize,
    depth: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut i = lo;
    while i < hi {
        let rows = hi - i;
        if rows >= 8 {
            tm_band::<8>(a, b, out, i, i - lo, depth, m, n);
            i += 8;
        } else if rows >= 4 {
            tm_band::<4>(a, b, out, i, i - lo, depth, m, n);
            i += 4;
        } else if rows >= 2 {
            tm_band::<2>(a, b, out, i, i - lo, depth, m, n);
            i += 2;
        } else {
            tm_band::<1>(a, b, out, i, i - lo, depth, m, n);
            i += 1;
        }
    }
}

/// Explicit AVX-512 twins of `mm_rows`/`tm_rows`. Each output element
/// is still one ascending-`p` chain of fused multiply-adds —
/// `_mm512_fmadd_ps` per 16-wide lane is the same single-rounding op as
/// `f32::mul_add` per element — so this path is bit-identical to the
/// blocked scalar kernel; the `simd_band_*` tests below assert it on
/// machines that have the lane.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx512 {
    use core::arch::x86_64::*;

    /// 16-wide microkernel: `MR` rows × `NZ` zmm column blocks, full
    /// depth `k`, ascending-`p` FMA chains.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn mm_tile<const MR: usize, const NZ: usize, const TM: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        oi: usize,
        j: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); NZ]; MR];
        for p in 0..k {
            let mut bv = [_mm512_setzero_ps(); NZ];
            for (q, lane) in bv.iter_mut().enumerate() {
                // SAFETY: caller guarantees j + NZ*16 <= n and p < k.
                *lane = unsafe { _mm512_loadu_ps(b.as_ptr().add(p * n + j + q * 16)) };
            }
            for r in 0..MR {
                // `TM` selects the t_matmul operand layout (a is k×m,
                // element [p][i+r]) vs matmul (a is m×k, [i+r][p]).
                let av = if TM { a[p * m + i + r] } else { a[(i + r) * k + p] };
                let ar = _mm512_set1_ps(av);
                for q in 0..NZ {
                    acc[r][q] = _mm512_fmadd_ps(ar, bv[q], acc[r][q]);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (q, lane) in accr.iter().enumerate() {
                // SAFETY: caller guarantees out covers rows oi..oi+MR.
                unsafe { _mm512_storeu_ps(out.as_mut_ptr().add((oi + r) * n + j + q * 16), *lane) };
            }
        }
    }

    /// One `MR`-row band: 32/16-column zmm tiles, then scalar chains
    /// for the sub-16 column tail (identical association).
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn band<const MR: usize, const TM: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        oi: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + 32 <= n {
            // SAFETY: bounds just checked; feature matches.
            unsafe { mm_tile::<MR, 2, TM>(a, b, out, i, oi, j, k, m, n) };
            j += 32;
        }
        if j + 16 <= n {
            // SAFETY: bounds just checked; feature matches.
            unsafe { mm_tile::<MR, 1, TM>(a, b, out, i, oi, j, k, m, n) };
            j += 16;
        }
        while j < n {
            for r in 0..MR {
                let mut s = 0.0f32;
                for p in 0..k {
                    let av = if TM { a[p * m + i + r] } else { a[(i + r) * k + p] };
                    s = av.mul_add(b[p * n + j], s);
                }
                out[(oi + r) * n + j] = s;
            }
            j += 1;
        }
    }

    /// Safe entry for [`mm_rows`]: re-verifies `avx512f` via the cached
    /// std detector, so the `unsafe` stays inside this module.
    #[allow(clippy::too_many_arguments)]
    pub fn mm_rows_dispatched(
        lo: usize,
        hi: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        assert!(std::arch::is_x86_feature_detected!("avx512f"));
        // SAFETY: avx512f presence asserted just above.
        unsafe { mm_rows(lo, hi, k, n, a, b, out) }
    }

    /// Safe entry for [`tm_rows`]; see [`mm_rows_dispatched`].
    #[allow(clippy::too_many_arguments)]
    pub fn tm_rows_dispatched(
        lo: usize,
        hi: usize,
        depth: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        assert!(std::arch::is_x86_feature_detected!("avx512f"));
        // SAFETY: avx512f presence asserted just above.
        unsafe { tm_rows(lo, hi, depth, m, n, a, b, out) }
    }

    /// AVX-512 twin of [`super::mm_rows`].
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mm_rows(
        lo: usize,
        hi: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        // SAFETY: same feature; row/col bounds mirror the scalar twin.
        unsafe { rows::<false>(lo, hi, k, 0, n, a, b, out) }
    }

    /// AVX-512 twin of [`super::tm_rows`].
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tm_rows(
        lo: usize,
        hi: usize,
        depth: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        // SAFETY: same feature; row/col bounds mirror the scalar twin.
        unsafe { rows::<true>(lo, hi, depth, m, n, a, b, out) }
    }

    /// # Safety
    /// Caller must have verified `avx512f` at runtime.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn rows<const TM: bool>(
        lo: usize,
        hi: usize,
        k: usize,
        m: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let mut i = lo;
        while i < hi {
            let rows = hi - i;
            // SAFETY: band bounds mirror the scalar row dispatcher.
            if rows >= 8 {
                unsafe { band::<8, TM>(a, b, out, i, i - lo, k, m, n) };
                i += 8;
            } else if rows >= 4 {
                unsafe { band::<4, TM>(a, b, out, i, i - lo, k, m, n) };
                i += 4;
            } else if rows >= 2 {
                unsafe { band::<2, TM>(a, b, out, i, i - lo, k, m, n) };
                i += 2;
            } else {
                unsafe { band::<1, TM>(a, b, out, i, i - lo, k, m, n) };
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for test data.
    struct XorShift(u64);

    impl XorShift {
        fn f32(&mut self) -> f32 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
        }
        fn fill(&mut self, len: usize) -> Vec<f32> {
            (0..len).map(|_| self.f32()).collect()
        }
    }

    fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s = a[i * k + p].mul_add(b[p * n + j], s);
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_reference() {
        let mut rng = XorShift(0x5eed);
        // Shapes straddling every tile boundary: 8-row bands, 32/16/8
        // column tiles, 4-step k unroll, plus scalar tails.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (9, 4, 33),
            (16, 31, 40),
            (17, 13, 19),
            (64, 64, 64),
            (7, 100, 9),
            (33, 1, 65),
        ] {
            let a = rng.fill(m * k);
            let b = rng.fill(k * n);
            let mut out = vec![0.0f32; m * n];
            matmul(m, k, n, &a, &b, &mut out);
            let reference = naive_matmul(m, k, n, &a, &b);
            assert!(out == reference, "matmul {m}x{k}x{n} diverged from naive reference");
        }
    }

    #[test]
    fn t_matmul_is_bit_identical_to_transposed_matmul() {
        let mut rng = XorShift(0xabcd);
        for (r, m, n) in [(5, 3, 9), (16, 16, 16), (13, 33, 7), (40, 9, 34)] {
            let a = rng.fill(r * m);
            let b = rng.fill(r * n);
            let mut at = vec![0.0f32; r * m];
            transpose(r, m, &a, &mut at);
            let mut direct = vec![0.0f32; m * n];
            t_matmul(r, m, n, &a, &b, &mut direct);
            let via_transpose = naive_matmul(m, r, n, &at, &b);
            assert!(direct == via_transpose, "t_matmul {r}x{m}x{n} diverged");
        }
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_serial() {
        let mut rng = XorShift(0x7777);
        let (m, k, n) = (96, 128, 96); // above PAR_MIN_MULADDS
        assert!(m * k * n >= PAR_MIN_MULADDS);
        let a = rng.fill(m * k);
        let b = rng.fill(k * n);
        let before = kernel_threads();
        set_kernel_threads(1);
        let mut serial = vec![0.0f32; m * n];
        matmul(m, k, n, &a, &b, &mut serial);
        // Reuse a as an m-row r×m operand: aᵀ·b with r = m samples.
        let bt = &b[..m * n];
        let mut serial_t = vec![0.0f32; k * n];
        t_matmul(m, k, n, &a, bt, &mut serial_t);
        for threads in [2, 3, 4, 7] {
            set_kernel_threads(threads);
            let mut par = vec![0.0f32; m * n];
            matmul(m, k, n, &a, &b, &mut par);
            assert!(par == serial, "threads={threads} matmul diverged from serial");
            let mut par_t = vec![0.0f32; k * n];
            t_matmul(m, k, n, &a, bt, &mut par_t);
            assert!(par_t == serial_t, "threads={threads} t_matmul diverged from serial");
        }
        set_kernel_threads(before);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = XorShift(0x9e37);
        let (r, c) = (37, 53);
        let src = rng.fill(r * c);
        let mut once = vec![0.0f32; r * c];
        let mut twice = vec![0.0f32; r * c];
        transpose(r, c, &src, &mut once);
        transpose(c, r, &once, &mut twice);
        assert_eq!(src, twice);
    }

    #[test]
    fn thread_budget_clamps_to_one() {
        set_kernel_threads(0);
        assert_eq!(kernel_threads(), 1);
    }
}
