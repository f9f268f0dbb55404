//! Adam optimiser state for one parameter vector.
//!
//! The per-element update runs on the explicit SIMD lane
//! ([`crate::simd::adam_update`]) with the exact expression shapes of
//! the original scalar loop, so optimiser trajectories are bit-stable
//! across lanes.

use crate::simd::{self, AdamConsts};

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Default)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// New optimiser for a parameter vector of length `n`.
    pub fn new(n: usize) -> Adam {
        Adam { m: vec![0.0; n], v: vec![0.0; n], t: 0, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// Tracked parameter count.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// True if the state tracks no parameters (e.g. a layer that has not
    /// taken an Adam step yet; optimiser state is created lazily).
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Reset/resize the state for a parameter vector of length `n` if
    /// it does not already match (lazy init on a layer's first step).
    pub fn ensure_len(&mut self, n: usize) {
        if self.m.len() != n {
            *self = Adam::new(n);
        }
    }

    fn consts(&self, t: u64, lr: f32) -> AdamConsts {
        consts(self.beta1, self.beta2, self.eps, t, lr)
    }

    /// One update step: `params -= lr * m̂ / (√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len());
        self.t += 1;
        let c = self.consts(self.t, lr);
        if simd::active_lane() != simd::Lane::Scalar {
            crate::kernel::note_simd_dispatch();
        }
        simd::adam_update(params, &mut self.m, &mut self.v, grads, &c);
    }

    /// Sparse update restricted to the given indices.
    pub fn step_sparse(&mut self, params: &mut [f32], grads: &[f32], indices: &[usize], lr: f32) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for &i in indices {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

fn consts(beta1: f32, beta2: f32, eps: f32, t: u64, lr: f32) -> AdamConsts {
    AdamConsts {
        beta1,
        beta2,
        eps,
        b1t: 1.0 - beta1.powi(t as i32),
        b2t: 1.0 - beta2.powi(t as i32),
        lr,
    }
}

/// Per-row Adam for embedding tables, with lazily materialised state:
/// each table row gets a compact arena slot on first touch instead of a
/// dense `rows × dim` mirror (for a 2¹⁶ × 128 table that would be two
/// 33 MB mostly-zero arrays). A first-touch update appends zeroed state
/// at the cache-hot arena tail (sequential stores, no cold reads), and
/// repeat touches land in an arena sized by the rows actually trained.
/// Arena layout never enters the arithmetic: per-row update values are
/// bit-identical to dense optimiser state, and the update order is
/// whatever order the caller sweeps rows in.
///
/// The timestep advances per row, so the bias corrections settle fast:
/// with the fixed β₁ = 0.9, β₂ = 0.999, `1 - β₁ᵗ` is exactly 1.0 from
/// t = 165 and `1 - β₂ᵗ` from t = 17,321, and neither leaves 1.0 again
/// up to the timestep cap (pinned by a test). From then on the row
/// constants are cached instead of recomputed (two `powi` per row).
#[derive(Debug, Clone, Default)]
pub struct RowAdam {
    /// Row → arena slot (`u32::MAX` = not yet materialised).
    slot: Vec<u32>,
    m: Vec<f32>,
    v: Vec<f32>,
    dim: usize,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// The row constants once both bias corrections are exactly 1.0,
    /// for the learning rate they were computed with.
    settled: Option<AdamConsts>,
}

impl RowAdam {
    /// New optimiser for a `rows × dim` embedding table.
    pub fn new(rows: usize, dim: usize) -> RowAdam {
        RowAdam {
            slot: vec![u32::MAX; rows],
            m: Vec::new(),
            v: Vec::new(),
            dim,
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            settled: None,
        }
    }

    /// Reset the state if the table shape changed (lazy init on a
    /// table's first step, mirroring [`Adam::ensure_len`]).
    pub fn ensure_shape(&mut self, rows: usize, dim: usize) {
        if self.slot.len() != rows || self.dim != dim {
            *self = RowAdam::new(rows, dim);
        }
    }

    /// Update table row `row` of `params` with gradient row `g`. One
    /// shared timestep per call (capped bias correction) — the same
    /// accepted sparse-Adam approximation as before. The caller
    /// accounts for SIMD dispatch: one batch of row calls counts once.
    pub fn step_row(&mut self, params: &mut [f32], g: &[f32], row: usize, lr: f32) {
        assert_eq!(g.len(), self.dim);
        self.t += 1;
        let c = match self.settled {
            Some(c) if c.lr.to_bits() == lr.to_bits() => c,
            _ => {
                let c = consts(self.beta1, self.beta2, self.eps, self.t.min(1_000_000), lr);
                if c.b1t == 1.0 && c.b2t == 1.0 {
                    self.settled = Some(c);
                }
                c
            }
        };
        let slot = self.slot[row];
        let s = if slot == u32::MAX {
            let s = self.m.len() / self.dim.max(1);
            self.slot[row] = s as u32;
            // First touch: append zero state; the fresh tail is
            // cache-hot, so the update below reads no cold memory.
            self.m.resize(self.m.len() + self.dim, 0.0);
            self.v.resize(self.v.len() + self.dim, 0.0);
            s
        } else {
            slot as usize
        };
        let (po, mo) = (row * self.dim, s * self.dim);
        simd::adam_update(
            &mut params[po..po + self.dim],
            &mut self.m[mo..mo + self.dim],
            &mut self.v[mo..mo + self.dim],
            g,
            &c,
        );
    }

    /// Prefetch the parameter row and any materialised optimiser state
    /// behind a future [`RowAdam::step_row`] on `row`. Pure cache hint —
    /// results never change — but the row sweep is latency-bound, so
    /// fetching a couple of rows ahead overlaps the misses with compute.
    pub fn prefetch_row(&self, params: &[f32], row: usize) {
        let po = row * self.dim;
        if po + self.dim <= params.len() {
            simd::prefetch_read(&params[po..po + self.dim]);
        }
        if let Some(s) = self.slot.get(row).copied().filter(|&s| s != u32::MAX) {
            let mo = s as usize * self.dim;
            simd::prefetch_read(&self.m[mo..mo + self.dim]);
            simd::prefetch_read(&self.v[mo..mo + self.dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x-3).
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(1);
        for _ in 0..2000 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g, 0.01);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x = {}", x[0]);
    }

    #[test]
    fn sparse_step_only_touches_indices() {
        let mut x = vec![1.0f32, 1.0];
        let g = vec![1.0f32, 1.0];
        let mut opt = Adam::new(2);
        opt.step_sparse(&mut x, &g, &[0], 0.1);
        assert!(x[0] < 1.0);
        assert_eq!(x[1], 1.0);
    }

    #[test]
    fn row_adam_matches_dense_reference_bitwise() {
        // The arena must be invisible: row updates in any touch order
        // equal the same updates against a dense rows×dim state mirror.
        let (rows, dim) = (8usize, 5usize);
        let mut params: Vec<f32> = (0..rows * dim).map(|i| (i as f32).sin()).collect();
        let mut reference = params.clone();
        let mut opt = RowAdam::new(rows, dim);
        let (mut dm, mut dv) = (vec![0.0f32; rows * dim], vec![0.0f32; rows * dim]);
        let mut t = 0u64;
        for &(row, gs) in &[(5usize, 0.3f32), (2, -0.7), (5, 0.11), (0, 1.5), (2, 0.0)] {
            let g: Vec<f32> = (0..dim).map(|i| gs * (i as f32 + 1.0)).collect();
            opt.step_row(&mut params, &g, row, 0.01);
            t += 1;
            let c = consts(0.9, 0.999, 1e-8, t, 0.01);
            let o = row * dim;
            crate::simd::adam_update_scalar(
                &mut reference[o..o + dim],
                &mut dm[o..o + dim],
                &mut dv[o..o + dim],
                &g,
                &c,
            );
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&params), bits(&reference));
    }

    #[test]
    fn bias_corrections_settle_at_one_and_stay() {
        // `RowAdam` caches its constants once both corrections are
        // exactly 1.0, which is exact only if they never leave 1.0
        // again anywhere in the capped timestep range.
        let opt = RowAdam::new(1, 1);
        let (mut b1_at, mut both_at) = (None, None);
        for t in 1..=1_000_000u64 {
            let c = consts(opt.beta1, opt.beta2, opt.eps, t, 0.01);
            if b1_at.is_some() {
                assert_eq!(c.b1t, 1.0, "1 - b1^t left 1.0 at t = {t}");
            } else if c.b1t == 1.0 {
                b1_at = Some(t);
            }
            if both_at.is_some() {
                assert!(c.b1t == 1.0 && c.b2t == 1.0, "corrections left 1.0 at t = {t}");
            } else if c.b1t == 1.0 && c.b2t == 1.0 {
                both_at = Some(t);
            }
        }
        assert_eq!((b1_at, both_at), (Some(165), Some(17_321)));
    }

    #[test]
    fn row_adam_matches_dense_reference_past_the_settle_point() {
        // Per-call constants against the settled cache, across a rate
        // change after the corrections reach 1.0 and back again. A
        // 37-wide row runs both the vector body and the scalar tail of
        // every SIMD lane.
        let (rows, dim) = (11usize, 37usize);
        let mut params: Vec<f32> = (0..rows * dim).map(|i| (i as f32).cos()).collect();
        let mut reference = params.clone();
        let mut opt = RowAdam::new(rows, dim);
        let (mut dm, mut dv) = (vec![0.0f32; rows * dim], vec![0.0f32; rows * dim]);
        let mut g = vec![0.0f32; dim];
        for t in 1..=20_000u64 {
            let row = (t * 7 % rows as u64) as usize;
            let lr = if (18_001..=19_000).contains(&t) { 0.003 } else { 0.01 };
            // every fifth gradient row is all zeros
            let on = if t % 5 == 0 { 0.0 } else { 1.0 };
            for (i, v) in g.iter_mut().enumerate() {
                *v = on * ((t as f32) * 0.37 + i as f32).sin();
            }
            opt.step_row(&mut params, &g, row, lr);
            let c = consts(0.9, 0.999, 1e-8, t, lr);
            let o = row * dim;
            crate::simd::adam_update_scalar(
                &mut reference[o..o + dim],
                &mut dm[o..o + dim],
                &mut dv[o..o + dim],
                &g,
                &c,
            );
        }
        assert!(opt.settled.is_some_and(|c| c.lr == 0.01));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&params), bits(&reference));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut x = vec![0.0f32; 2];
        let g = vec![0.0f32; 3];
        Adam::new(2).step(&mut x, &g, 0.1);
    }
}
