//! Row-major `f32` matrix with the handful of ops the library needs.
//!
//! The three matmul variants delegate to the cache-blocked kernels in
//! [`crate::kernel`]; each also has an `_into` twin that writes into a
//! caller-owned output tensor so steady-state training loops allocate
//! nothing per step.

use crate::kernel::{self, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Xavier/Glorot-uniform initialised matrix.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Tensor { rows, cols, data }
    }

    /// Build from explicit rows (must be rectangular).
    pub fn from_rows(rows: &[Vec<f32>]) -> Tensor {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor { rows: r, cols: c, data }
    }

    /// Immutable view of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Resize to `rows × cols`, reusing the existing allocation when it is
    /// large enough. Contents are unspecified afterwards.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copy `other`'s shape and contents into `self`, reusing storage.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `self · other` — (m×k)·(k×n) = m×n.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` written into `out` (resized as needed, no allocation
    /// in steady state).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize(self.rows, other.cols);
        kernel::matmul(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// `selfᵀ · other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.t_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into `out`.
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.resize(self.cols, other.cols);
        kernel::t_matmul(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// `self · otherᵀ` without materialising the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut ws = Workspace::default();
        let mut out = Tensor::default();
        self.matmul_t_into(other, &mut out, &mut ws);
        out
    }

    /// `self · otherᵀ` written into `out`, using `ws` to hold the
    /// materialised transpose of `other` (reused across calls).
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        // Transposing `other` first turns the dot-product loop into the same
        // ascending-k kernel as plain matmul: each output element is still a
        // single chain over the shared dimension in index order, so results
        // are bit-identical to the naive transposed product.
        let bt = ws.scratch(other.rows * other.cols);
        kernel::transpose(other.rows, other.cols, &other.data, bt);
        out.resize(self.rows, other.rows);
        kernel::matmul(self.rows, self.cols, other.rows, &self.data, bt, &mut out.data);
    }

    /// In-place ReLU; returns the mask of active units for backprop.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        let mut mask = Vec::new();
        self.relu_inplace_into(&mut mask);
        mask
    }

    /// In-place ReLU writing the active-unit mask into a reusable buffer.
    pub fn relu_inplace_into(&mut self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.extend(self.data.iter_mut().map(|v| {
            if *v > 0.0 {
                true
            } else {
                *v = 0.0;
                false
            }
        }));
    }

    /// Select a subset of rows into a new tensor.
    pub fn select_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        self.select_rows_into(idx, &mut out);
        out
    }

    /// Select a subset of rows into a reusable output tensor.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        out.resize(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
    }

    /// Frobenius-norm of the matrix (diagnostics).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![32.0]);
    }

    #[test]
    fn transpose_products_agree() {
        let a = Tensor::xavier(3, 4, 1);
        let b = Tensor::xavier(3, 5, 2);
        // aᵀ·b directly vs via materialised transpose.
        let direct = a.t_matmul(&b);
        let mut at = Tensor::zeros(4, 3);
        for r in 0..3 {
            for c in 0..4 {
                at.set(c, r, a.get(r, c));
            }
        }
        let expect = at.matmul(&b);
        for (x, y) in direct.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_agrees() {
        let a = Tensor::xavier(2, 4, 3);
        let b = Tensor::xavier(5, 4, 4);
        let direct = a.matmul_t(&b);
        let mut bt = Tensor::zeros(4, 5);
        for r in 0..5 {
            for c in 0..4 {
                bt.set(c, r, b.get(r, c));
            }
        }
        let expect = a.matmul(&bt);
        for (x, y) in direct.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_masks() {
        let mut t = Tensor::from_rows(&[vec![-1.0, 2.0, 0.0]]);
        let mask = t.relu_inplace();
        assert_eq!(t.data, vec![0.0, 2.0, 0.0]);
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn xavier_within_limit() {
        let t = Tensor::xavier(10, 10, 5);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.data.iter().all(|v| v.abs() <= limit));
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn select_rows_picks() {
        let a = Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data, vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_by_value() {
        let a = Tensor::xavier(5, 7, 11);
        let b = Tensor::xavier(7, 3, 12);
        let mut out = Tensor::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = Tensor::xavier(5, 4, 13);
        a.t_matmul_into(&c, &mut out);
        assert_eq!(out, a.t_matmul(&c));

        let d = Tensor::xavier(9, 7, 14);
        let mut ws = Workspace::default();
        a.matmul_t_into(&d, &mut out, &mut ws);
        assert_eq!(out, a.matmul_t(&d));
    }

    #[test]
    fn select_rows_into_reuses_buffer() {
        let a = Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut out = Tensor::zeros(10, 10);
        a.select_rows_into(&[1, 1, 2], &mut out);
        assert_eq!((out.rows, out.cols), (3, 1));
        assert_eq!(out.data, vec![2.0, 2.0, 3.0]);
    }
}
