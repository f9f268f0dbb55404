//! Token-embedding layer with mean pooling — the encoder building
//! block shared by all representation-learning analogues.
//!
//! `forward` maps each sample's token sequence to the mean of its token
//! vectors (the paper's mean-pooling bottleneck, App. A.1.2).
//! `backward` scatters the pooled gradient back to the touched rows and
//! applies a sparse Adam step — this is what "unfreezing the encoder"
//! means mechanically.

use crate::adam::RowAdam;
use crate::envelope::{PayloadReader, PayloadWriter};
use crate::frozen::{read_tensor, write_tensor, FrozenArtifact};
use crate::simd;
use crate::tensor::Tensor;

/// Embedding table (vocab × dim) with scaled mean pooling
/// (`sum / sqrt(n)`), which keeps the pooled activation scale
/// independent of both vocabulary size and sequence length — plain
/// mean pooling over a 65k-row Xavier table produces ~1e-3 activations
/// that starve the classification head of gradient.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table; row `t` is the vector of token `t`.
    pub table: Tensor,
    /// Optimiser state is not exported (it triples the size); it is
    /// created lazily on the first update.
    opt: RowAdam,
    cache: Vec<Vec<u32>>,
    cache_valid: bool,
    /// Touched table rows of the cached batch, sorted ascending before
    /// the optimiser pass: `RowAdam::step_row` advances its timestep
    /// per call, so the update order must not depend on hash-map
    /// iteration.
    touched: Vec<u32>,
    /// Row → slot map into the contribution buckets (`u32::MAX` =
    /// untouched); entries are reset after each backward so the buffer
    /// is reusable.
    slot_of: Vec<u32>,
    /// One gradient row (dim), reused across the touched-row sweep.
    grads: Vec<f32>,
    /// Per-slot cursor/offset into `contrib` (counting sort).
    bucket_pos: Vec<u32>,
    /// Sample index of every token contribution, bucketed by table row
    /// in stable `(sample, token)` order.
    contrib: Vec<u32>,
    /// Per-sample gradient coefficient `1/(batch·√len)`.
    inv_of: Vec<f32>,
}

impl Embedding {
    /// New table with scale-preserving uniform initialisation
    /// (row values in ±0.5 regardless of vocabulary size).
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Embedding {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..vocab * dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        Embedding::from_table(Tensor { rows: vocab, cols: dim, data })
    }

    /// A layer over a given table with empty training state.
    fn from_table(table: Tensor) -> Embedding {
        Embedding {
            table,
            opt: RowAdam::default(),
            cache: Vec::new(),
            cache_valid: false,
            touched: Vec::new(),
            slot_of: Vec::new(),
            grads: Vec::new(),
            bucket_pos: Vec::new(),
            contrib: Vec::new(),
            inv_of: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.table.cols
    }

    /// Mean-pool each token sequence into one row. Empty sequences map
    /// to the zero vector.
    pub fn forward(&mut self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(batch, &mut out);
        out
    }

    /// [`Embedding::forward`] writing into a reusable output tensor;
    /// the token cache reuses its inner buffers instead of cloning the
    /// batch.
    pub fn forward_into(&mut self, batch: &[Vec<u32>], out: &mut Tensor) {
        Self::pool(&self.table, batch, out);
        self.cache.resize_with(batch.len(), Vec::new);
        for (dst, src) in self.cache.iter_mut().zip(batch) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.cache_valid = true;
    }

    /// Inference-only forward (no cache).
    pub fn forward_inference(&self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        Self::pool(&self.table, batch, &mut out);
        out
    }

    /// Inference-only forward writing into a reusable output tensor.
    pub fn forward_inference_into(&self, batch: &[Vec<u32>], out: &mut Tensor) {
        Self::pool(&self.table, batch, out);
    }

    /// Token → table row (hashed vocab: out-of-range tokens wrap).
    /// Vocabularies are powers of two in practice, so the wrap is a
    /// mask rather than a hardware divide — these run once per token in
    /// every gather/scatter loop, where a real `div` is measurable.
    #[inline]
    pub(crate) fn wrap(rows: usize) -> impl Fn(u32) -> usize {
        let mask = rows.wrapping_sub(1);
        let pow2 = rows & mask == 0 && rows != 0;
        move |t| {
            if pow2 {
                t as usize & mask
            } else {
                t as usize % rows
            }
        }
    }

    /// Scaled-mean-pool kernel shared by the training and inference
    /// forwards: gather+accumulate each token row, then scale by `1/√n`.
    /// Runs on the SIMD lane; bit-identical to the scalar loops it
    /// replaced (element-wise add and mul only).
    fn pool(table: &Tensor, batch: &[Vec<u32>], out: &mut Tensor) {
        let dim = table.cols;
        out.resize(batch.len(), dim);
        out.data.iter_mut().for_each(|v| *v = 0.0);
        if simd::active_lane() != simd::Lane::Scalar {
            crate::kernel::note_simd_dispatch();
        }
        let wrap = Self::wrap(table.rows);
        for (r, tokens) in batch.iter().enumerate() {
            if tokens.is_empty() {
                continue;
            }
            let row = out.row_mut(r);
            for (i, &t) in tokens.iter().enumerate() {
                // The gather is latency-bound on the table; pull a row
                // a few tokens ahead while this one accumulates.
                if let Some(&ahead) = tokens.get(i + 6) {
                    simd::prefetch_read(table.row(wrap(ahead)));
                }
                simd::add_assign(row, table.row(wrap(t)));
            }
            simd::scale_assign(row, 1.0 / (tokens.len() as f32).sqrt());
        }
    }

    /// Scatter `d_out` (batch × dim) back into the table rows touched
    /// by the cached batch and apply a sparse Adam step.
    pub fn backward(&mut self, d_out: &Tensor, lr: f32) {
        self.backward_impl(d_out, lr, true);
    }

    /// Like [`Embedding::backward`] but with a plain SGD step instead
    /// of Adam. Adam's per-coordinate normalisation turns the tiny,
    /// highly-correlated gradients of pooled pretext objectives into
    /// full-size steps that rewrite the whole table (co-occurring
    /// tokens receive identical gradients and collapse together); SGD
    /// keeps updates proportional to the actual gradient, so pretext
    /// training refines the table without erasing token identity.
    pub fn backward_sgd(&mut self, d_out: &Tensor, lr: f32) {
        self.backward_impl(d_out, lr, false);
    }

    fn backward_impl(&mut self, d_out: &Tensor, lr: f32, adam: bool) {
        self.opt.ensure_shape(self.table.rows, self.table.cols);
        assert!(self.cache_valid, "backward called before forward");
        self.cache_valid = false;
        let dim = self.dim();
        let vocab = self.table.rows;
        // Sparse accumulation, fused per row: mark the touched rows,
        // sort them, bucket the token contributions by row (counting
        // sort, stable in `(sample, token)` visit order), then sweep
        // the touched rows once — accumulating each row's gradient into
        // a single cache-resident row and applying the optimiser step
        // immediately. The per-row accumulation order and the
        // ascending-row optimiser order both match the former
        // scatter-buffer formulation exactly (Adam's timestep advances
        // per `step_row` call, so iteration order is observable), and
        // nothing here allocates after warmup. Fusing avoids streaming
        // a touched-rows-sized gradient buffer through memory three
        // times per step.
        let wrap = Self::wrap(vocab);
        self.slot_of.resize(vocab, u32::MAX);
        self.touched.clear();
        let mut total = 0usize;
        for tokens in &self.cache {
            total += tokens.len();
            for &t in tokens {
                let row = wrap(t);
                if self.slot_of[row] == u32::MAX {
                    self.slot_of[row] = 0;
                    self.touched.push(row as u32);
                }
            }
        }
        self.touched.sort_unstable();
        for (slot, &row) in self.touched.iter().enumerate() {
            self.slot_of[row as usize] = slot as u32;
        }
        // Counting sort: per-slot counts at `bucket_pos[slot + 1]`,
        // prefix-summed to bucket starts, then filled in visit order
        // (each `bucket_pos[slot]` advances to its bucket's end).
        self.bucket_pos.clear();
        self.bucket_pos.resize(self.touched.len() + 1, 0);
        for tokens in &self.cache {
            for &t in tokens {
                self.bucket_pos[self.slot_of[wrap(t)] as usize + 1] += 1;
            }
        }
        for i in 1..self.bucket_pos.len() {
            self.bucket_pos[i] += self.bucket_pos[i - 1];
        }
        self.contrib.clear();
        self.contrib.resize(total, 0);
        let scale = 1.0 / self.cache.len().max(1) as f32;
        self.inv_of.clear();
        for (r, tokens) in self.cache.iter().enumerate() {
            self.inv_of.push(scale / (tokens.len().max(1) as f32).sqrt());
            for &t in tokens {
                let slot = self.slot_of[wrap(t)] as usize;
                self.contrib[self.bucket_pos[slot] as usize] = r as u32;
                self.bucket_pos[slot] += 1;
            }
        }
        if simd::active_lane() != simd::Lane::Scalar {
            crate::kernel::note_simd_dispatch();
        }
        self.grads.clear();
        self.grads.resize(dim, 0.0);
        let mut start = 0usize;
        for (slot, &row) in self.touched.iter().enumerate() {
            let end = self.bucket_pos[slot] as usize;
            // The sweep is latency-bound on the table (and optimiser)
            // rows; pull a row a few steps ahead first, so the fetch
            // overlaps this row's gradient accumulation and update.
            if let Some(&next) = self.touched.get(slot + 3) {
                if adam {
                    self.opt.prefetch_row(&self.table.data, next as usize);
                } else {
                    let base = next as usize * dim;
                    simd::prefetch_read(&self.table.data[base..base + dim]);
                }
            }
            self.grads.iter_mut().for_each(|v| *v = 0.0);
            for &r in &self.contrib[start..end] {
                // mul-then-add (`axpy`), matching the scalar `*a += g*inv`.
                simd::axpy(&mut self.grads, d_out.row(r as usize), self.inv_of[r as usize]);
            }
            start = end;
            if adam {
                self.opt.step_row(&mut self.table.data, &self.grads, row as usize, lr);
            } else {
                // `w += g * (-lr)` is bit-identical to `w -= lr * g`.
                let base = row as usize * dim;
                simd::axpy(&mut self.table.data[base..base + dim], &self.grads, -lr);
            }
        }
        for &row in &self.touched {
            self.slot_of[row as usize] = u32::MAX;
        }
    }
}

impl FrozenArtifact for Embedding {
    const KIND: &'static str = "embedding";

    fn write_payload(&self, w: &mut PayloadWriter) {
        write_tensor(w, &self.table);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<Embedding, String> {
        let table = read_tensor(r)?;
        if table.rows == 0 || table.cols == 0 {
            return Err("empty embedding table".to_string());
        }
        Ok(Embedding::from_table(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_pooling_sums_over_sqrt_n() {
        let mut e = Embedding::new(4, 2, 1);
        e.table =
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0], vec![0.0, 0.0]]);
        let out = e.forward(&[vec![0, 1]]);
        let expect = 1.0 / (2.0f32).sqrt();
        assert!((out.get(0, 0) - expect).abs() < 1e-6);
        assert!((out.get(0, 1) - expect).abs() < 1e-6);
    }

    #[test]
    fn empty_sequence_is_zero() {
        let mut e = Embedding::new(4, 3, 2);
        let out = e.forward(&[vec![]]);
        assert_eq!(out.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn out_of_range_token_wraps() {
        let e = Embedding::new(4, 2, 3);
        // Token 7 wraps to row 3 rather than panicking (hashed vocab).
        let out = e.forward_inference(&[vec![7]]);
        assert_eq!(out.row(0), e.table.row(3));
    }

    #[test]
    fn backward_moves_touched_rows_only() {
        let mut e = Embedding::new(4, 2, 4);
        let before = e.table.clone();
        let _ = e.forward(&[vec![1, 1]]);
        let mut d = Tensor::zeros(1, 2);
        d.set(0, 0, 1.0);
        e.backward(&d, 0.1);
        assert_ne!(e.table.row(1), before.row(1), "touched row must move");
        assert_eq!(e.table.row(0), before.row(0), "untouched row must stay");
        assert_eq!(e.table.row(2), before.row(2));
    }

    #[test]
    fn gradient_descends_loss() {
        // Push token 0's pooled output toward [1, 0] with MSE gradient.
        let mut e = Embedding::new(2, 2, 5);
        for _ in 0..500 {
            let y = e.forward(&[vec![0]]);
            let d = Tensor::from_rows(&[vec![2.0 * (y.get(0, 0) - 1.0), 2.0 * y.get(0, 1)]]);
            e.backward(&d, 0.05);
        }
        let y = e.forward_inference(&[vec![0]]);
        assert!((y.get(0, 0) - 1.0).abs() < 0.05);
        assert!(y.get(0, 1).abs() < 0.05);
    }
}
