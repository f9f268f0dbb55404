//! Fully-connected layer with manual backprop and built-in Adam state.
//!
//! The `*_into` entry points reuse caller- and layer-owned buffers so a
//! steady-state train step performs no heap allocation; the by-value
//! `forward`/`backward` wrappers keep the original allocating API.

use crate::adam::Adam;
use crate::envelope::{PayloadReader, PayloadWriter};
use crate::frozen::{read_tensor, write_tensor, FrozenArtifact};
use crate::kernel::Workspace;
use crate::tensor::Tensor;

/// `y = x·W + b` with cached input for the backward pass.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix (in × out).
    pub w: Tensor,
    /// Bias vector (out).
    pub b: Vec<f32>,
    input_cache: Option<Tensor>,
    /// Retired input-cache buffer, recycled by the next `forward` so the
    /// forward/backward cycle stops allocating after warmup.
    spare: Option<Tensor>,
    d_w: Tensor,
    d_b: Vec<f32>,
    ws: Workspace,
    /// Optimiser state is not exported; it is created lazily on the
    /// first Adam step.
    opt_w: Adam,
    opt_b: Adam,
}

impl Dense {
    /// New layer with Xavier-initialised weights.
    pub fn new(input: usize, output: usize, seed: u64) -> Dense {
        Dense::from_weights(Tensor::xavier(input, output, seed), vec![0.0; output])
    }

    /// A layer over given weights with empty training state.
    fn from_weights(w: Tensor, b: Vec<f32>) -> Dense {
        Dense {
            w,
            b,
            input_cache: None,
            spare: None,
            d_w: Tensor::default(),
            d_b: Vec::new(),
            ws: Workspace::default(),
            opt_w: Adam::default(),
            opt_b: Adam::default(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.cols
    }

    /// Forward pass, caching the input for `backward`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass writing into a reusable output tensor: the
    /// inference forward, then the input is copied into a recycled
    /// cache buffer rather than freshly cloned.
    pub fn forward_into(&mut self, x: &Tensor, y: &mut Tensor) {
        self.forward_inference_into(x, y);
        let mut cache = self.spare.take().unwrap_or_default();
        cache.copy_from(x);
        self.input_cache = Some(cache);
    }

    /// Inference-only forward (no cache, usable with `&self`).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        self.forward_inference_into(x, &mut y);
        y
    }

    /// Inference-only forward writing into a reusable output tensor.
    pub fn forward_inference_into(&self, x: &Tensor, y: &mut Tensor) {
        x.matmul_into(&self.w, y);
        for r in 0..y.rows {
            crate::simd::add_assign(y.row_mut(r), &self.b);
        }
    }

    /// Shared backward plumbing: fills `self.d_w`/`self.d_b` with the
    /// batch-averaged weight and bias gradients, writes dX = d_out·Wᵀ
    /// into `d_x`, and retires the input cache into the spare slot.
    fn compute_grads(&mut self, d_out: &Tensor, d_x: &mut Tensor) {
        let x = self.input_cache.take().expect("backward called before forward");
        let batch = x.rows.max(1) as f32;
        // dW = xᵀ · d_out / batch
        x.t_matmul_into(d_out, &mut self.d_w);
        for v in &mut self.d_w.data {
            *v /= batch;
        }
        // db = column-mean of d_out
        self.d_b.clear();
        self.d_b.resize(self.b.len(), 0.0);
        for r in 0..d_out.rows {
            for (db, &g) in self.d_b.iter_mut().zip(d_out.row(r)) {
                *db += g;
            }
        }
        for v in &mut self.d_b {
            *v /= batch;
        }
        // dX = d_out · Wᵀ
        d_out.matmul_t_into(&self.w, d_x, &mut self.ws);
        self.spare = Some(x);
    }

    /// Backward pass with a plain SGD step (no Adam). Used during
    /// pre-training where Adam's per-coordinate normalisation would
    /// blow small correlated pretext gradients into collapse-inducing
    /// full-size steps; see `nn::Embedding::backward_sgd`.
    pub fn backward_sgd(&mut self, d_out: &Tensor, lr: f32) -> Tensor {
        let mut d_x = Tensor::default();
        self.backward_sgd_into(d_out, lr, &mut d_x);
        d_x
    }

    /// [`Dense::backward_sgd`] writing dX into a reusable tensor.
    pub fn backward_sgd_into(&mut self, d_out: &Tensor, lr: f32, d_x: &mut Tensor) {
        self.compute_grads(d_out, d_x);
        // `w += g * (-lr)` is bit-identical to `w -= lr * g`: IEEE
        // multiplication is sign-symmetric and `x + (-t) == x - t`.
        crate::simd::axpy(&mut self.w.data, &self.d_w.data, -lr);
        crate::simd::axpy(&mut self.b, &self.d_b, -lr);
    }

    /// Backward pass: consumes `d_out` (batch × out), applies Adam with
    /// learning rate `lr`, and returns `d_input` (batch × in).
    pub fn backward(&mut self, d_out: &Tensor, lr: f32) -> Tensor {
        let mut d_x = Tensor::default();
        self.backward_into(d_out, lr, &mut d_x);
        d_x
    }

    /// [`Dense::backward`] writing dX into a reusable tensor.
    pub fn backward_into(&mut self, d_out: &Tensor, lr: f32, d_x: &mut Tensor) {
        self.opt_w.ensure_len(self.w.data.len());
        self.opt_b.ensure_len(self.b.len());
        self.compute_grads(d_out, d_x);
        self.opt_w.step(&mut self.w.data, &self.d_w.data, lr);
        self.opt_b.step(&mut self.b, &self.d_b, lr);
    }
}

impl FrozenArtifact for Dense {
    const KIND: &'static str = "dense";

    fn write_payload(&self, w: &mut PayloadWriter) {
        write_tensor(w, &self.w);
        w.f32s(&self.b);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<Dense, String> {
        let w = read_tensor(r)?;
        let b = r.f32s()?;
        if b.len() != w.cols {
            return Err(format!("bias length {} does not match {} outputs", b.len(), w.cols));
        }
        Ok(Dense::from_weights(w, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Dense::new(3, 2, 1);
        l.b = vec![10.0, 20.0];
        let x = Tensor::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows, y.cols), (4, 2));
        assert_eq!(y.row(0), &[10.0, 20.0]);
    }

    #[test]
    fn learns_linear_map() {
        // Target: y = 2*x0 - x1.
        let mut l = Dense::new(2, 1, 2);
        let x =
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![0.5, -0.5]]);
        let target = [2.0f32, -1.0, 1.0, 1.5];
        for _ in 0..800 {
            let y = l.forward(&x);
            // d(mse)/dy = 2 (y - t)
            let mut d = Tensor::zeros(4, 1);
            for (i, &t) in target.iter().enumerate() {
                d.set(i, 0, 2.0 * (y.get(i, 0) - t));
            }
            l.backward(&d, 0.02);
        }
        let y = l.forward_inference(&x);
        for (i, &t) in target.iter().enumerate() {
            assert!((y.get(i, 0) - t).abs() < 0.05, "row {i}: {}", y.get(i, 0));
        }
    }

    #[test]
    fn backward_returns_input_gradient_shape() {
        let mut l = Dense::new(5, 3, 3);
        let x = Tensor::zeros(2, 5);
        let _ = l.forward(&x);
        let d = Tensor::zeros(2, 3);
        let dx = l.backward(&d, 0.001);
        assert_eq!((dx.rows, dx.cols), (2, 5));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut l = Dense::new(2, 2, 4);
        let d = Tensor::zeros(1, 2);
        let _ = l.backward(&d, 0.1);
    }
}
