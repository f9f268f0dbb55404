//! Multi-layer perceptron classifier — the classification head the
//! paper attaches to every frozen or unfrozen encoder (§3.4, §4.2).

use crate::dense::Dense;
use crate::envelope::{PayloadReader, PayloadWriter};
use crate::frozen::FrozenArtifact;
use crate::loss::{argmax_labels_into, softmax_cross_entropy_into};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A ReLU MLP with a softmax cross-entropy output.
///
/// Activations, ReLU masks and the two gradient ping-pong buffers are
/// owned by the struct and reused across steps, so a steady-state
/// `train_batch_into` performs no heap allocation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    relu_masks: Vec<Vec<bool>>,
    acts: Vec<Tensor>,
    grad_a: Tensor,
    grad_b: Tensor,
}

/// Reusable activation buffers for [`Mlp::logits_into`] /
/// [`Mlp::predict_into`].
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    a: Tensor,
    b: Tensor,
    mask: Vec<bool>,
    logits: Tensor,
}

impl Mlp {
    /// Build from layer sizes, e.g. `[in, hidden, classes]` gives the
    /// paper's two-layer head.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], seed.wrapping_add(i as u64)))
            .collect();
        Mlp::from_layers(layers)
    }

    /// A head over given layers with empty training buffers.
    fn from_layers(layers: Vec<Dense>) -> Mlp {
        Mlp {
            layers,
            relu_masks: Vec::new(),
            acts: Vec::new(),
            grad_a: Tensor::default(),
            grad_b: Tensor::default(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.layers.last().expect("at least one layer").output_dim()
    }

    /// Forward pass producing logits; caches activations for backprop.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_cached(x);
        self.acts.last().expect("at least one layer").clone()
    }

    /// Forward pass into the reusable activation buffers; the logits end
    /// up in the last element of `self.acts`.
    fn forward_cached(&mut self, x: &Tensor) {
        let n = self.layers.len();
        self.acts.resize_with(n, Tensor::default);
        self.relu_masks.resize_with(n.saturating_sub(1), Vec::new);
        for i in 0..n {
            let (before, rest) = self.acts.split_at_mut(i);
            let out = &mut rest[0];
            let input = if i == 0 { x } else { &before[i - 1] };
            self.layers[i].forward_into(input, out);
            if i + 1 < n {
                out.relu_inplace_into(&mut self.relu_masks[i]);
            }
        }
    }

    /// Inference-only logits.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.logits_into(x, &mut MlpScratch::default(), &mut out);
        out
    }

    /// Batched [`Mlp::logits`] writing into a reusable output (ReLU
    /// between layers, not after the last): activations ping-pong
    /// between the two scratch tensors, so a steady-state serving loop
    /// allocates nothing and runs one kernel dispatch per layer per
    /// *batch*, not per sample.
    pub fn logits_into(&self, x: &Tensor, scratch: &mut MlpScratch, out: &mut Tensor) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_inference_into(x, out);
            return;
        }
        self.layers[0].forward_inference_into(x, &mut scratch.a);
        scratch.a.relu_inplace_into(&mut scratch.mask);
        let (mut cur, mut next) = (&mut scratch.a, &mut scratch.b);
        for layer in &self.layers[1..n - 1] {
            layer.forward_inference_into(cur, next);
            next.relu_inplace_into(&mut scratch.mask);
            std::mem::swap(&mut cur, &mut next);
        }
        self.layers[n - 1].forward_inference_into(cur, out);
    }

    /// One full-batch training step; returns the loss. The gradient
    /// w.r.t. the input is returned so an *unfrozen* encoder below the
    /// head can continue the backward pass.
    pub fn train_batch(&mut self, x: &Tensor, y: &[u16], lr: f32) -> (f32, Tensor) {
        let mut d_input = Tensor::default();
        let loss = self.train_batch_into(x, y, lr, &mut d_input);
        (loss, d_input)
    }

    /// [`Mlp::train_batch`] writing the input gradient into a reusable
    /// tensor; allocation-free in steady state.
    pub fn train_batch_into(
        &mut self,
        x: &Tensor,
        y: &[u16],
        lr: f32,
        d_input: &mut Tensor,
    ) -> f32 {
        self.forward_cached(x);
        let logits = self.acts.last().expect("at least one layer");
        let loss = softmax_cross_entropy_into(logits, y, &mut self.grad_a);
        let n = self.layers.len();
        let mut grad = std::mem::take(&mut self.grad_a);
        let mut next = std::mem::take(&mut self.grad_b);
        for i in (0..n).rev() {
            if i < n - 1 {
                // apply the ReLU mask of hidden layer i
                let mask = &self.relu_masks[i];
                for (g, &m) in grad.data.iter_mut().zip(mask) {
                    if !m {
                        *g = 0.0;
                    }
                }
            }
            if i == 0 {
                self.layers[i].backward_into(&grad, lr, d_input);
            } else {
                self.layers[i].backward_into(&grad, lr, &mut next);
                std::mem::swap(&mut grad, &mut next);
            }
        }
        self.grad_a = grad;
        self.grad_b = next;
        loss
    }

    /// Predicted labels for a batch.
    pub fn predict(&self, x: &Tensor) -> Vec<u16> {
        let mut labels = Vec::new();
        self.predict_into(x, &mut MlpScratch::default(), &mut labels);
        labels
    }

    /// Batched [`Mlp::predict`] writing into a reusable label buffer
    /// (cleared first); allocation-free in steady state.
    pub fn predict_into(&self, x: &Tensor, scratch: &mut MlpScratch, labels: &mut Vec<u16>) {
        let mut logits = std::mem::take(&mut scratch.logits);
        self.logits_into(x, scratch, &mut logits);
        argmax_labels_into(&logits, labels);
        scratch.logits = logits;
    }

    /// Mini-batch training over `epochs` passes. Returns the final
    /// epoch's mean loss.
    pub fn fit(
        &mut self,
        x: &Tensor,
        y: &[u16],
        epochs: usize,
        batch_size: usize,
        lr: f32,
        seed: u64,
    ) -> f32 {
        assert_eq!(x.rows, y.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..x.rows).collect();
        let mut last = f32::NAN;
        let mut xb = Tensor::default();
        let mut yb: Vec<u16> = Vec::new();
        let mut d_input = Tensor::default();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size.max(1)) {
                x.select_rows_into(chunk, &mut xb);
                yb.clear();
                yb.extend(chunk.iter().map(|&i| y[i]));
                total += self.train_batch_into(&xb, &yb, lr, &mut d_input);
                batches += 1;
            }
            last = total / batches.max(1) as f32;
        }
        last
    }
}

impl FrozenArtifact for Mlp {
    const KIND: &'static str = "mlp";

    fn write_payload(&self, w: &mut PayloadWriter) {
        w.u32(self.layers.len() as u32);
        for layer in &self.layers {
            layer.write_payload(w);
        }
    }

    fn read_payload(r: &mut PayloadReader) -> Result<Mlp, String> {
        let n = r.u32()? as usize;
        if n == 0 || n > 64 {
            return Err(format!("implausible layer count {n}"));
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(Dense::read_payload(r)?);
        }
        for pair in layers.windows(2) {
            if pair[0].output_dim() != pair[1].input_dim() {
                return Err(format!(
                    "layer dims do not chain: {} -> {}",
                    pair[0].output_dim(),
                    pair[1].input_dim()
                ));
            }
        }
        Ok(Mlp::from_layers(layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_learnable() {
        let x =
            Tensor::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let y = [0u16, 1, 1, 0];
        let mut mlp = Mlp::new(&[2, 8, 2], 42);
        for _ in 0..400 {
            mlp.train_batch(&x, &y, 0.05);
        }
        assert_eq!(mlp.predict(&x), vec![0, 1, 1, 0]);
    }

    #[test]
    fn fit_reduces_loss() {
        let x =
            Tensor::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let y = [0u16, 1, 1, 0];
        let mut mlp = Mlp::new(&[2, 16, 2], 7);
        let first = mlp.fit(&x, &y, 1, 4, 0.05, 1);
        let last = mlp.fit(&x, &y, 300, 4, 0.05, 1);
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn input_gradient_flows_through() {
        let x = Tensor::from_rows(&[vec![0.5, -0.5]]);
        let mut mlp = Mlp::new(&[2, 4, 2], 3);
        let (_, g) = mlp.train_batch(&x, &[1], 0.01);
        assert_eq!((g.rows, g.cols), (1, 2));
        assert!(g.data.iter().any(|&v| v != 0.0), "input gradient must be non-zero");
    }

    #[test]
    fn shapes_respected() {
        let mlp = Mlp::new(&[10, 5, 3], 1);
        assert_eq!(mlp.input_dim(), 10);
        assert_eq!(mlp.n_classes(), 3);
        let x = Tensor::zeros(7, 10);
        assert_eq!(mlp.logits(&x).cols, 3);
    }

    #[test]
    #[should_panic(expected = "need at least input and output")]
    fn one_size_panics() {
        let _ = Mlp::new(&[4], 0);
    }
}
