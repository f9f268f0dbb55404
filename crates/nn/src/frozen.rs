//! Frozen (inference-only) twins of the trainable layers, plus the
//! versioned, checksummed binary format they ship in.
//!
//! A `Frozen*` struct carries weights and nothing else — no Adam
//! moments, no dropout masks, no cached activations or gradient
//! scratch — so an exported model is exactly the bytes inference
//! needs. The forward paths are copies of the corresponding
//! `forward_inference` code, so a frozen model's outputs are
//! *bit-identical* to the trained model it was frozen from.
//!
//! The on-disk format is the shared single-payload envelope of
//! [`crate::envelope`] under magic `DBFZ`, keyed by the model's kind
//! tag (`"mlp"`, `"forest"`, ...). Saves are published atomically; a
//! corrupt, truncated or wrong-kind file is refused with a specific
//! error and never decoded into a wrong model.

use crate::envelope::{self, PayloadReader, PayloadWriter, MAX_ELEMS};
use crate::tensor::Tensor;
use std::path::Path;

/// Magic bytes opening every frozen-model file.
pub const FROZEN_MAGIC: &[u8; 4] = b"DBFZ";
/// Current envelope version.
pub const FROZEN_VERSION: u32 = 1;

/// Errors from loading a frozen model file.
#[derive(Debug)]
pub enum FrozenError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The bytes do not decode as the requested frozen model.
    Format(String),
}

impl std::fmt::Display for FrozenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrozenError::Io(e) => write!(f, "frozen model io error: {e}"),
            FrozenError::Format(e) => write!(f, "frozen model rejected: {e}"),
        }
    }
}
impl std::error::Error for FrozenError {}

/// Write a tensor as rows · cols · raw `f32` bits.
pub fn write_tensor(w: &mut PayloadWriter, t: &Tensor) {
    w.u64(t.rows as u64);
    w.u64(t.cols as u64);
    for &v in &t.data {
        w.f32(v);
    }
}

/// Read a tensor written by [`write_tensor`], validating its shape.
pub fn read_tensor(r: &mut PayloadReader) -> Result<Tensor, String> {
    let rows = r.u64()?;
    let cols = r.u64()?;
    let elems = rows
        .checked_mul(cols)
        .filter(|&e| e <= MAX_ELEMS)
        .ok_or_else(|| format!("implausible tensor shape {rows}x{cols}"))?;
    let mut data = Vec::with_capacity(elems as usize);
    for _ in 0..elems {
        data.push(r.f32()?);
    }
    Ok(Tensor { rows: rows as usize, cols: cols as usize, data })
}

// ---------------------------------------------------------------------------
// Int8 quantisation
// ---------------------------------------------------------------------------

/// A row-major matrix quantised to int8 with one symmetric scale per
/// row: `value ≈ data[r][c] · scales[r]`.
///
/// Quantisation is deterministic — scale is `maxabs/127` and rounding
/// is `f32::round` (half away from zero) — so quantising the same
/// tensor always yields the same bytes, and the dequantise-accumulate
/// kernel ([`Int8Matrix::add_scaled_row`]) is an element-wise
/// `mul_add` chain, so int8 inference is itself bit-stable across
/// batch sizes and SIMD lanes. It is *not* bit-equal to f32 inference:
/// the int8 encoder ships as an explicitly registered
/// accuracy-vs-throughput experiment, never a silent substitution.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major quantised values in `[-127, 127]`.
    pub data: Vec<i8>,
    /// Per-row dequantisation scales (`maxabs/127`; 0 for all-zero rows).
    pub scales: Vec<f32>,
}

impl Int8Matrix {
    /// Symmetric per-row quantisation of `t`.
    pub fn quantize(t: &Tensor) -> Int8Matrix {
        let mut data = Vec::with_capacity(t.rows * t.cols);
        let mut scales = Vec::with_capacity(t.rows);
        for r in 0..t.rows {
            let row = t.row(r);
            let maxabs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if maxabs > 0.0 {
                scales.push(maxabs / 127.0);
                let inv = 127.0 / maxabs;
                data.extend(row.iter().map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8));
            } else {
                scales.push(0.0);
                data.extend(std::iter::repeat_n(0i8, t.cols));
            }
        }
        Int8Matrix { rows: t.rows, cols: t.cols, data, scales }
    }

    /// Quantised row `r`.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `dst[c] = fma(row_r[c] as f32, scales[r]·coeff, dst[c])` — the
    /// int8 dequantise-accumulate kernel (SIMD lane with scalar
    /// fallback). The folded coefficient is rounded once, then each
    /// element does one fused multiply-add.
    pub fn add_scaled_row(&self, r: usize, coeff: f32, dst: &mut [f32]) {
        crate::simd::i8_axpy(dst, self.row(r), self.scales[r] * coeff);
    }

    /// Dequantised copy (for accuracy inspection, not the hot path).
    pub fn dequantize(&self) -> Tensor {
        let mut t = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for (d, &q) in t.row_mut(r).iter_mut().zip(self.row(r)) {
                *d = f32::from(q) * s;
            }
        }
        t
    }

    /// Serialise (shape, scales, data).
    pub fn write(&self, w: &mut PayloadWriter) {
        w.u64(self.rows as u64);
        w.u64(self.cols as u64);
        w.f32s(&self.scales);
        w.i8s(&self.data);
    }

    /// Decode a matrix written by [`Int8Matrix::write`].
    pub fn read(r: &mut PayloadReader) -> Result<Int8Matrix, String> {
        let rows = r.u64()?;
        let cols = r.u64()?;
        let elems = rows
            .checked_mul(cols)
            .filter(|&e| e <= MAX_ELEMS)
            .ok_or_else(|| format!("implausible int8 shape {rows}x{cols}"))?;
        let scales = r.f32s()?;
        let data = r.i8s()?;
        if scales.len() != rows as usize || data.len() != elems as usize {
            return Err(format!(
                "int8 matrix {rows}x{cols} carries {} scales / {} values",
                scales.len(),
                data.len()
            ));
        }
        Ok(Int8Matrix { rows: rows as usize, cols: cols as usize, data, scales })
    }
}

/// A model with a frozen binary export: a stable kind tag plus a
/// payload codec. The provided methods handle the envelope and the
/// atomic publish.
pub trait FrozenArtifact: Sized {
    /// Stable kind tag stored in the envelope (e.g. `"mlp"`).
    const KIND: &'static str;

    /// Serialise the weights into `w`.
    fn write_payload(&self, w: &mut PayloadWriter);

    /// Decode weights; any inconsistency is an error, never a guess.
    fn read_payload(r: &mut PayloadReader) -> Result<Self, String>;

    /// Full file bytes (envelope + payload). Byte-stable: equal models
    /// encode to equal bytes.
    fn to_frozen_bytes(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        self.write_payload(&mut w);
        envelope::seal(FROZEN_MAGIC, FROZEN_VERSION, Self::KIND, &w.into_bytes())
    }

    /// Decode file bytes produced by [`FrozenArtifact::to_frozen_bytes`].
    fn from_frozen_bytes(bytes: &[u8]) -> Result<Self, String> {
        let payload = envelope::open(bytes, FROZEN_MAGIC, FROZEN_VERSION, Self::KIND)?;
        let mut r = PayloadReader::new(payload);
        let v = Self::read_payload(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Publish to `path` atomically ([`envelope::atomic_write`]), so a
    /// crash mid-save never leaves a torn file at the final path.
    fn save_frozen(&self, path: &Path) -> std::io::Result<()> {
        envelope::atomic_write(path, &self.to_frozen_bytes())
    }

    /// Load from `path`, refusing corrupt or mismatched files.
    fn load_frozen(path: &Path) -> Result<Self, FrozenError> {
        let bytes = std::fs::read(path).map_err(FrozenError::Io)?;
        Self::from_frozen_bytes(&bytes).map_err(FrozenError::Format)
    }
}

// ---------------------------------------------------------------------------
// Frozen layers
// ---------------------------------------------------------------------------

/// Inference-only [`crate::Dense`]: weights and bias, nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenDense {
    /// Weight matrix (in × out).
    pub w: Tensor,
    /// Bias vector (out).
    pub b: Vec<f32>,
}

impl FrozenDense {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.cols
    }

    /// `y = x·W + b`, identical to `Dense::forward_inference_into`.
    pub fn forward_into(&self, x: &Tensor, y: &mut Tensor) {
        x.matmul_into(&self.w, y);
        for r in 0..y.rows {
            crate::simd::add_assign(y.row_mut(r), &self.b);
        }
    }

    /// Allocating [`FrozenDense::forward_into`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        self.forward_into(x, &mut y);
        y
    }
}

impl FrozenArtifact for FrozenDense {
    const KIND: &'static str = "dense";

    fn write_payload(&self, w: &mut PayloadWriter) {
        write_tensor(w, &self.w);
        w.f32s(&self.b);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<FrozenDense, String> {
        let w = read_tensor(r)?;
        let b = r.f32s()?;
        if b.len() != w.cols {
            return Err(format!("bias length {} does not match {} outputs", b.len(), w.cols));
        }
        Ok(FrozenDense { w, b })
    }
}

/// Inference-only [`crate::Mlp`]: the dense stack without any training
/// buffers. `logits` matches `Mlp::logits` bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenMlp {
    /// The dense layers, input to output.
    pub layers: Vec<FrozenDense>,
}

impl FrozenMlp {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.layers.last().expect("at least one layer").output_dim()
    }

    /// Inference logits — same layer loop (ReLU between layers, not
    /// after the last) as `Mlp::logits`.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let mut scratch = MlpScratch::default();
        let mut out = Tensor::default();
        self.logits_into(x, &mut scratch, &mut out);
        out
    }

    /// Batched [`FrozenMlp::logits`] writing into a reusable output:
    /// activations ping-pong between the two scratch tensors, so a
    /// steady-state serving loop allocates nothing and runs one kernel
    /// dispatch per layer per *batch*, not per sample.
    pub fn logits_into(&self, x: &Tensor, scratch: &mut MlpScratch, out: &mut Tensor) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_into(x, out);
            return;
        }
        self.layers[0].forward_into(x, &mut scratch.a);
        scratch.a.relu_inplace_into(&mut scratch.mask);
        let (mut cur, mut next) = (&mut scratch.a, &mut scratch.b);
        for i in 1..n - 1 {
            self.layers[i].forward_into(cur, next);
            next.relu_inplace_into(&mut scratch.mask);
            std::mem::swap(&mut cur, &mut next);
        }
        self.layers[n - 1].forward_into(cur, out);
    }

    /// Predicted labels for a batch.
    pub fn predict(&self, x: &Tensor) -> Vec<u16> {
        crate::loss::argmax_labels(&self.logits(x))
    }

    /// Batched [`FrozenMlp::predict`] writing into a reusable label
    /// buffer (cleared first); allocation-free in steady state.
    pub fn predict_into(&self, x: &Tensor, scratch: &mut MlpScratch, labels: &mut Vec<u16>) {
        let mut logits = std::mem::take(&mut scratch.logits);
        self.logits_into(x, scratch, &mut logits);
        crate::loss::argmax_labels_into(&logits, labels);
        scratch.logits = logits;
    }
}

/// Reusable activation buffers for [`FrozenMlp::logits_into`] /
/// [`FrozenMlp::predict_into`].
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    a: Tensor,
    b: Tensor,
    mask: Vec<bool>,
    logits: Tensor,
}

impl FrozenArtifact for FrozenMlp {
    const KIND: &'static str = "mlp";

    fn write_payload(&self, w: &mut PayloadWriter) {
        w.u32(self.layers.len() as u32);
        for layer in &self.layers {
            layer.write_payload(w);
        }
    }

    fn read_payload(r: &mut PayloadReader) -> Result<FrozenMlp, String> {
        let n = r.u32()? as usize;
        if n == 0 || n > 64 {
            return Err(format!("implausible layer count {n}"));
        }
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(FrozenDense::read_payload(r)?);
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
        Ok(FrozenMlp { layers })
    }
}

/// Inference-only [`crate::Embedding`]: the token table with the same
/// scaled mean pooling (`sum / sqrt(n)`, out-of-range tokens wrap).
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenEmbedding {
    /// The table; row `t` is the vector of token `t`.
    pub table: Tensor,
}

impl FrozenEmbedding {
    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.table.cols
    }

    /// Pool each token sequence into one row — the *same* kernel as
    /// `Embedding::pool` (shared, not copied), so frozen outputs are
    /// bit-identical to the trained model on every SIMD lane.
    pub fn forward_into(&self, batch: &[Vec<u32>], out: &mut Tensor) {
        crate::embedding::Embedding::pool(&self.table, batch, out);
    }

    /// Allocating [`FrozenEmbedding::forward_into`].
    pub fn forward(&self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(batch, &mut out);
        out
    }
}

impl FrozenArtifact for FrozenEmbedding {
    const KIND: &'static str = "embedding";

    fn write_payload(&self, w: &mut PayloadWriter) {
        write_tensor(w, &self.table);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<FrozenEmbedding, String> {
        let table = read_tensor(r)?;
        if table.rows == 0 || table.cols == 0 {
            return Err("empty embedding table".to_string());
        }
        Ok(FrozenEmbedding { table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::embedding::Embedding;
    use crate::mlp::Mlp;

    fn trained_mlp() -> Mlp {
        let x =
            Tensor::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let y = [0u16, 1, 1, 0];
        let mut mlp = Mlp::new(&[2, 8, 2], 42);
        mlp.fit(&x, &y, 50, 4, 0.05, 1);
        mlp
    }

    #[test]
    fn frozen_dense_matches_inference_bitwise() {
        let d = Dense::new(5, 3, 7);
        let x = Tensor::xavier(4, 5, 11);
        let frozen = d.freeze();
        assert_eq!(frozen.forward(&x).data, d.forward_inference(&x).data);
    }

    #[test]
    fn frozen_mlp_round_trips_and_matches_bitwise() {
        let mlp = trained_mlp();
        let x = Tensor::xavier(6, 2, 3);
        let frozen = mlp.freeze();
        assert_eq!(frozen.logits(&x).data, mlp.logits(&x).data, "freeze preserves logits");
        let bytes = frozen.to_frozen_bytes();
        assert_eq!(bytes, frozen.to_frozen_bytes(), "encoding is byte-stable");
        let back = FrozenMlp::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back, frozen);
        assert_eq!(back.logits(&x).data, mlp.logits(&x).data);
        assert_eq!(back.predict(&x), mlp.predict(&x));
    }

    #[test]
    fn frozen_embedding_matches_pool_bitwise() {
        let e = Embedding::new(64, 8, 5);
        let batch = vec![vec![1, 2, 3], vec![], vec![200, 7]]; // 200 wraps
        let frozen = e.freeze();
        assert_eq!(frozen.forward(&batch).data, e.forward_inference(&batch).data);
        let back =
            FrozenEmbedding::from_frozen_bytes(&frozen.to_frozen_bytes()).expect("round-trip");
        assert_eq!(back.forward(&batch).data, e.forward_inference(&batch).data);
    }

    #[test]
    fn every_single_byte_flip_is_refused() {
        let mlp = Mlp::new(&[3, 4, 2], 9);
        let good = mlp.freeze().to_frozen_bytes();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                FrozenMlp::from_frozen_bytes(&bad).is_err(),
                "flip at byte {i} must be refused"
            );
        }
        let mut truncated = good.clone();
        truncated.truncate(good.len() / 2);
        assert!(FrozenMlp::from_frozen_bytes(&truncated).is_err());
        assert!(FrozenMlp::from_frozen_bytes(&[]).is_err());
    }

    #[test]
    fn kind_mismatch_is_refused() {
        let d = Dense::new(2, 2, 1).freeze();
        let bytes = d.to_frozen_bytes();
        let err = FrozenMlp::from_frozen_bytes(&bytes).unwrap_err();
        assert!(err.contains("key mismatch"), "{err}");
    }

    #[test]
    fn save_load_via_tmp_rename() {
        let dir = std::env::temp_dir().join("debunk-frozen-nn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("head.frozen");
        let mlp = trained_mlp();
        let frozen = mlp.freeze();
        frozen.save_frozen(&path).expect("save");
        let tmp_left = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension() == Some("tmp".as_ref()));
        assert!(!tmp_left, "no temp sibling may remain");
        let back = FrozenMlp::load_frozen(&path).expect("load");
        assert_eq!(back, frozen);
        // corrupt file on disk is refused, not mis-decoded
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(FrozenMlp::load_frozen(&path), Err(FrozenError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
