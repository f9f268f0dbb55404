//! The versioned, checksummed binary format trained models ship in.
//!
//! A model's frozen export is its weights and nothing else — no Adam
//! moments, no cached activations or gradient scratch — so an exported
//! model is exactly the bytes inference needs. The layers themselves
//! ([`crate::Dense`], [`crate::Embedding`], [`crate::Mlp`]) implement
//! [`FrozenArtifact`]: decoding builds the trainable type with empty
//! training state, created lazily on the first update, so there is one
//! weights struct and one forward path per layer and a loaded model is
//! bit-identical to the one saved.
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
    fn mlp_round_trips_bitwise() {
        let mlp = trained_mlp();
        let x = Tensor::xavier(6, 2, 3);
        let bytes = mlp.to_frozen_bytes();
        assert_eq!(bytes, mlp.to_frozen_bytes(), "encoding is byte-stable");
        let back = Mlp::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back.to_frozen_bytes(), bytes);
        assert_eq!(back.logits(&x).data, mlp.logits(&x).data);
        assert_eq!(back.predict(&x), mlp.predict(&x));
    }

    #[test]
    fn embedding_round_trips_bitwise() {
        let e = Embedding::new(64, 8, 5);
        let batch = vec![vec![1, 2, 3], vec![], vec![200, 7]]; // 200 wraps
        let back = Embedding::from_frozen_bytes(&e.to_frozen_bytes()).expect("round-trip");
        assert_eq!(back.forward_inference(&batch).data, e.forward_inference(&batch).data);
    }

    #[test]
    fn decoded_mlp_still_trains() {
        // Training state is not part of the export; the first update
        // after a load creates it instead of panicking.
        let x =
            Tensor::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let y = [0u16, 1, 1, 0];
        let mut back = Mlp::from_frozen_bytes(&trained_mlp().to_frozen_bytes()).unwrap();
        let before = back.logits(&x);
        back.train_batch(&x, &y, 0.05);
        assert_ne!(back.logits(&x).data, before.data);
    }

    #[test]
    fn every_single_byte_flip_is_refused() {
        let mlp = Mlp::new(&[3, 4, 2], 9);
        let good = mlp.to_frozen_bytes();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(Mlp::from_frozen_bytes(&bad).is_err(), "flip at byte {i} must be refused");
        }
        let mut truncated = good.clone();
        truncated.truncate(good.len() / 2);
        assert!(Mlp::from_frozen_bytes(&truncated).is_err());
        assert!(Mlp::from_frozen_bytes(&[]).is_err());
    }

    #[test]
    fn kind_mismatch_is_refused() {
        let bytes = Dense::new(2, 2, 1).to_frozen_bytes();
        let err = Mlp::from_frozen_bytes(&bytes).unwrap_err();
        assert!(err.contains("key mismatch"), "{err}");
    }

    #[test]
    fn save_load_via_tmp_rename() {
        let dir = std::env::temp_dir().join("debunk-frozen-nn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("head.frozen");
        let mlp = trained_mlp();
        mlp.save_frozen(&path).expect("save");
        let tmp_left = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension() == Some("tmp".as_ref()));
        assert!(!tmp_left, "no temp sibling may remain");
        let back = Mlp::load_frozen(&path).expect("load");
        assert_eq!(back.to_frozen_bytes(), mlp.to_frozen_bytes());
        // corrupt file on disk is refused, not mis-decoded
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Mlp::load_frozen(&path), Err(FrozenError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
