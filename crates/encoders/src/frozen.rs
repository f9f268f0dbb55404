//! The int8 inference encoder: the token table and projection
//! quantised to [`Int8Matrix`], with its own dequantise-accumulate
//! kernel and DBFZ export. The f32 export is
//! [`EncoderModel`](crate::EncoderModel) itself.

use crate::model::{EncodeScratch, ModelKind};
use crate::tokenizer::TokenizerConfig;
use dataset::record::PacketRecord;
use nn::envelope::{PayloadReader, PayloadWriter};
use nn::frozen::FrozenArtifact;
use nn::{Int8Matrix, Tensor};

/// Int8-quantised frozen encoder: the embedding table and projection
/// weights live as [`Int8Matrix`] (per-row symmetric scales), the bias
/// stays f32. Roughly 4× smaller and cheaper on memory bandwidth than
/// the f32 export, but *not* bit-equal to it — the engine registers it
/// as an explicit accuracy-vs-throughput experiment, never a silent
/// substitution. Within itself it is deterministic: quantisation
/// rounds deterministically, and the dequantise-accumulate kernel is a
/// fixed-order `mul_add` chain, so encodings (and verdicts built on
/// them) are byte-stable across runs and batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenInt8Encoder {
    /// Input-preparation rules (model kind + ablation).
    pub tokenizer: TokenizerConfig,
    /// Quantised token table; row `t` is the vector of token `t`.
    pub table: Int8Matrix,
    /// Quantised projection weights (in × out).
    pub proj_w: Int8Matrix,
    /// Projection bias (kept f32 — it is `dim` values, not a matrix).
    pub proj_b: Vec<f32>,
}

impl FrozenInt8Encoder {
    /// Which model this encoder reproduces.
    pub fn kind(&self) -> ModelKind {
        self.tokenizer.kind
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.tokenizer.kind.dim()
    }

    /// Pool + residual-project token sequences on the int8 kernels.
    /// Same dataflow as the f32 path — scaled mean pool, `x·W + b`,
    /// identity add — with each row gather dequantising via one folded
    /// per-row coefficient.
    fn pooled_residual_into(&self, batch: &[Vec<u32>], pooled: &mut Tensor, out: &mut Tensor) {
        let dim = self.table.cols;
        pooled.resize(batch.len(), dim);
        pooled.data.iter_mut().for_each(|v| *v = 0.0);
        for (r, tokens) in batch.iter().enumerate() {
            if tokens.is_empty() {
                continue;
            }
            let row = pooled.row_mut(r);
            for (i, &t) in tokens.iter().enumerate() {
                // Same latency-hiding distance as the f32 pool: the
                // int8 gather is otherwise serialised on L3 round
                // trips and ends up slower than the f32 path despite
                // moving a quarter of the bytes.
                if let Some(&ahead) = tokens.get(i + 6) {
                    let a = ahead as usize % self.table.rows;
                    nn::simd::prefetch_read_i8(self.table.row(a));
                    nn::simd::prefetch_read(&self.table.scales[a..=a]);
                }
                self.table.add_scaled_row(t as usize % self.table.rows, 1.0, row);
            }
            nn::simd::scale_assign(row, 1.0 / (tokens.len() as f32).sqrt());
        }
        out.resize(batch.len(), self.proj_w.cols);
        for r in 0..batch.len() {
            let x = pooled.row(r);
            let y = out.row_mut(r);
            y.copy_from_slice(&self.proj_b);
            for (c, &xv) in x.iter().enumerate() {
                if xv != 0.0 {
                    self.proj_w.add_scaled_row(c, xv, y);
                }
            }
        }
        nn::simd::add_assign(&mut out.data, &pooled.data);
    }

    /// Int8 encoding of a packet batch.
    pub fn encode_packets(&self, records: &[&PacketRecord]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_packets_into(records, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`FrozenInt8Encoder::encode_packets`]; allocation-free
    /// in steady state.
    pub fn encode_packets_into(
        &self,
        records: &[&PacketRecord],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        let (tokens, pooled) = scratch.packets(self.tokenizer, records);
        self.pooled_residual_into(tokens, pooled, out);
    }

    /// Int8 encoding of flows (each a slice of packets).
    pub fn encode_flows(&self, flows: &[Vec<&PacketRecord>]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_flows_into(flows, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`FrozenInt8Encoder::encode_flows`]; allocation-free in
    /// steady state.
    pub fn encode_flows_into(
        &self,
        flows: &[Vec<&PacketRecord>],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        let (tokens, pooled) = scratch.flows(self.tokenizer, flows);
        self.pooled_residual_into(tokens, pooled, out);
    }

    /// Int8 encoding of pre-built token sequences.
    pub fn encode_tokens(&self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_tokens_into(batch, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`FrozenInt8Encoder::encode_tokens`]; allocation-free in
    /// steady state.
    pub fn encode_tokens_into(
        &self,
        batch: &[Vec<u32>],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        self.pooled_residual_into(batch, &mut scratch.pooled, out);
    }
}

impl FrozenArtifact for FrozenInt8Encoder {
    const KIND: &'static str = "pcap-encoder-int8";

    fn write_payload(&self, w: &mut PayloadWriter) {
        self.tokenizer.write_payload(w);
        self.table.write(w);
        self.proj_w.write(w);
        w.f32s(&self.proj_b);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<FrozenInt8Encoder, String> {
        let tokenizer = TokenizerConfig::read_payload(r)?;
        let kind = tokenizer.kind;
        let table = Int8Matrix::read(r)?;
        let proj_w = Int8Matrix::read(r)?;
        let proj_b = r.f32s()?;
        if table.cols != kind.dim() || proj_w.rows != kind.dim() || proj_b.len() != proj_w.cols {
            return Err(format!(
                "dimension mismatch: {} expects {}, file has table dim {} / proj in {} / bias {}",
                kind.name(),
                kind.dim(),
                table.cols,
                proj_w.rows,
                proj_b.len()
            ));
        }
        Ok(FrozenInt8Encoder { tokenizer, table, proj_w, proj_b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EncoderModel;
    use dataset::record::Prepared;
    use dataset::transform::InputAblation;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn sample() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 2, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn batched_encode_is_bitwise_equal_to_single() {
        // The batched `_into` path must produce, row for row, the same
        // bits as encoding each sample alone — batch size is a
        // throughput knob, never a semantic one.
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(12).collect();
        let m = EncoderModel::new(ModelKind::EtBert, 5);
        let mut scratch = EncodeScratch::default();
        let mut batched = Tensor::default();
        m.encode_packets_into(&recs, &mut scratch, &mut batched);
        for (i, rec) in recs.iter().copied().enumerate() {
            let single = m.encode_packets(&[rec]);
            assert_eq!(single.row(0), batched.row(i), "row {i}");
        }
        // Scratch reuse across differently-sized batches stays exact.
        let mut again = Tensor::default();
        m.encode_packets_into(&recs[..5], &mut scratch, &mut again);
        assert_eq!(again.data, batched.data[..5 * m.dim()], "reused scratch");
    }

    #[test]
    fn int8_encode_is_deterministic_and_batch_invariant() {
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(10).collect();
        let f = EncoderModel::new(ModelKind::PcapEncoder, 3);
        let q = f.quantize();
        let a = q.encode_packets(&recs);
        let b = q.encode_packets(&recs);
        assert_eq!(a.data, b.data, "deterministic");
        for (i, rec) in recs.iter().copied().enumerate() {
            assert_eq!(q.encode_packets(&[rec]).row(0), a.row(i), "batch-invariant row {i}");
        }
        // Quantisation error is bounded: int8 should stay close to f32.
        let full = f.encode_packets(&recs);
        let max_abs = full.data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (qa, fa) in a.data.iter().zip(&full.data) {
            assert!((qa - fa).abs() <= 0.05 * max_abs.max(1.0), "int8 {qa} vs f32 {fa}");
        }
    }

    #[test]
    fn int8_export_round_trip_is_byte_stable() {
        let mut m = EncoderModel::new(ModelKind::EtBert, 9);
        m.ablation = InputAblation::NoPayload;
        let q = m.quantize();
        let bytes = q.to_frozen_bytes();
        assert_eq!(bytes, q.to_frozen_bytes(), "byte-stable encode");
        assert_eq!(bytes, m.quantize().to_frozen_bytes(), "re-quantisation is stable");
        let back = FrozenInt8Encoder::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back, q);
        assert_eq!(back.tokenizer.ablation, InputAblation::NoPayload);
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(4).collect();
        assert_eq!(back.encode_packets(&recs).data, q.encode_packets(&recs).data);
        // corrupt int8 exports are refused like any other artifact
        for offset in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(FrozenInt8Encoder::from_frozen_bytes(&bad).is_err(), "flip at {offset}");
        }
    }

    #[test]
    fn export_round_trip_is_bitwise_exact() {
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(5).collect();
        let mut m = EncoderModel::new(ModelKind::PcapEncoder, 11);
        m.ablation = InputAblation::NoIpAddr;
        let bytes = m.to_frozen_bytes();
        assert_eq!(bytes, m.to_frozen_bytes(), "byte-stable encode");
        let back = EncoderModel::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back.to_frozen_bytes(), bytes);
        assert_eq!(back.ablation, InputAblation::NoIpAddr);
        assert_eq!(back.encode_packets(&recs).data, m.encode_packets(&recs).data);
        let flows = vec![recs[..3].to_vec(), recs[3..].to_vec()];
        assert_eq!(back.encode_flows(&flows).data, m.encode_flows(&flows).data);
    }

    #[test]
    fn corrupt_export_is_refused() {
        let good = EncoderModel::new(ModelKind::EtBert, 1).to_frozen_bytes();
        for offset in [0, 7, good.len() / 3, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0x01;
            assert!(
                EncoderModel::from_frozen_bytes(&bad).is_err(),
                "flip at {offset} must be refused"
            );
        }
    }

    #[test]
    fn loads_from_the_file_alone() {
        let dir = std::env::temp_dir().join("debunk-frozen-encoder-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("encoder.frozen");
        EncoderModel::new(ModelKind::YaTc, 8).save_frozen(&path).expect("save");
        let back = EncoderModel::load_frozen(&path).expect("load");
        assert_eq!(back.kind, ModelKind::YaTc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
