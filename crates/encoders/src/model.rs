//! The encoder models: model-specific tokenisation over a shared
//! embedding + mean-pooling backbone that supports frozen encoding and
//! unfrozen (end-to-end) training.

use crate::frozen::FrozenInt8Encoder;
use crate::tokenize::VOCAB;
use crate::tokenizer::TokenizerConfig;
use dataset::record::PacketRecord;
use dataset::transform::InputAblation;
use nn::envelope::{PayloadReader, PayloadWriter};
use nn::frozen::FrozenArtifact;
use nn::{Dense, Embedding, Int8Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which paper model this encoder reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ET-BERT: transport bytes without ports + payload, word tokens.
    EtBert,
    /// YaTC: 5-packet "image", IPs/ports zeroed, 4-byte patch tokens.
    YaTc,
    /// NetMamba: unidirectional byte sequence, IPs/ports zeroed.
    NetMamba,
    /// TrafficFormer: word tokens with train-time IP/port randomisation.
    TrafficFormer,
    /// netFound: header-field + multimodal tokens + 12 payload bytes.
    NetFound,
    /// Pcap-Encoder: whole-packet 2-byte words (T5-style hex words).
    PcapEncoder,
    /// PERT: ALBERT-style parameter sharing — coarse position buckets.
    Pert,
    /// PacRep: off-the-shelf text BERT — position-independent tokens,
    /// no network pretext task (Table 1: "None").
    PacRep,
    /// PTU: ET-BERT-style input with SSP + HIP/FIP pretext tasks.
    Ptu,
}

impl ModelKind {
    /// The six models the paper evaluates in §5–§6 (table rows).
    pub const ALL: [ModelKind; 6] = [
        ModelKind::EtBert,
        ModelKind::YaTc,
        ModelKind::NetMamba,
        ModelKind::TrafficFormer,
        ModelKind::NetFound,
        ModelKind::PcapEncoder,
    ];

    /// Every analogue implemented, including the Table-1 models the
    /// paper describes but does not carry into the evaluation
    /// (PERT, PacRep, PTU).
    pub const EXTENDED: [ModelKind; 9] = [
        ModelKind::EtBert,
        ModelKind::YaTc,
        ModelKind::NetMamba,
        ModelKind::TrafficFormer,
        ModelKind::NetFound,
        ModelKind::PcapEncoder,
        ModelKind::Pert,
        ModelKind::PacRep,
        ModelKind::Ptu,
    ];

    /// Paper name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::EtBert => "ET-BERT",
            ModelKind::YaTc => "YaTC",
            ModelKind::NetMamba => "NetMamba",
            ModelKind::TrafficFormer => "TrafficFormer",
            ModelKind::NetFound => "netFound",
            ModelKind::PcapEncoder => "Pcap-Encoder",
            ModelKind::Pert => "PERT",
            ModelKind::PacRep => "PacRep",
            ModelKind::Ptu => "PTU",
        }
    }

    /// Embedding dimensionality — scaled-down analogues of the paper's
    /// sizes (Table 1: 768/768/192/256/1024/768).
    pub fn dim(&self) -> usize {
        match self {
            ModelKind::EtBert => 128,
            ModelKind::YaTc => 48,
            ModelKind::NetMamba => 48,
            ModelKind::TrafficFormer => 128,
            ModelKind::NetFound => 160,
            ModelKind::PcapEncoder => 256,
            ModelKind::Pert => 64,
            ModelKind::PacRep => 64,
            ModelKind::Ptu => 64,
        }
    }

    /// Per-model hash salt (keeps token spaces disjoint).
    pub fn salt(&self) -> u32 {
        match self {
            ModelKind::EtBert => 0xe7be,
            ModelKind::YaTc => 0x7a7c,
            ModelKind::NetMamba => 0x3a3b,
            ModelKind::TrafficFormer => 0x7f03,
            ModelKind::NetFound => 0x4f0d,
            ModelKind::PcapEncoder => 0x9cab,
            ModelKind::Pert => 0x9e27,
            ModelKind::PacRep => 0x9ac2,
            ModelKind::Ptu => 0x9703,
        }
    }

    /// Whether the original model is a *flow* embedder (Table 1 /
    /// §5: YaTC, NetMamba, TrafficFormer, netFound).
    pub fn is_flow_embedder(&self) -> bool {
        matches!(
            self,
            ModelKind::YaTc | ModelKind::NetMamba | ModelKind::TrafficFormer | ModelKind::NetFound
        )
    }
}

/// Scale `t` down so its Frobenius norm does not exceed `max_norm`.
fn clip_global_norm(t: &mut Tensor, max_norm: f32) {
    let norm = t.norm();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for v in &mut t.data {
            *v *= scale;
        }
    }
}

/// An instantiated encoder: tokenizer + embedding table.
///
/// ```no_run
/// use encoders::{EncoderModel, ModelKind};
/// use dataset::record::Prepared;
/// use traffic_synth::{DatasetKind, DatasetSpec};
///
/// let trace = DatasetSpec::new(DatasetKind::UstcTfc, 1).generate();
/// let data = Prepared::from_trace(&trace);
/// let encoder = EncoderModel::new(ModelKind::EtBert, 7);
/// let recs: Vec<_> = data.records.iter().take(32).collect();
/// let embeddings = encoder.encode_packets(&recs); // 32 × dim
/// assert_eq!(embeddings.rows, 32);
/// ```
#[derive(Debug, Clone)]
pub struct EncoderModel {
    /// Which model this is.
    pub kind: ModelKind,
    /// The shared backbone (token table + scaled mean pooling).
    pub embedding: Embedding,
    /// Post-pooling projection — the minimal analogue of the original
    /// models' encoder layers. Pre-training primarily shapes this
    /// layer (the token table moves only gently), so the table's
    /// information-preserving geometry survives pre-training.
    pub proj: Dense,
    /// Train-time augmentation RNG (TrafficFormer randomisation).
    augment_seed: u64,
    /// Optional input ablation applied before tokenisation (Table 7).
    pub ablation: InputAblation,
    // Reusable scratch for the unfrozen train step (forward + backward
    // allocate nothing per step once these are warm).
    pooled: Tensor,
    clip_buf: Tensor,
    d_pooled: Tensor,
}

/// Reusable buffers for the batched `encode_*_into` paths: the pooled
/// activations plus per-sample token buffers. A serving loop keeps one
/// scratch per worker and re-encodes every verdict batch with zero
/// steady-state allocation — token vectors and tensors all retain their
/// capacity between batches.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    pub(crate) pooled: Tensor,
    tokens: Vec<Vec<u32>>,
}

impl EncodeScratch {
    /// Tokenise each packet (repeated, as at inference) into the token
    /// buffers; returns them with the pooled-activation buffer. Token
    /// buffers keep their capacity; a smaller batch truncates the list.
    pub(crate) fn packets(
        &mut self,
        tokenizer: TokenizerConfig,
        records: &[&PacketRecord],
    ) -> (&[Vec<u32>], &mut Tensor) {
        self.tokens.resize_with(records.len(), Vec::new);
        for (buf, rec) in self.tokens.iter_mut().zip(records) {
            tokenizer.tokenize_packet_repeated_into(rec, buf);
        }
        (&self.tokens, &mut self.pooled)
    }

    /// [`EncodeScratch::packets`] for flows.
    pub(crate) fn flows(
        &mut self,
        tokenizer: TokenizerConfig,
        flows: &[Vec<&PacketRecord>],
    ) -> (&[Vec<u32>], &mut Tensor) {
        self.tokens.resize_with(flows.len(), Vec::new);
        for (buf, flow) in self.tokens.iter_mut().zip(flows) {
            tokenizer.tokenize_flow_into(flow, buf);
        }
        (&self.tokens, &mut self.pooled)
    }
}

impl EncoderModel {
    /// Fresh (randomly initialised, un-pre-trained) encoder.
    pub fn new(kind: ModelKind, seed: u64) -> EncoderModel {
        let dim = kind.dim();
        // Small-initialised residual branch: a fresh encoder is almost a
        // pure random-feature map (out ≈ pooled).
        let mut proj = Dense::new(dim, dim, seed ^ 0x9407);
        for v in proj.w.data.iter_mut() {
            *v *= 0.1;
        }
        EncoderModel::from_parts(
            TokenizerConfig::new(kind),
            Embedding::new(VOCAB, dim, seed),
            proj,
            seed ^ 0xa06e,
        )
    }

    /// An encoder over given weights with empty training scratch.
    fn from_parts(
        tokenizer: TokenizerConfig,
        embedding: Embedding,
        proj: Dense,
        augment_seed: u64,
    ) -> EncoderModel {
        EncoderModel {
            kind: tokenizer.kind,
            embedding,
            proj,
            augment_seed,
            ablation: tokenizer.ablation,
            pooled: Tensor::default(),
            clip_buf: Tensor::default(),
            d_pooled: Tensor::default(),
        }
    }

    /// Pool + residual-project a token batch: `pooled + proj(pooled)`,
    /// one kernel dispatch per batch, not per sample. The identity path
    /// guarantees pre-training can only *add* structure on top of the
    /// information-preserving random-feature map — without it, pretext
    /// objectives (satisfiable by low-rank maps) collapse the
    /// representation and frozen performance drops *below* random.
    fn pooled_residual_into(&self, batch: &[Vec<u32>], pooled: &mut Tensor, out: &mut Tensor) {
        self.embedding.forward_inference_into(batch, pooled);
        self.proj.forward_inference_into(pooled, out);
        nn::simd::add_assign(&mut out.data, &pooled.data);
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.kind.dim()
    }

    /// The tokenisation half of this encoder (configuration only) —
    /// shared verbatim with the int8 inference path.
    pub fn tokenizer(&self) -> TokenizerConfig {
        TokenizerConfig { kind: self.kind, ablation: self.ablation }
    }

    /// Tokenise one packet according to the model's input-preparation
    /// rules. `augment` enables training-time randomisation where the
    /// original paper uses it (TrafficFormer).
    pub fn tokenize_packet(&self, rec: &PacketRecord, augment: Option<&mut StdRng>) -> Vec<u32> {
        self.tokenizer().tokenize_packet(rec, augment)
    }

    /// Tokenise a multi-packet input (flow tasks). Flow embedders mix
    /// the packet index into the position; Pcap-Encoder is packet-level
    /// and callers use majority voting instead.
    pub fn tokenize_flow(&self, packets: &[&PacketRecord]) -> Vec<u32> {
        self.tokenizer().tokenize_flow(packets)
    }

    /// Packet-level input for flow embedders: the paper *Repeats* the
    /// packet 5 times to form an artificial flow (§5, footnote 11).
    pub fn tokenize_packet_repeated(&self, rec: &PacketRecord) -> Vec<u32> {
        self.tokenizer().tokenize_packet_repeated(rec)
    }

    /// Alternative Padding strategy (ablation for footnote 11): the
    /// packet once, then four all-zero padding packets.
    pub fn tokenize_packet_padded(&self, rec: &PacketRecord) -> Vec<u32> {
        self.tokenizer().tokenize_packet_padded(rec)
    }

    /// Int8-quantised copy of this encoder (per-row symmetric scales,
    /// deterministic rounding). The quantised encoder is *not*
    /// bit-equal to f32 — callers opt in explicitly.
    pub fn quantize(&self) -> FrozenInt8Encoder {
        FrozenInt8Encoder {
            tokenizer: self.tokenizer(),
            table: Int8Matrix::quantize(&self.embedding.table),
            proj_w: Int8Matrix::quantize(&self.proj.w),
            proj_b: self.proj.b.clone(),
        }
    }

    /// Frozen encoding of a packet batch (no caches, no gradients).
    pub fn encode_packets(&self, records: &[&PacketRecord]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_packets_into(records, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`EncoderModel::encode_packets`] into a reusable output;
    /// allocation-free in steady state.
    pub fn encode_packets_into(
        &self,
        records: &[&PacketRecord],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        let (tokens, pooled) = scratch.packets(self.tokenizer(), records);
        self.pooled_residual_into(tokens, pooled, out);
    }

    /// Frozen encoding of flows (each a slice of packets).
    pub fn encode_flows(&self, flows: &[Vec<&PacketRecord>]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_flows_into(flows, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`EncoderModel::encode_flows`] into a reusable output;
    /// allocation-free in steady state.
    pub fn encode_flows_into(
        &self,
        flows: &[Vec<&PacketRecord>],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        let (tokens, pooled) = scratch.flows(self.tokenizer(), flows);
        self.pooled_residual_into(tokens, pooled, out);
    }

    /// Frozen encoding of pre-built token sequences (residual path).
    pub fn encode_tokens(&self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_tokens_into(batch, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Batched [`EncoderModel::encode_tokens`] into a reusable output;
    /// allocation-free in steady state.
    pub fn encode_tokens_into(
        &self,
        batch: &[Vec<u32>],
        scratch: &mut EncodeScratch,
        out: &mut Tensor,
    ) {
        self.pooled_residual_into(batch, &mut scratch.pooled, out);
    }

    /// Unfrozen forward over token batches (caches for backward).
    pub fn forward_tokens(&mut self, batch: &[Vec<u32>]) -> Tensor {
        let mut out = Tensor::default();
        self.forward_tokens_into(batch, &mut out);
        out
    }

    /// [`EncoderModel::forward_tokens`] writing into a reusable output
    /// tensor; allocation-free in steady state.
    pub fn forward_tokens_into(&mut self, batch: &[Vec<u32>], out: &mut Tensor) {
        let mut pooled = std::mem::take(&mut self.pooled);
        self.embedding.forward_into(batch, &mut pooled);
        self.proj.forward_into(&pooled, out);
        // residual identity path on the SIMD lane (element-wise add —
        // bit-identical to the scalar loop it replaces)
        nn::simd::add_assign(&mut out.data, &pooled.data);
        self.pooled = pooled;
    }

    /// Unfrozen backward: gradient flows through both the residual
    /// branch and the identity path into the token table (end-to-end
    /// fine-tuning at full rate). The incoming gradient is global-norm
    /// clipped (standard fine-tuning practice) — without it the
    /// residual doubles gradient flow and wide encoders diverge.
    pub fn backward(&mut self, d_out: &Tensor, lr: f32) {
        self.clip_buf.copy_from(d_out);
        let max_norm = (d_out.rows as f32).sqrt();
        clip_global_norm(&mut self.clip_buf, max_norm);
        let mut d_pooled = std::mem::take(&mut self.d_pooled);
        self.proj.backward_into(&self.clip_buf, lr, &mut d_pooled);
        // identity-path gradient
        nn::simd::add_assign(&mut d_pooled.data, &self.clip_buf.data);
        self.embedding.backward(&d_pooled, lr);
        self.d_pooled = d_pooled;
    }

    /// Pre-training backward: the residual branch learns at `lr` while
    /// the token table moves at `lr * table_scale`, so pretext tasks
    /// add structure without erasing the table's token-identity
    /// geometry.
    pub fn backward_pretrain(&mut self, d_out: &Tensor, lr: f32, table_scale: f32) {
        // plain SGD throughout: Adam would blow the tiny correlated
        // pretext gradients up to full-size steps and collapse both the
        // projection and the token-identity geometry (DESIGN.md §4b)
        let mut d_pooled = std::mem::take(&mut self.d_pooled);
        self.proj.backward_sgd_into(d_out, lr, &mut d_pooled);
        nn::simd::add_assign(&mut d_pooled.data, &d_out.data);
        self.embedding.backward_sgd(&d_pooled, lr * table_scale);
        self.d_pooled = d_pooled;
    }

    /// The engine's cached-encoder payload: the training-time augment
    /// seed, then exactly the DBFZ `pcap-encoder` payload. Unlike the
    /// export it restores a model whose training continues unchanged.
    pub fn write_checkpoint(&self, w: &mut PayloadWriter) {
        w.u64(self.augment_seed);
        self.write_payload(w);
    }

    /// Decode a payload written by [`EncoderModel::write_checkpoint`].
    pub fn read_checkpoint(r: &mut PayloadReader) -> Result<EncoderModel, String> {
        let augment_seed = r.u64()?;
        let mut model = EncoderModel::read_payload(r)?;
        model.augment_seed = augment_seed;
        Ok(model)
    }

    /// Tokenise a packet set for unfrozen training, applying the
    /// model's training-time augmentation when it has one.
    pub fn tokenize_training_batch(&self, records: &[&PacketRecord], epoch: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(self.augment_seed ^ epoch);
        records
            .iter()
            .map(|r| {
                if self.kind == ModelKind::TrafficFormer {
                    // A flow embedder: repeat the augmented packet with
                    // packet-index shifts, like inference.
                    let toks = self.tokenize_packet(r, Some(&mut rng));
                    let mut out = Vec::with_capacity(toks.len() * 5);
                    for pi in 0..5u32 {
                        out.extend(toks.iter().map(|t| (t + (pi << 10)) % VOCAB as u32));
                    }
                    out
                } else {
                    self.tokenize_packet_repeated(r)
                }
            })
            .collect()
    }
}

/// The DBFZ export: tokenizer configuration, token table, residual
/// projection. A model read from DBFZ is the inference export — it
/// encodes bit-identically to the saved model, but the training-time
/// augment seed is not stored and reads back as 0; the engine's encoder
/// cache uses [`EncoderModel::write_checkpoint`], which keeps it.
impl FrozenArtifact for EncoderModel {
    const KIND: &'static str = "pcap-encoder";

    fn write_payload(&self, w: &mut PayloadWriter) {
        self.tokenizer().write_payload(w);
        self.embedding.write_payload(w);
        self.proj.write_payload(w);
    }

    fn read_payload(r: &mut PayloadReader) -> Result<EncoderModel, String> {
        let tokenizer = TokenizerConfig::read_payload(r)?;
        let embedding = Embedding::read_payload(r)?;
        let proj = Dense::read_payload(r)?;
        let dim = tokenizer.kind.dim();
        if embedding.dim() != dim || proj.input_dim() != dim {
            return Err(format!(
                "dimension mismatch: {} expects {}, file has table dim {} / proj in {}",
                tokenizer.kind.name(),
                dim,
                embedding.dim(),
                proj.input_dim()
            ));
        }
        Ok(EncoderModel::from_parts(tokenizer, embedding, proj, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::record::Prepared;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn sample() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 2, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn all_models_tokenize_nonempty() {
        let d = sample();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        for kind in ModelKind::EXTENDED {
            let m = EncoderModel::new(kind, 1);
            let toks = m.tokenize_packet(rec, None);
            assert!(!toks.is_empty(), "{} produced no tokens", kind.name());
            assert!(toks.iter().all(|&t| (t as usize) < VOCAB));
        }
    }

    #[test]
    fn encode_shapes() {
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(8).collect();
        for kind in ModelKind::EXTENDED {
            let m = EncoderModel::new(kind, 1);
            let e = m.encode_packets(&recs);
            assert_eq!((e.rows, e.cols), (8, kind.dim()), "{}", kind.name());
        }
    }

    #[test]
    fn same_flow_packets_share_tokens_for_etbert() {
        // Packets of one flow share SeqNo/AckNo prefixes => token overlap.
        let d = sample();
        let flows = d.flows();
        let (_, idxs) = flows
            .iter()
            .find(|(_, idxs)| idxs.len() >= 6 && d.records[idxs[0]].parsed.transport.is_tcp())
            .expect("a TCP flow with enough packets");
        let m = EncoderModel::new(ModelKind::EtBert, 1);
        let t1: std::collections::HashSet<u32> =
            m.tokenize_packet(&d.records[idxs[2]], None).into_iter().collect();
        let t2: std::collections::HashSet<u32> =
            m.tokenize_packet(&d.records[idxs[4]], None).into_iter().collect();
        let overlap = t1.intersection(&t2).count();
        assert!(overlap >= 1, "flow-mates must share implicit-ID tokens, got {overlap}");
    }

    #[test]
    fn flow_tokenisation_depends_on_order() {
        let d = sample();
        let a = &d.records[0];
        let b = &d.records[1];
        let m = EncoderModel::new(ModelKind::YaTc, 1);
        let t1 = m.tokenize_flow(&[a, b]);
        let t2 = m.tokenize_flow(&[b, a]);
        assert_ne!(t1, t2);
    }

    #[test]
    fn repeat_and_pad_differ() {
        let d = sample();
        let rec = &d.records[0];
        let m = EncoderModel::new(ModelKind::YaTc, 1);
        assert_ne!(m.tokenize_packet_repeated(rec), m.tokenize_packet_padded(rec));
    }

    #[test]
    fn unfrozen_backward_changes_embedding() {
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(4).collect();
        let mut m = EncoderModel::new(ModelKind::EtBert, 1);
        let before = m.embedding.table.clone();
        let batch = m.tokenize_training_batch(&recs, 0);
        let out = m.forward_tokens(&batch);
        let grad = Tensor::from_rows(&vec![vec![1.0; m.dim()]; out.rows]);
        m.backward(&grad, 0.01);
        assert_ne!(m.embedding.table.data, before.data);
    }

    #[test]
    fn yatc_fine_tune_bytes_are_pinned() {
        // Golden digest of an unfrozen YaTC fine-tune that runs the
        // table's sparse Adam well past 17,321 row updates, the point
        // from which both bias corrections are exactly 1.0 — so any
        // optimiser rewrite must keep the trained bytes on both sides
        // of it.
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().collect();
        let mut m = EncoderModel::new(ModelKind::YaTc, 3);
        let mut row_updates = 0usize;
        for step in 0..40usize {
            let batch: Vec<&PacketRecord> =
                (0..32).map(|i| recs[(step * 32 + i) % recs.len()]).collect();
            let tokens = m.tokenize_training_batch(&batch, step as u64);
            let rows: std::collections::HashSet<usize> =
                tokens.iter().flatten().map(|&t| t as usize % VOCAB).collect();
            row_updates += rows.len();
            let mut grad = m.forward_tokens(&tokens);
            for (i, g) in grad.data.iter_mut().enumerate() {
                *g = *g * 0.5 - (i % 3) as f32 * 0.1;
            }
            m.backward(&grad, 2e-3);
        }
        assert!(row_updates > 20_000, "only {row_updates} row updates");
        assert!(m.embedding.table.data.iter().all(|v| v.is_finite()));
        let bytes: Vec<u8> = m
            .embedding
            .table
            .data
            .iter()
            .chain(&m.proj.w.data)
            .chain(&m.proj.b)
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(nn::envelope::fnv64(&bytes), 0xfadf_14e6_9c9e_260e);
    }

    #[test]
    fn fresh_encoder_residual_is_near_identity() {
        // At init the residual branch is small: encoding ≈ pooled
        // random features, so an un-pre-trained encoder is a pure
        // random-feature map (DESIGN.md §4b).
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(4).collect();
        let m = EncoderModel::new(ModelKind::PcapEncoder, 5);
        let batch: Vec<Vec<u32>> = recs.iter().map(|r| m.tokenize_packet_repeated(r)).collect();
        let pooled = m.embedding.forward_inference(&batch);
        let out = m.encode_packets(&recs);
        let mut diff = 0.0f32;
        let mut norm = 0.0f32;
        for (a, b) in out.data.iter().zip(&pooled.data) {
            diff += (a - b) * (a - b);
            norm += b * b;
        }
        assert!(diff.sqrt() < 0.8 * norm.sqrt().max(1e-6), "residual branch too large at init");
    }

    #[test]
    fn encode_tokens_matches_encode_packets() {
        let d = sample();
        let recs: Vec<&PacketRecord> = d.records.iter().take(4).collect();
        let m = EncoderModel::new(ModelKind::EtBert, 6);
        let batch: Vec<Vec<u32>> = recs.iter().map(|r| m.tokenize_packet_repeated(r)).collect();
        assert_eq!(m.encode_tokens(&batch).data, m.encode_packets(&recs).data);
    }

    #[test]
    fn pacrep_tokens_are_position_independent() {
        // Swapping two 2-byte words of the payload must not change the
        // PacRep token multiset (text-style bag of words) while it
        // does change ET-BERT's position-aware tokens.
        let d = sample();
        let rec = d
            .records
            .iter()
            .find(|r| r.parsed.transport.is_tcp() && r.payload().len() >= 8)
            .unwrap();
        let mut swapped = rec.clone();
        let off = swapped.parsed.payload_offset;
        swapped.frame.swap(off, off + 2);
        swapped.frame.swap(off + 1, off + 3);
        let sort = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        let pacrep = EncoderModel::new(ModelKind::PacRep, 1);
        assert_eq!(
            sort(pacrep.tokenize_packet(rec, None)),
            sort(pacrep.tokenize_packet(&swapped, None)),
            "bag-of-words tokens ignore word order"
        );
        let etbert = EncoderModel::new(ModelKind::EtBert, 1);
        assert_ne!(
            etbert.tokenize_packet(rec, None),
            etbert.tokenize_packet(&swapped, None),
            "position-aware tokens must notice the swap"
        );
    }

    #[test]
    fn pert_shares_rows_across_position_buckets() {
        // Two equal words at positions 0 and 1 (same /4 bucket) map to
        // the same PERT token.
        use crate::tokenize::hash_token;
        let salt = ModelKind::Pert.salt();
        assert_eq!(hash_token(0, 42, salt), hash_token(0, 42, salt));
        // positions 0..3 share bucket 0; position 4 starts bucket 1
        let m = EncoderModel::new(ModelKind::Pert, 2);
        let d = sample();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        let toks = m.tokenize_packet(rec, None);
        assert!(!toks.is_empty());
    }

    #[test]
    fn ablation_changes_pcap_encoder_tokens() {
        let d = sample();
        let rec = d.records.iter().find(|r| !r.payload().is_empty()).unwrap();
        let mut m = EncoderModel::new(ModelKind::PcapEncoder, 1);
        let base = m.tokenize_packet(rec, None);
        m.ablation = InputAblation::NoHeader;
        let no_hdr = m.tokenize_packet(rec, None);
        m.ablation = InputAblation::NoPayload;
        let no_pl = m.tokenize_packet(rec, None);
        assert_ne!(base, no_hdr);
        assert_ne!(base, no_pl);
    }
}
