//! The tokenisation half of an encoder. A [`TokenizerConfig`] is pure
//! configuration — model kind plus input ablation — and is what a
//! frozen export stores ahead of the weights; [`crate::EncoderModel`]
//! and the int8 [`crate::FrozenInt8Encoder`] both delegate all
//! tokenisation here, so their inputs cannot drift apart.

use crate::model::ModelKind;
use crate::tokenize::{
    byte_tokens, hash_token, ip_bytes_anonymised, ip_bytes_randomised, multimodal_tokens,
    netfound_field_tokens, patch_tokens, transport_bytes_no_ports, word_tokens, VOCAB,
};
use dataset::record::PacketRecord;
use dataset::transform::{ablated_view, InputAblation};
use nn::envelope::{PayloadReader, PayloadWriter};
use rand::rngs::StdRng;

/// Everything that determines how packets become token sequences:
/// which model's input-preparation rules apply, and which input
/// ablation (Table 7) is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenizerConfig {
    /// Which model's tokenisation rules to use.
    pub kind: ModelKind,
    /// Input ablation applied before tokenisation.
    pub ablation: InputAblation,
}

impl TokenizerConfig {
    /// Base (un-ablated) tokenizer for a model.
    pub fn new(kind: ModelKind) -> TokenizerConfig {
        TokenizerConfig { kind, ablation: InputAblation::Base }
    }

    /// Serialise as the model name and the ablation's cache tag — the
    /// head of every encoder export payload.
    pub fn write_payload(&self, w: &mut PayloadWriter) {
        w.str(self.kind.name());
        w.str(self.ablation.cache_tag());
    }

    /// Decode a config written by [`TokenizerConfig::write_payload`].
    pub fn read_payload(r: &mut PayloadReader) -> Result<TokenizerConfig, String> {
        let kind_name = r.str()?;
        let kind = ModelKind::EXTENDED
            .into_iter()
            .find(|k| k.name() == kind_name)
            .ok_or_else(|| format!("unknown model '{kind_name}'"))?;
        let ablation_tag = r.str()?;
        let ablation = [
            InputAblation::Base,
            InputAblation::NoIpAddr,
            InputAblation::NoHeader,
            InputAblation::NoPayload,
        ]
        .into_iter()
        .find(|a| a.cache_tag() == ablation_tag)
        .ok_or_else(|| format!("unknown ablation '{ablation_tag}'"))?;
        Ok(TokenizerConfig { kind, ablation })
    }

    /// Tokenise one packet according to the model's input-preparation
    /// rules. `augment` enables training-time randomisation where the
    /// original paper uses it (TrafficFormer).
    pub fn tokenize_packet(&self, rec: &PacketRecord, augment: Option<&mut StdRng>) -> Vec<u32> {
        let mut out = Vec::with_capacity(96);
        self.tokenize_packet_into(rec, augment, &mut out);
        out
    }

    /// [`TokenizerConfig::tokenize_packet`] into a reusable buffer
    /// (cleared first) — the batched inference path re-tokenises into
    /// the same buffers every request, so steady state allocates no
    /// token storage.
    pub fn tokenize_packet_into(
        &self,
        rec: &PacketRecord,
        augment: Option<&mut StdRng>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.tokenize_packet_append(rec, augment, out);
    }

    fn tokenize_packet_append(
        &self,
        rec: &PacketRecord,
        augment: Option<&mut StdRng>,
        out: &mut Vec<u32>,
    ) {
        let salt = self.kind.salt();
        match self.kind {
            ModelKind::EtBert => {
                let bytes = self.ablate(rec, transport_bytes_no_ports(rec));
                word_tokens(&bytes, 48, salt, out);
            }
            ModelKind::YaTc => {
                let bytes = self.ablate(rec, ip_bytes_anonymised(rec));
                patch_tokens(&bytes, 40, salt, out);
            }
            ModelKind::NetMamba => {
                let bytes = self.ablate(rec, ip_bytes_anonymised(rec));
                byte_tokens(&bytes, 64, salt, out);
            }
            ModelKind::TrafficFormer => {
                let bytes = match augment {
                    Some(rng) => ip_bytes_randomised(rec, rng),
                    None => rec.frame[rec.parsed.ip_offset..].to_vec(),
                };
                let bytes = self.ablate(rec, bytes);
                word_tokens(&bytes, 72, salt, out);
            }
            ModelKind::NetFound => {
                netfound_field_tokens(rec, salt, out);
                multimodal_tokens(rec.from_client, 0.0, salt, out);
                let payload = rec.payload();
                word_tokens(&payload[..payload.len().min(12)], 6, salt + 1, out);
            }
            ModelKind::PcapEncoder => {
                // Byte-level position-aware tokens: each header byte is
                // its own token, so field values generalise across
                // packets (the analogue of T5's copyable hex words).
                let view = ablated_view(rec, self.ablation);
                let start = if self.ablation == InputAblation::NoHeader {
                    0
                } else {
                    rec.parsed.ip_offset.min(view.len())
                };
                byte_tokens(&view[start..], 64, salt, out);
            }
            ModelKind::Pert => {
                // ALBERT shares parameters across layers; the analogue
                // shares token rows across coarse position buckets.
                let bytes = self.ablate(rec, transport_bytes_no_ports(rec));
                for (i, w) in bytes.chunks(2).take(48).enumerate() {
                    let val = if w.len() == 2 {
                        u32::from(u16::from_be_bytes([w[0], w[1]]))
                    } else {
                        u32::from(w[0]) << 16
                    };
                    out.push(hash_token((i / 4) as u32, val, salt));
                }
            }
            ModelKind::PacRep => {
                // Off-the-shelf text encoder: byte bigrams as "words",
                // no positional alignment with packet structure.
                let bytes = self.ablate(rec, ip_bytes_anonymised(rec));
                for w in bytes.chunks(2).take(64) {
                    let val = if w.len() == 2 {
                        u32::from(u16::from_be_bytes([w[0], w[1]]))
                    } else {
                        u32::from(w[0]) << 16
                    };
                    out.push(hash_token(0, val, salt));
                }
            }
            ModelKind::Ptu => {
                // PTU removes IP address, MAC address and checksum
                // (App. A.2); otherwise ET-BERT-style word tokens.
                let mut bytes = ip_bytes_anonymised(rec);
                let tr = rec.parsed.transport_offset - rec.parsed.ip_offset;
                if rec.parsed.transport.is_tcp() && bytes.len() >= tr + 18 {
                    bytes[tr + 16..tr + 18].fill(0); // TCP checksum
                }
                let bytes = self.ablate(rec, bytes);
                word_tokens(&bytes, 56, salt, out);
            }
        }
    }

    fn ablate(&self, rec: &PacketRecord, default_bytes: Vec<u8>) -> Vec<u8> {
        match self.ablation {
            InputAblation::Base => default_bytes,
            _ => ablated_view(rec, self.ablation),
        }
    }

    /// Tokenise a multi-packet input (flow tasks). Flow embedders mix
    /// the packet index into the position; Pcap-Encoder is packet-level
    /// and callers use majority voting instead.
    pub fn tokenize_flow(&self, packets: &[&PacketRecord]) -> Vec<u32> {
        let mut out = Vec::new();
        self.tokenize_flow_into(packets, &mut out);
        out
    }

    /// [`TokenizerConfig::tokenize_flow`] into a reusable buffer
    /// (cleared first). Each packet's tokens are appended in place and
    /// then position-shifted, so no per-packet temporary is needed.
    pub fn tokenize_flow_into(&self, packets: &[&PacketRecord], out: &mut Vec<u32>) {
        out.clear();
        for (pi, rec) in packets.iter().enumerate() {
            let start = out.len();
            self.tokenize_packet_append(rec, None, out);
            let shift = (pi as u32) << 10;
            for t in &mut out[start..] {
                *t = (*t + shift) % VOCAB as u32;
            }
        }
    }

    /// Packet-level input for flow embedders: the paper *Repeats* the
    /// packet 5 times to form an artificial flow (§5, footnote 11).
    pub fn tokenize_packet_repeated(&self, rec: &PacketRecord) -> Vec<u32> {
        let mut out = Vec::new();
        self.tokenize_packet_repeated_into(rec, &mut out);
        out
    }

    /// [`TokenizerConfig::tokenize_packet_repeated`] into a reusable
    /// buffer (cleared first).
    pub fn tokenize_packet_repeated_into(&self, rec: &PacketRecord, out: &mut Vec<u32>) {
        if self.kind.is_flow_embedder() {
            let reps = [rec; 5];
            self.tokenize_flow_into(&reps, out);
        } else {
            self.tokenize_packet_into(rec, None, out);
        }
    }

    /// Alternative Padding strategy (ablation for footnote 11): the
    /// packet once, then four all-zero padding packets.
    pub fn tokenize_packet_padded(&self, rec: &PacketRecord) -> Vec<u32> {
        if self.kind.is_flow_embedder() {
            let mut out = self.tokenize_packet(rec, None);
            for pi in 1..5u32 {
                // zero-packet tokens: position-only hashes
                for i in 0..16u32 {
                    out.push(hash_token(i + (pi << 10), 0, self.kind.salt()));
                }
            }
            out
        } else {
            self.tokenize_packet(rec, None)
        }
    }
}
