//! Encoder checkpointing: a serialisable wrapper that pairs a trained
//! [`EncoderModel`] with the *provenance* of its pre-training (model
//! kind, pretext phases, budget, seed), plus a stable cache key so an
//! orchestrator can look a checkpoint up on disk and trust that it was
//! produced by an identical pre-training run.

use crate::model::EncoderModel;
use crate::pcap_encoder::{PcapEncoderVariant, PretrainBudget};
use std::path::Path;
use traffic_synth::stream::fnv64;

/// Everything that determines the weights of a pre-trained encoder.
/// Two [`PretrainKey`]s with equal [`PretrainKey::provenance`] strings
/// describe bit-identical pre-training runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainKey {
    /// Model name (e.g. "ET-BERT").
    pub model: String,
    /// Whether the pretext phases ran at all.
    pub pretrained: bool,
    /// Pcap-Encoder phase variant (Table 11), if applicable.
    pub variant: Option<PcapEncoderVariant>,
    /// Pre-training budget.
    pub budget: PretrainBudget,
    /// Pre-training seed.
    pub seed: u64,
}

impl PretrainKey {
    /// Canonical provenance string — the identity of the pre-training
    /// run. Stored inside checkpoints and compared on load.
    pub fn provenance(&self) -> String {
        format!(
            "model={};pretrained={};variant={};corpus={};ae={};qa={};lr={:?};seed={}",
            self.model,
            self.pretrained,
            self.variant.map(|v| v.name()).unwrap_or("-"),
            self.budget.corpus_flows,
            self.budget.ae_epochs,
            self.budget.qa_epochs,
            self.budget.lr,
            self.seed,
        )
    }

    /// Stable cache key for this pre-training run.
    pub fn cache_key(&self) -> u64 {
        fnv64(&[self.provenance().as_bytes()])
    }

    /// File name under which the checkpoint is stored in a cache dir.
    pub fn file_name(&self) -> String {
        let slug: String = self
            .model
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        format!("enc-{slug}-{:016x}.json", self.cache_key())
    }
}

/// A checkpoint on disk: provenance + weights. The provenance string is
/// verified on load so a stale or foreign file can never masquerade as
/// the requested pre-training run.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct EncoderCheckpoint {
    /// Provenance string of the producing [`PretrainKey`].
    pub provenance: String,
    /// The trained encoder.
    pub model: EncoderModel,
}

/// Errors from [`load_checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON.
    Parse(serde_json::Error),
    /// The file's provenance does not match the requested key.
    ProvenanceMismatch {
        /// Provenance the caller asked for.
        expected: String,
        /// Provenance stored in the file.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::ProvenanceMismatch { expected, found } => {
                write!(f, "checkpoint provenance mismatch: expected `{expected}`, found `{found}`")
            }
        }
    }
}
impl std::error::Error for CheckpointError {}

/// Publish `model` at `path` as a provenance-stamped checkpoint. The
/// write is atomic, so concurrent runs sharing a cache dir never
/// observe a half-written checkpoint.
pub fn save_checkpoint(
    path: &Path,
    key: &PretrainKey,
    model: &EncoderModel,
) -> std::io::Result<()> {
    let ckpt = EncoderCheckpoint { provenance: key.provenance(), model: model.clone() };
    let json = serde_json::to_string(&ckpt).expect("checkpoint serialises");
    nn::envelope::atomic_write(path, json.as_bytes())
}

/// Load a checkpoint from `path`, verifying it matches `key`.
pub fn load_checkpoint(path: &Path, key: &PretrainKey) -> Result<EncoderModel, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
    let ckpt: EncoderCheckpoint = serde_json::from_str(&text).map_err(CheckpointError::Parse)?;
    let expected = key.provenance();
    if ckpt.provenance != expected {
        return Err(CheckpointError::ProvenanceMismatch { expected, found: ckpt.provenance });
    }
    Ok(ckpt.model)
}

/// Export the checkpoint at `ckpt_path` (verified against `key`) as a
/// frozen inference-only file at `out_path` — the bridge from the
/// training world (JSON checkpoints with provenance) to the serving
/// world (binary weights, no training code needed to load).
pub fn export_frozen(
    ckpt_path: &Path,
    key: &PretrainKey,
    out_path: &Path,
) -> Result<(), CheckpointError> {
    use nn::frozen::FrozenArtifact;
    let model = load_checkpoint(ckpt_path, key)?;
    model.freeze().save_frozen(out_path).map_err(CheckpointError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;

    fn key(seed: u64) -> PretrainKey {
        PretrainKey {
            model: "YaTC".into(),
            pretrained: true,
            variant: None,
            budget: PretrainBudget::default(),
            seed,
        }
    }

    #[test]
    fn provenance_distinguishes_runs() {
        assert_ne!(key(1).provenance(), key(2).provenance());
        assert_ne!(key(1).cache_key(), key(2).cache_key());
        let mut qa_only = key(1);
        qa_only.variant = Some(PcapEncoderVariant::QaOnly);
        assert_ne!(qa_only.provenance(), key(1).provenance());
    }

    #[test]
    fn file_name_is_filesystem_safe() {
        let mut k = key(3);
        k.model = "Pcap-Encoder".into();
        let name = k.file_name();
        assert!(name.starts_with("enc-pcap_encoder-"));
        assert!(name.ends_with(".json"));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'));
    }

    #[test]
    fn checkpoint_round_trips_and_verifies_provenance() {
        let dir = std::env::temp_dir().join("debunk-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(9);
        let path = dir.join(k.file_name());
        let model = EncoderModel::new(ModelKind::YaTc, 9);
        save_checkpoint(&path, &k, &model).unwrap();
        let restored = load_checkpoint(&path, &k).unwrap();
        assert_eq!(restored.to_json(), model.to_json());
        // a different key must be rejected
        let other = key(10);
        assert!(matches!(
            load_checkpoint(&path, &other),
            Err(CheckpointError::ProvenanceMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
