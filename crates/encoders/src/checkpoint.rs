//! Pre-training provenance: everything that determines a pre-trained
//! encoder's weights (model kind, pretext phases, budget, seed), as one
//! canonical string. The experiment engine caches encoders under it and
//! checks it on every load, so a cached encoder is always the one an
//! identical pre-training run would produce.

use crate::pcap_encoder::{PcapEncoderVariant, PretrainBudget};

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
    /// run, used as the encoder's cache key.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut qa_only = key(1);
        qa_only.variant = Some(PcapEncoderVariant::QaOnly);
        assert_ne!(qa_only.provenance(), key(1).provenance());
    }
}
