//! Frozen model bundles: the on-disk unit `serve run` loads. A bundle
//! directory holds one frozen artifact per verdict model plus the
//! label table:
//!
//! ```text
//! models/
//!   encoder.frozen        frozen Pcap-Encoder (tokenizer + weights)
//!   encoder_int8.frozen   optional int8-quantised encoder (--quant int8)
//!   head.frozen           frozen MLP classification head over encodings
//!   forest.frozen         fitted random forest  (39 header features)
//!   gbdt.frozen           fitted gradient boosting
//!   knn.frozen            fitted k-NN
//!   labels.txt            class names, one per line, indexed by label id
//! ```
//!
//! Every `.frozen` file is a checksummed [`nn::frozen`] envelope;
//! loading needs no training code and refuses corrupt bytes.

use dataset::record::{PacketRecord, Prepared};
use encoders::model::{EncoderModel, ModelKind};
use encoders::FrozenInt8Encoder;
use nn::frozen::FrozenArtifact;
use nn::Mlp;
use shallow::features::{extract_features, FeatureConfig, N_FEATURES};
use shallow::forest::{ForestParams, RandomForest};
use shallow::gbdt::{GbdtParams, GradientBoosting};
use shallow::KnnClassifier;
use std::io::Write;
use std::path::Path;

/// Feature configuration baked into serving: IP octets excluded, so
/// verdicts rest on header behaviour rather than the explicit flow-ID
/// shortcut the paper debunks (§6.1 "w/o IP addr").
pub const SERVING_FEATURES: FeatureConfig = FeatureConfig { with_ip: false };

/// Hidden width of the exported classification head.
const HEAD_HIDDEN: usize = 32;

/// A complete set of frozen verdict models.
pub struct ModelBundle {
    /// Frozen packet/flow encoder.
    pub encoder: EncoderModel,
    /// Optional int8-quantised encoder (`serve export --quant int8`).
    /// Never substituted for the f32 encoder implicitly — a policy must
    /// route to `encoder_int8` explicitly to use it.
    pub encoder_int8: Option<FrozenInt8Encoder>,
    /// Classification head over encoder outputs.
    pub head: Mlp,
    /// Random forest over the 39 header features.
    pub forest: RandomForest,
    /// Gradient boosting over the 39 header features.
    pub gbdt: GradientBoosting,
    /// k-NN over the 39 header features.
    pub knn: KnnClassifier,
    /// Class names, indexed by label.
    pub labels: Vec<String>,
}

/// Per-packet feature rows for a record set.
pub(crate) fn feature_rows(records: &[PacketRecord]) -> Vec<[f32; N_FEATURES]> {
    records.iter().map(|r| extract_features(r, SERVING_FEATURES)).collect()
}

impl ModelBundle {
    /// Train a bundle on a prepared (labelled) trace. Deliberately
    /// small budgets: `serve export` exists to produce a coherent,
    /// deterministic bundle for serving pipelines and smoke tests, not
    /// to reproduce the paper's accuracy tables.
    pub fn train(prepared: &Prepared, seed: u64) -> ModelBundle {
        assert!(!prepared.records.is_empty(), "empty training trace");
        let n_classes = prepared.classes.len().max(1);
        let mut labels = vec![String::new(); n_classes];
        for c in &prepared.classes {
            if let Some(slot) = labels.get_mut(usize::from(c.class)) {
                *slot = c.name.clone();
            }
        }
        let y: Vec<u16> = prepared.records.iter().map(|r| r.class).collect();
        let rows = feature_rows(&prepared.records);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let forest_params = ForestParams { n_trees: 8, ..Default::default() };
        let forest = RandomForest::fit(&refs, &y, n_classes, forest_params, seed);
        let gbdt_params = GbdtParams { rounds: 4, ..Default::default() };
        let gbdt = GradientBoosting::fit(&refs, &y, n_classes, gbdt_params);
        let knn = KnnClassifier::fit(&refs, &y, 5);

        let encoder = EncoderModel::new(ModelKind::PcapEncoder, seed);
        let recs: Vec<&PacketRecord> = prepared.records.iter().collect();
        let x = encoder.encode_packets(&recs);
        let mut head = Mlp::new(&[encoder.dim(), HEAD_HIDDEN, n_classes], seed ^ 0x5eed);
        head.fit(&x, &y, 4, 32, 0.01, seed);
        ModelBundle { encoder, encoder_int8: None, head, forest, gbdt, knn, labels }
    }

    /// Attach an int8-quantised copy of the f32 encoder, making the
    /// `encoder_int8` policy target servable. Quantisation is
    /// deterministic, so calling this on equal bundles yields equal
    /// artifacts.
    pub fn quantize_encoder(&mut self) {
        self.encoder_int8 = Some(self.encoder.quantize());
    }

    /// Write every artifact under `dir` (created if needed). Each file,
    /// `labels.txt` included, is published atomically
    /// ([`nn::envelope::AtomicFile`]).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.encoder.save_frozen(&dir.join("encoder.frozen"))?;
        if let Some(q) = &self.encoder_int8 {
            q.save_frozen(&dir.join("encoder_int8.frozen"))?;
        }
        self.head.save_frozen(&dir.join("head.frozen"))?;
        self.forest.save_frozen(&dir.join("forest.frozen"))?;
        self.gbdt.save_frozen(&dir.join("gbdt.frozen"))?;
        self.knn.save_frozen(&dir.join("knn.frozen"))?;
        let mut f = nn::envelope::AtomicFile::create(&dir.join("labels.txt"))?;
        for name in &self.labels {
            writeln!(f, "{name}")?;
        }
        f.commit()
    }

    /// Load a bundle from `dir`. Any missing, corrupt or mutually
    /// inconsistent artifact is an error — a half-usable bundle must
    /// never serve.
    pub fn load(dir: &Path) -> Result<ModelBundle, String> {
        let ctx = |name: &str| {
            let p = dir.join(name);
            move |e: nn::frozen::FrozenError| format!("{}: {e}", p.display())
        };
        let encoder = EncoderModel::load_frozen(&dir.join("encoder.frozen"))
            .map_err(ctx("encoder.frozen"))?;
        // Optional artifact: absent is fine (the `encoder_int8` target
        // is then refused up front), but a present-and-corrupt file
        // fails the whole load like any other.
        let int8_path = dir.join("encoder_int8.frozen");
        let encoder_int8 = if int8_path.exists() {
            Some(FrozenInt8Encoder::load_frozen(&int8_path).map_err(ctx("encoder_int8.frozen"))?)
        } else {
            None
        };
        let head = Mlp::load_frozen(&dir.join("head.frozen")).map_err(ctx("head.frozen"))?;
        let forest =
            RandomForest::load_frozen(&dir.join("forest.frozen")).map_err(ctx("forest.frozen"))?;
        let gbdt =
            GradientBoosting::load_frozen(&dir.join("gbdt.frozen")).map_err(ctx("gbdt.frozen"))?;
        let knn = KnnClassifier::load_frozen(&dir.join("knn.frozen")).map_err(ctx("knn.frozen"))?;
        let labels_path = dir.join("labels.txt");
        let text = std::fs::read_to_string(&labels_path)
            .map_err(|e| format!("{}: {e}", labels_path.display()))?;
        let labels: Vec<String> = text.lines().map(str::to_string).collect();
        if labels.is_empty() {
            return Err(format!("{}: no labels", labels_path.display()));
        }
        if head.input_dim() != encoder.dim() {
            return Err(format!(
                "bundle mismatch: head expects {} inputs, encoder emits {}",
                head.input_dim(),
                encoder.dim()
            ));
        }
        if head.n_classes() != labels.len() {
            return Err(format!(
                "bundle mismatch: head has {} classes, labels.txt has {}",
                head.n_classes(),
                labels.len()
            ));
        }
        if let Some(q) = &encoder_int8 {
            if q.kind() != encoder.kind || q.dim() != encoder.dim() {
                return Err(format!(
                    "bundle mismatch: int8 encoder is {} (dim {}), f32 encoder is {} (dim {})",
                    q.kind().name(),
                    q.dim(),
                    encoder.kind.name(),
                    encoder.dim()
                ));
            }
        }
        Ok(ModelBundle { encoder, encoder_int8, head, forest, gbdt, knn, labels })
    }

    /// Human-readable class name for a label.
    pub fn class_name(&self, label: u16) -> &str {
        self.labels.get(usize::from(label)).map_or("?", String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SynthSpec;

    fn tiny_bundle() -> (ModelBundle, Prepared) {
        let prepared = Prepared::from_trace(&SynthSpec::parse("iscx:4:1").unwrap().trace());
        (ModelBundle::train(&prepared, 42), prepared)
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let (bundle, prepared) = tiny_bundle();
        let dir = std::env::temp_dir().join("debunk-bundle-test");
        std::fs::remove_dir_all(&dir).ok();
        bundle.save(&dir).expect("save");
        let back = ModelBundle::load(&dir).expect("load");
        assert_eq!(back.labels, bundle.labels);
        let recs: Vec<&PacketRecord> = prepared.records.iter().take(8).collect();
        let a = bundle.encoder.encode_packets(&recs);
        let b = back.encoder.encode_packets(&recs);
        assert_eq!(a.data, b.data, "encoder bitwise");
        assert_eq!(bundle.head.predict(&a), back.head.predict(&b), "head bitwise");
        let rows = feature_rows(&prepared.records[..8.min(prepared.records.len())]);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        assert_eq!(bundle.forest.predict(&refs), back.forest.predict(&refs));
        assert_eq!(bundle.gbdt.predict(&refs), back.gbdt.predict(&refs));
        assert_eq!(bundle.knn.predict(&refs), back.knn.predict(&refs));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_fails_the_whole_load() {
        let (bundle, _) = tiny_bundle();
        let dir = std::env::temp_dir().join("debunk-bundle-corrupt-test");
        std::fs::remove_dir_all(&dir).ok();
        bundle.save(&dir).expect("save");
        let path = dir.join("gbdt.frozen");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = match ModelBundle::load(&dir) {
            Ok(_) => panic!("corrupt bundle must refuse"),
            Err(e) => e,
        };
        assert!(err.contains("gbdt.frozen"), "error names the artifact: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_artifact_is_an_error() {
        let (bundle, _) = tiny_bundle();
        let dir = std::env::temp_dir().join("debunk-bundle-missing-test");
        std::fs::remove_dir_all(&dir).ok();
        bundle.save(&dir).expect("save");
        std::fs::remove_file(dir.join("knn.frozen")).unwrap();
        assert!(ModelBundle::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
