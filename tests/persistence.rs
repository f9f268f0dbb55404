//! Checkpoint persistence: a cached encoder is stored as its binary
//! checkpoint (augment seed + DBFZ export payload) and must come back
//! with identical behaviour, so pre-training can be cached; heads
//! round-trip through their DBFZ export.

use debunk::dataset::record::{PacketRecord, Prepared};
use debunk::debunk_core::artifact::{Artifact, ArtifactCache};
use debunk::encoders::{EncoderModel, ModelKind};
use debunk::nn::frozen::FrozenArtifact;
use debunk::nn::{Mlp, Tensor};
use debunk::traffic_synth::{DatasetKind, DatasetSpec};

fn prepared() -> Prepared {
    let trace = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 3, flows_per_class: 2 }.generate();
    Prepared::from_trace(&trace)
}

/// An encoder payload as cached before the binary checkpoint (serde
/// JSON of the model), cut down to one table entry.
const JSON_ERA: &[u8] = b"{\"kind\":\"YaTc\",\"embedding\":{\"table\":{\"rows\":1,\"cols\":1,\"data\":[0.5]}},\"augment_seed\":7}";

fn restore(enc: &EncoderModel) -> EncoderModel {
    EncoderModel::from_bytes(&enc.to_bytes()).expect("valid checkpoint")
}

#[test]
fn encoder_checkpoint_round_trips() {
    let data = prepared();
    let recs: Vec<&PacketRecord> = data.records.iter().take(8).collect();
    // YaTC is the narrowest analogue — keeps the checkpoint small
    let enc = EncoderModel::new(ModelKind::YaTc, 9);
    let bytes = enc.to_bytes();
    let restored = EncoderModel::from_bytes(&bytes).expect("valid checkpoint");
    assert_eq!(restored.kind, ModelKind::YaTc);
    assert_eq!(restored.to_bytes(), bytes, "byte-stable");
    let a = enc.encode_packets(&recs);
    let b = restored.encode_packets(&recs);
    assert_eq!(a.data, b.data, "restored encoder must embed identically");
    let flows = vec![recs[..3].to_vec(), recs[3..].to_vec()];
    assert_eq!(enc.encode_flows(&flows).data, restored.encode_flows(&flows).data);
}

#[test]
fn checkpoint_keeps_the_augment_seed() {
    // TrafficFormer randomises IPs/ports at train time from its augment
    // seed; a restored encoder must draw the same training batches.
    let data = prepared();
    let recs: Vec<&PacketRecord> = data.records.iter().take(8).collect();
    let enc = EncoderModel::new(ModelKind::TrafficFormer, 5);
    let restored = restore(&enc);
    for epoch in [0, 3] {
        assert_eq!(
            restored.tokenize_training_batch(&recs, epoch),
            enc.tokenize_training_batch(&recs, epoch),
            "epoch {epoch}"
        );
    }
}

#[test]
fn corrupted_checkpoint_rejected() {
    let enc = EncoderModel::new(ModelKind::YaTc, 2);
    let good = enc.to_bytes();
    assert!(EncoderModel::from_bytes(JSON_ERA).is_err(), "JSON-era payload");
    assert!(EncoderModel::from_bytes(b"not a checkpoint").is_err(), "garbage");
    assert!(EncoderModel::from_bytes(&[]).is_err(), "empty");
    assert!(EncoderModel::from_bytes(&good[..good.len() - 1]).is_err(), "truncated");
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(EncoderModel::from_bytes(&trailing).is_err(), "trailing bytes");
    // The export alone lacks the augment seed, so it is not a checkpoint.
    assert!(EncoderModel::from_bytes(&enc.to_frozen_bytes()).is_err(), "DBFZ file");
}

/// Artifact under the encoder stage holding arbitrary bytes, to plant a
/// JSON-era cache file exactly where the encoder artifact lives.
struct RawEncoderPayload(Vec<u8>);

impl Artifact for RawEncoderPayload {
    const STAGE: &'static str = EncoderModel::STAGE;
    fn to_bytes(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn from_bytes(bytes: &[u8]) -> Result<RawEncoderPayload, String> {
        Ok(RawEncoderPayload(bytes.to_vec()))
    }
}

#[test]
fn json_era_cache_file_is_rebuilt() {
    let dir = std::env::temp_dir().join("debunk-persistence-json-era");
    std::fs::remove_dir_all(&dir).ok();
    let parts = ["model=YaTC;seed=1"];
    ArtifactCache::new(Some(dir.clone())).store(&parts, RawEncoderPayload(JSON_ERA.to_vec()));

    let cache = ArtifactCache::new(Some(dir.clone()));
    assert!(cache.lookup::<EncoderModel>(&parts).is_none(), "JSON-era file refused");
    let built =
        cache.get_or_build::<EncoderModel>(&parts, || EncoderModel::new(ModelKind::YaTc, 1));
    assert_eq!(cache.stats().builds, 1, "refused file is rebuilt");
    let warm = ArtifactCache::new(Some(dir.clone()));
    let loaded = warm.lookup::<EncoderModel>(&parts).expect("rebuilt file decodes");
    assert_eq!(loaded.to_bytes(), built.to_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mlp_head_round_trips() {
    let x = Tensor::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 0.0]]);
    let y = [1u16, 1, 0, 0];
    let mut mlp = Mlp::new(&[2, 8, 2], 5);
    mlp.fit(&x, &y, 200, 4, 0.05, 1);
    let restored = Mlp::from_frozen_bytes(&mlp.to_frozen_bytes()).unwrap();
    assert_eq!(restored.predict(&x), mlp.predict(&x));
    assert_eq!(restored.logits(&x).data, mlp.logits(&x).data);
}

#[test]
fn checkpoint_preserves_pretrained_weights_not_just_shape() {
    // Two encoders with different seeds checkpoint to different bytes —
    // the checkpoint carries weights, not merely architecture.
    let a = EncoderModel::new(ModelKind::YaTc, 1).to_bytes();
    let b = EncoderModel::new(ModelKind::YaTc, 2).to_bytes();
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b);
}

#[test]
fn restored_encoder_remains_trainable() {
    // Optimiser state is not checkpointed; after a load, training must
    // still work (lazy initialisation) and match the original's step.
    let mut enc = EncoderModel::new(ModelKind::YaTc, 4);
    let mut restored = restore(&enc);
    let batch = vec![vec![1u32, 2, 3], vec![4, 5]];
    let out = restored.forward_tokens(&batch);
    let grad = Tensor::from_rows(&vec![vec![0.1; restored.dim()]; out.rows]);
    restored.backward(&grad, 0.01);
    let out2 = restored.encode_tokens(&batch);
    assert_ne!(out.data, out2.data, "training step must change the encoding");
    enc.forward_tokens(&batch);
    enc.backward(&grad, 0.01);
    assert_eq!(enc.encode_tokens(&batch).data, out2.data, "same step as before the round trip");
}
