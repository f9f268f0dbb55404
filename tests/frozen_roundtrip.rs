//! Cross-crate frozen-export contract, exercised through the `debunk`
//! facade the way a downstream consumer would: every exportable model
//! must round-trip bitwise through its DBFZ envelope, and every
//! envelope must refuse corruption instead of deserialising garbage.

use debunk::dataset::record::Prepared;
use debunk::encoders::model::{EncoderModel, ModelKind};
use debunk::nn::frozen::FrozenArtifact;
use debunk::nn::{Mlp, Tensor};
use debunk::shallow::gbdt::{GbdtParams, GradientBoosting};
use debunk::shallow::KnnClassifier;
use debunk::traffic_synth::{DatasetKind, DatasetSpec};

/// Small deterministic fixture shared by the encoder cases.
fn prepared() -> Prepared {
    let trace = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 3, flows_per_class: 1 }.generate();
    Prepared::from_trace(&trace)
}

/// Deterministic feature rows without pulling in `rand`.
fn rows(n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<u16>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = (i % 3) as u16;
        x.push((0..d).map(|j| ((i * 31 + j * 7) % 13) as f32 + f32::from(c)).collect());
        y.push(c);
    }
    (x, y)
}

#[test]
fn mlp_round_trips_bitwise_through_the_facade() {
    let mlp = Mlp::new(&[8, 16, 4], 7);
    let bytes = mlp.to_frozen_bytes();
    let back = Mlp::from_frozen_bytes(&bytes).expect("round trip");
    assert_eq!(bytes, back.to_frozen_bytes(), "byte-stable");
    let mut x = Tensor::zeros(5, 8);
    for (i, v) in x.data.iter_mut().enumerate() {
        *v = (i as f32).sin();
    }
    assert_eq!(mlp.logits(&x).data, back.logits(&x).data, "logits bitwise");
}

#[test]
fn pcap_encoder_round_trips_bitwise_through_the_facade() {
    let prep = prepared();
    let frozen = EncoderModel::new(ModelKind::PcapEncoder, 11);
    let bytes = frozen.to_frozen_bytes();
    let back = EncoderModel::from_frozen_bytes(&bytes).expect("round trip");
    let recs: Vec<_> = prep.records.iter().take(16).collect();
    assert_eq!(
        frozen.encode_packets(&recs).data,
        back.encode_packets(&recs).data,
        "encodings bitwise"
    );
}

#[test]
fn gbdt_and_knn_round_trip_bitwise_through_the_facade() {
    let (x, y) = rows(120, 6);
    let refs: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
    let gbdt = GradientBoosting::fit(&refs, &y, 3, GbdtParams::default());
    let back = GradientBoosting::from_frozen_bytes(&gbdt.to_frozen_bytes()).expect("gbdt");
    for r in &refs {
        let (a, b) = (gbdt.scores_one(r), back.scores_one(r));
        let a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "gbdt scores bitwise");
    }
    let knn = KnnClassifier::fit(&refs, &y, 5);
    let back = KnnClassifier::from_frozen_bytes(&knn.to_frozen_bytes()).expect("knn");
    assert_eq!(knn.predict(&refs), back.predict(&refs), "knn predictions");
}

#[test]
fn every_envelope_refuses_corruption() {
    let (x, y) = rows(60, 5);
    let refs: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
    let envelopes: Vec<(&str, Vec<u8>)> = vec![
        ("mlp", Mlp::new(&[4, 8, 3], 1).to_frozen_bytes()),
        ("encoder", EncoderModel::new(ModelKind::PcapEncoder, 1).to_frozen_bytes()),
        ("gbdt", GradientBoosting::fit(&refs, &y, 3, GbdtParams::default()).to_frozen_bytes()),
        ("knn", KnnClassifier::fit(&refs, &y, 3).to_frozen_bytes()),
    ];
    let parse = |name: &str, bytes: &[u8]| -> Result<(), String> {
        match name {
            "mlp" => Mlp::from_frozen_bytes(bytes).map(drop),
            "encoder" => EncoderModel::from_frozen_bytes(bytes).map(drop),
            "gbdt" => GradientBoosting::from_frozen_bytes(bytes).map(drop),
            _ => KnnClassifier::from_frozen_bytes(bytes).map(drop),
        }
    };
    for (name, bytes) in &envelopes {
        parse(name, bytes).unwrap_or_else(|e| panic!("{name} pristine bytes: {e}"));
        // A flip anywhere — magic, version, kind, payload or checksum —
        // must be rejected. The encoder envelope is tens of MB (65536-row
        // embedding) and every rejected parse re-checksums the whole
        // buffer, so sample a fixed set of positions across the regions
        // rather than sweeping every byte.
        let n = bytes.len();
        let positions = [0, 1, 3, 5, 9, 13, n / 4, n / 2, 3 * n / 4, n - 9, n - 5, n - 1];
        for pos in positions {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(parse(name, &bad).is_err(), "{name}: flip at byte {pos}/{n} was accepted");
        }
        // Truncation at any point must also be rejected.
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(parse(name, &bytes[..cut]).is_err(), "{name}: truncation at {cut}");
        }
    }
}
