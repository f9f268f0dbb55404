//! End-to-end integration tests spanning all workspace crates:
//! generate → pcap round-trip → clean → split → features → models →
//! metrics.

use debunk::dataset::clean::clean_trace;
use debunk::dataset::record::Prepared;
use debunk::dataset::split::{balanced_undersample, kfold, per_flow_split, per_packet_split};
use debunk::dataset::Task;
use debunk::debunk_core::metrics::{accuracy, macro_f1};
use debunk::encoders::{EncoderModel, ModelKind};
use debunk::net_packet::pcap;
use debunk::shallow::features::{extract_features, FeatureConfig};
use debunk::shallow::forest::{ForestParams, RandomForest};
use debunk::traffic_synth::{DatasetKind, DatasetSpec};
use std::collections::HashSet;

fn small_trace(kind: DatasetKind, seed: u64) -> debunk::traffic_synth::Trace {
    DatasetSpec { kind, seed, flows_per_class: 3 }.generate()
}

#[test]
fn full_pipeline_generate_clean_split_classify() {
    let mut trace = small_trace(DatasetKind::UstcTfc, 1);
    let report = clean_trace(&mut trace);
    assert!(report.removed_fraction() > 0.0);

    let data = Prepared::from_trace(&trace);
    let task = Task::UstcBinary;
    let split = per_flow_split(&data, 0.8, 1000, 2);
    let label = |r: &debunk::dataset::record::PacketRecord| task.label_of(&data, r);
    let train = balanced_undersample(&data, &split.train, &label, 3);

    let feats = |idx: &[usize]| -> Vec<[f32; 39]> {
        idx.iter().map(|&i| extract_features(&data.records[i], FeatureConfig::default())).collect()
    };
    let xtr = feats(&train);
    let xte = feats(&split.test);
    fn rows(x: &[[f32; 39]]) -> Vec<&[f32]> {
        x.iter().map(|r| &r[..]).collect()
    }
    let ytr: Vec<u16> = train.iter().map(|&i| label(&data.records[i])).collect();
    let yte: Vec<u16> = split.test.iter().map(|&i| label(&data.records[i])).collect();

    let rf = RandomForest::fit(&rows(&xtr), &ytr, 2, ForestParams::default(), 4);
    let preds = rf.predict(&rows(&xte));
    let acc = accuracy(&preds, &yte);
    // Malware beacons are separable by header features — this should be
    // an easy task even at tiny scale, as in the paper's Table 3.
    assert!(acc > 0.8, "binary malware detection accuracy only {acc}");
    assert!(macro_f1(&preds, &yte, 2) > 0.7);
}

#[test]
fn pcap_round_trip_preserves_pipeline_inputs() {
    let trace = small_trace(DatasetKind::IscxVpn, 5);
    let bytes = trace.to_pcap();
    let packets = pcap::read_all(&bytes[..]).expect("valid pcap");
    assert_eq!(packets.len(), trace.records.len());
    // re-identify protocols from the pcap copy — must match original
    for (p, r) in packets.iter().zip(&trace.records).take(200) {
        assert_eq!(
            debunk::net_packet::ident::identify(&p.data),
            debunk::net_packet::ident::identify(&r.frame)
        );
    }
}

#[test]
fn per_flow_split_has_no_flow_overlap_but_per_packet_does() {
    let mut trace = small_trace(DatasetKind::CstnetTls120, 6);
    clean_trace(&mut trace);
    let data = Prepared::from_trace(&trace);

    let pf = per_flow_split(&data, 0.8, 1000, 7);
    let flows =
        |idx: &[usize]| -> HashSet<u64> { idx.iter().map(|&i| data.records[i].flow_id).collect() };
    assert!(flows(&pf.train).is_disjoint(&flows(&pf.test)));

    let pp = per_packet_split(&data, 0.8, 7);
    assert!(!flows(&pp.train).is_disjoint(&flows(&pp.test)));
}

#[test]
fn encoders_embed_cleaned_records_consistently() {
    let mut trace = small_trace(DatasetKind::IscxVpn, 8);
    clean_trace(&mut trace);
    let data = Prepared::from_trace(&trace);
    let recs: Vec<&debunk::dataset::record::PacketRecord> = data.records.iter().take(16).collect();
    for kind in ModelKind::ALL {
        let enc = EncoderModel::new(kind, 9);
        let a = enc.encode_packets(&recs);
        let b = enc.encode_packets(&recs);
        assert_eq!(a.data, b.data, "{} encoding must be deterministic", kind.name());
        assert_eq!(a.rows, 16);
        assert!(a.data.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn kfold_covers_balanced_training_set() {
    let trace = small_trace(DatasetKind::UstcTfc, 10);
    let data = Prepared::from_trace(&trace);
    let task = Task::UstcApp;
    let split = per_flow_split(&data, 0.8, 1000, 11);
    let label = |r: &debunk::dataset::record::PacketRecord| task.label_of(&data, r);
    let train = balanced_undersample(&data, &split.train, &label, 12);
    let folds = kfold(&train, 3, 13);
    let mut seen: Vec<usize> = Vec::new();
    for (tr, val) in &folds {
        assert_eq!(tr.len() + val.len(), train.len());
        seen.extend(val);
    }
    seen.sort_unstable();
    let mut expect = train.clone();
    expect.sort_unstable();
    assert_eq!(seen, expect);
}

#[test]
fn labels_consistent_across_tasks() {
    let trace = small_trace(DatasetKind::IscxVpn, 14);
    let data = Prepared::from_trace(&trace);
    for r in data.records.iter().take(300) {
        let app = Task::VpnApp.label_of(&data, r);
        let service = Task::VpnService.label_of(&data, r);
        let binary = Task::VpnBinary.label_of(&data, r);
        let meta = &data.classes[app as usize];
        assert_eq!(u16::from(meta.service), service);
        assert_eq!(u16::from(meta.is_vpn), binary);
    }
}

#[test]
fn out_of_core_artifacts_feed_the_cell_runners() {
    use debunk::debunk_core::artifact::ArtifactCache;
    use debunk::debunk_core::experiment::{CellConfig, SplitPolicy};
    use debunk::debunk_core::outofcore::{prepare_out_of_core, OutOfCoreOptions};
    use debunk::debunk_core::pipeline::{SplitRequest, TaskCache};
    use debunk::debunk_core::shallow_baselines::{run_shallow, ShallowModel};
    use debunk::shallow::features::FeatureConfig;
    use std::sync::Arc;

    let (kind, seed, scale) = (DatasetKind::UstcTfc, 42, 0.15);
    let cfg = CellConfig { max_train: 300, max_test: 300, kfolds: 2, ..CellConfig::default() };

    // Prepare everything the RF cell needs via the streaming path.
    let ooc_dir = std::env::temp_dir().join("debunk-ooc-cells");
    let shard_dir = std::env::temp_dir().join("debunk-ooc-cells-shards");
    std::fs::remove_dir_all(&ooc_dir).ok();
    std::fs::remove_dir_all(&shard_dir).ok();
    let opts = OutOfCoreOptions {
        features: Some(FeatureConfig::default()),
        splits: vec![SplitRequest {
            policy: SplitPolicy::PerFlow,
            train_frac: cfg.train_frac,
            max_flow_packets: cfg.max_flow_packets,
            seed: cfg.seed,
        }],
        ..OutOfCoreOptions::default()
    };
    prepare_out_of_core(
        &ArtifactCache::new(Some(ooc_dir.clone())),
        &shard_dir,
        kind,
        seed,
        scale,
        4,
        &opts,
    )
    .unwrap();

    // The real cell runner, fed exclusively from those files: every
    // stage must come back as a disk hit, never a rebuild.
    let arts = Arc::new(ArtifactCache::new(Some(ooc_dir.clone())));
    let cache = TaskCache::with_artifacts(arts.clone());
    let prep = cache.get(Task::UstcBinary, seed, scale);
    let streamed =
        run_shallow(&prep, ShallowModel::Rf, SplitPolicy::PerFlow, FeatureConfig::default(), &cfg);
    assert_eq!(arts.stats().builds, 0, "cell runner rebuilt an artifact the streamer wrote");
    assert!(arts.stats().disk_hits >= 3, "dataset + features + split should be disk hits");

    // In-RAM reference run: identical metrics, bit for bit.
    let ram = TaskCache::new();
    let ram_prep = ram.get(Task::UstcBinary, seed, scale);
    let reference = run_shallow(
        &ram_prep,
        ShallowModel::Rf,
        SplitPolicy::PerFlow,
        FeatureConfig::default(),
        &cfg,
    );
    assert_eq!(streamed.accuracy.to_bits(), reference.accuracy.to_bits());
    assert_eq!(streamed.macro_f1.to_bits(), reference.macro_f1.to_bits());

    std::fs::remove_dir_all(&ooc_dir).ok();
    std::fs::remove_dir_all(&shard_dir).ok();
}
