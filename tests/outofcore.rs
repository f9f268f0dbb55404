//! Streaming-equivalence goldens for the out-of-core prepare path:
//! the flow-sharded, row-group-chunked pipeline must produce artifact
//! files byte-identical to the in-RAM `TaskCache` path at every shard
//! count, cold and warm, serial and concurrent — and its peak RSS must
//! stay bounded as the flow count grows (the `#[ignore]` guard).

use debunk::dataset::Task;
use debunk::debunk_core::artifact::ArtifactCache;
use debunk::debunk_core::experiment::SplitPolicy;
use debunk::debunk_core::outofcore::{prepare_out_of_core, OutOfCoreOptions};
use debunk::debunk_core::pipeline::{SplitRequest, TaskCache, TokenVariant};
use debunk::encoders::{EncoderModel, ModelKind};
use debunk::shallow::features::FeatureConfig;
use debunk::traffic_synth::DatasetKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All `art-*` files in a cache dir, name-sorted, with their bytes.
fn artifact_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("art-"))
        .map(|p| (p.file_name().unwrap().to_str().unwrap().to_string(), std::fs::read(&p).unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn streaming_prepare_is_byte_identical_at_shard_counts_1_4_7() {
    let (kind, seed, scale) = (DatasetKind::UstcTfc, 11, 0.15);
    let enc = EncoderModel::new(ModelKind::EtBert, 1);

    // In-RAM reference: the classic whole-dataset prepare, disk tier on.
    let ram_dir = temp_dir("debunk-oocroot-ram");
    let cache = TaskCache::with_artifacts(Arc::new(ArtifactCache::new(Some(ram_dir.clone()))));
    let prep = cache.get(Task::UstcBinary, seed, scale);
    prep.features(FeatureConfig::default());
    prep.tokens(&enc, TokenVariant::Repeated);
    prep.split(SplitPolicy::PerFlow, 7.0 / 8.0, 1000, 9);
    prep.split(SplitPolicy::PerPacket, 7.0 / 8.0, 0, 9);
    let ram_files = artifact_files(&ram_dir);
    assert_eq!(ram_files.len(), 5, "prepared + features + tokens + two splits");

    let opts = OutOfCoreOptions {
        features: Some(FeatureConfig::default()),
        tokens: Some((&enc, TokenVariant::Repeated)),
        splits: vec![
            SplitRequest {
                policy: SplitPolicy::PerFlow,
                train_frac: 7.0 / 8.0,
                max_flow_packets: 1000,
                seed: 9,
            },
            SplitRequest {
                policy: SplitPolicy::PerPacket,
                train_frac: 7.0 / 8.0,
                max_flow_packets: 0,
                seed: 9,
            },
        ],
    };
    for n_shards in [1usize, 4, 7] {
        let ooc_dir = temp_dir(&format!("debunk-oocroot-s{n_shards}"));
        let shard_dir = temp_dir(&format!("debunk-oocroot-s{n_shards}-shards"));
        let cold = prepare_out_of_core(
            &ArtifactCache::new(Some(ooc_dir.clone())),
            &shard_dir,
            kind,
            seed,
            scale,
            n_shards,
            &opts,
        )
        .unwrap();
        assert!(cold.dataset_built && cold.features_built && cold.tokens_built);
        assert_eq!(cold.splits_built, 2);
        assert_eq!(cold.kept_records as usize, prep.data.records.len());
        let cold_files = artifact_files(&ooc_dir);
        assert_eq!(
            ram_files, cold_files,
            "{n_shards}-shard streaming output differs from the in-RAM reference"
        );

        // Warm: a fresh cache over the same dirs validates everything
        // in place — no rebuilds, and the bytes stay untouched.
        let warm_cache = ArtifactCache::new(Some(ooc_dir.clone()));
        let warm = prepare_out_of_core(&warm_cache, &shard_dir, kind, seed, scale, n_shards, &opts)
            .unwrap();
        assert!(
            !warm.rebuilt_shards && !warm.dataset_built && !warm.features_built,
            "warm {n_shards}-shard call rebuilt something"
        );
        assert_eq!(warm.splits_built, 0);
        assert_eq!(warm.kept_records, cold.kept_records);
        assert_eq!(warm_cache.stats().builds, 0, "warm call builds nothing");
        assert_eq!(warm_cache.stats().disk_hits, 5, "every artifact validated as a disk hit");
        assert_eq!(artifact_files(&ooc_dir), ram_files, "warm pass altered on-disk bytes");

        std::fs::remove_dir_all(&ooc_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }
    std::fs::remove_dir_all(&ram_dir).ok();
}

#[test]
fn concurrent_prepare_matches_serial_prepare() {
    let (kind, seed, scale) = (DatasetKind::IscxVpn, 4, 0.1);
    let opts = OutOfCoreOptions {
        features: Some(FeatureConfig::default()),
        ..OutOfCoreOptions::default()
    };

    // jobs=1: one thread, serial.
    let serial_dir = temp_dir("debunk-oocroot-serial");
    let serial_shards = temp_dir("debunk-oocroot-serial-shards");
    let serial = prepare_out_of_core(
        &ArtifactCache::new(Some(serial_dir.clone())),
        &serial_shards,
        kind,
        seed,
        scale,
        3,
        &opts,
    )
    .unwrap();

    // jobs=4: four racing threads sharing one cache — single-flight
    // must elect one builder and everyone must agree on the result.
    let par_dir = temp_dir("debunk-oocroot-par");
    let par_shards = temp_dir("debunk-oocroot-par-shards");
    let cache = ArtifactCache::new(Some(par_dir.clone()));
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    prepare_out_of_core(&cache, &par_shards, kind, seed, scale, 3, &opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(reports.iter().filter(|r| r.dataset_built).count(), 1);
    assert!(reports.iter().all(|r| r.kept_records == serial.kept_records));

    assert_eq!(
        artifact_files(&serial_dir),
        artifact_files(&par_dir),
        "4-thread prepare wrote different bytes than the serial one"
    );

    for d in [&serial_dir, &serial_shards, &par_dir, &par_shards] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Peak-RSS regression guard: 4x the flows (at constant per-shard flow
/// count) must not cost anywhere near 4x the memory — the streaming
/// path holds one shard of packets and one row group of records, so the
/// peak is a function of shard size, not dataset size. Ignored by
/// default (it generates a few hundred thousand packets); run it via
/// `cargo test --release -- --ignored peak_rss` or the out-of-core
/// smoke script. Shares `obs::measure_peak_rss` with `bench_json`, so
/// the guard and the benchmark report cannot drift apart.
#[test]
#[ignore]
fn peak_rss_is_bounded_in_flow_count() {
    use debunk::debunk_core::obs::measure_peak_rss;
    let kind = DatasetKind::UstcTfc;
    let opts = OutOfCoreOptions {
        features: Some(FeatureConfig::default()),
        ..OutOfCoreOptions::default()
    };

    let run = |tag: &str, scale: f64, n_shards: usize| -> Option<u64> {
        let ooc_dir = temp_dir(&format!("debunk-oocroot-rss-{tag}"));
        let shard_dir = temp_dir(&format!("debunk-oocroot-rss-{tag}-shards"));
        let (report, peak) = measure_peak_rss(|| {
            prepare_out_of_core(
                &ArtifactCache::new(Some(ooc_dir.clone())),
                &shard_dir,
                kind,
                2,
                scale,
                n_shards,
                &opts,
            )
            .unwrap()
        });
        assert!(report.kept_records > 0);
        std::fs::remove_dir_all(&ooc_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
        peak
    };

    // Same flows-per-shard at both sizes; only the shard count grows.
    let small = run("small", 10.0, 4);
    let large = run("large", 40.0, 16);
    let (Some(small), Some(large)) = (small, large) else {
        eprintln!("peak-RSS counters unavailable on this platform; guard skipped");
        return;
    };
    let budget = (small + small / 2).max(small + (64 << 20));
    assert!(
        large <= budget,
        "peak RSS grew with flow count: {small}B at 1x -> {large}B at 4x (budget {budget}B)"
    );
}
