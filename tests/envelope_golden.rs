//! Golden format pins: one tiny file of each on-disk layout (DBFZ,
//! DBAF v2, DBSR), written from fixed inputs through the public
//! writers, must hash to the constants recorded when the layouts were
//! fixed. Any change to a header, checksum, group framing or record
//! encoding fails here, even if writer and reader change together and
//! still round-trip.

use debunk::debunk_core::artifact::{ArtifactCache, ROW_GROUP_ROWS};
use debunk::debunk_core::outofcore::write_shard_dir;
use debunk::debunk_core::pipeline::FeatureMatrix;
use debunk::nn::envelope::fnv64;
use debunk::nn::frozen::FrozenArtifact;
use debunk::nn::{Dense, Tensor};
use debunk::shallow::N_FEATURES;
use debunk::traffic_synth::{DatasetKind, DatasetSpec};

fn matrix(rows: usize) -> FeatureMatrix {
    FeatureMatrix(
        (0..rows)
            .map(|i| {
                let mut r = [0.0f32; N_FEATURES];
                for (j, v) in r.iter_mut().enumerate() {
                    *v = (i * 41 + j * 7) as f32 * 0.125;
                }
                r
            })
            .collect(),
    )
}

/// `(fnv64, length)` of the file at `path`.
fn pin(path: &std::path::Path) -> (u64, usize) {
    let bytes = std::fs::read(path).unwrap();
    (fnv64(&bytes), bytes.len())
}

#[test]
fn every_layout_matches_its_golden_bytes() {
    let dir = std::env::temp_dir().join("debunk-envelope-golden");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // DBFZ: a dense layer's export (weights only).
    let mut dense = Dense::new(2, 3, 0);
    dense.w = Tensor::from_rows(&[vec![0.5, -1.0, 2.25], vec![3.0, 0.0, -0.125]]);
    dense.b = vec![1.0, -2.0, 0.5];
    let frozen = dir.join("dense.frozen");
    dense.save_frozen(&frozen).unwrap();
    assert_eq!(pin(&frozen), (0x4628_e78a_ffbd_b962, 93), "DBFZ layout changed");

    // DBAF v2: a feature matrix spanning two row groups.
    let cache = ArtifactCache::new(Some(dir.clone()));
    cache.store::<FeatureMatrix>(&["golden", "no-ip"], matrix(ROW_GROUP_ROWS + 3));
    let v2 = cache.artifact_path::<FeatureMatrix>(&["golden", "no-ip"]).unwrap();
    assert_eq!(pin(&v2), (0xe21d_509d_0c01_2d53, 639_617), "DBAF v2 layout changed");

    // DBSR: the runs of a small two-shard trace.
    let spec = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 11, flows_per_class: 2 };
    write_shard_dir(&dir.join("runs"), &spec, 2).unwrap();
    let runs: Vec<(u64, usize)> =
        (0..=2).map(|run| pin(&dir.join("runs").join(format!("run-{run:04}.dbsr")))).collect();
    assert_eq!(
        runs,
        [
            (0xc13a_2bd5_6b4e_f0ca, 538_487),
            (0x96fd_de7e_1049_b39c, 164_033),
            (0x9385_9581_9d8b_fdba, 28_437),
        ],
        "DBSR layout changed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A small labelled feature set with ties, a constant column and a few
/// NaN and infinite values, for the tree-model pins.
fn labelled(rows: usize) -> (Vec<[f32; 4]>, Vec<u16>) {
    let mut x = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for i in 0..rows {
        let c = (i * 7 % 3) as u16;
        let mut r = [
            f32::from(c) + (i % 5) as f32 * 0.25,
            (i * 13 % 11) as f32,
            f32::from(c) * 0.5 - (i % 4) as f32 * 0.125,
            1.0,
        ];
        match i % 17 {
            3 => r[1] = f32::NAN,
            8 => r[0] = f32::INFINITY,
            12 => r[2] = f32::NEG_INFINITY,
            _ => {}
        }
        x.push(r);
        y.push(c);
    }
    (x, y)
}

#[test]
fn tree_model_exports_match_their_golden_bytes() {
    use debunk::shallow::forest::{ForestParams, RandomForest};
    use debunk::shallow::gbdt::{GbdtParams, GradientBoosting};
    let (x, y) = labelled(120);
    let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();

    let forest =
        RandomForest::fit(&rows, &y, 3, ForestParams { n_trees: 4, ..Default::default() }, 7);
    let bytes = forest.to_frozen_bytes();
    assert_eq!(
        (fnv64(&bytes), bytes.len()),
        (0xbf07_e5f6_dcf4_3a85, 914),
        "forest.frozen layout changed"
    );

    let gbdt = GradientBoosting::fit(&rows, &y, 3, GbdtParams { rounds: 3, ..Default::default() });
    let bytes = gbdt.to_frozen_bytes();
    assert_eq!(
        (fnv64(&bytes), bytes.len()),
        (0x1aff_ac42_b099_f860, 837),
        "gbdt.frozen layout changed"
    );
}
