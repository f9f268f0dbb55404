//! Property-test wall around the DBAF v2 row-group envelope: every
//! on-disk byte is covered by a checksum or a structural invariant, so
//! truncation at any offset, a bit flip anywhere, and duplicated or
//! reordered groups must all be *refused* (open or decode errors) —
//! never silently mis-decoded. The cache layer then turns a refusal
//! into a rebuild that reproduces the pristine bytes, and legacy v1
//! envelopes stay readable under the documented compat policy.

use debunk::debunk_core::artifact::{artifact_key, Artifact, ArtifactCache, RowGroupFile};
use debunk::debunk_core::pipeline::FeatureMatrix;
use debunk::nn::envelope::fnv64;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("debunk-rowgroup-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but non-trivial feature matrix with distinct rows.
fn sample_matrix(rows: usize) -> FeatureMatrix {
    FeatureMatrix(
        (0..rows)
            .map(|i| {
                let mut r = [0.0f32; 39];
                for (j, v) in r.iter_mut().enumerate() {
                    *v = (i * 41 + j * 7) as f32 * 0.125;
                }
                r
            })
            .collect(),
    )
}

const PARTS: &[&str] = &["rowgroup-probe", "no-ip"];

/// Write the sample artifact through the cache's disk tier and return
/// (file path, canonical key, pristine bytes).
fn written_sample(dir: &Path, rows: usize) -> (PathBuf, String, Vec<u8>) {
    let cache = ArtifactCache::new(Some(dir.to_path_buf()));
    cache.store::<FeatureMatrix>(PARTS, sample_matrix(rows));
    let path = cache.artifact_path::<FeatureMatrix>(PARTS).unwrap();
    let key = artifact_key::<FeatureMatrix>(PARTS);
    let bytes = std::fs::read(&path).unwrap();
    (path, key, bytes)
}

/// True when the file at `path` is refused: either the frame fails
/// validation at open, or a row group fails its checksum during decode.
fn refused(path: &Path, key: &str) -> bool {
    match RowGroupFile::open(path, key) {
        Err(_) => true,
        Ok(mut f) => f.decode::<FeatureMatrix>().is_err(),
    }
}

#[test]
fn truncation_at_every_offset_is_refused() {
    let dir = scratch("trunc");
    let (path, key, bytes) = written_sample(&dir, 8);
    // Every prefix length, from the empty file up to one byte short:
    // the fixed trailer can never be intact, so open must refuse.
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        assert!(
            RowGroupFile::open(&path, &key).is_err(),
            "truncation to {len}/{} bytes was not refused",
            bytes.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_bit_flip_is_refused() {
    let dir = scratch("bitflip");
    let (path, key, bytes) = written_sample(&dir, 8);
    // Exhaustive: flip each bit of each byte — header, body groups,
    // footer and trailer are all covered by a checksum, so no flip may
    // survive to a successful decode.
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut c = bytes.clone();
            c[i] ^= 1 << bit;
            std::fs::write(&path, &c).unwrap();
            assert!(refused(&path, &key), "bit {bit} of byte {i} flipped undetected");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Split a v2 file into (head, footer bytes, trailer geometry) using
/// the documented trailer layout, so tests can perform footer surgery.
fn frame_parts(bytes: &[u8]) -> (u64, u64, u64) {
    let t = &bytes[bytes.len() - 48..];
    let u64_at = |o: usize| u64::from_le_bytes(t[o..o + 8].try_into().unwrap());
    (u64_at(0), u64_at(8), u64_at(16))
}

/// Reassemble a v2 file around a surgically altered footer, fixing the
/// footer length and every checksum so only the *structural* invariants
/// can refuse it.
fn with_footer(bytes: &[u8], footer: &[u8]) -> Vec<u8> {
    let (header_len, footer_off, _) = frame_parts(bytes);
    let header = &bytes[..header_len as usize];
    let mut out = bytes[..footer_off as usize].to_vec();
    out.extend_from_slice(footer);
    let mut t = [0u8; 48];
    t[0..8].copy_from_slice(&header_len.to_le_bytes());
    t[8..16].copy_from_slice(&footer_off.to_le_bytes());
    t[16..24].copy_from_slice(&(footer.len() as u64).to_le_bytes());
    t[24..32].copy_from_slice(&fnv64(header).to_le_bytes());
    t[32..40].copy_from_slice(&fnv64(footer).to_le_bytes());
    let check = fnv64(&t[..40]);
    t[40..48].copy_from_slice(&check.to_le_bytes());
    out.extend_from_slice(&t);
    out
}

#[test]
fn duplicated_and_reordered_groups_are_refused() {
    let dir = scratch("surgery");
    // Three distinct groups via the streaming writer — content does not
    // need to decode; the frame checks are what is under test.
    let cache = ArtifactCache::new(Some(dir.clone()));
    {
        let mut w = cache.group_writer::<FeatureMatrix>(PARTS).unwrap();
        w.push_group(1, b"alpha-group-bytes").unwrap();
        w.push_group(2, b"beta-group-bytes!").unwrap();
        w.push_group(3, b"gamma-group-bytes").unwrap();
        w.finish().unwrap();
    }
    let path = cache.artifact_path::<FeatureMatrix>(PARTS).unwrap();
    let key = artifact_key::<FeatureMatrix>(PARTS);
    let bytes = std::fs::read(&path).unwrap();
    assert!(RowGroupFile::open(&path, &key).is_ok(), "pristine multi-group file must open");

    let (_, footer_off, footer_len) = frame_parts(&bytes);
    let footer = &bytes[footer_off as usize..(footer_off + footer_len) as usize];
    assert_eq!(u32::from_le_bytes(footer[0..4].try_into().unwrap()), 3);

    // Reordered: swap the first two directory entries. Checksums are
    // recomputed, so refusal must come from the contiguity invariant.
    let mut reordered = footer.to_vec();
    let (a, b) = (4usize, 4 + 32);
    for i in 0..32 {
        reordered.swap(a + i, b + i);
    }
    std::fs::write(&path, with_footer(&bytes, &reordered)).unwrap();
    assert!(RowGroupFile::open(&path, &key).is_err(), "reordered group directory was not refused");

    // Duplicated: repeat the middle entry (n_groups 3 -> 4). The copy
    // cannot tile the body, and the row sum no longer matches.
    let mut duplicated = Vec::new();
    duplicated.extend_from_slice(&4u32.to_le_bytes());
    duplicated.extend_from_slice(&footer[4..4 + 32]); // group 0
    duplicated.extend_from_slice(&footer[4 + 32..4 + 64]); // group 1
    duplicated.extend_from_slice(&footer[4 + 32..4 + 64]); // group 1 again
    duplicated.extend_from_slice(&footer[4 + 64..4 + 96]); // group 2
    duplicated.extend_from_slice(&footer[footer.len() - 8..]); // total_rows
    std::fs::write(&path, with_footer(&bytes, &duplicated)).unwrap();
    assert!(
        RowGroupFile::open(&path, &key).is_err(),
        "duplicated group directory entry was not refused"
    );

    // Body groups swapped behind an untouched footer: the frame is
    // geometrically valid, so open succeeds — but the per-group
    // checksum must catch the swap before any bytes are returned.
    let (header_len, _, _) = frame_parts(&bytes);
    let mut swapped = bytes.clone();
    let g0 = header_len as usize..header_len as usize + 17;
    let g1 = header_len as usize + 17..header_len as usize + 34;
    let tmp: Vec<u8> = swapped[g0.clone()].to_vec();
    let g1_bytes: Vec<u8> = swapped[g1.clone()].to_vec();
    swapped[g0].copy_from_slice(&g1_bytes);
    swapped[g1].copy_from_slice(&tmp);
    std::fs::write(&path, &swapped).unwrap();
    let mut f = RowGroupFile::open(&path, &key).expect("geometry is intact");
    assert!(f.read_group(0).is_err(), "swapped body group 0 passed its checksum");
    assert!(f.read_group(1).is_err(), "swapped body group 1 passed its checksum");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_refuses_corruption_and_rebuilds_pristine_bytes() {
    let dir = scratch("rebuild");
    let (path, _key, pristine) = written_sample(&dir, 8);
    // Corrupt one body byte, then come back with a fresh cache (cold
    // memory tier): lookup must refuse, and get_or_build must rebuild
    // a byte-identical file.
    let mut c = pristine.clone();
    let mid = c.len() / 2;
    c[mid] ^= 0x40;
    std::fs::write(&path, &c).unwrap();
    let cache = ArtifactCache::new(Some(dir.clone()));
    assert!(cache.lookup::<FeatureMatrix>(PARTS).is_none(), "corrupt artifact served");
    let rebuilt = cache.get_or_build::<FeatureMatrix>(PARTS, || sample_matrix(8));
    assert_eq!(rebuilt.to_bytes(), sample_matrix(8).to_bytes());
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "rebuild is not byte-identical");
    assert_eq!(cache.stats().builds, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_envelopes_stay_readable_and_upgrade_on_rebuild() {
    let dir = scratch("v1compat");
    let value = sample_matrix(8);
    let key = artifact_key::<FeatureMatrix>(PARTS);
    // Hand-craft a legacy v1 envelope at the exact cache path:
    //   "DBAF" | u32 1 | u32 key_len | key | u64 payload_len | payload
    //   | u64 fnv64(everything before)
    let payload = value.to_bytes();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"DBAF");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(key.len() as u32).to_le_bytes());
    v1.extend_from_slice(key.as_bytes());
    v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v1.extend_from_slice(&payload);
    let check = fnv64(&v1);
    v1.extend_from_slice(&check.to_le_bytes());

    let cache = ArtifactCache::new(Some(dir.clone()));
    let path = cache.artifact_path::<FeatureMatrix>(PARTS).unwrap();
    std::fs::write(&path, &v1).unwrap();

    // Compat policy: v1 is still decoded by the full-read path...
    let loaded = cache.lookup::<FeatureMatrix>(PARTS).expect("v1 envelope must stay readable");
    assert_eq!(loaded.to_bytes(), value.to_bytes());
    assert_eq!(cache.stats().disk_hits, 1);
    // ...but the warm frame reader requires v2, so a v1 file is refused
    // there (callers fall back to a rebuild, which writes v2).
    assert!(RowGroupFile::open(&path, &key).is_err(), "v1 must not satisfy the v2 frame reader");

    // A corrupted v1 payload is refused, and the rebuild upgrades the
    // file to a v2 envelope the frame reader accepts.
    let mut broken = v1.clone();
    let mid = broken.len() / 2;
    broken[mid] ^= 0x01;
    std::fs::write(&path, &broken).unwrap();
    let fresh = ArtifactCache::new(Some(dir.clone()));
    assert!(fresh.lookup::<FeatureMatrix>(PARTS).is_none());
    fresh.get_or_build::<FeatureMatrix>(PARTS, || sample_matrix(8));
    assert!(RowGroupFile::open(&path, &key).is_ok(), "rebuild must write a v2 envelope");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary multi-byte corruption anywhere in the file is refused.
    #[test]
    fn random_corruption_is_refused(
        seed_rows in 2usize..12,
        offsets in proptest::collection::vec((0usize..4096, 1u8..=255), 1..6),
        case in 0u32..u32::MAX,
    ) {
        let dir = scratch(&format!("prop-{case}"));
        let (path, key, bytes) = written_sample(&dir, seed_rows);
        let mut c = bytes.clone();
        let mut changed = false;
        for (off, xor) in offsets {
            let i = off % c.len();
            c[i] ^= xor;
            changed = changed || c[i] != bytes[i];
        }
        if changed {
            std::fs::write(&path, &c).unwrap();
            prop_assert!(refused(&path, &key), "corruption survived to a decode");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Round trip: any matrix (including multi-group sizes) survives
    /// encode -> frame-open -> per-group decode byte-identically.
    #[test]
    fn matrices_round_trip_through_the_frame_reader(rows in 0usize..600) {
        let dir = scratch(&format!("rt-{rows}"));
        let (path, key, _) = written_sample(&dir, rows);
        let mut f = RowGroupFile::open(&path, &key).unwrap();
        let decoded = f.decode::<FeatureMatrix>().unwrap();
        prop_assert_eq!(decoded.to_bytes(), sample_matrix(rows).to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn multi_group_artifacts_tile_and_round_trip() {
    // Above ROW_GROUP_ROWS rows the grouped codec must emit several
    // groups whose row counts sum to the total, and the lazy reader
    // must reassemble them exactly.
    let dir = scratch("multigroup");
    let rows = debunk::debunk_core::artifact::ROW_GROUP_ROWS + 123;
    let (path, key, _) = written_sample(&dir, rows);
    let mut f = RowGroupFile::open(&path, &key).unwrap();
    assert!(f.n_groups() >= 2, "expected at least two row groups, got {}", f.n_groups());
    assert_eq!(f.total_rows(), rows as u64);
    let sum: u64 = (0..f.n_groups()).map(|i| f.group_meta(i).rows).sum();
    assert_eq!(sum, rows as u64);
    let decoded = f.decode::<FeatureMatrix>().unwrap();
    assert_eq!(decoded.to_bytes(), sample_matrix(rows).to_bytes());
    std::fs::remove_dir_all(&dir).ok();
}
