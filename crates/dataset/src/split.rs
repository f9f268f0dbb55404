//! Train/test splitting policies (§4.1 "Dataset Splitting").
//!
//! * **Per-packet split** — the flawed policy of prior work: packets
//!   are shuffled irrespective of flows, so packets of the same flow
//!   land in both partitions and implicit flow IDs leak labels.
//! * **Per-flow split** — the correct policy: each flow's packets go
//!   entirely to one partition.
//!
//! Both are deterministic given a seed, stratified per class, and
//! return index sets into the `Prepared` record vector. Balanced
//! undersampling and K-fold CV match §5.

use crate::record::{PacketRecord, Prepared};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Index-based train/test split.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Training-partition record indices.
    pub train: Vec<usize>,
    /// Test-partition record indices.
    pub test: Vec<usize>,
}

impl Split {
    /// Serialise for the artifact cache: two length-prefixed index lists.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = crate::codec::ByteWriter::new();
        for part in [&self.train, &self.test] {
            w.u64(part.len() as u64);
            for &i in part {
                w.u64(i as u64);
            }
        }
        w.into_bytes()
    }

    /// Decode a [`Split::to_bytes`] buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Split, String> {
        let mut r = crate::codec::ByteReader::new(bytes);
        let mut parts = [Vec::new(), Vec::new()];
        for part in &mut parts {
            let n = r.count(8)?;
            part.reserve(n);
            for _ in 0..n {
                part.push(r.u64()? as usize);
            }
        }
        let [train, test] = parts;
        r.finish()?;
        Ok(Split { train, test })
    }
}

/// The per-record facts splitting actually needs — class and flow id —
/// without the frames. 10 bytes per record instead of a full
/// [`Prepared`], so the out-of-core prepare path can split a dataset it
/// never fully materialises. Splits computed on a view are
/// byte-identical to splits computed on the `Prepared` it mirrors
/// (the in-RAM entry points delegate here).
#[derive(Debug, Clone, Default)]
pub struct FlowClassView {
    /// Class label of each record, by record index.
    pub class_of: Vec<u16>,
    /// Flow id of each record, by record index.
    pub flow_of: Vec<u64>,
}

impl FlowClassView {
    /// Project a prepared dataset down to its split view.
    pub fn of(data: &Prepared) -> FlowClassView {
        let mut view = FlowClassView::default();
        view.push_records(&data.records);
        view
    }

    /// Append the facts of a chunk of records (streaming construction).
    pub fn push_records(&mut self, records: &[PacketRecord]) {
        self.class_of.extend(records.iter().map(|r| r.class));
        self.flow_of.extend(records.iter().map(|r| r.flow_id));
    }

    /// Number of records in the view.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// Group record indices by flow id, ordered by first appearance —
    /// the same grouping as [`Prepared::flows`].
    fn flows(&self) -> Vec<(u64, Vec<usize>)> {
        let mut order: Vec<u64> = Vec::new();
        let mut map: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &id) in self.flow_of.iter().enumerate() {
            let e = map.entry(id).or_default();
            if e.is_empty() {
                order.push(id);
            }
            e.push(i);
        }
        order
            .into_iter()
            .map(|id| {
                let idxs = map.remove(&id).expect("flow id recorded in order list");
                (id, idxs)
            })
            .collect()
    }
}

/// Per-packet split: shuffle each class's packets and cut at
/// `train_frac` (paper: 8:1:1 — the validation part is carved from
/// `train` later by K-fold). **Leaks implicit flow IDs by design.**
pub fn per_packet_split(data: &Prepared, train_frac: f64, seed: u64) -> Split {
    per_packet_split_on(&FlowClassView::of(data), train_frac, seed)
}

/// [`per_packet_split`] on a [`FlowClassView`] (byte-identical result).
pub fn per_packet_split_on(view: &FlowClassView, train_frac: f64, seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class: HashMap<u16, Vec<usize>> = HashMap::new();
    for (i, &class) in view.class_of.iter().enumerate() {
        by_class.entry(class).or_default().push(i);
    }
    let mut split = Split::default();
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    for (_, mut idxs) in classes {
        idxs.shuffle(&mut rng);
        let cut = ((idxs.len() as f64) * train_frac).round() as usize;
        split.train.extend_from_slice(&idxs[..cut.min(idxs.len())]);
        split.test.extend_from_slice(&idxs[cut.min(idxs.len())..]);
    }
    split
}

/// Per-flow split: assign whole flows to train or test, stratified per
/// class and by flow length (long flows distributed evenly, §5).
/// Flows longer than `max_flow_packets` are subsampled (paper: 1000).
///
/// ```
/// use dataset::record::Prepared;
/// use dataset::split::per_flow_split;
/// use traffic_synth::{DatasetKind, DatasetSpec};
/// let trace = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 1, flows_per_class: 2 }.generate();
/// let data = Prepared::from_trace(&trace);
/// let split = per_flow_split(&data, 0.8, 1000, 7);
/// // no flow appears on both sides
/// let train: std::collections::HashSet<u64> =
///     split.train.iter().map(|&i| data.records[i].flow_id).collect();
/// assert!(split.test.iter().all(|&i| !train.contains(&data.records[i].flow_id)));
/// ```
pub fn per_flow_split(
    data: &Prepared,
    train_frac: f64,
    max_flow_packets: usize,
    seed: u64,
) -> Split {
    per_flow_split_on(&FlowClassView::of(data), train_frac, max_flow_packets, seed)
}

/// [`per_flow_split`] on a [`FlowClassView`] (byte-identical result).
pub fn per_flow_split_on(
    view: &FlowClassView,
    train_frac: f64,
    max_flow_packets: usize,
    seed: u64,
) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    // class -> [(flow_id, indices)]
    let mut by_class: HashMap<u16, Vec<(u64, Vec<usize>)>> = HashMap::new();
    for (flow_id, idxs) in view.flows() {
        let class = view.class_of[idxs[0]];
        by_class.entry(class).or_default().push((flow_id, idxs));
    }
    let mut split = Split::default();
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    for (_, mut flows) in classes {
        // Sort by length then alternate assignment in shuffled blocks so
        // long flows don't all land in one partition.
        flows.sort_by_key(|(_, idxs)| idxs.len());
        flows.shuffle(&mut rng);
        flows.sort_by_key(|(_, idxs)| std::cmp::Reverse(idxs.len()));
        let n_train = (((flows.len() as f64) * train_frac).round() as usize)
            .clamp(1, flows.len().saturating_sub(1).max(1));
        // Interleave: walk flows longest-first, fill train/test keeping
        // the target ratio, which spreads the long flows across both.
        let mut taken_train = 0usize;
        let mut taken_test = 0usize;
        for (_, mut idxs) in flows {
            if idxs.len() > max_flow_packets {
                idxs.shuffle(&mut rng);
                idxs.truncate(max_flow_packets);
                idxs.sort_unstable();
            }
            let want_train = (taken_train as f64) / (n_train as f64).max(1.0);
            let want_test = (taken_test as f64)
                / ((taken_train + taken_test + 1).saturating_sub(n_train) as f64).max(1.0);
            if taken_train < n_train && want_train <= want_test {
                split.train.extend(idxs);
                taken_train += 1;
            } else {
                split.test.extend(idxs);
                taken_test += 1;
            }
        }
    }
    split
}

/// Balanced undersampling (§5): reduce every label's sample count to
/// the minority label's count. `label_of` maps a record to its task
/// label. Returns a subset of `indices`.
pub fn balanced_undersample(
    data: &Prepared,
    indices: &[usize],
    label_of: &dyn Fn(&PacketRecord) -> u16,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_label: HashMap<u16, Vec<usize>> = HashMap::new();
    for &i in indices {
        by_label.entry(label_of(&data.records[i])).or_default().push(i);
    }
    let min = by_label.values().map(Vec::len).min().unwrap_or(0);
    let mut out = Vec::with_capacity(min * by_label.len());
    let mut labels: Vec<_> = by_label.into_iter().collect();
    labels.sort_by_key(|(l, _)| *l);
    for (_, mut idxs) in labels {
        idxs.shuffle(&mut rng);
        idxs.truncate(min);
        out.extend(idxs);
    }
    out.sort_unstable();
    out
}

/// Stratified subsample preserving label proportions (§4.1 "Sampling").
pub fn stratified_sample(
    data: &Prepared,
    indices: &[usize],
    frac: f64,
    label_of: &dyn Fn(&PacketRecord) -> u16,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_label: HashMap<u16, Vec<usize>> = HashMap::new();
    for &i in indices {
        by_label.entry(label_of(&data.records[i])).or_default().push(i);
    }
    let mut out = Vec::new();
    let mut labels: Vec<_> = by_label.into_iter().collect();
    labels.sort_by_key(|(l, _)| *l);
    for (_, mut idxs) in labels {
        idxs.shuffle(&mut rng);
        let keep = ((idxs.len() as f64) * frac).round().max(1.0) as usize;
        idxs.truncate(keep.min(idxs.len()));
        out.extend(idxs);
    }
    out.sort_unstable();
    out
}

/// K-fold cross-validation over a set of indices (paper: K = 3).
/// Returns `k` (train, validation) pairs.
pub fn kfold(indices: &[usize], k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "kfold requires k >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled: Vec<usize> = indices.to_vec();
    shuffled.shuffle(&mut rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let val: Vec<usize> =
            shuffled.iter().enumerate().filter(|(i, _)| i % k == f).map(|(_, &v)| v).collect();
        let train: Vec<usize> =
            shuffled.iter().enumerate().filter(|(i, _)| i % k != f).map(|(_, &v)| v).collect();
        folds.push((train, val));
    }
    folds
}

/// Per-client split (§4.1 "more advanced splits"): all flows of one
/// client endpoint go to the same partition, stressing generalisation
/// to unseen hosts. Falls back gracefully when a class has a single
/// client (its flows go to train).
pub fn per_client_split(data: &Prepared, train_frac: f64, seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc11e);
    // client key = source endpoint of each flow's first packet
    let mut by_client: HashMap<u128, Vec<usize>> = HashMap::new();
    for (_, idxs) in data.flows() {
        let first = &data.records[idxs[0]];
        let client = match first.parsed.ip {
            net_packet::frame::IpInfo::V4 { src, dst, .. } => {
                if first.from_client {
                    u128::from(src.to_u32())
                } else {
                    u128::from(dst.to_u32())
                }
            }
            net_packet::frame::IpInfo::V6 { src, dst, .. } => {
                if first.from_client {
                    u128::from_be_bytes(src.0)
                } else {
                    u128::from_be_bytes(dst.0)
                }
            }
        };
        by_client.entry(client).or_default().extend(idxs);
    }
    let mut clients: Vec<(u128, Vec<usize>)> = by_client.into_iter().collect();
    clients.sort_by_key(|(c, _)| *c);
    clients.shuffle(&mut rng);
    let total: usize = clients.iter().map(|(_, v)| v.len()).sum();
    let want_train = ((total as f64) * train_frac) as usize;
    let mut split = Split::default();
    for (_, idxs) in clients {
        if split.train.len() < want_train {
            split.train.extend(idxs);
        } else {
            split.test.extend(idxs);
        }
    }
    split
}

/// Per-time split (§4.1): train on the earlier part of the capture,
/// test on the later part — flows assigned by their first packet's
/// timestamp, so no flow straddles the boundary.
pub fn per_time_split(data: &Prepared, train_frac: f64) -> Split {
    let mut flows: Vec<(f64, Vec<usize>)> =
        data.flows().into_iter().map(|(_, idxs)| (data.records[idxs[0]].ts, idxs)).collect();
    flows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = flows.iter().map(|(_, v)| v.len()).sum();
    let want_train = ((total as f64) * train_frac) as usize;
    let mut split = Split::default();
    for (_, idxs) in flows {
        if split.train.len() < want_train {
            split.train.extend(idxs);
        } else {
            split.test.extend(idxs);
        }
    }
    split
}

/// Randomly shuffle then truncate indices (utility for quick subsets).
pub fn subsample(indices: &[usize], n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = indices.to_vec();
    v.shuffle(&mut rng);
    v.truncate(n);
    v.sort_unstable();
    v
}

/// Draw a random u64 (deterministic helper for experiment seeding).
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut rng = StdRng::seed_from_u64(h);
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn prepared() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 7, flows_per_class: 4 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn per_flow_split_never_splits_a_flow() {
        let d = prepared();
        let s = per_flow_split(&d, 7.0 / 8.0, 1000, 1);
        let train_flows: HashSet<u64> = s.train.iter().map(|&i| d.records[i].flow_id).collect();
        let test_flows: HashSet<u64> = s.test.iter().map(|&i| d.records[i].flow_id).collect();
        assert!(train_flows.is_disjoint(&test_flows), "flows leaked across partitions");
        assert!(!s.train.is_empty() && !s.test.is_empty());
    }

    #[test]
    fn split_codec_round_trips() {
        let d = prepared();
        let s = per_flow_split(&d, 7.0 / 8.0, 1000, 1);
        let bytes = s.to_bytes();
        let back = Split::from_bytes(&bytes).unwrap();
        assert_eq!(back.train, s.train);
        assert_eq!(back.test, s.test);
        assert_eq!(back.to_bytes(), bytes);
        assert!(Split::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn per_packet_split_does_split_flows() {
        let d = prepared();
        let s = per_packet_split(&d, 0.8, 1);
        let train_flows: HashSet<u64> = s.train.iter().map(|&i| d.records[i].flow_id).collect();
        let test_flows: HashSet<u64> = s.test.iter().map(|&i| d.records[i].flow_id).collect();
        assert!(
            !train_flows.is_disjoint(&test_flows),
            "per-packet split should leak flows — that is the point"
        );
    }

    #[test]
    fn per_packet_ratio_respected() {
        let d = prepared();
        let s = per_packet_split(&d, 0.8, 1);
        let frac = s.train.len() as f64 / (s.train.len() + s.test.len()) as f64;
        assert!((0.75..0.85).contains(&frac));
    }

    #[test]
    fn every_class_in_both_partitions() {
        let d = prepared();
        for s in [per_flow_split(&d, 7.0 / 8.0, 1000, 2), per_packet_split(&d, 0.8, 2)] {
            let train_classes: HashSet<u16> = s.train.iter().map(|&i| d.records[i].class).collect();
            let test_classes: HashSet<u16> = s.test.iter().map(|&i| d.records[i].class).collect();
            assert_eq!(train_classes.len(), 16);
            assert_eq!(test_classes.len(), 16);
        }
    }

    #[test]
    fn balanced_undersample_equalises() {
        let d = prepared();
        let s = per_flow_split(&d, 7.0 / 8.0, 1000, 3);
        let label = |r: &PacketRecord| r.class;
        let bal = balanced_undersample(&d, &s.train, &label, 3);
        let mut counts: HashMap<u16, usize> = HashMap::new();
        for &i in &bal {
            *counts.entry(d.records[i].class).or_default() += 1;
        }
        let min = counts.values().min().unwrap();
        let max = counts.values().max().unwrap();
        assert_eq!(min, max, "balanced sampling must equalise counts");
    }

    #[test]
    fn stratified_preserves_proportions() {
        let d = prepared();
        let all: Vec<usize> = (0..d.records.len()).collect();
        let label = |r: &PacketRecord| r.class;
        let sub = stratified_sample(&d, &all, 0.5, &label, 4);
        let count =
            |idxs: &[usize], c: u16| idxs.iter().filter(|&&i| d.records[i].class == c).count();
        for c in 0..16u16 {
            let orig = count(&all, c) as f64;
            let smp = count(&sub, c) as f64;
            assert!((smp / orig - 0.5).abs() < 0.1, "class {c}: {smp}/{orig}");
        }
    }

    #[test]
    fn kfold_partitions_validation() {
        let idxs: Vec<usize> = (0..100).collect();
        let folds = kfold(&idxs, 3, 5);
        assert_eq!(folds.len(), 3);
        let mut all_val: Vec<usize> = Vec::new();
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 100);
            let t: HashSet<_> = train.iter().collect();
            assert!(val.iter().all(|v| !t.contains(v)));
            all_val.extend(val);
        }
        all_val.sort_unstable();
        assert_eq!(all_val, idxs, "validation folds must cover everything once");
    }

    #[test]
    fn long_flow_cap_applies() {
        let d = prepared();
        let s = per_flow_split(&d, 7.0 / 8.0, 5, 6);
        let mut per_flow: HashMap<u64, usize> = HashMap::new();
        for &i in s.train.iter().chain(&s.test) {
            *per_flow.entry(d.records[i].flow_id).or_default() += 1;
        }
        assert!(per_flow.values().all(|&n| n <= 5));
    }

    #[test]
    fn splits_deterministic() {
        let d = prepared();
        let a = per_flow_split(&d, 7.0 / 8.0, 1000, 9);
        let b = per_flow_split(&d, 7.0 / 8.0, 1000, 9);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn per_client_split_keeps_clients_atomic() {
        let d = prepared();
        let s = per_client_split(&d, 0.75, 1);
        let client_of = |i: usize| -> u128 {
            let r = &d.records[i];
            match r.parsed.ip {
                net_packet::frame::IpInfo::V4 { src, dst, .. } => {
                    if r.from_client {
                        u128::from(src.to_u32())
                    } else {
                        u128::from(dst.to_u32())
                    }
                }
                net_packet::frame::IpInfo::V6 { src, dst, .. } => {
                    if r.from_client {
                        u128::from_be_bytes(src.0)
                    } else {
                        u128::from_be_bytes(dst.0)
                    }
                }
            }
        };
        let train: HashSet<u128> = s.train.iter().map(|&i| client_of(i)).collect();
        let test: HashSet<u128> = s.test.iter().map(|&i| client_of(i)).collect();
        assert!(train.is_disjoint(&test), "client endpoints leaked across partitions");
        assert!(!s.train.is_empty() && !s.test.is_empty());
    }

    #[test]
    fn per_time_split_is_chronological() {
        let d = prepared();
        let s = per_time_split(&d, 0.75);
        // first packet of each test flow starts no earlier than the
        // latest train-flow start
        let flow_start = |idxs: &[usize]| -> f64 {
            idxs.iter().map(|&i| d.records[i].ts).fold(f64::INFINITY, f64::min)
        };
        let mut train_starts: std::collections::HashMap<u64, f64> = Default::default();
        let mut test_starts: std::collections::HashMap<u64, f64> = Default::default();
        for &i in &s.train {
            let e = train_starts.entry(d.records[i].flow_id).or_insert(f64::INFINITY);
            *e = e.min(d.records[i].ts);
        }
        for &i in &s.test {
            let e = test_starts.entry(d.records[i].flow_id).or_insert(f64::INFINITY);
            *e = e.min(d.records[i].ts);
        }
        let max_train = train_starts.values().fold(f64::MIN, |a, &b| a.max(b));
        let min_test = test_starts.values().fold(f64::MAX, |a, &b| a.min(b));
        assert!(min_test >= max_train, "test flows must start after train flows");
        let _ = flow_start;
    }

    #[test]
    fn derive_seed_varies_by_tag() {
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
    }

    #[test]
    fn view_splits_are_byte_identical_to_prepared_splits() {
        // A streamingly-built view must split exactly like the full
        // dataset — this is what lets the out-of-core path reuse the
        // cached split artifacts of the in-RAM path.
        let d = prepared();
        let mut view = FlowClassView::default();
        for chunk in d.records.chunks(7) {
            view.push_records(chunk);
        }
        let a = per_flow_split(&d, 0.8, 50, 7);
        let b = per_flow_split_on(&view, 0.8, 50, 7);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let a = per_packet_split(&d, 0.8, 7);
        let b = per_packet_split_on(&view, 0.8, 7);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
