//! Flow-level statistical features: the classic
//! size/timing/direction summary statistics used by pre-deep-learning
//! flow classifiers (the natural shallow counterpart to the encoders'
//! flow embeddings in Table 9).

use dataset::record::PacketRecord;

/// Number of flow-level features.
pub const N_FLOW_FEATURES: usize = 22;

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Extract the statistical feature vector of one flow (its packets in
/// time order).
pub fn extract_flow_features(packets: &[&PacketRecord]) -> [f32; N_FLOW_FEATURES] {
    let mut f = [0.0f32; N_FLOW_FEATURES];
    if packets.is_empty() {
        return f;
    }
    let lens: Vec<f64> = packets.iter().map(|p| p.frame.len() as f64).collect();
    let fwd: Vec<&&PacketRecord> = packets.iter().filter(|p| p.from_client).collect();
    let bwd: Vec<&&PacketRecord> = packets.iter().filter(|p| !p.from_client).collect();
    let iats: Vec<f64> = packets.windows(2).map(|w| (w[1].ts - w[0].ts).max(0.0)).collect();

    f[0] = packets.len() as f32;
    f[1] = fwd.len() as f32;
    f[2] = bwd.len() as f32;
    f[3] = fwd.len() as f32 / packets.len() as f32;
    f[4] = lens.iter().sum::<f64>() as f32;
    f[5] = fwd.iter().map(|p| p.frame.len()).sum::<usize>() as f32;
    f[6] = bwd.iter().map(|p| p.frame.len()).sum::<usize>() as f32;
    let (m, s) = mean_std(&lens);
    f[7] = m as f32;
    f[8] = s as f32;
    f[9] = lens.iter().copied().fold(f64::INFINITY, f64::min) as f32;
    f[10] = lens.iter().copied().fold(0.0, f64::max) as f32;
    let (fm, _) = mean_std(&fwd.iter().map(|p| p.frame.len() as f64).collect::<Vec<_>>());
    let (bm, _) = mean_std(&bwd.iter().map(|p| p.frame.len() as f64).collect::<Vec<_>>());
    f[11] = fm as f32;
    f[12] = bm as f32;
    let (im, is) = mean_std(&iats);
    f[13] = im as f32;
    f[14] = is as f32;
    f[15] = iats.iter().copied().fold(f64::INFINITY, f64::min).min(1e9) as f32;
    f[16] = iats.iter().copied().fold(0.0, f64::max) as f32;
    f[17] = (packets.last().expect("non-empty").ts - packets[0].ts) as f32;
    // server port: destination port of the first client packet
    let first = packets.iter().find(|p| p.from_client).unwrap_or(&packets[0]);
    f[18] = f32::from(first.parsed.transport.dst_port());
    f[19] = fwd.first().map_or(0.0, |p| f32::from(p.parsed.ip.ttl()));
    f[20] = bwd.first().map_or(0.0, |p| f32::from(p.parsed.ip.ttl()));
    f[21] = f32::from(packets[0].parsed.ip.protocol());
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::record::Prepared;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn prepared() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 6, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn features_are_sane() {
        let d = prepared();
        for (_, idxs) in d.flows().into_iter().take(20) {
            let pkts: Vec<&PacketRecord> = idxs.iter().map(|&i| &d.records[i]).collect();
            let f = extract_flow_features(&pkts);
            assert_eq!(f[0] as usize, pkts.len());
            assert_eq!(f[0], f[1] + f[2], "fwd + bwd = total");
            assert!(f[9] <= f[7] && f[7] <= f[10], "min <= mean <= max");
            assert!(f[17] >= 0.0, "duration non-negative");
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn empty_flow_is_zero() {
        let f = extract_flow_features(&[]);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn flow_features_separate_classes_better_than_chance() {
        use crate::forest::{ForestParams, RandomForest};
        use dataset::Task;
        let d = prepared();
        let task = Task::VpnApp;
        let mut x: Vec<[f32; N_FLOW_FEATURES]> = Vec::new();
        let mut y: Vec<u16> = Vec::new();
        for (_, idxs) in d.flows() {
            let pkts: Vec<&PacketRecord> = idxs.iter().map(|&i| &d.records[i]).collect();
            x.push(extract_flow_features(&pkts));
            y.push(task.label_of(&d, &d.records[idxs[0]]));
        }
        let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
        let n = rows.len();
        let cut = n * 3 / 4;
        let rf = RandomForest::fit(&rows[..cut], &y[..cut], 16, ForestParams::default(), 1);
        let preds = rf.predict(&rows[cut..]);
        let acc =
            preds.iter().zip(&y[cut..]).filter(|(p, t)| p == t).count() as f64 / (n - cut) as f64;
        assert!(acc > 0.2, "flow-stats RF above 16-way chance, got {acc}");
    }
}
