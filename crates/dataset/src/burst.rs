//! Burst segmentation (paper footnote 4: "burst: sequence of
//! consecutive packets that belong to the same flow") — the structural
//! unit netFound's pre-training and flow encoding operate on, and the
//! basis of ET-BERT's Same-origin Burst Prediction task.
//!
//! A burst ends when the direction flips or the inter-arrival gap
//! exceeds a threshold.

use crate::record::Prepared;

/// One burst: indices of consecutive same-direction packets of a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    /// Record indices (into the `Prepared` dataset), in time order.
    pub packets: Vec<usize>,
    /// Direction: true if client→server.
    pub from_client: bool,
}

impl Burst {
    /// Packets in the burst.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the burst is empty (never produced by segmentation).
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Segment one flow's packet indices into bursts.
///
/// `max_gap` is the inter-arrival threshold (seconds) that closes a
/// burst even without a direction change (netFound uses time-gapped
/// bursts; ET-BERT uses direction-only — pass `f64::INFINITY`).
pub fn segment_flow(data: &Prepared, flow_packets: &[usize], max_gap: f64) -> Vec<Burst> {
    let mut bursts: Vec<Burst> = Vec::new();
    for &i in flow_packets {
        let r = &data.records[i];
        let start_new = match bursts.last() {
            None => true,
            Some(b) => {
                let last = &data.records[*b.packets.last().expect("non-empty burst")];
                b.from_client != r.from_client || (r.ts - last.ts) > max_gap
            }
        };
        if start_new {
            bursts.push(Burst { packets: vec![i], from_client: r.from_client });
        } else {
            bursts.last_mut().expect("just checked").packets.push(i);
        }
    }
    bursts
}

/// netFound's flow summarisation (§6.2): pick up to `max_bursts`
/// bursts around the median-length burst, and up to `max_packets`
/// packets around each burst's median packet.
pub fn netfound_selection(
    bursts: &[Burst],
    max_bursts: usize,
    max_packets: usize,
) -> Vec<Vec<usize>> {
    if bursts.is_empty() {
        return Vec::new();
    }
    // order bursts by length, take those closest to the median length
    let mut order: Vec<usize> = (0..bursts.len()).collect();
    order.sort_by_key(|&i| bursts[i].len());
    let median_pos = order.len() / 2;
    let mut chosen: Vec<usize> = Vec::new();
    let mut lo = median_pos;
    let mut hi = median_pos + 1;
    while chosen.len() < max_bursts.min(order.len()) {
        if lo < order.len() && chosen.len() < max_bursts {
            chosen.push(order[lo]);
        }
        if hi < order.len() && chosen.len() < max_bursts {
            chosen.push(order[hi]);
            hi += 1;
        }
        if lo == 0 {
            if hi >= order.len() {
                break;
            }
        } else {
            lo -= 1;
        }
    }
    chosen.sort_unstable(); // restore time order
    chosen
        .into_iter()
        .map(|bi| {
            let b = &bursts[bi];
            let n = b.packets.len();
            let take = max_packets.min(n);
            let start = (n - take) / 2; // centred on the median packet
            b.packets[start..start + take].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn prepared() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 5, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn bursts_partition_the_flow() {
        let d = prepared();
        for (_, idxs) in d.flows().into_iter().take(10) {
            let bursts = segment_flow(&d, &idxs, f64::INFINITY);
            let total: usize = bursts.iter().map(Burst::len).sum();
            assert_eq!(total, idxs.len(), "bursts must cover every packet exactly once");
            assert!(bursts.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn bursts_are_direction_homogeneous() {
        let d = prepared();
        for (_, idxs) in d.flows().into_iter().take(10) {
            for b in segment_flow(&d, &idxs, f64::INFINITY) {
                assert!(b.packets.iter().all(|&i| d.records[i].from_client == b.from_client));
            }
        }
    }

    #[test]
    fn adjacent_bursts_alternate_direction_without_gap() {
        let d = prepared();
        let (_, idxs) = d.flows().into_iter().next().unwrap();
        let bursts = segment_flow(&d, &idxs, f64::INFINITY);
        for w in bursts.windows(2) {
            assert_ne!(w[0].from_client, w[1].from_client);
        }
    }

    #[test]
    fn time_gap_splits_same_direction_runs() {
        let d = prepared();
        let (_, idxs) = d.flows().into_iter().max_by_key(|(_, v)| v.len()).unwrap();
        let loose = segment_flow(&d, &idxs, f64::INFINITY).len();
        let tight = segment_flow(&d, &idxs, 1e-9).len();
        assert!(tight >= loose, "a tiny gap threshold can only create more bursts");
        assert_eq!(tight, idxs.len(), "zero-ish gap puts every packet in its own burst");
    }

    #[test]
    fn netfound_selection_respects_caps() {
        let d = prepared();
        let (_, idxs) = d.flows().into_iter().max_by_key(|(_, v)| v.len()).unwrap();
        let bursts = segment_flow(&d, &idxs, 0.5);
        let sel = netfound_selection(&bursts, 12, 6);
        assert!(sel.len() <= 12.min(bursts.len()));
        assert!(sel.iter().all(|b| b.len() <= 6));
        // selected packets exist in the flow
        let flow_set: std::collections::HashSet<usize> = idxs.iter().copied().collect();
        assert!(sel.iter().flatten().all(|i| flow_set.contains(i)));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let d = prepared();
        assert!(segment_flow(&d, &[], 1.0).is_empty());
        assert!(netfound_selection(&[], 12, 6).is_empty());
    }
}
