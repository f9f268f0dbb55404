//! Ingest external captures: build a [`Prepared`] dataset from raw
//! pcap bytes, assembling bi-flows by canonical 5-tuple — the path a
//! downstream user takes with their *own* traffic instead of the
//! synthetic recipes.
//!
//! Labels are supplied by a caller-provided function (e.g. derived
//! from SNI, port, or an external ground-truth file); packets it maps
//! to `None` are dropped.

use crate::record::{PacketRecord, Prepared};
use net_packet::frame::{FlowKey, ParsedFrame};
use net_packet::ident::identify;
use net_packet::pcap::{self, PcapPacket};
use std::collections::HashMap;

/// Statistics from one ingestion run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Packets in the capture.
    pub total: usize,
    /// Dropped as spurious protocols (cleaning filter).
    pub spurious: usize,
    /// Dropped because they failed to parse as IP traffic.
    pub unparseable: usize,
    /// Dropped because the labeller returned `None`.
    pub unlabelled: usize,
    /// Packets kept.
    pub kept: usize,
    /// Distinct bi-flows assembled.
    pub flows: usize,
}

/// Ingest pcap bytes into a [`Prepared`] dataset.
///
/// `label_of` maps each parsed packet to a class id (or `None` to
/// drop). Cleaning (Table-13 filters) is applied first; bi-flows are
/// assembled by canonical 5-tuple; direction is inferred from the
/// first packet seen of each flow (its sender is "the client", the
/// usual heuristic when handshakes may be absent).
pub fn ingest_pcap(
    bytes: &[u8],
    label_of: &dyn Fn(&ParsedFrame, &[u8]) -> Option<u16>,
) -> Result<(Prepared, IngestStats), net_packet::error::Error> {
    let packets = pcap::read_all(bytes)?;
    Ok(ingest_packets(&packets, label_of))
}

/// Ingest already-decoded pcap packets (see [`ingest_pcap`]).
pub fn ingest_packets(
    packets: &[PcapPacket],
    label_of: &dyn Fn(&ParsedFrame, &[u8]) -> Option<u16>,
) -> (Prepared, IngestStats) {
    let mut ingestor = Ingestor::new(label_of);
    for p in packets {
        ingestor.push(p.timestamp(), &p.data);
    }
    ingestor.finish()
}

/// Push-based flow assembler behind [`ingest_packets`]: packets arrive
/// one at a time (e.g. from an out-of-core shard stream or a live
/// source) and only the flow-id table — not the packets — is held
/// across calls, so ingest memory is bounded by the flow count, not the
/// capture size, when the caller drains [`Ingestor::take_records`]
/// between chunks.
pub struct Ingestor<'a> {
    label_of: &'a dyn Fn(&ParsedFrame, &[u8]) -> Option<u16>,
    stats: IngestStats,
    flow_ids: HashMap<FlowKey, (u32, EndpointKey)>,
    records: Vec<PacketRecord>,
    max_class: u16,
}

impl<'a> Ingestor<'a> {
    /// New assembler; `label_of` as in [`ingest_pcap`].
    pub fn new(label_of: &'a dyn Fn(&ParsedFrame, &[u8]) -> Option<u16>) -> Ingestor<'a> {
        Ingestor {
            label_of,
            stats: IngestStats::default(),
            flow_ids: HashMap::new(),
            records: Vec::new(),
            max_class: 0,
        }
    }

    /// Push one packet. Returns `true` when the packet was kept.
    pub fn push(&mut self, ts: f64, frame: &[u8]) -> bool {
        self.stats.total += 1;
        if identify(frame).is_spurious() {
            self.stats.spurious += 1;
            return false;
        }
        let Ok(parsed) = ParsedFrame::parse(frame) else {
            self.stats.unparseable += 1;
            return false;
        };
        let Some(class) = (self.label_of)(&parsed, frame) else {
            self.stats.unlabelled += 1;
            return false;
        };
        let Some(key) = parsed.flow_key() else {
            self.stats.unparseable += 1;
            return false;
        };
        self.max_class = self.max_class.max(class);
        let next_id = self.flow_ids.len() as u32;
        let sender = sender_key(&parsed);
        let (flow_id, client) = *self.flow_ids.entry(key).or_insert((next_id, sender));
        self.records.push(PacketRecord {
            ts,
            frame: frame.to_vec(),
            parsed,
            class,
            flow_id: u64::from(flow_id),
            from_client: sender == client,
        });
        self.stats.kept += 1;
        true
    }

    /// Drain the records accumulated since the last drain, keeping the
    /// flow table (chunked out-of-core consumption).
    pub fn take_records(&mut self) -> Vec<PacketRecord> {
        std::mem::take(&mut self.records)
    }

    /// Statistics so far (`kept`/`flows` are finalised by `finish`).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Finish: synthesise the class table and final statistics.
    pub fn finish(mut self) -> (Prepared, IngestStats) {
        self.stats.flows = self.flow_ids.len();
        let classes = (0..=self.max_class)
            .map(|c| traffic_synth::trace::ClassMeta {
                class: c,
                name: format!("class{c}"),
                service: 0,
                is_vpn: false,
                is_malware: false,
            })
            .collect();
        (Prepared { records: self.records, classes }, self.stats)
    }
}

/// Opaque per-endpoint key used for direction inference.
type EndpointKey = (u128, u16);

fn sender_key(parsed: &ParsedFrame) -> EndpointKey {
    let addr = match parsed.ip {
        net_packet::frame::IpInfo::V4 { src, .. } => u128::from(src.to_u32()),
        net_packet::frame::IpInfo::V6 { src, .. } => u128::from_be_bytes(src.0),
    };
    (addr, parsed.transport.src_port())
}

/// A convenience labeller: classify by server (destination) port.
/// Returns the index of the port in `ports`, or `None`.
pub fn label_by_server_port(ports: &[u16]) -> impl Fn(&ParsedFrame, &[u8]) -> Option<u16> + '_ {
    move |parsed, _frame| {
        let (sp, dp) = (parsed.transport.src_port(), parsed.transport.dst_port());
        ports.iter().position(|&p| p == dp || p == sp).map(|i| i as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn capture() -> Vec<u8> {
        DatasetSpec { kind: DatasetKind::IscxVpn, seed: 77, flows_per_class: 2 }
            .generate()
            .to_pcap()
    }

    #[test]
    fn ingest_assembles_flows_and_cleans() {
        let bytes = capture();
        let (data, stats) = ingest_pcap(&bytes, &|_, _| Some(0)).unwrap();
        assert!(stats.spurious > 0, "ISCX capture contains spurious chatter");
        assert_eq!(stats.kept, data.records.len());
        assert_eq!(stats.flows, data.n_flows());
        assert!(stats.flows > 10);
        // every flow's packets share one flow id and alternate directions
        for (_, idxs) in data.flows() {
            let c = data.records[idxs[0]].class;
            assert!(idxs.iter().all(|&i| data.records[i].class == c));
        }
    }

    #[test]
    fn first_packet_defines_client_direction() {
        let bytes = capture();
        let (data, _) = ingest_pcap(&bytes, &|_, _| Some(0)).unwrap();
        for (_, idxs) in data.flows() {
            assert!(
                data.records[idxs[0]].from_client,
                "first packet of a flow is from the client by definition"
            );
        }
    }

    #[test]
    fn port_labeller_filters() {
        let bytes = capture();
        let labeller = label_by_server_port(&[443]);
        let (data, stats) = ingest_pcap(&bytes, &labeller).unwrap();
        assert!(stats.unlabelled > 0, "non-443 traffic dropped");
        assert!(!data.records.is_empty());
        for r in &data.records {
            let (sp, dp) = (r.parsed.transport.src_port(), r.parsed.transport.dst_port());
            assert!(sp == 443 || dp == 443);
        }
    }

    #[test]
    fn bad_pcap_rejected() {
        assert!(ingest_pcap(&[1, 2, 3], &|_, _| Some(0)).is_err());
    }

    #[test]
    fn chunked_ingestor_matches_batch_ingest() {
        // Push + drain in small chunks must assemble exactly the flows
        // and records of the one-shot path: the flow table is the only
        // state carried across drains.
        let bytes = capture();
        let packets = pcap::read_all(&bytes[..]).unwrap();
        let labeller = |_: &ParsedFrame, _: &[u8]| Some(0u16);
        let (batch, batch_stats) = ingest_packets(&packets, &labeller);

        let mut ing = Ingestor::new(&labeller);
        let mut records = Vec::new();
        for chunk in packets.chunks(13) {
            for p in chunk {
                ing.push(p.timestamp(), &p.data);
            }
            records.extend(ing.take_records());
        }
        let (rest, stats) = ing.finish();
        records.extend(rest.records);

        assert_eq!(stats, batch_stats);
        assert_eq!(records.len(), batch.records.len());
        for (a, b) in records.iter().zip(&batch.records) {
            assert_eq!(a.ts.to_bits(), b.ts.to_bits());
            assert_eq!(a.frame, b.frame);
            assert_eq!((a.class, a.flow_id, a.from_client), (b.class, b.flow_id, b.from_client));
        }
    }
}
