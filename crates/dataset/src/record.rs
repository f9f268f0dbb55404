//! Packet records: the unit the downstream pipeline operates on.

use crate::codec::{read_rows, write_rows, ByteReader, ByteWriter, Row};
use net_packet::frame::ParsedFrame;
use traffic_synth::trace::{ClassMeta, Trace, TraceRecord, SPURIOUS_CLASS};

/// One cleaned, parsed, labelled packet.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Timestamp (seconds from trace start).
    pub ts: f64,
    /// Raw Ethernet frame bytes.
    pub frame: Vec<u8>,
    /// Parsed layered summary.
    pub parsed: ParsedFrame,
    /// Fine-grained class label.
    pub class: u16,
    /// Flow identifier (from the generator or flow assembly). A u64 so
    /// sequence-derived ids (online serving assigns the opening
    /// packet's global sequence number) never truncate or collide past
    /// 2³² packets.
    pub flow_id: u64,
    /// True if sent client→server.
    pub from_client: bool,
}

impl PacketRecord {
    /// Build from a labelled trace record; `None` if the frame does not
    /// parse as IP traffic (such packets are cleaned away anyway).
    pub fn from_trace_record(r: &TraceRecord) -> Option<PacketRecord> {
        if r.class == SPURIOUS_CLASS {
            return None;
        }
        let parsed = ParsedFrame::parse(&r.frame).ok()?;
        Some(PacketRecord {
            ts: r.ts,
            frame: r.frame.clone(),
            parsed,
            class: r.class,
            flow_id: u64::from(r.flow_id),
            from_client: r.from_client,
        })
    }

    /// Application payload bytes.
    pub fn payload(&self) -> &[u8] {
        self.parsed.payload_of(&self.frame)
    }

    /// Header bytes (Ethernet + IP + transport).
    pub fn headers(&self) -> &[u8] {
        self.parsed.headers_of(&self.frame)
    }
}

/// A prepared dataset: cleaned records plus the class table from the
/// originating trace.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Cleaned packet records.
    pub records: Vec<PacketRecord>,
    /// Class metadata (indexed by class id).
    pub classes: Vec<traffic_synth::trace::ClassMeta>,
}

impl Prepared {
    /// Build by cleaning a raw trace (drops spurious + unparseable).
    pub fn from_trace(trace: &Trace) -> Prepared {
        let records = trace.records.iter().filter_map(PacketRecord::from_trace_record).collect();
        Prepared { records, classes: trace.classes.clone() }
    }

    /// Number of distinct flows present.
    pub fn n_flows(&self) -> usize {
        let mut ids: Vec<u64> = self.records.iter().map(|r| r.flow_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Serialise for the artifact cache. The parsed layer view is not
    /// stored — it is a deterministic function of the frame bytes and is
    /// recomputed on decode — so the encoding stays compact and cannot
    /// drift from the parser.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_rows(&mut w, &self.records);
        write_classes(&mut w, &self.classes);
        w.into_bytes()
    }

    /// Decode a [`Prepared::to_bytes`] buffer, re-parsing every frame.
    /// Any malformed field — including an unparseable frame, which a
    /// faithful encoding can never contain — is an error, never a
    /// silently shorter dataset.
    pub fn from_bytes(bytes: &[u8]) -> Result<Prepared, String> {
        let mut r = ByteReader::new(bytes);
        let records = read_rows(&mut r)?;
        let classes = read_classes(&mut r)?;
        r.finish()?;
        Ok(Prepared { records, classes })
    }

    /// Group record indices by flow id, ordered by first appearance.
    pub fn flows(&self) -> Vec<(u64, Vec<usize>)> {
        let mut order: Vec<u64> = Vec::new();
        let mut map: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let e = map.entry(r.flow_id).or_default();
            if e.is_empty() {
                order.push(r.flow_id);
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

/// Records store their frame; decoding re-parses it (see [`Prepared::to_bytes`]).
impl Row for PacketRecord {
    const MIN_BYTES: usize = 23;
    fn write(&self, w: &mut ByteWriter) {
        w.f64(self.ts);
        w.bytes(&self.frame);
        w.u16(self.class);
        w.u64(self.flow_id);
        w.bool(self.from_client);
    }
    fn read(r: &mut ByteReader) -> Result<PacketRecord, String> {
        let ts = r.f64()?;
        let frame = r.bytes()?.to_vec();
        let parsed = ParsedFrame::parse(&frame).map_err(|e| format!("bad frame: {e}"))?;
        Ok(PacketRecord {
            ts,
            frame,
            parsed,
            class: r.u16()?,
            flow_id: r.u64()?,
            from_client: r.bool()?,
        })
    }
}

/// Write `u64 n` + `n` class-table entries (the class half of the
/// [`Prepared::to_bytes`] layout).
pub fn write_classes(w: &mut ByteWriter, classes: &[ClassMeta]) {
    w.u64(classes.len() as u64);
    for c in classes {
        w.u16(c.class);
        w.str(&c.name);
        w.u8(c.service);
        w.bool(c.is_vpn);
        w.bool(c.is_malware);
    }
}

/// Read a [`write_classes`] block.
pub fn read_classes(r: &mut ByteReader) -> Result<Vec<ClassMeta>, String> {
    let nc = r.count(9)?;
    let mut classes = Vec::with_capacity(nc);
    for _ in 0..nc {
        classes.push(ClassMeta {
            class: r.u16()?,
            name: r.str()?,
            service: r.u8()?,
            is_vpn: r.bool()?,
            is_malware: r.bool()?,
        });
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn prepared() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 1, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn spurious_records_dropped() {
        let t = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 1, flows_per_class: 2 }.generate();
        let p = Prepared::from_trace(&t);
        assert_eq!(p.records.len(), t.labelled_len());
        assert!(p.records.iter().all(|r| r.class != u16::MAX));
    }

    #[test]
    fn flows_are_grouped() {
        let p = prepared();
        let flows = p.flows();
        assert_eq!(flows.len(), p.n_flows());
        // Every flow's packets share one class.
        for (_, idxs) in &flows {
            let c = p.records[idxs[0]].class;
            assert!(idxs.iter().all(|&i| p.records[i].class == c));
        }
    }

    #[test]
    fn byte_codec_round_trips_and_rejects_corruption() {
        let p = prepared();
        let bytes = p.to_bytes();
        let back = Prepared::from_bytes(&bytes).unwrap();
        assert_eq!(back.records.len(), p.records.len());
        assert_eq!(back.classes.len(), p.classes.len());
        for (a, b) in p.records.iter().zip(&back.records) {
            assert_eq!(a.ts.to_bits(), b.ts.to_bits());
            assert_eq!(a.frame, b.frame);
            assert_eq!((a.class, a.flow_id, a.from_client), (b.class, b.flow_id, b.from_client));
            assert_eq!(a.payload(), b.payload(), "parsed view must be recomputed identically");
        }
        assert_eq!(back.to_bytes(), bytes, "re-encoding must be byte-identical");
        assert!(Prepared::from_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncation");
        let mut garbled = bytes.clone();
        garbled[10] ^= 0xff;
        // Flipping a byte lands in a frame, a length, or a count — all
        // must fail loudly rather than yield a quietly different dataset.
        if let Ok(alt) = Prepared::from_bytes(&garbled) {
            assert_ne!(alt.to_bytes(), bytes);
        }
    }

    #[test]
    fn payload_and_headers_partition_frame() {
        let p = prepared();
        let r = &p.records[0];
        assert_eq!(r.headers().len() + r.payload().len(), r.frame.len());
    }
}
