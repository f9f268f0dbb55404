//! Labelled trace container and spurious-traffic injection.

use crate::flow::FlowPacket;
use net_packet::ethernet::MacAddr;
use net_packet::ipv4::Ipv4Addr;
use net_packet::pcap::{self, PcapPacket};
use net_packet::spurious;
use rand::rngs::StdRng;
use rand::Rng;

/// Metadata describing one class of the dataset.
#[derive(Debug, Clone)]
pub struct ClassMeta {
    /// Fine-grained class id (application / website index).
    pub class: u16,
    /// Human-readable class name.
    pub name: String,
    /// Service category index (for ISCX-VPN service task).
    pub service: u8,
    /// Whether the class runs over a VPN tunnel.
    pub is_vpn: bool,
    /// Whether the class is malware (USTC-TFC).
    pub is_malware: bool,
}

/// One labelled packet of a trace. `class = u16::MAX` marks spurious
/// traffic that carries no class label (ARP, DHCP, ...).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Timestamp (seconds from trace start).
    pub ts: f64,
    /// Raw Ethernet frame.
    pub frame: Vec<u8>,
    /// Fine-grained class label, or `u16::MAX` for spurious packets.
    pub class: u16,
    /// Flow index within the trace (spurious packets get `u32::MAX`).
    pub flow_id: u32,
    /// Direction: true if client→server.
    pub from_client: bool,
}

/// Label value marking spurious (unlabelled) traffic.
pub const SPURIOUS_CLASS: u16 = u16::MAX;

/// A complete labelled trace plus its class table.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Packets in chronological order.
    pub records: Vec<TraceRecord>,
    /// Per-class metadata, indexed by class id.
    pub classes: Vec<ClassMeta>,
}

impl Trace {
    /// Number of non-spurious packets.
    pub fn labelled_len(&self) -> usize {
        self.records.iter().filter(|r| r.class != SPURIOUS_CLASS).count()
    }

    /// Number of spurious packets.
    pub fn spurious_len(&self) -> usize {
        self.records.len() - self.labelled_len()
    }

    /// Append the packets of a synthesised flow under `class`/`flow_id`.
    pub fn push_flow(&mut self, class: u16, flow_id: u32, packets: Vec<FlowPacket>) {
        for p in packets {
            self.records.push(TraceRecord {
                ts: p.ts,
                frame: p.frame,
                class,
                flow_id,
                from_client: p.from_client,
            });
        }
    }

    /// Sort records chronologically (generation appends flow-by-flow).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    }

    /// Inject spurious LAN traffic so that roughly `fraction` of the
    /// final trace is extraneous protocol chatter (paper: ISCX ≈ 5%,
    /// USTC ≈ 10%, CSTNET 0%).
    pub fn inject_spurious(&mut self, fraction: f64, rng: &mut StdRng) {
        if self.records.is_empty() {
            return;
        }
        let t_max = self.records.iter().map(|r| r.ts).fold(0.0f64, f64::max);
        let run = spurious_run(self.records.len(), fraction, t_max, rng);
        if run.is_empty() {
            return;
        }
        self.records.extend(run);
        self.sort_by_time();
    }

    /// Export to pcap bytes (inspectable with Wireshark/tcpdump).
    pub fn to_pcap(&self) -> Vec<u8> {
        let packets: Vec<PcapPacket> =
            self.records.iter().map(|r| PcapPacket::at(r.ts, r.frame.clone())).collect();
        pcap::write_all(&packets)
    }
}

/// Generate the spurious-traffic records for a trace of `labelled`
/// packets whose latest timestamp is `t_max`: exactly the records
/// [`Trace::inject_spurious`] appends, in generation order (unsorted).
///
/// Factored out of `inject_spurious` so the sharded generator
/// ([`crate::stream::FlowPlan::spurious_records`]) can emit the same
/// records as a final run after all flow shards have been tallied — the
/// spurious count and time span depend on the whole labelled trace.
pub fn spurious_run(
    labelled: usize,
    fraction: f64,
    t_max: f64,
    rng: &mut StdRng,
) -> Vec<TraceRecord> {
    if fraction <= 0.0 || labelled == 0 {
        return Vec::new();
    }
    let n = ((labelled as f64) * fraction / (1.0 - fraction)).round() as usize;
    let mac = MacAddr([0x02, 0, 0, 0, 0, 0x77]);
    let host = Ipv4Addr::new(192, 168, 1, rng.gen_range(2..250));
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ts = rng.gen_range(0.0..t_max.max(1.0));
        let frame = match rng.gen_range(0..10) {
            0 => {
                spurious::arp_request(mac, host, Ipv4Addr::new(192, 168, 1, rng.gen_range(1..254)))
            }
            1 => spurious::dhcp_discover(mac, rng.gen()),
            2 => spurious::mdns_query(mac, host, "_companion-link._tcp.local"),
            3 => spurious::llmnr_query(mac, host, "workstation"),
            4 => spurious::nbns_query(mac, host, "WORKGROUP"),
            5 => spurious::ssdp_msearch(mac, host),
            6 => spurious::ntp_request(mac, host, Ipv4Addr::new(17, 253, 14, 125)),
            7 => spurious::stun_binding(mac, host, Ipv4Addr::new(74, 125, 250, 129)),
            8 => spurious::igmp_report(mac, host, Ipv4Addr::new(224, 0, 0, 251)),
            _ => spurious::icmp_ping(mac, host, Ipv4Addr::new(8, 8, 8, 8), rng.gen()),
        };
        out.push(TraceRecord {
            ts,
            frame,
            class: SPURIOUS_CLASS,
            flow_id: u32::MAX,
            from_client: true,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_trace() -> Trace {
        let mut t = Trace::default();
        let prof =
            crate::profile::AppProfile::derive(1, 0, 4, crate::profile::TransportKind::TlsTcp);
        let mut rng = StdRng::seed_from_u64(1);
        let f = crate::flow::synth_flow(&prof, Ipv4Addr::new(10, 0, 0, 9), 0.0, &mut rng, false);
        t.push_flow(0, 0, f.packets);
        t
    }

    #[test]
    fn spurious_fraction_approximate() {
        let mut t = tiny_trace();
        let before = t.records.len();
        let mut rng = StdRng::seed_from_u64(2);
        t.inject_spurious(0.10, &mut rng);
        let added = t.records.len() - before;
        let frac = added as f64 / t.records.len() as f64;
        assert!((0.05..0.16).contains(&frac), "got fraction {frac}");
        assert_eq!(t.spurious_len(), added);
    }

    #[test]
    fn records_sorted_after_injection() {
        let mut t = tiny_trace();
        let mut rng = StdRng::seed_from_u64(3);
        t.inject_spurious(0.2, &mut rng);
        for w in t.records.windows(2) {
            assert!(w[1].ts >= w[0].ts);
        }
    }

    #[test]
    fn pcap_export_round_trips() {
        let t = tiny_trace();
        let bytes = t.to_pcap();
        let back = net_packet::pcap::read_all(&bytes[..]).unwrap();
        assert_eq!(back.len(), t.records.len());
        assert_eq!(back[0].data, t.records[0].frame);
    }

    #[test]
    fn zero_fraction_is_noop() {
        let mut t = tiny_trace();
        let n = t.records.len();
        let mut rng = StdRng::seed_from_u64(4);
        t.inject_spurious(0.0, &mut rng);
        assert_eq!(t.records.len(), n);
    }
}
