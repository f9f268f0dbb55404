//! Ablation transforms (Tables 6 and 7): in-place frame rewrites that
//! remove explicit or implicit identifiers while keeping frames valid
//! (lengths and checksums are refreshed).

use crate::record::PacketRecord;
use net_packet::ethernet::EthernetFrame;
use net_packet::frame::ParsedFrame;
use net_packet::ipv4::{Ipv4Addr, Ipv4Packet};
use net_packet::tcp::TcpSegment;
use rand::rngs::StdRng;
use rand::Rng;

/// Which bytes of the packet a model input may see. Used by the
/// Pcap-Encoder input ablation (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputAblation {
    /// Full frame.
    Base,
    /// IP addresses zeroed.
    NoIpAddr,
    /// Entire IP+transport headers hidden (payload only).
    NoHeader,
    /// Application payload hidden (headers only).
    NoPayload,
}

impl InputAblation {
    /// Stable tag used in artifact-cache fingerprints. Renaming the enum
    /// variant must not silently invalidate (or worse, alias) cached
    /// token matrices, so the tag is spelled out rather than derived.
    pub fn cache_tag(self) -> &'static str {
        match self {
            InputAblation::Base => "base",
            InputAblation::NoIpAddr => "no-ip",
            InputAblation::NoHeader => "no-header",
            InputAblation::NoPayload => "no-payload",
        }
    }
}

fn with_tcp_ipv4<F>(frame: &mut [u8], f: F) -> bool
where
    F: FnOnce(&mut TcpSegment<&mut [u8]>),
{
    let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
        return false;
    };
    if eth.ethertype() != net_packet::ethernet::EtherType::Ipv4 {
        return false;
    }
    let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
        return false;
    };
    if ip.protocol() != net_packet::ipv4::IpProtocol::Tcp {
        return false;
    }
    let (src, dst) = (ip.src_addr(), ip.dst_addr());
    let ip_start = net_packet::ethernet::HEADER_LEN;
    let tcp_start = ip_start + ip.header_len();
    let total = ip_start + ip.total_length() as usize;
    let Ok(mut tcp) = TcpSegment::new_checked(&mut frame[tcp_start..total]) else {
        return false;
    };
    f(&mut tcp);
    tcp.fill_checksum_v4(src, dst);
    true
}

/// Randomise the TCP SeqNo, AckNo and Timestamps option of a frame —
/// destroying the implicit flow IDs (Table 6). Non-TCP frames are left
/// untouched. Returns true if the frame was modified.
pub fn randomize_flow_ids(frame: &mut [u8], rng: &mut StdRng) -> bool {
    let seq: u32 = rng.gen();
    let ack: u32 = rng.gen();
    let tsv: u32 = rng.gen();
    let tse: u32 = rng.gen();
    with_tcp_ipv4(frame, |tcp| {
        tcp.set_seq_number(seq);
        tcp.set_ack_number(ack);
        let _ = tcp.set_timestamps(tsv, tse);
    })
}

/// Zero both IP addresses (explicit flow IDs), refreshing the IP header
/// checksum and the transport checksum. Returns true if modified.
pub fn zero_ip_addresses(frame: &mut [u8]) -> bool {
    let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
        return false;
    };
    if eth.ethertype() != net_packet::ethernet::EtherType::Ipv4 {
        return false;
    }
    let ip_start = net_packet::ethernet::HEADER_LEN;
    let Ok(mut ip) = Ipv4Packet::new_checked(&mut frame[ip_start..]) else {
        return false;
    };
    ip.set_src_addr(Ipv4Addr::default());
    ip.set_dst_addr(Ipv4Addr::default());
    ip.fill_checksum();
    let is_tcp = ip.protocol() == net_packet::ipv4::IpProtocol::Tcp;
    let hl = ip.header_len();
    let total = ip.total_length() as usize;
    if is_tcp {
        if let Ok(mut tcp) = TcpSegment::new_checked(&mut frame[ip_start + hl..ip_start + total]) {
            tcp.fill_checksum_v4(Ipv4Addr::default(), Ipv4Addr::default());
        }
    }
    true
}

/// Truncate the application payload, fixing the IP total length and
/// checksums. Returns the shortened frame.
pub fn strip_payload(frame: &[u8]) -> Vec<u8> {
    let Ok(parsed) = ParsedFrame::parse(frame) else {
        return frame.to_vec();
    };
    let mut out = frame[..parsed.payload_offset].to_vec();
    let ip_start = net_packet::ethernet::HEADER_LEN;
    let new_total = (out.len() - ip_start) as u16;
    if let net_packet::frame::IpInfo::V4 { src, dst, .. } = parsed.ip {
        out[ip_start + 2..ip_start + 4].copy_from_slice(&new_total.to_be_bytes());
        if let Ok(mut ip) = Ipv4Packet::new_checked(&mut out[ip_start..]) {
            ip.fill_checksum();
        }
        if parsed.transport.is_tcp() {
            let tcp_start = parsed.transport_offset;
            if let Ok(mut tcp) = TcpSegment::new_checked(&mut out[tcp_start..]) {
                tcp.fill_checksum_v4(src, dst);
            }
        }
    }
    out
}

/// Apply an input ablation to a record, returning the byte window the
/// model is allowed to see (used by Pcap-Encoder's Table-7 ablation).
pub fn ablated_view(record: &PacketRecord, ablation: InputAblation) -> Vec<u8> {
    match ablation {
        InputAblation::Base => record.frame.clone(),
        InputAblation::NoIpAddr => {
            let mut f = record.frame.clone();
            zero_ip_addresses(&mut f);
            f
        }
        InputAblation::NoHeader => record.payload().to_vec(),
        InputAblation::NoPayload => strip_payload(&record.frame),
    }
}

/// Apply [`randomize_flow_ids`] to every record of a prepared dataset
/// (reparsing so downstream consumers see the new values).
pub fn randomize_dataset_flow_ids(records: &mut [PacketRecord], rng: &mut StdRng) {
    for r in records {
        if randomize_flow_ids(&mut r.frame, rng) {
            if let Ok(p) = ParsedFrame::parse(&r.frame) {
                r.parsed = p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_packet::builder::FrameBuilder;
    use net_packet::frame::TransportInfo;
    use net_packet::tcp::TcpOption;
    use rand::SeedableRng;

    fn tcp_frame() -> Vec<u8> {
        FrameBuilder::tcp_ipv4_default()
            .seq_ack(1111, 2222)
            .option(TcpOption::Nop)
            .option(TcpOption::Nop)
            .option(TcpOption::Timestamps(777, 888))
            .payload(vec![9; 32])
            .build()
    }

    fn checksums_ok(frame: &[u8]) -> bool {
        let eth = EthernetFrame::new_checked(frame).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        if !ip.verify_checksum() {
            return false;
        }
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        tcp.verify_checksum_v4(ip.src_addr(), ip.dst_addr())
    }

    #[test]
    fn randomize_changes_ids_and_keeps_checksums() {
        let mut f = tcp_frame();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(randomize_flow_ids(&mut f, &mut rng));
        let p = ParsedFrame::parse(&f).unwrap();
        match p.transport {
            TransportInfo::Tcp { seq, ack, timestamps, .. } => {
                assert_ne!(seq, 1111);
                assert_ne!(ack, 2222);
                assert_ne!(timestamps, Some((777, 888)));
            }
            _ => panic!("expected TCP"),
        }
        assert!(checksums_ok(&f));
    }

    #[test]
    fn zero_ips_and_keep_checksums() {
        let mut f = tcp_frame();
        assert!(zero_ip_addresses(&mut f));
        let p = ParsedFrame::parse(&f).unwrap();
        match p.ip {
            net_packet::frame::IpInfo::V4 { src, dst, .. } => {
                assert_eq!(src, Ipv4Addr::default());
                assert_eq!(dst, Ipv4Addr::default());
            }
            _ => panic!("expected v4"),
        }
        assert!(checksums_ok(&f));
    }

    #[test]
    fn strip_payload_shortens_and_keeps_valid() {
        let f = tcp_frame();
        let s = strip_payload(&f);
        assert!(s.len() < f.len());
        let p = ParsedFrame::parse(&s).unwrap();
        assert_eq!(p.payload_len(), 0);
        assert!(checksums_ok(&s));
    }

    #[test]
    fn ablated_views_differ() {
        let f = tcp_frame();
        let parsed = ParsedFrame::parse(&f).unwrap();
        let r = PacketRecord {
            ts: 0.0,
            frame: f.clone(),
            parsed,
            class: 0,
            flow_id: 0,
            from_client: true,
        };
        let base = ablated_view(&r, InputAblation::Base);
        let no_ip = ablated_view(&r, InputAblation::NoIpAddr);
        let no_hdr = ablated_view(&r, InputAblation::NoHeader);
        let no_pl = ablated_view(&r, InputAblation::NoPayload);
        assert_eq!(base, f);
        assert_ne!(no_ip, base);
        assert_eq!(no_hdr, vec![9u8; 32]);
        assert!(no_pl.len() < base.len());
    }

    #[test]
    fn udp_frame_not_modified_by_randomize() {
        let mut f = FrameBuilder::udp_ipv4_default().payload(vec![1, 2, 3]).build();
        let orig = f.clone();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!randomize_flow_ids(&mut f, &mut rng));
        assert_eq!(f, orig);
    }
}
