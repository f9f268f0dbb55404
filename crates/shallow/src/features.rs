//! Table-12 hand-crafted header features.
//!
//! One fixed-width `f32` vector per packet, fields missing for a
//! protocol padded with zero (App. A.2 "Shallow model"). 32-bit fields
//! (SeqNo/AckNo/timestamps) are split into hi/lo 16-bit halves so no
//! precision is lost in `f32`.

use dataset::record::PacketRecord;
use net_packet::frame::{IpInfo, TransportInfo};

/// Number of features in the vector.
pub const N_FEATURES: usize = 39;

/// Which feature groups to include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Include source/destination IP octets (explicit flow IDs).
    /// Table 8's "w/o IP addr" column sets this to false.
    pub with_ip: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self { with_ip: true }
    }
}

/// Human-readable feature names (Fig. 5 axis labels).
pub fn feature_names() -> [&'static str; N_FEATURES] {
    [
        "SRC IP0",
        "SRC IP1",
        "SRC IP2",
        "SRC IP3",
        "DST IP0",
        "DST IP1",
        "DST IP2",
        "DST IP3",
        "TOS",
        "IHL",
        "IP ID",
        "IP LEN",
        "IP FLAGS",
        "FRAG OFF",
        "TTL",
        "PROTO",
        "IP CKSUM",
        "SRC PORT",
        "DST PORT",
        "SEQ HI",
        "SEQ LO",
        "ACK HI",
        "ACK LO",
        "TCP OFF",
        "TCP FLAGS",
        "WINDOW",
        "TCP CKSUM",
        "URGENT",
        "TSVAL HI",
        "TSVAL LO",
        "TSECR HI",
        "TSECR LO",
        "MSS",
        "WSCALE",
        "UDP LEN",
        "UDP CKSUM",
        "PAYLOAD LEN",
        "PKT LEN",
        "DIRECTION",
    ]
}

/// Extract the Table-12 feature vector for one packet.
pub fn extract_features(rec: &PacketRecord, cfg: FeatureConfig) -> [f32; N_FEATURES] {
    let mut f = [0.0f32; N_FEATURES];
    match rec.parsed.ip {
        IpInfo::V4 {
            src,
            dst,
            tos,
            header_len,
            identification,
            total_length,
            flags,
            fragment_offset,
            ttl,
            protocol,
            checksum,
            ..
        } => {
            if cfg.with_ip {
                for i in 0..4 {
                    f[i] = f32::from(src.0[i]);
                    f[4 + i] = f32::from(dst.0[i]);
                }
            }
            f[8] = f32::from(tos);
            f[9] = f32::from(header_len);
            f[10] = f32::from(identification);
            f[11] = f32::from(total_length);
            f[12] = f32::from(flags);
            f[13] = f32::from(fragment_offset);
            f[14] = f32::from(ttl);
            f[15] = f32::from(protocol);
            f[16] = f32::from(checksum);
        }
        IpInfo::V6 {
            src,
            dst,
            traffic_class,
            flow_label,
            payload_length,
            next_header,
            hop_limit,
            ..
        } => {
            if cfg.with_ip {
                for i in 0..4 {
                    f[i] = f32::from(src.0[i]);
                    f[4 + i] = f32::from(dst.0[i]);
                }
            }
            f[8] = f32::from(traffic_class);
            f[10] = (flow_label & 0xffff) as f32;
            f[11] = f32::from(payload_length);
            f[14] = f32::from(hop_limit);
            f[15] = f32::from(next_header);
        }
    }
    match rec.parsed.transport {
        TransportInfo::Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            header_len,
            flags,
            window,
            checksum,
            urgent,
            timestamps,
            mss,
            window_scale,
        } => {
            f[17] = f32::from(src_port);
            f[18] = f32::from(dst_port);
            f[19] = (seq >> 16) as f32;
            f[20] = (seq & 0xffff) as f32;
            f[21] = (ack >> 16) as f32;
            f[22] = (ack & 0xffff) as f32;
            f[23] = f32::from(header_len);
            f[24] = f32::from(flags);
            f[25] = f32::from(window);
            f[26] = f32::from(checksum);
            f[27] = f32::from(urgent);
            if let Some((v, e)) = timestamps {
                f[28] = (v >> 16) as f32;
                f[29] = (v & 0xffff) as f32;
                f[30] = (e >> 16) as f32;
                f[31] = (e & 0xffff) as f32;
            }
            f[32] = f32::from(mss.unwrap_or(0));
            f[33] = f32::from(window_scale.unwrap_or(0));
        }
        TransportInfo::Udp { src_port, dst_port, length, checksum } => {
            f[17] = f32::from(src_port);
            f[18] = f32::from(dst_port);
            f[34] = f32::from(length);
            f[35] = f32::from(checksum);
        }
        TransportInfo::Icmp { msg_type, code } => {
            f[24] = f32::from(msg_type);
            f[27] = f32::from(code);
        }
        TransportInfo::Other => {}
    }
    f[36] = rec.payload().len() as f32;
    f[37] = rec.frame.len() as f32;
    f[38] = f32::from(u8::from(rec.from_client));
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::record::Prepared;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn prepared() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 3, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn names_cover_vector() {
        assert_eq!(feature_names().len(), N_FEATURES);
    }

    #[test]
    fn tcp_features_populated() {
        let d = prepared();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        let f = extract_features(rec, FeatureConfig::default());
        assert!(f[17] > 0.0, "src port");
        assert!(f[14] > 0.0, "ttl");
        assert!(f[37] > 0.0, "pkt len");
        // UDP-only slots stay zero for TCP
        assert_eq!(f[34], 0.0);
    }

    #[test]
    fn without_ip_zeroes_octets() {
        let d = prepared();
        let rec = &d.records[0];
        let f = extract_features(rec, FeatureConfig { with_ip: false });
        assert!(f[..8].iter().all(|&v| v == 0.0));
        let g = extract_features(rec, FeatureConfig { with_ip: true });
        assert!(g[..8].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn udp_features_populated() {
        let d = prepared();
        let rec = d
            .records
            .iter()
            .find(|r| matches!(r.parsed.transport, TransportInfo::Udp { .. }))
            .expect("some UDP traffic");
        let f = extract_features(rec, FeatureConfig::default());
        assert!(f[34] > 0.0, "udp length");
        assert_eq!(f[19], 0.0, "no seq for UDP");
    }

    #[test]
    fn seq_split_preserves_precision() {
        let d = prepared();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        if let TransportInfo::Tcp { seq, .. } = rec.parsed.transport {
            let f = extract_features(rec, FeatureConfig::default());
            let rebuilt = (f[19] as u32) << 16 | f[20] as u32;
            assert_eq!(rebuilt, seq);
        }
    }
}
