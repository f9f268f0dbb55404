//! Model-specific input preparation and tokenisation.
//!
//! Each paper prescribes which bytes its model sees and how identifying
//! fields are anonymised (App. A.2). We reproduce those rules here; the
//! output is a sequence of hashed `(position, value)` tokens consumed
//! by the shared embedding backbone.

use dataset::record::PacketRecord;
use net_packet::frame::{IpInfo, TransportInfo};
use rand::rngs::StdRng;
use rand::Rng;

/// Hashed vocabulary size shared by all models.
pub const VOCAB: usize = 65536;

/// FNV-1a-style token hash folding position, value and a per-model salt.
pub fn hash_token(pos: u32, val: u32, salt: u32) -> u32 {
    let mut h: u32 = 0x811c_9dc5 ^ salt.wrapping_mul(0x9e37_79b9);
    for b in [pos, val] {
        h ^= b;
        h = h.wrapping_mul(0x0100_0193);
    }
    h % VOCAB as u32
}

/// Tokenise a byte window as position-aware 2-byte words.
pub fn word_tokens(bytes: &[u8], max_words: usize, salt: u32, out: &mut Vec<u32>) {
    for (i, w) in bytes.chunks(2).take(max_words).enumerate() {
        let val = if w.len() == 2 {
            u32::from(u16::from_be_bytes([w[0], w[1]]))
        } else {
            u32::from(w[0]) << 16
        };
        out.push(hash_token(i as u32, val, salt));
    }
}

/// Tokenise as position-aware 4-byte patches (image-style models).
pub fn patch_tokens(bytes: &[u8], max_patches: usize, salt: u32, out: &mut Vec<u32>) {
    for (i, p) in bytes.chunks(4).take(max_patches).enumerate() {
        let mut val = 0u32;
        for &b in p {
            val = (val << 8) | u32::from(b);
        }
        out.push(hash_token(i as u32, val, salt));
    }
}

/// Tokenise as position-aware single bytes (sequence-model style).
pub fn byte_tokens(bytes: &[u8], max_bytes: usize, salt: u32, out: &mut Vec<u32>) {
    for (i, &b) in bytes.iter().take(max_bytes).enumerate() {
        out.push(hash_token(i as u32, u32::from(b), salt));
    }
}

/// The TCP/UDP header bytes with ports zeroed (ET-BERT preparation:
/// "remove the Ethernet and IP header and TCP ports").
pub fn transport_bytes_no_ports(rec: &PacketRecord) -> Vec<u8> {
    let mut bytes = rec.frame[rec.parsed.transport_offset..].to_vec();
    if bytes.len() >= 4 {
        bytes[0..4].fill(0); // src+dst ports for both TCP and UDP
    }
    bytes
}

/// IP header onward with IP addresses and ports zeroed (YaTC/NetMamba
/// preparation).
pub fn ip_bytes_anonymised(rec: &PacketRecord) -> Vec<u8> {
    let mut bytes = rec.frame[rec.parsed.ip_offset..].to_vec();
    match rec.parsed.ip {
        IpInfo::V4 { .. } => {
            if bytes.len() >= 20 {
                bytes[12..20].fill(0);
            }
            let tr = rec.parsed.transport_offset - rec.parsed.ip_offset;
            if bytes.len() >= tr + 4 {
                bytes[tr..tr + 4].fill(0);
            }
        }
        IpInfo::V6 { .. } => {
            if bytes.len() >= 40 {
                bytes[8..40].fill(0);
            }
            let tr = rec.parsed.transport_offset - rec.parsed.ip_offset;
            if bytes.len() >= tr + 4 {
                bytes[tr..tr + 4].fill(0);
            }
        }
    }
    bytes
}

/// IP header onward with IP addresses and ports *randomised* (the
/// TrafficFormer training-time augmentation).
pub fn ip_bytes_randomised(rec: &PacketRecord, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = rec.frame[rec.parsed.ip_offset..].to_vec();
    if let IpInfo::V4 { .. } = rec.parsed.ip {
        if bytes.len() >= 20 {
            rng.fill(&mut bytes[12..20]);
        }
        let tr = rec.parsed.transport_offset - rec.parsed.ip_offset;
        if bytes.len() >= tr + 4 {
            rng.fill(&mut bytes[tr..tr + 4]);
        }
    }
    bytes
}

/// Quantise a value into one of `buckets` log-spaced bins.
pub fn log_bucket(v: u32, buckets: u32) -> u32 {
    if v == 0 {
        return 0;
    }
    (32 - v.leading_zeros()).min(buckets - 1)
}

/// netFound-style header-field tokens: selected header fields become
/// `(field_id, value)` tokens; explicit flow identifiers are omitted.
pub fn netfound_field_tokens(rec: &PacketRecord, salt: u32, out: &mut Vec<u32>) {
    let mut field = |id: u32, val: u32| out.push(hash_token(1000 + id, val, salt));
    field(0, rec.frame.len() as u32 / 16); // packet length bucket
    field(1, u32::from(rec.parsed.ip.ttl()));
    field(2, u32::from(rec.parsed.ip.protocol()));
    match rec.parsed.transport {
        TransportInfo::Tcp { flags, window, header_len, .. } => {
            field(3, u32::from(flags));
            field(4, u32::from(window) / 256);
            field(5, u32::from(header_len));
        }
        TransportInfo::Udp { length, .. } => {
            field(6, u32::from(length) / 16);
        }
        _ => field(7, 1),
    }
    field(8, rec.payload().len() as u32 / 16);
}

/// Multimodal side-channel tokens (direction, inter-arrival bucket)
/// used by netFound.
pub fn multimodal_tokens(from_client: bool, iat: f64, salt: u32, out: &mut Vec<u32>) {
    out.push(hash_token(2000, u32::from(from_client), salt));
    let iat_us = (iat * 1e6).clamp(0.0, 4e9) as u32;
    out.push(hash_token(2001, log_bucket(iat_us, 32), salt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::record::Prepared;
    use rand::SeedableRng;
    use traffic_synth::{DatasetKind, DatasetSpec};

    fn sample() -> Prepared {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 1, flows_per_class: 2 }.generate();
        Prepared::from_trace(&t)
    }

    #[test]
    fn hash_in_vocab() {
        for p in 0..100 {
            for v in [0u32, 1, 65535, 1 << 30] {
                assert!((hash_token(p, v, 7) as usize) < VOCAB);
            }
        }
    }

    #[test]
    fn hash_position_sensitive() {
        assert_ne!(hash_token(0, 42, 1), hash_token(1, 42, 1));
        assert_ne!(hash_token(0, 42, 1), hash_token(0, 42, 2), "salt separates models");
    }

    #[test]
    fn word_tokens_bounded() {
        let mut out = Vec::new();
        word_tokens(&[1u8; 300], 64, 0, &mut out);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn odd_length_word_handled() {
        let mut out = Vec::new();
        word_tokens(&[1, 2, 3], 10, 0, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn etbert_prep_zeroes_ports() {
        let d = sample();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        let b = transport_bytes_no_ports(rec);
        assert_eq!(&b[0..4], &[0, 0, 0, 0]);
        // seq number survives — the implicit flow ID the model can use
        assert_ne!(&b[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn yatc_prep_zeroes_ips_and_ports() {
        let d = sample();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        let b = ip_bytes_anonymised(rec);
        assert_eq!(&b[12..20], &[0u8; 8], "IPs zeroed");
        let tr = rec.parsed.transport_offset - rec.parsed.ip_offset;
        assert_eq!(&b[tr..tr + 4], &[0u8; 4], "ports zeroed");
    }

    #[test]
    fn trafficformer_randomisation_changes_ips() {
        let d = sample();
        let rec = d.records.iter().find(|r| r.parsed.transport.is_tcp()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let a = ip_bytes_randomised(rec, &mut rng);
        let b = ip_bytes_randomised(rec, &mut rng);
        assert_ne!(a[12..20], b[12..20]);
    }

    #[test]
    fn netfound_tokens_present() {
        let d = sample();
        let rec = &d.records[0];
        let mut out = Vec::new();
        netfound_field_tokens(rec, 5, &mut out);
        assert!(out.len() >= 4);
        multimodal_tokens(true, 0.01, 5, &mut out);
        assert!(out.len() >= 6);
    }

    #[test]
    fn log_bucket_monotone() {
        assert_eq!(log_bucket(0, 32), 0);
        assert!(log_bucket(10, 32) <= log_bucket(1000, 32));
        assert!(log_bucket(u32::MAX, 32) < 32);
    }
}
