//! Minimal DNS message view and query builder.
//!
//! The benchmark needs DNS both as legitimate traffic (the VPN dataset
//! contains DNS) and as the carrier for mDNS/LLMNR/NBNS spurious traffic
//! (same wire format, different ports). Only the header and the first
//! question are modelled.

use crate::error::{Error, Result};

/// DNS header length.
pub const HEADER_LEN: usize = 12;

/// Record types used by the generator and by Pcap-Encoder's Q&A corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// IPv4 host address (1).
    A,
    /// IPv6 host address (28).
    Aaaa,
    /// Pointer record (12) — used by mDNS service discovery.
    Ptr,
    /// Other type code.
    Other(u16),
}

impl From<u16> for RecordType {
    fn from(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            28 => RecordType::Aaaa,
            12 => RecordType::Ptr,
            o => RecordType::Other(o),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(v: RecordType) -> u16 {
        match v {
            RecordType::A => 1,
            RecordType::Aaaa => 28,
            RecordType::Ptr => 12,
            RecordType::Other(o) => o,
        }
    }
}

/// A read view over a DNS message.
#[derive(Debug, Clone, Copy)]
pub struct DnsMessage<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> DnsMessage<T> {
    /// Wrap a buffer, validating the fixed header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Self { buffer })
    }

    /// Transaction ID.
    pub fn id(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// True if this is a response (QR bit).
    pub fn is_response(&self) -> bool {
        self.buffer.as_ref()[2] & 0x80 != 0
    }

    /// Question count.
    pub fn question_count(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Answer count.
    pub fn answer_count(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Decode the first question name (dot-separated) and type.
    pub fn first_question(&self) -> Result<(String, RecordType)> {
        let b = self.buffer.as_ref();
        if self.question_count() == 0 {
            return Err(Error::Malformed);
        }
        let mut i = HEADER_LEN;
        let mut name = String::new();
        loop {
            if i >= b.len() {
                return Err(Error::Truncated);
            }
            let len = usize::from(b[i]);
            if len == 0 {
                i += 1;
                break;
            }
            if len & 0xc0 != 0 {
                return Err(Error::Malformed); // compression not supported here
            }
            if i + 1 + len > b.len() {
                return Err(Error::Truncated);
            }
            if !name.is_empty() {
                name.push('.');
            }
            name.push_str(&String::from_utf8_lossy(&b[i + 1..i + 1 + len]));
            i += 1 + len;
        }
        if i + 4 > b.len() {
            return Err(Error::Truncated);
        }
        let qtype = u16::from_be_bytes([b[i], b[i + 1]]).into();
        Ok((name, qtype))
    }
}

/// Build a single-question DNS query message.
pub fn emit_query(id: u16, name: &str, qtype: RecordType) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out[0..2].copy_from_slice(&id.to_be_bytes());
    out[2] = 0x01; // RD
    out[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        out.push(bytes.len().min(63) as u8);
        out.extend_from_slice(&bytes[..bytes.len().min(63)]);
    }
    out.push(0);
    let t: u16 = qtype.into();
    out.extend_from_slice(&t.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN class
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let raw = emit_query(0xbeef, "www.example.org", RecordType::Aaaa);
        let m = DnsMessage::new_checked(&raw[..]).unwrap();
        assert_eq!(m.id(), 0xbeef);
        assert!(!m.is_response());
        assert_eq!(m.question_count(), 1);
        let (name, ty) = m.first_question().unwrap();
        assert_eq!(name, "www.example.org");
        assert_eq!(ty, RecordType::Aaaa);
    }

    #[test]
    fn response_has_answers() {
        // The query with QR set, ANCOUNT 1 and one A record whose name
        // points back at the question.
        let mut raw = emit_query(7, "example.org", RecordType::A);
        raw[2] |= 0x80;
        raw[6..8].copy_from_slice(&1u16.to_be_bytes());
        raw.extend_from_slice(&[0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 93, 184, 216, 34]);
        let m = DnsMessage::new_checked(&raw[..]).unwrap();
        assert!(m.is_response());
        assert_eq!(m.answer_count(), 1);
        assert_eq!(m.first_question().unwrap().0, "example.org");
    }

    #[test]
    fn rejects_truncated_header() {
        assert_eq!(DnsMessage::new_checked(&[0u8; 11][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn rejects_truncated_question() {
        let mut raw = emit_query(1, "abc.de", RecordType::A);
        raw.truncate(HEADER_LEN + 2);
        let m = DnsMessage::new_checked(&raw[..]).unwrap();
        assert!(m.first_question().is_err());
    }

    #[test]
    fn no_question_is_malformed() {
        let raw = [0u8; HEADER_LEN];
        let m = DnsMessage::new_checked(&raw[..]).unwrap();
        assert_eq!(m.first_question().unwrap_err(), Error::Malformed);
    }
}
