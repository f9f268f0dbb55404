//! Ethernet II frame view and builder.

use crate::error::{Error, Result};
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// True if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group bit (multicast) is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

/// EtherType values used in this benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800)
    Ipv4,
    /// ARP (0x0806)
    Arp,
    /// IPv6 (0x86dd)
    Ipv6,
    /// Anything else.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(o) => o,
        }
    }
}

/// Length of the Ethernet II header in bytes.
pub const HEADER_LEN: usize = 14;

/// A read view over an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer, validating that the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Self { buffer })
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType field.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// Frame payload (everything after the 14-byte header).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Consume the view, returning the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source MAC address.
    pub fn set_src_addr(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType field.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        let v: u16 = ty.into();
        self.buffer.as_mut()[12..14].copy_from_slice(&v.to_be_bytes());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// Serialise an Ethernet frame from parts into a fresh Vec.
pub fn emit(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&dst.0);
    out.extend_from_slice(&src.0);
    let ty: u16 = ethertype.into();
    out.extend_from_slice(&ty.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let dst = MacAddr([1, 2, 3, 4, 5, 6]);
        let src = MacAddr([7, 8, 9, 10, 11, 12]);
        let raw = emit(dst, src, EtherType::Ipv4, &[0xde, 0xad]);
        let f = EthernetFrame::new_checked(&raw[..]).unwrap();
        assert_eq!(f.dst_addr(), dst);
        assert_eq!(f.src_addr(), src);
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.payload(), &[0xde, 0xad]);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn mutators() {
        let mut raw = emit(MacAddr::default(), MacAddr::default(), EtherType::Arp, &[0; 4]);
        let mut f = EthernetFrame::new_checked(&mut raw[..]).unwrap();
        f.set_dst_addr(MacAddr::BROADCAST);
        f.set_ethertype(EtherType::Ipv6);
        f.payload_mut()[0] = 0x60;
        let f = EthernetFrame::new_checked(&raw[..]).unwrap();
        assert!(f.dst_addr().is_broadcast());
        assert_eq!(f.ethertype(), EtherType::Ipv6);
        assert_eq!(f.payload()[0], 0x60);
    }

    #[test]
    fn multicast_bit() {
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
        assert!(!MacAddr([0x02, 0, 0, 0, 0, 1]).is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn display_format() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn ethertype_other_round_trip() {
        let t = EtherType::from(0x88cc);
        assert_eq!(t, EtherType::Other(0x88cc));
        assert_eq!(u16::from(t), 0x88cc);
    }
}
