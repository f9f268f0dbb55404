//! # net-packet
//!
//! Typed wire-format views, builders, checksums and pcap I/O for the
//! protocols exercised by the traffic-classification benchmark:
//! Ethernet II, ARP, IPv4, IPv6, TCP (with options), UDP, ICMPv4/v6,
//! DNS, TLS records, and a set of "spurious" LAN protocols that the
//! dataset-cleaning stage must recognise and filter.
//!
//! The design follows the smoltcp idiom: a *view* type wraps a byte
//! buffer (`Packet<&[u8]>` / `Packet<&mut [u8]>`) and exposes typed
//! field accessors, while checked constructors validate length and
//! structure up front. Builders assemble full frames from the top of
//! the stack down, computing lengths and checksums.
//!
//! ```
//! use net_packet::ipv4::Ipv4Packet;
//! use net_packet::tcp::TcpSegment;
//!
//! let raw = net_packet::builder::FrameBuilder::tcp_ipv4_default().build();
//! let eth = net_packet::ethernet::EthernetFrame::new_checked(&raw[..]).unwrap();
//! let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
//! let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
//! assert!(tcp.verify_checksum_v4(ip.src_addr(), ip.dst_addr()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod builder;
pub mod checksum;
pub mod conntrack;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod frame;
pub mod icmp;
pub mod ident;
pub mod ipv4;
pub mod ipv6;
pub mod pcap;
pub mod spurious;
pub mod tcp;
pub mod tls;
pub mod udp;

pub use error::{Error, Result};
pub use frame::{ParsedFrame, TransportInfo};
pub use ident::ProtocolId;
