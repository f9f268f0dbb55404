//! Dataset recipes: reproduce the class structure of the paper's three
//! downstream datasets (Table 2) at configurable scale.
//!
//! | Recipe          | Classes | Tasks                                   |
//! |-----------------|---------|-----------------------------------------|
//! | `IscxVpn`       | 16 apps × {plain, VPN} | VPN-binary, VPN-service, VPN-app |
//! | `UstcTfc`       | 20 apps (10 benign, 10 malware) | USTC-binary, USTC-app  |
//! | `CstnetTls120`  | 120 websites (handshake-stripped TLS) | TLS-120          |

use crate::profile::{AppProfile, TransportKind};
use crate::stream::FlowPlan;
use crate::trace::{ClassMeta, Trace};
use net_packet::ipv4::Ipv4Addr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which of the paper's datasets to synthesise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ISCX-VPN analogue: 16 applications, half captured over VPN.
    IscxVpn,
    /// USTC-TFC analogue: 10 benign + 10 malware applications.
    UstcTfc,
    /// CSTNET-TLS1.3 analogue: 120 websites, handshake/SNI stripped.
    CstnetTls120,
}

impl DatasetKind {
    /// Paper name of the dataset.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::IscxVpn => "ISCX-VPN",
            DatasetKind::UstcTfc => "USTC-TFC",
            DatasetKind::CstnetTls120 => "CSTN-TLS1.3",
        }
    }

    /// Short tag naming the dataset on command lines and in shard-run
    /// keys: `iscx`, `ustc` or `cstnet`.
    pub fn tag(&self) -> &'static str {
        match self {
            DatasetKind::IscxVpn => "iscx",
            DatasetKind::UstcTfc => "ustc",
            DatasetKind::CstnetTls120 => "cstnet",
        }
    }

    /// The dataset whose [`DatasetKind::tag`] is `tag`.
    pub fn from_tag(tag: &str) -> Option<DatasetKind> {
        [DatasetKind::IscxVpn, DatasetKind::UstcTfc, DatasetKind::CstnetTls120]
            .into_iter()
            .find(|k| k.tag() == tag)
    }

    /// Fraction of spurious traffic contaminating the raw trace
    /// (paper §4.1: ISCX ≈ 5%, USTC ≈ 10%, CSTNET already clean).
    pub fn spurious_fraction(&self) -> f64 {
        match self {
            DatasetKind::IscxVpn => 0.05,
            DatasetKind::UstcTfc => 0.10,
            DatasetKind::CstnetTls120 => 0.0,
        }
    }

    /// Number of fine-grained classes.
    pub fn n_classes(&self) -> u16 {
        match self {
            DatasetKind::IscxVpn => 16,
            DatasetKind::UstcTfc => 20,
            DatasetKind::CstnetTls120 => 120,
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which dataset to synthesise.
    pub kind: DatasetKind,
    /// RNG seed; identical seeds give identical traces.
    pub seed: u64,
    /// Mean number of flows per class (classes deviate via their
    /// volume weight, preserving natural imbalance).
    pub flows_per_class: usize,
}

impl DatasetSpec {
    /// A spec with the default (laptop-scale) flow budget.
    pub fn new(kind: DatasetKind, seed: u64) -> Self {
        let flows_per_class = match kind {
            DatasetKind::IscxVpn => 24,
            DatasetKind::UstcTfc => 20,
            DatasetKind::CstnetTls120 => 8,
        };
        Self { kind, seed, flows_per_class }
    }

    /// Scale the flow budget by `factor` (for larger runs).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.flows_per_class = ((self.flows_per_class as f64) * factor).max(2.0) as usize;
        self
    }

    /// Synthesise the labelled trace (spurious traffic included).
    ///
    /// Every flow draws from its own FNV-derived RNG (see
    /// [`crate::stream::FlowPlan`]), so this fully in-RAM path and the
    /// [`crate::stream::merge_sorted`] merge of the plan's shard runs
    /// produce byte-identical traces at any shard count — an equivalence
    /// the `stream` tests assert record-for-record.
    pub fn generate(&self) -> Trace {
        let plan = FlowPlan::new(self);
        let mut trace = Trace { records: Vec::new(), classes: plan.classes().to_vec() };
        for flow_id in 0..plan.n_flows() {
            plan.flow_records(flow_id as u32, &mut trace.records);
        }
        trace.sort_by_time();
        let mut srng = StdRng::seed_from_u64(self.seed ^ 0x5f5f);
        trace.inject_spurious(self.kind.spurious_fraction(), &mut srng);
        trace
    }

    /// Build the class table and profiles for this dataset. Pure —
    /// everything is derived from the spec, no RNG involved, so shards
    /// can resolve the plan independently.
    pub(crate) fn class_table(&self) -> (Vec<ClassMeta>, Vec<AppProfile>, bool) {
        match self.kind {
            DatasetKind::IscxVpn => {
                // 16 applications over 6 services; half VPN-tunnelled.
                const APPS: [(&str, u8); 16] = [
                    ("browsing-chrome", 0),
                    ("browsing-firefox", 0),
                    ("voip-skype", 1),
                    ("voip-hangouts", 1),
                    ("voip-voipbuster", 1),
                    ("video-youtube", 2),
                    ("video-vimeo", 2),
                    ("video-netflix", 2),
                    ("chat-icq", 3),
                    ("chat-aim", 3),
                    ("chat-facebook", 3),
                    ("email-gmail", 4),
                    ("email-smtp", 4),
                    ("p2p-bittorrent", 5),
                    ("p2p-sftp", 5),
                    ("ftps", 5),
                ];
                let gateway = Ipv4Addr::new(203, 0, 113, 77);
                let mut classes = Vec::new();
                let mut profiles = Vec::new();
                for (i, (name, service)) in APPS.iter().enumerate() {
                    let class = i as u16;
                    let is_vpn = i % 2 == 1; // alternate plain / VPN
                    let transport = match service {
                        1 => TransportKind::Udp,
                        5 => TransportKind::RawTcp,
                        _ => TransportKind::TlsTcp,
                    };
                    let mut p = AppProfile::derive(self.seed, class, 16, transport);
                    if *service == 1 {
                        p.tos = 0xb8; // EF DSCP for VoIP
                        p.iat_mean = 0.02;
                    }
                    if is_vpn {
                        p = p.into_vpn(gateway);
                    }
                    classes.push(ClassMeta {
                        class,
                        name: format!("{}{}", if is_vpn { "vpn-" } else { "" }, name),
                        service: *service,
                        is_vpn,
                        is_malware: false,
                    });
                    profiles.push(p);
                }
                (classes, profiles, false)
            }
            DatasetKind::UstcTfc => {
                const BENIGN: [&str; 10] = [
                    "bittorrent",
                    "facetime",
                    "ftp",
                    "gmail",
                    "mysql",
                    "outlook",
                    "skype",
                    "smb",
                    "weibo",
                    "worldofwarcraft",
                ];
                const MALWARE: [&str; 10] = [
                    "cridex", "geodo", "htbot", "miuref", "neris", "nsis-ay", "shifu", "tinba",
                    "virut", "zeus",
                ];
                let mut classes = Vec::new();
                let mut profiles = Vec::new();
                for i in 0..20u16 {
                    let is_malware = i >= 10;
                    let name =
                        if is_malware { MALWARE[(i - 10) as usize] } else { BENIGN[i as usize] };
                    let transport = if is_malware || i % 3 == 0 {
                        TransportKind::RawTcp
                    } else {
                        TransportKind::TlsTcp
                    };
                    let mut p = AppProfile::derive(self.seed, i, 20, transport);
                    if is_malware {
                        // C2 beaconing: small periodic packets, low volume —
                        // makes USTC-binary an easy task, as in Table 3.
                        p.client_payload_mean = p.client_payload_mean.min(120.0);
                        p.server_payload_mean = p.server_payload_mean.min(220.0);
                        p.iat_mean = 0.5;
                        p.flow_len_mean = p.flow_len_mean.min(12.0);
                        p.server_ttl = 47 + (i % 3) as u8;
                    }
                    classes.push(ClassMeta {
                        class: i,
                        name: name.to_string(),
                        service: u8::from(is_malware),
                        is_vpn: false,
                        is_malware,
                    });
                    profiles.push(p);
                }
                (classes, profiles, false)
            }
            DatasetKind::CstnetTls120 => {
                let mut classes = Vec::new();
                let mut profiles = Vec::new();
                for i in 0..120u16 {
                    let mut p = AppProfile::derive(self.seed, i, 120, TransportKind::TlsTcp);
                    // Websites would carry an SNI, but the public dataset
                    // strips the handshake — we generate then strip (flag).
                    p.sni = Some(format!("www.site{i:03}.example"));
                    classes.push(ClassMeta {
                        class: i,
                        name: format!("site{i:03}"),
                        service: 0,
                        is_vpn: false,
                        is_malware: false,
                    });
                    profiles.push(p);
                }
                (classes, profiles, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SPURIOUS_CLASS;
    use net_packet::frame::ParsedFrame;
    use std::collections::HashSet;

    #[test]
    fn iscx_has_16_classes_and_spurious() {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 1, flows_per_class: 3 }.generate();
        assert_eq!(t.classes.len(), 16);
        let labels: HashSet<u16> =
            t.records.iter().map(|r| r.class).filter(|c| *c != SPURIOUS_CLASS).collect();
        assert_eq!(labels.len(), 16);
        let frac = t.spurious_len() as f64 / t.records.len() as f64;
        assert!((0.02..0.10).contains(&frac), "spurious fraction {frac}");
    }

    #[test]
    fn ustc_malware_split() {
        let t = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 2, flows_per_class: 2 }.generate();
        assert_eq!(t.classes.iter().filter(|c| c.is_malware).count(), 10);
        assert_eq!(t.classes.iter().filter(|c| !c.is_malware).count(), 10);
    }

    #[test]
    fn cstnet_is_clean_and_stripped() {
        let t =
            DatasetSpec { kind: DatasetKind::CstnetTls120, seed: 3, flows_per_class: 2 }.generate();
        assert_eq!(t.classes.len(), 120);
        assert_eq!(t.spurious_len(), 0);
        // No SYN packets anywhere: handshake stripped.
        for r in t.records.iter().take(500) {
            if let Ok(p) = ParsedFrame::parse(&r.frame) {
                if let net_packet::frame::TransportInfo::Tcp { flags, .. } = p.transport {
                    assert_eq!(flags & 0x02, 0, "found SYN in stripped dataset");
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 9, flows_per_class: 2 };
        let a = s.generate();
        let b = s.generate();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[0].frame, b.records[0].frame);
        assert_eq!(a.records.last().unwrap().frame, b.records.last().unwrap().frame);
    }

    #[test]
    fn seeds_differ() {
        let a = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 1, flows_per_class: 2 }.generate();
        let b = DatasetSpec { kind: DatasetKind::UstcTfc, seed: 2, flows_per_class: 2 }.generate();
        assert_ne!(a.records[0].frame, b.records[0].frame);
    }

    #[test]
    fn class_imbalance_exists() {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 4, flows_per_class: 6 }.generate();
        let mut counts = [0usize; 16];
        for r in &t.records {
            if r.class != SPURIOUS_CLASS {
                counts[r.class as usize] += 1;
            }
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max > min * 2, "expected natural imbalance, got {min}..{max}");
    }

    #[test]
    fn vpn_classes_are_udp_tunnelled() {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 8, flows_per_class: 2 }.generate();
        // every packet of a VPN class must go to the gateway on UDP 1194
        for r in t.records.iter().filter(|r| r.class != SPURIOUS_CLASS) {
            if t.classes[r.class as usize].is_vpn {
                let p = ParsedFrame::parse(&r.frame).unwrap();
                match p.transport {
                    net_packet::frame::TransportInfo::Udp { src_port, dst_port, .. } => {
                        assert!(src_port == 1194 || dst_port == 1194, "VPN must use port 1194");
                    }
                    other => panic!("VPN traffic must be UDP, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn voip_classes_carry_ef_dscp() {
        let t = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 9, flows_per_class: 2 }.generate();
        let mut saw_voip = false;
        for r in t.records.iter().filter(|r| r.class != SPURIOUS_CLASS) {
            let meta = &t.classes[r.class as usize];
            if meta.service == 1 && !meta.is_vpn {
                let p = ParsedFrame::parse(&r.frame).unwrap();
                if let net_packet::frame::IpInfo::V4 { tos, .. } = p.ip {
                    assert_eq!(tos, 0xb8, "VoIP packets carry EF DSCP");
                    saw_voip = true;
                }
            }
        }
        assert!(saw_voip);
    }

    #[test]
    fn scaled_changes_budget() {
        let s = DatasetSpec::new(DatasetKind::IscxVpn, 1).scaled(2.0);
        assert_eq!(s.flows_per_class, 48);
    }
}
