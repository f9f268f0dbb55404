//! Fault injection: degrade a trace the way real capture points do —
//! packet drops, duplicates, reordering and corruption (the same four
//! knobs smoltcp's examples expose for robustness testing).
//!
//! Used to check that the pipeline (parsers, cleaning, flow assembly,
//! classifiers) behaves sanely on imperfect captures, and as a
//! robustness ablation: how fast does classification accuracy decay
//! with capture loss?

use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::Rng;

/// Fault-injection configuration (all probabilities per packet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped.
    pub drop: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is delayed past its successors
    /// (local reordering).
    pub reorder: f64,
    /// Probability one random byte of the frame is flipped.
    pub corrupt: f64,
    /// Maximum extra delay for reordered packets (seconds).
    pub reorder_delay: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        // smoltcp's suggested starting point: 15% drop/corrupt chances
        // are aggressive; we default to a milder capture-loss profile.
        Self { drop: 0.02, duplicate: 0.01, reorder: 0.02, corrupt: 0.005, reorder_delay: 0.05 }
    }
}

impl FaultConfig {
    /// A faultless configuration (identity injection).
    pub fn none() -> Self {
        Self { drop: 0.0, duplicate: 0.0, reorder: 0.0, corrupt: 0.0, reorder_delay: 0.0 }
    }

    /// The capture-loss profile used by the robustness ablation: one
    /// `level` knob scales all four faults with drops dominating
    /// (duplicate = level/4, reorder = level/2, corrupt = level/10),
    /// matching how loss manifests at real capture points. Shared by
    /// the `robustness` experiment and the fault-matrix tests so both
    /// sweep the same curve.
    pub fn capture_loss(level: f64) -> Self {
        Self {
            drop: level,
            duplicate: level / 4.0,
            reorder: level / 2.0,
            corrupt: level / 10.0,
            reorder_delay: 0.05,
        }
    }
}

/// Statistics of one injection run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped.
    pub dropped: usize,
    /// Packets duplicated.
    pub duplicated: usize,
    /// Packets reordered.
    pub reordered: usize,
    /// Packets corrupted.
    pub corrupted: usize,
}

/// Apply faults to a trace in place (records re-sorted by time).
pub fn inject_faults(trace: &mut Trace, cfg: FaultConfig, rng: &mut StdRng) -> FaultStats {
    let mut stats = FaultStats::default();
    let mut out = Vec::with_capacity(trace.records.len());
    for mut r in trace.records.drain(..) {
        if rng.gen_bool(cfg.drop) {
            stats.dropped += 1;
            continue;
        }
        if rng.gen_bool(cfg.corrupt) && !r.frame.is_empty() {
            let i = rng.gen_range(0..r.frame.len());
            r.frame[i] ^= 1 << rng.gen_range(0..8);
            stats.corrupted += 1;
        }
        if rng.gen_bool(cfg.reorder) {
            r.ts += rng.gen_range(0.0..cfg.reorder_delay.max(1e-9));
            stats.reordered += 1;
        }
        if rng.gen_bool(cfg.duplicate) {
            out.push(r.clone());
            stats.duplicated += 1;
        }
        out.push(r);
    }
    trace.records = out;
    trace.sort_by_time();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, DatasetSpec};
    use rand::SeedableRng;

    fn trace() -> Trace {
        DatasetSpec { kind: DatasetKind::UstcTfc, seed: 31, flows_per_class: 2 }.generate()
    }

    #[test]
    fn zero_faults_is_identity() {
        let mut t = trace();
        let n = t.records.len();
        let cfg = FaultConfig {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            reorder_delay: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let stats = inject_faults(&mut t, cfg, &mut rng);
        assert_eq!(stats, FaultStats::default());
        assert_eq!(t.records.len(), n);
    }

    #[test]
    fn drop_rate_approximately_respected() {
        let mut t = trace();
        let n = t.records.len() as f64;
        let cfg = FaultConfig {
            drop: 0.2,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            reorder_delay: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let stats = inject_faults(&mut t, cfg, &mut rng);
        let rate = stats.dropped as f64 / n;
        assert!((0.15..0.25).contains(&rate), "drop rate {rate}");
        assert_eq!(t.records.len(), (n as usize) - stats.dropped);
    }

    #[test]
    fn duplicates_increase_count() {
        let mut t = trace();
        let n = t.records.len();
        let cfg = FaultConfig {
            drop: 0.0,
            duplicate: 0.1,
            reorder: 0.0,
            corrupt: 0.0,
            reorder_delay: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let stats = inject_faults(&mut t, cfg, &mut rng);
        assert_eq!(t.records.len(), n + stats.duplicated);
        assert!(stats.duplicated > 0);
    }

    #[test]
    fn records_stay_time_sorted() {
        let mut t = trace();
        let mut rng = StdRng::seed_from_u64(4);
        inject_faults(&mut t, FaultConfig { reorder: 0.3, ..Default::default() }, &mut rng);
        for w in t.records.windows(2) {
            assert!(w[1].ts >= w[0].ts);
        }
    }

    #[test]
    fn pipeline_survives_corruption() {
        // Corrupted frames must not panic the parser or the cleaner;
        // broken packets are filtered, the rest classify normally.
        let mut t = trace();
        let cfg = FaultConfig { corrupt: 0.3, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let stats = inject_faults(&mut t, cfg, &mut rng);
        assert!(stats.corrupted > 0);
        for r in &t.records {
            let _ = net_packet::frame::ParsedFrame::parse(&r.frame); // must not panic
            let _ = net_packet::ident::identify(&r.frame);
        }
    }
}
