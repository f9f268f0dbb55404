//! Packet sources for the serving engine: pcap replay and synthetic
//! live traffic. Both produce the same `(timestamp, frame)` stream, so
//! the engine is source-agnostic and a synthetic replay exercises the
//! exact code path a capture file does.

use net_packet::pcap;
use std::path::Path;
use traffic_synth::{DatasetKind, DatasetSpec};

/// One frame to feed the engine: capture timestamp plus raw Ethernet
/// bytes — exactly what a pcap record or a NIC tap delivers.
#[derive(Debug, Clone)]
pub struct ReplayPacket {
    /// Capture timestamp (seconds).
    pub ts: f64,
    /// Raw Ethernet frame.
    pub frame: Vec<u8>,
}

/// Decode a pcap byte buffer into a replay stream.
pub fn from_pcap_bytes(bytes: &[u8]) -> Result<Vec<ReplayPacket>, String> {
    let packets = pcap::read_all(bytes).map_err(|e| format!("bad pcap: {e}"))?;
    Ok(packets.into_iter().map(|p| ReplayPacket { ts: p.timestamp(), frame: p.data }).collect())
}

/// Read and decode a pcap file.
pub fn from_pcap_file(path: &Path) -> Result<Vec<ReplayPacket>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    from_pcap_bytes(&bytes)
}

/// Stream an on-disk flow-sharded trace directory (written by
/// `traffic-gen --shards` or the out-of-core prepare path) as a replay
/// source. Every run file is checksum-verified before the first packet;
/// the k-way merge then yields frames in capture order while holding
/// only one record per run in memory — the replay is byte-identical to
/// replaying the serial trace, at any shard count.
pub fn from_shard_dir(path: &Path) -> Result<impl Iterator<Item = ReplayPacket>, String> {
    let shards = debunk_core::outofcore::ShardDir::discover(path)?;
    Ok(shards.merged()?.map(|r| ReplayPacket { ts: r.ts, frame: r.frame }))
}

/// Pace a replay at roughly `pps` packets per second of wall clock —
/// a live-traffic stand-in for exercising asynchronous behaviour
/// (e.g. a `--reload-dir` watcher firing mid-replay). Pacing touches
/// delivery time only: timestamps stay the capture timestamps, so the
/// verdict stream is byte-identical to the unthrottled replay.
pub fn throttle<I>(packets: I, pps: f64) -> impl Iterator<Item = ReplayPacket>
where
    I: IntoIterator<Item = ReplayPacket>,
{
    let paced = pps > 0.0 && pps.is_finite();
    let start = std::time::Instant::now();
    packets.into_iter().enumerate().map(move |(i, p)| {
        if paced {
            let due = start + std::time::Duration::from_secs_f64(i as f64 / pps);
            if let Some(wait) = due.checked_duration_since(std::time::Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        p
    })
}

/// A synthetic traffic source: `<dataset>:<seed>:<flows_per_class>`
/// (e.g. `ustc:7:4`). Deterministic — the same spec always replays the
/// identical packet stream, which is what the determinism contract and
/// the serving smoke test rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSpec {
    /// Which dataset recipe to synthesise.
    pub kind: DatasetKind,
    /// Generator seed.
    pub seed: u64,
    /// Flows per class.
    pub flows_per_class: usize,
}

impl SynthSpec {
    /// Parse a `<dataset>:<seed>:<flows_per_class>` spec string. The
    /// dataset is one of `iscx`, `ustc`, `cstnet`.
    pub fn parse(spec: &str) -> Result<SynthSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [kind, seed, fpc] = parts[..] else {
            return Err(format!("bad synth spec '{spec}': want <dataset>:<seed>:<flows>"));
        };
        let kind = DatasetKind::from_tag(kind)
            .ok_or_else(|| format!("unknown dataset '{kind}' (iscx|ustc|cstnet)"))?;
        let seed = seed.parse::<u64>().map_err(|_| format!("bad seed '{seed}'"))?;
        let flows_per_class =
            fpc.parse::<usize>().map_err(|_| format!("bad flow count '{fpc}'"))?;
        if flows_per_class == 0 {
            return Err("flows_per_class must be at least 1".into());
        }
        Ok(SynthSpec { kind, seed, flows_per_class })
    }

    /// The generated trace (labelled packets + class table) — used by
    /// `serve export` to train a bundle on the same distribution it
    /// will later classify.
    pub fn trace(&self) -> traffic_synth::Trace {
        DatasetSpec { kind: self.kind, seed: self.seed, flows_per_class: self.flows_per_class }
            .generate()
    }

    /// Replay stream: every frame of the trace — including spurious
    /// non-IP chatter — in capture order, labels stripped. This is what
    /// an online classifier actually sees.
    pub fn replay(&self) -> Vec<ReplayPacket> {
        self.trace()
            .records
            .into_iter()
            .map(|r| ReplayPacket { ts: r.ts, frame: r.frame })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        let s = SynthSpec::parse("ustc:7:4").unwrap();
        assert_eq!(s.kind, DatasetKind::UstcTfc);
        assert_eq!((s.seed, s.flows_per_class), (7, 4));
        assert!(SynthSpec::parse("ustc:7").is_err());
        assert!(SynthSpec::parse("mnist:1:1").is_err());
        assert!(SynthSpec::parse("iscx:x:1").is_err());
        assert!(SynthSpec::parse("iscx:1:0").is_err());
    }

    #[test]
    fn replay_is_deterministic_and_time_ordered() {
        let s = SynthSpec::parse("iscx:3:1").unwrap();
        let a = s.replay();
        let b = s.replay();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts.to_bits(), y.ts.to_bits());
            assert_eq!(x.frame, y.frame);
        }
        for w in a.windows(2) {
            assert!(w[1].ts >= w[0].ts);
        }
    }

    #[test]
    fn shard_dir_replay_matches_synth_replay() {
        let dir = std::env::temp_dir().join("debunk-serve-sharddir");
        std::fs::remove_dir_all(&dir).ok();
        let s = SynthSpec::parse("ustc:7:2").unwrap();
        let spec = DatasetSpec { kind: s.kind, seed: s.seed, flows_per_class: s.flows_per_class };
        debunk_core::outofcore::ShardDir::ensure(&dir, &spec, 3, 1).unwrap();
        let streamed: Vec<ReplayPacket> = from_shard_dir(&dir).unwrap().collect();
        let direct = s.replay();
        assert_eq!(streamed.len(), direct.len());
        for (a, b) in streamed.iter().zip(&direct) {
            assert_eq!(a.ts.to_bits(), b.ts.to_bits());
            assert_eq!(a.frame, b.frame);
        }
        assert!(from_shard_dir(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pcap_round_trip_matches_replay() {
        let s = SynthSpec::parse("iscx:5:1").unwrap();
        let bytes = s.trace().to_pcap();
        let from_pcap = from_pcap_bytes(&bytes).unwrap();
        let direct = s.replay();
        assert_eq!(from_pcap.len(), direct.len());
        for (a, b) in from_pcap.iter().zip(&direct) {
            assert_eq!(a.frame, b.frame);
        }
    }
}
