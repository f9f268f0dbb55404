//! Streaming, flow-sharded trace generation and the on-disk shard-run
//! format backing out-of-core datasets.
//!
//! [`DatasetSpec::generate`](crate::DatasetSpec::generate) used to
//! thread one sequential RNG through every flow, so the whole trace had
//! to exist in memory and no prefix could be produced independently.
//! Here each flow draws from its **own** RNG, seeded by an FNV-1a hash
//! of `(dataset seed, flow id)` — the same seed-derivation scheme the
//! artifact cache uses for content addresses — so any contiguous range
//! of flows ("shard") can be generated independently and the result is
//! byte-identical for **any** shard count:
//!
//! - [`FlowPlan`] resolves the per-flow class assignment up front (a
//!   deterministic function of the spec, no RNG involved);
//! - [`FlowPlan::shard_records`] generates one internally time-sorted
//!   shard, never more than a shard of packets, and
//!   [`FlowPlan::spurious_records`] the spurious-traffic run (whose
//!   count and time span depend on the whole labelled trace, so it must
//!   come last);
//! - [`merge_sorted`] k-way-merges sorted runs with a stable tie-break
//!   (earliest run first), reproducing exactly the stable global
//!   time-sort of the in-RAM generator;
//! - `debunk_core::outofcore` persists the runs as checksummed `.dbsr`
//!   files (`write_shard_dir` / `ShardDir`) on the workspace's shared
//!   envelope.

use crate::flow::synth_flow;
use crate::profile::AppProfile;
use crate::recipes::DatasetSpec;
use crate::trace::{spurious_run, ClassMeta, TraceRecord};
use net_packet::ipv4::Ipv4Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a sequence of byte strings — the repo-wide stable parts
/// hash. Per-flow RNG seeds, artifact-cache fingerprints, cell seeds
/// and journal ids all derive from it, so it is identical across Rust
/// releases and processes.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash differently.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-flow RNG: every flow's packets are a pure function of
/// `(dataset seed, flow id)`, independent of all other flows.
fn flow_rng(seed: u64, flow_id: u32) -> StdRng {
    StdRng::seed_from_u64(fnv64(&[b"flow", &seed.to_le_bytes(), &flow_id.to_le_bytes()]))
}

/// The deterministic generation plan for one [`DatasetSpec`]: class
/// table, per-class profiles and the class of every flow id. Building
/// the plan involves no RNG, so shards can resolve their flows without
/// generating anyone else's packets.
pub struct FlowPlan {
    seed: u64,
    spurious_fraction: f64,
    classes: Vec<ClassMeta>,
    profiles: Vec<AppProfile>,
    strip: bool,
    /// Class id of each flow id (flow ids are assigned class-major, in
    /// class order — same layout as the in-RAM generator).
    flow_class: Vec<u16>,
}

impl FlowPlan {
    /// Resolve the plan for `spec`.
    pub fn new(spec: &DatasetSpec) -> FlowPlan {
        let (classes, profiles, strip) = spec.class_table();
        let mut flow_class = Vec::new();
        for profile in &profiles {
            let n_flows =
                ((spec.flows_per_class as f64) * profile.volume_weight).round().max(2.0) as usize;
            flow_class.extend(std::iter::repeat_n(profile.class, n_flows));
        }
        FlowPlan {
            seed: spec.seed,
            spurious_fraction: spec.kind.spurious_fraction(),
            classes,
            profiles,
            strip,
            flow_class,
        }
    }

    /// Total number of flows in the trace.
    pub fn n_flows(&self) -> usize {
        self.flow_class.len()
    }

    /// The class table.
    pub fn classes(&self) -> &[ClassMeta] {
        &self.classes
    }

    /// The contiguous flow-id range of shard `shard` out of `n_shards`
    /// (near-equal sizes, earlier shards take the remainder).
    pub fn shard_span(&self, shard: usize, n_shards: usize) -> std::ops::Range<usize> {
        let n = self.n_flows();
        let base = n / n_shards;
        let extra = n % n_shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..(start + len).min(n)
    }

    /// The records of flow shard `shard` out of `n_shards`, stably
    /// sorted by timestamp: ties keep flow-major order, exactly like the
    /// global stable sort over the flow-major full trace.
    pub fn shard_records(&self, shard: usize, n_shards: usize) -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for flow in self.shard_span(shard, n_shards) {
            self.flow_records(flow as u32, &mut records);
        }
        records.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        records
    }

    /// The time-sorted spurious run, which depends on the whole labelled
    /// trace only through its record count and latest timestamp — so it
    /// must come after every flow shard.
    pub fn spurious_records(&self, labelled: usize, t_max: f64) -> Vec<TraceRecord> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5f5f);
        let mut records = spurious_run(labelled, self.spurious_fraction, t_max, &mut rng);
        records.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        records
    }

    /// Append the packets of `flow_id` to `out`, drawn from the flow's
    /// own RNG.
    pub fn flow_records(&self, flow_id: u32, out: &mut Vec<TraceRecord>) {
        let class = self.flow_class[flow_id as usize];
        let profile = &self.profiles[class as usize];
        let mut rng = flow_rng(self.seed, flow_id);
        let client = Ipv4Addr::new(192, 168, 1, rng.gen_range(2..250));
        let start = rng.gen_range(0.0..600.0);
        let f = synth_flow(profile, client, start, &mut rng, self.strip);
        out.reserve(f.packets.len());
        for p in f.packets {
            out.push(TraceRecord {
                ts: p.ts,
                frame: p.frame,
                class,
                flow_id,
                from_client: p.from_client,
            });
        }
    }
}

/// K-way merge of time-sorted runs with a stable tie-break: on equal
/// timestamps the earliest run wins, and order within a run is kept.
/// Because the runs partition the flow-major trace in order (spurious
/// last), this equals the stable global time-sort of the in-RAM path.
pub fn merge_sorted<I>(runs: Vec<I>) -> MergeSorted<I>
where
    I: Iterator<Item = TraceRecord>,
{
    MergeSorted { runs: runs.into_iter().map(Iterator::peekable).collect() }
}

/// Iterator returned by [`merge_sorted`].
pub struct MergeSorted<I: Iterator<Item = TraceRecord>> {
    runs: Vec<std::iter::Peekable<I>>,
}

impl<I: Iterator<Item = TraceRecord>> Iterator for MergeSorted<I> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let mut best: Option<(usize, f64)> = None;
        for (i, run) in self.runs.iter_mut().enumerate() {
            if let Some(r) = run.peek() {
                // Strictly-less keeps the earliest run on ties.
                if best.is_none_or(|(_, ts)| r.ts.total_cmp(&ts).is_lt()) {
                    best = Some((i, r.ts));
                }
            }
        }
        best.and_then(|(i, _)| self.runs[i].next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::DatasetKind;

    fn spec() -> DatasetSpec {
        DatasetSpec { kind: DatasetKind::UstcTfc, seed: 11, flows_per_class: 3 }
    }

    fn assert_records_eq(a: &[TraceRecord], b: &[TraceRecord]) {
        assert_eq!(a.len(), b.len(), "record counts differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.ts.to_bits(), y.ts.to_bits(), "ts differs at {i}");
            assert_eq!(x.frame, y.frame, "frame differs at {i}");
            assert_eq!(
                (x.class, x.flow_id, x.from_client),
                (y.class, y.flow_id, y.from_client),
                "labels differ at {i}"
            );
        }
    }

    #[test]
    fn shard_spans_partition_the_flows() {
        let plan = FlowPlan::new(&spec());
        for n_shards in [1, 2, 3, 7, 64, 1000] {
            let mut covered = Vec::new();
            for s in 0..n_shards {
                covered.extend(plan.shard_span(s, n_shards));
            }
            let want: Vec<usize> = (0..plan.n_flows()).collect();
            assert_eq!(covered, want, "n_shards={n_shards}");
        }
    }

    /// Every run of `plan` sharded `n_shards` ways: the flow shards,
    /// then the spurious run.
    fn shard_runs(plan: &FlowPlan, n_shards: usize) -> Vec<std::vec::IntoIter<TraceRecord>> {
        let mut runs: Vec<_> = (0..n_shards).map(|i| plan.shard_records(i, n_shards)).collect();
        let labelled = runs.iter().map(Vec::len).sum();
        let t_max = runs.iter().flatten().map(|r| r.ts).fold(0.0f64, f64::max);
        runs.push(plan.spurious_records(labelled, t_max));
        runs.into_iter().map(Vec::into_iter).collect()
    }

    #[test]
    fn any_shard_count_merges_to_the_serial_trace() {
        let reference = spec().generate();
        for n_shards in [1usize, 4, 7] {
            let runs = shard_runs(&FlowPlan::new(&spec()), n_shards);
            assert_eq!(runs.len(), n_shards + 1);
            let merged: Vec<TraceRecord> = merge_sorted(runs).collect();
            assert_records_eq(&merged, &reference.records);
        }
    }

    #[test]
    fn spurious_tally_matches_in_ram_injection() {
        // ISCX has 5% spurious — the streamed spurious run must be the
        // byte-for-byte tail the in-RAM inject produces.
        let s = DatasetSpec { kind: DatasetKind::IscxVpn, seed: 5, flows_per_class: 2 };
        let reference = s.generate();
        let runs = shard_runs(&FlowPlan::new(&s), 4);
        let merged: Vec<TraceRecord> = merge_sorted(runs).collect();
        assert_records_eq(&merged, &reference.records);
        assert!(merged.iter().any(|r| r.class == crate::trace::SPURIOUS_CLASS));
    }

    #[test]
    fn fnv64_separates_part_boundaries() {
        assert_ne!(fnv64(&[b"ab", b"c"]), fnv64(&[b"a", b"bc"]));
        assert_eq!(fnv64(&[b"ab", b"c"]), fnv64(&[b"ab", b"c"]));
    }
}
