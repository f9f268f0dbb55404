//! Property tests for the flow table under hostile timestamps: capture
//! files carry clock skew, reordering and outright backwards time, and
//! the table's determinism contract has to survive all of it. Frames
//! are real synthesised traffic; timestamps are adversarial. An oracle
//! table that scans every flow on every poll checks that the deadline
//! index retires exactly the flows the eviction predicate names, and
//! tables that route flows when they open (storing no packets for
//! dropped ones) are held to the table that stores every flow's packets.

use dataset::record::{PacketRecord, Prepared};
use debunk_core::engine::journal::escape_json;
use debunk_core::metrics::majority_with;
use debunk_core::obs::{EvictionReason, LogFormat, ObsSink};
use encoders::EncodeScratch;
use net_packet::conntrack::{ConnTracker, TcpState};
use net_packet::frame::{FlowKey, IpInfo, ParsedFrame, TransportInfo};
use nn::{MlpScratch, Tensor};
use proptest::prelude::*;
use serving::bundle::SERVING_FEATURES;
use serving::flow::Ingest;
use serving::source::SynthSpec;
use serving::{
    serve, FlowTable, ModelBundle, Policy, ReloadSource, ServeOptions, ServeStats, TrackedFlow,
    MAX_STORED_PACKETS,
};
use shallow::{extract_features, N_FEATURES};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Idle timeout of every table in this file.
const IDLE: f64 = 5.0;
/// `FlowTable`'s post-teardown linger (1 s, capped at the idle timeout).
const LINGER: f64 = 1.0;

/// A pool of real frames to draw from — flow-key variety without
/// hand-assembling Ethernet bytes in the generator.
fn frame_pool() -> &'static Vec<(f64, Vec<u8>)> {
    static POOL: OnceLock<Vec<(f64, Vec<u8>)>> = OnceLock::new();
    POOL.get_or_init(|| {
        SynthSpec::parse("ustc:5:1")
            .unwrap()
            .replay()
            .into_iter()
            .map(|p| (p.ts, p.frame))
            .collect()
    })
}

/// Replay `events` (frame index + timestamp override) through a table,
/// polling after every push, and return the full eviction stream as
/// `(id, reason)` plus the number of flows opened. `seq_offset` shifts
/// every sequence number, exercising ids far past `u32::MAX`.
fn run(events: &[(usize, f64)], seq_offset: u64) -> (Vec<(u64, u8)>, u64) {
    let pool = frame_pool();
    let mut table = FlowTable::new(IDLE).unwrap();
    let mut stream: Vec<(u64, u8)> = Vec::new();
    let mut opened = 0u64;
    for (i, &(idx, ts)) in events.iter().enumerate() {
        let frame = &pool[idx % pool.len()].1;
        if let Ingest::Tracked { opened: true } = table.push(seq_offset + i as u64, ts, frame) {
            opened += 1;
        }
        for (flow, reason) in table.poll(ts) {
            assert_eq!(
                flow.records.iter().map(|r| r.flow_id).max().unwrap_or(flow.id),
                flow.id,
                "every stored record must carry the flow's id"
            );
            stream.push((flow.id, reason as u8));
        }
    }
    for (flow, reason) in table.flush() {
        stream.push((flow.id, reason as u8));
    }
    assert!(table.is_empty(), "flush must leave nothing tracked");
    (stream, opened)
}

/// Event stream strategy: frame indices from the pool, timestamps
/// drawn independently from a window that guarantees reordering,
/// duplicates and idle gaps relative to the 5s timeout.
fn events() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..512, -20.0f64..40.0), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn out_of_order_timestamps_never_break_the_eviction_contract(evs in events()) {
        let (stream, opened) = run(&evs, 0);
        // Conservation: every opened flow retires exactly once.
        prop_assert_eq!(stream.len() as u64, opened);
        let mut ids: Vec<u64> = stream.iter().map(|&(id, _)| id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "a flow id must never be evicted twice");
    }

    #[test]
    fn adversarial_replays_are_deterministic(evs in events()) {
        let (a, oa) = run(&evs, 0);
        let (b, ob) = run(&evs, 0);
        prop_assert_eq!(a, b, "identical replay must evict identically");
        prop_assert_eq!(oa, ob);
    }

    #[test]
    fn flow_ids_are_a_pure_shift_of_sequence_numbers(evs in events()) {
        // Ids are the opener's sequence number and nothing else:
        // offsetting every seq by a constant (pushing ids far past
        // u32::MAX) shifts the stream's ids and changes nothing else.
        let offset = u64::from(u32::MAX) + 17;
        let (base, _) = run(&evs, 0);
        let (wide, _) = run(&evs, offset);
        prop_assert_eq!(base.len(), wide.len());
        for (&(id0, r0), &(id1, r1)) in base.iter().zip(&wide) {
            prop_assert_eq!(id0 + offset, id1);
            prop_assert!(id1 > u64::from(u32::MAX));
            prop_assert_eq!(r0, r1);
        }
    }

    #[test]
    fn poll_batches_come_out_in_id_order(evs in events()) {
        let pool = frame_pool();
        let mut table = FlowTable::new(IDLE).unwrap();
        for (i, &(idx, ts)) in evs.iter().enumerate() {
            table.push(i as u64, ts, &pool[idx % pool.len()].1);
            let batch = table.poll(ts);
            for w in batch.windows(2) {
                prop_assert!(w[0].0.id < w[1].0.id, "poll batch must be id-sorted");
            }
        }
        let last = table.flush();
        for w in last.windows(2) {
            prop_assert!(w[0].0.id < w[1].0.id, "flush batch must be id-sorted");
        }
    }
}

/// One eviction as both tables report it:
/// `(id, reason, packets, bytes, stored records)`.
type Eviction = (u64, u8, u64, u64, usize);

/// A flow of the reference table: only what eviction depends on.
struct RefFlow {
    id: u64,
    client: (u128, u16),
    conn: ConnTracker,
    last_ts: f64,
    packets: u64,
    bytes: u64,
}

/// The reference table: a plain map scanned in full on every poll with
/// the exact idle/linger predicate. Slow and obviously right.
#[derive(Default)]
struct Reference {
    flows: HashMap<FlowKey, RefFlow>,
}

impl Reference {
    fn push(&mut self, seq: u64, ts: f64, frame: &[u8]) -> Ingest {
        let Ok(parsed) = ParsedFrame::parse(frame) else { return Ingest::NonIp };
        let Some(key) = parsed.flow_key() else { return Ingest::NonIp };
        let ip = match parsed.ip {
            IpInfo::V4 { src, .. } => u128::from(src.to_u32()),
            IpInfo::V6 { src, .. } => u128::from_be_bytes(src.0),
        };
        let src = (ip, parsed.transport.src_port());
        let mut opened = false;
        let flow = self.flows.entry(key).or_insert_with(|| {
            opened = true;
            RefFlow {
                id: seq,
                client: src,
                conn: ConnTracker::new(),
                last_ts: ts,
                packets: 0,
                bytes: 0,
            }
        });
        flow.conn.push(&parsed, ts, src == flow.client);
        flow.last_ts = ts;
        flow.packets += 1;
        flow.bytes += frame.len() as u64;
        Ingest::Tracked { opened }
    }

    fn retire(&mut self, mut pick: impl FnMut(&RefFlow) -> Option<u8>) -> Vec<Eviction> {
        let mut out = Vec::new();
        self.flows.retain(|_, f| match pick(f) {
            Some(reason) => {
                let stored = (f.packets as usize).min(MAX_STORED_PACKETS);
                out.push((f.id, reason, f.packets, f.bytes, stored));
                false
            }
            None => true,
        });
        out.sort_unstable();
        out
    }

    fn poll(&mut self, now: f64) -> Vec<Eviction> {
        self.retire(|f| {
            let idle = now - f.last_ts;
            if f.conn.state() == TcpState::Closed && idle > LINGER {
                Some(EvictionReason::Closed as u8)
            } else if idle > IDLE {
                Some(EvictionReason::Idle as u8)
            } else {
                None
            }
        })
    }

    fn flush(&mut self) -> Vec<Eviction> {
        self.retire(|_| Some(EvictionReason::Flush as u8))
    }
}

fn evictions(batch: Vec<(serving::TrackedFlow, EvictionReason)>) -> Vec<Eviction> {
    batch.into_iter().map(|(f, r)| (f.id, r as u8, f.packets, f.bytes, f.records.len())).collect()
}

/// Replay `events` through `FlowTable` and the reference side by side,
/// polling after every push, and fail on the first batch that differs.
fn check_against_oracle(events: &[(usize, f64)]) -> Result<(), TestCaseError> {
    let pool = frame_pool();
    let mut table = FlowTable::new(IDLE).unwrap();
    let mut oracle = Reference::default();
    for (seq, &(idx, ts)) in events.iter().enumerate() {
        let frame = &pool[idx % pool.len()].1;
        let seq = seq as u64;
        prop_assert_eq!(table.push(seq, ts, frame), oracle.push(seq, ts, frame));
        prop_assert_eq!(
            evictions(table.poll(ts)),
            oracle.poll(ts),
            "poll after packet {} at {}",
            seq,
            ts
        );
        prop_assert_eq!(table.len(), oracle.flows.len());
    }
    prop_assert_eq!(evictions(table.flush()), oracle.flush());
    Ok(())
}

/// Pool indices of TCP frames carrying FIN or RST: the packets that
/// move a flow onto the linger window.
fn teardown_frames() -> &'static Vec<usize> {
    static IDX: OnceLock<Vec<usize>> = OnceLock::new();
    IDX.get_or_init(|| {
        let idx: Vec<usize> = frame_pool()
            .iter()
            .enumerate()
            .filter(|(_, (_, frame))| {
                ParsedFrame::parse(frame).is_ok_and(|p| {
                    matches!(p.transport, TransportInfo::Tcp { flags, .. } if flags & 0x05 != 0)
                })
            })
            .map(|(i, _)| i)
            .collect();
        assert!(!idx.is_empty(), "the pool must hold TCP teardown frames");
        idx
    })
}

/// Turn raw draws into a non-decreasing event stream. Each draw is
/// `(frame pick, gap kind, fraction)`: a quarter of the packets are
/// FIN/RST frames, the rest come from the first 48 pool frames, so keys
/// repeat and a key comes back after its flow was evicted (its slot
/// recycled). Gaps include exactly the linger and idle windows, which
/// land on the one-ulp-early deadline bound and force re-arms.
fn monotone(draws: &[(usize, u8, f64)]) -> Vec<(usize, f64)> {
    let fins = teardown_frames();
    let mut ts = 1000.1;
    draws
        .iter()
        .map(|&(pick, kind, frac)| {
            ts += match kind {
                0 | 1 => 0.0,
                2 => frac * 0.5,
                3 => LINGER,
                4 => IDLE,
                5 => LINGER + frac,
                _ => IDLE + frac * 4.0,
            };
            let idx = if pick % 4 == 0 { fins[pick / 4 % fins.len()] } else { pick % 48 };
            (idx, ts)
        })
        .collect()
}

/// Replay `events` through a `push` table and a table routing each
/// flow with `route` when it opens, polling after every push. Both must
/// retire the same `(id, reason, packets, bytes)` stream; a flow routed
/// `None` must carry no records, and one routed `Some` the same records
/// as under `push`, with the route it was given.
fn check_routed_against_push(
    events: &[(usize, f64)],
    route: fn(&FlowKey) -> Option<u16>,
) -> Result<(), TestCaseError> {
    fn same(
        kept: Vec<(TrackedFlow, EvictionReason)>,
        routed: Vec<(TrackedFlow<u16>, EvictionReason)>,
        route: fn(&FlowKey) -> Option<u16>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(kept.len(), routed.len());
        for ((k, kr), (r, rr)) in kept.iter().zip(&routed) {
            prop_assert_eq!((k.id, kr, k.packets, k.bytes), (r.id, rr, r.packets, r.bytes));
            prop_assert_eq!(r.route, route(&r.key));
            let frames = |records: &[PacketRecord]| -> Vec<Vec<u8>> {
                records.iter().map(|p| p.frame.clone()).collect()
            };
            match r.route {
                None => prop_assert!(r.records.is_empty(), "dropped flow {} kept packets", r.id),
                Some(_) => prop_assert_eq!(frames(&k.records), frames(&r.records)),
            }
        }
        Ok(())
    }
    let pool = frame_pool();
    let mut kept = FlowTable::new(IDLE).unwrap();
    let mut routed = FlowTable::new_routed(IDLE).unwrap();
    for (seq, &(idx, ts)) in events.iter().enumerate() {
        let frame = &pool[idx % pool.len()].1;
        let seq = seq as u64;
        prop_assert_eq!(kept.push(seq, ts, frame), routed.push_routed(seq, ts, frame, route));
        same(kept.poll(ts), routed.poll(ts), route)?;
        prop_assert_eq!(kept.len(), routed.len());
    }
    same(kept.flush(), routed.flush(), route)
}

/// Drop every flow at open.
fn drop_all(_: &FlowKey) -> Option<u16> {
    None
}

/// Keep a flow, routed to its low port, unless that port is a multiple
/// of three.
fn drop_some(key: &FlowKey) -> Option<u16> {
    (!key.lo_port.is_multiple_of(3)).then_some(key.lo_port)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deadline_index_matches_a_full_scan_oracle(evs in events()) {
        check_against_oracle(&evs)?;
    }

    #[test]
    fn in_order_teardowns_and_reused_keys_match_the_oracle(
        draws in proptest::collection::vec((0usize..4096, 0u8..8, 0.0f64..1.0), 1..160)
    ) {
        check_against_oracle(&monotone(&draws))?;
    }

    #[test]
    fn flows_dropped_at_open_retire_as_under_push(evs in events()) {
        check_routed_against_push(&evs, drop_all)?;
        check_routed_against_push(&evs, drop_some)?;
    }

    #[test]
    fn in_order_flows_dropped_at_open_retire_as_under_push(
        draws in proptest::collection::vec((0usize..4096, 0u8..8, 0.0f64..1.0), 1..160)
    ) {
        let events = monotone(&draws);
        check_routed_against_push(&events, drop_all)?;
        check_routed_against_push(&events, drop_some)?;
    }
}

/// The monotone strategy really reaches what it is meant to exercise:
/// linger (Closed) and idle evictions, and a key reopened after its
/// flow retired.
#[test]
fn monotone_streams_cover_teardowns_and_key_reuse() {
    let draws: Vec<(usize, u8, f64)> =
        (0..400).map(|i| (i * 7 % 4096, (i % 8) as u8, (i % 10) as f64 / 10.0)).collect();
    let events = monotone(&draws);
    let pool = frame_pool();
    let mut oracle = Reference::default();
    let (mut closed, mut idle, mut reopened) = (0, 0, 0);
    let mut retired = std::collections::HashSet::new();
    for (seq, &(idx, ts)) in events.iter().enumerate() {
        let frame = &pool[idx].1;
        let key = ParsedFrame::parse(frame).ok().and_then(|p| p.flow_key());
        if oracle.push(seq as u64, ts, frame) == (Ingest::Tracked { opened: true })
            && key.is_some_and(|k| retired.contains(&k))
        {
            reopened += 1;
        }
        let before: Vec<FlowKey> = oracle.flows.keys().copied().collect();
        for (_, reason, ..) in oracle.poll(ts) {
            if reason == EvictionReason::Closed as u8 {
                closed += 1;
            } else {
                idle += 1;
            }
        }
        retired.extend(before.into_iter().filter(|k| !oracle.flows.contains_key(k)));
    }
    assert!(
        closed > 0 && idle > 0 && reopened > 0,
        "closed {closed}, idle {idle}, reopened {reopened}"
    );
}

/// Routes to both model kinds, an explicit `drop`, and no `default`, so
/// some flows match no rule.
const MIXED_POLICY: &str = "*:udp -> drop\n*:tcp:443 -> encoder\n*:tcp:0-1023 -> forest\n";

/// Serve's verdict lines and totals, rebuilt the way an outside walk
/// over the public table sees them: `FlowTable::push` stores every
/// flow's packets, and the policy is matched when a flow retires. Also
/// returns how many flows went to `[encoder, forest, drop, no rule]`.
fn walk_reference(
    bundle: &ModelBundle,
    policy: &Policy,
    packets: &[serving::ReplayPacket],
) -> (String, ServeStats, [u64; 4]) {
    let mut table = FlowTable::new(ServeOptions::default().idle_timeout).unwrap();
    let mut stats = ServeStats::default();
    let mut lines = String::new();
    let mut routes = [0u64; 4];
    let (mut enc, mut x, mut mlp, mut votes) =
        (EncodeScratch::default(), Tensor::default(), MlpScratch::default(), Vec::new());
    let mut retire = |flow: TrackedFlow, reason: EvictionReason, stats: &mut ServeStats| {
        match reason {
            EvictionReason::Closed => stats.evicted_closed += 1,
            EvictionReason::Idle => stats.evicted_idle += 1,
            EvictionReason::Flush => stats.flushed += 1,
        }
        let target = policy.match_flow(&flow.key).map(|r| r.target.as_str());
        let label = match target {
            Some("encoder") => {
                routes[0] += 1;
                let mut labels = Vec::new();
                bundle.encoder.encode_flows_into(
                    &[flow.records.iter().collect()],
                    &mut enc,
                    &mut x,
                );
                bundle.head.predict_into(&x, &mut mlp, &mut labels);
                labels[0]
            }
            Some("forest") => {
                routes[1] += 1;
                let rows: Vec<[f32; N_FEATURES]> =
                    flow.records.iter().map(|r| extract_features(r, SERVING_FEATURES)).collect();
                let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                majority_with(&bundle.forest.predict(&refs), &mut votes)
            }
            other => {
                routes[if other.is_some() { 2 } else { 3 }] += 1;
                stats.dropped += 1;
                return;
            }
        };
        stats.verdicts += 1;
        lines.push_str(&format!(
            "{{\"flow\":{},\"first_ts\":{:.6},\"last_ts\":{:.6},\"packets\":{},\"bytes\":{},\
             \"proto\":{},\"target\":\"{}\",\"label\":{},\"class\":\"{}\",\"epoch\":0}}\n",
            flow.id,
            flow.first_ts,
            flow.last_ts,
            flow.packets,
            flow.bytes,
            flow.key.protocol,
            target.unwrap_or_default(),
            label,
            escape_json(bundle.class_name(label)),
        ));
    };
    for (seq, p) in packets.iter().enumerate() {
        stats.packets += 1;
        match table.push(seq as u64, p.ts, &p.frame) {
            Ingest::NonIp => stats.non_ip += 1,
            Ingest::Tracked { opened } => stats.flows += u64::from(opened),
        }
        for (flow, reason) in table.poll(p.ts) {
            retire(flow, reason, &mut stats);
        }
    }
    for (flow, reason) in table.flush() {
        retire(flow, reason, &mut stats);
    }
    (lines, stats, routes)
}

/// `serve()` routes flows when they open and stores no packets for the
/// ones it drops; its verdict bytes and totals must equal the outside
/// walk's, at one worker and at two.
#[test]
fn serve_with_drop_and_unmatched_flows_matches_a_push_walk() {
    let spec = SynthSpec::parse("ustc:7:1").unwrap();
    let bundle = ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42);
    let policy = Policy::parse(MIXED_POLICY).unwrap();
    let packets = SynthSpec::parse("ustc:11:2").unwrap().replay();
    let (want, want_stats, routes) = walk_reference(&bundle, &policy, &packets);
    assert!(routes.iter().all(|&n| n > 0), "[encoder, forest, drop, no rule] = {routes:?}");
    for (batch, workers) in [(1, 1), (16, 2)] {
        let opts = ServeOptions { batch, workers, ..ServeOptions::default() };
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let stats =
            serve(&bundle, &policy, &packets, &opts, ReloadSource::None, &mut out, &sink).unwrap();
        assert_eq!(stats, want_stats, "batch {batch}, workers {workers}");
        assert_eq!(String::from_utf8(out).unwrap(), want, "batch {batch}, workers {workers}");
    }
}
