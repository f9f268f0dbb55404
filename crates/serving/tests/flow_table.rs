//! Property tests for the flow table under hostile timestamps: capture
//! files carry clock skew, reordering and outright backwards time, and
//! the table's determinism contract has to survive all of it. Frames
//! are real synthesised traffic; timestamps are adversarial. An oracle
//! table that scans every flow on every poll checks that the deadline
//! index retires exactly the flows the eviction predicate names.

use debunk_core::obs::EvictionReason;
use net_packet::conntrack::{ConnTracker, TcpState};
use net_packet::frame::{FlowKey, IpInfo, ParsedFrame, TransportInfo};
use proptest::prelude::*;
use serving::flow::Ingest;
use serving::source::SynthSpec;
use serving::{FlowTable, MAX_STORED_PACKETS};
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
