//! Conntrack-backed flow table: groups the raw packet stream into
//! bidirectional flows, tracks TCP lifecycle per flow, and retires
//! flows deterministically (teardown, idle timeout, final flush).
//!
//! Determinism contract: eviction depends only on packet contents,
//! packet sequence numbers and timestamps — never on wall clock,
//! hash-map iteration order or batch size — so an identical replay
//! retires identical flows in an identical order.
//!
//! Flow identity: a flow's `id` is the global sequence number of the
//! packet that opened it. Sequence numbers are assigned by the caller
//! (one per ingested packet, across all shards), so ids are unique,
//! monotone in first-seen order, and — crucially for multi-worker
//! serving — identical no matter how the packet stream is partitioned
//! across flow tables.
//!
//! Routing: a caller whose routing depends only on the flow key routes
//! each flow once, when it opens ([`FlowTable::push_routed`]). A flow
//! routed nowhere keeps its counters, TCP state and eviction schedule
//! but stores no packets.

use dataset::record::PacketRecord;
use debunk_core::obs::EvictionReason;
use net_packet::conntrack::{ConnTracker, TcpState};
use net_packet::frame::{FlowKey, IpInfo, ParsedFrame};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Packets stored per flow for classification. Later packets still
/// update counters and TCP state but are not retained — classification
/// models look at the head of a flow (App. A.2), and an unbounded
/// buffer would let one long flow exhaust memory.
pub const MAX_STORED_PACKETS: usize = 32;

/// How long after a TCP close the flow lingers so trailing ACKs join
/// the same flow instead of opening a spurious one-packet successor.
const CLOSE_LINGER_SECS: f64 = 1.0;

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// One endpoint as (address, port), address widened to u128 so v4 and
/// v6 share a representation (matching [`FlowKey`]).
fn endpoint(parsed: &ParsedFrame) -> (u128, u16) {
    let ip = match parsed.ip {
        IpInfo::V4 { src, .. } => u128::from(src.to_u32()),
        IpInfo::V6 { src, .. } => u128::from_be_bytes(src.0),
    };
    (ip, parsed.transport.src_port())
}

/// Total-order key for an `f64` timestamp: monotone with `total_cmp`,
/// so deadlines sort correctly even for the negative timestamps a
/// garbage capture can carry.
fn ts_order_bits(ts: f64) -> u64 {
    let b = ts.to_bits() as i64;
    if b < 0 {
        !(b as u64)
    } else {
        (b as u64) ^ (1u64 << 63)
    }
}

/// The conservative deadline candidate for a flow in its current
/// state: one ulp below `last_ts + window`, so the stored bound is
/// strictly below every `now` that can satisfy the exact eviction
/// predicate (float addition may round up; `next_down` compensates).
/// Free-standing so `push_routed` can call it while holding the slot
/// borrow.
fn deadline_for<R>(flow: &TrackedFlow<R>, idle_timeout: f64, linger: f64) -> f64 {
    let window = if flow.conn.state() == TcpState::Closed { linger } else { idle_timeout };
    (flow.last_ts + window).next_down()
}

/// A flow being assembled from live packets, routed to an `R` when it
/// opened (`()` for [`FlowTable::push`], which stores every flow's
/// packets).
#[derive(Debug, Clone)]
pub struct TrackedFlow<R = ()> {
    /// Sequence number of the opening packet (also the verdict
    /// stream's `flow` field). Unique and monotone in first-seen
    /// order, independent of how the stream is sharded.
    pub id: u64,
    /// Canonical bidirectional 5-tuple.
    pub key: FlowKey,
    /// TCP lifecycle (untouched for UDP flows).
    pub conn: ConnTracker,
    /// The first [`MAX_STORED_PACKETS`] packets, as records the
    /// feature extractors and encoders consume directly. Always empty
    /// for a flow routed `None`.
    pub records: Vec<PacketRecord>,
    /// Timestamp of the first packet.
    pub first_ts: f64,
    /// Timestamp of the most recent packet.
    pub last_ts: f64,
    /// Total packets seen (may exceed `records.len()`).
    pub packets: u64,
    /// Total frame bytes seen.
    pub bytes: u64,
    /// Where the flow was routed when it opened; `None`: nowhere, so
    /// no packets are stored.
    pub route: Option<R>,
    /// (address, port) of the flow opener — defines `from_client`.
    client: (u128, u16),
    /// Next slot of this flow's hash chain, or [`NIL`].
    next: u32,
}

/// Outcome of feeding one frame to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Frame joined a flow (true if it opened a new one).
    Tracked {
        /// Whether this packet opened the flow.
        opened: bool,
    },
    /// Frame has no flow key (non-IP, unparseable) and was dropped.
    NonIp,
}

/// A deadline-queue entry: `(ts_order_bits(due), flow id, slot)`.
/// Field order is the sort order (derived `Ord`), so entries pop by
/// due time and then by id. An entry is stale once its slot is empty
/// or holds a flow with a different id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deadline {
    bits: u64,
    id: u64,
    slot: u32,
}

/// The index's hasher. Its keys are already keyed SipHash values of
/// flow keys, so it passes them through instead of hashing again.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the flow index hashes only u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Move `flow` into a free slot (last freed first) or a new one.
fn occupy<R>(
    slots: &mut Vec<Option<TrackedFlow<R>>>,
    free: &mut Vec<u32>,
    flow: TrackedFlow<R>,
) -> u32 {
    match free.pop() {
        Some(slot) => {
            slots[slot as usize] = Some(flow);
            slot
        }
        None => {
            slots.push(Some(flow));
            u32::try_from(slots.len() - 1).expect("fewer than 2^32 live flows")
        }
    }
}

/// The serving flow table.
///
/// Storage is a slab of [`TrackedFlow`]s, whose retired slots are
/// reused LIFO from `free`. The index maps a keyed SipHash of the flow
/// key (`RandomState`, as a `HashMap<FlowKey, _>` would use) to the
/// first slot of a chain; flows whose keys hash alike are linked
/// through their `next` slot, and a lookup compares the full keys in
/// the slab. An index entry is thus a `u64` and a `u32` — 16 bytes
/// where a key-holding entry takes 64 — and rehashing never moves a
/// flow. Which flows share a chain never affects eviction order.
///
/// The deadline index is three sorted containers whose union holds
/// every `(due, id, slot)` candidate: `idle_queue` for flows on the
/// idle window, `linger_queue` for TCP-closed flows on the linger
/// window, and `stragglers` for entries that would break a queue's
/// order. A candidate is inserted on every packet and validated lazily
/// on pop. The due time stored is a conservative (one-ulp-early) bound,
/// so a flow whose exact eviction predicate fires is always popped;
/// stale or slightly-early entries are revalidated against the flow's
/// current state and re-armed or discarded. [`FlowTable::poll_into`] is
/// therefore O(due) instead of O(tracked), which is what lets a
/// per-packet poll schedule scale to million-flow tables.
#[derive(Debug)]
pub struct FlowTable<R = ()> {
    /// Flow-key hash → first slot of its chain in `slots`.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The index's keyed hash of a flow key.
    hasher: RandomState,
    /// The live flows; `None` marks a free slot.
    slots: Vec<Option<TrackedFlow<R>>>,
    /// Free slots, reused last-in first-out.
    free: Vec<u32>,
    /// Deadlines on the idle window, in pop order. A deadline is the
    /// packet's timestamp plus a constant window, so with
    /// non-decreasing timestamps every push lands at the back: O(1).
    idle_queue: VecDeque<Deadline>,
    /// Deadlines on the linger window of TCP-closed flows, in pop order.
    linger_queue: VecDeque<Deadline>,
    /// Entries that arrived below their queue's back: out-of-order
    /// capture timestamps and the ulp-early re-arms of `poll_into`.
    stragglers: BTreeSet<Deadline>,
    /// `poll_into`'s candidates to re-arm after its drain loop, kept
    /// so a poll does not allocate.
    rearm: Vec<(Deadline, bool)>,
    idle_timeout: f64,
    linger: f64,
    /// Every key hashes alike, so the unit tests can drive one chain.
    #[cfg(test)]
    collide: bool,
}

impl FlowTable {
    /// A table retiring flows after `idle_timeout` seconds of silence.
    /// A non-positive or non-finite timeout is a configuration error,
    /// reported — never silently clamped.
    pub fn new(idle_timeout: f64) -> Result<FlowTable, String> {
        FlowTable::new_routed(idle_timeout)
    }

    /// Feed one frame observed as global packet `seq` at `ts`, storing
    /// packets for every flow: [`FlowTable::push_routed`] with every
    /// flow routed to `()`.
    pub fn push(&mut self, seq: u64, ts: f64, frame: &[u8]) -> Ingest {
        self.push_routed(seq, ts, frame, |_| Some(()))
    }
}

impl<R> FlowTable<R> {
    /// [`FlowTable::new`] for a table whose flows are routed to an `R`
    /// when they open.
    pub fn new_routed(idle_timeout: f64) -> Result<FlowTable<R>, String> {
        if !(idle_timeout > 0.0 && idle_timeout.is_finite()) {
            return Err(format!(
                "idle timeout must be a positive finite number of seconds (got {idle_timeout})"
            ));
        }
        Ok(FlowTable {
            index: HashMap::default(),
            hasher: RandomState::new(),
            slots: Vec::new(),
            free: Vec::new(),
            idle_queue: VecDeque::new(),
            linger_queue: VecDeque::new(),
            stragglers: BTreeSet::new(),
            rearm: Vec::new(),
            idle_timeout,
            linger: CLOSE_LINGER_SECS.min(idle_timeout),
            #[cfg(test)]
            collide: false,
        })
    }

    /// Flows currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no flow is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index key of a flow key.
    fn key_hash(&self, key: &FlowKey) -> u64 {
        #[cfg(test)]
        if self.collide {
            return 0;
        }
        self.hasher.hash_one(key)
    }

    /// Queue a deadline candidate in its window's queue (`closed`:
    /// the linger queue). An entry below the queue's back is a
    /// straggler; when it still fits above the entry before the back,
    /// the back is the odd one out (say one far-future timestamp) and
    /// moves to `stragglers` instead, so a single outlier cannot push
    /// every later packet off the O(1) path.
    fn arm(&mut self, entry: Deadline, closed: bool) {
        let queue = if closed { &mut self.linger_queue } else { &mut self.idle_queue };
        match queue.back() {
            Some(&back) if entry < back => {
                if queue.len() < 2 || queue[queue.len() - 2] <= entry {
                    queue.pop_back();
                    queue.push_back(entry);
                    self.stragglers.insert(back);
                } else {
                    self.stragglers.insert(entry);
                }
            }
            _ => queue.push_back(entry),
        }
    }

    /// Feed one frame observed as global packet `seq` at `ts`. Parsing
    /// failures and keyless traffic are reported, never panicked on —
    /// capture files contain garbage. A packet that opens a flow gives
    /// the flow `id = seq` and `route(&key)` as its route, asked once
    /// per flow; a flow routed `None` stores no packets.
    pub fn push_routed(
        &mut self,
        seq: u64,
        ts: f64,
        frame: &[u8],
        route: impl FnOnce(&FlowKey) -> Option<R>,
    ) -> Ingest {
        let Ok(parsed) = ParsedFrame::parse(frame) else {
            return Ingest::NonIp;
        };
        let Some(key) = parsed.flow_key() else {
            return Ingest::NonIp;
        };
        let src = endpoint(&parsed);
        let open = |next: u32| {
            let route = route(&key);
            TrackedFlow {
                id: seq,
                key,
                conn: ConnTracker::new(),
                // Most flows of a SYN flood or scan are one packet.
                records: if route.is_some() { Vec::with_capacity(1) } else { Vec::new() },
                first_ts: ts,
                last_ts: ts,
                packets: 0,
                bytes: 0,
                route,
                client: src,
                next,
            }
        };
        let hash = self.key_hash(&key);
        let (slot, opened) = match self.index.entry(hash) {
            Entry::Vacant(e) => {
                (*e.insert(occupy(&mut self.slots, &mut self.free, open(NIL))), true)
            }
            Entry::Occupied(mut e) => {
                let head = *e.get();
                let mut at = head;
                while at != NIL {
                    let flow = self.slots[at as usize].as_ref().expect("chained slot holds a flow");
                    if flow.key == key {
                        break;
                    }
                    at = flow.next;
                }
                if at != NIL {
                    (at, false)
                } else {
                    let slot = occupy(&mut self.slots, &mut self.free, open(head));
                    e.insert(slot);
                    (slot, true)
                }
            }
        };
        let flow = self.slots[slot as usize].as_mut().expect("indexed slot holds a flow");
        let from_client = src == flow.client;
        flow.conn.push(&parsed, ts, from_client);
        flow.last_ts = ts;
        flow.packets += 1;
        flow.bytes += frame.len() as u64;
        if flow.route.is_some() && flow.records.len() < MAX_STORED_PACKETS {
            flow.records.push(PacketRecord {
                ts,
                frame: frame.to_vec(),
                parsed,
                class: 0, // unknown online; the classifier fills the verdict
                flow_id: flow.id,
                from_client,
            });
        }
        let due = deadline_for(flow, self.idle_timeout, self.linger);
        let entry = Deadline { bits: ts_order_bits(due), id: flow.id, slot };
        let closed = flow.conn.state() == TcpState::Closed;
        self.arm(entry, closed);
        Ingest::Tracked { opened }
    }

    /// Whether `flow` is due for eviction at `now` — the exact
    /// predicate the deadline index approximates from below.
    fn due_reason(&self, flow: &TrackedFlow<R>, now: f64) -> Option<EvictionReason> {
        let idle = now - flow.last_ts;
        if flow.conn.state() == TcpState::Closed && idle > self.linger {
            Some(EvictionReason::Closed)
        } else if idle > self.idle_timeout {
            Some(EvictionReason::Idle)
        } else {
            None
        }
    }

    /// Pop the smallest deadline candidate of the three containers if
    /// it is due by `horizon` (a [`ts_order_bits`] value).
    fn pop_due(&mut self, horizon: u64) -> Option<Deadline> {
        let idle = self.idle_queue.front().copied();
        let linger = self.linger_queue.front().copied();
        let straggler = self.stragglers.first().copied();
        let next = [idle, linger, straggler].into_iter().flatten().min()?;
        if next.bits > horizon {
            return None;
        }
        if Some(next) == idle {
            self.idle_queue.pop_front();
        } else if Some(next) == linger {
            self.linger_queue.pop_front();
        } else {
            self.stragglers.pop_first();
        }
        Some(next)
    }

    /// Take the flow out of `slot`: unlink it from its hash chain and
    /// free the slot.
    fn remove(&mut self, slot: u32) -> TrackedFlow<R> {
        let flow = self.slots[slot as usize].take().expect("flow just looked up");
        let hash = self.key_hash(&flow.key);
        let Entry::Occupied(mut e) = self.index.entry(hash) else {
            unreachable!("a live flow is indexed")
        };
        if *e.get() == slot {
            if flow.next == NIL {
                e.remove();
            } else {
                e.insert(flow.next);
            }
        } else {
            let mut at = *e.get();
            loop {
                let prev = self.slots[at as usize].as_mut().expect("chained slot holds a flow");
                if prev.next == slot {
                    prev.next = flow.next;
                    break;
                }
                at = prev.next;
            }
        }
        self.free.push(slot);
        flow
    }

    /// Retire every flow that is done as of `now` into `out` (cleared
    /// first): TCP-closed flows past their linger, and any flow idle
    /// beyond the timeout. Retired in `id` order — the verdict stream
    /// order. Only flows whose deadline candidates have come due are
    /// examined, so a call with nothing to retire is O(1), and one into
    /// a buffer with room allocates nothing.
    pub fn poll_into(&mut self, now: f64, out: &mut Vec<(TrackedFlow<R>, EvictionReason)>) {
        out.clear();
        let horizon = ts_order_bits(now);
        let mut rearm = std::mem::take(&mut self.rearm);
        while let Some(entry) = self.pop_due(horizon) {
            // Stale candidates: the flow was already retired, or the
            // slot was reused by a younger flow.
            let Some(flow) = &self.slots[entry.slot as usize] else { continue };
            if flow.id != entry.id {
                continue;
            }
            if let Some(reason) = self.due_reason(flow, now) {
                out.push((self.remove(entry.slot), reason));
                continue;
            }
            // Not due. If a later packet moved the deadline, the
            // candidate that packet queued is still pending and this
            // one is dropped. If this is the flow's current candidate
            // (the conservative bound fired an ulp ahead of the exact
            // predicate), re-arm it after the drain loop. A NaN
            // deadline (NaN timestamp) is never due, so only the next
            // packet of the flow re-arms it.
            let current = deadline_for(flow, self.idle_timeout, self.linger);
            if !current.is_nan() && ts_order_bits(current) == entry.bits {
                rearm.push((entry, flow.conn.state() == TcpState::Closed));
            }
        }
        for (entry, closed) in rearm.drain(..) {
            self.arm(entry, closed);
        }
        self.rearm = rearm;
        out.sort_unstable_by_key(|(f, _)| f.id);
    }

    /// [`FlowTable::poll_into`] into a new `Vec`.
    pub fn poll(&mut self, now: f64) -> Vec<(TrackedFlow<R>, EvictionReason)> {
        let mut due = Vec::new();
        self.poll_into(now, &mut due);
        due
    }

    /// End-of-stream: retire everything still tracked, in `id` order.
    pub fn flush(&mut self) -> Vec<(TrackedFlow<R>, EvictionReason)> {
        self.index.clear();
        self.free.clear();
        self.idle_queue.clear();
        self.linger_queue.clear();
        self.stragglers.clear();
        let mut rest: Vec<TrackedFlow<R>> = self.slots.drain(..).flatten().collect();
        rest.sort_unstable_by_key(|f| f.id);
        rest.into_iter().map(|f| (f, EvictionReason::Flush)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SynthSpec;

    fn table_after_replay(idle: f64) -> (FlowTable, Vec<(TrackedFlow, EvictionReason)>) {
        let mut table = FlowTable::new(idle).unwrap();
        let mut evicted = Vec::new();
        for (seq, p) in SynthSpec::parse("iscx:2:1").unwrap().replay().iter().enumerate() {
            table.push(seq as u64, p.ts, &p.frame);
            evicted.extend(table.poll(p.ts));
        }
        (table, evicted)
    }

    #[test]
    fn flows_get_first_seen_ids_and_directions() {
        let (mut table, evicted) = table_after_replay(1e9);
        let mut all = evicted;
        all.extend(table.flush());
        assert!(!all.is_empty());
        let ids: Vec<u64> = all.iter().map(|(f, _)| f.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids.len(), sorted.len(), "ids unique");
        for (f, _) in &all {
            assert!(f.packets >= f.records.len() as u64);
            assert!(f.records.len() <= MAX_STORED_PACKETS);
            assert!(f.records.first().is_none_or(|r| r.from_client), "opener is the client");
            assert!(f.records.iter().all(|r| r.flow_id == f.id), "records carry the flow id");
            assert!(f.last_ts >= f.first_ts);
        }
    }

    #[test]
    fn idle_timeout_retires_quiet_flows() {
        let (_, evicted) = table_after_replay(0.005);
        assert!(
            evicted.iter().any(|(_, r)| *r == EvictionReason::Idle),
            "a 5ms idle cutoff must retire flows mid-replay"
        );
    }

    #[test]
    fn closed_tcp_flows_are_evicted_as_closed() {
        let (mut table, evicted) = table_after_replay(30.0);
        let mut all = evicted;
        // advance time far past every teardown
        all.extend(table.poll(1e6));
        assert!(
            all.iter()
                .any(|(f, r)| *r == EvictionReason::Closed && f.conn.state() == TcpState::Closed),
            "TCP teardown must surface as a Closed eviction"
        );
    }

    #[test]
    fn eviction_order_is_replay_invariant() {
        let (mut ta, mut ea) = table_after_replay(0.05);
        ea.extend(ta.flush());
        let (mut tb, mut eb) = table_after_replay(0.05);
        eb.extend(tb.flush());
        let a: Vec<(u64, &'static str)> = ea.iter().map(|(f, r)| (f.id, r.name())).collect();
        let b: Vec<(u64, &'static str)> = eb.iter().map(|(f, r)| (f.id, r.name())).collect();
        assert_eq!(a, b, "same replay, same eviction stream");
    }

    #[test]
    fn garbage_frames_are_rejected_not_panicked() {
        let mut table = FlowTable::new(1.0).unwrap();
        assert_eq!(table.push(0, 0.0, &[]), Ingest::NonIp);
        assert_eq!(table.push(1, 0.0, &[0xde, 0xad, 0xbe, 0xef]), Ingest::NonIp);
        assert!(table.is_empty());
    }

    #[test]
    fn non_positive_idle_timeout_is_a_config_error_not_a_clamp() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FlowTable::new(bad).expect_err("must refuse");
            assert!(err.contains("idle timeout"), "{err}");
        }
        assert!(FlowTable::new(0.001).is_ok());
    }

    /// Regression: record flow ids used to be truncated through `as
    /// u32`, silently colliding once sequence numbers passed 2³².
    #[test]
    fn flow_ids_above_u32_max_survive_into_records() {
        let mut table = FlowTable::new(1e9).unwrap();
        let base = u64::from(u32::MAX) + 7;
        let replay = SynthSpec::parse("iscx:2:1").unwrap().replay();
        for (i, p) in replay.iter().enumerate() {
            table.push(base + i as u64, p.ts, &p.frame);
        }
        let all = table.flush();
        assert!(!all.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (f, _) in &all {
            assert!(f.id >= base, "id {} below the opening sequence base", f.id);
            assert!(f.id > u64::from(u32::MAX));
            assert!(seen.insert(f.id), "id {} collided", f.id);
            for r in &f.records {
                assert_eq!(r.flow_id, f.id, "record id must not be truncated");
            }
        }
    }

    /// Out-of-order timestamps (negative idle deltas) must neither
    /// panic nor retire flows spuriously, and the deadline index must
    /// keep matching the exact predicate afterwards.
    #[test]
    fn backwards_time_never_evicts() {
        let replay = SynthSpec::parse("iscx:3:1").unwrap().replay();
        let mut table = FlowTable::new(0.5).unwrap();
        for (seq, p) in replay.iter().enumerate() {
            table.push(seq as u64, p.ts, &p.frame);
        }
        let tracked = table.len();
        assert!(tracked > 0);
        // Time running backwards: nothing can be idle-evicted.
        assert!(table.poll(-1e9).is_empty());
        assert_eq!(table.len(), tracked);
        // Far future: everything retires.
        let evicted = table.poll(1e12);
        assert_eq!(evicted.len(), tracked);
        assert!(table.is_empty());
    }

    fn queued(table: &FlowTable) -> usize {
        table.idle_queue.len() + table.linger_queue.len() + table.stragglers.len()
    }

    /// One far-future timestamp must not leave every later in-order
    /// packet to the straggler set: the outlier is what moves there.
    #[test]
    fn one_far_future_timestamp_keeps_in_order_pushes_on_the_queues() {
        let replay = SynthSpec::parse("iscx:3:1").unwrap().replay();
        let mut table = FlowTable::new(5.0).unwrap();
        let mut tracked = 0;
        for (i, p) in replay.iter().enumerate() {
            let ts = if i == 0 { 1e12 } else { i as f64 * 1e-3 };
            if table.push(i as u64, ts, &p.frame) != Ingest::NonIp {
                tracked += 1;
            }
        }
        assert!(tracked > 100);
        assert_eq!(queued(&table), tracked);
        assert_eq!(table.stragglers.len(), 1, "only the outlier is a straggler");
    }

    /// A NaN timestamp is never due, so its candidate is dropped on the
    /// first pop instead of being re-armed and re-examined every poll.
    #[test]
    fn nan_timestamped_flows_leave_the_deadline_index_until_their_next_packet() {
        let replay = SynthSpec::parse("iscx:3:1").unwrap().replay();
        let mut table = FlowTable::new(5.0).unwrap();
        for (i, p) in replay.iter().enumerate() {
            table.push(i as u64, -f64::NAN, &p.frame);
        }
        let tracked = table.len();
        assert!(table.poll(0.0).is_empty());
        assert_eq!(queued(&table), 0);
        assert_eq!(table.len(), tracked);
        // A real timestamp re-arms the flow it lands on.
        table.push(replay.len() as u64, 1.0, &replay[0].frame);
        assert_eq!(table.poll(7.0).len(), 1);
        assert_eq!(table.flush().len(), tracked - 1);
    }

    /// A full-scan reference: flows in a plain list, found and retired
    /// by scanning every entry with the exact idle/linger predicate. No
    /// hashing, so it cannot share a chaining bug.
    #[derive(Default)]
    struct Scan {
        flows: Vec<TrackedFlow>,
    }

    impl Scan {
        fn push(&mut self, seq: u64, ts: f64, frame: &[u8]) -> Ingest {
            let Ok(parsed) = ParsedFrame::parse(frame) else { return Ingest::NonIp };
            let Some(key) = parsed.flow_key() else { return Ingest::NonIp };
            let src = endpoint(&parsed);
            let opened = !self.flows.iter().any(|f| f.key == key);
            if opened {
                self.flows.push(TrackedFlow {
                    id: seq,
                    key,
                    conn: ConnTracker::new(),
                    records: Vec::new(),
                    first_ts: ts,
                    last_ts: ts,
                    packets: 0,
                    bytes: 0,
                    route: Some(()),
                    client: src,
                    next: NIL,
                });
            }
            let flow = self.flows.iter_mut().find(|f| f.key == key).expect("opened above");
            flow.conn.push(&parsed, ts, src == flow.client);
            flow.last_ts = ts;
            flow.packets += 1;
            flow.bytes += frame.len() as u64;
            Ingest::Tracked { opened }
        }

        fn retire(&mut self, due: impl Fn(&TrackedFlow) -> Option<EvictionReason>) -> Vec<Retired> {
            let mut out = Vec::new();
            self.flows.retain(|f| match due(f) {
                Some(reason) => {
                    out.push((f.id, reason, f.packets, f.bytes));
                    false
                }
                None => true,
            });
            out.sort_unstable_by_key(|r| r.0);
            out
        }
    }

    /// `(id, reason, packets, bytes)` of a retired flow.
    type Retired = (u64, EvictionReason, u64, u64);

    fn retired(batch: Vec<(TrackedFlow, EvictionReason)>) -> Vec<Retired> {
        batch.into_iter().map(|(f, r)| (f.id, r, f.packets, f.bytes)).collect()
    }

    /// Ids of the flows on the chain of index key 0, head first.
    fn chain(table: &FlowTable) -> Vec<u64> {
        let mut ids = Vec::new();
        let mut at = table.index.get(&0).copied().unwrap_or(NIL);
        while at != NIL {
            let flow = table.slots[at as usize].as_ref().expect("chained slot holds a flow");
            ids.push(flow.id);
            at = flow.next;
        }
        ids
    }

    /// With every key hashing alike, the index is one chain. Flows
    /// retired from its head, middle and tail, and keys found or
    /// reopened behind a retired link, must match the full scan.
    #[test]
    fn one_hash_chain_matches_a_full_scan() {
        let replay = SynthSpec::parse("iscx:2:1").unwrap().replay();
        let mut table = FlowTable::new(0.5).unwrap();
        table.collide = true;
        let mut scan = Scan::default();
        let (linger, idle) = (table.linger, table.idle_timeout);
        // Retirements seen at the chain's [head, middle, tail].
        let mut at = [0usize; 3];
        let mut longest = 0;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut ts = 0.0;
        for (seq, p) in replay.iter().take(800).enumerate() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ts += match rng % 10 {
                0..=6 => (rng >> 40) as f64 * 1e-9,
                7 | 8 => 0.1 + (rng >> 40) as f64 * 1e-8,
                _ => 0.6,
            };
            let seq = seq as u64;
            assert_eq!(table.push(seq, ts, &p.frame), scan.push(seq, ts, &p.frame));
            let ids = chain(&table);
            assert_eq!(ids.len(), table.len(), "every flow is on the one chain");
            longest = longest.max(ids.len());
            let got = retired(table.poll(ts));
            for (id, ..) in &got {
                let pos = ids.iter().position(|i| i == id).expect("retired flow was chained");
                if ids.len() > 2 {
                    at[if pos == 0 {
                        0
                    } else if pos + 1 == ids.len() {
                        2
                    } else {
                        1
                    }] += 1;
                }
            }
            let want = scan.retire(|f| {
                let quiet = ts - f.last_ts;
                if f.conn.state() == TcpState::Closed && quiet > linger {
                    Some(EvictionReason::Closed)
                } else if quiet > idle {
                    Some(EvictionReason::Idle)
                } else {
                    None
                }
            });
            assert_eq!(got, want, "poll after packet {seq} at {ts}");
        }
        assert_eq!(retired(table.flush()), scan.retire(|_| Some(EvictionReason::Flush)));
        assert!(longest >= 3, "longest chain {longest}");
        assert!(at.iter().all(|&n| n > 0), "retired at [head, middle, tail]: {at:?}");
    }
}
