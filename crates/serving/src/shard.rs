//! Flow-hash-sharded multi-worker serving.
//!
//! The caller thread is the **dispatcher**: it assigns every packet a
//! global sequence number, hashes its flow key (FNV-1a 64) to pick an
//! owner worker, and streams batched events over channels. Every
//! worker receives a `(seq, ts)` tick for every packet — so each
//! private [`FlowTable`](crate::flow::FlowTable)'s eviction schedule is
//! exactly the single-worker schedule — but only the owner receives
//! the frame bytes. Each worker owns a private flow table, pending
//! queue and classify scratch (one [`Shard`](crate::engine) per
//! thread), and emits verdicts keyed `(evict_seq, flow_id)`.
//!
//! A **merger** thread performs a deterministic k-way merge of the
//! per-worker verdict streams: a verdict is written once every other
//! worker has promised (via a watermark, or by being done) that it can
//! no longer produce a smaller key — the same earliest-wins discipline
//! as `traffic_synth::stream::merge_sorted`, with the tie-break
//! degenerate because flow ids are globally unique. The merged bytes
//! are identical to `--serve-workers 1` at any worker count, across
//! reload boundaries (reload events are broadcast in stream position,
//! so every worker sees a boundary before the first tick at or past
//! it).

use crate::bundle::ModelBundle;
use crate::engine::{EpochBundle, ServeOptions, ServeStats, Shard as EngineShard, ShardTotals};
use crate::policy::Policy;
use crate::reload::ReloadSource;
use crate::source::ReplayPacket;
use debunk_core::obs::{ObsSink, Value};
use net_packet::frame::{FlowKey, ParsedFrame};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;

/// Most events per channel send: large enough to amortise channel
/// overhead, small enough that verdict merging stays pipelined with
/// ingest. A cap, not a wait, once the source is the slower side: then
/// the dispatcher sends its buffers after every packet.
const EVENT_BATCH: usize = 256;

/// FNV-1a 64 ([`nn::envelope::Fnv`]) over the canonical flow-key
/// bytes, so shard placement is a pure function of the key, never of
/// memory layout or `std` hasher seeds.
pub fn flow_shard(key: &FlowKey, n_workers: usize) -> usize {
    let mut h = nn::envelope::Fnv::new();
    h.update(&key.lo_ip.to_be_bytes());
    h.update(&key.hi_ip.to_be_bytes());
    h.update(&key.lo_port.to_be_bytes());
    h.update(&key.hi_port.to_be_bytes());
    h.update(&[key.protocol]);
    (h.finish() % n_workers.max(1) as u64) as usize
}

/// One dispatcher→worker event, delivered in stream order.
enum Event<'a> {
    /// A frame this worker owns (implies the tick at `seq`).
    Frame {
        seq: u64,
        ts: f64,
        frame: Vec<u8>,
    },
    /// Another worker's packet: advance this worker's clock only.
    Tick {
        seq: u64,
        ts: f64,
    },
    /// A reload boundary: flows retired at `boundary` or later are
    /// classified by `bundle`.
    Reload {
        boundary: u64,
        bundle: EpochBundle<'a>,
    },
    End {
        flush_seq: u64,
    },
}

/// One worker→merger message.
enum MergeMsg {
    /// Verdicts in key order (monotone within and across messages from
    /// one worker).
    Verdicts(Vec<(u64, u64, String)>),
    /// Promise: every future verdict from this worker has key >= this.
    Watermark(u64, u64),
    /// No further verdicts from this worker.
    Done,
}

/// A worker's time, from two chained clock stamps around every stretch
/// of work: `idle` (waiting on the event channel) and `busy` add up to
/// its wall time.
struct WorkerClock {
    t_prev: Instant,
    idle: f64,
    busy: f64,
}

impl WorkerClock {
    /// Close a stretch of work that began at `t0`; its time also goes
    /// into `engine_busy`.
    fn worked(&mut self, t0: Instant, engine_busy: &AtomicU64) {
        self.idle += (t0 - self.t_prev).as_secs_f64();
        self.t_prev = Instant::now();
        let dt = self.t_prev - t0;
        self.busy += dt.as_secs_f64();
        engine_busy.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Drive one worker: apply events in order, buffer emitted verdicts,
/// and after every event batch publish them plus a fresh watermark.
/// Once the worker has waited on its event channel longer than it has
/// worked, summed over the run, it classifies its pending flows (below
/// the batch cap) before blocking on an empty channel and publishes
/// those verdicts too, so a retired flow does not wait on a worker that
/// has nothing else to do. Its busy time also goes into `engine_busy`
/// (nanoseconds, shared by all workers). Returns this shard's totals.
fn run_worker<'a>(
    idx: usize,
    mut shard: EngineShard<'a>,
    rx: Receiver<Vec<Event<'a>>>,
    tx: &Sender<(usize, MergeMsg)>,
    engine_busy: &AtomicU64,
    sink: &ObsSink,
) -> io::Result<ShardTotals> {
    // Verdicts, then the watermark (or `Done`) that follows them.
    let publish = |verdicts: Vec<(u64, u64, String)>, then: MergeMsg| {
        if !verdicts.is_empty() {
            let _ = tx.send((idx, MergeMsg::Verdicts(verdicts)));
        }
        let _ = tx.send((idx, then));
    };
    let watermark = |shard: &EngineShard<'a>, last_seq: u64| {
        let (s, id) = shard.emit_bound(last_seq);
        MergeMsg::Watermark(s, id)
    };
    let mut clock = WorkerClock { t_prev: Instant::now(), idle: 0.0, busy: 0.0 };
    let mut last_seq = 0u64;
    loop {
        let events = match rx.try_recv() {
            Ok(events) => events,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if clock.idle > clock.busy && shard.has_pending() {
                    let t0 = Instant::now();
                    let mut verdicts: Vec<(u64, u64, String)> = Vec::new();
                    shard.drain(sink, &mut |s, id, line| {
                        verdicts.push((s, id, line));
                        Ok(())
                    })?;
                    clock.worked(t0, engine_busy);
                    publish(verdicts, watermark(&shard, last_seq));
                }
                match rx.recv() {
                    Ok(events) => events,
                    Err(_) => break,
                }
            }
        };
        let t0 = Instant::now();
        let mut verdicts: Vec<(u64, u64, String)> = Vec::new();
        let mut finished = false;
        {
            let mut emit = |s: u64, id: u64, line: String| {
                verdicts.push((s, id, line));
                Ok(())
            };
            for ev in events {
                match ev {
                    Event::Frame { seq, ts, frame } => {
                        shard.frame(seq, ts, &frame);
                        shard.tick(seq, ts, sink, &mut emit)?;
                        last_seq = seq;
                    }
                    Event::Tick { seq, ts } => {
                        shard.tick(seq, ts, sink, &mut emit)?;
                        last_seq = seq;
                    }
                    Event::Reload { boundary, bundle } => shard.add_epoch(boundary, bundle),
                    Event::End { flush_seq } => {
                        shard.finish(flush_seq, sink, &mut emit)?;
                        finished = true;
                    }
                }
            }
        }
        clock.worked(t0, engine_busy);
        if finished {
            publish(verdicts, MergeMsg::Done);
            return Ok(shard.totals(clock.busy));
        }
        publish(verdicts, watermark(&shard, last_seq));
    }
    Err(io::Error::other("event channel closed before End"))
}

/// Merger state for one worker's stream.
struct WorkerStream {
    queue: VecDeque<(u64, u64, String)>,
    /// Lower bound on this worker's next verdict key.
    bound: (u64, u64),
    done: bool,
}

/// Write every verdict whose key is proven globally minimal. A queued
/// verdict from worker `j` is written once, for every other worker,
/// either its queue head is larger (keys are unique, so the strict
/// minimum is unambiguous) or its watermark/done state rules out
/// anything smaller.
fn drain_ready(streams: &mut [WorkerStream], out: &mut dyn Write) -> io::Result<u64> {
    let mut written = 0u64;
    loop {
        let mut best: Option<(usize, (u64, u64))> = None;
        for (j, st) in streams.iter().enumerate() {
            if let Some(&(s, id, _)) = st.queue.front() {
                if best.is_none_or(|(_, k)| (s, id) < k) {
                    best = Some((j, (s, id)));
                }
            }
        }
        let Some((j, key)) = best else { return Ok(written) };
        let safe = streams
            .iter()
            .enumerate()
            .all(|(k, st)| k == j || !st.queue.is_empty() || st.done || st.bound > key);
        if !safe {
            return Ok(written);
        }
        let (_, _, line) = streams[j].queue.pop_front().expect("front checked");
        out.write_all(line.as_bytes())?;
        written += 1;
    }
}

/// The merger thread body: consume worker messages until every worker
/// is done, writing verdicts in global `(evict_seq, flow_id)` order.
fn run_merger(
    n: usize,
    rx: Receiver<(usize, MergeMsg)>,
    out: &mut (dyn Write + Send),
) -> io::Result<()> {
    let mut streams: Vec<WorkerStream> = (0..n)
        .map(|_| WorkerStream { queue: VecDeque::new(), bound: (0, 0), done: false })
        .collect();
    let mut finished = 0usize;
    while finished < n {
        let (i, msg) =
            rx.recv().map_err(|_| io::Error::other("worker verdict channel closed early"))?;
        match msg {
            MergeMsg::Verdicts(v) => streams[i].queue.extend(v),
            MergeMsg::Watermark(s, id) => streams[i].bound = (s, id),
            MergeMsg::Done => {
                streams[i].done = true;
                finished += 1;
            }
        }
        drain_ready(&mut streams, out)?;
    }
    drain_ready(&mut streams, out)?;
    debug_assert!(streams.iter().all(|st| st.queue.is_empty()), "merge left verdicts queued");
    out.flush()
}

/// Broadcast applied reloads as events: every worker must see a
/// boundary in stream position.
fn broadcast_reloads<'a>(applied: Vec<(u64, EpochBundle<'a>)>, bufs: &mut [Vec<Event<'a>>]) {
    for (boundary, bundle) in applied {
        for buf in bufs.iter_mut() {
            buf.push(Event::Reload { boundary, bundle: bundle.clone() });
        }
    }
}

/// Sharded serve loop (`opts.workers >= 2`): dispatcher on the caller
/// thread, one shard worker thread per `opts.workers`, one merger
/// thread writing `out`. Verdict bytes are identical to the inline
/// single-worker loop at any worker count.
pub(crate) fn serve_sharded<I>(
    bundle: &ModelBundle,
    policy: &Policy,
    packets: I,
    opts: &ServeOptions,
    mut reload: ReloadSource<'_>,
    out: &mut (dyn Write + Send),
    sink: &ObsSink,
) -> io::Result<(ServeStats, Vec<ShardTotals>)>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<ReplayPacket>,
{
    let n = opts.workers;
    // Construct every shard up front so a bad configuration (e.g. the
    // idle timeout) is refused before any thread or packet.
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(EngineShard::new(EpochBundle::Borrowed(bundle), policy, opts)?);
    }
    let mut stats = ServeStats::default();
    // Busy nanoseconds of all workers, for the dispatcher's send rule.
    let engine_busy = AtomicU64::new(0);
    let t_run = Instant::now();

    let result: io::Result<Vec<ShardTotals>> = std::thread::scope(|scope| {
        let mut event_txs: Vec<Sender<Vec<Event<'_>>>> = Vec::with_capacity(n);
        let (merge_tx, merge_rx) = channel::<(usize, MergeMsg)>();
        let mut workers = Vec::with_capacity(n);
        for (idx, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = channel::<Vec<Event<'_>>>();
            event_txs.push(tx);
            let merge_tx = merge_tx.clone();
            let engine_busy = &engine_busy;
            workers.push(
                scope.spawn(move || run_worker(idx, shard, rx, &merge_tx, engine_busy, sink)),
            );
        }
        drop(merge_tx);
        let merger = scope.spawn(move || run_merger(n, merge_rx, out));

        let mut bufs: Vec<Vec<Event<'_>>> = (0..n).map(|_| Vec::new()).collect();
        let mut wait_secs = 0.0f64;
        let mut dispatch_secs = 0.0f64;
        // Two chained stamps per packet, as in the inline loop: once the
        // source has kept the dispatcher waiting longer than the whole
        // engine (dispatcher and workers) has worked, summed over the
        // run, the partial buffers go out after every packet rather than
        // at `EVENT_BATCH`, so no event sits behind a source that is
        // slower than the engine. The workers' work counts because they
        // pay for every send; a source that parses on this thread costs
        // about as much per packet as dispatching does.
        let mut t_prev = t_run;
        let mut seq = 0u64;
        for item in packets {
            let t0 = Instant::now();
            wait_secs += (t0 - t_prev).as_secs_f64();
            let workers_secs = engine_busy.load(Ordering::Relaxed) as f64 * 1e-9;
            let send_partial = wait_secs > dispatch_secs + workers_secs;
            let p: &ReplayPacket = std::borrow::Borrow::borrow(&item);
            broadcast_reloads(reload.poll(seq, policy, &mut stats, sink), &mut bufs);
            stats.packets += 1;
            // The dispatcher parses every frame once to place it; the
            // owner re-parses on push (parsing is deterministic, so
            // both agree on the key). Keyless frames still tick every
            // clock — the single-worker loop polls on them too.
            let owner = ParsedFrame::parse(&p.frame)
                .ok()
                .and_then(|pf| pf.flow_key())
                .map(|key| flow_shard(&key, n));
            if owner.is_none() {
                stats.non_ip += 1;
            }
            for (w, buf) in bufs.iter_mut().enumerate() {
                if owner == Some(w) {
                    buf.push(Event::Frame { seq, ts: p.ts, frame: p.frame.clone() });
                } else {
                    buf.push(Event::Tick { seq, ts: p.ts });
                }
            }
            // An owned packet is freed on the work side of the stamp.
            drop(item);
            for w in 0..n {
                if send_partial || bufs[w].len() >= EVENT_BATCH {
                    let _ = event_txs[w].send(std::mem::take(&mut bufs[w]));
                }
            }
            t_prev = Instant::now();
            dispatch_secs += (t_prev - t0).as_secs_f64();
            seq += 1;
        }
        // Boundaries landing exactly on the flush sequence still cover
        // the flushed flows (mirrors the inline loop).
        broadcast_reloads(reload.poll(seq, policy, &mut stats, sink), &mut bufs);
        for buf in bufs.iter_mut() {
            buf.push(Event::End { flush_seq: seq });
        }
        for w in 0..n {
            let _ = event_txs[w].send(std::mem::take(&mut bufs[w]));
        }
        drop(event_txs);
        sink.add_stage("serve:dispatch", dispatch_secs);

        let mut parts = Vec::with_capacity(n);
        for h in workers {
            parts.push(h.join().expect("shard worker panicked")?);
        }
        merger.join().expect("verdict merger panicked")?;
        Ok(parts)
    });

    let parts = result?;
    for part in &parts {
        stats.absorb(&part.stats);
    }
    sink.add_stage("serve:wall", t_run.elapsed().as_secs_f64());
    sink.debug(
        "serve",
        "sharded replay complete",
        &[
            ("workers", Value::U64(n as u64)),
            ("packets", Value::U64(stats.packets)),
            ("flows", Value::U64(stats.flows)),
            ("verdicts", Value::U64(stats.verdicts)),
            ("reloads", Value::U64(stats.reload_boundaries.len() as u64)),
        ],
    );
    Ok((stats, parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_shard_is_stable_and_in_range() {
        let key = FlowKey { lo_ip: 1, hi_ip: 2, lo_port: 80, hi_port: 443, protocol: 6 };
        let a = flow_shard(&key, 4);
        assert_eq!(a, flow_shard(&key, 4), "same key, same shard");
        assert!(a < 4);
        assert_eq!(flow_shard(&key, 1), 0);
        for n in 1..9 {
            assert!(flow_shard(&key, n) < n);
        }
    }

    #[test]
    fn merge_waits_for_watermarks_then_orders_globally() {
        let mut streams: Vec<WorkerStream> = (0..2)
            .map(|_| WorkerStream { queue: VecDeque::new(), bound: (0, 0), done: false })
            .collect();
        let mut out: Vec<u8> = Vec::new();
        streams[0].queue.push_back((5, 1, "a\n".to_string()));
        // Worker 1's bound is still (0,0): nothing can be written yet.
        assert_eq!(drain_ready(&mut streams, &mut out).unwrap(), 0);
        streams[1].bound = (4, 0);
        assert_eq!(drain_ready(&mut streams, &mut out).unwrap(), 0, "bound below head");
        streams[1].queue.push_back((3, 2, "b\n".to_string()));
        streams[1].queue.push_back((9, 4, "c\n".to_string()));
        // Now (3,2) < (5,1) < (9,4) and both heads are present.
        assert_eq!(drain_ready(&mut streams, &mut out).unwrap(), 2);
        assert_eq!(out, b"b\na\n");
        streams[0].done = true;
        assert_eq!(drain_ready(&mut streams, &mut out).unwrap(), 1);
        assert_eq!(out, b"b\na\nc\n");
    }
}
