//! The serving engine: feeds a replay stream through the flow table,
//! batches retired flows through the policy-selected frozen model, and
//! emits one JSONL verdict per classified flow.
//!
//! Determinism contract: the verdict byte stream is a pure function of
//! the input packet stream, the bundle sequence (initial bundle plus
//! reload boundaries), and the policy. Batch size and worker count
//! change throughput, never output — flows are classified
//! independently (encoder math is row-independent; shallow models are
//! per-packet), and emission order is `(evict_seq, flow_id)`: the
//! sequence number of the packet whose arrival retired the flow,
//! tie-broken by flow id. That is exactly the order the single-worker
//! loop produces naturally, and the order the sharded k-way merge
//! ([`crate::shard`]) reconstructs. All observability goes through the
//! out-of-band [`ObsSink`], never into the verdict stream.
//!
//! Epochs: a model hot-reload takes effect at a packet-sequence
//! boundary `B` — every flow retired at `evict_seq >= B` is classified
//! by the new bundle, everything earlier by the old one, regardless of
//! when the classification batch actually runs. A flow's epoch is the
//! number of boundaries at or below its `evict_seq`, recorded in its
//! verdict line, so a live reload replayed as a planned boundary list
//! reproduces the stream byte-for-byte.

use crate::bundle::{ModelBundle, SERVING_FEATURES};
use crate::flow::{FlowTable, Ingest, TrackedFlow};
use crate::policy::Policy;
use crate::reload::ReloadSource;
use crate::source::ReplayPacket;
use dataset::record::PacketRecord;
use debunk_core::engine::journal::escape_json;
use debunk_core::metrics::majority_with;
use debunk_core::obs::{EvictionReason, ObsSink, Value};
use encoders::EncodeScratch;
use nn::{MlpScratch, Tensor};
use shallow::{extract_features, KnnScratch, N_FEATURES};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Flows classified per model invocation. Affects throughput only;
    /// the verdict stream is identical at any value.
    pub batch: usize,
    /// Seconds of silence before a flow is retired as idle.
    pub idle_timeout: f64,
    /// Worker threads sharding ingest by flow-key hash. Affects
    /// throughput only; the verdict stream is identical at any value
    /// (1 runs inline with no threads).
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { batch: 16, idle_timeout: 15.0, workers: 1 }
    }
}

/// End-of-run totals. Each is a pure function of the packet stream,
/// the bundle sequence and the policy, so runs at any worker count or
/// batch size compare equal; what depends on scheduling (batches, the
/// per-shard split, busy time) stays in `ShardTotals`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames ingested.
    pub packets: u64,
    /// Frames with no flow key (non-IP / unparseable), dropped.
    pub non_ip: u64,
    /// Flows opened.
    pub flows: u64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Flows retired without a verdict (unmatched or routed to `drop`).
    pub dropped: u64,
    /// Flows retired by a TCP teardown (both FINs or RST).
    pub evicted_closed: u64,
    /// Flows retired after the idle timeout.
    pub evicted_idle: u64,
    /// Flows retired by the end-of-stream flush.
    pub flushed: u64,
    /// Packet sequence numbers where each applied hot-reload took
    /// effect, in order: the boundaries a planned replay needs to
    /// reproduce the verdict stream byte for byte.
    pub reload_boundaries: Vec<u64>,
    /// Reload candidates refused (corrupt or policy-incompatible);
    /// the previous bundle kept serving.
    pub reloads_refused: u64,
}

impl ServeStats {
    /// Add one shard's flow-side counts (flows, verdicts, drops,
    /// evictions); the dispatcher owns packets and reloads.
    pub(crate) fn absorb(&mut self, shard: &ServeStats) {
        self.flows += shard.flows;
        self.verdicts += shard.verdicts;
        self.dropped += shard.dropped;
        self.evicted_closed += shard.evicted_closed;
        self.evicted_idle += shard.evicted_idle;
        self.flushed += shard.flushed;
    }
}

/// One shard's end-of-run counts, including those that depend on
/// scheduling: how many classification batches it ran and how long it
/// was busy. Reported per shard in `metrics.json`, never compared.
pub(crate) struct ShardTotals {
    pub(crate) stats: ServeStats,
    pub(crate) batches: u64,
    pub(crate) busy_secs: f64,
}

/// Which model a policy target selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelTarget {
    Encoder,
    EncoderInt8,
    Forest,
    Gbdt,
    Knn,
    Drop,
}

impl ModelTarget {
    fn parse(name: &str) -> Option<ModelTarget> {
        match name {
            "encoder" => Some(ModelTarget::Encoder),
            "encoder_int8" => Some(ModelTarget::EncoderInt8),
            "forest" => Some(ModelTarget::Forest),
            "gbdt" => Some(ModelTarget::Gbdt),
            "knn" => Some(ModelTarget::Knn),
            "drop" => Some(ModelTarget::Drop),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ModelTarget::Encoder => "encoder",
            ModelTarget::EncoderInt8 => "encoder_int8",
            ModelTarget::Forest => "forest",
            ModelTarget::Gbdt => "gbdt",
            ModelTarget::Knn => "knn",
            ModelTarget::Drop => "drop",
        }
    }
}

/// Check every policy target against a bundle: unknown targets and
/// `encoder_int8` without the quantised artifact are refused. Used both
/// at startup (refuse before the first packet) and on every reload
/// candidate (refuse off the hot path, old bundle keeps serving).
pub fn validate_targets(bundle: &ModelBundle, policy: &Policy) -> Result<(), String> {
    for t in policy.targets() {
        match ModelTarget::parse(t) {
            None => {
                return Err(format!(
                    "unknown policy target '{t}' (encoder|encoder_int8|forest|gbdt|knn|drop)"
                ));
            }
            // The quantised encoder is opt-in at export time; a policy
            // asking for it against a bundle without one is refused,
            // never silently downgraded.
            Some(ModelTarget::EncoderInt8) if bundle.encoder_int8.is_none() => {
                return Err(
                    "policy routes to 'encoder_int8' but the bundle has no encoder_int8.frozen \
                     (re-export with --quant int8)"
                        .to_string(),
                );
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A bundle serving one epoch: the initial bundle is borrowed from the
/// caller; hot-reloaded bundles arrive owned (loaded by the watcher or
/// the planned-boundary list).
#[derive(Clone)]
pub enum EpochBundle<'a> {
    /// The caller's bundle (epoch 0 in the common case).
    Borrowed(&'a ModelBundle),
    /// A reloaded bundle, shared across shard workers.
    Owned(Arc<ModelBundle>),
}

impl<'a> EpochBundle<'a> {
    /// The bundle itself.
    pub fn get(&self) -> &ModelBundle {
        match self {
            EpochBundle::Borrowed(b) => b,
            EpochBundle::Owned(b) => b,
        }
    }
}

/// A flow as a shard tracks it: routed to its model when it opened,
/// `None` for flows the policy drops or does not match.
type Flow = TrackedFlow<ModelTarget>;

/// One flow awaiting classification: routed target plus the sequence
/// number of the packet whose arrival retired it (the first half of its
/// verdict-stream sort key, and what pins its bundle epoch).
pub(crate) struct PendingFlow {
    flow: Flow,
    target: ModelTarget,
    pub(crate) evict_seq: u64,
}

/// Format one verdict line. `class` is escaped — label tables come from
/// user-supplied `labels.txt`.
fn verdict_line(flow: &Flow, target: ModelTarget, label: u16, class: &str, epoch: usize) -> String {
    format!(
        "{{\"flow\":{},\"first_ts\":{:.6},\"last_ts\":{:.6},\"packets\":{},\"bytes\":{},\
         \"proto\":{},\"target\":\"{}\",\"label\":{},\"class\":\"{}\",\"epoch\":{}}}\n",
        flow.id,
        flow.first_ts,
        flow.last_ts,
        flow.packets,
        flow.bytes,
        flow.key.protocol,
        target.name(),
        label,
        escape_json(class),
        epoch,
    )
}

/// Reusable buffers threaded through every [`classify_batch`] call of
/// one serve loop: encoder token/pooled scratch, the encoding tensor,
/// MLP activations, the label vectors, and a flow's packet feature rows
/// with the shallow models' vote/score/neighbour scratch. After the
/// first few batches the encoder path performs no allocation per
/// verdict batch — the whole batch is one set of kernel dispatches
/// against these buffers — and the forest, gbdt and knn paths none per
/// flow.
#[derive(Default)]
struct VerdictScratch {
    enc: EncodeScratch,
    x: Tensor,
    mlp: MlpScratch,
    labels_f32: Vec<u16>,
    labels_int8: Vec<u16>,
    rows: Vec<[f32; N_FEATURES]>,
    packet_labels: Vec<u16>,
    votes: Vec<u32>,
    scores: Vec<f32>,
    knn: KnnScratch,
}

/// Classify a batch of pending flows (all from one epoch) and emit
/// their verdicts in batch order. Returns verdicts emitted.
fn classify_batch(
    bundle: &ModelBundle,
    epoch: usize,
    batch: &[PendingFlow],
    scratch: &mut VerdictScratch,
    sink: &ObsSink,
    emit: &mut dyn FnMut(u64, u64, String) -> io::Result<()>,
) -> io::Result<u64> {
    // Encoder-targeted flows run as one tensor batch; the math is
    // row-independent so grouping is a throughput choice, not a
    // semantic one. The f32 and int8 encoders batch separately — they
    // are different experiments, never mixed within one encoding.
    let encoder_idx: Vec<usize> =
        (0..batch.len()).filter(|&i| batch[i].target == ModelTarget::Encoder).collect();
    scratch.labels_f32.clear();
    if !encoder_idx.is_empty() {
        let flows: Vec<Vec<&PacketRecord>> =
            encoder_idx.iter().map(|&i| batch[i].flow.records.iter().collect()).collect();
        bundle.encoder.encode_flows_into(&flows, &mut scratch.enc, &mut scratch.x);
        bundle.head.predict_into(&scratch.x, &mut scratch.mlp, &mut scratch.labels_f32);
    }
    let int8_idx: Vec<usize> =
        (0..batch.len()).filter(|&i| batch[i].target == ModelTarget::EncoderInt8).collect();
    scratch.labels_int8.clear();
    if !int8_idx.is_empty() {
        let q = bundle.encoder_int8.as_ref().expect("encoder_int8 target validated up front");
        let flows: Vec<Vec<&PacketRecord>> =
            int8_idx.iter().map(|&i| batch[i].flow.records.iter().collect()).collect();
        q.encode_flows_into(&flows, &mut scratch.enc, &mut scratch.x);
        bundle.head.predict_into(&scratch.x, &mut scratch.mlp, &mut scratch.labels_int8);
    }
    let mut next_encoder = 0usize;
    let mut next_int8 = 0usize;
    let mut emitted = 0u64;
    for p in batch {
        let label = match p.target {
            ModelTarget::Drop => continue,
            ModelTarget::Encoder => {
                let l = scratch.labels_f32[next_encoder];
                next_encoder += 1;
                l
            }
            ModelTarget::EncoderInt8 => {
                let l = scratch.labels_int8[next_int8];
                next_int8 += 1;
                l
            }
            ModelTarget::Forest | ModelTarget::Gbdt | ModelTarget::Knn => {
                let s = &mut *scratch;
                s.rows.clear();
                s.rows.extend(p.flow.records.iter().map(|r| extract_features(r, SERVING_FEATURES)));
                match p.target {
                    ModelTarget::Forest => {
                        bundle.forest.predict_into(&s.rows, &mut s.votes, &mut s.packet_labels)
                    }
                    ModelTarget::Gbdt => {
                        bundle.gbdt.predict_into(&s.rows, &mut s.scores, &mut s.packet_labels)
                    }
                    _ => bundle.knn.predict_into(&s.rows, &mut s.knn, &mut s.packet_labels),
                }
                // the vote scratch doubles as the per-label counts
                majority_with(&s.packet_labels, &mut s.votes)
            }
        };
        let line = verdict_line(&p.flow, p.target, label, bundle.class_name(label), epoch);
        emit(p.evict_seq, p.flow.id, line)?;
        emitted += 1;
    }
    sink.debug(
        "serve",
        "batch classified",
        &[("flows", Value::U64(batch.len() as u64)), ("verdicts", Value::U64(emitted))],
    );
    Ok(emitted)
}

/// One shard's serve state: a private flow table, pending queue and
/// scratch, plus the epoch list (bundle per boundary). The inline
/// single-worker loop drives exactly one of these; the sharded path
/// ([`crate::shard`]) drives one per worker thread — both produce
/// verdicts keyed `(evict_seq, flow_id)` through the same code, which
/// is what makes worker count a pure throughput knob.
pub(crate) struct Shard<'a> {
    table: FlowTable<ModelTarget>,
    policy: &'a Policy,
    batch_size: usize,
    /// Flows the last poll retired; drained by `tick`.
    retired: Vec<(Flow, EvictionReason)>,
    pending: Vec<PendingFlow>,
    scratch: VerdictScratch,
    /// Bundle for each epoch; `bundles.len() == boundaries.len() + 1`.
    bundles: Vec<EpochBundle<'a>>,
    /// Sorted packet-sequence boundaries; crossing `boundaries[i]`
    /// enters epoch `i + 1`.
    boundaries: Vec<u64>,
    /// Flows, verdicts, drops and evictions (the dispatcher owns
    /// packets, non-IP frames and reloads).
    stats: ServeStats,
    /// Classification batches run.
    batches: u64,
}

impl<'a> Shard<'a> {
    pub(crate) fn new(
        bundle: EpochBundle<'a>,
        policy: &'a Policy,
        opts: &ServeOptions,
    ) -> io::Result<Shard<'a>> {
        let table = FlowTable::new_routed(opts.idle_timeout)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        Ok(Shard {
            table,
            policy,
            batch_size: opts.batch.max(1),
            retired: Vec::new(),
            pending: Vec::new(),
            scratch: VerdictScratch::default(),
            bundles: vec![bundle],
            boundaries: Vec::new(),
            stats: ServeStats::default(),
            batches: 0,
        })
    }

    /// This shard's counts, with `busy_secs` as measured by its driver.
    pub(crate) fn totals(self, busy_secs: f64) -> ShardTotals {
        ShardTotals { stats: self.stats, batches: self.batches, busy_secs }
    }

    /// Install a reloaded bundle taking effect at packet `boundary`.
    /// Boundaries must arrive in increasing order (the dispatcher emits
    /// them in stream order).
    pub(crate) fn add_epoch(&mut self, boundary: u64, bundle: EpochBundle<'a>) {
        debug_assert!(self.boundaries.last().is_none_or(|&b| b <= boundary));
        self.boundaries.push(boundary);
        self.bundles.push(bundle);
    }

    /// The epoch a flow retired at `evict_seq` belongs to.
    fn epoch_of(&self, evict_seq: u64) -> usize {
        self.boundaries.partition_point(|&b| b <= evict_seq)
    }

    /// Ingest one frame owned by this shard (global packet `seq`). The
    /// policy depends only on the flow key and is fixed for the run, so
    /// a flow is routed once, when it opens; a flow no model will read
    /// stores no packets.
    pub(crate) fn frame(&mut self, seq: u64, ts: f64, frame: &[u8]) -> Ingest {
        let policy = self.policy;
        let ingest = self.table.push_routed(seq, ts, frame, |key| {
            let target = policy.match_flow(key).and_then(|r| ModelTarget::parse(&r.target));
            target.filter(|&t| t != ModelTarget::Drop)
        });
        if ingest == (Ingest::Tracked { opened: true }) {
            self.stats.flows += 1;
        }
        ingest
    }

    /// Advance time to packet `seq` at `ts` (every shard sees every
    /// packet's clock tick, so eviction timing is shard-invariant),
    /// retiring due flows and classifying any full batches.
    pub(crate) fn tick(
        &mut self,
        seq: u64,
        ts: f64,
        sink: &ObsSink,
        emit: &mut dyn FnMut(u64, u64, String) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut retired = std::mem::take(&mut self.retired);
        self.table.poll_into(ts, &mut retired);
        for (flow, reason) in retired.drain(..) {
            self.retire(flow, reason, seq);
        }
        self.retired = retired;
        while self.pending.len() >= self.batch_size {
            let rest = self.pending.split_off(self.batch_size);
            let batch = std::mem::replace(&mut self.pending, rest);
            self.classify(&batch, sink, emit)?;
        }
        Ok(())
    }

    /// End-of-stream: retire everything still tracked (at the flush
    /// sequence, one past the last packet) and classify the remainder.
    pub(crate) fn finish(
        &mut self,
        flush_seq: u64,
        sink: &ObsSink,
        emit: &mut dyn FnMut(u64, u64, String) -> io::Result<()>,
    ) -> io::Result<()> {
        for (flow, reason) in self.table.flush() {
            self.retire(flow, reason, flush_seq);
        }
        let pending = std::mem::take(&mut self.pending);
        for batch in pending.chunks(self.batch_size) {
            self.classify(batch, sink, emit)?;
        }
        Ok(())
    }

    /// The smallest `(evict_seq, flow_id)` this shard can still emit:
    /// its first pending flow, or — with nothing pending — any flow
    /// retired by a future packet (`last_seq + 1`). The sharded
    /// merge's watermark.
    pub(crate) fn emit_bound(&self, last_seq: u64) -> (u64, u64) {
        match self.pending.first() {
            Some(p) => (p.evict_seq, p.flow.id),
            None => (last_seq + 1, 0),
        }
    }

    /// Count a retired flow and queue it for its model, if it has one.
    fn retire(&mut self, flow: Flow, reason: EvictionReason, evict_seq: u64) {
        match reason {
            EvictionReason::Closed => self.stats.evicted_closed += 1,
            EvictionReason::Idle => self.stats.evicted_idle += 1,
            EvictionReason::Flush => self.stats.flushed += 1,
        }
        match flow.route {
            Some(target) => self.pending.push(PendingFlow { flow, target, evict_seq }),
            None => self.stats.dropped += 1,
        }
    }

    /// Classify one batch, splitting it into consecutive same-epoch
    /// runs (epochs are monotone along the pending queue, so runs are
    /// contiguous) — each run goes to its own epoch's bundle.
    fn classify(
        &mut self,
        batch: &[PendingFlow],
        sink: &ObsSink,
        emit: &mut dyn FnMut(u64, u64, String) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut start = 0;
        while start < batch.len() {
            let epoch = self.epoch_of(batch[start].evict_seq);
            let mut end = start + 1;
            while end < batch.len() && self.epoch_of(batch[end].evict_seq) == epoch {
                end += 1;
            }
            self.stats.verdicts += classify_batch(
                self.bundles[epoch].get(),
                epoch,
                &batch[start..end],
                &mut self.scratch,
                sink,
                emit,
            )?;
            self.batches += 1;
            start = end;
        }
        Ok(())
    }
}

/// Run the full serve loop over a replay stream: validate the policy
/// against the initial bundle, then drive one inline shard
/// (`opts.workers <= 1`) or the flow-hash-sharded worker pool
/// (`shard::serve_sharded`), applying reloads from `reload` at
/// deterministic packet boundaries. When `sink` writes files, the run's
/// serving metrics land in its `metrics.json` at the end.
///
/// `packets` is any replay source: a borrowed `&[ReplayPacket]` (the
/// in-memory benches), or an owning iterator such as the shard-dir
/// stream — the engine holds only the flow table, never the replay, so
/// an out-of-core source serves in bounded memory.
pub fn serve<I>(
    bundle: &ModelBundle,
    policy: &Policy,
    packets: I,
    opts: &ServeOptions,
    reload: ReloadSource<'_>,
    out: &mut (dyn Write + Send),
    sink: &ObsSink,
) -> io::Result<ServeStats>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<ReplayPacket>,
{
    validate_targets(bundle, policy).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if let ReloadSource::Planned(boundaries) = &reload {
        for (_, b, _) in boundaries {
            validate_targets(b.get(), policy)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
    }
    let t_run = Instant::now();
    let (stats, shards) = if opts.workers > 1 {
        crate::shard::serve_sharded(bundle, policy, packets, opts, reload, out, sink)?
    } else {
        serve_inline(bundle, policy, packets, opts, reload, out, sink)?
    };
    let total_secs = t_run.elapsed().as_secs_f64();
    sink.write_metrics_with(|| crate::metrics::render(&stats, &shards, sink, total_secs))?;
    Ok(stats)
}

/// The single-worker loop: one [`Shard`] driven on the caller thread,
/// verdicts written straight to `out` (they fall out already in
/// `(evict_seq, flow_id)` order).
fn serve_inline<I>(
    bundle: &ModelBundle,
    policy: &Policy,
    packets: I,
    opts: &ServeOptions,
    reload: ReloadSource<'_>,
    out: &mut (dyn Write + Send),
    sink: &ObsSink,
) -> io::Result<(ServeStats, Vec<ShardTotals>)>
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<ReplayPacket>,
{
    let mut shard = Shard::new(EpochBundle::Borrowed(bundle), policy, opts)?;
    let mut reload = reload;
    let mut stats = ServeStats::default();
    let mut ingest_secs = 0.0f64;
    let mut classify_secs = 0.0f64;
    let t_run = Instant::now();

    // Two clock reads per packet, chained: `serve:ingest` runs from the
    // previous stamp through the source's `next()`, reload polling and
    // `frame()`; `serve:classify` covers `tick()`. The two add up to the
    // loop's wall time.
    let mut t_prev = t_run;
    let mut seq = 0u64;
    for p in packets {
        let p = std::borrow::Borrow::borrow(&p);
        // Reloads bind to the next unprocessed packet: candidates are
        // validated off the hot path (planned: before the stream; live:
        // by the watcher + target check here), and a refused candidate
        // never perturbs the stream.
        for (boundary, bundle) in reload.poll(seq, policy, &mut stats, sink) {
            shard.add_epoch(boundary, bundle);
        }
        stats.packets += 1;
        if shard.frame(seq, p.ts, &p.frame) == Ingest::NonIp {
            stats.non_ip += 1;
        }
        let t_frame = Instant::now();
        ingest_secs += (t_frame - t_prev).as_secs_f64();
        shard.tick(seq, p.ts, sink, &mut |_, _, line| out.write_all(line.as_bytes()))?;
        t_prev = Instant::now();
        classify_secs += (t_prev - t_frame).as_secs_f64();
        seq += 1;
    }
    // Boundaries landing exactly on the flush sequence (the packet
    // count) still cover the flushed flows; anything later never fires.
    for (boundary, bundle) in reload.poll(seq, policy, &mut stats, sink) {
        shard.add_epoch(boundary, bundle);
    }
    let t_flush = Instant::now();
    ingest_secs += (t_flush - t_prev).as_secs_f64();
    shard.finish(seq, sink, &mut |_, _, line| out.write_all(line.as_bytes()))?;
    classify_secs += t_flush.elapsed().as_secs_f64();
    out.flush()?;

    let totals = shard.totals(t_run.elapsed().as_secs_f64());
    stats.absorb(&totals.stats);
    sink.add_stage("serve:ingest", ingest_secs);
    sink.add_stage("serve:classify", classify_secs);
    sink.debug(
        "serve",
        "replay complete",
        &[
            ("packets", Value::U64(stats.packets)),
            ("flows", Value::U64(stats.flows)),
            ("verdicts", Value::U64(stats.verdicts)),
            ("dropped", Value::U64(stats.dropped)),
            ("reloads", Value::U64(stats.reload_boundaries.len() as u64)),
        ],
    );
    Ok((stats, vec![totals]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SynthSpec;
    use dataset::record::Prepared;
    use debunk_core::obs::LogFormat;

    fn tiny() -> (ModelBundle, Vec<ReplayPacket>) {
        let spec = SynthSpec::parse("iscx:4:1").unwrap();
        let bundle = ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42);
        (bundle, SynthSpec::parse("iscx:9:1").unwrap().replay())
    }

    fn run(
        bundle: &ModelBundle,
        packets: &[ReplayPacket],
        policy: &Policy,
        batch: usize,
    ) -> (Vec<u8>, ServeStats) {
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let opts = ServeOptions { batch, ..Default::default() };
        let stats =
            serve(bundle, policy, packets, &opts, ReloadSource::None, &mut out, &sink).unwrap();
        (out, stats)
    }

    #[test]
    fn verdicts_are_batch_size_invariant() {
        let (bundle, packets) = tiny();
        let policy = Policy::route_all("forest");
        let (a, sa) = run(&bundle, &packets, &policy, 1);
        let (b, sb) = run(&bundle, &packets, &policy, 7);
        let (c, sc) = run(&bundle, &packets, &policy, 4096);
        assert!(!a.is_empty());
        assert_eq!(a, b, "batch 1 vs 7");
        assert_eq!(a, c, "batch 1 vs 4096");
        assert_eq!(sa, sb);
        assert_eq!(sa, sc);
    }

    #[test]
    fn encoder_verdicts_are_batch_size_invariant() {
        let (bundle, packets) = tiny();
        let policy = Policy::route_all("encoder");
        let (a, sa) = run(&bundle, &packets, &policy, 1);
        let (b, sb) = run(&bundle, &packets, &policy, 32);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.verdicts, sa.flows, "route_all classifies every flow");
    }

    #[test]
    fn int8_encoder_serves_and_is_batch_size_invariant() {
        let (mut bundle, packets) = tiny();
        bundle.quantize_encoder();
        let policy = Policy::route_all("encoder_int8");
        let (a, sa) = run(&bundle, &packets, &policy, 1);
        let (b, sb) = run(&bundle, &packets, &policy, 32);
        assert!(!a.is_empty());
        assert_eq!(a, b, "int8 verdicts are batch-size invariant");
        assert_eq!(sa, sb);
        assert_eq!(sa.verdicts, sa.flows);
        for line in String::from_utf8(a).unwrap().lines() {
            assert!(line.contains("\"target\":\"encoder_int8\""), "line: {line}");
        }
    }

    #[test]
    fn int8_target_without_artifact_is_refused_up_front() {
        let (bundle, packets) = tiny();
        assert!(bundle.encoder_int8.is_none());
        let policy = Policy::route_all("encoder_int8");
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let err = serve(
            &bundle,
            &policy,
            &packets,
            &ServeOptions::default(),
            ReloadSource::None,
            &mut out,
            &sink,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("--quant int8"), "{err}");
        assert!(out.is_empty(), "refused before any verdict");
    }

    #[test]
    fn bad_idle_timeout_is_refused_at_startup() {
        let (bundle, packets) = tiny();
        let policy = Policy::route_all("forest");
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let opts = ServeOptions { idle_timeout: 0.0, ..Default::default() };
        let err = serve(&bundle, &policy, &packets, &opts, ReloadSource::None, &mut out, &sink)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("idle timeout"), "{err}");
        assert!(out.is_empty());
    }

    #[test]
    fn replay_is_reproducible() {
        let (bundle, packets) = tiny();
        let policy = Policy::route_all("gbdt");
        let (a, _) = run(&bundle, &packets, &policy, 16);
        let (b, _) = run(&bundle, &packets, &policy, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn drop_target_and_unmatched_flows_emit_nothing() {
        let (bundle, packets) = tiny();
        let (out, stats) = run(&bundle, &packets, &Policy::route_all("drop"), 16);
        assert!(out.is_empty());
        assert_eq!(stats.verdicts, 0);
        assert_eq!(stats.dropped, stats.flows);
        let empty = Policy::parse("").unwrap();
        let (out2, stats2) = run(&bundle, &packets, &empty, 16);
        assert!(out2.is_empty());
        assert_eq!(stats2.dropped, stats2.flows);
    }

    #[test]
    fn unknown_target_is_refused_up_front() {
        let (bundle, packets) = tiny();
        let policy = Policy::parse("* -> xgboost").unwrap();
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let err = serve(
            &bundle,
            &policy,
            &packets,
            &ServeOptions::default(),
            ReloadSource::None,
            &mut out,
            &sink,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "refused before any verdict");
    }

    #[test]
    fn verdict_lines_are_well_formed_jsonl() {
        let (bundle, packets) = tiny();
        let policy = Policy::parse("*:tcp -> knn\n*:udp -> forest\ndefault -> encoder").unwrap();
        let (out, stats) = run(&bundle, &packets, &policy, 16);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, stats.verdicts);
        for line in lines {
            assert!(line.starts_with("{\"flow\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
            assert!(line.contains("\"target\":\""), "line: {line}");
            assert!(line.contains("\"class\":\""), "line: {line}");
            assert!(line.contains("\"epoch\":"), "line: {line}");
        }
    }

    #[test]
    fn planned_reload_splits_epochs_without_dropping_flows() {
        let (bundle, packets) = tiny();
        let b2 = ModelBundle::train(
            &Prepared::from_trace(&SynthSpec::parse("iscx:5:1").unwrap().trace()),
            43,
        );
        let policy = Policy::route_all("forest");
        let boundary = (packets.len() / 2) as u64;
        let sink = ObsSink::stderr(LogFormat::Text);
        let mut out = Vec::new();
        let stats = serve(
            &bundle,
            &policy,
            &packets,
            &ServeOptions::default(),
            ReloadSource::planned(vec![(boundary, EpochBundle::Borrowed(&b2), "b2".to_string())]),
            &mut out,
            &sink,
        )
        .unwrap();
        assert_eq!(stats.reload_boundaries, [boundary]);
        assert_eq!(stats.verdicts, stats.flows, "no flow dropped across the boundary");
        let text = String::from_utf8(out).unwrap();
        let epochs: Vec<usize> = text
            .lines()
            .map(|l| {
                let tail = l.split("\"epoch\":").nth(1).unwrap();
                tail.trim_end_matches('}').parse().unwrap()
            })
            .collect();
        assert!(epochs.contains(&0), "some flows classified pre-boundary");
        assert!(epochs.contains(&1), "some flows classified post-boundary");
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "epochs monotone in verdict order");
    }

    #[test]
    fn planned_reload_is_batch_size_invariant() {
        let (bundle, packets) = tiny();
        let b2 = ModelBundle::train(
            &Prepared::from_trace(&SynthSpec::parse("iscx:5:1").unwrap().trace()),
            43,
        );
        let policy = Policy::route_all("gbdt");
        let boundary = (packets.len() / 3) as u64;
        let sink = ObsSink::stderr(LogFormat::Text);
        let run_with = |batch: usize| {
            let mut out = Vec::new();
            serve(
                &bundle,
                &policy,
                &packets,
                &ServeOptions { batch, ..Default::default() },
                ReloadSource::planned(vec![(
                    boundary,
                    EpochBundle::Borrowed(&b2),
                    "b2".to_string(),
                )]),
                &mut out,
                &sink,
            )
            .unwrap();
            out
        };
        let a = run_with(1);
        let b = run_with(64);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
