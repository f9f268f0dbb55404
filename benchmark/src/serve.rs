//! The three serving workloads: `serve-forest` and `serve-flood` drive
//! `serving::serve` closed loop (the next packet goes in as soon as the
//! engine asks for it); `serve-mixed` adds open-loop legs at fixed
//! offered rates, where the generator — the iterator handed to
//! `serve()` — releases packet *i* no earlier than `t0 + i/rate`,
//! busy-waiting on the engine's own thread.
//!
//! Closed loop, latency is per packet: how long the engine holds each
//! packet before asking for the next. Open loop, it is per verdict: the
//! time the verdict line was written minus the time the packet that
//! retired the flow was due. Which packet retired which flow comes from
//! [`walk`], a benchmark-side replay of the engine's loop through the
//! public `FlowTable`/`Policy` API; with a bundle it also classifies,
//! timing every layer call, which is the traced run.

use crate::heap;
use crate::report::Report;
use crate::stats::FNV_OFFSET;
use crate::stats::{fnv64, median, percentile, supported_tail, sustained_rate, timed, LegOutcome};
use dataset::record::PacketRecord;
use debunk_core::obs::{EvictionReason, LogFormat, ObsSink};
use encoders::EncodeScratch;
use net_packet::builder::FrameBuilder;
use net_packet::ipv4::Ipv4Addr;
use net_packet::tcp::TcpFlags;
use net_packet::ParsedFrame;
use nn::{MlpScratch, Tensor};
use serving::bundle::SERVING_FEATURES;
use serving::{serve, FlowTable, ModelBundle, Policy, ReloadSource, ReplayPacket, ServeOptions};
use serving::{ServeStats, SynthSpec};
use shallow::{extract_features, N_FEATURES};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use traffic_synth::DatasetKind;

/// Offered rates of the open-loop ladder, thousands of packets/s.
pub const LADDER_KPPS: [u32; 5] = [50, 100, 200, 400, 800];
/// The ladder rate whose legs give the end-to-end verdict latency.
const LATENCY_KPPS: u32 = 100;
/// Latency limit on verdict p99 and generator lateness (ms).
const LIMIT_MS: f64 = 10.0;
/// `ModelBundle::load` + `Policy::parse` repetitions for `setup_s`.
const SETUP_REPS: usize = 5;
/// Minimum closed-loop passes (or `serve-mixed` sweeps) per run,
/// whatever the time budget.
const MIN_REPS: usize = 3;
/// Per `serve-mixed` sweep: closed-loop passes, and legs at the latency
/// rate (the ladder's one included), so each run's medians of
/// `pass_s` and verdict latency rest on nine samples, not three.
const MIXED_PASSES: usize = 3;
const MIXED_LATENCY_LEGS: usize = 3;

const MIXED_POLICY: &str = "*:tcp:443 -> encoder\n*:udp -> knn\ndefault -> forest\n";
const FOREST_POLICY: &str = "default -> forest\n";
const FLOOD_POLICY: &str = "10.200.0.0/16 -> drop\ndefault -> forest\n";

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, `default -> forest`.
    Forest,
    /// Open-loop rate ladder plus closed-loop passes, mixed policy.
    Mixed,
    /// Closed loop, base replay plus a unique-tuple SYN flood.
    Flood,
}

// ---------------------------------------------------------------------
// inputs

/// The `k`-th flood source as (10.200.0.0/16 address, port). A seeded
/// affine map is a bijection on `[0, 2^24)`, so tuples never repeat
/// within a run and move with the seed.
pub fn flood_source(seed: u64, k: u32) -> (Ipv4Addr, u16) {
    let a = ((seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as u32 | 1) & 0xff_ffff;
    let b = (seed.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 40) as u32 & 0xff_ffff;
    let v = a.wrapping_mul(k).wrapping_add(b) & 0xff_ffff;
    let host = v >> 8;
    (Ipv4Addr::new(10, 200, (host >> 8) as u8, host as u8), 1024 + (v & 0xff) as u16)
}

/// `base` plus `count` SYNs from unique flood sources, spread evenly
/// over `span` seconds of capture time from the base trace's midpoint
/// and merged in timestamp order (base packets first on ties).
pub fn with_flood(base: Vec<ReplayPacket>, seed: u64, count: u32, span: f64) -> Vec<ReplayPacket> {
    let mid = match (base.first(), base.last()) {
        (Some(f), Some(l)) => (f.ts + l.ts) / 2.0,
        _ => 0.0,
    };
    let server = Ipv4Addr::new(198, 51, 100, 7);
    let mut flood = (0..count).map(|k| {
        let (src, port) = flood_source(seed, k);
        let frame = FrameBuilder::tcp_ipv4_default()
            .src(src, port)
            .dst(server, 443)
            .flags(TcpFlags::SYN)
            .seq_ack(k.wrapping_mul(0x9e37_79b9), 0)
            .build();
        ReplayPacket { ts: mid + span * f64::from(k) / f64::from(count.max(1)), frame }
    });
    let mut out = Vec::with_capacity(base.len() + count as usize);
    let mut next_flood = flood.next();
    for p in base {
        while let Some(f) = next_flood.take_if(|f| f.ts < p.ts) {
            out.push(f);
            next_flood = flood.next();
        }
        out.push(p);
    }
    out.extend(next_flood);
    out.extend(flood);
    out
}

struct Fixture {
    replay: Vec<ReplayPacket>,
    policy: &'static str,
    /// Flood SYNs in the replay (every one must be dropped).
    flood: u64,
}

/// The first `n` packets of the synthetic USTC-TFC capture at `seed`,
/// generated with enough flows to have them. A fixed packet count keeps
/// a run's work the same at every seed (whole captures vary by ±25%);
/// flows the cut leaves open are retired by the end-of-stream flush.
fn ustc_prefix(seed: u64, n: usize) -> Vec<ReplayPacket> {
    let mut flows_per_class = n / 700 + 1;
    loop {
        let mut replay = SynthSpec { kind: DatasetKind::UstcTfc, seed, flows_per_class }.replay();
        if replay.len() >= n {
            replay.truncate(n);
            return replay;
        }
        flows_per_class *= 2;
    }
}

fn fixture(workload: Workload, seed: u64, quick: bool) -> Fixture {
    let scale = |full: usize| if quick { full / 20 } else { full };
    match workload {
        Workload::Forest => {
            Fixture { replay: ustc_prefix(seed, scale(200_000)), policy: FOREST_POLICY, flood: 0 }
        }
        Workload::Mixed => {
            Fixture { replay: ustc_prefix(seed, scale(100_000)), policy: MIXED_POLICY, flood: 0 }
        }
        Workload::Flood => {
            let (count, span) = if quick { (20_000, 3.0) } else { (1_000_000, 150.0) };
            Fixture {
                replay: with_flood(ustc_prefix(seed, scale(100_000)), seed, count, span),
                policy: FLOOD_POLICY,
                flood: u64::from(count),
            }
        }
    }
}

/// The bundle every serving workload loads: the `serve export`
/// training recipe on a fixed spec, so the model is the same at every
/// seed and only the replayed traffic moves.
fn export_bundle(dir: &Path) -> io::Result<()> {
    let trace = SynthSpec::parse("ustc:7:2").expect("static spec").trace();
    ModelBundle::train(&dataset::record::Prepared::from_trace(&trace), 42).save(dir)
}

// ---------------------------------------------------------------------
// the walk: pre-pass and traced run

/// Seconds and counts per layer, accumulated by [`walk`].
#[derive(Debug, Default)]
pub struct Spans {
    parse: f64,
    push: f64,
    poll: f64,
    policy: f64,
    featurize: f64,
    forest: f64,
    knn: f64,
    encode: f64,
    head: f64,
    live_max: usize,
    idle: u64,
    closed: u64,
    flush: u64,
    batches: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Encoder,
    Forest,
    Knn,
}

impl Target {
    /// The policy target name, as verdict lines carry it.
    fn name(self) -> &'static str {
        match self {
            Target::Encoder => "encoder",
            Target::Forest => "forest",
            Target::Knn => "knn",
        }
    }
}

/// What a walk over a replay learned.
#[derive(Debug, Default)]
pub struct Walk {
    /// Classified flows in verdict order, as `(evict_seq, flow id)`.
    pub routed: Vec<(u64, u64)>,
    /// Re-derived `(flow, target, label)` per verdict (classifying
    /// walks only).
    pub triples: Vec<(u64, &'static str, u16)>,
    /// Flows opened.
    pub flows: u64,
    /// Flows retired without a verdict (routed to `drop` or unmatched).
    pub dropped: u64,
    /// Layer times and counts.
    pub spans: Spans,
    /// Wall time of the whole walk (s).
    pub wall: f64,
}

/// Majority label with ties to the smallest label — the engine's
/// documented vote.
fn majority(labels: &[u16]) -> u16 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &l in labels {
        match counts.iter_mut().find(|(c, _)| *c == l) {
            Some((_, n)) => *n += 1,
            None => counts.push((l, 1)),
        }
    }
    counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))).map_or(0, |(l, _)| l)
}

struct Classifier<'a> {
    bundle: &'a ModelBundle,
    enc: EncodeScratch,
    x: Tensor,
    mlp: MlpScratch,
    labels: Vec<u16>,
}

impl Classifier<'_> {
    /// One verdict batch, as the engine runs it: encoder flows as one
    /// tensor batch, then per flow in batch order a label from the
    /// encoder head or a per-packet shallow vote.
    fn batch(&mut self, batch: &[(serving::TrackedFlow, Target)], s: &mut Spans, walk: &mut Walk) {
        s.batches += 1;
        let flows: Vec<Vec<&PacketRecord>> = batch
            .iter()
            .filter(|(_, t)| *t == Target::Encoder)
            .map(|(f, _)| f.records.iter().collect())
            .collect();
        self.labels.clear();
        if !flows.is_empty() {
            timed(&mut s.encode, || {
                self.bundle.encoder.encode_flows_into(&flows, &mut self.enc, &mut self.x)
            });
            timed(&mut s.head, || {
                self.bundle.head.predict_into(&self.x, &mut self.mlp, &mut self.labels)
            });
        }
        let mut next_encoder = 0;
        for (flow, target) in batch {
            let label = match target {
                Target::Encoder => {
                    next_encoder += 1;
                    self.labels[next_encoder - 1]
                }
                Target::Forest | Target::Knn => {
                    let rows: Vec<[f32; N_FEATURES]> = timed(&mut s.featurize, || {
                        flow.records.iter().map(|r| extract_features(r, SERVING_FEATURES)).collect()
                    });
                    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                    let per_packet = if *target == Target::Forest {
                        timed(&mut s.forest, || self.bundle.forest.predict(&refs))
                    } else {
                        timed(&mut s.knn, || self.bundle.knn.predict(&refs))
                    };
                    majority(&per_packet)
                }
            };
            walk.triples.push((flow.id, target.name(), label));
        }
    }
}

/// Replay `replay` through the engine's loop rebuilt from public calls,
/// in the engine's order and with its batch size and idle timeout:
/// per packet parse, `FlowTable::push`, `FlowTable::poll`, policy
/// routing of retired flows, and a verdict batch whenever 16 are
/// pending; at end of stream `FlowTable::flush` and the remainder in
/// batches. With `bundle` every batch is classified (the traced run);
/// without, only retirement is recorded (the latency pre-pass). Every
/// layer call is timed either way.
pub fn walk(replay: &[ReplayPacket], policy: &Policy, bundle: Option<&ModelBundle>) -> Walk {
    let opts = ServeOptions::default();
    let mut table = FlowTable::new(opts.idle_timeout).expect("default idle timeout is valid");
    let mut classifier = bundle.map(|bundle| Classifier {
        bundle,
        enc: EncodeScratch::default(),
        x: Tensor::default(),
        mlp: MlpScratch::default(),
        labels: Vec::new(),
    });
    let mut w = Walk::default();
    let mut s = Spans::default();
    let mut pending: Vec<(serving::TrackedFlow, Target)> = Vec::new();
    let t_walk = Instant::now();

    let retire = |flow: serving::TrackedFlow,
                  reason: EvictionReason,
                  evict_seq: u64,
                  s: &mut Spans,
                  w: &mut Walk,
                  pending: &mut Vec<(serving::TrackedFlow, Target)>| {
        match reason {
            EvictionReason::Idle => s.idle += 1,
            EvictionReason::Closed => s.closed += 1,
            EvictionReason::Flush => s.flush += 1,
        }
        let target = timed(&mut s.policy, || {
            policy.match_flow(&flow.key).map(|r| match r.target.as_str() {
                "encoder" => Some(Target::Encoder),
                "forest" => Some(Target::Forest),
                "knn" => Some(Target::Knn),
                "drop" => None,
                other => panic!("benchmark policy routes to unsupported target '{other}'"),
            })
        });
        match target.flatten() {
            Some(t) => {
                w.routed.push((evict_seq, flow.id));
                pending.push((flow, t));
            }
            // Freeing a flow retired without a verdict is flow-table
            // work: on serve-flood it is a million flows per pass.
            None => {
                w.dropped += 1;
                timed(&mut s.poll, || drop(flow));
            }
        }
    };

    for (seq, p) in replay.iter().enumerate() {
        let seq = seq as u64;
        timed(&mut s.parse, || black_box(ParsedFrame::parse(black_box(&p.frame)).is_ok()));
        let ingest = timed(&mut s.push, || table.push(seq, p.ts, &p.frame));
        if ingest == (serving::flow::Ingest::Tracked { opened: true }) {
            w.flows += 1;
        }
        s.live_max = s.live_max.max(table.len());
        for (flow, reason) in timed(&mut s.poll, || table.poll(p.ts)) {
            retire(flow, reason, seq, &mut s, &mut w, &mut pending);
        }
        while pending.len() >= opts.batch {
            let rest = pending.split_off(opts.batch);
            let batch = std::mem::replace(&mut pending, rest);
            if let Some(c) = classifier.as_mut() {
                c.batch(&batch, &mut s, &mut w);
            }
        }
    }
    let flush_seq = replay.len() as u64;
    for (flow, reason) in timed(&mut s.poll, || table.flush()) {
        retire(flow, reason, flush_seq, &mut s, &mut w, &mut pending);
    }
    for batch in pending.chunks(opts.batch) {
        if let Some(c) = classifier.as_mut() {
            c.batch(batch, &mut s, &mut w);
        }
    }
    w.wall = t_walk.elapsed().as_secs_f64();
    w.spans = s;
    w
}

// ---------------------------------------------------------------------
// end-to-end passes

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The replay handed to `serve()`. Closed loop (`rate: None`): each
/// packet goes as soon as the engine asks, and `times_ms` gets how long
/// the engine spent on each packet before asking for the next. Open
/// loop: packet *i* is held until `t0 + i/rate` by a busy-wait on the
/// engine's thread, and `times_ms` gets how late past that it left.
struct Source<'a> {
    replay: &'a [ReplayPacket],
    rate: Option<f64>,
    next: usize,
    t0: Option<Instant>,
    last: Option<Instant>,
    times_ms: Vec<f64>,
}

impl<'a> Source<'a> {
    fn new(replay: &'a [ReplayPacket], rate: Option<f64>) -> Source<'a> {
        Source {
            replay,
            rate,
            next: 0,
            t0: None,
            last: None,
            times_ms: Vec::with_capacity(replay.len()),
        }
    }

    /// When packet `seq` was due (open loop).
    fn due(&self, seq: u64, rate: f64) -> Option<Instant> {
        Some(self.t0? + Duration::from_secs_f64(seq as f64 / rate))
    }
}

impl<'a> Iterator for Source<'a> {
    type Item = &'a ReplayPacket;

    fn next(&mut self) -> Option<&'a ReplayPacket> {
        let i = self.next;
        let mut now = Instant::now();
        self.t0.get_or_insert(now);
        match self.rate {
            None => {
                if let Some(prev) = self.last.replace(now) {
                    self.times_ms.push(ms(now - prev));
                }
            }
            Some(rate) if i < self.replay.len() => {
                let due = self.due(i as u64, rate).expect("t0 set above");
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                self.times_ms.push(ms(now - due));
            }
            Some(_) => {}
        }
        let p = self.replay.get(i)?;
        self.next += 1;
        Some(p)
    }
}

/// Verdict sink: keeps the bytes and stamps the time of every write
/// (the engine writes each verdict line with one `write_all`).
struct Capture {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stamps.push(Instant::now());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `serve()` call, measured.
struct Pass {
    wall: f64,
    stats: Result<ServeStats, String>,
    digest: u64,
    lines: Vec<String>,
    /// `(p50, p99)` of the source's per-packet times (ms): service
    /// times closed loop, generator lateness open loop.
    times_p50_p99: (f64, f64),
    /// The last packet's time (open loop: lateness at leg end).
    last_time_ms: f64,
    /// Open loop: verdict latencies, ascending (ms).
    verdict_ms: Vec<f64>,
    /// Verdicts missing or naming a different flow than the walk.
    mismatched: u64,
}

fn run_pass(
    bundle: &ModelBundle,
    policy: &Policy,
    replay: &[ReplayPacket],
    walk: &Walk,
    rate: Option<f64>,
    sink: &ObsSink,
) -> Pass {
    let mut source = Source::new(replay, rate);
    let mut out = Capture {
        bytes: Vec::with_capacity(walk.routed.len() * 192),
        stamps: Vec::with_capacity(walk.routed.len()),
    };
    let opts = ServeOptions::default();
    let t = Instant::now();
    let stats = serve(bundle, policy, &mut source, &opts, ReloadSource::None, &mut out, sink);
    let wall = t.elapsed().as_secs_f64();

    let text = String::from_utf8_lossy(&out.bytes);
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let flush_seq = replay.len() as u64;
    let mut verdict_ms = Vec::new();
    let mut mismatched = walk.routed.len().abs_diff(lines.len()) as u64;
    for (i, line) in lines.iter().enumerate() {
        let Some(&(evict_seq, flow)) = walk.routed.get(i) else { break };
        if verdict_flow(line) != Some(flow) || out.stamps.len() != lines.len() {
            mismatched += 1;
            continue;
        }
        // The end-of-stream flush is not live traffic: its verdicts
        // leave in one burst after the last packet.
        if let (Some(rate), true) = (rate, evict_seq < flush_seq) {
            let due = source.due(evict_seq, rate).expect("replay started");
            verdict_ms.push(ms(out.stamps[i].saturating_duration_since(due)));
        }
    }
    verdict_ms.sort_by(f64::total_cmp);
    Pass {
        wall,
        stats: stats.map_err(|e| e.to_string()),
        digest: fnv64(FNV_OFFSET, &out.bytes),
        lines,
        times_p50_p99: p50_p99(&source.times_ms),
        last_time_ms: source.times_ms.last().copied().unwrap_or(0.0),
        verdict_ms,
        mismatched,
    }
}

/// The `"flow"` id at the head of a verdict line.
fn verdict_flow(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"flow\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// `(flow, target, label)` of a verdict line.
fn verdict_triple(line: &str) -> Option<(u64, &str, u16)> {
    let field = |key: &str| {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '"', '}'])?])
    };
    Some((verdict_flow(line)?, field("\"target\":\"")?, field("\"label\":")?.parse().ok()?))
}

/// `(p50, p99)` of unsorted samples.
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 50.0), percentile(&sorted, 99.0))
}

/// Measurements of one open-loop leg.
struct Leg {
    kpps: u32,
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
    end_late_ms: f64,
    verdicts: usize,
}

// ---------------------------------------------------------------------
// the workload

/// Run one serving workload into `report`. `e2e` / `traced` select the
/// phases; `report.meta.seconds` bounds the timed phase, which makes at
/// least [`MIN_REPS`] rounds: one closed-loop pass, or on `serve-mixed`
/// a sweep of passes and open-loop legs.
pub fn run(
    workload: Workload,
    report: &mut Report,
    work: &Path,
    e2e: bool,
    traced: bool,
) -> io::Result<()> {
    let (seed, quick, seconds) = (report.meta.seed, report.meta.quick, report.meta.seconds);
    let before = heap::live();
    let fx = fixture(workload, seed, quick);
    // What the benchmark's own in-memory replay holds; a deployed
    // engine streams its capture instead.
    let replay_bytes = heap::live().saturating_sub(before);
    let bundle_dir = work.join("models");
    export_bundle(&bundle_dir)?;
    eprintln!("fixture: {} packets, bundle exported", fx.replay.len());

    // Set-up: what `serve run` pays before its first packet.
    let setup_reps = if e2e && !quick { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..setup_reps {
        drop(loaded.take());
        let t = Instant::now();
        let bundle = ModelBundle::load(&bundle_dir).map_err(io::Error::other)?;
        let policy = Policy::parse(fx.policy).map_err(io::Error::other)?;
        setup_s.push(t.elapsed().as_secs_f64());
        loaded = Some((bundle, policy));
    }
    let (bundle, policy) = loaded.expect("at least one set-up");

    let walked = walk(&fx.replay, &policy, traced.then_some(&bundle));
    let expected = walked.routed.len() as u64;
    eprintln!(
        "walk: {} flows, {} verdicts expected, {} dropped ({:.2}s{})",
        walked.flows,
        expected,
        walked.dropped,
        walked.wall,
        if traced { ", traced" } else { "" }
    );

    // Timed phase. The engine reports to a stderr sink whose events all
    // sit below the printed level, so nothing but the engine runs.
    let sink = ObsSink::stderr(LogFormat::Text);
    let mut passes: Vec<Pass> = Vec::new();
    let mut legs: Vec<Leg> = Vec::new();
    let mut reference: Option<u64> = None;
    let (mut failed, mut attempted, mut stream_ok, mut stats_ok) = (0u64, 0u64, true, true);
    let mut check = |p: &Pass, failed: &mut u64, attempted: &mut u64| {
        *attempted += expected;
        match &p.stats {
            Ok(st) => {
                stats_ok &= st.verdicts == st.flows - st.dropped
                    && st.flows == walked.flows
                    && st.dropped == walked.dropped;
                if *reference.get_or_insert(p.digest) != p.digest || p.mismatched > 0 {
                    stream_ok = false;
                    *failed += p.mismatched.max(1);
                }
            }
            Err(e) => {
                eprintln!("serve() failed: {e}");
                stats_ok = false;
                *failed += expected;
            }
        }
    };
    let budget = if quick { seconds.min(1.0) } else { seconds };
    let min_reps = if quick { 1 } else { MIN_REPS };
    heap::reset_peak();
    let t_phase = Instant::now();
    let mixed = workload == Workload::Mixed;
    let mut rounds = 0;
    while rounds < min_reps || t_phase.elapsed().as_secs_f64() < budget {
        rounds += 1;
        for _ in 0..if mixed { MIXED_PASSES } else { 1 } {
            let mut pass = run_pass(&bundle, &policy, &fx.replay, &walked, None, &sink);
            check(&pass, &mut failed, &mut attempted);
            // The first pass's lines are the reference for the traced
            // check; later passes are held to it by digest.
            if !passes.is_empty() {
                pass.lines = Vec::new();
            }
            passes.push(pass);
        }
        if !mixed {
            continue;
        }
        let extra = std::iter::repeat_n(LATENCY_KPPS, MIXED_LATENCY_LEGS - 1);
        for kpps in LADDER_KPPS.into_iter().chain(extra) {
            let rate = Some(f64::from(kpps) * 1e3);
            let leg = run_pass(&bundle, &policy, &fx.replay, &walked, rate, &sink);
            check(&leg, &mut failed, &mut attempted);
            let (p50_ms, p99_ms) = percentiles_or_miss(&leg);
            legs.push(Leg {
                kpps,
                p50_ms,
                p99_ms,
                late_p99_ms: leg.times_p50_p99.1,
                end_late_ms: leg.last_time_ms,
                verdicts: leg.verdict_ms.len(),
            });
        }
    }
    let phase_s = t_phase.elapsed().as_secs_f64();
    let peak_mb = heap::mib(heap::peak().saturating_sub(replay_bytes));

    // Checks.
    report.check(
        "verdict stream identical on every pass and leg, flow for flow as in the walk",
        stream_ok,
        format!(
            "{} passes, {} legs, digest {:016x}",
            passes.len(),
            legs.len(),
            reference.unwrap_or(0)
        ),
    );
    let st = passes[0].stats.clone().unwrap_or_default();
    report.check(
        "verdicts == flows - dropped, flows and dropped as in the walk",
        stats_ok,
        format!(
            "serve: {} flows, {} verdicts, {} dropped; walk: {} flows, {} dropped",
            st.flows, st.verdicts, st.dropped, walked.flows, walked.dropped
        ),
    );
    if fx.flood > 0 {
        report.check(
            "every flood SYN opened its own flow and was dropped, no base flow was",
            walked.dropped == fx.flood,
            format!("{} dropped of {} flood SYNs", walked.dropped, fx.flood),
        );
    }
    if traced {
        let served: Vec<Option<(u64, &str, u16)>> =
            passes[0].lines.iter().map(|l| verdict_triple(l)).collect();
        let differ = walked.triples.iter().zip(&served).filter(|(t, s)| s.as_ref() != Some(*t));
        let mismatched = differ.count() + walked.triples.len().abs_diff(served.len());
        failed += mismatched as u64;
        report.check(
            "traced (flow, target, label) re-derived from public predict calls equals serve()",
            mismatched == 0,
            format!(
                "{} traced, {} served, {mismatched} differ",
                walked.triples.len(),
                served.len()
            ),
        );
    }
    report.attempted = attempted;
    report.failed = failed;

    // Facts.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let pass_s = median(&walls);
    report.info("packets", fx.replay.len() as f64);
    report.info("replay_mb", heap::mib(replay_bytes));
    report.info("flows", walked.flows as f64);
    report.info("verdicts_per_pass", expected as f64);
    report.info("flood_syns", fx.flood as f64);
    report.info("pps", fx.replay.len() as f64 / pass_s);
    report.info("passes", passes.len() as f64);
    report.info("legs", legs.len() as f64);
    report.info("timed_phase_s", phase_s);

    // End-to-end metrics.
    if e2e {
        report.e2e.insert("setup_s".into(), setup_s);
        report.e2e.insert("pass_s".into(), walls);
        let (per_value, (p50, p99)): (usize, (Vec<f64>, Vec<f64>)) = match workload {
            // Open loop: verdict latency at the latency rate, per leg.
            Workload::Mixed => {
                let at = legs.iter().filter(|l| l.kpps == LATENCY_KPPS);
                (legs.first().map_or(0, |l| l.verdicts), at.map(|l| (l.p50_ms, l.p99_ms)).unzip())
            }
            // Closed loop: per-packet service time, per pass.
            _ => (fx.replay.len(), passes.iter().map(|p| p.times_p50_p99).unzip()),
        };
        report.e2e.insert("p50_ms".into(), p50);
        report.e2e.insert("p99_ms".into(), p99);
        report.e2e.insert("peak_heap_mb".into(), vec![peak_mb]);
        report.info("latency_samples_per_value", per_value as f64);
        // The highest percentile those samples support; `p99_ms` is a
        // true p99 only when this is at least 99.
        report.info("latency_tail_pct", supported_tail(per_value).unwrap_or(0.0));
    }

    // Per-layer metrics of the traced walk.
    if traced {
        let s = &walked.spans;
        let named = s.parse
            + s.push
            + s.poll
            + s.policy
            + s.featurize
            + s.forest
            + s.knn
            + s.encode
            + s.head;
        let l = &mut report.layers;
        for (name, v) in [
            ("parse.s", s.parse),
            ("flow.push.s", s.push - s.parse),
            ("flow.poll.s", s.poll),
            ("flow.live_max", s.live_max as f64),
            ("flow.evicted.idle", s.idle as f64),
            ("flow.evicted.closed", s.closed as f64),
            ("flow.evicted.flush", s.flush as f64),
            ("policy.s", s.policy),
            ("featurize.s", s.featurize),
            ("model.forest.s", s.forest),
            ("encode.s", s.encode),
            ("head.s", s.head),
            ("model.knn.s", s.knn),
            ("classify.batches", s.batches as f64),
            ("verdicts", walked.triples.len() as f64),
            ("engine.other.s", walked.wall - named),
            ("trace.coverage", named / walked.wall),
            ("trace.overhead", walked.wall / pass_s - 1.0),
        ] {
            l.insert(name.into(), v);
        }
        if workload == Workload::Mixed {
            let at = |kpps: u32| legs.iter().filter(move |g| g.kpps == kpps);
            let late: Vec<f64> = at(LATENCY_KPPS).map(|g| g.late_p99_ms).collect();
            l.insert("loadgen.late_p99_ms".into(), median(&late));
            for kpps in LADDER_KPPS {
                let p99: Vec<f64> = at(kpps).map(|g| g.p99_ms).collect();
                l.insert(format!("ladder.{kpps}k.p99_ms"), median(&p99));
            }
            let outcomes: Vec<LegOutcome> = legs
                .iter()
                .map(|g| LegOutcome {
                    rate: f64::from(g.kpps) * 1e3,
                    p99_ms: g.p99_ms,
                    end_late_ms: g.end_late_ms,
                })
                .collect();
            l.insert("sustained_pps".into(), sustained_rate(&outcomes, LIMIT_MS).unwrap_or(0.0));
        }
    }
    Ok(())
}

/// A leg's verdict-latency `(p50, p99)`; a missing or wrong verdict
/// misses the limit, so the leg reads as infinitely late.
fn percentiles_or_miss(leg: &Pass) -> (f64, f64) {
    if leg.mismatched > 0 || leg.stats.is_err() {
        return (f64::INFINITY, f64::INFINITY);
    }
    (percentile(&leg.verdict_ms, 50.0), percentile(&leg.verdict_ms, 99.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn walk_reproduces_serve_verdict_order() {
        let trace = SynthSpec::parse("iscx:4:1").unwrap().trace();
        let bundle = ModelBundle::train(&dataset::record::Prepared::from_trace(&trace), 42);
        let replay = SynthSpec::parse("iscx:9:1").unwrap().replay();
        let sink = ObsSink::stderr(LogFormat::Text);
        for text in [MIXED_POLICY, FOREST_POLICY, "*:udp -> drop\ndefault -> knn\n"] {
            let policy = Policy::parse(text).unwrap();
            let pre = walk(&replay, &policy, None);
            let traced = walk(&replay, &policy, Some(&bundle));
            assert_eq!(pre.routed, traced.routed, "classifying does not change retirement");
            let mut out = Vec::new();
            let opts = ServeOptions::default();
            let stats =
                serve(&bundle, &policy, &replay, &opts, ReloadSource::None, &mut out, &sink)
                    .unwrap();
            let text_out = String::from_utf8(out).unwrap();
            let served: Vec<(u64, &str, u16)> =
                text_out.lines().map(|l| verdict_triple(l).unwrap()).collect();
            assert!(!served.is_empty());
            assert_eq!(stats.verdicts, pre.routed.len() as u64);
            assert_eq!((stats.flows, stats.dropped), (pre.flows, pre.dropped));
            // serve() emits in (evict_seq, flow id) order; the walk's
            // routed list is that order, flow for flow.
            let flows: Vec<u64> = served.iter().map(|t| t.0).collect();
            assert_eq!(flows, pre.routed.iter().map(|r| r.1).collect::<Vec<_>>());
            assert!(pre.routed.windows(2).all(|w| w[0] < w[1]), "sorted by (evict_seq, flow)");
            assert_eq!(served, traced.triples, "traced labels equal served labels");
        }
    }

    #[test]
    fn flood_tuples_are_unique_and_move_with_the_seed() {
        let n = 200_000u32;
        let tuples = |seed| (0..n).map(|k| flood_source(seed, k)).collect::<Vec<_>>();
        let a = tuples(11);
        let set: HashSet<_> = a.iter().map(|(ip, port)| (ip.0, *port)).collect();
        assert_eq!(set.len(), n as usize, "no repeated (address, port)");
        assert!(a.iter().all(|(ip, port)| ip.0[..2] == [10, 200] && *port >= 1024));
        let b = tuples(23);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 100, "seed 23 repeats seed 11's tuple order at {same} positions");
    }

    #[test]
    fn flood_merges_in_time_order_and_every_syn_opens_a_flow() {
        let base = SynthSpec::parse("ustc:3:1").unwrap().replay();
        let n_base = base.len();
        let merged = with_flood(base, 5, 2_000, 2.0);
        assert_eq!(merged.len(), n_base + 2_000);
        assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
        let policy = Policy::parse(FLOOD_POLICY).unwrap();
        let w = walk(&merged, &policy, None);
        assert_eq!(w.dropped, 2_000, "flood flows dropped, base flows kept");
    }

    #[test]
    fn verdict_lines_parse() {
        let line = "{\"flow\":28,\"first_ts\":0.282513,\"last_ts\":1.518730,\"packets\":11,\
                    \"bytes\":3222,\"proto\":6,\"target\":\"encoder\",\"label\":3,\
                    \"class\":\"gmail\",\"epoch\":0}";
        assert_eq!(verdict_flow(line), Some(28));
        assert_eq!(verdict_triple(line), Some((28, "encoder", 3)));
        assert_eq!(verdict_flow("{\"flows\":1}"), None);
    }

    #[test]
    fn majority_breaks_ties_to_smallest_label() {
        assert_eq!(majority(&[3, 1, 3, 1]), 1);
        assert_eq!(majority(&[2, 2, 5]), 2);
        assert_eq!(majority(&[]), 0);
    }
}
