//! End-to-end determinism contract: an identical replay through an
//! identical bundle and policy produces a byte-identical verdict
//! stream — at any batch size, at any worker count, across process
//! reruns (synth replay is seeded), across a mid-replay hot-reload,
//! whether the bundle is the freshly trained object or its frozen
//! save→load round trip, and whether the source keeps up with the
//! engine or makes it wait (then the batch size caps a model call but
//! holds no verdict back).

use dataset::record::Prepared;
use debunk_core::engine::journal::{parse_json, Json};
use debunk_core::obs::{LogFormat, ObsSink, METRICS_FILE};
use serving::engine::{serve as serve_engine, EpochBundle, ServeOptions, ServeStats};
use serving::policy::Policy;
use serving::reload::{LiveMsg, ReloadSource};
use serving::source::{ReplayPacket, SynthSpec};
use serving::ModelBundle;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One bundle shared across every test in this file — training is the
/// expensive part and the tests only ever read it.
fn bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let spec = SynthSpec::parse("ustc:7:1").unwrap();
        ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42)
    })
}

/// A second bundle (different seed) so reload tests actually swap
/// model weights, not just bump the epoch counter. Arc-wrapped because
/// the live-reload channel hands the engine owned bundles.
fn bundle_b() -> &'static Arc<ModelBundle> {
    static BUNDLE: OnceLock<Arc<ModelBundle>> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let spec = SynthSpec::parse("ustc:7:1").unwrap();
        Arc::new(ModelBundle::train(&Prepared::from_trace(&spec.trace()), 43))
    })
}

/// Same training data as [`bundle`] but with the int8 encoder artifact
/// attached — the refusal test routes to `encoder_int8`.
fn bundle_int8() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let spec = SynthSpec::parse("ustc:7:1").unwrap();
        let mut b = ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42);
        b.quantize_encoder();
        b
    })
}

fn serve_full(
    bundle: &ModelBundle,
    policy: &Policy,
    batch: usize,
    workers: usize,
    reload: ReloadSource<'_>,
) -> (Vec<u8>, ServeStats) {
    let packets = SynthSpec::parse("ustc:11:2").unwrap().replay();
    let sink = ObsSink::stderr(LogFormat::Text);
    let mut out = Vec::new();
    let opts = ServeOptions { batch, idle_timeout: 15.0, workers };
    let stats = serve_engine(bundle, policy, &packets, &opts, reload, &mut out, &sink).unwrap();
    (out, stats)
}

fn serve(bundle: &ModelBundle, policy: &Policy, batch: usize) -> (Vec<u8>, ServeStats) {
    serve_full(bundle, policy, batch, 1, ReloadSource::None)
}

/// A planned single-reload source swapping to `bundle_b` at `boundary`.
fn reload_at(boundary: u64) -> ReloadSource<'static> {
    ReloadSource::planned(vec![(
        boundary,
        EpochBundle::Borrowed(bundle_b().as_ref()),
        String::from("test-epoch-1"),
    )])
}

/// The eviction counts partition the opened flows, and none is zero on
/// the test replay, so comparing them across runs compares something.
fn assert_evictions_cover_flows(stats: &ServeStats) {
    assert_eq!(stats.evicted_closed + stats.evicted_idle + stats.flushed, stats.flows, "{stats:?}");
    assert!(stats.evicted_closed > 0 && stats.evicted_idle > 0 && stats.flushed > 0, "{stats:?}");
}

#[test]
fn verdict_stream_is_invariant_across_batch_sizes() {
    let policy = Policy::parse("*:tcp:443 -> encoder\n*:udp -> knn\ndefault -> gbdt\n").unwrap();
    let (baseline, stats) = serve(bundle(), &policy, 1);
    assert!(stats.verdicts > 0, "replay must classify something");
    assert_evictions_cover_flows(&stats);
    for batch in [2, 7, 16, 64, 4096] {
        let (bytes, s) = serve(bundle(), &policy, batch);
        assert_eq!(baseline, bytes, "batch {batch} diverged from batch 1");
        assert_eq!(stats, s, "stats at batch {batch}");
    }
}

#[test]
fn rerun_of_the_same_replay_is_byte_identical() {
    let policy = Policy::route_all("forest");
    let (a, sa) = serve(bundle(), &policy, 16);
    let (b, sb) = serve(bundle(), &policy, 16);
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}

#[test]
fn frozen_round_trip_serves_identically_to_the_trained_bundle() {
    let dir = std::env::temp_dir().join("debunk-serving-determinism");
    std::fs::remove_dir_all(&dir).ok();
    bundle().save(&dir).expect("save bundle");
    let loaded = ModelBundle::load(&dir).expect("load bundle");
    let policy = Policy::parse("*:tcp -> encoder\n*:udp -> forest\ndefault -> knn\n").unwrap();
    let (fresh, sa) = serve(bundle(), &policy, 16);
    let (frozen, sb) = serve(&loaded, &policy, 16);
    assert_eq!(fresh, frozen, "save->load must not change a single verdict byte");
    assert_eq!(sa, sb);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_verdict_stream_is_byte_identical_to_single_worker() {
    let policy = Policy::parse("*:tcp:443 -> encoder\n*:udp -> knn\ndefault -> gbdt\n").unwrap();
    let (baseline, stats) = serve(bundle(), &policy, 16);
    assert!(stats.verdicts > 0, "replay must classify something");
    assert_evictions_cover_flows(&stats);
    for workers in [2, 4] {
        for batch in [1, 16, 4096] {
            let (bytes, s) = serve_full(bundle(), &policy, batch, workers, ReloadSource::None);
            assert_eq!(
                baseline, bytes,
                "workers={workers} batch={batch} diverged from the single-worker stream"
            );
            assert_eq!(stats, s, "stats at workers={workers} batch={batch}");
        }
    }
}

#[test]
fn planned_reload_is_worker_count_invariant() {
    let policy = Policy::parse("*:udp -> knn\ndefault -> forest\n").unwrap();
    let n_packets = SynthSpec::parse("ustc:11:2").unwrap().replay().len() as u64;
    let boundary = n_packets / 2;
    let (baseline, stats) = serve_full(bundle(), &policy, 16, 1, reload_at(boundary));
    assert_eq!(stats.reload_boundaries, [boundary], "the planned reload must fire");
    assert_evictions_cover_flows(&stats);
    let text = String::from_utf8(baseline.clone()).unwrap();
    assert!(text.contains("\"epoch\":0"), "some flows must retire under the old bundle");
    assert!(text.contains("\"epoch\":1"), "some flows must retire under the new bundle");
    for workers in [1, 2, 4] {
        for batch in [1, 16, 4096] {
            let (bytes, s) = serve_full(bundle(), &policy, batch, workers, reload_at(boundary));
            assert_eq!(
                baseline, bytes,
                "workers={workers} batch={batch} diverged across the reload"
            );
            assert_eq!(stats, s, "stats at workers={workers} batch={batch}");
        }
    }
}

#[test]
fn live_reload_at_stream_start_matches_planned_boundary_zero() {
    // A live candidate picked up before packet 0 binds to boundary 0 —
    // byte-identical to the planned run at that boundary, which is the
    // exact replayability story `reloads.boundaries` metrics promise.
    let policy = Policy::route_all("forest");
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(LiveMsg::Bundle(Arc::clone(bundle_b()), String::from("live-0"))).unwrap();
    let (live, live_stats) = serve_full(bundle(), &policy, 16, 1, ReloadSource::Live(rx));
    let (planned, planned_stats) = serve_full(bundle(), &policy, 16, 1, reload_at(0));
    assert_eq!(live_stats.reload_boundaries, [0]);
    assert_eq!(live, planned, "live pickup at seq 0 must replay as planned boundary 0");
    assert_eq!(live_stats, planned_stats);
}

#[test]
fn incompatible_live_candidate_is_refused_and_stream_is_unchanged() {
    // Policy routes to the int8 encoder; the candidate bundle has no
    // int8 artifact, so validation must refuse it mid-stream and the
    // verdict bytes must match a run that never saw a candidate.
    let policy = Policy::route_all("encoder_int8");
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(LiveMsg::Bundle(Arc::clone(bundle_b()), String::from("no-int8"))).unwrap();
    let (with_refusal, stats) = serve_full(bundle_int8(), &policy, 16, 1, ReloadSource::Live(rx));
    let (clean, clean_stats) = serve_full(bundle_int8(), &policy, 16, 1, ReloadSource::None);
    assert!(stats.reload_boundaries.is_empty(), "incompatible candidate must not apply");
    assert_eq!(stats.reloads_refused, 1, "refusal must be counted");
    assert_eq!(with_refusal, clean, "a refused candidate must not change a single byte");
    assert_eq!(stats.verdicts, clean_stats.verdicts);
}

#[test]
fn every_model_target_serves_deterministically() {
    for target in ["encoder", "forest", "gbdt", "knn"] {
        let policy = Policy::route_all(target);
        let (a, sa) = serve(bundle(), &policy, 3);
        let (b, sb) = serve(bundle(), &policy, 17);
        assert!(!a.is_empty(), "{target} produced no verdicts");
        assert_eq!(a, b, "{target} diverged across batch sizes");
        assert_eq!(sa, sb);
        assert_eq!(sa.verdicts, sa.flows, "{target} must classify every flow");
    }
}

/// A replay slower than the engine, as live traffic is: it sleeps
/// `pause` before every `every`-th packet (before each packet at
/// `every = 1`; bursts of `every` back-to-back packets otherwise) and
/// counts the packets handed out so far in `pulled`.
struct Paced<'a> {
    packets: std::iter::Enumerate<std::slice::Iter<'a, ReplayPacket>>,
    every: usize,
    pause: Duration,
    pulled: Arc<AtomicU64>,
}

impl<'a> Iterator for Paced<'a> {
    type Item = &'a ReplayPacket;

    fn next(&mut self) -> Option<&'a ReplayPacket> {
        let (i, p) = self.packets.next()?;
        if i % self.every == 0 {
            std::thread::sleep(self.pause);
        }
        self.pulled.fetch_add(1, Ordering::SeqCst);
        Some(p)
    }
}

/// Verdict sink recording, for every line, how many packets the source
/// had handed out when the line was written (the engine writes each
/// verdict line with one `write_all`).
struct PullStamped {
    bytes: Vec<u8>,
    pulled_at: Vec<u64>,
    pulled: Arc<AtomicU64>,
}

impl Write for PullStamped {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pulled_at.push(self.pulled.load(Ordering::SeqCst));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serve `packets` paced as [`Paced`]; returns the verdict bytes, the
/// packets pulled at each verdict's write, and the stats.
fn serve_paced(
    packets: &[ReplayPacket],
    policy: &Policy,
    opts: ServeOptions,
    every: usize,
    pause: Duration,
) -> (Vec<u8>, Vec<u64>, ServeStats) {
    let pulled = Arc::new(AtomicU64::new(0));
    let source =
        Paced { packets: packets.iter().enumerate(), every, pause, pulled: Arc::clone(&pulled) };
    let mut out = PullStamped { bytes: Vec::new(), pulled_at: Vec::new(), pulled };
    let sink = ObsSink::stderr(LogFormat::Text);
    let stats =
        serve_engine(bundle(), policy, source, &opts, ReloadSource::None, &mut out, &sink).unwrap();
    (out.bytes, out.pulled_at, stats)
}

#[test]
fn a_paced_source_gets_every_verdict_before_its_next_packet() {
    let policy = Policy::parse("*:udp -> knn\ndefault -> forest\n").unwrap();
    let mut packets = SynthSpec::parse("ustc:11:2").unwrap().replay();
    packets.truncate(300);
    let n = packets.len() as u64;
    let opts = |batch, workers| ServeOptions { batch, idle_timeout: 15.0, workers };
    // Closed loop at batch 1, every verdict is written while its
    // retiring packet is the last one pulled: the reference timing.
    let (reference, reference_at, stats) =
        serve_paced(&packets, &policy, opts(1, 1), 1, Duration::ZERO);
    let live = reference_at.iter().filter(|&&at| at + 64 < n).count();
    assert!(live > 0, "some flows must retire well before the end-of-stream flush");
    assert_eq!(reference_at.len() as u64, stats.verdicts);
    // A pause before every packet, and bursts of ten packets after a
    // longer pause: in both the source keeps the engine waiting far
    // longer than the engine works, also for a flow retired mid-burst.
    for (every, pause) in [(1, Duration::from_millis(1)), (10, Duration::from_millis(10))] {
        for workers in [1, 2] {
            for batch in [1, 16, 4096] {
                let what = format!("every={every} workers={workers} batch={batch}");
                let (bytes, pulled_at, s) =
                    serve_paced(&packets, &policy, opts(batch, workers), every, pause);
                assert_eq!(reference, bytes, "paced {what}");
                assert_eq!(stats, s, "paced stats at {what}");
                if workers == 1 {
                    assert_eq!(
                        reference_at, pulled_at,
                        "paced {what}: a verdict waited past its retiring packet"
                    );
                } else {
                    // Worker and merger threads sit between the source
                    // and the write; 64 pulls give them at least 60 ms
                    // of pauses, room for a loaded two-core host, and
                    // still fail a verdict held for its batch to fill
                    // (at batch 4096, until the end-of-stream flush).
                    for (i, (&at, &due)) in pulled_at.iter().zip(&reference_at).enumerate() {
                        assert!(
                            at <= due + 64,
                            "paced {what}: verdict {i} written at pull {at}, \
                             its flow retired at pull {due}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_closed_loop_replay_still_fills_its_batches() {
    let policy = Policy::parse("*:tcp:443 -> encoder\n*:udp -> knn\ndefault -> gbdt\n").unwrap();
    let dir = std::env::temp_dir().join(format!("debunk-serving-fill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sink = ObsSink::with_dir(&dir, LogFormat::Text).expect("sink opens");
    let packets = SynthSpec::parse("ustc:11:2").unwrap().replay();
    let opts = ServeOptions { batch: 16, idle_timeout: 15.0, workers: 1 };
    let mut out = Vec::new();
    let stats =
        serve_engine(bundle(), &policy, &packets, &opts, ReloadSource::None, &mut out, &sink)
            .unwrap();
    let text = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics written");
    std::fs::remove_dir_all(&dir).ok();
    let j = parse_json(&text).expect("metrics parse");
    let Some(Json::Num(count)) = j.get("batches").and_then(|b| b.get("count")) else {
        panic!("no batches.count: {text}")
    };
    // The engine drains early only once its source has kept it waiting
    // longer than it has worked, summed over the run, which a slice
    // never does; the slack of two batches absorbs a stray preemption
    // inside `next()` near the start of the run.
    let full = stats.verdicts.div_ceil(16);
    assert!(full > 1, "{stats:?}");
    assert!(*count as u64 <= full + 2, "{count} batches for {full} full: {text}");
}
