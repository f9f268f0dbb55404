//! `serve()`'s out-of-band `metrics.json` reconciles with the
//! [`ServeStats`] it returns: the flow counts partition the opened
//! flows, the batch block counts every verdict in at least
//! `ceil(verdicts / batch)` batches with no more partial batches than
//! batches, and the per-shard totals sum to the run's — at every worker
//! count.

use dataset::record::Prepared;
use debunk_core::engine::journal::{parse_json, Json};
use debunk_core::obs::{LogFormat, ObsSink, METRICS_FILE};
use serving::engine::{serve, EpochBundle, ServeOptions, ServeStats};
use serving::policy::Policy;
use serving::reload::ReloadSource;
use serving::source::SynthSpec;
use serving::ModelBundle;

/// The batch cap of every run here.
const BATCH: usize = 8;

fn num(j: &Json, path: &[&str]) -> u64 {
    let mut at = j;
    for key in path {
        at = at.get(key).unwrap_or_else(|| panic!("metrics lack {path:?}"));
    }
    match at {
        Json::Num(n) => *n as u64,
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

/// Serve the replay with a tracing sink under a fresh directory and
/// return the stats plus the parsed `metrics.json`.
fn serve_with_metrics(
    bundles: (&ModelBundle, &ModelBundle),
    policy: &Policy,
    workers: usize,
    boundary: u64,
) -> (ServeStats, String) {
    let dir = std::env::temp_dir().join(format!("debunk-serving-metrics-{workers}"));
    std::fs::remove_dir_all(&dir).ok();
    let sink = ObsSink::with_dir(&dir, LogFormat::Text).expect("sink opens");
    let packets = SynthSpec::parse("ustc:11:2").unwrap().replay();
    let reload =
        ReloadSource::planned(vec![(boundary, EpochBundle::Borrowed(bundles.1), "b".to_string())]);
    let opts = ServeOptions { batch: BATCH, idle_timeout: 15.0, workers };
    let mut out = Vec::new();
    let stats = serve(bundles.0, policy, &packets, &opts, reload, &mut out, &sink).unwrap();
    assert_eq!(String::from_utf8(out).unwrap().lines().count() as u64, stats.verdicts);
    let text = std::fs::read_to_string(dir.join(METRICS_FILE)).expect("metrics written");
    std::fs::remove_dir_all(&dir).ok();
    (stats, text)
}

#[test]
fn metrics_json_reconciles_with_serve_stats_at_every_worker_count() {
    let spec = SynthSpec::parse("ustc:7:1").unwrap();
    let a = ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42);
    let b = ModelBundle::train(&Prepared::from_trace(&spec.trace()), 43);
    // Some flows are dropped, so verdicts and flows differ.
    let policy = Policy::parse("*:udp -> drop\n*:tcp:443 -> knn\ndefault -> forest\n").unwrap();
    let boundary = 700;
    let mut first: Option<ServeStats> = None;
    for workers in [1, 2, 4] {
        let (stats, text) = serve_with_metrics((&a, &b), &policy, workers, boundary);
        assert!(text.contains("\"schema\": \"debunk-serving-metrics-v2\""), "{text}");
        let j = parse_json(&text).expect("metrics parse");

        let opened = num(&j, &["flows", "opened"]);
        let closed = num(&j, &["flows", "evicted_closed"]);
        let idle = num(&j, &["flows", "evicted_idle"]);
        let flushed = num(&j, &["flows", "flushed"]);
        assert_eq!(opened, closed + idle + flushed, "workers={workers}: {text}");
        assert_eq!(
            (opened, closed, idle, flushed),
            (stats.flows, stats.evicted_closed, stats.evicted_idle, stats.flushed)
        );
        assert_eq!(num(&j, &["batches", "verdicts"]), stats.verdicts);
        let (count, partial) = (num(&j, &["batches", "count"]), num(&j, &["batches", "partial"]));
        assert!(partial <= count, "workers={workers}: {text}");
        assert!(count >= stats.verdicts.div_ceil(BATCH as u64), "workers={workers}: {text}");
        assert!(stats.dropped > 0 && stats.verdicts > 0, "{stats:?}");
        assert_eq!(stats.verdicts + stats.dropped, stats.flows);
        assert_eq!(num(&j, &["packets", "seen"]), stats.packets);
        assert_eq!(num(&j, &["packets", "non_ip"]), stats.non_ip);
        assert_eq!(num(&j, &["reloads", "applied"]), stats.reload_boundaries.len() as u64);
        assert_eq!(stats.reload_boundaries, [boundary]);
        assert!(text.contains(&format!("\"boundaries\": [{boundary}]")), "{text}");

        let Some(Json::Obj(shards)) = j.get("shards") else { panic!("no shards block: {text}") };
        assert_eq!(shards.len(), workers, "one entry per shard");
        let flows: u64 = shards.iter().map(|(_, sh)| num(sh, &["flows"])).sum();
        let verdicts: u64 = shards.iter().map(|(_, sh)| num(sh, &["verdicts"])).sum();
        let shard_partial: u64 = shards.iter().map(|(_, sh)| num(sh, &["partial"])).sum();
        assert_eq!(
            (flows, verdicts, shard_partial),
            (opened, stats.verdicts, partial),
            "per-shard sums, workers={workers}"
        );

        for block in ["events", "simd", "stages"] {
            assert!(j.get(block).is_some(), "metrics lack the {block} block");
        }
        match &first {
            None => first = Some(stats),
            Some(s) => assert_eq!(s, &stats, "stats at workers={workers}"),
        }
    }
}
