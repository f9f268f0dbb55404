//! `serve run`'s out-of-band `metrics.json` (schema
//! `debunk-serving-metrics-v2`), rendered once at the end of a run.
//!
//! The serving counters live in the serve loop itself: the dispatcher
//! and each shard count into their own [`ServeStats`], and each shard
//! also keeps its batch count, how many of those batches ran below the
//! cap because the shard would otherwise have waited (`partial`), and
//! its busy time ([`ShardTotals`]). This module only formats those
//! totals, then lets the sink append the blocks every metrics file
//! carries (`events`, `simd`, `stages`).
//! Nothing here reaches the verdict stream.

use crate::engine::{ServeStats, ShardTotals};
use debunk_core::engine::journal::format_f64;
use debunk_core::obs::ObsSink;

/// The serving metrics document for one run: `stats` are the run's
/// totals, `shards` one entry per shard in worker order.
pub(crate) fn render(
    stats: &ServeStats,
    shards: &[ShardTotals],
    sink: &ObsSink,
    total_secs: f64,
) -> String {
    let batches: u64 = shards.iter().map(|sh| sh.batches).sum();
    let partial: u64 = shards.iter().map(|sh| sh.partial).sum();
    let boundaries: Vec<String> = stats.reload_boundaries.iter().map(u64::to_string).collect();
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"debunk-serving-metrics-v2\",\n");
    s.push_str(&format!("  \"total_secs\": {},\n", format_f64(total_secs)));
    s.push_str(&format!(
        "  \"packets\": {{\"seen\": {}, \"non_ip\": {}}},\n",
        stats.packets, stats.non_ip
    ));
    s.push_str(&format!(
        "  \"flows\": {{\"opened\": {}, \"evicted_closed\": {}, \"evicted_idle\": {}, \
         \"flushed\": {}}},\n",
        stats.flows, stats.evicted_closed, stats.evicted_idle, stats.flushed
    ));
    s.push_str(&format!(
        "  \"batches\": {{\"count\": {batches}, \"partial\": {partial}, \"verdicts\": {}}},\n",
        stats.verdicts
    ));
    s.push_str(&format!(
        "  \"reloads\": {{\"applied\": {}, \"refused\": {}, \"boundaries\": [{}]}},\n",
        stats.reload_boundaries.len(),
        stats.reloads_refused,
        boundaries.join(", ")
    ));
    s.push_str("  \"shards\": {");
    for (idx, sh) in shards.iter().enumerate() {
        if idx > 0 {
            s.push(',');
        }
        let fps = if sh.busy_secs > 0.0 { sh.stats.flows as f64 / sh.busy_secs } else { 0.0 };
        s.push_str(&format!(
            "\n    \"{idx}\": {{\"flows\": {}, \"verdicts\": {}, \"partial\": {}, \
             \"busy_secs\": {}, \"flows_per_sec\": {}}}",
            sh.stats.flows,
            sh.stats.verdicts,
            sh.partial,
            format_f64(sh.busy_secs),
            format_f64(fps)
        ));
    }
    s.push_str(if shards.is_empty() { "},\n" } else { "\n  },\n" });
    sink.close_metrics_json(&mut s);
    s
}
