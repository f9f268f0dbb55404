//! `bench_json` — tracked wall-clock benchmarks for the hot compute
//! kernels, written as a JSON file so successive PRs can record the
//! performance trajectory of the reproduction.
//!
//! ```text
//! bench_json [--quick] [--pipeline | --serving] [--out PATH]
//!
//! options:
//!   --quick     fewer repetitions, skip the registry experiments
//!               (CI smoke mode — seconds, not minutes)
//!   --pipeline  benchmark the data-preparation pipeline stages and the
//!               cold-vs-warm artifact cache instead of the kernels;
//!               writes "BENCH_pipeline.json"
//!   --serving   benchmark the online serving path (flow-table ingest,
//!               per-model replay classification, per-packet latency
//!               percentiles); writes "BENCH_serving.json"
//!   --out PATH  output file (default "BENCH_kernels.json",
//!               "BENCH_pipeline.json" or "BENCH_serving.json"; run from
//!               the workspace root so the file lands at the repo root)
//! ```
//!
//! The file records raw medians next to a `machine` block (CPU model,
//! core count, fingerprint) naming the host that produced them. Numbers
//! are only comparable between runs on one machine; a speed claim is a
//! same-session A/B, not a diff against a committed file. Input data is
//! synthesised with a local xorshift generator — no `rand` — so the
//! measured shapes are identical on every machine and every run.

use debunk_core::engine::{default_registry, Preset, RunContext, RunOptions};
use encoders::model::{EncoderModel, ModelKind};
use encoders::EncodeScratch;
use nn::{Mlp, Tensor};
use shallow::gbdt::{GbdtParams, GradientBoosting};
use shallow::tree::{DecisionTree, TreeParams};
use std::time::Instant;

/// CPU model (first `model name` in `/proc/cpuinfo`) + logical core
/// count, plus an FNV-1a hash of the two for cheap equality checks.
fn machine_fingerprint() -> (String, usize, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = nn::envelope::Fnv::new();
    h.update(cpu.as_bytes());
    h.update(cores.to_string().as_bytes());
    (cpu, cores, format!("{:016x}", h.finish()))
}

/// Deterministic xorshift64* stream — benchmark data without `rand`.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[-1, 1)`.
    fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn tensor(rows: usize, cols: usize, rng: &mut XorShift) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for v in &mut t.data {
        *v = rng.f32();
    }
    t
}

/// Median wall-clock of `reps` runs (after one warm-up), in ms.
fn bench_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Clustered classification data: `n` rows × `d` features, `k` classes.
fn class_data(n: usize, d: usize, k: usize, rng: &mut XorShift) -> (Vec<Vec<f32>>, Vec<u16>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(k as u64) as u16;
        let mut row = Vec::with_capacity(d);
        for j in 0..d {
            let signal = if j % 3 == 0 { f32::from(c) } else { 0.0 };
            row.push(signal + rng.f32());
        }
        x.push(row);
        y.push(c);
    }
    (x, y)
}

/// Benchmark every data-preparation stage plus the registry experiment
/// cold (fresh context per repetition) and warm (shared context, so the
/// artifact cache replays dataset builds and cell outputs).
fn pipeline_group(quick: bool, reps: usize) -> Vec<(&'static str, f64)> {
    use dataset::clean::clean_trace;
    use dataset::record::Prepared;
    use dataset::split::per_flow_split;
    use dataset::Task;
    use shallow::features::{extract_features, FeatureConfig};
    use traffic_synth::DatasetSpec;

    let mut results: Vec<(&str, f64)> = Vec::new();
    let spec = DatasetSpec::new(Task::Tls120.dataset(), 42).scaled(0.4);
    results.push(("generate", bench_ms(reps, || spec.generate())));
    let raw = spec.generate();
    results.push((
        "clean",
        bench_ms(reps, || {
            let mut t = raw.clone();
            clean_trace(&mut t);
            t
        }),
    ));
    let mut cleaned = raw.clone();
    clean_trace(&mut cleaned);
    results.push(("parse", bench_ms(reps, || Prepared::from_trace(&cleaned))));
    let prep = Prepared::from_trace(&cleaned);
    let enc = EncoderModel::new(ModelKind::EtBert, 1);
    results.push((
        "tokenize",
        bench_ms(reps, || {
            prep.records.iter().map(|r| enc.tokenize_packet_repeated(r)).collect::<Vec<_>>()
        }),
    ));
    results.push((
        "featurize",
        bench_ms(reps, || {
            prep.records
                .iter()
                .map(|r| extract_features(r, FeatureConfig::default()))
                .collect::<Vec<_>>()
        }),
    ));
    results.push(("split", bench_ms(reps, || per_flow_split(&prep, 0.875, 1000, 42))));
    eprintln!("  pipeline stages done");

    if !quick {
        let opts = RunOptions { jobs: 1, out_dir: None, ..Default::default() };
        results.push((
            "registry_table8_cold",
            bench_ms(3, || {
                let ctx = RunContext::from_preset(Preset::Fast, 42, Some(0.4));
                default_registry().run("table8", &ctx, &opts).expect("table8 is registered");
            }),
        ));
        eprintln!("  registry cold done");
        // One shared context: bench_ms's warm-up pass primes the
        // artifact cache, so the timed repetitions measure a fully
        // warm (in-memory) second run.
        let ctx = RunContext::from_preset(Preset::Fast, 42, Some(0.4));
        results.push((
            "registry_table8_warm",
            bench_ms(3, || {
                default_registry().run("table8", &ctx, &opts).expect("table8 is registered");
            }),
        ));
        eprintln!("  registry warm done");
        results.extend(multiproc_rows());
    }
    results.extend(outofcore_rows(quick));
    results
}

/// Suite wall-clock of the table8 grid run cold through `repro` as one
/// process and through the coordinator at 1/2/4 worker processes, each
/// against its own fresh cache. Hard-fails when any coordinator run's
/// artifact build count differs from the single-process run's — the
/// cross-process single-flight contract (one cold build per artifact
/// across all workers) is what makes scale-out cheap, so a regression
/// here is a bench failure, not a slow row.
fn multiproc_rows() -> Vec<(&'static str, f64)> {
    use debunk_core::engine::RunManifest;

    let repro = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("repro")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| {
            eprintln!("error: repro binary not found next to bench_json (build all bins first)");
            std::process::exit(1);
        });
    let root = std::env::temp_dir().join("debunk-bench-multiproc");
    std::fs::remove_dir_all(&root).ok();
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let mut builds: Vec<(&'static str, usize)> = Vec::new();
    for (name, workers) in [
        ("multiproc_singleproc", 0usize),
        ("multiproc_w1", 1),
        ("multiproc_w2", 2),
        ("multiproc_w4", 4),
    ] {
        let out = root.join(name);
        let mut cmd = std::process::Command::new(&repro);
        cmd.arg("table8")
            .arg("--fast")
            .arg("--scale")
            .arg("0.4")
            .arg("--out")
            .arg(&out)
            .arg("--cache-dir")
            .arg(out.join("cache"))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if workers > 0 {
            cmd.arg("--workers").arg(workers.to_string());
        }
        let t0 = Instant::now();
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!("error: could not run {}: {e}", repro.display());
            std::process::exit(1);
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !status.success() {
            eprintln!("error: {name} run failed ({status})");
            std::process::exit(1);
        }
        let manifest = std::fs::read_to_string(out.join("run-manifest.json"))
            .ok()
            .and_then(|s| RunManifest::from_json(&s).ok())
            .unwrap_or_else(|| {
                eprintln!("error: {name} left no readable run-manifest.json");
                std::process::exit(1);
            });
        eprintln!("  {name}: {ms:.0} ms, {} artifact builds", manifest.artifact_builds);
        rows.push((name, ms));
        builds.push((name, manifest.artifact_builds));
    }
    let single = builds[0].1;
    for (name, b) in &builds[1..] {
        if *b != single {
            eprintln!(
                "error: {name} built {b} artifacts, single-process built {single} — \
                 cross-process single-flight regressed (duplicate cold builds)"
            );
            std::process::exit(1);
        }
    }
    eprintln!("  multiproc sweep done ({single} builds at every worker count)");
    std::fs::remove_dir_all(&root).ok();
    rows
}

/// Out-of-core generation + prepare at the million-flow scale the
/// in-RAM path cannot hold (quick mode shrinks the flow budget, not the
/// mechanism). Reports packets/sec through each phase and the peak RSS
/// of the whole run — which is bounded by the row-group size, not the
/// flow count. Rates are only comparable within one machine (see
/// DESIGN.md §6e).
fn outofcore_rows(quick: bool) -> Vec<(&'static str, f64)> {
    use debunk_core::artifact::ArtifactCache;
    use debunk_core::obs::measure_peak_rss;
    use debunk_core::outofcore::{prepare_out_of_core, OutOfCoreOptions, ShardDir};
    use shallow::features::FeatureConfig;
    use traffic_synth::stream::FlowPlan;
    use traffic_synth::{DatasetKind, DatasetSpec};

    let (kind, seed) = (DatasetKind::UstcTfc, 42);
    let flows_at_unit = FlowPlan::new(&DatasetSpec::new(kind, seed)).n_flows();
    let target_flows: f64 = if quick { 2_000.0 } else { 1_000_000.0 };
    let scale = target_flows / flows_at_unit as f64;
    let n_shards = if quick { 4 } else { 256 };
    let spec = DatasetSpec::new(kind, seed).scaled(scale);

    let root = std::env::temp_dir().join("debunk-bench-outofcore");
    std::fs::remove_dir_all(&root).ok();
    let shard_dir = root.join("shards");
    let cache = ArtifactCache::new(Some(root.join("cache")));
    let opts = OutOfCoreOptions {
        features: Some(FeatureConfig::default()),
        ..OutOfCoreOptions::default()
    };

    let ((gen, prepare), peak) = measure_peak_rss(|| {
        let t0 = Instant::now();
        let (shards, _) =
            ShardDir::ensure(&shard_dir, &spec, n_shards, 1).expect("shard generation");
        let gen = (shards.n_records() as f64, t0.elapsed().as_secs_f64());
        eprintln!(
            "  out-of-core: generated {} records across {n_shards} shards in {:.1}s",
            gen.0, gen.1
        );
        drop(shards);
        let t1 = Instant::now();
        let report = prepare_out_of_core(&cache, &shard_dir, kind, seed, scale, n_shards, &opts)
            .expect("out-of-core prepare");
        let prepare = (report.shard_records as f64, t1.elapsed().as_secs_f64());
        eprintln!("  out-of-core: prepared {} records in {:.1}s", prepare.0, prepare.1);
        (gen, prepare)
    });
    std::fs::remove_dir_all(&root).ok();

    vec![
        ("outofcore_gen_pps", gen.0 / gen.1.max(1e-9)),
        ("outofcore_prepare_pps", prepare.0 / prepare.1.max(1e-9)),
        ("outofcore_peak_rss_mb", peak.map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))),
    ]
}

/// Benchmark the online serving path: flow-table ingest alone,
/// replay-to-verdict classification per model target, a mixed policy
/// end-to-end, per-packet ingest latency percentiles (µs), and the
/// derived flow throughput. Everything runs on the frozen inference
/// structs — training happens once, outside the timed region.
fn serving_group(quick: bool, reps: usize) -> Vec<(&'static str, f64)> {
    use dataset::record::Prepared;
    use debunk_core::obs::{LogFormat, ObsSink};
    use serving::engine::{serve, serve_stream, EpochBundle, ServeOptions};
    use serving::policy::Policy;
    use serving::reload::ReloadSource;
    use serving::source::SynthSpec;
    use serving::{FlowTable, ModelBundle};

    let mut bundle = ModelBundle::train(
        &Prepared::from_trace(&SynthSpec::parse("ustc:7:2").unwrap().trace()),
        42,
    );
    bundle.quantize_encoder();
    let replay_spec = if quick { "ustc:11:2" } else { "ustc:11:4" };
    let replay = SynthSpec::parse(replay_spec).unwrap().replay();
    let sink = ObsSink::stderr(LogFormat::Text);
    let opts = ServeOptions::default();
    eprintln!("  serving fixtures ready ({} packets)", replay.len());

    let mut results: Vec<(&str, f64)> = Vec::new();
    results.push((
        "serve_ingest_only",
        bench_ms(reps, || {
            let mut table = FlowTable::new(opts.idle_timeout).unwrap();
            for (seq, p) in replay.iter().enumerate() {
                table.push(seq as u64, p.ts, &p.frame);
                std::hint::black_box(table.poll(p.ts));
            }
            table.flush().len()
        }),
    ));
    for (name, target) in [
        ("serve_encoder", "encoder"),
        ("serve_encoder_int8", "encoder_int8"),
        ("serve_forest", "forest"),
        ("serve_gbdt", "gbdt"),
        ("serve_knn", "knn"),
    ] {
        let policy = Policy::route_all(target);
        results.push((
            name,
            bench_ms(reps, || {
                let mut out = Vec::new();
                serve_stream(&bundle, &policy, &replay, &opts, &mut out, &sink).unwrap()
            }),
        ));
    }
    eprintln!("  per-target replays done");

    let mixed = Policy::parse("*:tcp:443 -> encoder\n*:udp -> knn\ndefault -> forest\n").unwrap();
    let e2e_ms = bench_ms(reps, || {
        let mut out = Vec::new();
        serve_stream(&bundle, &mixed, &replay, &opts, &mut out, &sink).unwrap()
    });
    results.push(("serve_mixed_e2e", e2e_ms));
    let mut out = Vec::new();
    let stats = serve_stream(&bundle, &mixed, &replay, &opts, &mut out, &sink).unwrap();

    // Sharded replay at 1/2/4 workers: same mixed policy, byte-identical
    // output — the spread shows dispatch overhead vs parallel speedup.
    for (name, workers) in
        [("serve_sharded_w1", 1usize), ("serve_sharded_w2", 2), ("serve_sharded_w4", 4)]
    {
        let w_opts = ServeOptions { workers, ..opts };
        results.push((
            name,
            bench_ms(reps, || {
                let mut out = Vec::new();
                serve(&bundle, &mixed, &replay, &w_opts, ReloadSource::None, &mut out, &sink)
                    .unwrap()
            }),
        ));
    }
    eprintln!("  sharded replays done");

    // Planned two-epoch hot-reload mid-replay: measures the epoch-split
    // overhead on top of the mixed end-to-end path.
    let mut bundle2 = ModelBundle::train(
        &Prepared::from_trace(&SynthSpec::parse("ustc:7:2").unwrap().trace()),
        43,
    );
    bundle2.quantize_encoder();
    let boundary = replay.len() as u64 / 2;
    results.push((
        "serve_reload",
        bench_ms(reps, || {
            let mut out = Vec::new();
            let reload = ReloadSource::planned(vec![(
                boundary,
                EpochBundle::Borrowed(&bundle2),
                String::from("bench"),
            )]);
            serve(&bundle, &mixed, &replay, &opts, reload, &mut out, &sink).unwrap()
        }),
    ));
    eprintln!("  reload replay done");

    // Per-packet ingest latency distribution over one replay (µs).
    let mut table = FlowTable::new(opts.idle_timeout).unwrap();
    let mut lat_us: Vec<f64> = Vec::with_capacity(replay.len());
    for (seq, p) in replay.iter().enumerate() {
        let t0 = Instant::now();
        table.push(seq as u64, p.ts, &p.frame);
        std::hint::black_box(table.poll(p.ts));
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);
    results.push(("serve_packet_p50_us", lat_us[lat_us.len() / 2]));
    results.push(("serve_packet_p99_us", lat_us[lat_us.len() * 99 / 100]));
    results.push(("serve_flows_per_sec", stats.flows as f64 / (e2e_ms / 1e3)));
    eprintln!("  latency percentiles done");
    results
}

/// Render and write one benchmark group as hand-rolled JSON (no serde
/// dependency in the hot path).
fn emit(schema: &str, quick: bool, results: &[(&str, f64)], out_path: &str) {
    let (cpu, cores, fp) = machine_fingerprint();
    let mut json = format!("{{\n  \"schema\": \"{schema}\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"machine\": {{\n    \"cpu\": \"{}\",\n    \"cores\": {cores},\n    \
         \"fingerprint\": \"{fp}\"\n  }},\n",
        cpu.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    json.push_str("  \"results_ms\": {\n");
    for (i, (name, ms)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        if ms.is_nan() {
            json.push_str(&format!("    \"{name}\": null{sep}\n"));
        } else {
            json.push_str(&format!("    \"{name}\": {ms:.3}{sep}\n"));
        }
    }
    json.push_str("  }\n}\n");

    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: could not write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("{json}");
    eprintln!("[saved] {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut pipeline = false;
    let mut serving = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--pipeline" => pipeline = true,
            "--serving" => serving = true,
            "--out" => {
                out_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("error: --out requires a value");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown flag '{other}'");
                eprintln!("usage: bench_json [--quick] [--pipeline | --serving] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if pipeline && serving {
        eprintln!("error: --pipeline and --serving are mutually exclusive");
        std::process::exit(2);
    }
    let reps = if quick { 3 } else { 9 };
    if serving {
        let results = serving_group(quick, reps);
        let out = out_path.unwrap_or_else(|| String::from("BENCH_serving.json"));
        emit("bench_serving/v2", quick, &results, &out);
        return;
    }
    if pipeline {
        let results = pipeline_group(quick, reps);
        let out = out_path.unwrap_or_else(|| String::from("BENCH_pipeline.json"));
        emit("bench_pipeline/v2", quick, &results, &out);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_kernels.json"));
    let mut rng = XorShift(0x5eed_cafe);
    let mut results: Vec<(&str, f64)> = Vec::new();

    // --- matmul kernels -------------------------------------------------
    let a = tensor(256, 256, &mut rng);
    let b = tensor(256, 256, &mut rng);
    results.push(("matmul_256", bench_ms(reps, || a.matmul(&b))));
    results.push(("t_matmul_256", bench_ms(reps, || a.t_matmul(&b))));
    results.push(("matmul_t_256", bench_ms(reps, || a.matmul_t(&b))));
    eprintln!("  matmul kernels done");

    // --- one MLP head training step (batch 64) --------------------------
    let x = tensor(64, 256, &mut rng);
    let y: Vec<u16> = (0..64).map(|_| rng.below(16) as u16).collect();
    let mut head = Mlp::new(&[256, 128, 16], 1);
    results.push(("mlp_train_step_b64", bench_ms(reps, || head.train_batch(&x, &y, 0.01))));

    // --- one unfrozen encoder training step (batch 64) ------------------
    let batch: Vec<Vec<u32>> =
        (0..64).map(|_| (0..80).map(|_| rng.below(1 << 16) as u32).collect()).collect();
    let mut enc = EncoderModel::new(ModelKind::EtBert, 1);
    let mut enc_head = Mlp::new(&[enc.dim(), 128, 16], 1);
    results.push((
        "encoder_train_step_b64",
        bench_ms(reps, || {
            let pooled = enc.forward_tokens(&batch);
            let (_, d) = enc_head.train_batch(&pooled, &y, 0.01);
            enc.backward(&d, 0.01);
        }),
    ));
    eprintln!("  training steps done");

    // --- frozen-encoder inference (batched + int8) -----------------------
    // Fresh encoder: `enc` above was mutated by the training reps, and
    // the frozen rows should measure reproducible seed-1 weights.
    let frozen = EncoderModel::new(ModelKind::EtBert, 1);
    let big: Vec<Vec<u32>> =
        (0..1024).map(|_| (0..80).map(|_| rng.below(1 << 16) as u32).collect()).collect();
    let mut scratch = EncodeScratch::default();
    let mut out = Tensor::default();
    results.push((
        "frozen_encode_b1_x1024",
        bench_ms(reps, || {
            let mut acc = 0.0f32;
            for row in &big {
                frozen.encode_tokens_into(std::slice::from_ref(row), &mut scratch, &mut out);
                acc += out.data[0];
            }
            acc
        }),
    ));
    results.push((
        "frozen_encode_b64_x16",
        bench_ms(reps, || {
            let mut acc = 0.0f32;
            for chunk in big.chunks(64) {
                frozen.encode_tokens_into(chunk, &mut scratch, &mut out);
                acc += out.data[0];
            }
            acc
        }),
    ));
    results.push((
        "frozen_encode_b1024",
        bench_ms(reps, || {
            frozen.encode_tokens_into(&big, &mut scratch, &mut out);
            out.data[0]
        }),
    ));
    let quant = frozen.quantize();
    results.push((
        "frozen_encode_int8_b1024",
        bench_ms(reps, || {
            quant.encode_tokens_into(&big, &mut scratch, &mut out);
            out.data[0]
        }),
    ));
    eprintln!("  frozen encodes done");

    // --- shallow models --------------------------------------------------
    let (xv, yv) = class_data(4000, 16, 6, &mut rng);
    let xr: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
    results.push((
        "tree_fit_4k",
        bench_ms(reps.min(5), || DecisionTree::fit(&xr, &yv, 6, TreeParams::default(), 1)),
    ));
    let (gxv, gyv) = class_data(1200, 16, 4, &mut rng);
    let gxr: Vec<&[f32]> = gxv.iter().map(|r| r.as_slice()).collect();
    results.push((
        "gbdt_fit_1200",
        bench_ms(reps.min(5), || GradientBoosting::fit(&gxr, &gyv, 4, GbdtParams::default())),
    ));
    eprintln!("  shallow models done");

    // The registry experiment is benchmarked by the pipeline group
    // (cold + warm), not here.
    emit("bench_kernels/v2", quick, &results, &out_path);
}
