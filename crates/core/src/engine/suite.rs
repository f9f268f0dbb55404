//! The concrete experiments of the paper's evaluation, ported from
//! the former `repro` binary onto the engine. Each experiment exposes
//! its grid of independent cells; the frozen/unfrozen × split-policy
//! tables (3, 4, 5) share one `GridExperiment` expansion instead of
//! per-table loops.

use crate::engine::context::{EncoderSpec, RunContext};
use crate::engine::registry::{CellOutput, CellSpec, Experiment, RecordStats, Registry};
use crate::experiment::{
    embeddings_for_purity, fine_tune, gather, run_cell, run_frozen, token_embedding,
    training_tokens, CellConfig, CellResult, CellSample, FlowIdAblation, SplitPolicy,
};
use crate::flow_experiment::{run_flow_cell, run_flow_cell_majority_vote};
use crate::metrics::{accuracy, macro_f1};
use crate::pipeline::{DatasetArtifact, PreparedTask, TokenVariant};
use crate::report::{bar_chart, TableBuilder};
use crate::shallow_baselines::{run_shallow, ShallowModel};
use dataset::record::PacketRecord;
use dataset::split::{balanced_undersample, subsample};
use dataset::transform::InputAblation;
use dataset::Task;
use encoders::model::{EncoderModel, ModelKind};
use encoders::pool::{pool_batch, PoolingMode};
use encoders::pretrain::pretrain_corpus;
use encoders::qa::{corrupt_checksums, qa_pretrain};
use nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use shallow::features::{feature_names, FeatureConfig};
use shallow::purity::knn_purity;

/// The two packet-classification tasks most tables focus on.
const PACKET_TASKS: [Task; 2] = [Task::VpnApp, Task::Tls120];

fn setting_str(split: SplitPolicy, frozen: bool) -> &'static str {
    match (split, frozen) {
        (SplitPolicy::PerFlow, true) => "per-flow/frozen",
        (SplitPolicy::PerFlow, false) => "per-flow/unfrozen",
        (SplitPolicy::PerPacket, true) => "per-packet/frozen",
        (SplitPolicy::PerPacket, false) => "per-packet/unfrozen",
    }
}

fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// One metric of a cell as a table percentage; a cell that failed or
/// never ran has no metrics and renders as `-`.
fn pct_of(out: &CellOutput, metric: fn(&RecordStats) -> f64) -> String {
    out.stats.as_ref().map_or_else(|| "-".into(), |s| pct(metric(s)))
}

fn acc(s: &RecordStats) -> f64 {
    s.accuracy
}

fn f1(s: &RecordStats) -> f64 {
    s.macro_f1
}

/// Bar-chart items of one metric in percent; a cell without metrics
/// has no bar.
fn bars<'a>(
    cells: impl IntoIterator<Item = (String, &'a CellOutput)>,
    metric: fn(&RecordStats) -> f64,
) -> Vec<(String, f64)> {
    cells
        .into_iter()
        .filter_map(|(label, out)| Some((label, metric(&out.stats?) * 100.0)))
        .collect()
}

/// Accuracy and macro-F1 columns of one cell.
fn ac_f1(out: &CellOutput) -> [String; 2] {
    [pct_of(out, acc), pct_of(out, f1)]
}

/// A frozen per-flow packet cell whose only departure from
/// `run_cell(.., PerFlow, true, ..)` is `embed`: the same split,
/// balanced sample, folds and standardised head.
fn frozen_arm(
    prep: &PreparedTask,
    cfg: &CellConfig,
    embed: impl Fn(&[usize]) -> Tensor,
) -> CellResult {
    let split = prep.split(SplitPolicy::PerFlow, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
    run_frozen(&CellSample::balanced(prep.task, &prep.data, &split, cfg), cfg, embed)
}

/// Build the full default suite: every table, figure and ablation, in
/// `all`-execution order.
pub fn default_registry() -> Registry {
    let mut r = Registry::new();
    r.register(Box::new(Table2));
    r.register(Box::new(Table13));
    r.register(Box::new(GridExperiment::table3()));
    r.register(Box::new(GridExperiment::table4()));
    r.register(Box::new(GridExperiment::table5()));
    r.register(Box::new(Table6));
    r.register(Box::new(Table7));
    r.register(Box::new(Table8));
    r.register(Box::new(Table9));
    r.register(Box::new(Table11));
    r.register(Box::new(Fig1));
    r.register(Box::new(Fig4));
    r.register(Box::new(Fig5));
    r.register(Box::new(Fig6));
    r.register(Box::new(QaExperiment));
    r.register(Box::new(RepeatVsPad));
    r.register(Box::new(BalanceAblation));
    r.register(Box::new(PoolingAblation));
    r.register(Box::new(AdvancedSplits));
    r.register(Box::new(ExtendedModels));
    r.register(Box::new(Robustness));
    r.register(Box::new(QuantInt8));
    r
}

// ---------------------------------------------------------------------
// Tables 3, 4, 5 — one grid expansion instead of per-table loops.

struct GridExperiment {
    id: &'static str,
    description: &'static str,
    title: &'static str,
    tasks: Vec<Task>,
    variants: Vec<(SplitPolicy, bool)>,
}

impl GridExperiment {
    fn table3() -> GridExperiment {
        GridExperiment {
            id: "table3",
            description: "packet classification, per-flow split, frozen encoders",
            title: "Table 3: packet classification — per-flow split, frozen encoders",
            tasks: Task::ALL.to_vec(),
            variants: vec![(SplitPolicy::PerFlow, true)],
        }
    }

    fn table4() -> GridExperiment {
        GridExperiment {
            id: "table4",
            description: "frozen vs unfrozen, per-flow split (VPN-app, TLS-120)",
            title: "Table 4: per-flow split — frozen vs unfrozen",
            tasks: PACKET_TASKS.to_vec(),
            variants: vec![(SplitPolicy::PerFlow, true), (SplitPolicy::PerFlow, false)],
        }
    }

    fn table5() -> GridExperiment {
        GridExperiment {
            id: "table5",
            description: "frozen vs unfrozen, per-packet split",
            title: "Table 5: per-packet split — frozen vs unfrozen",
            tasks: PACKET_TASKS.to_vec(),
            variants: vec![(SplitPolicy::PerPacket, true), (SplitPolicy::PerPacket, false)],
        }
    }
}

impl Experiment for GridExperiment {
    fn id(&self) -> &'static str {
        self.id
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for kind in ModelKind::ALL {
            for &task in &self.tasks {
                for &(split, frozen) in &self.variants {
                    cells.push(CellSpec::with_encoder(
                        task.name(),
                        kind.name(),
                        setting_str(split, frozen),
                        EncoderSpec::pretrained(kind),
                        move |ctx, cfg, enc| {
                            let prep = ctx.prep(task);
                            run_cell(&prep, enc, split, frozen, cfg).into()
                        },
                    ));
                }
            }
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut cols: Vec<String> = Vec::new();
        for &task in &self.tasks {
            for &(_, frozen) in &self.variants {
                let tag = if self.variants.len() > 1 {
                    if frozen {
                        " fro"
                    } else {
                        " unf"
                    }
                } else {
                    ""
                };
                cols.push(format!("{}{} AC", task.name(), tag));
                cols.push("F1".into());
            }
        }
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut t = TableBuilder::new(self.title, &col_refs);
        let per_model = self.tasks.len() * self.variants.len();
        for (kind, chunk) in ModelKind::ALL.iter().zip(outputs.chunks(per_model)) {
            let vals: Vec<String> = chunk.iter().flat_map(ac_f1).collect();
            t.row(kind.name(), &vals);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 2 — dataset and task statistics.

struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "dataset/task statistics"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        Task::ALL
            .into_iter()
            .map(|task| {
                CellSpec::silent(task.name(), "dataset", "stats", move |ctx, cfg| {
                    let prep = ctx.prep(task);
                    let split = prep.split(
                        SplitPolicy::PerFlow,
                        cfg.train_frac,
                        cfg.max_flow_packets,
                        cfg.seed,
                    );
                    let label = |r: &PacketRecord| task.label_of(&prep.data, r);
                    let bal = balanced_undersample(&prep.data, &split.train, &label, cfg.seed);
                    CellOutput::values(vec![
                        ("classes".into(), task.n_classes() as f64),
                        ("train_bal".into(), bal.len() as f64),
                        ("test".into(), split.test.len() as f64),
                        ("flows".into(), prep.data.n_flows() as f64),
                        ("packets".into(), prep.data.records.len() as f64),
                    ])
                })
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 2: downstream datasets and tasks (synthetic analogue)",
            &["#class", "#train(bal)", "#test", "#flows", "#packets"],
        );
        for (task, out) in Task::ALL.iter().zip(outputs) {
            let vals: Vec<String> =
                out.values.iter().map(|(_, v)| format!("{}", *v as u64)).collect();
            t.row(task.name(), &vals);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 6 — implicit-flow-ID ablation on unfrozen ET-BERT, TLS-120.

struct Table6;

const TABLE6_ROWS: [(&str, &str, SplitPolicy, FlowIdAblation, bool); 5] = [
    (
        "per-packet original",
        "per-packet, original",
        SplitPolicy::PerPacket,
        FlowIdAblation::None,
        true,
    ),
    (
        "per-packet w/o seq/ack/ts (test only)",
        "w/o SeqNo/AckNo/TS (test)",
        SplitPolicy::PerPacket,
        FlowIdAblation::TestOnly,
        true,
    ),
    (
        "per-packet w/o seq/ack/ts (train+test)",
        "w/o SeqNo/AckNo/TS (train+test)",
        SplitPolicy::PerPacket,
        FlowIdAblation::TrainAndTest,
        true,
    ),
    (
        "per-packet w/o pre-training",
        "w/o pre-training",
        SplitPolicy::PerPacket,
        FlowIdAblation::None,
        false,
    ),
    ("per-flow original", "per-flow, original", SplitPolicy::PerFlow, FlowIdAblation::None, true),
];

impl Experiment for Table6 {
    fn id(&self) -> &'static str {
        "table6"
    }

    fn description(&self) -> &'static str {
        "implicit-flow-ID ablation on ET-BERT (TLS-120)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        TABLE6_ROWS
            .iter()
            .map(|&(setting, _, split, ablation, pretrained)| {
                let spec = EncoderSpec::Standard { kind: ModelKind::EtBert, pretrained };
                CellSpec::with_encoder("TLS-120", "ET-BERT", setting, spec, move |ctx, cfg, enc| {
                    let prep = ctx.prep(Task::Tls120);
                    let cfg = CellConfig { flow_id_ablation: ablation, ..*cfg };
                    run_cell(&prep, enc, split, false, &cfg).into()
                })
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 6: implicit flow IDs and pre-training — unfrozen ET-BERT, TLS-120",
            &["AC", "F1"],
        );
        for ((_, row_label, ..), out) in TABLE6_ROWS.iter().zip(outputs) {
            t.row(row_label, &ac_f1(out));
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 7 — Pcap-Encoder input ablation.

struct Table7;

const TABLE7_ROWS: [(&str, InputAblation); 4] = [
    ("w/o IP addr", InputAblation::NoIpAddr),
    ("w/o header", InputAblation::NoHeader),
    ("w/o payload", InputAblation::NoPayload),
    ("base", InputAblation::Base),
];

impl Experiment for Table7 {
    fn id(&self) -> &'static str {
        "table7"
    }

    fn description(&self) -> &'static str {
        "Pcap-Encoder input ablation"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &(label, ablation) in &TABLE7_ROWS {
            for task in PACKET_TASKS {
                cells.push(CellSpec::with_encoder(
                    task.name(),
                    "Pcap-Encoder",
                    label,
                    EncoderSpec::pretrained(ModelKind::PcapEncoder),
                    move |ctx, cfg, enc| {
                        let prep = ctx.prep(task);
                        let cfg = CellConfig { input_ablation: ablation, ..*cfg };
                        run_cell(&prep, enc, SplitPolicy::PerFlow, true, &cfg).into()
                    },
                ));
            }
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 7: Pcap-Encoder input ablation (macro F1, per-flow, frozen)",
            &["VPN-app F1", "TLS-120 F1"],
        );
        for ((label, _), chunk) in TABLE7_ROWS.iter().zip(outputs.chunks(PACKET_TASKS.len())) {
            let vals: Vec<String> = chunk.iter().map(|o| pct_of(o, f1)).collect();
            t.row(label, &vals);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 8 — shallow baselines with and without IP features.

struct Table8;

impl Experiment for Table8 {
    fn id(&self) -> &'static str {
        "table8"
    }

    fn description(&self) -> &'static str {
        "shallow baselines, base vs w/o IP"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for model in ShallowModel::ALL {
            for task in PACKET_TASKS {
                for with_ip in [true, false] {
                    let setting = if with_ip { "base" } else { "w/o IP" };
                    cells.push(CellSpec::new(
                        task.name(),
                        model.name(),
                        setting,
                        move |ctx: &RunContext, cfg: &CellConfig| {
                            let prep = ctx.prep(task);
                            run_shallow(
                                &prep,
                                model,
                                SplitPolicy::PerFlow,
                                FeatureConfig { with_ip },
                                cfg,
                            )
                            .into()
                        },
                    ));
                }
            }
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 8: shallow baselines (macro F1, per-flow split)",
            &["VPNapp base", "VPNapp w/oIP", "TLS120 base", "TLS120 w/oIP"],
        );
        let per_model = PACKET_TASKS.len() * 2;
        for (model, chunk) in ShallowModel::ALL.iter().zip(outputs.chunks(per_model)) {
            let vals: Vec<String> = chunk.iter().map(|o| pct_of(o, f1)).collect();
            t.row(model.name(), &vals);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 9 — flow-level classification.

struct Table9;

impl Experiment for Table9 {
    fn id(&self) -> &'static str {
        "table9"
    }

    fn description(&self) -> &'static str {
        "flow-level classification"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for kind in ModelKind::ALL {
            for task in PACKET_TASKS {
                if kind == ModelKind::PcapEncoder {
                    cells.push(CellSpec::with_encoder(
                        task.name(),
                        kind.name(),
                        "frozen majority-vote",
                        EncoderSpec::pretrained(kind),
                        move |ctx, cfg, enc| {
                            let prep = ctx.prep(task);
                            run_flow_cell_majority_vote(&prep, enc, cfg).into()
                        },
                    ));
                } else {
                    for frozen in [true, false] {
                        let setting = if frozen { "frozen" } else { "unfrozen" };
                        cells.push(CellSpec::with_encoder(
                            task.name(),
                            kind.name(),
                            setting,
                            EncoderSpec::pretrained(kind),
                            move |ctx, cfg, enc| {
                                let prep = ctx.prep(task);
                                run_flow_cell(&prep, enc, frozen, cfg).into()
                            },
                        ));
                    }
                }
            }
        }
        // Extension row (not in the paper's table): a shallow RF on
        // classic flow statistics, the cost-benefit anchor.
        for task in PACKET_TASKS {
            cells.push(CellSpec::silent(
                task.name(),
                "RF (flow stats)",
                "per-flow",
                move |ctx, cfg| {
                    let prep = ctx.prep(task);
                    let (acc, f1) = flow_stats_rf(&prep, cfg);
                    CellOutput::stats(RecordStats::of(acc, f1))
                },
            ));
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 9: flow classification (per-flow split)",
            &[
                "VPNapp fro AC",
                "fro F1",
                "unf AC",
                "unf F1",
                "TLS120 fro AC",
                "fro F1",
                "unf AC",
                "unf F1",
            ],
        );
        let mut it = outputs.iter();
        for kind in ModelKind::ALL {
            let mut vals: Vec<String> = Vec::new();
            for _ in PACKET_TASKS {
                if kind == ModelKind::PcapEncoder {
                    vals.extend(ac_f1(it.next().expect("majority-vote cell")));
                    vals.extend(["-".into(), "-".into()]);
                } else {
                    for _ in 0..2 {
                        vals.extend(ac_f1(it.next().expect("flow cell")));
                    }
                }
            }
            t.row(kind.name(), &vals);
        }
        let mut vals: Vec<String> = Vec::new();
        for _ in PACKET_TASKS {
            vals.extend(ac_f1(it.next().expect("flow-stats RF cell")));
            vals.extend(["-".into(), "-".into()]);
        }
        t.row("RF (flow stats)*", &vals);
        println!("{}", t.render());
        println!("* extension row: shallow RF on flow statistics (not in the paper's table)\n");
    }
}

/// Shallow RF on flow-level statistics, per-flow split (extension).
fn flow_stats_rf(prep: &PreparedTask, cfg: &CellConfig) -> (f64, f64) {
    use shallow::flow_features::{extract_flow_features, N_FLOW_FEATURES};
    let mut x: Vec<[f32; N_FLOW_FEATURES]> = Vec::new();
    let mut y: Vec<u16> = Vec::new();
    for (_, idxs) in prep.data.flows() {
        if idxs.len() < 5 {
            continue;
        }
        let pkts: Vec<&PacketRecord> =
            idxs.iter().take(5).map(|&i| &prep.data.records[i]).collect();
        x.push(extract_flow_features(&pkts));
        y.push(prep.task.label_of(&prep.data, &prep.data.records[idxs[0]]));
    }
    let mut order: Vec<usize> = (0..x.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    order.shuffle(&mut rng);
    let cut = (order.len() as f64 * cfg.train_frac) as usize;
    let rows = |idx: &[usize]| -> Vec<&[f32]> { idx.iter().map(|&i| x[i].as_slice()).collect() };
    let labels = |idx: &[usize]| -> Vec<u16> { idx.iter().map(|&i| y[i]).collect() };
    let rf = shallow::forest::RandomForest::fit(
        &rows(&order[..cut]),
        &labels(&order[..cut]),
        prep.task.n_classes(),
        shallow::forest::ForestParams::default(),
        cfg.seed,
    );
    let preds = rf.predict(&rows(&order[cut..]));
    let truth = labels(&order[cut..]);
    (accuracy(&preds, &truth), macro_f1(&preds, &truth, prep.task.n_classes()))
}

// ---------------------------------------------------------------------
// Table 11 — Pcap-Encoder pre-training ablation.

struct Table11;

const TABLE11_VARIANTS: [encoders::pcap_encoder::PcapEncoderVariant; 3] = [
    encoders::pcap_encoder::PcapEncoderVariant::AutoencoderQa,
    encoders::pcap_encoder::PcapEncoderVariant::QaOnly,
    encoders::pcap_encoder::PcapEncoderVariant::Base,
];

impl Experiment for Table11 {
    fn id(&self) -> &'static str {
        "table11"
    }

    fn description(&self) -> &'static str {
        "Pcap-Encoder pre-training ablation"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for variant in TABLE11_VARIANTS {
            for task in PACKET_TASKS {
                cells.push(CellSpec::with_encoder(
                    task.name(),
                    variant.name(),
                    "per-flow/frozen",
                    EncoderSpec::PcapVariant(variant),
                    move |ctx, cfg, enc| {
                        let prep = ctx.prep(task);
                        run_cell(&prep, enc, SplitPolicy::PerFlow, true, cfg).into()
                    },
                ));
            }
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table 11: Pcap-Encoder pre-training ablation (per-flow, frozen)",
            &["VPNapp AC", "VPNapp F1", "TLS120 AC", "TLS120 F1"],
        );
        for (variant, chunk) in TABLE11_VARIANTS.iter().zip(outputs.chunks(PACKET_TASKS.len())) {
            let vals: Vec<String> = chunk.iter().flat_map(ac_f1).collect();
            t.row(variant.name(), &vals);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Table 13 — protocol-filter cleaning statistics.

struct Table13;

const TABLE13_TASKS: [Task; 3] = [Task::VpnBinary, Task::UstcBinary, Task::Tls120];

impl Experiment for Table13 {
    fn id(&self) -> &'static str {
        "table13"
    }

    fn description(&self) -> &'static str {
        "protocol-filter cleaning statistics"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        TABLE13_TASKS
            .into_iter()
            .map(|task| {
                CellSpec::silent(task.name(), "dataset", "clean-report", move |ctx, _cfg| {
                    let prep = ctx.prep(task);
                    CellOutput {
                        lines: vec![format!(
                            "== Table 13: cleaning report for {} ==\n{}",
                            task.dataset().name(),
                            prep.clean_report.to_table()
                        )],
                        ..Default::default()
                    }
                })
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        for out in outputs {
            for line in &out.lines {
                println!("{line}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 1 — headline summary bars on TLS-120.

struct Fig1;

const FIG1_KINDS: [ModelKind; 3] =
    [ModelKind::EtBert, ModelKind::TrafficFormer, ModelKind::PcapEncoder];

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn description(&self) -> &'static str {
        "headline summary (TLS-120)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for kind in FIG1_KINDS {
            for (split, frozen) in [(SplitPolicy::PerPacket, false), (SplitPolicy::PerFlow, true)] {
                cells.push(CellSpec::with_encoder(
                    "TLS-120",
                    kind.name(),
                    setting_str(split, frozen),
                    EncoderSpec::pretrained(kind),
                    move |ctx, cfg, enc| {
                        let prep = ctx.prep(Task::Tls120);
                        run_cell(&prep, enc, split, frozen, cfg).into()
                    },
                ));
            }
        }
        cells.push(CellSpec::silent("TLS-120", "RF", "per-flow", |ctx, cfg| {
            let prep = ctx.prep(Task::Tls120);
            run_shallow(
                &prep,
                ShallowModel::Rf,
                SplitPolicy::PerFlow,
                FeatureConfig::default(),
                cfg,
            )
            .into()
        }));
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut labels: Vec<String> = Vec::new();
        for kind in FIG1_KINDS {
            labels.push(format!("{} (per-packet, unfrozen)", kind.name()));
            labels.push(format!("{} (per-flow, frozen)", kind.name()));
        }
        labels.push("Shallow RF (per-flow)".into());
        let items = bars(labels.into_iter().zip(outputs), acc);
        println!(
            "{}",
            bar_chart(
                "Fig. 1: accuracy on TLS-120 — claimed setting vs proper evaluation",
                &items,
                50
            )
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — 5-NN purity of ET-BERT embeddings, frozen vs unfrozen.

struct Fig4;

fn purity_output(emb: &[Vec<f32>], labels: &[u16]) -> CellOutput {
    let h = knn_purity(emb, labels, 5);
    let mut values: Vec<(String, f64)> = h
        .fraction
        .iter()
        .enumerate()
        .map(|(m, f)| (format!("{m}/5 same-class"), f * 100.0))
        .collect();
    values.push(("__mean".into(), h.mean_purity()));
    CellOutput::values(values)
}

impl Experiment for Fig4 {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn description(&self) -> &'static str {
        "5-NN purity of ET-BERT embeddings, frozen vs unfrozen"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let et_bert = EncoderSpec::pretrained(ModelKind::EtBert);
        vec![
            CellSpec::with_encoder("TLS-120", "ET-BERT", "frozen", et_bert, |ctx, cfg, enc| {
                let prep = ctx.prep(Task::Tls120);
                let n = cfg.max_test.min(1200);
                let (emb, labels) = embeddings_for_purity(&prep, enc, n, cfg.seed);
                purity_output(&emb, &labels)
            })
            .without_record(),
            CellSpec::with_encoder("TLS-120", "ET-BERT", "unfrozen", et_bert, |ctx, cfg, enc| {
                // Fine-tune end-to-end on the per-packet split first,
                // then embed the same sample (the paper's procedure).
                let prep = ctx.prep(Task::Tls120);
                let n = cfg.max_test.min(1200);
                let split = prep.split(
                    SplitPolicy::PerPacket,
                    cfg.train_frac,
                    cfg.max_flow_packets,
                    cfg.seed,
                );
                let sample = CellSample::balanced(prep.task, &prep.data, &split, cfg);
                // Fine-tuning trains in place: a copy, not the shared
                // cached encoder.
                let (enc, _) = fine_tune(
                    enc.clone(),
                    &sample.train,
                    &sample.train_labels,
                    sample.n_classes,
                    cfg,
                    cfg.seed,
                    training_tokens(&prep.data),
                );
                let (emb, labels) = embeddings_for_purity(&prep, &enc, n, cfg.seed);
                purity_output(&emb, &labels)
            })
            .without_record(),
        ]
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        for (name, out) in ["frozen", "unfrozen"].iter().zip(outputs) {
            let mean =
                out.values.iter().find(|(k, _)| k == "__mean").map(|(_, v)| *v).unwrap_or(0.0);
            let items: Vec<(String, f64)> =
                out.values.iter().filter(|(k, _)| k != "__mean").cloned().collect();
            println!(
                "{}",
                bar_chart(
                    &format!(
                        "Fig. 4 ({name}): 5-NN purity of ET-BERT embeddings, TLS-120 (mean {:.2})",
                        mean
                    ),
                    &items,
                    40
                )
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — RF feature importance, per-packet split, TLS-120.

struct Fig5;

impl Experiment for Fig5 {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "RF feature importance, with and without IP"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        [true, false]
            .into_iter()
            .map(|with_ip| {
                let setting = if with_ip { "with IP" } else { "w/o IP" };
                CellSpec::silent("TLS-120", "RF", setting, move |ctx, cfg| {
                    let prep = ctx.prep(Task::Tls120);
                    let r = run_shallow(
                        &prep,
                        ShallowModel::Rf,
                        SplitPolicy::PerPacket,
                        FeatureConfig { with_ip },
                        cfg,
                    );
                    let imp = r.importance.as_ref().expect("rf importance");
                    let names = feature_names();
                    let mut pairs: Vec<(String, f64)> =
                        names.iter().zip(imp).map(|(n, &v)| (n.to_string(), v)).collect();
                    pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
                    pairs.truncate(10);
                    pairs.push(("__accuracy".into(), r.accuracy * 100.0));
                    CellOutput::values(pairs)
                })
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        for (with_ip, out) in [true, false].into_iter().zip(outputs) {
            let acc =
                out.values.iter().find(|(k, _)| k == "__accuracy").map(|(_, v)| *v).unwrap_or(0.0);
            let pairs: Vec<(String, f64)> =
                out.values.iter().filter(|(k, _)| k != "__accuracy").cloned().collect();
            println!(
                "{}",
                bar_chart(
                    &format!(
                        "Fig. 5 ({}): top-10 RF feature importance, per-packet TLS-120 (accuracy {:.1}%)",
                        if with_ip { "with IP" } else { "w/o IP" },
                        acc
                    ),
                    &pairs,
                    40
                )
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 6 — relative training/inference time on VPN-app (per-flow).

struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "relative training/inference time"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let mut cells = vec![CellSpec::silent("VPN-app", "RF", "per-flow", |ctx, cfg| {
            let prep = ctx.prep(Task::VpnApp);
            run_shallow(
                &prep,
                ShallowModel::Rf,
                SplitPolicy::PerFlow,
                FeatureConfig::default(),
                cfg,
            )
            .into()
        })];
        for kind in ModelKind::ALL {
            for frozen in [true, false] {
                let setting = if frozen { "frozen" } else { "unfrozen" };
                cells.push(CellSpec::with_encoder(
                    "VPN-app",
                    kind.name(),
                    setting,
                    EncoderSpec::pretrained(kind),
                    move |ctx, cfg, enc| {
                        let prep = ctx.prep(Task::VpnApp);
                        run_cell(&prep, enc, SplitPolicy::PerFlow, frozen, cfg).into()
                    },
                ));
            }
        }
        cells
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        // Timings here are the in-memory wall-clock values; they are
        // zeroed only in the serialised records.
        let Some(rf) = outputs[0].stats else {
            println!("Fig. 6: the RF baseline cell produced no metrics; no ratios to draw\n");
            return;
        };
        let mut train_items = vec![("RF".to_string(), 1.0)];
        let mut infer_items = vec![("RF".to_string(), 1.0)];
        let mut it = outputs[1..].iter();
        for kind in ModelKind::ALL {
            for frozen in [true, false] {
                let Some(s) = it.next().expect("timing cell").stats else { continue };
                let tag = format!("{} ({})", kind.name(), if frozen { "fro" } else { "unf" });
                train_items.push((tag, s.train_secs / rf.train_secs.max(1e-9)));
                if frozen {
                    infer_items
                        .push((kind.name().to_string(), s.infer_secs / rf.infer_secs.max(1e-9)));
                }
            }
        }
        println!("{}", bar_chart("Fig. 6a: training time relative to RF", &train_items, 40));
        println!("{}", bar_chart("Fig. 6b: inference time relative to RF", &infer_items, 40));
    }
}

// ---------------------------------------------------------------------
// App. A.1.3 — Q&A pre-training accuracy per question.

struct QaExperiment;

impl Experiment for QaExperiment {
    fn id(&self) -> &'static str {
        "qa"
    }

    fn description(&self) -> &'static str {
        "Pcap-Encoder Q&A pre-training accuracy (App. A.1.3)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        vec![CellSpec::silent("pretrain-corpus", "Pcap-Encoder", "qa", |ctx, cfg| {
            let budget = ctx.budget;
            let mut corpus = pretrain_corpus(cfg.seed ^ 0x1a, budget.corpus_flows * 2);
            let mut held = pretrain_corpus(cfg.seed ^ 0x2b, budget.corpus_flows / 3 + 5);
            corrupt_checksums(&mut corpus, 0.25, cfg.seed ^ 0x6e);
            corrupt_checksums(&mut held, 0.25, cfg.seed ^ 0x7f);
            let mut model = EncoderModel::new(ModelKind::PcapEncoder, cfg.seed ^ 0xabc);
            // Heads learn with Adam; a higher lr here only benefits
            // them — the encoder side uses geometry-preserving SGD
            // (DESIGN.md §4b).
            let report = qa_pretrain(
                &mut model,
                &corpus,
                &held,
                budget.qa_epochs * 2,
                budget.lr.max(0.05),
                cfg.seed ^ 0x4d,
            );
            let mut values: Vec<(String, f64)> =
                report.accuracy.iter().map(|(q, a)| (format!("{q:?}"), a * 100.0)).collect();
            values.push(("__mean".into(), report.mean_accuracy() * 100.0));
            CellOutput::values(values)
        })]
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let out = &outputs[0];
        let mean = out.values.iter().find(|(k, _)| k == "__mean").map(|(_, v)| *v).unwrap_or(0.0);
        let items: Vec<(String, f64)> =
            out.values.iter().filter(|(k, _)| k != "__mean").cloned().collect();
        println!(
            "{}",
            bar_chart(
                &format!("App. A.1.3: Q&A held-out accuracy per question (mean {:.1}%)", mean),
                &items,
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// §5 footnote 11 — Repeat vs Padding for packet-level flow embedders.

struct RepeatVsPad;

impl Experiment for RepeatVsPad {
    fn id(&self) -> &'static str {
        "repeat_vs_pad"
    }

    fn description(&self) -> &'static str {
        "packet-input strategy ablation (§5 fn. 11)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let yatc = EncoderSpec::pretrained(ModelKind::YaTc);
        let repeat = CellSpec::with_encoder("VPN-app", "YaTC", "repeat", yatc, |ctx, cfg, enc| {
            let prep = ctx.prep(Task::VpnApp);
            run_cell(&prep, enc, SplitPolicy::PerFlow, true, cfg).into()
        })
        .without_record();
        let pad = CellSpec::with_encoder("VPN-app", "YaTC", "pad", yatc, |ctx, cfg, enc| {
            let prep = ctx.prep(Task::VpnApp);
            frozen_arm(&prep, cfg, token_embedding(&prep, enc, TokenVariant::Padded)).into()
        })
        .without_record()
        .arm_of(&repeat);
        vec![repeat, pad]
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let labels = ["Repeat x5".to_string(), "Pad with zero packets".to_string()];
        println!(
            "{}",
            bar_chart(
                "fn.11 ablation: Repeat vs Padding input strategy (YaTC, VPN-app, frozen)",
                &bars(labels.into_iter().zip(outputs), acc),
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// §6.2 closing remark — balanced vs unbalanced training split.

struct BalanceAblation;

impl Experiment for BalanceAblation {
    fn id(&self) -> &'static str {
        "balance_ablation"
    }

    fn description(&self) -> &'static str {
        "balanced vs unbalanced flow training (§6.2)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let pcap = EncoderSpec::pretrained(ModelKind::PcapEncoder);
        let cell =
            |setting: &'static str,
             run: fn(&RunContext, &CellConfig, &EncoderModel) -> CellOutput| {
                CellSpec::with_encoder("TLS-120", "Pcap-Encoder", setting, pcap, run)
                    .without_record()
            };
        let balanced = cell("balanced", |ctx, cfg, enc| {
            let prep = ctx.prep(Task::Tls120);
            run_cell(&prep, enc, SplitPolicy::PerFlow, true, cfg).into()
        });
        let natural = cell("natural", |ctx, cfg, enc| {
            // The control's protocol, minus balanced undersampling.
            let prep = ctx.prep(Task::Tls120);
            let split =
                prep.split(SplitPolicy::PerFlow, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
            let sample = CellSample::from_pool(prep.task, &prep.data, &split, &split.train, cfg);
            let embed = token_embedding(&prep, enc, TokenVariant::Repeated);
            run_frozen(&sample, cfg, embed).into()
        })
        .arm_of(&balanced);
        vec![balanced, natural]
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let labels = ["balanced undersampling".to_string(), "natural distribution".to_string()];
        println!(
            "{}",
            bar_chart(
                "§6.2 ablation: balanced vs unbalanced training (Pcap-Encoder, TLS-120, macro F1)",
                &bars(labels.into_iter().zip(outputs), f1),
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// App. A.1.2 — bottleneck pooling ablation on frozen Pcap-Encoder.

struct PoolingAblation;

impl Experiment for PoolingAblation {
    fn id(&self) -> &'static str {
        "pooling"
    }

    fn description(&self) -> &'static str {
        "bottleneck pooling ablation (App. A.1.2)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let cell = |mode: PoolingMode| {
            CellSpec::with_encoder(
                "VPN-app",
                "Pcap-Encoder",
                mode.name(),
                EncoderSpec::pretrained(ModelKind::PcapEncoder),
                move |ctx, cfg, enc| {
                    let prep = ctx.prep(Task::VpnApp);
                    let tokens = prep.tokens(enc, TokenVariant::Repeated);
                    let embed = |rows: &[usize]| {
                        pool_batch(&enc.embedding, &gather(&tokens, rows), mode, cfg.seed)
                    };
                    frozen_arm(&prep, cfg, embed).into()
                },
            )
            .without_record()
        };
        // Mean pooling, the paper's choice, is the control; the other
        // modes are its arms. Cells stay in paper order.
        let mean = cell(PoolingMode::Mean);
        PoolingMode::ALL
            .into_iter()
            .map(|mode| match mode {
                PoolingMode::Mean => mean.clone(),
                _ => cell(mode).arm_of(&mean),
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let items = bars(PoolingMode::ALL.iter().map(|m| m.name().to_string()).zip(outputs), f1);
        println!(
            "{}",
            bar_chart(
                "App. A.1.2: bottleneck pooling ablation (Pcap-Encoder frozen, VPN-app, macro F1)",
                &items,
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// §4.1 extension — stricter split policies.

struct AdvancedSplits;

const SPLIT_POLICIES: [&str; 4] = ["per-packet (leaky)", "per-flow", "per-client", "per-time"];

impl Experiment for AdvancedSplits {
    fn id(&self) -> &'static str {
        "advanced_splits"
    }

    fn description(&self) -> &'static str {
        "per-flow vs per-client vs per-time splits (§4.1)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        SPLIT_POLICIES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                CellSpec::silent("VPN-app", "RF", name, move |ctx, cfg| {
                    use dataset::split::{per_client_split, per_time_split};
                    use std::sync::Arc;
                    let prep = ctx.prep(Task::VpnApp);
                    let split = match i {
                        0 => prep.split(
                            SplitPolicy::PerPacket,
                            cfg.train_frac,
                            cfg.max_flow_packets,
                            cfg.seed,
                        ),
                        1 => prep.split(
                            SplitPolicy::PerFlow,
                            cfg.train_frac,
                            cfg.max_flow_packets,
                            cfg.seed,
                        ),
                        2 => Arc::new(per_client_split(&prep.data, cfg.train_frac, cfg.seed)),
                        _ => Arc::new(per_time_split(&prep.data, cfg.train_frac)),
                    };
                    let label_of = |r: &PacketRecord| prep.task.label_of(&prep.data, r);
                    let train = balanced_undersample(&prep.data, &split.train, &label_of, cfg.seed);
                    let train = subsample(&train, cfg.max_train, cfg.seed);
                    let test = subsample(&split.test, cfg.max_test, cfg.seed);
                    if train.is_empty() || test.is_empty() {
                        ctx.obs().warn(
                            "suite",
                            &format!("  advanced_splits {name}: skipped (degenerate partition)"),
                            &[("split", name.into())],
                        );
                        return CellOutput::empty();
                    }
                    let all_feats = prep.features(FeatureConfig::default());
                    let feats = |idx: &[usize]| -> Vec<[f32; shallow::features::N_FEATURES]> {
                        idx.iter().map(|&i| all_feats[i]).collect()
                    };
                    let (xtr, xte) = (feats(&train), feats(&test));
                    fn rows(x: &[[f32; shallow::features::N_FEATURES]]) -> Vec<&[f32]> {
                        x.iter().map(|r| &r[..]).collect()
                    }
                    let ytr: Vec<u16> =
                        train.iter().map(|&i| label_of(&prep.data.records[i])).collect();
                    let yte: Vec<u16> =
                        test.iter().map(|&i| label_of(&prep.data.records[i])).collect();
                    let rf = shallow::forest::RandomForest::fit(
                        &rows(&xtr),
                        &ytr,
                        prep.task.n_classes(),
                        shallow::forest::ForestParams::default(),
                        cfg.seed,
                    );
                    let preds = rf.predict(&rows(&xte));
                    CellOutput::stats(RecordStats::of(
                        accuracy(&preds, &yte),
                        macro_f1(&preds, &yte, prep.task.n_classes()),
                    ))
                })
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let items = bars(SPLIT_POLICIES.iter().map(|name| name.to_string()).zip(outputs), f1);
        println!(
            "{}",
            bar_chart(
                "§4.1 extension: RF macro F1 under increasingly strict splits (VPN-app)",
                &items,
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// Table-1 extension — models the paper does not evaluate.

struct ExtendedModels;

impl Experiment for ExtendedModels {
    fn id(&self) -> &'static str {
        "extended_models"
    }

    fn description(&self) -> &'static str {
        "Table-1 models the paper does not evaluate (PERT, PacRep, PTU)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        ModelKind::EXTENDED
            .into_iter()
            .map(|kind| {
                CellSpec::with_encoder(
                    "VPN-app",
                    kind.name(),
                    "per-flow/frozen",
                    EncoderSpec::pretrained(kind),
                    move |ctx, cfg, enc| {
                        let prep = ctx.prep(Task::VpnApp);
                        run_cell(&prep, enc, SplitPolicy::PerFlow, true, cfg).into()
                    },
                )
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Table-1 extension: all nine analogues, VPN-app (per-flow, frozen)",
            &["AC", "F1"],
        );
        for (kind, out) in ModelKind::EXTENDED.iter().zip(outputs) {
            t.row(kind.name(), &ac_f1(out));
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// Extension — robustness under capture faults.

struct Robustness;

const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

impl Experiment for Robustness {
    fn id(&self) -> &'static str {
        "robustness"
    }

    fn description(&self) -> &'static str {
        "RF accuracy vs capture-fault rate (extension)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        FAULT_RATES
            .into_iter()
            .map(|loss| {
                CellSpec::silent(
                    "USTC-app",
                    "RF",
                    format!("{:.0}% faults", loss * 100.0),
                    move |ctx, cfg| {
                        use traffic_synth::faults::{inject_faults, FaultConfig};
                        let spec =
                            traffic_synth::DatasetSpec::new(Task::UstcApp.dataset(), ctx.seed)
                                .scaled(ctx.scale);
                        let mut trace = spec.generate();
                        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xfa17);
                        inject_faults(&mut trace, FaultConfig::capture_loss(loss), &mut rng);
                        let art = DatasetArtifact::from_trace(trace);
                        let prep =
                            PreparedTask::from_parts(Task::UstcApp, art.data, art.clean, ctx.seed);
                        run_shallow(
                            &prep,
                            ShallowModel::Rf,
                            SplitPolicy::PerFlow,
                            FeatureConfig::default(),
                            cfg,
                        )
                        .into()
                    },
                )
            })
            .collect()
    }

    fn render(&self, _ctx: &RunContext, outputs: &[CellOutput]) {
        let labels = FAULT_RATES.iter().map(|loss| format!("{:.0}% faults", loss * 100.0));
        let items = bars(labels.zip(outputs), f1);
        println!(
            "{}",
            bar_chart(
                "Extension: RF macro F1 on USTC-app vs capture-fault rate (per-flow split)",
                &items,
                40
            )
        );
    }
}

// ---------------------------------------------------------------------
// Extension — int8-quantised frozen encoder (accuracy vs throughput).

/// The int8 serving encoder is an explicit experiment, never a silent
/// substitution: this pits the f32 frozen Pcap-Encoder against its
/// int8-quantised copy on the same task and protocol, so the accuracy
/// cost of quantisation is a recorded, journaled number. The f32 arm is
/// `run_cell`; the int8 arm swaps only the embedding.
/// Throughput (flows/sec) is wall-clock and therefore *render-only* —
/// it never enters [`CellOutput::values`], keeping the journal
/// byte-deterministic.
struct QuantInt8;

const QUANT_VARIANTS: [&str; 2] = ["PcapEnc f32", "PcapEnc int8"];

/// Encoding throughput in kflows/s of the f32 and int8 Pcap-Encoder
/// over the first 512 VPN-app records.
fn encode_rates(ctx: &RunContext) -> [f64; 2] {
    let encoder = ctx.encoder(EncoderSpec::pretrained(ModelKind::PcapEncoder));
    let quant = encoder.quantize();
    let prep = ctx.prep(Task::VpnApp);
    let recs: Vec<&PacketRecord> = prep.data.records.iter().take(512).collect();
    let mut scratch = encoders::EncodeScratch::default();
    let mut enc_out = Tensor::default();
    encoder.encode_packets_into(&recs, &mut scratch, &mut enc_out); // warm scratch
    let t0 = std::time::Instant::now();
    encoder.encode_packets_into(&recs, &mut scratch, &mut enc_out);
    let f32_rate = recs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e3;
    quant.encode_packets_into(&recs, &mut scratch, &mut enc_out); // warm scratch
    let t1 = std::time::Instant::now();
    quant.encode_packets_into(&recs, &mut scratch, &mut enc_out);
    let int8_rate = recs.len() as f64 / t1.elapsed().as_secs_f64().max(1e-9) / 1e3;
    [f32_rate, int8_rate]
}

impl Experiment for QuantInt8 {
    fn id(&self) -> &'static str {
        "quant_int8"
    }

    fn description(&self) -> &'static str {
        "int8-quantised frozen encoder vs f32: accuracy delta + serving throughput (extension)"
    }

    fn cells(&self, _ctx: &RunContext) -> Vec<CellSpec> {
        let pcap = EncoderSpec::pretrained(ModelKind::PcapEncoder);
        let cell =
            |variant: &'static str,
             run: fn(&RunContext, &CellConfig, &EncoderModel) -> CellOutput| {
                CellSpec::with_encoder("VPN-app", variant, "per-flow/frozen", pcap, run)
            };
        let f32_cell = cell(QUANT_VARIANTS[0], |ctx, cfg, enc| {
            let prep = ctx.prep(Task::VpnApp);
            run_cell(&prep, enc, SplitPolicy::PerFlow, true, cfg).into()
        });
        let int8_cell = cell(QUANT_VARIANTS[1], |ctx, cfg, enc| {
            let prep = ctx.prep(Task::VpnApp);
            let tokens = prep.tokens(enc, TokenVariant::Repeated);
            let quant = enc.quantize();
            frozen_arm(&prep, cfg, |rows| quant.encode_tokens(&gather(&tokens, rows))).into()
        })
        .arm_of(&f32_cell);
        vec![f32_cell, int8_cell]
    }

    fn render(&self, ctx: &RunContext, outputs: &[CellOutput]) {
        let mut t = TableBuilder::new(
            "Extension: int8 serving encoder vs f32, VPN-app (per-flow, frozen)",
            &["AC", "F1", "kflows/s"],
        );
        // Throughput is measured here in render — wall-clock must never
        // reach the journaled cell outputs. With no metrics to show
        // there is nothing to build an encoder for.
        let rates = if outputs.iter().any(|o| o.stats.is_some()) {
            encode_rates(ctx).map(|r| format!("{r:.1}"))
        } else {
            ["-".into(), "-".into()]
        };
        for ((name, out), rate) in QUANT_VARIANTS.iter().zip(outputs).zip(rates) {
            let [ac, f1_pct] = ac_f1(out);
            t.row(name, &[ac, f1_pct, rate]);
        }
        println!("{}", t.render());
        if let [Some(fa), Some(fb)] = [outputs[0].stats, outputs[1].stats] {
            println!(
                "int8 accuracy delta vs f32: {:+.2} pts AC, {:+.2} pts F1\n",
                (fb.accuracy - fa.accuracy) * 100.0,
                (fb.macro_f1 - fa.macro_f1) * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::context::Preset;

    /// Every experiment id the pre-engine `repro` match accepted, plus
    /// engine-era additions (`quant_int8`).
    const LEGACY_IDS: [&str; 22] = [
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "table11",
        "table13",
        "fig1",
        "fig4",
        "fig5",
        "fig6",
        "qa",
        "repeat_vs_pad",
        "pooling",
        "advanced_splits",
        "extended_models",
        "robustness",
        "balance_ablation",
        "quant_int8",
    ];

    #[test]
    fn registry_exposes_every_legacy_experiment() {
        let r = default_registry();
        for id in LEGACY_IDS {
            assert!(r.get(id).is_some(), "experiment {id} missing from registry");
        }
        assert_eq!(r.ids().len(), LEGACY_IDS.len(), "no extra or missing experiments");
    }

    #[test]
    fn cell_identities_are_unique_within_each_experiment() {
        // Duplicate (task, model, setting) triples within one experiment
        // would collapse two cells onto one derived seed.
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        for exp in default_registry().iter() {
            let mut seen = std::collections::HashSet::new();
            for cell in exp.cells(&ctx) {
                let key = (cell.task.clone(), cell.model.clone(), cell.setting.clone());
                assert!(seen.insert(key.clone()), "{}: duplicate cell identity {key:?}", exp.id());
            }
        }
    }

    #[test]
    fn ablation_arms_share_their_controls_seed() {
        // An arm seeded from its own setting draws other samples, folds
        // and head initialisation than its control, so the comparison
        // would vary more than the one factor under study.
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let r = default_registry();
        // (experiment, cells, index of the control)
        for (id, n, ctl) in [
            ("repeat_vs_pad", 2, 0),
            ("balance_ablation", 2, 0),
            ("quant_int8", 2, 0),
            ("pooling", 3, 1),
        ] {
            let cells = r.get(id).unwrap().cells(&ctx);
            let seeds: Vec<u64> = cells.iter().map(|c| c.identity(id, &ctx).1.seed).collect();
            assert_eq!(seeds.len(), n, "{id}");
            for seed in &seeds {
                assert_eq!(*seed, seeds[ctl], "{id}: arms and control must share a seed");
            }
            let control = &cells[ctl];
            let own = ctx.cell_seed(id, &control.task, &control.model, &control.setting);
            assert_eq!(seeds[ctl], own, "{id}: the control keeps its own seed");
        }
        let pooling = r.get("pooling").unwrap().cells(&ctx);
        assert_eq!(pooling[1].setting, PoolingMode::Mean.name(), "mean pooling is the control");
        // Cells that are no ablation arm keep the seed of their own
        // identity; Fig. 6 is regenerated from exactly these.
        for cell in r.get("fig6").unwrap().cells(&ctx) {
            let own = ctx.cell_seed("fig6", &cell.task, &cell.model, &cell.setting);
            assert_eq!(cell.identity("fig6", &ctx).1.seed, own);
        }
    }

    #[test]
    fn fig6_cells_declare_their_encoders_and_pretrain_first() {
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let cells = default_registry().get("fig6").unwrap().cells(&ctx);
        let needs: Vec<Option<EncoderSpec>> = cells.iter().map(|c| c.encoder).collect();
        assert_eq!(needs[0], None, "the RF baseline needs no encoder");
        for (i, kind) in ModelKind::ALL.iter().enumerate() {
            for cell in &cells[1 + 2 * i..3 + 2 * i] {
                assert_eq!(cell.model, kind.name());
                assert_eq!(cell.encoder, Some(EncoderSpec::pretrained(*kind)), "{}", cell.model);
            }
        }
        // A parallel pool starts every pre-training before the RF cell.
        let order = crate::engine::runner::first_consumer_order(&needs);
        assert_eq!(order, vec![1, 3, 5, 7, 9, 11, 0, 2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn every_experiment_renders_cells_that_produced_nothing() {
        // A failed or never-run cell reaches render as an empty output;
        // the table must show it as missing, not panic or rebuild it.
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        for exp in default_registry().iter() {
            let outputs = vec![CellOutput::empty(); exp.cells(&ctx).len()];
            exp.render(&ctx, &outputs);
        }
    }

    #[test]
    fn pad_arm_fed_repeated_tokens_is_the_repeat_arm() {
        let prep = PreparedTask::build(Task::UstcApp, 15, 0.1);
        let enc = EncoderModel::new(ModelKind::YaTc, 6);
        let cfg = CellConfig {
            frozen_epochs: 4,
            kfolds: 2,
            max_train: 300,
            max_test: 300,
            ..Default::default()
        };
        let arm = frozen_arm(&prep, &cfg, token_embedding(&prep, &enc, TokenVariant::Repeated));
        let repeat = run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &cfg);
        assert_eq!(arm.accuracy.to_bits(), repeat.accuracy.to_bits());
        assert_eq!(arm.macro_f1.to_bits(), repeat.macro_f1.to_bits());
        assert_eq!(arm.folds, repeat.folds);
    }

    #[test]
    fn grid_experiments_declare_consistent_shapes() {
        let ctx = RunContext::from_preset(Preset::Fast, 42, None);
        let r = default_registry();
        assert_eq!(r.get("table3").unwrap().cells(&ctx).len(), 6 * 6);
        assert_eq!(r.get("table4").unwrap().cells(&ctx).len(), 6 * 2 * 2);
        assert_eq!(r.get("table5").unwrap().cells(&ctx).len(), 6 * 2 * 2);
    }
}
