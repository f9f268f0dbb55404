//! Flow-level experiments (§6.2, Table 9): classify whole flows
//! (first five packets) rather than single packets. Pcap-Encoder,
//! being packet-level, uses majority voting over its per-packet
//! predictions (frozen only), exactly as the paper describes.

use crate::experiment::{
    frozen_head, run_frozen, run_unfrozen, CellConfig, CellResult, CellSample,
};
use crate::metrics::{accuracy, macro_f1, majority};
use crate::pipeline::PreparedTask;
use dataset::record::PacketRecord;
use encoders::model::{EncoderModel, ModelKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// A flow sample: up to five packet indices plus the task label.
#[derive(Debug, Clone)]
struct FlowSample {
    packets: Vec<usize>,
    label: u16,
}

/// Collect flows with ≥ `min_packets` packets and split per-flow into
/// train/test. `selector` picks which packets represent the flow:
/// first-five for most models, median bursts for netFound (§6.2).
fn flow_samples(
    prep: &PreparedTask,
    min_packets: usize,
    selector: &dyn Fn(&[usize]) -> Vec<usize>,
) -> Vec<FlowSample> {
    prep.data
        .flows()
        .into_iter()
        .filter(|(_, idxs)| idxs.len() >= min_packets)
        .map(|(_, idxs)| {
            let label = prep.task.label_of(&prep.data, &prep.data.records[idxs[0]]);
            FlowSample { packets: selector(&idxs), label }
        })
        .collect()
}

/// First five packets — the input the paper uses for YaTC, NetMamba
/// and TrafficFormer (§6.2).
fn first_five(idxs: &[usize]) -> Vec<usize> {
    idxs.iter().copied().take(5).collect()
}

/// netFound's selection (§6.2): up to 12 median bursts, up to 6
/// packets around each burst's median packet.
fn netfound_packets(prep: &PreparedTask, idxs: &[usize]) -> Vec<usize> {
    let bursts = dataset::burst::segment_flow(&prep.data, idxs, 1.0);
    let sel = dataset::burst::netfound_selection(&bursts, 12, 6);
    let flat: Vec<usize> = sel.into_iter().flatten().collect();
    if flat.is_empty() {
        first_five(idxs)
    } else {
        flat
    }
}

type PacketSelector<'a> = Box<dyn Fn(&[usize]) -> Vec<usize> + 'a>;

/// The paper's per-model flow input selection.
fn selector_for(kind: ModelKind, prep: &PreparedTask) -> PacketSelector<'_> {
    if kind == ModelKind::NetFound {
        Box::new(move |idxs| netfound_packets(prep, idxs))
    } else {
        Box::new(first_five)
    }
}

fn balanced_flow_split(
    flows: &[FlowSample],
    train_frac: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_label: HashMap<u16, Vec<usize>> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        by_label.entry(f.label).or_default().push(i);
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut labels: Vec<_> = by_label.into_iter().collect();
    labels.sort_by_key(|(l, _)| *l);
    // First split per class, then balance the training side by
    // undersampling to the minority class (§6.2).
    let mut per_class_train: Vec<Vec<usize>> = Vec::new();
    for (_, mut idxs) in labels {
        idxs.shuffle(&mut rng);
        let cut = (((idxs.len() as f64) * train_frac).round() as usize)
            .clamp(1, idxs.len().saturating_sub(1).max(1));
        per_class_train.push(idxs[..cut].to_vec());
        test.extend_from_slice(&idxs[cut..]);
    }
    let min = per_class_train.iter().map(Vec::len).min().unwrap_or(0);
    for mut idxs in per_class_train {
        idxs.shuffle(&mut rng);
        idxs.truncate(min);
        train.extend(idxs);
    }
    (train, test)
}

/// The per-flow sample of a flow cell: a balanced training side and
/// the remaining test flows, indices into `flows`.
fn flow_sample(prep: &PreparedTask, flows: &[FlowSample], cfg: &CellConfig) -> CellSample {
    let (train, test) = balanced_flow_split(flows, cfg.train_frac, cfg.seed);
    let labels = |ids: &[usize]| ids.iter().map(|&i| flows[i].label).collect();
    CellSample {
        train_labels: labels(&train),
        test_labels: labels(&test),
        train,
        test,
        n_classes: prep.task.n_classes(),
        fold_salt: 0x3f,
    }
}

/// Run one flow-level cell for a flow embedder (not Pcap-Encoder).
pub fn run_flow_cell(
    prep: &PreparedTask,
    encoder: &EncoderModel,
    frozen: bool,
    cfg: &CellConfig,
) -> CellResult {
    assert_ne!(
        encoder.kind,
        ModelKind::PcapEncoder,
        "use run_flow_cell_majority_vote for Pcap-Encoder"
    );
    let selector = selector_for(encoder.kind, prep);
    let flows = flow_samples(prep, 5, &selector);
    let sample = flow_sample(prep, &flows, cfg);
    let packets = |i: usize| -> Vec<&PacketRecord> {
        flows[i].packets.iter().map(|&p| &prep.data.records[p]).collect()
    };
    let embed = |enc: &EncoderModel, ids: &[usize]| {
        enc.encode_flows(&ids.iter().map(|&i| packets(i)).collect::<Vec<_>>())
    };
    if frozen {
        run_frozen(&sample, cfg, |ids| embed(encoder, ids))
    } else {
        let tokens = |enc: &EncoderModel, ids: &[usize], _epoch: u64| {
            ids.iter().map(|&i| enc.tokenize_flow(&packets(i))).collect()
        };
        run_unfrozen(&sample, encoder, cfg, embed, tokens)
    }
}

/// Pcap-Encoder's flow classification: train its packet-level frozen
/// classifier on the training flows' packets, then majority-vote the
/// first five packets of each test flow (§6.2). The head is fold 0's
/// of the frozen protocol, trained on every training flow.
pub fn run_flow_cell_majority_vote(
    prep: &PreparedTask,
    encoder: &EncoderModel,
    cfg: &CellConfig,
) -> CellResult {
    let flows = flow_samples(prep, 5, &|idxs: &[usize]| first_five(idxs));
    let sample = flow_sample(prep, &flows, cfg);
    let packets = |ids: &[usize]| -> Vec<&PacketRecord> {
        ids.iter().flat_map(|&i| flows[i].packets.iter().map(|&p| &prep.data.records[p])).collect()
    };
    let train_labels: Vec<u16> = sample
        .train
        .iter()
        .flat_map(|&i| std::iter::repeat_n(flows[i].label, flows[i].packets.len()))
        .collect();
    let run = frozen_head(
        || encoder.encode_packets(&packets(&sample.train)),
        &train_labels,
        || encoder.encode_packets(&packets(&sample.test)),
        sample.n_classes,
        cfg,
        cfg.seed,
    );
    let mut votes = run.preds.as_slice();
    let preds: Vec<u16> = sample
        .test
        .iter()
        .map(|&i| {
            let (flow, rest) = votes.split_at(flows[i].packets.len());
            votes = rest;
            majority(flow)
        })
        .collect();
    let acc = accuracy(&preds, &sample.test_labels);
    let f1 = macro_f1(&preds, &sample.test_labels, sample.n_classes);
    CellResult {
        accuracy: acc,
        macro_f1: f1,
        train_secs: run.train_secs,
        infer_secs: run.infer_secs,
        folds: vec![(acc, f1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::Task;

    fn tiny_cfg() -> CellConfig {
        CellConfig { frozen_epochs: 6, unfrozen_epochs: 3, kfolds: 2, ..Default::default() }
    }

    #[test]
    fn flow_cell_runs() {
        let prep = PreparedTask::build(Task::UstcBinary, 9, 0.15);
        let enc = EncoderModel::new(ModelKind::YaTc, 1);
        let cell = run_flow_cell(&prep, &enc, true, &tiny_cfg());
        assert!((0.0..=1.0).contains(&cell.accuracy));
        assert!(cell.macro_f1 <= 1.0);
    }

    #[test]
    fn majority_vote_runs() {
        let prep = PreparedTask::build(Task::UstcBinary, 10, 0.15);
        let enc = EncoderModel::new(ModelKind::PcapEncoder, 2);
        let cell = run_flow_cell_majority_vote(&prep, &enc, &tiny_cfg());
        assert!((0.0..=1.0).contains(&cell.accuracy));
    }

    #[test]
    fn majority_vote_is_deterministic_within_a_process() {
        // Each new HashMap gets fresh hash keys, so a vote whose ties
        // follow map order differs between two calls on the same inputs.
        let prep = PreparedTask::build(Task::UstcApp, 14, 0.15);
        let enc = EncoderModel::new(ModelKind::PcapEncoder, 5);
        let cfg = CellConfig { frozen_epochs: 2, ..tiny_cfg() };
        let first = run_flow_cell_majority_vote(&prep, &enc, &cfg);
        for _ in 0..3 {
            let again = run_flow_cell_majority_vote(&prep, &enc, &cfg);
            assert_eq!(again.accuracy.to_bits(), first.accuracy.to_bits());
            assert_eq!(again.macro_f1.to_bits(), first.macro_f1.to_bits());
            assert_eq!(again.folds, first.folds);
        }
    }

    #[test]
    #[should_panic(expected = "majority_vote")]
    fn flow_cell_rejects_pcap_encoder() {
        let prep = PreparedTask::build(Task::UstcBinary, 11, 0.1);
        let enc = EncoderModel::new(ModelKind::PcapEncoder, 3);
        let _ = run_flow_cell(&prep, &enc, true, &tiny_cfg());
    }

    #[test]
    fn netfound_selector_uses_bursts() {
        let prep = PreparedTask::build(Task::UstcBinary, 13, 0.15);
        let (_, idxs) = prep.data.flows().into_iter().max_by_key(|(_, v)| v.len()).unwrap();
        let sel = netfound_packets(&prep, &idxs);
        assert!(!sel.is_empty());
        assert!(sel.len() <= 72, "netFound max input is 12 bursts x 6 packets");
        let set: std::collections::HashSet<usize> = idxs.iter().copied().collect();
        assert!(sel.iter().all(|i| set.contains(i)));
    }

    #[test]
    fn flow_split_keeps_classes_in_both() {
        let prep = PreparedTask::build(Task::UstcBinary, 12, 0.15);
        let flows = flow_samples(&prep, 5, &|idxs: &[usize]| first_five(idxs));
        let (train, test) = balanced_flow_split(&flows, 0.75, 1);
        let tl: std::collections::HashSet<u16> = train.iter().map(|&i| flows[i].label).collect();
        let sl: std::collections::HashSet<u16> = test.iter().map(|&i| flows[i].label).collect();
        assert_eq!(tl.len(), 2);
        assert_eq!(sl.len(), 2);
        // training side balanced
        let c0 = train.iter().filter(|&&i| flows[i].label == 0).count();
        let c1 = train.iter().filter(|&&i| flows[i].label == 1).count();
        assert_eq!(c0, c1);
    }
}
