//! Small-scale assertions of the paper's headline phenomena. These are
//! the acceptance criteria of DESIGN.md §8, run at miniature scale so
//! the suite stays fast; the `repro` binary reproduces them at full
//! scale.

use debunk::dataset::Task;
use debunk::debunk_core::experiment::{run_cell, CellConfig, FlowIdAblation, SplitPolicy};
use debunk::debunk_core::pipeline::PreparedTask;
use debunk::debunk_core::shallow_baselines::{run_shallow, ShallowModel};
use debunk::encoders::{EncoderModel, ModelKind};
use debunk::shallow::features::FeatureConfig;

fn cfg() -> CellConfig {
    CellConfig {
        frozen_epochs: 10,
        unfrozen_epochs: 8,
        kfolds: 2,
        max_train: 2500,
        max_test: 1500,
        ..Default::default()
    }
}

/// Phenomenon 1 (Tables 3 vs 5): the per-packet split plus unfrozen
/// training inflates accuracy relative to the honest per-flow frozen
/// protocol.
#[test]
fn per_packet_unfrozen_inflates_accuracy() {
    let prep = PreparedTask::build(Task::UstcApp, 101, 0.3);
    let enc = EncoderModel::new(ModelKind::EtBert, 1);
    let c = cfg();
    let sweet = run_cell(&prep, &enc, SplitPolicy::PerPacket, false, &c);
    let honest = run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &c);
    assert!(
        sweet.accuracy > honest.accuracy + 0.1,
        "per-packet unfrozen {:.3} should clearly beat per-flow frozen {:.3}",
        sweet.accuracy,
        honest.accuracy
    );
}

/// Phenomenon 2 (Table 6): randomising SeqNo/AckNo/timestamps at test
/// time collapses the per-packet-split model.
#[test]
fn flow_id_randomisation_collapses_shortcut() {
    let prep = PreparedTask::build(Task::UstcApp, 102, 0.3);
    let enc = EncoderModel::new(ModelKind::EtBert, 2);
    let c = cfg();
    let original = run_cell(&prep, &enc, SplitPolicy::PerPacket, false, &c);
    let ablated = run_cell(
        &prep,
        &enc,
        SplitPolicy::PerPacket,
        false,
        &CellConfig { flow_id_ablation: FlowIdAblation::TestOnly, ..c },
    );
    assert!(
        ablated.accuracy < original.accuracy,
        "removing implicit flow IDs must hurt: {:.3} !< {:.3}",
        ablated.accuracy,
        original.accuracy
    );
}

/// Phenomenon 4 (Table 8): shallow models with header features solve
/// the per-flow task well, and removing IP features hurts them.
#[test]
fn shallow_models_strong_and_ip_dependent() {
    let prep = PreparedTask::build(Task::UstcApp, 103, 0.3);
    let c = cfg();
    let base = run_shallow(
        &prep,
        ShallowModel::Rf,
        SplitPolicy::PerFlow,
        FeatureConfig { with_ip: true },
        &c,
    );
    let no_ip = run_shallow(
        &prep,
        ShallowModel::Rf,
        SplitPolicy::PerFlow,
        FeatureConfig { with_ip: false },
        &c,
    );
    assert!(base.macro_f1 > 0.5, "RF with header features should be strong: {}", base.macro_f1);
    assert!(
        base.macro_f1 >= no_ip.macro_f1 - 0.02,
        "IP features must not hurt: {} vs {}",
        base.macro_f1,
        no_ip.macro_f1
    );
}

/// Phenomenon 5 (Fig. 5): under per-packet split, implicit flow IDs
/// (SeqNo/AckNo halves) dominate RF feature importance once explicit
/// IDs (IP octets) are removed.
#[test]
fn importance_shifts_to_implicit_ids_without_ip() {
    let prep = PreparedTask::build(Task::UstcApp, 104, 0.3);
    let c = cfg();
    let no_ip = run_shallow(
        &prep,
        ShallowModel::Rf,
        SplitPolicy::PerPacket,
        FeatureConfig { with_ip: false },
        &c,
    );
    let imp = no_ip.importance.expect("rf importance");
    // SEQ HI (19), SEQ LO (20), ACK HI (21), ACK LO (22), TSVAL (28,29)
    let implicit: f64 = [19, 20, 21, 22, 28, 29, 30, 31].iter().map(|&i| imp[i]).sum();
    assert!(
        implicit > 0.2,
        "implicit flow IDs should dominate importance without IP, got {implicit:.3}"
    );
}

/// Metrics sanity under the whole runner: accuracy and macro-F1 agree
/// on degenerate single-class predictions.
#[test]
fn runner_metrics_within_bounds() {
    let prep = PreparedTask::build(Task::VpnBinary, 105, 0.2);
    let enc = EncoderModel::new(ModelKind::NetFound, 5);
    let cell = run_cell(&prep, &enc, SplitPolicy::PerFlow, true, &cfg());
    assert!((0.0..=1.0).contains(&cell.accuracy));
    assert!((0.0..=1.0).contains(&cell.macro_f1));
    assert!(cell.macro_f1 <= cell.accuracy + 0.25, "macro-F1 should not wildly exceed accuracy");
}
