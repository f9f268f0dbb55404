//! Shallow baselines over Table-12 features (Table 8, Fig. 5) plus the
//! MLP baseline row, run under the same split/balance protocol as the
//! encoders.

use crate::experiment::{frozen_head, CellConfig, CellSample, SplitPolicy};
use crate::metrics::{accuracy, macro_f1};
use crate::pipeline::PreparedTask;
use nn::Tensor;
use shallow::features::{FeatureConfig, N_FEATURES};
use shallow::forest::{ForestParams, RandomForest};
use shallow::gbdt::{GbdtParams, GradientBoosting, GrowthPolicy};
use std::time::Instant;

/// Which shallow model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShallowModel {
    /// Random forest.
    Rf,
    /// Depth-wise gradient boosting ("XGBoost-like").
    XgbLike,
    /// Leaf-wise gradient boosting ("LightGBM-like").
    LgbmLike,
    /// 2-layer MLP on the same features.
    Mlp,
}

impl ShallowModel {
    /// All four baselines in Table-8 order.
    pub const ALL: [ShallowModel; 4] =
        [ShallowModel::Rf, ShallowModel::XgbLike, ShallowModel::LgbmLike, ShallowModel::Mlp];

    /// Table-8 row name.
    pub fn name(&self) -> &'static str {
        match self {
            ShallowModel::Rf => "RF",
            ShallowModel::XgbLike => "XGBoost",
            ShallowModel::LgbmLike => "LightGBM",
            ShallowModel::Mlp => "MLP",
        }
    }
}

/// Result of one shallow run.
#[derive(Debug, Clone)]
pub struct ShallowResult {
    /// Test accuracy.
    pub accuracy: f64,
    /// Test macro-F1.
    pub macro_f1: f64,
    /// Training wall-clock seconds.
    pub train_secs: f64,
    /// Inference wall-clock seconds.
    pub infer_secs: f64,
    /// Normalised feature importance (random forest only).
    pub importance: Option<Vec<f64>>,
}

/// Run a shallow baseline on a task under the given split policy
/// (Table 8 uses per-flow; Fig. 5 uses per-packet).
pub fn run_shallow(
    prep: &PreparedTask,
    model: ShallowModel,
    split_policy: SplitPolicy,
    feat_cfg: FeatureConfig,
    cfg: &CellConfig,
) -> ShallowResult {
    let split = prep.split(split_policy, cfg.train_frac, cfg.max_flow_packets, cfg.seed);
    let sample = CellSample::balanced(prep.task, &prep.data, &split, cfg);
    let (train_y, test_y) = (&sample.train_labels, &sample.test_labels);
    // Feature rows for the whole dataset come from the artifact cache
    // (computed once per dataset + config, shared by every model/cell);
    // each run only gathers its own index subsets.
    let all_feats = prep.features(feat_cfg);
    let feats =
        |idx: &[usize]| -> Vec<[f32; N_FEATURES]> { idx.iter().map(|&i| all_feats[i]).collect() };
    let train_x = feats(&sample.train);
    let test_x = feats(&sample.test);
    let train_rows: Vec<&[f32]> = train_x.iter().map(|r| r.as_slice()).collect();
    let n_classes = sample.n_classes;

    let mut importance = None;
    let t0 = Instant::now();
    let (train_secs, preds, infer_secs) = match model {
        ShallowModel::Rf => {
            let params = ForestParams {
                n_trees: 30,
                sample_size: Some(train_rows.len().min(3000)),
                ..Default::default()
            };
            let rf = RandomForest::fit(&train_rows, train_y, n_classes, params, cfg.seed);
            importance = Some(rf.feature_importance());
            let train_secs = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let mut preds = Vec::with_capacity(test_x.len());
            rf.predict_into(&test_x, &mut Vec::new(), &mut preds);
            (train_secs, preds, t1.elapsed().as_secs_f64())
        }
        ShallowModel::XgbLike | ShallowModel::LgbmLike => {
            let params = GbdtParams {
                policy: if model == ShallowModel::XgbLike {
                    GrowthPolicy::DepthWise
                } else {
                    GrowthPolicy::LeafWise
                },
                rounds: if n_classes > 30 { 4 } else { 8 },
                ..Default::default()
            };
            let gb = GradientBoosting::fit(&train_rows, train_y, n_classes, params);
            let train_secs = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let mut preds = Vec::with_capacity(test_x.len());
            gb.predict_into(&test_x, &mut Vec::new(), &mut preds);
            (train_secs, preds, t1.elapsed().as_secs_f64())
        }
        ShallowModel::Mlp => {
            let to_tensor = |x: &[[f32; N_FEATURES]]| Tensor {
                rows: x.len(),
                cols: N_FEATURES,
                data: x.iter().flatten().copied().collect(),
            };
            let run = frozen_head(
                || to_tensor(&train_x),
                train_y,
                || to_tensor(&test_x),
                n_classes,
                cfg,
                cfg.seed,
            );
            (run.train_secs, run.preds, run.infer_secs)
        }
    };
    ShallowResult {
        accuracy: accuracy(&preds, test_y),
        macro_f1: macro_f1(&preds, test_y, n_classes),
        train_secs,
        infer_secs,
        importance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::Task;

    fn tiny_cfg() -> CellConfig {
        CellConfig { max_train: 600, max_test: 600, frozen_epochs: 8, ..Default::default() }
    }

    #[test]
    fn rf_solves_binary_task_well() {
        let prep = PreparedTask::build(Task::UstcBinary, 21, 0.15);
        let r = run_shallow(
            &prep,
            ShallowModel::Rf,
            SplitPolicy::PerFlow,
            FeatureConfig::default(),
            &tiny_cfg(),
        );
        assert!(r.accuracy > 0.85, "RF accuracy {}", r.accuracy);
        let imp = r.importance.expect("rf importance");
        assert_eq!(imp.len(), N_FEATURES);
    }

    #[test]
    fn all_models_run_on_app_task() {
        let prep = PreparedTask::build(Task::UstcApp, 22, 0.1);
        for m in ShallowModel::ALL {
            let r =
                run_shallow(&prep, m, SplitPolicy::PerFlow, FeatureConfig::default(), &tiny_cfg());
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", m.name());
            assert!(r.accuracy > 1.0 / 20.0, "{} below chance: {}", m.name(), r.accuracy);
        }
    }

    #[test]
    fn without_ip_hurts() {
        let prep = PreparedTask::build(Task::UstcApp, 23, 0.1);
        let with_ip = run_shallow(
            &prep,
            ShallowModel::Rf,
            SplitPolicy::PerFlow,
            FeatureConfig { with_ip: true },
            &tiny_cfg(),
        );
        let without = run_shallow(
            &prep,
            ShallowModel::Rf,
            SplitPolicy::PerFlow,
            FeatureConfig { with_ip: false },
            &tiny_cfg(),
        );
        assert!(
            with_ip.macro_f1 >= without.macro_f1 - 0.02,
            "removing IP should not help: {} vs {}",
            with_ip.macro_f1,
            without.macro_f1
        );
    }
}
