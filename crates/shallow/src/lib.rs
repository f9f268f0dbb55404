//! # shallow
//!
//! The shallow ML baselines the paper pits against representation
//! learning (§6.1, Table 8, Fig. 5): hand-crafted header features
//! (Table 12), CART decision trees, a bagged Random Forest with Gini
//! feature importance, gradient-boosted trees (depth-wise "XGBoost-like"
//! and leaf-wise "LightGBM-like" growth), a k-NN classifier, and the
//! 5-NN embedding-purity analysis of Fig. 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod flow_features;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod presort;
pub mod purity;
pub mod tree;

pub use features::{extract_features, feature_names, FeatureConfig, N_FEATURES};
pub use forest::RandomForest;
pub use gbdt::{GradientBoosting, GrowthPolicy};
pub use knn::{KnnClassifier, KnnScratch};
pub use tree::DecisionTree;
