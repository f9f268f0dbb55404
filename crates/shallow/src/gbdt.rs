//! Gradient-boosted decision trees for multiclass classification.
//!
//! One regression tree per class per round, fit to the softmax
//! gradient. Two growth policies mirror the Table-8 baselines:
//! depth-wise ("XGBoost-like") and leaf-wise with a leaf budget
//! ("LightGBM-like").
//!
//! Feature columns are presorted once per `fit` ([`crate::presort`])
//! and shared by every tree of every round; each node's split search
//! is a monotone sweep over its sorted `[lo, hi)` segment, and the
//! per-node index/threshold buffers are reused across nodes.

use crate::presort::Presorted;
use crate::tree::{walk, FlatTree};

/// Leaf-growth policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Grow level-by-level to `max_depth` (XGBoost default).
    DepthWise,
    /// Repeatedly split the highest-gain leaf up to `max_leaves`
    /// (LightGBM default).
    LeafWise,
}

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Boosting rounds.
    pub rounds: usize,
    /// Learning rate (shrinkage).
    pub eta: f32,
    /// Depth bound (depth-wise) .
    pub max_depth: usize,
    /// Leaf bound (leaf-wise).
    pub max_leaves: usize,
    /// Growth policy.
    pub policy: GrowthPolicy,
    /// Candidate thresholds per feature per node.
    pub max_thresholds: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            rounds: 8,
            eta: 0.4,
            max_depth: 4,
            max_leaves: 15,
            policy: GrowthPolicy::DepthWise,
            max_thresholds: 12,
        }
    }
}

/// A splittable leaf owning segment `[lo, hi)` of the presorted columns.
struct LeafCandidate {
    lo: usize,
    hi: usize,
    depth: usize,
    gain: f64,
    feature: usize,
    threshold: f32,
}

/// Reusable split-search buffers shared by every node of every tree.
struct SplitScratch {
    vals: Vec<f32>,
    cands: Vec<f32>,
}

fn leaf_value(seg: &[u32], grad: &[f32], hess: &[f32]) -> f32 {
    let mut g = 0.0f32;
    let mut h = 0.0f32;
    for &i in seg {
        g += grad[i as usize];
        h += hess[i as usize];
    }
    -g / (h + 1.0) // lambda = 1 regularisation
}

#[allow(clippy::too_many_arguments)]
fn best_split(
    x: &[&[f32]],
    pre: &Presorted,
    lo: usize,
    hi: usize,
    grad: &[f32],
    hess: &[f32],
    max_thresholds: usize,
    s: &mut SplitScratch,
) -> Option<(f64, usize, f32)> {
    let score = |g: f32, h: f32| f64::from(g) * f64::from(g) / (f64::from(h) + 1.0);
    let mut gt = 0.0f32;
    let mut ht = 0.0f32;
    for &i in pre.seg(0, lo, hi) {
        gt += grad[i as usize];
        ht += hess[i as usize];
    }
    let parent = score(gt, ht);
    let mut best: Option<(f64, usize, f32)> = None;
    let n_features = x[0].len();
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        let seg = pre.seg(f, lo, hi);
        // unique segment values in ascending order (segment is sorted)
        s.vals.clear();
        for &i in seg {
            let v = x[i as usize][f];
            if s.vals.last().is_none_or(|&l| v != l) {
                s.vals.push(v);
            }
        }
        if s.vals.len() < 2 {
            continue;
        }
        s.cands.clear();
        let step = (s.vals.len() / max_thresholds).max(1);
        let mut t = step;
        while t < s.vals.len() {
            s.cands.push((s.vals[t - 1] + s.vals[t]) / 2.0);
            t += step;
        }
        // Candidates ascend, so one monotone pass over the sorted
        // segment accumulates the left-side gradient sums in turn.
        let mut gl = 0.0f32;
        let mut hl = 0.0f32;
        let mut pos = 0usize;
        for ci in 0..s.cands.len() {
            let threshold = s.cands[ci];
            if threshold.is_nan() {
                // nothing satisfies `v <= NaN`: hl stays 0 and the
                // hl > 1e-6 guard always rejected an empty left side
                continue;
            }
            while pos < seg.len() {
                let i = seg[pos] as usize;
                if x[i][f] <= threshold {
                    gl += grad[i];
                    hl += hess[i];
                    pos += 1;
                } else {
                    break;
                }
            }
            let gr = gt - gl;
            let hr = ht - hl;
            if hl > 1e-6 && hr > 1e-6 {
                let gain = score(gl, hl) + score(gr, hr) - parent;
                if best.is_none_or(|(bg, _, _)| gain > bg) && gain > 1e-9 {
                    best = Some((gain, f, threshold));
                }
            }
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn seed_candidate(
    x: &[&[f32]],
    pre: &Presorted,
    lo: usize,
    hi: usize,
    depth: usize,
    grad: &[f32],
    hess: &[f32],
    params: &GbdtParams,
    s: &mut SplitScratch,
) -> LeafCandidate {
    if depth < params.max_depth {
        if let Some((gain, feature, threshold)) =
            best_split(x, pre, lo, hi, grad, hess, params.max_thresholds, s)
        {
            return LeafCandidate { lo, hi, depth, gain, feature, threshold };
        }
    }
    LeafCandidate { lo, hi, depth, gain: 0.0, feature: 0, threshold: 0.0 }
}

/// Fit one regression tree. Its splits come first, in the order they
/// were taken, then its leaves, in frontier order; the export relies
/// on that layout.
fn fit_reg_tree(
    x: &[&[f32]],
    grad: &[f32],
    hess: &[f32],
    params: &GbdtParams,
    pre: &mut Presorted,
    s: &mut SplitScratch,
) -> FlatTree<f32> {
    let n = x.len();
    let mut tree = FlatTree::default();
    if x[0].is_empty() {
        // no feature columns: a single leaf over everything, in row order
        let rows: Vec<u32> = (0..n as u32).collect();
        tree.push_leaf(leaf_value(&rows, grad, hess));
        return tree;
    }
    pre.reset();
    // Frontier of splittable leaves; parent linkage via (node, is_left).
    let mut frontier: Vec<(LeafCandidate, Option<(u32, bool)>)> = Vec::new();
    frontier.push((seed_candidate(x, pre, 0, n, 0, grad, hess, params, s), None));
    let leaf_budget = match params.policy {
        GrowthPolicy::DepthWise => usize::MAX,
        GrowthPolicy::LeafWise => params.max_leaves,
    };
    let mut splits_done = 0usize;
    loop {
        // pick next candidate: leaf-wise takes max gain; depth-wise FIFO.
        let pick = match params.policy {
            GrowthPolicy::DepthWise => frontier.iter().position(|(c, _)| c.gain > 0.0),
            GrowthPolicy::LeafWise => frontier
                .iter()
                .enumerate()
                .filter(|(_, (c, _))| c.gain > 0.0)
                .max_by(|a, b| a.1 .0.gain.total_cmp(&b.1 .0.gain))
                .map(|(i, _)| i),
        };
        let stop = pick.is_none() || splits_done + frontier.len() >= leaf_budget;
        if stop {
            break;
        }
        let (cand, parent) = frontier.swap_remove(pick.expect("checked above"));
        let node_id = tree.push_split(cand.feature as u16, cand.threshold);
        if let Some((p, is_left)) = parent {
            tree.set_child(p, is_left, node_id);
        }
        // Frontier segments are pairwise disjoint, so splitting this one
        // in place never disturbs another pending candidate.
        let mid = pre.split(x, cand.feature, cand.threshold, cand.lo, cand.hi);
        splits_done += 1;
        let l = seed_candidate(x, pre, cand.lo, mid, cand.depth + 1, grad, hess, params, s);
        let r = seed_candidate(x, pre, mid, cand.hi, cand.depth + 1, grad, hess, params, s);
        frontier.push((l, Some((node_id, true))));
        frontier.push((r, Some((node_id, false))));
    }
    if tree.payload.is_empty() {
        tree.push_leaf(leaf_value(pre.seg(0, 0, n), grad, hess));
        return tree;
    }
    // turn remaining frontier entries into leaves
    for (cand, parent) in frontier {
        let leaf = tree.push_leaf(leaf_value(pre.seg(0, cand.lo, cand.hi), grad, hess));
        let (p, is_left) = parent.expect("non-root frontier nodes have parents");
        tree.set_child(p, is_left, leaf);
    }
    tree.seal(x[0].len()).expect("fit links every split forward");
    tree
}

/// A trained gradient-boosting classifier.
pub struct GradientBoosting {
    /// Round-major: round `r`'s tree for class `c` is `trees[r * n_classes + c]`.
    trees: Vec<FlatTree<f32>>,
    n_classes: usize,
    eta: f32,
}

impl GradientBoosting {
    /// Fit on feature rows and labels.
    pub fn fit(x: &[&[f32]], y: &[u16], n_classes: usize, params: GbdtParams) -> GradientBoosting {
        assert!(!x.is_empty(), "empty training set");
        assert!(x[0].len() <= 1 << 16, "at most 65536 feature columns");
        let n = x.len();
        // one presort shared by every tree of every round
        let mut pre = Presorted::new(x);
        let mut scratch = SplitScratch { vals: Vec::with_capacity(n), cands: Vec::new() };
        let mut scores = vec![0.0f32; n * n_classes];
        let mut probs = vec![0.0f32; n * n_classes];
        let mut grad = vec![0.0f32; n];
        let mut hess = vec![0.0f32; n];
        let mut trees = Vec::with_capacity(params.rounds * n_classes);
        for _ in 0..params.rounds {
            // softmax probabilities
            for i in 0..n {
                let s = &scores[i * n_classes..(i + 1) * n_classes];
                let p = &mut probs[i * n_classes..(i + 1) * n_classes];
                let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for (pv, &sv) in p.iter_mut().zip(s) {
                    *pv = (sv - m).exp();
                    sum += *pv;
                }
                for pv in p.iter_mut() {
                    *pv /= sum;
                }
            }
            for c in 0..n_classes {
                for i in 0..n {
                    let p = probs[i * n_classes + c];
                    grad[i] = p - f32::from(u8::from(usize::from(y[i]) == c));
                    hess[i] = p * (1.0 - p);
                }
                let tree = fit_reg_tree(x, &grad, &hess, &params, &mut pre, &mut scratch);
                walk(std::iter::once(&tree), x, |i, _, v| {
                    scores[i * n_classes + c] += params.eta * v
                });
                trees.push(tree);
            }
        }
        GradientBoosting { trees, n_classes, eta: params.eta }
    }

    /// Class scores of `rows` into `scores` (row-major, `n_classes` per
    /// row) and their argmax labels into `out`. Each row adds
    /// `eta * value` round by round, class by class, so its scores do
    /// not depend on the rows batched with it.
    pub fn predict_into<R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        scores: &mut Vec<f32>,
        out: &mut Vec<u16>,
    ) {
        let nc = self.n_classes;
        scores.clear();
        scores.resize(rows.len() * nc, 0.0);
        walk(self.trees.iter(), rows, |row, k, v| scores[row * nc + k % nc] += self.eta * v);
        out.clear();
        out.extend(scores.chunks_exact(nc).map(|s| {
            s.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c as u16)
                .unwrap_or(0)
        }));
    }

    /// Class scores for one row.
    pub fn scores_one(&self, x: &[f32]) -> Vec<f32> {
        let mut scores = Vec::new();
        self.predict_into(&[x], &mut scores, &mut Vec::new());
        scores
    }

    /// Predicted label for one row.
    pub fn predict_one(&self, x: &[f32]) -> u16 {
        self.predict(&[x])[0]
    }

    /// Predicted labels for many rows.
    pub fn predict(&self, x: &[&[f32]]) -> Vec<u16> {
        let mut out = Vec::new();
        self.predict_into(x, &mut Vec::new(), &mut out);
        out
    }
}

/// The export keeps the layout of a tree with separate leaf storage:
/// splits as `(feature, threshold, left, right)`, where a negative link
/// `-(k + 1)` names leaf value `k`, then the leaf values.
fn write_reg_tree(w: &mut nn::envelope::PayloadWriter, tree: &FlatTree<f32>) {
    let n_splits = (0..tree.payload.len()).take_while(|&i| tree.split(i).is_some()).count();
    let link = |c: u32| if c as usize >= n_splits { !(c - n_splits as u32) } else { c };
    w.u8(u8::from(n_splits == 0));
    w.u64(n_splits as u64);
    for i in 0..n_splits {
        let (feature, threshold, left, right) = tree.split(i).expect("splits come first");
        w.u32(u32::from(feature));
        w.f32(threshold);
        w.u32(link(left));
        w.u32(link(right));
    }
    w.f32s(&tree.payload[n_splits..]);
}

fn read_reg_tree(r: &mut nn::envelope::PayloadReader) -> Result<FlatTree<f32>, String> {
    let root_is_leaf = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(format!("bad root_is_leaf tag {t}")),
    };
    let n = r.u64()? as usize;
    if n > 1 << 24 {
        return Err(format!("implausible regression tree size {n}"));
    }
    let mut tree = FlatTree::default();
    for i in 0..n {
        let feature = r.u32()?;
        let feature = u16::try_from(feature)
            .map_err(|_| format!("node {i}: split feature {feature} out of range"))?;
        let id = tree.push_split(feature, r.f32()?);
        for is_left in [true, false] {
            // Leaf value k, linked as -(k + 1), lands at node n + k. A
            // split link must point forward to a split; any other lands
            // out of range, and `seal` refuses it.
            let link = r.u32()? as i32;
            let child = match usize::try_from(link) {
                Ok(l) if l > i && l < n => l,
                Ok(_) => usize::MAX,
                Err(_) => n + !link as usize,
            };
            tree.set_child(id, is_left, child as u32);
        }
    }
    let leaf_values = r.f32s()?;
    if root_is_leaf != (n == 0) || (root_is_leaf && leaf_values.len() != 1) {
        let m = leaf_values.len();
        return Err(format!("tree with {n} splits, {m} values, root_is_leaf {root_is_leaf}"));
    }
    for v in leaf_values {
        tree.push_leaf(v);
    }
    tree.seal(1 << 16)?;
    Ok(tree)
}

impl nn::frozen::FrozenArtifact for GradientBoosting {
    const KIND: &'static str = "gbdt";

    fn write_payload(&self, w: &mut nn::envelope::PayloadWriter) {
        w.u32(self.n_classes as u32);
        w.f32(self.eta);
        w.u64((self.trees.len() / self.n_classes) as u64);
        for tree in &self.trees {
            write_reg_tree(w, tree);
        }
    }

    fn read_payload(r: &mut nn::envelope::PayloadReader) -> Result<GradientBoosting, String> {
        let n_classes = r.u32()? as usize;
        if n_classes == 0 || n_classes > 1 << 16 {
            return Err(format!("implausible class count {n_classes}"));
        }
        let eta = r.f32()?;
        let n_rounds = r.u64()? as usize;
        if n_rounds > 1 << 16 {
            return Err(format!("implausible round count {n_rounds}"));
        }
        let trees =
            (0..n_rounds * n_classes).map(|_| read_reg_tree(r)).collect::<Result<_, _>>()?;
        Ok(GradientBoosting { trees, n_classes, eta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize) -> (Vec<[f32; 3]>, Vec<u16>) {
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c: u16 = rng.gen_range(0..3);
            x.push([
                f32::from(c) + rng.gen_range(-0.4..0.4),
                rng.gen_range(0.0..1.0),
                f32::from(c) * 0.5 + rng.gen_range(-0.3..0.3),
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn depthwise_learns() {
        let (xv, y) = dataset(300);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let m = GradientBoosting::fit(&x[..200], &y[..200], 3, GbdtParams::default());
        let preds = m.predict(&x[200..]);
        let acc = preds.iter().zip(&y[200..]).filter(|(p, t)| p == t).count() as f64 / 100.0;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn leafwise_learns() {
        let (xv, y) = dataset(300);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let params = GbdtParams { policy: GrowthPolicy::LeafWise, ..Default::default() };
        let m = GradientBoosting::fit(&x[..200], &y[..200], 3, params);
        let preds = m.predict(&x[200..]);
        let acc = preds.iter().zip(&y[200..]).filter(|(p, t)| p == t).count() as f64 / 100.0;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn constant_features_dont_crash() {
        let xv = [[1.0f32, 1.0, 1.0]; 10];
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let y: Vec<u16> = (0..10).map(|i| u16::from(i % 2 == 0)).collect();
        let m = GradientBoosting::fit(&x, &y, 2, GbdtParams::default());
        let _ = m.predict(&x);
    }

    #[test]
    fn frozen_round_trip_scores_bitwise_identically() {
        use nn::frozen::FrozenArtifact;
        let (xv, y) = dataset(150);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        for policy in [GrowthPolicy::DepthWise, GrowthPolicy::LeafWise] {
            let m = GradientBoosting::fit(&x, &y, 3, GbdtParams { policy, ..Default::default() });
            let bytes = m.to_frozen_bytes();
            assert_eq!(bytes, m.to_frozen_bytes(), "byte-stable encode");
            let back = GradientBoosting::from_frozen_bytes(&bytes).expect("round-trip");
            for row in &x {
                assert_eq!(back.scores_one(row), m.scores_one(row), "{policy:?}");
            }
            assert_eq!(back.predict(&x), m.predict(&x));
        }
    }

    #[test]
    fn corrupt_frozen_gbdt_is_refused() {
        use nn::frozen::FrozenArtifact;
        let (xv, y) = dataset(60);
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let m = GradientBoosting::fit(&x, &y, 3, GbdtParams { rounds: 2, ..Default::default() });
        let good = m.to_frozen_bytes();
        for offset in [0usize, 9, good.len() / 3, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0x11;
            assert!(
                GradientBoosting::from_frozen_bytes(&bad).is_err(),
                "flip at {offset} must be refused"
            );
        }
    }

    #[test]
    fn binary_task_works() {
        let (xv, y3) = dataset(200);
        let y: Vec<u16> = y3.iter().map(|&c| u16::from(c == 2)).collect();
        let x: Vec<&[f32]> = xv.iter().map(|r| r.as_slice()).collect();
        let m = GradientBoosting::fit(&x[..150], &y[..150], 2, GbdtParams::default());
        let preds = m.predict(&x[150..]);
        let acc = preds.iter().zip(&y[150..]).filter(|(p, t)| p == t).count() as f64 / 50.0;
        assert!(acc > 0.8, "accuracy {acc}");
    }
}
