//! CART decision tree with Gini impurity.
//!
//! Supports feature subsampling per node (for random forests), bounded
//! depth, and quantile-limited threshold search so training stays fast
//! at benchmark scale.
//!
//! Feature columns are presorted once per fit ([`crate::presort`]);
//! every node then finds its split with a monotone sweep over its
//! sorted segment instead of re-sorting and re-scanning per candidate.
//! The produced tree is exactly the one the per-node search yields:
//! same candidate thresholds, same tie-breaking, same RNG consumption.

use crate::presort::Presorted;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features examined per node (`None` = all).
    pub max_features: Option<usize>,
    /// Candidate thresholds per feature per node.
    pub max_thresholds: usize,
    /// Extremely-randomised mode (ExtraTrees): draw one random
    /// threshold per candidate feature instead of searching quantiles.
    pub extra_random: bool,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 24,
            min_samples_split: 4,
            max_features: None,
            max_thresholds: 24,
            extra_random: false,
        }
    }
}

/// Rows one batch walk moves through a tree together.
const LANES: usize = 16;

/// One node of a compiled tree, 16 bytes. A leaf links to itself with
/// threshold +∞, so a walk that steps past it stays put.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f32,
    feature: u16,
    left: u32,
    right: u32,
}

/// A tree as one flat node array, the leaf payload (a CART label or a
/// GBDT value) in a parallel array, and the longest root-to-leaf path.
/// Children always come after their parent.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatTree<P> {
    nodes: Vec<Node>,
    pub(crate) payload: Vec<P>,
    depth: u32,
}

impl<P: Copy + Default> FlatTree<P> {
    pub(crate) fn push_leaf(&mut self, value: P) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { threshold: f32::INFINITY, feature: 0, left: id, right: id });
        self.payload.push(value);
        id
    }

    /// A split whose children [`FlatTree::set_child`] links later.
    pub(crate) fn push_split(&mut self, feature: u16, threshold: f32) -> u32 {
        self.payload.push(P::default());
        self.nodes.push(Node { threshold, feature, left: 0, right: 0 });
        self.nodes.len() as u32 - 1
    }

    pub(crate) fn set_child(&mut self, node: u32, is_left: bool, child: u32) {
        let n = &mut self.nodes[node as usize];
        *(if is_left { &mut n.left } else { &mut n.right }) = child;
    }

    /// `(feature, threshold, left, right)` of node `i`, `None` for a leaf.
    pub(crate) fn split(&self, i: usize) -> Option<(u16, f32, u32, u32)> {
        let n = self.nodes[i];
        (n.left as usize != i).then_some((n.feature, n.threshold, n.left, n.right))
    }

    /// Check every link and feature and record the depth. Links that
    /// only point forward make the tree acyclic, and one pass in index
    /// order then finds the longest path.
    pub(crate) fn seal(&mut self, n_features: usize) -> Result<(), String> {
        let n = self.nodes.len();
        let mut depth = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            let (l, r) = (node.left as usize, node.right as usize);
            if l == i && r == i {
                continue;
            }
            if l <= i || r <= i || l >= n || r >= n {
                return Err(format!("node {i}: bad child links {l}/{r} of {n}"));
            }
            if usize::from(node.feature) >= n_features {
                let f = node.feature;
                return Err(format!("split feature {f} out of range (n_features {n_features})"));
            }
            for c in [l, r] {
                depth[c] = depth[c].max(depth[i] + 1);
            }
        }
        self.depth = depth.into_iter().max().unwrap_or(0);
        Ok(())
    }
}

/// Walk `rows` through `trees`, [`LANES`] rows at a time, and call
/// `f(row, tree, leaf payload)` for every pair. Each round moves every
/// row one step, `i = if x[f] <= t { left } else { right }`, so the
/// rows' loads overlap instead of each waiting on a mispredicted
/// branch; a NaN compares false and goes right. A tree's walk stops
/// once no row moved, or after `depth` rounds.
pub(crate) fn walk<'a, P: Copy + 'a, R: AsRef<[f32]>>(
    trees: impl Iterator<Item = &'a FlatTree<P>> + Clone,
    rows: &[R],
    mut f: impl FnMut(usize, usize, P),
) {
    let mut at = [0u32; LANES];
    for (c, chunk) in rows.chunks(LANES).enumerate() {
        let at = &mut at[..chunk.len()];
        for (k, tree) in trees.clone().enumerate() {
            at.fill(0);
            for _ in 0..tree.depth {
                let mut moved = false;
                for (i, row) in at.iter_mut().zip(chunk) {
                    let n = tree.nodes[*i as usize];
                    let x = row.as_ref()[usize::from(n.feature)];
                    let next = if x <= n.threshold { n.left } else { n.right };
                    moved |= next != *i;
                    *i = next;
                }
                if !moved {
                    break;
                }
            }
            for (lane, &i) in at.iter().enumerate() {
                f(c * LANES + lane, k, tree.payload[i as usize]);
            }
        }
    }
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) tree: FlatTree<u16>,
    /// Total Gini-impurity decrease credited to each feature.
    pub importance: Vec<f64>,
}

fn rng_float(rng: &mut StdRng) -> f32 {
    use rand::Rng;
    rng.gen_range(0.0..1.0)
}

fn gini(counts: &[u32], total: u32) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = f64::from(total);
    1.0 - counts.iter().map(|&c| (f64::from(c) / t).powi(2)).sum::<f64>()
}

/// Reusable per-fit search buffers shared by every node of a tree.
struct Scratch {
    pre: Presorted,
    feats: Vec<usize>,
    vals: Vec<f32>,
    cands: Vec<f32>,
    counts: Vec<u32>,
    lc: Vec<u32>,
    rc: Vec<u32>,
}

impl Scratch {
    fn new(x: &[&[f32]], n_classes: usize) -> Scratch {
        Scratch {
            pre: Presorted::new(x),
            feats: Vec::new(),
            vals: Vec::with_capacity(x.len()),
            cands: Vec::new(),
            counts: vec![0u32; n_classes],
            lc: vec![0u32; n_classes],
            rc: vec![0u32; n_classes],
        }
    }
}

fn majority_label(counts: &[u32]) -> u16 {
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(l, _)| l as u16).unwrap_or(0)
}

impl DecisionTree {
    /// Fit a tree on feature rows `x` (all the same length) and labels.
    pub fn fit(
        x: &[&[f32]],
        y: &[u16],
        n_classes: usize,
        params: TreeParams,
        seed: u64,
    ) -> DecisionTree {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "empty training set");
        let n_features = x[0].len();
        assert!(n_features <= 1 << 16, "at most 65536 feature columns");
        let mut tree =
            DecisionTree { tree: FlatTree::default(), importance: vec![0.0; n_features] };
        let mut rng = StdRng::seed_from_u64(seed);
        if n_features == 0 {
            // No columns to split on: a single majority leaf.
            let mut counts = vec![0u32; n_classes];
            for &l in y {
                counts[usize::from(l)] += 1;
            }
            tree.tree.push_leaf(majority_label(&counts));
        } else {
            let mut s = Scratch::new(x, n_classes);
            tree.build(x, y, 0, x.len(), 0, params, &mut s, &mut rng);
        }
        tree.tree.seal(n_features).expect("fit links every split forward");
        tree
    }

    /// Grow the node owning segment `[lo, hi)` of the presorted columns.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &[&[f32]],
        y: &[u16],
        lo: usize,
        hi: usize,
        depth: usize,
        params: TreeParams,
        s: &mut Scratch,
        rng: &mut StdRng,
    ) -> u32 {
        s.counts.fill(0);
        for &i in s.pre.seg(0, lo, hi) {
            s.counts[usize::from(y[i as usize])] += 1;
        }
        let total = (hi - lo) as u32;
        let node_gini = gini(&s.counts, total);
        let pure = s.counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= params.max_depth || hi - lo < params.min_samples_split {
            return self.tree.push_leaf(majority_label(&s.counts));
        }
        // choose candidate features
        let n_features = x[0].len();
        s.feats.clear();
        s.feats.extend(0..n_features);
        if let Some(k) = params.max_features {
            s.feats.shuffle(rng);
            s.feats.truncate(k.max(1));
        }
        // best split search
        let mut best: Option<(usize, f32, f64)> = None; // (feature, threshold, weighted gini)
        for fi in 0..s.feats.len() {
            let f = s.feats[fi];
            // unique segment values in ascending order (the segment is
            // already sorted; NaNs sort last and each compares unequal,
            // so every NaN survives — matching sort + dedup semantics)
            s.vals.clear();
            for &i in s.pre.seg(f, lo, hi) {
                let v = x[i as usize][f];
                if s.vals.last().is_none_or(|&l| v != l) {
                    s.vals.push(v);
                }
            }
            if s.vals.len() < 2 {
                continue;
            }
            s.cands.clear();
            if params.extra_random {
                // ExtraTrees: a single uniform threshold in the range
                let lo_v = s.vals[0];
                let hi_v = *s.vals.last().expect("non-empty");
                s.cands.push(lo_v + (hi_v - lo_v) * rng_float(rng));
            } else {
                let step = (s.vals.len() / params.max_thresholds).max(1);
                let mut t = step;
                while t < s.vals.len() {
                    s.cands.push((s.vals[t - 1] + s.vals[t]) / 2.0);
                    t += step;
                }
            }
            // Candidates ascend, so one monotone pass over the sorted
            // segment counts the left side of every candidate in turn.
            s.lc.fill(0);
            let mut lt = 0u32;
            let mut pos = 0usize;
            let seg = s.pre.seg(f, lo, hi);
            for ci in 0..s.cands.len() {
                let threshold = s.cands[ci];
                if threshold.is_nan() {
                    // nothing satisfies `v <= NaN`: an empty left side
                    // was always rejected by the lt > 0 guard
                    continue;
                }
                while pos < seg.len() {
                    let i = seg[pos] as usize;
                    if x[i][f] <= threshold {
                        s.lc[usize::from(y[i])] += 1;
                        lt += 1;
                        pos += 1;
                    } else {
                        break;
                    }
                }
                let rt = total - lt;
                if lt > 0 && rt > 0 {
                    for (r, (&c, &l)) in s.rc.iter_mut().zip(s.counts.iter().zip(&s.lc)) {
                        *r = c - l;
                    }
                    let w = (f64::from(lt) * gini(&s.lc, lt) + f64::from(rt) * gini(&s.rc, rt))
                        / f64::from(total);
                    if best.is_none_or(|(_, _, bw)| w < bw) {
                        best = Some((f, threshold, w));
                    }
                }
            }
        }
        let Some((feature, threshold, w)) = best else {
            return self.tree.push_leaf(majority_label(&s.counts));
        };
        let decrease = (node_gini - w) * f64::from(total);
        if decrease <= 1e-12 {
            return self.tree.push_leaf(majority_label(&s.counts));
        }
        self.importance[feature] += decrease;
        let mid = s.pre.split(x, feature, threshold, lo, hi);
        let node_id = self.tree.push_split(feature as u16, threshold);
        let left = self.build(x, y, lo, mid, depth + 1, params, s, rng);
        let right = self.build(x, y, mid, hi, depth + 1, params, s, rng);
        self.tree.set_child(node_id, true, left);
        self.tree.set_child(node_id, false, right);
        node_id
    }

    /// Labels of `rows` into `out`, walked 16 rows at a time.
    pub fn predict_into<R: AsRef<[f32]>>(&self, rows: &[R], out: &mut Vec<u16>) {
        out.clear();
        out.resize(rows.len(), 0);
        walk(std::iter::once(&self.tree), rows, |row, _, label| out[row] = label);
    }

    /// Predict the label of one feature row.
    pub fn predict_one(&self, x: &[f32]) -> u16 {
        self.predict(&[x])[0]
    }

    /// Predict labels for many rows.
    pub fn predict(&self, x: &[&[f32]]) -> Vec<u16> {
        let mut out = Vec::new();
        self.predict_into(x, &mut out);
        out
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.tree.nodes.len()
    }
}

impl nn::frozen::FrozenArtifact for DecisionTree {
    const KIND: &'static str = "tree";

    fn write_payload(&self, w: &mut nn::envelope::PayloadWriter) {
        w.u64(self.tree.payload.len() as u64);
        for (i, &label) in self.tree.payload.iter().enumerate() {
            match self.tree.split(i) {
                None => {
                    w.u8(0);
                    w.u16(label);
                }
                Some((feature, threshold, left, right)) => {
                    w.u8(1);
                    w.u32(u32::from(feature));
                    w.f32(threshold);
                    w.u32(left);
                    w.u32(right);
                }
            }
        }
        w.f64s(&self.importance);
    }

    fn read_payload(r: &mut nn::envelope::PayloadReader) -> Result<DecisionTree, String> {
        let n = r.u64()? as usize;
        if n == 0 || n > 1 << 24 {
            return Err(format!("implausible tree size {n}"));
        }
        let mut tree = FlatTree::default();
        for i in 0..n {
            match r.u8()? {
                0 => {
                    tree.push_leaf(r.u16()?);
                }
                1 => {
                    let feature = r.u32()?;
                    let feature = u16::try_from(feature)
                        .map_err(|_| format!("node {i}: split feature {feature} out of range"))?;
                    let id = tree.push_split(feature, r.f32()?);
                    let (left, right) = (r.u32()?, r.u32()?);
                    // a split linked to itself would read back as a leaf
                    if left == id || right == id {
                        return Err(format!("node {i}: split links to itself"));
                    }
                    tree.set_child(id, true, left);
                    tree.set_child(id, false, right);
                }
                t => return Err(format!("node {i}: unknown tag {t}")),
            }
        }
        let importance = r.f64s()?;
        tree.seal(importance.len())?;
        Ok(DecisionTree { tree, importance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[[f32; 2]]) -> Vec<&[f32]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn separable_data_perfect() {
        let data = [[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]];
        let x = rows(&data);
        let y = [0u16, 0, 1, 1];
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), 1);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn nested_structure_needs_depth_two() {
        // Label 1 only in the corner x0>0.5 AND x1>0.5 — needs 2 levels,
        // and the first split has positive Gini gain (unlike XOR, which
        // greedy CART legitimately cannot start on).
        let data = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.9, 0.9], [0.1, 0.9]];
        let x = rows(&data);
        let y = [0u16, 0, 0, 1, 1, 0];
        let params = TreeParams { min_samples_split: 2, ..Default::default() };
        let t = DecisionTree::fit(&x, &y, 2, params, 1);
        assert_eq!(t.predict(&x), y);
        let shallow =
            DecisionTree::fit(&x, &y, 2, TreeParams { max_depth: 0, ..Default::default() }, 1);
        assert_eq!(shallow.n_nodes(), 1, "depth-0 tree is a single leaf");
    }

    #[test]
    fn xor_defeats_greedy_cart() {
        // Both XOR features have zero first-split Gini gain, so greedy
        // CART yields a single majority leaf — documented behaviour.
        let data = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let x = rows(&data);
        let y = [0u16, 1, 1, 0];
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), 1);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn importance_credits_informative_feature() {
        // Feature 0 decides the label; feature 1 is noise.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            let c = u16::from(i % 2 == 0);
            data.push([f32::from(c) * 10.0, (i % 7) as f32]);
            labels.push(c);
        }
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let t = DecisionTree::fit(&x, &labels, 2, TreeParams::default(), 2);
        assert!(t.importance[0] > t.importance[1] * 10.0);
    }

    #[test]
    fn constant_features_give_leaf() {
        let data = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]];
        let x = rows(&data);
        let y = [0u16, 1, 0];
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), 3);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_one(&[1.0, 1.0]), 0, "majority label");
    }

    #[test]
    fn extra_random_mode_learns_separable_data() {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = u16::from(i % 2 == 0);
            data.push([f32::from(c) * 5.0 + (i % 5) as f32 * 0.1, (i % 7) as f32]);
            labels.push(c);
        }
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let params = TreeParams { extra_random: true, ..Default::default() };
        let t = DecisionTree::fit(&x, &labels, 2, params, 3);
        let preds = t.predict(&x);
        let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(acc >= 55, "extra-random tree accuracy {acc}/60");
    }

    #[test]
    fn extra_random_differs_from_exact_search() {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let c = (i % 3) as u16;
            data.push([f32::from(c) + (i % 4) as f32 * 0.2, (i % 9) as f32]);
            labels.push(c);
        }
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let exact = DecisionTree::fit(&x, &labels, 3, TreeParams::default(), 7);
        let random = DecisionTree::fit(
            &x,
            &labels,
            3,
            TreeParams { extra_random: true, ..Default::default() },
            7,
        );
        // they may agree on predictions but generally differ in shape
        assert!(exact.n_nodes() > 0 && random.n_nodes() > 0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_input_panics() {
        let x: Vec<&[f32]> = Vec::new();
        let y: Vec<u16> = Vec::new();
        let _ = DecisionTree::fit(&x, &y, 2, TreeParams::default(), 1);
    }

    #[test]
    fn frozen_round_trip_is_bitwise_exact() {
        use nn::frozen::FrozenArtifact;
        let data = [[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1], [0.5, 0.4], [0.6, 0.7]];
        let x = rows(&data);
        let y = [0u16, 0, 1, 1, 0, 1];
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), 5);
        let bytes = t.to_frozen_bytes();
        assert_eq!(bytes, t.to_frozen_bytes(), "byte-stable encode");
        let back = DecisionTree::from_frozen_bytes(&bytes).expect("round-trip");
        assert_eq!(back.predict(&x), t.predict(&x));
        assert_eq!(back.n_nodes(), t.n_nodes());
        assert_eq!(back.importance, t.importance);
    }

    #[test]
    fn corrupt_frozen_tree_is_refused() {
        use nn::frozen::FrozenArtifact;
        let data = [[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]];
        let x = rows(&data);
        let t = DecisionTree::fit(&x, &[0, 0, 1, 1], 2, TreeParams::default(), 1);
        let good = t.to_frozen_bytes();
        for offset in 0..good.len() {
            let mut bad = good.clone();
            bad[offset] ^= 0x20;
            assert!(
                DecisionTree::from_frozen_bytes(&bad).is_err(),
                "flip at {offset} must be refused"
            );
        }
    }
}
