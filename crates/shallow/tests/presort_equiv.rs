//! The presorted-column tree fit must reproduce the naive per-node
//! CART search exactly: same splits, same thresholds, same Gini
//! importance, verified against an inline reference implementation.
//! The compiled trees' batch walk must reproduce the naive node-by-node
//! walk on any row, NaN and infinities included: CART labels against
//! the reference tree, GBDT scores bit for bit against a walk over the
//! exported nodes.

use nn::envelope::{open, PayloadReader};
use nn::frozen::{FrozenArtifact, FROZEN_MAGIC, FROZEN_VERSION};
use proptest::prelude::*;
use shallow::forest::{ForestParams, RandomForest};
use shallow::gbdt::{GbdtParams, GradientBoosting, GrowthPolicy};
use shallow::tree::{DecisionTree, TreeParams};

// ---- old naive reference implementation (pre-presort) ----

fn gini(counts: &[u32], total: u32) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = f64::from(total);
    1.0 - counts.iter().map(|&c| (f64::from(c) / t).powi(2)).sum::<f64>()
}

#[derive(Clone)]
enum Node {
    Leaf { label: u16 },
    Split { feature: usize, threshold: f32, left: usize, right: usize },
}

struct RefTree {
    n_nodes: usize,
    importance: Vec<f64>,
    preds: Vec<u16>,
    nodes: Vec<Node>,
}

/// The naive walk: follow one row node by node until a leaf.
fn ref_walk(nodes: &[Node], x: &[f32]) -> u16 {
    let mut n = 0usize;
    loop {
        match &nodes[n] {
            Node::Leaf { label } => return *label,
            Node::Split { feature, threshold, left, right } => {
                n = if x[*feature] <= *threshold { *left } else { *right };
            }
        }
    }
}

fn ref_fit(
    x: &[&[f32]],
    y: &[u16],
    n_classes: usize,
    params: TreeParams,
    grid: &[&[f32]],
) -> RefTree {
    struct B<'a> {
        x: &'a [&'a [f32]],
        y: &'a [u16],
        n_classes: usize,
        params: TreeParams,
        nodes: Vec<Node>,
        importance: Vec<f64>,
    }
    impl B<'_> {
        fn majority(&self, idx: &[usize]) -> u16 {
            let mut counts = vec![0u32; self.n_classes];
            for &i in idx {
                counts[usize::from(self.y[i])] += 1;
            }
            counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(l, _)| l as u16).unwrap_or(0)
        }
        fn build(&mut self, idx: Vec<usize>, depth: usize) -> usize {
            let node_id = self.nodes.len();
            let mut counts = vec![0u32; self.n_classes];
            for &i in &idx {
                counts[usize::from(self.y[i])] += 1;
            }
            let total = idx.len() as u32;
            let node_gini = gini(&counts, total);
            let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
            if pure || depth >= self.params.max_depth || idx.len() < self.params.min_samples_split {
                let label = self.majority(&idx);
                self.nodes.push(Node::Leaf { label });
                return node_id;
            }
            let n_features = self.x[0].len();
            let feats: Vec<usize> = (0..n_features).collect();
            let mut best: Option<(usize, f32, f64)> = None;
            let mut vals: Vec<f32> = Vec::new();
            for &f in &feats {
                vals.clear();
                vals.extend(idx.iter().map(|&i| self.x[i][f]));
                vals.sort_by(f32::total_cmp);
                vals.dedup();
                if vals.len() < 2 {
                    continue;
                }
                let step = (vals.len() / self.params.max_thresholds).max(1);
                let candidates: Vec<f32> = (step..vals.len())
                    .step_by(step)
                    .map(|t| (vals[t - 1] + vals[t]) / 2.0)
                    .collect();
                for threshold in candidates {
                    let mut lc = vec![0u32; self.n_classes];
                    let mut rc = vec![0u32; self.n_classes];
                    for &i in &idx {
                        if self.x[i][f] <= threshold {
                            lc[usize::from(self.y[i])] += 1;
                        } else {
                            rc[usize::from(self.y[i])] += 1;
                        }
                    }
                    let lt: u32 = lc.iter().sum();
                    let rt: u32 = rc.iter().sum();
                    if lt > 0 && rt > 0 {
                        let w = (f64::from(lt) * gini(&lc, lt) + f64::from(rt) * gini(&rc, rt))
                            / f64::from(total);
                        if best.is_none_or(|(_, _, bw)| w < bw) {
                            best = Some((f, threshold, w));
                        }
                    }
                }
            }
            let Some((feature, threshold, w)) = best else {
                let label = self.majority(&idx);
                self.nodes.push(Node::Leaf { label });
                return node_id;
            };
            let decrease = (node_gini - w) * f64::from(total);
            if decrease <= 1e-12 {
                let label = self.majority(&idx);
                self.nodes.push(Node::Leaf { label });
                return node_id;
            }
            self.importance[feature] += decrease;
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.into_iter().partition(|&i| self.x[i][feature] <= threshold);
            self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
            let left = self.build(li, depth + 1);
            let right = self.build(ri, depth + 1);
            if let Node::Split { left: l, right: r, .. } = &mut self.nodes[node_id] {
                *l = left;
                *r = right;
            }
            node_id
        }
    }
    let mut b = B { x, y, n_classes, params, nodes: Vec::new(), importance: vec![0.0; x[0].len()] };
    b.build((0..x.len()).collect(), 0);
    RefTree {
        n_nodes: b.nodes.len(),
        importance: b.importance.clone(),
        preds: grid.iter().map(|r| ref_walk(&b.nodes, r)).collect(),
        nodes: b.nodes,
    }
}

fn lcg(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32) / ((1u64 << 24) as f32)
}

#[test]
fn presorted_tree_matches_naive_reference_exactly() {
    let mut st = 12345u64;
    for case in 0..20 {
        let n = 40 + case * 13;
        let n_classes = 2 + case % 4;
        let mut data: Vec<[f32; 5]> = Vec::new();
        let mut y: Vec<u16> = Vec::new();
        for _ in 0..n {
            let c = (lcg(&mut st) * n_classes as f32) as u16 % n_classes as u16;
            // quantised features to force ties/duplicates, one noise col
            data.push([
                f32::from(c) + (lcg(&mut st) * 8.0).floor() * 0.25,
                (lcg(&mut st) * 4.0).floor(),
                f32::from(c) * 0.5 - (lcg(&mut st) * 6.0).floor() * 0.1,
                1.0, // constant column
                lcg(&mut st),
            ]);
            y.push(c);
        }
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let params = TreeParams {
            max_depth: 2 + case % 8,
            min_samples_split: 2 + case % 5,
            max_features: None,
            max_thresholds: 3 + case % 24,
            extra_random: false,
        };
        let t = DecisionTree::fit(&x, &y, n_classes, params, 1);
        let r = ref_fit(&x, &y, n_classes, params, &x);
        assert_eq!(t.n_nodes(), r.n_nodes, "case {case}: node count");
        assert_eq!(t.importance, r.importance, "case {case}: importance (exact)");
        assert_eq!(t.predict(&x), r.preds, "case {case}: predictions");
    }
}

/// `n` rows of quantised features (ties, duplicates, a constant column)
/// whose first and third columns carry the label.
fn labelled_data(n: usize, n_classes: usize, st: &mut u64) -> (Vec<[f32; 5]>, Vec<u16>) {
    let mut data = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = (lcg(st) * n_classes as f32) as u16 % n_classes as u16;
        data.push([
            f32::from(c) + (lcg(st) * 8.0).floor() * 0.25,
            (lcg(st) * 4.0).floor(),
            f32::from(c) * 0.5 - (lcg(st) * 6.0).floor() * 0.1,
            1.0,
            lcg(st),
        ]);
        y.push(c);
    }
    (data, y)
}

/// Probe rows built column by column from `picks`: NaN, ±∞, a split
/// threshold of that column exactly (where it has one), or a training
/// value.
fn probe_rows(picks: &[(u8, usize)], thresholds: &[Vec<f32>], data: &[[f32; 5]]) -> Vec<[f32; 5]> {
    picks
        .chunks_exact(5)
        .map(|cols| {
            let mut row = [0.0f32; 5];
            for (f, (v, &(kind, k))) in row.iter_mut().zip(cols).enumerate() {
                *v = match kind {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 | 4 if !thresholds[f].is_empty() => thresholds[f][k % thresholds[f].len()],
                    _ => data[k % data.len()][f],
                };
            }
            row
        })
        .collect()
}

/// Class scores from a naive walk over a GBDT export's own layout:
/// splits with `-(k + 1)` leaf links, then leaf values, one tree per
/// class per round.
fn ref_gbdt_scores(bytes: &[u8], rows: &[[f32; 5]]) -> Vec<Vec<f32>> {
    let mut r = PayloadReader::new(open(bytes, FROZEN_MAGIC, FROZEN_VERSION, "gbdt").unwrap());
    let n_classes = r.u32().unwrap() as usize;
    let eta = r.f32().unwrap();
    let n_rounds = r.u64().unwrap() as usize;
    let mut scores = vec![vec![0.0f32; n_classes]; rows.len()];
    for _ in 0..n_rounds {
        for c in 0..n_classes {
            let root_is_leaf = r.u8().unwrap() == 1;
            let n = r.u64().unwrap() as usize;
            let nodes: Vec<(usize, f32, i32, i32)> = (0..n)
                .map(|_| {
                    let f = r.u32().unwrap() as usize;
                    let t = r.f32().unwrap();
                    (f, t, r.u32().unwrap() as i32, r.u32().unwrap() as i32)
                })
                .collect();
            let leaves = r.f32s().unwrap();
            for (s, x) in scores.iter_mut().zip(rows) {
                let value = if root_is_leaf {
                    leaves[0]
                } else {
                    let mut i = 0usize;
                    loop {
                        let (f, t, left, right) = nodes[i];
                        let next = if x[f] <= t { left } else { right };
                        if next < 0 {
                            break leaves[(-next - 1) as usize];
                        }
                        i = next as usize;
                    }
                };
                s[c] += eta * value;
            }
        }
    }
    scores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_walk_matches_the_naive_walk_on_any_row(
        seed in 1u64..u64::MAX,
        n in 30usize..160,
        n_classes in 2usize..6,
        max_depth in 1usize..12,
        picks in proptest::collection::vec((0u8..7, 0usize..1 << 20), 5..5 * 60),
    ) {
        let mut st = seed;
        let (data, y) = labelled_data(n, n_classes, &mut st);
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let params = TreeParams { max_depth, min_samples_split: 2, ..Default::default() };

        // CART: the batch walk, the one-row walk and the reference walk agree.
        let tree = DecisionTree::fit(&x, &y, n_classes, params, 1);
        let reference = ref_fit(&x, &y, n_classes, params, &x);
        let mut thresholds = vec![Vec::new(); 5];
        for node in &reference.nodes {
            if let Node::Split { feature, threshold, .. } = node {
                thresholds[*feature].push(*threshold);
            }
        }
        let probes = probe_rows(&picks, &thresholds, &data);
        let mut labels = Vec::new();
        tree.predict_into(&probes, &mut labels);
        prop_assert_eq!(labels.len(), probes.len());
        for (row, &label) in probes.iter().zip(&labels) {
            prop_assert_eq!(label, tree.predict_one(row), "row {:?}", row);
            prop_assert_eq!(label, ref_walk(&reference.nodes, row), "row {:?}", row);
        }

        // Forest: the batch vote equals the one-row vote.
        let forest_params = ForestParams { n_trees: 5, tree: params, sample_size: None };
        let forest = RandomForest::fit(&x, &y, n_classes, forest_params, seed);
        forest.predict_into(&probes, &mut Vec::new(), &mut labels);
        for (row, &label) in probes.iter().zip(&labels) {
            prop_assert_eq!(label, forest.predict_one(row), "row {:?}", row);
        }

        // GBDT: batch scores, one-row scores and the reference walk over
        // the export agree bit for bit.
        for policy in [GrowthPolicy::DepthWise, GrowthPolicy::LeafWise] {
            let gbdt_params = GbdtParams { rounds: 3, max_depth, policy, ..Default::default() };
            let gbdt = GradientBoosting::fit(&x, &y, n_classes, gbdt_params);
            let want = ref_gbdt_scores(&gbdt.to_frozen_bytes(), &probes);
            let mut scores = Vec::new();
            gbdt.predict_into(&probes, &mut scores, &mut labels);
            for (i, row) in probes.iter().enumerate() {
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                let batch = &scores[i * n_classes..(i + 1) * n_classes];
                prop_assert_eq!(bits(batch), bits(&want[i]), "{:?} row {:?}", policy, row);
                prop_assert_eq!(bits(&gbdt.scores_one(row)), bits(&want[i]));
                prop_assert_eq!(labels[i], gbdt.predict_one(row));
            }
        }
    }
}
