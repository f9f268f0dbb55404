//! Classification metrics (§4.2 "Performance metrics").

/// Fraction of exact matches.
pub fn accuracy(pred: &[u16], truth: &[u16]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter().zip(truth).filter(|(p, t)| p == t).count() as f64 / pred.len() as f64
}

/// Confusion matrix `m[truth][pred]`.
pub fn confusion_matrix(pred: &[u16], truth: &[u16], n_classes: usize) -> Vec<Vec<u32>> {
    let mut m = vec![vec![0u32; n_classes]; n_classes];
    for (&p, &t) in pred.iter().zip(truth) {
        m[usize::from(t)][usize::from(p)] += 1;
    }
    m
}

fn per_class_prf(m: &[Vec<u32>]) -> Vec<(f64, f64, f64, u32)> {
    let n = m.len();
    (0..n)
        .map(|c| {
            let tp = f64::from(m[c][c]);
            let support: u32 = m[c].iter().sum();
            let fn_: f64 = f64::from(support) - tp;
            let fp: f64 = (0..n).filter(|&r| r != c).map(|r| f64::from(m[r][c])).sum();
            let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
            let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
            let f1 = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
            (precision, recall, f1, support)
        })
        .collect()
}

/// Macro-averaged F1: the unweighted mean of per-class F1 over classes
/// that appear in the ground truth (the paper's preferred metric).
pub fn macro_f1(pred: &[u16], truth: &[u16], n_classes: usize) -> f64 {
    let m = confusion_matrix(pred, truth, n_classes);
    let prf = per_class_prf(&m);
    let present: Vec<&(f64, f64, f64, u32)> = prf.iter().filter(|(_, _, _, s)| *s > 0).collect();
    if present.is_empty() {
        return 0.0;
    }
    present.iter().map(|(_, _, f1, _)| f1).sum::<f64>() / present.len() as f64
}

/// Micro-averaged F1 — equals accuracy for single-label classification;
/// included because the paper calls out its misleading use (§4.2).
pub fn micro_f1(pred: &[u16], truth: &[u16]) -> f64 {
    accuracy(pred, truth)
}

/// Majority label of a vote (per-packet predictions of one flow); ties
/// break to the smallest label, so the vote is deterministic. An empty
/// vote yields label 0.
pub fn majority(labels: &[u16]) -> u16 {
    majority_with(labels, &mut Vec::new())
}

/// [`majority`] with the caller's per-label `counts` scratch, so a hot
/// loop voting flow after flow allocates nothing.
pub fn majority_with(labels: &[u16], counts: &mut Vec<u32>) -> u16 {
    counts.clear();
    for &l in labels {
        let l = usize::from(l);
        if l >= counts.len() {
            counts.resize(l + 1, 0);
        }
        counts[l] += 1;
    }
    // the last maximum of the reversed counts is the smallest label
    counts.iter().enumerate().rev().max_by_key(|&(_, &n)| n).map_or(0, |(l, _)| l as u16)
}

/// Per-class precision/recall/F1 report (sklearn-style), rendered as a
/// text table. `names` may be shorter than `n_classes` (falls back to
/// the class index).
pub fn classification_report(
    pred: &[u16],
    truth: &[u16],
    n_classes: usize,
    names: &[&str],
) -> String {
    let m = confusion_matrix(pred, truth, n_classes);
    let prf = per_class_prf(&m);
    let mut out = format!(
        "{:<20} {:>9} {:>9} {:>9} {:>9}\n",
        "class", "precision", "recall", "f1", "support"
    );
    for (c, (p, r, f1, support)) in prf.iter().enumerate() {
        if *support == 0 {
            continue;
        }
        let name = names.get(c).copied().unwrap_or("");
        let label = if name.is_empty() { format!("{c}") } else { name.to_string() };
        out.push_str(&format!("{:<20} {:>9.3} {:>9.3} {:>9.3} {:>9}\n", label, p, r, f1, support));
    }
    out.push_str(&format!(
        "{:<20} {:>9} {:>9} {:>9.3} {:>9}\n",
        "macro avg",
        "",
        "",
        macro_f1(pred, truth, n_classes),
        truth.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [0u16, 1, 2, 1];
        assert_eq!(accuracy(&y, &y), 1.0);
        assert_eq!(macro_f1(&y, &y, 3), 1.0);
        assert_eq!(micro_f1(&y, &y), 1.0);
    }

    #[test]
    fn macro_f1_penalises_minority_failure() {
        // 9 of class 0 right, 1 of class 1 wrong: accuracy 0.9 but
        // macro F1 much lower because class 1 has F1 = 0.
        let truth = [0u16, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let pred = [0u16; 10];
        assert!((accuracy(&pred, &truth) - 0.9).abs() < 1e-9);
        let f1 = macro_f1(&pred, &truth, 2);
        assert!(f1 < 0.5, "macro F1 {f1}");
    }

    #[test]
    fn absent_classes_ignored() {
        // n_classes = 5 but only classes 0/1 appear: macro over present.
        let truth = [0u16, 1, 0, 1];
        let pred = [0u16, 1, 0, 1];
        assert_eq!(macro_f1(&pred, &truth, 5), 1.0);
    }

    #[test]
    fn confusion_matrix_layout() {
        let truth = [0u16, 1, 1];
        let pred = [1u16, 1, 0];
        let m = confusion_matrix(&pred, &truth, 2);
        assert_eq!(m[0][1], 1, "truth 0 predicted 1");
        assert_eq!(m[1][1], 1);
        assert_eq!(m[1][0], 1);
        assert_eq!(m[0][0], 0);
    }

    #[test]
    fn known_f1_value() {
        // class 0: tp=1 fp=1 fn=1 -> P=R=0.5 -> F1=0.5
        // class 1: tp=1 fp=1 fn=1 -> F1=0.5 ; macro = 0.5
        let truth = [0u16, 0, 1, 1];
        let pred = [0u16, 1, 1, 0];
        assert!((macro_f1(&pred, &truth, 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn report_renders_per_class_rows() {
        let truth = [0u16, 0, 1, 1, 1];
        let pred = [0u16, 1, 1, 1, 0];
        let r = classification_report(&pred, &truth, 3, &["benign", "malware"]);
        assert!(r.contains("benign"));
        assert!(r.contains("malware"));
        assert!(r.contains("macro avg"));
        // class 2 has no support -> no row
        assert!(!r.lines().any(|l| l.trim_start().starts_with("2 ")));
    }

    #[test]
    fn majority_breaks_ties_to_smallest_label() {
        assert_eq!(majority(&[3, 1, 3, 1]), 1);
        assert_eq!(majority(&[2, 2, 5]), 2);
        assert_eq!(majority(&[]), 0);
        assert_eq!(majority(&[7]), 7);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(macro_f1(&[], &[], 3), 0.0);
    }
}
