//! Brute-force k-nearest-neighbour classifier with z-score
//! standardisation (one of the paper's "shallow head" options, §2).

/// A fitted k-NN classifier (stores the standardised training set).
pub struct KnnClassifier {
    k: usize,
    x: Vec<Vec<f32>>,
    y: Vec<u16>,
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl KnnClassifier {
    /// Fit: store the training data and its per-feature statistics.
    pub fn fit(x: &[&[f32]], y: &[u16], k: usize) -> KnnClassifier {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len());
        let d = x[0].len();
        let n = x.len() as f32;
        let mut mean = vec![0.0f32; d];
        for row in x {
            for (m, v) in mean.iter_mut().zip(*row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0f32; d];
        for row in x {
            for ((s, v), m) in std.iter_mut().zip(*row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt().max(1e-6);
        }
        let xs = x
            .iter()
            .map(|row| row.iter().zip(&mean).zip(&std).map(|((v, m), s)| (v - m) / s).collect())
            .collect();
        KnnClassifier { k: k.max(1), x: xs, y: y.to_vec(), mean, std }
    }

    /// Predict the label of one row by majority among the k nearest.
    pub fn predict_one(&self, row: &[f32]) -> u16 {
        self.predict_with(row, &mut KnnScratch::default())
    }

    /// [`predict_one`](Self::predict_one) against caller-held buffers:
    /// once `scratch` has grown to the training-set size, a prediction
    /// allocates nothing.
    fn predict_with(&self, row: &[f32], scratch: &mut KnnScratch) -> u16 {
        let KnnScratch { query, dists, counts } = scratch;
        query.clear();
        query.extend(row.iter().zip(&self.mean).zip(&self.std).map(|((v, m), s)| (v - m) / s));
        dists.clear();
        dists.extend(self.x.iter().zip(&self.y).map(|(t, &label)| {
            let d: f32 = t.iter().zip(query.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, label)
        }));
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let nearest = &dists[..k];
        for &(_, l) in nearest {
            if counts.len() <= l as usize {
                counts.resize(l as usize + 1, 0);
            }
            counts[l as usize] += 1;
        }
        // Most votes wins; a tie goes to the smallest label, so the
        // answer never depends on the neighbours' selection order.
        let best = nearest
            .iter()
            .map(|&(_, l)| (counts[l as usize], std::cmp::Reverse(l)))
            .max()
            .map_or(0, |(_, std::cmp::Reverse(l))| l);
        for &(_, l) in nearest {
            counts[l as usize] = 0;
        }
        best
    }

    /// Labels of `rows` into `out`, reusing `scratch` across rows and
    /// calls: after the first call no prediction allocates.
    pub fn predict_into<R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        scratch: &mut KnnScratch,
        out: &mut Vec<u16>,
    ) {
        out.clear();
        out.extend(rows.iter().map(|r| self.predict_with(r.as_ref(), scratch)));
    }

    /// Predict labels for many rows.
    pub fn predict(&self, rows: &[&[f32]]) -> Vec<u16> {
        let mut scratch = KnnScratch::default();
        rows.iter().map(|r| self.predict_with(r, &mut scratch)).collect()
    }
}

/// Reusable buffers for [`KnnClassifier::predict_into`]: the
/// standardised query, one `(distance, label)` pair per training row,
/// and the vote count per label (all zero between predictions).
#[derive(Debug, Default)]
pub struct KnnScratch {
    query: Vec<f32>,
    dists: Vec<(f32, u16)>,
    counts: Vec<u32>,
}

impl nn::frozen::FrozenArtifact for KnnClassifier {
    const KIND: &'static str = "knn";

    fn write_payload(&self, w: &mut nn::envelope::PayloadWriter) {
        w.u32(self.k as u32);
        w.u32(self.mean.len() as u32);
        w.f32s(&self.mean);
        w.f32s(&self.std);
        w.u16s(&self.y);
        let flat: Vec<f32> = self.x.iter().flatten().copied().collect();
        w.f32s(&flat);
    }

    fn read_payload(r: &mut nn::envelope::PayloadReader) -> Result<KnnClassifier, String> {
        let k = r.u32()? as usize;
        if k == 0 {
            return Err("k must be at least 1".into());
        }
        let d = r.u32()? as usize;
        let mean = r.f32s()?;
        let std = r.f32s()?;
        if mean.len() != d || std.len() != d {
            return Err(format!(
                "statistics length mismatch: dim {d}, mean {}, std {}",
                mean.len(),
                std.len()
            ));
        }
        if std.iter().any(|&s| !s.is_finite() || s <= 0.0) {
            return Err("non-positive standard deviation".into());
        }
        let y = r.u16s()?;
        if y.is_empty() {
            return Err("empty training set".into());
        }
        let flat = r.f32s()?;
        if flat.len() != y.len() * d {
            return Err(format!(
                "row data length {} != {} rows x {d} features",
                flat.len(),
                y.len()
            ));
        }
        let x = flat.chunks(d.max(1)).map(<[f32]>::to_vec).collect::<Vec<_>>();
        // d == 0 degenerates to rows of no features; keep row count right.
        let x = if d == 0 { vec![Vec::new(); y.len()] } else { x };
        Ok(KnnClassifier { k, x, y, mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbour_exact_match() {
        let data = [[0.0f32, 0.0], [10.0, 10.0]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let knn = KnnClassifier::fit(&x, &[0, 1], 1);
        assert_eq!(knn.predict_one(&[0.5, 0.5]), 0);
        assert_eq!(knn.predict_one(&[9.0, 9.5]), 1);
    }

    #[test]
    fn k_majority_smooths_outlier() {
        // One mislabelled point amid a cluster; k=3 out-votes it.
        let data = [[0.0f32], [0.1], [0.2], [0.15]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let y = [0u16, 0, 0, 1];
        let knn = KnnClassifier::fit(&x, &y, 3);
        assert_eq!(knn.predict_one(&[0.14]), 0);
    }

    #[test]
    fn standardisation_balances_scales() {
        // Feature 0 is informative but tiny; feature 1 is huge noise.
        let data = [[0.001f32, 5000.0], [0.002, 9000.0], [0.101, 7000.0], [0.102, 6000.0]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let y = [0u16, 0, 1, 1];
        let knn = KnnClassifier::fit(&x, &y, 1);
        assert_eq!(knn.predict_one(&[0.0015, 7500.0]), 0);
        assert_eq!(knn.predict_one(&[0.1015, 5500.0]), 1);
    }

    #[test]
    fn k_larger_than_dataset_clamped() {
        let data = [[0.0f32], [1.0]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let knn = KnnClassifier::fit(&x, &[0, 1], 10);
        let _ = knn.predict_one(&[0.4]); // must not panic
    }

    #[test]
    fn frozen_round_trip_predicts_bitwise_identically() {
        use nn::frozen::FrozenArtifact;
        let data = [[0.001f32, 5000.0], [0.002, 9000.0], [0.101, 7000.0], [0.102, 6000.0]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let knn = KnnClassifier::fit(&x, &[0, 0, 1, 1], 3);
        let bytes = knn.to_frozen_bytes();
        assert_eq!(bytes, knn.to_frozen_bytes(), "byte-stable encode");
        let back = KnnClassifier::from_frozen_bytes(&bytes).expect("round-trip");
        for probe in [[0.0015f32, 7500.0], [0.1015, 5500.0], [0.05, 6400.0]] {
            assert_eq!(back.predict_one(&probe), knn.predict_one(&probe));
        }
    }

    #[test]
    fn corrupt_frozen_knn_is_refused() {
        use nn::frozen::FrozenArtifact;
        let data = [[0.0f32, 1.0], [2.0, 3.0], [4.0, 5.0]];
        let x: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let knn = KnnClassifier::fit(&x, &[0, 1, 2], 1);
        let good = knn.to_frozen_bytes();
        for offset in 0..good.len() {
            let mut bad = good.clone();
            bad[offset] ^= 0x04;
            assert!(
                KnnClassifier::from_frozen_bytes(&bad).is_err(),
                "flip at {offset} must be refused"
            );
        }
        assert!(KnnClassifier::from_frozen_bytes(&good[..good.len() - 1]).is_err(), "truncated");
    }
}
