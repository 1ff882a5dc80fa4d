//! Random Forest (Breiman 2001): bagged CART trees with random feature
//! subsets — the classifier SmartPSI deploys for both Model α and
//! Model β ("lightweight training time as well as a decent prediction
//! accuracy", §4.2).

use rand::{rngs::StdRng, SeedableRng};

use crate::tree::{DecisionTree, TreeConfig};
use crate::{Classifier, Dataset};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (its `max_features` is overridden with
    /// `√dim` when [`ForestConfig::sqrt_features`] is set).
    pub tree: TreeConfig,
    /// Use `√dim` random features per split (standard for
    /// classification forests).
    pub sqrt_features: bool,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 32,
            tree: TreeConfig {
                max_depth: 14,
                min_samples_split: 2,
                max_features: None,
            },
            sqrt_features: true,
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, Default)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// New untrained forest.
    pub fn new(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of trained trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// [`Classifier::predict`] with observability: counts one
    /// [`psi_obs::Counter::MlInferences`] per call.
    pub fn predict_recorded(&self, features: &[f32], rec: &dyn psi_obs::Recorder) -> usize {
        rec.add(psi_obs::Counter::MlInferences, 1);
        self.predict(features)
    }

    /// Per-class vote fractions for one row (a cheap probability
    /// estimate).
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "forest must be fitted first");
        let mut votes = vec![0u32; self.n_classes.max(1)];
        for t in &self.trees {
            let c = t.predict(features);
            if c < votes.len() {
                votes[c] += 1;
            }
        }
        let total = self.trees.len() as f32;
        votes.iter().map(|&v| v as f32 / total).collect()
    }
}

impl RandomForest {
    /// The first half of a fit: draw every tree's bootstrap sample of
    /// `data` from one RNG seeded with `seed`, in tree order. The trees
    /// themselves are then independent — [`ForestFit::tree`] grows any
    /// of them, in any order or in parallel — and
    /// [`ForestFit::finish`] assembles the forest. [`Classifier::fit`]
    /// is exactly these steps in order.
    pub fn bootstrap<'d>(&self, data: &'d Dataset, seed: u64) -> ForestFit<'d> {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mut tree = self.config.tree;
        if self.config.sqrt_features {
            tree.max_features = Some((data.dim() as f64).sqrt().ceil() as usize);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..self.config.n_trees)
            .map(|_| data.bootstrap_indices(&mut rng))
            .collect();
        ForestFit {
            data,
            config: self.config,
            tree,
            seed,
            samples,
        }
    }
}

/// A forest fit whose bootstrap samples are drawn
/// ([`RandomForest::bootstrap`]) and whose trees are not yet grown.
#[derive(Debug)]
pub struct ForestFit<'d> {
    data: &'d Dataset,
    config: ForestConfig,
    tree: TreeConfig,
    seed: u64,
    samples: Vec<Vec<usize>>,
}

impl ForestFit<'_> {
    /// Number of trees to grow.
    pub fn n_trees(&self) -> usize {
        self.samples.len()
    }

    /// Grow tree `i` from its bootstrap sample and its index seed — a
    /// pure function of the dataset, the sample and the seed.
    pub fn tree(&self, i: usize) -> DecisionTree {
        let mut t = DecisionTree::new(self.tree);
        t.fit_indices(self.data, &self.samples[i], self.seed.wrapping_add(i as u64 * 0x9e37_79b9));
        t
    }

    /// Assemble the forest from its grown trees, in tree order.
    pub fn finish(self, trees: Vec<DecisionTree>) -> RandomForest {
        assert_eq!(trees.len(), self.n_trees(), "one grown tree per sample");
        RandomForest {
            config: self.config,
            trees,
            n_classes: self.data.n_classes(),
        }
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let fit = self.bootstrap(data, seed);
        let trees = (0..fit.n_trees()).map(|i| fit.tree(i)).collect();
        *self = fit.finish(trees);
    }

    fn predict(&self, features: &[f32]) -> usize {
        let proba = self.predict_proba(features);
        proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(c, _)| c)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::Rng;

    #[test]
    fn classifies_blobs_well() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dataset::new(2);
        for _ in 0..400 {
            let c = rng.gen_range(0..2usize);
            let (cx, cy) = if c == 0 { (-1.0f32, -1.0f32) } else { (1.0, 1.0) };
            d.push(&[cx + rng.gen_range(-0.6..0.6), cy + rng.gen_range(-0.6..0.6)], c);
        }
        let (train, test) = d.split(0.25, 1);
        let mut rf = RandomForest::default();
        rf.fit(&train, 7);
        let preds: Vec<usize> = (0..test.len()).map(|i| rf.predict(test.row(i))).collect();
        let acc = accuracy(&preds, test.labels());
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn proba_sums_to_one() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f32], (i % 2) as usize);
        }
        let mut rf = RandomForest::default();
        rf.fit(&d, 1);
        let p = rf.predict_proba(&[3.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d = Dataset::new(1);
        for i in 0..40 {
            d.push(&[(i % 7) as f32], (i % 2) as usize);
        }
        let mut a = RandomForest::default();
        a.fit(&d, 11);
        let mut b = RandomForest::default();
        b.fit(&d, 11);
        for x in 0..10 {
            assert_eq!(a.predict(&[x as f32]), b.predict(&[x as f32]));
        }
    }

    #[test]
    fn forest_beats_single_tree_on_noisy_data() {
        // With label noise, a bagged ensemble should generalize at
        // least as well as one fully-grown tree.
        let mut rng = StdRng::seed_from_u64(21);
        let mut d = Dataset::new(3);
        for _ in 0..600 {
            let c = rng.gen_range(0..2usize);
            let base = if c == 0 { -0.5f32 } else { 0.5 };
            let noisy_label = if rng.gen_bool(0.15) { 1 - c } else { c };
            d.push(
                &[
                    base + rng.gen_range(-1.0..1.0),
                    base + rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0), // pure noise feature
                ],
                noisy_label,
            );
        }
        let (train, test) = d.split(0.3, 2);
        let mut rf = RandomForest::default();
        rf.fit(&train, 3);
        let mut tree = crate::tree::DecisionTree::default();
        tree.fit(&train, 3);
        let rf_acc = accuracy(
            &(0..test.len()).map(|i| rf.predict(test.row(i))).collect::<Vec<_>>(),
            test.labels(),
        );
        let tree_acc = accuracy(
            &(0..test.len()).map(|i| tree.predict(test.row(i))).collect::<Vec<_>>(),
            test.labels(),
        );
        assert!(
            rf_acc + 0.02 >= tree_acc,
            "forest {rf_acc} should not lose to tree {tree_acc}"
        );
    }

    #[test]
    fn trees_grown_in_any_order_predict_what_fit_predicts() {
        // A pool may finish a forest's trees in any order; growing them
        // in reverse from the drawn samples must give the forest `fit`
        // gives, on every training row and on random rows.
        let datasets: Vec<Dataset> = {
            let mut rng = StdRng::seed_from_u64(3);
            let mut dups = Dataset::new(3);
            let mut constant = Dataset::new(3);
            let mut single = Dataset::new(2);
            for i in 0..60 {
                // Few distinct values: many duplicate rows and ties.
                let row = [(i % 4) as f32, (i % 3) as f32, rng.gen_range(0..2) as f32];
                dups.push(&row, (i % 4 == 0) as usize + (i % 3 == 0) as usize);
                constant.push(&[7.0, rng.gen_range(-1.0..1.0), (i % 5) as f32], i % 2);
                single.push(&[rng.gen_range(0.0..1.0), i as f32], 0);
            }
            vec![dups, constant, single]
        };
        let mut rng = StdRng::seed_from_u64(9);
        for (k, data) in datasets.iter().enumerate() {
            for seed in [0u64, 1, 17, 0xdead_beef] {
                let mut fitted = RandomForest::default();
                fitted.fit(data, seed);
                let fit = RandomForest::default().bootstrap(data, seed);
                let mut trees: Vec<_> = (0..fit.n_trees()).rev().map(|i| fit.tree(i)).collect();
                trees.reverse();
                let reversed = fit.finish(trees);
                assert_eq!(reversed.n_trees(), fitted.n_trees());
                let random: Vec<Vec<f32>> = (0..50)
                    .map(|_| (0..data.dim()).map(|_| rng.gen_range(-2.0..8.0)).collect())
                    .collect();
                let rows = (0..data.len()).map(|i| data.row(i).to_vec()).chain(random);
                for row in rows {
                    assert_eq!(
                        reversed.predict_proba(&row),
                        fitted.predict_proba(&row),
                        "dataset {k} seed {seed} row {row:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_rejected() {
        let mut rf = RandomForest::default();
        rf.fit(&Dataset::new(2), 1);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f32], (i % 2) as usize);
        }
        let mut rf = RandomForest::default();
        rf.fit(&d, 1);
        let rows: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32]).collect();
        let batch = rf.predict_batch(&rows);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(batch[i], rf.predict(r));
        }
    }
}
