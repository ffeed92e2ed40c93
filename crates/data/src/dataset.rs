//! Dataset containers and split protocols.

use crate::entity::{CollectiveExample, EntityPair};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A pairwise ER dataset with fixed train/validation/test splits.
///
/// The paper follows DeepMatcher's 3:1:1 split (§6.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairDataset {
    /// Dataset name (e.g. "Amazon-Google").
    pub name: String,
    /// Training pairs.
    pub train: Vec<EntityPair>,
    /// Validation pairs (model selection).
    pub valid: Vec<EntityPair>,
    /// Held-out test pairs.
    pub test: Vec<EntityPair>,
}

impl PairDataset {
    /// Splits a pool of labeled pairs 3:1:1 with a seeded shuffle,
    /// **stratified by label** so every split keeps the dataset's positive
    /// rate (small benchmarks like Beer would otherwise routinely end up
    /// with positive-free validation splits).
    pub fn split_3_1_1(name: impl Into<String>, pairs: Vec<EntityPair>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut pos, mut neg): (Vec<EntityPair>, Vec<EntityPair>) =
            pairs.into_iter().partition(|p| p.label);
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);
        let mut train = Vec::new();
        let mut valid = Vec::new();
        let mut test = Vec::new();
        for mut stratum in [pos, neg] {
            let n = stratum.len();
            let n_train = n * 3 / 5;
            let n_valid = n / 5;
            test.extend(stratum.split_off(n_train + n_valid));
            valid.extend(stratum.split_off(n_train));
            train.extend(stratum);
        }
        // Interleave labels within each split deterministically.
        train.shuffle(&mut rng);
        valid.shuffle(&mut rng);
        test.shuffle(&mut rng);
        Self { name: name.into(), train, valid, test }
    }

    /// Total number of pairs.
    pub fn len(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// `true` if the dataset holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of positive pairs across all splits.
    pub fn n_positive(&self) -> usize {
        self.train.iter().chain(&self.valid).chain(&self.test).filter(|p| p.label).count()
    }

    /// Positive rate across all splits.
    pub fn positive_rate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.n_positive() as f64 / self.len() as f64
        }
    }

    /// Number of attributes in the schema (taken from the first pair).
    pub fn arity(&self) -> usize {
        self.train
            .first()
            .or(self.valid.first())
            .or(self.test.first())
            .map_or(0, |p| p.left.arity())
    }

    /// Returns a copy truncated to at most `n` training pairs (label
    /// efficiency experiments, Figure 10).
    pub fn with_train_budget(&self, n: usize) -> Self {
        let mut out = self.clone();
        out.train.truncate(n);
        out
    }

    /// Average token count per entity across the dataset (Figure 11's
    /// x-axis is `dataset size x average length`).
    pub fn avg_token_len(&self) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for p in self.train.iter().chain(&self.valid).chain(&self.test) {
            total += p.left.all_tokens().len() + p.right.all_tokens().len();
            count += 2;
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

/// A collective ER dataset: query entities with blocked candidate sets,
/// split **before** blocking so test queries are unseen (§6.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectiveDataset {
    /// Dataset name.
    pub name: String,
    /// Training examples.
    pub train: Vec<CollectiveExample>,
    /// Validation examples.
    pub valid: Vec<CollectiveExample>,
    /// Test examples (queries never seen during training).
    pub test: Vec<CollectiveExample>,
}

impl CollectiveDataset {
    /// Splits examples 3:1:1 with a seeded shuffle. The caller must have
    /// produced examples query-by-query (split-then-block protocol).
    pub fn split_3_1_1(
        name: impl Into<String>,
        mut examples: Vec<CollectiveExample>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        examples.shuffle(&mut rng);
        let n = examples.len();
        let n_train = n * 3 / 5;
        let n_valid = n / 5;
        let test = examples.split_off(n_train + n_valid);
        let valid = examples.split_off(n_train);
        Self { name: name.into(), train: examples, valid, test }
    }

    /// Total candidate pairs across all splits.
    pub fn total_candidates(&self) -> usize {
        self.train
            .iter()
            .chain(&self.valid)
            .chain(&self.test)
            .map(CollectiveExample::n_candidates)
            .sum()
    }

    /// Number of query entities.
    pub fn n_queries(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }
}

/// FNV-1a digest of every split's queries, candidates (in rank order) and
/// labels: golden tests pin generated collective datasets bitwise with it.
#[cfg(test)]
pub(crate) fn collective_digest(ds: &CollectiveDataset) -> u64 {
    let mut bytes = Vec::new();
    let mut field = |b: &[u8]| {
        bytes.extend_from_slice(b);
        bytes.push(0xff);
    };
    for split in [&ds.train, &ds.valid, &ds.test] {
        field(&(split.len() as u64).to_le_bytes());
        for ex in split {
            for (e, label) in std::iter::once((&ex.query, None))
                .chain(ex.candidates.iter().zip(ex.labels.iter().map(|&l| Some(l))))
            {
                field(e.id.as_bytes());
                for (k, v) in &e.attrs {
                    field(k.as_bytes());
                    field(v.as_bytes());
                }
                field(&[label.map_or(2, u8::from)]);
            }
        }
    }
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;

    fn pairs(n: usize) -> Vec<EntityPair> {
        (0..n)
            .map(|i| {
                let e = Entity::new(format!("e{i}"), vec![("t".into(), format!("v{i}"))]);
                EntityPair::new(e.clone(), e, i % 4 == 0)
            })
            .collect()
    }

    #[test]
    fn split_ratios_are_3_1_1() {
        let ds = PairDataset::split_3_1_1("x", pairs(100), 1);
        assert_eq!(ds.train.len(), 60);
        assert_eq!(ds.valid.len(), 20);
        assert_eq!(ds.test.len(), 20);
        assert_eq!(ds.len(), 100);
    }

    #[test]
    fn split_is_stratified() {
        // 25% positives overall; every split must hold positives.
        let ds = PairDataset::split_3_1_1("x", pairs(100), 1);
        let rate =
            |ps: &[EntityPair]| ps.iter().filter(|p| p.label).count() as f64 / ps.len() as f64;
        assert!((rate(&ds.train) - 0.25).abs() < 0.05, "train {}", rate(&ds.train));
        assert!((rate(&ds.valid) - 0.25).abs() < 0.06, "valid {}", rate(&ds.valid));
        assert!((rate(&ds.test) - 0.25).abs() < 0.06, "test {}", rate(&ds.test));
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let a = PairDataset::split_3_1_1("x", pairs(50), 7);
        let b = PairDataset::split_3_1_1("x", pairs(50), 7);
        assert_eq!(a.train[0].left.id, b.train[0].left.id);
        let c = PairDataset::split_3_1_1("x", pairs(50), 8);
        // Overwhelmingly likely to differ.
        let same = a.train.iter().zip(&c.train).all(|(x, y)| x.left.id == y.left.id);
        assert!(!same);
    }

    #[test]
    fn positive_accounting() {
        let ds = PairDataset::split_3_1_1("x", pairs(100), 1);
        assert_eq!(ds.n_positive(), 25);
        assert!((ds.positive_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn train_budget_truncates_only_train() {
        let ds = PairDataset::split_3_1_1("x", pairs(100), 1);
        let small = ds.with_train_budget(10);
        assert_eq!(small.train.len(), 10);
        assert_eq!(small.valid.len(), 20);
        assert_eq!(small.test.len(), 20);
    }

    #[test]
    fn collective_split_counts() {
        let q = Entity::new("q", vec![("t".into(), "x".into())]);
        let examples: Vec<CollectiveExample> = (0..10)
            .map(|_| CollectiveExample::new(q.clone(), vec![q.clone()], vec![true]))
            .collect();
        let ds = CollectiveDataset::split_3_1_1("c", examples, 3);
        assert_eq!(ds.train.len(), 6);
        assert_eq!(ds.valid.len(), 2);
        assert_eq!(ds.test.len(), 2);
        assert_eq!(ds.n_queries(), 10);
        assert_eq!(ds.total_candidates(), 10);
    }
}
