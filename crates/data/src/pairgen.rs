//! Labeled pair and collective example construction from a [`World`].

use crate::dataset::{CollectiveDataset, PairDataset};
use crate::entity::{CollectiveExample, Entity, EntityPair};
use crate::synth::{perturb_entity, render_entity, NoiseConfig, Schema, World};
use hiergat_text::{tokenize, ShardedCosineIndex, TfIdf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for pairwise dataset generation.
#[derive(Debug, Clone)]
pub struct PairGenConfig {
    /// Total labeled pairs to produce.
    pub n_pairs: usize,
    /// Fraction of positives (the Magellan datasets range 9.4%–25%, §6.1).
    pub pos_rate: f64,
    /// Among negatives, the fraction drawn from the same family (hard).
    pub hard_negative_frac: f64,
    /// Noise for the source-A rendering.
    pub noise_a: NoiseConfig,
    /// Noise for the source-B rendering.
    pub noise_b: NoiseConfig,
    /// RNG seed.
    pub seed: u64,
}

/// Generates labeled pairs from a world under a schema.
pub fn generate_pairs(world: &World, schema: &Schema, cfg: &PairGenConfig) -> Vec<EntityPair> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_pos = ((cfg.n_pairs as f64) * cfg.pos_rate).round() as usize;
    let n_neg = cfg.n_pairs.saturating_sub(n_pos);

    let mut product_order: Vec<usize> = (0..world.products.len()).collect();
    product_order.shuffle(&mut rng);

    let mut pairs = Vec::with_capacity(cfg.n_pairs);
    // Positives: a source-A rendering and a perturbed (edited) copy of it —
    // matching records in real catalogs are edited copies, not independent
    // re-renderings.
    for i in 0..n_pos {
        let p = &world.products[product_order[i % product_order.len()]];
        let left = render_entity(p, world.lexicon, schema, &cfg.noise_a, "a", &mut rng);
        let right = perturb_entity(&left, &cfg.noise_b, &format!("b-{}", p.uid), &mut rng);
        pairs.push(EntityPair::new(left, right, true));
    }
    // Negatives: family siblings (hard) or random products (easy).
    let mut produced = 0;
    let mut guard = 0;
    while produced < n_neg && guard < n_neg * 20 {
        guard += 1;
        let p = &world.products[rng.gen_range(0..world.products.len())];
        let hard = rng.gen_bool(cfg.hard_negative_frac);
        let q = if hard {
            let sib = world.family_siblings(p);
            match sib.choose(&mut rng) {
                Some(&q) => q,
                None => continue,
            }
        } else {
            let q = &world.products[rng.gen_range(0..world.products.len())];
            if q.uid == p.uid {
                continue;
            }
            q
        };
        let left = render_entity(p, world.lexicon, schema, &cfg.noise_a, "a", &mut rng);
        // The negative's right side goes through the same render+perturb
        // pipeline so both classes share the same marginal noise.
        let right_base = render_entity(q, world.lexicon, schema, &cfg.noise_a, "q", &mut rng);
        let right = perturb_entity(&right_base, &cfg.noise_b, &format!("b-{}", q.uid), &mut rng);
        pairs.push(EntityPair::new(left, right, false));
        produced += 1;
    }
    pairs
}

/// Generates a complete pairwise dataset with the paper's 3:1:1 split.
pub fn generate_pair_dataset(
    name: &str,
    world: &World,
    schema: &Schema,
    cfg: &PairGenConfig,
) -> PairDataset {
    let pairs = generate_pairs(world, schema, cfg);
    PairDataset::split_3_1_1(name, pairs, cfg.seed ^ 0x5eed)
}

/// Configuration for collective dataset generation (§6.3 protocol).
#[derive(Debug, Clone)]
pub struct CollectiveGenConfig {
    /// Number of query entities drawn from table A.
    pub n_queries: usize,
    /// Candidates per query (the paper uses N = 16).
    pub top_n: usize,
    /// Noise for table A.
    pub noise_a: NoiseConfig,
    /// Noise for table B.
    pub noise_b: NoiseConfig,
    /// Extra distractor-only products rendered into table B, as a fraction
    /// of the world size.
    pub distractor_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates collective examples: every query is TF-IDF-blocked against a
/// rendered table B, exactly like the paper's top-N cosine protocol.
pub fn generate_collective(
    world: &World,
    schema: &Schema,
    cfg: &CollectiveGenConfig,
) -> Vec<CollectiveExample> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Render table B: every product plus distractors drawn from re-rendered
    // family siblings (distractors share text statistics with real entries).
    let mut table_b: Vec<(Option<usize>, Entity)> = Vec::new();
    for p in &world.products {
        let base = render_entity(p, world.lexicon, schema, &cfg.noise_a, "base", &mut rng);
        let e = perturb_entity(&base, &cfg.noise_b, &format!("b-{}", p.uid), &mut rng);
        table_b.push((Some(p.uid), e));
    }
    let n_distractors = (world.products.len() as f64 * cfg.distractor_frac) as usize;
    for d in 0..n_distractors {
        let p = &world.products[rng.gen_range(0..world.products.len())];
        let base = render_entity(p, world.lexicon, schema, &cfg.noise_b, "bdb", &mut rng);
        let mut e = perturb_entity(&base, &cfg.noise_b, "bd", &mut rng);
        e.id = format!("bd-{d}");
        // Distractors are not matches of anything.
        table_b.push((None, e));
    }

    // TF-IDF index over table B.
    let docs: Vec<Vec<String>> = table_b.iter().map(|(_, e)| tokenize(&e.full_text())).collect();
    let tfidf = TfIdf::fit(&docs);
    let vectors: Vec<_> = docs.iter().map(|d| tfidf.transform(d)).collect();
    let index = ShardedCosineIndex::build(&vectors, 1);

    // Queries.
    let mut order: Vec<usize> = (0..world.products.len()).collect();
    order.shuffle(&mut rng);
    let mut examples = Vec::with_capacity(cfg.n_queries);
    for &pi in order.iter().take(cfg.n_queries) {
        let p = &world.products[pi];
        let query = render_entity(p, world.lexicon, schema, &cfg.noise_a, "a", &mut rng);
        let qvec = tfidf.transform(&tokenize(&query.full_text()));
        let hits = index.top_n(&qvec, cfg.top_n);
        if hits.is_empty() {
            continue;
        }
        let mut candidates = Vec::with_capacity(hits.len());
        let mut labels = Vec::with_capacity(hits.len());
        for (doc, _) in hits {
            let (truth, entity) = &table_b[doc];
            candidates.push(entity.clone());
            labels.push(*truth == Some(p.uid));
        }
        examples.push(CollectiveExample::new(query, candidates, labels));
    }
    examples
}

/// Generates a complete collective dataset with split-then-block semantics:
/// queries are split 3:1:1, so test queries never appear in training.
pub fn generate_collective_dataset(
    name: &str,
    world: &World,
    schema: &Schema,
    cfg: &CollectiveGenConfig,
) -> CollectiveDataset {
    let examples = generate_collective(world, schema, cfg);
    CollectiveDataset::split_3_1_1(name, examples, cfg.seed ^ 0xb10c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::SOFTWARE;
    use crate::synth::AttrKind;

    const SCHEMA: Schema = Schema {
        name: "sw",
        attrs: &[
            ("title", AttrKind::TitleFull),
            ("manufacturer", AttrKind::Brand),
            ("price", AttrKind::Price),
        ],
    };

    fn cfg() -> PairGenConfig {
        PairGenConfig {
            n_pairs: 100,
            pos_rate: 0.2,
            hard_negative_frac: 0.5,
            noise_a: NoiseConfig::light(),
            noise_b: NoiseConfig::light(),
            seed: 1,
        }
    }

    #[test]
    fn pair_counts_and_rate() {
        let world = World::generate(&SOFTWARE, 60, 4, 3);
        let pairs = generate_pairs(&world, &SCHEMA, &cfg());
        assert_eq!(pairs.len(), 100);
        let pos = pairs.iter().filter(|p| p.label).count();
        assert_eq!(pos, 20);
    }

    #[test]
    fn positives_share_more_tokens_than_negatives() {
        let world = World::generate(&SOFTWARE, 80, 4, 4);
        let pairs = generate_pairs(&world, &SCHEMA, &cfg());
        let avg_overlap = |label: bool| {
            let sel: Vec<_> = pairs.iter().filter(|p| p.label == label).collect();
            let total: f64 = sel
                .iter()
                .map(|p| hiergat_text::jaccard(&p.left.all_tokens(), &p.right.all_tokens()))
                .sum();
            total / sel.len() as f64
        };
        assert!(
            avg_overlap(true) > avg_overlap(false),
            "positives must overlap more: {} vs {}",
            avg_overlap(true),
            avg_overlap(false)
        );
    }

    #[test]
    fn hard_negatives_share_brand() {
        let world = World::generate(&SOFTWARE, 40, 4, 5);
        let mut c = cfg();
        c.hard_negative_frac = 1.0;
        c.pos_rate = 0.0;
        let pairs = generate_pairs(&world, &SCHEMA, &c);
        let mut brand_shared = 0;
        for p in &pairs {
            let lt = p.left.attr("manufacturer").unwrap_or_default();
            let rt = p.right.attr("manufacturer").unwrap_or_default();
            if lt == rt && lt != crate::entity::MISSING {
                brand_shared += 1;
            }
        }
        // Most hard negatives share the brand (missing-attr noise aside).
        assert!(brand_shared * 10 > pairs.len() * 7, "{brand_shared}/{}", pairs.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let world = World::generate(&SOFTWARE, 60, 4, 6);
        let a = generate_pairs(&world, &SCHEMA, &cfg());
        let b = generate_pairs(&world, &SCHEMA, &cfg());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.left.attrs, y.left.attrs);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn collective_examples_contain_match_usually() {
        let world = World::generate(&SOFTWARE, 80, 4, 7);
        let ccfg = CollectiveGenConfig {
            n_queries: 30,
            top_n: 16,
            noise_a: NoiseConfig::light(),
            noise_b: NoiseConfig::light(),
            distractor_frac: 0.2,
            seed: 9,
        };
        let examples = generate_collective(&world, &SCHEMA, &ccfg);
        assert_eq!(examples.len(), 30);
        let with_match = examples.iter().filter(|e| e.n_positive() > 0).count();
        assert!(with_match >= 24, "blocking should usually retain the match: {with_match}/30");
        for e in &examples {
            assert!(e.n_candidates() <= 16);
        }
    }

    #[test]
    fn collective_dataset_split_is_disjoint_by_query() {
        let world = World::generate(&SOFTWARE, 60, 4, 8);
        let ccfg = CollectiveGenConfig {
            n_queries: 25,
            top_n: 8,
            noise_a: NoiseConfig::light(),
            noise_b: NoiseConfig::light(),
            distractor_frac: 0.1,
            seed: 10,
        };
        let ds = generate_collective_dataset("c", &world, &SCHEMA, &ccfg);
        let train_ids: std::collections::HashSet<_> =
            ds.train.iter().map(|e| e.query.id.clone()).collect();
        for e in &ds.test {
            assert!(!train_ids.contains(&e.query.id), "test query leaked into train");
        }
    }

    /// Golden pin of the TF-IDF top-N blocking that builds collective
    /// candidate sets: a retrieval change that reorders or swaps any
    /// candidate fails here.
    #[test]
    fn collective_generation_matches_golden_digest() {
        let world = World::generate(&SOFTWARE, 80, 4, 7);
        let ccfg = CollectiveGenConfig {
            n_queries: 40,
            top_n: 16,
            noise_a: NoiseConfig::light(),
            noise_b: NoiseConfig::light(),
            distractor_frac: 0.2,
            seed: 9,
        };
        let ds = generate_collective_dataset("c", &world, &SCHEMA, &ccfg);
        assert_eq!(crate::dataset::collective_digest(&ds), 3_865_300_379_276_497_101);
        let ds = crate::MagellanDataset::AmazonGoogle.load_collective(0.3);
        assert_eq!(crate::dataset::collective_digest(&ds), 16_124_457_882_159_524_334);
    }
}
