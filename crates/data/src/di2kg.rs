//! Synthetic stand-in for the DI2KG datasets (Table 6 of the paper):
//! camera and monitor entities scraped from many e-commerce source tables.
//!
//! Unlike the two-table Magellan data, DI2KG entities come from 24 (camera)
//! or 26 (monitor) different sources, each with its own formatting quirks.
//! The generator renders every product through a per-source noise profile
//! and builds collective examples by comparing a query against all other
//! sources' entities with TF-IDF top-16 blocking, exactly like §6.3.

use crate::dataset::CollectiveDataset;
use crate::entity::{CollectiveExample, Entity};
use crate::lexicon;
use crate::synth::{render_entity, AttrKind, NoiseConfig, Schema, World};
use hiergat_text::{tokenize, ShardedCosineIndex, TfIdf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// DI2KG categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Di2kgCategory {
    /// Camera products (24 source tables in the paper).
    Camera,
    /// Monitor products (26 source tables).
    Monitor,
}

const DI2KG_SCHEMA: Schema = Schema {
    name: "di2kg",
    attrs: &[
        ("page_title", AttrKind::TitleFull),
        ("brand", AttrKind::Brand),
        ("model", AttrKind::Model),
        ("description", AttrKind::Description),
    ],
};

impl Di2kgCategory {
    /// Both categories.
    pub fn all() -> [Self; 2] {
        [Self::Camera, Self::Monitor]
    }

    /// Category name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Camera => "camera",
            Self::Monitor => "monitor",
        }
    }

    /// Number of source tables (paper Table 6).
    pub fn n_sources(&self) -> usize {
        match self {
            Self::Camera => 24,
            Self::Monitor => 26,
        }
    }

    fn lexicon(&self) -> &'static lexicon::DomainLexicon {
        match self {
            Self::Camera => &lexicon::CAMERA,
            Self::Monitor => &lexicon::MONITOR,
        }
    }

    fn seed(&self) -> u64 {
        match self {
            Self::Camera => 0xd12c,
            Self::Monitor => 0xd12d,
        }
    }
}

/// Per-source noise: sources cycle through four formatting profiles.
fn source_noise(source: usize) -> NoiseConfig {
    match source % 4 {
        0 => NoiseConfig::clean(),
        1 => NoiseConfig::light(),
        2 => NoiseConfig::medium(),
        _ => NoiseConfig::heavy(),
    }
}

/// Loads a DI2KG category as a collective dataset.
///
/// Every product appears in a random subset of sources; each query entity is
/// blocked against the entities of **all other sources** with TF-IDF top-16.
pub fn load_di2kg(category: Di2kgCategory, scale: f64) -> CollectiveDataset {
    let n_products = ((140.0 * scale).round() as usize).max(30);
    let n_queries = ((110.0 * scale).round() as usize).max(15);
    let world = World::generate(category.lexicon(), n_products, 4, category.seed());
    let mut rng = StdRng::seed_from_u64(category.seed() ^ 0xfeed);

    // Render each product into 2-4 random sources.
    let n_sources = category.n_sources();
    let mut records: Vec<(usize, usize, Entity)> = Vec::new(); // (uid, source, entity)
    for p in &world.products {
        let copies = rng.gen_range(2..=4usize);
        let mut sources: Vec<usize> = (0..n_sources).collect();
        sources.shuffle(&mut rng);
        for &s in sources.iter().take(copies) {
            let e = render_entity(
                p,
                world.lexicon,
                &DI2KG_SCHEMA,
                &source_noise(s),
                &format!("s{s}"),
                &mut rng,
            );
            records.push((p.uid, s, e));
        }
    }

    // TF-IDF index over all records.
    let docs: Vec<Vec<String>> = records.iter().map(|(_, _, e)| tokenize(&e.full_text())).collect();
    let tfidf = TfIdf::fit(&docs);
    let vectors: Vec<_> = docs.iter().map(|d| tfidf.transform(d)).collect();
    let index = ShardedCosineIndex::build(&vectors, 1);

    // Queries: random records, blocked against records from other sources.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.shuffle(&mut rng);
    let mut examples = Vec::new();
    for &ri in &order {
        if examples.len() >= n_queries {
            break;
        }
        let (q_uid, q_source, q_entity) = &records[ri];
        let qvec = tfidf.transform(&docs[ri]);
        // Over-fetch, then drop same-source records and self.
        let hits = index.top_n(&qvec, 16 * 3);
        let mut candidates = Vec::new();
        let mut labels = Vec::new();
        for (doc, _) in hits {
            if doc == ri {
                continue;
            }
            let (uid, source, entity) = &records[doc];
            if source == q_source {
                continue;
            }
            candidates.push(entity.clone());
            labels.push(uid == q_uid);
            if candidates.len() == 16 {
                break;
            }
        }
        if candidates.is_empty() {
            continue;
        }
        examples.push(CollectiveExample::new(q_entity.clone(), candidates, labels));
    }
    CollectiveDataset::split_3_1_1(category.name(), examples, category.seed() ^ 0x5117)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_both_categories() {
        for cat in Di2kgCategory::all() {
            let ds = load_di2kg(cat, 0.3);
            assert!(ds.n_queries() >= 15, "{}: {}", cat.name(), ds.n_queries());
            assert_eq!(ds.name, cat.name());
        }
    }

    #[test]
    fn candidates_come_from_other_sources() {
        let ds = load_di2kg(Di2kgCategory::Camera, 0.3);
        for ex in ds.train.iter().chain(&ds.test) {
            let q_source = ex.query.id.split('-').next().expect("source prefix").to_string();
            for c in &ex.candidates {
                let c_source = c.id.split('-').next().expect("source prefix");
                assert_ne!(c_source, q_source, "candidate from the query's own source");
            }
        }
    }

    #[test]
    fn most_queries_have_a_match_in_candidates() {
        let ds = load_di2kg(Di2kgCategory::Monitor, 0.3);
        let total = ds.n_queries();
        let with_match: usize =
            ds.train.iter().chain(&ds.valid).chain(&ds.test).filter(|e| e.n_positive() > 0).count();
        assert!(with_match * 10 >= total * 5, "{with_match}/{total} queries with matches");
    }

    #[test]
    fn candidate_sets_capped_at_16() {
        let ds = load_di2kg(Di2kgCategory::Camera, 0.3);
        for e in ds.train.iter().chain(&ds.valid).chain(&ds.test) {
            assert!(e.n_candidates() <= 16);
        }
    }

    #[test]
    fn source_counts_match_paper() {
        assert_eq!(Di2kgCategory::Camera.n_sources(), 24);
        assert_eq!(Di2kgCategory::Monitor.n_sources(), 26);
    }

    /// Golden pin of the cross-source blocking (see the pairgen twin).
    #[test]
    fn generation_matches_golden_digest() {
        let digests: Vec<u64> = Di2kgCategory::all()
            .into_iter()
            .map(|cat| crate::dataset::collective_digest(&load_di2kg(cat, 0.3)))
            .collect();
        assert_eq!(digests, [576_582_259_372_141_865, 5_000_229_135_179_331_558]);
    }
}
