//! The streaming resolve driver: blocking → cascade scoring → clustering.
//!
//! This is the paper's Figure 5 pipeline at corpus scale. A fitted
//! [`CandidateSource`] streams `(query, candidates)` batches; each batch
//! contributes match *edges* to a union-find forest and is then dropped,
//! so memory is bounded by one batch regardless of corpus size — the
//! candidate pair matrix is never materialised.
//!
//! # The cosine cascade
//!
//! A HierGAT session scores ~10^3 pairs/s/core; a 10^6-record corpus
//! yields ~10^7 candidate pairs. The cascade keeps the model affordable:
//!
//! * `cosine >= accept`          → accept the edge outright;
//! * `cosine in [band.0, band.1)` → route the pair through
//!   [`Session::score_batch`] in `score_chunk`-sized chunks and accept
//!   when the model score clears the session threshold;
//! * otherwise                    → drop.
//!
//! Near-duplicates overwhelmingly land above `accept` (copies of one
//! product share most tokens), so the model only adjudicates the
//! ambiguous band — typically a few percent of candidates. Band pairs
//! already connected transitively are skipped, which both saves model
//! calls and is deterministic (union-find state depends only on the edge
//! set applied so far, and batches arrive in a fixed order).
//!
//! # Determinism
//!
//! Cluster output is bitwise-identical at any `HIERGAT_THREADS` width:
//! candidate retrieval is one-slot-per-query `par_map`, `score_batch` is
//! width-invariant, edges are normalised to `(min, max)` and deduplicated
//! within each batch, and the final labels are canonical min-member ids
//! (edge-order invariant).

use crate::Session;
use hiergat_blocking::{CandidateSource, EntityStore, UnionFind};
use hiergat_data::EntityPair;
use std::time::Instant;

/// Tuning knobs for [`resolve`].
#[derive(Debug, Clone)]
pub struct ResolveConfig {
    /// Queries per streamed batch.
    pub batch_size: usize,
    /// Pairs per `score_batch` call inside the model band.
    pub score_chunk: usize,
    /// Cosine at or above which an edge is accepted without the model.
    pub accept: f32,
    /// Cosine band `[lo, hi)` routed through the session; `None` (or no
    /// session) drops everything below `accept`.
    pub band: Option<(f32, f32)>,
}

impl Default for ResolveConfig {
    fn default() -> Self {
        Self { batch_size: 1024, score_chunk: 128, accept: 0.85, band: None }
    }
}

/// Counters and timings from one [`resolve`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolveStats {
    /// Records clustered.
    pub records: usize,
    /// Candidate edges streamed out of blocking (after per-query top-N and
    /// min-score filtering; before the cascade).
    pub candidates: u64,
    /// Edges accepted directly by the cosine threshold.
    pub cosine_accepted: u64,
    /// Pairs the session scored (band pairs not already connected).
    pub model_scored: u64,
    /// Band pairs the model accepted.
    pub model_accepted: u64,
    /// Band pairs skipped because their endpoints were already connected.
    pub band_skipped_connected: u64,
    /// Unions that actually merged two components.
    pub merges: u64,
    /// Final number of clusters.
    pub clusters: usize,
    /// Peak bytes held by in-flight batch buffers (candidates + band pair
    /// materialisations) — the streaming side of the peak-RSS proxy; the
    /// fitted source's index contributes separately via `memory_bytes`.
    pub batch_peak_bytes: u64,
    /// Wall-clock spent inside the model (band scoring).
    pub scoring_secs: f64,
    /// Total wall-clock of the resolve loop (blocking + cascade +
    /// clustering).
    pub total_secs: f64,
}

/// The result of a resolve run: canonical cluster labels (record `i` is
/// labelled with the smallest record id in its cluster) plus stats.
#[derive(Debug, Clone)]
pub struct Resolution {
    pub labels: Vec<u32>,
    pub stats: ResolveStats,
}

/// Streams `source`'s candidate batches into a union-find forest,
/// adjudicating ambiguous pairs with `session` when a band is configured.
/// `store` must be the table `source` was fitted on in dedup mode
/// (`store.len() == source.n_queries()`); it is only consulted to render
/// band-pair entities for the model.
pub fn resolve<S: CandidateSource>(
    source: &S,
    store: &dyn EntityStore,
    mut session: Option<&mut Session>,
    cfg: &ResolveConfig,
) -> Resolution {
    let n = source.n_queries();
    assert_eq!(
        n,
        store.len(),
        "resolve runs in dedup mode: the store must be the table the source was fitted on"
    );
    assert!(cfg.score_chunk > 0, "score_chunk must be positive");
    let band = match (&session, cfg.band) {
        (Some(_), Some((lo, hi))) => Some((lo.min(hi), cfg.accept.min(hi))),
        _ => None,
    };

    let start = Instant::now();
    let mut stats = ResolveStats { records: n, ..ResolveStats::default() };
    let mut uf = UnionFind::new(n);
    let mut cosine_edges: Vec<(u32, u32)> = Vec::new();
    let mut band_edges: Vec<(u32, u32)> = Vec::new();
    let mut pair_buf: Vec<EntityPair> = Vec::new();

    source.for_each_batch(cfg.batch_size.max(1), |batch| {
        cosine_edges.clear();
        band_edges.clear();
        for qc in batch {
            for c in &qc.candidates {
                if c.id == qc.query {
                    continue; // dedup sources exclude self already; belt and braces
                }
                stats.candidates += 1;
                let edge = (qc.query.min(c.id) as u32, qc.query.max(c.id) as u32);
                if c.score >= cfg.accept {
                    cosine_edges.push(edge);
                } else if let Some((lo, hi)) = band {
                    if c.score >= lo && c.score < hi {
                        band_edges.push(edge);
                    }
                }
            }
        }
        // Normalised edges arrive once per orientation; dedup within the
        // batch so the model never scores the same pair twice in a batch.
        cosine_edges.sort_unstable();
        cosine_edges.dedup();
        band_edges.sort_unstable();
        band_edges.dedup();

        for &(a, b) in &*cosine_edges {
            stats.cosine_accepted += 1;
            if uf.union(a as usize, b as usize) {
                stats.merges += 1;
            }
        }

        let mut batch_bytes = batch
            .iter()
            .map(|qc| {
                (size_of::<hiergat_blocking::QueryCandidates>()
                    + qc.candidates.capacity() * size_of::<hiergat_blocking::Candidate>())
                    as u64
            })
            .sum::<u64>()
            + ((cosine_edges.capacity() + band_edges.capacity()) * size_of::<(u32, u32)>()) as u64;

        if let Some(session) = session.as_deref_mut() {
            let scoring = Instant::now();
            for chunk in band_edges.chunks(cfg.score_chunk) {
                // Transitively-settled pairs don't need the model.
                let open: Vec<(u32, u32)> = chunk
                    .iter()
                    .copied()
                    .filter(|&(a, b)| {
                        let settled = uf.connected(a as usize, b as usize);
                        if settled {
                            stats.band_skipped_connected += 1;
                        }
                        !settled
                    })
                    .collect();
                if open.is_empty() {
                    continue;
                }
                pair_buf.clear();
                pair_buf.extend(open.iter().map(|&(a, b)| {
                    EntityPair::new(store.entity(a as usize), store.entity(b as usize), false)
                }));
                let pair_bytes: u64 = pair_buf
                    .iter()
                    .map(|p| (p.left.full_text().len() + p.right.full_text().len()) as u64 * 2)
                    .sum();
                batch_bytes = batch_bytes.max(pair_bytes);
                let scores = session.score_pairs(&pair_buf);
                stats.model_scored += open.len() as u64;
                let threshold = session.threshold();
                for (&(a, b), &score) in open.iter().zip(&scores) {
                    if score >= threshold {
                        stats.model_accepted += 1;
                        if uf.union(a as usize, b as usize) {
                            stats.merges += 1;
                        }
                    }
                }
            }
            stats.scoring_secs += scoring.elapsed().as_secs_f64();
        }
        stats.batch_peak_bytes = stats.batch_peak_bytes.max(batch_bytes);
    });

    let labels = uf.labels();
    stats.clusters = uf.n_components();
    stats.total_secs = start.elapsed().as_secs_f64();
    Resolution { labels, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildContext, ModelRegistry};
    use hiergat_blocking::{TfIdfCandidates, TfIdfSourceConfig};
    use hiergat_data::Entity;
    use hiergat_lm::LmTier;

    fn entity(id: &str, text: &str) -> Entity {
        Entity::new(id, vec![("title".into(), text.into())])
    }

    fn store() -> Vec<Entity> {
        vec![
            entity("0", "canon eos r5 mirrorless camera body kit"),
            entity("1", "canon eos r5 mirrorless camera body kit"),
            entity("2", "canon eos r5 mirrorless camera body kit"),
            entity("3", "dell ultrasharp 27 inch monitor panel"),
            entity("4", "dell ultrasharp 27 inch monitor panel"),
            entity("5", "fender stratocaster electric guitar sunburst"),
        ]
    }

    fn source(store: &[Entity]) -> TfIdfCandidates {
        let cfg = TfIdfSourceConfig {
            top_n: 4,
            min_score: 0.05,
            n_shards: 2,
            max_df: None,
            fit_chunk: 3,
        };
        TfIdfCandidates::fit_dedup(&store.to_vec(), &cfg)
    }

    #[test]
    fn cosine_only_resolve_clusters_duplicates() {
        let table = store();
        let src = source(&table);
        let cfg = ResolveConfig { batch_size: 2, accept: 0.95, ..ResolveConfig::default() };
        let r = resolve(&src, &table, None, &cfg);
        assert_eq!(r.labels, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(r.stats.clusters, 3);
        assert!(r.stats.cosine_accepted >= 4);
        assert_eq!(r.stats.model_scored, 0);
        assert!(r.stats.batch_peak_bytes > 0);
    }

    #[test]
    fn band_routes_through_session() {
        let table = store();
        let src = source(&table);
        let registry = ModelRegistry::builtin();
        let cx = BuildContext { tier: LmTier::MiniDistil, arity: 1 };
        let spec = registry.get("hiergat").expect("hiergat is a builtin model");
        let mut session = Session::new(spec.build(&cx));
        // Impossible cosine accept forces every candidate into the band.
        let cfg =
            ResolveConfig { batch_size: 4, score_chunk: 2, accept: 1.1, band: Some((0.0, 1.1)) };
        let r = resolve(&src, &table, Some(&mut session), &cfg);
        assert!(r.stats.model_scored > 0, "band pairs must reach the session");
        assert_eq!(r.stats.cosine_accepted, 0);
        // Whatever the untrained model decided, the pipeline is
        // deterministic: a second identical run reproduces it bitwise.
        let mut session2 = Session::new(spec.build(&cx));
        let r2 = resolve(&src, &table, Some(&mut session2), &cfg);
        assert_eq!(r.labels, r2.labels);
    }

    #[test]
    fn labels_are_width_invariant() {
        let table = store();
        let src = source(&table);
        let cfg = ResolveConfig { batch_size: 2, accept: 0.95, ..ResolveConfig::default() };
        let serial = parallel::with_threads(1, || resolve(&src, &table, None, &cfg).labels);
        let wide = parallel::with_threads(8, || resolve(&src, &table, None, &cfg).labels);
        assert_eq!(serial, wide);
    }

    /// A small table under the default `max_df` (1% of 5 rows) must still
    /// merge its exact duplicates: a term shared by just two records is
    /// never a stop term, whatever the table size.
    #[test]
    fn small_table_merges_duplicates_under_default_max_df() {
        let table = vec![
            entity("0", "canon eos r5 mirrorless camera"),
            entity("1", "canon eos r5 mirrorless camera"),
            entity("2", "dell ultrasharp 27 inch monitor"),
            entity("3", "dell ultrasharp 27 inch monitor"),
            entity("4", "fender stratocaster electric guitar"),
        ];
        let src_cfg = TfIdfSourceConfig::default();
        assert_eq!(src_cfg.max_df, Some(0.01), "the default under test");
        let src = TfIdfCandidates::fit_dedup(&table, &src_cfg);
        let r = resolve(&src, &table, None, &ResolveConfig::default());
        assert_eq!(r.labels, vec![0, 0, 2, 2, 4]);
        assert_eq!(r.stats.clusters, 3);
    }

    /// Adversarial rows must not break the pipeline: rows with no
    /// attributes, all-`NAN` rows, rows made only of stop terms, a
    /// 20k-token row, and emoji and non-ASCII text. Exact duplicates
    /// among them must still merge, whatever the fit chunking.
    #[test]
    fn adversarial_records_resolve_and_merge_duplicates() {
        let long: String = (0..20_000).map(|i| format!("tok{} ", i % 4099)).collect();
        let row = |id: usize, attrs: &[(&str, &str)]| {
            Entity::new(
                id.to_string(),
                attrs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            )
        };
        let texts: [&[(&str, &str)]; 14] = [
            &[],
            &[],
            &[("title", ""), ("price", "NAN")],
            &[("title", "NAN"), ("price", "  ")],
            &[("title", "the and of"), ("brand", "the")],
            &[("title", "of the and")],
            &[("title", "and the of and")],
            &[("title", &long)],
            &[("title", "😀🎉🚀"), ("price", "💯")],
            &[("title", "Café Crème Brûlée İstanbul 東京 ½ ٣٤ 😀")],
            &[("title", "Café Crème Brûlée İstanbul 東京 ½ ٣٤ 😀")],
            &[("title", "canon eos r5 mirrorless camera"), ("price", "3899.00")],
            &[("title", "canon eos r5 mirrorless camera"), ("price", "3899.00")],
            &[("title", "fender stratocaster 1,299.99 sunburst the")],
        ];
        let table: Vec<Entity> = texts.iter().enumerate().map(|(i, a)| row(i, a)).collect();
        let mut first: Option<Vec<u32>> = None;
        for fit_chunk in [1, 3, 4096] {
            let src_cfg = TfIdfSourceConfig { fit_chunk, ..TfIdfSourceConfig::default() };
            let src = TfIdfCandidates::fit_dedup(&table, &src_cfg);
            let r = resolve(&src, &table, None, &ResolveConfig::default());
            assert_eq!(r.labels.len(), table.len());
            assert_eq!(r.labels[10], r.labels[9], "non-ASCII duplicates must merge");
            assert_eq!(r.labels[12], r.labels[11], "exact duplicates must merge");
            assert_ne!(r.labels[11], r.labels[9], "unrelated rows must stay apart");
            assert_eq!(r.labels[7], 7, "the long row has no duplicate");
            match &first {
                None => first = Some(r.labels),
                Some(f) => assert_eq!(&r.labels, f, "labels changed with fit_chunk {fit_chunk}"),
            }
        }
    }
}
