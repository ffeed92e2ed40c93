//! Streaming candidate generation.
//!
//! The old blockers materialised candidate lists (or whole pair
//! matrices) up front — fine for Magellan tables, fatal at 10^6 records
//! where the candidate set alone is ~10^7 pairs. [`CandidateSource`]
//! inverts that: a fitted source *streams* `(query, candidates)` batches
//! of a fixed size, so downstream consumers (scoring, clustering) hold at
//! most one batch of candidates at a time. Query batches are fanned over
//! the vendored `parallel` pool one query per output slot, which keeps
//! every batch bitwise-identical to a serial scan at any pool width.

use crate::KeywordBlocker;
use hiergat_data::Entity;
use hiergat_text::{
    stop_terms_of, ShardedCosineIndex, ShardedIndexBuilder, SparseVec, TfIdf, TfIdfBuilder,
};
use std::collections::HashMap;
use std::time::Instant;

/// Records per partial vocabulary in the first fit pass: small enough
/// that a `fit_chunk` splits into several runs to spread over the pool,
/// large enough that the serial merge walks each run's distinct terms,
/// far fewer than its tokens. Fixed, so term ids never depend on width.
const VOCAB_SUB_CHUNK: usize = 512;

/// Random access to a (possibly virtual) entity table. Implementations
/// may materialise rows on demand — the million-record synthetic corpus
/// re-renders entities from seeds instead of storing them.
pub trait EntityStore: Sync {
    fn len(&self) -> usize;
    /// Renders record `i`. May allocate; callers should not assume two
    /// calls are free.
    fn entity(&self, i: usize) -> Entity;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EntityStore for [Entity] {
    fn len(&self) -> usize {
        <[Entity]>::len(self)
    }
    fn entity(&self, i: usize) -> Entity {
        self[i].clone()
    }
}

impl EntityStore for Vec<Entity> {
    fn len(&self) -> usize {
        <[Entity]>::len(self)
    }
    fn entity(&self, i: usize) -> Entity {
        self[i].clone()
    }
}

/// The million-record synthetic corpus re-renders records from seeds.
impl EntityStore for hiergat_data::SynthCorpus {
    fn len(&self) -> usize {
        hiergat_data::SynthCorpus::len(self)
    }
    fn entity(&self, i: usize) -> Entity {
        hiergat_data::SynthCorpus::entity(self, i)
    }
}

/// One retrieved candidate: a record index in the fitted table and the
/// blocker's similarity score for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    pub id: usize,
    pub score: f32,
}

/// A query record together with its retrieved candidates, best first.
#[derive(Debug, Clone, Default)]
pub struct QueryCandidates {
    pub query: usize,
    pub candidates: Vec<Candidate>,
}

/// A fitted blocker that streams candidates per query instead of
/// materialising the pair matrix.
pub trait CandidateSource: Sync {
    /// Number of query records.
    fn n_queries(&self) -> usize;

    /// Retrieves candidates for query `i` into `out` (cleared first),
    /// best first. Dedup-mode sources exclude the query itself.
    fn fill_candidates(&self, query: usize, out: &mut Vec<Candidate>);

    /// Streams `(query, candidates)` batches of at most `batch_size`
    /// queries in ascending query order. Candidate retrieval inside a
    /// batch is fanned over the `parallel` pool (one query per output
    /// slot — deterministic at any width); `f` observes each batch on the
    /// calling thread, and no more than one batch is alive at a time.
    fn for_each_batch<F: FnMut(&[QueryCandidates])>(&self, batch_size: usize, mut f: F)
    where
        Self: Sized,
    {
        assert!(batch_size > 0, "batch size must be positive");
        let n = self.n_queries();
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            let ids: Vec<usize> = (start..end).collect();
            let batch: Vec<QueryCandidates> = parallel::par_map(&ids, |&q| {
                let mut candidates = Vec::new();
                self.fill_candidates(q, &mut candidates);
                QueryCandidates { query: q, candidates }
            });
            f(&batch);
            start = end;
        }
    }
}

/// Configuration for [`TfIdfCandidates`].
#[derive(Debug, Clone)]
pub struct TfIdfSourceConfig {
    /// Candidates retrieved per query (after self-exclusion).
    pub top_n: usize,
    /// Candidates scoring below this cosine are dropped.
    pub min_score: f32,
    /// Inverted-index shards.
    pub n_shards: usize,
    /// Prune terms whose document frequency exceeds this fraction of the
    /// corpus (`None` disables). DF is global, so pruning does not affect
    /// shard-count invariance.
    pub max_df: Option<f64>,
    /// Records tokenized/transformed per parallel chunk during fitting.
    pub fit_chunk: usize,
}

impl Default for TfIdfSourceConfig {
    fn default() -> Self {
        Self { top_n: 8, min_score: 0.15, n_shards: 8, max_df: Some(0.01), fit_chunk: 4096 }
    }
}

/// TF-IDF cosine top-N retrieval over a sharded inverted index, in
/// dedup mode (every record queries the table it lives in; self-matches
/// are excluded).
pub struct TfIdfCandidates {
    tfidf: TfIdf,
    index: ShardedCosineIndex,
    queries: Vec<SparseVec>,
    top_n: usize,
    min_score: f32,
    exclude_self: bool,
    fit_stats: FitStats,
}

/// Wall-clock split of [`TfIdfCandidates::fit_dedup`] into its two
/// passes. Each pass renders every record once, so both include a full
/// rendering of the store.
#[derive(Debug, Clone, Copy)]
pub struct FitStats {
    /// Pass 1: tokenizing every record and counting the vocabulary with
    /// its document frequencies.
    pub vocab_secs: f64,
    /// Pass 2: transforming every record to its TF-IDF vector and
    /// pushing it into the sharded index.
    pub transform_secs: f64,
}

impl TfIdfCandidates {
    /// Two streaming passes over `store`, each rendering every record
    /// once: fit the vectorizer, then build the sharded index and query
    /// vectors. Peak transient memory is one `fit_chunk` of partial
    /// vocabularies or vectors; the retained state is the index postings
    /// plus one sparse vector per record.
    pub fn fit_dedup(store: &dyn EntityStore, cfg: &TfIdfSourceConfig) -> Self {
        let n = store.len();
        let ids: Vec<usize> = (0..n).collect();
        let fit_chunk = cfg.fit_chunk.max(1);

        // Pass 1: document frequencies. Each `VOCAB_SUB_CHUNK` run of
        // records is counted into its own first-seen vocabulary across
        // the pool; merging the runs in record order reproduces the ids
        // and frequencies of one serial scan at any pool width.
        let pass1 = Instant::now();
        let mut fit = TfIdfBuilder::new();
        for chunk in ids.chunks(fit_chunk) {
            let runs: Vec<&[usize]> = chunk.chunks(VOCAB_SUB_CHUNK).collect();
            let mut partials: Vec<TfIdfBuilder> =
                runs.iter().map(|_| TfIdfBuilder::new()).collect();
            // One task per run at any pool width (`par_map` would run a
            // few wide items serially on a wide pool).
            parallel::par_chunks_mut(&mut partials, 1, |r, partial| {
                let mut buf = String::new();
                for &i in runs[r] {
                    partial[0].add_text(&store.entity(i).full_text(), &mut buf);
                }
            });
            for partial in partials {
                fit.merge(partial);
            }
        }
        let tfidf = fit.finish();
        let vocab_secs = pass1.elapsed().as_secs_f64();

        // Pass 2: transform and index. Stop-term pruning drops postings
        // for ubiquitous terms; query vectors keep them (their dot
        // contribution vanishes against the pruned index either way).
        let pass2 = Instant::now();
        let stop = cfg.max_df.map(|r| stop_terms_of(&tfidf, r)).unwrap_or_default();
        let mut builder = ShardedIndexBuilder::new(cfg.n_shards).with_stop_terms(stop);
        let mut queries: Vec<SparseVec> = Vec::with_capacity(n);
        for chunk in ids.chunks(fit_chunk) {
            let vecs: Vec<SparseVec> =
                parallel::par_map(chunk, |&i| tfidf.transform_text(&store.entity(i).full_text()));
            for v in vecs {
                builder.push(&v);
                queries.push(v);
            }
        }
        let index = builder.finish();
        let fit_stats = FitStats { vocab_secs, transform_secs: pass2.elapsed().as_secs_f64() };
        Self {
            tfidf,
            index,
            queries,
            top_n: cfg.top_n,
            min_score: cfg.min_score,
            exclude_self: true,
            fit_stats,
        }
    }

    /// Cross mode: fit on `table`, query with separate records (no
    /// self-exclusion).
    pub fn fit_cross(queries: &[Entity], table: &dyn EntityStore, cfg: &TfIdfSourceConfig) -> Self {
        let mut source = Self::fit_dedup(table, cfg);
        source.queries =
            queries.iter().map(|e| source.tfidf.transform_text(&e.full_text())).collect();
        source.exclude_self = false;
        source
    }

    /// Wall time of the two fit passes.
    pub fn fit_stats(&self) -> FitStats {
        self.fit_stats
    }

    pub fn tfidf(&self) -> &TfIdf {
        &self.tfidf
    }

    pub fn index(&self) -> &ShardedCosineIndex {
        &self.index
    }

    /// Bytes retained by the fitted source: index postings plus stored
    /// query vectors (the peak-RSS proxy contribution of blocking).
    pub fn memory_bytes(&self) -> u64 {
        const HDR: u64 = size_of::<SparseVec>() as u64;
        const ENTRY: u64 = size_of::<(usize, f32)>() as u64;
        let query_bytes: u64 = self.queries.iter().map(|q| HDR + q.nnz() as u64 * ENTRY).sum();
        self.index.memory_bytes() + query_bytes
    }
}

impl CandidateSource for TfIdfCandidates {
    fn n_queries(&self) -> usize {
        self.queries.len()
    }

    fn fill_candidates(&self, query: usize, out: &mut Vec<Candidate>) {
        out.clear();
        let fetch = self.top_n + usize::from(self.exclude_self);
        for (doc, score) in self.index.top_n(&self.queries[query], fetch) {
            if self.exclude_self && doc == query {
                continue;
            }
            if score < self.min_score || out.len() == self.top_n {
                break;
            }
            out.push(Candidate { id: doc, score });
        }
    }
}

/// Keyword-overlap retrieval re-hosted on token postings, in dedup mode.
/// The score of a candidate is its shared-token count; candidates are
/// ranked (count descending, id ascending) and capped at `top_n`.
pub struct KeywordCandidates {
    postings: Vec<Vec<u32>>,
    doc_tokens: Vec<Vec<u32>>,
    min_shared: usize,
    top_n: usize,
}

impl KeywordCandidates {
    pub fn fit_dedup(store: &dyn EntityStore, blocker: &KeywordBlocker, top_n: usize) -> Self {
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut doc_tokens: Vec<Vec<u32>> = Vec::with_capacity(store.len());
        for i in 0..store.len() {
            let doc = u32::try_from(i).expect("keyword source holds at most u32::MAX docs");
            let mut ids: Vec<u32> = blocker
                .token_set(&store.entity(i))
                .into_iter()
                .map(|tok| {
                    let next = vocab.len() as u32;
                    let id = *vocab.entry(tok).or_insert(next);
                    if id as usize == postings.len() {
                        postings.push(Vec::new());
                    }
                    postings[id as usize].push(doc);
                    id
                })
                .collect();
            ids.sort_unstable();
            doc_tokens.push(ids);
        }
        Self { postings, doc_tokens, min_shared: blocker.min_shared, top_n }
    }
}

impl CandidateSource for KeywordCandidates {
    fn n_queries(&self) -> usize {
        self.doc_tokens.len()
    }

    fn fill_candidates(&self, query: usize, out: &mut Vec<Candidate>) {
        out.clear();
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &tok in &self.doc_tokens[query] {
            for &doc in &self.postings[tok as usize] {
                if doc as usize != query {
                    *counts.entry(doc).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(u32, u32)> =
            counts.into_iter().filter(|&(_, shared)| shared as usize >= self.min_shared).collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.top_n);
        out.extend(
            ranked
                .into_iter()
                .map(|(doc, shared)| Candidate { id: doc as usize, score: shared as f32 }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(id: &str, text: &str) -> Entity {
        Entity::new(id, vec![("title".into(), text.into())])
    }

    fn table() -> Vec<Entity> {
        vec![
            entity("0", "canon eos r5 mirrorless camera"),
            entity("1", "canon eos r5 mirrorless camera"),
            entity("2", "nikon z6 mirrorless camera"),
            entity("3", "dell ultrasharp monitor panel"),
            entity("4", "lg ultrawide monitor panel"),
        ]
    }

    fn cfg() -> TfIdfSourceConfig {
        TfIdfSourceConfig { top_n: 3, min_score: 0.05, n_shards: 2, max_df: None, fit_chunk: 2 }
    }

    #[test]
    fn dedup_mode_excludes_self() {
        let source = TfIdfCandidates::fit_dedup(&table(), &cfg());
        for q in 0..source.n_queries() {
            let mut out = Vec::new();
            source.fill_candidates(q, &mut out);
            assert!(out.iter().all(|c| c.id != q), "query {q} retrieved itself: {out:?}");
        }
    }

    #[test]
    fn duplicate_records_retrieve_each_other_first() {
        let source = TfIdfCandidates::fit_dedup(&table(), &cfg());
        let mut out = Vec::new();
        source.fill_candidates(0, &mut out);
        assert_eq!(out[0].id, 1);
        assert!(out[0].score > 0.99);
        source.fill_candidates(1, &mut out);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn batches_stream_every_query_once_in_order() {
        let source = TfIdfCandidates::fit_dedup(&table(), &cfg());
        let mut seen: Vec<usize> = Vec::new();
        let mut max_batch = 0;
        source.for_each_batch(2, |batch| {
            max_batch = max_batch.max(batch.len());
            seen.extend(batch.iter().map(|qc| qc.query));
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(max_batch <= 2);
    }

    #[test]
    fn cross_mode_keeps_self_ids() {
        let right = table();
        let queries = vec![entity("q", "canon eos r5 camera")];
        let source = TfIdfCandidates::fit_cross(&queries, &right, &cfg());
        assert_eq!(source.n_queries(), 1);
        let mut out = Vec::new();
        source.fill_candidates(0, &mut out);
        assert_eq!(out[0].id, 0, "best candidate should be the first r5 record");
    }

    #[test]
    fn keyword_source_ranks_by_shared_count() {
        let blocker = KeywordBlocker::new(1);
        let source = KeywordCandidates::fit_dedup(&table(), &blocker, 4);
        let mut out = Vec::new();
        source.fill_candidates(0, &mut out);
        // Doc 1 shares all 4 qualifying tokens ("r5" is below the length
        // floor), doc 2 shares {mirrorless, camera}.
        assert_eq!(out[0].id, 1);
        assert_eq!(out[0].score, 4.0);
        assert_eq!(out[1].id, 2);
        assert!(out.iter().all(|c| c.id != 0));
    }

    /// FNV-1a digest of a fitted source: its document frequencies, its
    /// vocabulary size, and every query's candidates as (id, score bits).
    fn source_digest(source: &TfIdfCandidates) -> u64 {
        let mut bytes = Vec::new();
        let mut field = |b: &[u8]| {
            bytes.extend_from_slice(b);
            bytes.push(0xff);
        };
        for &df in source.tfidf().doc_freqs() {
            field(&df.to_le_bytes());
        }
        field(&(source.tfidf().vocab_size() as u64).to_le_bytes());
        let mut out = Vec::new();
        for q in 0..source.n_queries() {
            source.fill_candidates(q, &mut out);
            field(&(q as u64).to_le_bytes());
            for c in &out {
                field(&(c.id as u64).to_le_bytes());
                field(&c.score.to_bits().to_le_bytes());
            }
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Golden pin of the fitted source on a 3k-record synthetic corpus:
    /// term ids, document frequencies and every candidate list must stay
    /// bitwise identical across fit rewrites and pool widths.
    #[test]
    fn fitted_source_matches_golden_digest() {
        let corpus = hiergat_data::SynthCorpus::new(hiergat_data::CorpusConfig {
            n_records: 3000,
            seed: 11,
            ..hiergat_data::CorpusConfig::default()
        });
        for width in [1, 2, 8] {
            let digest = parallel::with_threads(width, || {
                source_digest(&TfIdfCandidates::fit_dedup(&corpus, &TfIdfSourceConfig::default()))
            });
            assert_eq!(
                digest, 9_167_365_285_092_656_541,
                "fitted source digest drifted at width {width}"
            );
        }
    }

    #[test]
    fn memory_bytes_grows_with_corpus() {
        let small = TfIdfCandidates::fit_dedup(&table()[..2].to_vec(), &cfg());
        let full = TfIdfCandidates::fit_dedup(&table(), &cfg());
        assert!(full.memory_bytes() > small.memory_bytes());
    }
}
