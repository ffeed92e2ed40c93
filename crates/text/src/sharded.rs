//! Sharded inverted index for corpus-scale top-N cosine retrieval.
//!
//! At 10^6+ documents the resolve pipeline needs (a) postings split into
//! shards so queries fan out over the `parallel` pool, (b) dense per-shard
//! score accumulators instead of hashing, and (c) document-frequency
//! pruning so ubiquitous lexicon terms don't drag every query over the
//! whole corpus. With one shard and no stop terms it is the plain flat
//! inverted index, which is how the toy-table generators use it.
//!
//! # Determinism
//!
//! Results are identical for *any* shard count and pool width:
//!
//! - A document's postings live entirely in one shard (`doc % n_shards`),
//!   so its score is accumulated in query-term order regardless of layout —
//!   bitwise-identical sums.
//! - Top-N selection (per shard and at the merge) uses the strict total
//!   order (score descending, doc id ascending); a set selected under a
//!   total order does not depend on offer order.
//! - The merge concatenates per-shard top-N lists and re-selects; the
//!   global top-N is a subset of the union of per-shard top-Ns, so this is
//!   exact.

use crate::tfidf::{SparseVec, TfIdf, TopSelect};
use std::cell::RefCell;

/// Marks terms whose document frequency exceeds `max_df_ratio * n_docs`
/// as stop terms (to be dropped from the index). DF is a global corpus
/// property, so pruning is independent of shard layout. The cutoff never
/// drops below 2: a term shared by just one pair of records is the
/// strongest duplicate evidence a small table has, not a stop word.
pub fn stop_terms_by_df(doc_freqs: &[u32], n_docs: usize, max_df_ratio: f64) -> Vec<bool> {
    let cutoff = (n_docs as f64 * max_df_ratio).max(2.0);
    doc_freqs.iter().map(|&df| f64::from(df) > cutoff).collect()
}

/// Convenience: stop-term mask from a fitted vectorizer.
pub fn stop_terms_of(tfidf: &TfIdf, max_df_ratio: f64) -> Vec<bool> {
    stop_terms_by_df(tfidf.doc_freqs(), tfidf.n_docs(), max_df_ratio)
}

/// Streaming builder for [`ShardedCosineIndex`]: push pre-transformed
/// document vectors one at a time (doc ids are assigned in push order).
pub struct ShardedIndexBuilder {
    shards: Vec<Vec<Vec<(u32, f32)>>>,
    stop: Vec<bool>,
    n_docs: usize,
}

impl ShardedIndexBuilder {
    /// `n_shards` must be at least 1.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "sharded index needs at least one shard");
        Self { shards: (0..n_shards).map(|_| Vec::new()).collect(), stop: Vec::new(), n_docs: 0 }
    }

    /// Installs a stop-term mask (indexed by term id); postings for marked
    /// terms are dropped. See [`stop_terms_by_df`].
    #[must_use]
    pub fn with_stop_terms(mut self, stop: Vec<bool>) -> Self {
        self.stop = stop;
        self
    }

    /// Appends one document vector; its id is the number of docs pushed
    /// before it.
    pub fn push(&mut self, v: &SparseVec) {
        let doc = u32::try_from(self.n_docs).expect("sharded index holds at most u32::MAX docs");
        let slot = self.n_docs % self.shards.len();
        let shard = &mut self.shards[slot];
        for &(term, w) in v.entries() {
            if self.stop.get(term).copied().unwrap_or(false) {
                continue;
            }
            if term >= shard.len() {
                shard.resize_with(term + 1, Vec::new);
            }
            shard[term].push((doc, w));
        }
        self.n_docs += 1;
    }

    pub fn finish(self) -> ShardedCosineIndex {
        let n_shards = self.shards.len();
        let n_docs = self.n_docs;
        let pruned_terms = self.stop.iter().filter(|&&s| s).count();
        let shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, postings)| Shard {
                postings,
                n_local: if n_docs > s { (n_docs - s).div_ceil(n_shards) } else { 0 },
            })
            .collect();
        ShardedCosineIndex { shards, n_shards, n_docs, pruned_terms }
    }
}

struct Shard {
    /// `postings[term]` = `(doc id, weight)` in doc-id order.
    postings: Vec<Vec<(u32, f32)>>,
    /// Number of documents assigned to this shard.
    n_local: usize,
}

/// Sharded inverted index over unit-length TF-IDF vectors (cosine = dot).
pub struct ShardedCosineIndex {
    shards: Vec<Shard>,
    n_shards: usize,
    n_docs: usize,
    pruned_terms: usize,
}

/// Dense per-shard accumulator, reused across queries via a thread-local.
/// `mark` carries an epoch stamp so clearing a query is O(touched), not
/// O(shard size).
struct Scratch {
    scores: Vec<f32>,
    mark: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl Scratch {
    const fn new() -> Self {
        Self { scores: Vec::new(), mark: Vec::new(), epoch: 0, touched: Vec::new() }
    }

    fn begin(&mut self, n_local: usize) {
        if self.scores.len() < n_local {
            self.scores.resize(n_local, 0.0);
            self.mark.resize(n_local, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

impl ShardedCosineIndex {
    /// Single-pass build over a pre-transformed corpus (no stop terms).
    pub fn build(vectors: &[SparseVec], n_shards: usize) -> Self {
        let mut b = ShardedIndexBuilder::new(n_shards);
        for v in vectors {
            b.push(v);
        }
        b.finish()
    }

    /// Scores one shard and returns its top `n` hits, best first
    /// (global doc ids).
    fn shard_top_n(
        &self,
        s: usize,
        query: &SparseVec,
        n: usize,
        scratch: &mut Scratch,
    ) -> Vec<(usize, f32)> {
        let shard = &self.shards[s];
        scratch.begin(shard.n_local);
        let epoch = scratch.epoch;
        for &(term, qw) in query.entries() {
            let Some(posting) = shard.postings.get(term) else { continue };
            for &(doc, dw) in posting {
                let local = doc as usize / self.n_shards;
                if scratch.mark[local] != epoch {
                    scratch.mark[local] = epoch;
                    scratch.scores[local] = 0.0;
                    scratch.touched.push(doc);
                }
                scratch.scores[local] += qw * dw;
            }
        }
        let mut select = TopSelect::new(n);
        for &doc in &scratch.touched {
            select.offer(doc as usize, scratch.scores[doc as usize / self.n_shards]);
        }
        select.into_ranked()
    }

    /// Top `n` hits across all shards, best first (score descending, doc id
    /// ascending). Scans shards serially on the calling thread — this is
    /// the right shape when callers already fan *queries* over the pool
    /// (see [`top_n_batch`](Self::top_n_batch)).
    pub fn top_n(&self, query: &SparseVec, n: usize) -> Vec<(usize, f32)> {
        SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            let mut select = TopSelect::new(n);
            for s in 0..self.n_shards {
                for (doc, score) in self.shard_top_n(s, query, n, scratch) {
                    select.offer(doc, score);
                }
            }
            select.into_ranked()
        })
    }

    /// Top `n` for a single query with the *shard* scans fanned over the
    /// `parallel` pool, then merged deterministically. Use for one-off
    /// queries; batch workloads should fan queries instead.
    pub fn top_n_par(&self, query: &SparseVec, n: usize) -> Vec<(usize, f32)> {
        let shard_ids: Vec<usize> = (0..self.n_shards).collect();
        let per_shard: Vec<Vec<(usize, f32)>> = parallel::par_map(&shard_ids, |&s| {
            SCRATCH.with(|cell| self.shard_top_n(s, query, n, &mut cell.borrow_mut()))
        });
        let mut select = TopSelect::new(n);
        for hits in per_shard {
            for (doc, score) in hits {
                select.offer(doc, score);
            }
        }
        select.into_ranked()
    }

    /// Top `n` for a batch of queries, fanned over the `parallel` pool one
    /// query per slot (bitwise-identical to serial at any pool width; each
    /// worker reuses its thread-local scratch).
    pub fn top_n_batch(&self, queries: &[SparseVec], n: usize) -> Vec<Vec<(usize, f32)>> {
        parallel::par_map(queries, |q| self.top_n(q, n))
    }

    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of vocabulary terms dropped by the stop-term mask.
    pub fn pruned_terms(&self) -> usize {
        self.pruned_terms
    }

    /// Total posting entries across shards.
    pub fn n_postings(&self) -> u64 {
        self.shards.iter().map(|sh| sh.postings.iter().map(|p| p.len() as u64).sum::<u64>()).sum()
    }

    /// Bytes held by posting storage (the peak-RSS proxy contribution of
    /// the index): capacity of every posting vector plus vector headers.
    pub fn memory_bytes(&self) -> u64 {
        const HDR: u64 = size_of::<Vec<(u32, f32)>>() as u64;
        const ENTRY: u64 = size_of::<(u32, f32)>() as u64;
        self.shards
            .iter()
            .map(|sh| sh.postings.iter().map(|p| HDR + p.capacity() as u64 * ENTRY).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::TfIdf;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn corpus() -> Vec<Vec<String>> {
        vec![
            toks("canon eos r5 mirrorless camera body"),
            toks("canon eos r6 mirrorless camera body"),
            toks("nikon z6 mirrorless camera"),
            toks("sony a7 iii full frame camera"),
            toks("dell ultrasharp 27 monitor"),
            toks("lg 27 4k monitor display"),
            toks("canon eos r5 camera kit with lens"),
        ]
    }

    /// One shard is the flat layout: every shard count must reproduce it.
    #[test]
    fn matches_flat_index_for_every_shard_count() {
        let docs = corpus();
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let flat = ShardedCosineIndex::build(&vecs, 1);
        let query = tfidf.transform(&toks("canon eos r5 camera"));
        let want = flat.top_n(&query, 4);
        for shards in 1..=8 {
            let index = ShardedCosineIndex::build(&vecs, shards);
            assert_eq!(index.top_n(&query, 4), want, "{shards} shards diverged (serial)");
            assert_eq!(index.top_n_par(&query, 4), want, "{shards} shards diverged (par)");
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let docs = corpus();
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vecs, 3);
        let queries: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let batch = index.top_n_batch(&queries, 3);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &index.top_n(q, 3));
        }
    }

    #[test]
    fn stop_terms_drop_ubiquitous_words() {
        let docs = corpus();
        let tfidf = TfIdf::fit(&docs);
        // "camera" appears in 5/7 docs; prune anything over 50% DF.
        let stop = stop_terms_of(&tfidf, 0.5);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let mut b = ShardedIndexBuilder::new(2).with_stop_terms(stop);
        for v in &vecs {
            b.push(v);
        }
        let pruned = b.finish();
        let full = ShardedCosineIndex::build(&vecs, 2);
        assert!(pruned.pruned_terms() >= 1);
        assert!(pruned.n_postings() < full.n_postings());
        // Discriminative terms still retrieve: r5 query finds both r5 docs.
        let hits = pruned.top_n(&tfidf.transform(&toks("canon eos r5")), 2);
        let ids: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 6]);
    }

    #[test]
    fn memory_bytes_counts_postings() {
        let docs = corpus();
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vecs, 2);
        assert!(index.memory_bytes() >= index.n_postings() * 8);
        assert_eq!(index.n_docs(), docs.len());
        assert_eq!(index.n_shards(), 2);
    }
}
