//! TF-IDF vectorization with sparse cosine similarity.
//!
//! The collective-ER blocking protocol (§6.3 of the paper) ranks candidates
//! by TF-IDF cosine similarity; this module provides the fitted vectorizer
//! and an inverted-index-backed top-N query used by `hiergat-blocking`.

use crate::Tokenizer;
use std::cell::RefCell;
use std::collections::HashMap;

/// A sparse vector: sorted `(term id, weight)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(usize, f32)>,
}

impl SparseVec {
    /// Builds from unsorted pairs, merging duplicates.
    pub fn from_pairs(mut pairs: Vec<(usize, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(usize, f32)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        Self { entries }
    }

    /// Sorted entries.
    pub fn entries(&self) -> &[(usize, f32)] {
        &self.entries
    }

    /// Number of nonzero terms.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|(_, w)| w * w).sum::<f32>().sqrt()
    }

    /// Dot product by sorted merge.
    pub fn dot(&self, other: &SparseVec) -> f32 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.entries[i].1 * other.entries[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity.
    pub fn cosine(&self, other: &SparseVec) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }
}

/// Streaming fit for [`TfIdf`]: feed documents one at a time so corpora
/// of millions of records never need their token lists materialised at
/// once. `TfIdf::fit` is a thin wrapper over this.
///
/// A builder is a first-seen vocabulary with per-term document
/// frequencies over the documents it was fed, so it also serves as the
/// partial fit of a run of documents: [`TfIdfBuilder::merge`] appends
/// another builder's documents, giving the same term ids and frequencies
/// as feeding them here directly. Fits can be split into chunks counted in
/// parallel and merged in order.
#[derive(Debug, Default)]
pub struct TfIdfBuilder {
    term_ids: HashMap<String, usize>,
    doc_freq: Vec<u32>,
    // Per-term stamp of the last document that counted it, so each term is
    // counted at most once per document in O(1) (no per-doc seen set).
    seen_stamp: Vec<u32>,
    n_docs: usize,
}

impl TfIdfBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one document's tokens into the vocabulary and document
    /// frequencies.
    pub fn add_doc<S: AsRef<str>>(&mut self, tokens: &[S]) {
        let stamp = self.next_doc();
        for tok in tokens {
            self.count(tok.as_ref(), stamp);
        }
    }

    /// Counts one document given as raw text, tokenized with the default
    /// [`Tokenizer`] in `buf` — the same document frequencies as
    /// `add_doc(&tokenize(text))`, without a `String` per token.
    pub fn add_text(&mut self, text: &str, buf: &mut String) {
        let stamp = self.next_doc();
        Tokenizer::new().for_each_token(text, buf, |tok| self.count(tok, stamp));
    }

    /// Appends the documents counted by `later`, as if they had been
    /// added here after everything already counted. A term new to `self`
    /// takes the next id in `later`'s first-seen order, which is its
    /// first-seen order over the concatenated documents — so ids,
    /// frequencies and IDF are those of one serial fit.
    pub fn merge(&mut self, later: TfIdfBuilder) {
        let mut terms = vec![String::new(); later.term_ids.len()];
        for (term, id) in later.term_ids {
            terms[id] = term;
        }
        for (term, df) in terms.into_iter().zip(later.doc_freq) {
            let id = match self.term_ids.get(term.as_str()) {
                Some(&id) => id,
                None => self.push_term(term),
            };
            self.doc_freq[id] += df;
        }
        self.n_docs += later.n_docs;
    }

    /// Starts a new document and returns its stamp.
    fn next_doc(&mut self) -> u32 {
        self.n_docs += 1;
        u32::try_from(self.n_docs).unwrap_or(u32::MAX)
    }

    /// Counts `tok` for the document stamped `stamp`; allocates only the
    /// first time the term is seen.
    fn count(&mut self, tok: &str, stamp: u32) {
        let id = match self.term_ids.get(tok) {
            Some(&id) => id,
            None => self.push_term(tok.to_string()),
        };
        if self.seen_stamp[id] != stamp {
            self.seen_stamp[id] = stamp;
            self.doc_freq[id] += 1;
        }
    }

    /// Interns a term not yet in the vocabulary under the next id.
    fn push_term(&mut self, term: String) -> usize {
        let id = self.doc_freq.len();
        self.term_ids.insert(term, id);
        self.doc_freq.push(0);
        self.seen_stamp.push(0);
        id
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Finalizes smoothed IDF weights.
    pub fn finish(self) -> TfIdf {
        let n = self.n_docs.max(1);
        let idf = self
            .doc_freq
            .iter()
            .map(|&df| ((1.0 + n as f32) / (1.0 + df as f32)).ln() + 1.0)
            .collect();
        TfIdf { term_ids: self.term_ids, idf, doc_freq: self.doc_freq, n_docs: self.n_docs }
    }
}

/// A fitted TF-IDF vectorizer.
#[derive(Debug, Default)]
pub struct TfIdf {
    term_ids: HashMap<String, usize>,
    idf: Vec<f32>,
    doc_freq: Vec<u32>,
    n_docs: usize,
}

impl TfIdf {
    /// Fits term ids and smoothed IDF weights on a corpus of token lists.
    pub fn fit<S: AsRef<str>>(docs: &[Vec<S>]) -> Self {
        let mut b = TfIdfBuilder::new();
        for doc in docs {
            b.add_doc(doc);
        }
        b.finish()
    }

    /// Transforms a token list to an L2-normalized TF-IDF sparse vector.
    /// Unseen terms are ignored.
    pub fn transform<S: AsRef<str>>(&self, doc: &[S]) -> SparseVec {
        let mut ids: Vec<usize> =
            doc.iter().filter_map(|tok| self.term_ids.get(tok.as_ref()).copied()).collect();
        self.weigh(&mut ids)
    }

    /// Transforms raw text, tokenized with the default [`Tokenizer`]:
    /// bitwise the vector `transform(&tokenize(text))` returns, without a
    /// `String` per token.
    pub fn transform_text(&self, text: &str) -> SparseVec {
        thread_local! {
            static SCRATCH: RefCell<(String, Vec<usize>)> =
                const { RefCell::new((String::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(buf, ids)| {
            ids.clear();
            Tokenizer::new().for_each_token(text, buf, |tok| {
                ids.extend(self.term_ids.get(tok).copied());
            });
            self.weigh(ids)
        })
    }

    /// The finaliser both transforms share: sorts the term ids of one
    /// document, weighs each distinct id by its run length (the term
    /// frequency) times its IDF, and L2-normalizes.
    fn weigh(&self, ids: &mut [usize]) -> SparseVec {
        ids.sort_unstable();
        let runs = || ids.chunk_by(|a, b| a == b);
        // Exact capacity: a fitted source keeps one vector per record.
        let mut entries = Vec::with_capacity(runs().count());
        entries.extend(runs().map(|run| (run[0], run.len() as f32 * self.idf[run[0]])));
        let mut v = SparseVec { entries };
        let norm = v.norm();
        if norm != 0.0 {
            for (_, w) in &mut v.entries {
                *w /= norm;
            }
        }
        v
    }

    /// Vocabulary size after fitting.
    pub fn vocab_size(&self) -> usize {
        self.term_ids.len()
    }

    /// Number of documents the vectorizer was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// The IDF weight of a term, if known.
    pub fn idf_of(&self, term: &str) -> Option<f32> {
        self.term_ids.get(term).map(|&id| self.idf[id])
    }

    /// Per-term document frequencies, indexed by term id.
    pub fn doc_freqs(&self) -> &[u32] {
        &self.doc_freq
    }
}

/// Bounded top-N selection under the total order (score descending, then
/// doc id ascending). Keeps at most `limit` candidates in a binary heap
/// whose root is the current worst, so offering M candidates costs
/// O(M log limit) instead of the O(M log M) of a full sort. Because the
/// retained set is defined by a strict total order, the result is
/// independent of offer order — the property the sharded index's
/// deterministic merge rests on.
pub(crate) struct TopSelect {
    // Root = worst retained candidate (lowest score, then highest doc id).
    heap: std::collections::BinaryHeap<Worst>,
    limit: usize,
}

/// Heap entry ordered so that "greater" means "worse candidate".
struct Worst {
    score: f32,
    doc: usize,
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lower score is worse; on ties, the higher doc id is worse.
        other.score.total_cmp(&self.score).then_with(|| self.doc.cmp(&other.doc))
    }
}

impl TopSelect {
    pub fn new(limit: usize) -> Self {
        Self { heap: std::collections::BinaryHeap::with_capacity(limit.saturating_add(1)), limit }
    }

    /// Offers one candidate; keeps it only if it ranks among the best
    /// `limit` seen so far.
    pub fn offer(&mut self, doc: usize, score: f32) {
        if self.limit == 0 {
            return;
        }
        let cand = Worst { score, doc };
        if self.heap.len() < self.limit {
            self.heap.push(cand);
            return;
        }
        if let Some(worst) = self.heap.peek() {
            // `cand < worst` under the Worst order means `cand` ranks
            // strictly better than the current worst retained candidate.
            if cand < *worst {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    /// Drains into a best-first list (score descending, doc id ascending).
    pub fn into_ranked(self) -> Vec<(usize, f32)> {
        let mut out: Vec<(usize, f32)> = self.heap.into_iter().map(|w| (w.doc, w.score)).collect();
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCosineIndex;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn sparse_vec_merges_duplicates_and_sorts() {
        let v = SparseVec::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 1.5)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_dot_and_cosine() {
        let a = SparseVec::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVec::from_pairs(vec![(2, 3.0), (5, 1.0)]);
        assert_eq!(a.dot(&b), 6.0);
        let c = a.cosine(&b);
        assert!(c > 0.0 && c < 1.0);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let docs = vec![toks("apple pie"), toks("apple tart"), toks("apple crumble")];
        let tfidf = TfIdf::fit(&docs);
        assert!(
            tfidf.idf_of("apple").expect("apple is in corpus")
                < tfidf.idf_of("pie").expect("pie is in corpus")
        );
        assert_eq!(tfidf.vocab_size(), 4);
        assert_eq!(tfidf.n_docs(), 3);
    }

    #[test]
    fn transform_is_unit_length() {
        let docs = vec![toks("a b c"), toks("b c d")];
        let tfidf = TfIdf::fit(&docs);
        let v = tfidf.transform(&toks("a b b"));
        assert!((v.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn unseen_terms_are_ignored() {
        let tfidf = TfIdf::fit(&[toks("a b")]);
        let v = tfidf.transform(&toks("zzz yyy"));
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn index_top_n_ranks_exact_match_first() {
        let docs = vec![
            toks("canon eos camera"),
            toks("nikon dslr camera"),
            toks("sony mirrorless camera"),
        ];
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vecs, 1);
        let hits = index.top_n(&tfidf.transform(&toks("canon eos camera")), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        assert!(hits[0].1 > hits[1].1);
    }

    /// Regression pin for the bounded-heap select: against a corpus full of
    /// exact ties, the heap must keep the *lowest* doc ids (the same answer
    /// the old full sort gave) in best-first order, for every cutoff.
    #[test]
    fn heap_select_matches_full_sort_on_ties() {
        let docs: Vec<Vec<String>> =
            (0..17).map(|i| toks(if i % 2 == 0 { "x y" } else { "x y z" })).collect();
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vecs, 1);
        let query = tfidf.transform(&toks("x y"));
        // Reference: score everything, full sort with the documented order.
        let mut reference: Vec<(usize, f32)> =
            vecs.iter().map(|v| query.dot(v)).enumerate().collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for n in [1, 2, 5, 9, 17, 40] {
            let hits = index.top_n(&query, n);
            let want: Vec<(usize, f32)> = reference.iter().copied().take(n).collect();
            assert_eq!(hits, want, "top_n({n}) diverged from full-sort reference");
        }
    }

    #[test]
    fn streaming_builder_matches_batch_fit() {
        let docs = vec![toks("apple pie"), toks("apple tart"), toks("cherry pie pie")];
        let batch = TfIdf::fit(&docs);
        let mut b = TfIdfBuilder::new();
        for d in &docs {
            b.add_doc(d);
        }
        let streamed = b.finish();
        assert_eq!(batch.vocab_size(), streamed.vocab_size());
        assert_eq!(batch.n_docs(), streamed.n_docs());
        assert_eq!(batch.doc_freqs(), streamed.doc_freqs());
        for d in &docs {
            assert_eq!(batch.transform(d), streamed.transform(d));
        }
    }

    #[test]
    fn doc_freqs_count_each_doc_once() {
        let docs = vec![toks("a a a b"), toks("a c")];
        let tfidf = TfIdf::fit(&docs);
        // Term ids are assigned in first-seen order: a=0, b=1, c=2.
        assert_eq!(tfidf.doc_freqs(), &[2, 1, 1]);
    }

    #[test]
    fn index_is_deterministic_on_ties() {
        let docs = vec![toks("x y"), toks("x y")];
        let tfidf = TfIdf::fit(&docs);
        let vecs: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vecs, 1);
        let hits = index.top_n(&tfidf.transform(&toks("x y")), 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
