//! Blocking: pruning the candidate space before matching.
//!
//! The paper's ER pipeline (Figure 5) runs a blocker before HierGAT. Two
//! blockers are provided, matching §2.1 and §6.3:
//!
//! * [`KeywordBlocker`] — word-overlap filtering (the Magellan-style
//!   key-word filter used for pairwise ER);
//! * [`TfIdfBlocker`] — TF-IDF cosine top-N candidate retrieval (used to
//!   build the collective candidate sets with N = 16).
//!
//! For corpus-scale resolution the crate additionally provides the
//! streaming layer the `hiergat resolve` pipeline is built on:
//!
//! * [`CandidateSource`] — fitted blockers that *stream* per-query
//!   candidate batches instead of materialising the pair matrix, with
//!   [`TfIdfCandidates`] (sharded inverted index, dedup-mode
//!   self-exclusion) and [`KeywordCandidates`] hosted on it;
//! * [`EntityStore`] — random access to a possibly-virtual table, so
//!   million-record corpora can re-render records on demand;
//! * [`UnionFind`] — transitive clustering of accepted matches with
//!   canonical, edge-order-invariant labels.

mod cluster;
mod keyword;
mod source;
mod tfidf_block;

#[cfg(test)]
mod proptests;

pub use cluster::UnionFind;
pub use keyword::KeywordBlocker;
pub use source::{
    Candidate, CandidateSource, EntityStore, FitStats, KeywordCandidates, QueryCandidates,
    TfIdfCandidates, TfIdfSourceConfig,
};
pub use tfidf_block::{PruningReport, TfIdfBlocker};
