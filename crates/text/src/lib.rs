//! Text processing for the HierGAT reproduction: tokenization, hashing
//! vocabularies, static FastText-style embeddings, TF-IDF, and classic
//! string-similarity measures.

mod embedding;
mod sharded;
mod similarity;
mod tfidf;
mod tokenize;
mod vocab;

#[cfg(test)]
mod proptests;

pub use embedding::{char_ngrams, StaticHashEmbedding};
pub use sharded::{stop_terms_by_df, stop_terms_of, ShardedCosineIndex, ShardedIndexBuilder};
pub use similarity::{
    cosine_tokens, exact, jaccard, jaro, jaro_winkler, levenshtein, levenshtein_sim, monge_elkan,
    numeric_sim, overlap_coefficient,
};
pub use tfidf::{SparseVec, TfIdf, TfIdfBuilder};
pub use tokenize::{tokenize, Tokenizer};
pub use vocab::{fnv1a, HashVocab, Special, NUM_SPECIAL};
