//! Property-based tests for tokenization, similarity, and TF-IDF.

use crate::{
    jaccard, jaro, jaro_winkler, levenshtein, levenshtein_sim, tokenize, HashVocab,
    ShardedCosineIndex, TfIdf,
};
use proptest::prelude::*;

fn arb_word() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,8}"
}

fn arb_words() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_word(), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tokenization is idempotent: re-tokenizing the joined tokens gives the
    /// same tokens.
    #[test]
    fn tokenize_is_idempotent(words in arb_words()) {
        let text = words.join(" ");
        let once = tokenize(&text);
        let twice = tokenize(&once.join(" "));
        prop_assert_eq!(once, twice);
    }

    /// Tokens never contain whitespace, and any remaining "uppercase"
    /// character has no lowercase mapping (e.g. U+1D400 MATHEMATICAL BOLD
    /// CAPITAL A, which `char::to_lowercase` leaves unchanged).
    #[test]
    fn tokens_are_normalized(s in ".{0,40}") {
        for tok in tokenize(&s) {
            prop_assert!(!tok.is_empty());
            prop_assert!(!tok.chars().any(char::is_whitespace));
            for c in tok.chars().filter(|c| c.is_uppercase()) {
                prop_assert!(
                    c.to_lowercase().next() == Some(c),
                    "lowercasable char {c:?} survived tokenization"
                );
            }
        }
    }

    /// Levenshtein is a metric: symmetry and identity-of-indiscernibles.
    #[test]
    fn levenshtein_is_symmetric_with_zero_diagonal(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        // Triangle-ish sanity: distance bounded by the longer string.
        prop_assert!(levenshtein(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    /// Similarities live in [0, 1] and self-similarity is 1.
    #[test]
    fn similarities_are_bounded(a in "[a-z]{1,10}", b in "[a-z]{1,10}") {
        for sim in [
            levenshtein_sim(&a, &b),
            jaro(&a, &b),
            jaro_winkler(&a, &b),
        ] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&sim), "{sim}");
        }
        prop_assert!((levenshtein_sim(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// Jaccard is symmetric and bounded.
    #[test]
    fn jaccard_symmetric_bounded(a in arb_words(), b in arb_words()) {
        let j1 = jaccard(&a, &b);
        let j2 = jaccard(&b, &a);
        prop_assert!((j1 - j2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j1));
    }

    /// Hash-vocabulary ids are always within bounds and stable.
    #[test]
    fn vocab_ids_in_range(words in arb_words(), size in 32usize..4096) {
        let v = HashVocab::new(size.max(32));
        for w in &words {
            let id = v.id(w);
            prop_assert!(id < v.size());
            prop_assert_eq!(id, v.id(w));
        }
    }

    /// A TF-IDF index always ranks an exact duplicate document first.
    #[test]
    fn tfidf_self_retrieval(mut docs in proptest::collection::vec(arb_words(), 2..8)) {
        // Ensure every doc is non-empty and the query doc is unique enough.
        for (i, d) in docs.iter_mut().enumerate() {
            d.push(format!("uniq{i}"));
        }
        let tfidf = TfIdf::fit(&docs);
        let vectors: Vec<_> = docs.iter().map(|d| tfidf.transform(d)).collect();
        let index = ShardedCosineIndex::build(&vectors, 1);
        for (i, d) in docs.iter().enumerate() {
            let hits = index.top_n(&tfidf.transform(d), 1);
            prop_assert_eq!(hits[0].0, i, "doc {} must retrieve itself first", i);
        }
    }
}
