//! Property-based tests for tokenization, similarity, and TF-IDF.

use crate::{
    jaccard, jaro, jaro_winkler, levenshtein, levenshtein_sim, tokenize, HashVocab,
    ShardedCosineIndex, SparseVec, TfIdf, TfIdfBuilder, Tokenizer,
};
use proptest::prelude::*;

/// Reference tokenizer: the per-char loop `Tokenizer::tokenize` ran before
/// it became a collect over `for_each_token`, kept verbatim as the oracle.
fn reference_tokenize(t: &Tokenizer, text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev_is_digit = false;
    for ch in text.chars() {
        let is_word = ch.is_alphanumeric();
        let is_numeric_joint = (ch == '.' || ch == ',') && prev_is_digit;
        if is_word || is_numeric_joint {
            if t.lowercase {
                current.extend(ch.to_lowercase());
            } else {
                current.push(ch);
            }
            prev_is_digit = ch.is_ascii_digit();
        } else {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
                if t.max_tokens > 0 && tokens.len() == t.max_tokens {
                    return tokens;
                }
            }
            prev_is_digit = false;
        }
    }
    if !current.is_empty() && (t.max_tokens == 0 || tokens.len() < t.max_tokens) {
        while current.ends_with('.') || current.ends_with(',') {
            current.pop();
        }
        if !current.is_empty() {
            tokens.push(current);
        }
    }
    tokens
}

/// Characters the tokenizer treats specially: ASCII letters and digits,
/// the `.`/`,` joiners, separators, a non-ASCII digit, letters whose
/// lowercase is several chars (`İ`) or ASCII (Kelvin sign), a lone
/// combining mark, and emoji.
const TRICKY: &[char] = &[
    'a', 'z', 'A', 'Q', '0', '5', '9', '.', ',', ' ', '-', '$', '\t', 'İ', 'É', 'ß', '\u{212A}',
    'Σ', '٣', '½', 'é', '😀', '\u{307}',
];

/// Text mixing [`TRICKY`] characters with arbitrary Unicode scalar
/// values, two to one, so digit/joiner runs come up often.
fn arb_text() -> impl Strategy<Value = String> {
    // `prop_oneof!` picks uniformly: the second `TRICKY` arm is the weight.
    let ch = prop_oneof![
        (0..TRICKY.len()).prop_map(|i| TRICKY[i]),
        (0..TRICKY.len()).prop_map(|i| TRICKY[i]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
    ];
    proptest::collection::vec(ch, 0..48).prop_map(|cs| cs.into_iter().collect())
}

fn bits(v: &SparseVec) -> Vec<(usize, u32)> {
    v.entries().iter().map(|&(id, w)| (id, w.to_bits())).collect()
}

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

proptest! {
    // The equivalence oracles are cheap; sample them more densely.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The visitor state machine tokenizes exactly like the old per-char
    /// loop, in both case modes and under every small token cap.
    #[test]
    fn tokenize_matches_reference_loop(
        text in arb_text(),
        max_tokens in 0usize..4,
        lowercase in (0u8..2).prop_map(|b| b == 1),
    ) {
        let t = Tokenizer { lowercase, max_tokens };
        prop_assert_eq!(t.tokenize(&text), reference_tokenize(&t, &text));
    }

    /// `transform_text` is bitwise the vector of `transform` over the
    /// collected tokens, for query texts in and out of the vocabulary.
    #[test]
    fn transform_text_matches_transform(
        corpus in proptest::collection::vec(arb_text(), 1..8),
        query in arb_text(),
    ) {
        let docs: Vec<Vec<String>> = corpus.iter().map(|d| tokenize(d)).collect();
        let tfidf = TfIdf::fit(&docs);
        for text in corpus.iter().chain(std::iter::once(&query)) {
            prop_assert_eq!(bits(&tfidf.transform_text(text)), bits(&tfidf.transform(&tokenize(text))));
        }
    }

    /// Partial vocabularies counted over any in-order split of a corpus
    /// (empty runs included) merge into the serial fit: the same term
    /// ids, document frequencies and vectors.
    #[test]
    fn merged_partials_match_serial_fit(
        corpus in proptest::collection::vec(arb_text(), 0..12),
        cuts in proptest::collection::vec(0usize..12, 0..4),
    ) {
        let docs: Vec<Vec<String>> = corpus.iter().map(|d| tokenize(d)).collect();
        let serial = TfIdf::fit(&docs);
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(corpus.len())).collect();
        bounds.extend([0, corpus.len()]);
        bounds.sort_unstable();
        let mut merged = TfIdfBuilder::new();
        let mut buf = String::new();
        for run in bounds.windows(2) {
            let mut partial = TfIdfBuilder::new();
            for text in &corpus[run[0]..run[1]] {
                partial.add_text(text, &mut buf);
            }
            merged.merge(partial);
        }
        let merged = merged.finish();
        prop_assert_eq!(merged.n_docs(), serial.n_docs());
        prop_assert_eq!(merged.vocab_size(), serial.vocab_size());
        prop_assert_eq!(merged.doc_freqs(), serial.doc_freqs());
        for (text, doc) in corpus.iter().zip(&docs) {
            prop_assert_eq!(bits(&merged.transform_text(text)), bits(&serial.transform(doc)));
        }
    }
}
