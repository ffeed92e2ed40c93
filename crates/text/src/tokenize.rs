//! Tokenization.
//!
//! Entity attribute values are free text ("Adobe Photoshop Elements 5.0 Win
//! 32-bit", "$49.99"); the tokenizer lowercases and splits into alphanumeric
//! runs, keeping digits and decimal points inside numbers so prices and model
//! numbers survive as single discriminative tokens.

/// Configurable whitespace/punctuation tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Lowercase all tokens (default true).
    pub lowercase: bool,
    /// Maximum tokens to keep per text (0 = unlimited).
    pub max_tokens: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self { lowercase: true, max_tokens: 0 }
    }
}

impl Tokenizer {
    /// Creates a tokenizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tokenizer that truncates to `max_tokens` tokens.
    pub fn with_max_tokens(max_tokens: usize) -> Self {
        Self { max_tokens, ..Self::default() }
    }

    /// Splits `text` into tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(text, &mut String::new(), |tok| tokens.push(tok.to_string()));
        tokens
    }

    /// Calls `f` on each token of `text`, in order — the tokenizer's one
    /// state machine, which [`Tokenizer::tokenize`] collects. Tokens are
    /// assembled in `buf` (cleared first), so a caller that reuses one
    /// buffer tokenizes without allocating once it has grown.
    ///
    /// Word characters are alphanumerics; `.` and `,` join a token only
    /// right after an ASCII digit ("5.0", "1,299"). A joiner is trimmed
    /// from the last token only ("costs 49." -> "49"). ASCII characters
    /// take a table-free fast path; the rest go through the full Unicode
    /// rules (`İ` lowercases to two chars, both kept).
    pub fn for_each_token(&self, text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        buf.clear();
        let mut emitted = 0;
        let mut prev_is_digit = false;
        for ch in text.chars() {
            if ch.is_ascii() {
                if ch.is_ascii_alphanumeric() || (prev_is_digit && (ch == '.' || ch == ',')) {
                    buf.push(if self.lowercase { ch.to_ascii_lowercase() } else { ch });
                    prev_is_digit = ch.is_ascii_digit();
                    continue;
                }
            } else if ch.is_alphanumeric() {
                if self.lowercase {
                    buf.extend(ch.to_lowercase());
                } else {
                    buf.push(ch);
                }
                prev_is_digit = false;
                continue;
            }
            prev_is_digit = false;
            if !buf.is_empty() {
                f(buf);
                buf.clear();
                emitted += 1;
                if emitted == self.max_tokens {
                    return;
                }
            }
        }
        // Trim a trailing numeric joiner ("5." -> "5").
        buf.truncate(buf.trim_end_matches(['.', ',']).len());
        if !buf.is_empty() {
            f(buf);
        }
    }
}

/// Convenience: tokenize with default settings.
pub fn tokenize(text: &str) -> Vec<String> {
    Tokenizer::new().tokenize(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        assert_eq!(tokenize("Adobe Photoshop, Elements!"), vec!["adobe", "photoshop", "elements"]);
    }

    #[test]
    fn keeps_decimal_numbers_together() {
        assert_eq!(tokenize("version 5.0 costs $49.99"), vec!["version", "5.0", "costs", "49.99"]);
    }

    #[test]
    fn model_numbers_survive() {
        assert_eq!(tokenize("TP-Link AC1750"), vec!["tp", "link", "ac1750"]);
    }

    #[test]
    fn trailing_period_is_not_part_of_number() {
        assert_eq!(tokenize("costs 49."), vec!["costs", "49"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn max_tokens_truncates() {
        let t = Tokenizer::with_max_tokens(2);
        assert_eq!(t.tokenize("a b c d"), vec!["a", "b"]);
    }

    #[test]
    fn unicode_is_handled() {
        assert_eq!(tokenize("Café Crème"), vec!["café", "crème"]);
    }

    #[test]
    fn case_preserving_mode() {
        let t = Tokenizer { lowercase: false, max_tokens: 0 };
        assert_eq!(t.tokenize("Adobe"), vec!["Adobe"]);
    }
}
