//! Tokenizers: `word-tokens()` and `gram-tokens(n)`.
//!
//! §3.1: "If a field type is string, a user can use a tokenization function
//! such as `word-tokens()` to make a list of elements from the string", and
//! §2.2 defines n-grams: the 2-grams of "james" are {ja, am, me, es}.
//!
//! Word tokens are lowercased alphanumeric runs (AsterixDB's delimited
//! tokenizer also case-folds); gram tokens are lowercased character
//! n-grams. Both return *distinct* token lists in first-occurrence order
//! via the `*_distinct` variants used by the set-semantics similarity path.

/// Visit the lowercase word tokens (alphanumeric runs) of `s` in order,
/// duplicates included, building each one in the caller's reusable `buf`
/// so a caller that only looks at the tokens allocates nothing per call.
/// This is the one word tokenizer: [`word_tokens`], the keyword index and
/// the verify kernels all go through it.
///
/// An all-ASCII string takes a byte loop (`is_ascii_alphanumeric`,
/// `to_ascii_lowercase`), which on ASCII is exactly the `char` rule
/// (`is_alphanumeric`, then every char of `to_lowercase`) used otherwise.
/// It exists for speed alone: it skips UTF-8 decoding and the Unicode
/// tables, and most review text is ASCII.
///
/// ```
/// use asterix_simfn::tokenize::for_each_word_token;
/// let mut seen = Vec::new();
/// for_each_word_token("Nice, NICE gift", &mut String::new(), |t| seen.push(t.len()));
/// assert_eq!(seen, vec![4, 4, 4]);
/// ```
pub fn for_each_word_token(s: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    if s.is_ascii() {
        for &b in s.as_bytes() {
            if b.is_ascii_alphanumeric() {
                buf.push(b.to_ascii_lowercase() as char);
            } else if !buf.is_empty() {
                f(buf);
                buf.clear();
            }
        }
    } else {
        for ch in s.chars() {
            if ch.is_alphanumeric() {
                buf.extend(ch.to_lowercase());
            } else if !buf.is_empty() {
                f(buf);
                buf.clear();
            }
        }
    }
    if !buf.is_empty() {
        f(buf);
        buf.clear();
    }
}

/// Split a string into lowercase word tokens (alphanumeric runs). Keeps
/// duplicates and order.
///
/// ```
/// use asterix_simfn::word_tokens;
/// assert_eq!(word_tokens("Better ever than I expected"),
///            vec!["better", "ever", "than", "i", "expected"]);
/// ```
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_word_token(s, &mut String::new(), |t| tokens.push(t.to_owned()));
    tokens
}

/// Distinct word tokens in first-occurrence order (set semantics).
pub fn word_tokens_distinct(s: &str) -> Vec<String> {
    dedup_preserving_order(word_tokens(s))
}

/// Extract the lowercase n-grams of a string. A string shorter than `n`
/// yields a single truncated gram (its full lowercased self) when non-empty,
/// so that very short strings are still indexable.
///
/// ```
/// use asterix_simfn::gram_tokens;
/// assert_eq!(gram_tokens("james", 2), vec!["ja", "am", "me", "es"]);
/// ```
pub fn gram_tokens(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "gram length must be positive");
    let chars: Vec<char> = s.chars().flat_map(|c| c.to_lowercase()).collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() < n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
}

/// Distinct grams in first-occurrence order.
pub fn gram_tokens_distinct(s: &str, n: usize) -> Vec<String> {
    dedup_preserving_order(gram_tokens(s, n))
}

/// Number of grams a string of `len` characters produces (used by the
/// T-occurrence bound without materializing the grams).
pub fn gram_count(len: usize, n: usize) -> usize {
    if len == 0 {
        0
    } else if len < n {
        1
    } else {
        len - n + 1
    }
}

fn dedup_preserving_order(tokens: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::with_capacity(tokens.len());
    tokens.into_iter().filter(|t| seen.insert(t.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn words_basic() {
        assert_eq!(word_tokens("Great Product - Fantastic Gift"),
                   vec!["great", "product", "fantastic", "gift"]);
        assert_eq!(word_tokens(""), Vec::<String>::new());
        assert_eq!(word_tokens("   "), Vec::<String>::new());
        assert_eq!(word_tokens("a,b;c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn words_distinct() {
        assert_eq!(word_tokens_distinct("the cat the hat"), vec!["the", "cat", "hat"]);
    }

    #[test]
    fn grams_paper_example() {
        assert_eq!(gram_tokens("james", 2), vec!["ja", "am", "me", "es"]);
        assert_eq!(gram_tokens("marla", 2), vec!["ma", "ar", "rl", "la"]);
    }

    #[test]
    fn grams_short_strings() {
        assert_eq!(gram_tokens("a", 2), vec!["a"]);
        assert_eq!(gram_tokens("", 2), Vec::<String>::new());
        assert_eq!(gram_tokens("ab", 2), vec!["ab"]);
    }

    #[test]
    fn grams_case_folded() {
        assert_eq!(gram_tokens("AbC", 2), vec!["ab", "bc"]);
    }

    #[test]
    fn gram_count_matches() {
        for s in ["", "a", "ab", "abc", "james", "abcdefgh"] {
            assert_eq!(gram_count(s.chars().count(), 2), gram_tokens(s, 2).len(), "for {s:?}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_gram_panics() {
        gram_tokens("abc", 0);
    }

    proptest! {
        #[test]
        fn prop_word_tokens_lowercase_alnum(s in ".{0,40}") {
            for t in word_tokens(&s) {
                prop_assert!(!t.is_empty());
                prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
                // Lowercasing is idempotent on tokens (some uppercase
                // letters like 𝔄 have no lowercase mapping and survive).
                prop_assert_eq!(t.clone(), t.to_lowercase());
            }
        }

        #[test]
        fn prop_visitor_matches_char_reference(
            s in prop_oneof![
                // Arbitrary Unicode scalar values.
                prop::collection::vec(0u32..0x11_0000, 0..24)
                    .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect()),
                // Mixed ASCII / non-ASCII runs.
                prop::collection::vec(
                    prop_oneof![
                        "[a-zA-Z0-9 ,.;'-]{1,6}",
                        "[ÄÖÜäöüßẞİIıσςΣΩ𝔄٣½ⅫéÉ\u{301}ǅ]{1,3}",
                        (0u32..0x11_0000).prop_map(|cp| {
                            char::from_u32(cp).map(String::from).unwrap_or_default()
                        }),
                    ],
                    0..8,
                )
                .prop_map(|parts| parts.concat()),
            ]
        ) {
            // Reference: split on `!char::is_alphanumeric`, then extend
            // each token with `char::to_lowercase`.
            let reference: Vec<String> = s
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.chars().flat_map(char::to_lowercase).collect())
                .collect();
            let mut visited = Vec::new();
            let mut buf = String::from("stale");
            for_each_word_token(&s, &mut buf, |t| visited.push(t.to_owned()));
            prop_assert_eq!(&visited, &reference);
            prop_assert_eq!(word_tokens(&s), reference);
        }

        #[test]
        fn prop_gram_lengths(s in "[a-zA-Z]{0,30}", n in 1usize..5) {
            let grams = gram_tokens(&s, n);
            let len = s.chars().count();
            prop_assert_eq!(grams.len(), gram_count(len, n));
            if len >= n {
                for g in grams {
                    prop_assert_eq!(g.chars().count(), n);
                }
            }
        }

        #[test]
        fn prop_distinct_is_subset(s in ".{0,40}") {
            let all = word_tokens(&s);
            let distinct = word_tokens_distinct(&s);
            prop_assert!(distinct.len() <= all.len());
            let set: std::collections::HashSet<_> = all.into_iter().collect();
            prop_assert_eq!(set.len(), distinct.len());
        }
    }
}
