//! # asterix-simfn
//!
//! The similarity-function library of the reproduction: everything §2
//! ("Preliminaries") and §3.1 ("Supported Similarity Measures") of
//! *Supporting Similarity Queries in Apache AsterixDB* (EDBT 2018) relies
//! on:
//!
//! * [`edit_distance`] — Levenshtein distance on strings *and* on ordered
//!   lists (the paper's extension: a string is an ordered list of
//!   characters), with a banded, early-terminating threshold check used in
//!   verification,
//! * [`jaccard`] — set-semantics Jaccard (the paper's worked example:
//!   J({Good, Product, Value}, {Nice, Product}) = 1/4), plus dice and
//!   cosine, with a length-filtered, early-terminating check,
//! * [`tokenize`] — `word-tokens()` and `gram-tokens(n)` tokenizers,
//! * [`prefix`] — prefix-filtering helpers (`prefix-len-jaccard()`,
//!   `subset-collection()`, global token orders),
//! * [`toccurrence`] — the *T-occurrence problem* (§2.2): lower bounds and
//!   inverted-list merge algorithms (ScanCount, DivideSkip, intersection),
//! * [`registry`] — the similarity-function registry, including user-defined
//!   functions (§3.1's UDF support),
//! * [`fxhash`] — the fast multiply-rotate hasher used by the bounded
//!   kernel-side memo caches.

pub mod edit_distance;
pub mod fxhash;
pub mod jaccard;
pub mod prefix;
pub mod registry;
pub mod string_extra;
pub mod toccurrence;
pub mod tokenize;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

pub use edit_distance::{
    edit_distance, edit_distance_check, edit_distance_check_chars,
    edit_distance_check_chars_scalar, edit_distance_check_slices, list_edit_distance, EdScratch,
};
pub use jaccard::{
    cosine, dice, intersection_size_u32, jaccard, jaccard_check, jaccard_from_counts, TokenBitset,
};
pub use prefix::{prefix_len_jaccard, subset_collection};
pub use registry::{FunctionRegistry, SimilarityMeasure};
pub use string_extra::{hamming_distance, jaro, jaro_winkler, overlap_coefficient};
pub use toccurrence::{
    divide_skip_choose_l, edit_distance_t_bound, jaccard_t_bound, t_occurrence_divide_skip,
    t_occurrence_divide_skip_ranks, t_occurrence_divide_skip_with_stats, t_occurrence_intersect,
    t_occurrence_ranks, t_occurrence_scan_count, DivideSkipStats, IntersectScratch,
    RankCountScratch, GALLOP_SKEW_RATIO,
};
pub use tokenize::{for_each_word_token, gram_tokens, word_tokens};
