//! The loaded instance and query-class matrix that `scheduler.rs` and
//! `scheduler_threads.rs` both run.

use asterix_core::{Instance, InstanceConfig, SchedulerConfig};
use asterix_datagen::amazon_reviews;

pub const RECORDS: usize = 600;

/// The index-select probes are field values of loaded records of
/// `amazon_reviews(RECORDS, 7)`, so each answer has rows: record 2's
/// `summary` for `jaccard-select`, record 5's `reviewerName` for
/// `ed-select`.
pub const JACCARD_PROBE: &str = "zufuzo pucupi luhepu";
/// See [`JACCARD_PROBE`].
pub const ED_PROBE: &str = "sonmugu";

pub fn instance_with(sched: SchedulerConfig) -> Instance {
    let mut cfg = InstanceConfig::with_partitions(2);
    cfg.scheduler = sched;
    let db = Instance::new(cfg);
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(RECORDS, 7)).unwrap();
    db.create_index("ARevs", "smix", "summary", asterix_adm::IndexKind::Keyword)
        .unwrap();
    db.create_index("ARevs", "nix", "reviewerName", asterix_adm::IndexKind::NGram(2))
        .unwrap();
    db.flush("ARevs").unwrap();
    db
}

/// The query-class matrix: scan, index select (jaccard + edit distance),
/// index-nested-loop join, and the three-stage (no-index) join fallback.
pub fn matrix() -> Vec<(&'static str, String)> {
    vec![
        (
            "scan",
            "for $t in dataset ARevs where $t.id < 50 return $t.id".to_string(),
        ),
        (
            "count",
            "count( for $t in dataset ARevs where $t.id < 100 return $t.id );".to_string(),
        ),
        (
            "jaccard-select",
            format!(
                "for $t in dataset ARevs \
                 where similarity-jaccard(word-tokens($t.summary), word-tokens('{JACCARD_PROBE}')) \
                   >= 0.3 \
                 return $t.id"
            ),
        ),
        (
            "ed-select",
            format!(
                "for $t in dataset ARevs \
                 where edit-distance($t.reviewerName, '{ED_PROBE}') <= 2 \
                 return $t.id"
            ),
        ),
        (
            "jaccard-join",
            "for $o in dataset ARevs for $i in dataset ARevs \
             where $o.id < 30 \
               and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
               and $o.id < $i.id \
             return {\"o\": $o.id, \"i\": $i.id}"
                .to_string(),
        ),
    ]
}
