//! Workload construction: the three paper datasets (Table 3) at laptop
//! scale, loaded into simulated cluster instances with the §6.2 indexes.

use asterix_adm::{IndexKind, Value};
use asterix_core::{IndexBuildStats, Instance, InstanceConfig};
use asterix_datagen::{amazon_reviews, reddit_submissions, tweets};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale/partition settings, overridable via `ASTERIX_SCALE` (record
/// multiplier, default 1.0) and `ASTERIX_PARTITIONS`.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    pub partitions: usize,
    pub amazon_records: usize,
    pub reddit_records: usize,
    pub twitter_records: usize,
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        let scale: f64 = std::env::var("ASTERIX_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let partitions: usize = std::env::var("ASTERIX_PARTITIONS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4);
        WorkloadConfig {
            partitions,
            amazon_records: (20_000.0 * scale) as usize,
            reddit_records: (8_000.0 * scale) as usize,
            twitter_records: (8_000.0 * scale) as usize,
            seed: 2018, // EDBT 2018
        }
    }
}

/// Per-dataset metadata the experiments consult.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    pub name: &'static str,
    /// Field for edit-distance queries (short strings).
    pub ed_field: &'static str,
    /// Field for Jaccard queries (token-rich text).
    pub jac_field: &'static str,
    pub records: usize,
}

/// A loaded instance plus dataset metadata.
pub struct Workloads {
    pub db: Instance,
    pub datasets: Vec<DatasetInfo>,
}

impl Workloads {
    /// Build an instance with all three datasets loaded (no similarity
    /// indexes yet; call [`Workloads::build_indexes`]).
    pub fn load(config: WorkloadConfig) -> Self {
        let db = Instance::new(InstanceConfig::with_partitions(config.partitions));
        db.create_dataset("AmazonReview", "id").unwrap();
        db.load("AmazonReview", amazon_reviews(config.amazon_records, config.seed))
            .unwrap();
        db.create_dataset("Reddit", "id").unwrap();
        db.load("Reddit", reddit_submissions(config.reddit_records, config.seed + 1))
            .unwrap();
        db.create_dataset("Twitter", "id").unwrap();
        db.load("Twitter", tweets(config.twitter_records, config.seed + 2))
            .unwrap();
        let datasets = vec![
            DatasetInfo {
                name: "AmazonReview",
                ed_field: "reviewerName",
                jac_field: "summary",
                records: config.amazon_records,
            },
            DatasetInfo {
                name: "Reddit",
                ed_field: "author",
                jac_field: "title",
                records: config.reddit_records,
            },
            DatasetInfo {
                name: "Twitter",
                ed_field: "user.name",
                jac_field: "text",
                records: config.twitter_records,
            },
        ];
        Workloads { db, datasets }
    }

    /// Just the Amazon dataset (most experiments, as in the paper).
    pub fn amazon_only(config: WorkloadConfig) -> Self {
        let db = Instance::new(InstanceConfig::with_partitions(config.partitions));
        db.create_dataset("AmazonReview", "id").unwrap();
        db.load("AmazonReview", amazon_reviews(config.amazon_records, config.seed))
            .unwrap();
        let datasets = vec![DatasetInfo {
            name: "AmazonReview",
            ed_field: "reviewerName",
            jac_field: "summary",
            records: config.amazon_records,
        }];
        Workloads { db, datasets }
    }

    /// Build the §6.2 similarity indexes on every dataset, returning the
    /// Table-5 statistics.
    pub fn build_indexes(&self) -> Vec<IndexBuildStats> {
        let mut stats = Vec::new();
        for ds in &self.datasets {
            stats.push(
                self.db
                    .create_index(ds.name, &format!("{}_kw", ds.name), ds.jac_field, IndexKind::Keyword)
                    .unwrap(),
            );
            stats.push(
                self.db
                    .create_index(
                        ds.name,
                        &format!("{}_2gram", ds.name),
                        ds.ed_field,
                        IndexKind::NGram(2),
                    )
                    .unwrap(),
            );
        }
        stats
    }

    /// §6.3's search-value sets: random unique values extracted from a
    /// search field (min 3 words for Jaccard probes, min 3 chars for
    /// edit-distance probes).
    pub fn search_values(
        &self,
        dataset: &str,
        field: &str,
        how_many: usize,
        min_words: usize,
        min_chars: usize,
        seed: u64,
    ) -> Vec<String> {
        let r = self
            .db
            .query(&format!("for $t in dataset {dataset} return $t.{field}"))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<String> = r
            .rows
            .iter()
            .filter_map(Value::as_str)
            .filter(|s| {
                s.split_whitespace().count() >= min_words && s.chars().count() >= min_chars
            })
            .map(|s| s.replace('\'', ""))
            .collect();
        pool.sort();
        pool.dedup();
        let mut out = Vec::with_capacity(how_many);
        for _ in 0..how_many.min(pool.len().max(1)) {
            if pool.is_empty() {
                break;
            }
            let i = rng.gen_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            partitions: 2,
            amazon_records: 300,
            reddit_records: 100,
            twitter_records: 100,
            seed: 5,
        }
    }

    #[test]
    fn load_all_datasets() {
        let w = Workloads::load(tiny());
        assert_eq!(w.db.count_records("AmazonReview").unwrap(), 300);
        assert_eq!(w.db.count_records("Reddit").unwrap(), 100);
        assert_eq!(w.db.count_records("Twitter").unwrap(), 100);
    }

    #[test]
    fn indexes_build_with_stats() {
        let w = Workloads::amazon_only(tiny());
        let stats = w.build_indexes();
        assert_eq!(stats.len(), 2);
        for s in stats {
            assert_eq!(s.records_indexed, 300);
            assert!(s.size_bytes > 0);
        }
    }

    #[test]
    fn search_values_respect_filters() {
        let w = Workloads::amazon_only(tiny());
        let vals = w.search_values("AmazonReview", "summary", 10, 3, 3, 1);
        assert!(!vals.is_empty());
        for v in &vals {
            assert!(v.split_whitespace().count() >= 3);
        }
        // Deterministic.
        assert_eq!(vals, w.search_values("AmazonReview", "summary", 10, 3, 3, 1));
    }
}
