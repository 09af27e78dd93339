//! The five workloads: the paper's 2×2 of similarity selection and join,
//! each with and without an index, plus writes beside reads. A workload
//! states its data, its instance, its clients and its statement
//! templates; the op list and every input come from the seed.

use crate::layers::{self, Data, Record};

/// One traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Jaccard (δ 0.8 and 0.5) and edit-distance (k 1 and 2) selections.
    Selections,
    /// Jaccard (δ 0.8 and 0.5) and edit-distance (k 1) joins of a few
    /// records with the whole dataset.
    Joins,
    /// Jaccard joins only (the un-indexed edit-distance join is a nested
    /// loop, not the plan this workload exists for).
    JaccardJoins,
    /// Jaccard δ 0.5 and edit-distance k 2 selections, three to one, so
    /// the median op is of one kind and not on the edge between two.
    ScanSelections,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    /// Records bulk-loaded during set-up.
    pub base_records: usize,
    /// Keyword index on the text field and 2-gram index on the name field.
    pub indexed: bool,
    /// File-backed, write-ahead-logged instance.
    pub durable: bool,
    /// Buffer-cache pages (128 KB each) per partition, of 4 partitions,
    /// when not the default 256.
    pub cache_pages: Option<usize>,
    pub mix: Mix,
    /// Closed-loop query connections.
    pub clients: usize,
    /// Ingest batches in the tail, and records in each. A p95 of the
    /// acknowledgements needs 200 batches.
    pub tail_batches: usize,
    pub batch_records: usize,
    /// The tail batches arrive on an open-loop schedule during the
    /// measured window instead of closed-loop before it.
    pub feeder: bool,
    /// The rewrite rule every statement of the workload must fire, or
    /// `None` when no index or join rule may fire.
    pub rule: Option<&'static str>,
}

/// Rules of which a scan workload may fire none.
pub const PLAN_RULES: [&str; 3] = [
    "introduce-index-for-selection",
    "introduce-index-nested-loop-join",
    "three-stage-similarity-join",
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sel-hot",
        why: "indexed selections on cached data: engine work is ~1 ms, so per-request cost in server, compile/plan cache and admission is nearly all of the latency",
        data: Data::Amazon,
        base_records: 30_000,
        indexed: true,
        durable: false,
        cache_pages: None,
        mix: Mix::Selections,
        clients: 2,
        tail_batches: 200,
        batch_records: 4,
        feeder: false,
        rule: Some("introduce-index-for-selection"),
    },
    Workload {
        name: "join-index",
        why: "index-nested-loop joins streaming thousands of rows: index search, primary lookup, verify kernels and row streaming do the work, compile does none",
        data: Data::Amazon,
        base_records: 15_000,
        indexed: true,
        durable: false,
        cache_pages: None,
        mix: Mix::Joins,
        clients: 1,
        tail_batches: 200,
        batch_records: 4,
        feeder: false,
        rule: Some("introduce-index-nested-loop-join"),
    },
    Workload {
        name: "join-3stage",
        why: "un-indexed Jaccard joins take the three-stage plan: group-by, sort, hash join and tokenisation dominate, index funnel and server do little",
        data: Data::Reddit,
        base_records: 400,
        indexed: false,
        durable: false,
        cache_pages: None,
        mix: Mix::JaccardJoins,
        clients: 1,
        tail_batches: 200,
        batch_records: 1,
        feeder: false,
        rule: Some("three-stage-similarity-join"),
    },
    Workload {
        name: "scan-cold",
        why: "un-indexed selections on a file-backed store 4x its cache: every op re-reads, checks and decodes every page, so storage reads and record decode dominate",
        data: Data::Reddit,
        base_records: 16_000,
        indexed: false,
        durable: true,
        cache_pages: Some(1),
        mix: Mix::ScanSelections,
        clients: 1,
        tail_batches: 200,
        batch_records: 4,
        feeder: false,
        rule: None,
    },
    Workload {
        name: "ingest-query",
        why: "sel-hot's reads beside an open-loop durable feed: WAL commit, memtable and two inverted indexes per record, so a read gain that costs writes shows",
        data: Data::Amazon,
        base_records: 30_000,
        indexed: true,
        durable: true,
        cache_pages: None,
        mix: Mix::Selections,
        clients: 1,
        tail_batches: 200,
        batch_records: 8,
        feeder: true,
        rule: Some("introduce-index-for-selection"),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload over `records` base records: the unit tests run
    /// every workload small.
    #[cfg(test)]
    pub fn scaled_to(mut self, records: usize) -> Workload {
        self.base_records = records;
        self
    }

    pub fn tail_records(&self) -> usize {
        self.tail_batches * self.batch_records
    }
}

/// What a statement asks, in the terms the oracle answers.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    JaccardSelect {
        probe: String,
        delta: f64,
    },
    EditSelect {
        probe: String,
        k: u32,
    },
    /// Outer records are those with `first <= id < first + count`.
    JaccardJoin {
        first: i64,
        count: i64,
        delta: f64,
    },
    EditJoin {
        first: i64,
        count: i64,
        k: u32,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub statement: String,
    pub predicate: Predicate,
}

impl Op {
    fn new(data: Data, predicate: Predicate) -> Op {
        let (ds, text, name) = (data.dataset(), data.text_field(), data.name_field());
        let statement = match &predicate {
            Predicate::JaccardSelect { probe, delta } => format!(
                "for $t in dataset {ds} where similarity-jaccard(word-tokens($t.{text}), word-tokens('{probe}')) >= {delta:?} return $t.id"
            ),
            Predicate::EditSelect { probe, k } => format!(
                "for $t in dataset {ds} where edit-distance($t.{name}, '{probe}') <= {k} return $t.id"
            ),
            Predicate::JaccardJoin { first, count, delta } => format!(
                "for $o in dataset {ds} for $i in dataset {ds} where $o.id >= {first} and $o.id < {} and similarity-jaccard(word-tokens($o.{text}), word-tokens($i.{text})) >= {delta:?} return {{\"o\": $o.id, \"i\": $i.id}}",
                first + count
            ),
            Predicate::EditJoin { first, count, k } => format!(
                "for $o in dataset {ds} for $i in dataset {ds} where $o.id >= {first} and $o.id < {} and edit-distance($o.{name}, $i.{name}) <= {k} return {{\"o\": $o.id, \"i\": $i.id}}",
                first + count
            ),
        };
        Op {
            statement,
            predicate,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so op lists depend on the
/// seed and on nothing in the repository.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Probe values in a workload's pool, and ops in its list. Probes and
/// join windows are drawn uniformly, so a run averages over hundreds of
/// them and its cost does not hang on which few values a seed made hot;
/// the list is cycled, so after its first pass every statement repeats.
const POOL: usize = 256;
/// A scan costs the same whatever it looks for, so the scan workload
/// draws from few probes and the exact check before the window stays
/// short.
const SCAN_PROBES: usize = 16;
pub const OP_LIST: usize = 512;

/// Distinct values of `field` among `records` that make usable probes
/// (no quote to escape, at least `min_words` words and `min_grams`
/// distinct 2-grams), a seeded sample of at most [`POOL`] of them.
fn probe_pool(
    records: &[Record],
    field: &str,
    min_words: usize,
    min_grams: usize,
    rng: &mut Rng,
) -> Vec<String> {
    let mut values: Vec<&str> = records
        .iter()
        .map(|r| layers::record_str(r, field))
        .filter(|s| {
            !s.contains(['\'', '"', '\\'])
                && s.split_whitespace().count() >= min_words
                && distinct(layers::gram_tokens(s, 2)) >= min_grams
        })
        .collect();
    values.sort_unstable();
    values.dedup();
    rng.shuffle(&mut values);
    values.truncate(POOL);
    assert!(!values.is_empty(), "no usable probe in field {field}");
    values.into_iter().map(str::to_string).collect()
}

fn distinct(mut tokens: Vec<String>) -> usize {
    tokens.sort_unstable();
    tokens.dedup();
    tokens.len()
}

impl Workload {
    /// The op list for `seed` over the base records: a seeded shuffle of
    /// the mix's templates, the same list for the same seed.
    pub fn ops(&self, base: &[Record], seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed ^ 0x0b5e_55ed);
        let data = self.data;
        let texts = probe_pool(base, data.text_field(), 3, 2, &mut rng);
        // The 2-gram index serves edit distance k only when the probe has
        // more than 2k distinct grams; a shorter probe is a scan, which is
        // another workload's business.
        let names = probe_pool(base, data.name_field(), 1, 6, &mut rng);
        let mut ops = Vec::with_capacity(OP_LIST);
        for i in 0..OP_LIST {
            let count = 5 + rng.below(8) as i64;
            let first = rng.below(base.len() - 12) as i64;
            let predicate = match (self.mix, i % 4) {
                (Mix::Selections, 0) => Predicate::JaccardSelect {
                    probe: texts[rng.below(texts.len())].clone(),
                    delta: 0.8,
                },
                (Mix::Selections, 1) => Predicate::JaccardSelect {
                    probe: texts[rng.below(texts.len())].clone(),
                    delta: 0.5,
                },
                (Mix::Selections, 2) => Predicate::EditSelect {
                    probe: names[rng.below(names.len())].clone(),
                    k: 1,
                },
                (Mix::Selections, _) => Predicate::EditSelect {
                    probe: names[rng.below(names.len())].clone(),
                    k: 2,
                },
                (Mix::ScanSelections, 0..=2) => Predicate::JaccardSelect {
                    probe: texts[rng.below(texts.len().min(SCAN_PROBES))].clone(),
                    delta: 0.5,
                },
                (Mix::ScanSelections, _) => Predicate::EditSelect {
                    probe: names[rng.below(names.len().min(SCAN_PROBES))].clone(),
                    k: 2,
                },
                (Mix::Joins, 0) => Predicate::JaccardJoin {
                    first,
                    count,
                    delta: 0.8,
                },
                (Mix::Joins, 1 | 3) => Predicate::JaccardJoin {
                    first,
                    count,
                    delta: 0.5,
                },
                (Mix::Joins, _) => Predicate::EditJoin { first, count, k: 1 },
                (Mix::JaccardJoins, _) => Predicate::JaccardJoin {
                    first,
                    count,
                    delta: 0.8,
                },
            };
            ops.push(Op::new(data, predicate));
        }
        rng.shuffle(&mut ops);
        ops
    }

    /// Base records, then tail records with the ids that follow.
    pub fn records(&self, seed: u64) -> (Vec<Record>, Vec<Record>) {
        let base = layers::generate(self.data, self.base_records, 0, seed);
        let tail = layers::generate(
            self.data,
            self.tail_records(),
            self.base_records as i64,
            seed ^ 0x7a11,
        );
        (base, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_repeat_for_a_seed_and_differ_across_seeds() {
        for w in WORKLOADS {
            let w = w.scaled_to(400);
            let (base, _) = w.records(7);
            let a = w.ops(&base, 7);
            assert_eq!(a.len(), OP_LIST);
            assert_eq!(a, w.ops(&base, 7), "{}", w.name);
            let (other_base, _) = w.records(8);
            assert_ne!(a, w.ops(&other_base, 8), "{}", w.name);
        }
    }

    #[test]
    fn edit_distance_probes_are_ones_the_gram_index_can_serve() {
        let w = by_name("sel-hot").unwrap().scaled_to(2_000);
        let (base, _) = w.records(2018);
        for op in w.ops(&base, 2018) {
            if let Predicate::EditSelect { probe, k } = op.predicate {
                assert!(
                    distinct(layers::gram_tokens(&probe, 2)) > 2 * k as usize,
                    "{probe}"
                );
            }
        }
    }

    #[test]
    fn tail_ids_follow_base_ids() {
        let w = by_name("scan-cold").unwrap().scaled_to(100);
        let (base, tail) = w.records(3);
        assert_eq!(layers::record_id(base.last().unwrap()), 99);
        assert_eq!(layers::record_id(&tail[0]), 100);
        assert_eq!(tail.len(), w.tail_batches * w.batch_records);
    }
}
