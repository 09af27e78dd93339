//! The brute-force answer to every statement, computed from the generated
//! records: every record (selection) or every pair (join) is tested with
//! the scalar tokeniser and edit distance of `simfn`, and a set
//! intersection of the benchmark's own. No index, plan or kernel of the
//! program under test is involved.

use crate::layers::{self, Data, Record};
use crate::workloads::Predicate;
use std::collections::{BTreeMap, HashMap};

/// The fields of a record set the predicates read, prepared once.
pub struct Corpus {
    ids: Vec<i64>,
    /// Sorted distinct token ids of each record's text field.
    tokens: Vec<Vec<u32>>,
    /// Records grouped by the exact value of their name field, so edit
    /// distance runs once per distinct name; with each name its length in
    /// characters.
    by_name: BTreeMap<String, (usize, Vec<i64>)>,
    names: Vec<String>,
}

/// Token text → id, shared by every corpus and probe of a run.
#[derive(Default)]
pub struct Interner(HashMap<String, u32>);

impl Interner {
    /// Sorted distinct ids of the word tokens of `text`.
    pub fn token_set(&mut self, text: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = layers::word_tokens(text)
            .into_iter()
            .map(|t| {
                let next = self.0.len() as u32;
                *self.0.entry(t).or_insert(next)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Whether `|a ∩ b| / |a ∪ b| >= delta`. The ratio cannot exceed that of
/// the two sizes, which settles most pairs without looking at an element.
fn similar(a: &[u32], b: &[u32], delta: f64) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if !large.is_empty() && (small.len() as f64 / large.len() as f64) < delta {
        return false;
    }
    jaccard(a, b) >= delta
}

/// `|a ∩ b| / |a ∪ b|` of two sorted distinct sets; two empty sets are
/// identical.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

impl Corpus {
    pub fn new(data: Data, records: &[Record], interner: &mut Interner) -> Corpus {
        let mut corpus = Corpus {
            ids: Vec::with_capacity(records.len()),
            tokens: Vec::with_capacity(records.len()),
            by_name: BTreeMap::new(),
            names: Vec::with_capacity(records.len()),
        };
        for r in records {
            let id = layers::record_id(r);
            let name = layers::record_str(r, data.name_field());
            corpus.ids.push(id);
            corpus
                .tokens
                .push(interner.token_set(layers::record_str(r, data.text_field())));
            corpus
                .by_name
                .entry(name.to_string())
                .or_insert_with(|| (name.chars().count(), Vec::new()))
                .1
                .push(id);
            corpus.names.push(name.to_string());
        }
        corpus
    }

    fn position(&self, id: i64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Ids of the records whose name is within `k` edits of `probe`. Two
    /// strings are at least as many edits apart as their lengths differ,
    /// which settles most names without running the distance.
    fn ids_within(&self, probe: &str, k: u32) -> impl Iterator<Item = i64> + '_ {
        let probe = probe.to_string();
        let len = probe.chars().count();
        self.by_name
            .iter()
            .filter(move |(name, (name_len, _))| {
                name_len.abs_diff(len) <= k as usize && layers::edit_distance(name, &probe) <= k
            })
            .flat_map(|(_, (_, ids))| ids.iter().copied())
    }

    /// The rows `predicate` selects from this corpus, as the JSON text of
    /// each row, sorted. Join predicates take their outer records from
    /// `outer` (the base records, where the low ids are) and their inner
    /// records from `self`.
    pub fn answer(
        &self,
        predicate: &Predicate,
        outer: &Corpus,
        interner: &mut Interner,
    ) -> Vec<String> {
        let mut rows: Vec<String> = match predicate {
            Predicate::JaccardSelect { probe, delta } => {
                let probe = interner.token_set(probe);
                self.ids
                    .iter()
                    .zip(&self.tokens)
                    .filter(|(_, t)| similar(t, &probe, *delta))
                    .map(|(id, _)| layers::json_text(&layers::id_row(*id)))
                    .collect()
            }
            Predicate::EditSelect { probe, k } => self
                .ids_within(probe, *k)
                .map(|id| layers::json_text(&layers::id_row(id)))
                .collect(),
            Predicate::JaccardJoin {
                first,
                count,
                delta,
            } => {
                let mut rows = Vec::new();
                for o in (*first..first + count).filter_map(|id| outer.position(id)) {
                    for (i, t) in self.ids.iter().zip(&self.tokens) {
                        if similar(&outer.tokens[o], t, *delta) {
                            rows.push(layers::json_text(&layers::pair_row(outer.ids[o], *i)));
                        }
                    }
                }
                rows
            }
            Predicate::EditJoin { first, count, k } => {
                let mut rows = Vec::new();
                for o in (*first..first + count).filter_map(|id| outer.position(id)) {
                    for i in self.ids_within(&outer.names[o], *k) {
                        rows.push(layers::json_text(&layers::pair_row(outer.ids[o], i)));
                    }
                }
                rows
            }
        };
        rows.sort_unstable();
        rows
    }
}

/// A response's rows in the oracle's form: each row parsed and written
/// again by the same JSON writer, sorted.
pub fn canonical_rows(row_texts: &[String]) -> Result<Vec<String>, String> {
    let mut rows = row_texts
        .iter()
        .map(|t| layers::json_parse(t).map(|v| layers::json_text(&v)))
        .collect::<Result<Vec<_>, _>>()?;
    rows.sort_unstable();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_jaccard_agrees_with_simfn_on_generated_text() {
        let records = layers::generate(Data::Amazon, 300, 0, 11);
        let mut interner = Interner::default();
        let texts: Vec<&str> = records
            .iter()
            .map(|r| layers::record_str(r, "summary"))
            .collect();
        for a in texts.iter().take(40) {
            for b in &texts {
                let own = jaccard(&interner.token_set(a), &interner.token_set(b));
                let theirs = layers::jaccard(&layers::word_tokens(a), &layers::word_tokens(b));
                assert_eq!(own, theirs, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn answers_on_a_hand_made_corpus() {
        let records: Vec<Record> = [
            (0, "ann", "great product value"),
            (1, "anne", "great product"),
            (2, "bob", "terrible cable"),
            (3, "ann", "value product great"),
        ]
        .iter()
        .map(|(id, name, summary)| {
            layers::json_parse(&format!(
                "{{\"id\": {id}, \"reviewerName\": \"{name}\", \"summary\": \"{summary}\"}}"
            ))
            .unwrap()
        })
        .collect();
        let mut interner = Interner::default();
        let corpus = Corpus::new(Data::Amazon, &records, &mut interner);
        let mut ask = |p: Predicate| corpus.answer(&p, &corpus, &mut interner);
        assert_eq!(
            ask(Predicate::JaccardSelect {
                probe: "Great product".into(),
                delta: 0.6
            }),
            vec!["0", "1", "3"]
        );
        assert_eq!(
            ask(Predicate::EditSelect {
                probe: "ann".into(),
                k: 1
            }),
            vec!["0", "1", "3"]
        );
        assert_eq!(
            ask(Predicate::JaccardJoin {
                first: 0,
                count: 1,
                delta: 1.0
            }),
            vec![
                layers::json_text(&layers::pair_row(0, 0)),
                layers::json_text(&layers::pair_row(0, 3))
            ]
        );
        assert_eq!(
            ask(Predicate::EditJoin {
                first: 0,
                count: 3,
                k: 0
            })
            .len(),
            // 0-0, 0-3, 1-1, 2-2
            4
        );
    }

    #[test]
    fn response_rows_are_canonicalised() {
        let rows =
            canonical_rows(&["{ \"o\": 2, \"i\": 1 }".to_string(), "7".to_string()]).unwrap();
        assert_eq!(
            rows,
            vec!["7".to_string(), layers::json_text(&layers::pair_row(2, 1))]
        );
        assert!(canonical_rows(&["{".to_string()]).is_err());
    }
}
