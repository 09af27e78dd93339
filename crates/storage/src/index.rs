//! Typed indexes on top of [`LsmTree`]:
//!
//! * [`PrimaryIndex`] — primary key → record (every dataset partition is
//!   one of these, §2.3),
//! * [`SecondaryBTreeIndex`] — field value → primary keys, via composite
//!   `[field, pk]` keys (the exact-match baseline of §6.2/§6.3),
//! * [`InvertedIndex`] — token → primary keys, again via composite
//!   `[token, pk]` keys; covers both the `keyword` index (word tokens, for
//!   Jaccard) and the `ngram(n)` index (grams, for edit distance) of §3.3.
//!
//! Secondary indexes map secondary keys to primary keys only — resolving a
//! candidate to its record requires a primary-index lookup, which is why
//! the paper's index plans sort primary keys and then search the primary
//! index (§4.1.1).
//!
//! All disk-touching methods return `Result<_, IoError>`, propagating
//! (possibly injected) storage faults typed rather than panicking.

use crate::cache::BufferCache;
use crate::fault::IoError;
use crate::lsm::LsmTree;
use crate::StorageConfig;
use asterix_adm::{binary, IndexKind, Value};
use asterix_simfn::tokenize;
use asterix_simfn::{IntersectScratch, RankCountScratch, TokenBitset};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Posting lists at or above this length switch [`InvertedIndex::t_occurrence`]
/// from ScanCount to DivideSkip (mirrors the tiny-M guard inside the
/// DivideSkip L-heuristic: below this the skip machinery costs more than
/// it saves).
const ADAPTIVE_DIVIDE_SKIP_MIN_LEN: usize = 64;

/// Decode a primary record, reporting an undecodable one as corruption:
/// a CRC-valid page can still hold a bad record, and dropping it would
/// turn it into a missing row.
fn decode_record(pk: &Value, bytes: &[u8]) -> Result<Value, IoError> {
    binary::from_bytes(bytes)
        .map_err(|e| IoError::corruption(format!("primary record under key {pk}: {e}")))
}

/// An interval of primary keys in [`Value`]'s total order (the LSM key
/// order), bounded on either side or not. A data scan with a key range
/// reads only the records inside it; [`KeyRange::FULL`] reads them all.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyRange {
    /// Lower bound.
    pub lo: Bound<Value>,
    /// Upper bound.
    pub hi: Bound<Value>,
}

impl Default for KeyRange {
    fn default() -> Self {
        KeyRange::FULL
    }
}

impl KeyRange {
    /// Every key.
    pub const FULL: KeyRange = KeyRange {
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
    };

    /// True when neither side is bounded.
    pub fn is_full(&self) -> bool {
        matches!((&self.lo, &self.hi), (Bound::Unbounded, Bound::Unbounded))
    }

    /// True when `key` is not below the lower bound.
    pub fn admits_lo(&self, key: &Value) -> bool {
        match &self.lo {
            Bound::Included(b) => key >= b,
            Bound::Excluded(b) => key > b,
            Bound::Unbounded => true,
        }
    }

    /// True when `key` is not above the upper bound.
    pub fn admits_hi(&self, key: &Value) -> bool {
        match &self.hi {
            Bound::Included(b) => key <= b,
            Bound::Excluded(b) => key < b,
            Bound::Unbounded => true,
        }
    }

    /// True when `key` lies inside the range.
    pub fn contains(&self, key: &Value) -> bool {
        self.admits_lo(key) && self.admits_hi(key)
    }

    /// The keys inside both ranges: the higher lower bound and the lower
    /// upper bound (an exclusive bound wins a tie).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        fn tighter(a: &Bound<Value>, b: &Bound<Value>, want: Ordering) -> Bound<Value> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
                    let a_wins = match x.cmp(y) {
                        Ordering::Equal => matches!(a, Bound::Excluded(_)),
                        o => o == want,
                    };
                    if a_wins { a.clone() } else { b.clone() }
                }
            }
        }
        KeyRange {
            lo: tighter(&self.lo, &other.lo, Ordering::Greater),
            hi: tighter(&self.hi, &other.hi, Ordering::Less),
        }
    }
}

impl fmt::Display for KeyRange {
    /// Interval notation, `*` for an open side: `[5, 12)`, `(*, 7000.0]`.
    /// Doubles keep their fraction so `7000` and `7000.0` stay distinct.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn key(v: &Value) -> String {
            match v {
                Value::Double(d) => format!("{:?}", d.0),
                other => other.to_string(),
            }
        }
        let lo = match &self.lo {
            Bound::Included(v) => format!("[{}", key(v)),
            Bound::Excluded(v) => format!("({}", key(v)),
            Bound::Unbounded => "(*".to_string(),
        };
        let hi = match &self.hi {
            Bound::Included(v) => format!("{}]", key(v)),
            Bound::Excluded(v) => format!("{})", key(v)),
            Bound::Unbounded => "*)".to_string(),
        };
        write!(f, "{lo}, {hi}")
    }
}

/// Primary index: pk → record bytes.
#[derive(Debug)]
pub struct PrimaryIndex {
    tree: LsmTree,
}

impl PrimaryIndex {
    /// Create an empty primary index over `cache`.
    pub fn new(cache: Arc<BufferCache>, config: StorageConfig) -> Self {
        PrimaryIndex {
            tree: LsmTree::new(cache, config),
        }
    }

    /// Insert or overwrite the record stored under `pk`.
    pub fn insert(&mut self, pk: Value, record: &Value) -> Result<(), IoError> {
        self.tree.put(pk, binary::to_bytes(record))
    }

    /// Delete the record stored under `pk` (idempotent).
    pub fn delete(&mut self, pk: Value) -> Result<(), IoError> {
        self.tree.delete(pk)
    }

    /// Point lookup, decoding the record.
    pub fn get(&self, pk: &Value) -> Result<Option<Value>, IoError> {
        crate::profile::add(|q| &q.primary_lookups, 1);
        self.tree
            .get(pk)?
            .map(|b| decode_record(pk, &b))
            .transpose()
    }

    /// Batched lookup over a *sorted* (ascending, ideally deduped) pk
    /// slice: one merged descent per LSM component instead of N point
    /// descents, so pks that share a page decode it once (§4.1.1's
    /// sort-the-pks locality). `out[i]` is the record for `pks[i]`.
    pub fn get_many_sorted(&self, pks: &[Value]) -> Result<Vec<Option<Value>>, IoError> {
        crate::profile::add(|q| &q.primary_lookups, pks.len() as u64);
        self.tree
            .get_many_sorted(pks)?
            .into_iter()
            .zip(pks)
            .map(|(b, pk)| b.map(|b| decode_record(pk, &b)).transpose())
            .collect()
    }

    /// Full scan in pk order: [`PrimaryIndex::scan_range`] over
    /// [`KeyRange::FULL`].
    pub fn scan(&self) -> impl Iterator<Item = Result<(Value, Value), IoError>> + '_ {
        self.scan_range(&KeyRange::FULL)
    }

    /// Scan the records whose pk lies in `range`, in pk order: one
    /// `scan_from` descent to the lower bound, ending at the first key
    /// past the upper bound.
    pub fn scan_range(
        &self,
        range: &KeyRange,
    ) -> impl Iterator<Item = Result<(Value, Value), IoError>> + '_ {
        let start = match &range.lo {
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
            Bound::Unbounded => None,
        };
        let (skip, stop) = (range.clone(), range.clone());
        self.tree
            .scan_from(start)
            .skip_while(move |item| matches!(item, Ok((k, _)) if !skip.admits_lo(k)))
            .take_while(move |item| !matches!(item, Ok((k, _)) if !stop.admits_hi(k)))
            .map(|item| {
                let (k, v) = item?;
                let rec = decode_record(&k, &v)?;
                Ok((k, rec))
            })
    }

    /// Number of live records (scans all components).
    pub fn len(&self) -> Result<u64, IoError> {
        self.tree.live_entries()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> Result<bool, IoError> {
        match self.tree.scan().next() {
            None => Ok(true),
            Some(Ok(_)) => Ok(false),
            Some(Err(e)) => Err(e),
        }
    }

    /// Approximate on-disk plus in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.tree.size_bytes()
    }

    /// Flush the memory component to a disk component.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.tree.flush()
    }

    /// Bulk-load pre-sorted `(pk, record)` pairs as one component.
    pub fn bulk_load(
        &mut self,
        sorted: impl IntoIterator<Item = (Value, Value)>,
    ) -> Result<(), IoError> {
        self.tree.bulk_load(
            sorted
                .into_iter()
                .map(|(pk, rec)| (pk, binary::to_bytes(&rec))),
        )
    }

    /// Lifetime (flushes, merges) of the underlying LSM tree.
    pub fn lsm_counters(&self) -> (u64, u64) {
        (self.tree.num_flushes(), self.tree.num_merges())
    }

    /// Disk components currently backing this index.
    pub fn num_disk_components(&self) -> usize {
        self.tree.num_disk_components()
    }

    /// Name the underlying LSM tree in lifecycle events.
    pub fn set_tag(&mut self, tag: impl Into<std::sync::Arc<str>>) {
        self.tree.set_tag(tag);
    }

    /// Live disk components as `(file, pages)`, newest first (see
    /// [`LsmTree::component_files`]).
    pub fn component_files(&self) -> Vec<(crate::disk::FileId, u32)> {
        self.tree.component_files()
    }

    /// Restore recovered disk components (see
    /// [`LsmTree::restore_components`]).
    pub fn restore_components(&mut self, components: Vec<crate::component::RunComponent>) {
        self.tree.restore_components(components);
    }

    /// Drain merge-superseded files awaiting reclamation (see
    /// [`LsmTree::take_obsolete`]).
    pub fn take_obsolete(&mut self) -> Vec<crate::disk::FileId> {
        self.tree.take_obsolete()
    }

    /// True when the memory component is empty (see
    /// [`LsmTree::mem_is_empty`]).
    pub fn mem_is_empty(&self) -> bool {
        self.tree.mem_is_empty()
    }
}

/// Composite-key helper: `[component, pk]`.
fn composite(a: Value, pk: Value) -> Value {
    Value::OrderedList(vec![a, pk])
}

/// Lower bound of the composite range for a given first component
/// (`Missing` sorts before every other value).
fn range_start(a: Value) -> Value {
    Value::OrderedList(vec![a, Value::Missing])
}

/// Secondary B+-tree index on one field.
#[derive(Debug)]
pub struct SecondaryBTreeIndex {
    tree: LsmTree,
    /// The record field this index is built over.
    pub field: String,
}

impl SecondaryBTreeIndex {
    /// Create an empty secondary B+-tree index over `field`.
    pub fn new(cache: Arc<BufferCache>, config: StorageConfig, field: impl Into<String>) -> Self {
        SecondaryBTreeIndex {
            tree: LsmTree::new(cache, config),
            field: field.into(),
        }
    }

    /// Index `record`'s field value under its primary key.
    pub fn insert(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        let key = record.field_path(&self.field);
        if key.is_unknown() {
            return Ok(()); // unindexable: field absent
        }
        self.tree
            .put(composite(key.clone(), pk.clone()), Bytes::new())
    }

    /// Remove `record`'s field value entry for `pk`.
    pub fn delete(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        let key = record.field_path(&self.field);
        if key.is_unknown() {
            return Ok(());
        }
        self.tree.delete(composite(key.clone(), pk.clone()))
    }

    /// All primary keys whose field equals `key` (sorted).
    pub fn lookup(&self, key: &Value) -> Result<Vec<Value>, IoError> {
        let mut out = Vec::new();
        for item in self.tree.scan_from(Some(&range_start(key.clone()))) {
            let (k, _) = item?;
            // A key that is not a well-formed `[field, pk]` composite can
            // only be past the range (or corrupt): treat it as end-of-range
            // rather than indexing into it and panicking.
            match k.as_list() {
                Some(items) if items.first() == Some(key) => match items.get(1) {
                    Some(pk) => out.push(pk.clone()),
                    None => break,
                },
                _ => break,
            }
        }
        Ok(out)
    }

    /// Approximate on-disk plus in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.tree.size_bytes()
    }

    /// Flush the memory component to a disk component.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.tree.flush()
    }

    /// Number of `[key, pk]` entries across all components.
    pub fn entry_count(&self) -> Result<u64, IoError> {
        self.tree.live_entries()
    }

    /// Lifetime (flushes, merges) of the underlying LSM tree.
    pub fn lsm_counters(&self) -> (u64, u64) {
        (self.tree.num_flushes(), self.tree.num_merges())
    }

    /// Disk components currently backing this index.
    pub fn num_disk_components(&self) -> usize {
        self.tree.num_disk_components()
    }

    /// Name the underlying LSM tree in lifecycle events.
    pub fn set_tag(&mut self, tag: impl Into<std::sync::Arc<str>>) {
        self.tree.set_tag(tag);
    }

    /// Live disk components as `(file, pages)`, newest first.
    pub fn component_files(&self) -> Vec<(crate::disk::FileId, u32)> {
        self.tree.component_files()
    }

    /// Restore recovered disk components.
    pub fn restore_components(&mut self, components: Vec<crate::component::RunComponent>) {
        self.tree.restore_components(components);
    }

    /// Drain merge-superseded files awaiting reclamation.
    pub fn take_obsolete(&mut self) -> Vec<crate::disk::FileId> {
        self.tree.take_obsolete()
    }

    /// True when the memory component is empty.
    pub fn mem_is_empty(&self) -> bool {
        self.tree.mem_is_empty()
    }
}

/// The secondary keys (tokens) an inverted index of `kind` extracts from a
/// field value:
///
/// * `keyword`: distinct word tokens of a string, or the elements of a
///   list field (the index "uses the elements of a given unordered
///   list", §3.3),
/// * `ngram(n)`: distinct n-grams of the string.
///
/// This is a free function (not a method) so the optimizer can tokenize
/// query *constants* once at compile time with exactly the function the
/// runtime search uses — the two can never disagree.
pub fn index_tokens(kind: IndexKind, field_value: &Value) -> Vec<Value> {
    match (kind, field_value) {
        (IndexKind::Keyword, Value::String(s)) => tokenize::word_tokens_distinct(s)
            .into_iter()
            .map(Value::String)
            .collect(),
        (IndexKind::Keyword, Value::OrderedList(items))
        | (IndexKind::Keyword, Value::UnorderedList(items)) => {
            let mut out = items.clone();
            out.sort();
            out.dedup();
            out
        }
        (IndexKind::NGram(n), Value::String(s)) => tokenize::gram_tokens_distinct(s, n)
            .into_iter()
            .map(Value::String)
            .collect(),
        _ => Vec::new(),
    }
}

/// Token → shared posting list, kept exact by the writes themselves.
///
/// Keyed probes during a query hit the same few tokens over and over
/// (broadcast probes in index-nested-loop joins most of all); re-scanning
/// the composite-key range and re-allocating a fresh `Vec<Value>` per
/// probe dominated the hot path. The cache hands out `Arc<[Value]>`
/// clones instead.
///
/// Invalidation rule: a write drops exactly the entries of the tokens it
/// touches, before it is applied. [`InvertedIndex::insert`] and
/// [`InvertedIndex::delete`] take `&mut self`, so no probe (`&self`) can
/// run beside them — there is no raced read to guard against and nothing
/// to re-check after a kernel. Flush and merge move postings between
/// components without changing any logical posting list, so they
/// invalidate nothing; [`InvertedIndex::restore_components`] swaps the
/// whole tree and clears everything.
#[derive(Debug, Default)]
struct PostingsCacheInner {
    /// token → (shared list, last-touch stamp for LRU eviction).
    map: HashMap<Value, (Arc<[Value]>, u64)>,
    /// token → (dense-rank form of the posting list, touch stamp). Ranks
    /// index [`PostingsCacheInner::pk_by_rank`]; the vectorized
    /// T-occurrence path counts these with a dense array instead of
    /// hashing `Value` primary keys per element.
    ranks: HashMap<Value, (Arc<[u32]>, u64)>,
    /// token → (bitset membership view of the posting list, touch stamp),
    /// built lazily for the long lists DivideSkip probes: O(1) membership
    /// per candidate instead of a binary search over `Value`s. A bitset
    /// spans the dictionary as it was when built; ranks handed out later
    /// lie past its end and test `false`, which is right — a pk interned
    /// after the build is on none of the lists the bitset was built from.
    bitsets: HashMap<Value, (Arc<TokenBitset>, u64)>,
    /// First-encounter primary-key interning: rank → pk, and its inverse.
    /// Append-only across probes and inserts (a rank, once given, keeps
    /// its pk, so surviving rank arrays and bitsets stay valid); reset
    /// with `ranks` and `bitsets` by `delete`, the one write that can
    /// retire a pk, so it never outgrows the keys the index has held
    /// since the last delete.
    pk_by_rank: Vec<Value>,
    rank_of: HashMap<Value, u32>,
    /// Monotonic touch clock.
    clock: u64,
}

impl PostingsCacheInner {
    /// True when a write has nothing to invalidate — the state of every
    /// index during `load` and `create index` backfill, which must not
    /// pay for hashing each record's tokens.
    fn is_empty(&self) -> bool {
        self.map.is_empty()
            && self.ranks.is_empty()
            && self.bitsets.is_empty()
            && self.pk_by_rank.is_empty()
    }

    /// Drop every form of the posting lists of `tokens`.
    fn forget(&mut self, tokens: &[Value]) {
        for token in tokens {
            self.map.remove(token);
            self.ranks.remove(token);
            self.bitsets.remove(token);
        }
    }

    /// Drop everything expressed in ranks, and the dictionary with it.
    fn reset_ranks(&mut self) {
        self.ranks.clear();
        self.bitsets.clear();
        self.pk_by_rank.clear();
        self.rank_of.clear();
    }

    /// Intern one posting list to its dense-rank form, extending the pk
    /// dictionary with first-encounter ranks.
    fn rank_list(&mut self, list: &[Value]) -> Arc<[u32]> {
        list.iter()
            .map(|pk| match self.rank_of.get(pk) {
                Some(r) => *r,
                None => {
                    let r = self.pk_by_rank.len() as u32;
                    self.rank_of.insert(pk.clone(), r);
                    self.pk_by_rank.push(pk.clone());
                    r
                }
            })
            .collect()
    }

    /// LRU-evict from a token-keyed map that reached `capacity`.
    fn evict_lru<V>(map: &mut HashMap<Value, (V, u64)>, capacity: usize) {
        if map.len() >= capacity {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                map.remove(&victim);
            }
        }
    }
}

thread_local! {
    /// Per-worker dense count table for the rank-array T-occurrence
    /// kernels: grown once to the partition's pk universe, reset by
    /// touched-slot walking, so steady-state probes allocate nothing.
    static RANK_SCRATCH: std::cell::RefCell<RankCountScratch> =
        std::cell::RefCell::new(RankCountScratch::new());

    /// Per-worker ping-pong arena for the full-intersection T-occurrence
    /// fast path: intermediate intersections reuse these buffers across
    /// probes, and the embedded probe counter feeds `gallop_probes`.
    static INTERSECT_SCRATCH: std::cell::RefCell<IntersectScratch<Value>> =
        std::cell::RefCell::new(IntersectScratch::new());
}

#[derive(Debug, Default)]
struct PostingsCache {
    inner: Mutex<PostingsCacheInner>,
    /// Maximum distinct tokens held; 0 disables the cache.
    capacity: usize,
}

/// LSM inverted index: `keyword` or `ngram(n)`, per Fig 13's compatibility
/// table.
#[derive(Debug)]
pub struct InvertedIndex {
    tree: LsmTree,
    /// The record field this index tokenizes.
    pub field: String,
    /// Tokenization: `Keyword` or `NGram(n)`.
    pub kind: IndexKind,
    postings_cache: PostingsCache,
}

impl InvertedIndex {
    /// Create an empty inverted index over `field` with tokenizer `kind`.
    pub fn new(
        cache: Arc<BufferCache>,
        config: StorageConfig,
        field: impl Into<String>,
        kind: IndexKind,
    ) -> Self {
        assert!(
            matches!(kind, IndexKind::Keyword | IndexKind::NGram(_)),
            "inverted index kind must be keyword or ngram"
        );
        let capacity = config.postings_cache_entries;
        InvertedIndex {
            tree: LsmTree::new(cache, config),
            field: field.into(),
            kind,
            postings_cache: PostingsCache {
                inner: Mutex::new(PostingsCacheInner::default()),
                capacity,
            },
        }
    }

    /// The secondary keys (tokens) this index extracts from a field value
    /// (see [`index_tokens`]).
    pub fn tokens_of(&self, field_value: &Value) -> Vec<Value> {
        index_tokens(self.kind, field_value)
    }

    /// Add postings for every token of `record`'s field, first dropping
    /// those tokens' cached lists.
    pub fn insert(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        let tokens = index_tokens(self.kind, record.field_path(&self.field));
        let cache = self.postings_cache.inner.get_mut();
        if !cache.is_empty() {
            cache.forget(&tokens);
        }
        for token in tokens {
            self.tree.put(composite(token, pk.clone()), Bytes::new())?;
        }
        Ok(())
    }

    /// Remove postings for every token of `record`'s field, first dropping
    /// those tokens' cached lists and — since `pk` may now be on no list
    /// at all — the rank dictionary.
    pub fn delete(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        let tokens = index_tokens(self.kind, record.field_path(&self.field));
        let cache = self.postings_cache.inner.get_mut();
        if !cache.is_empty() {
            cache.forget(&tokens);
            cache.reset_ranks();
        }
        for token in tokens {
            self.tree.delete(composite(token, pk.clone()))?;
        }
        Ok(())
    }

    /// Scan one token's posting range out of the LSM tree. This is the
    /// only place inverted-list elements are actually read, so it is the
    /// only place that counts `inverted_elements_read` — cache hits
    /// deliberately do not re-count elements they did not re-read.
    fn read_postings(&self, token: &Value) -> Result<Vec<Value>, IoError> {
        let mut out = Vec::new();
        for item in self.tree.scan_from(Some(&range_start(token.clone()))) {
            let (k, _) = item?;
            // A malformed composite key (not a list, or arity < 2) can
            // only be past the range or corrupt: end-of-range, not panic.
            match k.as_list() {
                Some(items) if items.first() == Some(token) => match items.get(1) {
                    Some(pk) => out.push(pk.clone()),
                    None => break,
                },
                _ => break,
            }
        }
        crate::profile::add(|q| &q.inverted_elements_read, out.len() as u64);
        Ok(out)
    }

    /// The inverted list of one token as a shared slice, served from the
    /// postings cache when it holds the token.
    pub fn postings_shared(&self, token: &Value) -> Result<Arc<[Value]>, IoError> {
        let capacity = self.postings_cache.capacity;
        if capacity == 0 {
            return Ok(self.read_postings(token)?.into());
        }
        {
            let mut inner = self.postings_cache.inner.lock();
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(slot) = inner.map.get_mut(token) {
                slot.1 = stamp;
                let list = slot.0.clone();
                drop(inner);
                crate::profile::add(|q| &q.postings_cache_hits, 1);
                return Ok(list);
            }
        }
        // Miss: read outside the lock (scans can be long), then install.
        crate::profile::add(|q| &q.postings_cache_misses, 1);
        let list: Arc<[Value]> = self.read_postings(token)?.into();
        // Caching is optional: if the querying thread's memory budget
        // cannot absorb the list, serve it uncached instead of failing.
        let list_bytes: u64 = list.iter().map(|v| v.heap_size() as u64).sum();
        if !crate::budget::try_charge_current(list_bytes) {
            return Ok(list);
        }
        let mut inner = self.postings_cache.inner.lock();
        if !inner.map.contains_key(token) {
            PostingsCacheInner::evict_lru(&mut inner.map, capacity);
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(token.clone(), (list.clone(), stamp));
        Ok(list)
    }

    /// Solve the T-occurrence problem for a set of query tokens: primary
    /// keys appearing on at least `t` of the tokens' inverted lists
    /// (candidates, possibly with false positives — §2.2). `t >= 1`.
    ///
    /// Operates on shared cached slices (no per-probe list copies) and
    /// picks the algorithm adaptively: DivideSkip wins once some list is
    /// long enough for its skip machinery to pay for itself and `t > 1`
    /// makes skipping possible; otherwise ScanCount's single pass is
    /// cheaper.
    pub fn t_occurrence(&self, tokens: &[Value], t: usize) -> Result<Vec<Value>, IoError> {
        let lists: Vec<Arc<[Value]>> = tokens
            .iter()
            .map(|tok| self.postings_shared(tok))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&[Value]> = lists.iter().map(|l| &**l).collect();
        let max_len = refs.iter().map(|l| l.len()).max().unwrap_or(0);
        let use_divide_skip = t > 1 && refs.len() > 1 && max_len >= ADAPTIVE_DIVIDE_SKIP_MIN_LEN;
        self.t_occurrence_scalar_on(&refs, t, use_divide_skip)
    }

    /// Vectorized T-occurrence: posting lists are delivered as
    /// `Arc<[u32]>` dense-rank arrays (interned inside the postings cache)
    /// and counted with the rank kernels of
    /// `asterix-simfn` — a dense count array for ScanCount, bitset
    /// membership for DivideSkip's long-list probes — instead of hashing
    /// or binary-searching `Value` primary keys per element. Picks the
    /// same algorithm the scalar [`InvertedIndex::t_occurrence`] would and
    /// returns the identical candidate list (same order); falls back to
    /// the scalar path whenever the postings cache is disabled or the
    /// memory budget refuses the rank arrays.
    ///
    /// When `T` equals the number of query tokens — the usual shape for
    /// high Jaccard thresholds, where `ceil(δ·|q|) == |q|` for short
    /// probes — a candidate must appear on *every* list, so the count
    /// kernels are bypassed entirely: the sorted, deduplicated
    /// `Arc<[Value]>` postings slices are intersected directly with the
    /// adaptive gallop/merge kernel, skipping rank interning, the cache
    /// lock re-acquisition, and the rank→pk mapping pass. The candidate
    /// set and order are unchanged: in this regime every survivor appears
    /// on the first (sorted) list, so ScanCount's first-encounter order is
    /// already ascending-pk order.
    pub fn t_occurrence_ranked(&self, tokens: &[Value], t: usize) -> Result<Vec<Value>, IoError> {
        if self.postings_cache.capacity == 0 {
            return self.t_occurrence(tokens, t);
        }
        // Shared Value lists first: this is where cache traffic and
        // inverted_elements_read are counted, identically to the scalar path.
        let lists: Vec<Arc<[Value]>> = tokens
            .iter()
            .map(|tok| self.postings_shared(tok))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&[Value]> = lists.iter().map(|l| &**l).collect();
        if t > 1 && t == refs.len() {
            let candidates = INTERSECT_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                let before = scratch.gallop_probes();
                let out = asterix_simfn::t_occurrence_intersect(&refs, &mut scratch);
                crate::profile::record_gallop_probes(scratch.gallop_probes() - before);
                out
            });
            crate::profile::add(|q| &q.toccurrence_candidates, candidates.len() as u64);
            return Ok(candidates);
        }
        let max_len = refs.iter().map(|l| l.len()).max().unwrap_or(0);
        let use_divide_skip = t > 1 && refs.len() > 1 && max_len >= ADAPTIVE_DIVIDE_SKIP_MIN_LEN;

        let capacity = self.postings_cache.capacity;
        // Intern posting lists to rank arrays under the cache lock.
        let mut inner = self.postings_cache.inner.lock();
        let mut rank_lists: Vec<Arc<[u32]>> = Vec::with_capacity(lists.len());
        for (tok, list) in tokens.iter().zip(&lists) {
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(slot) = inner.ranks.get_mut(tok) {
                slot.1 = stamp;
                rank_lists.push(slot.0.clone());
                continue;
            }
            let ranked = inner.rank_list(list.as_ref());
            // Rank arrays cost 4 bytes/element; if the query's budget
            // cannot absorb them, serve this probe through the scalar path.
            if !crate::budget::try_charge_current(4 * ranked.len() as u64) {
                drop(inner);
                return self.t_occurrence_scalar_on(&refs, t, use_divide_skip);
            }
            if !inner.ranks.contains_key(tok) {
                PostingsCacheInner::evict_lru(&mut inner.ranks, capacity);
            }
            inner.ranks.insert(tok.clone(), (ranked.clone(), stamp));
            rank_lists.push(ranked);
        }
        let universe = inner.pk_by_rank.len();

        let candidate_ranks = if use_divide_skip {
            // Same split as the scalar heuristic: stable sort by
            // descending length, first L lists are long.
            let l = asterix_simfn::divide_skip_choose_l(t, rank_lists.len(), max_len);
            let mut order: Vec<usize> = (0..rank_lists.len()).collect();
            order.sort_by_key(|i| std::cmp::Reverse(rank_lists[*i].len()));
            let (long_idx, short_idx) = order.split_at(l);
            let mut long_sets: Vec<Arc<TokenBitset>> = Vec::with_capacity(long_idx.len());
            for &li in long_idx {
                inner.clock += 1;
                let stamp = inner.clock;
                let tok = &tokens[li];
                if let Some(slot) = inner.bitsets.get_mut(tok) {
                    slot.1 = stamp;
                    long_sets.push(slot.0.clone());
                    continue;
                }
                let bs = Arc::new(TokenBitset::build(&rank_lists[li], universe));
                if !inner.bitsets.contains_key(tok) {
                    PostingsCacheInner::evict_lru(&mut inner.bitsets, capacity);
                }
                inner.bitsets.insert(tok.clone(), (bs.clone(), stamp));
                long_sets.push(bs);
            }
            drop(inner);
            let shorts: Vec<&[u32]> = short_idx.iter().map(|i| &*rank_lists[*i]).collect();
            let bs_refs: Vec<&TokenBitset> = long_sets.iter().map(|b| &**b).collect();
            RANK_SCRATCH.with(|s| {
                asterix_simfn::t_occurrence_divide_skip_ranks(
                    &shorts,
                    &bs_refs,
                    t,
                    universe,
                    &mut s.borrow_mut(),
                )
            })
        } else {
            drop(inner);
            crate::profile::record_scancount_fallbacks(1);
            let rank_refs: Vec<&[u32]> = rank_lists.iter().map(|l| &**l).collect();
            RANK_SCRATCH.with(|s| {
                asterix_simfn::t_occurrence_ranks(&rank_refs, t, universe, &mut s.borrow_mut())
            })
        };

        // Map candidate ranks back to primary keys: probes only ever
        // append to the dictionary, so every rank still resolves.
        let inner = self.postings_cache.inner.lock();
        let candidates: Vec<Value> = candidate_ranks
            .iter()
            .map(|&r| inner.pk_by_rank[r as usize].clone())
            .collect();
        drop(inner);
        crate::profile::add(|q| &q.toccurrence_candidates, candidates.len() as u64);
        Ok(candidates)
    }

    /// The scalar merge over already-fetched lists, with the adaptive
    /// choice precomputed — where the ranked path lands when the memory
    /// budget refuses its rank arrays.
    fn t_occurrence_scalar_on(
        &self,
        refs: &[&[Value]],
        t: usize,
        use_divide_skip: bool,
    ) -> Result<Vec<Value>, IoError> {
        let candidates = if use_divide_skip {
            asterix_simfn::t_occurrence_divide_skip(refs, t)
        } else {
            crate::profile::record_scancount_fallbacks(1);
            asterix_simfn::t_occurrence_scan_count(refs, t)
        };
        crate::profile::add(|q| &q.toccurrence_candidates, candidates.len() as u64);
        Ok(candidates)
    }

    /// Approximate on-disk plus in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.tree.size_bytes()
    }

    /// Flush the memory component to a disk component.
    pub fn flush(&mut self) -> Result<(), IoError> {
        self.tree.flush()
    }

    /// Number of `[token, pk]` postings across all components.
    pub fn entry_count(&self) -> Result<u64, IoError> {
        self.tree.live_entries()
    }

    /// Lifetime (flushes, merges) of the underlying LSM tree.
    pub fn lsm_counters(&self) -> (u64, u64) {
        (self.tree.num_flushes(), self.tree.num_merges())
    }

    /// Disk components currently backing this index.
    pub fn num_disk_components(&self) -> usize {
        self.tree.num_disk_components()
    }

    /// Name the underlying LSM tree in lifecycle events.
    pub fn set_tag(&mut self, tag: impl Into<std::sync::Arc<str>>) {
        self.tree.set_tag(tag);
    }

    /// Live disk components as `(file, pages)`, newest first.
    pub fn component_files(&self) -> Vec<(crate::disk::FileId, u32)> {
        self.tree.component_files()
    }

    /// Restore recovered disk components. The whole tree changes under
    /// the postings cache, so the cache is cleared.
    pub fn restore_components(&mut self, components: Vec<crate::component::RunComponent>) {
        *self.postings_cache.inner.get_mut() = PostingsCacheInner::default();
        self.tree.restore_components(components);
    }

    /// Drain merge-superseded files awaiting reclamation.
    pub fn take_obsolete(&mut self) -> Vec<crate::disk::FileId> {
        self.tree.take_obsolete()
    }

    /// True when the memory component is empty.
    pub fn mem_is_empty(&self) -> bool {
        self.tree.mem_is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use asterix_adm::record;

    fn cache() -> Arc<BufferCache> {
        Arc::new(BufferCache::new(Arc::new(Disk::new()), 64))
    }

    #[test]
    fn primary_roundtrip() {
        let mut p = PrimaryIndex::new(cache(), StorageConfig::tiny());
        let rec = record! {"id" => 1i64, "name" => "james"};
        p.insert(Value::Int64(1), &rec).unwrap();
        assert_eq!(p.get(&Value::Int64(1)).unwrap(), Some(rec));
        assert_eq!(p.get(&Value::Int64(2)).unwrap(), None);
        assert_eq!(p.len().unwrap(), 1);
    }

    /// One sorted multi-get touches no more buffer-cache pages than
    /// per-key point gets of the same keys, and returns the same records.
    #[test]
    fn sorted_multi_get_touches_no_more_pages_than_point_gets() {
        let mut p = PrimaryIndex::new(cache(), StorageConfig::tiny());
        for i in 0..400i64 {
            let rec = record! {"id" => i, "pad" => "x".repeat(40)};
            p.insert(Value::Int64(i), &rec).unwrap();
            if i % 100 == 99 {
                p.flush().unwrap();
            }
        }
        let keys: Vec<Value> = (0..400i64).step_by(3).map(Value::Int64).collect();
        let pages = |lookup: &dyn Fn() -> Vec<Option<Value>>| {
            let counters = crate::profile::QueryCounters::handle();
            let scope = counters.enter();
            let records = lookup();
            drop(scope);
            let s = counters.snapshot();
            (records, s.cache_hits + s.cache_misses)
        };
        let (point, point_pages) = pages(&|| keys.iter().map(|k| p.get(k).unwrap()).collect());
        let (batched, batched_pages) = pages(&|| p.get_many_sorted(&keys).unwrap());
        assert_eq!(batched, point);
        assert!(point.iter().all(Option::is_some));
        assert!(point_pages > 0);
        assert!(
            batched_pages <= point_pages,
            "multi-get read {batched_pages} pages, point gets {point_pages}"
        );
    }

    #[test]
    fn primary_scan_ordered() {
        let mut p = PrimaryIndex::new(cache(), StorageConfig::tiny());
        for i in [3i64, 1, 2] {
            p.insert(Value::Int64(i), &record! {"id" => i}).unwrap();
        }
        let keys: Vec<i64> = p
            .scan()
            .map(|r| r.unwrap().0.as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn primary_range_scan_spans_memory_and_flushed_components() {
        let mut p = PrimaryIndex::new(cache(), StorageConfig::tiny());
        for i in (0..40i64).step_by(2) {
            p.insert(Value::Int64(i), &record! {"id" => i}).unwrap();
        }
        p.flush().unwrap();
        for i in (1..40i64).step_by(2) {
            p.insert(Value::Int64(i), &record! {"id" => i}).unwrap();
        }
        let keys = |range: KeyRange| -> Vec<i64> {
            p.scan_range(&range)
                .map(|r| r.unwrap().0.as_i64().unwrap())
                .collect()
        };
        let range = |lo, hi| KeyRange { lo, hi };
        let int = |i: i64| Value::Int64(i);
        assert_eq!(keys(KeyRange::FULL), (0..40).collect::<Vec<_>>());
        assert_eq!(
            keys(range(Bound::Included(int(5)), Bound::Excluded(int(9)))),
            vec![5, 6, 7, 8]
        );
        assert_eq!(
            keys(range(Bound::Excluded(int(5)), Bound::Included(int(9)))),
            vec![6, 7, 8, 9]
        );
        assert_eq!(keys(range(Bound::Included(int(37)), Bound::Unbounded)), vec![37, 38, 39]);
        assert_eq!(keys(range(Bound::Unbounded, Bound::Excluded(int(2)))), vec![0, 1]);
        // Empty: the lower bound lies past the upper one.
        assert!(keys(range(Bound::Included(int(9)), Bound::Excluded(int(5)))).is_empty());
        // A double bound sits between the integers around it.
        let half = Value::from(7.5);
        assert_eq!(
            keys(range(Bound::Included(half.clone()), Bound::Included(int(9)))),
            vec![8, 9]
        );
    }

    #[test]
    fn key_range_intersection_keeps_the_tighter_bounds() {
        let int = |i: i64| Value::Int64(i);
        let a = KeyRange {
            lo: Bound::Included(int(5)),
            hi: Bound::Included(int(20)),
        };
        let b = KeyRange {
            lo: Bound::Excluded(int(5)),
            hi: Bound::Excluded(int(30)),
        };
        let both = a.intersect(&b);
        assert_eq!(both.lo, Bound::Excluded(int(5)));
        assert_eq!(both.hi, Bound::Included(int(20)));
        assert_eq!(a.intersect(&KeyRange::FULL), a);
        assert!(KeyRange::FULL.is_full() && !a.is_full());
        assert!(both.contains(&int(6)) && !both.contains(&int(5)) && !both.contains(&int(21)));
        assert_eq!(both.to_string(), "(5, 20]");
        let open = KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Included(Value::from(7000.0)),
        };
        assert_eq!(open.to_string(), "(*, 7000.0]");
    }

    #[test]
    fn undecodable_primary_record_is_a_typed_error() {
        let mut p = PrimaryIndex::new(cache(), StorageConfig::tiny());
        p.insert(Value::Int64(1), &record! {"id" => 1i64}).unwrap();
        // Valid LSM entry, garbage record bytes under pk 2.
        p.tree
            .put(Value::Int64(2), Bytes::from(vec![0xff, 0x00, 0x13]))
            .unwrap();
        for flushed in [false, true] {
            if flushed {
                p.flush().unwrap();
            }
            assert!(p.get(&Value::Int64(1)).unwrap().is_some());
            let err = p.get(&Value::Int64(2)).unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert!(p
                .get_many_sorted(&[Value::Int64(1), Value::Int64(2)])
                .unwrap_err()
                .is_corruption());
            let scanned: Vec<_> = p.scan().collect();
            assert!(scanned[0].is_ok(), "{scanned:?}");
            assert!(scanned[1].as_ref().is_err_and(IoError::is_corruption), "{scanned:?}");
            // A range that stops before the bad record never reads it.
            let head = KeyRange {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(Value::Int64(2)),
            };
            assert_eq!(p.scan_range(&head).filter(Result::is_ok).count(), 1);
            assert_eq!(p.scan_range(&head).count(), 1);
        }
    }

    #[test]
    fn secondary_btree_lookup() {
        let mut s = SecondaryBTreeIndex::new(cache(), StorageConfig::tiny(), "name");
        s.insert(&record! {"id" => 1i64, "name" => "maria"}, &Value::Int64(1))
            .unwrap();
        s.insert(&record! {"id" => 2i64, "name" => "mario"}, &Value::Int64(2))
            .unwrap();
        s.insert(&record! {"id" => 3i64, "name" => "maria"}, &Value::Int64(3))
            .unwrap();
        assert_eq!(
            s.lookup(&Value::from("maria")).unwrap(),
            vec![Value::Int64(1), Value::Int64(3)]
        );
        assert_eq!(s.lookup(&Value::from("nobody")).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn secondary_skips_missing_fields() {
        let mut s = SecondaryBTreeIndex::new(cache(), StorageConfig::tiny(), "name");
        s.insert(&record! {"id" => 1i64}, &Value::Int64(1)).unwrap();
        assert_eq!(s.entry_count().unwrap(), 0);
    }

    #[test]
    fn keyword_index_paper_fig2() {
        // Fig 1/2: usernames james, maria, mary, jamie, mario — here via a
        // keyword index on a list field instead; check postings grouping.
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "summary",
            IndexKind::Keyword,
        );
        idx.insert(
            &record! {"id" => 1i64, "summary" => "great product value"},
            &Value::Int64(1),
        )
        .unwrap();
        idx.insert(
            &record! {"id" => 2i64, "summary" => "great gift"},
            &Value::Int64(2),
        )
        .unwrap();
        assert_eq!(
            &*idx.postings_shared(&Value::from("great")).unwrap(),
            vec![Value::Int64(1), Value::Int64(2)]
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("value")).unwrap(),
            vec![Value::Int64(1)]
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("absent")).unwrap(),
            Vec::<Value>::new()
        );
    }

    #[test]
    fn ngram_index_paper_fig2() {
        // Fig 2: inverted lists for the 2-grams of the username field.
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "username",
            IndexKind::NGram(2),
        );
        let users = [
            (1i64, "james"),
            (2, "mary"),
            (3, "mario"),
            (4, "jamie"),
            (5, "maria"),
        ];
        for (id, name) in users {
            idx.insert(&record! {"id" => id, "username" => name}, &Value::Int64(id))
                .unwrap();
        }
        // Fig 2: list("ma") = {2, 3, 5}; list("ja") = {1, 4}; list("am") = {1, 4}.
        assert_eq!(
            &*idx.postings_shared(&Value::from("ma")).unwrap(),
            vec![Value::Int64(2), Value::Int64(3), Value::Int64(5)]
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("ja")).unwrap(),
            vec![Value::Int64(1), Value::Int64(4)]
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("am")).unwrap(),
            vec![Value::Int64(1), Value::Int64(4)]
        );
    }

    #[test]
    fn t_occurrence_paper_fig3() {
        // Query "marla", 2-grams {ma, ar, rl, la}, k = 1 → T = 2 →
        // candidates {2, 3, 5}.
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "username",
            IndexKind::NGram(2),
        );
        for (id, name) in [
            (1i64, "james"),
            (2, "mary"),
            (3, "mario"),
            (4, "jamie"),
            (5, "maria"),
        ] {
            idx.insert(&record! {"id" => id, "username" => name}, &Value::Int64(id))
                .unwrap();
        }
        let query_tokens: Vec<Value> = asterix_simfn::tokenize::gram_tokens_distinct("marla", 2)
            .into_iter()
            .map(Value::String)
            .collect();
        let t = asterix_simfn::edit_distance_t_bound(query_tokens.len(), 1, 2);
        assert_eq!(t, 2);
        let candidates = idx.t_occurrence(&query_tokens, t as usize).unwrap();
        assert_eq!(
            candidates,
            vec![Value::Int64(2), Value::Int64(3), Value::Int64(5)]
        );
    }

    /// The rank-array path must return exactly the scalar candidates (same
    /// order), across mutations and on both adaptive branches.
    #[test]
    fn t_occurrence_ranked_equals_scalar() {
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "username",
            IndexKind::NGram(2),
        );
        for (id, name) in [
            (1i64, "james"),
            (2, "mary"),
            (3, "mario"),
            (4, "jamie"),
            (5, "maria"),
        ] {
            idx.insert(&record! {"id" => id, "username" => name}, &Value::Int64(id))
                .unwrap();
        }
        let query_tokens: Vec<Value> = asterix_simfn::tokenize::gram_tokens_distinct("marla", 2)
            .into_iter()
            .map(Value::String)
            .collect();
        for t in 1..=3usize {
            assert_eq!(
                idx.t_occurrence_ranked(&query_tokens, t).unwrap(),
                idx.t_occurrence(&query_tokens, t).unwrap(),
                "t={t}"
            );
        }
        // Mutate: every probed token's rank array is dropped and rebuilt.
        idx.insert(
            &record! {"id" => 9i64, "username" => "marla"},
            &Value::Int64(9),
        )
        .unwrap();
        assert_eq!(
            idx.t_occurrence_ranked(&query_tokens, 2).unwrap(),
            idx.t_occurrence(&query_tokens, 2).unwrap()
        );
        let ranked = idx.t_occurrence_ranked(&query_tokens, 2).unwrap();
        assert!(ranked.contains(&Value::Int64(9)));
    }

    /// Skewed lists trigger the DivideSkip branch (some list >= 64 long);
    /// the bitset-probed rank merge must match the scalar DivideSkip,
    /// including candidate order.
    #[test]
    fn t_occurrence_ranked_divide_skip_branch_equals_scalar() {
        let mut idx =
            InvertedIndex::new(cache(), StorageConfig::tiny(), "summary", IndexKind::Keyword);
        for id in 0..100i64 {
            // "common" appears everywhere (list length 100 >= 64); rarer
            // tokens on a few records each.
            let text = format!("common rare{} rare{}", id % 7, id % 3);
            idx.insert(&record! {"id" => id, "summary" => text.as_str()}, &Value::Int64(id))
                .unwrap();
        }
        let tokens = [
            Value::from("common"),
            Value::from("rare2"),
            Value::from("rare1"),
        ];
        for t in 2..=3usize {
            assert_eq!(
                idx.t_occurrence_ranked(&tokens, t).unwrap(),
                idx.t_occurrence(&tokens, t).unwrap(),
                "t={t}"
            );
        }
        // Repeat probes are served from the cached rank arrays/bitsets and
        // still agree.
        assert_eq!(
            idx.t_occurrence_ranked(&tokens, 2).unwrap(),
            idx.t_occurrence(&tokens, 2).unwrap()
        );
    }

    #[test]
    fn keyword_on_list_field() {
        let mut idx =
            InvertedIndex::new(cache(), StorageConfig::tiny(), "tags", IndexKind::Keyword);
        let rec = Value::record(vec![
            ("id".into(), Value::Int64(1)),
            (
                "tags".into(),
                Value::OrderedList(vec![Value::from("b"), Value::from("a"), Value::from("b")]),
            ),
        ]);
        idx.insert(&rec, &Value::Int64(1)).unwrap();
        assert_eq!(
            &*idx.postings_shared(&Value::from("a")).unwrap(),
            vec![Value::Int64(1)]
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("b")).unwrap(),
            vec![Value::Int64(1)]
        );
        // Duplicates collapsed: 2 distinct tokens total.
        assert_eq!(idx.entry_count().unwrap(), 2);
    }

    #[test]
    fn delete_removes_postings() {
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "summary",
            IndexKind::Keyword,
        );
        let rec = record! {"id" => 1i64, "summary" => "hello world"};
        idx.insert(&rec, &Value::Int64(1)).unwrap();
        idx.delete(&rec, &Value::Int64(1)).unwrap();
        assert_eq!(
            &*idx.postings_shared(&Value::from("hello")).unwrap(),
            Vec::<Value>::new()
        );
    }

    #[test]
    #[should_panic]
    fn inverted_rejects_btree_kind() {
        InvertedIndex::new(cache(), StorageConfig::tiny(), "f", IndexKind::BTree);
    }

    fn keyword_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new(
            cache(),
            StorageConfig::tiny(),
            "summary",
            IndexKind::Keyword,
        );
        for (id, text) in [
            (1i64, "great product value"),
            (2, "great gift"),
            (3, "awful product"),
        ] {
            idx.insert(&record! {"id" => id, "summary" => text}, &Value::Int64(id))
                .unwrap();
        }
        idx
    }

    #[test]
    fn postings_cache_hit_returns_same_list() {
        let idx = keyword_index();
        let counters = crate::QueryCounters::handle();
        let _scope = counters.enter();
        let first = idx.postings_shared(&Value::from("great")).unwrap();
        let second = idx.postings_shared(&Value::from("great")).unwrap();
        assert_eq!(first, second);
        // The second probe is a hit on the very Arc installed by the first.
        assert!(Arc::ptr_eq(&first, &second));
        let p = counters.snapshot();
        assert_eq!(p.postings_cache_misses, 1);
        assert_eq!(p.postings_cache_hits, 1);
        // Elements are counted once: the hit re-read nothing.
        assert_eq!(p.inverted_elements_read, 2);
    }

    #[test]
    fn postings_cache_invalidated_by_insert() {
        let mut idx = keyword_index();
        assert_eq!(
            &*idx.postings_shared(&Value::from("great")).unwrap(),
            vec![Value::Int64(1), Value::Int64(2)]
        );
        idx.insert(
            &record! {"id" => 4i64, "summary" => "great stuff"},
            &Value::Int64(4),
        )
        .unwrap();
        assert_eq!(
            &*idx.postings_shared(&Value::from("great")).unwrap(),
            vec![Value::Int64(1), Value::Int64(2), Value::Int64(4)]
        );
    }

    #[test]
    fn postings_cache_invalidated_by_delete() {
        let mut idx = keyword_index();
        assert_eq!(
            &*idx.postings_shared(&Value::from("product")).unwrap(),
            vec![Value::Int64(1), Value::Int64(3)]
        );
        idx.delete(
            &record! {"id" => 1i64, "summary" => "great product value"},
            &Value::Int64(1),
        )
        .unwrap();
        assert_eq!(
            &*idx.postings_shared(&Value::from("product")).unwrap(),
            vec![Value::Int64(3)]
        );
    }

    /// Flush and merge move postings between components but change no
    /// logical posting list: a warm entry stays a hit and nothing is
    /// re-read. Writes in between still drop exactly what they touch.
    #[test]
    fn postings_cache_survives_flush_and_merge() {
        let mut idx = keyword_index();
        let gift = idx.postings_shared(&Value::from("gift")).unwrap();
        let product = idx.postings_shared(&Value::from("product")).unwrap();
        assert_eq!(&*gift, &[Value::Int64(2)]);
        idx.flush().unwrap();
        {
            let counters = crate::QueryCounters::handle();
            let _scope = counters.enter();
            let again = idx.postings_shared(&Value::from("gift")).unwrap();
            assert!(Arc::ptr_eq(&gift, &again));
            let p = counters.snapshot();
            assert_eq!((p.postings_cache_hits, p.postings_cache_misses), (1, 0));
            assert_eq!(p.inverted_elements_read, 0);
        }
        // Delete + flush + merge: the tombstone disappears; the deleted
        // record's tokens were dropped by the delete, "product" was not
        // touched and is still the same list.
        idx.delete(&record! {"id" => 2i64, "summary" => "great gift"}, &Value::Int64(2))
            .unwrap();
        idx.flush().unwrap();
        idx.tree.merge_all().unwrap();
        let counters = crate::QueryCounters::handle();
        let _scope = counters.enter();
        assert!(Arc::ptr_eq(
            &product,
            &idx.postings_shared(&Value::from("product")).unwrap()
        ));
        assert_eq!(counters.snapshot().inverted_elements_read, 0);
        assert_eq!(
            &*idx.postings_shared(&Value::from("gift")).unwrap(),
            Vec::<Value>::new()
        );
        assert_eq!(
            &*idx.postings_shared(&Value::from("great")).unwrap(),
            vec![Value::Int64(1)]
        );
    }

    /// The rank dictionary only grows under probes and inserts; a delete,
    /// the one write that can retire a pk, starts it over — while the
    /// `Value` lists of untouched tokens stay cached.
    #[test]
    fn delete_resets_the_rank_dictionary() {
        let mut idx = keyword_index();
        let tokens = [Value::from("great"), Value::from("product")];
        idx.t_occurrence_ranked(&tokens, 1).unwrap();
        idx.insert(
            &record! {"id" => 4i64, "summary" => "awful gift"},
            &Value::Int64(4),
        )
        .unwrap();
        assert_eq!(idx.postings_cache.inner.get_mut().pk_by_rank.len(), 3);
        idx.delete(&record! {"id" => 2i64, "summary" => "great gift"}, &Value::Int64(2))
            .unwrap();
        let cache = idx.postings_cache.inner.get_mut();
        assert!(cache.pk_by_rank.is_empty() && cache.rank_of.is_empty());
        assert!(cache.ranks.is_empty() && cache.bitsets.is_empty());
        assert!(cache.map.contains_key(&Value::from("product")));
        assert_eq!(
            idx.t_occurrence_ranked(&tokens, 1).unwrap(),
            vec![Value::Int64(1), Value::Int64(3)]
        );
    }

    /// An insert drops the lists of its own tokens and no other: the
    /// untouched token is a hit on the very `Arc` cached before the write.
    #[test]
    fn insert_invalidates_only_the_tokens_it_touches() {
        let mut idx = keyword_index();
        let great = idx.postings_shared(&Value::from("great")).unwrap();
        let product = idx.postings_shared(&Value::from("product")).unwrap();
        idx.insert(
            &record! {"id" => 4i64, "summary" => "great stuff"},
            &Value::Int64(4),
        )
        .unwrap();
        let counters = crate::QueryCounters::handle();
        let _scope = counters.enter();
        assert!(Arc::ptr_eq(
            &product,
            &idx.postings_shared(&Value::from("product")).unwrap()
        ));
        let reread = idx.postings_shared(&Value::from("great")).unwrap();
        assert!(!Arc::ptr_eq(&great, &reread));
        assert_eq!(
            &*reread,
            &[Value::Int64(1), Value::Int64(2), Value::Int64(4)]
        );
        let p = counters.snapshot();
        assert_eq!((p.postings_cache_hits, p.postings_cache_misses), (1, 1));
    }

    #[test]
    fn postings_cache_eviction_keeps_answers_correct() {
        let mut config = StorageConfig::tiny();
        config.postings_cache_entries = 2;
        let mut idx = InvertedIndex::new(cache(), config, "summary", IndexKind::Keyword);
        for id in 0..8i64 {
            idx.insert(
                &record! {"id" => id, "summary" => format!("tok{id} shared")},
                &Value::Int64(id),
            )
            .unwrap();
        }
        // Probe more distinct tokens than the capacity, twice over.
        for _ in 0..2 {
            for id in 0..8i64 {
                assert_eq!(
                    &*idx
                        .postings_shared(&Value::from(format!("tok{id}")))
                        .unwrap(),
                    vec![Value::Int64(id)]
                );
            }
        }
        let shared = idx.postings_shared(&Value::from("shared")).unwrap();
        assert_eq!(shared.len(), 8);
    }

    #[test]
    fn postings_cache_disabled_at_zero_capacity() {
        let mut config = StorageConfig::tiny();
        config.postings_cache_entries = 0;
        let mut idx = InvertedIndex::new(cache(), config, "summary", IndexKind::Keyword);
        idx.insert(
            &record! {"id" => 1i64, "summary" => "hello world"},
            &Value::Int64(1),
        )
        .unwrap();
        let counters = crate::QueryCounters::handle();
        let _scope = counters.enter();
        for _ in 0..3 {
            assert_eq!(
                &*idx.postings_shared(&Value::from("hello")).unwrap(),
                vec![Value::Int64(1)]
            );
        }
        let p = counters.snapshot();
        assert_eq!(p.postings_cache_hits, 0);
        assert_eq!(p.postings_cache_misses, 0);
        // Every probe re-reads the single-element list.
        assert_eq!(p.inverted_elements_read, 3);
    }

    const VOCABULARY: [&str; 6] = ["common", "a1", "b2", "c3", "d4", "e5"];

    /// The vocabulary words whose bit is set in `mask`.
    fn words(mask: u8) -> Vec<&'static str> {
        VOCABULARY
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, w)| *w)
            .collect()
    }

    fn summary_record(pk: i64, text: &str) -> Value {
        record! {"id" => pk, "summary" => text}
    }

    /// One index with a postings cache of `capacity` tokens plus the live
    /// `pk → summary` map a caller of insert/delete has to keep (the
    /// partition store's job outside this test).
    struct Modelled {
        idx: InvertedIndex,
        live: std::collections::BTreeMap<i64, String>,
    }

    impl Modelled {
        fn new(capacity: usize) -> Self {
            let mut config = StorageConfig::tiny();
            config.postings_cache_entries = capacity;
            Modelled {
                idx: InvertedIndex::new(cache(), config, "summary", IndexKind::Keyword),
                live: Default::default(),
            }
        }

        fn remove(&mut self, pk: i64) {
            if let Some(old) = self.live.remove(&pk) {
                self.idx
                    .delete(&summary_record(pk, &old), &Value::Int64(pk))
                    .unwrap();
            }
        }

        fn upsert(&mut self, pk: i64, text: &str) {
            self.remove(pk);
            self.idx
                .insert(&summary_record(pk, text), &Value::Int64(pk))
                .unwrap();
            self.live.insert(pk, text.to_string());
        }

        fn apply(&mut self, op: u8, pk: i64, mask: u8) {
            match op {
                0 | 1 => self.upsert(pk, &words(mask).join(" ")),
                2 => self.remove(pk),
                3 => self.idx.flush().unwrap(),
                4 => self.idx.tree.merge_all().unwrap(),
                // Recovery swapping the tree for another: here, an empty
                // one. Rare, so most histories keep their long lists.
                _ if pk % 8 == 0 => {
                    self.idx.flush().unwrap();
                    self.idx.restore_components(Vec::new());
                    self.live.clear();
                }
                _ => {}
            }
        }
    }

    proptest::proptest! {
        /// Whatever mix of inserts, overwrites, deletes, flushes, merges and
        /// component restores an index has seen, and whatever it cached at
        /// whichever point, every read equals the same read on an index
        /// without a cache that saw the same history.
        #[test]
        fn cached_reads_equal_uncached_reads(
            capacity in proptest::sample::select(vec![2usize, 64]),
            ops in proptest::collection::vec((0u8..9, 0i64..40, 0u8..64), 1..150),
        ) {
            let mut cached = Modelled::new(capacity);
            let mut plain = Modelled::new(0);
            // "common" starts past the DivideSkip threshold, so probes
            // with t > 1 run the bitset branch too.
            for pk in 100..170i64 {
                for m in [&mut cached, &mut plain] {
                    m.upsert(pk, &format!("common x{pk}"));
                }
            }
            for (op, pk, mask) in ops {
                if op < 6 {
                    cached.apply(op, pk, mask);
                    plain.apply(op, pk, mask);
                    continue;
                }
                let tokens: Vec<Value> = words(mask | 1).into_iter().map(Value::from).collect();
                for token in &tokens {
                    proptest::prop_assert_eq!(
                        cached.idx.postings_shared(token).unwrap(),
                        plain.idx.postings_shared(token).unwrap()
                    );
                }
                for t in 1..=tokens.len() {
                    let expected = plain.idx.t_occurrence(&tokens, t).unwrap();
                    proptest::prop_assert_eq!(cached.idx.t_occurrence(&tokens, t).unwrap(), expected.clone());
                    proptest::prop_assert_eq!(cached.idx.t_occurrence_ranked(&tokens, t).unwrap(), expected);
                }
            }
        }
    }
}
