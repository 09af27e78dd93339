//! The T-occurrence problem (§2.2): given the inverted lists of a query's
//! tokens, find the record ids appearing on at least `T` lists.
//!
//! The lower bounds:
//!
//! * edit distance `k` with gram length `n`: a string within distance `k` of
//!   the query must share `T = |G(q)| - k·n` grams ([17] in the paper). If
//!   `T <= 0` the query is a *corner case* and the whole dataset must be
//!   scanned (§2.2, §5.1.1).
//! * Jaccard `δ`: a record similar to a query with `|q|` distinct tokens
//!   must share `T = ceil(δ·|q|)` tokens (since `|r ∪ q| >= |q|`). Jaccard
//!   has no corner case for `δ > 0` (§5.1.1).
//!
//! The merge algorithms:
//!
//! * [`t_occurrence_scan_count`] — ScanCount: one hash-count pass over all
//!   lists,
//! * [`t_occurrence_divide_skip`] — DivideSkip ([20]): skips the longest
//!   lists during the merge and verifies survivors by binary search,
//! * [`t_occurrence_intersect`] — the `T = |q|` case as a galloping list
//!   intersection.
//!
//! A k-way heap merge over sorted lists is kept in this module's tests
//! as the reference the other algorithms' proptests compare against.

use std::collections::HashMap;
use std::hash::Hash;

/// `T = |G(q)| - k·n` for edit-distance queries; may be zero or negative
/// (the corner case).
pub fn edit_distance_t_bound(num_grams: usize, k: u32, n: usize) -> i64 {
    num_grams as i64 - (k as i64) * (n as i64)
}

/// `T = ceil(δ·|q|)` for Jaccard queries, at least 1 for `δ > 0` and a
/// non-empty token set.
///
/// An *empty* query token set is a corner case (returns 0): `J(∅, ∅) = 1`,
/// so records with empty token sets still match any `δ <= 1`, yet there are
/// no query tokens to probe the inverted index with — the plan must fall
/// back to a scan, exactly like the edit-distance `T <= 0` corner case.
pub fn jaccard_t_bound(num_tokens: usize, delta: f64) -> i64 {
    if delta <= 0.0 || num_tokens == 0 {
        return 0;
    }
    ((delta * num_tokens as f64 - 1e-9).ceil() as i64).max(1)
}

/// ScanCount: count occurrences across all lists with a hash map, then
/// keep ids reaching `t`. Lists need not be sorted. `t` must be >= 1
/// (corner cases are handled by the plan, not here).
///
/// Candidates are returned in *first-encounter order* over the inverted
/// lists — the arrival order a real list merge produces, and the reason
/// the paper's index plans sort primary keys before the primary-index
/// search (§4.1.1).
pub fn t_occurrence_scan_count<I: Eq + Hash + Clone>(lists: &[&[I]], t: usize) -> Vec<I> {
    assert!(t >= 1, "corner case (T <= 0) must be handled by a scan plan");
    let mut counts: HashMap<&I, usize> = HashMap::new();
    let mut order: Vec<&I> = Vec::new();
    for list in lists {
        for id in *list {
            let c = counts.entry(id).or_insert(0);
            if *c == 0 {
                order.push(id);
            }
            *c += 1;
        }
    }
    order
        .into_iter()
        .filter(|id| counts[id] >= t)
        .cloned()
        .collect()
}

/// Reusable count table for [`t_occurrence_ranks`]: one dense `u32` slot
/// per rank, grown to the universe size on first use and reset by walking
/// only the touched slots, so steady-state probes allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct RankCountScratch {
    counts: Vec<u32>,
}

impl RankCountScratch {
    /// Empty scratch; the count table grows to the universe on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// ScanCount over dense-rank postings — the vectorized form of
/// [`t_occurrence_scan_count`] used once record ids have been interned to
/// ranks `0..universe`: counting is a dense-array increment instead of a
/// hash-map probe, and candidates come back in the same first-encounter
/// order as the scalar kernel. Every rank in `lists` must be `< universe`.
pub fn t_occurrence_ranks(
    lists: &[&[u32]],
    t: usize,
    universe: usize,
    scratch: &mut RankCountScratch,
) -> Vec<u32> {
    assert!(t >= 1, "corner case (T <= 0) must be handled by a scan plan");
    if scratch.counts.len() < universe {
        scratch.counts.resize(universe, 0);
    }
    let counts = &mut scratch.counts;
    let mut order: Vec<u32> = Vec::new();
    for list in lists {
        for &r in *list {
            let c = &mut counts[r as usize];
            if *c == 0 {
                order.push(r);
            }
            *c += 1;
        }
    }
    let mut out = Vec::new();
    for &r in &order {
        if counts[r as usize] as usize >= t {
            out.push(r);
        }
        counts[r as usize] = 0; // reset only the touched slots
    }
    out
}

/// Work counters reported by [`t_occurrence_divide_skip_with_stats`]:
/// how many lists were set aside as "long" and how many binary-search
/// probes into them the merge performed. The probe count is the metric the
/// DivideSkip heuristic minimises on skewed data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DivideSkipStats {
    /// Number of long lists set aside (the heuristic's `L`).
    pub long_lists: usize,
    /// Total binary-search probes issued against long lists.
    pub long_list_probes: u64,
    /// Total elements read from the short lists during the count pass.
    pub short_list_elements: u64,
}

/// The [20] heuristic's μ: the cost ratio between one binary-search probe
/// and reading one short-list element. Li, Lu & Lu treat μ as a
/// machine-dependent constant tuned per engine; this value keeps the
/// reduced threshold `t - L` comfortably above 1 on skewed lists, which is
/// where the probe savings come from.
const DIVIDE_SKIP_MU: f64 = 0.05;

/// Lists whose longest member is below this length gain nothing from
/// skipping, so the simple `L = t - 1` rule is used instead of the [20]
/// formula (which degenerates towards `L ≈ t` for small `ln M`).
const DIVIDE_SKIP_TINY_M: usize = 64;

/// Choose how many long lists DivideSkip sets aside: the paper's [20]
/// heuristic `L = T / (μ·ln(M) + 1)` where `M` is the longest list length,
/// falling back to the simple `L = t - 1` rule for tiny inputs. `L` is
/// always capped at `t - 1` (so the reduced threshold stays >= 1) and at
/// `lists - 1` (at least one short list must remain).
///
/// Public so the rank-array path ([`t_occurrence_divide_skip_ranks`]) can
/// reproduce exactly the split the scalar path would make.
pub fn divide_skip_choose_l(t: usize, num_lists: usize, max_len: usize) -> usize {
    let cap = (t - 1).min(num_lists.saturating_sub(1));
    if max_len < DIVIDE_SKIP_TINY_M {
        return cap;
    }
    let l = (t as f64 / (DIVIDE_SKIP_MU * (max_len as f64).ln() + 1.0)) as usize;
    l.min(cap)
}

/// DivideSkip (Li, Lu, Lu — "Efficient Merging and Filtering Algorithms
/// for Approximate String Searches", the paper's [20]): split the inverted
/// lists into the `L` longest lists and the rest; count-merge only the
/// short lists with the reduced threshold `t - L`, then verify each
/// survivor against the long lists with binary searches. Skipping the
/// long, frequent-token lists is what makes merges on skewed (Zipfian)
/// data fast.
///
/// `L` is chosen by the [20] heuristic `L = T / (μ·ln(M) + 1)` (`M` = the
/// longest list length, `μ` = [`DIVIDE_SKIP_MU`]); for tiny inputs
/// (`M <` [`DIVIDE_SKIP_TINY_M`]) the simple `L = t - 1` rule is used.
/// A smaller `L` keeps the reduced threshold `t - L` high, so far fewer
/// short-list survivors reach the binary-probe phase.
///
/// Requires sorted lists. `t >= 1`.
pub fn t_occurrence_divide_skip<I: Ord + Clone + Hash>(lists: &[&[I]], t: usize) -> Vec<I> {
    t_occurrence_divide_skip_with_stats(lists, t).0
}

/// [`t_occurrence_divide_skip`] plus [`DivideSkipStats`] work counters,
/// used by the probe-count regression tests and the query profile.
pub fn t_occurrence_divide_skip_with_stats<I: Ord + Clone + Hash>(
    lists: &[&[I]],
    t: usize,
) -> (Vec<I>, DivideSkipStats) {
    assert!(t >= 1, "corner case (T <= 0) must be handled by a scan plan");
    if lists.is_empty() {
        return (Vec::new(), DivideSkipStats::default());
    }
    let max_len = lists.iter().map(|l| l.len()).max().unwrap_or(0);
    let l = divide_skip_choose_l(t, lists.len(), max_len);
    divide_skip_with_l(lists, t, l)
}

/// DivideSkip with an explicit number of long lists `l` — the engine the
/// public entry points share; also exercised directly by the regression
/// test comparing the [20] heuristic against the old `L = t - 1` rule.
fn divide_skip_with_l<I: Ord + Clone + Hash>(
    lists: &[&[I]],
    t: usize,
    l: usize,
) -> (Vec<I>, DivideSkipStats) {
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|i| std::cmp::Reverse(lists[*i].len()));
    let (long_idx, short_idx) = order.split_at(l);
    let short: Vec<&[I]> = short_idx.iter().map(|i| lists[*i]).collect();
    let reduced_t = t - l;
    let mut stats = DivideSkipStats {
        long_lists: l,
        ..DivideSkipStats::default()
    };
    // Merge the short lists with the reduced threshold, keeping counts.
    let mut counts: HashMap<&I, usize> = HashMap::new();
    let mut encounter: Vec<&I> = Vec::new();
    for list in &short {
        stats.short_list_elements += list.len() as u64;
        for id in *list {
            let c = counts.entry(id).or_insert(0);
            if *c == 0 {
                encounter.push(id);
            }
            *c += 1;
        }
    }
    let mut out = Vec::new();
    for id in encounter {
        let mut c = counts[id];
        if c < reduced_t {
            continue;
        }
        // Probe the long lists by binary search; stop as soon as even
        // matching every remaining long list cannot reach t.
        for (probed, li) in long_idx.iter().enumerate() {
            if c + (long_idx.len() - probed) < t {
                break;
            }
            stats.long_list_probes += 1;
            if lists[*li].binary_search(id).is_ok() {
                c += 1;
            }
        }
        if c >= t {
            out.push(id.clone());
        }
    }
    (out, stats)
}

/// Pairwise length ratio above which [`t_occurrence_intersect`] switches
/// from a linear merge to galloping (exponential + binary) probes into the
/// longer list. Matches the skew cutoff used by the Jaccard verify kernel:
/// below it the merge's branch-predictable linear scan wins; above it the
/// `O(small · log(large/small))` gallop does.
pub const GALLOP_SKEW_RATIO: usize = 8;

/// Reusable scratch arena for [`t_occurrence_intersect`]: two ping-pong
/// buffers for intermediate intersections (only touched with 3+ lists) and
/// a cumulative counter of galloping probes issued, which feeds the
/// `gallop_probes` query-profile counter. One instance per operator open;
/// steady-state probes allocate nothing beyond the final result.
#[derive(Debug, Clone)]
pub struct IntersectScratch<T> {
    ping: Vec<T>,
    pong: Vec<T>,
    gallop_probes: u64,
}

impl<T> Default for IntersectScratch<T> {
    fn default() -> Self {
        Self { ping: Vec::new(), pong: Vec::new(), gallop_probes: 0 }
    }
}

impl<T> IntersectScratch<T> {
    /// Empty scratch; buffers grow to the smallest-list size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total galloping searches issued through this scratch (cumulative).
    pub fn gallop_probes(&self) -> u64 {
        self.gallop_probes
    }
}

/// Index of the first element in sorted `s` that is `>= x` — galloping
/// (doubling) search: `O(log d)` where `d` is the distance to the answer,
/// so walking two lists in lockstep costs `O(small · log(large/small))`.
fn gallop_lower_bound_by<T: Ord>(s: &[T], x: &T) -> usize {
    let mut hi = 1usize;
    while hi < s.len() && s[hi - 1] < *x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|v| v < x)
}

/// Intersect sorted `a` (the smaller side) with sorted `b` into `out`,
/// picking linear merge or gallop by the length ratio.
fn intersect_pair_into<T: Ord + Clone>(a: &[T], b: &[T], out: &mut Vec<T>, probes: &mut u64) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    debug_assert!(a.len() <= b.len());
    if b.len() / a.len() >= GALLOP_SKEW_RATIO {
        // Skewed: gallop into the long list, resuming where the previous
        // probe left off (both lists are sorted, so probes only move right).
        let mut base = 0usize;
        for x in a {
            base += gallop_lower_bound_by(&b[base..], x);
            *probes += 1;
            if base >= b.len() {
                break;
            }
            if b[base] == *x {
                out.push(x.clone());
                base += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// T-occurrence in the full-intersection regime: when `T` equals the number
/// of lists, a candidate must appear on *every* list, so the count-merge
/// collapses to a plain set intersection over the sorted inverted lists.
/// This is the common shape for high Jaccard thresholds — `ceil(δ·|q|) ==
/// |q|` whenever `|q| <= 1/(1-δ)` (e.g. every probe with at most 4 tokens
/// at δ = 0.8) — and it needs no count table, no interning, and no pass
/// over any list but the smallest.
///
/// Lists must be sorted and duplicate-free. The intersection proceeds from
/// the smallest list outward (each intermediate result only shrinks) with
/// an adaptive pairwise kernel: linear merge for comparable lengths,
/// galloping probes (counted in the scratch) when the ratio reaches
/// [`GALLOP_SKEW_RATIO`], and an immediate empty return the moment an
/// intermediate intersection drains. Output is ascending — identical to
/// ScanCount's first-encounter order in this regime, because every
/// survivor appears on the first (sorted) list.
pub fn t_occurrence_intersect<T: Ord + Clone>(
    lists: &[&[T]],
    scratch: &mut IntersectScratch<T>,
) -> Vec<T> {
    debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
    match lists.len() {
        0 => return Vec::new(),
        1 => return lists[0].to_vec(),
        _ => {}
    }
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|i| lists[*i].len());
    if lists[order[0]].is_empty() {
        return Vec::new();
    }
    let last = *order.last().expect("len >= 2");
    let IntersectScratch { ping, pong, gallop_probes } = scratch;
    if lists.len() == 2 {
        // Two lists — the common probe shape — never touch the scratch
        // buffers: intersect straight into the result.
        let mut out = Vec::with_capacity(lists[order[0]].len());
        intersect_pair_into(lists[order[0]], lists[last], &mut out, gallop_probes);
        return out;
    }
    // Intermediates ping-pong through the scratch; the final pair writes
    // straight into the result.
    intersect_pair_into(lists[order[0]], lists[order[1]], ping, gallop_probes);
    for &li in &order[2..order.len() - 1] {
        if ping.is_empty() {
            return Vec::new();
        }
        intersect_pair_into(ping, lists[li], pong, gallop_probes);
        std::mem::swap(ping, pong);
    }
    if ping.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(ping.len());
    intersect_pair_into(ping, lists[last], &mut out, gallop_probes);
    out
}

/// DivideSkip over dense-rank postings — the vectorized form of
/// [`t_occurrence_divide_skip`]: the caller has already split the lists
/// into `short` rank arrays and `long` lists represented as
/// [`TokenBitset`]s (ordered longest-first, as the scalar split produces).
/// Shorts are count-merged through the dense scratch with the reduced
/// threshold `t - |long|`; survivors are verified by O(1) bitset membership
/// instead of binary searches. With the same split, the candidate set and
/// the first-encounter output order match the scalar algorithm exactly
/// (inclusion is order-independent: the early probe cutoff only fires when
/// even matching every remaining long list cannot reach `t`).
pub fn t_occurrence_divide_skip_ranks(
    short: &[&[u32]],
    long: &[&crate::jaccard::TokenBitset],
    t: usize,
    universe: usize,
    scratch: &mut RankCountScratch,
) -> Vec<u32> {
    assert!(t >= 1, "corner case (T <= 0) must be handled by a scan plan");
    let l = long.len();
    let reduced_t = t.saturating_sub(l).max(1);
    if scratch.counts.len() < universe {
        scratch.counts.resize(universe, 0);
    }
    let counts = &mut scratch.counts;
    let mut order: Vec<u32> = Vec::new();
    for list in short {
        for &r in *list {
            let c = &mut counts[r as usize];
            if *c == 0 {
                order.push(r);
            }
            *c += 1;
        }
    }
    let mut out = Vec::new();
    for &r in &order {
        let mut c = counts[r as usize] as usize;
        counts[r as usize] = 0; // reset only the touched slots
        if c < reduced_t {
            continue;
        }
        for (probed, bs) in long.iter().enumerate() {
            if c + (l - probed) < t {
                break;
            }
            if bs.contains(r) {
                c += 1;
            }
        }
        if c >= t {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Heap-based merge for *sorted* inverted lists: pops equal ids together and
    /// emits those reaching `t`. The engine never calls it; it is the
    /// reference the ScanCount and DivideSkip proptests compare against.
    pub fn t_occurrence_heap<I: Ord + Clone>(lists: &[&[I]], t: usize) -> Vec<I> {
        assert!(t >= 1, "corner case (T <= 0) must be handled by a scan plan");
        debug_assert!(lists
            .iter()
            .all(|l| l.windows(2).all(|w| w[0] <= w[1])));
        let mut heap: BinaryHeap<Reverse<(&I, usize, usize)>> = BinaryHeap::new();
        for (li, list) in lists.iter().enumerate() {
            if let Some(first) = list.first() {
                heap.push(Reverse((first, li, 0)));
            }
        }
        let mut out = Vec::new();
        while let Some(Reverse((id, li, pos))) = heap.pop() {
            let mut count = 1;
            advance(&mut heap, lists, li, pos);
            while let Some(Reverse((id2, li2, pos2))) = heap.peek().copied() {
                if id2 != id {
                    break;
                }
                heap.pop();
                count += 1;
                advance(&mut heap, lists, li2, pos2);
            }
            if count >= t {
                out.push(id.clone());
            }
        }
        out
    }

    fn advance<'a, I: Ord>(
        heap: &mut BinaryHeap<Reverse<(&'a I, usize, usize)>>,
        lists: &[&'a [I]],
        li: usize,
        pos: usize,
    ) {
        if let Some(next) = lists[li].get(pos + 1) {
            heap.push(Reverse((next, li, pos + 1)));
        }
    }

    #[test]
    fn paper_example_marla() {
        // Fig 3: query "marla", grams {ma, ar, rl, la}; lists of "ma" and
        // "ar" are [2,3,5]; "rl" and "la" empty. T = 4 - 2*1 = 2.
        let ma = [2i64, 3, 5];
        let ar = [2i64, 3, 5];
        let lists: Vec<&[i64]> = vec![&ma, &ar];
        let t = edit_distance_t_bound(4, 1, 2);
        assert_eq!(t, 2);
        let cands = t_occurrence_scan_count(&lists, t as usize);
        assert_eq!(cands, vec![2, 3, 5]); // first-encounter order
    }

    #[test]
    fn corner_case_bound() {
        // Fig 3 discussion: threshold 3 gives T = 4 - 2*3 = -2.
        assert_eq!(edit_distance_t_bound(4, 3, 2), -2);
        assert!(edit_distance_t_bound(4, 2, 2) == 0);
    }

    #[test]
    fn jaccard_bound() {
        assert_eq!(jaccard_t_bound(4, 0.5), 2);
        assert_eq!(jaccard_t_bound(3, 0.5), 2); // ceil(1.5)
        assert_eq!(jaccard_t_bound(10, 0.2), 2);
        assert_eq!(jaccard_t_bound(1, 0.1), 1); // at least one shared token
        assert_eq!(jaccard_t_bound(5, 0.0), 0);
        // Empty token set: J(∅, ∅) = 1 means empty-token records still
        // match, but there is nothing to probe — corner case, scan plan.
        assert_eq!(jaccard_t_bound(0, 0.5), 0);
        assert_eq!(jaccard_t_bound(0, 1.0), 0);
    }

    #[test]
    fn scan_count_thresholding() {
        let l1 = [1, 2, 3];
        let l2 = [2, 3];
        let l3 = [3];
        let lists: Vec<&[i32]> = vec![&l1, &l2, &l3];
        assert_eq!(t_occurrence_scan_count(&lists, 1), vec![1, 2, 3]);
        assert_eq!(t_occurrence_scan_count(&lists, 2), vec![2, 3]);
        assert_eq!(t_occurrence_scan_count(&lists, 3), vec![3]);
        assert_eq!(t_occurrence_scan_count(&lists, 4), Vec::<i32>::new());
    }

    #[test]
    fn heap_empty_lists() {
        let lists: Vec<&[i32]> = vec![&[], &[]];
        assert_eq!(t_occurrence_heap(&lists, 1), Vec::<i32>::new());
    }

    #[test]
    #[should_panic]
    fn zero_t_panics() {
        let l: Vec<&[i32]> = vec![];
        t_occurrence_scan_count(&l, 0);
    }

    #[test]
    fn divide_skip_basic() {
        let l1 = [1, 2, 3];
        let l2 = [2, 3];
        let l3 = [3];
        let lists: Vec<&[i32]> = vec![&l1, &l2, &l3];
        for t in 1..=4 {
            let mut a = t_occurrence_divide_skip(&lists, t);
            a.sort();
            let b = t_occurrence_heap(&lists, t);
            assert_eq!(a, b, "t={t}");
        }
    }

    #[test]
    fn divide_skip_skewed_lists() {
        // One very long list (a frequent token) plus short ones.
        let long: Vec<i64> = (0..10_000).collect();
        let s1 = [5i64, 100, 9_999];
        let s2 = [5i64, 9_999];
        let lists: Vec<&[i64]> = vec![&long, &s1, &s2];
        let mut a = t_occurrence_divide_skip(&lists, 3);
        a.sort();
        assert_eq!(a, vec![5, 9_999]);
    }

    #[test]
    fn choose_l_caps_and_fallback() {
        // Tiny inputs: simple rule L = t - 1 (capped by list count).
        assert_eq!(divide_skip_choose_l(3, 5, 10), 2);
        assert_eq!(divide_skip_choose_l(5, 3, 10), 2);
        assert_eq!(divide_skip_choose_l(1, 4, 10), 0);
        // Large M: the [20] formula picks L < t - 1.
        let l = divide_skip_choose_l(8, 12, 50_000);
        assert!(l < 7, "heuristic should set aside fewer long lists, got {l}");
        assert!(l >= 1);
        // Never exceeds the caps regardless of M.
        for t in 1..20 {
            for n in 1..20 {
                let l = divide_skip_choose_l(t, n, 1_000_000);
                assert!(l < t && l < n || l == 0);
            }
        }
    }

    /// The regression test for the `L = t - 1` bug: on Zipfian lists the
    /// old rule reduces the short-list threshold to 1, so nearly every id
    /// on any short list is binary-probed against many long lists. The
    /// [20] heuristic `L = T / (μ·ln(M) + 1)` keeps the reduced threshold
    /// high and must issue strictly fewer long-list probes while returning
    /// the same answer.
    #[test]
    fn divide_skip_heuristic_fewer_probes_on_zipfian() {
        // Zipf-shaped inverted lists: list i holds the multiples of i, so
        // list lengths fall off as N/i (a frequent token's list is long).
        const N: i64 = 50_000;
        let lists_owned: Vec<Vec<i64>> =
            (1..=12i64).map(|i| (0..N).step_by(i as usize).collect()).collect();
        let lists: Vec<&[i64]> = lists_owned.iter().map(|v| v.as_slice()).collect();
        let t = 8;

        let (heur_out, heur_stats) = t_occurrence_divide_skip_with_stats(&lists, t);
        let old_l = (t - 1).min(lists.len() - 1);
        let (old_out, old_stats) = divide_skip_with_l(&lists, t, old_l);

        // Same answer as the reference heap merge.
        let expected = t_occurrence_heap(&lists, t);
        let mut h = heur_out;
        h.sort();
        let mut o = old_out;
        o.sort();
        assert_eq!(h, expected);
        assert_eq!(o, expected);
        assert!(!expected.is_empty(), "test needs a non-trivial answer");

        // The heuristic sets aside fewer long lists and probes them less.
        assert!(
            heur_stats.long_lists < old_stats.long_lists,
            "heuristic L {} should be below the old rule's {}",
            heur_stats.long_lists,
            old_stats.long_lists
        );
        assert!(
            heur_stats.long_list_probes * 2 < old_stats.long_list_probes,
            "expected at least 2x fewer probes: heuristic {} vs old {}",
            heur_stats.long_list_probes,
            old_stats.long_list_probes
        );
    }

    #[test]
    fn intersect_edge_cases() {
        let mut s = IntersectScratch::new();
        // No lists / one list / an empty list anywhere.
        assert_eq!(t_occurrence_intersect::<i32>(&[], &mut s), Vec::<i32>::new());
        assert_eq!(t_occurrence_intersect(&[&[1, 2][..]], &mut s), vec![1, 2]);
        assert_eq!(t_occurrence_intersect(&[&[1, 2][..], &[][..]], &mut s), Vec::<i32>::new());
        assert_eq!(t_occurrence_intersect(&[&[][..], &[][..], &[][..]], &mut s), Vec::<i32>::new());
        // Single-token lists.
        assert_eq!(t_occurrence_intersect(&[&[7][..], &[7][..], &[7][..]], &mut s), vec![7]);
        assert_eq!(t_occurrence_intersect(&[&[7][..], &[8][..]], &mut s), Vec::<i32>::new());
    }

    /// 1:10⁴ length skew must take the galloping path, agree with ScanCount,
    /// and issue probes proportional to the short list — not the long one.
    #[test]
    fn intersect_extreme_skew_gallops() {
        let long: Vec<i64> = (0..10_000).collect();
        let short = [0i64, 4_321, 9_999];
        let lists: Vec<&[i64]> = vec![&long, &short];
        let mut s = IntersectScratch::new();
        let got = t_occurrence_intersect(&lists, &mut s);
        assert_eq!(got, vec![0, 4_321, 9_999]);
        assert_eq!(got, t_occurrence_scan_count(&lists, 2));
        assert!(s.gallop_probes() >= 1, "skewed pair must gallop");
        assert!(
            s.gallop_probes() <= short.len() as u64,
            "probes {} should be bounded by the short list, not the long one",
            s.gallop_probes()
        );
        // Single-element probe against the same long list: one gallop.
        let one = [10_000i64]; // beyond the long list's end
        let before = s.gallop_probes();
        assert_eq!(t_occurrence_intersect(&[&long, &one], &mut s), Vec::<i64>::new());
        assert_eq!(s.gallop_probes(), before + 1);
    }

    #[test]
    fn intersect_three_way_uses_scratch_and_matches_scan_count() {
        let a: Vec<u32> = (0..1000).filter(|x| x % 2 == 0).collect();
        let b: Vec<u32> = (0..1000).filter(|x| x % 3 == 0).collect();
        let c = [0u32, 6, 12, 600, 601];
        let lists: Vec<&[u32]> = vec![&a, &b, &c];
        let mut s = IntersectScratch::new();
        let got = t_occurrence_intersect(&lists, &mut s);
        assert_eq!(got, vec![0, 6, 12, 600]);
        let mut sc = t_occurrence_scan_count(&lists, 3);
        sc.sort();
        assert_eq!(got, sc);
    }

    #[test]
    fn ranks_kernel_first_encounter_order_and_reuse() {
        let l1 = [4u32, 0, 2];
        let l2 = [2u32, 4];
        let lists: Vec<&[u32]> = vec![&l1, &l2];
        let mut scratch = RankCountScratch::new();
        assert_eq!(t_occurrence_ranks(&lists, 2, 5, &mut scratch), vec![4, 2]);
        // Scratch resets between probes: a second, different probe through
        // the same scratch is unaffected by the first.
        let l3 = [0u32, 1];
        let lists2: Vec<&[u32]> = vec![&l3, &l1];
        assert_eq!(t_occurrence_ranks(&lists2, 2, 5, &mut scratch), vec![0]);
    }

    proptest! {
        /// Vectorized ≡ scalar: the dense-rank kernel returns exactly the
        /// scalar ScanCount result, including first-encounter order.
        #[test]
        fn prop_ranks_equals_scan_count(
            lists in prop::collection::vec(prop::collection::vec(0u32..40, 0..25), 0..6),
            t in 1usize..4,
        ) {
            let refs: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();
            let mut scratch = RankCountScratch::new();
            let fast = t_occurrence_ranks(&refs, t, 40, &mut scratch);
            let slow = t_occurrence_scan_count(&refs, t);
            prop_assert_eq!(fast, slow);
        }

        /// Vectorized ≡ scalar: with the same long/short split as the
        /// scalar heuristic, the rank-array DivideSkip returns exactly the
        /// scalar result, including first-encounter output order.
        #[test]
        fn prop_divide_skip_ranks_equals_scalar(
            lists in prop::collection::vec(prop::collection::btree_set(0u32..80, 0..30), 1..7),
            t in 1usize..6,
        ) {
            let sorted: Vec<Vec<u32>> = lists.iter().map(|s| s.iter().copied().collect()).collect();
            let refs: Vec<&[u32]> = sorted.iter().map(|v| v.as_slice()).collect();
            let expected = t_occurrence_divide_skip(&refs, t);

            // Reproduce the scalar split: stable sort by descending length,
            // first L lists are long.
            let max_len = refs.iter().map(|l| l.len()).max().unwrap_or(0);
            let l = divide_skip_choose_l(t, refs.len(), max_len);
            let mut order: Vec<usize> = (0..refs.len()).collect();
            order.sort_by_key(|i| std::cmp::Reverse(refs[*i].len()));
            let (long_idx, short_idx) = order.split_at(l);
            let shorts: Vec<&[u32]> = short_idx.iter().map(|i| refs[*i]).collect();
            let bitsets: Vec<crate::jaccard::TokenBitset> = long_idx
                .iter()
                .map(|i| crate::jaccard::TokenBitset::build(refs[*i], 80))
                .collect();
            let bs_refs: Vec<&crate::jaccard::TokenBitset> = bitsets.iter().collect();
            let mut scratch = RankCountScratch::new();
            let fast = t_occurrence_divide_skip_ranks(&shorts, &bs_refs, t, 80, &mut scratch);
            prop_assert_eq!(fast, expected);
        }

        /// Gallop/merge intersection ≡ the count-based merge at `t = #lists`,
        /// including output order (ascending == first-encounter here), over
        /// list counts 1..6 and adversarial length skews (the `0..600` value
        /// domain with sizes 0..300 yields ratios from 1:1 to 1:300 and
        /// frequent empty/singleton lists).
        #[test]
        fn prop_intersect_equals_scan_count(
            lists in prop::collection::vec(prop::collection::btree_set(0u32..600, 0..300), 1..6),
        ) {
            let sorted: Vec<Vec<u32>> = lists.iter().map(|s| s.iter().copied().collect()).collect();
            let refs: Vec<&[u32]> = sorted.iter().map(|v| v.as_slice()).collect();
            let mut scratch = IntersectScratch::new();
            let fast = t_occurrence_intersect(&refs, &mut scratch);
            let slow = t_occurrence_scan_count(&refs, refs.len());
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_divide_skip_equals_heap(
            lists in prop::collection::vec(prop::collection::btree_set(0u16..60, 0..25), 1..7),
            t in 1usize..5,
        ) {
            let sorted: Vec<Vec<u16>> = lists.iter().map(|s| s.iter().copied().collect()).collect();
            let refs: Vec<&[u16]> = sorted.iter().map(|v| v.as_slice()).collect();
            let mut a = t_occurrence_divide_skip(&refs, t);
            a.sort();
            let b = t_occurrence_heap(&refs, t);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_scan_count_equals_heap(
            lists in prop::collection::vec(prop::collection::btree_set(0u16..50, 0..20), 0..6),
            t in 1usize..4,
        ) {
            let sorted: Vec<Vec<u16>> = lists.iter().map(|s| s.iter().copied().collect()).collect();
            let refs: Vec<&[u16]> = sorted.iter().map(|v| v.as_slice()).collect();
            let mut a = t_occurrence_scan_count(&refs, t);
            a.sort();
            let b = t_occurrence_heap(&refs, t);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_monotone_in_t(
            lists in prop::collection::vec(prop::collection::btree_set(0u16..30, 0..15), 0..5),
        ) {
            let sorted: Vec<Vec<u16>> = lists.iter().map(|s| s.iter().copied().collect()).collect();
            let refs: Vec<&[u16]> = sorted.iter().map(|v| v.as_slice()).collect();
            let mut prev = t_occurrence_scan_count(&refs, 1);
            for t in 2..5 {
                let cur = t_occurrence_scan_count(&refs, t);
                // result for larger t is a subset of smaller t
                prop_assert!(cur.iter().all(|x| prev.contains(x)));
                prev = cur;
            }
        }
    }
}
