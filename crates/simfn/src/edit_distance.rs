//! Edit (Levenshtein) distance on strings and on ordered lists.
//!
//! The paper (§2.1) defines edit distance as the minimum number of
//! single-character insertions, deletions, and substitutions, and extends it
//! to ordered lists (a string is an ordered list of characters). AsterixDB
//! also ships an early-terminating variant that a user can choose (§3.2);
//! here [`edit_distance_check`] is the early-terminating verifier used by
//! index post-verification and by selection/join predicates with a
//! threshold: it runs banded dynamic programming in `O((2k+1)·n)` and bails
//! out as soon as the band's minimum exceeds the threshold.
//!
//! For hot verify loops the slice entry points
//! ([`edit_distance_check_chars`], [`edit_distance_check_slices`]) accept
//! pre-decoded inputs and a caller-owned [`EdScratch`], so the probe side of
//! an index search is decoded once per query (not once per candidate) and
//! the DP buffers are allocated once per batch (not once per call).

/// Exact edit distance between two strings (by Unicode scalar values).
///
/// ```
/// use asterix_simfn::edit_distance;
/// assert_eq!(edit_distance("james", "jamie"), 2); // the paper's example
/// ```
pub fn edit_distance(a: &str, b: &str) -> u32 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    generic_edit_distance(&a, &b)
}

/// Exact edit distance between two ordered lists of comparable items, e.g.
/// the paper's `["Better","than","I","expected"]` vs
/// `["Better","than","expected"]` = 1.
pub fn list_edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> u32 {
    generic_edit_distance(a, b)
}

/// Threshold check with early termination: returns `Some(d)` with the exact
/// distance if `d <= k`, or `None` if the distance exceeds `k` (possibly
/// terminating long before the full table is filled).
pub fn edit_distance_check(a: &str, b: &str, k: u32) -> Option<u32> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    generic_edit_distance_check(&a, &b, k)
}

/// Threshold-checked edit distance on ordered lists.
pub fn list_edit_distance_check<T: PartialEq>(a: &[T], b: &[T], k: u32) -> Option<u32> {
    generic_edit_distance_check(a, b, k)
}

/// Threshold-checked edit distance over pre-decoded char buffers with
/// caller-owned scratch — the vectorized-verify entry point. Decode each
/// side with `s.chars().collect()` once, then reuse both the buffers and
/// the scratch across an entire batch of candidates.
///
/// Dispatches adaptively between the Myers bit-parallel kernel
/// ([`EdScratch::bitparallel_calls`] counts how often) and the scalar
/// banded DP: bit-parallel wins when the band `2k+1` is at least as wide
/// as one column's worth of `u64` blocks (`k >= ceil(m/64)` for the
/// shorter side of length `m`), which covers every practical
/// `edit-distance-check` shape (`k` in 1..=4, short strings); a tiny
/// threshold on a long string keeps the `O((2k+1)·n)` banded DP, which
/// touches fewer cells than the `O(ceil(m/64)·n)` word grid.
pub fn edit_distance_check_chars(a: &[char], b: &[char], k: u32, scratch: &mut EdScratch) -> Option<u32> {
    let (pat, txt) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let blocks = pat.len().div_ceil(64);
    if !pat.is_empty() && k as usize >= blocks {
        myers_check(pat, txt, k, scratch)
    } else {
        banded_check(a, b, k, scratch)
    }
}

/// [`edit_distance_check_chars`] pinned to the scalar banded DP — the
/// pre-bit-parallel behaviour. It is the oracle of the equivalence
/// proptests, which compare the two entry points, and of the verify
/// kernels compiled without bit-parallel dispatch.
pub fn edit_distance_check_chars_scalar(
    a: &[char],
    b: &[char],
    k: u32,
    scratch: &mut EdScratch,
) -> Option<u32> {
    banded_check(a, b, k, scratch)
}

/// Generic slice form of [`edit_distance_check_chars`]: threshold-checked
/// edit distance on ordered lists with caller-owned scratch.
pub fn edit_distance_check_slices<T: PartialEq>(
    a: &[T],
    b: &[T],
    k: u32,
    scratch: &mut EdScratch,
) -> Option<u32> {
    banded_check(a, b, k, scratch)
}

/// Reusable scratch for the threshold-checked kernels: two banded-DP rows
/// sized to the band width `min(2k+1, n+1)` — **not** the full `n+1` —
/// plus the bit-parallel state (pattern bitmask cache and `Pv`/`Mv`
/// vertical-delta words) and instrumentation counters. The DP-cell counter
/// is cumulative across calls and the regression tests pin it to stay
/// band-proportional; [`Self::bitparallel_calls`] counts how many checks
/// took the Myers path.
#[derive(Debug, Default, Clone)]
pub struct EdScratch {
    prev: Vec<u32>,
    cur: Vec<u32>,
    cells: u64,
    bp_calls: u64,
    /// Pattern whose `Peq` masks are currently cached, so consecutive
    /// checks against the same probe (the common verify-loop shape) skip
    /// the preprocessing pass entirely.
    bp_pat: Vec<char>,
    bp_blocks: usize,
    /// `Peq` for ASCII pattern characters, laid out `[char][block]` in one
    /// flat allocation (`128 * blocks` words).
    peq_ascii: Vec<u64>,
    /// `Peq` overflow for non-ASCII pattern characters.
    peq_other: std::collections::HashMap<char, Box<[u64]>>,
    pv: Vec<u64>,
    mv: Vec<u64>,
}

impl EdScratch {
    /// Empty scratch; buffers grow to the band width on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total DP cells computed through this scratch (cumulative). A banded
    /// check over `m x n` with threshold `k` touches at most
    /// `(2k+1) * (min(m,n)+1)` cells.
    pub fn cells_touched(&self) -> u64 {
        self.cells
    }

    /// Checks routed to the Myers bit-parallel kernel (cumulative) — the
    /// source of the `bitparallel_ed_calls` profile counter.
    pub fn bitparallel_calls(&self) -> u64 {
        self.bp_calls
    }

    /// Current row-buffer length — bounded by the largest band width seen,
    /// never by the full sequence length.
    pub fn band_capacity(&self) -> usize {
        self.prev.len().max(self.cur.len())
    }

    fn ensure(&mut self, width: usize) {
        if self.prev.len() < width {
            self.prev.resize(width, 0);
        }
        if self.cur.len() < width {
            self.cur.resize(width, 0);
        }
    }

    /// (Re)build the `Peq` masks unless `pat` is the pattern already cached.
    fn prepare_peq(&mut self, pat: &[char], blocks: usize) {
        if self.bp_blocks == blocks && self.bp_pat.as_slice() == pat {
            return;
        }
        self.bp_pat.clear();
        self.bp_pat.extend_from_slice(pat);
        self.bp_blocks = blocks;
        self.peq_ascii.clear();
        self.peq_ascii.resize(128 * blocks, 0);
        self.peq_other.clear();
        for (i, &c) in pat.iter().enumerate() {
            let (block, bit) = (i / 64, i % 64);
            let mask = 1u64 << bit;
            if (c as u32) < 128 {
                self.peq_ascii[(c as usize) * blocks + block] |= mask;
            } else {
                self.peq_other.entry(c).or_insert_with(|| vec![0u64; blocks].into_boxed_slice())
                    [block] |= mask;
            }
        }
    }

    #[inline]
    fn peq(&self, c: char, block: usize) -> u64 {
        if (c as u32) < 128 {
            self.peq_ascii[(c as usize) * self.bp_blocks + block]
        } else {
            self.peq_other.get(&c).map_or(0, |m| m[block])
        }
    }
}

/// Myers bit-parallel threshold check: the DP column for the (shorter)
/// pattern is encoded as vertical-delta bit vectors `Pv`/`Mv` packed into
/// `ceil(m/64)` u64 SWAR blocks, and each text character advances the whole
/// column in O(blocks) word operations instead of O(m) cell operations.
/// Tracks `score = D[m][j]` via the horizontal delta at the pattern's last
/// bit and bails out as soon as even one match per remaining column could
/// not bring the score back under `k`.
fn myers_check(pat: &[char], txt: &[char], k: u32, s: &mut EdScratch) -> Option<u32> {
    debug_assert!(pat.len() <= txt.len() && !pat.is_empty());
    // Length filter: |n - m| is a lower bound on the distance.
    if (txt.len() - pat.len()) as u64 > k as u64 {
        return None;
    }
    s.bp_calls += 1;
    let blocks = pat.len().div_ceil(64);
    s.prepare_peq(pat, blocks);
    if blocks == 1 {
        myers_check_1block(pat.len(), txt, k, s)
    } else {
        myers_check_blocks(pat.len(), blocks, txt, k, s)
    }
}

/// Single-block (`m <= 64`) Myers loop — the overwhelmingly common verify
/// shape, kept register-resident with no per-block bookkeeping.
fn myers_check_1block(m: usize, txt: &[char], k: u32, s: &mut EdScratch) -> Option<u32> {
    let last_bit = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m as i64;
    for (j, &c) in txt.iter().enumerate() {
        let eq = s.peq(c, 0);
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & last_bit != 0 {
            score += 1;
        } else if mh & last_bit != 0 {
            score -= 1;
        }
        // Row 0 is D[0][j] = j: the horizontal delta into the top of the
        // column is always +1, hence the shifted-in Ph bit.
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        // Even a match on every remaining column only subtracts one each.
        if score > k as i64 + (txt.len() - j - 1) as i64 {
            return None;
        }
    }
    (score <= k as i64).then_some(score as u32)
}

/// Multi-block Myers loop for patterns longer than 64 chars: blocks are
/// advanced bottom-up per text character, chaining each block's horizontal
/// delta out of bit 63 into the next block's boundary bit.
fn myers_check_blocks(m: usize, blocks: usize, txt: &[char], k: u32, s: &mut EdScratch) -> Option<u32> {
    let last_bit = 1u64 << ((m - 1) % 64);
    s.pv.clear();
    s.pv.resize(blocks, !0u64);
    s.mv.clear();
    s.mv.resize(blocks, 0u64);
    let mut score = m as i64;
    for (j, &c) in txt.iter().enumerate() {
        // Horizontal delta entering the block's top row; +1 for block 0
        // (row 0 is D[0][j] = j), then whatever the block below emitted.
        let mut hin: i64 = 1;
        for b in 0..blocks {
            let mut eq = s.peq(c, b);
            let pv = s.pv[b];
            let mv = s.mv[b];
            let xv = eq | mv;
            if hin < 0 {
                eq |= 1; // a -1 carried in acts like a match on the boundary
            }
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if b == blocks - 1 {
                if ph & last_bit != 0 {
                    score += 1;
                } else if mh & last_bit != 0 {
                    score -= 1;
                }
            }
            let hout = if ph >> 63 != 0 {
                1
            } else if mh >> 63 != 0 {
                -1
            } else {
                0
            };
            ph <<= 1;
            mh <<= 1;
            if hin > 0 {
                ph |= 1;
            } else if hin < 0 {
                mh |= 1;
            }
            s.pv[b] = mh | !(xv | ph);
            s.mv[b] = ph & xv;
            hin = hout;
        }
        if score > k as i64 + (txt.len() - j - 1) as i64 {
            return None;
        }
    }
    (score <= k as i64).then_some(score as u32)
}

/// Banded DP bounded by threshold `k`: only cells with `|i - j| <= k` can be
/// on an optimal path of cost `<= k`. Terminates early when an entire band
/// row exceeds `k`.
fn generic_edit_distance_check<T: PartialEq>(a: &[T], b: &[T], k: u32) -> Option<u32> {
    let mut scratch = EdScratch::new();
    banded_check(a, b, k, &mut scratch)
}

/// The banded DP itself. Rows are stored in band coordinates (cell
/// `D[i][j]` lives at `row[j - lo_i]`), so both the work and the scratch
/// are `O(band)` per row: no full-row reset, no `O(n)` buffers. Every band
/// cell is written before any same-row read, so the buffers need no
/// clearing between rows or between calls.
fn banded_check<T: PartialEq>(a: &[T], b: &[T], k: u32, s: &mut EdScratch) -> Option<u32> {
    // Keep the longer sequence as the rows; `m >= n` below.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let (m, n) = (a.len(), b.len());
    // Length filter: |m - n| is a lower bound on the distance.
    if (m - n) as u64 > k as u64 {
        return None;
    }
    // The distance never exceeds max(m, n) = m, so a huge threshold only
    // needs a band that covers the whole table.
    let k = (k as usize).min(m);
    if n == 0 {
        return Some(m as u32); // m <= k by the length filter
    }
    // Any cell with |i - j| > k has D[i][j] >= |i - j| > k, so the band
    // outside is safely represented by `inf` = k + 1.
    let inf = (k + 1) as u32;
    s.ensure((2 * k + 1).min(n + 1));
    // Row 0: D[0][j] = j for j in the band [0, min(k, n)].
    let (mut plo, mut phi) = (0usize, k.min(n));
    for (j, cell) in s.prev.iter_mut().enumerate().take(phi + 1) {
        *cell = j as u32;
    }
    s.cells += (phi + 1) as u64;
    for i in 1..=m {
        let lo = i.saturating_sub(k);
        let hi = (i + k).min(n);
        let mut row_min = inf;
        for j in lo..=hi {
            let v = if j == 0 {
                i as u32 // boundary column; i <= k whenever 0 is in band
            } else {
                let up = if (plo..=phi).contains(&j) { s.prev[j - plo] } else { inf };
                let diag = if (plo..=phi).contains(&(j - 1)) {
                    s.prev[j - 1 - plo]
                } else {
                    inf
                };
                let left = if j > lo { s.cur[j - 1 - lo] } else { inf };
                let cost = u32::from(a[i - 1] != b[j - 1]);
                up.saturating_add(1)
                    .min(left.saturating_add(1))
                    .min(diag.saturating_add(cost))
                    .min(inf)
            };
            s.cur[j - lo] = v;
            row_min = row_min.min(v);
        }
        s.cells += (hi - lo + 1) as u64;
        if row_min >= inf {
            return None; // early termination: the whole band exceeded k
        }
        std::mem::swap(&mut s.prev, &mut s.cur);
        (plo, phi) = (lo, hi);
    }
    // n is inside row m's band because |m - n| <= k.
    let d = s.prev[n - plo];
    if d <= k as u32 {
        Some(d)
    } else {
        None
    }
}

/// Two-row dynamic program, O(m·n) time, O(min(m,n)) space.
fn generic_edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> u32 {
    // Keep the shorter sequence as the row to minimize memory.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let n = b.len();
    if n == 0 {
        return a.len() as u32;
    }
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for (i, ai) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for j in 1..=n {
            let cost = if *ai == b[j - 1] { 0 } else { 1 };
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        assert_eq!(edit_distance("james", "jamie"), 2);
        assert_eq!(edit_distance("marla", "maria"), 1);
    }

    #[test]
    fn basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_scalars() {
        assert_eq!(edit_distance("caé", "cae"), 1);
        assert_eq!(edit_distance("日本語", "日本"), 1);
    }

    #[test]
    fn list_distance_paper_example() {
        let a = ["Better", "than", "I", "expected"];
        let b = ["Better", "than", "expected"];
        assert_eq!(list_edit_distance(&a, &b), 1);
    }

    #[test]
    fn check_agrees_when_under_threshold() {
        assert_eq!(edit_distance_check("kitten", "sitting", 3), Some(3));
        assert_eq!(edit_distance_check("kitten", "sitting", 5), Some(3));
        assert_eq!(edit_distance_check("kitten", "sitting", 2), None);
    }

    #[test]
    fn check_zero_threshold() {
        assert_eq!(edit_distance_check("abc", "abc", 0), Some(0));
        assert_eq!(edit_distance_check("abc", "abd", 0), None);
    }

    #[test]
    fn check_length_filter() {
        // Length difference 5 > k=2: must reject without DP.
        assert_eq!(edit_distance_check("a", "abcdef", 2), None);
    }

    #[test]
    fn check_empty_sides() {
        assert_eq!(edit_distance_check("", "", 0), Some(0));
        assert_eq!(edit_distance_check("", "ab", 2), Some(2));
        assert_eq!(edit_distance_check("", "ab", 1), None);
    }

    #[test]
    fn check_huge_threshold() {
        // k larger than both lengths (and near u32::MAX) must not overflow
        // and must return the exact distance.
        assert_eq!(edit_distance_check("kitten", "sitting", u32::MAX), Some(3));
        assert_eq!(edit_distance_check("", "ab", u32::MAX), Some(2));
    }

    #[test]
    fn list_check() {
        let a = [1, 2, 3, 4];
        let b = [1, 3, 4];
        assert_eq!(list_edit_distance_check(&a, &b, 1), Some(1));
        assert_eq!(list_edit_distance_check(&a, &b, 0), None);
    }

    #[test]
    fn slice_entry_points_reuse_scratch() {
        let probe: Vec<char> = "jamesworthington".chars().collect();
        let mut scratch = EdScratch::new();
        let cands = ["jamesworthingten", "jameswrthington", "completely-different"];
        let expect = [Some(1), Some(1), None];
        for (cand, want) in cands.iter().zip(expect) {
            let cv: Vec<char> = cand.chars().collect();
            assert_eq!(edit_distance_check_chars(&probe, &cv, 2, &mut scratch), want);
        }
        // Buffers were allocated once and stayed band-sized.
        assert!(scratch.band_capacity() <= 5, "capacity {}", scratch.band_capacity());
    }

    /// Regression pin for the banded DP: with threshold `k` the work and
    /// the scratch must be proportional to the band `2k+1`, not to the
    /// sequence length `n`. The pre-fix implementation reset the full
    /// `0..=n` row every iteration (Θ(m·n) work) and allocated `n+1`-sized
    /// buffers per call; both would blow the bounds below by ~400×.
    #[test]
    fn banded_check_work_is_band_proportional() {
        let a: String = "ab".repeat(1000);
        let b: String = format!("x{}", &a[..a.len() - 1]); // distance 2 (sub + sub)
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        let k = 2u32;
        let mut scratch = EdScratch::new();
        let d = edit_distance_check_slices(&av, &bv, k, &mut scratch);
        assert_eq!(d, Some(edit_distance(&a, &b)));
        let band = (2 * k + 1) as u64;
        let rows = (av.len().min(bv.len()) as u64) + 1;
        assert!(
            scratch.cells_touched() <= band * rows,
            "touched {} cells, band bound is {}",
            scratch.cells_touched(),
            band * rows
        );
        assert!(
            scratch.band_capacity() <= band as usize,
            "scratch holds {} cells, band is {}",
            scratch.band_capacity(),
            band
        );
    }

    #[test]
    fn myers_dispatch_counts_calls() {
        let mut s = EdScratch::new();
        let a: Vec<char> = "kitten".chars().collect();
        let b: Vec<char> = "sitting".chars().collect();
        // k=3 >= 1 block → Myers.
        assert_eq!(edit_distance_check_chars(&a, &b, 3, &mut s), Some(3));
        assert_eq!(s.bitparallel_calls(), 1);
        // k=0 → banded, no new bit-parallel call.
        assert_eq!(edit_distance_check_chars(&a, &a, 0, &mut s), Some(0));
        assert_eq!(s.bitparallel_calls(), 1);
        // Scalar-pinned entry never takes the Myers path.
        assert_eq!(edit_distance_check_chars_scalar(&a, &b, 3, &mut s), Some(3));
        assert_eq!(s.bitparallel_calls(), 1);
    }

    #[test]
    fn myers_multiblock_unicode() {
        // >64 chars with non-ASCII so the pattern spans multiple u64 blocks
        // and exercises the Peq hash-map overflow.
        let a: String = "日本語データベース類似検索".chars().cycle().take(150).collect();
        let mut b: Vec<char> = a.chars().collect();
        b[3] = 'x';
        b.insert(77, 'y');
        b.remove(140);
        let av: Vec<char> = a.chars().collect();
        let mut s = EdScratch::new();
        let exact = edit_distance(&a, &b.iter().collect::<String>());
        for k in 0..8u32 {
            let want = if exact <= k { Some(exact) } else { None };
            assert_eq!(edit_distance_check_chars(&av, &b, k, &mut s), want, "k={k}");
        }
        assert!(s.bitparallel_calls() > 0);
    }

    #[test]
    fn myers_peq_cache_reused_across_candidates() {
        let probe: Vec<char> = "a".repeat(70).chars().collect();
        let mut s = EdScratch::new();
        for cand in ["a", "b"] {
            let cv: Vec<char> = cand.repeat(70).chars().collect();
            let want = if cand == "a" { Some(0) } else { None };
            assert_eq!(edit_distance_check_chars(&probe, &cv, 3, &mut s), want);
        }
        // Same pattern twice → masks built once; both calls bit-parallel.
        assert_eq!(s.bitparallel_calls(), 2);
    }

    #[test]
    fn myers_exact_block_boundaries() {
        // Pattern lengths straddling the 64-bit block edge.
        for m in [63usize, 64, 65, 127, 128, 129] {
            let a: String = "ab".chars().cycle().take(m).collect();
            let mut b = a.clone();
            b.push('z');
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let mut s = EdScratch::new();
            assert_eq!(edit_distance_check_chars(&av, &bv, 2, &mut s), Some(1), "m={m}");
            assert_eq!(edit_distance_check_chars(&av, &av, 2, &mut s), Some(0), "m={m}");
        }
    }

    proptest! {
        /// Bit-parallel ≡ scalar DP, forced onto the Myers path (`k >=
        /// blocks` always holds for these shapes) and compared against the
        /// scalar-pinned entry on the same scratch.
        #[test]
        fn prop_myers_matches_scalar(a in "[a-c]{1,20}", b in "[a-c]{0,20}", k in 1u32..8) {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let mut s = EdScratch::new();
            let fast = edit_distance_check_chars(&av, &bv, k, &mut s);
            let slow = edit_distance_check_chars_scalar(&av, &bv, k, &mut s);
            prop_assert_eq!(fast, slow);
        }

        /// Multi-block parity over Unicode strings longer than one u64 block.
        #[test]
        fn prop_myers_multiblock_matches_scalar(
            a in "[aé日]{60,100}",
            b in "[aé日]{60,100}",
            k in 2u32..10,
        ) {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let mut s = EdScratch::new();
            let fast = edit_distance_check_chars(&av, &bv, k, &mut s);
            let slow = edit_distance_check_chars_scalar(&av, &bv, k, &mut s);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_symmetric(a in "[a-c]{0,12}", b in "[a-c]{0,12}") {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        }

        #[test]
        fn prop_triangle_inequality(a in "[a-b]{0,8}", b in "[a-b]{0,8}", c in "[a-b]{0,8}") {
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_identity(a in "[a-z]{0,16}") {
            prop_assert_eq!(edit_distance(&a, &a), 0);
        }

        #[test]
        fn prop_check_matches_exact(a in "[a-c]{0,10}", b in "[a-c]{0,10}", k in 0u32..6) {
            let exact = edit_distance(&a, &b);
            let checked = edit_distance_check(&a, &b, k);
            if exact <= k {
                prop_assert_eq!(checked, Some(exact));
            } else {
                prop_assert_eq!(checked, None);
            }
        }

        /// Vectorized ≡ scalar: the scratch-reusing slice kernel agrees with
        /// the per-call API for every input and threshold, including when a
        /// single scratch is reused across differently-shaped calls.
        #[test]
        fn prop_slices_match_check(
            pairs in proptest::collection::vec(("[a-c]{0,12}", "[a-c]{0,12}", 0u32..8), 1..6)
        ) {
            let mut scratch = EdScratch::new();
            for (a, b, k) in &pairs {
                let av: Vec<char> = a.chars().collect();
                let bv: Vec<char> = b.chars().collect();
                prop_assert_eq!(
                    edit_distance_check_chars(&av, &bv, *k, &mut scratch),
                    edit_distance_check(a, b, *k)
                );
            }
        }

        #[test]
        fn prop_length_diff_lower_bound(a in "[a-d]{0,12}", b in "[a-d]{0,12}") {
            let d = edit_distance(&a, &b) as i64;
            let ld = (a.chars().count() as i64 - b.chars().count() as i64).abs();
            prop_assert!(d >= ld);
        }

        #[test]
        fn prop_string_equals_char_list(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            let la: Vec<char> = a.chars().collect();
            let lb: Vec<char> = b.chars().collect();
            prop_assert_eq!(edit_distance(&a, &b), list_edit_distance(&la, &lb));
        }
    }
}
