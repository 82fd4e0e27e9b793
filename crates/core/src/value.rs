//! Partial aggregate states.
//!
//! Every in-network operator reduces data to an [`AggState`] that can be
//! merged associatively and commutatively across time and space. Because
//! time-division partitioning guarantees duplicate-free delivery, these are
//! ordinary partial aggregates — no duplicate-insensitive synopses are
//! required (the paper's contrast with synopsis diffusion, Section 8).

use std::collections::BTreeMap;

/// Number of 64-bit words in a bloom filter state (2048 bits).
pub const BLOOM_WORDS: usize = 32;

/// Number of HyperLogLog registers (must be a power of two).
pub const HLL_REGISTERS: usize = 256;

/// An entry in a top-k state.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKEntry {
    /// Ranking score (larger is "louder").
    pub score: f64,
    /// Source member that produced the entry.
    pub source: u32,
    /// Auxiliary payload fields (e.g. the full frame record).
    pub payload: Vec<f64>,
}

/// A row for union (pass-through) operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Source member.
    pub source: u32,
    /// Row key.
    pub key: u64,
    /// Fields.
    pub vals: Vec<f64>,
}

/// A mergeable partial aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// No data (boundary tuples).
    None,
    /// Running sum.
    Sum(f64),
    /// Running count.
    Count(u64),
    /// Running minimum.
    Min(f64),
    /// Running maximum.
    Max(f64),
    /// Sum and count for averages.
    Avg {
        /// Sum of samples.
        sum: f64,
        /// Number of samples.
        n: u64,
    },
    /// The k largest-scoring entries, sorted descending.
    TopK {
        /// Capacity.
        k: usize,
        /// Entries, sorted by descending score, length ≤ k.
        entries: Vec<TopKEntry>,
    },
    /// Bounded row union.
    Rows {
        /// Capacity (rows beyond it are dropped, oldest kept).
        cap: usize,
        /// Collected rows.
        rows: Vec<Row>,
    },
    /// Categorical frequency counts (entropy aggregates).
    Freq {
        /// Maximum distinct keys tracked.
        cap: usize,
        /// key → count.
        counts: BTreeMap<u64, u64>,
    },
    /// Bloom-filter bit union (distributed index maintenance).
    Bloom {
        /// 2048-bit filter.
        bits: Box<[u64; BLOOM_WORDS]>,
    },
    /// A computed coordinate or generic numeric vector (e.g. trilateration
    /// output at a query root).
    Vector(Vec<f64>),
    /// HyperLogLog registers for approximate distinct counting (256
    /// registers ⇒ ~6.5% standard error) — e.g. distinct source addresses
    /// across an enterprise.
    Hll {
        /// Per-register maximum leading-zero ranks.
        registers: Box<[u8; HLL_REGISTERS]>,
    },
    /// Per-key inner partial aggregates (GROUP-BY). Keys are `u64` field
    /// values; each group carries the inner operator's partial state and
    /// merges key-wise at every hop. The map is bounded by `cap` with the
    /// same deterministic overflow policy as [`AggState::Freq`]: once full,
    /// keys already tracked keep merging and unseen keys are dropped, so
    /// every merge order converges on the same survivor set (the `cap`
    /// smallest keys seen, since groups are walked in ascending key order).
    Keyed {
        /// Maximum distinct keys tracked.
        cap: usize,
        /// key → inner partial aggregate.
        groups: KeyedGroups,
    },
}

/// Total order for top-k entries: descending score with NaN sorted last,
/// ties broken by source member then payload bits, so entry order — and
/// with it which entries survive truncation — is independent of merge
/// order even under NaN scores and score ties.
pub fn topk_order(a: &TopKEntry, b: &TopKEntry) -> std::cmp::Ordering {
    a.score
        .is_nan()
        .cmp(&b.score.is_nan())
        .then_with(|| b.score.total_cmp(&a.score))
        .then_with(|| a.source.cmp(&b.source))
        .then_with(|| {
            a.payload.iter().map(|v| v.to_bits()).cmp(b.payload.iter().map(|v| v.to_bits()))
        })
}

/// The groups of an [`AggState::Keyed`] state: `(key, state)` pairs in one
/// vector sorted by ascending key. A window's handful of groups costs one
/// allocation of 48 B per group instead of a `BTreeMap` node per handful
/// (~540 B per leaf), lookups are a binary search, and a merge is a
/// two-pointer walk over both sorted runs.
#[derive(Default, PartialEq)]
pub struct KeyedGroups(Vec<(u64, AggState)>);

/// A clone keeps room for four groups: a TS-list entry opens as a clone
/// of its first summary (often a leaf's one group) and then absorbs its
/// siblings' keys, the first few without growing.
impl Clone for KeyedGroups {
    fn clone(&self) -> Self {
        let mut v = Vec::with_capacity(self.0.len().max(4));
        v.extend(self.0.iter().cloned());
        Self(v)
    }
}

/// The borrowing iterator over [`KeyedGroups`], in ascending key order.
pub type KeyedGroupsIter<'a> = std::iter::Map<
    std::slice::Iter<'a, (u64, AggState)>,
    fn(&(u64, AggState)) -> (&u64, &AggState),
>;

impl KeyedGroups {
    /// An empty group map (allocates nothing).
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn find(&self, key: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Whether `key` has a group.
    pub fn contains_key(&self, key: &u64) -> bool {
        self.find(*key).is_ok()
    }

    /// The group of `key`, if tracked.
    pub fn get(&self, key: &u64) -> Option<&AggState> {
        self.find(*key).ok().map(|i| &self.0[i].1)
    }

    /// Sets `key`'s group, returning the state it replaced.
    pub fn insert(&mut self, key: u64, state: AggState) -> Option<AggState> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, state)),
            Err(i) => {
                self.0.insert(i, (key, state));
                None
            }
        }
    }

    /// `key`'s group, created by `zero` when absent — unless `cap` groups
    /// are already tracked, in which case the key is dropped (`None`).
    pub(crate) fn entry_capped(
        &mut self,
        key: u64,
        cap: usize,
        zero: impl FnOnce() -> AggState,
    ) -> Option<&mut AggState> {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(_) if self.0.len() >= cap => return None,
            Err(i) => {
                self.0.insert(i, (key, zero()));
                i
            }
        };
        Some(&mut self.0[i].1)
    }

    /// `(key, group)` pairs in ascending key order.
    pub fn iter(&self) -> KeyedGroupsIter<'_> {
        fn split((k, st): &(u64, AggState)) -> (&u64, &AggState) {
            (k, st)
        }
        self.0.iter().map(split)
    }

    /// The groups' states in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &AggState> {
        self.0.iter().map(|(_, st)| st)
    }

    /// Merges `other` key-wise under the overflow rule: walking `other` in
    /// ascending key order, a tracked key merges and an unseen key is
    /// admitted only while fewer than `cap` groups are tracked. With no key
    /// to admit the walk merges in place and allocates nothing. Otherwise
    /// the vector grows once (amortized, like any `Vec` push) by the
    /// admitted count, and a backward two-pointer walk merges into the
    /// grown tail, moving each tracked group at most once.
    pub(crate) fn merge_capped(&mut self, cap: usize, other: &KeyedGroups) {
        let (admitted, last) = self.admissions(other, cap.saturating_sub(self.0.len()));
        if admitted == 0 {
            let mut mine = self.0.iter_mut().peekable();
            for (k, st) in &other.0 {
                while mine.next_if(|(m, _)| m < k).is_some() {}
                if let Some((_, g)) = mine.next_if(|(m, _)| m == k) {
                    g.merge(st);
                }
            }
            return;
        }
        // `[i, w)` is the gap of placeholders still to fill; every pair
        // at or past `w` is final.
        let mut i = self.0.len();
        self.0.resize_with(i + admitted, || (0, AggState::None));
        let mut w = self.0.len();
        for (k, st) in other.0.iter().rev() {
            while i > 0 && self.0[i - 1].0 > *k {
                i -= 1;
                w -= 1;
                self.0.swap(i, w);
            }
            if i > 0 && self.0[i - 1].0 == *k {
                i -= 1;
                w -= 1;
                self.0[i].1.merge(st);
                self.0.swap(i, w);
            } else if *k <= last {
                w -= 1;
                self.0[w] = (*k, st.clone());
            } // else: bounded state, an overflow key is dropped.
        }
        debug_assert_eq!(i, w, "every admitted key filled the gap");
    }

    /// How many of `other`'s untracked keys fit into `room` free groups,
    /// and the largest of them: the overflow rule admits untracked keys in
    /// ascending order until the map is full.
    fn admissions(&self, other: &KeyedGroups, room: usize) -> (usize, u64) {
        let (mut i, mut n, mut last) = (0, 0, 0);
        if room == 0 {
            return (0, 0);
        }
        for &(k, _) in &other.0 {
            while i < self.0.len() && self.0[i].0 < k {
                i += 1;
            }
            if i < self.0.len() && self.0[i].0 == k {
                i += 1;
                continue;
            }
            n += 1;
            last = k;
            if n == room {
                break;
            }
        }
        (n, last)
    }
}

impl std::fmt::Debug for KeyedGroups {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl std::ops::Index<&u64> for KeyedGroups {
    type Output = AggState;

    fn index(&self, key: &u64) -> &AggState {
        self.get(key).expect("no group for key")
    }
}

impl FromIterator<(u64, AggState)> for KeyedGroups {
    /// Collects pairs in any order; a repeated key keeps its last state,
    /// as collecting into a map would.
    fn from_iter<I: IntoIterator<Item = (u64, AggState)>>(iter: I) -> Self {
        let mut pairs: Vec<(u64, AggState)> = iter.into_iter().collect();
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            // The sort is stable, so reversed runs of equal keys start with
            // the last one given, which is the one `dedup` keeps.
            pairs.sort_by_key(|&(k, _)| k);
            pairs.reverse();
            pairs.dedup_by_key(|(k, _)| *k);
            pairs.reverse();
        }
        Self(pairs)
    }
}

impl<'a> IntoIterator for &'a KeyedGroups {
    type Item = (&'a u64, &'a AggState);
    type IntoIter = KeyedGroupsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl AggState {
    /// Merges `other` into `self`. Both must be the same variant (or either
    /// side [`AggState::None`], which acts as the identity).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (_, AggState::None) => {}
            (me @ AggState::None, _) => *me = other.clone(),
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => *a = a.min(*b),
            (AggState::Max(a), AggState::Max(b)) => *a = a.max(*b),
            (AggState::Avg { sum: s1, n: n1 }, AggState::Avg { sum: s2, n: n2 }) => {
                *s1 += s2;
                *n1 += n2;
            }
            (AggState::TopK { k, entries }, AggState::TopK { entries: other_e, .. }) => {
                entries.extend(other_e.iter().cloned());
                entries.sort_by(topk_order);
                entries.truncate(*k);
            }
            (AggState::Rows { cap, rows }, AggState::Rows { rows: other_r, .. }) => {
                for r in other_r {
                    if rows.len() >= *cap {
                        break;
                    }
                    rows.push(r.clone());
                }
            }
            (AggState::Freq { cap, counts }, AggState::Freq { counts: other_c, .. }) => {
                for (k, v) in other_c {
                    if counts.len() >= *cap && !counts.contains_key(k) {
                        continue; // Bounded state: overflow keys dropped.
                    }
                    *counts.entry(*k).or_insert(0) += v;
                }
            }
            (AggState::Bloom { bits }, AggState::Bloom { bits: other_b }) => {
                for (a, b) in bits.iter_mut().zip(other_b.iter()) {
                    *a |= b;
                }
            }
            (AggState::Vector(a), AggState::Vector(b)) => {
                // Vectors don't combine meaningfully; keep the longer one.
                if b.len() > a.len() {
                    *a = b.clone();
                }
            }
            (AggState::Hll { registers: a }, AggState::Hll { registers: b }) => {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x = (*x).max(*y);
                }
            }
            (AggState::Keyed { cap, groups }, AggState::Keyed { groups: other_g, .. }) => {
                groups.merge_capped(*cap, other_g);
            }
            (me, other) => {
                debug_assert!(false, "merging mismatched aggregate variants: {me:?} vs {other:?}");
            }
        }
    }

    /// Scalar rendering of the final value, where meaningful.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            AggState::Sum(v) | AggState::Min(v) | AggState::Max(v) => Some(*v),
            AggState::Count(n) => Some(*n as f64),
            AggState::Avg { sum, n } => (*n > 0).then(|| sum / *n as f64),
            AggState::Freq { counts, .. } => Some(entropy(counts)),
            AggState::TopK { entries, .. } => entries.first().map(|e| e.score),
            AggState::Rows { rows, .. } => Some(rows.len() as f64),
            AggState::Bloom { bits } => {
                Some(bits.iter().map(|w| w.count_ones() as u64).sum::<u64>() as f64)
            }
            AggState::Vector(v) => v.first().copied(),
            AggState::Hll { registers } => Some(hll_estimate(registers)),
            // A keyed state has no single scalar; render the group count so
            // scalar-only consumers still see a meaningful signal.
            AggState::Keyed { groups, .. } => (!groups.is_empty()).then_some(groups.len() as f64),
            AggState::None => None,
        }
    }

    /// The per-key map, when this is a keyed (GROUP-BY) state.
    pub fn groups(&self) -> Option<&KeyedGroups> {
        match self {
            AggState::Keyed { groups, .. } => Some(groups),
            _ => None,
        }
    }

    /// Estimated wire size in bytes for bandwidth accounting.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            AggState::None => 0,
            AggState::Sum(_) | AggState::Count(_) | AggState::Min(_) | AggState::Max(_) => 8,
            AggState::Avg { .. } => 16,
            AggState::TopK { entries, .. } => {
                entries.iter().map(|e| 12 + 8 * e.payload.len() as u32).sum::<u32>() + 4
            }
            AggState::Rows { rows, .. } => {
                rows.iter().map(|r| 12 + 8 * r.vals.len() as u32).sum::<u32>() + 4
            }
            AggState::Freq { counts, .. } => 16 * counts.len() as u32 + 4,
            AggState::Bloom { .. } => (BLOOM_WORDS * 8) as u32,
            AggState::Vector(v) => 8 * v.len() as u32 + 4,
            AggState::Hll { .. } => HLL_REGISTERS as u32,
            AggState::Keyed { groups, .. } => {
                groups.values().map(|s| 9 + s.wire_bytes()).sum::<u32>() + 4
            }
        }
    }
}

/// Inserts a key into a HyperLogLog state.
pub fn hll_insert(registers: &mut [u8; HLL_REGISTERS], key: u64) {
    // One FNV-1a pass; low bits pick the register, the rank comes from the
    // remaining bits' leading zeros.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let idx = (h & (HLL_REGISTERS as u64 - 1)) as usize;
    let rest = h >> 8;
    // `rest` has 56 usable bits (top 8 are zero after the shift), so the
    // rank of the first set bit is leading_zeros − 8 + 1.
    let rank = (rest.leading_zeros() as u8).saturating_sub(8) + 1;
    registers[idx] = registers[idx].max(rank);
}

/// The HyperLogLog cardinality estimate with small-range correction.
pub fn hll_estimate(registers: &[u8; HLL_REGISTERS]) -> f64 {
    let m = HLL_REGISTERS as f64;
    let alpha = 0.7213 / (1.0 + 1.079 / m);
    let sum: f64 = registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
    let raw = alpha * m * m / sum;
    let zeros = registers.iter().filter(|&&r| r == 0).count();
    if raw <= 2.5 * m && zeros > 0 {
        // Linear counting for small cardinalities.
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

/// Shannon entropy (bits) of a frequency table.
pub fn entropy(counts: &BTreeMap<u64, u64>) -> f64 {
    let total: u64 = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    let tf = total as f64;
    counts
        .values()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / tf;
            -p * p.log2()
        })
        .sum()
}

/// Inserts a key into a bloom filter state using three FNV-derived hashes.
pub fn bloom_insert(bits: &mut [u64; BLOOM_WORDS], key: u64) {
    for h in bloom_hashes(key) {
        bits[(h / 64) as usize % BLOOM_WORDS] |= 1u64 << (h % 64);
    }
}

/// Tests membership (may yield false positives, never false negatives).
pub fn bloom_contains(bits: &[u64; BLOOM_WORDS], key: u64) -> bool {
    bloom_hashes(key)
        .iter()
        .all(|&h| bits[(h / 64) as usize % BLOOM_WORDS] & (1u64 << (h % 64)) != 0)
}

fn bloom_hashes(key: u64) -> [u64; 3] {
    // FNV-1a over the key bytes with three different seeds.
    let mut out = [0u64; 3];
    for (i, seed) in [0xcbf29ce484222325u64, 0x100000001b3, 0x9e3779b97f4a7c15].iter().enumerate() {
        let mut h = *seed ^ 0xcbf29ce484222325;
        for b in key.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        out[i] = h % (BLOOM_WORDS as u64 * 64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_merge() {
        let mut a = AggState::Sum(2.0);
        a.merge(&AggState::Sum(3.0));
        assert_eq!(a.scalar(), Some(5.0));
    }

    #[test]
    fn none_is_identity() {
        let mut a = AggState::Sum(2.0);
        a.merge(&AggState::None);
        assert_eq!(a, AggState::Sum(2.0));
        let mut b = AggState::None;
        b.merge(&AggState::Count(4));
        assert_eq!(b, AggState::Count(4));
    }

    #[test]
    fn min_max_avg() {
        let mut mn = AggState::Min(3.0);
        mn.merge(&AggState::Min(1.0));
        assert_eq!(mn.scalar(), Some(1.0));
        let mut mx = AggState::Max(3.0);
        mx.merge(&AggState::Max(9.0));
        assert_eq!(mx.scalar(), Some(9.0));
        let mut av = AggState::Avg { sum: 10.0, n: 2 };
        av.merge(&AggState::Avg { sum: 2.0, n: 2 });
        assert_eq!(av.scalar(), Some(3.0));
    }

    #[test]
    fn topk_keeps_largest() {
        let e = |s: f64| TopKEntry { score: s, source: 0, payload: vec![] };
        let mut a = AggState::TopK { k: 2, entries: vec![e(5.0), e(1.0)] };
        a.merge(&AggState::TopK { k: 2, entries: vec![e(3.0), e(7.0)] });
        match a {
            AggState::TopK { entries, .. } => {
                let scores: Vec<f64> = entries.iter().map(|x| x.score).collect();
                assert_eq!(scores, vec![7.0, 5.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn topk_merge_is_commutative() {
        let e = |s: f64| TopKEntry { score: s, source: 0, payload: vec![] };
        let x = AggState::TopK { k: 3, entries: vec![e(5.0), e(1.0)] };
        let y = AggState::TopK { k: 3, entries: vec![e(3.0), e(7.0), e(0.5)] };
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn freq_entropy() {
        let mut c = BTreeMap::new();
        c.insert(1u64, 1u64);
        c.insert(2, 1);
        assert!((entropy(&c) - 1.0).abs() < 1e-12, "two equally likely symbols = 1 bit");
        c.insert(3, 2);
        assert!((entropy(&c) - 1.5).abs() < 1e-12);
        assert_eq!(entropy(&BTreeMap::new()), 0.0);
    }

    #[test]
    fn freq_merge_respects_cap() {
        let mut a = AggState::Freq { cap: 2, counts: BTreeMap::from([(1, 1)]) };
        a.merge(&AggState::Freq { cap: 2, counts: BTreeMap::from([(2, 1), (3, 1)]) });
        match a {
            AggState::Freq { counts, .. } => {
                assert_eq!(counts.len(), 2, "cap enforced");
                assert!(counts.contains_key(&1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn bloom_membership() {
        let mut bits = Box::new([0u64; BLOOM_WORDS]);
        for k in 0..100u64 {
            bloom_insert(&mut bits, k);
        }
        for k in 0..100u64 {
            assert!(bloom_contains(&bits, k), "false negative for {k}");
        }
        let fp = (1_000..2_000u64).filter(|&k| bloom_contains(&bits, k)).count();
        assert!(fp < 100, "false positive rate too high: {fp}/1000");
    }

    #[test]
    fn bloom_merge_is_union() {
        let mut a = Box::new([0u64; BLOOM_WORDS]);
        let mut b = Box::new([0u64; BLOOM_WORDS]);
        bloom_insert(&mut a, 42);
        bloom_insert(&mut b, 43);
        let mut sa = AggState::Bloom { bits: a };
        sa.merge(&AggState::Bloom { bits: b });
        match sa {
            AggState::Bloom { bits } => {
                assert!(bloom_contains(&bits, 42));
                assert!(bloom_contains(&bits, 43));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn hll_estimates_within_error_bound() {
        let mut regs = Box::new([0u8; HLL_REGISTERS]);
        for k in 0..10_000u64 {
            hll_insert(&mut regs, k.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let est = hll_estimate(&regs);
        let err = (est - 10_000.0).abs() / 10_000.0;
        assert!(err < 0.15, "estimate {est} off by {err}");
    }

    #[test]
    fn hll_small_range_is_accurate() {
        let mut regs = Box::new([0u8; HLL_REGISTERS]);
        for k in 0..20u64 {
            hll_insert(&mut regs, k.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let est = hll_estimate(&regs);
        assert!((est - 20.0).abs() < 5.0, "small-range estimate {est}");
    }

    #[test]
    fn hll_merge_is_union() {
        let mut a = Box::new([0u8; HLL_REGISTERS]);
        let mut b = Box::new([0u8; HLL_REGISTERS]);
        for k in 0..2_000u64 {
            hll_insert(&mut a, k.wrapping_mul(0x9E3779B97F4A7C15));
        }
        for k in 1_000..3_000u64 {
            hll_insert(&mut b, k.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let mut sa = AggState::Hll { registers: a };
        sa.merge(&AggState::Hll { registers: b });
        let est = sa.scalar().unwrap();
        let err = (est - 3_000.0).abs() / 3_000.0;
        assert!(err < 0.15, "union estimate {est} (distinct = 3000)");
    }

    #[test]
    fn hll_idempotent_reinsertion() {
        let mut a = Box::new([0u8; HLL_REGISTERS]);
        for _ in 0..3 {
            for k in 0..500u64 {
                hll_insert(&mut a, k.wrapping_mul(0x9E3779B97F4A7C15));
            }
        }
        let est = hll_estimate(&a);
        let err = (est - 500.0).abs() / 500.0;
        assert!(err < 0.15, "duplicates inflated the estimate: {est}");
    }

    #[test]
    fn keyed_merge_is_keywise() {
        let g = |pairs: &[(u64, f64)]| AggState::Keyed {
            cap: 8,
            groups: pairs.iter().map(|&(k, v)| (k, AggState::Sum(v))).collect(),
        };
        let mut a = g(&[(1, 2.0), (2, 5.0)]);
        a.merge(&g(&[(2, 1.0), (3, 4.0)]));
        let groups = a.groups().unwrap();
        assert_eq!(groups[&1], AggState::Sum(2.0));
        assert_eq!(groups[&2], AggState::Sum(6.0));
        assert_eq!(groups[&3], AggState::Sum(4.0));
    }

    #[test]
    fn keyed_merge_respects_cap_deterministically() {
        let g = |pairs: &[(u64, f64)]| AggState::Keyed {
            cap: 2,
            groups: pairs.iter().map(|&(k, v)| (k, AggState::Sum(v))).collect(),
        };
        let x = g(&[(1, 1.0)]);
        let y = g(&[(2, 1.0), (3, 1.0)]);
        let mut xy = x.clone();
        xy.merge(&y);
        match &xy {
            AggState::Keyed { groups, .. } => {
                assert_eq!(groups.len(), 2, "cap enforced");
                assert!(groups.contains_key(&1), "already-tracked keys survive");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn keyed_merge_matches_a_map_under_the_overflow_rule() {
        // The reference is the rule itself over a `BTreeMap`: walk the
        // incoming groups in key order, merge tracked keys, admit new ones
        // only while fewer than `cap` are tracked.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        fn side(next: &mut impl FnMut(u64) -> u64) -> BTreeMap<u64, f64> {
            let n = next(14);
            (0..n).map(|_| (next(24), next(100) as f64)).collect()
        }
        for _ in 0..2_000 {
            let cap = 1 + next(12) as usize;
            let (mine, theirs) = (side(&mut next), side(&mut next));
            let mine: BTreeMap<u64, f64> = mine.into_iter().take(cap).collect();
            let mut want = mine.clone();
            for (k, v) in &theirs {
                if want.len() >= cap && !want.contains_key(k) {
                    continue;
                }
                *want.entry(*k).or_insert(0.0) += v;
            }
            let keyed = |m: &BTreeMap<u64, f64>| AggState::Keyed {
                cap,
                groups: m.iter().map(|(&k, &v)| (k, AggState::Sum(v))).collect(),
            };
            let mut got = keyed(&mine);
            got.merge(&keyed(&theirs));
            assert_eq!(got, keyed(&want), "cap {cap}: {mine:?} + {theirs:?}");
        }
    }

    #[test]
    fn topk_nan_and_tied_scores_merge_order_independent() {
        let e = |s: f64, src: u32| TopKEntry { score: s, source: src, payload: vec![] };
        let x = AggState::TopK { k: 3, entries: vec![e(f64::NAN, 4), e(5.0, 1)] };
        let y = AggState::TopK { k: 3, entries: vec![e(5.0, 0), e(7.0, 2)] };
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        let scores = |s: &AggState| match s {
            AggState::TopK { entries, .. } => {
                entries.iter().map(|e| (e.score.to_bits(), e.source)).collect::<Vec<_>>()
            }
            _ => unreachable!(),
        };
        assert_eq!(scores(&xy), scores(&yx), "merge order must not leak into entry order");
        match &xy {
            AggState::TopK { entries, .. } => {
                assert_eq!(entries[0].score, 7.0);
                assert_eq!((entries[1].score, entries[1].source), (5.0, 0), "tie broken by source");
                assert_eq!((entries[2].score, entries[2].source), (5.0, 1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rows_bounded() {
        let row = |s: u32| Row { source: s, key: 0, vals: vec![] };
        let mut a = AggState::Rows { cap: 2, rows: vec![row(1)] };
        a.merge(&AggState::Rows { cap: 2, rows: vec![row(2), row(3)] });
        match a {
            AggState::Rows { rows, .. } => assert_eq!(rows.len(), 2),
            _ => unreachable!(),
        }
    }
}
