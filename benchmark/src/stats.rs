//! Order statistics, spreads and the result fingerprint.

/// The `q`-th percentile (`0.0..=100.0`) by the nearest-rank rule: the
/// smallest sample with at least `q` % of the samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Percentile over `(value, weight)` samples whose values sit on a grid:
/// the grouped-data rule. The root emits only on its tick, so lags come
/// out as a few distinct values with heavy ties; a nearest-rank percentile
/// of such data moves in whole grid steps or not at all. Here each
/// distinct value `v` stands for the interval from the next lower observed
/// value up to `v`, and the answer is interpolated inside the interval
/// that holds the `q` % point of the cumulative weight — so a shift of
/// weight between neighbouring grid values shows. Below the lowest value
/// there is nothing to interpolate towards and it is returned as is.
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return None;
    }
    let mut v: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let need = (q / 100.0 * total as f64).clamp(0.0, total as f64);
    let (mut below, mut lower) = (0u64, v[0].0);
    let mut i = 0;
    while i < v.len() {
        let value = v[i].0;
        let mut weight = 0u64;
        while i < v.len() && v[i].0 == value {
            weight += v[i].1;
            i += 1;
        }
        if (below + weight) as f64 >= need {
            let inside = (need - below as f64).max(0.0) / weight as f64;
            return Some(lower + inside * (value - lower));
        }
        below += weight;
        lower = value;
    }
    v.last().map(|s| s.0)
}

/// The median with the midpoint rule for even counts (what repeats are
/// summarised by, so two repeats report their mean, not the lower one).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Min, median, max and `(max − min) ÷ median` of a host metric's repeats:
/// the noise floor recorded beside every host value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub rel: f64,
}

pub fn spread(samples: &[f64]) -> Option<Spread> {
    let median = median(samples)?;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let rel = if median != 0.0 { (max - min) / median.abs() } else { 0.0 };
    Some(Spread { min, median, max, rel })
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the contract's A/A gate uses.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// FNV-1a over 64-bit words: the result fingerprint folds one word per
/// field so any changed result bit changes the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_percentiles_match_hand_computed_cases() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        // Nearest rank: ceil(0.3·5)=2 → 20; ceil(0.5·5)=3 → 35; p100 → 50.
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(15.0));
        // Order of the input is irrelevant.
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 90.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 99th of 1..=1000 is the 990th value.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
    }

    #[test]
    fn weighted_percentiles_match_hand_computed_cases() {
        // Weights 3,1,4 on 10,20,30 → total 8.
        let v = [(10.0, 3), (30.0, 4), (20.0, 1)];
        // p50 needs weight 4: 3 lie at 10, so it is the whole of the
        // (10, 20] interval's single unit → 20.
        assert_eq!(weighted_percentile(&v, 50.0), Some(20.0));
        // p75 needs 6: 4 below 30, then 2 of the 4 units in (20, 30] → 25.
        assert_eq!(weighted_percentile(&v, 75.0), Some(25.0));
        // p25 needs 2, inside the lowest value: nothing to interpolate to.
        assert_eq!(weighted_percentile(&v, 25.0), Some(10.0));
        assert_eq!(weighted_percentile(&v, 100.0), Some(30.0));
        // Ties fold: (20,1)+(20,1) behaves as (20,2). Need 3 of 4: 2 below
        // 30, then 1 of 2 units in (20, 30] → 25.
        assert_eq!(weighted_percentile(&[(20.0, 1), (30.0, 2), (20.0, 1)], 75.0), Some(25.0));
        // Moving weight between neighbouring grid values moves the answer
        // even though the nearest-rank median would stay at 200.
        let before = weighted_percentile(&[(0.0, 10), (200.0, 80), (400.0, 10)], 50.0).unwrap();
        let after = weighted_percentile(&[(0.0, 20), (200.0, 70), (400.0, 10)], 50.0).unwrap();
        assert_eq!(before, 100.0);
        assert!(after < before);
        // Zero-weight samples are ignored; no weight at all is no answer.
        assert_eq!(weighted_percentile(&[(1.0, 0), (2.0, 5)], 0.0), Some(2.0));
        assert_eq!(weighted_percentile(&[(1.0, 0)], 50.0), None);
        assert_eq!(weighted_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let s = spread(&[90.0, 100.0, 110.0]).unwrap();
        assert_eq!((s.min, s.median, s.max), (90.0, 100.0, 110.0));
        assert!((s.rel - 0.2).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
        assert!((iqr_share(&[10.0, 40.0, 20.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_words_are_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.bytes(b"a");
        assert_eq!(c.0, 0xaf63dc4c8601ec8c, "FNV-1a test vector");
    }
}
