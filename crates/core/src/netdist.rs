//! The dynamic timeout estimator (Section 4.3).
//!
//! "Operators maintain a latency estimate, called netDist, using an EWMA of
//! the maximum received sample" (α = 10% worked well in practice). When the
//! first tuple for an index arrives, the TS list sets the entry's timeout in
//! proportion to `netDist − T.age`: by the time that tuple arrived, `T.age`
//! time had already passed, so the most-delayed tuple should already be in
//! flight.
//!
//! **Order insensitivity.** Arrivals are folded into a per-window maximum
//! *before* any EWMA step: the fast-raise (a sample beyond the committed
//! estimate pulls the effective estimate up immediately, since
//! under-estimating the timeout drops live data) is computed as a pure
//! function of that maximum, never compounded per sample. The estimate
//! after any set of observations is therefore independent of their
//! arrival order — which is what lets summary-frame batching (which
//! regroups a tick's tuples) preserve results bit-for-bit on multi-tree
//! plans.

/// The EWMA smoothing factor (Section 4.3: α = 10 %).
const ALPHA: f64 = 0.1;

/// EWMA-of-maximum latency estimator.
#[derive(Debug, Clone, Copy)]
pub struct NetDist {
    /// The committed estimate, updated only at [`NetDist::roll`].
    rolled_us: f64,
    window_max_us: f64,
    /// Samples this window that exceeded the committed estimate — the
    /// fast-raise intensity.
    samples_above: u32,
    samples_in_window: u32,
    /// Sample-less rolls since the last commit, counted only once the
    /// estimator has committed: the next commit takes one EWMA step for
    /// each of them too.
    idle_rolls: u32,
    /// Whether any sample was ever observed.
    sampled: bool,
}

impl NetDist {
    /// Creates an estimator with the given initial estimate.
    pub fn new(initial_us: u64) -> Self {
        Self {
            rolled_us: initial_us as f64,
            window_max_us: 0.0,
            samples_above: 0,
            samples_in_window: 0,
            idle_rolls: 0,
            sampled: false,
        }
    }

    /// Whether any tuple age was ever observed (an unsampled estimator
    /// still holds its initial estimate).
    pub fn has_samples(&self) -> bool {
        self.sampled
    }

    /// Feeds one observed tuple age (clamped at zero — timestamp mode can
    /// produce "future" tuples with negative apparent age).
    pub fn observe(&mut self, age_us: i64) {
        let a = age_us.max(0) as f64;
        self.window_max_us = self.window_max_us.max(a);
        self.samples_in_window += 1;
        self.sampled = true;
        if a > self.rolled_us {
            self.samples_above += 1;
        }
    }

    /// Folds the window into the EWMA; call once per tick that closes a
    /// window. The fast-raise commits first, then the regular EWMA step
    /// applies. A roll with no samples commits nothing, but once the
    /// estimator has committed it counts: a commit after `k` such rolls
    /// takes `1 + k` steps toward the window's maximum
    /// (`1 − (1 − α)^(1 + k)`), so a tree that hears from a child only
    /// every few ticks decays as fast as one that hears every tick. Before
    /// the first commit nothing is counted, so the initial estimate
    /// stands until real ages arrive.
    pub fn roll(&mut self) {
        if self.samples_in_window > 0 {
            // α itself for one step: `1 − 0.9` is not exactly 0.1 in f64.
            let gain = match self.idle_rolls {
                0 => ALPHA,
                k => 1.0 - (1.0 - ALPHA).powi(1 + k.min(1_000) as i32),
            };
            self.rolled_us = self.effective_us();
            self.rolled_us += gain * (self.window_max_us - self.rolled_us);
            self.window_max_us = 0.0;
            self.samples_above = 0;
            self.samples_in_window = 0;
            self.idle_rolls = 0;
        } else if self.sampled {
            self.idle_rolls = self.idle_rolls.saturating_add(1);
        }
    }

    /// The effective estimate: the committed EWMA, fast-raised toward the
    /// current window's maximum by one α-step per above-estimate sample.
    /// A pure function of the window's sample *multiset* (its maximum and
    /// its count of above-estimate samples) — never of their arrival
    /// order — matching the per-sample estimator exactly when the spikes
    /// share one magnitude.
    fn effective_us(&self) -> f64 {
        if self.samples_above == 0 {
            return self.rolled_us;
        }
        let m = self.window_max_us;
        let k = self.samples_above.min(1_000) as i32;
        m - (m - self.rolled_us) * (1.0 - ALPHA).powi(k)
    }

    /// Current estimate, microseconds.
    pub fn estimate_us(&self) -> u64 {
        self.effective_us().max(0.0) as u64
    }

    /// The timeout for an entry whose first tuple has the given age:
    /// `max(min_timeout, netDist − age)`.
    ///
    /// Deliberately computed from the **committed** estimate, which
    /// changes only at [`NetDist::roll`] (a deterministic point in the
    /// tick loop) — never from the in-window provisional raise. A
    /// tuple's deadline therefore depends only on its own age, not on
    /// which other tuples happened to arrive earlier in the same tick,
    /// which is what makes frame batching (a reordering of a tick's
    /// arrivals) bit-for-bit result-preserving. The fast-raise still
    /// protects data: it commits with the next roll and is visible
    /// immediately through [`NetDist::estimate_us`].
    pub fn timeout_us(&self, first_age_us: i64, min_timeout_us: u64) -> u64 {
        let remaining = self.rolled_us - first_age_us.max(0) as f64;
        (remaining.max(0.0) as u64).max(min_timeout_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_estimate_used() {
        let nd = NetDist::new(2_000_000);
        assert_eq!(nd.estimate_us(), 2_000_000);
        assert_eq!(nd.timeout_us(0, 100_000), 2_000_000);
    }

    #[test]
    fn old_tuples_wait_less() {
        let nd = NetDist::new(2_000_000);
        assert_eq!(nd.timeout_us(1_500_000, 100_000), 500_000);
        // Already older than the estimate: floor at min timeout.
        assert_eq!(nd.timeout_us(5_000_000, 100_000), 100_000);
    }

    #[test]
    fn negative_age_clamped() {
        let nd = NetDist::new(1_000_000);
        assert_eq!(nd.timeout_us(-3_000_000, 100_000), 1_000_000);
    }

    #[test]
    fn estimate_rises_quickly_on_larger_samples() {
        let mut nd = NetDist::new(1_000_000);
        for _ in 0..40 {
            nd.observe(4_000_000);
            nd.roll();
        }
        assert!(nd.estimate_us() > 3_500_000, "estimate {}", nd.estimate_us());
    }

    #[test]
    fn estimate_decays_toward_smaller_max() {
        let mut nd = NetDist::new(4_000_000);
        for _ in 0..60 {
            nd.observe(500_000);
            nd.roll();
        }
        let e = nd.estimate_us();
        assert!(e < 1_000_000, "estimate should decay: {e}");
        assert!(e >= 500_000, "but not below observed max: {e}");
    }

    #[test]
    fn estimate_is_order_insensitive_within_a_window() {
        // The estimate (and therefore every timeout assigned from it)
        // must be a pure function of the window's sample multiset:
        // batching regroups a tick's arrivals, so arrival order must not
        // matter. Spikes above the committed estimate exercise the
        // fast-raise path, samples below exercise the max-fold.
        let samples = [3_000_000i64, 500_000, 4_000_000, 1_200_000, 2_800_000, 3_999_999];
        let run = |order: &[i64]| {
            let mut nd = NetDist::new(1_000_000);
            for &s in order {
                // black_box: in release builds LLVM const-folds the whole
                // fold for a compile-time-known order (evaluating `powi`
                // at compile time, off by 1 ULP from the runtime libm),
                // which would fail the comparison for reasons that have
                // nothing to do with arrival order.
                nd.observe(std::hint::black_box(s));
            }
            let provisional = nd.estimate_us();
            nd.roll();
            (provisional, nd.estimate_us())
        };
        let forward = run(&samples);
        let mut rev = samples;
        rev.reverse();
        assert_eq!(forward, run(&rev), "reversed arrival order changed the estimate");
        // A few rotations for good measure.
        for rot in 1..samples.len() {
            let mut rotated = samples;
            rotated.rotate_left(rot);
            assert_eq!(forward, run(&rotated), "rotation {rot} changed the estimate");
        }
    }

    #[test]
    fn fast_raise_applies_before_roll() {
        let mut nd = NetDist::new(1_000_000);
        nd.observe(4_000_000);
        // One spike = one provisional α-step, visible immediately.
        assert_eq!(nd.estimate_us(), 1_300_000);
        nd.roll();
        // Roll commits the raise, then applies the regular EWMA step.
        assert_eq!(nd.estimate_us(), 1_570_000);
    }

    #[test]
    fn has_samples_tracks_first_observation() {
        let mut nd = NetDist::new(1_000_000);
        assert!(!nd.has_samples());
        nd.roll();
        assert!(!nd.has_samples(), "a roll is not a sample");
        nd.observe(-5);
        assert!(nd.has_samples(), "a clamped negative age still counts");
        nd.roll();
        assert!(nd.has_samples(), "rolling the window keeps the history");
    }

    #[test]
    fn a_commit_after_idle_rolls_takes_one_step_per_roll() {
        // A parent's tree estimator hears from a child only on the ticks
        // that child stripes onto the tree; the ticks between must still
        // decay it. The maximum sits below the estimate, so no fast-raise
        // differs between the two paths.
        for k in [1, 3, 7, 40] {
            let mut paced = NetDist::new(4_000_000);
            paced.observe(2_000_000);
            paced.roll();
            for _ in 0..k {
                paced.roll();
            }
            paced.observe(500_000);
            paced.roll();
            let mut stepped = NetDist::new(4_000_000);
            stepped.observe(2_000_000);
            stepped.roll();
            for _ in 0..=k {
                stepped.observe(500_000);
                stepped.roll();
            }
            let (p, s) = (paced.rolled_us, stepped.rolled_us);
            assert!((p - s).abs() <= 1e-6 * s, "{k} idle rolls: paced {p} µs, stepped {s} µs");
        }
    }

    #[test]
    fn no_catch_up_before_the_first_commit() {
        // Rolls before any sample hold nothing to catch up on: the
        // initial estimate stands, and the first commit is one step.
        let mut late = NetDist::new(2_500_000);
        for _ in 0..20 {
            late.roll();
        }
        late.observe(1_000_000);
        late.roll();
        assert_eq!(late.estimate_us(), 2_350_000);
    }

    #[test]
    fn roll_without_samples_is_noop() {
        let mut nd = NetDist::new(1_000_000);
        nd.roll();
        assert_eq!(nd.estimate_us(), 1_000_000);
    }
}
