//! Cadence sources: a deterministic emission period with an optional burst
//! window during which the rate is multiplied. A bursty feed is a
//! [`BurstProfile`]; a Periodic sensor emits on the profile with its
//! period and value — no burst, no end, key 0.
//!
//! Emission is cursor-based — the next emission instant is a pure function
//! of how many tuples have been handed out — so the total tuple count of a
//! profile is fixed regardless of when intake polls. A paused feed
//! catches up late; it never changes what the profile produces.

use crate::tuple::RawTuple;

/// A deterministic load profile, in query-frame microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProfile {
    /// Base emission period (positive: install rejects 0).
    pub period_us: u64,
    /// During `[burst_start_us, burst_end_us)` the period shrinks to
    /// `period_us / burst_factor` — a `burst_factor`× rate burst.
    pub burst_start_us: u64,
    pub burst_end_us: u64,
    /// Rate multiplier inside the burst window (positive: install
    /// rejects 0).
    pub burst_factor: u32,
    /// Emitted tuple payload.
    pub value: f64,
    /// Emitted tuple key.
    pub key: u64,
    /// Stop emitting past this frame instant (`u64::MAX` = run forever).
    pub until_us: u64,
}

impl BurstProfile {
    /// A steady profile with no burst window: `value` every `period_us`,
    /// forever (a Periodic sensor's cadence).
    pub fn steady(period_us: u64, value: f64) -> Self {
        Self {
            period_us: period_us.max(1),
            burst_start_us: 0,
            burst_end_us: 0,
            burst_factor: 1,
            value,
            key: 0,
            until_us: u64::MAX,
        }
    }

    /// Adds a `factor`× burst over `[start_us, end_us)`.
    pub fn with_burst(mut self, start_us: u64, end_us: u64, factor: u32) -> Self {
        self.burst_start_us = start_us;
        self.burst_end_us = end_us;
        self.burst_factor = factor.max(1);
        self
    }

    /// Frame instant of a cadence source's first emission: one period
    /// into the query's frame.
    pub(crate) fn first_emit_us(&self) -> i64 {
        i64::try_from(self.period_us.max(1)).unwrap_or(i64::MAX)
    }

    /// Emission period in force at frame instant `at_us`, at least 1 µs.
    fn period_at(&self, at_us: i64) -> i64 {
        let in_burst = u64::try_from(at_us)
            .is_ok_and(|at| at >= self.burst_start_us && at < self.burst_end_us);
        let period = if in_burst {
            self.period_us / u64::from(self.burst_factor.max(1))
        } else {
            self.period_us
        };
        i64::try_from(period.max(1)).unwrap_or(i64::MAX)
    }

    /// If the emission at `*next` is due by `frame_now_us` (and not past
    /// `until_us`), writes it into `out`, advances the cursor by the
    /// period in force at the emission's own instant (so catch-up after a
    /// pause reproduces the exact schedule) and returns that instant.
    pub(crate) fn emit(
        &self,
        next: &mut i64,
        frame_now_us: i64,
        out: &mut RawTuple,
    ) -> Option<i64> {
        let at = *next;
        if at > frame_now_us || self.next_due_us(at) == i64::MAX {
            return None;
        }
        out.set(self.key, &[self.value]);
        *next = at.saturating_add(self.period_at(at));
        Some(at)
    }

    /// `next`, or `i64::MAX` once it is past `until_us`.
    pub(crate) fn next_due_us(&self, next: i64) -> i64 {
        if u64::try_from(next).is_ok_and(|n| n > self.until_us) {
            i64::MAX
        } else {
            next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits every tuple `p` has due by `now` from cursor `next`.
    fn drain(p: &BurstProfile, next: &mut i64, now: i64) -> usize {
        let mut raw = RawTuple::default();
        let mut n = 0;
        while p.emit(next, now, &mut raw).is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn burst_window_multiplies_rate() {
        // 1 ms base period, 10× burst over [10 ms, 20 ms).
        let p = BurstProfile::steady(1_000, 1.0).with_burst(10_000, 20_000, 10);
        let mut next = p.first_emit_us();
        assert_eq!(drain(&p, &mut next, 10_000 - 1), 9, "9 steady emissions before the burst");
        assert_eq!(drain(&p, &mut next, 20_000 - 1), 100, "10 ms at 100 µs period");
        assert_eq!(drain(&p, &mut next, 30_000), 11, "steady again after the burst");
    }

    #[test]
    fn paused_source_catches_up_with_identical_totals() {
        let p = BurstProfile::steady(1_000, 1.0).with_burst(10_000, 20_000, 10);
        let mut eager = p.first_emit_us();
        let mut total_eager = 0;
        for ms in 1..=30 {
            total_eager += drain(&p, &mut eager, ms * 1_000);
        }
        // The lazy cursor is never polled until the very end.
        let mut lazy = p.first_emit_us();
        let total_lazy = drain(&p, &mut lazy, 30_000);
        assert_eq!(total_eager, total_lazy);
        assert_eq!(eager, lazy);
    }

    #[test]
    fn until_bound_exhausts_source() {
        let mut p = BurstProfile::steady(1_000, 2.5);
        p.until_us = 5_000;
        let mut next = p.first_emit_us();
        assert_eq!(drain(&p, &mut next, 100_000), 5);
        assert_eq!(p.next_due_us(next), i64::MAX);
    }
}
