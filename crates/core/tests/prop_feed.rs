//! Property tests of feed intake policies under deterministic bursts.
//!
//! Across random policy parameters, drain rates, and 10× burst windows,
//! every [`IntakePolicy`] must keep intake-queue bytes under its
//! structural cap (and the spill ring under its byte cap) at every single
//! pump step; `Backpressure` must deliver the source's entire output
//! late-but-complete; `Shed`/`Sample`/`Spill` counters must account for
//! exactly every tuple the source offered. `overcap` stays zero — the
//! bounds hold by construction, not by slack.

use mortar_core::feed::{raw_cost_bytes, ReplayTrace, Source};
use mortar_core::tuple::RawTuple;
use mortar_core::{BurstProfile, FeedConnector, FeedSpec, IntakePolicy, SensorSpec};
use proptest::prelude::*;

/// Cost of the single-field tuples every profile in this suite emits.
fn tuple_cost() -> u64 {
    raw_cost_bytes(&RawTuple::of(0.0))
}

/// Pumps one member of `spec` once per simulated tick (200 ms of frame
/// time for `ticks` ticks), checking the structural bounds after every
/// step, then keeps pumping at the final instant until the backlog drains
/// or the source stops producing.
fn drive(spec: &FeedSpec, ticks: u64) -> (mortar_core::FeedStats, u64) {
    let sensor = SensorSpec::Feed(spec.clone());
    let mut f = Source::new(&sensor, 0);
    let cap_bytes = spec.policy.queue_cap() as u64 * tuple_cost();
    let spill_cap = spec.policy.spill_cap_bytes();
    let mut delivered = 0u64;
    let mut raw = RawTuple::default();
    let mut step = |f: &mut Source, now: i64| {
        let got = f.pump(&sensor, &ReplayTrace::default(), 3, now, &mut raw, |_, _| {});
        let intake = f.intake().expect("a feed has an intake");
        assert!(
            intake.held_bytes() <= cap_bytes + spill_cap,
            "held {} B over queue cap {} + spill cap {}",
            intake.held_bytes(),
            cap_bytes,
            spill_cap
        );
        assert!(intake.conserved(), "conservation broke mid-run: {intake:?}");
        (got, intake.has_pending(), intake.held_bytes())
    };
    for t in 1..=ticks {
        delivered += step(&mut f, (t * 200_000) as i64).0;
    }
    // Late-but-complete tail: a paused/backlogged feed finishes once the
    // burst passes.
    let end = (ticks * 200_000) as i64;
    loop {
        let (got, pending, held) = step(&mut f, end);
        if got == 0 && !pending {
            break;
        }
        if got == 0 {
            // Pending but nothing delivered would be a livelock.
            panic!("feed stalled with {held} B pending");
        }
    }
    let intake = f.intake().expect("a feed has an intake");
    assert_eq!(intake.stats.overcap, 0, "structural bound violated: {:?}", intake.stats);
    assert!(intake.conserved());
    (intake.stats, delivered)
}

/// A 10× burst profile over the middle of the drive window.
fn burst_profile(period_us: u64, factor: u32, ticks: u64) -> BurstProfile {
    let end = ticks * 200_000;
    BurstProfile::steady(period_us, 1.0).with_burst(end / 4, (end * 3) / 4, factor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn backpressure_is_late_but_complete_under_burst(
        credits in 1usize..64,
        period_us in 5_000u64..50_000,
        drain in 1usize..32,
    ) {
        let profile = burst_profile(period_us, 10, 50);
        let mut spec = FeedSpec::new(
            FeedConnector::Bursty(profile),
            IntakePolicy::Backpressure { credits },
        );
        spec.drain_max = drain;
        let (stats, _) = drive(&spec, 50);
        // Nothing is ever dropped; pausing defers the source, so the
        // tail drain delivers every tuple the profile would ever emit by
        // the final instant it was polled at.
        prop_assert_eq!(stats.shed_tuples, 0);
        prop_assert_eq!(stats.sampled_out, 0);
        prop_assert_eq!(stats.spill_drops, 0);
        prop_assert_eq!(stats.delivered, stats.offered);
        prop_assert!(stats.offered > 0);
        prop_assert!(
            stats.peak_queue_bytes <= credits as u64 * tuple_cost(),
            "queue peak {} over credit cap", stats.peak_queue_bytes
        );
    }

    #[test]
    fn shed_and_sample_account_for_every_drop(
        watermark in 1usize..64,
        keep_1_in_n in 1u32..16,
        period_us in 2_000u64..20_000,
        drain in 1usize..8,
        shed_first in proptest::bool::ANY,
    ) {
        let profile = burst_profile(period_us, 10, 40);
        let policy = if shed_first {
            IntakePolicy::Shed { watermark }
        } else {
            IntakePolicy::Sample { keep_1_in_n }
        };
        let mut spec = FeedSpec::new(FeedConnector::Bursty(profile), policy);
        spec.drain_max = drain;
        let (stats, _) = drive(&spec, 40);
        prop_assert!(stats.offered > 0);
        // Exact accounting: after the tail drain nothing is buffered, so
        // offered splits exactly into delivered + the policy's counters.
        prop_assert_eq!(
            stats.offered,
            stats.delivered + stats.shed_tuples + stats.sampled_out,
        );
        prop_assert!(
            stats.peak_queue_bytes <= policy.queue_cap() as u64 * tuple_cost(),
            "queue peak {} over cap", stats.peak_queue_bytes
        );
    }

    #[test]
    fn spill_ring_respects_its_byte_cap(
        cap_tuples in 1u64..128,
        period_us in 2_000u64..20_000,
        drain in 1usize..8,
    ) {
        let cap_bytes = cap_tuples * tuple_cost();
        let profile = burst_profile(period_us, 10, 40);
        let mut spec = FeedSpec::new(
            FeedConnector::Bursty(profile),
            IntakePolicy::Spill { cap_bytes },
        );
        spec.drain_max = drain;
        let (stats, _) = drive(&spec, 40);
        prop_assert!(stats.peak_spill_bytes <= cap_bytes);
        prop_assert_eq!(
            stats.offered,
            stats.delivered + stats.spill_drops,
        );
    }

    #[test]
    fn intake_is_deterministic_per_spec(
        credits in 1usize..32,
        period_us in 5_000u64..30_000,
        policy_tag in 0u8..4,
    ) {
        let profile = burst_profile(period_us, 10, 30);
        let policy = match policy_tag {
            0 => IntakePolicy::Backpressure { credits },
            1 => IntakePolicy::Shed { watermark: credits },
            2 => IntakePolicy::Sample { keep_1_in_n: 3 },
            _ => IntakePolicy::Spill { cap_bytes: credits as u64 * tuple_cost() },
        };
        let spec = FeedSpec::new(FeedConnector::Bursty(profile), policy);
        prop_assert_eq!(drive(&spec, 30), drive(&spec, 30));
    }
}
