//! Seeded input generators. The program under test receives only what
//! these produce; the same seed gives byte-identical inputs on every
//! commit, so the generator owns its PRNG instead of borrowing the
//! workspace's `rand` shim (whose stream a later change may alter).

use crate::stats::Fnv;

/// SplitMix64: small, fast, and fixed here for good.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// A stream for `(seed, lane)`: lanes keep the per-host traces and the
    /// churn schedule independent of one another.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut p = Prng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        p.next_u64();
        p
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁵⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Key classes of the keyed workload.
pub const KEY_CLASSES: usize = 64;

/// Zipf(1) over `KEY_CLASSES` classes: class `k` has weight `1 / (k + 1)`.
pub struct Zipf {
    cdf: [f64; KEY_CLASSES],
}

impl Default for Zipf {
    fn default() -> Self {
        let mut cdf = [0.0; KEY_CLASSES];
        let mut acc = 0.0;
        for (k, slot) in cdf.iter_mut().enumerate() {
            acc += 1.0 / (k + 1) as f64;
            *slot = acc;
        }
        for slot in &mut cdf {
            *slot /= acc;
        }
        Self { cdf }
    }
}

impl Zipf {
    pub fn sample(&self, rng: &mut Prng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(KEY_CLASSES - 1) as u64
    }
}

/// One host's key trace: the key class of the tuple it emits in each of
/// `steps` consecutive slides.
pub fn key_trace(seed: u64, host: u32, steps: usize) -> Vec<u64> {
    let zipf = Zipf::default();
    let mut rng = Prng::new(seed, 0x1000 + host as u64);
    (0..steps).map(|_| zipf.sample(&mut rng)).collect()
}

/// What the churn workload does to the fleet at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Install query `c<q>` over `members` (root first) at `slide_ms`.
    Install {
        q: u32,
        members: Vec<u32>,
        slide_ms: u32,
    },
    /// Remove query `c<q>` (installed earlier, rooted at `root`).
    Remove {
        q: u32,
        root: u32,
    },
    Disconnect {
        hosts: Vec<u32>,
    },
    Reconnect {
        hosts: Vec<u32>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Offset from the start of the timed region, ms.
    pub at_ms: u64,
    pub op: ChurnOp,
}

/// Shape of the churn schedule; the workload's constants, kept in one
/// place so the README table and the generator cannot drift apart.
pub struct ChurnShape {
    pub hosts: u32,
    /// Hosts that root a base query and so are never disconnected.
    pub protected: Vec<u32>,
    pub install_every_s: u64,
    pub installs_per_round: u32,
    pub max_live: usize,
    pub members_min: u32,
    pub members_max: u32,
    pub disconnect_every_s: u64,
    /// Offset of each disconnect inside its period, so faults never land
    /// on the instant of an install round.
    pub disconnect_phase_s: u64,
    pub disconnect_hosts: usize,
    pub disconnect_for_s: u64,
}

/// The full schedule for `duration_s` simulated seconds, in time order.
/// The generator tracks which hosts are up and which root a live query by
/// itself, so the schedule is a pure function of `(seed, shape, duration)`
/// and never consults the engine.
pub fn churn_schedule(seed: u64, shape: &ChurnShape, duration_s: u64) -> Vec<ChurnEvent> {
    let mut rng = Prng::new(seed, 0x2000);
    let mut up = vec![true; shape.hosts as usize];
    // (query index, root), oldest first.
    let mut live: std::collections::VecDeque<(u32, u32)> = Default::default();
    let mut pending_reconnect: Option<(u64, Vec<u32>)> = None;
    let mut next_q = 0u32;
    let mut events = Vec::new();
    for t in 0..duration_s {
        let at_ms = t * 1000;
        if pending_reconnect.as_ref().is_some_and(|(due, _)| *due == t) {
            let (_, hosts) = pending_reconnect.take().expect("checked");
            for &h in &hosts {
                up[h as usize] = true;
            }
            events.push(ChurnEvent { at_ms, op: ChurnOp::Reconnect { hosts } });
        }
        if t % shape.install_every_s == 0 {
            for _ in 0..shape.installs_per_round {
                let span = (shape.members_max - shape.members_min + 1) as u64;
                let size = shape.members_min + rng.below(span) as u32;
                let mut pool: Vec<u32> = (0..shape.hosts).collect();
                rng.shuffle(&mut pool);
                // The root must be reachable now; the other members may be
                // down (they join through reconciliation when they return).
                let root_at = pool.iter().position(|&h| up[h as usize]).expect("some host is up");
                pool.swap(0, root_at);
                pool.truncate(size as usize);
                let slide_ms = if rng.below(2) == 0 { 1000 } else { 5000 };
                live.push_back((next_q, pool[0]));
                events.push(ChurnEvent {
                    at_ms,
                    op: ChurnOp::Install { q: next_q, members: pool, slide_ms },
                });
                next_q += 1;
            }
            while live.len() > shape.max_live {
                let (q, root) = live.pop_front().expect("non-empty");
                events.push(ChurnEvent { at_ms, op: ChurnOp::Remove { q, root } });
            }
        }
        if t % shape.disconnect_every_s == shape.disconnect_phase_s {
            let mut pool: Vec<u32> = (0..shape.hosts)
                .filter(|h| {
                    up[*h as usize]
                        && !shape.protected.contains(h)
                        && !live.iter().any(|&(_, root)| root == *h)
                })
                .collect();
            rng.shuffle(&mut pool);
            pool.truncate(shape.disconnect_hosts);
            pool.sort_unstable();
            for &h in &pool {
                up[h as usize] = false;
            }
            pending_reconnect = Some((t + shape.disconnect_for_s, pool.clone()));
            events.push(ChurnEvent { at_ms, op: ChurnOp::Disconnect { hosts: pool } });
        }
    }
    events
}

/// A byte-level digest of generated inputs, printed with each run so two
/// runs can be seen to have measured the same thing.
pub fn schedule_digest(events: &[ChurnEvent]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(format!("{events:?}").as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::workload::churn_shape as shape;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = churn_schedule(13, &shape(), 300);
        let b = churn_schedule(13, &shape(), 300);
        assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        assert_eq!(key_trace(13, 7, 10_000), key_trace(13, 7, 10_000));
    }

    #[test]
    fn seeds_13_and_14_differ() {
        assert_ne!(churn_schedule(13, &shape(), 300), churn_schedule(14, &shape(), 300));
        assert_ne!(key_trace(13, 7, 1000), key_trace(14, 7, 1000));
        // Hosts draw from independent lanes of one seed.
        assert_ne!(key_trace(13, 7, 1000), key_trace(13, 8, 1000));
    }

    #[test]
    fn a_longer_schedule_extends_a_shorter_one() {
        // Scaling the run length must not reshuffle what came before.
        let short = churn_schedule(13, &shape(), 120);
        let long = churn_schedule(13, &shape(), 300);
        assert_eq!(short[..], long[..short.len()]);
    }

    #[test]
    fn schedule_respects_its_shape() {
        let s = shape();
        let events = churn_schedule(13, &s, 600);
        let mut up = vec![true; s.hosts as usize];
        let mut live: Vec<(u32, u32)> = Vec::new();
        let (mut installs, mut removes) = (0, 0);
        let mut last = 0;
        for e in &events {
            assert!(e.at_ms >= last, "time order");
            last = e.at_ms;
            match &e.op {
                ChurnOp::Install { q, members, slide_ms } => {
                    installs += 1;
                    assert!((20..=60).contains(&members.len()));
                    assert!(up[members[0] as usize], "root is up at install");
                    let mut m = members.clone();
                    m.sort_unstable();
                    m.dedup();
                    assert_eq!(m.len(), members.len(), "members are distinct");
                    assert!([1000, 5000].contains(slide_ms));
                    live.push((*q, members[0]));
                }
                ChurnOp::Remove { q, root } => {
                    removes += 1;
                    assert_eq!(live.remove(0), (*q, *root), "oldest first, same root");
                }
                ChurnOp::Disconnect { hosts } => {
                    assert_eq!(hosts.len(), 10);
                    for h in hosts {
                        assert!(up[*h as usize] && *h != 0);
                        assert!(!live.iter().any(|&(_, r)| r == *h), "roots stay up");
                        up[*h as usize] = false;
                    }
                }
                ChurnOp::Reconnect { hosts } => {
                    for h in hosts {
                        assert!(!up[*h as usize]);
                        up[*h as usize] = true;
                    }
                }
            }
            assert!(live.len() <= 25 + 5);
        }
        assert_eq!(installs, 300);
        assert_eq!(removes, 275);
    }

    #[test]
    fn zipf_is_skewed_towards_low_classes() {
        let trace = key_trace(13, 0, 64_000);
        let mut counts = [0u32; KEY_CLASSES];
        for k in trace {
            counts[k as usize] += 1;
        }
        // H(64) ≈ 4.744: class 0 expects 64000/4.744 ≈ 13490, class 63 ≈ 211.
        assert!((12_500..14_500).contains(&counts[0]), "class 0: {}", counts[0]);
        assert!((120..320).contains(&counts[63]), "class 63: {}", counts[63]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
