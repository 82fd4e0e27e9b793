//! Network topologies.
//!
//! The paper's ModelNet experiments use an Inet-generated transit–stub
//! topology: 34 stub routers, 680 end hosts uniformly distributed across the
//! stubs, 100 Mbps links, and per-link-type latencies (host–stub 1 ms,
//! stub–stub 2 ms, stub–transit 10 ms, transit–transit 20 ms; longest
//! host-to-host delay 104 ms). [`Topology::transit_stub`] reproduces that
//! structure; [`Topology::star`] models the Wi-Fi experiment's 1 ms star.
//!
//! Host-to-host latency and physical hop counts are derived from an
//! all-pairs shortest path over the (small) router graph, so lookups during
//! simulation are O(1).

use crate::time::{TimeUs, MS};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters for an Inet-like transit–stub topology.
#[derive(Debug, Clone)]
pub struct TransitStubConfig {
    /// Number of transit (backbone) routers, connected in a ring with chords.
    pub transit_routers: usize,
    /// Number of stub routers, each attached to one transit router.
    pub stub_routers: usize,
    /// Number of end hosts, distributed uniformly across stubs.
    pub hosts: usize,
    /// Latency of a host's access link to its stub, microseconds.
    pub host_stub_us: u64,
    /// Latency of direct stub–stub shortcut links, microseconds.
    pub stub_stub_us: u64,
    /// Latency of a stub's uplink to its transit router, microseconds.
    pub stub_transit_us: u64,
    /// Latency of transit–transit backbone links, microseconds.
    pub transit_transit_us: u64,
    /// Number of random stub–stub shortcut edges.
    pub stub_shortcuts: usize,
    /// Per-link latency heterogeneity: each link's latency is multiplied by
    /// a uniform factor in `[1 − jitter, 1 + jitter]` (Inet-generated
    /// topologies have strongly varied link latencies; 0 = homogeneous).
    pub latency_jitter: f64,
    /// RNG seed for stub/transit attachment and host placement.
    pub seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        // The paper's evaluation topology (Section 7).
        Self {
            transit_routers: 8,
            stub_routers: 34,
            hosts: 680,
            host_stub_us: MS,
            stub_stub_us: 2 * MS,
            stub_transit_us: 10 * MS,
            transit_transit_us: 20 * MS,
            stub_shortcuts: 10,
            latency_jitter: 0.6,
            seed: 2008,
        }
    }
}

/// Parameters for a star topology (all hosts behind a single hub router).
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Number of end hosts.
    pub hosts: usize,
    /// One-way latency of each host's link to the hub, microseconds.
    pub link_us: u64,
}

/// A fixed network topology mapping host pairs to latency and hop counts.
#[derive(Debug, Clone)]
pub struct Topology {
    hosts: usize,
    /// Stub router id of each host.
    host_stub: Vec<u16>,
    /// Per-host access-link latency, microseconds.
    host_link_us: Vec<u64>,
    /// Stub-to-stub latency matrix, microseconds (row-major, S×S).
    stub_lat: Vec<u64>,
    /// Stub-to-stub physical hop counts (row-major, S×S).
    stub_hops: Vec<u16>,
    stubs: usize,
}

impl Topology {
    /// Builds a transit–stub topology per `cfg`.
    pub fn transit_stub(cfg: &TransitStubConfig) -> Self {
        assert!(cfg.transit_routers >= 1, "need at least one transit router");
        assert!(cfg.stub_routers >= 1, "need at least one stub router");
        assert!((0.0..1.0).contains(&cfg.latency_jitter), "jitter must be in [0, 1)");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let t = cfg.transit_routers;
        let s = cfg.stub_routers;
        let routers = t + s; // Transit routers first, then stubs.
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); routers];
        let j = cfg.latency_jitter;
        let jittered = |rng: &mut SmallRng, w: u64| -> u64 {
            if j == 0.0 {
                w
            } else {
                let f = 1.0 - j + 2.0 * j * rng.gen::<f64>();
                ((w as f64) * f).round().max(1.0) as u64
            }
        };
        let add = |adj: &mut Vec<Vec<(usize, u64)>>, a: usize, b: usize, w: u64| {
            adj[a].push((b, w));
            adj[b].push((a, w));
        };
        // Transit backbone: ring plus chords halfway across for path diversity.
        for i in 0..t {
            if t > 1 {
                let w = jittered(&mut rng, cfg.transit_transit_us);
                add(&mut adj, i, (i + 1) % t, w);
            }
            if t > 3 {
                let w = jittered(&mut rng, cfg.transit_transit_us);
                add(&mut adj, i, (i + t / 2) % t, w);
            }
        }
        // Each stub attaches to a random transit router.
        for jx in 0..s {
            let tr = rng.gen_range(0..t);
            let w = jittered(&mut rng, cfg.stub_transit_us);
            add(&mut adj, t + jx, tr, w);
        }
        // Random stub–stub shortcuts.
        for _ in 0..cfg.stub_shortcuts {
            if s >= 2 {
                let a = rng.gen_range(0..s);
                let mut b = rng.gen_range(0..s);
                while b == a {
                    b = rng.gen_range(0..s);
                }
                let w = jittered(&mut rng, cfg.stub_stub_us);
                add(&mut adj, t + a, t + b, w);
            }
        }
        // All-pairs shortest paths between stub routers (Dijkstra per stub;
        // the router graph is tiny so this is negligible).
        let mut stub_lat = vec![u64::MAX; s * s];
        let mut stub_hops = vec![u16::MAX; s * s];
        for src in 0..s {
            let (dist, hops) = dijkstra(&adj, t + src);
            for dst in 0..s {
                stub_lat[src * s + dst] = dist[t + dst];
                stub_hops[src * s + dst] = hops[t + dst];
            }
        }
        // Hosts uniformly distributed across the stubs.
        let mut host_stub: Vec<u16> = (0..cfg.hosts).map(|h| (h % s) as u16).collect();
        host_stub.shuffle(&mut rng);
        let host_link_us: Vec<u64> =
            (0..cfg.hosts).map(|_| jittered(&mut rng, cfg.host_stub_us)).collect();
        Self { hosts: cfg.hosts, host_stub, host_link_us, stub_lat, stub_hops, stubs: s }
    }

    /// Builds the default paper topology with the given host count.
    pub fn paper_inet(hosts: usize, seed: u64) -> Self {
        Self::transit_stub(&TransitStubConfig { hosts, seed, ..TransitStubConfig::default() })
    }

    /// Builds a star: every host hangs off one hub with `link_us` latency.
    pub fn star(hosts: usize, link_us: u64) -> Self {
        Self {
            hosts,
            host_stub: vec![0; hosts],
            host_link_us: vec![link_us; hosts],
            stub_lat: vec![0],
            stub_hops: vec![0],
            stubs: 1,
        }
    }

    /// Number of end hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// One-way latency between two hosts, microseconds.
    pub fn latency_us(&self, a: NodeId, b: NodeId) -> TimeUs {
        if a == b {
            return 50; // Loopback delivery cost.
        }
        let sa = self.host_stub[a as usize] as usize;
        let sb = self.host_stub[b as usize] as usize;
        let mid = if sa == sb { 0 } else { self.stub_lat[sa * self.stubs + sb] };
        self.host_link_us[a as usize] + self.host_link_us[b as usize] + mid
    }

    /// Number of physical links a message between the hosts traverses.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let sa = self.host_stub[a as usize] as usize;
        let sb = self.host_stub[b as usize] as usize;
        let mid = if sa == sb { 0 } else { self.stub_hops[sa * self.stubs + sb] as u32 };
        2 + mid
    }

    /// Minimum one-way latency across all *distinct* host pairs — the
    /// conservative lookahead bound for multi-shard runs: no message
    /// between two different hosts can arrive sooner than this, whatever
    /// the shard layout, so it is safe (and shard-count-independent) as the
    /// width of a conservative time window. Loopback (a == b) is excluded
    /// because a host always shares a shard with itself. Returns `u64::MAX`
    /// when fewer than two hosts exist.
    pub fn min_latency_us(&self) -> TimeUs {
        let s = self.stubs;
        // Smallest and second-smallest access link per stub: the global
        // minimum is either two hosts on one stub (their two links) or the
        // cheapest host of two stubs plus the stub-to-stub path, so only
        // per-stub minima matter — O(hosts + stubs²), not O(hosts²).
        let mut min1 = vec![u64::MAX; s];
        let mut min2 = vec![u64::MAX; s];
        for h in 0..self.hosts {
            let st = self.host_stub[h] as usize;
            let l = self.host_link_us[h];
            if l < min1[st] {
                min2[st] = min1[st];
                min1[st] = l;
            } else if l < min2[st] {
                min2[st] = l;
            }
        }
        let mut best = u64::MAX;
        for a in 0..s {
            if min2[a] != u64::MAX {
                best = best.min(min1[a] + min2[a]);
            }
            for b in 0..s {
                if a != b && min1[a] != u64::MAX && min1[b] != u64::MAX {
                    best = best.min(
                        min1[a].saturating_add(min1[b]).saturating_add(self.stub_lat[a * s + b]),
                    );
                }
            }
        }
        best
    }

    /// Maximum one-way latency across all host pairs (diagnostic).
    pub fn max_latency_us(&self) -> TimeUs {
        let mut max = 0;
        for a in 0..self.stubs {
            for b in 0..self.stubs {
                max = max.max(self.stub_lat[a * self.stubs + b]);
            }
        }
        let worst_link = self.host_link_us.iter().copied().max().unwrap_or(0);
        max + 2 * worst_link
    }

    /// A full host-to-host latency matrix in milliseconds (planner input).
    pub fn latency_matrix_ms(&self) -> Vec<Vec<f64>> {
        (0..self.hosts as NodeId)
            .map(|a| {
                (0..self.hosts as NodeId)
                    .map(|b| if a == b { 0.0 } else { self.latency_us(a, b) as f64 / MS as f64 })
                    .collect()
            })
            .collect()
    }
}

/// Dijkstra over the router graph; returns (distance, hop count) per router.
fn dijkstra(adj: &[Vec<(usize, u64)>], src: usize) -> (Vec<u64>, Vec<u16>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = adj.len();
    let mut dist = vec![u64::MAX; n];
    let mut hops = vec![u16::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    hops[src] = 0;
    heap.push(Reverse((0u64, 0u16, src)));
    while let Some(Reverse((d, h, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] || (nd == dist[v] && h + 1 < hops[v]) {
                dist[v] = nd;
                hops[v] = h + 1;
                heap.push(Reverse((nd, h + 1, v)));
            }
        }
    }
    (dist, hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_latency_is_two_links() {
        let t = Topology::star(10, 1_000);
        assert_eq!(t.latency_us(0, 5), 2_000);
        assert_eq!(t.hops(0, 5), 2);
        assert_eq!(t.hops(3, 3), 0);
    }

    #[test]
    fn transit_stub_is_connected_and_symmetric() {
        let t = Topology::paper_inet(100, 1);
        for a in 0..100u32 {
            let b = (a * 7 + 13) % 100;
            let l = t.latency_us(a, b);
            assert!(l < u64::MAX / 2, "disconnected pair {a},{b}");
            assert_eq!(l, t.latency_us(b, a));
            if a != b {
                // Two access links at worst-case downward jitter (0.4x).
                assert!(l >= 750, "at least two host links: {l}");
            }
        }
    }

    #[test]
    fn paper_scale_latency_bound() {
        // The paper quotes a 104 ms max one-way delay; our generator should
        // land in the same regime (tens of ms, not seconds).
        let t = Topology::paper_inet(680, 2008);
        let max = t.max_latency_us();
        assert!(max > 20_000 && max < 200_000, "max latency {max}us");
    }

    #[test]
    fn same_stub_hosts_are_close() {
        let t = Topology::paper_inet(680, 3);
        // Two hosts on the same stub communicate over just their access
        // links (well under 5 ms even with jitter).
        let mut found = false;
        'outer: for a in 0..680u32 {
            for b in (a + 1)..680u32 {
                if t.latency_us(a, b) < 4_000 {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "expected at least one same-stub pair");
    }

    #[test]
    fn min_latency_matches_exhaustive_search() {
        for seed in [1, 7, 2008] {
            let t = Topology::paper_inet(120, seed);
            let mut brute = u64::MAX;
            for a in 0..120u32 {
                for b in 0..120u32 {
                    if a != b {
                        brute = brute.min(t.latency_us(a, b));
                    }
                }
            }
            assert_eq!(t.min_latency_us(), brute, "seed {seed}");
        }
        let star = Topology::star(6, 1_000);
        assert_eq!(star.min_latency_us(), 2_000);
        assert_eq!(Topology::star(1, 1_000).min_latency_us(), u64::MAX);
    }

    #[test]
    fn latency_matrix_shape() {
        let t = Topology::star(5, 500);
        let m = t.latency_matrix_ms();
        assert_eq!(m.len(), 5);
        assert_eq!(m[0].len(), 5);
        assert_eq!(m[2][2], 0.0);
        assert!((m[0][1] - 1.0).abs() < 1e-9);
    }
}
