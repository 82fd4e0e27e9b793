//! The Vivaldi spring-relaxation algorithm.
//!
//! Each node maintains a coordinate and a confidence (local error). On each
//! latency sample against a peer, the node moves along the spring force
//! between the two coordinates, weighted by relative confidence. This is the
//! adaptive algorithm from Dabek et al. (constants `ce = cc = 0.25`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A Euclidean network coordinate (milliseconds space).
#[derive(Debug, Clone, PartialEq)]
pub struct Coord(pub Vec<f64>);

impl Coord {
    /// The origin in `dim` dimensions.
    pub fn origin(dim: usize) -> Self {
        Coord(vec![0.0; dim])
    }

    /// Dimensionality of the coordinate.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Euclidean distance to `other` (predicted latency, ms).
    pub fn dist(&self, other: &Coord) -> f64 {
        debug_assert_eq!(self.0.len(), other.0.len(), "coordinate dims differ");
        self.0.iter().zip(&other.0).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    fn sub(&self, other: &Coord) -> Coord {
        Coord(self.0.iter().zip(&other.0).map(|(a, b)| a - b).collect())
    }

    fn add_scaled(&mut self, dir: &Coord, s: f64) {
        for (a, d) in self.0.iter_mut().zip(&dir.0) {
            *a += d * s;
        }
    }

    fn norm(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Unit vector toward `self − other`; random direction if coincident.
    fn unit_from<R: Rng + ?Sized>(&self, other: &Coord, rng: &mut R) -> Coord {
        let mut d = self.sub(other);
        let n = d.norm();
        if n < 1e-9 {
            for v in &mut d.0 {
                *v = rng.gen::<f64>() - 0.5;
            }
            let n2 = d.norm().max(1e-9);
            for v in &mut d.0 {
                *v /= n2;
            }
            d
        } else {
            for v in &mut d.0 {
                *v /= n;
            }
            d
        }
    }
}

/// Tunables for the Vivaldi update rule.
#[derive(Debug, Clone, Copy)]
pub struct VivaldiConfig {
    /// Error-adaptation constant (`ce`).
    pub ce: f64,
    /// Coordinate-adaptation constant (`cc`).
    pub cc: f64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        Self { ce: 0.25, cc: 0.25 }
    }
}

/// One node's Vivaldi state.
#[derive(Debug, Clone)]
pub struct VivaldiNode {
    /// Current coordinate.
    pub coord: Coord,
    /// Local error estimate in `[0, 1]` (1 = no confidence).
    pub error: f64,
}

impl VivaldiNode {
    /// A fresh node at the origin with maximal error.
    pub fn new(dim: usize) -> Self {
        Self { coord: Coord::origin(dim), error: 1.0 }
    }

    /// Applies one latency sample `rtt_ms` against a peer's state.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        cfg: &VivaldiConfig,
        peer_coord: &Coord,
        peer_error: f64,
        rtt_ms: f64,
        rng: &mut R,
    ) {
        if rtt_ms <= 0.0 {
            return;
        }
        let w = if self.error + peer_error > 0.0 {
            self.error / (self.error + peer_error)
        } else {
            0.5
        };
        let dist = self.coord.dist(peer_coord);
        let es = (dist - rtt_ms).abs() / rtt_ms;
        self.error = (es * cfg.ce * w + self.error * (1.0 - cfg.ce * w)).clamp(0.0, 2.0);
        let delta = cfg.cc * w;
        let dir = self.coord.unit_from(peer_coord, rng);
        self.coord.add_scaled(&dir, delta * (rtt_ms - dist));
    }
}

/// A whole system of Vivaldi nodes driven from a latency function.
///
/// The Mortar evaluation runs "Vivaldi for at least ten rounds before
/// interconnecting operators" (Section 7.3); [`VivaldiSystem::round`] is one
/// such round (every node samples `k` random peers). `lat_ms(i, j)` is the
/// measured latency from node `i` to node `j` in milliseconds; a round asks
/// it only for the pairs it samples, so no n² structure is needed.
#[derive(Debug)]
pub struct VivaldiSystem {
    cfg: VivaldiConfig,
    nodes: Vec<VivaldiNode>,
    rng: SmallRng,
}

impl VivaldiSystem {
    /// Creates `n` nodes with `dim`-dimensional coordinates.
    pub fn new(n: usize, dim: usize, seed: u64) -> Self {
        Self {
            cfg: VivaldiConfig::default(),
            nodes: (0..n).map(|_| VivaldiNode::new(dim)).collect(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// One round: every node samples `k` random distinct peers.
    pub fn round(&mut self, lat_ms: impl Fn(usize, usize) -> f64, k: usize) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            for _ in 0..k {
                let mut j = self.rng.gen_range(0..n);
                while j == i {
                    j = self.rng.gen_range(0..n);
                }
                let (pc, pe) = (self.nodes[j].coord.clone(), self.nodes[j].error);
                self.nodes[i].observe(&self.cfg, &pc, pe, lat_ms(i, j), &mut self.rng);
            }
        }
    }

    /// Runs `rounds` rounds of `k` samples each.
    pub fn run(&mut self, lat_ms: impl Fn(usize, usize) -> f64, rounds: usize, k: usize) {
        for _ in 0..rounds {
            self.round(&lat_ms, k);
        }
    }

    /// The current coordinates, one row per node (planner input).
    pub fn coords(&self) -> Vec<Vec<f64>> {
        self.nodes.iter().map(|n| n.coord.0.clone()).collect()
    }

    /// Mean relative embedding error over every pair `i < j` with a
    /// positive latency (quality metric).
    pub fn mean_relative_error(&self, lat_ms: impl Fn(usize, usize) -> f64) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for (i, a) in self.nodes.iter().enumerate() {
            for (j, b) in self.nodes.iter().enumerate().skip(i + 1) {
                let actual = lat_ms(i, j);
                if actual <= 0.0 {
                    continue;
                }
                sum += (a.coord.dist(&b.coord) - actual).abs() / actual;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nodes on a line, `step` ms apart.
    fn line(step: f64) -> impl Fn(usize, usize) -> f64 {
        move |i, j| i.abs_diff(j) as f64 * step
    }

    #[test]
    fn coord_distance() {
        let a = Coord(vec![0.0, 3.0]);
        let b = Coord(vec![4.0, 0.0]);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn observe_moves_toward_target_distance() {
        let cfg = VivaldiConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut n = VivaldiNode::new(2);
        let peer = Coord(vec![10.0, 0.0]);
        for _ in 0..200 {
            n.observe(&cfg, &peer, 0.5, 25.0, &mut rng);
        }
        let d = n.coord.dist(&peer);
        assert!((d - 25.0).abs() < 5.0, "converged distance {d}");
    }

    #[test]
    fn error_decreases_with_consistent_samples() {
        let cfg = VivaldiConfig::default();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut n = VivaldiNode::new(3);
        let peer = Coord(vec![5.0, 5.0, 5.0]);
        for _ in 0..100 {
            n.observe(&cfg, &peer, 0.2, n.coord.dist(&peer).max(1.0), &mut rng);
        }
        assert!(n.error < 0.5, "error {}", n.error);
    }

    #[test]
    fn system_embeds_line_topology() {
        let mut sys = VivaldiSystem::new(10, 3, 7);
        sys.run(line(8.0), 60, 3);
        assert!(sys.mean_relative_error(line(8.0)) < 0.3);
    }

    #[test]
    fn zero_rtt_sample_is_ignored() {
        let cfg = VivaldiConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut n = VivaldiNode::new(2);
        let before = n.coord.clone();
        n.observe(&cfg, &Coord(vec![1.0, 1.0]), 0.5, 0.0, &mut rng);
        assert_eq!(n.coord, before);
    }

    #[test]
    fn coincident_coords_separate() {
        let cfg = VivaldiConfig::default();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut a = VivaldiNode::new(3);
        let b = VivaldiNode::new(3);
        a.observe(&cfg, &b.coord, 1.0, 10.0, &mut rng);
        assert!(a.coord.norm() > 0.0, "random kick applied");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = VivaldiSystem::new(6, 3, 99);
            s.run(line(5.0), 10, 2);
            s.coords()
        };
        assert_eq!(run(), run());
    }
}
