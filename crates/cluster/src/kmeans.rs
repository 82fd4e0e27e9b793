//! Lloyd's algorithm with k-means++ seeding.

use crate::{dist2, dist2_each, first_min, Point};
use rand::Rng;

/// Centroids per assignment tile: one pass over a point's row feeds this
/// many distances.
const LANES: usize = 16;

/// Result of a clustering run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centers.
    pub centroids: Vec<Point>,
    /// Number of clusters actually produced (≤ requested `k`).
    pub k: usize,
}

impl Clustering {
    /// Indices of the points in cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments.iter().enumerate().filter_map(|(i, &a)| (a == c).then_some(i)).collect()
    }

    /// Total within-cluster sum of squared distances.
    pub fn inertia<P: AsRef<[f64]>>(&self, points: &[P]) -> f64 {
        points
            .iter()
            .zip(&self.assignments)
            .map(|(p, &a)| dist2(p.as_ref(), &self.centroids[a]))
            .sum()
    }
}

/// k-means++ initial centroid selection.
fn seed_centroids<P: AsRef<[f64]>, R: Rng + ?Sized>(
    points: &[P],
    k: usize,
    rng: &mut R,
) -> Vec<Point> {
    let mut centroids: Vec<Point> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].as_ref().to_vec());
    let mut d2 = vec![0.0; points.len()];
    dist2_each(points, &centroids[0], &mut d2);
    let mut fresh = vec![0.0; points.len()];
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with existing centroids; pick arbitrarily.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = points.len() - 1;
            for (i, w) in d2.iter().enumerate() {
                if target <= *w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.push(points[next].as_ref().to_vec());
        if centroids.len() < k {
            dist2_each(points, &centroids[centroids.len() - 1], &mut fresh);
            for (d, f) in d2.iter_mut().zip(&fresh) {
                *d = d.min(*f);
            }
        }
    }
    centroids
}

/// Lays `centroids` out as tiles of [`LANES`] centroids, each tile a
/// `dim × LANES` block holding centroid `t·LANES + l`'s coordinate `j` at
/// `[j][l]`. Lanes past the last centroid are zero and never read back.
fn transpose(centroids: &[Point], dim: usize, tiles: &mut Vec<[f64; LANES]>) {
    tiles.clear();
    tiles.resize(centroids.len().div_ceil(LANES) * dim, [0.0; LANES]);
    for (c, row) in centroids.iter().enumerate() {
        let tile = &mut tiles[c / LANES * dim..][..dim];
        for (t, &x) in tile.iter_mut().zip(row) {
            t[c % LANES] = x;
        }
    }
}

/// `dist2(p, centroid)` for every centroid of one tile, bit for bit: each
/// lane sums its terms in index order from `-0.0`, as `dist2` does.
fn tile_dist2(p: &[f64], tile: &[[f64; LANES]]) -> [f64; LANES] {
    let mut acc = [-0.0f64; LANES];
    for (&x, c) in p.iter().zip(tile) {
        for (a, &y) in acc.iter_mut().zip(c) {
            let d = x - y;
            *a += d * d;
        }
    }
    acc
}

/// Clusters `points` into at most `k` groups.
///
/// Returns fewer than `k` clusters if there are fewer distinct points.
/// Empty clusters arising during iteration are re-seeded from the point
/// farthest from its centroid, so the output never contains empty clusters.
/// Each point joins the first of its nearest centroids.
pub fn kmeans<P: AsRef<[f64]>, R: Rng + ?Sized>(
    points: &[P],
    k: usize,
    max_iter: usize,
    rng: &mut R,
) -> Clustering {
    assert!(!points.is_empty(), "kmeans requires at least one point");
    let k = k.clamp(1, points.len());
    let dim = points[0].as_ref().len();
    let mut centroids = seed_centroids(points, k, rng);
    let mut assignments = vec![0usize; points.len()];
    let mut tiles = Vec::new();
    let mut dists = vec![0.0; k.div_ceil(LANES) * LANES];
    for _ in 0..max_iter {
        let mut changed = false;
        transpose(&centroids, dim, &mut tiles);
        for (i, p) in points.iter().enumerate() {
            let p = p.as_ref();
            for (t, out) in dists.chunks_exact_mut(LANES).enumerate() {
                out.copy_from_slice(&tile_dist2(p, &tiles[t * dim..][..dim]));
            }
            let best = first_min(&dists[..k]).expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Recompute centroids; re-seed empties from the worst-fit point.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p.as_ref()) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = (0..points.len())
                    .max_by(|&a, &b| {
                        dist2(points[a].as_ref(), &centroids[assignments[a]])
                            .partial_cmp(&dist2(points[b].as_ref(), &centroids[assignments[b]]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("points nonempty");
                centroids[c] = points[far].as_ref().to_vec();
                assignments[far] = c;
                changed = true;
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Clustering { assignments, centroids, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_blobs() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![100.0 + i as f64 * 0.01, 0.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let mut rng = SmallRng::seed_from_u64(5);
        let c = kmeans(&pts, 2, 100, &mut rng);
        assert_eq!(c.k, 2);
        // Points 0,2,4.. are one blob (even indices), 1,3,5.. the other.
        let a0 = c.assignments[0];
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(c.assignments[i], a0);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_ne!(c.assignments[i], a0);
        }
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let mut rng = SmallRng::seed_from_u64(1);
        let c = kmeans(&pts, 10, 10, &mut rng);
        assert!(c.k <= 2);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let mut rng = SmallRng::seed_from_u64(1);
        let c = kmeans(&pts, 1, 10, &mut rng);
        assert!((c.centroids[0][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_empty_clusters() {
        let pts = two_blobs();
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let c = kmeans(&pts, 4, 50, &mut rng);
            for cl in 0..c.k {
                assert!(!c.members(cl).is_empty(), "cluster {cl} empty (seed {seed})");
            }
        }
    }

    #[test]
    fn identical_points_dont_panic() {
        let pts = vec![vec![3.0, 3.0]; 8];
        let mut rng = SmallRng::seed_from_u64(2);
        let c = kmeans(&pts, 3, 20, &mut rng);
        assert_eq!(c.assignments.len(), 8);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs();
        let mut rng = SmallRng::seed_from_u64(8);
        let c1 = kmeans(&pts, 1, 100, &mut rng);
        let c2 = kmeans(&pts, 2, 100, &mut rng);
        assert!(c2.inertia(&pts) < c1.inertia(&pts));
    }
}
