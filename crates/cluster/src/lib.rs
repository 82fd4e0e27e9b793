//! K-means and X-means clustering.
//!
//! Mortar's planner "invokes a clustering algorithm that builds full trees
//! with a particular branching factor", using X-means (Pelleg & Moore, ICML
//! 2000) to cluster network coordinates (Section 3.1 / Section 7). This crate
//! implements Lloyd's k-means with k-means++ seeding and X-means with
//! BIC-scored cluster splitting.
//!
//! # Examples
//!
//! ```
//! use mortar_cluster::{kmeans, Point};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let pts: Vec<Point> = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.2], vec![0.2, 0.1],
//!     vec![9.0, 9.0], vec![9.1, 8.8], vec![8.8, 9.2],
//! ];
//! let mut rng = SmallRng::seed_from_u64(1);
//! let c = kmeans(&pts, 2, 50, &mut rng);
//! assert_eq!(c.k, 2);
//! assert_eq!(c.assignments[0], c.assignments[1]);
//! assert_ne!(c.assignments[0], c.assignments[3]);
//! ```

pub mod bic;
pub mod kmeans;
pub mod xmeans;

pub use bic::bic_score;
pub use kmeans::{kmeans, Clustering};
pub use xmeans::{xmeans, XMeansConfig};

/// A point in coordinate space (row of the dataset).
pub type Point = Vec<f64>;

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "point dims differ");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Writes `dist2(rows[i], target)` into `out[i]` for every row, bit for bit.
///
/// Four rows share each pass over `target`, each summing its terms into its
/// own accumulator in index order from `-0.0` (the start of
/// [`Iterator::sum`]), so the four chains of additions overlap without any
/// sum being reordered.
pub fn dist2_each<P: AsRef<[f64]>>(rows: &[P], target: &[f64], out: &mut [f64]) {
    assert_eq!(rows.len(), out.len(), "one output per row");
    let dim = target.len();
    let mut quads = rows.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).zip(&mut outs) {
        debug_assert!(q.iter().all(|r| r.as_ref().len() == dim), "point dims differ");
        let [r0, r1, r2, r3]: [&[f64]; 4] = std::array::from_fn(|i| &q[i].as_ref()[..dim]);
        let mut acc = [-0.0f64; 4];
        for (j, &t) in target.iter().enumerate() {
            let d = [r0[j] - t, r1[j] - t, r2[j] - t, r3[j] - t];
            for (a, d) in acc.iter_mut().zip(d) {
                *a += d * d;
            }
        }
        o.copy_from_slice(&acc);
    }
    for (r, o) in quads.remainder().iter().zip(outs.into_remainder()) {
        *o = dist2(r.as_ref(), target);
    }
}

/// Index of the first minimum of `d` under a strict `<`, NaN never winning
/// a comparison — the element `min_by` with `partial_cmp` picks when
/// incomparable pairs count as equal.
pub(crate) fn first_min(d: &[f64]) -> Option<usize> {
    let (&first, rest) = d.split_first()?;
    let mut best = (0, first);
    for (i, &x) in rest.iter().enumerate() {
        if x < best.1 {
            best = (i + 1, x);
        }
    }
    Some(best.0)
}

/// Index (within `candidates`) of the candidate point nearest to `target`;
/// the first one on ties.
///
/// The planner uses this to place an operator on the *actual peer* closest to
/// a cluster centroid.
pub fn nearest_to<P: AsRef<[f64]>>(candidates: &[P], target: &[f64]) -> Option<usize> {
    let mut d = vec![0.0; candidates.len()];
    dist2_each(candidates, target, &mut d);
    first_min(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_is_squared_euclidean() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn nearest_to_picks_closest() {
        let pts = vec![vec![0.0], vec![5.0], vec![9.0]];
        assert_eq!(nearest_to(&pts, &[6.0]), Some(1));
        assert_eq!(nearest_to(&pts, &[100.0]), Some(2));
        assert_eq!(nearest_to::<Point>(&[], &[0.0]), None);
    }
}
