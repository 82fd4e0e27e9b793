//! The distance kernels change no bit: `dist2_each`, `kmeans` and
//! `nearest_to` against straightforward references that call `dist2` once
//! per comparison and pick with `min_by`, compared through `to_bits`.

use mortar_cluster::{dist2, dist2_each, kmeans, nearest_to, Clustering, Point};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// k-means++ seeding, one `dist2` per point and centroid.
fn reference_seed(points: &[Point], k: usize, rng: &mut SmallRng) -> Vec<Point> {
    let mut centroids: Vec<Point> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
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
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, centroids.last().expect("just pushed")));
        }
    }
    centroids
}

/// Lloyd's loop assigning each point with `min_by` over `dist2`.
fn reference_kmeans(points: &[Point], k: usize, max_iter: usize, rng: &mut SmallRng) -> Clustering {
    let k = k.clamp(1, points.len());
    let mut centroids = reference_seed(points, k, rng);
    let mut assignments = vec![0usize; points.len()];
    for _ in 0..max_iter {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    dist2(p, &centroids[a])
                        .partial_cmp(&dist2(p, &centroids[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        let dim = points[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = (0..points.len())
                    .max_by(|&a, &b| {
                        dist2(&points[a], &centroids[assignments[a]])
                            .partial_cmp(&dist2(&points[b], &centroids[assignments[b]]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("points nonempty");
                centroids[c] = points[far].clone();
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

fn reference_nearest_to(candidates: &[Point], target: &[f64]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            dist2(a, target).partial_cmp(&dist2(b, target)).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

/// `n` points of `dim` coordinates in one of four shapes: 0 uniform reals,
/// 1 an integer grid (exact distance ties), 2 a few rows repeated
/// (duplicate points), 3 uniform reals with one NaN coordinate.
fn points(shape: u8, n: usize, dim: usize, rng: &mut SmallRng) -> Vec<Point> {
    let mut pts: Vec<Point> = match shape {
        0 | 3 => (0..n).map(|_| (0..dim).map(|_| rng.gen::<f64>() * 100.0).collect()).collect(),
        1 => (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0..4u32) as f64).collect()).collect(),
        _ => {
            let distinct: Vec<Point> =
                (0..3).map(|_| (0..dim).map(|_| rng.gen::<f64>() * 10.0).collect()).collect();
            (0..n).map(|_| distinct[rng.gen_range(0..distinct.len())].clone()).collect()
        }
    };
    if shape == 3 && dim > 0 {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..dim);
        pts[i][j] = f64::NAN;
    }
    pts
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn dist2_each_matches_dist2_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(11);
    for dim in (0..=9).chain([1000]) {
        for rows in 0..=9 {
            for shape in 0..4 {
                let pts = points(shape, rows.max(1), dim, &mut rng);
                let pts = &pts[..rows];
                let target: Point = (0..dim).map(|_| rng.gen::<f64>() * 100.0).collect();
                let mut out = vec![0.0; rows];
                dist2_each(pts, &target, &mut out);
                let want: Vec<f64> = pts.iter().map(|p| dist2(p, &target)).collect();
                assert_eq!(bits(&out), bits(&want), "dim {dim}, {rows} rows, shape {shape}");
            }
        }
    }
}

#[test]
fn nearest_to_keeps_the_first_of_tied_candidates() {
    let pts = vec![vec![1.0], vec![3.0], vec![1.0], vec![3.0], vec![1.0]];
    assert_eq!(nearest_to(&pts, &[2.0]), Some(0));
    assert_eq!(nearest_to(&pts, &[3.0]), Some(1));
    let nan_first = vec![vec![f64::NAN], vec![0.0], vec![5.0]];
    assert_eq!(nearest_to(&nan_first, &[0.0]), reference_nearest_to(&nan_first, &[0.0]));
    assert_eq!(nearest_to::<Point>(&[], &[0.0]), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn kmeans_matches_reference_bit_for_bit(
        seed in 0u64..1_000_000,
        shape in 0u8..4,
        n in 1usize..48,
        dim in 0usize..5,
        k in 1usize..21,
    ) {
        let mut gen = SmallRng::seed_from_u64(seed);
        let pts = points(shape, n, dim, &mut gen);
        let want = reference_kmeans(&pts, k, 30, &mut SmallRng::seed_from_u64(seed));
        let got = kmeans(&pts, k, 30, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(got.k, want.k);
        prop_assert_eq!(&got.assignments, &want.assignments);
        for (g, w) in got.centroids.iter().zip(&want.centroids) {
            prop_assert_eq!(bits(g), bits(w));
        }
        // Borrowed rows cluster exactly like owned ones.
        let rows: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let borrowed = kmeans(&rows, k, 30, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(&borrowed.assignments, &want.assignments);
    }

    #[test]
    fn nearest_to_matches_reference(
        seed in 0u64..1_000_000,
        shape in 0u8..4,
        n in 1usize..30,
        dim in 0usize..5,
    ) {
        let mut gen = SmallRng::seed_from_u64(seed);
        let pts = points(shape, n, dim, &mut gen);
        // A target on the grid ties exactly with many candidates.
        let target: Point = (0..dim).map(|_| gen.gen_range(0..4u32) as f64).collect();
        prop_assert_eq!(nearest_to(&pts, &target), reference_nearest_to(&pts, &target));
    }
}
