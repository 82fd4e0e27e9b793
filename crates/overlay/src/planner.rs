//! The physical dataflow planner (Sections 3.1–3.2).
//!
//! The primary tree is built by recursive clustering on network coordinates:
//! find `bf` clusters, make the member nearest each cluster centroid a child
//! of the root, then recurse into each cluster. This places operators at
//! cluster centroids and the majority of data close to the root.
//!
//! Sibling trees are derived from the primary by a post-order walk that, at
//! each internal position, exchanges the position's occupant with a random
//! child's occupant — percolating leaves up into the interior for path
//! diversity while retaining most of the primary's clustering. One
//! deviation from the paper's illustration: the *query root's* position is
//! never rotated away, because every tree in a Mortar set must deliver to
//! the root operator on the injecting peer.

use crate::tree::{Tree, TreeSet};
use mortar_cluster::{kmeans, nearest_to};
use rand::Rng;

/// Planner parameters.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Branching factor of the planned trees (the paper uses 16 by default).
    pub branching_factor: usize,
    /// Number of trees in the set (primary + siblings); the paper uses 4.
    pub tree_count: usize,
    /// Lloyd iterations per clustering step.
    pub kmeans_iters: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self { branching_factor: 16, tree_count: 4, kmeans_iters: 30 }
    }
}

/// Plans the network-aware primary tree.
///
/// `coords[m]` is member `m`'s network coordinate; `root` is the query root
/// member (the injecting peer). Coordinates typically come from
/// `mortar_coords::VivaldiSystem::coords` (the overlay crate itself is
/// coordinate-source agnostic). Rows are borrowed, never copied.
pub fn plan_primary<P: AsRef<[f64]>, R: Rng + ?Sized>(
    coords: &[P],
    root: usize,
    bf: usize,
    kmeans_iters: usize,
    rng: &mut R,
) -> Tree {
    let n = coords.len();
    assert!(root < n, "root out of range");
    assert!(bf >= 1, "branching factor must be positive");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let members: Vec<usize> = (0..n).filter(|&m| m != root).collect();
    recurse(coords, root, members, bf, kmeans_iters, &mut parent, rng);
    Tree::from_parents(root, parent)
}

fn recurse<P: AsRef<[f64]>, R: Rng + ?Sized>(
    coords: &[P],
    root: usize,
    members: Vec<usize>,
    bf: usize,
    iters: usize,
    parent: &mut [Option<usize>],
    rng: &mut R,
) {
    if members.is_empty() {
        return;
    }
    // Recursion ends when the input set fits under the root directly.
    if members.len() <= bf {
        for m in members {
            parent[m] = Some(root);
        }
        return;
    }
    let pts: Vec<&[f64]> = members.iter().map(|&m| coords[m].as_ref()).collect();
    let clustering = kmeans(&pts, bf, iters, rng);
    for c in 0..clustering.k {
        let local: Vec<usize> = clustering.members(c);
        if local.is_empty() {
            continue;
        }
        let cluster_pts: Vec<&[f64]> = local.iter().map(|&i| pts[i]).collect();
        let head_local =
            nearest_to(&cluster_pts, &clustering.centroids[c]).expect("cluster is nonempty");
        let head = members[local[head_local]];
        parent[head] = Some(root);
        let rest: Vec<usize> =
            local.iter().filter(|&&i| i != local[head_local]).map(|&i| members[i]).collect();
        recurse(coords, head, rest, bf, iters, parent, rng);
    }
}

/// Derives one sibling from `primary` by post-order random rotations.
pub fn derive_sibling<R: Rng + ?Sized>(primary: &Tree, rng: &mut R) -> Tree {
    let n = primary.len();
    // `occupant[slot]` = which member currently sits at primary position
    // `slot`. Rotations permute occupants; the shape never changes.
    let mut occupant: Vec<usize> = (0..n).collect();
    for slot in primary.post_order() {
        let kids = primary.children(slot);
        if kids.is_empty() || slot == primary.root() {
            continue;
        }
        let pick = kids[rng.gen_range(0..kids.len())];
        occupant.swap(slot, pick);
    }
    // Rebuild a member-indexed parent vector from the occupied shape.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for slot in 0..n {
        if let Some(pslot) = primary.parent(slot) {
            parent[occupant[slot]] = Some(occupant[pslot]);
        }
    }
    Tree::from_parents(occupant[primary.root()], parent)
}

/// Plans a full tree set: the primary plus `tree_count − 1` siblings.
pub fn plan_tree_set<P: AsRef<[f64]>, R: Rng + ?Sized>(
    coords: &[P],
    root: usize,
    cfg: &PlannerConfig,
    rng: &mut R,
) -> TreeSet {
    assert!(cfg.tree_count >= 1, "need at least one tree");
    let primary = plan_primary(coords, root, cfg.branching_factor, cfg.kmeans_iters, rng);
    let mut trees = Vec::with_capacity(cfg.tree_count);
    for _ in 1..cfg.tree_count {
        trees.push(derive_sibling(&primary, rng));
    }
    let mut all = vec![primary];
    all.append(&mut trees);
    TreeSet::new(all)
}

/// Overlay latency from every member to the root: the sum of pairwise
/// latencies `lat_ms(a, b)` along the member's overlay path (Figure 17's
/// metric).
pub fn root_latencies(tree: &Tree, lat_ms: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    (0..tree.len())
        .map(|m| {
            let path = tree.path_to_root(m);
            path.windows(2).map(|w| lat_ms(w[0], w[1])).sum()
        })
        .collect()
}

/// The `q`-quantile (0..=1) of a sample, by linear index (paper uses 90th).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mortar_cluster::Point;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Coordinates forming `g` well-separated groups of `per` members.
    fn grouped_coords(g: usize, per: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for gi in 0..g {
            for i in 0..per {
                pts.push(vec![gi as f64 * 100.0 + (i % 5) as f64, (i % 3) as f64]);
            }
        }
        pts
    }

    #[test]
    fn primary_is_spanning_and_bounded() {
        let coords = grouped_coords(4, 20);
        let mut rng = SmallRng::seed_from_u64(1);
        let t = plan_primary(&coords, 0, 4, 30, &mut rng);
        assert_eq!(t.len(), 80);
        assert_eq!(t.root(), 0);
        // Every non-root member has a parent (spanning checked in ctor).
        for m in 1..80 {
            assert!(t.parent(m).is_some());
        }
    }

    #[test]
    fn primary_clusters_nearby_members() {
        // Members of the same group should mostly share subtrees: their
        // parent should be in the same group far more often than not.
        let coords = grouped_coords(4, 20);
        let mut rng = SmallRng::seed_from_u64(2);
        let t = plan_primary(&coords, 0, 4, 30, &mut rng);
        let group = |m: usize| m / 20;
        let mut same = 0;
        let mut cross = 0;
        for m in 1..80 {
            let p = t.parent(m).unwrap();
            if p == 0 {
                continue; // Top-level heads connect to the root.
            }
            if group(p) == group(m) {
                same += 1;
            } else {
                cross += 1;
            }
        }
        assert!(same > cross * 3, "clustering weak: same={same} cross={cross}");
    }

    #[test]
    fn sibling_is_permutation_with_same_root() {
        let coords = grouped_coords(3, 15);
        let mut rng = SmallRng::seed_from_u64(3);
        let primary = plan_primary(&coords, 0, 4, 30, &mut rng);
        let sib = derive_sibling(&primary, &mut rng);
        assert_eq!(sib.len(), primary.len());
        assert_eq!(sib.root(), primary.root(), "query root must stay pinned");
        assert_eq!(sib.height(), primary.height(), "shape preserved");
        assert_ne!(sib, primary, "rotations must change placement");
    }

    #[test]
    fn sibling_percolates_leaves_into_interior() {
        let mut rng = SmallRng::seed_from_u64(4);
        let coords = grouped_coords(4, 25);
        let primary = plan_primary(&coords, 0, 4, 30, &mut rng);
        let sib = derive_sibling(&primary, &mut rng);
        // Count members that are leaves in the primary but interior in the
        // sibling: the rotation should promote roughly numLeaves/bf of them.
        let promoted = (0..primary.len())
            .filter(|&m| primary.children(m).is_empty() && !sib.children(m).is_empty())
            .count();
        assert!(promoted > 0, "no leaves were promoted");
    }

    #[test]
    fn tree_set_has_requested_width() {
        let coords = grouped_coords(2, 20);
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = PlannerConfig { branching_factor: 4, tree_count: 4, kmeans_iters: 20 };
        let set = plan_tree_set(&coords, 0, &cfg, &mut rng);
        assert_eq!(set.width(), 4);
        assert_eq!(set.len(), 40);
        assert_eq!(set.root(), 0);
    }

    #[test]
    fn root_latency_of_root_is_zero() {
        let t = Tree::from_parents(0, vec![None, Some(0), Some(1)]);
        let lat = [[0.0, 5.0, 9.0], [5.0, 0.0, 2.0], [9.0, 2.0, 0.0]];
        let r = root_latencies(&t, |a, b| lat[a][b]);
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], 5.0);
        assert_eq!(r[2], 7.0); // 2 (2→1) + 5 (1→0).
    }

    #[test]
    fn percentile_picks_expected_index() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn planned_beats_random_on_clustered_topology() {
        // The headline claim of Section 7.3: planned trees put the 90th
        // percentile of members closer (in overlay latency) to the root.
        let coords = grouped_coords(6, 30);
        let n = coords.len();
        let lat: Vec<Vec<f64>> = (0..n)
            .map(|a| (0..n).map(|b| mortar_cluster::dist2(&coords[a], &coords[b]).sqrt()).collect())
            .collect();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut planned_p90 = 0.0;
        let mut random_p90 = 0.0;
        for _ in 0..5 {
            let p = plan_primary(&coords, 0, 8, 30, &mut rng);
            planned_p90 += percentile(&root_latencies(&p, |a, b| lat[a][b]), 0.9);
            let r = crate::tree::random_tree(n, 0, 8, &mut rng);
            random_p90 += percentile(&root_latencies(&r, |a, b| lat[a][b]), 0.9);
        }
        assert!(planned_p90 < random_p90, "planned {planned_p90} should beat random {random_p90}");
    }
}
