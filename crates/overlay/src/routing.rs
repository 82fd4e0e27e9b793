//! The staged dynamic tuple striping policy (Section 3.3, Figure 5).
//!
//! When a tuple must be forwarded, the operator consults a staged policy:
//!
//! 1. **Same tree** — route to the parent on the tree the tuple arrived on.
//! 2. **Up\*** — route to a parent on any tree `x` whose local level
//!    `OL(x)` is at least as close to the root as the tuple's last level on
//!    the arrival tree (`OL(x) ≤ TL(t)`).
//! 3. **Flex** — make forward progress on any tree (`OL(x) ≤ TL(x)`).
//! 4. **Flex down** — descend to a child on a tree satisfying the flex
//!    constraint, charging the tuple's TTL-down budget.
//! 5. **Drop.**
//!
//! Stages 1–3 strictly decrease some tree level per hop, so they can never
//! cycle; stage 4 may revisit nodes and is bounded by [`TTL_DOWN_LIMIT`].
//! Where a stage admits several trees, the minimum-level tree wins.

use crate::tree::TreeSet;
use rand::Rng;

/// Maximum number of stage-4 downward steps a tuple may take (the paper
/// drops tuples once the TTL-down field exceeds three).
pub const TTL_DOWN_LIMIT: u8 = 3;

/// Maximum tree-set width an inline [`LevelVec`] can carry.
///
/// The paper finds four trees the point of diminishing returns (Figure
/// 12 sweeps up to five); eight leaves slack while keeping the per-tuple
/// routing state a flat 36-byte value instead of a heap vector.
pub const MAX_TREES: usize = 8;

/// A fixed-capacity inline vector of per-tree levels.
///
/// Route state rides inside every summary tuple and is cloned on every
/// merge, eviction and transmit; an inline array makes all of those
/// alloc-free `Copy` operations. Indexing and iteration mirror a slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LevelVec {
    vals: [u32; MAX_TREES],
    len: u8,
}

impl LevelVec {
    /// Builds from a slice of per-tree levels (≤ [`MAX_TREES`] entries).
    pub fn from_slice(levels: &[u32]) -> Self {
        assert!(
            levels.len() <= MAX_TREES,
            "tree-set width {} exceeds the inline route-state capacity {MAX_TREES}",
            levels.len()
        );
        let mut vals = [0u32; MAX_TREES];
        vals[..levels.len()].copy_from_slice(levels);
        Self { vals, len: levels.len() as u8 }
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector carries no levels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The levels as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.vals[..self.len as usize]
    }

    /// Mutable slice of the levels.
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        let n = self.len as usize;
        &mut self.vals[..n]
    }

    /// Iterates the levels.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.as_slice().iter()
    }

    /// Mutable access to one tree's level, if in range.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut u32> {
        self.as_mut_slice().get_mut(i)
    }
}

impl std::ops::Index<usize> for LevelVec {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        &self.as_slice()[i]
    }
}

impl std::ops::IndexMut<usize> for LevelVec {
    fn index_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.as_mut_slice()[i]
    }
}

impl std::fmt::Debug for LevelVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[u32]> for LevelVec {
    fn from(s: &[u32]) -> Self {
        Self::from_slice(s)
    }
}

impl PartialEq<Vec<u32>> for LevelVec {
    fn eq(&self, other: &Vec<u32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a LevelVec {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-tuple routing state carried between overlay hops.
///
/// `Copy`: the state is a flat value, so cloning a summary tuple performs
/// no heap allocation for routing metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteState {
    /// `TL(t)`: the last (smallest) level the tuple occupied on each tree.
    pub last_level: LevelVec,
    /// Downward steps taken so far.
    pub ttl_down: u8,
}

impl RouteState {
    /// State for a tuple created at `member`: it occupies its origin's
    /// position on every tree.
    pub fn at_origin(trees: &TreeSet, member: usize) -> Self {
        Self::from_levels(&trees.levels_of(member))
    }

    /// State for a tuple created at a node with the given per-tree levels
    /// (the peer-local form of [`RouteState::at_origin`]).
    pub fn from_levels(levels: &[u32]) -> Self {
        Self { last_level: LevelVec::from_slice(levels), ttl_down: 0 }
    }

    /// Records arrival at `member` via `tree`: the tuple now occupies the
    /// member's level on that tree (kept as a minimum so stage constraints
    /// only tighten).
    pub fn on_arrival(&mut self, trees: &TreeSet, member: usize, tree: usize) {
        let lvl = trees.tree(tree).level(member);
        let slot = &mut self.last_level[tree];
        *slot = (*slot).min(lvl);
    }

    /// Conservatively merges another tuple's state into this one (used when
    /// summaries merge): per-tree minimum levels, maximum TTL-down.
    pub fn absorb(&mut self, other: &RouteState) {
        debug_assert_eq!(self.last_level.len(), other.last_level.len());
        for (a, b) in self.last_level.as_mut_slice().iter_mut().zip(other.last_level.iter()) {
            *a = (*a).min(*b);
        }
        self.ttl_down = self.ttl_down.max(other.ttl_down);
    }
}

/// Where the policy decided to send a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Forward to the parent on the given tree (stages 1–3).
    Parent {
        /// Tree whose parent edge to use.
        tree: usize,
    },
    /// Descend to a child on the given tree (stage 4); TTL-down was charged.
    Child {
        /// Tree whose child edge to use.
        tree: usize,
        /// The chosen child: a member id from [`route_decision`], an
        /// index into the tree's child list from [`route_decision_local`].
        child: usize,
    },
    /// No usable destination; the tuple is dropped (stage 5).
    Drop,
}

/// Chooses a destination for a tuple at `member` that arrived on
/// `arrival_tree` (use the striping tree for locally created tuples).
///
/// `parent_live[x]` must be `true` iff the member has a parent on tree `x`
/// currently believed live (per the heartbeat protocol). `child_live(x, c)`
/// reports liveness of child `c` on tree `x`. On a `Child` decision the
/// state's TTL-down is incremented; callers must propagate `state`.
pub fn route_decision<R: Rng + ?Sized>(
    trees: &TreeSet,
    member: usize,
    arrival_tree: usize,
    state: &mut RouteState,
    parent_live: &[bool],
    child_live: &mut dyn FnMut(usize, usize) -> bool,
    rng: &mut R,
) -> Decision {
    let levels = trees.levels_of(member);
    let children: Vec<&[usize]> =
        (0..trees.width()).map(|x| trees.tree(x).children(member)).collect();
    match route_decision_local(
        &levels,
        &children,
        arrival_tree,
        state,
        parent_live,
        child_live,
        rng,
    ) {
        Decision::Child { tree, child } => Decision::Child { tree, child: children[tree][child] },
        d => d,
    }
}

/// The policy over a member's *local* view: its level and child list per
/// tree. This is what a Mortar peer actually has (its install record, whose
/// per-tree links are the child lists); [`route_decision`] is a
/// convenience wrapper for tree-set callers.
///
/// `child_live(x, c)` is asked about child `c` of tree `x`'s list; a
/// `Child` decision names the chosen child by its index in that list.
#[allow(clippy::too_many_arguments)]
pub fn route_decision_local<N: Copy, C: AsRef<[N]>, R: Rng + ?Sized>(
    levels: &[u32],
    children: &[C],
    arrival_tree: usize,
    state: &mut RouteState,
    parent_live: &[bool],
    child_live: &mut dyn FnMut(usize, N) -> bool,
    rng: &mut R,
) -> Decision {
    let width = levels.len();
    debug_assert_eq!(parent_live.len(), width, "parent_live per tree");
    debug_assert_eq!(state.last_level.len(), width, "route state per tree");
    let ol = |x: usize| levels[x];

    // Stage 1: same tree.
    if parent_live[arrival_tree] {
        return Decision::Parent { tree: arrival_tree };
    }

    // Stage 2: up* — a parent at least as close to the root as the tuple's
    // last level on the arrival tree. Minimum level wins.
    let tl_t = state.last_level[arrival_tree];
    if let Some(x) = (0..width).filter(|&x| parent_live[x] && ol(x) <= tl_t).min_by_key(|&x| ol(x))
    {
        return Decision::Parent { tree: x };
    }

    // Stage 3: flex — forward progress on any tree.
    if let Some(x) = (0..width)
        .filter(|&x| parent_live[x] && ol(x) <= state.last_level[x])
        .min_by_key(|&x| ol(x))
    {
        return Decision::Parent { tree: x };
    }

    // Stage 4: flex down — only while TTL-down budget remains.
    if state.ttl_down < TTL_DOWN_LIMIT {
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (x, kids) in children.iter().enumerate().take(width) {
            if ol(x) > state.last_level[x] {
                continue;
            }
            for (i, &c) in kids.as_ref().iter().enumerate() {
                if child_live(x, c) {
                    candidates.push((x, i));
                }
            }
        }
        if !candidates.is_empty() {
            let min_lvl = candidates.iter().map(|&(x, _)| ol(x)).min().expect("nonempty");
            let best: Vec<(usize, usize)> =
                candidates.into_iter().filter(|&(x, _)| ol(x) == min_lvl).collect();
            let (tree, child) = best[rng.gen_range(0..best.len())];
            state.ttl_down += 1;
            return Decision::Child { tree, child };
        }
    }

    // Stage 5.
    Decision::Drop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two chains over 4 members rooted at 0:
    /// tree0: 0 ← 1 ← 2 ← 3, tree1: 0 ← 3 ← 2 ← 1.
    fn two_chains() -> TreeSet {
        let t0 = Tree::from_parents(0, vec![None, Some(0), Some(1), Some(2)]);
        let t1 = Tree::from_parents(0, vec![None, Some(2), Some(3), Some(0)]);
        TreeSet::new(vec![t0, t1])
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn stage1_same_tree_preferred() {
        let ts = two_chains();
        let mut st = RouteState::at_origin(&ts, 2);
        let d = route_decision(&ts, 2, 0, &mut st, &[true, true], &mut |_, _| true, &mut rng());
        assert_eq!(d, Decision::Parent { tree: 0 });
    }

    #[test]
    fn stage2_up_star_on_failure() {
        let ts = two_chains();
        // Member 2: level 2 on tree0, level 1 on tree1. Tree0 parent dead.
        let mut st = RouteState::at_origin(&ts, 2);
        let d = route_decision(&ts, 2, 0, &mut st, &[false, true], &mut |_, _| true, &mut rng());
        // OL(1)=1 ≤ TL(0)=2, so up* allows tree 1.
        assert_eq!(d, Decision::Parent { tree: 1 });
    }

    #[test]
    fn stage2_rejects_higher_level_tree() {
        let ts = two_chains();
        // Member 1: level 1 on tree0, level 3 on tree1. If tree0's parent is
        // dead, tree1's OL(1)=3 > TL(0)=1, so up* fails; flex also fails
        // (OL(1)=3 > TL(1)=3 is false — equality allows it). Check flex path.
        let mut st = RouteState::at_origin(&ts, 1);
        let d = route_decision(&ts, 1, 0, &mut st, &[false, true], &mut |_, _| true, &mut rng());
        // Flex: OL(tree1)=3 ≤ TL(tree1)=3 holds, so it still goes up tree 1.
        assert_eq!(d, Decision::Parent { tree: 1 });
    }

    #[test]
    fn stage4_descends_and_charges_ttl() {
        let ts = two_chains();
        // Member 1 again, but now no parents are live anywhere.
        let mut st = RouteState::at_origin(&ts, 1);
        let d = route_decision(&ts, 1, 0, &mut st, &[false, false], &mut |_, _| true, &mut rng());
        match d {
            Decision::Child { .. } => assert_eq!(st.ttl_down, 1),
            other => panic!("expected descent, got {other:?}"),
        }
    }

    #[test]
    fn ttl_exhaustion_drops() {
        let ts = two_chains();
        let mut st = RouteState::at_origin(&ts, 1);
        st.ttl_down = TTL_DOWN_LIMIT;
        let d = route_decision(&ts, 1, 0, &mut st, &[false, false], &mut |_, _| true, &mut rng());
        assert_eq!(d, Decision::Drop);
    }

    #[test]
    fn no_live_children_drops() {
        let ts = two_chains();
        let mut st = RouteState::at_origin(&ts, 1);
        let d = route_decision(&ts, 1, 0, &mut st, &[false, false], &mut |_, _| false, &mut rng());
        assert_eq!(d, Decision::Drop);
    }

    #[test]
    fn arrival_tightens_levels_monotonically() {
        let ts = two_chains();
        let mut st = RouteState::at_origin(&ts, 3);
        assert_eq!(st.last_level, vec![3, 1]);
        st.on_arrival(&ts, 2, 0); // Level 2 on tree 0.
        assert_eq!(st.last_level, vec![2, 1]);
        st.on_arrival(&ts, 3, 0); // Back down — must not loosen.
        assert_eq!(st.last_level, vec![2, 1]);
    }

    #[test]
    fn absorb_takes_min_levels_max_ttl() {
        let ts = two_chains();
        let mut a = RouteState::at_origin(&ts, 3); // [3, 1]
        let mut b = RouteState::at_origin(&ts, 1); // [1, 3]
        b.ttl_down = 2;
        a.absorb(&b);
        assert_eq!(a.last_level, vec![1, 1]);
        assert_eq!(a.ttl_down, 2);
    }

    #[test]
    fn stages_one_to_three_never_cycle() {
        // Property: repeatedly applying the policy with random liveness,
        // disallowing stage 4 (all children dead), must terminate at the
        // root or a drop in at most (width × height) hops.
        let ts = two_chains();
        let mut rng = rng();
        for start in 1..4usize {
            for mask in 0..4u32 {
                let mut member = start;
                let mut tree = 0usize;
                let mut st = RouteState::at_origin(&ts, member);
                let mut hops = 0;
                loop {
                    if member == ts.root() || hops > 20 {
                        break;
                    }
                    let pl: Vec<bool> = (0..2)
                        .map(|x| ts.tree(x).parent(member).is_some() && (mask >> x) & 1 == 1)
                        .collect();
                    match route_decision(
                        &ts,
                        member,
                        tree,
                        &mut st,
                        &pl,
                        &mut |_, _| false,
                        &mut rng,
                    ) {
                        Decision::Parent { tree: x } => {
                            member = ts.tree(x).parent(member).expect("live parent exists");
                            tree = x;
                            st.on_arrival(&ts, member, x);
                        }
                        Decision::Child { .. } => unreachable!("stage 4 disabled"),
                        Decision::Drop => break,
                    }
                    hops += 1;
                }
                assert!(hops <= 20, "cycle detected from {start} mask {mask}");
            }
        }
    }
}
