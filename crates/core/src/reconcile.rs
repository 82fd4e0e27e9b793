//! Pair-wise reconciliation (Section 6.1).
//!
//! Nodes periodically exchange a hash of their installed-query set; on
//! disagreement (or when one receives data for a query it removed) they
//! run a three-phase digest exchange — `(id, seq)` digests first, specs
//! only for the entries that differ — whose decisions are, for each side:
//!
//! ```text
//! IC_A = I_B − (I_B ∩ I_A) − (I_B ∩ R_A)      (installs A missed)
//! RC_A = I_A ∩ R_B                            (removals A missed)
//! ```
//!
//! Sequence numbers issued by the injecting peer's object store break
//! install/remove races: a removal only cancels installs with a smaller
//! sequence, and a re-install with a larger sequence overrides a cached
//! removal. The protocol is eventually consistent (single-writer storage,
//! structured communication — the paper's streamlining of Bayou).
//!
//! [`reconcile`] and [`digest_plan`] state those decisions over names: the
//! reference model. Peers make the same decisions over interned query ids
//! (an object store gives a name one id for good), so neither a digest
//! entry nor a tombstone ever carries a name.

use std::collections::BTreeMap;

/// The outcome of one reconciliation computation for the local node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReconcileOutcome {
    /// Names the local node must install (with the remote's sequence).
    pub to_install: Vec<(String, u64)>,
    /// Names the local node must remove (with the removal sequence).
    pub to_remove: Vec<(String, u64)>,
}

/// Computes the local node's install/remove candidates.
///
/// `my_installed`/`my_removed` map names to sequences; likewise for the
/// remote sets. Both outcome vectors come out sorted by name.
pub fn reconcile(
    my_installed: &BTreeMap<String, u64>,
    my_removed: &BTreeMap<String, u64>,
    other_installed: &BTreeMap<String, u64>,
    other_removed: &BTreeMap<String, u64>,
) -> ReconcileOutcome {
    let mut out = ReconcileOutcome::default();
    // IC: remote installs I don't have and haven't removed with a newer seq.
    for (name, &seq) in other_installed {
        let have = my_installed.get(name).is_some_and(|&mine| mine >= seq);
        let removed_newer = my_removed.get(name).is_some_and(|&r| r >= seq);
        if !have && !removed_newer {
            out.to_install.push((name.clone(), seq));
        }
    }
    // RC: my installs the remote has removed with a newer sequence.
    for (name, &mine) in my_installed {
        if let Some(&rseq) = other_removed.get(name) {
            if rseq > mine {
                out.to_remove.push((name.clone(), rseq));
            }
        }
    }
    out
}

/// The planner's half of a three-phase digest exchange: what a peer
/// decides on receiving a fixed-size store digest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DigestPlan {
    /// Entries the digest sender is missing (or holds at a stale
    /// sequence); the planner pushes them in full.
    pub push: Vec<(String, u64)>,
    /// Entries the planner itself is missing; requested in full via the
    /// transfer phase.
    pub want: Vec<(String, u64)>,
    /// Removals the planner must apply locally (the digest's removal
    /// cache cancelled a local install).
    pub to_remove: Vec<(String, u64)>,
}

/// Computes the digest-exchange plan: [`reconcile`] run in both
/// directions, so each side applies exactly the pair-wise decisions while
/// only 12-byte digest entries and the specs that differ travel.
///
/// The digest sender's own removals (`reconcile` from its perspective)
/// are not computed here: the plan ships the planner's tombstones that
/// the digest lacks (or holds at an older sequence) and the sender applies
/// them under the same sequence rules — the tombstones left out are ones
/// it would skip.
pub fn digest_plan(
    my_installed: &BTreeMap<String, u64>,
    my_removed: &BTreeMap<String, u64>,
    other_installed: &BTreeMap<String, u64>,
    other_removed: &BTreeMap<String, u64>,
) -> DigestPlan {
    let mine = reconcile(my_installed, my_removed, other_installed, other_removed);
    let theirs = reconcile(other_installed, other_removed, my_installed, my_removed);
    DigestPlan { push: theirs.to_install, want: mine.to_install, to_remove: mine.to_remove }
}

/// The hash of one store entry: FNV-1a over the key's bytes and the
/// sequence, finished with the splitmix64 mixer so that [`store_hash`]'s
/// sums of entry hashes carry no structure from the keys. A peer keys its
/// entries by the query id's little-endian bytes.
// lint:hot-path
pub fn entry_hash(key: impl AsRef<[u8]>, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key.as_ref().iter().chain(&seq.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// The wrapping sum of [`entry_hash`] over the (key, seq) pairs — the
/// summary the paper computes with MD5. Identical sets ⇒ identical
/// hashes, in any order; and because it is a sum, a peer keeps its own
/// current by adding and subtracting the entries a store change touches
/// instead of re-walking the store.
pub fn store_hash<K: AsRef<[u8]>>(entries: impl Iterator<Item = (K, u64)>) -> u64 {
    entries.fold(0, |h, (key, seq)| h.wrapping_add(entry_hash(key, seq)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, u64)]) -> BTreeMap<String, u64> {
        entries.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    #[test]
    fn missing_install_detected() {
        let out = reconcile(&map(&[]), &map(&[]), &map(&[("q1", 1)]), &map(&[]));
        assert_eq!(out.to_install, vec![("q1".to_string(), 1)]);
        assert!(out.to_remove.is_empty());
    }

    #[test]
    fn removal_cache_blocks_reinstall_of_stale_seq() {
        // I removed q1 at seq 5; remote still has the seq-3 install.
        let out = reconcile(&map(&[]), &map(&[("q1", 5)]), &map(&[("q1", 3)]), &map(&[]));
        assert!(out.to_install.is_empty(), "stale install must not come back");
    }

    #[test]
    fn newer_reinstall_overrides_removal_cache() {
        // q1 was removed at seq 5 but re-issued at seq 7.
        let out = reconcile(&map(&[]), &map(&[("q1", 5)]), &map(&[("q1", 7)]), &map(&[]));
        assert_eq!(out.to_install, vec![("q1".to_string(), 7)]);
    }

    #[test]
    fn remote_removal_detected() {
        let out = reconcile(&map(&[("q1", 1)]), &map(&[]), &map(&[]), &map(&[("q1", 2)]));
        assert_eq!(out.to_remove, vec![("q1".to_string(), 2)]);
    }

    #[test]
    fn stale_remote_removal_ignored() {
        // Remote removed seq 2, but I hold a newer install (seq 3).
        let out = reconcile(&map(&[("q1", 3)]), &map(&[]), &map(&[]), &map(&[("q1", 2)]));
        assert!(out.to_remove.is_empty());
    }

    #[test]
    fn symmetric_reconciliation_converges() {
        // A has q1; B has q2 and removed q3 (which A still runs).
        let a_i = map(&[("q1", 1), ("q3", 1)]);
        let a_r = map(&[]);
        let b_i = map(&[("q2", 4)]);
        let b_r = map(&[("q3", 9)]);
        let a_out = reconcile(&a_i, &a_r, &b_i, &b_r);
        let b_out = reconcile(&b_i, &b_r, &a_i, &a_r);
        assert_eq!(a_out.to_install, vec![("q2".to_string(), 4)]);
        assert_eq!(a_out.to_remove, vec![("q3".to_string(), 9)]);
        assert_eq!(b_out.to_install, vec![("q1".to_string(), 1)]);
        assert!(b_out.to_remove.is_empty(), "B's removal cache blocks q3");
        // After applying both outcomes, the installed sets agree.
        let mut a_final: Vec<&str> = vec!["q1", "q2"];
        let mut b_final: Vec<&str> = vec!["q2", "q1"];
        a_final.sort();
        b_final.sort();
        assert_eq!(a_final, b_final);
    }

    #[test]
    fn reconcile_is_idempotent() {
        let a_i = map(&[("q1", 1)]);
        let none = map(&[]);
        let first = reconcile(&a_i, &none, &a_i, &none);
        assert_eq!(first, ReconcileOutcome::default());
    }

    #[test]
    fn digest_plan_mirrors_full_reconcile_in_both_directions() {
        let a_i = map(&[("q1", 1), ("q3", 1)]);
        let a_r = map(&[]);
        let b_i = map(&[("q2", 4)]);
        let b_r = map(&[("q3", 9)]);
        let plan = digest_plan(&a_i, &a_r, &b_i, &b_r);
        assert_eq!(plan.want, reconcile(&a_i, &a_r, &b_i, &b_r).to_install);
        assert_eq!(plan.push, reconcile(&b_i, &b_r, &a_i, &a_r).to_install);
        assert_eq!(plan.to_remove, vec![("q3".to_string(), 9)]);
    }

    /// Applies install/remove decisions to a (installed, removed) state
    /// pair under the peer's sequence rules: an install loses to an equal
    /// or newer tombstone or incumbent; a removal only cancels an install
    /// with a smaller sequence.
    fn apply(
        installed: &mut BTreeMap<String, u64>,
        removed: &mut BTreeMap<String, u64>,
        to_install: &[(String, u64)],
        to_remove: &[(String, u64)],
    ) {
        for (n, s) in to_install {
            if removed.get(n).is_some_and(|r| r >= s) {
                continue;
            }
            if installed.get(n).is_some_and(|m| m >= s) {
                continue;
            }
            removed.remove(n);
            installed.insert(n.clone(), *s);
        }
        for (n, s) in to_remove {
            if installed.get(n).is_some_and(|m| m < s) {
                installed.remove(n);
                removed.insert(n.clone(), *s);
            }
        }
    }

    #[test]
    fn digest_flow_lands_both_peers_on_the_newest_command_per_name() {
        // Property: for random peer-state pairs over a small name/seq
        // space (so installs, tombstones, races and re-installs collide
        // constantly), running the three-phase digest flow end to end
        // leaves both peers running exactly the names whose newest
        // command either of them knew is an install — the reference is
        // the command history itself, not another implementation.
        // States are generated per the single-writer store model: each
        // name has one strictly alternating install/remove history with
        // strictly increasing sequences, and each peer knows some prefix
        // of it. (Arbitrary independent (seq, seq) pairs can mint an
        // install and a removal *tying* on a sequence — a state the store
        // never issues, and one where pair-wise reconciliation cannot
        // converge in a single round: the tombstone blocks the install
        // locally but is too old to cancel it remotely.)
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xD16E57);
        for case in 0..500 {
            let mut a_i0 = BTreeMap::new();
            let mut a_r0 = BTreeMap::new();
            let mut b_i0 = BTreeMap::new();
            let mut b_r0 = BTreeMap::new();
            let mut expected: Vec<String> = Vec::new();
            for n in 0..6 {
                let name = format!("q{n}");
                let hist_len = rng.gen_range(0..7u64);
                // Command k of the history: odd = install(seq k), even =
                // remove(seq k). A peer knowing prefix k holds the state
                // the k-th command leaves behind (0 = never heard of it).
                let mut newest = 0;
                for (i, r) in [(&mut a_i0, &mut a_r0), (&mut b_i0, &mut b_r0)] {
                    let k = rng.gen_range(0..=hist_len);
                    newest = newest.max(k);
                    if k == 0 {
                        continue;
                    }
                    if k % 2 == 1 {
                        i.insert(name.clone(), k);
                    } else {
                        r.insert(name.clone(), k);
                    }
                }
                if newest % 2 == 1 {
                    expected.push(name);
                }
            }

            // Digest flow: B digests to A; A plans (pushes B's gaps,
            // wants its own, ships its removal cache); B applies the
            // pushes and A's removals and transfers A's wants; A applies
            // the transfer and B's removal cache (carried by the digest).
            let plan = digest_plan(&a_i0, &a_r0, &b_i0, &b_r0);
            let (mut a_i, mut a_r) = (a_i0.clone(), a_r0.clone());
            let (mut b_i, mut b_r) = (b_i0.clone(), b_r0.clone());
            let a_removed_cache: Vec<(String, u64)> =
                a_r0.iter().map(|(n, &s)| (n.clone(), s)).collect();
            apply(&mut b_i, &mut b_r, &plan.push, &a_removed_cache);
            // The transfer answers `want` from B's live pre-plan set.
            let transfer: Vec<(String, u64)> = plan
                .want
                .iter()
                .filter_map(|(n, _)| b_i0.get(n).map(|&s| (n.clone(), s)))
                .collect();
            let b_removed_cache: Vec<(String, u64)> =
                b_r0.iter().map(|(n, &s)| (n.clone(), s)).collect();
            apply(&mut a_i, &mut a_r, &transfer, &b_removed_cache);

            let a_names: Vec<String> = a_i.into_keys().collect();
            let b_names: Vec<String> = b_i.into_keys().collect();
            assert_eq!(a_names, expected, "case {case}: A diverged from the command history");
            assert_eq!(b_names, expected, "case {case}: B diverged from the command history");
        }
    }

    #[test]
    fn hash_is_order_insensitive_and_seq_sensitive() {
        let h1 = store_hash([("a", 1u64), ("b", 2)].into_iter());
        let h2 = store_hash([("b", 2u64), ("a", 1)].into_iter());
        let h3 = store_hash([("a", 1u64), ("b", 3)].into_iter());
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h1, store_hash(std::iter::empty::<(&str, u64)>()));
    }
}
