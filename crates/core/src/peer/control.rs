//! Control plane: install / remove / pair-wise reconciliation / heartbeats
//! and the query-root topology service (Section 6).
//!
//! A query reaches a peer by the root's chunked multicast, by pair-wise
//! reconciliation or by the root's topology service, and a removal by
//! multicast or by reconciliation; every one of them applies its command
//! through [`MortarPeer::install_query`] or [`MortarPeer::remove_query`],
//! the only two functions that put, connect or tear down query state or
//! cache a tombstone.
//!
//! Anti-entropy is one protocol, the three-phase digest exchange
//! (`trigger_reconcile`), started by any of three signals: a
//! mismatching store hash on a heartbeat, a mismatching store hash on a
//! data frame, or data arriving for a query this peer removed.
//!
//! Spec-carrying control messages ship `Arc<QuerySpec>`: multicast
//! chunking, install forwarding, reconciliation pushes and topology
//! replies clone a pointer, never the spec. Everything else goes by
//! [`crate::query::QueryId`] alone: tombstones live under it, travel as
//! `(id, seq)` pairs and hash by it, and a peer adopts a tombstone for a
//! query it never saw as readily as one for a query it holds.
//!
//! Removal discards a query's open state where it stands: its TS list,
//! open buckets and pending source tuples go with it, and nothing is
//! drained toward the root first. A window that was still collecting is
//! simply never reported.

use super::{MortarPeer, QueryState, HOP_AGE_EST_US, NETDIST_INIT_US};
use crate::feed::Source;
use crate::install::{chunk_components_with_peers, component_root, forward_groups};
use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::query::{InstallRecord, QueryId, QuerySpec, SensorSpec};
use crate::tslist::TimeSpaceList;
use mortar_net::{Ctx, NodeId, TrafficClass};
use mortar_overlay::{RouteState, MAX_TREES};
use std::sync::Arc;

/// Puts a digest list — peer input — in the id order `trigger_reconcile`
/// sends it in, one entry per id (the newest): checked in one pass, sorted
/// only when it arrives out of order.
fn sort_digest(list: &mut Vec<(QueryId, u64)>) {
    if list.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    list.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    list.dedup_by_key(|e| e.0);
}

/// Walks two id-sorted sequences as one, handing `f` each id with its
/// entry on either side.
fn join_by_id<A, B>(
    a: impl Iterator<Item = (QueryId, A)>,
    b: impl Iterator<Item = (QueryId, B)>,
    mut f: impl FnMut(QueryId, Option<A>, Option<B>),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let id = match (a.peek(), b.peek()) {
            (Some(&(x, _)), Some(&(y, _))) => x.min(y),
            (Some(&(x, _)), None) => x,
            (None, Some(&(y, _))) => y,
            (None, None) => return,
        };
        let l = a.next_if(|e| e.0 == id).map(|e| e.1);
        let r = b.next_if(|e| e.0 == id).map(|e| e.1);
        f(id, l, r);
    }
}

impl MortarPeer {
    /// The one install path: every control message that carries a query
    /// — a multicast chunk, a reconciliation entry, a topology reply —
    /// applies it here. `issue_age_us` is the query's age on arrival and
    /// `record` this peer's plan record, if the message carries one.
    ///
    /// The install is refused under an equal or newer cached tombstone, an
    /// id held under another name, a newer held install, or the same `seq`
    /// held and either already connected or offered no record. The same
    /// `seq` held pending and offered a record is connected in place,
    /// keeping its issue instant, TS list and netDist. Anything else puts
    /// fresh state (connected, and its plan neighbours marked heard, when
    /// a record came with it); a member left without a record asks the
    /// query root for it.
    pub(crate) fn install_query(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        record: Option<InstallRecord>,
        issue_age_us: i64,
    ) {
        let local_now = ctx.local_now_us();
        if self.removed.get(&id).is_some_and(|&rseq| rseq >= seq) {
            return; // A newer removal wins.
        }
        let held = self.queries.get(&id);
        // The install is peer input: an id that names another query here
        // must not merge two queries' data paths.
        if held.is_some_and(|q| *q.name != *spec.name) {
            return;
        }
        let held = held.map(|q| (q.seq, q.active()));
        let in_place = held == Some((seq, false)) && record.is_some();
        if held.is_some_and(|(s, _)| s >= seq) && !in_place {
            return; // A newer install, or this one, is already held.
        }
        if !in_place {
            // Only now — past every refusal path — may the store change.
            self.edit_store(id, |p| p.put_query(spec, id, seq, issue_age_us, local_now));
            self.stats.installs += 1;
            // Mark known neighbours as recently heard so routing starts
            // optimistic (the paper installs assuming the plan is live).
            for l in record.iter().flat_map(|r| &r.links) {
                for &p in l.parent.iter().chain(&l.children) {
                    self.last_heard.entry(p).or_insert(local_now);
                }
            }
        }
        match record {
            Some(rec) => self.connect(id, rec, local_now),
            None => {
                let spec = self.queries.get(&id).map(|q| &q.spec);
                if let Some(spec) = spec.filter(|s| s.member_of(self.id).is_some()) {
                    let req = MortarMsg::TopoRequest { id };
                    let bytes = req.wire_bytes();
                    ctx.send_classified(spec.root, req, bytes, TrafficClass::Control);
                }
            }
        }
        self.rebuild_hb_children();
    }

    /// The store half of a fresh install, run inside
    /// [`Self::install_query`]'s [`Self::edit_store`]: clears the
    /// tombstone and puts the query's fresh runtime state in place,
    /// pending (no record, not scheduled) until connected.
    fn put_query(
        &mut self,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        issue_age_us: i64,
        local_now: i64,
    ) {
        self.removed.remove(&id);
        spec.window.validate();
        let state = QueryState {
            name: Arc::from(spec.name.as_str()),
            route_template: RouteState::from_levels(&[]),
            spec,
            id,
            seq,
            record: None,
            plan: Box::default(),
            t_ref_base_us: local_now - issue_age_us,
            ts: TimeSpaceList::new(),
            netdist: [NetDist::new(NETDIST_INIT_US); MAX_TREES],
            stripe_rr: self.id as usize, // Stagger striping across peers.
            buckets: super::Buckets::default(),
            next_close_k: 0,
            source: Source::default(),
            tuple_buf: Vec::new(),
            tuples_seen: 0,
            tuples_out: 0,
            sched_due_us: i64::MAX,
        };
        // A refresh replaces the whole runtime state; drop the old state's
        // due-index entry before it is clobbered.
        self.unschedule(id);
        self.index_subscriptions(id, &state.spec.sensor);
        self.queries.insert(id, Box::new(state));
    }

    /// Connects a held query to its plan record: takes its route template
    /// from the record's levels and starts its window grid and source at
    /// `local_now`, then gives it a due instant.
    fn connect(&mut self, id: QueryId, record: InstallRecord, local_now: i64) {
        let Some(q) = self.queries.get_mut(&id) else { return };
        q.route_template = RouteState::from_levels(&record.levels());
        let frame = q.frame_now(self.cfg.indexing, local_now);
        q.next_close_k = frame.div_euclid(q.spec.window.slide as i64);
        q.source = Source::new(&q.spec.sensor, local_now - q.t_ref_base_us);
        q.record = Some(record);
        self.reschedule(id);
    }

    /// Records the query's subscription edges in the subscriber index
    /// (idempotent: re-installs refresh in place).
    fn index_subscriptions(&mut self, id: QueryId, sensor: &SensorSpec) {
        self.unindex_subscriptions(id);
        let SensorSpec::Subscribe { queries } = sensor else { return };
        for up in queries {
            let subs = self.subscribers.entry(up.clone()).or_default();
            if !subs.contains(&id) {
                subs.push(id);
            }
        }
    }

    /// Drops a query from the subscriber index.
    fn unindex_subscriptions(&mut self, id: QueryId) {
        self.subscribers.retain(|_, subs| {
            subs.retain(|&s| s != id);
            !subs.is_empty()
        });
    }

    /// The one removal path: applies a removal at sequence `rseq`, from a
    /// multicast `Remove` or a reconciliation tombstone. Under an equal or
    /// newer cached tombstone, or a held install at an equal or newer
    /// sequence, it does nothing. A held install the removal beats is torn
    /// down (its open state discarded, not drained), the tombstone cached,
    /// and its primary-tree children returned for forwarding. Otherwise
    /// the tombstone is cached, so this peer's store hash can match the
    /// remover's.
    pub(crate) fn remove_query(&mut self, id: QueryId, rseq: u64) -> Option<Vec<NodeId>> {
        if self.removed.get(&id).is_some_and(|&r| r >= rseq) {
            return None; // An equal or newer tombstone is already cached.
        }
        let Some(q) = self.queries.get(&id) else {
            self.edit_store(id, |p| p.removed.insert(id, rseq));
            return None;
        };
        if q.seq >= rseq {
            return None;
        }
        let fwd = q.record.as_ref().map(|r| r.links[0].children.clone()).unwrap_or_default();
        self.unschedule(id);
        self.edit_store(id, |p| {
            p.queries.remove(&id);
            p.unindex_subscriptions(id);
            p.removed.insert(id, rseq);
        });
        self.stats.removals += 1;
        self.rebuild_hb_children();
        Some(fwd)
    }

    /// Handles a removal command, forwarding it down the primary tree
    /// from a peer that tore the query down. Only a query this peer holds
    /// or has a tombstone for is removed: a multicast `Remove` for one it
    /// never heard of (say, an install injected at a dead root) would
    /// otherwise mint a tombstone that no command log names.
    pub(crate) fn handle_remove(&mut self, ctx: &mut Ctx<'_, MortarMsg>, id: QueryId, seq: u64) {
        if !self.queries.contains_key(&id) && !self.removed.contains_key(&id) {
            return;
        }
        for c in self.remove_query(id, seq).unwrap_or_default() {
            let msg = MortarMsg::Remove { id, seq };
            let bytes = msg.wire_bytes();
            ctx.send_classified(c, msg, bytes, TrafficClass::Control);
        }
    }

    /// Sends a reconciliation message, charging the reconcile-traffic
    /// counters of [`super::PeerStats`].
    fn send_reconcile_msg(&mut self, ctx: &mut Ctx<'_, MortarMsg>, to: NodeId, msg: MortarMsg) {
        let bytes = msg.wire_bytes();
        self.stats.reconcile_msgs_out += 1;
        self.stats.reconcile_bytes_out += bytes as u64;
        ctx.send_classified(to, msg, bytes, TrafficClass::Control);
    }

    /// Starts a reconciliation with `from` by sending this peer's store
    /// digest (phase 1): `(id, seq)` pairs only, no specs. Every
    /// divergence signal lands here: a store-hash mismatch (heartbeat- or
    /// data-path-carried), or data for a query this peer removed — the
    /// digest carries the tombstone, and the receiver removes the query
    /// on arrival.
    pub(crate) fn trigger_reconcile(&mut self, ctx: &mut Ctx<'_, MortarMsg>, from: NodeId) {
        self.stats.reconciles += 1;
        let digest = MortarMsg::ReconcileDigest {
            installed: self.queries.values().map(|q| (q.id, q.seq)).collect(),
            removed: self.removed.iter().map(|(&id, &s)| (id, s)).collect(),
        };
        self.send_reconcile_msg(ctx, from, digest);
    }

    /// Handles a heartbeat, answering hash mismatches with a
    /// reconciliation exchange.
    pub(crate) fn handle_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        store_hash: Option<u64>,
    ) {
        if let Some(h) = store_hash {
            if h != self.my_store_hash() {
                self.trigger_reconcile(ctx, from);
            }
        }
    }

    /// Handles a store digest (phase 1 → phase 2): computes which entries
    /// actually differ and replies with a plan that pushes the digest
    /// sender's gaps in full, requests this peer's own gaps, and carries
    /// the tombstones of this peer's removal cache that the digest lacks.
    /// The decisions are exactly [`crate::reconcile::digest_plan`]'s —
    /// [`crate::reconcile::reconcile`] run in both directions — expressed
    /// in id space (the single-writer object store gives each name one id
    /// for good).
    ///
    /// The digest's lists and this peer's maps are all id-ordered, so one
    /// merge-join walk over each pair decides everything: an entry both
    /// sides hold alike costs a comparison, and only an entry that is
    /// shipped costs a pointer clone.
    // lint:hot-path
    pub(crate) fn handle_reconcile_digest(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        mut installed: Vec<(QueryId, u64)>,
        mut removed: Vec<(QueryId, u64)>,
    ) {
        let local_now = ctx.local_now_us();
        sort_digest(&mut installed);
        sort_digest(&mut removed);
        let digest_removed =
            |id: QueryId| removed.binary_search_by_key(&id, |e| e.0).ok().map(|i| removed[i].1);
        let (mut want, mut push) = (Vec::new(), Vec::new());
        let mine = self.queries.iter().map(|(&id, q)| (id, &**q));
        join_by_id(installed.iter().copied(), mine, |id, theirs, mine| {
            // `want`: remote installs that beat everything known locally —
            // including ids never seen here (no binding, no tombstone),
            // which by definition are wanted.
            if let Some(seq) = theirs {
                let have = mine.is_some_and(|q| q.seq >= seq);
                if !have && self.removed.get(&id).is_none_or(|&r| r < seq) {
                    want.push(id);
                }
            }
            // `push`: local installs the digest lacks or holds at a stale
            // sequence, shipped in full (spec pointers, no copies).
            if let Some(q) = mine {
                let have = theirs.is_some_and(|s| s >= q.seq);
                if !have && digest_removed(id).is_none_or(|r| r < q.seq) {
                    push.push((q.spec.clone(), id, q.seq, local_now - q.t_ref_base_us));
                }
            }
        });
        let (mut tombstones, mut adopt) = (Vec::new(), Vec::new());
        let mine = self.removed.iter().map(|(&id, &s)| (id, s));
        join_by_id(removed.iter().copied(), mine, |id, theirs, mine| match (theirs, mine) {
            // A digest tombstone that beats the local cache is adopted
            // after the plan goes out, whether or not this peer ever saw
            // the query.
            (Some(rseq), mine) if mine.is_none_or(|s| s < rseq) => adopt.push((id, rseq)),
            // A local tombstone the digest lacks or holds at an older
            // sequence ships; the receiver would skip any other one anyway
            // (it already caches an equal or newer tombstone, which only a
            // newer install — one that outranks ours — can have cleared).
            (theirs, Some(s)) if theirs.is_none_or(|r| r < s) => tombstones.push((id, s)),
            _ => {}
        });
        let plan = MortarMsg::ReconcilePlan { push, want, removed: tombstones };
        self.send_reconcile_msg(ctx, from, plan);
        // Adopt after the plan is built from the pre-exchange snapshot, so
        // the plan reflects what this peer held when the digest arrived.
        for (id, rseq) in adopt {
            self.remove_query(id, rseq);
        }
    }

    /// Handles a reconciliation plan (phase 2 → phase 3): answers the
    /// `want` list with full entries from the live state, then applies the
    /// pushed entries and the planner's tombstones.
    pub(crate) fn handle_reconcile_plan(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        push: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
        want: Vec<QueryId>,
        removed: Vec<(QueryId, u64)>,
    ) {
        let local_now = ctx.local_now_us();
        let entries: Vec<(Arc<QuerySpec>, QueryId, u64, i64)> = want
            .iter()
            .filter_map(|id| {
                self.queries
                    .get(id)
                    .map(|q| (q.spec.clone(), q.id, q.seq, local_now - q.t_ref_base_us))
            })
            .collect();
        if !entries.is_empty() {
            let transfer = MortarMsg::ReconcileTransfer { entries };
            self.send_reconcile_msg(ctx, from, transfer);
        }
        self.handle_reconcile_transfer(ctx, push);
        for (id, rseq) in removed {
            self.remove_query(id, rseq);
        }
    }

    /// Handles a reconciliation transfer (phase 3): the entries arrive in
    /// full, without records, and install as pending.
    pub(crate) fn handle_reconcile_transfer(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        entries: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
    ) {
        for (spec, id, seq, age) in entries {
            self.install_query(ctx, spec, id, seq, None, age + HOP_AGE_EST_US as i64);
        }
    }

    /// Handles a chunked-multicast install (Section 6): installs this
    /// peer's own record, then forwards the chunk — or, at the query root
    /// holding the whole plan, chunks and multicasts it and keeps the plan
    /// for the topology service, provided the root holds the query at this
    /// message's `seq` (a stale plan goes nowhere).
    pub(crate) fn handle_install(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        records: Vec<InstallRecord>,
        issue_age_us: i64,
    ) {
        if self.removed.get(&id).is_some_and(|&r| r >= seq) {
            return;
        }
        let m = spec.member_of(self.id);
        if let Some(rec) = records.iter().find(|r| Some(r.member) == m) {
            self.install_query(ctx, spec.clone(), id, seq, Some(rec.clone()), issue_age_us);
        }
        let age = issue_age_us + HOP_AGE_EST_US as i64;
        if spec.root != self.id || records.len() != spec.members.len() {
            return self.forward_install(ctx, &spec, id, seq, &records, age);
        }
        if self.queries.get(&id).is_none_or(|q| q.seq != seq) {
            return;
        }
        let chunks =
            chunk_components_with_peers(&records, Some(&spec.members), self.cfg.install_chunks);
        for chunk in chunks {
            let croot = component_root(&chunk, Some(&spec.members));
            let croot_peer = spec.members[croot as usize];
            if croot_peer == self.id {
                // Our own component: forward directly to children.
                self.forward_install(ctx, &spec, id, seq, &chunk, age);
                continue;
            }
            let msg = MortarMsg::Install {
                spec: spec.clone(),
                id,
                seq,
                records: chunk,
                issue_age_us: age,
            };
            let bytes = msg.wire_bytes();
            ctx.send_classified(croot_peer, msg, bytes, TrafficClass::Control);
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.plan = records.into_boxed_slice();
        }
    }

    fn forward_install(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        spec: &Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        records: &[InstallRecord],
        issue_age_us: i64,
    ) {
        let Some(m) = spec.member_of(self.id) else { return };
        let groups = forward_groups(m, records, Some(&spec.members));
        for (child_peer, group) in groups {
            let msg =
                MortarMsg::Install { spec: spec.clone(), id, seq, records: group, issue_age_us };
            let bytes = msg.wire_bytes();
            ctx.send_classified(child_peer, msg, bytes, TrafficClass::Control);
        }
    }

    /// Answers a topology-service lookup (query roots only).
    pub(crate) fn handle_topo_request(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        id: QueryId,
    ) {
        let local_now = ctx.local_now_us();
        let reply = self.queries.get(&id).and_then(|q| {
            let m = q.spec.member_of(from)?;
            let rec = q.plan.iter().find(|r| r.member == m)?.clone();
            Some(MortarMsg::TopoReply {
                id: q.id,
                seq: q.seq,
                spec: q.spec.clone(),
                record: rec,
                issue_age_us: local_now - q.t_ref_base_us,
            })
        });
        if let Some(reply) = reply {
            let bytes = reply.wire_bytes();
            ctx.send_classified(from, reply, bytes, TrafficClass::Control);
        }
    }

    /// Applies a topology-service reply: the record connects a pending
    /// install of the same incarnation in place, or installs afresh.
    pub(crate) fn handle_topo_reply(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        id: QueryId,
        seq: u64,
        spec: Arc<QuerySpec>,
        record: InstallRecord,
        issue_age_us: i64,
    ) {
        let age = issue_age_us + HOP_AGE_EST_US as i64;
        self.install_query(ctx, spec, id, seq, Some(record), age);
    }

    /// Emits this beat's heartbeats to all distinct children.
    pub(crate) fn send_heartbeats(&mut self, ctx: &mut Ctx<'_, MortarMsg>) {
        self.hb_count += 1;
        let hash = if self.hb_count.is_multiple_of(self.cfg.reconcile_every as u64) {
            Some(self.my_store_hash())
        } else {
            None
        };
        // Iterate the child set directly — sends only borrow `ctx`, so the
        // per-beat clone of the child list was pure allocator churn.
        for &c in &self.hb_children {
            let msg = MortarMsg::Heartbeat { store_hash: hash };
            let bytes = msg.wire_bytes();
            ctx.send_classified(c, msg, bytes, TrafficClass::Heartbeat);
        }
    }
}
