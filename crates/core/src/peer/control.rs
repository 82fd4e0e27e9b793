//! Control plane: install / remove / pair-wise reconciliation / heartbeats
//! and the query-root topology service (Section 6).
//!
//! Anti-entropy is one protocol, the three-phase digest exchange
//! (`trigger_reconcile`), started by any of three signals: a
//! mismatching store hash on a heartbeat, a mismatching store hash on a
//! data frame, or data arriving for a query this peer removed.
//!
//! Spec-carrying control messages ship `Arc<QuerySpec>`: multicast
//! chunking, install forwarding, reconciliation pushes and topology
//! replies clone a pointer, never the spec. The removal cache is id-keyed
//! end to end — tombstones live under [`crate::query::QueryId`] and travel
//! as `(id, seq)` pairs; names are resolved through the directory only
//! where a receiver must adopt a tombstone it cannot name, or where the
//! portable store hash needs them.

use super::{MortarPeer, QueryState};
use crate::install::{chunk_components_with_peers, component_root, forward_groups};
use crate::msg::MortarMsg;
use crate::netdist::NetDist;
use crate::query::{InstallRecord, QueryId, QuerySpec, SensorSpec};
use crate::tslist::TimeSpaceList;
use crate::window::WindowKind;
use mortar_net::{Ctx, NodeId, TrafficClass};
use mortar_overlay::{RouteState, MAX_TREES};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The origin route state implied by an install record: the member's own
/// level on every tree, zero TTL-down.
fn route_template(record: Option<&InstallRecord>) -> RouteState {
    match record {
        Some(rec) => RouteState::from_levels(&rec.levels()),
        None => RouteState::from_levels(&[]),
    }
}

impl MortarPeer {
    /// Installs (or refreshes) a query's runtime state.
    pub(crate) fn install_query(
        &mut self,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        record: Option<InstallRecord>,
        issue_age_us: i64,
        local_now: i64,
    ) {
        if self.removed.get(&id).is_some_and(|&rseq| rseq >= seq) {
            return; // A newer removal wins.
        }
        // Id collision guard: ids are unique only within one injector's
        // object store (the single-writer assumption). If a second injector
        // ever mints the same id for a *different* name, refuse the install
        // rather than merge two queries' data paths.
        if self.directory.name_of(id).is_some_and(|n| n != spec.name) {
            return;
        }
        if let Some(existing) = self.queries.get(&id) {
            if existing.seq >= seq && existing.record.is_some() {
                return; // Already current.
            }
        }
        // Only now — past every refusal path — may the removal tombstone
        // be cleared: mutating it on a refused install would desynchronize
        // the (memoized) store hash from the advertised state.
        self.removed.remove(&id);
        let window = spec.window;
        window.validate();
        let t_ref_base = local_now - issue_age_us;
        let frame_now = match self.cfg.indexing {
            super::IndexingMode::Syncless => local_now - t_ref_base,
            super::IndexingMode::Timestamp => local_now,
        };
        let slide = window.slide as i64;
        // Feed-driven sensors build their live source here, as a pure
        // function of (spec, peer id) — installs on any shard layout
        // reconstruct the identical connector state.
        let feed = match &spec.sensor {
            crate::query::SensorSpec::Feed(fs) => Some(fs.instantiate(self.id)),
            _ => None,
        };
        let state = QueryState {
            name: Arc::from(spec.name.as_str()),
            route_template: route_template(record.as_ref()),
            spec,
            id,
            seq,
            record,
            t_ref_base_us: t_ref_base,
            ts: TimeSpaceList::new(),
            netdist: [NetDist::new(self.cfg.netdist_init_us, self.cfg.netdist_alpha); MAX_TREES],
            stripe_rr: self.id as usize, // Stagger striping across peers.
            buckets: BTreeMap::new(),
            next_close_k: if window.kind == WindowKind::Time {
                frame_now.div_euclid(slide)
            } else {
                0
            },
            next_emit_local_us: local_now,
            feed,
            tuple_buf: Vec::new(),
            replay_pos: 0,
            tuples_seen: 0,
            tuples_out: 0,
            sched_due_us: i64::MAX,
        };
        // A refresh replaces the whole runtime state; drop the old state's
        // due-index entry before it is clobbered.
        self.unschedule(id);
        self.directory.bind(id, &state.spec.name);
        let neighbours: Vec<NodeId> = state
            .record
            .as_ref()
            .map(|r| {
                r.links
                    .iter()
                    .flat_map(|l| l.parent.into_iter().chain(l.children.iter().copied()))
                    .collect()
            })
            .unwrap_or_default();
        self.register_routes(id, state.record.as_ref());
        self.index_subscriptions(id, &state.spec.sensor);
        self.queries.insert(id, state);
        self.reschedule(id);
        self.invalidate_store_hash();
        self.stats.installs += 1;
        self.rebuild_hb_children();
        // Mark known neighbours as recently heard so routing starts
        // optimistic (the paper installs assuming the plan is live).
        for p in neighbours {
            self.last_heard.entry(p).or_insert(local_now);
        }
    }

    /// Records the query's subscription edges in the subscriber index
    /// (idempotent: re-installs refresh in place).
    fn index_subscriptions(&mut self, id: QueryId, sensor: &SensorSpec) {
        self.unindex_subscriptions(id);
        let upstreams: &[String] = match sensor {
            SensorSpec::Subscribe { query } => std::slice::from_ref(query),
            SensorSpec::FanIn { queries } => queries,
            _ => return,
        };
        for up in upstreams {
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

    /// (Re)registers a query's static routing inputs from its record.
    pub(crate) fn register_routes(&mut self, id: QueryId, record: Option<&InstallRecord>) {
        match record {
            Some(rec) => {
                let levels = rec.levels();
                let child_counts = rec.links.iter().map(|l| l.children.len()).collect();
                self.route_table.register(id, levels, child_counts);
            }
            None => self.route_table.remove(id),
        }
    }

    /// Removes a query; returns the primary-tree children to forward the
    /// removal to, or `None` when the removal is stale or unknown.
    pub(crate) fn remove_query(&mut self, name: &str, seq: u64) -> Option<Vec<NodeId>> {
        let id = self.directory.id_of(name)?;
        let q = self.queries.get(&id)?;
        if q.seq >= seq {
            return None;
        }
        let fwd: Vec<NodeId> =
            q.record.as_ref().map(|r| r.links[0].children.clone()).unwrap_or_default();
        self.unschedule(id);
        self.queries.remove(&id);
        self.route_table.remove(id);
        self.unindex_subscriptions(id);
        // The directory keeps the retired id→name binding, so the id-keyed
        // tombstone can still be hashed (and reported) by name, and stale
        // data frames for this id still trigger removal reconciliation.
        self.removed.insert(id, seq);
        self.invalidate_store_hash();
        self.stats.removals += 1;
        self.rebuild_hb_children();
        Some(fwd)
    }

    /// Handles an id-carrying removal command, forwarding it down the
    /// primary tree. The name is resolved through this peer's directory;
    /// an unresolvable id means the query was never installed here, so
    /// there is nothing to remove or forward (reconciliation covers peers
    /// that missed both the install and the removal).
    pub(crate) fn handle_remove(&mut self, ctx: &mut Ctx<'_, MortarMsg>, id: QueryId, seq: u64) {
        let Some(name) = self.directory.name_of(id).map(str::to_string) else { return };
        if let Some(children) = self.remove_query(&name, seq) {
            for c in children {
                let msg = MortarMsg::Remove { id, seq };
                let bytes = msg.wire_bytes();
                ctx.send_classified(c, msg, bytes, TrafficClass::Control);
            }
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

    /// Installs one entry learned through reconciliation (a plan's push
    /// or a transfer) and fetches this peer's physical-plan record from
    /// the query root. Entries the local state already beats — an equal or
    /// newer install, or an equal or newer tombstone — are skipped, so no
    /// spurious topology fetch goes out; these are exactly the
    /// [`crate::reconcile::reconcile`] `to_install` conditions, re-checked
    /// here because a digest plan was computed from a snapshot that may
    /// have raced a direct install or removal in flight.
    fn reconcile_install(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        age: i64,
        local_now: i64,
    ) {
        let have = self.queries.get(&id).is_some_and(|q| q.seq >= seq);
        let removed_newer = self.removed.get(&id).is_some_and(|&r| r >= seq);
        if have || removed_newer {
            return;
        }
        let age = age + self.cfg.hop_age_est_us as i64;
        let root = spec.root;
        let name = spec.name.clone();
        self.install_query(spec, id, seq, None, age, local_now);
        let req = MortarMsg::TopoRequest { name };
        let bytes = req.wire_bytes();
        ctx.send_classified(root, req, bytes, TrafficClass::Control);
    }

    /// Applies one remote tombstone, whatever this peer knew before:
    ///
    /// - a live install the removal beats is torn down
    ///   ([`Self::remove_query`], which also discards stale sequences);
    /// - a query never seen here gets the tombstone *adopted* — id bound
    ///   (unless either key already belongs to a newer incarnation) and
    ///   the removal cached — so this peer's store hash can actually
    ///   match the remover's instead of re-reconciling every hash beat.
    pub(crate) fn adopt_removal(&mut self, name: &str, id: QueryId, rseq: u64) {
        if self.removed.get(&id).is_some_and(|&r| r >= rseq) {
            return; // An equal or newer tombstone is already cached.
        }
        if self.queries.contains_key(&id) {
            // Resolve through the *local* binding: a live install always
            // bound it, and ids map 1:1 to names under the single-writer
            // store (colliding ids were refused at install).
            if let Some(local) = self.directory.name_of(id).map(str::to_string) {
                self.remove_query(&local, rseq);
            }
            return;
        }
        if self.directory.name_of(id).is_none() && self.directory.id_of(name).is_none() {
            self.directory.bind(id, name);
        }
        self.removed.insert(id, rseq);
        self.invalidate_store_hash();
    }

    /// Handles a store digest (phase 1 → phase 2): computes which entries
    /// actually differ and replies with a plan that pushes the digest
    /// sender's gaps in full, requests this peer's own gaps, and carries
    /// the tombstones of this peer's removal cache that the digest lacks.
    /// The decisions are exactly [`crate::reconcile::digest_plan`]'s —
    /// [`crate::reconcile::reconcile`] run in both directions — expressed
    /// in id space (ids bind 1:1 to names through the single-writer object
    /// store; a colliding id from a second injector is refused at
    /// install).
    pub(crate) fn handle_reconcile_digest(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        installed: Vec<(QueryId, u64)>,
        removed: Vec<(QueryId, u64)>,
    ) {
        let local_now = ctx.local_now_us();
        // `want`: remote installs that beat everything known locally —
        // including ids never seen here (no binding, no tombstone), which
        // by definition are wanted.
        let want: Vec<QueryId> = installed
            .iter()
            .filter(|&&(id, seq)| {
                let have = self.queries.get(&id).is_some_and(|q| q.seq >= seq);
                let removed_newer = self.removed.get(&id).is_some_and(|&r| r >= seq);
                !have && !removed_newer
            })
            .map(|&(id, _)| id)
            .collect();
        // `want_removed`: digest tombstones that beat the local cache but
        // whose id this peer cannot name — adoption needs the name, so
        // the digest sender ships them named in the transfer.
        let want_removed: Vec<QueryId> = removed
            .iter()
            .filter(|&&(id, rseq)| {
                self.directory.name_of(id).is_none()
                    && self.removed.get(&id).is_none_or(|&r| r < rseq)
            })
            .map(|&(id, _)| id)
            .collect();
        // `push`: local installs the digest lacks or holds at a stale
        // sequence, shipped in full (spec pointers, no copies).
        let other_installed: BTreeMap<QueryId, u64> = installed.into_iter().collect();
        let other_removed: BTreeMap<QueryId, u64> = removed.iter().copied().collect();
        let push: Vec<(Arc<QuerySpec>, QueryId, u64, i64)> = self
            .queries
            .values()
            .filter(|q| {
                let have = other_installed.get(&q.id).is_some_and(|&s| s >= q.seq);
                let removed_newer = other_removed.get(&q.id).is_some_and(|&r| r >= q.seq);
                !have && !removed_newer
            })
            .map(|q| (q.spec.clone(), q.id, q.seq, local_now - q.t_ref_base_us))
            .collect();
        // Ship only the tombstones the digest lacks or holds at an older
        // sequence: the receiver would skip any other one anyway (it
        // already caches an equal or newer tombstone, which only a newer
        // install — one that outranks ours — can have cleared). Tombstones
        // whose id no longer resolves (the name was re-bound to a newer
        // incarnation) are invisible to the store hash and are not
        // shipped either.
        let tombstones: Vec<(Arc<str>, QueryId, u64)> = self
            .removed
            .iter()
            .filter(|&(id, &s)| other_removed.get(id).is_none_or(|&r| r < s))
            .filter_map(|(&id, &s)| self.directory.name_of(id).map(|n| (Arc::from(n), id, s)))
            .collect();
        let plan = MortarMsg::ReconcilePlan { push, want, want_removed, removed: tombstones };
        self.send_reconcile_msg(ctx, from, plan);
        // Apply the digest's resolvable tombstones after the plan is
        // built from the pre-exchange snapshot, so the plan reflects what
        // this peer held when the digest arrived. (Unresolvable ones were
        // requested above and adopt on transfer.)
        for (id, rseq) in removed {
            if let Some(name) = self.directory.name_of(id).map(str::to_string) {
                self.adopt_removal(&name, id, rseq);
            }
        }
    }

    /// Handles a reconciliation plan (phase 2 → phase 3): installs the
    /// pushed entries, adopts the planner's tombstones, and answers
    /// the `want`/`want_removed` lists with full entries (and named
    /// tombstones) from the live state.
    pub(crate) fn handle_reconcile_plan(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        from: NodeId,
        push: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
        want: Vec<QueryId>,
        want_removed: Vec<QueryId>,
        removed: Vec<(Arc<str>, QueryId, u64)>,
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
        let tombstones: Vec<(Arc<str>, QueryId, u64)> = want_removed
            .iter()
            .filter_map(|&id| {
                let &rseq = self.removed.get(&id)?;
                let name = self.directory.name_of(id)?;
                Some((Arc::from(name), id, rseq))
            })
            .collect();
        if !entries.is_empty() || !tombstones.is_empty() {
            let transfer = MortarMsg::ReconcileTransfer { entries, removed: tombstones };
            self.send_reconcile_msg(ctx, from, transfer);
        }
        for (spec, id, seq, age) in push {
            self.reconcile_install(ctx, spec, id, seq, age, local_now);
        }
        for (name, id, rseq) in &removed {
            self.adopt_removal(name, *id, *rseq);
        }
    }

    /// Handles a reconciliation transfer (phase 3): the requested entries
    /// arrive in full and install under the usual sequence guards; the
    /// requested tombstones arrive named and are adopted.
    pub(crate) fn handle_reconcile_transfer(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        entries: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
        removed: Vec<(Arc<str>, QueryId, u64)>,
    ) {
        let local_now = ctx.local_now_us();
        for (spec, id, seq, age) in entries {
            self.reconcile_install(ctx, spec, id, seq, age, local_now);
        }
        for (name, id, rseq) in &removed {
            self.adopt_removal(name, *id, *rseq);
        }
    }

    /// Handles a chunked-multicast install (Section 6).
    pub(crate) fn handle_install(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        spec: Arc<QuerySpec>,
        id: QueryId,
        seq: u64,
        records: Vec<InstallRecord>,
        issue_age_us: i64,
    ) {
        let local_now = ctx.local_now_us();
        if self.removed.get(&id).is_some_and(|&r| r >= seq) {
            return;
        }
        let my_member = spec.member_of(self.id);
        let is_root = spec.root == self.id;
        if is_root && records.len() == spec.members.len() {
            // Acting as the installer: keep the full plan for the topology
            // service, then chunk and multicast.
            self.topo.insert(spec.name.clone(), records.clone());
            if let Some(m) = my_member {
                if let Some(rec) = records.iter().find(|r| r.member == m) {
                    self.install_query(
                        spec.clone(),
                        id,
                        seq,
                        Some(rec.clone()),
                        issue_age_us,
                        local_now,
                    );
                }
            }
            let chunks =
                chunk_components_with_peers(&records, Some(&spec.members), self.cfg.install_chunks);
            let age = issue_age_us + self.cfg.hop_age_est_us as i64;
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
            return;
        }
        if let Some(m) = my_member {
            if let Some(rec) = records.iter().find(|r| r.member == m) {
                self.install_query(
                    spec.clone(),
                    id,
                    seq,
                    Some(rec.clone()),
                    issue_age_us,
                    local_now,
                );
            }
        }
        let age = issue_age_us + self.cfg.hop_age_est_us as i64;
        self.forward_install(ctx, &spec, id, seq, &records, age);
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
        name: &str,
    ) {
        let local_now = ctx.local_now_us();
        let reply = self.topo.get(name).and_then(|records| {
            let q = self.query_by_name(name)?;
            let m = q.spec.member_of(from)?;
            let rec = records.iter().find(|r| r.member == m)?.clone();
            Some(MortarMsg::TopoReply {
                name: name.to_string(),
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

    /// Applies a topology-service reply, connecting a pending install.
    pub(crate) fn handle_topo_reply(
        &mut self,
        ctx: &mut Ctx<'_, MortarMsg>,
        id: QueryId,
        seq: u64,
        spec: Arc<QuerySpec>,
        record: InstallRecord,
        issue_age_us: i64,
    ) {
        let local_now = ctx.local_now_us();
        let age = issue_age_us + self.cfg.hop_age_est_us as i64;
        match self.queries.get_mut(&id) {
            Some(q) if q.record.is_none() => {
                q.record = Some(record);
                q.seq = q.seq.max(seq);
                q.route_template = route_template(q.record.as_ref());
                let slide = q.spec.window.slide as i64;
                let frame = q.frame_now(self.cfg.indexing, local_now);
                q.next_close_k = frame.div_euclid(slide);
                q.next_emit_local_us = local_now;
                let rec = q.record.clone();
                self.register_routes(id, rec.as_ref());
                // The query just went active: give it a due instant.
                self.reschedule(id);
                self.invalidate_store_hash();
                self.rebuild_hb_children();
            }
            Some(_) => {}
            None => {
                self.install_query(spec, id, seq, Some(record), age, local_now);
            }
        }
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
