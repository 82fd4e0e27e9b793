//! Experiment harness: wires topology, coordinates, planner, clocks and
//! peers into a runnable system.
//!
//! The engine mirrors the paper's deployment flow: Vivaldi runs over the
//! topology to produce network coordinates (Section 3.1), the physical
//! dataflow planner arranges each query's operators into a primary +
//! sibling tree set, and the install command is injected at the query root,
//! which chunk-multicasts it (Section 6). Harnesses then script failures
//! with [`Engine::set_host_up`] and read results from the root peer.

use crate::error::MortarError;
use crate::metrics::ResultRecord;
use crate::msg::MortarMsg;
use crate::op::OpRegistry;
use crate::peer::{MortarPeer, PeerConfig};
use crate::query::{build_records, QueryId, QuerySpec};
use crate::store::ObjectStore;
use mortar_coords::VivaldiSystem;
use mortar_net::{ChaosConfig, ClockModel, NodeId, SimBuilder, Simulator, Topology};
use mortar_overlay::{plan_tree_set, PlannerConfig, TreeSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The network topology (defines the host count).
    pub topology: Topology,
    /// Deterministic seed for clocks, planning and routing randomness.
    pub seed: u64,
    /// Peer protocol configuration.
    pub peer: PeerConfig,
    /// Clock error model (Figures 9–10 use the PlanetLab-like model).
    pub clock_model: ClockModel,
    /// Planner configuration (branching factor, tree count).
    pub planner: PlannerConfig,
    /// Vivaldi rounds before planning (paper: at least ten).
    pub vivaldi_rounds: usize,
    /// Coordinate dimensionality (the prototype uses 3).
    pub vivaldi_dim: usize,
    /// If true, plan directly on the true latency matrix instead of running
    /// Vivaldi (faster for large parameter sweeps; same tree shapes).
    pub plan_on_true_latency: bool,
    /// Transport fault injection (loss / duplication / reorder jitter);
    /// defaults to none.
    pub chaos: ChaosConfig,
    /// Simulator shards. `1` (the default) runs the whole fleet as one
    /// shard on the calling thread; larger values partition peers across
    /// worker threads advancing in conservative windows. Every value runs
    /// the same execution (see `mortar_net::runtime::parallel`).
    pub shards: usize,
}

impl EngineConfig {
    /// Validates the configuration: chaos probabilities in range, a
    /// positive summary batch size and install chunk count, a netDist
    /// EWMA constant in (0, 1], at least one shard. Everything the
    /// transport or peer runtime would otherwise reject at run time
    /// surfaces here as a typed error — there is no panic left on the
    /// configuration-validation path.
    pub fn validate(&self) -> Result<(), MortarError> {
        self.chaos.validate().map_err(|e| MortarError::InvalidConfig { reason: e.reason })?;
        if self.peer.summary_batch_max < 1 {
            return Err(MortarError::InvalidConfig {
                reason: "summary_batch_max must be at least 1".into(),
            });
        }
        if self.peer.install_chunks == 0 {
            return Err(MortarError::InvalidConfig {
                reason: "install_chunks must be at least 1".into(),
            });
        }
        // Written so that NaN fails it too.
        if !(self.peer.netdist_alpha > 0.0 && self.peer.netdist_alpha <= 1.0) {
            return Err(MortarError::InvalidConfig {
                reason: "netdist_alpha must be in (0, 1]".into(),
            });
        }
        if self.shards == 0 {
            return Err(MortarError::InvalidConfig { reason: "shards must be at least 1".into() });
        }
        Ok(())
    }

    /// The paper's standard evaluation setup over `hosts` peers.
    pub fn paper(hosts: usize, seed: u64) -> Self {
        Self {
            topology: Topology::paper_inet(hosts, seed),
            seed,
            peer: PeerConfig::default(),
            clock_model: ClockModel::perfect(),
            planner: PlannerConfig::default(),
            vivaldi_rounds: 10,
            vivaldi_dim: 3,
            plan_on_true_latency: false,
            chaos: ChaosConfig::none(),
            shards: 1,
        }
    }
}

/// A running Mortar system.
pub struct Engine {
    /// The underlying simulator fleet (exposed for failure scripting).
    pub sim: Simulator<MortarPeer>,
    store: ObjectStore,
    coords: Vec<Vec<f64>>,
    planner: PlannerConfig,
    rng: SmallRng,
    /// The same registry handed to every peer, retained so
    /// [`Engine::validate`] can reject specs naming unregistered custom
    /// operators before they reach the runtime.
    registry: OpRegistry,
}

impl Engine {
    /// Builds the system (topology → coordinates → peers). A
    /// configuration violating an invariant (see
    /// [`EngineConfig::validate`]) is a typed error, not a panic.
    pub fn new(cfg: EngineConfig) -> Result<Self, MortarError> {
        Self::with_registry(cfg, OpRegistry::new())
    }

    /// Builds the system with user-defined operators registered.
    pub fn with_registry(cfg: EngineConfig, registry: OpRegistry) -> Result<Self, MortarError> {
        cfg.validate()?;
        let hosts = cfg.topology.hosts();
        let lat = cfg.topology.latency_matrix_ms();
        let coords: Vec<Vec<f64>> = if cfg.plan_on_true_latency {
            // Use latency rows directly as high-dimensional coordinates:
            // close nodes have similar rows, so clustering behaves like
            // clustering converged network coordinates.
            lat.clone()
        } else {
            let mut viv = VivaldiSystem::new(hosts, cfg.vivaldi_dim, cfg.seed ^ 0x5eed);
            viv.run(&lat, cfg.vivaldi_rounds, 8);
            viv.coords().into_iter().map(|c| c.0).collect()
        };
        let peer_cfg = cfg.peer;
        let builder =
            SimBuilder::new(cfg.topology, cfg.seed).clock_model(cfg.clock_model).chaos(cfg.chaos);
        let peer_registry = registry.clone();
        let sim = builder.build_sharded(cfg.shards, move |id| {
            MortarPeer::new(id, peer_cfg, peer_registry.clone())
        });
        Ok(Self {
            sim,
            store: ObjectStore::new(),
            coords,
            planner: cfg.planner,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x9e37),
            registry,
        })
    }

    /// The planner's coordinate view (for diagnostics and custom planning).
    pub fn coords(&self) -> &[Vec<f64>] {
        &self.coords
    }

    /// Number of hosts in the deployed topology.
    pub fn hosts(&self) -> usize {
        self.sim.topology().hosts()
    }

    /// Validates a spec against the deployment: members exist, are unique
    /// and in-topology, the root participates, and the window is sane.
    /// Everything [`Engine::plan`] and the peer runtime would otherwise
    /// panic on surfaces here as a typed error instead.
    pub fn validate(&self, spec: &QuerySpec) -> Result<(), MortarError> {
        let query = &spec.name;
        if self.planner.tree_count > mortar_overlay::MAX_TREES {
            // The per-tuple route state is an inline array; a wider plan
            // would panic deep inside the peer runtime instead.
            return Err(MortarError::TooManyTrees {
                requested: self.planner.tree_count,
                max: mortar_overlay::MAX_TREES,
            });
        }
        if spec.members.is_empty() {
            return Err(MortarError::NoMembers { query: query.clone() });
        }
        let hosts = self.hosts();
        let mut seen = std::collections::BTreeSet::new();
        for &p in &spec.members {
            if p as usize >= hosts {
                return Err(MortarError::MemberOutOfRange { query: query.clone(), peer: p, hosts });
            }
            if !seen.insert(p) {
                return Err(MortarError::DuplicateMember { query: query.clone(), peer: p });
            }
        }
        if spec.member_of(spec.root).is_none() {
            return Err(MortarError::RootNotMember { query: query.clone(), root: spec.root });
        }
        // Custom operator names (aggregate tree and root post-op) must
        // resolve now — the runtime treats a missing name as inert rather
        // than panicking, so an unvalidated install would silently compute
        // nothing.
        if let Some(name) = spec.op.missing_custom(&self.registry) {
            return Err(MortarError::UnknownOperator {
                query: query.clone(),
                name: name.to_string(),
            });
        }
        if let Some(post) = &spec.post {
            if !self.registry.contains(post) {
                return Err(MortarError::UnknownOperator {
                    query: query.clone(),
                    name: post.clone(),
                });
            }
        }
        let w = spec.window;
        if w.range == 0 || w.slide == 0 {
            return Err(MortarError::InvalidWindow {
                query: query.clone(),
                reason: "range and slide must be positive".into(),
            });
        }
        if w.range < w.slide {
            return Err(MortarError::InvalidWindow {
                query: query.clone(),
                reason: format!(
                    "range {} smaller than slide {} would drop data between windows",
                    w.range, w.slide
                ),
            });
        }
        Ok(())
    }

    /// Plans a tree set for `spec.members` rooted at `spec.root`.
    pub fn plan(&mut self, spec: &QuerySpec) -> Result<TreeSet, MortarError> {
        self.validate(spec)?;
        let member_coords: Vec<Vec<f64>> =
            spec.members.iter().map(|&p| self.coords[p as usize].clone()).collect();
        let root_member = spec.member_of(spec.root).expect("validated") as usize;
        Ok(plan_tree_set(&member_coords, root_member, &self.planner, &mut self.rng))
    }

    /// Plans, then injects the install command at the query root.
    /// Returns the planned tree set for analysis.
    pub fn install(&mut self, spec: QuerySpec) -> Result<TreeSet, MortarError> {
        let trees = self.plan(&spec)?;
        self.install_with_trees(spec, trees.clone());
        Ok(trees)
    }

    /// Injects an install with an externally planned tree set. The store
    /// interns the query's [`QueryId`]; re-installs keep their handle.
    pub fn install_with_trees(&mut self, spec: QuerySpec, trees: TreeSet) {
        let records = build_records(&spec.members, &trees);
        let id = self.store.intern(&spec.name);
        let seq = self.store.issue_install(&spec.name);
        let root = spec.root;
        let msg = MortarMsg::Install {
            spec: std::sync::Arc::new(spec),
            id,
            seq,
            records,
            issue_age_us: 0,
        };
        let bytes = msg.wire_bytes();
        self.sim.inject(root, root, msg, bytes);
    }

    /// The interned id the store assigned to `name`, if it was installed.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.store.query_id(name)
    }

    /// Injects a removal command at the query root. The command carries the
    /// query's interned id (like installs; the name never hits the wire)
    /// and a store sequence — which is only minted once the name is known,
    /// so removing a never-installed query is a typed error rather than a
    /// silent no-op that burns a sequence number.
    pub fn remove(&mut self, name: &str, root: NodeId) -> Result<(), MortarError> {
        let installed =
            matches!(self.store.latest(name), Some((_, crate::store::Command::Install)));
        if !installed {
            // Never installed, or already removed: either way there is no
            // live incarnation to tear down.
            return Err(MortarError::UnknownQuery { name: name.to_string() });
        }
        let id = self.store.query_id(name).expect("installed names are interned");
        let seq = self.store.issue_remove(name);
        let msg = MortarMsg::Remove { id, seq };
        let bytes = msg.wire_bytes();
        self.sim.inject(root, root, msg, bytes);
        Ok(())
    }

    /// Runs `s` seconds of true time.
    pub fn run_secs(&mut self, s: f64) {
        self.sim.run_for_secs(s);
    }

    /// Connects/disconnects a host's access link.
    pub fn set_host_up(&mut self, node: NodeId, up: bool) {
        self.sim.set_host_up(node, up);
    }

    /// Disconnects a random `frac` of hosts, never touching `protect`.
    /// Returns the disconnected set.
    pub fn disconnect_random(&mut self, frac: f64, protect: NodeId) -> Vec<NodeId> {
        let hosts = self.sim.topology().hosts() as NodeId;
        let mut candidates: Vec<NodeId> = (0..hosts).filter(|&n| n != protect).collect();
        candidates.shuffle(&mut self.rng);
        let k = ((hosts as f64) * frac).round() as usize;
        let chosen: Vec<NodeId> = candidates.into_iter().take(k).collect();
        for &n in &chosen {
            self.sim.set_host_up(n, false);
        }
        chosen
    }

    /// Reconnects the given hosts.
    pub fn reconnect(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.sim.set_host_up(n, true);
        }
    }

    /// Results currently retained by a query root's bounded log, oldest
    /// first (the log evicts beyond [`PeerConfig::result_log_cap`]).
    pub fn results(&self, root: NodeId) -> &[ResultRecord] {
        self.sim.app(root).results.records()
    }

    /// Sequence number the root's next result record will get — the
    /// stable cursor base for incremental drains.
    pub fn result_seq(&self, root: NodeId) -> u64 {
        self.sim.app(root).results.next_seq()
    }

    /// Retained results with sequence ≥ `seq` (clamped to retention).
    pub fn results_from(&self, root: NodeId, seq: u64) -> &[ResultRecord] {
        self.sim.app(root).results.read_from(seq)
    }

    /// How many peers have the query installed (record or not).
    pub fn installed_count(&self, name: &str) -> usize {
        self.sim.apps().filter(|p| p.has_query(name)).count()
    }

    /// How many peers have the query installed *and* connected.
    pub fn active_count(&self, name: &str) -> usize {
        self.sim.apps().filter(|p| p.is_active(name)).count()
    }

    /// Mean over peers of the number of distinct heartbeat children — the
    /// Figure 13 scaling metric.
    pub fn mean_heartbeat_children(&self) -> f64 {
        let hosts = self.sim.topology().hosts();
        let total: usize = self.sim.apps().map(|p| p.heartbeat_children()).sum();
        total as f64 / hosts as f64
    }

    /// Total summary frames sent across all peers (the per-message cost
    /// batching amortizes). Summed from peer counters rather than the
    /// transport's data-class totals so co-hosted non-summary data traffic
    /// can never leak into the metric.
    pub fn summary_frames_sent(&self) -> u64 {
        self.sim.apps().map(|p| p.stats.frames_out).sum()
    }

    /// Total summary tuples sent across all peers (invariant across batch
    /// sizes: batching regroups tuples, it never adds or drops them).
    pub fn summary_tuples_sent(&self) -> u64 {
        self.sim.apps().map(|p| p.stats.summaries_out).sum()
    }

    /// Total modelled summary payload bytes sent (frame headers excluded).
    pub fn summary_payload_bytes_sent(&self) -> u64 {
        self.sim.apps().map(|p| p.stats.summary_payload_bytes_out).sum()
    }

    /// Total envelope wire messages sent across all peers. With envelopes
    /// enabled this is the data-plane message-event count (each envelope
    /// coalesces `summary_frames_sent` logical frames across queries);
    /// zero when `envelope_budget = 0`.
    pub fn summary_envelopes_sent(&self) -> u64 {
        self.sim.apps().map(|p| p.stats.envelopes_out).sum()
    }

    /// Largest total outbox payload any single peer ever held pending in
    /// envelopes — one tick's coalescing memory, bounded per destination
    /// by the envelope budget.
    pub fn outbox_peak_bytes(&self) -> u64 {
        self.sim.apps().map(|p| p.stats.outbox_peak_bytes).max().unwrap_or(0)
    }

    /// Fleet-wide feed intake accounting: summed/peak-merged
    /// [`crate::feed::FeedStats`] over every installed feed, whether every
    /// feed's conservation invariant holds (offered tuples are fully
    /// accounted for), and the largest intake+spill byte footprint any
    /// single feed currently holds.
    pub fn feed_totals(&self) -> (crate::feed::FeedStats, bool, u64) {
        let mut total = crate::feed::FeedStats::default();
        let mut conserved = true;
        let mut peak_held = 0u64;
        for p in self.sim.apps() {
            let (t, c, held) = p.feed_totals();
            total.absorb(&t);
            conserved &= c;
            peak_held = peak_held.max(held);
        }
        (total, conserved, peak_held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::query::SensorSpec;
    use crate::window::WindowSpec;

    fn sum_spec(n: usize) -> QuerySpec {
        QuerySpec {
            name: "sum".into(),
            root: 0,
            members: (0..n as NodeId).collect(),
            op: OpKind::Sum { field: 0 },
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
            post: None,
        }
    }

    #[test]
    fn end_to_end_sum_over_paper_topology() {
        let n = 48;
        let mut cfg = EngineConfig::paper(n, 7);
        cfg.plan_on_true_latency = true;
        cfg.planner.branching_factor = 4;
        let mut eng = Engine::new(cfg).expect("valid config");
        let trees = eng.install(sum_spec(n)).expect("valid spec");
        assert_eq!(trees.width(), 4);
        eng.run_secs(40.0);
        assert_eq!(eng.active_count("sum"), n);
        let results = eng.results(0);
        assert!(!results.is_empty());
        let complete = crate::metrics::mean_completeness(results, n, 10);
        assert!(complete > 90.0, "steady-state completeness {complete}");
    }

    #[test]
    fn remove_cleans_up() {
        let n = 16;
        let mut cfg = EngineConfig::paper(n, 9);
        cfg.plan_on_true_latency = true;
        let mut eng = Engine::new(cfg).expect("valid config");
        eng.install(sum_spec(n)).expect("valid spec");
        eng.run_secs(10.0);
        assert_eq!(eng.installed_count("sum"), n);
        eng.remove("sum", 0).expect("installed");
        eng.run_secs(15.0);
        assert_eq!(eng.installed_count("sum"), 0);
    }

    #[test]
    fn bad_specs_are_typed_errors_not_panics() {
        let mut eng = Engine::new(EngineConfig::paper(8, 3)).expect("valid config");
        // Root outside the member list.
        let mut s = sum_spec(4);
        s.root = 7;
        assert_eq!(
            eng.install(s.clone()).unwrap_err(),
            MortarError::RootNotMember { query: "sum".into(), root: 7 }
        );
        // Empty member list.
        s.members.clear();
        assert!(matches!(eng.install(s), Err(MortarError::NoMembers { .. })));
        // Member outside the topology.
        let mut s = sum_spec(4);
        s.members.push(100);
        assert!(matches!(eng.plan(&s), Err(MortarError::MemberOutOfRange { peer: 100, .. })));
        // Duplicate member.
        let mut s = sum_spec(4);
        s.members.push(2);
        assert!(matches!(eng.plan(&s), Err(MortarError::DuplicateMember { peer: 2, .. })));
        // Degenerate window.
        let mut s = sum_spec(4);
        s.window = WindowSpec::time_sliding_us(500_000, 1_000_000);
        assert!(matches!(eng.plan(&s), Err(MortarError::InvalidWindow { .. })));
    }

    #[test]
    fn unregistered_custom_op_is_a_typed_error_at_install() {
        let mut eng = Engine::new(EngineConfig::paper(8, 3)).expect("valid config");
        // Unregistered aggregate — including one buried inside a GROUP-BY.
        let mut s = sum_spec(4);
        s.op = OpKind::Custom { name: "nope".into() };
        assert_eq!(
            eng.install(s).unwrap_err(),
            MortarError::UnknownOperator { query: "sum".into(), name: "nope".into() }
        );
        let mut s = sum_spec(4);
        s.op = OpKind::Keyed {
            key_field: crate::op::KeyField::TupleKey,
            cap: 16,
            inner: Box::new(OpKind::Custom { name: "inner_nope".into() }),
        };
        assert_eq!(
            eng.plan(&s).unwrap_err(),
            MortarError::UnknownOperator { query: "sum".into(), name: "inner_nope".into() }
        );
        // Unregistered root post-operator.
        let mut s = sum_spec(4);
        s.post = Some("ghost_post".into());
        assert_eq!(
            eng.plan(&s).unwrap_err(),
            MortarError::UnknownOperator { query: "sum".into(), name: "ghost_post".into() }
        );
    }

    #[test]
    fn too_many_trees_is_a_typed_error() {
        // The inline route state caps the tree-set width; a wider planner
        // config must surface at validation, not panic at install.
        let mut cfg = EngineConfig::paper(8, 5);
        cfg.planner.tree_count = mortar_overlay::MAX_TREES + 1;
        let mut eng = Engine::new(cfg).expect("valid config");
        assert_eq!(
            eng.install(sum_spec(4)).unwrap_err(),
            MortarError::TooManyTrees {
                requested: mortar_overlay::MAX_TREES + 1,
                max: mortar_overlay::MAX_TREES,
            }
        );
    }

    #[test]
    fn removing_unknown_query_is_an_error() {
        let mut eng = Engine::new(EngineConfig::paper(8, 4)).expect("valid config");
        assert_eq!(
            eng.remove("ghost", 0).unwrap_err(),
            MortarError::UnknownQuery { name: "ghost".into() }
        );
    }
}
