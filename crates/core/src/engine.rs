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
use crate::feed::{FeedConnector, FeedSpec};
use crate::metrics::ResultRecord;
use crate::msg::MortarMsg;
use crate::op::OpRegistry;
use crate::peer::{MortarPeer, PeerConfig, PeerStats};
use crate::query::{build_records, QueryId, QuerySpec, SensorSpec};
use crate::store::ObjectStore;
use mortar_coords::VivaldiSystem;
use mortar_net::{ChaosConfig, ClockModel, NodeId, SimBuilder, Simulator, Topology};
use mortar_overlay::{plan_tree_set, PlannerConfig, TreeSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Vivaldi rounds before planning (the paper runs at least ten, §7.3).
const VIVALDI_ROUNDS: usize = 10;
/// Peers each host samples per Vivaldi round.
const VIVALDI_SAMPLES: usize = 8;
/// Coordinate dimensionality (the prototype's Vivaldi is 3-D).
const VIVALDI_DIM: usize = 3;

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
    /// If true, skip Vivaldi and plan on the rows of the true n × n latency
    /// matrix as n-dimensional coordinates. The matrix costs n² memory,
    /// k-means over n-dimensional rows plans slower than over 3-D
    /// coordinates, and the trees differ from the Vivaldi path's.
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
    /// positive summary batch size, tick, reconcile cadence and install
    /// chunk count, at least one shard, and a planner with at least one
    /// tree, branch and Lloyd iteration. Everything the transport or peer
    /// runtime would otherwise reject at run time surfaces here as a typed
    /// error — there is no panic left on the configuration-validation
    /// path. The protocol's fixed parameters (heartbeats, netDist's
    /// initial estimate and α, the timeout floor, …) are constants in
    /// [`crate::peer`] and [`crate::netdist`] and need no check.
    pub fn validate(&self) -> Result<(), MortarError> {
        self.chaos.validate().map_err(|e| MortarError::InvalidConfig { reason: e.reason })?;
        if self.peer.summary_batch_max < 1 {
            return Err(MortarError::InvalidConfig {
                reason: "summary_batch_max must be at least 1".into(),
            });
        }
        // Zero periods and counts are no cadence at all: `tick_us = 0`
        // ticks every µs, and `n.is_multiple_of(0)` is false for every
        // n ≥ 1, so a zero `reconcile_every` silently disables
        // reconciliation.
        let cadences = [
            ("tick_us", self.peer.tick_us),
            ("reconcile_every", u64::from(self.peer.reconcile_every)),
        ];
        if let Some((name, _)) = cadences.iter().find(|&&(_, v)| v == 0) {
            return Err(MortarError::InvalidConfig {
                reason: format!("{name} must be at least 1"),
            });
        }
        if self.peer.install_chunks == 0 {
            return Err(MortarError::InvalidConfig {
                reason: "install_chunks must be at least 1".into(),
            });
        }
        if self.shards == 0 {
            return Err(MortarError::InvalidConfig { reason: "shards must be at least 1".into() });
        }
        // A zero tree count or branching factor has no tree to plan, and
        // zero Lloyd iterations leave every member in cluster 0, so the
        // planner would peel one member per level into a chain.
        let planner = [
            ("planner.tree_count", self.planner.tree_count),
            ("planner.branching_factor", self.planner.branching_factor),
            ("planner.kmeans_iters", self.planner.kmeans_iters),
        ];
        if let Some((name, _)) = planner.iter().find(|&&(_, v)| v == 0) {
            return Err(MortarError::InvalidConfig {
                reason: format!("{name} must be at least 1"),
            });
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
        let topo = &cfg.topology;
        let coords = if cfg.plan_on_true_latency {
            // Use latency rows directly as high-dimensional coordinates:
            // close nodes have similar rows, so clustering behaves like
            // clustering converged network coordinates.
            topo.latency_matrix_ms()
        } else {
            // Vivaldi asks the topology for the pairs it samples only.
            let mut viv = VivaldiSystem::new(topo.hosts(), VIVALDI_DIM, cfg.seed ^ 0x5eed);
            let lat = |i: usize, j: usize| topo.latency_ms(i as NodeId, j as NodeId);
            viv.run(lat, VIVALDI_ROUNDS, VIVALDI_SAMPLES);
            viv.coords()
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
        // A zero period never moves a source's cursor past the current
        // instant, so every member's pump would loop forever; a zero burst
        // factor divides by zero inside the burst window.
        let (period_us, factor) = match &spec.sensor {
            SensorSpec::Periodic { period_us, .. } => (*period_us, 1),
            SensorSpec::Feed(FeedSpec { connector: FeedConnector::Bursty(p), .. }) => {
                (p.period_us, p.burst_factor)
            }
            _ => (1, 1),
        };
        if period_us == 0 || factor == 0 {
            return Err(MortarError::InvalidConfig {
                reason: format!(
                    "query {query:?}: sensor period {period_us} µs and burst factor {factor} \
                     must be positive"
                ),
            });
        }
        Ok(())
    }

    /// Plans a tree set for `spec.members` rooted at `spec.root`.
    pub fn plan(&mut self, spec: &QuerySpec) -> Result<TreeSet, MortarError> {
        self.validate(spec)?;
        let member_coords: Vec<&[f64]> =
            spec.members.iter().map(|&p| self.coords[p as usize].as_slice()).collect();
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

    /// Every peer's counters folded into one [`PeerStats`] (see
    /// [`PeerStats::absorb`]): counts sum across the fleet, and
    /// `ts_peak_entries` / `outbox_peak_bytes` are the largest any single
    /// peer reached. Summed from peer counters rather than the transport's
    /// data-class totals, so co-hosted non-summary traffic never leaks in.
    pub fn peer_totals(&self) -> PeerStats {
        let mut total = PeerStats::default();
        for p in self.sim.apps() {
            total.absorb(&p.stats);
        }
        total
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

    /// FNV-1a over every tree's parent vector (`u64::MAX` for the root).
    fn plan_hash(trees: &TreeSet) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in trees.trees() {
            for m in 0..t.len() {
                let p = t.parent(m).map_or(u64::MAX, |p| p as u64);
                for b in p.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Hash of the paper planner's tree set over all `n` hosts of the seed-13
    /// topology, planned on true latency rows.
    fn plan_pin(n: usize) -> u64 {
        let mut cfg = EngineConfig::paper(n, 13);
        cfg.plan_on_true_latency = true;
        let mut eng = Engine::new(cfg).expect("valid config");
        plan_hash(&eng.plan(&sum_spec(n)).expect("valid spec"))
    }

    // The pinned hashes were taken from the planner before its distance
    // kernels were rewritten: the kernels reorder no sum, so every plan
    // must stay bit-identical.
    #[test]
    fn plan_pin_200_hosts() {
        assert_eq!(plan_pin(200), 0xdd4e_1c94_72bd_729d);
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release -- --ignored plan_pin"]
    fn plan_pin_1000_hosts() {
        assert_eq!(plan_pin(1000), 0x0659_cecc_d937_d7fe);
    }

    /// Hashes of the Vivaldi-planned tree set and of every coordinate's
    /// `to_bits` (FNV-1a over the little-endian bytes, host order) over all
    /// `n` hosts of the seed-13 topology.
    fn vivaldi_pin(n: usize) -> (u64, u64) {
        let mut eng = Engine::new(EngineConfig::paper(n, 13)).expect("valid config");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in eng.coords.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (plan_hash(&eng.plan(&sum_spec(n)).expect("valid spec")), h)
    }

    // Taken before Vivaldi sampled the topology through a latency function
    // instead of a matrix: the same RNG draws and the same f64 values, so
    // the coordinates and the plans must stay bit-identical.
    #[test]
    fn plan_pin_vivaldi_200_hosts() {
        assert_eq!(vivaldi_pin(200), (0xbe29_ba9b_44fa_efcf, 0xbd71_68fa_af45_2c7f));
    }

    #[test]
    fn plan_pin_vivaldi_1000_hosts() {
        assert_eq!(vivaldi_pin(1000), (0x7f9b_7935_1037_bef6, 0x1a1e_4235_b4cd_bdf2));
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
