//! Ablations of Mortar's design choices (DESIGN.md §6):
//!
//! 1. **TTL-down budget** — how many stage-4 descents dynamic striping may
//!    take (the paper fixes 3; stage 4 disabled = strictly-upward routing).
//! 2. **Sibling derivation vs. alternatives** — random rotations (Mortar)
//!    vs. fully random sibling trees vs. duplicating the primary, measured
//!    as union-graph completeness under failures.
//! 3. **Reconciliation period** — heartbeats per reconciliation vs. time to
//!    repair a partially failed install.

use mortar_bench::{banner, header, row, scaled};
use mortar_core::engine::Engine;
use mortar_core::engine::EngineConfig;
use mortar_core::op::OpKind;
use mortar_core::query::{QuerySpec, SensorSpec};
use mortar_core::window::WindowSpec;
use mortar_net::NodeId;
use mortar_overlay::{simulate_completeness, FailureSimConfig, Strategy};

fn ttl_down_sweep() {
    banner("Ablation A", "TTL-down budget for flex-down routing (Figure 5 stage 4)");
    let cfg = FailureSimConfig {
        nodes: scaled(2_000, 10_000),
        branching_factor: 32,
        trials: scaled(40, 200),
        seed: 9,
        ttl_down: 0,
    };
    let levels = [0.1, 0.2, 0.3, 0.4];
    header(
        "completeness (%)",
        &levels.iter().map(|l| format!("{:.0}%", l * 100.0)).collect::<Vec<_>>(),
    );
    for ttl in [0u32, 1, 3, 5] {
        let c = FailureSimConfig { ttl_down: ttl, ..cfg };
        let cells: Vec<f64> = levels
            .iter()
            .map(|&p| simulate_completeness(&c, Strategy::DynamicStriping { d: 4 }, p))
            .collect();
        row(&format!("ttl-down = {ttl}"), &cells);
    }
    println!("expected: most of the benefit arrives by ttl-down = 3 (the paper's limit).");
}

fn sibling_quality() {
    banner("Ablation B", "sibling derivation: rotations vs. random vs. duplicated primary");
    use mortar_overlay::planner::{derive_sibling, percentile, plan_primary, root_latencies};
    use mortar_overlay::tree::{random_tree, Tree, TreeSet};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let n = 400;
    let mut rng = SmallRng::seed_from_u64(77);
    // Clustered coordinates.
    let coords: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                ((i % 8) as f64) * 30.0 + (i as f64 * 0.37) % 5.0,
                ((i / 8 % 8) as f64) * 30.0 + (i as f64 * 0.61) % 5.0,
            ]
        })
        .collect();
    let lat: Vec<Vec<f64>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| {
                    coords[a]
                        .iter()
                        .zip(&coords[b])
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect()
        })
        .collect();
    let primary = plan_primary(&coords, 0, 16, 25, &mut rng);
    let make_set = |kind: &str, rng: &mut SmallRng| -> TreeSet {
        let mut trees: Vec<Tree> = vec![primary.clone()];
        for _ in 0..3 {
            trees.push(match kind {
                "rotated" => derive_sibling(&primary, rng),
                "random" => random_tree(n, 0, 16, rng),
                _ => primary.clone(),
            });
        }
        TreeSet::new(trees)
    };
    header("", &["p90 lat".into(), "div@30%".into()]);
    for kind in ["rotated", "random", "duplicated"] {
        let set = make_set(kind, &mut rng);
        // Latency of the worst tree in the set (network awareness).
        let p90 = set
            .trees()
            .iter()
            .map(|t| percentile(&root_latencies(t, |a, b| lat[a][b]), 0.9))
            .fold(0.0f64, f64::max);
        // Path diversity: union-graph survival at 30% link failures.
        let div = union_survival(&set, 0.3, 40, &mut rng);
        row(kind, &[p90, div]);
    }
    println!(
        "expected: rotated siblings keep planned latency AND near-random \
         diversity;\nrandom siblings lose network-awareness; duplicated trees \
         lose diversity."
    );
}

/// Fraction (%) of live members connected to the root in the union of tree
/// edges after *node* failures (a failed node is failed in every tree —
/// which is exactly why duplicating the primary buys no diversity).
fn union_survival(
    set: &mortar_overlay::TreeSet,
    p: f64,
    trials: usize,
    rng: &mut impl rand::Rng,
) -> f64 {
    let n = set.len();
    let mut reached = 0usize;
    let mut live_total = 0usize;
    for _ in 0..trials {
        let alive: Vec<bool> = (0..n).map(|m| m == set.root() || rng.gen::<f64>() >= p).collect();
        // BFS from the root over edges between live nodes.
        let mut seen = vec![false; n];
        let mut stack = vec![set.root()];
        seen[set.root()] = true;
        while let Some(u) = stack.pop() {
            for tree in set.trees() {
                for &c in tree.children(u) {
                    if alive[c] && !seen[c] {
                        seen[c] = true;
                        stack.push(c);
                    }
                }
                // The union graph is traversable both ways (flex-down).
                if let Some(par) = tree.parent(u) {
                    if alive[par] && !seen[par] {
                        seen[par] = true;
                        stack.push(par);
                    }
                }
            }
        }
        reached += seen.iter().filter(|&&s| s).count();
        live_total += alive.iter().filter(|&&a| a).count();
    }
    100.0 * reached as f64 / live_total as f64
}

fn reconcile_period() {
    banner("Ablation C", "reconciliation period vs. install repair time");
    let n = scaled(120, 300);
    header("", &["t50 (s)".into(), "t95 (s)".into()]);
    for every in [1u32, 3, 6] {
        let mut cfg = EngineConfig::paper(n, 55);
        cfg.plan_on_true_latency = true;
        cfg.peer.reconcile_every = every;
        let mut eng = Engine::new(cfg).expect("valid config");
        let down = eng.disconnect_random(0.4, 0);
        eng.install(QuerySpec {
            name: "q".into(),
            root: 0,
            members: (0..n as NodeId).collect(),
            op: OpKind::Sum { field: 0 },
            window: WindowSpec::time_tumbling_us(1_000_000),
            filter: None,
            sensor: SensorSpec::Periodic { period_us: 1_000_000, value: 1.0 },
            post: None,
        })
        .expect("valid spec");
        eng.run_secs(10.0);
        eng.reconnect(&down);
        let (mut t50, mut t95) = (f64::NAN, f64::NAN);
        for step in 0..40 {
            eng.run_secs(2.0);
            let frac = eng.installed_count("q") as f64 / n as f64;
            let t = 10.0 + 2.0 * (step + 1) as f64;
            if frac >= 0.5 && t50.is_nan() {
                t50 = t;
            }
            if frac >= 0.95 && t95.is_nan() {
                t95 = t;
                break;
            }
        }
        row(&format!("reconcile every {every} hb"), &[t50, t95]);
    }
    println!("expected: faster reconciliation repairs faster, at more control traffic.");
}

fn main() {
    ttl_down_sweep();
    sibling_quality();
    reconcile_period();
}
