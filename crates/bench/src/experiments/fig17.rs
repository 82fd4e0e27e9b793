//! Figure 17: network-aware planning — average 90th-percentile peer-to-root
//! overlay latency for random, planned (primary), and derived (sibling)
//! trees across branching factors (Section 7.3).
//!
//! Paper setup: 179 randomly chosen nodes over the Inet topology; Vivaldi
//! runs ≥10 rounds before interconnecting operators; 30 trees per
//! configuration; bf ∈ {2, 4, 8, 16, 32}. The recursive cluster planner
//! improves on random by 30–50%, and siblings preserve the majority of the
//! benefit.

use crate::{banner, header, row, scaled};
use mortar_coords::VivaldiSystem;
use mortar_net::{NodeId, Topology};
use mortar_overlay::planner::{derive_sibling, percentile, plan_primary, root_latencies};
use mortar_overlay::tree::random_tree;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the planning comparison.
pub fn run() {
    banner("Figure 17", "90th-pct peer-to-root overlay latency vs. branching factor");
    let hosts = scaled(340, 680);
    let n = 179;
    let trials = scaled(10, 30);
    let topo = Topology::paper_inet(hosts, 170);
    let mut rng = SmallRng::seed_from_u64(170);

    // 179 randomly chosen nodes.
    let mut ids: Vec<NodeId> = (0..hosts as NodeId).collect();
    ids.shuffle(&mut rng);
    let members: Vec<NodeId> = ids.into_iter().take(n).collect();
    let lat = |i: usize, j: usize| topo.latency_ms(members[i], members[j]);

    // Vivaldi for at least ten rounds before interconnecting operators
    // (we run more: each round is 8 samples, and an under-converged
    // embedding directly caps the planner's advantage).
    let mut viv = VivaldiSystem::new(n, 3, 171);
    viv.run(lat, scaled(30, 60), 8);
    println!("Vivaldi embedding error after warm-up: {:.1}%", 100.0 * viv.mean_relative_error(lat));
    let coords = viv.coords();

    let bfs = [2usize, 4, 8, 16, 32];
    header("avg p90 latency (ms), bf=", &bfs.iter().map(|b| b.to_string()).collect::<Vec<_>>());
    let mut results: Vec<(&str, Vec<f64>)> = Vec::new();
    for kind in ["Random", "Planned", "Derived"] {
        let cells: Vec<f64> = bfs
            .iter()
            .map(|&bf| {
                let mut acc = 0.0;
                for t in 0..trials {
                    let tree = match kind {
                        "Random" => random_tree(n, 0, bf, &mut rng),
                        "Planned" => plan_primary(&coords, 0, bf, 25, &mut rng),
                        _ => {
                            let p = plan_primary(&coords, 0, bf, 25, &mut rng);
                            derive_sibling(&p, &mut rng)
                        }
                    };
                    let _ = t;
                    acc += percentile(&root_latencies(&tree, lat), 0.9);
                }
                acc / trials as f64
            })
            .collect();
        row(kind, &cells);
        results.push((kind, cells));
    }
    let rand_mean: f64 = results[0].1.iter().sum::<f64>() / bfs.len() as f64;
    let plan_mean: f64 = results[1].1.iter().sum::<f64>() / bfs.len() as f64;
    let derv_mean: f64 = results[2].1.iter().sum::<f64>() / bfs.len() as f64;
    println!(
        "\nplanned improves on random by {:.0}% on average (paper: 30-50%); \
         derived siblings retain {:.0}% of the planning benefit.",
        100.0 * (1.0 - plan_mean / rand_mean),
        100.0 * (rand_mean - derv_mean) / (rand_mean - plan_mean).max(1e-9)
    );
}
