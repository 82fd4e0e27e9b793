//! Chaos harness: seeded scenario sweep plus one churn-storm run; emits
//! `BENCH_chaos.json` at the repo root.
//!
//! Two measurements back the robustness story (paper Sections 4.3–4.4):
//!
//! * **Scenario sweep** — generated fault schedules (loss/dup/jitter,
//!   partitions, churn, clock skew, install/remove storms) run through
//!   the property oracles. The artifact records per-seed outcomes; a
//!   clean sweep means every scenario converged every live store onto
//!   the command log, kept removed queries removed, and held the
//!   completeness floor after healing.
//! * **Churn storm** — five hosts dead through an install storm of ~130
//!   queries and a remove storm, then revived. Digest anti-entropy must
//!   converge the fleet onto the command log; the artifact records the
//!   reconciliation wire cost of doing it.

use crate::{banner, scaled};
use mortar_chaos::{run_scenario, sweep, Fault, RunConfig, RunReport, Scenario};

/// Hosts in each generated sweep scenario.
pub const SWEEP_HOSTS: usize = 24;
/// Fault-window length of each generated sweep scenario, ms.
pub const SWEEP_DURATION_MS: u64 = 30_000;

/// The churn-storm scenario: workload churn against a partially dead
/// fleet, healed late. Matches the at-scale convergence acceptance test
/// in `crates/chaos/tests/acceptance.rs`.
pub fn churn_storm() -> Scenario {
    Scenario::new(11, 20, 15_000)
        .at(0, Fault::Kill { nodes: vec![2, 5, 9, 13, 17] })
        .at(1_000, Fault::InstallStorm { count: 30 })
        .at(3_000, Fault::RemoveStorm { count: 10 })
        .at(10_000, Fault::Revive { nodes: vec![2, 5, 9, 13, 17] })
}

fn churn_storm_config() -> RunConfig {
    let mut cfg = RunConfig {
        base_queries: 100,
        members_per_query: 3,
        settle_secs: 0.0,
        converge_secs: 30.0,
        ..RunConfig::default()
    };
    cfg.oracles.completeness_floor = 0.0;
    cfg
}

fn json_field(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("  \"{key}\": {value},\n"));
}

fn json_array<T, F: Fn(&T) -> String>(items: &[T], fmt: F) -> String {
    format!("[{}]", items.iter().map(fmt).collect::<Vec<_>>().join(", "))
}

/// Renders the sweep outcomes and the churn-storm run as JSON.
pub fn to_json(outcomes: &[(u64, RunReport)], storm: &RunReport) -> String {
    let mut s = String::from("{\n");
    json_field(&mut s, "bench", "\"chaos\"".into());
    json_field(
        &mut s,
        "sweep_workload",
        format!(
            "\"{SWEEP_HOSTS}-host generated scenarios, {} s fault window\"",
            SWEEP_DURATION_MS / 1000
        ),
    );
    json_field(&mut s, "sweep_seeds", outcomes.len().to_string());
    json_field(
        &mut s,
        "sweep_failures",
        outcomes.iter().filter(|(_, r)| r.failed()).count().to_string(),
    );
    json_field(&mut s, "sweep_seed", json_array(outcomes, |(seed, _)| seed.to_string()));
    json_field(
        &mut s,
        "sweep_violations",
        json_array(outcomes, |(_, r)| r.violations.len().to_string()),
    );
    json_field(
        &mut s,
        "sweep_fingerprint",
        json_array(outcomes, |(_, r)| format!("\"{:#018x}\"", r.fingerprint)),
    );
    json_field(
        &mut s,
        "sweep_reconcile_bytes",
        json_array(outcomes, |(_, r)| r.reconcile_bytes.to_string()),
    );
    json_field(
        &mut s,
        "sweep_mean_completeness_pct",
        json_array(outcomes, |(_, r)| {
            let c = &r.completeness;
            format!("{:.1}", c.iter().sum::<f64>() / c.len().max(1) as f64)
        }),
    );

    json_field(&mut s, "churn_storm_scenario", "\"seed 11, 20 hosts\"".into());
    json_field(&mut s, "churn_storm_queries", storm.installed_total.to_string());
    json_field(&mut s, "churn_storm_reconcile_bytes", storm.reconcile_bytes.to_string());
    json_field(&mut s, "churn_storm_reconcile_msgs", storm.reconcile_msgs.to_string());
    json_field(&mut s, "churn_storm_reconcile_rounds", storm.reconcile_rounds.to_string());
    json_field(&mut s, "churn_storm_violations", storm.violations.len().to_string());
    s.push_str("  \"scale\": ");
    s.push_str(if crate::full_scale() { "\"full\"" } else { "\"quick\"" });
    s.push_str("\n}\n");
    s
}

/// Runs the sweep and the churn storm and writes `BENCH_chaos.json`.
pub fn run() {
    banner("chaos", "scenario sweep + churn-storm anti-entropy");

    let seeds = 0..scaled(6u64, 25u64);
    println!("sweeping {} generated scenarios ({SWEEP_HOSTS} hosts)...", seeds.end);
    let report = sweep(seeds, SWEEP_HOSTS, SWEEP_DURATION_MS, &RunConfig::default())
        .expect("sweep workload is well-formed");
    for (seed, r) in &report.outcomes {
        let mean = r.completeness.iter().sum::<f64>() / r.completeness.len().max(1) as f64;
        println!(
            "  seed {seed:>3}: {} violations, {:>9} reconcile bytes, mean completeness {mean:.1}%",
            r.violations.len(),
            r.reconcile_bytes
        );
        for v in &r.violations {
            println!("           {v}");
        }
    }
    println!("sweep failures: {}/{}", report.failures(), report.outcomes.len());

    let sc = churn_storm();
    println!("\nchurn storm: {}", sc.describe().lines().next().unwrap_or(""));
    let storm = run_scenario(&sc, &churn_storm_config()).expect("churn storm is well-formed");
    println!(
        "  {:>9} bytes, {:>5} msgs, {:>4} rounds, {} violations",
        storm.reconcile_bytes,
        storm.reconcile_msgs,
        storm.reconcile_rounds,
        storm.violations.len()
    );
    for v in &storm.violations {
        println!("           {v}");
    }

    let json = to_json(&report.outcomes, &storm);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }

    assert_eq!(report.failures(), 0, "sweep produced oracle violations");
    assert!(storm.violations.is_empty(), "churn storm produced oracle violations");
}
