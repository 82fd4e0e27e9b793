//! Property oracles: invariants checked over the engine after a run.
//!
//! Each oracle is a pure check over post-run engine state, returning
//! [`Violation`]s instead of panicking so the driver can collect every
//! broken property of a run (and the shrinker can re-evaluate candidate
//! schedules cheaply). The properties mirror the paper's robustness
//! claims: results stay complete enough through faults (Section 4.3),
//! removed queries stay removed everywhere (Section 4.4), anti-entropy
//! converges every live peer onto exactly the store the driver's command
//! log implies, and two-generation dedup never double-counts a source.

use mortar_core::engine::Engine;
use mortar_core::metrics;
use std::collections::BTreeMap;

/// One broken property.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Which properties to demand, and how hard.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Minimum mean completeness (percent) each surviving base query
    /// must reach at its root; `<= 0.0` disables the floor.
    pub completeness_floor: f64,
    /// Ragged warm-up windows excluded from the completeness mean.
    pub skip_first_windows: usize,
    /// Demand every live peer's store hold exactly what the command log
    /// implies (the anti-entropy convergence property): as installed, the
    /// names whose last command is an install; as tombstones, the names
    /// whose last command is a removal.
    pub require_convergence: bool,
    /// Demand removed queries be absent from every live peer (no stale
    /// results / resurrection after tombstone propagation).
    pub require_no_stale: bool,
    /// Demand no window at any base root count more participants than
    /// the query has members (the dedup conservation property).
    pub require_conservation: bool,
    /// Per-window participant head-room multiplier for the conservation
    /// oracle. Mode-frame indexing can legitimately attribute a source
    /// to an adjacent frame under jitter or a clock jump (one extra
    /// contribution, not a systematic double-count), so the established
    /// tolerance is 1.25× the roster; systematic duplication shows up as
    /// ~2× and still trips the oracle.
    pub conservation_slack: f64,
    /// Demand every ingestion feed stayed inside its declared intake
    /// bound (`overcap == 0`) and that its counters account for every
    /// offered tuple (admitted + shed + sampled-out + spill-dropped +
    /// still queued/spilled). Vacuously true when no feeds ran.
    pub require_feed_bounds: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            completeness_floor: 55.0,
            skip_first_windows: 3,
            require_convergence: true,
            require_no_stale: true,
            require_conservation: true,
            conservation_slack: 1.25,
            require_feed_bounds: true,
        }
    }
}

/// A query the driver installed at run start and expects to survive.
#[derive(Debug, Clone)]
pub struct BaseQuery {
    /// Query name.
    pub name: String,
    /// The root peer whose result log the completeness oracle reads.
    pub root: mortar_net::NodeId,
    /// Member count (the completeness denominator).
    pub members: usize,
}

/// The control commands that reached their query roots, reduced to the
/// last one per name: the independent reference the convergence and
/// no-stale oracles check every store against.
///
/// A command counts only once it is delivered. An install that never
/// reached its root exists nowhere, so removing it later mints no
/// tombstone either.
#[derive(Debug, Clone, Default)]
pub struct CommandLog {
    /// Name → whether the last delivered command was an install (`true`)
    /// or a removal (`false`).
    last: BTreeMap<String, bool>,
}

impl CommandLog {
    /// Records an install delivered to its root.
    pub fn install(&mut self, name: &str) {
        self.last.insert(name.to_string(), true);
    }

    /// Records a removal delivered to its root. Only a query the log has
    /// installed becomes a tombstone.
    pub fn remove(&mut self, name: &str) {
        if let Some(installed) = self.last.get_mut(name) {
            *installed = false;
        }
    }

    /// Names whose last command is `install` (true) or a removal (false).
    fn names(&self, install: bool) -> Vec<&str> {
        self.last.iter().filter(|&(_, &i)| i == install).map(|(n, _)| n.as_str()).collect()
    }
}

/// Run every enabled oracle; returns all violations (empty = clean run).
pub fn evaluate(
    eng: &Engine,
    base: &[BaseQuery],
    log: &CommandLog,
    cfg: &OracleConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let hosts = eng.hosts();
    let live: Vec<mortar_net::NodeId> =
        (0..hosts as mortar_net::NodeId).filter(|&n| eng.sim.is_up(n)).collect();

    if cfg.completeness_floor > 0.0 {
        for q in base {
            let results = eng.results(q.root);
            let ours: Vec<_> =
                results.iter().filter(|r| r.query.as_ref() == q.name).cloned().collect();
            if ours.is_empty() {
                out.push(Violation {
                    oracle: "completeness",
                    detail: format!("query {:?} produced no results at root {}", q.name, q.root),
                });
                continue;
            }
            let mean = metrics::mean_completeness(&ours, q.members, cfg.skip_first_windows);
            if mean < cfg.completeness_floor {
                out.push(Violation {
                    oracle: "completeness",
                    detail: format!(
                        "query {:?}: mean completeness {:.1}% below floor {:.1}%",
                        q.name, mean, cfg.completeness_floor
                    ),
                });
            }
        }
    }

    if cfg.require_no_stale {
        for name in log.names(false) {
            for &n in &live {
                if eng.sim.app(n).has_query(name) {
                    out.push(Violation {
                        oracle: "no-stale",
                        detail: format!("removed query {name:?} still installed on peer {n}"),
                    });
                }
            }
        }
    }

    if cfg.require_convergence {
        let want = (log.names(true), log.names(false));
        let diverged: Vec<_> = live
            .iter()
            .map(|&n| {
                let mut store: (Vec<&str>, Vec<&str>) = (Vec::new(), Vec::new());
                for (name, _, removed) in eng.sim.app(n).store_entries() {
                    if removed { &mut store.1 } else { &mut store.0 }.push(name);
                }
                store.0.sort_unstable();
                store.1.sort_unstable();
                (n, store)
            })
            .filter(|(_, store)| *store != want)
            .collect();
        if let Some((n, (installed, tombstones))) = diverged.first() {
            out.push(Violation {
                oracle: "convergence",
                detail: format!(
                    "{} of {} live peers diverge from the command log; peer {n} holds \
                     extra installs {:?} and tombstones {:?}, and lacks installs {:?} \
                     and tombstones {:?}",
                    diverged.len(),
                    live.len(),
                    diff(installed, &want.0),
                    diff(tombstones, &want.1),
                    diff(&want.0, installed),
                    diff(&want.1, tombstones),
                ),
            });
        }
    }

    if cfg.require_feed_bounds {
        let (totals, conserved, _held) = eng.feed_totals();
        if totals.overcap > 0 {
            out.push(Violation {
                oracle: "feed-bounds",
                detail: format!(
                    "intake exceeded a declared cap {} time(s) \
                     (peak queue {} B, peak spill {} B)",
                    totals.overcap, totals.peak_queue_bytes, totals.peak_spill_bytes
                ),
            });
        }
        if !conserved {
            out.push(Violation {
                oracle: "feed-bounds",
                detail: format!(
                    "feed counters lost tuples: offered {} != delivered {} + shed {} \
                     + sampled-out {} + spill-dropped {} + held",
                    totals.offered,
                    totals.delivered,
                    totals.shed_tuples,
                    totals.sampled_out,
                    totals.spill_drops
                ),
            });
        }
    }

    if cfg.require_conservation {
        for q in base {
            let ours: Vec<_> = eng
                .results(q.root)
                .iter()
                .filter(|r| r.query.as_ref() == q.name)
                .cloned()
                .collect();
            let cap = (q.members as f64 * cfg.conservation_slack).ceil() as u32;
            for (w, count) in metrics::participants_by_index(&ours) {
                if count > cap {
                    out.push(Violation {
                        oracle: "conservation",
                        detail: format!(
                            "query {:?} window {w}: {count} participants exceed the \
                             {}-member roster's {cap} head room (duplicate leak)",
                            q.name, q.members
                        ),
                    });
                }
            }
        }
    }

    out
}

/// The names of `a` missing from `b` (both sorted).
fn diff<'a>(a: &[&'a str], b: &[&str]) -> Vec<&'a str> {
    a.iter().copied().filter(|n| b.binary_search(n).is_err()).collect()
}
