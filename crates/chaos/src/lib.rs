//! Chaos scenario engine for Mortar.
//!
//! The paper's robustness story (Sections 4.3–4.4) rests on three
//! mechanisms — dynamic tree repair, two-generation dedup, and query-set
//! anti-entropy — each exercised in isolation by unit tests. This crate
//! exercises them *together*: a [`scenario::Scenario`] is a seeded,
//! phased schedule of composable faults (loss/dup/jitter phases,
//! asymmetric and symmetric partitions, kill/revive churn waves,
//! clock-skew bursts, install/remove storms) applied to a live
//! [`mortar_core::Engine`] at simulated instants. Because every fault is
//! derived from the scenario seed and applied at a deterministic sim
//! time, a failing run replays bit-for-bit — the whole schedule is the
//! repro.
//!
//! Three layers:
//!
//! - [`scenario`] — the fault DSL and the single-seed generator.
//! - [`oracle`] — property oracles evaluated over the engine after the
//!   run: completeness floors, no-stale-results-after-removal,
//!   exact store convergence against the driver's command log,
//!   duplicate conservation.
//! - [`driver`] — [`driver::run_scenario`] executes a scenario and
//!   reports violations plus a deterministic counter fingerprint;
//!   [`driver::sweep`] runs many seeds; [`driver::shrink`] reduces a
//!   failing scenario to a minimal fault schedule by greedy delta
//!   debugging.

pub mod driver;
pub mod oracle;
pub mod scenario;

pub use driver::{run_scenario, shrink, sweep, RunConfig, RunReport, SweepReport};
pub use oracle::{OracleConfig, Violation};
pub use scenario::{Fault, FaultEvent, Scenario};
