//! The runtime: [`App`] state machines on one side, the [`Simulator`] that
//! drives them on the other.
//!
//! Peers are written against [`App`]/[`Ctx`] and never learn how they are
//! scheduled. [`SimBuilder`] builds a [`Simulator`] over one shard (run on
//! the caller's thread) or several (run in conservative windows on worker
//! threads); both run the same event core, in [`parallel`], and the same
//! execution for a given seed.

pub mod ctx;
pub(crate) mod dedup;
pub mod parallel;
pub mod single;

pub use ctx::{App, Ctx, SimStats, TRANSPORT_OVERHEAD_BYTES};
pub use parallel::Simulator;
pub use single::SimBuilder;
