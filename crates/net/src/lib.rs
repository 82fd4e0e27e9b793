//! Discrete-event network simulator substrate for Mortar.
//!
//! The Mortar paper evaluates its prototype on a ModelNet cluster: real peers
//! whose traffic is subjected to the latency/bandwidth constraints of an
//! Inet-generated transit–stub topology. This crate is the in-process
//! substitute: a deterministic discrete-event simulator that imposes the same
//! topology constraints on the same peer state machines.
//!
//! The important property preserved from the paper's setup is that **peer
//! logic only observes local information**: its own (possibly skewed and
//! offset) clock, timers expressed in local time, and message arrivals.
//! Global virtual time exists only for metrics.
//!
//! # Examples
//!
//! ```
//! use mortar_net::{App, Ctx, NodeId, SimBuilder, Topology};
//!
//! struct Ping;
//! impl App for Ping {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         if ctx.id() == 0 {
//!             ctx.send(1, 42, 16);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32, _sz: u32) {
//!         assert_eq!(msg, 42);
//!         assert_eq!(from, 0);
//!         ctx.stop();
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _tag: u64) {}
//! }
//!
//! let topo = Topology::star(2, 1_000);
//! let mut sim = SimBuilder::new(topo, 7).build(|_id| Ping);
//! sim.run_for_secs(1.0);
//! ```

pub mod bandwidth;
pub mod chaos;
pub mod clock;
pub mod event;
pub mod runtime;
pub mod time;
pub mod topology;

pub use bandwidth::{BandwidthTracker, TrafficClass};
pub use chaos::{ChaosConfig, ChaosError, LinkLossMap, PartitionMap};
pub use clock::{ClockModel, LocalClock};
pub use runtime::{App, Ctx, SimBuilder, SimStats, Simulator, TRANSPORT_OVERHEAD_BYTES};
pub use time::{ms, secs, TimeUs, MS, SEC};
pub use topology::{StarConfig, Topology, TransitStubConfig};

/// Identifier of a simulated end host (peer).
pub type NodeId = u32;
