//! Vivaldi network coordinates.
//!
//! Mortar's physical dataflow planner clusters peers by *network
//! coordinates*: synthetic points whose Euclidean distance predicts
//! inter-peer latency (Section 3.1, citing Dabek et al., SIGCOMM 2004). The
//! prototype used Bamboo's Vivaldi implementation with 3-dimensional
//! coordinates; this crate reimplements the algorithm.
//!
//! # Examples
//!
//! ```
//! use mortar_coords::VivaldiSystem;
//!
//! // Three nodes on a line: 0 —10ms— 1 —10ms— 2.
//! let lat = |a: usize, b: usize| 10.0 * a.abs_diff(b) as f64;
//! let mut sys = VivaldiSystem::new(3, 3, 42);
//! for _ in 0..50 {
//!     sys.round(lat, 2);
//! }
//! let err = sys.mean_relative_error(lat);
//! assert!(err < 0.35, "embedding error {err}");
//! ```

pub mod vivaldi;

pub use vivaldi::{Coord, VivaldiConfig, VivaldiNode, VivaldiSystem};
