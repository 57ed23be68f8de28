//! The repository benchmark as a library: the workloads, the transparent
//! tracing probe, and the per-layer metrics.  `src/main.rs` is the command
//! line; `tests/` checks the probe's transparency.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod probe;
pub mod stats;
pub mod workloads;
