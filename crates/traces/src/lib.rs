//! # memento-traces
//!
//! Packet-trace substrate for the [Memento (CoNEXT 2018)][paper] reproduction.
//!
//! The paper evaluates on three real packet traces — a CAIDA backbone link, a
//! university datacenter and an edge router — that are not redistributable.
//! This crate provides the closest synthetic equivalents (documented in
//! ARCHITECTURE.md, "Deviations from the paper"): heavy-tailed flow-size distributions with per-preset skew
//! and subnet locality, so that all evaluated quantities (speedups, RMSE,
//! HHH accuracy per prefix level, detection latency) exercise the same code
//! paths and exhibit the same qualitative behaviour. Real traces can be
//! substituted through the CSV reader in [`io`].
//!
//! Components:
//!
//! * [`Packet`] — the (source, destination) key of one packet.
//! * [`synthetic`] — the trace generator and the [`TracePreset`]s standing in
//!   for the paper's Backbone / Datacenter / Edge traces.
//! * [`flood`] — the HTTP-flood transformation of §6.4 (50 random 8-bit
//!   subnets injected at 70% of the traffic from a random start point).
//! * [`emerging`] — the "new heavy hitter appears mid-measurement" scenario
//!   behind Figure 1b.
//! * [`io`] — CSV trace reader/writer (count-based and timestamped).
//! * [`timed`] — deterministic arrival-clock stamping ([`ArrivalModel`])
//!   so traces can be replayed at recorded timestamps through the time
//!   plane (`TimedWindow` in `memento-core`).
//!
//! [paper]: https://arxiv.org/abs/1810.02899

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emerging;
pub mod flood;
pub mod io;
pub mod packet;
pub mod synthetic;
pub mod timed;

pub use emerging::EmergingFlowScenario;
pub use flood::{FloodPacket, FloodScenario};
pub use packet::Packet;
pub use synthetic::{TraceGenerator, TracePreset};
pub use timed::{ArrivalModel, TimedPacket};
