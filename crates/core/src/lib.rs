//! # memento-core
//!
//! The Memento family of sliding-window heavy-hitter algorithms from
//! ["Memento: Making Sliding Windows Efficient for Heavy Hitters"][paper]
//! (Ben Basat, Einziger, Keslassy, Orda, Vargaftik, Waisbard — CoNEXT 2018).
//!
//! * [`Memento`] — single-device sliding-window **heavy hitters**
//!   (Algorithm 1): a WCSS-style window summary where only a τ-fraction of
//!   packets pay for the expensive *Full update*; all others perform the
//!   constant-time *Window update* that just slides the window.
//! * [`Wcss`] — the underlying window algorithm (WCSS, Infocom 2016),
//!   obtained as Memento with τ = 1. Used as the accuracy/speed reference
//!   point throughout the paper's evaluation.
//! * [`HMemento`] — single-device sliding-window **hierarchical heavy
//!   hitters** (Algorithm 2): one Memento instance over sampled prefixes,
//!   constant time per packet for any hierarchy size.
//! * [`analysis`] — the paper's accuracy analysis turned into code: minimum
//!   sampling probabilities (Theorems 5.2/5.3), the network-wide error bound
//!   (Theorem 5.5) and the optimal batch size computation of §5.2.
//! * [`traits`] — the one ingest contract, [`Ingest`], which every
//!   algorithm above (and every baseline and sharded engine) keeps for its
//!   item type, and the two algorithm traits built on it:
//!   [`SlidingWindowEstimator`] (`Ingest` + [`WindowQuery`]) and
//!   [`HhhAlgorithm`] (`Ingest` + [`HhhQuery`]).
//! * [`query`] and [`delta`] — the read-only query traits and the two
//!   frozen views that carry answers across threads: [`DeltaWindow`] for
//!   flows, kept current by [`WindowQuery::freeze_delta`]'s
//!   [`WindowPatch`]es, and [`FrozenHhh`] for hierarchies.
//! * [`time`] — the time plane: [`TimedWindow`] turns any [`Ingest`]
//!   implementor's count window into a time window.
//!
//! The network-wide variants (D-Memento / D-H-Memento) live in the
//! `memento-netwide` crate; baselines (MST, RHHH, …) in `memento-baselines`.
//!
//! ## Quick example
//!
//! ```
//! use memento_core::Memento;
//!
//! // Window of 10_000 packets, 256 counters, Full update probability 1/16.
//! let mut memento = Memento::new(256, 10_000, 1.0 / 16.0, 42);
//! for i in 0..50_000u64 {
//!     // Flow 7 sends ~20% of the traffic.
//!     let flow = if i % 5 == 0 { 7 } else { i % 1000 };
//!     memento.update(flow);
//! }
//! let estimate = memento.estimate(&7);
//! assert!(estimate > 1_000.0 && estimate < 4_000.0);
//! ```
//!
//! [paper]: https://arxiv.org/abs/1810.02899

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod config;
pub mod delta;
pub mod error;
pub mod h_memento;
pub mod memento;
pub mod query;
pub mod time;
pub mod traits;
pub mod wcss;

pub use config::MementoConfig;
pub use delta::{DeltaWindow, WindowPatch};
pub use error::ConfigError;
pub use h_memento::HMemento;
pub use memento::Memento;
pub use query::{FrozenHhh, HhhQuery, WindowQuery};
pub use time::{GrainClock, GrainMap, TimedWindow};
pub use traits::{HhhAlgorithm, Ingest, SlidingWindowEstimator};
pub use wcss::Wcss;
