//! # memento-baselines
//!
//! The algorithms the [Memento paper][paper] compares against, plus the
//! exact oracles used as ground truth:
//!
//! * [`Mst`] — the interval HHH algorithm of Mitzenmacher, Steinke and Thaler
//!   (ALENEX 2012): one Space-Saving instance per prefix pattern, `O(H)`
//!   updates per packet. The "Interval" line of Figure 8.
//! * [`WindowMst`] — the paper's **Baseline**: MST with its per-pattern
//!   summaries replaced by WCSS window summaries, i.e. the best previously
//!   known sliding-window HHH algorithm. The comparison target of Figure 6.
//! * [`Rhhh`] — Randomized HHH (SIGCOMM 2017): constant-time interval HHH by
//!   updating at most one random per-pattern instance per packet. The
//!   comparison target of Figure 7.
//! * [`detectors`] — the Interval / Improved-Interval / Window detection
//!   disciplines of §3, used to regenerate Figure 1b.
//! * [`ExactWindowHhh`] — a streaming exact sliding-window HHH oracle
//!   (the OPT line of Figure 10 and the reference for all RMSE metrics).
//!
//! [paper]: https://arxiv.org/abs/1810.02899

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detectors;
pub mod exact_hhh;
pub mod mst;
pub mod rhhh;
pub mod window_mst;

pub use detectors::{Detector, ImprovedIntervalDetector, IntervalDetector, WindowDetector};
pub use exact_hhh::ExactWindowHhh;
pub use mst::Mst;
pub use rhhh::Rhhh;
pub use window_mst::WindowMst;
