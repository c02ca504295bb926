//! # memento-sketches
//!
//! Counting substrates used throughout the [Memento (CoNEXT 2018)][paper]
//! reproduction:
//!
//! * [`SpaceSaving`] — the Space Saving algorithm of Metwally et al. over
//!   the O(1) *stream-summary* bucket structure ([`space_saving`]). Memento
//!   uses one instance per frame; MST/RHHH use one per prefix level; the
//!   network-wide Aggregation baseline relies on its mergeability.
//! * [`ExactInterval`] and [`ExactWindow`] — exact reference counters used as
//!   ground truth for every error metric in the evaluation.
//! * [`OverflowQueue`] — the queue-of-queues `b` from Algorithm 1 of the
//!   paper: one FIFO of flow identifiers per block overlapping the sliding
//!   window, with de-amortized draining of the oldest block.
//! * [`TableSampler`] and [`GeometricSampler`] — the two sampling
//!   implementations the paper compares in §6.2 (random-number table for
//!   Memento/H-Memento, geometric skips for RHHH).
//! * [`FastHasher`]/[`FastBuildHasher`] and [`CompactMap`] — the
//!   cache-resident hot-path layer ([`fasthash`], [`compact_map`]): a
//!   dependency-free fxhash/SplitMix-style hash and a flat open-addressing
//!   map with one-byte fingerprints, backing every per-packet lookup
//!   (the stream-summary key index, Memento's overflow table, the shard
//!   routers via [`fasthash::route`]).
//! * [`JournalDrain`] — what the one change journal shared by
//!   [`CompactMap`] and [`SpaceSaving`] recorded between two drains:
//!   the dirty slots and departed keys Memento's incremental snapshot
//!   freeze re-reads instead of the whole table.
//!
//! [paper]: https://arxiv.org/abs/1810.02899

// `deny` rather than `forbid`: the crate's one targeted
// `#[allow(unsafe_code)]` site wraps an x86_64 intrinsic, the
// software-prefetch hint ([`fasthash::prefetch`]), a no-access CPU hint
// that cannot fault. Everything that reads or writes memory is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compact_map;
pub mod exact;
pub mod fasthash;
mod journal;
pub mod overflow_queue;
pub mod sampling;
pub mod space_saving;
#[cfg(test)]
mod stream_summary;

pub use compact_map::{CompactMap, ProbeStats};
pub use exact::{ExactInterval, ExactTimedWindow, ExactWindow};
pub use fasthash::{FastBuildHasher, FastHasher};
pub use journal::JournalDrain;
pub use overflow_queue::OverflowQueue;
pub use sampling::{GeometricSampler, PrefixSampler, TableSampler};
pub use space_saving::{CounterSnapshot, SpaceSaving};
