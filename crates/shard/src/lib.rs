//! # memento-shard
//!
//! Multi-core sharding engine for the Memento reproduction: one [`Engine`]
//! scales any sliding-window
//! [`SlidingWindowEstimator`](memento_core::traits::SlidingWindowEstimator)
//! ([`ShardedEstimator`]) or H-Memento
//! ([`HMemento`](memento_core::HMemento), [`ShardedHhh`]) across worker
//! threads while answering the *same* window queries through the *same*
//! object-safe traits. The engine is written once: it implements the one
//! ingest contract, [`Ingest`](memento_core::Ingest), through its inherent
//! `update` / `update_batch` / `update_batch_positioned` / `skip`, and the
//! small [`Shard`] trait names what the two kinds of algorithm do
//! differently. Interval algorithms
//! ([`is_interval`](memento_core::Ingest::is_interval)) are refused at
//! construction. Time-based windows come from wrapping an engine in a
//! [`TimedWindow`](memento_core::TimedWindow), the workspace's one time
//! plane: its rotations reach every shard through the engine's `skip`.
//!
//! The paper's headline result is line-rate single-core processing (§5); the
//! system this reproduction grows toward also has to scale *out* when one
//! core is not enough. The engine applies the standard recipe from
//! partitioned streaming measurement (the mergeable-sliding-window view of
//! the heavy-hitter literature, Braverman et al.), with **global-position
//! windows**:
//!
//! * **hash-partition** keys over `N` shards, so each flow's traffic lands
//!   wholly in one shard;
//! * give each shard a **full window of `W` packets anchored at the global
//!   stream position**: the router stamps every key with the *gap* — how
//!   many packets went to other shards since that shard's previous key —
//!   and the worker replays
//!   [`skip(gap)`](memento_core::Ingest::skip)
//!   before each key through the fused
//!   `update_batch_positioned` path, the D-Memento-style bulk window
//!   update of the Memento paper (§6). The skips are **closed-form** —
//!   sublinear in the gap, `O(1)` in the drained steady state — and the
//!   path coalesces consecutive stamps, so a run of foreign packets costs
//!   one skip however long it is (a shard owning few keys under heavy
//!   skew receives huge gaps and pays for them with arithmetic, not a
//!   walk). A shard's window therefore always covers exactly the last
//!   `W` packets of the *combined* stream, no matter how skewed the
//!   partition is (a count-based `W/N` window of a shard's own packets
//!   does not: the shard owning a dominant flow would cover far less
//!   than `W` global packets);
//! * **sample before routing** at τ < 1, as the measurement points of the
//!   paper's D-Memento (§6) do: the τ < 1 engines of
//!   [`ShardedEstimator::memento`] and [`ShardedHhh::h_memento`] draw
//!   geometric skips at the router from one random-number table (the
//!   draws of Memento's batch path, §5), hash, route and gap-stamp only
//!   the sampled keys, and count every other packet as a position routed
//!   to no shard, which reaches the shards through their gap stamps and
//!   tail skips. Each shard records every key it receives as a Full
//!   update at its global position (a Memento shard with one
//!   closed-form window advance per key). Engines built by
//!   [`Engine::new`] route every key;
//! * feed shards *batches* over bounded channels, through each algorithm's
//!   positioned batch path, and get backpressure for free;
//! * **merge** per-shard answers at query time: route per-flow queries to
//!   the owning shard, union heavy-hitter sets, sum prefix estimates (HHH
//!   candidates are collected at `θ/N` per shard and re-validated against
//!   the global `θ·W` bar).
//!
//! ## The query plane
//!
//! Queries no longer piggyback on the per-shard update FIFOs. Instead the
//! engine runs a **snapshot publication pipeline** ([`PublishPolicy`]):
//! workers periodically freeze per-shard parts — estimator shards freeze
//! *incrementally* ([`memento_core::WindowPatch`] covering only the slots
//! dirtied since the previous epoch, folded onto two rotating persistent
//! [`memento_core::DeltaWindow`] views, so publication costs O(dirty)
//! rather than O(k) per shard; unchanged engines re-stamp the previous
//! snapshot without freezing at all), H-Memento shards freeze full
//! immutable [`memento_core::FrozenHhh`] summaries — and each complete
//! epoch's per-shard views are stamped into one [`EngineSnapshot`] under
//! the global-position-window contract and stored in the engine's one
//! published-snapshot pointer. The engine's own
//! [`WindowQuery`](memento_core::WindowQuery) /
//! [`HhhQuery`](memento_core::HhhQuery) methods answer from the latest
//! snapshot (forcing a publication first under the default
//! `on_query = true`, which reproduces the historical flush-then-read
//! answers bit-for-bit), and cheaply-clonable [`Reader`] handles
//! ([`SnapshotReader`] / [`HhhSnapshotReader`]) answer from it at memory
//! speed on any thread, stale by at most one publication interval. A read
//! never touches a worker FIFO or the router lock; it contends only with
//! one publication's pointer store.
//!
//! ## Example
//!
//! ```
//! use memento_core::WindowQuery;
//! use memento_shard::ShardedEstimator;
//!
//! // A window of 40_000 packets split over 4 worker threads.
//! let mut sharded: ShardedEstimator<u64> = ShardedEstimator::memento(4, 256, 40_000, 1.0, 7);
//! // A snapshot query handle, usable from any thread.
//! let reader = sharded.reader();
//! let keys: Vec<u64> = (0..20_000u64).map(|i| i % 500).collect();
//! sharded.update_batch(&keys);
//! sharded.publish_now();
//! assert_eq!(sharded.processed(), 20_000);
//! assert!(sharded.estimate(&0) >= 40.0);
//! assert_eq!(reader.processed(), 20_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod estimator;
mod hhh;
mod router;
mod snapshot;
mod worker;

pub use engine::{Assembler, Engine, Reader, Shard};
pub use estimator::{BoxedEstimator, ShardedEstimator, SnapshotReader};
pub use hhh::{HhhSnapshotReader, ShardedHhh};
pub use snapshot::{EngineSnapshot, PublishPolicy};

/// Number of keys buffered per shard before a batch is shipped to the
/// worker. Large enough to amortize the channel send and let the
/// geometric-skip batch path stride, small enough to keep queries fresh.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 2_048;

/// Default bound of each worker's job queue, in batches. Bounds the number
/// of in-flight batches per shard (backpressure) to keep memory flat when
/// the producer outruns a worker.
pub const DEFAULT_QUEUE_DEPTH: usize = 8;
