//! # memento
//!
//! Umbrella crate for the reproduction of **"Memento: Making Sliding Windows
//! Efficient for Heavy Hitters"** (Ben Basat, Einziger, Keslassy, Orda,
//! Vargaftik, Waisbard — CoNEXT 2018, arXiv:1810.02899).
//!
//! It re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `memento-core` | Memento, WCSS, H-Memento, the paper's analysis |
//! | [`sketches`] | `memento-sketches` | Space Saving, exact counters, overflow queues, samplers |
//! | [`hierarchy`] | `memento-hierarchy` | IP prefix hierarchies, HHH set machinery |
//! | [`traces`] | `memento-traces` | synthetic traces, flood injection, trace I/O |
//! | [`baselines`] | `memento-baselines` | MST, window-MST, RHHH, detection disciplines, exact oracles |
//! | [`netwide`] | `memento-netwide` | D-Memento / D-H-Memento, communication methods, simulator |
//! | [`shard`] | `memento-shard` | multi-core sharding engine for estimators and HHH algorithms |
//! | [`lb`] | `memento-lb` | load-balancer substrate, ACL mitigation, HTTP-flood scenario |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ```
//! use memento::{Memento, HMemento, SrcHierarchy};
//!
//! let mut hh = Memento::new(512, 100_000, 1.0 / 64.0, 7);
//! let mut hhh = HMemento::new(SrcHierarchy, 512, 100_000, 0.1, 0.01, 7);
//! for i in 0..10_000u64 {
//!     hh.update(i % 100);
//!     hhh.update((i % 100) as u32);
//! }
//! assert!(hh.estimate(&0) >= 0.0);
//! assert!(!hhh.output(0.005).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use memento_baselines as baselines;
pub use memento_core as core;
pub use memento_hierarchy as hierarchy;
pub use memento_lb as lb;
pub use memento_netwide as netwide;
pub use memento_shard as shard;
pub use memento_sketches as sketches;
pub use memento_traces as traces;

pub use memento_baselines::{ExactWindowHhh, Mst, Rhhh, WindowMst};
pub use memento_core::{analysis, traits, HMemento, Memento, Wcss};
pub use memento_core::{DeltaWindow, FrozenHhh, HhhQuery, WindowPatch, WindowQuery};
pub use memento_core::{GrainClock, GrainMap, TimedWindow};
pub use memento_core::{HhhAlgorithm, Ingest, SlidingWindowEstimator};
pub use memento_hierarchy::{Hierarchy, Prefix1D, Prefix2D, SrcDstHierarchy, SrcHierarchy};
pub use memento_netwide::{CommMethod, DHMementoController, DMementoController, NetworkSimulator};
pub use memento_shard::{
    EngineSnapshot, HhhSnapshotReader, PublishPolicy, ShardedEstimator, ShardedHhh, SnapshotReader,
};
pub use memento_sketches::ExactTimedWindow;
pub use memento_traces::{ArrivalModel, Packet, TimedPacket, TraceGenerator, TracePreset};
