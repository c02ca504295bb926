//! The read-only query plane: `WindowQuery` / `HhhQuery` and the frozen
//! summaries that carry answers across threads.
//!
//! The workspace's algorithm traits come in two halves. The ingest side,
//! one [`Ingest`](crate::traits::Ingest) contract for every item type,
//! keeps everything that mutates — `update`, `update_batch`, `skip` —
//! while the query side lives here as traits that need only `&self`;
//! [`SlidingWindowEstimator`](crate::traits::SlidingWindowEstimator) and
//! [`HhhAlgorithm`](crate::traits::HhhAlgorithm) join the two:
//!
//! * [`WindowQuery`] — `estimate` / `heavy_hitters` / `processed` for
//!   per-flow frequency estimators;
//! * [`HhhQuery`] — `estimate` / `output` / `processed` for hierarchical
//!   heavy-hitter algorithms.
//!
//! The split is what makes a snapshot query plane expressible: the sharded
//! engine's readers ([`Reader`](../../memento_shard/struct.Reader.html))
//! and the merged [`EngineSnapshot`](../../memento_shard/struct.EngineSnapshot.html)s
//! they serve implement *only* the query traits, so code written against
//! `&dyn WindowQuery<K>` cannot accidentally take a blocking ingest path.
//!
//! Two immutable views carry answers out of a live instance, one per
//! query trait, each answering the queries the live instance would have
//! answered at freeze time, bit-for-bit, without referencing the live
//! state:
//!
//! * a [`DeltaWindow`](crate::DeltaWindow), kept current by applying the
//!   [`WindowPatch`]es of [`WindowQuery::freeze_delta`] — one per shard of
//!   the sharded estimator engine;
//! * a [`FrozenHhh`], built by
//!   [`HMemento::freeze`](crate::HMemento::freeze) — one per shard of the
//!   sharded HHH engine.

use std::collections::HashMap;
use std::hash::Hash;

use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};

use crate::delta::WindowPatch;

/// The read-only surface of a per-flow sliding-window frequency estimator.
///
/// Everything here takes `&self`: implementors answer from their current
/// state without advancing it. Live algorithms ([`Memento`](crate::Memento),
/// [`Wcss`](crate::Wcss), exact windows) implement it alongside the ingest
/// trait; frozen summaries and the sharded engines' snapshot readers
/// implement *only* this trait.
pub trait WindowQuery<K: Clone> {
    /// Short stable name used in bench CSV output and test diagnostics.
    fn name(&self) -> &'static str;

    /// Estimated window frequency of `key`, in packets.
    fn estimate(&self, key: &K) -> f64;

    /// Flows whose estimated frequency reaches `threshold` packets, sorted
    /// by decreasing estimate.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)>;

    /// Total packets processed as of the state being queried.
    fn processed(&self) -> u64;

    /// Additive bound (in packets, with high probability) on the estimation
    /// error for the current configuration: `0` for exact oracles, `ε_a·W`
    /// for deterministic summaries, `ε_a·W` plus sampling noise for sampled
    /// ones. Consumers use it to scale assertions and plots, not as a hard
    /// guarantee for sampled estimators.
    fn error_bound(&self) -> f64;

    /// The estimate this instance reports for a key it is not currently
    /// tracking. Zero for exact oracles (the default); Memento-family
    /// summaries report the one-sided slack `(2·block + min_count)·scale`
    /// that [`estimate`](Self::estimate) assigns to absent keys, which
    /// depends on the current fill state and must therefore be captured at
    /// freeze time.
    fn untracked_estimate(&self) -> f64 {
        0.0
    }

    /// Captures the changes since the previous `freeze_delta` call as a
    /// [`WindowPatch`], for consumers maintaining a persistent
    /// [`DeltaWindow`](crate::delta::DeltaWindow). Applying every patch in
    /// call order makes the view answer `estimate`, `heavy_hitters`,
    /// `untracked_estimate`, `processed` and `error_bound` bit-for-bit like
    /// this instance at each call.
    ///
    /// Takes `&mut self` because native implementors drain internal dirty
    /// journals. The provided implementation has no journal and simply
    /// returns a full [`WindowPatch::rebuild`] of `heavy_hitters(0.0)` every
    /// time, O(k). Estimates are non-negative, so a zero threshold
    /// enumerates every tracked flow in canonical descending order; the
    /// rebuild is faithful for every implementor whose heavy-hitter sort is
    /// stable, as all of the workspace's are. Only the Memento family
    /// ([`Memento`](crate::Memento), [`Wcss`](crate::Wcss)) patches in
    /// O(dirty) ([`Memento::freeze_patch`](crate::Memento::freeze_patch));
    /// wrappers such as [`TimedWindow`](crate::TimedWindow) forward to the
    /// estimator they wrap.
    fn freeze_delta(&mut self) -> WindowPatch<K>
    where
        K: Eq + Hash,
    {
        WindowPatch::rebuild(
            self.heavy_hitters(0.0),
            self.untracked_estimate(),
            self.processed(),
            self.error_bound(),
        )
    }
}

/// The read-only surface of a hierarchical heavy-hitters algorithm.
///
/// The `&self` subset of [`HhhAlgorithm`](crate::traits::HhhAlgorithm),
/// implemented by live algorithms, by [`FrozenHhh`] summaries, and by the
/// sharded HHH engine's snapshot readers.
pub trait HhhQuery<Hi: Hierarchy> {
    /// Short stable name used in bench CSV output and test diagnostics.
    fn name(&self) -> &'static str;

    /// Estimated frequency of a prefix over the algorithm's measurement
    /// scope (window or interval), in packets.
    fn estimate(&self, prefix: &Hi::Prefix) -> f64;

    /// The approximate HHH set for threshold `θ ∈ (0, 1)`.
    fn output(&self, theta: f64) -> Vec<Hi::Prefix>;

    /// Total packets processed as of the state being queried.
    fn processed(&self) -> u64;
}

/// An immutable point-in-time summary of a hierarchical heavy-hitters
/// algorithm: the candidate prefixes with their frequency bounds, plus the
/// parameters (`W`, sampling slack) of the paper's `OUTPUT` computation.
///
/// Re-runs Algorithm 2 (`compute_hhh`) over the captured bounds on every
/// [`output`](HhhQuery::output) call, so one frozen summary answers any
/// threshold — exactly like the live instance, and bit-for-bit equal to it:
/// `compute_hhh`'s result depends only on the candidate set and the bounds,
/// not on the order the candidates arrive in.
#[derive(Debug, Clone)]
pub struct FrozenHhh<Hi: Hierarchy> {
    name: &'static str,
    hier: Hi,
    window: usize,
    sampling_slack: f64,
    /// Upper/lower frequency bounds per candidate prefix; its keys are the
    /// candidate set.
    bounds: HashMap<Hi::Prefix, (f64, f64)>,
    /// Bounds reported for prefixes absent from `bounds`.
    untracked_upper: f64,
    untracked_lower: f64,
    processed: u64,
}

impl<Hi: Hierarchy> FrozenHhh<Hi> {
    /// Builds a frozen summary from captured per-candidate bounds: every
    /// key of `bounds` is a candidate of `output`.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        name: &'static str,
        hier: Hi,
        window: usize,
        sampling_slack: f64,
        bounds: HashMap<Hi::Prefix, (f64, f64)>,
        untracked_upper: f64,
        untracked_lower: f64,
        processed: u64,
    ) -> Self {
        Self {
            name,
            hier,
            window,
            sampling_slack,
            bounds,
            untracked_upper,
            untracked_lower,
            processed,
        }
    }

    /// The window size `W` the summary was captured over.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for FrozenHhh<Hi> {
    fn upper_bound(&self, p: &Hi::Prefix) -> f64 {
        self.bounds
            .get(p)
            .map(|b| b.0)
            .unwrap_or(self.untracked_upper)
    }

    fn lower_bound(&self, p: &Hi::Prefix) -> f64 {
        self.bounds
            .get(p)
            .map(|b| b.1)
            .unwrap_or(self.untracked_lower)
    }
}

impl<Hi: Hierarchy> HhhQuery<Hi> for FrozenHhh<Hi> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.upper_bound(prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        compute_hhh(
            &self.hier,
            self,
            self.bounds.keys(),
            HhhParams {
                threshold: theta * self.window as f64,
                sampling_slack: self.sampling_slack,
            },
        )
    }

    fn processed(&self) -> u64 {
        self.processed
    }
}
