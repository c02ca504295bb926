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
//! [`FrozenWindow`] and [`FrozenHhh`] are immutable value types: summaries
//! that answer the same queries the live instance would have answered at
//! freeze time, bit-for-bit, without referencing the live state. Any
//! estimator builds a `FrozenWindow` through [`WindowQuery::freeze`];
//! [`HMemento::freeze`](crate::HMemento::freeze) builds a `FrozenHhh`, one
//! per shard of the sharded HHH engine. The sharded estimator engine
//! publishes [`WindowQuery::freeze_delta`] patches instead.

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

    /// Captures an immutable [`FrozenWindow`] answering exactly the queries
    /// this instance would answer right now.
    ///
    /// The provided implementation records every tracked flow via
    /// `heavy_hitters(0.0)` (estimates are non-negative, so a zero
    /// threshold enumerates all of them in canonical descending order)
    /// together with [`untracked_estimate`](Self::untracked_estimate) for
    /// everything else. That reproduces `estimate` and `heavy_hitters`
    /// bit-for-bit for every implementor whose heavy-hitter sort is stable
    /// — all of the workspace's are — because filtering a stable descending
    /// order by threshold commutes with sorting the filtered set.
    fn freeze(&self) -> FrozenWindow<K>
    where
        K: Eq + Hash,
    {
        FrozenWindow::capture(
            self.name(),
            self.heavy_hitters(0.0),
            self.untracked_estimate(),
            self.processed(),
            self.error_bound(),
        )
    }

    /// Captures the changes since the previous `freeze_delta` call as a
    /// [`WindowPatch`], for consumers maintaining a persistent
    /// [`DeltaWindow`](crate::delta::DeltaWindow). Applying every patch in
    /// call order reproduces [`freeze`](Self::freeze)'s answers bit-for-bit
    /// at each point.
    ///
    /// Takes `&mut self` because native implementors drain internal dirty
    /// journals. The provided implementation has no journal and simply
    /// returns a full [`WindowPatch::rebuild`] every time — correct for any
    /// implementor, O(k) like `freeze`. Only the Memento family
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

/// An immutable point-in-time summary of a [`WindowQuery`] implementor.
///
/// Stores the tracked flows in the live instance's canonical
/// descending-estimate order plus the estimate assigned to untracked keys,
/// so `estimate` and `heavy_hitters` reproduce the frozen instance's answers
/// bit-for-bit. `Send + Sync` whenever `K` is, which is what lets the
/// sharded engines ship one per shard out of the worker threads.
#[derive(Debug, Clone)]
pub struct FrozenWindow<K> {
    name: &'static str,
    /// Tracked flows in the live `heavy_hitters(0.0)` order (descending
    /// estimate, original stable tie order).
    entries: Vec<(K, f64)>,
    /// Point lookups for `estimate`.
    index: HashMap<K, f64>,
    /// Estimate reported for keys absent from `index`.
    untracked: f64,
    processed: u64,
    error_bound: f64,
}

impl<K: Eq + Hash + Clone> FrozenWindow<K> {
    /// Builds a frozen summary from a live instance's full heavy-hitter
    /// enumeration (threshold 0, canonical order) and scalar state.
    pub fn capture(
        name: &'static str,
        entries: Vec<(K, f64)>,
        untracked: f64,
        processed: u64,
        error_bound: f64,
    ) -> Self {
        let index = entries.iter().cloned().collect();
        Self {
            name,
            entries,
            index,
            untracked,
            processed,
            error_bound,
        }
    }

    /// An empty summary: what a reader sees before anything was published.
    pub fn empty(name: &'static str) -> Self {
        Self {
            name,
            entries: Vec::new(),
            index: HashMap::new(),
            untracked: 0.0,
            processed: 0,
            error_bound: 0.0,
        }
    }

    /// Number of tracked flows in the summary.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for FrozenWindow<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.index.get(key).copied().unwrap_or(self.untracked)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        // `entries` is already in the live implementor's canonical order;
        // filtering a stable descending order is the same as sorting the
        // filtered set, so this matches the live answer bit-for-bit.
        self.entries
            .iter()
            .filter(|(_, est)| *est >= threshold)
            .cloned()
            .collect()
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }

    fn untracked_estimate(&self) -> f64 {
        self.untracked
    }
}

/// An immutable point-in-time summary of a hierarchical heavy-hitters
/// algorithm: the candidate prefixes with their frequency bounds, plus the
/// parameters (`W`, sampling slack) of the paper's `OUTPUT` computation.
///
/// Re-runs Algorithm 2 (`compute_hhh`) over the captured bounds on every
/// [`output`](HhhQuery::output) call, so one frozen summary answers any
/// threshold — exactly like the live instance, and bit-for-bit equal to it
/// because the candidate list preserves the live enumeration order.
#[derive(Debug, Clone)]
pub struct FrozenHhh<Hi: Hierarchy> {
    name: &'static str,
    hier: Hi,
    window: usize,
    sampling_slack: f64,
    /// Candidate prefixes in the live instance's enumeration order.
    candidates: Vec<Hi::Prefix>,
    /// Upper/lower frequency bounds per candidate.
    bounds: HashMap<Hi::Prefix, (f64, f64)>,
    /// Bounds reported for prefixes absent from `bounds`.
    untracked_upper: f64,
    untracked_lower: f64,
    processed: u64,
}

impl<Hi: Hierarchy> FrozenHhh<Hi> {
    /// Builds a frozen summary from captured per-candidate bounds.
    ///
    /// `candidates` must preserve the live instance's candidate enumeration
    /// order — `compute_hhh` resolves threshold ties in enumeration order,
    /// so preserving it is what makes frozen `output` bit-for-bit equal to
    /// the live one.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        name: &'static str,
        hier: Hi,
        window: usize,
        sampling_slack: f64,
        candidates: Vec<Hi::Prefix>,
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
            candidates,
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

    /// Candidate prefixes in the captured enumeration order.
    pub fn candidates(&self) -> &[Hi::Prefix] {
        &self.candidates
    }

    /// The additive sampling compensation used by `output`.
    pub fn sampling_slack(&self) -> f64 {
        self.sampling_slack
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
            &self.candidates,
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
