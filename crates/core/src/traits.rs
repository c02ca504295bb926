//! The workspace's unified algorithm interfaces.
//!
//! The paper's whole evaluation is comparative — Memento vs. WCSS vs.
//! MST/window-MST vs. RHHH vs. exact oracles — yet each algorithm grew its
//! own ad-hoc `update`/`estimate`/`output` surface in the seed code, so every
//! consumer (the bench harness, the detection disciplines, the network-wide
//! simulator) hand-rolled per-algorithm driver loops. These traits remove
//! that duplication, in the spirit of WCSS's "one summary, many frontends"
//! framing (Infocom 2016):
//!
//! * [`SlidingWindowEstimator`] — per-flow frequency estimation over a
//!   stream, with a provided [`update_batch`](SlidingWindowEstimator::update_batch)
//!   that concrete types can specialize (Memento replaces per-packet coin
//!   flips with geometric skip sampling, see
//!   [`Memento::update_batch`](crate::Memento::update_batch));
//! * [`HhhAlgorithm`] — hierarchical heavy hitters over a [`Hierarchy`].
//!
//! Since PR 7 both are **ingest** traits layered over the read-only query
//! traits in [`crate::query`]: `SlidingWindowEstimator<K>` extends
//! [`WindowQuery<K>`] and `HhhAlgorithm<Hi>` extends [`HhhQuery<Hi>`]. The
//! query half needs only `&self` and is also implemented by frozen summaries
//! and the sharded engines' snapshot readers, so read-side consumers (ACL
//! checks, controllers, dashboards) can be written against `&dyn
//! WindowQuery<K>` and never see a mutating method.
//!
//! All four traits are object safe: consumers can hold
//! `Vec<Box<dyn SlidingWindowEstimator<u64>>>` (as the workspace's
//! trait-object smoke test does) or take `&mut dyn HhhAlgorithm<_>`.

use std::hash::Hash;

use memento_hierarchy::Hierarchy;
use memento_sketches::{ExactWindow, SpaceSaving};

pub use crate::query::{FrozenHhh, FrozenWindow, HhhQuery, WindowQuery};

use crate::delta::WindowPatch;
use crate::h_memento::HMemento;
use crate::memento::Memento;
use crate::wcss::Wcss;

/// A streaming per-flow frequency estimator, usually over a sliding window.
///
/// This is the *ingest* half of the interface — everything that mutates the
/// state. The query half ([`estimate`](WindowQuery::estimate),
/// [`heavy_hitters`](WindowQuery::heavy_hitters),
/// [`processed`](WindowQuery::processed)) lives in the [`WindowQuery`]
/// supertrait so it can be shared with frozen snapshots and readers.
///
/// Implementors with interval (landmark-window) semantics — [`SpaceSaving`]
/// counts everything since its last flush — document so; the trait's
/// contract is about the shared driver surface, which the paper's evaluation
/// uses across both families.
pub trait SlidingWindowEstimator<K: Clone>: WindowQuery<K> {
    /// Processes one packet of flow `key`.
    fn update(&mut self, key: K);

    /// Processes a batch of packets.
    ///
    /// The provided implementation is the per-packet loop; implementors with
    /// a cheaper bulk path (batched sampling, amortized bookkeeping)
    /// override it. Calling `update_batch` must be statistically equivalent
    /// to calling [`update`](Self::update) on each key in order — exactly
    /// equivalent when the implementor is deterministic.
    fn update_batch(&mut self, keys: &[K]) {
        for key in keys {
            self.update(key.clone());
        }
    }

    /// Advances the measurement window over `n` packets observed
    /// *elsewhere* — another shard of a hash-partitioned deployment, another
    /// measurement point of a network-wide one — without recording them.
    ///
    /// This is the D-Memento-style bulk window update (Memento paper, §6)
    /// that lets a partitioned instance keep its window anchored at the
    /// *global* stream position: after `skip(n)`, queries refer to the last
    /// `W` packets of the combined stream, of which this instance recorded
    /// only its own share. Implementations must be equivalent to `n`
    /// unrecorded single-packet window advances but are expected to run in
    /// time **sublinear in `n`** — the workspace's window implementations
    /// compute block rotations, frame flushes and expiry drains in closed
    /// form (Memento/WCSS) or evict by position range (exact windows), so
    /// the cost of a skip is independent of `n` and `O(1)` once the expired
    /// state is drained.
    ///
    /// Interval (landmark-window) estimators have no window to advance and
    /// implement this as a documented no-op; they must also opt out of
    /// [`mergeable`](Self::mergeable) so sharded-window engines refuse them
    /// at construction.
    ///
    /// # Contract: `skip(n)` ≡ `n` unrecorded window advances
    ///
    /// ```
    /// use memento_core::traits::{SlidingWindowEstimator, WindowQuery};
    /// use memento_core::Memento;
    ///
    /// // Two identical instances over a 60-packet window (τ = 1: WCSS
    /// // mode, fully deterministic).
    /// let mut bulk: Memento<u64> = Memento::new(6, 60, 1.0, 7);
    /// let mut per_packet: Memento<u64> = Memento::new(6, 60, 1.0, 7);
    /// for i in 0..45u64 {
    ///     bulk.update(i % 3);
    ///     per_packet.update(i % 3);
    /// }
    /// // 40 packets observed elsewhere: one closed-form skip on the left,
    /// // 40 per-packet window advances on the right.
    /// SlidingWindowEstimator::skip(&mut bulk, 40);
    /// for _ in 0..40 {
    ///     per_packet.window_update();
    /// }
    /// for key in 0..3u64 {
    ///     assert_eq!(
    ///         WindowQuery::estimate(&bulk, &key),
    ///         WindowQuery::estimate(&per_packet, &key),
    ///     );
    /// }
    /// assert_eq!(bulk.processed(), per_packet.processed());
    /// ```
    fn skip(&mut self, n: u64);

    /// Processes a *gap-stamped* batch: before each `keys[i]`, the window
    /// advances over `gaps[i]` packets recorded elsewhere (the
    /// `memento-shard` router stamps every key with the number of packets
    /// routed to other shards since this shard's previous key, so a shard
    /// replays its exact global positions).
    ///
    /// The provided implementation **coalesces the stamps into runs**: each
    /// run of zero-gap keys (consecutive own packets) becomes one
    /// [`update_batch`](Self::update_batch) call — inheriting the
    /// implementor's batch fast path — and each positive gap (a run of
    /// foreign packets) becomes exactly one closed-form
    /// [`skip`](Self::skip). The observable behaviour is that of the
    /// per-key interleaving `skip(gaps[i]); update(keys[i])`, which any
    /// override must preserve; implementors with a cheaper fused path
    /// (Memento folds the gaps into its geometric-skip sampling walk)
    /// override it.
    ///
    /// # Panics
    /// Implementations may assume and assert `gaps.len() == keys.len()`.
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        assert_eq!(gaps.len(), keys.len(), "one gap stamp per key");
        let mut run_start = 0usize;
        for (i, &gap) in gaps.iter().enumerate() {
            if gap > 0 {
                if run_start < i {
                    self.update_batch(&keys[run_start..i]);
                }
                self.skip(gap);
                run_start = i;
            }
        }
        if run_start < keys.len() {
            self.update_batch(&keys[run_start..]);
        }
    }

    /// Approximate heap footprint of the estimator state in bytes.
    fn space_bytes(&self) -> usize;

    /// True when instances of this estimator running over *disjoint key
    /// partitions* of one stream answer the global window queries by simple
    /// merging, **provided every instance keeps its window at the global
    /// stream position** (each partition advances over the other
    /// partitions' packets via [`skip`](Self::skip)) — a flow's estimate is
    /// then the owning partition's estimate and the global heavy-hitter set
    /// is the union of per-partition sets. Simple merging alone does *not*
    /// answer global-window queries: a partition whose window counts only
    /// its own last `W/N` packets covers a skewed, flow-dependent stretch
    /// of the global stream. This is the mergeable-sliding-window property
    /// the heavy-hitter literature (Braverman et al.) assumes for
    /// partitioned deployments, and what the `memento-shard` engine
    /// requires of the estimators it scales across cores. An estimator
    /// qualifies when its state is per-flow counts plus a stream position
    /// it can advance via `skip`; interval estimators ([`SpaceSaving`]) and
    /// implementors whose queries depend on cross-flow global state must
    /// opt out so sharded-window engines can refuse them at construction.
    fn mergeable(&self) -> bool {
        true
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for Memento<K> {
    fn name(&self) -> &'static str {
        "memento"
    }

    fn estimate(&self, key: &K) -> f64 {
        Memento::estimate(self, key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        Memento::heavy_hitters(self, threshold)
    }

    fn processed(&self) -> u64 {
        Memento::processed(self)
    }

    fn error_bound(&self) -> f64 {
        // ε_a·W from the counters (Theorem 5.2's algorithm error, one-sided
        // slack included) plus a high-probability bound on the sampling
        // noise, which scales like √(W/τ).
        let algo = 4.0 * self.window() as f64 / self.counters() as f64;
        let sampling = if self.tau() >= 1.0 {
            0.0
        } else {
            4.0 * (self.window() as f64 / self.tau()).sqrt()
        };
        algo + sampling
    }

    /// The state-dependent absent-key slack `(2·block + y_min)·scale`
    /// ([`Memento::untracked_estimate`]).
    fn untracked_estimate(&self) -> f64 {
        Memento::untracked_estimate(self)
    }

    /// O(dirty) incremental freeze via the journaled overflow table and
    /// in-frame summary ([`Memento::freeze_patch`]).
    fn freeze_delta(&mut self) -> WindowPatch<K> {
        let mut patch = Memento::freeze_patch(self);
        patch.error_bound = WindowQuery::error_bound(self);
        patch
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for Memento<K> {
    #[inline]
    fn update(&mut self, key: K) {
        Memento::update(self, key);
    }

    /// The τ-sampling hot path: geometric skips over the batch (§5).
    #[inline]
    fn update_batch(&mut self, keys: &[K]) {
        Memento::update_batch(self, keys);
    }

    /// Closed-form bulk window advance — rotation counting plus wholesale
    /// block drains, sublinear in `n` ([`Memento::skip`]).
    #[inline]
    fn skip(&mut self, n: u64) {
        Memento::skip(self, n);
    }

    /// The fused gap-aware τ-sampling path
    /// ([`Memento::update_batch_positioned`]).
    #[inline]
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        Memento::update_batch_positioned(self, gaps, keys);
    }

    fn space_bytes(&self) -> usize {
        Memento::space_bytes(self)
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for Wcss<K> {
    fn name(&self) -> &'static str {
        "wcss"
    }

    fn estimate(&self, key: &K) -> f64 {
        Wcss::estimate(self, key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        Wcss::heavy_hitters(self, threshold)
    }

    fn processed(&self) -> u64 {
        Wcss::processed(self)
    }

    fn error_bound(&self) -> f64 {
        4.0 * self.window() as f64 / self.counters() as f64
    }

    /// Inherited from the underlying deterministic Memento: the τ = 1
    /// absent-key slack.
    fn untracked_estimate(&self) -> f64 {
        self.as_memento().untracked_estimate()
    }

    /// Delegates to the underlying Memento's O(dirty) incremental freeze,
    /// restamped with WCSS's deterministic error bound.
    fn freeze_delta(&mut self) -> WindowPatch<K> {
        let mut patch = self.as_memento_mut().freeze_patch();
        patch.error_bound = WindowQuery::error_bound(self);
        patch
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for Wcss<K> {
    #[inline]
    fn update(&mut self, key: K) {
        Wcss::update(self, key);
    }

    /// WCSS is Memento with τ = 1: the batch path degenerates to per-packet
    /// Full updates and is exactly equivalent to repeated `update` (asserted
    /// by the workspace's property tests).
    #[inline]
    fn update_batch(&mut self, keys: &[K]) {
        self.as_memento_mut().update_batch(keys);
    }

    /// Closed-form bulk window advance — rotation counting plus wholesale
    /// block drains, sublinear in `n` ([`Wcss::skip`]).
    #[inline]
    fn skip(&mut self, n: u64) {
        Wcss::skip(self, n);
    }

    /// The τ = 1 case of the fused gap-aware path: every own key is a Full
    /// update, every gap a bulk advance.
    #[inline]
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        self.as_memento_mut().update_batch_positioned(gaps, keys);
    }

    fn space_bytes(&self) -> usize {
        self.as_memento().space_bytes()
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for ExactWindow<K> {
    fn name(&self) -> &'static str {
        "exact-window"
    }

    fn estimate(&self, key: &K) -> f64 {
        self.query(key) as f64
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        ExactWindow::heavy_hitters(self, threshold.max(0.0).ceil() as u64)
            .into_iter()
            .map(|(k, c)| (k, c as f64))
            .collect()
    }

    fn processed(&self) -> u64 {
        ExactWindow::processed(self)
    }

    fn error_bound(&self) -> f64 {
        0.0
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for ExactWindow<K> {
    #[inline]
    fn update(&mut self, key: K) {
        self.add(key);
    }

    /// Global-position range eviction: the advance expires exactly the
    /// recorded items that fall out of the last `W` stream positions, by
    /// binary-searched prefix drain or whole-ring clear
    /// ([`ExactWindow::skip`]).
    #[inline]
    fn skip(&mut self, n: u64) {
        ExactWindow::skip(self, n);
    }

    fn space_bytes(&self) -> usize {
        ExactWindow::space_bytes(self)
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for SpaceSaving<K> {
    fn name(&self) -> &'static str {
        "space-saving"
    }

    fn estimate(&self, key: &K) -> f64 {
        self.query(key) as f64
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        SpaceSaving::heavy_hitters(self, threshold.max(0.0).ceil() as u64)
            .into_iter()
            .map(|c| (c.key, c.count as f64))
            .collect()
    }

    fn processed(&self) -> u64 {
        SpaceSaving::processed(self)
    }

    fn error_bound(&self) -> f64 {
        self.processed() as f64 / self.counters() as f64
    }

    /// The fill-state-dependent absent-key answer: the minimum summary
    /// count once the summary is full ([`SpaceSaving::absent_query`]).
    fn untracked_estimate(&self) -> f64 {
        self.absent_query() as f64
    }
}

/// Interval (landmark-window) semantics: counts everything since creation or
/// the last flush. Included so interval baselines run under the same generic
/// drivers the paper's §3 comparison needs.
impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for SpaceSaving<K> {
    #[inline]
    fn update(&mut self, key: K) {
        self.add(key);
    }

    /// The prefetch-pipelined batch path ([`SpaceSaving::add_batch`]):
    /// exactly equivalent to per-key `add`, with the index misses of the
    /// batch overlapped.
    #[inline]
    fn update_batch(&mut self, keys: &[K]) {
        self.add_batch(keys);
    }

    /// No-op: an interval summary counts everything since its last flush
    /// and has no sliding window to advance — packets observed elsewhere
    /// are simply outside its interval.
    fn skip(&mut self, _n: u64) {}

    fn space_bytes(&self) -> usize {
        SpaceSaving::space_bytes(self)
    }

    /// Interval semantics opt out explicitly: `skip` is a no-op here, so a
    /// Space-Saving instance cannot keep a partition's window at the global
    /// stream position and must not be placed behind a sharded-window
    /// engine (the engines refuse it at construction).
    fn mergeable(&self) -> bool {
        false
    }
}

/// A hierarchical heavy-hitters algorithm over a [`Hierarchy`].
///
/// The ingest half; the query half ([`estimate`](HhhQuery::estimate),
/// [`output`](HhhQuery::output), [`processed`](HhhQuery::processed)) lives
/// in the [`HhhQuery`] supertrait shared with frozen snapshots and readers.
pub trait HhhAlgorithm<Hi: Hierarchy>: HhhQuery<Hi> {
    /// Processes one packet.
    fn update(&mut self, item: Hi::Item);

    /// Processes a batch of packets (provided: the per-packet loop).
    fn update_batch(&mut self, items: &[Hi::Item]) {
        for &item in items {
            self.update(item);
        }
    }

    /// Advances the measurement window over `n` packets observed elsewhere
    /// without recording them (see
    /// [`SlidingWindowEstimator::skip`]): the D-Memento-style bulk window
    /// update that keeps a partitioned instance's window at the global
    /// stream position, required to run in time sublinear in `n`. Interval
    /// algorithms (MST, RHHH) have no window to advance and implement this
    /// as a documented no-op.
    ///
    /// # Contract: `skip(n)` ≡ `n` unrecorded window advances
    ///
    /// ```
    /// use memento_core::traits::{HhhAlgorithm, HhhQuery};
    /// use memento_core::HMemento;
    /// use memento_hierarchy::{Prefix1D, SrcHierarchy};
    ///
    /// // Two identical instances (τ = 1: deterministic level sampling
    /// // shares the seeded RNG, identical on both sides).
    /// let mut bulk = HMemento::new(SrcHierarchy, 64, 60, 1.0, 0.01, 3);
    /// let mut per_packet = HMemento::new(SrcHierarchy, 64, 60, 1.0, 0.01, 3);
    /// for i in 0..45u32 {
    ///     bulk.update(u32::from_be_bytes([10, 0, 0, (i % 3) as u8]));
    ///     per_packet.update(u32::from_be_bytes([10, 0, 0, (i % 3) as u8]));
    /// }
    /// // 40 packets observed elsewhere: one closed-form skip on the left,
    /// // 40 per-packet window advances on the right.
    /// HhhAlgorithm::<SrcHierarchy>::skip(&mut bulk, 40);
    /// for _ in 0..40 {
    ///     per_packet.window_update();
    /// }
    /// let subnet = Prefix1D::new(u32::from_be_bytes([10, 0, 0, 0]), 8);
    /// assert_eq!(
    ///     HhhQuery::<SrcHierarchy>::estimate(&bulk, &subnet),
    ///     HhhQuery::<SrcHierarchy>::estimate(&per_packet, &subnet),
    /// );
    /// assert_eq!(bulk.processed(), per_packet.processed());
    /// ```
    fn skip(&mut self, n: u64);

    /// Processes a gap-stamped batch: before each `items[i]`, the window
    /// advances over `gaps[i]` packets recorded elsewhere (see
    /// [`SlidingWindowEstimator::update_batch_positioned`]). Like the
    /// estimator-side default, the provided implementation coalesces the
    /// stamps into runs: one [`update_batch`](Self::update_batch) per run
    /// of zero-gap items, one closed-form [`skip`](Self::skip) per
    /// positive gap.
    ///
    /// # Panics
    /// Implementations may assume and assert `gaps.len() == items.len()`.
    fn update_batch_positioned(&mut self, gaps: &[u64], items: &[Hi::Item]) {
        assert_eq!(gaps.len(), items.len(), "one gap stamp per item");
        let mut run_start = 0usize;
        for (i, &gap) in gaps.iter().enumerate() {
            if gap > 0 {
                if run_start < i {
                    self.update_batch(&items[run_start..i]);
                }
                self.skip(gap);
                run_start = i;
            }
        }
        if run_start < items.len() {
            self.update_batch(&items[run_start..]);
        }
    }

    /// Approximate heap footprint of the algorithm state in bytes.
    fn space_bytes(&self) -> usize;

    /// True for interval (landmark) algorithms — MST, RHHH — whose
    /// measurement restarts at interval boundaries; sliding-window
    /// algorithms return `false` (the default). Generic drivers use this to
    /// apply the paper's §3 interval discipline (reset every `W` packets)
    /// without knowing concrete types.
    fn is_interval(&self) -> bool {
        false
    }

    /// Starts a new measurement interval; a no-op for sliding-window
    /// algorithms.
    fn reset_interval(&mut self) {}

    /// True when instances over *disjoint item partitions* of one stream
    /// merge into the global answer by summing per-partition prefix
    /// estimates and unioning per-partition HHH sets, **provided every
    /// instance keeps its window at the global stream position** via
    /// [`skip`](Self::skip) (see [`SlidingWindowEstimator::mergeable`]; for
    /// hierarchies the merge is summation because one prefix aggregates
    /// items from every partition). The `memento-shard` engine shards
    /// [`HMemento`], which qualifies.
    fn mergeable(&self) -> bool {
        true
    }
}

impl<Hi: Hierarchy> HhhQuery<Hi> for HMemento<Hi>
where
    Hi::Prefix: Hash,
{
    fn name(&self) -> &'static str {
        "h-memento"
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        HMemento::estimate(self, prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        HMemento::output(self, theta)
    }

    fn processed(&self) -> u64 {
        HMemento::processed(self)
    }
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for HMemento<Hi>
where
    Hi::Prefix: Hash,
{
    #[inline]
    fn update(&mut self, item: Hi::Item) {
        HMemento::update(self, item);
    }

    /// Bulk window advance through the single shared prefix-keyed Memento
    /// ([`HMemento::skip`]).
    #[inline]
    fn skip(&mut self, n: u64) {
        HMemento::skip(self, n);
    }

    fn space_bytes(&self) -> usize {
        self.as_memento().space_bytes()
    }
}
