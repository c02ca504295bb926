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
//! * [`Ingest`] — the one ingest contract, written once for every item
//!   type: `update`, a provided [`update_batch`](Ingest::update_batch) that
//!   concrete types can specialize (Memento replaces per-packet coin flips
//!   with geometric skip sampling, see
//!   [`Memento::update_batch`](crate::Memento::update_batch)), the
//!   closed-form [`skip`](Ingest::skip), the gap-coalescing
//!   [`update_batch_positioned`](Ingest::update_batch_positioned) and the
//!   interval capability ([`is_interval`](Ingest::is_interval));
//! * [`SlidingWindowEstimator`] — per-flow frequency estimation:
//!   `Ingest<K>` plus the read-only [`WindowQuery<K>`];
//! * [`HhhAlgorithm`] — hierarchical heavy hitters over a [`Hierarchy`]:
//!   `Ingest<Hi::Item>` plus the read-only [`HhhQuery<Hi>`].
//!
//! Memento (Algorithm 1) and H-Memento (Algorithm 2) ingest packets the same
//! way — a Full update with probability τ, a Window update otherwise, and
//! bulk window advances over packets seen elsewhere (§4.3) — so the sharded
//! engine and the time plane ([`TimedWindow`](crate::TimedWindow)) are
//! written once against [`Ingest`] and serve both families. The query half
//! ([`crate::query`]) needs only `&self` and is also implemented by frozen
//! summaries and the sharded engines' snapshot readers, so read-side
//! consumers (ACL checks, controllers, dashboards) can be written against
//! `&dyn WindowQuery<K>` and never see a mutating method.
//!
//! All five traits are object safe: consumers can hold
//! `Vec<Box<dyn SlidingWindowEstimator<u64>>>` (as the workspace's
//! trait-object smoke test does) or take `&mut dyn HhhAlgorithm<_>`. Calls
//! through those objects, or through a generic `E: SlidingWindowEstimator<K>`
//! bound, reach the [`Ingest`] methods without importing [`Ingest`].

use std::hash::Hash;

use memento_hierarchy::Hierarchy;
use memento_sketches::{ExactWindow, SpaceSaving};

pub use crate::query::{FrozenHhh, HhhQuery, WindowQuery};

use crate::delta::WindowPatch;
use crate::h_memento::HMemento;
use crate::memento::Memento;
use crate::wcss::Wcss;

/// The ingest contract every streaming algorithm of the workspace keeps,
/// whatever it counts: flow keys for estimators, hierarchy items for HHH.
///
/// This is the half of the interface that mutates the state. What an
/// algorithm answers lives in the read-only [`WindowQuery`] / [`HhhQuery`]
/// traits, which [`SlidingWindowEstimator`] and [`HhhAlgorithm`] add on top.
pub trait Ingest<T: Clone> {
    /// Processes one packet carrying `item`.
    fn update(&mut self, item: T);

    /// Processes a batch of packets.
    ///
    /// The provided implementation is the per-packet loop; implementors with
    /// a cheaper bulk path (batched sampling, amortized bookkeeping)
    /// override it. Calling `update_batch` must be statistically equivalent
    /// to calling [`update`](Self::update) on each item in order — exactly
    /// equivalent when the implementor is deterministic.
    fn update_batch(&mut self, items: &[T]) {
        for item in items {
            self.update(item.clone());
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
    /// unrecorded Window updates but are expected to run in time
    /// **sublinear in `n`** — the workspace's window implementations
    /// compute block rotations, frame flushes and expiry drains in closed
    /// form (Memento/WCSS/H-Memento) or evict by position range (exact
    /// windows), so the cost of a skip is independent of `n` and `O(1)`
    /// once the expired state is drained.
    ///
    /// Interval (landmark-window) algorithms have no window to advance and
    /// implement this as a documented no-op; they report
    /// [`is_interval`](Self::is_interval), which sharded-window engines
    /// refuse at construction.
    ///
    /// # Contract: `skip(n)` ≡ `n` unrecorded Window updates
    ///
    /// ```
    /// use memento_core::traits::{Ingest, WindowQuery};
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
    /// // 40 Window updates on the right.
    /// Ingest::skip(&mut bulk, 40);
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
    ///
    /// H-Memento keeps the same contract; the [`HhhAlgorithm`] example
    /// checks it through a trait object.
    fn skip(&mut self, n: u64);

    /// Processes a *gap-stamped* batch: before each `items[i]`, the window
    /// advances over `gaps[i]` packets recorded elsewhere (the
    /// `memento-shard` router stamps every item with the number of packets
    /// routed to other shards since this shard's previous item, so a shard
    /// replays its exact global positions).
    ///
    /// The provided implementation **coalesces the stamps into runs**: each
    /// run of zero-gap items (consecutive own packets) becomes one
    /// [`update_batch`](Self::update_batch) call — inheriting the
    /// implementor's batch fast path — and each positive gap (a run of
    /// foreign packets) becomes exactly one closed-form
    /// [`skip`](Self::skip). The observable behaviour is that of the
    /// per-item interleaving `skip(gaps[i]); update(items[i])`, which any
    /// override must preserve; implementors with a cheaper fused path
    /// (Memento at τ = 1 folds each gap into its key's window advance)
    /// override it.
    ///
    /// # Panics
    /// Implementations may assume and assert `gaps.len() == items.len()`.
    fn update_batch_positioned(&mut self, gaps: &[u64], items: &[T]) {
        replay_runs(self, gaps, items);
    }

    /// True for interval (landmark-window) algorithms — Space Saving, MST,
    /// RHHH — whose measurement counts everything since the last
    /// [`reset_interval`](Self::reset_interval) and whose `skip` is a
    /// no-op; sliding-window algorithms return `false` (the default).
    ///
    /// Generic drivers use it to apply the paper's §3 interval discipline
    /// (reset every `W` packets) without knowing concrete types. The
    /// `memento-shard` engine refuses interval algorithms: instances over
    /// *disjoint item partitions* of one stream answer the global window
    /// queries by simple merging — the owning partition's estimate per
    /// flow, summed per-partition estimates per prefix — only while every
    /// instance keeps its window at the global stream position through
    /// [`skip`](Self::skip). That is the mergeable-sliding-window property
    /// the heavy-hitter literature (Braverman et al.) assumes for
    /// partitioned deployments; a partition whose window counts only its
    /// own last `W/N` packets covers a skewed, flow-dependent stretch of
    /// the global stream instead.
    fn is_interval(&self) -> bool {
        false
    }

    /// Starts a new measurement interval; a no-op for sliding-window
    /// algorithms.
    fn reset_interval(&mut self) {}
}

/// The provided [`Ingest::update_batch_positioned`], for overrides that
/// fall back to it: one [`Ingest::update_batch`] per run of zero-gap items
/// and one [`Ingest::skip`] per positive gap.
pub(crate) fn replay_runs<T: Clone, I: Ingest<T> + ?Sized>(
    ingest: &mut I,
    gaps: &[u64],
    items: &[T],
) {
    assert_eq!(gaps.len(), items.len(), "one gap stamp per item");
    let mut run_start = 0usize;
    for (i, &gap) in gaps.iter().enumerate() {
        if gap > 0 {
            if run_start < i {
                ingest.update_batch(&items[run_start..i]);
            }
            ingest.skip(gap);
            run_start = i;
        }
    }
    if run_start < items.len() {
        ingest.update_batch(&items[run_start..]);
    }
}

/// A streaming per-flow frequency estimator, usually over a sliding window:
/// the [`Ingest`] contract over flow keys plus the read-only
/// [`WindowQuery`] surface ([`estimate`](WindowQuery::estimate),
/// [`heavy_hitters`](WindowQuery::heavy_hitters),
/// [`processed`](WindowQuery::processed)) shared with frozen snapshots and
/// readers.
///
/// Implementors with interval (landmark-window) semantics — [`SpaceSaving`]
/// counts everything since its last flush — report
/// [`is_interval`](Ingest::is_interval); the paper's evaluation drives both
/// families through the same surface.
pub trait SlidingWindowEstimator<K: Clone>: Ingest<K> + WindowQuery<K> {
    /// Approximate heap footprint of the estimator state in bytes.
    fn space_bytes(&self) -> usize;
}

/// A hierarchical heavy-hitters algorithm over a [`Hierarchy`]: the
/// [`Ingest`] contract over hierarchy items plus the read-only [`HhhQuery`]
/// surface ([`estimate`](HhhQuery::estimate), [`output`](HhhQuery::output),
/// [`processed`](HhhQuery::processed)) shared with frozen snapshots and
/// readers.
///
/// # Example: `skip(n)` ≡ `n` unrecorded Window updates, through `dyn`
///
/// A trait object reaches the [`Ingest`] methods without importing
/// [`Ingest`].
///
/// ```
/// use memento_core::traits::HhhAlgorithm;
/// use memento_core::HMemento;
/// use memento_hierarchy::{Prefix1D, SrcHierarchy};
///
/// // Two identical instances (τ = 1: deterministic level sampling
/// // shares the seeded RNG, identical on both sides).
/// let mut bulk = HMemento::new(SrcHierarchy, 64, 60, 1.0, 0.01, 3);
/// let mut per_packet = HMemento::new(SrcHierarchy, 64, 60, 1.0, 0.01, 3);
/// let alg: &mut dyn HhhAlgorithm<SrcHierarchy> = &mut bulk;
/// for i in 0..45u32 {
///     let host = u32::from_be_bytes([10, 0, 0, (i % 3) as u8]);
///     alg.update(host);
///     per_packet.update(host);
/// }
/// // 40 packets observed elsewhere: one closed-form skip on the left,
/// // 40 Window updates on the right.
/// alg.skip(40);
/// for _ in 0..40 {
///     per_packet.window_update();
/// }
/// let subnet = Prefix1D::new(u32::from_be_bytes([10, 0, 0, 0]), 8);
/// assert_eq!(alg.estimate(&subnet), per_packet.estimate(&subnet));
/// assert_eq!(alg.processed(), per_packet.processed());
/// ```
pub trait HhhAlgorithm<Hi: Hierarchy>: Ingest<Hi::Item> + HhhQuery<Hi> {
    /// Approximate heap footprint of the algorithm state in bytes.
    fn space_bytes(&self) -> usize;
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
        // noise, which scales like √(W/τ). τ is the rate Full updates
        // arrive at, which an instance sampled upstream (a router-sampled
        // shard) is configured with, not the coin it flips itself.
        let rate = self.full_update_rate();
        let algo = 4.0 * self.window() as f64 / self.counters() as f64;
        let sampling = if rate >= 1.0 {
            0.0
        } else {
            4.0 * (self.window() as f64 / rate).sqrt()
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

impl<K: Eq + Hash + Clone> Ingest<K> for Memento<K> {
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

    /// The gap-aware batch path ([`Memento::update_batch_positioned`]).
    #[inline]
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        Memento::update_batch_positioned(self, gaps, keys);
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for Memento<K> {
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

impl<K: Eq + Hash + Clone> Ingest<K> for Wcss<K> {
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

    /// The τ = 1 case of the gap-aware path: every own key is a Full
    /// update, every gap a bulk advance.
    #[inline]
    fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        self.as_memento_mut().update_batch_positioned(gaps, keys);
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for Wcss<K> {
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

impl<K: Eq + Hash + Clone> Ingest<K> for ExactWindow<K> {
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
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for ExactWindow<K> {
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
impl<K: Eq + Hash + Clone> Ingest<K> for SpaceSaving<K> {
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

    /// `skip` is a no-op here, so a Space-Saving instance cannot keep a
    /// partition's window at the global stream position and must not be
    /// placed behind a sharded-window engine (the engines refuse it at
    /// construction).
    fn is_interval(&self) -> bool {
        true
    }

    /// Starts a new interval: [`SpaceSaving::flush`].
    fn reset_interval(&mut self) {
        self.flush();
    }
}

impl<K: Eq + Hash + Clone> SlidingWindowEstimator<K> for SpaceSaving<K> {
    fn space_bytes(&self) -> usize {
        SpaceSaving::space_bytes(self)
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

impl<Hi: Hierarchy> Ingest<Hi::Item> for HMemento<Hi>
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
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for HMemento<Hi>
where
    Hi::Prefix: Hash,
{
    fn space_bytes(&self) -> usize {
        self.as_memento().space_bytes()
    }
}
