//! The snapshot query plane.
//!
//! The sharded engine used to answer every query by piggybacking the
//! per-shard update FIFO: correct, but each read round-trips through a
//! worker thread and stalls behind whatever batches are in flight. This
//! module is the publication subsystem that replaces that path:
//!
//! 1. every `PublishPolicy::every_batches` shipped batches (and on
//!    `publish_now`), the engine ships all shard buffers — synchronizing
//!    every shard to the current global stream position — and enqueues one
//!    *freeze job* per worker FIFO;
//! 2. each worker freezes its shard — an estimator shard an incremental
//!    [`WindowPatch`](memento_core::WindowPatch) covering only the slots
//!    dirtied since its previous freeze, an HHH shard a full
//!    [`FrozenHhh`](memento_core::query::FrozenHhh) — and delivers it to the
//!    engine's [`SnapshotHub`];
//! 3. when the hub holds all `N` parts of an epoch it assembles the merged
//!    [`EngineSnapshot`] / [`HhhEngineSnapshot`] under the
//!    global-position-window contract and swaps it into an epoch-stamped
//!    double buffer ([`SnapshotCell`]). Estimator assembly is *persistent*:
//!    the assembler owns one [`DeltaWindow`](memento_core::DeltaWindow) per
//!    shard, applies each epoch's patches onto it and snapshots the result
//!    with O(1) structural-sharing clones — publication costs
//!    O(dirty slots), not O(shards × summary size);
//! 4. any number of [`Reader`](crate::Reader) handles — cheaply clonable,
//!    `Send + Sync` — answer `estimate` / `heavy_hitters` / `output` /
//!    `processed` from the latest snapshot at memory speed. A read never
//!    touches a worker FIFO or the router lock; it contends only with one
//!    publication's pointer store into the double buffer.
//!
//! **Staleness bound.** A reader's answer reflects the stream as of the
//! latest published epoch, which the ingest path refreshes at least every
//! `every_batches` shipped batches: readers lag ingest by at most one
//! publication interval (plus whatever is still buffered in the router,
//! at most one ship threshold per shard). The engine's own trait queries
//! publish first by default ([`PublishPolicy::on_query`]), which restores
//! the old flush-then-read semantics exactly.
//!
//! **Why epochs complete in order.** Freeze jobs ride the same per-shard
//! FIFOs as updates, so shard `s` delivers epoch `e` before `e+1`. An epoch
//! completes at its last delivery; since every shard delivers `e` before
//! `e+1`, all parts of `e` are in before the delivery that completes `e+1`
//! — and deliveries are serialized under the hub's pending lock, so the
//! double buffer is always written in increasing epoch order.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use memento_core::query::{FrozenHhh, HhhQuery, WindowQuery};
use memento_core::DeltaWindow;
use memento_hierarchy::Hierarchy;
use memento_sketches::fasthash;

/// When the sharded engine publishes query snapshots.
///
/// Replaces the old ad-hoc `flush()` + `set_flush_threshold()` pair: the
/// publication cadence is the one knob that matters for the query plane,
/// and the on-query behaviour makes the staleness trade-off explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishPolicy {
    /// Publish a fresh snapshot after this many shipped per-shard batches.
    /// `0` disables periodic publication (snapshots then appear only on
    /// `publish_now` / on-query publishes). The default of 64 batches keeps
    /// readers within ~64 × [`crate::DEFAULT_FLUSH_THRESHOLD`] packets of
    /// the ingest frontier while costing the ingest path well under a
    /// percent.
    pub every_batches: usize,
    /// When `true` (the default), the engine's *own* query methods
    /// (`estimate`, `heavy_hitters`, `output`, `processed`) force a
    /// publication before reading, reproducing the historical
    /// flush-then-read semantics bit-for-bit. Set to `false` for
    /// engine-side reads that, like [`Reader`](crate::Reader) handles,
    /// answer from the latest published snapshot, stale by at most one
    /// publication interval (only a read before the first publication
    /// publishes).
    pub on_query: bool,
}

impl Default for PublishPolicy {
    fn default() -> Self {
        PublishPolicy {
            every_batches: 64,
            on_query: true,
        }
    }
}

/// An epoch-stamped double buffer: the hand-rolled arc-swap.
///
/// The writer alternates between two slots (`epoch & 1`) and advances the
/// epoch counter with `Release` ordering after the slot is written; readers
/// load the counter with `Acquire`, lock the matching slot and retry if a
/// newer publication overwrote it in between (possible only when two
/// publications complete during one read — readers never block the writer
/// for more than a pointer clone either way).
#[derive(Debug)]
struct SnapshotCell<T> {
    epoch: AtomicU64,
    slots: [Mutex<(u64, Option<Arc<T>>)>; 2],
}

impl<T> SnapshotCell<T> {
    fn new() -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slots: [Mutex::new((0, None)), Mutex::new((0, None))],
        }
    }

    /// Publishes `value` as `epoch`. Callers must publish in increasing
    /// epoch order (the hub's pending lock guarantees it).
    fn publish(&self, epoch: u64, value: Arc<T>) {
        let slot = (epoch & 1) as usize;
        *self.slots[slot].lock().expect("snapshot slot poisoned") = (epoch, Some(value));
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The latest published value, or `None` before the first publication.
    fn load(&self) -> Option<Arc<T>> {
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch == 0 {
                return None;
            }
            let slot = self.slots[(epoch & 1) as usize]
                .lock()
                .expect("snapshot slot poisoned");
            if slot.0 == epoch {
                return slot.1.clone();
            }
            // The slot was re-used by a newer publication between the epoch
            // load and the lock; retry against the newer epoch.
        }
    }
}

/// A partially delivered publication epoch.
#[derive(Debug)]
struct PendingEpoch<P> {
    epoch: u64,
    delivered: usize,
    parts: Vec<Option<P>>,
}

/// The hub's mutable core: partially delivered epochs plus the assembler
/// that folds complete ones into snapshots. One mutex guards both because
/// the assembler is *stateful* (PR 8): the estimator engines hand it per
/// shard patches and it owns the persistent merged [`DeltaWindow`]s they
/// apply onto — epochs must reach it exactly once, in epoch order, which is
/// precisely the order deliveries complete in under this lock.
struct HubState<P, S> {
    pending: Vec<PendingEpoch<P>>,
    assemble: Box<dyn FnMut(u64, Vec<P>) -> S + Send>,
}

/// Collects per-shard frozen parts, assembles complete epochs into merged
/// snapshots and publishes them. One hub per engine, shared by the router
/// side (epoch allocation), the worker threads (delivery) and every reader
/// handle (loads) through an `Arc`.
pub(crate) struct SnapshotHub<P, S> {
    shards: usize,
    epochs: AtomicU64,
    state: Mutex<HubState<P, S>>,
    cell: SnapshotCell<S>,
    /// Highest fully published epoch, guarded for `wait_published`.
    published: Mutex<u64>,
    published_cv: Condvar,
}

impl<P, S> std::fmt::Debug for SnapshotHub<P, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHub")
            .field("shards", &self.shards)
            .field("epochs", &self.epochs.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<P, S> SnapshotHub<P, S> {
    pub(crate) fn new(shards: usize, assemble: Box<dyn FnMut(u64, Vec<P>) -> S + Send>) -> Self {
        SnapshotHub {
            shards,
            epochs: AtomicU64::new(0),
            state: Mutex::new(HubState {
                pending: Vec::new(),
                assemble,
            }),
            cell: SnapshotCell::new(),
            published: Mutex::new(0),
            published_cv: Condvar::new(),
        }
    }

    /// Allocates the next publication epoch (1-based; 0 means "nothing
    /// published"). Callers allocate under the router lock so that epoch
    /// order matches freeze-job enqueue order on every worker FIFO.
    pub(crate) fn begin_epoch(&self) -> u64 {
        self.epochs.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Delivers shard `shard`'s frozen part of `epoch`; assembles and
    /// publishes the snapshot when this was the last missing part.
    pub(crate) fn deliver(&self, epoch: u64, shard: usize, part: P) {
        let mut state = self.state.lock().expect("snapshot hub poisoned");
        let idx = match state.pending.iter().position(|p| p.epoch == epoch) {
            Some(idx) => idx,
            None => {
                state.pending.push(PendingEpoch {
                    epoch,
                    delivered: 0,
                    parts: (0..self.shards).map(|_| None).collect(),
                });
                state.pending.len() - 1
            }
        };
        let entry = &mut state.pending[idx];
        debug_assert!(entry.parts[shard].is_none(), "duplicate delivery");
        entry.parts[shard] = Some(part);
        entry.delivered += 1;
        if entry.delivered < self.shards {
            return;
        }
        let entry = state.pending.swap_remove(idx);
        let parts: Vec<P> = entry
            .parts
            .into_iter()
            .map(|p| p.expect("complete epoch missing a part"))
            .collect();
        // Assemble and swap while still holding the state lock: delivery
        // order is the publication order, so the stateful assembler sees
        // epochs strictly in order and the cell only moves forward.
        self.cell
            .publish(epoch, Arc::new((state.assemble)(epoch, parts)));
        drop(state);
        let mut published = self.published.lock().expect("published counter poisoned");
        if epoch > *published {
            *published = epoch;
        }
        self.published_cv.notify_all();
        drop(published);
    }

    /// Blocks until `epoch` (and everything before it) is published.
    pub(crate) fn wait_published(&self, epoch: u64) {
        let mut published = self.published.lock().expect("published counter poisoned");
        while *published < epoch {
            published = self
                .published_cv
                .wait(published)
                .expect("published counter poisoned");
        }
    }

    /// The latest published snapshot, or `None` before the first
    /// publication.
    pub(crate) fn latest(&self) -> Option<Arc<S>> {
        self.cell.load()
    }

    /// `true` when every allocated epoch has been published — no freeze
    /// jobs are in flight anywhere. Callers must hold whatever lock
    /// serializes `begin_epoch` (the engines' router lock) for the answer
    /// to stay true while they act on it.
    pub(crate) fn quiescent(&self) -> bool {
        *self.published.lock().expect("published counter poisoned")
            == self.epochs.load(Ordering::Relaxed)
    }

    /// Publishes `f(latest)` as `epoch` without involving the workers: the
    /// unchanged-engine short circuit. The caller must have allocated
    /// `epoch` via [`Self::begin_epoch`] while the hub was [quiescent]
    /// (`Self::quiescent`) — under the same lock that serializes epoch
    /// allocation — so no worker-delivered epoch can race this
    /// publication. Returns `false` (and publishes nothing) when nothing
    /// was published yet.
    pub(crate) fn publish_restamped(&self, epoch: u64, f: impl FnOnce(&S) -> S) -> bool {
        let Some(latest) = self.cell.load() else {
            return false;
        };
        self.cell.publish(epoch, Arc::new(f(&latest)));
        let mut published = self.published.lock().expect("published counter poisoned");
        if epoch > *published {
            *published = epoch;
        }
        self.published_cv.notify_all();
        drop(published);
        true
    }
}

/// An immutable merged view of a [`crate::ShardedEstimator`] at one
/// publication epoch: one delta-maintained [`DeltaWindow`] per shard, all
/// anchored at the same global stream position.
///
/// Implements [`WindowQuery`] with exactly the merge rules of the live
/// engine — per-flow estimates answered by the owning shard (same
/// [`fasthash::route`]), heavy hitters concatenated in shard order and
/// re-sorted by descending estimate, `processed` the per-shard maximum — so
/// snapshot answers are bit-for-bit what the FIFO path would have returned
/// at the publication point.
///
/// The per-shard views are persistent structures (PR 8): cloning one into
/// a snapshot shares all of its entry storage with the assembler's working
/// copy, so a publication allocates proportionally to the slots *changed*
/// since the previous epoch, not to the summary size.
#[derive(Debug, Clone)]
pub struct EngineSnapshot<K> {
    epoch: u64,
    name: &'static str,
    error_bound: f64,
    shards: Vec<DeltaWindow<K>>,
}

impl<K: Eq + Hash + Clone> EngineSnapshot<K> {
    pub(crate) fn assemble(
        epoch: u64,
        name: &'static str,
        error_bound: f64,
        shards: Vec<DeltaWindow<K>>,
    ) -> Self {
        EngineSnapshot {
            epoch,
            name,
            error_bound,
            shards,
        }
    }

    /// The same merged view re-stamped as a newer epoch: the
    /// unchanged-engine publication short circuit (nothing was ingested
    /// since `self` was assembled, so only the epoch moves).
    pub(crate) fn restamped(&self, epoch: u64) -> Self {
        EngineSnapshot {
            epoch,
            ..self.clone()
        }
    }

    /// The publication epoch this snapshot belongs to (1-based and strictly
    /// increasing per engine).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of per-shard summaries merged into this snapshot.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard merged views, in shard order.
    pub fn per_shard(&self) -> &[DeltaWindow<K>] {
        &self.shards
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for EngineSnapshot<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// A flow lives wholly in one shard: route the key exactly like the
    /// live engine and answer from that shard's summary.
    fn estimate(&self, key: &K) -> f64 {
        self.shards[fasthash::route(key, self.shards.len())].estimate(key)
    }

    /// Union of the per-shard sets (shards partition the key space, so it
    /// is disjoint), re-sorted by descending estimate exactly like the live
    /// merge.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        let mut merged: Vec<(K, f64)> = Vec::new();
        for shard in &self.shards {
            merged.extend(shard.heavy_hitters(threshold));
        }
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        merged
    }

    /// Global stream position at the publication point: every shard is
    /// position-synced before freezing, so this is the per-shard maximum.
    fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed()).max().unwrap_or(0)
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }
}

/// An immutable merged view of a [`crate::ShardedHhh`] at one publication
/// epoch: one [`FrozenHhh`] per shard, all anchored at the same global
/// stream position.
///
/// Implements [`HhhQuery`] with exactly the live engine's merge rules: a
/// prefix aggregates items from every shard, so `estimate` *sums* the
/// per-shard upper bounds (in shard order — identical f64 rounding), and
/// `output` collects candidates at the per-shard `θ/N` threshold,
/// re-validates the union against the global `θ·W` bar with the summed
/// estimates and returns them in canonical prefix order.
///
/// The per-shard parts sit behind one `Arc`, so re-stamping an unchanged
/// engine's snapshot copies no summary.
#[derive(Debug, Clone)]
pub struct HhhEngineSnapshot<Hi: Hierarchy> {
    epoch: u64,
    name: &'static str,
    shards: Arc<[FrozenHhh<Hi>]>,
}

impl<Hi: Hierarchy> HhhEngineSnapshot<Hi> {
    pub(crate) fn assemble(epoch: u64, name: &'static str, shards: Vec<FrozenHhh<Hi>>) -> Self {
        HhhEngineSnapshot {
            epoch,
            name,
            shards: shards.into(),
        }
    }

    /// The same merged view re-stamped as a newer epoch (see
    /// [`EngineSnapshot`]'s twin).
    pub(crate) fn restamped(&self, epoch: u64) -> Self {
        HhhEngineSnapshot {
            epoch,
            ..self.clone()
        }
    }

    /// The publication epoch this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of per-shard summaries merged into this snapshot.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

impl<Hi: Hierarchy> HhhQuery<Hi> for HhhEngineSnapshot<Hi> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Sum of the per-shard upper bounds, in shard order (the same
    /// accumulation order as the live engine's merged estimate).
    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.shards.iter().map(|s| s.estimate(prefix)).sum()
    }

    /// The live engine's two-phase merge over frozen parts: per-shard
    /// candidates at `θ/N`, summed-estimate re-validation against `θ·W`,
    /// canonical prefix order.
    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        let per_shard_theta = theta / self.shards.len() as f64;
        let mut seen: HashSet<Hi::Prefix> = HashSet::new();
        for shard in self.shards.iter() {
            seen.extend(shard.output(per_shard_theta));
        }
        let mut merged: Vec<Hi::Prefix> = seen.into_iter().collect();
        // Every shard is configured with the full global window W.
        let floor = theta * self.shards[0].window() as f64;
        let mut totals = vec![0.0f64; merged.len()];
        for shard in self.shards.iter() {
            for (total, prefix) in totals.iter_mut().zip(&merged) {
                *total += shard.estimate(prefix);
            }
        }
        let mut keep = totals.iter().map(|t| *t >= floor);
        merged.retain(|_| keep.next().unwrap_or(false));
        merged.sort_unstable();
        merged
    }

    fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_load_sees_the_latest_publish() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        assert!(cell.load().is_none());
        for epoch in 1..=5u64 {
            cell.publish(epoch, Arc::new(epoch * 100));
            assert_eq!(*cell.load().expect("published"), epoch * 100);
        }
    }

    #[test]
    fn hub_publishes_when_all_parts_arrive() {
        let hub: SnapshotHub<u64, Vec<u64>> =
            SnapshotHub::new(3, Box::new(|_, parts| parts.clone()));
        let epoch = hub.begin_epoch();
        hub.deliver(epoch, 1, 10);
        assert!(hub.latest().is_none(), "incomplete epoch must not publish");
        hub.deliver(epoch, 0, 20);
        hub.deliver(epoch, 2, 30);
        hub.wait_published(epoch);
        // Parts come back in shard order regardless of delivery order.
        assert_eq!(*hub.latest().expect("published"), vec![20, 10, 30]);
    }

    #[test]
    fn hub_interleaved_epochs_publish_in_order() {
        let hub: SnapshotHub<u64, u64> = SnapshotHub::new(
            2,
            Box::new(|epoch, parts| epoch * 1000 + parts.iter().sum::<u64>()),
        );
        let e1 = hub.begin_epoch();
        let e2 = hub.begin_epoch();
        // Shard 0 runs ahead: delivers both epochs before shard 1 starts —
        // the per-shard FIFO guarantees e1 before e2 per shard, nothing
        // more.
        hub.deliver(e1, 0, 1);
        hub.deliver(e2, 0, 2);
        hub.deliver(e1, 1, 10);
        assert_eq!(*hub.latest().expect("e1 complete"), 1011);
        hub.deliver(e2, 1, 20);
        hub.wait_published(e2);
        assert_eq!(*hub.latest().expect("e2 complete"), 2022);
    }

    #[test]
    fn stateful_assembler_accumulates_across_epochs() {
        // The PR 8 contract: the assembler is FnMut and owns merge state
        // that persists from epoch to epoch (the estimator engines fold
        // incremental patches onto it).
        let mut total = 0u64;
        let hub: SnapshotHub<u64, u64> = SnapshotHub::new(
            1,
            Box::new(move |_, parts| {
                total += parts[0];
                total
            }),
        );
        for (part, expected) in [(3u64, 3u64), (4, 7), (10, 17)] {
            let epoch = hub.begin_epoch();
            hub.deliver(epoch, 0, part);
            assert_eq!(*hub.latest().expect("published"), expected);
        }
    }

    #[test]
    fn restamp_republishes_the_latest_snapshot_under_a_new_epoch() {
        let hub: SnapshotHub<u64, (u64, u64)> =
            SnapshotHub::new(1, Box::new(|epoch, parts| (epoch, parts[0])));
        // Nothing published yet: the short circuit must refuse.
        let bare = hub.begin_epoch();
        assert!(!hub.publish_restamped(bare, |s| *s));
        hub.deliver(bare, 0, 42);
        assert!(hub.quiescent());
        let e2 = hub.begin_epoch();
        assert!(!hub.quiescent(), "allocated epoch counts as in flight");
        assert!(hub.publish_restamped(e2, |&(_, payload)| (e2, payload)));
        hub.wait_published(e2);
        assert_eq!(*hub.latest().expect("restamped"), (e2, 42));
        assert!(hub.quiescent());
    }
}
