//! The snapshot query plane.
//!
//! The sharded engine used to answer every query by piggybacking the
//! per-shard update FIFO: correct, but each read round-trips through a
//! worker thread and stalls behind whatever batches are in flight. This
//! module is the publication subsystem that replaces that path:
//!
//! 1. every `PublishPolicy::every_batches` flush thresholds of routed
//!    positions (and on `publish_now`), the engine ships all shard
//!    buffers — synchronizing every shard to the current global stream
//!    position — and enqueues one *freeze job* per worker FIFO;
//! 2. each worker freezes its shard — an estimator shard an incremental
//!    [`WindowPatch`] covering only the slots dirtied since its previous
//!    freeze, an HHH shard a full [`FrozenHhh`] — and delivers it to the
//!    engine's [`SnapshotHub`];
//! 3. when the hub holds all `N` parts of an epoch it turns them into one
//!    view per shard, stamps them into an [`EngineSnapshot`] and stores it
//!    in the hub's one published-snapshot pointer. An HHH part is its own
//!    view; an estimator shard's patch is folded onto a [`DeltaAssembler`]
//!    that rotates through two persistent [`DeltaWindow`]s beside the
//!    pointer, so publication costs O(dirty slots), not O(shards × summary
//!    size);
//! 4. any number of [`Reader`](crate::Reader) handles — cheaply clonable,
//!    `Send + Sync` — answer `estimate` / `heavy_hitters` / `output` /
//!    `processed` from the latest snapshot at memory speed. A read never
//!    touches a worker FIFO or the router lock; it contends only with one
//!    publication's pointer store.
//!
//! **Staleness bound.** A reader's answer reflects the stream as of the
//! latest published epoch, which the ingest path requests once
//! `every_batches` flush thresholds of positions have been routed, checked
//! after every shipment and at the end of every `update*` call: a request
//! comes at most one such call past the interval. It is published once
//! every worker has replayed the shipments queued ahead of its freeze job,
//! at most [`crate::DEFAULT_QUEUE_DEPTH`] per shard. A shipment holds at
//! most one flush threshold of routed keys, which at a router sampling at
//! τ span about `1/τ` thresholds of positions, so what readers lag by
//! beyond the interval is the positions ingested while the workers drain
//! those queues. The engine's own trait queries publish first by default
//! ([`PublishPolicy::on_query`]), which restores the old flush-then-read
//! semantics exactly.
//!
//! **Why epochs complete in order.** Freeze jobs ride the same per-shard
//! FIFOs as updates, so shard `s` delivers epoch `e` before `e+1`. An epoch
//! completes at its last delivery; since every shard delivers `e` before
//! `e+1`, all parts of `e` are in before the delivery that completes `e+1`
//! — and deliveries are serialized under the hub's pending lock, so the
//! pointer only moves forward and the assemblers see epochs in order.
//! Assembly stays there, not on the workers: a fast shard could otherwise
//! run a whole rotation ahead of an incomplete epoch and patch a view that
//! epoch's snapshot is about to publish.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use memento_core::query::{FrozenHhh, HhhQuery, WindowQuery};
use memento_core::{DeltaWindow, WindowPatch};
use memento_hierarchy::Hierarchy;
use memento_sketches::fasthash;

/// When the sharded engine publishes query snapshots.
///
/// The publication cadence is the query plane's one knob, and the
/// on-query behaviour makes the staleness trade-off explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishPolicy {
    /// Publish a fresh snapshot once this many
    /// [`crate::DEFAULT_FLUSH_THRESHOLD`]s of global stream positions have
    /// been routed since the last publication, checked after every
    /// shipment and at the end of every `update*` call. Every position
    /// counts, whichever shard it went to and whether or not a router that
    /// samples passed over it, so the interval is a number of packets at
    /// every shard count and τ, overshot by at most one such call. `0`
    /// disables periodic publication (snapshots then appear only on
    /// `publish_now` / on-query publishes). The default of 64 requests a
    /// publication every ~64 × [`crate::DEFAULT_FLUSH_THRESHOLD`] packets
    /// while costing the ingest path well under a percent. Readers lag
    /// that plus the positions ingested while the workers drain the
    /// shipments queued ahead of the freeze job; a shipment of sampled
    /// keys spans about `1/τ` flush thresholds of positions, and the
    /// producer routes faster as τ falls, so this lag in packets grows as
    /// the router's τ falls.
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

/// A partially delivered publication epoch.
#[derive(Debug)]
struct PendingEpoch<P> {
    epoch: u64,
    delivered: usize,
    parts: Vec<Option<P>>,
}

/// The hub's mutable core: partially delivered epochs plus the assembler
/// that turns complete ones into per-shard views. One mutex guards both
/// because the assembler is *stateful*: the estimator engines' assembler
/// owns the persistent [`DeltaWindow`]s the patches apply onto, so epochs
/// must reach it exactly once, in epoch order, which is precisely the
/// order deliveries complete in under this lock.
struct HubState<P, V> {
    pending: Vec<PendingEpoch<P>>,
    assemble: Box<dyn FnMut(Vec<P>) -> Vec<V> + Send>,
}

/// Collects per-shard frozen parts, assembles complete epochs into merged
/// snapshots and publishes them. One hub per engine, shared by the router
/// side (epoch allocation), the worker threads (delivery) and every reader
/// handle (loads) through an `Arc`.
pub(crate) struct SnapshotHub<P, V> {
    /// The engine's name, stamped on every snapshot.
    pub(crate) name: &'static str,
    /// The engine's worst per-shard error bound, stamped on every snapshot.
    pub(crate) error_bound: f64,
    shards: usize,
    epochs: AtomicU64,
    state: Mutex<HubState<P, V>>,
    /// The published-snapshot pointer: the one snapshot the hub retains.
    /// A publication replaces it and releases the previous one, which is
    /// what lets a [`DeltaAssembler`] rotate through only two views.
    /// Publications come in epoch order, so its snapshot's epoch is also
    /// the highest published one.
    latest: Mutex<Option<Arc<EngineSnapshot<V>>>>,
}

impl<P, V> std::fmt::Debug for SnapshotHub<P, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHub")
            .field("name", &self.name)
            .field("shards", &self.shards)
            .field("epochs", &self.epochs.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<P, V> SnapshotHub<P, V> {
    pub(crate) fn new(
        name: &'static str,
        shards: usize,
        error_bound: f64,
        assemble: Box<dyn FnMut(Vec<P>) -> Vec<V> + Send>,
    ) -> Self {
        SnapshotHub {
            name,
            error_bound,
            shards,
            epochs: AtomicU64::new(0),
            state: Mutex::new(HubState {
                pending: Vec::new(),
                assemble,
            }),
            latest: Mutex::new(None),
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
        // Assemble and publish while still holding the state lock: delivery
        // order is the publication order, so the stateful assembler sees
        // epochs strictly in order, and the snapshot this publication
        // releases is gone before the next assembly patches its views.
        let views = (state.assemble)(parts);
        self.publish(EngineSnapshot {
            epoch,
            name: self.name,
            error_bound: self.error_bound,
            shards: views.into(),
        });
    }

    /// Stores `snapshot` in the pointer and releases the previous one
    /// outside the pointer's lock. Callers publish in increasing epoch
    /// order.
    fn publish(&self, snapshot: EngineSnapshot<V>) {
        let released = self.pointer().replace(Arc::new(snapshot));
        drop(released);
    }

    fn pointer(&self) -> MutexGuard<'_, Option<Arc<EngineSnapshot<V>>>> {
        self.latest.lock().expect("snapshot pointer poisoned")
    }

    /// The highest published epoch, 0 before the first publication.
    pub(crate) fn published(&self) -> u64 {
        self.pointer().as_ref().map_or(0, |snapshot| snapshot.epoch)
    }

    /// The latest published snapshot, or `None` before the first
    /// publication.
    pub(crate) fn latest(&self) -> Option<Arc<EngineSnapshot<V>>> {
        self.pointer().clone()
    }

    /// `true` when every allocated epoch has been published — no freeze
    /// jobs are in flight anywhere. Callers must hold whatever lock
    /// serializes `begin_epoch` (the engines' router lock) for the answer
    /// to stay true while they act on it.
    pub(crate) fn quiescent(&self) -> bool {
        self.published() == self.epochs.load(Ordering::Relaxed)
    }

    /// Publishes the latest snapshot re-stamped as `epoch` without
    /// involving the workers: the unchanged-engine short circuit. The
    /// caller must have allocated `epoch` via [`Self::begin_epoch`] while
    /// the hub was [quiescent](Self::quiescent) — under the same lock that
    /// serializes epoch allocation — so no worker-delivered epoch can race
    /// this publication. Returns `false` (and publishes nothing) when
    /// nothing was published yet.
    pub(crate) fn publish_restamped(&self, epoch: u64) -> bool {
        let Some(latest) = self.latest() else {
            return false;
        };
        self.publish(latest.restamped(epoch));
        true
    }
}

/// How many views a [`DeltaAssembler`] rotates through: two, because the
/// published-snapshot pointer retains one snapshot. The view a publication
/// patches was last published two publications ago, and the publication in
/// between released that snapshot from the pointer, so (absent readers
/// that pinned it) the view owns its table again and the patches apply in
/// place.
const ROTATION: usize = 2;

/// Folds one shard's stream of [`WindowPatch`]es into publishable
/// [`DeltaWindow`] clones, keeping the per-publication cost at
/// O(dirty · `ROTATION`) hash-table writes.
///
/// A single view would make every `apply` copy on write: the clone
/// published last epoch still shares its table, so `Arc::make_mut` must
/// copy all O(k) entries. The assembler instead rotates through
/// `ROTATION` views and keeps the last `ROTATION` patches, exactly what the
/// view a publication lands on has not seen yet. A reader that still pins
/// an old snapshot costs one table copy, never correctness.
pub(crate) struct DeltaAssembler<K> {
    views: Vec<DeltaWindow<K>>,
    /// The last `ROTATION` patches, oldest first.
    backlog: VecDeque<WindowPatch<K>>,
    /// Publications so far; the next one lands on `views[published % ROTATION]`.
    published: usize,
}

impl<K: Eq + Hash + Clone> DeltaAssembler<K> {
    /// An assembler whose views all start empty.
    pub(crate) fn new(name: &'static str) -> Self {
        DeltaAssembler {
            views: (0..ROTATION).map(|_| DeltaWindow::empty(name)).collect(),
            backlog: VecDeque::with_capacity(ROTATION),
            published: 0,
        }
    }

    /// Folds `patch` in and returns the up-to-date view for publication (an
    /// O(1) clone: the assembler patches this view again only `ROTATION`
    /// publications later, after the pointer has released it). A rebuild
    /// replaces the whole table, so the replay starts at the newest rebuild
    /// in the backlog.
    pub(crate) fn publish(&mut self, patch: WindowPatch<K>) -> DeltaWindow<K> {
        if self.backlog.len() == ROTATION {
            self.backlog.pop_front();
        }
        self.backlog.push_back(patch);
        let view = &mut self.views[self.published % ROTATION];
        self.published += 1;
        let from = self.backlog.iter().rposition(|p| p.rebuild).unwrap_or(0);
        for patch in self.backlog.range(from..) {
            view.apply(patch);
        }
        view.clone()
    }
}

/// An immutable merged view of an [`Engine`](crate::Engine) at one
/// publication epoch: one per-shard view per shard, all anchored at the
/// same global stream position. The views sit behind one `Arc`, so
/// re-stamping an unchanged engine's snapshot copies no summary.
///
/// * `EngineSnapshot<DeltaWindow<K>>`, a [`crate::ShardedEstimator`]'s,
///   answers [`WindowQuery`]: per-flow estimates from the owning shard
///   (same [`fasthash::route`]), heavy hitters concatenated in shard order
///   and re-sorted by descending estimate, `processed` the per-shard
///   maximum.
/// * `EngineSnapshot<FrozenHhh<Hi>>`, a [`crate::ShardedHhh`]'s, answers
///   [`HhhQuery`]: a prefix aggregates items from every shard, so
///   `estimate` *sums* the per-shard upper bounds in shard order, and
///   `output` collects candidates at the per-shard `θ/N` threshold and
///   re-validates the union against the global `θ·W` bar.
///
/// Both merges are exactly the live engine's, so snapshot answers are
/// bit-for-bit what the FIFO path would have returned at the publication
/// point.
#[derive(Debug, Clone)]
pub struct EngineSnapshot<V> {
    epoch: u64,
    name: &'static str,
    error_bound: f64,
    shards: Arc<[V]>,
}

impl<V> EngineSnapshot<V> {
    /// The same merged view re-stamped as a newer epoch: the
    /// unchanged-engine publication short circuit (nothing was ingested
    /// since `self` was assembled, so only the epoch moves).
    fn restamped(&self, epoch: u64) -> Self {
        EngineSnapshot {
            epoch,
            name: self.name,
            error_bound: self.error_bound,
            shards: Arc::clone(&self.shards),
        }
    }

    /// The publication epoch this snapshot belongs to (1-based and strictly
    /// increasing per engine).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of per-shard views merged into this snapshot.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for EngineSnapshot<DeltaWindow<K>> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// A flow lives wholly in one shard: route the key exactly like the
    /// live engine and answer from that shard's view.
    fn estimate(&self, key: &K) -> f64 {
        self.shards[fasthash::route(key, self.shards.len())].estimate(key)
    }

    /// Union of the per-shard sets (shards partition the key space, so it
    /// is disjoint), re-sorted by descending estimate exactly like the live
    /// merge.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        let mut merged: Vec<(K, f64)> = Vec::new();
        for shard in self.shards.iter() {
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

impl<Hi: Hierarchy> HhhQuery<Hi> for EngineSnapshot<FrozenHhh<Hi>> {
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

    /// A hub over `shards` shards whose parts are their own views.
    fn hub(shards: usize) -> SnapshotHub<u64, u64> {
        SnapshotHub::new("test", shards, 0.0, Box::new(|parts| parts))
    }

    /// The latest snapshot as (epoch, per-shard views).
    fn latest(hub: &SnapshotHub<u64, u64>) -> (u64, Vec<u64>) {
        let snapshot = hub.latest().expect("published");
        (snapshot.epoch, snapshot.shards.to_vec())
    }

    #[test]
    fn pointer_load_sees_the_latest_publish() {
        let hub = hub(1);
        assert!(hub.latest().is_none());
        for epoch in 1..=5u64 {
            assert_eq!(hub.begin_epoch(), epoch);
            hub.deliver(epoch, 0, epoch * 100);
            assert_eq!(latest(&hub), (epoch, vec![epoch * 100]));
        }
    }

    #[test]
    fn hub_publishes_when_all_parts_arrive() {
        let hub = hub(3);
        let epoch = hub.begin_epoch();
        hub.deliver(epoch, 1, 10);
        assert!(hub.latest().is_none(), "incomplete epoch must not publish");
        hub.deliver(epoch, 0, 20);
        hub.deliver(epoch, 2, 30);
        // Parts come back in shard order regardless of delivery order.
        assert_eq!(latest(&hub), (epoch, vec![20, 10, 30]));
    }

    #[test]
    fn hub_interleaved_epochs_publish_in_order() {
        let hub = hub(2);
        let e1 = hub.begin_epoch();
        let e2 = hub.begin_epoch();
        // Shard 0 runs ahead: delivers both epochs before shard 1 starts —
        // the per-shard FIFO guarantees e1 before e2 per shard, nothing
        // more.
        hub.deliver(e1, 0, 1);
        hub.deliver(e2, 0, 2);
        hub.deliver(e1, 1, 10);
        assert_eq!(latest(&hub), (e1, vec![1, 10]));
        hub.deliver(e2, 1, 20);
        assert_eq!(latest(&hub), (e2, vec![2, 20]));
    }

    #[test]
    fn stateful_assembler_accumulates_across_epochs() {
        // The assembler is FnMut and owns merge state that persists from
        // epoch to epoch (the estimator engines fold incremental patches
        // onto it).
        let mut total = 0u64;
        let hub: SnapshotHub<u64, u64> = SnapshotHub::new(
            "test",
            1,
            0.0,
            Box::new(move |parts| {
                total += parts[0];
                vec![total]
            }),
        );
        for (part, expected) in [(3u64, 3u64), (4, 7), (10, 17)] {
            let epoch = hub.begin_epoch();
            hub.deliver(epoch, 0, part);
            assert_eq!(latest(&hub), (epoch, vec![expected]));
        }
    }

    #[test]
    fn restamp_republishes_the_latest_snapshot_under_a_new_epoch() {
        let hub = hub(1);
        // Nothing published yet: the short circuit must refuse.
        let bare = hub.begin_epoch();
        assert!(!hub.publish_restamped(bare));
        hub.deliver(bare, 0, 42);
        assert!(hub.quiescent());
        let before = hub.latest().expect("published");
        let e2 = hub.begin_epoch();
        assert!(!hub.quiescent(), "allocated epoch counts as in flight");
        assert!(hub.publish_restamped(e2));
        assert_eq!(latest(&hub), (e2, vec![42]));
        let after = hub.latest().expect("restamped");
        assert!(Arc::ptr_eq(&before.shards, &after.shards), "views copied");
        assert!(hub.quiescent());
    }

    /// One reference view applying every patch sequentially; an assembler
    /// rotating through its views. Every published clone must match the
    /// reference exactly — across mid-sequence rebuilds, and with the
    /// pointer's clone alive — and every clone a reader pinned must keep
    /// its answers while the rotation moves on.
    #[test]
    fn assembler_rotation_matches_sequential_application() {
        let mut reference: DeltaWindow<u64> = DeltaWindow::empty("test");
        let mut assembler: DeltaAssembler<u64> = DeltaAssembler::new("test");
        let mut pointer: Option<DeltaWindow<u64>> = None;
        let mut pinned = Vec::new();
        for step in 0..24u64 {
            let patch = if [9, 15, 16].contains(&step) {
                // Rebuilds, two of them back to back: every view must
                // converge on the replacement state even if it never saw
                // the patches before it.
                WindowPatch::rebuild(vec![(100, 50.0 + step as f64), (101, 25.0)], 0.5, 900, 1.0)
            } else {
                WindowPatch {
                    rebuild: false,
                    updated: vec![(step % 5, step as f64 + 1.0, step % 5)],
                    removed: if step % 4 == 3 {
                        vec![(step + 1) % 5]
                    } else {
                        vec![]
                    },
                    untracked: 0.1 * step as f64,
                    processed: 100 * (step + 1),
                    error_bound: 2.0,
                }
            };
            reference.apply(&patch);
            let published = assembler.publish(patch);
            pointer = Some(published.clone());
            assert_eq!(
                published.heavy_hitters(0.0),
                reference.heavy_hitters(0.0),
                "step {step}"
            );
            assert_eq!(published.processed(), reference.processed());
            assert_eq!(
                published.untracked_estimate(),
                reference.untracked_estimate()
            );
            assert_eq!(published.tracked(), reference.tracked());
            if step % 7 == 0 {
                let answers = published.heavy_hitters(0.0);
                pinned.push((published, answers));
            }
        }
        assert!(pointer.is_some());
        for (view, answers) in &pinned {
            assert_eq!(&view.heavy_hitters(0.0), answers, "a pinned view moved");
        }
    }
}
