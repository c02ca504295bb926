//! The sharded engine, written once for every algorithm it scales.
//!
//! [`Engine`] owns the router, the shard workers, the snapshot hub and the
//! [`PublishPolicy`], and implements the one [`Ingest`] contract once for
//! every algorithm it scales. What differs between per-flow estimation and
//! hierarchical heavy hitters — the routed item, the part a shard freezes
//! for a publication and the view that part becomes — is named by the
//! small [`Shard`] trait, which [`BoxedEstimator`](crate::BoxedEstimator)
//! and [`HMemento`](memento_core::HMemento) implement; one
//! [`EngineSnapshot`] merges the views of either kind. Time-based windows
//! come from wrapping the engine in a
//! [`TimedWindow`](memento_core::TimedWindow).

use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use memento_core::query::{HhhQuery, WindowQuery};
use memento_core::Ingest;
use memento_hierarchy::Hierarchy;
use memento_sketches::fasthash;

use crate::router::Router;
use crate::snapshot::{EngineSnapshot, PublishPolicy, SnapshotHub};
use crate::worker::ShardWorker;
use crate::{DEFAULT_FLUSH_THRESHOLD, DEFAULT_QUEUE_DEPTH};

/// The stateful closure that turns one epoch's frozen parts, in shard
/// order, into that epoch's per-shard views.
pub type Assembler<A> = Box<dyn FnMut(Vec<<A as Shard>::Part>) -> Vec<<A as Shard>::View> + Send>;

/// One per-shard algorithm the [`Engine`] can scale: the item it routes,
/// the part it freezes for a publication, and the view that part becomes.
/// The views of one epoch make up its [`EngineSnapshot`], whose query
/// implementation is the merge rule.
pub trait Shard: Send + Sized + 'static {
    /// The routed unit: a flow key or a hierarchy item.
    type Item: Hash + Clone + Send + 'static;
    /// What one shard delivers for one publication epoch.
    type Part: Send + 'static;
    /// One shard's immutable view of one epoch, which queries answer from.
    type View: Send + Sync + 'static;

    /// Panics unless the engine can scale this algorithm: its `skip` must
    /// anchor a shard's window at the global stream position. The default
    /// accepts, for shard types whose every value qualifies.
    fn assert_shardable(&self) {}

    /// The additive per-key error bound this shard reports; the engine and
    /// its readers report the worst one. Zero for algorithms whose query
    /// trait reports none.
    fn error_bound(&self) -> f64;

    /// Replays one shipment: `skip(gaps[i])` before each `items[i]`, then
    /// `skip(tail)` over the packets routed elsewhere after the last item.
    fn replay(&mut self, gaps: &[u64], items: &[Self::Item], tail: u64);

    /// Freezes this shard's part of a publication.
    fn freeze_part(&mut self) -> Self::Part;

    /// Approximate heap footprint of the shard's state in bytes.
    fn space_bytes(&self) -> usize;

    /// The engine's assembler, built once at construction for an engine
    /// named `name` over `shards` shards.
    fn assembler(name: &'static str, shards: usize) -> Assembler<Self>;
}

/// An algorithm scaled across worker threads, with **global-position
/// windows**.
///
/// Items are hash-partitioned over `N` shards with [`fasthash::route`];
/// each shard is a worker thread owning an independent instance over a
/// **full window of `W` packets at the global stream position**. The
/// router stamps every item with its *gap* — the number of packets routed
/// to other shards since that shard's previous item — and the worker
/// replays `skip(gap)` before each item ([`Shard::replay`]), the
/// D-Memento-style bulk window update of the Memento paper (§6). Every
/// shard's window therefore covers exactly the last `W` packets of the
/// *combined* stream, of which it recorded only its own items, so the
/// per-shard answers merge under the mergeable-sliding-window contract
/// that the sliding-window heavy-hitter literature (Braverman et al.)
/// assumes for partitioned deployments. (Giving each shard `W/N` of its
/// *own* packets instead covers far less than `W` global packets for the
/// shard owning a dominant flow — the 123 → 3308 on-arrival RMSE blowup
/// recorded in `crates/bench/EXPERIMENTS.md`.)
///
/// Items travel to the workers as gap-stamped batches over bounded
/// channels, reusing each algorithm's positioned batch path. Where the
/// τ-sampling happens depends on the constructor. The τ < 1 engines of
/// [`ShardedEstimator::memento`](crate::ShardedEstimator::memento) and
/// [`ShardedHhh::h_memento`](crate::ShardedHhh::h_memento) sample at the
/// router, as the measurement points of the paper's D-Memento (§6) do: the
/// router draws geometric skips from one table, hashes, routes and
/// gap-stamps only the sampled items, and counts every other position as
/// routed to no shard, so it reaches the shards through their gap stamps
/// and tail skips. Each shard records every item it receives as a Full
/// update at its global position. An engine built by [`Engine::new`]
/// routes every item; any sampling is its shards' own.
///
/// **Queries are served from published snapshots**: per the
/// [`PublishPolicy`], the engine periodically freezes every shard into one
/// immutable [`EngineSnapshot`] that the engine's own query methods — and
/// any number of [`Reader`] handles ([`Self::reader`]) — answer from. With
/// the default `on_query = true` policy the engine's own queries force a
/// publication first, reproducing the flush-then-read answers
/// bit-for-bit; readers observe bounded staleness (≤ one publication
/// interval) instead.
///
/// The engine implements [`Ingest`] once, through its inherent
/// [`update`](Self::update), [`update_batch`](Self::update_batch),
/// [`update_batch_positioned`](Self::update_batch_positioned) and
/// [`skip`](Self::skip), and the query traits its snapshots answer —
/// [`ShardedEstimator`](crate::ShardedEstimator) the per-flow ones,
/// [`ShardedHhh`](crate::ShardedHhh) the hierarchical ones — so every
/// generic driver in the workspace, and the time plane
/// ([`TimedWindow`](memento_core::TimedWindow)), runs sharded without
/// modification.
///
/// **After a panic under the router lock.** A panic raised while the
/// router lock is held — an entry point's stream-position overflow check,
/// or a shipment to a worker that has died — poisons the lock, and the
/// engine cannot be used again. Every later call that takes the lock
/// panics with "router state poisoned: PoisonError { .. }": the four
/// ingest entry points, [`publish_now`](Self::publish_now), and the
/// queries whenever they force a publication (always, under the default
/// [`PublishPolicy::on_query`]). [`Reader`]s keep answering from the last
/// published snapshot, and dropping the engine is clean.
///
/// **After a shard panics.** A worker thread (`{name}-shard-{i}`) that
/// panics — replaying an item or a `skip`, or freezing its part — ends,
/// and its queue closes. The engine waits on its shards only through
/// their queues, so nothing hangs: the next shipment to that shard, the
/// next [`publish_now`](Self::publish_now) and every query that forces a
/// publication panic within a bounded time with a message that names the
/// shard's thread and ends with the shard's own panic message. A
/// shipment's panic is raised under the router lock and poisons it, as
/// above. [`Reader`]s keep answering from the last published snapshot.
/// Dropping the engine panics naming the shard, unless the thread is
/// already unwinding, so it never aborts.
pub struct Engine<A: Shard> {
    workers: Vec<ShardWorker<A>>,
    /// Gap-stamped buffers, position bookkeeping and the router's
    /// sampler. Behind a mutex so the `&self` query methods can ship them;
    /// updates take `&mut self`, so the lock is uncontended.
    state: Mutex<Router<A::Item>>,
    /// Snapshot publication cadence and on-query behaviour.
    policy: PublishPolicy,
    /// Freeze rounds actually enqueued to the workers (diagnostics: lets
    /// tests assert the unchanged-engine short circuit skips them).
    freezes: AtomicUsize,
    /// Snapshot assembly and the published-snapshot pointer, shared with
    /// every [`Reader`]. It also holds the engine's name and worst
    /// per-shard error bound.
    hub: Arc<SnapshotHub<A::Part, A::View>>,
}

impl<A: Shard> Engine<A> {
    /// Creates an engine with `shards` workers, each owning the algorithm
    /// built by `factory(shard_index)`. Every per-shard algorithm must be
    /// configured with the **full global window `W`** — the router keeps it
    /// at the global stream position through its `skip`.
    ///
    /// `name` is the stable identifier the query traits report (bench
    /// CSV/JSON output). The engine starts under
    /// [`PublishPolicy::default`]; override with [`Self::with_policy`].
    /// It routes every item: any sampling happens in the shards.
    ///
    /// # Panics
    /// Panics when `shards` is zero or a factory-built algorithm fails
    /// [`Shard::assert_shardable`]: an interval estimator (Space Saving)
    /// has no `skip` that can advance a window over packets recorded
    /// elsewhere, so it cannot be sharded.
    pub fn new(name: &'static str, shards: usize, factory: impl FnMut(usize) -> A) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let algorithms: Vec<A> = (0..shards).map(factory).collect();
        let mut error_bound: f64 = 0.0;
        for algorithm in &algorithms {
            algorithm.assert_shardable();
            error_bound = error_bound.max(algorithm.error_bound());
        }
        let workers = algorithms
            .into_iter()
            .enumerate()
            .map(|(i, algorithm)| {
                ShardWorker::spawn(format!("{name}-shard-{i}"), DEFAULT_QUEUE_DEPTH, algorithm)
            })
            .collect();
        let hub = SnapshotHub::new(name, shards, error_bound, A::assembler(name, shards));
        Engine {
            workers,
            state: Mutex::new(Router::new(shards)),
            policy: PublishPolicy::default(),
            freezes: AtomicUsize::new(0),
            hub: Arc::new(hub),
        }
    }

    /// [`Self::new`] with the τ-sampling at the router when `tau < 1`:
    /// from a table seeded with `seed`, the positions a Memento with the
    /// same τ and seed samples. The factory's shards must record every
    /// shipped item as a Full update and scale their answers by `1/tau`.
    pub(crate) fn sampled(
        name: &'static str,
        shards: usize,
        tau: f64,
        seed: u64,
        factory: impl FnMut(usize) -> A,
    ) -> Self {
        let engine = Self::new(name, shards, factory);
        if tau < 1.0 {
            engine.lock().sample(tau, seed);
        }
        engine
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Sets the snapshot [`PublishPolicy`] (builder style, for use at
    /// construction: `ShardedEstimator::memento(..).with_policy(..)`).
    pub fn with_policy(mut self, policy: PublishPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The engine's current snapshot [`PublishPolicy`].
    pub fn policy(&self) -> PublishPolicy {
        self.policy
    }

    /// A handle answering the query traits from the latest published
    /// snapshot: cheap to clone, `Send + Sync`, and stale by at most one
    /// publication interval. A read never touches a worker FIFO or the
    /// router lock; it contends only with one publication's pointer store.
    pub fn reader(&self) -> Reader<A> {
        Reader {
            hub: Arc::clone(&self.hub),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Router<A::Item>> {
        self.state.lock().expect("router state poisoned")
    }

    /// Ships one shard's gap-stamped items plus the trailing skip that
    /// advances the shard's window to the current global position: a
    /// tail-only shipment when the shard has no buffered items but has
    /// fallen behind the global position.
    fn ship_shard(&self, state: &mut Router<A::Item>, shard: usize) {
        let Some((gaps, items, tail)) = state.take_shipment(shard) else {
            return;
        };
        self.workers[shard].send(Box::new(move |algorithm: &mut A| {
            algorithm.replay(&gaps, &items, tail)
        }));
    }

    /// Ships every shard's pending buffer, advancing every shard to the
    /// current global stream position.
    fn ship_all(&self, state: &mut Router<A::Item>) {
        for shard in 0..self.workers.len() {
            self.ship_shard(state, shard);
        }
    }

    /// Buffers one routed item; ships the shard's buffer once full, then
    /// publishes if the periodic cadence is due.
    fn push(&self, state: &mut Router<A::Item>, shard: usize, item: A::Item) {
        if state.push(shard, item, DEFAULT_FLUSH_THRESHOLD) >= DEFAULT_FLUSH_THRESHOLD {
            self.ship_shard(state, shard);
            self.publish_if_due(state);
        }
    }

    /// Publishes a snapshot once the positions routed since the last
    /// publication, sampled or not, reach [`PublishPolicy::every_batches`]
    /// flush thresholds. Checked after every shipment and at the end of
    /// every `update*` call, so positions a sampling router passes over
    /// bring the publication due without a shipment.
    fn publish_if_due(&self, state: &mut Router<A::Item>) {
        let due = self
            .policy
            .every_batches
            .saturating_mul(DEFAULT_FLUSH_THRESHOLD) as u64;
        if due > 0 && state.unpublished() >= due {
            self.publish_epoch(state);
        }
    }

    /// Routes one candidate item, unless the router's sampler passes over
    /// it: then its position goes to no shard.
    fn offer(&self, state: &mut Router<A::Item>, item: A::Item) {
        if state.pick(0, 1, &mut [0]) == 1 {
            self.push(state, fasthash::route(&item, self.workers.len()), item);
        } else {
            state.advance(1);
        }
    }

    /// Ships all buffers (position sync), allocates the next epoch and
    /// enqueues one freeze job per worker FIFO. Epochs are allocated under
    /// the router lock, so epoch order equals enqueue order on every FIFO —
    /// which is what makes them complete in order at the hub (and what lets
    /// the hub's stateful assembler apply parts in order).
    ///
    /// **Unchanged-engine short circuit:** every state change since the
    /// previous publication — buffered items, position advances — moves
    /// the global position and turns into a shipment during the ship-all
    /// above, so no position routed since the last publication means the
    /// shards are bit-identical to what the last freeze round saw. When
    /// additionally every allocated epoch has been published (no freeze
    /// jobs in flight), the latest snapshot is re-published under the new
    /// epoch, sharing its views, without touching a worker. Epoch
    /// allocation and the quiescence check both happen under the router
    /// lock, so no worker delivery can race the restamp.
    fn publish_epoch(&self, state: &mut Router<A::Item>) -> u64 {
        self.ship_all(state);
        let unchanged = state.unpublished() == 0 && self.hub.quiescent();
        state.mark_published();
        let epoch = self.hub.begin_epoch();
        // Nothing published yet (the first publication of an empty engine)
        // makes the restamp refuse: fall through to a real freeze round.
        if !(unchanged && self.hub.publish_restamped(epoch)) {
            self.freezes.fetch_add(1, Ordering::Relaxed);
            for (shard, worker) in self.workers.iter().enumerate() {
                let hub = Arc::clone(&self.hub);
                worker.send(Box::new(move |algorithm: &mut A| {
                    hub.deliver(epoch, shard, algorithm.freeze_part())
                }));
            }
        }
        epoch
    }

    /// Number of freeze rounds actually enqueued to the workers — excludes
    /// re-stamped publications of an unchanged engine. Diagnostics for the
    /// short-circuit tests.
    #[doc(hidden)]
    pub fn freeze_rounds(&self) -> usize {
        self.freezes.load(Ordering::Relaxed)
    }

    /// Publishes a fresh snapshot *now* — ships all pending buffers,
    /// freezes every shard at the current global position, waits for the
    /// merged snapshot to appear in the published-snapshot pointer — and
    /// returns its epoch. This is the explicit synchronization point: after
    /// `publish_now` returns, every reader observes a snapshot at least
    /// this fresh.
    ///
    /// The wait is a barrier through the worker FIFOs, taken after the
    /// router lock is released: one empty call per worker. Each worker
    /// runs its freeze job for the epoch before that call, and the
    /// delivery that completes an epoch publishes it, so when the last
    /// call returns the pointer holds this epoch or a later one. A
    /// re-stamped epoch is in the pointer already and skips the barrier.
    ///
    /// # Panics
    /// Panics with "router state poisoned" after any panic under the
    /// router lock, and with a message naming the shard after a shard's
    /// worker panicked (see the [type docs](Self)).
    pub fn publish_now(&self) -> u64 {
        let epoch = self.publish_epoch(&mut self.lock());
        if self.hub.published() < epoch {
            for worker in &self.workers {
                worker.call(|_| ());
            }
        }
        epoch
    }

    /// The historical FIFO piggyback query path: ships all pending buffers,
    /// then runs `f` on shard `shard`'s worker thread after everything
    /// enqueued before it. Kept (hidden) so differential tests can compare
    /// snapshot answers against flush-then-FIFO answers; everything else
    /// should go through the query traits or [`Self::reader`].
    #[doc(hidden)]
    pub fn query_via_fifo<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> R + Send + 'static,
    {
        self.ship_all(&mut self.lock());
        self.workers[shard].call(f)
    }

    /// The snapshot every query method answers from: the latest published
    /// one, after forcing a publication when the policy says queries must
    /// observe everything ingested so far (or when nothing was published
    /// yet).
    fn read_snapshot(&self) -> Arc<EngineSnapshot<A::View>> {
        if self.policy.on_query || self.hub.latest().is_none() {
            self.publish_now();
        }
        self.hub.latest().expect("publish_now published an epoch")
    }

    /// Routes one item: the router samples it first when it samples for
    /// its shards. `&mut self` rules out concurrent queries, so holding
    /// the router lock across a (possibly blocking) ship cannot deadlock.
    ///
    /// # Panics
    /// Panics with "update: the stream position overflows u64" when the
    /// global stream position is already `u64::MAX`, before any state
    /// changes, and with "router state poisoned" after any panic under
    /// the router lock, this one included (see the [type docs](Self)).
    pub fn update(&mut self, item: A::Item) {
        let mut state = self.lock();
        state.assert_room([1], "update");
        self.offer(&mut state, item);
        self.publish_if_due(&mut state);
    }

    /// Routes a batch, shipping each shard's share in flush-threshold-sized
    /// gap-stamped messages in per-shard arrival order (the order across
    /// shards is immaterial: shards are disjoint item sets and the gap
    /// stamps carry the exact cross-shard positions). Items beyond the last
    /// full message stay buffered until the next update or query.
    ///
    /// Works tile-wise: the router picks a tile of items to route — the
    /// sampled ones, found by jumping over geometric skips, when it
    /// samples; every item otherwise — and a straight-line pass hashes
    /// their routes into a stack array before the branchy push/ship loop
    /// consumes them, advancing the global position over the items passed
    /// over. The hashing pipelines ahead of the buffer bookkeeping instead
    /// of serializing with it. Push order — and with it every gap stamp —
    /// is exactly that of the per-item loop.
    ///
    /// # Panics
    /// Panics with "update_batch: the stream position overflows u64" when
    /// the batch would carry the global stream position past `u64::MAX`,
    /// before any state changes, and with "router state poisoned" after
    /// any panic under the router lock, this one included (see the [type
    /// docs](Self)).
    pub fn update_batch(&mut self, items: &[A::Item]) {
        const TILE: usize = 64;
        let mut state = self.lock();
        state.assert_room([items.len() as u64], "update_batch");
        let (mut picks, mut routes) = ([0usize; TILE], [0usize; TILE]);
        // Index just past the last routed item.
        let mut next = 0;
        loop {
            let picked = state.pick(next, items.len(), &mut picks);
            for (route, &i) in routes.iter_mut().zip(&picks[..picked]) {
                *route = fasthash::route(&items[i], self.workers.len());
            }
            for (&i, &shard) in picks[..picked].iter().zip(&routes) {
                state.advance((i - next) as u64);
                self.push(&mut state, shard, items[i].clone());
                next = i + 1;
            }
            if picked < TILE {
                break;
            }
        }
        state.advance((items.len() - next) as u64);
        self.publish_if_due(&mut state);
    }

    /// Routes a gap-stamped batch: before each item, the *global* stream
    /// position advances over its gap, and the item is then routed as by
    /// [`Self::update`]. Much cheaper than the [`Ingest`] default: because
    /// the router stamps each entry's gap eagerly at push time, advancing
    /// the router mid-batch folds the gap into the *next* entry's stamp on
    /// every shard — no shipment per gap, no per-gap worker wakeup. Shards
    /// that receive no item after a gap are advanced by the trailing skip
    /// of their next shipment, as always. The gaps are foreign positions,
    /// not candidates, so they never consume the router's carried skip.
    /// Observable behaviour is exactly the trait's contract:
    /// `skip(gaps[i]); update(items[i])` in order.
    ///
    /// # Panics
    /// Panics unless `gaps.len() == items.len()`, and with
    /// "update_batch_positioned: the stream position overflows u64" when
    /// the gaps and items would carry the global stream position past
    /// `u64::MAX`; both before any state changes. Panics with "router
    /// state poisoned" after any panic under the router lock, the overflow
    /// one included (see the [type docs](Self)).
    pub fn update_batch_positioned(&mut self, gaps: &[u64], items: &[A::Item]) {
        assert_eq!(gaps.len(), items.len(), "one gap stamp per item");
        let mut state = self.lock();
        let span = gaps.iter().copied().chain([items.len() as u64]);
        state.assert_room(span, "update_batch_positioned");
        for (&gap, item) in gaps.iter().zip(items) {
            state.advance(gap);
            self.offer(&mut state, item.clone());
        }
        self.publish_if_due(&mut state);
    }

    /// Advances the global stream position over `n` packets observed
    /// outside this engine — by another engine of a larger deployment, or
    /// as the rotations of a [`TimedWindow`](memento_core::TimedWindow)
    /// wrapping it. Pending buffers ship first so already-routed items keep
    /// their pre-skip positions; the advance then reaches the shards
    /// through the gap stamps or trailing skips of their next shipments.
    /// The skipped positions are not candidates: the router's sampler does
    /// not move.
    ///
    /// # Panics
    /// Panics with "skip: the stream position overflows u64" when the
    /// advance would carry the global stream position past `u64::MAX`,
    /// before any state changes, and with "router state poisoned", even
    /// for `skip(0)`, after any panic under the router lock, this one
    /// included (see the [type docs](Self)).
    pub fn skip(&mut self, n: u64) {
        let mut state = self.lock();
        state.assert_room([n], "skip");
        self.ship_all(&mut state);
        state.advance(n);
    }

    /// Sum of the shards' heap footprints, read through the worker FIFOs
    /// after shipping every pending buffer.
    pub(crate) fn total_space_bytes(&self) -> usize {
        self.ship_all(&mut self.lock());
        self.workers
            .iter()
            .map(|worker| worker.call(|algorithm: &mut A| algorithm.space_bytes()))
            .sum()
    }
}

/// The inherent methods, written once for every shard type.
impl<A: Shard> Ingest<A::Item> for Engine<A> {
    fn update(&mut self, item: A::Item) {
        Engine::update(self, item);
    }

    fn update_batch(&mut self, items: &[A::Item]) {
        Engine::update_batch(self, items);
    }

    fn update_batch_positioned(&mut self, gaps: &[u64], items: &[A::Item]) {
        Engine::update_batch_positioned(self, gaps, items);
    }

    fn skip(&mut self, n: u64) {
        Engine::skip(self, n);
    }
}

impl<A: Shard> std::fmt::Debug for Engine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("name", &self.hub.name)
            .field("shards", &self.workers.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Answered from the latest published snapshot (the merge rule is
/// [`EngineSnapshot`]'s). Under the default [`PublishPolicy::on_query`] a
/// publication is forced first, so answers reflect every preceding update;
/// with `on_query = false` they are stale by at most one publication
/// interval. `processed` doubles as the drain barrier the throughput
/// harnesses rely on: the forced publication's freeze jobs run after every
/// shipped batch on every worker FIFO. A forced publication panics with
/// "router state poisoned" after a panic under the router lock, and with a
/// message naming the shard after a shard's worker panicked (see the
/// [`Engine`] docs).
impl<K: Clone, A: Shard> WindowQuery<K> for Engine<A>
where
    EngineSnapshot<A::View>: WindowQuery<K>,
{
    fn name(&self) -> &'static str {
        self.hub.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.read_snapshot().estimate(key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.read_snapshot().heavy_hitters(threshold)
    }

    fn processed(&self) -> u64 {
        self.read_snapshot().processed()
    }

    /// A flow lives entirely in one shard whose window spans the full
    /// global stream, so the merged per-flow error is the worst per-shard
    /// bound, not their sum.
    fn error_bound(&self) -> f64 {
        self.hub.error_bound
    }
}

/// Answered from the latest published snapshot, with the same publication
/// semantics as the engine's [`WindowQuery`] implementation.
impl<Hi: Hierarchy, A: Shard> HhhQuery<Hi> for Engine<A>
where
    EngineSnapshot<A::View>: HhhQuery<Hi>,
{
    fn name(&self) -> &'static str {
        self.hub.name
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.read_snapshot().estimate(prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        self.read_snapshot().output(theta)
    }

    fn processed(&self) -> u64 {
        self.read_snapshot().processed()
    }
}

/// A cheaply clonable, `Send + Sync` handle answering the query traits from
/// an [`Engine`]'s latest published snapshot.
///
/// A query clones the published-snapshot pointer under its mutex and
/// answers from the immutable merged views. It never touches a worker FIFO
/// or the router lock, so it never waits on ingest; it contends only with
/// one publication's pointer store. Answers are stale by at most one
/// publication interval ([`PublishPolicy::every_batches`]). Before the
/// first publication the reader reports the empty window (`processed` = 0,
/// zero estimates, no heavy hitters).
pub struct Reader<A: Shard> {
    hub: Arc<SnapshotHub<A::Part, A::View>>,
}

impl<A: Shard> Clone for Reader<A> {
    fn clone(&self) -> Self {
        Reader {
            hub: Arc::clone(&self.hub),
        }
    }
}

impl<A: Shard> std::fmt::Debug for Reader<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("name", &self.hub.name)
            .finish_non_exhaustive()
    }
}

impl<A: Shard> Reader<A> {
    /// The latest published snapshot, or `None` before the first
    /// publication. Grabbing the `Arc` pins one epoch: every query against
    /// it is internally consistent, which is what the torn-read stress
    /// tests assert, and keeps answering the same while later
    /// publications move on.
    pub fn latest(&self) -> Option<Arc<EngineSnapshot<A::View>>> {
        self.hub.latest()
    }
}

impl<K: Clone, A: Shard> WindowQuery<K> for Reader<A>
where
    EngineSnapshot<A::View>: WindowQuery<K>,
{
    fn name(&self) -> &'static str {
        self.hub.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.latest().map(|s| s.estimate(key)).unwrap_or(0.0)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.latest()
            .map(|s| s.heavy_hitters(threshold))
            .unwrap_or_default()
    }

    fn processed(&self) -> u64 {
        self.latest().map(|s| s.processed()).unwrap_or(0)
    }

    fn error_bound(&self) -> f64 {
        self.hub.error_bound
    }
}

impl<Hi: Hierarchy, A: Shard> HhhQuery<Hi> for Reader<A>
where
    EngineSnapshot<A::View>: HhhQuery<Hi>,
{
    fn name(&self) -> &'static str {
        self.hub.name
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.latest().map(|s| s.estimate(prefix)).unwrap_or(0.0)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        self.latest().map(|s| s.output(theta)).unwrap_or_default()
    }

    fn processed(&self) -> u64 {
        self.latest().map(|s| s.processed()).unwrap_or(0)
    }
}
