//! The time plane: grain-mapped time-based sliding windows over any
//! count-based algorithm that keeps the [`Ingest`] contract.
//!
//! The paper — and every count-based structure in this workspace — defines
//! its window as "the last `W` packets". Real SLAs are time-based ("the
//! last 5 seconds"), and the production systems that ship this paper's
//! problem (Kong's rate limiter, commcare-hq's `SlidingWindowRateCounter`)
//! all use the same shape: divide the time window into `g` sub-window
//! *grains* and advance the window by whole-grain rotations. Memento's
//! block/frame structure (CoNEXT 2018, §4) already *is* a grained window,
//! so a time-based window needs no new algorithm — only plumbing from
//! timestamps to a computed number of closed-form
//! [`skip`](Ingest::skip) rotations.
//!
//! [`TimedWindow`] wraps anything that implements [`Ingest`] — a single
//! estimator, H-Memento, or a whole sharded engine — and answers the read
//! side of whatever it wraps ([`WindowQuery`] or [`HhhQuery`]). There is no
//! second time plane: a sharded engine gets time-based windows by being
//! wrapped, and its closed-form `skip` carries the rotations to every
//! shard.
//!
//! # The grain ↔ position mapping
//!
//! A [`GrainMap`] fixes the static geometry: a window of `D` clock ticks
//! and `W` stream positions is divided into `g` grains of
//! `grain_span = ⌈D/g⌉` ticks, each worth `ppg = ⌈W/g⌉` positions.
//! A [`GrainClock`] then turns a stream of timestamps into rotation counts
//! against a *position schedule*: entering grain `G + Δ` moves the
//! scheduled position forward by `Δ · ppg`, and the rotations to execute
//! are `scheduled − position` — so packets recorded inside a grain consume
//! that grain's position budget instead of shrinking the effective time
//! span, and an idle grain boundary pays the full `ppg`. When a burst
//! overruns its grain budget (more than `ppg` records in one grain), the
//! schedule is re-anchored at the burst's end position on the next grain
//! boundary, so the entries still age out one full window after their
//! grain — the count capacity `W` binds under overload, never the clock.
//!
//! The quantization contract: an entry recorded at tick `t` leaves the
//! window at a tick within one `grain_span` of `t + D` (plus the `⌈·⌉`
//! rounding of `ppg`, at most one further grain). Idle gaps longer than
//! the whole window map to `≥ W` rotations, which the closed-form `skip`
//! executes as an O(1)/O(distinct) wholesale clear — time never walks.
//!
//! # Clock policy
//!
//! Timestamps are `u64` ticks of any unit (the map only ever compares and
//! subtracts them). The policy for misbehaving clocks is **clamp-to-last,
//! never panic**: a timestamp earlier than the newest one already observed
//! is treated as arriving at the newest one (windows only move forward;
//! [`GrainClock::clamped`] counts the occurrences for diagnostics).
//! Duplicate timestamps are normal and cost nothing. Far-future jumps
//! saturate in 128-bit arithmetic instead of overflowing.

use std::hash::Hash;
use std::marker::PhantomData;

use memento_hierarchy::Hierarchy;

use crate::delta::WindowPatch;
use crate::query::{HhhQuery, WindowQuery};
use crate::traits::Ingest;

/// The static geometry of a grain-mapped time window: how many clock ticks
/// one grain spans and how many stream positions it is worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrainMap {
    /// Window length in clock ticks (`D`).
    window_ticks: u64,
    /// Window length in stream positions (`W`) — must match the wrapped
    /// algorithm's configured window.
    window_positions: u64,
    /// Ticks per grain: `max(1, ⌈D/g⌉)`.
    grain_span: u64,
    /// Effective grains per window: `⌈D/grain_span⌉` (equals the requested
    /// `g` unless `D < g` forced 1-tick grains).
    grains: u64,
    /// Stream positions one grain is worth: `max(1, ⌈W/grains⌉)`.
    positions_per_grain: u64,
}

impl GrainMap {
    /// Builds the map for a window of `window_ticks` clock ticks and
    /// `window_positions` stream positions, divided into (at most) `grains`
    /// grains.
    ///
    /// # Panics
    /// Panics when any argument is zero.
    pub fn new(window_ticks: u64, window_positions: u64, grains: u64) -> Self {
        assert!(window_ticks > 0, "window_ticks must be positive");
        assert!(window_positions > 0, "window_positions must be positive");
        assert!(grains > 0, "grains must be positive");
        let grain_span = window_ticks.div_ceil(grains).max(1);
        let grains = window_ticks.div_ceil(grain_span).max(1);
        let positions_per_grain = window_positions.div_ceil(grains).max(1);
        GrainMap {
            window_ticks,
            window_positions,
            grain_span,
            grains,
            positions_per_grain,
        }
    }

    /// Window length in clock ticks (`D`).
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// Window length in stream positions (`W`).
    pub fn window_positions(&self) -> u64 {
        self.window_positions
    }

    /// Clock ticks one grain spans — the time-quantization unit of the
    /// mapping.
    pub fn grain_span(&self) -> u64 {
        self.grain_span
    }

    /// Effective number of grains per window.
    pub fn grains(&self) -> u64 {
        self.grains
    }

    /// Stream positions one grain boundary schedules.
    pub fn positions_per_grain(&self) -> u64 {
        self.positions_per_grain
    }

    /// The absolute grain index a timestamp falls into.
    #[inline]
    fn grain_of(&self, t: u64) -> u64 {
        t / self.grain_span
    }
}

/// Turns a (clamped-monotone) timestamp stream into window rotation counts
/// against the [`GrainMap`]'s position schedule.
///
/// The clock anchors itself on the first observation: the first timestamp's
/// grain becomes the schedule origin at the stream position passed in with
/// it. From then on, [`observe`](Self::observe) returns how many rotations
/// ([`skip`](Ingest::skip) positions) bring the stream to the schedule for
/// the observed timestamp's grain. See the
/// [module docs](self) for the schedule semantics and the clamp-to-last
/// clock policy.
#[derive(Debug, Clone)]
pub struct GrainClock {
    map: GrainMap,
    /// False until the first observation anchors the schedule.
    anchored: bool,
    /// Absolute grain index of the newest observation.
    grain: u64,
    /// Newest (post-clamp) timestamp observed.
    last_tick: u64,
    /// Scheduled stream position for the current grain.
    scheduled: u64,
    /// Non-monotone timestamps clamped so far (diagnostics).
    clamped: u64,
}

impl GrainClock {
    /// Creates an unanchored clock over `map`.
    pub fn new(map: GrainMap) -> Self {
        GrainClock {
            map,
            anchored: false,
            grain: 0,
            last_tick: 0,
            scheduled: 0,
            clamped: 0,
        }
    }

    /// The static geometry this clock schedules against.
    pub fn map(&self) -> &GrainMap {
        &self.map
    }

    /// Observes timestamp `t` with the stream currently at `position`
    /// (total packets recorded plus rotations executed) and returns the
    /// rotations that bring the stream to the schedule for `t`'s grain —
    /// `0` within a grain or while records run ahead of schedule.
    ///
    /// Non-monotone `t` is clamped to the newest timestamp observed
    /// (counted in [`clamped`](Self::clamped)); this method never panics.
    pub fn observe(&mut self, t: u64, position: u64) -> u64 {
        if !self.anchored {
            self.anchored = true;
            self.grain = self.map.grain_of(t);
            self.last_tick = t;
            self.scheduled = position;
            return 0;
        }
        let t = if t < self.last_tick {
            self.clamped += 1;
            self.last_tick
        } else {
            t
        };
        self.last_tick = t;
        let grain = self.map.grain_of(t);
        if grain > self.grain {
            let delta = grain - self.grain;
            self.grain = grain;
            // 128-bit so a far-future jump times a large ppg cannot wrap;
            // the saturation is harmless (skip clamps to a wholesale clear
            // long before u64::MAX rotations).
            let advance = (self.scheduled as u128)
                .saturating_add(delta as u128 * self.map.positions_per_grain as u128);
            let advance = u64::try_from(advance).unwrap_or(u64::MAX);
            // Re-anchor past any budget overrun: if records pushed the
            // stream beyond the old schedule, the new schedule starts at
            // the stream, so burst entries still age out one window after
            // their grain instead of stretching retention.
            self.scheduled = advance.max(position);
        }
        self.scheduled.saturating_sub(position)
    }

    /// First tick of the grain after the current one — the exclusive upper
    /// bound of "inside the current grain". Saturates at `u64::MAX` when
    /// the next boundary lies beyond the clock's range, which
    /// conservatively routes a `t == u64::MAX` packet through the full
    /// [`observe`](Self::observe) path instead of the in-grain fast path.
    #[inline]
    fn grain_end_tick(&self) -> u64 {
        self.grain
            .saturating_add(1)
            .saturating_mul(self.map.grain_span)
    }

    /// In-grain fast-path bookkeeping for the chunked ingest loop
    /// ([`TimedWindow::record_timed`]). Once a run's head packet has been
    /// recorded, the stream position is strictly ahead of the schedule and
    /// an in-grain timestamp never moves the schedule, so a full
    /// [`observe`](Self::observe) of any `t < grain_end_tick()` would
    /// return 0 rotations and touch nothing but the clamp-to-last
    /// bookkeeping — which is all that remains here. (A clamped `t` stays
    /// in-grain by construction: the clamp target `last_tick` is inside
    /// the current grain.)
    #[inline]
    fn note_in_grain(&mut self, t: u64) {
        if t < self.last_tick {
            self.clamped += 1;
        } else {
            self.last_tick = t;
        }
    }

    /// True once the first observation anchored the schedule.
    pub fn anchored(&self) -> bool {
        self.anchored
    }

    /// The newest (post-clamp) timestamp observed, or 0 before anchoring.
    pub fn last_tick(&self) -> u64 {
        self.last_tick
    }

    /// The absolute grain index of the newest observation.
    pub fn grain(&self) -> u64 {
        self.grain
    }

    /// Number of non-monotone timestamps clamped to the newest observation
    /// so far — the diagnostic counter of the clamp-to-last clock policy.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }
}

/// A time-based sliding window over any [`Ingest`] implementor: records
/// carry timestamps, and the wrapped algorithm's count window is kept at
/// the position schedule of a [`GrainClock`].
///
/// The wrapper owns the algorithm — all ingest must flow through
/// [`record_at`](Self::record_at) / [`record_batch_at`](Self::record_batch_at)
/// / [`record_timed`](Self::record_timed) / [`advance_to`](Self::advance_to)
/// so the wrapper's position mirror stays true (it never asks the inner
/// algorithm for its position, which on the sharded engines would force a
/// snapshot publication). Read access goes through the wrapper's own
/// [`WindowQuery`] or [`HhhQuery`] implementation (whichever the inner
/// type implements), [`inner`](Self::inner), or [`query_at`](Self::query_at)
/// when the answer must reflect expiry up to a timestamp with no packet
/// attached.
///
/// The algorithm must be configured with a count window of exactly
/// `map.window_positions()` — the wrapper cannot read it back through the
/// trait, so the constructor takes the geometry explicitly. Wrapping a
/// sharded engine ([`Engine`](../../memento_shard/struct.Engine.html))
/// makes it a time-based window: every rotation reaches all shards through
/// the engine's `skip`.
#[derive(Debug, Clone)]
pub struct TimedWindow<T: Clone, A: Ingest<T>> {
    inner: A,
    clock: GrainClock,
    /// Mirror of the inner stream position: records plus rotations since
    /// construction.
    position: u64,
    /// Advances whose rotation count covered the whole count window —
    /// i.e. idle gaps that land on the inner `skip`'s wholesale-clear
    /// fast path (diagnostic hook, in the style of the sharded engine's
    /// `freeze_rounds`).
    whole_window_advances: u64,
    _item: PhantomData<fn(T)>,
}

impl<T: Clone, A: Ingest<T>> TimedWindow<T, A> {
    /// Wraps `inner` (configured with a count window of
    /// `map.window_positions()`) behind the grain-mapped time window `map`.
    ///
    /// The position mirror starts at 0 and counts the records and rotations
    /// that go through the wrapper, as every later update must. The clock
    /// only ever compares its schedule with this mirror, so a pre-loaded
    /// algorithm rotates exactly as a fresh one would.
    pub fn new(inner: A, map: GrainMap) -> Self {
        TimedWindow {
            inner,
            clock: GrainClock::new(map),
            position: 0,
            whole_window_advances: 0,
            _item: PhantomData,
        }
    }

    /// Convenience constructor building the [`GrainMap`] inline: a window
    /// of `window_ticks` clock ticks over `window_positions` stream
    /// positions, quantized to `grains` grains.
    pub fn with_grains(inner: A, window_ticks: u64, window_positions: u64, grains: u64) -> Self {
        Self::new(inner, GrainMap::new(window_ticks, window_positions, grains))
    }

    /// Advances the window to timestamp `t` without recording anything:
    /// executes the schedule's pending rotations through the inner
    /// closed-form [`skip`](Ingest::skip). O(1) in the drained steady
    /// state; an idle gap outrunning the whole ring is a wholesale clear.
    /// Non-monotone `t` clamps (see [`GrainClock`]).
    pub fn advance_to(&mut self, t: u64) {
        let rotations = self.clock.observe(t, self.position);
        if rotations > 0 {
            if rotations >= self.clock.map().window_positions() {
                self.whole_window_advances += 1;
            }
            self.inner.skip(rotations);
            self.position += rotations;
        }
    }

    /// Records one packet carrying `item` arriving at timestamp `t`:
    /// [`advance_to`](Self::advance_to)`(t)` then one inner update.
    pub fn record_at(&mut self, item: T, t: u64) {
        self.advance_to(t);
        self.inner.update(item);
        self.position += 1;
    }

    /// Records a burst of packets all arriving at timestamp `t` through
    /// the inner batch fast path.
    pub fn record_batch_at(&mut self, items: &[T], t: u64) {
        self.advance_to(t);
        self.inner.update_batch(items);
        self.position += items.len() as u64;
    }

    /// Replays a batch of individually timestamped packets (a recorded
    /// trace slice) as same-grain *runs*: each run is one closed-form
    /// [`skip`](Ingest::skip) over the head's rotations followed by one
    /// plain [`update_batch`](Ingest::update_batch) over the run's items —
    /// no per-packet gap stamps at all. Equivalent to
    /// `record_at` per packet — bit for bit at τ = 1; at τ < 1 the
    /// rotation schedule is still identical but the batch path draws its
    /// geometric skips from the RNG in a different order than per-packet
    /// coins (statistically equivalent, exactly as for the untimed batch
    /// paths).
    ///
    /// The clock consult is hoisted out of the per-packet loop: only the
    /// *head* of each in-grain run pays the full
    /// [`GrainClock::observe`] (boundary crossings, schedule re-anchoring,
    /// the wholesale-clear diagnostic). After a record the position is
    /// strictly ahead of the schedule, so every following timestamp inside
    /// the current grain rotates nothing — the tail of the run costs one
    /// grain-boundary comparison per packet plus the clamp-to-last
    /// bookkeeping, which is all a full `observe` would have done. The
    /// same hoist retires the PR 9 gap-stamp buffers: a whole run shares
    /// one rotation count, so `skip` + `update_batch` replaces the
    /// `update_batch_positioned` gap array (bit-for-bit — `skip` composes
    /// and consumes no randomness, and the batch sampler's persistent
    /// carry makes batch splits RNG-invariant; the differential proptests
    /// in `tests/time_windows.rs` pin both claims across grain boundaries
    /// and non-monotone clocks). Arrival clocks that cross a grain on
    /// every packet degrade to per-packet `skip`/`update_batch` calls —
    /// the cost `record_at` pays anyway.
    pub fn record_timed(&mut self, packets: &[(u64, T)]) {
        let mut keys = Vec::with_capacity(packets.len());
        let mut i = 0;
        while i < packets.len() {
            // Head of a run: the full clock consult.
            let (t, key) = &packets[i];
            let rotations = self.clock.observe(*t, self.position);
            if rotations >= self.clock.map().window_positions() {
                self.whole_window_advances += 1;
            }
            if rotations > 0 {
                self.inner.skip(rotations);
                self.position += rotations;
            }
            keys.clear();
            keys.push(key.clone());
            i += 1;
            // Tail of the run: zero rotations until the grain ends.
            let end = self.clock.grain_end_tick();
            while i < packets.len() {
                let (t, key) = &packets[i];
                if *t >= end {
                    break;
                }
                self.clock.note_in_grain(*t);
                keys.push(key.clone());
                i += 1;
            }
            // The mirror moves only once the inner algorithm has accepted
            // the run, so a run past `u64::MAX` panics with the inner
            // check's named message and leaves the mirror where it was.
            self.inner.update_batch(&keys);
            self.position += keys.len() as u64;
        }
    }

    /// Advances the window to `t`, then hands out the inner algorithm for
    /// querying — the read path for "as of time `t`" answers when no packet
    /// arrived at `t` itself.
    pub fn query_at(&mut self, t: u64) -> &A {
        self.advance_to(t);
        &self.inner
    }

    /// The wrapped algorithm, read-only (mutating it outside the wrapper
    /// would desynchronize the position mirror — use
    /// [`into_inner`](Self::into_inner) to take it back).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the algorithm, consuming the time plane.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The grain clock (geometry, last timestamp, clamp diagnostics).
    pub fn clock(&self) -> &GrainClock {
        &self.clock
    }

    /// The wrapper's mirror of the inner stream position.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Number of advances whose rotation count covered the whole count
    /// window — each one lands on the inner `skip`'s O(1)/O(distinct)
    /// wholesale-clear path rather than walking positions. Diagnostic
    /// hook for asserting the idle-gap fast path in tests.
    pub fn whole_window_advances(&self) -> u64 {
        self.whole_window_advances
    }
}

impl<K: Clone, A: Ingest<K> + WindowQuery<K>> WindowQuery<K> for TimedWindow<K, A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, key: &K) -> f64 {
        self.inner.estimate(key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.inner.heavy_hitters(threshold)
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }

    fn error_bound(&self) -> f64 {
        self.inner.error_bound()
    }

    fn untracked_estimate(&self) -> f64 {
        self.inner.untracked_estimate()
    }

    fn freeze_delta(&mut self) -> WindowPatch<K>
    where
        K: Eq + Hash,
    {
        self.inner.freeze_delta()
    }
}

impl<T: Clone, Hi: Hierarchy, A: Ingest<T> + HhhQuery<Hi>> HhhQuery<Hi> for TimedWindow<T, A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.inner.estimate(prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        self.inner.output(theta)
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcss::Wcss;
    use memento_sketches::ExactWindow;

    #[test]
    fn map_geometry_rounds_up() {
        let map = GrainMap::new(100, 1_000, 8);
        assert_eq!(map.grain_span(), 13); // ⌈100/8⌉
        assert_eq!(map.grains(), 8); // ⌈100/13⌉
        assert_eq!(map.positions_per_grain(), 125);
        // D < g collapses to 1-tick grains with fewer effective grains.
        let tiny = GrainMap::new(5, 100, 64);
        assert_eq!(tiny.grain_span(), 1);
        assert_eq!(tiny.grains(), 5);
        assert_eq!(tiny.positions_per_grain(), 20);
    }

    #[test]
    fn idle_grain_boundaries_schedule_full_budget() {
        let map = GrainMap::new(80, 800, 8); // 10-tick grains, 100 positions
        let mut clock = GrainClock::new(map);
        assert_eq!(clock.observe(5, 0), 0); // anchor
        assert_eq!(clock.observe(7, 0), 0); // same grain
        assert_eq!(clock.observe(15, 0), 100); // one boundary
        assert_eq!(clock.observe(35, 100), 200); // two more boundaries
    }

    #[test]
    fn records_consume_the_grain_budget() {
        let map = GrainMap::new(80, 800, 8);
        let mut clock = GrainClock::new(map);
        clock.observe(5, 0);
        // 40 packets recorded inside the grain: the next boundary owes only
        // the remainder of the 100-position budget.
        assert_eq!(clock.observe(15, 40), 60);
    }

    #[test]
    fn burst_overrun_reanchors_the_schedule() {
        let map = GrainMap::new(80, 800, 8);
        let mut clock = GrainClock::new(map);
        clock.observe(5, 0);
        // 1000 packets in one grain blow way past the 100-position budget:
        // the next boundary owes nothing and the schedule restarts at the
        // stream position instead of leaving it 900 positions in debt.
        assert_eq!(clock.observe(15, 1_000), 0);
        assert_eq!(clock.observe(25, 1_000), 100);
    }

    #[test]
    fn clamp_to_last_never_moves_backwards() {
        let map = GrainMap::new(100, 100, 10);
        let mut clock = GrainClock::new(map);
        clock.observe(500, 0);
        let forward = clock.observe(520, 0);
        assert!(forward > 0);
        // A far-backward timestamp is treated as arriving at t = 520.
        assert_eq!(clock.observe(3, forward), 0);
        assert_eq!(clock.clamped(), 1);
        assert_eq!(clock.last_tick(), 520);
    }

    #[test]
    fn timed_window_expires_after_one_window_of_idle_time() {
        let window = 1_000;
        let mut timed =
            TimedWindow::with_grains(ExactWindow::<u64>::new(window), 50, window as u64, 8);
        for i in 0..200u64 {
            timed.record_at(i % 4, 10);
        }
        assert!(timed.estimate(&1) > 0.0);
        // Advance two full windows of idle time: everything must be gone,
        // and the stream must have rotated at least a whole window.
        timed.advance_to(10 + 120);
        assert_eq!(timed.estimate(&1), 0.0);
        assert!(timed.position() >= 200 + window as u64);
    }

    #[test]
    fn record_timed_equals_per_packet_records() {
        // τ = 1 (WCSS mode): the batched and per-packet record paths are
        // bit-for-bit identical. (At τ < 1 they are only statistically
        // equivalent — geometric batch sampling draws the RNG differently
        // from per-packet coins, exactly as for the untimed batch paths.)
        let window = 500usize;
        let mut batched =
            TimedWindow::with_grains(Wcss::<u64>::new(32, window), 200, window as u64, 16);
        let mut one_by_one =
            TimedWindow::with_grains(Wcss::<u64>::new(32, window), 200, window as u64, 16);
        let packets: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i / 3, i % 17)).collect();
        batched.record_timed(&packets);
        for &(t, key) in &packets {
            one_by_one.record_at(key, t);
        }
        for key in 0..17u64 {
            assert_eq!(
                batched.estimate(&key).to_bits(),
                one_by_one.estimate(&key).to_bits()
            );
        }
        assert_eq!(batched.position(), one_by_one.position());
    }

    #[test]
    fn record_timed_past_u64_max_panics_with_the_inner_message() {
        use crate::memento::Memento;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut timed = TimedWindow::new(
            Memento::<u64>::new(64, 400, 1.0, 7),
            GrainMap::new(100, 400, 100),
        );
        timed.record_at(1, 0);
        timed.advance_to(u64::MAX);
        assert_eq!(timed.position(), u64::MAX);
        let panic = catch_unwind(AssertUnwindSafe(|| timed.record_timed(&[(u64::MAX, 2)])))
            .expect_err("a run past u64::MAX must panic");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("update_batch: the stream position overflows u64")
        );
        assert_eq!(timed.position(), u64::MAX);
    }

    #[test]
    fn query_at_reflects_expiry_without_a_packet() {
        let mut timed = TimedWindow::with_grains(ExactWindow::<u64>::new(100), 100, 100, 10);
        timed.record_batch_at(&[7, 7, 7], 0);
        assert_eq!(timed.query_at(50).estimate(&7), 3.0);
        assert_eq!(timed.query_at(5_000).estimate(&7), 0.0);
    }
}
