//! The Memento sliding-window heavy-hitters algorithm (Algorithm 1 of the
//! paper).
//!
//! # How it works
//!
//! Memento maintains a window of the last `W` packets, conceptually divided
//! into `k` *blocks* (`k` = number of counters). It keeps:
//!
//! * `y` — a [Space Saving](memento_sketches::SpaceSaving) instance counting
//!   the current *frame* (a `W`-aligned segment of the stream), flushed at
//!   every frame boundary;
//! * `B` — a table mapping flows to the number of times they *overflowed*
//!   (crossed a multiple of the block size) inside the window;
//! * `b` — a [queue of per-block queues](memento_sketches::OverflowQueue)
//!   remembering *which* flows overflowed in each block still covered by the
//!   window, so that their `B` entries can be retired when the block slides
//!   out.
//!
//! Each packet triggers one of two operations:
//!
//! * **Window update** (every packet): advance the window position, rotate
//!   the block queues at block boundaries, flush `y` at frame boundaries and
//!   drain at most one expired overflow — all O(1).
//! * **Full update** (with probability τ): a Window update plus an insertion
//!   into `y` and, on overflow, into `b`/`B`.
//!
//! A query combines the overflow count (in block-size units) with the
//! in-frame remainder from `y`, adds two blocks of slack to keep the error
//! one-sided (as the paper does for comparability with MST), and scales by
//! τ⁻¹ to compensate for sampling.

use std::collections::HashSet;
use std::hash::Hash;

use memento_sketches::fasthash::{hash_one, FastBuildHasher, PREFETCH_LOOKAHEAD};
use memento_sketches::sampling::geometric_skip;
use memento_sketches::{CompactMap, OverflowQueue, SpaceSaving, TableSampler};

use crate::config::MementoConfig;
use crate::delta::WindowPatch;

/// Branch-free exact-divisibility test by a fixed divisor
/// (Granlund–Montgomery, *Hacker's Delight* §10-17): for `d = odd · 2^k`,
/// `n % d == 0` iff `(n · odd⁻¹ mod 2⁶⁴) >>rot k ≤ ⌊(2⁶⁴−1)/d⌋`. One
/// multiply and a rotate per test, against the 20–40 cycle hardware
/// divide `is_multiple_of` costs for a runtime divisor — this sits on the
/// per-packet path twice (block boundaries, overflow thresholds).
#[derive(Debug, Clone, Copy)]
struct MultipleCheck {
    /// Multiplicative inverse of the divisor's odd part, mod 2⁶⁴.
    odd_inv: u64,
    /// The divisor's power-of-two part, as a rotate count.
    shift: u32,
    /// `⌊(2⁶⁴ − 1) / d⌋`: the number of multiples of `d` below 2⁶⁴.
    limit: u64,
}

impl MultipleCheck {
    /// Precomputes the test for divisor `d > 0`.
    fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be positive");
        let shift = d.trailing_zeros();
        let odd = d >> shift;
        // Newton–Raphson inverse mod 2⁶⁴: `x₀ = odd` is correct to 3 bits
        // (odd² ≡ 1 mod 8), each step doubles the valid bits — 5 steps
        // reach 96 ≥ 64.
        let mut odd_inv = odd;
        for _ in 0..5 {
            odd_inv = odd_inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(odd_inv)));
        }
        MultipleCheck {
            odd_inv,
            shift,
            limit: u64::MAX / d,
        }
    }

    /// True iff `n` is a multiple of the divisor.
    #[inline(always)]
    fn divides(&self, n: u64) -> bool {
        n.wrapping_mul(self.odd_inv).rotate_right(self.shift) <= self.limit
    }
}

/// Rank offset of the flows only the in-frame summary tracks: past every
/// possible overflow-table slot (see [`Memento::for_each_tracked`]).
const Y_RANK: u64 = 1 << 32;

/// The Memento sliding-window heavy-hitters algorithm.
///
/// Generic over the flow key `K`; the paper uses 5-tuples or IP pairs, the
/// workspace mostly uses `u64` flow identifiers and prefix types.
#[derive(Debug, Clone)]
pub struct Memento<K: Eq + Hash + Clone> {
    /// Window size `W` in packets.
    window: usize,
    /// Number of Space-Saving counters (the paper's `k`).
    counters: usize,
    /// Block size `W / k` in *window positions* (at least 1): how often the
    /// per-block overflow queues rotate.
    block_size: usize,
    /// Overflow threshold in *sampled* (Full-update) units: the expected
    /// number of Full updates per block, `τ·W/k` (at least 1). The in-frame
    /// Space-Saving counter of a flow crossing a multiple of this value
    /// records an overflow. Keeping the threshold in sampled units keeps the
    /// block-quantization error at `O(W/k)` packets after the τ⁻¹ scaling,
    /// matching Theorem 5.2's `ε = ε_a + ε_s` (it does not degrade with τ).
    overflow_threshold: u64,
    /// Full-update probability τ.
    tau: f64,
    /// Expected rate of Full updates per packet (τ unless sampling happens
    /// upstream or at a different effective rate, as in H-Memento and the
    /// network-wide controllers).
    full_update_rate: f64,
    /// Scale applied to query results (`τ⁻¹` by default; H-Memento and the
    /// network-wide controllers set it through
    /// [`Self::configure_external_sampling`], e.g. to `V = H/τ`).
    scale: f64,
    /// In-frame approximate counts.
    y: SpaceSaving<K>,
    /// Per-block overflow queues.
    b: OverflowQueue<K>,
    /// Overflow counts per flow within the window (the paper's `B`): a
    /// flat fingerprint-probed table ([`CompactMap`]) — with the
    /// stream-summary index this is the other map on the per-packet path
    /// (queried on every estimate, inserted/retired around overflows).
    overflow_counts: CompactMap<K, u32>,
    /// Position inside the current frame (the paper's `M`).
    m: usize,
    /// `m % block_size`, maintained incrementally so the per-packet
    /// block-boundary test is a compare instead of a hardware divide
    /// (the bulk advances recompute it once per call).
    m_in_block: usize,
    /// Strength-reduced divisibility test for `overflow_threshold`,
    /// replacing the Full update's per-packet `%` with a multiply.
    overflow_check: MultipleCheck,
    /// τ-sampler (random-number table).
    sampler: TableSampler,
    /// Leftover geometric skip carried between batch calls (both entry
    /// points): number of own packets that must still receive Window
    /// updates before the next Full update. `None` until the batch path
    /// first draws a skip.
    batch_skip: Option<u64>,
    /// Reused scratch for the batch pipeline: the in-batch indices of the
    /// τ-sampled keys, computed by the skip-drawing pass so the replay pass
    /// can prefetch ahead. Kept on the struct to amortize the allocation
    /// across batches; always logically empty between calls.
    batch_sampled: Vec<usize>,
    /// Total packets processed (full + window updates).
    processed: u64,
    /// Number of Full updates performed (for diagnostics/tests).
    full_updates: u64,
    /// `y.absent_query()` as of the previous [`Self::freeze_patch`] call.
    /// The estimate of an overflow flow *not* monitored in `y` embeds that
    /// absent answer (`y.query` falls back to it), so when it moves, those
    /// flows must be re-emitted even though none of their slots were
    /// touched — this field is how the patch builder notices.
    last_absent: u64,
}

impl<K: Eq + Hash + Clone> Memento<K> {
    /// Creates a Memento instance.
    ///
    /// * `counters` — number of Space-Saving counters (`k`);
    /// * `window` — window size `W` in packets;
    /// * `tau` — Full-update probability in `(0, 1]`;
    /// * `seed` — RNG seed for the sampling table.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero counters/window, τ ∉ (0,1]).
    pub fn new(counters: usize, window: usize, tau: f64, seed: u64) -> Self {
        let config = MementoConfig {
            window,
            counters,
            tau,
            seed,
        };
        Self::from_config(&config)
    }

    /// Creates a Memento instance sized from an algorithm error `ε_a`
    /// (`k = ⌈4/ε_a⌉` counters), as in Algorithm 1.
    pub fn with_epsilon(epsilon: f64, window: usize, tau: f64, seed: u64) -> Self {
        let config = MementoConfig::builder(window)
            .epsilon(epsilon)
            .tau(tau)
            .seed(seed)
            .build()
            .expect("invalid Memento parameters");
        Self::from_config(&config)
    }

    /// Creates a Memento instance from a validated configuration.
    ///
    /// # Panics
    /// Panics when the configuration does not validate.
    pub fn from_config(config: &MementoConfig) -> Self {
        config.validate().expect("invalid Memento configuration");
        let block_size = config.block_size();
        let blocks = config.window.div_ceil(block_size);
        let overflow_threshold = Self::threshold_for(config.tau, config.window, config.counters);
        Memento {
            window: config.window,
            counters: config.counters,
            block_size,
            overflow_threshold,
            tau: config.tau,
            full_update_rate: config.tau,
            scale: 1.0 / config.tau,
            y: SpaceSaving::new(config.counters),
            b: OverflowQueue::new(blocks),
            overflow_counts: CompactMap::new(),
            m: 0,
            m_in_block: 0,
            overflow_check: MultipleCheck::new(overflow_threshold),
            sampler: TableSampler::with_seed(config.tau, config.seed),
            batch_skip: None,
            batch_sampled: Vec::new(),
            processed: 0,
            full_updates: 0,
            last_absent: 0,
        }
    }

    /// Overflow threshold (in sampled units) for a given effective
    /// Full-update rate: `max(1, round(rate·W/k))`.
    fn threshold_for(rate: f64, window: usize, counters: usize) -> u64 {
        ((rate * window as f64 / counters as f64).round() as u64).max(1)
    }

    /// Reconfigures the instance for *externally driven* sampling: callers
    /// (H-Memento, the network-wide controllers) invoke
    /// [`Self::full_update`] / [`Self::window_update`] directly, with Full
    /// updates arriving at `full_update_rate` per packet, and queries are
    /// multiplied by `scale` (e.g. `V = H/τ`).
    ///
    /// # Panics
    /// Panics if called after packets were processed, if the rate is not in
    /// `(0, 1]`, or if the scale is below 1.
    pub fn configure_external_sampling(&mut self, full_update_rate: f64, scale: f64) {
        assert_eq!(
            self.processed, 0,
            "external sampling must be configured before any update"
        );
        assert!(
            full_update_rate > 0.0 && full_update_rate <= 1.0,
            "full update rate must be in (0,1], got {full_update_rate}"
        );
        assert!(scale >= 1.0, "query scale must be at least 1, got {scale}");
        self.full_update_rate = full_update_rate;
        self.scale = scale;
        self.overflow_threshold = Self::threshold_for(full_update_rate, self.window, self.counters);
        self.overflow_check = MultipleCheck::new(self.overflow_threshold);
    }

    // ---- accessors ----------------------------------------------------------

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of Space-Saving counters.
    pub fn counters(&self) -> usize {
        self.counters
    }

    /// Block size `W / k` in window positions.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Overflow threshold in sampled units (`≈ τ·W/k`).
    pub fn overflow_threshold(&self) -> u64 {
        self.overflow_threshold
    }

    /// Effective Full-update rate per packet.
    pub fn full_update_rate(&self) -> f64 {
        self.full_update_rate
    }

    /// Full-update probability τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Current query scale (τ⁻¹ unless
    /// [`Self::configure_external_sampling`] set it).
    pub fn query_scale(&self) -> f64 {
        self.scale
    }

    /// Total number of packets processed (Full + Window updates).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of Full updates performed so far.
    pub fn full_updates(&self) -> u64 {
        self.full_updates
    }

    /// Number of flows currently holding an overflow entry.
    pub fn tracked_overflows(&self) -> usize {
        self.overflow_counts.len()
    }

    // ---- the three update operations ----------------------------------------

    /// The per-packet update: a Full update with probability τ, otherwise a
    /// Window update (Algorithm 1, `UPDATE`).
    ///
    /// # Panics
    /// Panics if the stream position is already `u64::MAX`, before the
    /// coin is drawn.
    #[inline]
    pub fn update(&mut self, key: K) {
        self.assert_room(1, "update");
        if self.sampler.sample() {
            self.full_update_hashed(key, None);
        } else {
            self.window_step();
        }
    }

    /// The lightweight *Window update* (Algorithm 1, `WINDOWUPDATE`):
    /// advances the window without recording the packet.
    ///
    /// # Panics
    /// Panics if the stream position is already `u64::MAX`, before any
    /// state changes.
    #[inline]
    pub fn window_update(&mut self) {
        self.assert_room(1, "window_update");
        self.window_step();
    }

    /// [`Self::window_update`] without its position check, for callers
    /// that checked their span up front.
    #[inline]
    fn window_step(&mut self) {
        self.processed += 1;
        self.m += 1;
        self.m_in_block += 1;
        if self.m == self.window {
            self.m = 0;
        }
        if self.m == 0 {
            // New frame: the in-frame counts restart. A frame wrap is
            // always a block boundary (position 0), even when `W` is not
            // a multiple of the block size.
            self.m_in_block = 0;
            self.y.flush();
        } else if self.m_in_block == self.block_size {
            self.m_in_block = 0;
        }
        if self.m_in_block == 0 {
            // New block: the oldest block no longer overlaps the window.
            // Thanks to the per-packet draining below the dropped queue is
            // normally empty; retire any stragglers to keep B exact.
            let dropped = self.b.rotate();
            for key in dropped {
                self.retire_overflow(&key);
            }
        }
        // De-amortized retirement of expired overflows: at most one per packet.
        if let Some(old) = self.b.pop_oldest() {
            self.retire_overflow(&old);
        }
    }

    /// The expensive *Full update* (Algorithm 1, `FULLUPDATE`): a Window
    /// update plus the actual insertion of the packet into the summary.
    ///
    /// # Panics
    /// Panics if the stream position is already `u64::MAX`, before any
    /// state changes.
    #[inline]
    pub fn full_update(&mut self, key: K) {
        self.assert_room(1, "full_update");
        self.full_update_hashed(key, None);
    }

    /// [`Self::full_update`] without its position check, with an
    /// optionally precomputed [`memento_sketches::fasthash::hash_one`]
    /// value for `key`: the batched pipelines check their span up front,
    /// hash each key once when issuing its prefetch and pass the value
    /// here, so the summary's monitored-key probe (the common case) does
    /// not hash again.
    #[inline]
    fn full_update_hashed(&mut self, key: K, hash: Option<u64>) {
        self.window_step();
        self.record_hashed(key, hash);
    }

    /// The Full update's recording step, after its window step: the
    /// Space-Saving insertion and, on overflow, the `b`/`B` entries.
    #[inline]
    fn record_hashed(&mut self, key: K, hash: Option<u64>) {
        self.full_updates += 1;
        let count = self.y.add_hashed(key.clone(), hash);
        if self.overflow_check.divides(count) {
            // The flow's sampled count crossed a block's worth of Full
            // updates: record an overflow.
            self.b.push_current(key.clone());
            *self.overflow_counts.get_or_insert_with(key, || 0) += 1;
        }
    }

    /// Processes a batch of packets with the τ-sampling hot path of §5:
    /// instead of flipping one coin per packet, it draws *geometric skip
    /// counts* (the number of packets until the next Full update) and
    /// advances the window over the skipped stretch in bulk. The sampled
    /// packets receive exactly the same Full update as [`Self::update`]
    /// would give them, at exactly rate τ (geometric skips are the inverse-
    /// CDF view of per-packet Bernoulli sampling), so estimates keep the
    /// guarantees of Theorem 5.2 — only the per-packet constant work drops.
    ///
    /// With τ = 1 every packet is a Full update and the batch degenerates to
    /// the per-packet loop (bit-for-bit identical behaviour, which the
    /// workspace's property tests assert for WCSS).
    ///
    /// A partially consumed skip is carried across calls — and across
    /// [`Self::update_batch_positioned`] calls, which share it — so
    /// splitting a stream into arbitrary batches does not bias the
    /// sampling rate.
    ///
    /// Both batch entry points run on one replay core per τ regime; here
    /// key `i` lands at window offset `i + 1`. At τ < 1 the core makes two
    /// passes so the probe misses overlap: the first draws the geometric
    /// skips from the sampler's cache ([`TableSampler::next_skip`]: a
    /// load once the table entry has been drawn before), jumping straight
    /// from one sampled index to the next (the draws never read the keys
    /// or the summary, so hoisting them keeps the RNG stream bit-for-bit);
    /// the second visits only the sampled keys, one window advance up to
    /// and including the key's own position and one recording step each,
    /// prefetching the in-frame summary's lines a [`PREFETCH_LOOKAHEAD`]
    /// ahead (see [`memento_sketches::fasthash::prefetch`]). The seed's
    /// interleaved loop survives as `update_batch_reference` for the
    /// differential property tests.
    ///
    /// # Panics
    /// Panics if the stream position would pass `u64::MAX`
    /// (`processed() + keys.len()` overflows), before any state changes.
    pub fn update_batch(&mut self, keys: &[K]) {
        self.assert_room(keys.len() as u64, "update_batch");
        if self.tau >= 1.0 {
            self.replay_every_key(keys, |memento, _| memento.window_step());
        } else {
            self.replay_sampled(keys);
        }
    }

    /// Bit-for-bit reference for [`Self::update_batch`]: the seed's
    /// interleaved draw-skip/advance/Full-update loop, without the
    /// two-pass prefetch pipeline. Kept for the differential property
    /// tests; not part of the supported API.
    #[doc(hidden)]
    pub fn update_batch_reference(&mut self, keys: &[K]) {
        if self.tau >= 1.0 {
            for key in keys {
                self.full_update(key.clone());
            }
            return;
        }
        let ln_keep = (1.0 - self.tau).ln();
        let mut skip = match self.batch_skip.take() {
            Some(s) => s,
            None => self.draw_skip(ln_keep),
        };
        let mut i = 0usize;
        while i < keys.len() {
            let remaining = (keys.len() - i) as u64;
            if skip >= remaining {
                // No Full update lands in the rest of this batch.
                self.advance_window(remaining as usize);
                skip -= remaining;
                break;
            }
            self.advance_window(skip as usize);
            self.full_update(keys[i + skip as usize].clone());
            i += skip as usize + 1;
            skip = self.draw_skip(ln_keep);
        }
        self.batch_skip = Some(skip);
    }

    /// Processes a *gap-stamped* batch: before each `keys[i]` the window
    /// advances over `gaps[i]` packets recorded elsewhere (another shard of
    /// a partitioned deployment). The foreign packets are pure window
    /// advances — they are sampled by their owners, so they never consume
    /// this instance's geometric skip — while the instance's own keys are
    /// τ-sampled exactly as in [`Self::update_batch`]: with all gaps zero
    /// the two paths are bit-for-bit identical, and they share the carried
    /// skip.
    ///
    /// At τ ≥ 1 — the replay of a shard whose router samples upstream —
    /// the batch runs on [`Self::update_batch`]'s replay core: after one
    /// pass sums the offsets for the span check, each key takes one
    /// closed-form advance over `gaps[i] + 1` positions, the foreign gap
    /// and its own Window step, and then its recording step. At τ < 1 it
    /// runs as [`Ingest`](crate::traits::Ingest)'s provided
    /// `update_batch_positioned` does: one `update_batch` per run of
    /// zero-gap keys and one [`Self::skip`] per positive gap. The seed's
    /// interleaved loop survives as `update_batch_positioned_reference`
    /// for the differential tests.
    ///
    /// # Panics
    /// Panics if `gaps` and `keys` differ in length, if the batch's offsets
    /// overflow (`Σ (gaps[i] + 1) > u64::MAX`), or if the stream position
    /// would pass `u64::MAX` (`processed() + Σ (gaps[i] + 1)` overflows).
    /// Every check runs before any state changes.
    pub fn update_batch_positioned(&mut self, gaps: &[u64], keys: &[K]) {
        assert_eq!(gaps.len(), keys.len(), "one gap stamp per key");
        let end = gaps.iter().fold(0u64, |end, &gap| {
            end.checked_add(gap)
                .and_then(|e| e.checked_add(1))
                .expect("update_batch_positioned: the batch's gap sum overflows u64")
        });
        self.assert_room(end, "update_batch_positioned");
        if self.tau >= 1.0 {
            // `gaps[i] + 1` cannot overflow: the offsets above are checked.
            self.replay_every_key(keys, |memento, i| memento.advance(gaps[i] + 1));
        } else {
            crate::traits::replay_runs(self, gaps, keys);
        }
    }

    /// The τ ≥ 1 replay core: every key is a Full update, `step(self, i)`
    /// moving the window up to and including key `i`'s position before its
    /// recording step — one [`Self::window_step`] from
    /// [`Self::update_batch`], one closed-form advance over the gap and
    /// the key's own position from [`Self::update_batch_positioned`].
    /// Each key is hashed once, when its prefetch is issued
    /// [`PREFETCH_LOOKAHEAD`] keys early, and the hash rides a ring buffer
    /// to the key's probe. The caller checks the batch's span up front.
    #[inline(always)]
    fn replay_every_key(&mut self, keys: &[K], step: impl Fn(&mut Self, usize)) {
        let mut hashes = [0u64; PREFETCH_LOOKAHEAD];
        for (j, key) in keys.iter().take(PREFETCH_LOOKAHEAD).enumerate() {
            hashes[j] = hash_one(key);
        }
        for (i, key) in keys.iter().enumerate() {
            let slot = i % PREFETCH_LOOKAHEAD;
            let hash = hashes[slot];
            if let Some(ahead) = keys.get(i + PREFETCH_LOOKAHEAD) {
                let h = hash_one(ahead);
                self.y.prefetch_hashed(h);
                hashes[slot] = h;
            }
            step(self, i);
            self.record_hashed(key.clone(), Some(hash));
        }
    }

    /// The τ < 1 replay core; key `i` lands at window offset `i + 1` from
    /// the batch start. Advancing to a sampled key's offset covers what the
    /// per-key reference loop owes up to and including the key's own
    /// Window step (`advance_window(n)` is `n` window updates), so the key
    /// then needs only its recording step. The caller checks the batch's
    /// span up front.
    #[inline(always)]
    fn replay_sampled(&mut self, keys: &[K]) {
        let mut sampled = std::mem::take(&mut self.batch_sampled);
        sampled.clear();
        let mut skip = match self.batch_skip.take() {
            Some(s) => s,
            None => self.sampler.next_skip(),
        };
        let mut i = 0usize;
        while i < keys.len() {
            let remaining = (keys.len() - i) as u64;
            if skip >= remaining {
                // No Full update lands in the rest of this batch.
                skip -= remaining;
                break;
            }
            let idx = i + skip as usize;
            sampled.push(idx);
            i = idx + 1;
            skip = self.sampler.next_skip();
        }
        self.batch_skip = Some(skip);
        let mut hashes = [0u64; PREFETCH_LOOKAHEAD];
        for (j, &idx) in sampled.iter().take(PREFETCH_LOOKAHEAD).enumerate() {
            hashes[j] = hash_one(&keys[idx]);
        }
        // Offset reached so far: just past the previous sampled key.
        let mut done = 0u64;
        for (s, &idx) in sampled.iter().enumerate() {
            let slot = s % PREFETCH_LOOKAHEAD;
            let hash = hashes[slot];
            if let Some(&ahead) = sampled.get(s + PREFETCH_LOOKAHEAD) {
                let h = hash_one(&keys[ahead]);
                self.y.prefetch_hashed(h);
                hashes[slot] = h;
            }
            let at = idx as u64 + 1;
            self.advance(at - done);
            self.record_hashed(keys[idx].clone(), Some(hash));
            done = at;
        }
        self.skip(keys.len() as u64 - done);
        self.batch_sampled = sampled;
    }

    /// Bit-for-bit reference for [`Self::update_batch_positioned`]: the
    /// seed's fused single-pass loop. Kept for the differential property
    /// tests; not part of the supported API.
    #[doc(hidden)]
    pub fn update_batch_positioned_reference(&mut self, gaps: &[u64], keys: &[K]) {
        assert_eq!(gaps.len(), keys.len(), "one gap stamp per key");
        if self.tau >= 1.0 {
            for (gap, key) in gaps.iter().zip(keys) {
                self.skip(*gap);
                self.full_update(key.clone());
            }
            return;
        }
        let ln_keep = (1.0 - self.tau).ln();
        let mut skip = match self.batch_skip.take() {
            Some(s) => s,
            None => self.draw_skip(ln_keep),
        };
        // Window positions owed before the next Full update: foreign gaps
        // plus own packets the sampler passed over.
        let mut pending: u64 = 0;
        for (gap, key) in gaps.iter().zip(keys) {
            pending += gap;
            if skip == 0 {
                self.skip(pending);
                pending = 0;
                self.full_update(key.clone());
                skip = self.draw_skip(ln_keep);
            } else {
                skip -= 1;
                pending += 1;
            }
        }
        self.skip(pending);
        self.batch_skip = Some(skip);
    }

    /// Draws a geometric skip (failures before the next success at rate τ)
    /// from the random-number table, computing it afresh by inversion: the
    /// draw of the `_reference` oracles, against which the batch cores'
    /// cached [`TableSampler::next_skip`] is tested.
    #[inline]
    fn draw_skip(&mut self, ln_keep: f64) -> u64 {
        geometric_skip(self.sampler.next_u32(), ln_keep)
    }

    /// Advances the window over `n` packets observed *elsewhere* — other
    /// shards of a hash-partitioned deployment, other measurement points of
    /// a network-wide one — without recording them: exactly equivalent to
    /// `n` [`Self::window_update`] calls (bit-for-bit, asserted by the
    /// workspace's property tests), computed in **closed form**. The cost is
    /// independent of `n` — `O(min(rotations, k))` structural work plus one
    /// retirement per actually-expired overflow entry (each entry is retired
    /// once over its lifetime, so the retirements amortize against the Full
    /// updates that queued them), and `O(1)` outright once the structure is
    /// drained. This is the D-Memento-style bulk window update of §6 that
    /// lets a partitioned instance keep its window at the *global* stream
    /// position.
    ///
    /// Does not touch the geometric-skip state of
    /// [`Self::update_batch`]: skipped packets are recorded by their owners
    /// and are not candidates for this instance's τ-sampling.
    ///
    /// # Panics
    /// Panics if the stream position would pass `u64::MAX`
    /// (`processed() + n` overflows), before any state changes.
    pub fn skip(&mut self, n: u64) {
        self.assert_room(n, "skip");
        self.advance(n);
    }

    /// Panics, naming `caller`, unless the stream position can move `span`
    /// more positions without passing `u64::MAX`.
    #[inline]
    fn assert_room(&self, span: u64, caller: &str) {
        assert!(
            self.processed.checked_add(span).is_some(),
            "{caller}: the stream position overflows u64"
        );
    }

    /// [`Self::skip`] without its position check, for callers that checked
    /// a whole batch's span up front.
    #[inline]
    fn advance(&mut self, mut n: u64) {
        // `advance_window` takes usize; chunk for 32-bit targets (and leave
        // headroom so `m + n` cannot overflow the position arithmetic).
        while n > 0 {
            let step = n.min((usize::MAX - self.window) as u64);
            self.advance_window(step as usize);
            n -= step;
        }
    }

    /// Bit-for-bit reference for [`Self::skip`]: the event-walking bulk
    /// advance this crate shipped before the closed form (one loop iteration
    /// per block/frame boundary crossed, `O(n / block_size)` for a skip of
    /// `n`). Kept for the differential tests and as the baseline of the
    /// `sublinear_skip` bench; not part of the supported API.
    #[doc(hidden)]
    pub fn skip_reference(&mut self, mut n: u64) {
        while n > 0 {
            let step = n.min((usize::MAX - self.window) as u64);
            self.advance_window_walk(step as usize);
            n -= step;
        }
    }

    /// Advances the window by `n` packets at once: *exactly* equivalent to
    /// `n` [`Self::window_update`] calls, but sublinear in `n`.
    ///
    /// An advance that ends inside the current block and frame — `n`
    /// below both `block_size − m_in_block` and `W − m`, the common case
    /// between two sampled keys at τ < 1 — crosses no boundary: it costs
    /// three additions plus the walk's one pop per packet, the closed
    /// form's answer for zero rotations without its divides. Every
    /// other advance crosses at least one block boundary (a frame wrap is
    /// one too) and takes the closed form, whose equivalence argument,
    /// piece by piece, is:
    ///
    /// * **Frame flushes** — a per-packet walk calls [`SpaceSaving::flush`]
    ///   at every frame boundary it crosses; with no insertions in between,
    ///   repeated flushes equal one, so flushing once iff the advance
    ///   crosses any frame boundary gives the same final `y`.
    /// * **Block rotations** — the number of boundaries crossed is counted
    ///   arithmetically ([`Self::rotations_within`]). Every queue that
    ///   rotates out of the window during the advance ends up *fully*
    ///   retired on the per-packet path too, no matter how the de-amortized
    ///   one-pop-per-packet budget fell: pops retire from the queue at the
    ///   front, and whatever the pops missed is retired by the rotation
    ///   that drops the queue. Draining each dropped block wholesale
    ///   ([`OverflowQueue::rotate_drain`]) therefore lands in the identical
    ///   state. If at least `k + 1` boundaries are crossed, every block —
    ///   including the current one — rotates out and the whole structure
    ///   (queues and the `B` table, whose entries correspond 1:1 to queued
    ///   identifiers) is cleared wholesale, making the cost of an
    ///   arbitrarily large `n` independent of `n`.
    /// * **The trailing drain** — only the pops *after the final rotation*
    ///   are visible in the end state (earlier pops hit queues that rotate
    ///   out anyway). The per-packet walk grants one pop to the packet that
    ///   crossed the last boundary plus one per remaining packet, i.e.
    ///   `m_final % block_size + 1` pops.
    fn advance_window(&mut self, n: usize) {
        self.processed += n as u64;
        if n < self.block_size - self.m_in_block && n < self.window - self.m {
            self.m += n;
            self.m_in_block += n;
            self.drain_expired(n);
            return;
        }
        let rotations = self.rotations_within(n);
        let crossed_frame = n >= self.window - self.m;
        self.m = (((self.m as u128) + (n as u128)) % (self.window as u128)) as usize;
        // One divide per bulk advance restores the invariant the
        // per-packet path maintains incrementally.
        self.m_in_block = self.m % self.block_size;
        if crossed_frame {
            self.y.flush();
        }
        if rotations >= self.b.queue_count() as u64 {
            // Every block rotated out of the window: all queued identifiers
            // expire, and with them every overflow count (the B table's
            // entries correspond 1:1 to queued identifiers).
            self.b.clear();
            self.overflow_counts.clear();
            return;
        }
        let counts = &mut self.overflow_counts;
        self.b.rotate_drain(rotations as usize, |key| {
            if let Some(c) = counts.get_mut(&key) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(&key);
                }
            }
        });
        self.drain_expired(self.m_in_block + 1);
    }

    /// Number of block rotations a per-packet walk would perform while
    /// advancing `n` positions from the current `m`: the count of positions
    /// in `(m, m + n]` that land on a multiple of the block size modulo the
    /// frame (the frame wrap at `W → 0` counts — position 0 rotates even
    /// when `W` is not a multiple of the block size).
    fn rotations_within(&self, n: usize) -> u64 {
        let w = self.window as u64;
        let s = self.block_size as u64;
        let m = self.m as u64;
        let n = n as u64;
        // Boundaries per full frame: the multiples of s in [0, W-1].
        let per_frame = w.div_ceil(s);
        let full_frames = n / w;
        let remainder = n % w;
        let end = m + remainder; // < 2W: at most one wrap below.
        let partial = if end < w {
            end / s - m / s
        } else {
            // (m, W): multiples of s strictly above m; the wrap at 0; and
            // the multiples of s in [1, end - W] (end - W < m < W, so no
            // second wrap).
            ((w - 1) / s - m / s) + 1 + (end - w) / s
        };
        full_frames * per_frame + partial
    }

    /// The pre-closed-form bulk advance (the `skip_reference` walk): one
    /// loop iteration per block/frame boundary, the de-amortized drain
    /// budget spent as `step − 1` pops before each rotation and 1 after it.
    fn advance_window_walk(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.processed += n as u64;
        let mut left = n;
        while left > 0 {
            let to_block = self.block_size - (self.m % self.block_size);
            let to_frame = self.window - self.m;
            let to_event = to_block.min(to_frame);
            if left < to_event {
                // Ends inside a block: no boundary fires, only the drain.
                self.m += left;
                self.m_in_block = self.m % self.block_size;
                self.drain_expired(left);
                return;
            }
            self.m += to_event;
            left -= to_event;
            self.drain_expired(to_event - 1);
            if self.m == self.window {
                // Frame boundary: in-frame counts restart, and the position
                // is also a block boundary (m = 0).
                self.m = 0;
                self.y.flush();
            }
            let dropped = self.b.rotate();
            for key in dropped {
                self.retire_overflow(&key);
            }
            self.drain_expired(1);
        }
        self.m_in_block = self.m % self.block_size;
    }

    /// De-amortized retirement of expired overflows: up to `budget` pops
    /// (one per window position), stopping early when the oldest block's
    /// queue is empty — it cannot refill before the next rotation, so
    /// batching the pops is exactly equivalent to one pop per packet.
    fn drain_expired(&mut self, budget: usize) {
        for _ in 0..budget {
            match self.b.pop_oldest() {
                Some(old) => self.retire_overflow(&old),
                None => break,
            }
        }
    }

    /// Approximate heap footprint in bytes of the algorithm's state: the
    /// in-frame Space-Saving summary, the per-block overflow queues and the
    /// overflow table `B`. The fixed-size random-number table of the sampler
    /// is excluded, and so is its skip cache (256 KiB once the batch path at
    /// τ < 1 has filled it) — both are shared bookkeeping independent of the
    /// configured accuracy, and the paper compares algorithms by counter
    /// space.
    pub fn space_bytes(&self) -> usize {
        self.y.space_bytes() + self.b.space_bytes() + self.overflow_counts.heap_bytes()
    }

    fn retire_overflow(&mut self, key: &K) {
        if let Some(c) = self.overflow_counts.get_mut(key) {
            *c -= 1;
            if *c == 0 {
                self.overflow_counts.remove(key);
            }
        }
    }

    // ---- queries -------------------------------------------------------------

    /// `key`'s overflow count in `B`, 0 without an entry (an entry is
    /// removed when its count reaches 0).
    fn overflows(&self, key: &K) -> u32 {
        self.overflow_counts.get(key).copied().unwrap_or(0)
    }

    /// Algorithm 1's `QUERY` in sampled packets, before the one-sided
    /// slack and the scale, for a flow with `overflows` entries in `B` and
    /// in-frame count `in_frame` (`y`'s answer for it): the overflows in
    /// block units plus the in-frame remainder, or the whole in-frame
    /// count for a flow without overflows.
    fn window_count(&self, overflows: u32, in_frame: u64) -> u64 {
        let block = self.overflow_threshold;
        if overflows == 0 {
            in_frame
        } else {
            block * overflows as u64 + in_frame % block
        }
    }

    /// [`Self::estimate`] from a flow's `(overflows, in_frame)`:
    /// [`Self::window_count`] plus two blocks of one-sided slack, scaled.
    pub(crate) fn upper(&self, overflows: u32, in_frame: u64) -> f64 {
        (2 * self.overflow_threshold + self.window_count(overflows, in_frame)) as f64 * self.scale
    }

    /// [`Self::lower_bound`] from a flow's overflow count.
    pub(crate) fn lower(&self, overflows: u32) -> f64 {
        (self.overflow_threshold * overflows.saturating_sub(2) as u64) as f64 * self.scale
    }

    /// Estimated window frequency of `key` (Algorithm 1, `QUERY`): an upper
    /// bound with one-sided error, scaled by τ⁻¹.
    pub fn estimate(&self, key: &K) -> f64 {
        self.upper(self.overflows(key), self.y.query(key))
    }

    /// Point estimate of the window frequency *without* the +2-block
    /// one-sided correction: overflow count in block units plus the in-frame
    /// remainder, scaled. Unlike [`Self::estimate`] it is not an upper bound,
    /// but it is (approximately) unbiased, which is what threshold-based
    /// applications such as the flood-mitigation controller of §6.3 want —
    /// otherwise a coarser (more biased) estimator would cross thresholds
    /// earlier than a finer one.
    pub fn point_estimate(&self, key: &K) -> f64 {
        self.window_count(self.overflows(key), self.y.query(key)) as f64 * self.scale
    }

    /// The estimate [`Self::estimate`] assigns to any key with neither an
    /// overflow entry nor an in-frame counter: the `2·block` one-sided
    /// slack plus Space-Saving's absent-key answer, scaled by τ⁻¹. Depends
    /// on the current fill state of the in-frame summary, so snapshot code
    /// captures it at freeze time rather than assuming a constant.
    pub fn untracked_estimate(&self) -> f64 {
        self.upper(0, self.y.absent_query())
    }

    /// Lower bound on the window frequency, derived from the overflow count
    /// alone (each overflow beyond the ±2-block uncertainty witnesses one
    /// block worth of sampled traffic).
    pub fn lower_bound(&self, key: &K) -> f64 {
        self.lower(self.overflows(key))
    }

    /// Visits every tracked flow once — every flow with an overflow entry
    /// or an in-frame counter — as `(key, overflows, in_frame, rank)`, in
    /// slot order: `B`'s flows, then the flows only `y` monitors.
    /// `in_frame` is `y`'s answer for the flow ([`SpaceSaving::query`]);
    /// `rank` is the flow's `B` slot, or [`Y_RANK`] plus its `y` slot.
    /// Ranks increase along the walk, so sorting by `(estimate desc, rank
    /// asc)` reproduces [`Self::heavy_hitters`]' stable order: the ranks a
    /// [`WindowPatch`] carries. A `B` flow's in-frame count costs one probe
    /// of `y`'s index, which also marks its `y` slot for the second pass
    /// to skip; `B` itself is never probed.
    pub(crate) fn for_each_tracked(&self, mut visit: impl FnMut(&K, u32, u64, u64)) {
        let absent = self.y.absent_query();
        // `y`'s occupied slots are its first `monitored()`.
        let mut in_b = vec![false; self.y.monitored()];
        for slot in 0..self.overflow_counts.slots() {
            let Some((key, &overflows)) = self.overflow_counts.slot_entry(slot) else {
                continue;
            };
            let in_frame = self
                .y
                .slot_of(key)
                .and_then(|y_slot| {
                    in_b[y_slot] = true;
                    self.y.slot_entry(y_slot)
                })
                .map_or(absent, |(_, count, _)| count);
            visit(key, overflows, in_frame, slot as u64);
        }
        for (y_slot, seen) in in_b.into_iter().enumerate() {
            if let Some((key, count, _)) = self.y.slot_entry(y_slot).filter(|_| !seen) {
                visit(key, 0, count, Y_RANK | y_slot as u64);
            }
        }
    }

    /// Keys that currently have either an overflow entry or an in-frame
    /// counter. Every window heavy hitter is guaranteed to be in this set
    /// (it must overflow at least once per window).
    pub fn tracked_keys(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.overflow_counts.len() + self.y.monitored());
        self.for_each_tracked(|key, _, _, _| keys.push(key.clone()));
        keys
    }

    /// Flows whose estimated window frequency reaches `threshold` packets,
    /// sorted by decreasing estimate. Since every true heavy hitter overflows
    /// within the window, this set has no false negatives (up to the
    /// algorithm's ε·W error).
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        let mut out = Vec::new();
        self.for_each_tracked(|key, overflows, in_frame, _| {
            let est = self.upper(overflows, in_frame);
            if est >= threshold {
                out.push((key.clone(), est));
            }
        });
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    // ---- incremental freeze --------------------------------------------------

    /// Captures the changes since the previous `freeze_patch` call as a
    /// [`WindowPatch`] (the engine behind the Memento family's O(dirty)
    /// [`WindowQuery::freeze_delta`](crate::WindowQuery::freeze_delta)).
    ///
    /// The first call enables dirty journaling on the overflow table and the
    /// in-frame summary — instances that never freeze incrementally pay
    /// nothing — and returns a full rebuild. Subsequent calls return only
    /// the flows whose `(estimate, rank)` could have changed:
    ///
    /// * flows at journaled-dirty `B` or `y` slots (count changes, slot
    ///   moves from backward-shift deletion);
    /// * flows removed from `B` or evicted from `y` since the last call;
    /// * when `y`'s absent-key answer moved, every overflow flow *not*
    ///   monitored in `y` (their estimates embed that answer) — O(|B|),
    ///   still far below the full O(k + |B|) re-enumeration.
    ///
    /// A frame flush (`y` cleared) or overflow-table resize invalidates
    /// slot identity wholesale and degrades that call to a rebuild.
    ///
    /// The caller supplies `error_bound` (it differs between the Memento
    /// and WCSS trait impls); the patch carries `0.0` until overwritten.
    pub fn freeze_patch(&mut self) -> WindowPatch<K> {
        if !self.overflow_counts.journal_enabled() {
            self.overflow_counts.enable_journal();
        }
        if !self.y.journal_enabled() {
            self.y.enable_journal();
        }
        let map_drain = self
            .overflow_counts
            .drain_journal()
            .expect("journal enabled above");
        let y_drain = self.y.drain_journal().expect("journal enabled above");
        let absent = self.y.absent_query();
        let absent_changed = absent != self.last_absent;
        self.last_absent = absent;
        let untracked = self.untracked_estimate();
        if map_drain.rebuild || y_drain.rebuild {
            let mut updated = Vec::with_capacity(self.overflow_counts.len() + self.y.monitored());
            self.for_each_tracked(|key, overflows, in_frame, rank| {
                updated.push((key.clone(), self.upper(overflows, in_frame), rank));
            });
            return WindowPatch {
                rebuild: true,
                updated,
                removed: Vec::new(),
                untracked,
                processed: self.processed,
                error_bound: 0.0,
            };
        }
        // Keyed by the workspace's fast multiply–rotate hash: SipHash here
        // would dominate the whole O(dirty) freeze.
        let mut candidates: HashSet<K, FastBuildHasher> = HashSet::default();
        for slot in map_drain.dirty_slots {
            if let Some((k, _)) = self.overflow_counts.slot_entry(slot) {
                candidates.insert(k.clone());
            }
        }
        candidates.extend(map_drain.departed);
        for slot in y_drain.dirty_slots {
            if let Some((k, _, _)) = self.y.slot_entry(slot) {
                candidates.insert(k.clone());
            }
        }
        candidates.extend(y_drain.departed);
        if absent_changed {
            for (k, _) in self.overflow_counts.iter() {
                if self.y.slot_of(k).is_none() {
                    candidates.insert(k.clone());
                }
            }
        }
        // One lookup per structure and candidate: the slot found is the
        // rank, and the entry in it holds the count.
        let mut updated = Vec::new();
        let mut removed = Vec::new();
        for k in candidates {
            let b_slot = self.overflow_counts.slot_of(&k);
            let y_slot = self.y.slot_of(&k);
            let rank = match (b_slot, y_slot) {
                (Some(slot), _) => slot as u64,
                (None, Some(slot)) => Y_RANK | slot as u64,
                (None, None) => {
                    removed.push(k);
                    continue;
                }
            };
            let overflows = b_slot
                .and_then(|slot| self.overflow_counts.slot_entry(slot))
                .map_or(0, |(_, &overflows)| overflows);
            let in_frame = y_slot
                .and_then(|slot| self.y.slot_entry(slot))
                .map_or(absent, |(_, count, _)| count);
            updated.push((k, self.upper(overflows, in_frame), rank));
        }
        WindowPatch {
            rebuild: false,
            updated,
            removed,
            untracked,
            processed: self.processed,
            error_bound: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_sketches::ExactWindow;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The strength-reduced divisibility test must agree with `%` for
    /// every divisor shape (odd, power of two, mixed) across edge values.
    #[test]
    fn multiple_check_agrees_with_modulo() {
        let divisors = [
            1u64, 2, 3, 4, 5, 6, 7, 8, 12, 13, 100, 127, 128, 1000, 4096, 12_288, 999_983,
        ];
        for &d in &divisors {
            let check = MultipleCheck::new(d);
            for n in 0..4 * d.min(10_000) {
                assert_eq!(check.divides(n), n % d == 0, "d={d} n={n}");
            }
            for &n in &[
                u64::MAX,
                u64::MAX - 1,
                u64::MAX / d * d,
                d.wrapping_mul(1 << 40),
            ] {
                assert_eq!(check.divides(n), n % d == 0, "d={d} n={n}");
            }
        }
    }

    /// With τ = 1 (WCSS mode) the estimate must stay within ε·W = 4W/k of the
    /// exact window frequency (and never undershoot, the error is one-sided).
    #[test]
    fn tau_one_error_is_bounded_and_one_sided() {
        let window = 4_000;
        let counters = 100; // eps_a = 4/k = 4% -> error <= 160 packets
        let mut memento = Memento::new(counters, window, 1.0, 1);
        let mut exact = ExactWindow::new(window);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20_000u64 {
            // Skewed stream over 200 flows.
            let r: f64 = rng.gen();
            let flow = (r * r * 200.0) as u64;
            memento.update(flow);
            exact.add(flow);
        }
        let eps_bound = (4 * window / counters) as f64;
        for flow in 0..200u64 {
            let est = memento.estimate(&flow);
            let real = exact.query(&flow) as f64;
            assert!(
                est + 1e-9 >= real,
                "estimate must not undershoot: flow {flow} est {est} real {real}"
            );
            assert!(
                est - real <= eps_bound,
                "error too large: flow {flow} est {est} real {real} bound {eps_bound}"
            );
        }
    }

    /// Old heavy hitters must be forgotten once they leave the window.
    #[test]
    fn window_forgets_old_heavy_hitters() {
        let window = 1_000;
        let mut memento = Memento::new(50, window, 1.0, 3);
        // Flow 1 dominates the first 2 windows.
        for _ in 0..2 * window {
            memento.update(1u64);
        }
        assert!(memento.estimate(&1) > 0.5 * window as f64);
        // Then disappears for 2 full windows.
        for i in 0..2 * window {
            memento.update(1_000 + (i as u64 % 500));
        }
        let est = memento.estimate(&1);
        // Only the one-sided slack (2 blocks + in-frame SS noise) may remain.
        let slack = 3.0 * memento.block_size() as f64 + (window / 50) as f64;
        assert!(
            est <= slack,
            "stale flow not forgotten: est {est}, slack {slack}"
        );
    }

    /// The sampled estimate (scaled by τ⁻¹) should track the exact frequency
    /// of large flows reasonably well.
    #[test]
    fn sampling_preserves_large_flow_estimates() {
        let window = 20_000;
        let tau = 1.0 / 16.0;
        let mut memento = Memento::new(512, window, tau, 11);
        let mut exact = ExactWindow::new(window);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 * window {
            // Flow 0 carries ~25% of traffic, the rest spread over 1000 flows.
            let flow = if rng.gen::<f64>() < 0.25 {
                0u64
            } else {
                1 + rng.gen_range(0..1000u64)
            };
            memento.update(flow);
            exact.add(flow);
        }
        let est = memento.estimate(&0);
        let real = exact.query(&0) as f64;
        // The estimate is an upper bound (one-sided +2-block slack scaled by
        // τ⁻¹) plus sampling noise; it must stay in the right ballpark.
        let rel = (est - real).abs() / real;
        assert!(
            rel < 0.5,
            "relative error too large under sampling: est {est} real {real} rel {rel}"
        );
        assert!(
            est > 0.5 * real,
            "estimate collapsed: est {est} real {real}"
        );
        // The number of full updates should be ~tau * processed.
        let ratio = memento.full_updates() as f64 / memento.processed() as f64;
        assert!((ratio - tau).abs() < tau * 0.2, "full update ratio {ratio}");
    }

    #[test]
    fn heavy_hitters_contains_dominant_flow() {
        let window = 5_000;
        let mut memento = Memento::new(64, window, 0.25, 9);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2 * window {
            let flow = if rng.gen::<f64>() < 0.3 {
                42u64
            } else {
                rng.gen_range(100..10_000)
            };
            memento.update(flow);
        }
        let hh = memento.heavy_hitters(0.2 * window as f64);
        assert!(
            hh.iter().any(|(k, _)| *k == 42),
            "dominant flow missing from {hh:?}"
        );
        // Results must be sorted by decreasing estimate.
        for w in hh.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn lower_bound_never_exceeds_upper_bound() {
        let mut memento = Memento::new(32, 2_000, 0.5, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let flow = rng.gen_range(0u64..50);
            memento.update(flow);
        }
        for flow in 0..50u64 {
            assert!(memento.lower_bound(&flow) <= memento.estimate(&flow) + 1e-9);
        }
    }

    #[test]
    fn point_estimate_is_below_upper_bound_and_near_truth() {
        let window = 5_000;
        let mut memento = Memento::new(100, window, 1.0, 4);
        let mut exact = ExactWindow::new(window);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..3 * window {
            let flow = if rng.gen::<f64>() < 0.3 {
                1u64
            } else {
                rng.gen_range(2..500)
            };
            memento.update(flow);
            exact.add(flow);
        }
        let real = exact.query(&1) as f64;
        let point = memento.point_estimate(&1);
        let upper = memento.estimate(&1);
        assert!(point <= upper);
        assert!(
            (point - real).abs()
                <= 2.0 * memento.overflow_threshold() as f64 + (window / 100) as f64,
            "point estimate {point} too far from exact {real}"
        );
    }

    #[test]
    fn estimates_scale_with_query_scale() {
        let mut memento = Memento::new(16, 100, 1.0, 0);
        let mut scaled = Memento::new(16, 100, 1.0, 0);
        scaled.configure_external_sampling(1.0, 5.0);
        for _ in 0..50 {
            memento.update(7u64);
            scaled.update(7u64);
        }
        let base = memento.estimate(&7);
        assert!((scaled.estimate(&7) - 5.0 * base).abs() < 1e-9);
        assert_eq!(scaled.query_scale(), 5.0);
    }

    #[test]
    fn from_config_respects_parameters() {
        let config = MementoConfig::builder(1_000)
            .epsilon(0.04)
            .tau(0.5)
            .seed(1)
            .build()
            .unwrap();
        let memento: Memento<u64> = Memento::from_config(&config);
        assert_eq!(memento.counters(), 100);
        assert_eq!(memento.block_size(), 10);
        assert_eq!(memento.window(), 1_000);
        assert!((memento.tau() - 0.5).abs() < 1e-12);
        assert!((memento.query_scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid Memento configuration")]
    fn invalid_parameters_panic() {
        let _ = Memento::<u64>::new(0, 100, 1.0, 0);
    }

    #[test]
    fn tracked_keys_cover_overflowed_and_in_frame_flows() {
        let mut memento = Memento::new(8, 80, 1.0, 2);
        for _ in 0..40 {
            memento.update("overflowing");
        }
        memento.update("fresh");
        let keys = memento.tracked_keys();
        assert!(keys.contains(&"overflowing"));
        assert!(keys.contains(&"fresh"));
    }

    #[test]
    fn batched_updates_match_per_packet_updates_at_tau_one() {
        // With τ = 1 the batch path performs the same Full updates in the
        // same order as the per-packet path: state must match exactly.
        let window = 2_000;
        let mut per_packet = Memento::new(64, window, 1.0, 9);
        let mut batched = Memento::new(64, window, 1.0, 9);
        let mut rng = StdRng::seed_from_u64(21);
        let keys: Vec<u64> = (0..3 * window).map(|_| rng.gen_range(0u64..300)).collect();
        for &k in &keys {
            per_packet.update(k);
        }
        for part in keys.chunks(173) {
            batched.update_batch(part);
        }
        assert_eq!(per_packet.processed(), batched.processed());
        assert_eq!(per_packet.full_updates(), batched.full_updates());
        assert_eq!(per_packet.tracked_overflows(), batched.tracked_overflows());
        for flow in 0..300u64 {
            assert_eq!(
                per_packet.estimate(&flow).to_bits(),
                batched.estimate(&flow).to_bits(),
                "estimates diverge for flow {flow}"
            );
        }
    }

    #[test]
    fn batched_updates_keep_sampled_estimates_accurate() {
        // The geometric-skip batch path must keep the τ-sampled estimates in
        // the same ballpark as the exact window, like the per-packet path.
        let window = 20_000;
        let tau = 1.0 / 16.0;
        let mut memento = Memento::new(512, window, tau, 11);
        let mut exact = ExactWindow::new(window);
        let mut rng = StdRng::seed_from_u64(4);
        let keys: Vec<u64> = (0..3 * window)
            .map(|_| {
                if rng.gen::<f64>() < 0.25 {
                    0u64
                } else {
                    1 + rng.gen_range(0..1000u64)
                }
            })
            .collect();
        for part in keys.chunks(777) {
            memento.update_batch(part);
        }
        for &k in &keys {
            exact.add(k);
        }
        let est = memento.estimate(&0);
        let real = exact.query(&0) as f64;
        let rel = (est - real).abs() / real;
        assert!(
            rel < 0.5,
            "batched estimate too far off: est {est} real {real}"
        );
        let ratio = memento.full_updates() as f64 / memento.processed() as f64;
        assert!(
            (ratio - tau).abs() < tau * 0.2,
            "batched full-update ratio {ratio}"
        );
    }

    /// `skip(n)` must be bit-for-bit the same as `n` unrecorded
    /// `window_update` calls, at any alignment relative to block and frame
    /// boundaries and with live overflow state to drain.
    #[test]
    fn skip_equals_window_updates_exactly() {
        let window = 1_000;
        let counters = 10; // block size 100
        for &n in &[1u64, 7, 99, 100, 101, 250, 999, 1_000, 1_001, 5_000] {
            let mut bulk = Memento::new(counters, window, 1.0, 5);
            let mut per_packet = Memento::new(counters, window, 1.0, 5);
            let mut rng = StdRng::seed_from_u64(n);
            // Warm up with a skewed recorded stream so overflow queues and
            // the B table are non-trivially populated.
            for _ in 0..1_700u64 {
                let key = (rng.gen::<f64>().powi(2) * 20.0) as u64;
                bulk.update(key);
                per_packet.update(key);
            }
            bulk.skip(n);
            for _ in 0..n {
                per_packet.window_update();
            }
            assert_eq!(bulk.processed(), per_packet.processed());
            assert_eq!(bulk.tracked_overflows(), per_packet.tracked_overflows());
            for key in 0..20u64 {
                assert_eq!(
                    bulk.estimate(&key).to_bits(),
                    per_packet.estimate(&key).to_bits(),
                    "skip({n}) diverges from window updates for key {key}"
                );
            }
        }
    }

    /// With all gaps zero the positioned path is bit-for-bit the
    /// plain geometric-skip batch path (same RNG draws, same advances).
    #[test]
    fn positioned_batch_with_zero_gaps_equals_update_batch() {
        let window = 4_000;
        let tau = 0.25;
        let mut plain = Memento::new(64, window, tau, 17);
        let mut positioned = Memento::new(64, window, tau, 17);
        let mut rng = StdRng::seed_from_u64(33);
        let keys: Vec<u64> = (0..3 * window).map(|_| rng.gen_range(0u64..200)).collect();
        let zero_gaps = vec![0u64; 311];
        for part in keys.chunks(311) {
            plain.update_batch(part);
            positioned.update_batch_positioned(&zero_gaps[..part.len()], part);
        }
        assert_eq!(plain.processed(), positioned.processed());
        assert_eq!(plain.full_updates(), positioned.full_updates());
        for flow in 0..200u64 {
            assert_eq!(
                plain.estimate(&flow).to_bits(),
                positioned.estimate(&flow).to_bits(),
                "fused path diverges for flow {flow}"
            );
        }
    }

    /// A batch whose offsets overflow `u64` panics, naming the overflow,
    /// instead of wrapping the window arithmetic.
    #[test]
    #[should_panic(expected = "gap sum overflows u64")]
    fn positioned_batch_gap_sum_overflow_panics() {
        let mut memento = Memento::new(8, 100, 0.5, 1);
        memento.update_batch_positioned(&[u64::MAX / 2, u64::MAX / 2], &[1u64, 2]);
    }

    /// With gaps, the positioned path equals the naive skip+update replay
    /// on the deterministic τ = 1 configuration.
    #[test]
    fn positioned_batch_equals_skip_update_replay_at_tau_one() {
        let mut fused = Memento::new(32, 2_000, 1.0, 3);
        let mut naive = Memento::new(32, 2_000, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let len = rng.gen_range(1..200usize);
            let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..30)).collect();
            let gaps: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..9)).collect();
            fused.update_batch_positioned(&gaps, &keys);
            for (gap, key) in gaps.iter().zip(&keys) {
                naive.skip(*gap);
                naive.full_update(*key);
            }
        }
        assert_eq!(fused.processed(), naive.processed());
        for flow in 0..30u64 {
            assert_eq!(
                fused.estimate(&flow).to_bits(),
                naive.estimate(&flow).to_bits(),
                "positioned replay diverges for flow {flow}"
            );
        }
    }

    /// The closed-form `skip` must match the event-walking reference
    /// (`skip_reference`) bit-for-bit — including *after* the skip, when
    /// both instances keep recording: a structural divergence in the block
    /// queues would surface as different retirement schedules later.
    #[test]
    fn closed_form_skip_equals_reference_walk() {
        // W deliberately not a multiple of the block count: block size 77,
        // a short final block, rotation positions {0, 77, ..., 693}.
        let window = 700;
        let counters = 9;
        for &n in &[
            1u64, 76, 77, 78, 500, 693, 699, 700, 701, 770, 1_400, 7_007, 70_001,
        ] {
            for &warm in &[0usize, 350, 1_650] {
                let mut closed = Memento::new(counters, window, 1.0, 5);
                let mut walk = Memento::new(counters, window, 1.0, 5);
                let mut rng = StdRng::seed_from_u64(n ^ warm as u64);
                for _ in 0..warm {
                    let key = (rng.gen::<f64>().powi(2) * 25.0) as u64;
                    closed.update(key);
                    walk.update(key);
                }
                closed.skip(n);
                walk.skip_reference(n);
                assert_eq!(closed.processed(), walk.processed());
                assert_eq!(closed.tracked_overflows(), walk.tracked_overflows());
                for key in 0..25u64 {
                    assert_eq!(
                        closed.estimate(&key).to_bits(),
                        walk.estimate(&key).to_bits(),
                        "skip({n}) after {warm} packets diverges for key {key}"
                    );
                }
                // Keep recording: the post-skip structures must behave
                // identically too.
                for _ in 0..900 {
                    let key = (rng.gen::<f64>().powi(2) * 25.0) as u64;
                    closed.update(key);
                    walk.update(key);
                }
                assert_eq!(closed.tracked_overflows(), walk.tracked_overflows());
                for key in 0..25u64 {
                    assert_eq!(
                        closed.estimate(&key).to_bits(),
                        walk.estimate(&key).to_bits(),
                        "post-skip({n}) stream diverges for key {key}"
                    );
                }
            }
        }
    }

    /// `skip` reaches the last positions of `u64` exactly, through the
    /// chunked closed form, and forgets everything on the way.
    #[test]
    fn skip_to_near_u64_max_lands_exactly() {
        let mut memento = Memento::<u64>::new(8, 100, 1.0, 1);
        memento.skip(u64::MAX - 1);
        assert_eq!(memento.processed(), u64::MAX - 1);
        for key in 0..20u64 {
            assert_eq!(
                memento.estimate(&key).to_bits(),
                memento.untracked_estimate().to_bits()
            );
        }
        memento.update(3);
        assert_eq!(memento.processed(), u64::MAX);
        assert!(memento.estimate(&3) > memento.untracked_estimate());
    }

    /// A skip past `u64::MAX` panics, naming the overflow, instead of
    /// wrapping the stream position.
    #[test]
    #[should_panic(expected = "stream position overflows u64")]
    fn skip_past_u64_max_panics() {
        let mut memento = Memento::<u64>::new(8, 100, 1.0, 1);
        memento.skip(u64::MAX);
        memento.skip(1);
    }

    /// A batch whose span would carry the stream position past `u64::MAX`
    /// panics, naming its entry point, at τ = 1 and at τ < 1.
    #[test]
    #[should_panic(expected = "update_batch: the stream position overflows u64")]
    fn update_batch_past_u64_max_panics_at_tau_one() {
        let mut memento = Memento::<u64>::new(8, 100, 1.0, 1);
        memento.skip(u64::MAX - 5);
        memento.update_batch(&[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "update_batch: the stream position overflows u64")]
    fn update_batch_past_u64_max_panics_when_sampled() {
        let mut memento = Memento::<u64>::new(8, 100, 0.25, 1);
        memento.skip(u64::MAX - 5);
        memento.update_batch(&[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "update_batch_positioned: the stream position overflows u64")]
    fn positioned_batch_past_u64_max_panics_at_tau_one() {
        let mut memento = Memento::<u64>::new(8, 100, 1.0, 1);
        memento.skip(u64::MAX - 100);
        memento.update_batch_positioned(&[50, 60], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "update_batch_positioned: the stream position overflows u64")]
    fn positioned_batch_past_u64_max_panics_when_sampled() {
        let mut memento = Memento::<u64>::new(8, 100, 0.25, 1);
        memento.skip(u64::MAX - 100);
        memento.update_batch_positioned(&[50, 60], &[1, 2]);
    }

    /// The span check runs before the skip draws and before the first
    /// key, at τ < 1 and at τ = 1: a refused batch leaves the position,
    /// the carried skip and the sampler's next draws as they were, so the
    /// stream continues as if it was never offered.
    #[test]
    fn overflowing_sampled_batch_changes_no_state() {
        for tau in [0.25, 1.0] {
            let mut memento = Memento::<u64>::new(8, 100, tau, 3);
            memento.update_batch(&[1, 2, 3]);
            memento.skip(u64::MAX - 10 - memento.processed());
            let mut untouched = memento.clone();
            let keys = [7u64; 20];
            let refused = [
                catch_unwind(AssertUnwindSafe(|| memento.update_batch(&keys))),
                catch_unwind(AssertUnwindSafe(|| {
                    memento.update_batch_positioned(&[0; 20], &keys)
                })),
            ];
            assert!(refused.iter().all(|r| r.is_err()), "τ = {tau}");
            assert_eq!(memento.processed(), untouched.processed(), "τ = {tau}");
            assert_eq!(memento.batch_skip, untouched.batch_skip);
            for _ in 0..64 {
                assert_eq!(memento.sampler.next_u32(), untouched.sampler.next_u32());
            }
            memento.update_batch(&keys[..10]);
            untouched.update_batch(&keys[..10]);
            assert_eq!(memento.processed(), u64::MAX);
            assert_eq!(memento.full_updates(), untouched.full_updates());
            assert_eq!(
                memento.estimate(&7).to_bits(),
                untouched.estimate(&7).to_bits()
            );
        }
    }

    /// Every per-packet entry point refuses to carry the stream position
    /// past `u64::MAX`, naming itself, before any state changes: the
    /// position stays put and `update` draws no coin, at τ < 1 and τ = 1.
    #[test]
    fn per_packet_updates_at_u64_max_panic_before_any_state_change() {
        type EntryPoint = (&'static str, fn(&mut Memento<u64>));
        let entries: [EntryPoint; 3] = [
            ("update", |m| m.update(3)),
            ("window_update", |m| m.window_update()),
            ("full_update", |m| m.full_update(3)),
        ];
        for tau in [0.25, 1.0] {
            for (name, entry) in entries {
                let mut memento = Memento::<u64>::new(8, 100, tau, 1);
                memento.skip(u64::MAX);
                let mut untouched = memento.clone();
                let payload = catch_unwind(AssertUnwindSafe(|| entry(&mut memento)))
                    .expect_err("a step past u64::MAX must panic");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("{name}: the stream position overflows u64").as_str()),
                    "τ = {tau}"
                );
                assert_eq!(memento.processed(), u64::MAX, "{name}, τ = {tau}");
                assert_eq!(memento.full_updates(), 0, "{name}, τ = {tau}");
                for _ in 0..8 {
                    assert_eq!(memento.sampler.next_u32(), untouched.sampler.next_u32());
                }
            }
        }
    }

    #[test]
    fn window_update_advances_without_recording() {
        let mut memento = Memento::<u64>::new(8, 100, 1.0, 2);
        for _ in 0..10 {
            memento.window_update();
        }
        assert_eq!(memento.processed(), 10);
        assert_eq!(memento.full_updates(), 0);
        assert_eq!(memento.tracked_overflows(), 0);
    }
}
