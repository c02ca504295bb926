//! Samplers.
//!
//! The paper attributes part of H-Memento's speed edge over RHHH to how
//! sampling is implemented (§6.2): Memento uses a pre-filled *random number
//! table*, whereas RHHH draws *geometric* skip counts. Both are provided here
//! so the comparison of Figure 7 is faithful.
//!
//! The table also serves Memento's batch path (§5), which draws geometric
//! skips from it by inversion ([`geometric_skip`]). A skip depends only on
//! its table entry and τ, so [`TableSampler::next_skip`] caches each
//! entry's skip the first time the entry is drawn: after one pass over the
//! table a draw is a load instead of a logarithm and a divide.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Bernoulli sampler backed by a pre-filled table of uniform numbers.
///
/// Each call consumes one table entry and compares it with a fixed threshold;
/// the table wraps around. This is the "random number table" implementation
/// the paper credits for Memento's fast sampling path.
#[derive(Debug, Clone)]
pub struct TableSampler {
    table: Vec<u32>,
    threshold: u32,
    tau: f64,
    /// `ln(1 − τ)`, the divisor of [`geometric_skip`].
    ln_keep: f64,
    pos: usize,
    /// Parallel to `table`, allocated by the first [`Self::next_skip`]:
    /// 0 until the entry's skip is computed, then `skip + 1`. Skips that do
    /// not fit stay 0 and are recomputed on every draw.
    skips: Vec<u32>,
}

impl TableSampler {
    /// Default number of entries in the random table.
    pub const DEFAULT_TABLE_SIZE: usize = 1 << 16;

    /// Creates a sampler with probability `tau` using the default table size
    /// and a seed derived from the OS RNG.
    ///
    /// # Panics
    /// Panics if `tau` is not in `[0, 1]`.
    pub fn new(tau: f64) -> Self {
        Self::with_seed(tau, rand::thread_rng().next_u64())
    }

    /// Creates a deterministic sampler (used by tests and benches).
    pub fn with_seed(tau: f64, seed: u64) -> Self {
        Self::with_table_size(tau, Self::DEFAULT_TABLE_SIZE, seed)
    }

    /// Creates a sampler with an explicit table size.
    pub fn with_table_size(tau: f64, table_size: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tau),
            "tau must be in [0,1], got {tau}"
        );
        assert!(table_size > 0, "table size must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let table = (0..table_size).map(|_| rng.gen::<u32>()).collect();
        let threshold = threshold_for(tau);
        TableSampler {
            table,
            threshold,
            tau,
            ln_keep: (1.0 - tau).ln(),
            pos: 0,
            skips: Vec::new(),
        }
    }

    /// Returns `true` when the current packet should receive the expensive
    /// (Full) update: one table entry against the threshold.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.tau >= 1.0 {
            // Still advance the table so speed comparisons at tau=1 include
            // the same bookkeeping.
            let _ = self.next_u32();
            return true;
        }
        self.next_u32() <= self.threshold
    }

    /// The sampling probability τ.
    pub fn probability(&self) -> f64 {
        self.tau
    }

    /// Returns the next raw uniform `u32` from the table (also advances it).
    /// Exposed so callers needing both a coin flip and a uniform choice (e.g.
    /// H-Memento's random prefix pick) pay for a single table read.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let pos = self.advance();
        self.table[pos]
    }

    /// Returns the geometric skip of the next table entry (also advances
    /// it): the number of failures before the next success at rate τ,
    /// [`geometric_skip`]`(entry, ln(1 − τ))`. It shares the table position
    /// with [`Self::next_u32`] and [`Self::sample`], so coins and skips
    /// drawn from one sampler interleave on one stream.
    ///
    /// The first call allocates a skip cache parallel to the table (4 bytes
    /// per entry); each entry's skip is computed on its first draw and
    /// loaded from the cache afterwards. Skips of `u32::MAX` or more (τ
    /// below about 5·10⁻⁹) are recomputed on every draw.
    // Always inlined, fill included: as a call per draw, or with the fill
    // in a `#[cold]` function, a first draw measured 11–15 ns slower
    // (x86-64, 2-vCPU VM), about double, and every draw of a fresh
    // instance's warm-up is a first draw.
    #[inline(always)]
    pub fn next_skip(&mut self) -> u64 {
        if self.skips.is_empty() {
            self.skips = vec![0; self.table.len()];
        }
        let pos = self.advance();
        let cached = self.skips[pos];
        if cached != 0 {
            return u64::from(cached - 1);
        }
        let skip = geometric_skip(self.table[pos], self.ln_keep);
        if skip < u64::from(u32::MAX) {
            self.skips[pos] = skip as u32 + 1;
        }
        skip
    }

    /// Moves to the next table entry, wrapping, and returns the current one.
    #[inline]
    fn advance(&mut self) -> usize {
        let pos = self.pos;
        self.pos += 1;
        if self.pos == self.table.len() {
            self.pos = 0;
        }
        pos
    }
}

/// The geometric skip a uniform `x` encodes: the number of failures before
/// the next success at rate τ, by inversion, `⌊ln(u) / ln(1 − τ)⌋` with
/// `u = (x + 0.5) / 2³²` in the open interval (0, 1). `ln_keep` is
/// `ln(1 − τ)`. Skips too large for a `u64` saturate at `u64::MAX`.
#[inline]
pub fn geometric_skip(x: u32, ln_keep: f64) -> u64 {
    let u = (x as f64 + 0.5) / (u32::MAX as f64 + 1.0);
    (u.ln() / ln_keep) as u64
}

#[inline]
fn threshold_for(tau: f64) -> u32 {
    if tau >= 1.0 {
        u32::MAX
    } else {
        (tau * u32::MAX as f64) as u32
    }
}

/// Combined sampler for hierarchical algorithms: on each packet it either
/// selects one of `h` prefix levels (with probability `tau / h` each, i.e.
/// overall probability `tau`) or nothing.
///
/// Conceptually this is the RHHH-style draw of a uniform integer in
/// `[0, V)` with `V = h / tau`, implemented over the random table.
#[derive(Debug, Clone)]
pub struct PrefixSampler {
    inner: TableSampler,
    h: usize,
    /// `V = h / tau`, the per-prefix inverse sampling rate.
    v: f64,
}

impl PrefixSampler {
    /// Creates a sampler over `h` prefix levels with overall Full-update
    /// probability `tau`.
    ///
    /// # Panics
    /// Panics if `h == 0` or `tau` is not in `(0, 1]`.
    pub fn new(h: usize, tau: f64, seed: u64) -> Self {
        assert!(h > 0, "hierarchy size must be positive");
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0,1], got {tau}");
        PrefixSampler {
            inner: TableSampler::with_seed(tau, seed),
            h,
            v: h as f64 / tau,
        }
    }

    /// The per-prefix inverse sampling rate `V = H / tau`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// The overall Full-update probability `tau`.
    pub fn tau(&self) -> f64 {
        self.inner.probability()
    }

    /// The hierarchy size `H`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Draws the per-packet decision: `Some(level)` (uniform over `0..h`)
    /// with probability `tau`, `None` otherwise.
    #[inline]
    pub fn sample_level(&mut self) -> Option<usize> {
        // One uniform draw: u in [0, 1). u * V < h  <=>  sample; the integer
        // part then selects the level uniformly.
        let u = self.inner.next_u32() as f64 / (u32::MAX as f64 + 1.0);
        let x = u * self.v;
        if x < self.h as f64 {
            Some(x as usize)
        } else {
            None
        }
    }
}

/// Geometric-skip Bernoulli sampler: instead of flipping a coin per packet it
/// draws how many packets to skip until the next positive sample (the
/// implementation strategy of RHHH). Cheap per packet when `tau` is small,
/// more expensive when `tau` is large — exactly the trade-off Figure 7
/// explores.
#[derive(Debug, Clone)]
pub struct GeometricSampler {
    rng: StdRng,
    tau: f64,
    /// Packets remaining until the next positive sample.
    remaining: u64,
}

impl GeometricSampler {
    /// Creates a sampler with probability `tau`.
    ///
    /// # Panics
    /// Panics if `tau` is not in `(0, 1]`.
    pub fn new(tau: f64, seed: u64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0,1], got {tau}");
        let mut s = GeometricSampler {
            rng: StdRng::seed_from_u64(seed),
            tau,
            remaining: 0,
        };
        s.remaining = s.draw_skip();
        s
    }

    /// Draws a geometric skip count (number of failures before a success).
    fn draw_skip(&mut self) -> u64 {
        if self.tau >= 1.0 {
            return 0;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        (u.ln() / (1.0 - self.tau).ln()).floor() as u64
    }

    /// Returns `true` when the current packet should receive the expensive
    /// (Full) update: counts down the current skip, drawing the next one
    /// on a sample.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.remaining == 0 {
            self.remaining = self.draw_skip();
            true
        } else {
            self.remaining -= 1;
            false
        }
    }

    /// The sampling probability τ.
    pub fn probability(&self) -> f64 {
        self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(mut sample: impl FnMut() -> bool, n: usize) -> f64 {
        let mut hits = 0usize;
        for _ in 0..n {
            if sample() {
                hits += 1;
            }
        }
        hits as f64 / n as f64
    }

    #[test]
    fn table_sampler_matches_probability() {
        for &tau in &[0.5, 0.1, 0.01] {
            let mut s = TableSampler::with_seed(tau, 42);
            let rate = empirical_rate(|| s.sample(), 200_000);
            assert!(
                (rate - tau).abs() < tau * 0.15 + 0.002,
                "tau={tau} rate={rate}"
            );
        }
    }

    #[test]
    fn table_sampler_tau_one_always_samples() {
        let mut s = TableSampler::with_seed(1.0, 1);
        assert!((0..1000).all(|_| s.sample()));
    }

    #[test]
    fn geometric_sampler_matches_probability() {
        for &tau in &[0.5, 0.05] {
            let mut s = GeometricSampler::new(tau, 9);
            let rate = empirical_rate(|| s.sample(), 200_000);
            assert!(
                (rate - tau).abs() < tau * 0.15 + 0.002,
                "tau={tau} rate={rate}"
            );
        }
    }

    #[test]
    fn geometric_sampler_tau_one_always_samples() {
        let mut s = GeometricSampler::new(1.0, 1);
        assert!((0..1000).all(|_| s.sample()));
    }

    #[test]
    fn prefix_sampler_level_distribution_is_uniform() {
        let h = 5;
        let tau = 0.5;
        let mut s = PrefixSampler::new(h, tau, 77);
        let mut counts = vec![0u64; h];
        let n = 400_000;
        let mut total = 0u64;
        for _ in 0..n {
            if let Some(level) = s.sample_level() {
                assert!(level < h);
                counts[level] += 1;
                total += 1;
            }
        }
        let overall = total as f64 / n as f64;
        assert!((overall - tau).abs() < 0.01, "overall rate {overall}");
        let expected = total as f64 / h as f64;
        for (level, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "level {level} count {c} expected {expected}"
            );
        }
    }

    #[test]
    fn prefix_sampler_exposes_v() {
        let s = PrefixSampler::new(25, 0.05, 3);
        assert!((s.v() - 500.0).abs() < 1e-9);
        assert_eq!(s.h(), 25);
        assert!((s.tau() - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn table_sampler_rejects_bad_tau() {
        let _ = TableSampler::with_seed(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn geometric_sampler_rejects_zero_tau() {
        let _ = GeometricSampler::new(0.0, 0);
    }

    /// Draws one value of each kind at irregular points, from `cached` and
    /// from `twin` (same table, same position), and checks they agree:
    /// coins and raw entries equal, and `next_skip` equals
    /// [`geometric_skip`] of the entry `twin` shows it consuming.
    fn assert_skips_match(cached: &mut TableSampler, twin: &mut TableSampler, draws: usize) {
        let ln_keep = (1.0 - cached.probability()).ln();
        for step in 0..draws {
            match (step * 7 + step / 5) % 11 {
                0 => assert_eq!(cached.sample(), twin.sample(), "coin {step}"),
                1 => assert_eq!(cached.next_u32(), twin.next_u32(), "entry {step}"),
                _ => assert_eq!(
                    cached.next_skip(),
                    geometric_skip(twin.next_u32(), ln_keep),
                    "skip {step}"
                ),
            }
        }
    }

    /// Over four cycles of a small table, with coins and raw draws
    /// interleaved on the shared position, every cached skip equals a
    /// fresh inversion of the entry it was drawn from.
    #[test]
    fn next_skip_matches_geometric_skip_across_table_wraps() {
        let size = 257;
        for &tau in &[0.25, 1.0 / 16.0, 0.9] {
            let mut cached = TableSampler::with_table_size(tau, size, 11);
            let mut twin = TableSampler::with_table_size(tau, size, 11);
            cached.sample();
            twin.sample();
            assert!(cached.skips.is_empty(), "coins alone allocate no cache");
            assert_skips_match(&mut cached, &mut twin, 4 * size);
            assert_eq!(cached.skips.len(), size);
            let filled = cached.skips.iter().filter(|&&c| c != 0).count();
            assert!(filled > size / 2, "only {filled} entries cached");
        }
    }

    /// At τ = 10⁻¹² most skips exceed `u32::MAX`: those are recomputed on
    /// every draw and never cached, and still equal a fresh inversion.
    #[test]
    fn skips_too_large_for_the_cache_are_recomputed() {
        let (size, tau) = (257, 1e-12);
        let mut cached = TableSampler::with_table_size(tau, size, 5);
        let mut twin = TableSampler::with_table_size(tau, size, 5);
        assert_skips_match(&mut cached, &mut twin, 4 * size);
        let ln_keep = (1.0 - tau).ln();
        let mut uncached = 0;
        for (&x, &c) in cached.table.iter().zip(&cached.skips) {
            let skip = geometric_skip(x, ln_keep);
            if skip >= u64::from(u32::MAX) {
                assert_eq!(c, 0, "skip {skip} must not be cached");
                uncached += 1;
            } else if c != 0 {
                assert_eq!(u64::from(c - 1), skip);
            }
        }
        assert!(uncached > size / 2, "only {uncached} entries overflow u32");
    }

    #[test]
    fn samplers_are_deterministic_with_seed() {
        let mut a = TableSampler::with_seed(0.3, 5);
        let mut b = TableSampler::with_seed(0.3, 5);
        for _ in 0..1000 {
            assert_eq!(a.sample(), b.sample());
        }
    }
}
