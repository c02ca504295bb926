//! Differential property tests for the PR 6 batched-prefetch pipeline.
//!
//! The pipelined [`Memento::update_batch`] / `update_batch_positioned`
//! hoist all geometric-skip draws into a first pass (so the surviving
//! keys can be hashed and prefetched ahead of the probes) and replay the
//! window advances and Full updates in stream order in a second pass.
//! Because the skip sampler never reads keys or summary state, and the
//! summary never reads the sampler, the two-pass form must be
//! **bit-for-bit** identical to the seed-era per-key loop — same RNG
//! stream, same advances, same Full updates, same estimates.
//!
//! These tests pin that equivalence on arbitrary streams: random key
//! mixes, random chunk sizes (so batches straddle block and frame
//! boundaries), every τ regime (WCSS τ = 1, moderate and aggressive
//! sampling), and — for the positioned path — random inter-arrival gaps
//! up to whole windows and ~2^40 positions, plus all-zero gaps against
//! `update_batch` itself.
//!
//! The batch cores read each geometric skip from the sampler's cache once
//! its table entry has been drawn, while the references recompute every
//! skip; a deterministic test drives both past several wraps of the
//! 65,536-entry table, where the proptests' short streams never reach.
//!
//! The nightly deep fuzz raises the case count through `PROPTEST_CASES`.

use memento_core::{Ingest, Memento, Wcss};
use proptest::prelude::*;

/// The τ regimes under test: WCSS mode, moderate and aggressive sampling.
const TAUS: [f64; 3] = [1.0, 0.25, 1.0 / 16.0];

/// Case count, honoring `PROPTEST_CASES` (the vendored proptest stand-in
/// has no built-in env support); unset, the proptest default.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(ProptestConfig::default().cases)
}

/// Assert that two Mementos are observationally identical, bit for bit.
fn assert_same_state(pipelined: &Memento<u64>, reference: &Memento<u64>, keyspace: u64) {
    assert_eq!(pipelined.processed(), reference.processed(), "processed");
    assert_eq!(
        pipelined.full_updates(),
        reference.full_updates(),
        "full_updates"
    );
    assert_eq!(
        pipelined.tracked_overflows(),
        reference.tracked_overflows(),
        "tracked_overflows"
    );
    for key in 0..keyspace {
        assert_eq!(
            pipelined.estimate(&key).to_bits(),
            reference.estimate(&key).to_bits(),
            "estimates diverge for key {key}"
        );
    }
}

/// Inter-arrival gaps for the positioned path: mostly within a block, some
/// at least `W` = 900 (a frame flush; from ~940 on every block rotates out
/// and the window clears wholesale), some near 2^40.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        30 => 0u64..9,
        1 => 900u64..3_000,
        1 => (1u64 << 40) - 1_000..(1u64 << 40) + 1_000,
    ]
}

/// The batch cores' cached skips ≡ the references' fresh draws past
/// several wraps of the default table: 100k skip draws per τ at τ = ¼ and
/// 1/16 (the second and later wraps hit the cache), with per-packet
/// `update()` coins between the batches advancing the shared table
/// position, on both entry points.
#[test]
fn cached_skips_equal_reference_across_table_wraps() {
    for tau in [0.25, 1.0 / 16.0] {
        let fresh = || Memento::new(24, 900, tau, 5);
        let (mut batched, mut reference) = (fresh(), fresh());
        let (mut positioned, mut positioned_reference) = (fresh(), fresh());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let stream_len = (100_000.0 / tau) as usize;
        let keys: Vec<u64> = (0..stream_len).map(|_| next() % 48).collect();
        let gaps: Vec<u64> = keys.iter().map(|&k| u64::from(k < 6) * k).collect();
        let mut start = 0;
        while start < keys.len() {
            let end = (start + 500 + (next() % 3000) as usize).min(keys.len());
            batched.update_batch(&keys[start..end]);
            reference.update_batch_reference(&keys[start..end]);
            positioned.update_batch_positioned(&gaps[start..end], &keys[start..end]);
            positioned_reference
                .update_batch_positioned_reference(&gaps[start..end], &keys[start..end]);
            for _ in 0..next() % 4 {
                let key = next() % 48;
                batched.update(key);
                reference.update(key);
                positioned.update(key);
                positioned_reference.update(key);
            }
            start = end;
        }
        assert!(
            batched.full_updates() > 65_536,
            "the draws must wrap the table"
        );
        assert_same_state(&batched, &reference, 48);
        assert_same_state(&positioned, &positioned_reference, 48);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Pipelined `update_batch` ≡ the seed per-key loop
    /// (`update_batch_reference`), bit for bit, in every τ regime.
    #[test]
    fn pipelined_batch_equals_reference(
        keys in prop::collection::vec(0u64..48, 0..1500),
        chunk in 1usize..400,
        tau_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let tau = TAUS[tau_idx];
        let mut pipelined = Memento::new(24, 900, tau, seed.wrapping_add(1));
        let mut reference = Memento::new(24, 900, tau, seed.wrapping_add(1));
        for part in keys.chunks(chunk) {
            pipelined.update_batch(part);
            reference.update_batch_reference(part);
        }
        assert_same_state(&pipelined, &reference, 48);
    }

    /// Pipelined `update_batch_positioned` ≡ the seed fused gap+key loop
    /// (`update_batch_positioned_reference`), bit for bit, with random
    /// inter-arrival gaps straddling block and frame boundaries and
    /// advancing over whole windows.
    #[test]
    fn pipelined_positioned_batch_equals_reference(
        stream in prop::collection::vec((gap(), 0u64..48), 0..1200),
        chunk in 1usize..300,
        tau_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let tau = TAUS[tau_idx];
        let mut pipelined = Memento::new(24, 900, tau, seed.wrapping_add(1));
        let mut reference = Memento::new(24, 900, tau, seed.wrapping_add(1));
        let gaps: Vec<u64> = stream.iter().map(|&(g, _)| g).collect();
        let keys: Vec<u64> = stream.iter().map(|&(_, k)| k).collect();
        for start in (0..stream.len()).step_by(chunk) {
            let end = (start + chunk).min(stream.len());
            pipelined.update_batch_positioned(&gaps[start..end], &keys[start..end]);
            reference.update_batch_positioned_reference(&gaps[start..end], &keys[start..end]);
        }
        assert_same_state(&pipelined, &reference, 48);
    }

    /// `update_batch_positioned` with all gaps zero ≡ `update_batch`, bit
    /// for bit, in every τ regime. The two entry points share the carried
    /// geometric skip, so alternating them chunk by chunk on one instance
    /// must stay identical too.
    #[test]
    fn zero_gap_positioned_batch_equals_update_batch(
        keys in prop::collection::vec(0u64..48, 0..1500),
        chunk in 1usize..400,
        tau_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let tau = TAUS[tau_idx];
        let fresh = || Memento::new(24, 900, tau, seed.wrapping_add(1));
        let (mut plain, mut positioned, mut alternating) = (fresh(), fresh(), fresh());
        let zeros = vec![0u64; chunk];
        for (c, part) in keys.chunks(chunk).enumerate() {
            let gaps = &zeros[..part.len()];
            plain.update_batch(part);
            positioned.update_batch_positioned(gaps, part);
            if c % 2 == 0 {
                alternating.update_batch(part);
            } else {
                alternating.update_batch_positioned(gaps, part);
            }
        }
        assert_same_state(&positioned, &plain, 48);
        assert_same_state(&alternating, &plain, 48);
    }

    /// WCSS rides the same τ = 1 pipeline: its batched updates must match
    /// the seed per-packet loop exactly (every packet is a Full update,
    /// so this exercises pure prefetch-lookahead reordering).
    #[test]
    fn wcss_pipelined_batch_equals_per_packet(
        keys in prop::collection::vec(0u64..48, 0..1500),
        chunk in 1usize..400,
    ) {
        let mut batched = Wcss::new(24, 900);
        let mut per_packet = Wcss::new(24, 900);
        for part in keys.chunks(chunk) {
            batched.update_batch(part);
        }
        for &key in &keys {
            per_packet.update(key);
        }
        assert_same_state(batched.as_memento(), per_packet.as_memento(), 48);
    }
}
