//! Hierarchical heavy hitters on the sharded [`Engine`].

use memento_core::traits::{HhhAlgorithm, Ingest};
use memento_core::{FrozenHhh, HMemento};
use memento_hierarchy::Hierarchy;

use crate::engine::{Assembler, Engine, Reader, Shard};
use crate::estimator::{shard_seed, spare_seed};

/// Sliding-window hierarchical heavy hitters scaled across worker threads:
/// the [`Engine`] over [`HMemento`] shards.
///
/// H-Memento is the HHH algorithm the engine can scale: its `skip`
/// anchors a shard's window at the global stream position, and it freezes
/// a self-contained [`FrozenHhh`] per publication. The interval
/// algorithms (MST, RHHH) cannot anchor a window, and the window
/// baselines (`WindowMst`, `ExactWindowHhh`) cannot freeze, so the type
/// admits no other.
///
/// Unlike per-flow estimation, a *prefix* aggregates many items that may
/// hash to different shards, so the merge is summation rather than
/// routing: `estimate` sums the per-shard prefix estimates. `output` is
/// re-derived for full-window shards: a shard sees only ~`1/N` of the
/// traffic but measures it against the full `W`, so a globally-`θ`-heavy
/// prefix shows up in some shard at only `θ/N` of that shard's window —
/// candidates are therefore collected at the per-shard threshold `θ/N` and
/// the union is re-validated against the global `θ·W` bar using the summed
/// (upper-bound) estimates (see [`EngineSnapshot`](crate::EngineSnapshot)).
pub type ShardedHhh<Hi> = Engine<HMemento<Hi>>;

/// A [`Reader`] of a [`ShardedHhh`]'s snapshots.
pub type HhhSnapshotReader<Hi> = Reader<HMemento<Hi>>;

impl<Hi> Shard for HMemento<Hi>
where
    Hi: Hierarchy + Send + Sync + 'static,
    Hi::Item: Send + 'static,
    Hi::Prefix: Send + Sync + 'static,
{
    type Item = Hi::Item;
    /// A full immutable summary: candidates with their frequency bounds.
    type Part = FrozenHhh<Hi>;
    /// The part itself.
    type View = FrozenHhh<Hi>;

    /// HHH queries report no additive error bound.
    fn error_bound(&self) -> f64 {
        0.0
    }

    fn replay(&mut self, gaps: &[u64], items: &[Hi::Item], tail: u64) {
        if !items.is_empty() {
            self.update_batch_positioned(gaps, items);
        }
        if tail > 0 {
            self.skip(tail);
        }
    }

    fn freeze_part(&mut self) -> FrozenHhh<Hi> {
        self.freeze()
    }

    fn space_bytes(&self) -> usize {
        self.as_memento().space_bytes()
    }

    fn assembler(_: &'static str, _: usize) -> Assembler<Self> {
        Box::new(|parts| parts)
    }
}

impl<Hi> ShardedHhh<Hi>
where
    Hi: Hierarchy + Send + Sync + 'static,
    Hi::Item: Send + 'static,
    Hi::Prefix: Send + Sync + 'static,
{
    /// A sharded [`HMemento`]: every shard keeps a full `W`-packet window
    /// at the global stream position with the full `k` counters (same error
    /// bound as the single instance; the `N×` counter memory is the price
    /// of full-window coverage per shard).
    ///
    /// At τ < 1 the router samples, as for
    /// [`ShardedEstimator::memento`](crate::ShardedEstimator::memento), and
    /// each shard is built by [`HMemento::with_upstream_sampling`]: it
    /// records every shipped item as a Full update of one random prefix
    /// and scales by `V = H/τ`. The shards draw the prefix levels from
    /// their own per-shard tables and the router draws its skips from a
    /// table that no shard reads (seeded one seed stride below shard 0),
    /// so each sampled item's level is independent of the gap before it.
    /// Read from shard 0's table, as the estimator's router does, the
    /// entry that set an item's gap would also set its level.
    pub fn h_memento(
        hier: Hi,
        shards: usize,
        counters: usize,
        window: usize,
        tau: f64,
        delta: f64,
        seed: u64,
    ) -> Self {
        let router_seed = spare_seed(seed);
        Self::sampled("sharded-h-memento", shards, tau, router_seed, move |i| {
            let seed = shard_seed(seed, i);
            HMemento::with_upstream_sampling(hier.clone(), counters, window, tau, delta, seed)
        })
    }
}

impl<Hi> HhhAlgorithm<Hi> for ShardedHhh<Hi>
where
    Hi: Hierarchy + Send + Sync + 'static,
    Hi::Item: Send + 'static,
    Hi::Prefix: Send + Sync + 'static,
{
    fn space_bytes(&self) -> usize {
        self.total_space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PublishPolicy;
    use memento_core::HhhQuery;
    use memento_hierarchy::{Prefix1D, SrcHierarchy};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn sharded_h_memento_finds_the_planted_subnet() {
        let window = 12_000;
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 4, 4_096, window, 1.0, 0.01, 3);
        // 50% of traffic from 10.0.0.0/8 spread over many hosts (so every
        // shard sees its share), the rest scattered.
        let items: Vec<u32> = (0..window as u32)
            .map(|i| {
                if i % 2 == 0 {
                    addr(10, (i % 199) as u8, (i % 251) as u8, (i % 13) as u8)
                } else {
                    addr(
                        20 + (i % 97) as u8,
                        (i % 231) as u8,
                        (i % 11) as u8,
                        (i % 17) as u8,
                    )
                }
            })
            .collect();
        sharded.update_batch(&items);
        assert_eq!(sharded.processed(), window as u64);
        assert!(sharded.space_bytes() > 0);
        let output = sharded.output(0.3);
        assert!(
            output.contains(&Prefix1D::new(addr(10, 0, 0, 0), 8)),
            "planted /8 missing from {output:?}"
        );
        // The /8 estimate sums the per-shard views and must cover the true
        // count (each per-shard estimate is an upper bound on its share).
        assert!(sharded.estimate(&Prefix1D::new(addr(10, 0, 0, 0), 8)) >= window as f64 * 0.5);
        assert!(!sharded.is_interval());
    }

    #[test]
    fn router_sampled_shards_record_a_tau_share_and_find_the_planted_subnet() {
        let (window, tau) = (40_000, 0.25);
        // Half the traffic from hosts of 10.0.0.0/8, the rest scattered.
        let items: Vec<u32> = (0..2 * window as u32)
            .map(|i| {
                if i % 2 == 0 {
                    addr(10, (i % 199) as u8, (i % 251) as u8, (i % 13) as u8)
                } else {
                    addr(20 + (i % 97) as u8, (i % 231) as u8, (i % 11) as u8, 1)
                }
            })
            .collect();
        for shards in [1, 2, 4] {
            let mut sharded =
                ShardedHhh::h_memento(SrcHierarchy, shards, 4_096, window, tau, 0.01, 3);
            sharded.update_batch(&items);
            let processed = sharded.processed();
            assert_eq!(processed, items.len() as u64);
            // Every shipped item is one Full update: their sum over the
            // shards is the router's sample.
            let full: u64 = (0..shards)
                .map(|s| sharded.query_via_fifo(s, |hm| hm.full_updates()))
                .sum();
            let n = processed as f64;
            let sigma = (tau * (1.0 - tau) / n).sqrt();
            let rate = full as f64 / n;
            assert!(
                (rate - tau).abs() <= 4.0 * sigma,
                "{shards} shards sampled {rate}, tau {tau}"
            );
            let output = sharded.output(0.3);
            assert!(
                output.contains(&Prefix1D::new(addr(10, 0, 0, 0), 8)),
                "{shards} shards: planted /8 missing from {output:?}"
            );
        }
    }

    #[test]
    fn router_sampled_levels_do_not_depend_on_the_gap_before() {
        // One shard, one address: after each packet, the prefix whose
        // estimate grew is the level of a sampled packet. Levels must be
        // uniform both after a zero gap and after a positive one; a router
        // reading shard 0's table would give every zero-gap sample (a
        // table entry above 1 − τ) one of the top levels.
        let item = addr(10, 1, 2, 3);
        let h = SrcHierarchy.h();
        let prefixes: Vec<Prefix1D> = (0..h).map(|l| SrcHierarchy.prefix_at(item, l)).collect();
        // A window and block longer than the stream: no estimate moves
        // except on a Full update.
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 1, 64, 1 << 22, 0.25, 0.01, 3);
        let mut before = vec![0.0; h];
        let (mut gap, mut levels) = (0u64, [vec![0u64; h], vec![0u64; h]]);
        for _ in 0..16_000 {
            sharded.update(item);
            let prefixes = prefixes.clone();
            let after = sharded.query_via_fifo(0, move |hm| {
                prefixes.iter().map(|p| hm.estimate(p)).collect::<Vec<_>>()
            });
            match (0..h).find(|&l| after[l] != before[l]) {
                Some(level) => {
                    levels[usize::from(gap > 0)][level] += 1;
                    gap = 0;
                }
                None => gap += 1,
            }
            before = after;
        }
        for (after_gap, counts) in levels.iter().enumerate() {
            let n = counts.iter().sum::<u64>() as f64;
            let p = 1.0 / h as f64;
            let sigma = (n * p * (1.0 - p)).sqrt();
            for (level, &count) in counts.iter().enumerate() {
                assert!(
                    (count as f64 - n * p).abs() <= 4.0 * sigma,
                    "level {level}: {count} of {n} samples after a gap > 0: {}",
                    after_gap == 1
                );
            }
        }
    }

    #[test]
    fn output_rejects_shard_local_heavy_hitters() {
        // One host carries ~12% of global traffic; its shard collects it as
        // a θ/N candidate, but the summed estimate stays far below the
        // global θ·W bar at θ = 0.3 — the merged output must reject it.
        let window = 8_000;
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 4, 4_096, window, 1.0, 0.01, 7);
        let hot = addr(10, 1, 2, 3);
        let items: Vec<u32> = (0..window as u32)
            .map(|i| {
                if i % 8 == 0 {
                    hot
                } else {
                    // Scattered background across many /8s and hosts.
                    addr(
                        30 + (i % 101) as u8,
                        (i % 241) as u8,
                        (i % 13) as u8,
                        (i % 17) as u8,
                    )
                }
            })
            .collect();
        sharded.update_batch(&items);
        let output = sharded.output(0.3);
        assert!(
            !output.contains(&Prefix1D::new(hot, 32)),
            "a 12%-of-traffic host must not pass θ = 0.3: {output:?}"
        );
        // It does pass once θ drops below its true global share.
        let output = sharded.output(0.05);
        assert!(
            output.contains(&Prefix1D::new(hot, 32)),
            "the host must appear at θ = 0.05: {output:?}"
        );
    }

    #[test]
    fn single_shard_matches_unsharded_h_memento() {
        let window = 6_000;
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 1, 512, window, 1.0, 0.01, 9);
        let mut single = HMemento::new(SrcHierarchy, 512, window, 1.0, 0.01, 9);
        let items: Vec<u32> = (0..window as u32)
            .map(|i| addr((i % 7) as u8, (i % 53) as u8, 0, (i % 3) as u8))
            .collect();
        sharded.update_batch(&items);
        for &item in &items {
            single.update(item);
        }
        let p = Prefix1D::new(0, 8);
        assert_eq!(
            HhhQuery::<SrcHierarchy>::estimate(&sharded, &p),
            HMemento::estimate(&single, &p)
        );
        assert_eq!(sharded.processed(), single.processed());
    }

    #[test]
    fn reader_answers_hhh_queries_without_the_engine() {
        let window = 6_000;
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 2, 1_024, window, 1.0, 0.01, 11)
            .with_policy(PublishPolicy {
                every_batches: 1,
                on_query: false,
            });
        let reader = sharded.reader();
        assert_eq!(reader.processed(), 0, "no snapshot before any publish");
        let items: Vec<u32> = (0..window as u32)
            .map(|i| addr(10, (i % 199) as u8, (i % 251) as u8, (i % 13) as u8))
            .collect();
        sharded.update_batch(&items);
        sharded.publish_now();
        let p8 = Prefix1D::new(addr(10, 0, 0, 0), 8);
        assert_eq!(reader.processed(), window as u64);
        assert!(reader.estimate(&p8) >= window as f64 * 0.7);
        assert!(reader.output(0.5).contains(&p8));
    }

    #[test]
    fn windows_expire_at_the_global_position() {
        // A /8 that dominates one window and then vanishes must be
        // forgotten by the sharded engine once W *global* packets pass —
        // regardless of how few of the follow-up packets land in the shards
        // holding its hosts.
        let window = 4_000;
        let mut sharded = ShardedHhh::h_memento(SrcHierarchy, 4, 2_048, window, 1.0, 0.01, 5);
        let hot: Vec<u32> = (0..window as u32)
            .map(|i| addr(42, (i % 61) as u8, (i % 17) as u8, (i % 5) as u8))
            .collect();
        sharded.update_batch(&hot);
        let p8 = Prefix1D::new(addr(42, 0, 0, 0), 8);
        // Level sampling (one of H prefixes per packet) adds noise around
        // the true count W; the point here is only "clearly hot".
        assert!(HhhQuery::<SrcHierarchy>::estimate(&sharded, &p8) >= 0.7 * window as f64);
        // Two full windows of unrelated traffic.
        let cold: Vec<u32> = (0..2 * window as u32)
            .map(|i| addr(200 + (i % 37) as u8, (i % 251) as u8, (i % 7) as u8, 1))
            .collect();
        sharded.update_batch(&cold);
        let leftover = HhhQuery::<SrcHierarchy>::estimate(&sharded, &p8);
        // Only the per-shard one-sided slack may remain (2 blocks × V per
        // shard plus Space-Saving noise) — far below the old count.
        assert!(
            leftover < 0.25 * window as f64,
            "stale /8 retained across the global window: {leftover}"
        );
    }
}
