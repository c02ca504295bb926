//! The global-position router state shared by both sharded engines.
//!
//! Tracks the position of the *combined* stream and buffers each shard's
//! entries with per-entry gap stamps, so a worker can replay its share of
//! the stream at the exact global positions — the correctness-critical
//! core of the global-position window design (see the crate docs). A
//! router built for τ-sampling also draws the sample, as the measurement
//! points of the paper's D-Memento (§6) do: only sampled entries are
//! buffered, and every other position goes to no shard.

use memento_sketches::TableSampler;

/// Per-shard gap-stamped buffers plus global-position bookkeeping.
pub(crate) struct Router<T> {
    /// Per-shard buffers of entries not yet shipped to the workers.
    entries: Vec<Vec<T>>,
    /// Per-shard gap stamps, parallel to `entries`: `gaps[s][i]` packets
    /// went to other shards, or to none, immediately before
    /// `entries[s][i]`.
    gaps: Vec<Vec<u64>>,
    /// Per-shard position anchor: the global position of the shard's last
    /// buffered entry, or — when its buffer is empty — the position its
    /// worker was advanced to by its last shipment.
    anchor: Vec<u64>,
    /// Global stream position: every packet routed through the engine,
    /// sampled or not, plus every position injected via the engine-level
    /// `skip`.
    routed: u64,
    /// Global stream position at the last publication.
    published: u64,
    /// The τ-sampler when the router samples for its shards, `None` when
    /// every entry is routed.
    sampler: Option<Sampler>,
}

/// The router's τ-sampler: geometric skips drawn from one random-number
/// table through its skip cache ([`TableSampler::next_skip`]), the draw
/// [`Memento::update_batch`](memento_core::Memento::update_batch) makes.
struct Sampler {
    table: TableSampler,
    /// Candidate positions to pass over before the next sampled one,
    /// carried across calls.
    skip: u64,
}

impl<T> Router<T> {
    /// A router over `shards` shards that routes every entry.
    pub(crate) fn new(shards: usize) -> Self {
        Router {
            entries: (0..shards).map(|_| Vec::new()).collect(),
            gaps: (0..shards).map(|_| Vec::new()).collect(),
            anchor: vec![0; shards],
            routed: 0,
            published: 0,
            sampler: None,
        }
    }

    /// Samples the candidate entries at rate `tau` from here on, from a
    /// table seeded with `seed`: the positions a
    /// [`Memento`](memento_core::Memento) built with the same τ and seed
    /// samples from its `update_batch` calls.
    pub(crate) fn sample(&mut self, tau: f64, seed: u64) {
        let mut table = TableSampler::with_seed(tau, seed);
        let skip = table.next_skip();
        self.sampler = Some(Sampler { table, skip });
    }

    /// Fills `picks` with the indices, within a batch of `len` candidates,
    /// of the next ones to route from index `from` on, and returns how
    /// many it filled. Without a sampler every candidate is picked.
    /// Candidates are consumed up to the last pick, and up to `len` when
    /// fewer than `picks.len()` were picked. The global position does not
    /// move: the caller advances over the candidates it was not handed.
    pub(crate) fn pick(&mut self, from: usize, len: usize, picks: &mut [usize]) -> usize {
        let Some(sampler) = &mut self.sampler else {
            let n = picks.len().min(len - from);
            for (pick, i) in picks.iter_mut().zip(from..from + n) {
                *pick = i;
            }
            return n;
        };
        let (mut next, mut n) = (from, 0);
        while n < picks.len() {
            let remaining = (len - next) as u64;
            if sampler.skip >= remaining {
                sampler.skip -= remaining;
                break;
            }
            next += sampler.skip as usize;
            picks[n] = next;
            n += 1;
            next += 1;
            sampler.skip = sampler.table.next_skip();
        }
        n
    }

    /// Stamps `entry` with its gap since the shard's previous entry and
    /// buffers it at the next global position, growing a drained buffer
    /// back to `capacity_hint` up front (shipments hand the buffers to the
    /// workers, so capacity does not survive a shipment). Returns the
    /// shard's buffer length.
    pub(crate) fn push(&mut self, shard: usize, entry: T, capacity_hint: usize) -> usize {
        let buffer = &mut self.entries[shard];
        if buffer.capacity() == 0 {
            buffer.reserve(capacity_hint);
            self.gaps[shard].reserve(capacity_hint);
        }
        let position = self.routed + 1;
        self.gaps[shard].push(position - self.anchor[shard] - 1);
        buffer.push(entry);
        self.anchor[shard] = position;
        self.routed = position;
        buffer.len()
    }

    /// Takes everything the shard's worker must process to reach the
    /// current global position: its gap-stamped entries plus the trailing
    /// skip over the packets routed elsewhere after its last entry.
    /// Advances the shard's anchor; returns `None` when the shard is
    /// already at the global position with nothing buffered.
    #[allow(clippy::type_complexity)]
    pub(crate) fn take_shipment(&mut self, shard: usize) -> Option<(Vec<u64>, Vec<T>, u64)> {
        let entries = std::mem::take(&mut self.entries[shard]);
        let gaps = std::mem::take(&mut self.gaps[shard]);
        let tail = self.routed - self.anchor[shard];
        self.anchor[shard] = self.routed;
        if tail == 0 && entries.is_empty() {
            None
        } else {
            Some((gaps, entries, tail))
        }
    }

    /// Advances the global stream position over `n` packets that go to no
    /// shard: unsampled candidates, or packets observed outside the engine
    /// (callers ship pending buffers first so already-routed entries keep
    /// their pre-skip positions).
    pub(crate) fn advance(&mut self, n: u64) {
        self.routed += n;
    }

    /// Global positions routed since the last publication: zero means no
    /// shard has changed since.
    pub(crate) fn unpublished(&self) -> u64 {
        self.routed - self.published
    }

    /// Marks the current global position as published.
    pub(crate) fn mark_published(&mut self) {
        self.published = self.routed;
    }

    /// Panics, naming `caller`, unless the global stream position can move
    /// over every span in `spans` without passing `u64::MAX` — the check
    /// each engine entry point makes once, before any state changes, so
    /// that [`Self::push`] and [`Self::advance`] never overflow.
    pub(crate) fn assert_room(&self, spans: impl IntoIterator<Item = u64>, caller: &str) {
        let end = spans
            .into_iter()
            .try_fold(self.routed, |position, span| position.checked_add(span));
        assert!(end.is_some(), "{caller}: the stream position overflows u64");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_stamps_reconstruct_global_positions() {
        let mut router: Router<char> = Router::new(2);
        // Stream: a(s0) b(s1) c(s1) d(s0) — positions 1..=4.
        router.push(0, 'a', 8);
        router.push(1, 'b', 8);
        router.push(1, 'c', 8);
        router.push(0, 'd', 8);
        let (gaps, entries, tail) = router.take_shipment(0).unwrap();
        assert_eq!(entries, vec!['a', 'd']);
        assert_eq!(gaps, vec![0, 2]); // b and c went elsewhere before d
        assert_eq!(tail, 0); // d is the last global packet
        let (gaps, entries, tail) = router.take_shipment(1).unwrap();
        assert_eq!(entries, vec!['b', 'c']);
        assert_eq!(gaps, vec![1, 0]);
        assert_eq!(tail, 1); // d came after c
                             // Both shards are now anchored at position 4.
        assert!(router.take_shipment(0).is_none());
        assert!(router.take_shipment(1).is_none());
    }

    #[test]
    fn advance_becomes_the_next_shipment_tail() {
        let mut router: Router<u8> = Router::new(1);
        router.push(0, 9, 4);
        let _ = router.take_shipment(0);
        router.advance(7);
        let (gaps, entries, tail) = router.take_shipment(0).unwrap();
        assert!(entries.is_empty() && gaps.is_empty());
        assert_eq!(tail, 7);
        // A later entry is stamped relative to the advanced position.
        router.push(0, 1, 4);
        let (gaps, _, tail) = router.take_shipment(0).unwrap();
        assert_eq!(gaps, vec![0]);
        assert_eq!(tail, 0);
    }
}
