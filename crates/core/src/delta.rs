//! Incremental snapshot publication (PR 8): the delta types behind
//! [`WindowQuery::freeze_delta`].
//!
//! A full freeze costs O(k) per shard per publication, however little
//! changed. This module makes snapshot maintenance proportional to the
//! **update delta** instead:
//!
//! * [`WindowPatch`] — what one shard reports per epoch: the tracked flows
//!   whose estimate (or tie-breaking rank) changed since the previous
//!   freeze, the flows that stopped being tracked, and the scalar state
//!   (untracked estimate, stream position, error bound). A patch can also
//!   demand a full `rebuild` when slot identity was invalidated wholesale
//!   (frame flush, table resize, first freeze).
//! * [`DeltaWindow`] — the workspace's one frozen flow view: an
//!   [`Arc`]-shared `key → (estimate, rank)` table plus the frozen scalars,
//!   answering [`WindowQuery`] bit-for-bit like the live instance whose
//!   patches it applied. `clone` is one `Arc` bump; [`DeltaWindow::apply`]
//!   patches the table in place when this view is the only owner and falls
//!   back to a copy-on-write clone when a published snapshot still shares
//!   it.
//!
//! The sharded engine (`memento-shard`) keeps the in-place path the common
//! case: it rotates each shard through two views beside its one published
//! snapshot, so the view a publication patches is the one that snapshot
//! does not hold.
//!
//! **Why ranks?** Live `heavy_hitters` implementations stable-sort their
//! internal traversal order by descending estimate, so ties resolve by
//! traversal position. A delta consumer never sees the full traversal —
//! only changed entries — so each entry carries its traversal position as
//! an explicit `rank`; sorting by `(estimate desc, rank asc)` then
//! reproduces the live stable order exactly, which is what keeps
//! delta-published snapshots bit-for-bit identical to the live answers.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use memento_sketches::fasthash::FastBuildHasher;

use crate::query::WindowQuery;

/// The changes one shard's estimator accumulated between two
/// [`freeze_delta`](crate::WindowQuery::freeze_delta) calls.
///
/// `updated` and `removed` are disjoint: a key re-inserted after a removal
/// appears only in `updated`. When `rebuild` is set, `updated` holds the
/// *complete* tracked set (ranks included) and `removed` is empty — the
/// consumer replaces its state instead of patching it.
#[derive(Debug, Clone)]
pub struct WindowPatch<K> {
    /// Replace, don't patch: slot identity was invalidated wholesale since
    /// the last freeze (first freeze, frame flush, table resize).
    pub rebuild: bool,
    /// Tracked flows whose `(estimate, rank)` changed — or, under
    /// `rebuild`, every tracked flow. `rank` is the flow's position in the
    /// live instance's canonical enumeration (see the module docs).
    pub updated: Vec<(K, f64, u64)>,
    /// Flows tracked at the previous freeze but not anymore.
    pub removed: Vec<K>,
    /// Estimate reported for flows outside the tracked set, captured at
    /// freeze time.
    pub untracked: f64,
    /// Stream position at freeze time.
    pub processed: u64,
    /// Error bound of the frozen configuration.
    pub error_bound: f64,
}

impl<K> WindowPatch<K> {
    /// A full-rebuild patch from a complete `heavy_hitters(0.0)`
    /// enumeration (already in canonical descending order, so the
    /// enumeration index is a faithful rank).
    pub fn rebuild(
        entries: Vec<(K, f64)>,
        untracked: f64,
        processed: u64,
        error_bound: f64,
    ) -> Self {
        WindowPatch {
            rebuild: true,
            updated: entries
                .into_iter()
                .enumerate()
                .map(|(i, (k, est))| (k, est, i as u64))
                .collect(),
            removed: Vec::new(),
            untracked,
            processed,
            error_bound,
        }
    }
}

/// The entry table behind a [`DeltaWindow`]: keyed by the fast
/// multiply–rotate hash the rest of the workspace uses (SipHash would
/// dominate patch replay).
type EntryMap<K> = HashMap<K, (f64, u64), FastBuildHasher>;

/// A publishable view of one shard: `key → (estimate, rank)` plus the
/// frozen scalars, kept up to date by [`Self::apply`]-ing each epoch's
/// [`WindowPatch`].
///
/// * `clone` is O(1) (one `Arc` bump plus scalar copies), which is what
///   lets every publication stamp a fresh merged snapshot without copying
///   per-entry state;
/// * [`Self::apply`] mutates the table **in place** when this view is the
///   table's only owner (the steady state under the sharded engine's view
///   rotation) and degrades to a copy-on-write clone — never wrong, just
///   slower — when a published snapshot still shares it;
/// * answers [`WindowQuery`] bit-for-bit like the live instance whose
///   patches it applied (see the module docs for the rank argument);
/// * the descending entry order behind [`heavy_hitters`](WindowQuery::heavy_hitters)
///   is computed lazily on first query and shared by every clone taken
///   before the next `apply` — an untouched shard re-sorts nothing.
#[derive(Debug, Clone)]
pub struct DeltaWindow<K> {
    name: &'static str,
    entries: Arc<EntryMap<K>>,
    untracked: f64,
    processed: u64,
    error_bound: f64,
    /// Lazily-built canonical order: `(estimate desc, rank asc)`. Replaced
    /// (not cleared) on `apply` so published clones keep their own cache.
    sorted: Arc<OnceLock<Vec<(K, f64)>>>,
}

impl<K: Eq + Hash + Clone> DeltaWindow<K> {
    /// An empty window: what a reader sees before anything was published.
    pub fn empty(name: &'static str) -> Self {
        DeltaWindow {
            name,
            entries: Arc::new(EntryMap::default()),
            untracked: 0.0,
            processed: 0,
            error_bound: 0.0,
            sorted: Arc::new(OnceLock::new()),
        }
    }

    /// Applies one epoch's patch. In-place hash-table writes — O(changes) —
    /// when this view solely owns its table; a shared table (a published
    /// clone still alive) is copied first, O(tracked), which the sharded
    /// engine's view rotation makes the rare case. A rebuild never copies:
    /// it clears a table it owns and starts a fresh one otherwise, and
    /// sizes the table for the patch before the first insert, so a view's
    /// first rebuild does not grow it by doubling.
    pub fn apply(&mut self, patch: &WindowPatch<K>) {
        if patch.rebuild && Arc::get_mut(&mut self.entries).is_none() {
            // A published clone shares the table: start a fresh one instead
            // of copying entries the rebuild would clear.
            let fresh = EntryMap::with_capacity_and_hasher(patch.updated.len(), FastBuildHasher);
            self.entries = Arc::new(fresh);
        }
        let entries = Arc::make_mut(&mut self.entries);
        if patch.rebuild {
            entries.clear();
            entries.reserve(patch.updated.len());
        }
        for (key, estimate, rank) in &patch.updated {
            entries.insert(key.clone(), (*estimate, *rank));
        }
        for key in &patch.removed {
            entries.remove(key);
        }
        self.untracked = patch.untracked;
        self.processed = patch.processed;
        self.error_bound = patch.error_bound;
        self.sorted = Arc::new(OnceLock::new());
    }

    /// Number of tracked flows.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// The canonical descending enumeration, built on first use.
    fn sorted_entries(&self) -> &[(K, f64)] {
        self.sorted.get_or_init(|| {
            let mut all: Vec<(&K, f64, u64)> = self
                .entries
                .iter()
                .map(|(k, &(est, rank))| (k, est, rank))
                .collect();
            all.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("estimates are never NaN")
                    .then(a.2.cmp(&b.2))
            });
            all.into_iter()
                .map(|(k, est, _)| (k.clone(), est))
                .collect()
        })
    }
}

impl<K: Eq + Hash + Clone> WindowQuery<K> for DeltaWindow<K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn estimate(&self, key: &K) -> f64 {
        self.entries
            .get(key)
            .map(|&(est, _)| est)
            .unwrap_or(self.untracked)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.sorted_entries()
            .iter()
            .filter(|(_, est)| *est >= threshold)
            .cloned()
            .collect()
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }

    fn untracked_estimate(&self) -> f64 {
        self.untracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_window_applies_patches_and_answers_queries() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        assert_eq!(w.processed(), 0);
        assert_eq!(w.estimate(&1), 0.0);
        w.apply(&WindowPatch::rebuild(
            vec![(1, 10.0), (2, 5.0), (3, 5.0)],
            1.5,
            100,
            4.0,
        ));
        assert_eq!(w.estimate(&1), 10.0);
        assert_eq!(w.estimate(&99), 1.5, "untracked estimate");
        assert_eq!(w.heavy_hitters(5.0), vec![(1, 10.0), (2, 5.0), (3, 5.0)]);
        assert_eq!(w.heavy_hitters(6.0), vec![(1, 10.0)]);
        // Patch: 3 overtakes on estimate; 2 leaves the tracked set.
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(3, 12.0, 2)],
            removed: vec![2],
            untracked: 2.0,
            processed: 150,
            error_bound: 4.0,
        });
        assert_eq!(w.heavy_hitters(0.0), vec![(3, 12.0), (1, 10.0)]);
        assert_eq!(w.estimate(&2), 2.0, "removed key falls to untracked");
        assert_eq!(w.processed(), 150);
        assert_eq!(w.tracked(), 2);
    }

    #[test]
    fn delta_window_rank_breaks_estimate_ties_like_a_stable_sort() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        // Ranks deliberately delivered out of order: the sort must order
        // equal estimates by ascending rank, not arrival order.
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(30, 7.0, 30), (10, 7.0, 10), (20, 7.0, 20)],
            removed: vec![],
            untracked: 0.0,
            processed: 3,
            error_bound: 0.0,
        });
        assert_eq!(w.heavy_hitters(0.0), vec![(10, 7.0), (20, 7.0), (30, 7.0)]);
    }

    #[test]
    fn delta_window_clone_is_independent_after_apply() {
        let mut w: DeltaWindow<u64> = DeltaWindow::empty("test");
        w.apply(&WindowPatch::rebuild(vec![(1, 3.0)], 0.0, 10, 0.0));
        let published = w.clone();
        let _ = published.heavy_hitters(0.0); // warm the shared sort cache
        w.apply(&WindowPatch {
            rebuild: false,
            updated: vec![(2, 9.0, 1)],
            removed: vec![],
            untracked: 0.0,
            processed: 20,
            error_bound: 0.0,
        });
        assert_eq!(published.heavy_hitters(0.0), vec![(1, 3.0)]);
        assert_eq!(w.heavy_hitters(0.0), vec![(2, 9.0), (1, 3.0)]);
        assert_eq!(published.processed(), 10);
        assert_eq!(w.processed(), 20);
    }
}
