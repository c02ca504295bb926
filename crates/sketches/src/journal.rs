//! The change journal behind incremental snapshot publication.
//!
//! [`CompactMap`](crate::CompactMap) and
//! [`SpaceSaving`](crate::SpaceSaving) each own an optional
//! `Journal` that records, between two drains, which slots changed and
//! which keys left the table, so a consumer (Memento's `freeze_patch`)
//! re-reads only those instead of the whole table. Owners box it behind an
//! `Option`: a table that never publishes pays one null check per write.

/// Changes recorded between two drains: one dirty bit per slot, the keys
/// that left the table, and a wholesale flag that suspends both until the
/// next drain.
#[derive(Debug, Clone)]
pub(crate) struct Journal<K> {
    /// One bit per slot: the slot's payload changed since the last drain.
    /// Sized by the drain, so it is empty until the first one.
    dirty: Vec<u64>,
    /// Keys that left the table since the last drain. A departed key may
    /// have come back since; consumers check the live table.
    departed: Vec<K>,
    /// Slot identity was invalidated wholesale: per-slot tracking is
    /// suspended and the next drain reports a rebuild.
    rebuild: bool,
}

/// What a journal recorded between two drains, as the owners'
/// `drain_journal` methods return it. When `rebuild` is set the slot and
/// key lists are empty and the consumer must re-read the whole table.
#[derive(Debug)]
pub struct JournalDrain<K> {
    /// Slot identity was invalidated wholesale (a clear, a resize, or the
    /// journal's first drain); rebuild instead of patching.
    pub rebuild: bool,
    /// Slots whose payload changed, ascending. A listed slot may be empty
    /// now; read it through the owner's `slot_entry`.
    pub dirty_slots: Vec<usize>,
    /// Keys that left the table (possibly back since; check the live table
    /// before treating one as gone).
    pub departed: Vec<K>,
}

impl<K> Journal<K> {
    /// A journal whose first drain reports a rebuild.
    pub(crate) fn new() -> Self {
        Journal {
            dirty: Vec::new(),
            departed: Vec::new(),
            rebuild: true,
        }
    }

    /// Records `slot` as changed; a pending rebuild supersedes it.
    #[inline]
    pub(crate) fn mark(&mut self, slot: usize) {
        if !self.rebuild {
            self.dirty[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Records that `key` left the table, taking the owned key the removal
    /// freed; a pending rebuild supersedes it.
    #[inline]
    pub(crate) fn depart(&mut self, key: K) {
        if !self.rebuild {
            self.departed.push(key);
        }
    }

    /// Suspends per-slot tracking until the next drain: slot identity was
    /// invalidated wholesale.
    pub(crate) fn invalidate(&mut self) {
        self.rebuild = true;
        self.departed.clear();
        self.dirty.clear();
    }

    /// Takes everything recorded and resets the journal to clean over a
    /// table of `slots` slots.
    pub(crate) fn drain(&mut self, slots: usize) -> JournalDrain<K> {
        let mut dirty_slots = Vec::new();
        if !self.rebuild {
            for (w, &word) in self.dirty.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    dirty_slots.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        let drained = JournalDrain {
            rebuild: self.rebuild,
            dirty_slots,
            departed: std::mem::take(&mut self.departed),
        };
        self.dirty.clear();
        self.dirty.resize(slots.div_ceil(64), 0);
        self.rebuild = false;
        drained
    }
}
