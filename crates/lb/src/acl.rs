//! HAProxy-style access control lists keyed by source subnet.
//!
//! The paper extends HAProxy's ACLs so that mitigation can act on entire
//! subnets rather than individual flows: a rule maps a source prefix to an
//! action (Deny, Tarpit, or a rate limit). Lookup is longest-prefix-match, so
//! a more specific rule overrides a broader one: a /16 `RateLimit` inside a
//! /8 `Deny` rate-limits its own /16 while the rest of the /8 stays blocked.

use std::collections::HashMap;

use memento_core::{GrainMap, TimedWindow, WindowQuery};
use memento_hierarchy::prefix::BYTE_PREFIX_LENGTHS;
use memento_hierarchy::Prefix1D;
use memento_sketches::{ExactWindow, FastBuildHasher};

/// Grains per rate-limit window (PR 9): expiry granularity is
/// `window / 64` ticks, the same sub-window grain count Kong and
/// commcare-hq-style sliding rate limiters use.
const RATE_LIMIT_GRAINS: u64 = 64;

/// Action applied to a matching source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AclAction {
    /// Reject the request outright (HTTP 403 / connection reset).
    Deny,
    /// Keep the connection open and never answer (wastes attacker state).
    Tarpit,
    /// Allow at most `max_per_window` requests from the subnet per sliding
    /// window of `window` clock ticks (e.g. nanoseconds — a 5-second limit
    /// is `window: 5_000_000_000` under a nanosecond clock).
    RateLimit {
        /// Maximum admitted requests per window.
        max_per_window: u64,
        /// Window length in clock ticks.
        window: u64,
    },
}

/// A set of subnet ACL rules with longest-prefix-match lookup.
///
/// Rate-limit rules are enforced over a *sliding time window* (PR 9): each
/// rate-limited prefix keeps a [`TimedWindow`]-wrapped [`ExactWindow`] of
/// its admitted requests over the last `window` clock ticks, advanced to
/// the request's timestamp via the grain clock (whole-grain rotations of
/// the closed-form `skip(n)`, `RATE_LIMIT_GRAINS` grains per window) and
/// read through the [`WindowQuery`] surface — the same read-only trait the
/// measurement engines and snapshot readers answer. The per-grain position
/// budget equals `max_per_window`, so the rotation schedule can never fall
/// behind the admissions and an entry expires at most one grain late,
/// never early: a burst cannot over-admit in *any* `window`-tick span,
/// including spans straddling grain boundaries.
///
/// # Layout and lookup cost
/// The rules live in one map per byte-granular prefix length, in
/// [`BYTE_PREFIX_LENGTHS`] order (/32 first), each keyed by the masked
/// network address. [`matching_rule`](Self::matching_rule) walks the lengths
/// from most to least specific and probes only those that hold a rule, with
/// one hash of a `u32` each: a table of /8 rules costs one probe per
/// request, and an empty table none.
///
/// The maps hash with the workspace's unkeyed [`FastBuildHasher`]. Its
/// module restricts it to tables whose population is bounded by
/// construction, and this one qualifies: it holds only the installed rules
/// (the operator's, or the subnets the controller detected, which its
/// heavy-hitter threshold bounds), and a lookup never inserts. A source
/// address an attacker chooses can only probe the table, not grow it.
#[derive(Debug, Clone, Default)]
pub struct AclTable {
    /// Rules of each prefix length, indexed by [`Prefix1D::depth`] (the
    /// position of the length in [`BYTE_PREFIX_LENGTHS`]) and keyed by the
    /// masked address.
    rules: [HashMap<u32, AclAction, FastBuildHasher>; BYTE_PREFIX_LENGTHS.len()],
    /// Sliding record of admitted requests per rate-limited prefix, on the
    /// time plane: positions are admissions, ticks come from the caller's
    /// clock (or the internal one-tick-per-request clock).
    rate_windows: HashMap<Prefix1D, TimedWindow<Prefix1D, ExactWindow<Prefix1D>>>,
    /// Internal clock for the untimed [`evaluate`](Self::evaluate) path:
    /// advances one tick per evaluation, and never runs behind the newest
    /// timestamp seen by [`evaluate_at`](Self::evaluate_at).
    clock: u64,
}

/// Builds the per-prefix admission window for a rate-limit rule: `g`
/// effective grains over `window` ticks, with a per-grain position budget
/// equal to the full admission budget (so the schedule never falls behind
/// the positions consumed by admissions — see the [`AclTable`] docs).
fn rate_window(max_per_window: u64, window: u64) -> TimedWindow<Prefix1D, ExactWindow<Prefix1D>> {
    let ticks = window.max(1);
    let per_grain = max_per_window.max(1);
    // Probe the grain geometry first: the effective grain count depends
    // only on (ticks, grain target), not on the position budget.
    let grains = GrainMap::new(ticks, 1, RATE_LIMIT_GRAINS).grains();
    let positions = grains * per_grain;
    let inner = ExactWindow::new(positions as usize);
    TimedWindow::with_grains(inner, ticks, positions, grains)
}

impl AclTable {
    /// Creates an empty table (everything allowed).
    pub fn new() -> Self {
        AclTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.iter().map(HashMap::len).sum()
    }

    /// True when no rule is installed.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(HashMap::is_empty)
    }

    /// Installs (or replaces) a rule.
    ///
    /// Replacing a rule with a different action drops the prefix's
    /// rate-limit window: a new `RateLimit` starts with its full budget and
    /// its own window length, and a `Deny` or `Tarpit` keeps no window.
    /// Re-installing the identical action keeps the window, so the budget
    /// already spent stays spent.
    pub fn insert(&mut self, prefix: Prefix1D, action: AclAction) {
        if self.rules[prefix.depth()].insert(prefix.addr(), action) != Some(action) {
            self.rate_windows.remove(&prefix);
        }
    }

    /// Removes a rule; returns whether one existed.
    pub fn remove(&mut self, prefix: &Prefix1D) -> bool {
        self.rate_windows.remove(prefix);
        self.rules[prefix.depth()].remove(&prefix.addr()).is_some()
    }

    /// True when a rule exists for exactly this prefix.
    pub fn contains(&self, prefix: &Prefix1D) -> bool {
        self.rules[prefix.depth()].contains_key(&prefix.addr())
    }

    /// The installed rules (for inspection / synchronization).
    pub fn rules(&self) -> impl Iterator<Item = (Prefix1D, AclAction)> + '_ {
        BYTE_PREFIX_LENGTHS
            .iter()
            .zip(&self.rules)
            .flat_map(|(&len, rules)| {
                rules
                    .iter()
                    .map(move |(&addr, &action)| (Prefix1D::new(addr, len), action))
            })
    }

    /// Longest-prefix-match lookup of the rule covering `src`, if any: one
    /// probe per prefix length that holds a rule, most specific first.
    pub fn matching_rule(&self, src: u32) -> Option<(Prefix1D, AclAction)> {
        BYTE_PREFIX_LENGTHS
            .iter()
            .zip(&self.rules)
            .filter(|(_, rules)| !rules.is_empty())
            .find_map(|(&len, rules)| {
                let prefix = Prefix1D::new(src, len);
                rules.get(&prefix.addr()).map(|&action| (prefix, action))
            })
    }

    /// Evaluates a request from `src` arriving at clock tick `now`: returns
    /// the action to apply, or `None` when the request is admitted.
    /// Rate-limit rules admit up to their budget over the *sliding time
    /// window* ending at `now` and report `Some(RateLimit…)` for the
    /// excess. Non-monotone timestamps are clamped to the newest seen
    /// (the [`TimedWindow`] clock policy — never a panic).
    pub fn evaluate_at(&mut self, src: u32, now: u64) -> Option<AclAction> {
        self.clock = self.clock.max(now);
        let (prefix, action) = self.matching_rule(src)?;
        match action {
            AclAction::Deny | AclAction::Tarpit => Some(action),
            AclAction::RateLimit {
                max_per_window,
                window,
            } => {
                let win = self
                    .rate_windows
                    .entry(prefix)
                    .or_insert_with(|| rate_window(max_per_window, window));
                // Advance to the arrival time, then read through the same
                // query surface the measurement engines answer.
                let query: &dyn WindowQuery<Prefix1D> = win.query_at(now);
                let admit = query.estimate(&prefix) < max_per_window as f64;
                if admit {
                    // Record the admission at its arrival time; denied
                    // requests consume no window position.
                    win.record_at(prefix, now);
                    None
                } else {
                    Some(action)
                }
            }
        }
    }

    /// Evaluates a request without an external clock: each call advances the
    /// internal clock by one tick, so `window` behaves as a request count —
    /// the pre-PR 9 semantics, kept for callers without arrival timestamps.
    pub fn evaluate(&mut self, src: u32) -> Option<AclAction> {
        let now = self.clock + 1;
        self.evaluate_at(src, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn deny_blocks_the_whole_subnet() {
        let mut acl = AclTable::new();
        acl.insert(Prefix1D::new(addr(10, 0, 0, 0), 8), AclAction::Deny);
        assert_eq!(acl.evaluate(addr(10, 99, 1, 2)), Some(AclAction::Deny));
        assert_eq!(acl.evaluate(addr(11, 99, 1, 2)), None);
        assert_eq!(acl.len(), 1);
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut acl = AclTable::new();
        acl.insert(Prefix1D::new(addr(10, 0, 0, 0), 8), AclAction::Deny);
        acl.insert(Prefix1D::new(addr(10, 1, 0, 0), 16), AclAction::Tarpit);
        assert_eq!(acl.evaluate(addr(10, 1, 2, 3)), Some(AclAction::Tarpit));
        assert_eq!(acl.evaluate(addr(10, 2, 2, 3)), Some(AclAction::Deny));
        let (p, _) = acl.matching_rule(addr(10, 1, 9, 9)).unwrap();
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn rate_limit_admits_up_to_budget_per_window() {
        let mut acl = AclTable::new();
        acl.insert(
            Prefix1D::new(addr(20, 0, 0, 0), 8),
            AclAction::RateLimit {
                max_per_window: 3,
                window: 10,
            },
        );
        let mut admitted = 0;
        let mut limited = 0;
        for _ in 0..10 {
            match acl.evaluate(addr(20, 5, 5, 5)) {
                None => admitted += 1,
                Some(AclAction::RateLimit { .. }) => limited += 1,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(admitted, 3);
        assert_eq!(limited, 7);
        // Sliding window on the grain clock: expiry lands at most one grain
        // late (never early), so the 11th evaluation still covers the first
        // admission; by the 12th the slot has freed up.
        assert!(acl.evaluate(addr(20, 5, 5, 5)).is_some());
        assert_eq!(acl.evaluate(addr(20, 5, 5, 5)), None);
    }

    #[test]
    fn rate_limit_refills_after_idle_time() {
        // A real 5-second window under a nanosecond clock: a burst exhausts
        // the budget, and an idle gap longer than the window refills it
        // (through the wholesale-clear path of the timed window).
        let mut acl = AclTable::new();
        acl.insert(
            Prefix1D::new(addr(22, 0, 0, 0), 8),
            AclAction::RateLimit {
                max_per_window: 2,
                window: 5_000_000_000,
            },
        );
        let src = addr(22, 4, 4, 4);
        assert_eq!(acl.evaluate_at(src, 1_000), None);
        assert_eq!(acl.evaluate_at(src, 2_000), None);
        assert!(acl.evaluate_at(src, 3_000).is_some(), "budget exhausted");
        // Still inside the 5 s window: denied.
        assert!(acl.evaluate_at(src, 4_999_000_000).is_some());
        // 6.2 s after the burst: the whole window has rotated out.
        assert_eq!(acl.evaluate_at(src, 6_200_000_000), None);
    }

    #[test]
    fn non_monotone_timestamps_clamp_without_panicking() {
        let mut acl = AclTable::new();
        acl.insert(
            Prefix1D::new(addr(23, 0, 0, 0), 8),
            AclAction::RateLimit {
                max_per_window: 1,
                window: 1_000,
            },
        );
        let src = addr(23, 1, 1, 1);
        assert_eq!(acl.evaluate_at(src, 500), None);
        // A far-backward clock is clamped to the newest observation: the
        // window has not rotated, so the budget is still spent.
        assert!(acl.evaluate_at(src, 3).is_some());
        // Untimed evaluations keep ticking from the newest timestamp.
        assert!(acl.evaluate(src).is_some());
    }

    #[test]
    fn rate_limit_window_slides_instead_of_tumbling() {
        // A burst straddling what used to be a tumbling-window boundary must
        // not get double budget: with max 2 per 6-request window, 12
        // back-to-back requests admit at most 2 in ANY 6-request span.
        let mut acl = AclTable::new();
        acl.insert(
            Prefix1D::new(addr(21, 0, 0, 0), 8),
            AclAction::RateLimit {
                max_per_window: 2,
                window: 6,
            },
        );
        let admissions: Vec<bool> = (0..12)
            .map(|_| acl.evaluate(addr(21, 1, 1, 1)).is_none())
            .collect();
        for span in admissions.windows(6) {
            let in_span = span.iter().filter(|&&a| a).count();
            assert!(
                in_span <= 2,
                "over-admission in a sliding span: {admissions:?}"
            );
        }
        assert_eq!(admissions.iter().filter(|&&a| a).count(), 4);
    }

    #[test]
    fn remove_restores_access() {
        let mut acl = AclTable::new();
        let p = Prefix1D::new(addr(30, 0, 0, 0), 8);
        acl.insert(p, AclAction::Deny);
        assert!(acl.contains(&p));
        assert!(acl.remove(&p));
        assert!(!acl.remove(&p));
        assert_eq!(acl.evaluate(addr(30, 1, 1, 1)), None);
        assert!(acl.is_empty());
    }

    #[test]
    fn rules_iterator_exposes_all_rules() {
        let mut acl = AclTable::new();
        acl.insert(Prefix1D::new(addr(1, 0, 0, 0), 8), AclAction::Deny);
        acl.insert(Prefix1D::new(addr(2, 0, 0, 0), 8), AclAction::Tarpit);
        assert_eq!(acl.rules().count(), 2);
    }

    #[test]
    fn replacing_a_rate_limit_starts_a_fresh_window() {
        let mut acl = AclTable::new();
        let p = Prefix1D::new(addr(24, 0, 0, 0), 8);
        let src = addr(24, 1, 1, 1);
        acl.insert(
            p,
            AclAction::RateLimit {
                max_per_window: 1,
                window: 1_000,
            },
        );
        assert_eq!(acl.evaluate_at(src, 100), None);
        // The replacement counts over 10 ticks, so a request 50 ticks after
        // the last admission gets in: the old 1,000-tick window went with
        // the old rule.
        acl.insert(
            p,
            AclAction::RateLimit {
                max_per_window: 1,
                window: 10,
            },
        );
        assert_eq!(acl.evaluate_at(src, 150), None);
        assert!(acl.evaluate_at(src, 155).is_some(), "new budget spent");
        assert_eq!(acl.evaluate_at(src, 170), None, "new window slid past");
        // A Deny that replaces the rate limit keeps no window behind.
        acl.insert(p, AclAction::Deny);
        assert_eq!(acl.evaluate_at(src, 171), Some(AclAction::Deny));
        assert!(acl.rate_windows.is_empty());
    }

    #[test]
    fn identical_reinsert_keeps_the_spent_budget() {
        let mut acl = AclTable::new();
        let p = Prefix1D::new(addr(25, 0, 0, 0), 8);
        let limit = AclAction::RateLimit {
            max_per_window: 1,
            window: 1_000,
        };
        let src = addr(25, 1, 1, 1);
        acl.insert(p, limit);
        assert_eq!(acl.evaluate_at(src, 100), None);
        acl.insert(p, limit);
        assert_eq!(acl.evaluate_at(src, 150), Some(limit));
        assert_eq!(acl.len(), 1);
    }
}
