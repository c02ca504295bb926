//! The three measurement disciplines of §3 (Figure 1).
//!
//! All three detectors are *exact* (the paper's §3 argues with accurate
//! measurements; the conclusions carry over to approximate ones). They track
//! a single target flow and report, after each processed packet, whether the
//! flow is currently identified as a heavy hitter:
//!
//! * [`WindowDetector`] — the sliding-window discipline: the flow is reported
//!   as soon as its frequency within the last `W` packets reaches `θ·W`.
//!   By definition this is the optimal detection point.
//! * [`ImprovedIntervalDetector`] — the *improved Interval* discipline: the
//!   stream is cut into back-to-back intervals of `W` packets, frequencies
//!   are estimated on every packet but only count packets since the interval
//!   started.
//! * [`IntervalDetector`] — the plain *Interval* discipline: measurement data
//!   only becomes available at the end of each interval (the usage pattern of
//!   sampling-based systems that need time to converge).

use std::hash::Hash;

use memento_sketches::{ExactInterval, ExactWindow};

/// A detection discipline tracking one target flow.
pub trait Detector<K> {
    /// Processes one packet and returns whether the target flow is currently
    /// reported as a heavy hitter.
    fn process(&mut self, key: K) -> bool;

    /// The name of the discipline (used in bench output).
    fn name(&self) -> &'static str;
}

/// Sliding-window detection (optimal detection time by definition).
#[derive(Debug, Clone)]
pub struct WindowDetector<K: Eq + Hash + Clone> {
    window: ExactWindow<K>,
    target: K,
    threshold: u64,
}

impl<K: Eq + Hash + Clone> WindowDetector<K> {
    /// Creates a detector for `target` with window `W` and threshold `θ·W`
    /// packets.
    pub fn new(window: usize, target: K, threshold: u64) -> Self {
        WindowDetector {
            window: ExactWindow::new(window),
            target,
            threshold,
        }
    }
}

impl<K: Eq + Hash + Clone> Detector<K> for WindowDetector<K> {
    fn process(&mut self, key: K) -> bool {
        self.window.add(key);
        self.window.query(&self.target) >= self.threshold
    }

    fn name(&self) -> &'static str {
        "window"
    }
}

/// Improved-Interval detection: per-packet estimates, interval-scoped counts.
#[derive(Debug, Clone)]
pub struct ImprovedIntervalDetector<K: Eq + Hash + Clone> {
    counts: ExactInterval<K>,
    interval: usize,
    position: usize,
    target: K,
    threshold: u64,
}

impl<K: Eq + Hash + Clone> ImprovedIntervalDetector<K> {
    /// Creates a detector with interval length `interval` (the paper uses the
    /// window size `W`) and threshold in packets.
    pub fn new(interval: usize, target: K, threshold: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        ImprovedIntervalDetector {
            counts: ExactInterval::new(),
            interval,
            position: 0,
            target,
            threshold,
        }
    }
}

impl<K: Eq + Hash + Clone> Detector<K> for ImprovedIntervalDetector<K> {
    fn process(&mut self, key: K) -> bool {
        self.counts.add(key);
        self.position += 1;
        let detected = self.counts.query(&self.target) >= self.threshold;
        if self.position == self.interval {
            self.counts.reset();
            self.position = 0;
        }
        detected
    }

    fn name(&self) -> &'static str {
        "improved-interval"
    }
}

/// Plain Interval detection: results only materialize at interval boundaries
/// and stay in force until the next boundary.
#[derive(Debug, Clone)]
pub struct IntervalDetector<K: Eq + Hash + Clone> {
    counts: ExactInterval<K>,
    interval: usize,
    position: usize,
    target: K,
    threshold: u64,
    reported: bool,
}

impl<K: Eq + Hash + Clone> IntervalDetector<K> {
    /// Creates a detector with interval length `interval` and threshold in
    /// packets.
    pub fn new(interval: usize, target: K, threshold: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        IntervalDetector {
            counts: ExactInterval::new(),
            interval,
            position: 0,
            target,
            threshold,
            reported: false,
        }
    }
}

impl<K: Eq + Hash + Clone> Detector<K> for IntervalDetector<K> {
    fn process(&mut self, key: K) -> bool {
        self.counts.add(key);
        self.position += 1;
        if self.position == self.interval {
            // The measurement becomes available now and remains the reported
            // state for the whole next interval.
            self.reported = self.counts.query(&self.target) >= self.threshold;
            self.counts.reset();
            self.position = 0;
        }
        self.reported
    }

    fn name(&self) -> &'static str {
        "interval"
    }
}

/// Runs a detector over a packet stream and returns the index (0-based, in
/// packets) of the first packet at which the target is reported, or `None`.
/// This is the *only* detection driver in the workspace: every discipline
/// goes through it.
pub fn detection_index<K, D, I>(detector: &mut D, stream: I) -> Option<usize>
where
    D: Detector<K> + ?Sized,
    I: IntoIterator<Item = K>,
{
    for (i, key) in stream.into_iter().enumerate() {
        if detector.process(key) {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream: `start` background packets, then the new flow
    /// takes exactly every `1/fraction`-th slot.
    fn stream(total: usize, start: usize, period: usize) -> Vec<u64> {
        (0..total)
            .map(|i| {
                if i >= start && (i - start).is_multiple_of(period) {
                    1 // the emerging heavy hitter
                } else {
                    1_000_000 + i as u64 // all-distinct background
                }
            })
            .collect()
    }

    #[test]
    fn window_detects_at_the_optimal_point() {
        let w = 1_000;
        let threshold = 100; // theta = 0.1
                             // New flow takes every 5th packet (20% > 10%) starting at 2_500.
        let s = stream(10_000, 2_500, 5);
        let mut det = WindowDetector::new(w, 1u64, threshold);
        let idx = detection_index(&mut det, s).expect("must detect");
        // Optimal: needs 100 occurrences at 1 per 5 packets -> ~500 packets
        // after appearance.
        assert!(
            (2_995..=3_010).contains(&idx),
            "window detection at {idx}, expected ~2999"
        );
    }

    #[test]
    fn improved_interval_is_no_earlier_than_window() {
        let w = 1_000;
        let threshold = 100;
        let s = stream(10_000, 2_500, 5);
        let mut win = WindowDetector::new(w, 1u64, threshold);
        let mut imp = ImprovedIntervalDetector::new(w, 1u64, threshold);
        let widx = detection_index(&mut win, s.clone()).unwrap();
        let iidx = detection_index(&mut imp, s).unwrap();
        assert!(
            iidx >= widx,
            "improved interval ({iidx}) beat the window ({widx})"
        );
    }

    #[test]
    fn interval_is_the_slowest_and_detects_only_at_boundaries() {
        let w = 1_000;
        let threshold = 100;
        let s = stream(10_000, 2_500, 5);
        let mut imp = ImprovedIntervalDetector::new(w, 1u64, threshold);
        let mut plain = IntervalDetector::new(w, 1u64, threshold);
        let iidx = detection_index(&mut imp, s.clone()).unwrap();
        let pidx = detection_index(&mut plain, s).unwrap();
        assert!(
            pidx >= iidx,
            "plain interval ({pidx}) beat improved ({iidx})"
        );
        // Plain interval reports exactly at an interval boundary.
        assert_eq!(
            (pidx + 1) % w,
            0,
            "plain interval detected mid-interval at {pidx}"
        );
    }

    #[test]
    fn no_detection_when_flow_stays_below_threshold() {
        let w = 1_000;
        let threshold = 300; // 30%, but the flow only has 20%
        let s = stream(8_000, 0, 5);
        let mut det = WindowDetector::new(w, 1u64, threshold);
        assert_eq!(detection_index(&mut det, s), None);
    }

    #[test]
    fn detection_driver_accepts_trait_objects() {
        let w = 500;
        let s = stream(5_000, 1_000, 4);
        let mut det = WindowDetector::new(w, 1u64, 50);
        let dyn_det: &mut dyn Detector<u64> = &mut det;
        assert!(detection_index(dyn_det, s).is_some());
    }

    #[test]
    fn detector_names_are_distinct() {
        let w: WindowDetector<u64> = WindowDetector::new(10, 1, 1);
        let i: IntervalDetector<u64> = IntervalDetector::new(10, 1, 1);
        let imp: ImprovedIntervalDetector<u64> = ImprovedIntervalDetector::new(10, 1, 1);
        let names = [w.name(), i.name(), imp.name()];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
