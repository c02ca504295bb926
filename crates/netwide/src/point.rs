//! Measurement points (the paper's "clients": the load balancers).
//!
//! A measurement point observes a share of the network's packets and
//! periodically reports to the controller, staying within the per-packet
//! bandwidth budget `B`:
//!
//! * **Sample / Batch** — sample each packet with probability
//!   `τ = B·b/(O+E·b)` and ship a report every `b` collected samples (so a
//!   report goes out once per `b·τ⁻¹` packets on average, exactly exhausting
//!   the budget).
//! * **Aggregation** — keep an exact summary of the point's share of the
//!   window (the idealization the paper grants this baseline) and ship a full
//!   snapshot whenever the accumulated byte credit can pay for it.

use std::hash::Hash;

use memento_sketches::{ExactWindow, TableSampler};

use crate::comm::CommMethod;
use crate::message::{Report, WireFormat};

/// A single measurement point.
#[derive(Debug, Clone)]
pub struct MeasurementPoint<T: Copy + Eq + Hash> {
    id: usize,
    method: CommMethod,
    wire: WireFormat,
    budget: f64,
    tau: f64,
    sampler: TableSampler,
    /// Samples collected since the last report (Sample/Batch).
    pending: Vec<T>,
    /// Packets observed since the last report.
    covered: u64,
    /// Exact counts of the point's share of the window (Aggregation only).
    local_window: Option<ExactWindow<T>>,
    /// Byte credit accumulated at `budget` bytes per packet (Aggregation).
    credit: f64,
    /// Total bytes this point has sent (for budget-compliance checks).
    bytes_sent: f64,
    /// Total packets this point has observed.
    packets_seen: u64,
}

impl<T: Copy + Eq + Hash> MeasurementPoint<T> {
    /// Creates a measurement point.
    ///
    /// * `id` — the point's identifier (echoed in its reports);
    /// * `method` — communication method;
    /// * `budget` — per-packet bandwidth budget `B` in bytes;
    /// * `wire` — wire format constants (`O`, `E`);
    /// * `local_window` — the point's share of the global window (used only
    ///   by Aggregation; the paper's global window of `W` packets spread over
    ///   `m` points gives `W/m` per point);
    /// * `seed` — RNG seed.
    pub fn new(
        id: usize,
        method: CommMethod,
        budget: f64,
        wire: WireFormat,
        local_window: usize,
        seed: u64,
    ) -> Self {
        assert!(budget > 0.0, "budget must be positive");
        let tau = method.tau_for_budget(budget, &wire);
        let local_window = match method {
            CommMethod::Aggregation => Some(ExactWindow::new(local_window.max(1))),
            _ => None,
        };
        MeasurementPoint {
            id,
            method,
            wire,
            budget,
            tau,
            sampler: TableSampler::with_seed(tau, seed.wrapping_add(id as u64)),
            pending: Vec::new(),
            covered: 0,
            local_window,
            credit: 0.0,
            bytes_sent: 0.0,
            packets_seen: 0,
        }
    }

    /// Number of counter entries shipped per Aggregation snapshot: the
    /// size of the per-client summary whose entries get transmitted.
    pub const DEFAULT_AGGREGATION_ENTRIES: usize = 4_096;

    /// The point's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The effective sampling probability τ of this point.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The communication method.
    pub fn method(&self) -> CommMethod {
        self.method
    }

    /// Total bytes sent so far.
    pub fn bytes_sent(&self) -> f64 {
        self.bytes_sent
    }

    /// Total packets observed so far.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Average bytes per observed packet (must stay ≤ the budget, up to the
    /// granularity of one report).
    pub fn bytes_per_packet(&self) -> f64 {
        if self.packets_seen == 0 {
            0.0
        } else {
            self.bytes_sent / self.packets_seen as f64
        }
    }

    /// Processes one observed packet; returns a report when one is emitted.
    pub fn process(&mut self, item: T) -> Option<Report<T>> {
        self.packets_seen += 1;
        self.covered += 1;
        let report = match self.method {
            CommMethod::Sample | CommMethod::Batch(_) => {
                if self.sampler.sample() {
                    self.pending.push(item);
                }
                if self.pending.len() >= self.method.batch_size().max(1) {
                    let samples = std::mem::take(&mut self.pending);
                    let covered = std::mem::take(&mut self.covered);
                    Some(Report::samples(self.id, covered, samples, &self.wire))
                } else {
                    None
                }
            }
            CommMethod::Aggregation => {
                let window = self
                    .local_window
                    .as_mut()
                    .expect("aggregation points keep a local window");
                window.add(item);
                self.credit += self.budget;
                // A snapshot ships the entries of the point's HH summary
                // (bounded, like the paper's per-client algorithm state),
                // not every distinct flow it ever saw.
                let entries = window.distinct().min(Self::DEFAULT_AGGREGATION_ENTRIES);
                let cost = self.wire.aggregation_bytes(entries);
                if self.credit >= cost {
                    self.credit -= cost;
                    let mut all: Vec<(T, u64)> = window.iter().map(|(k, c)| (*k, c)).collect();
                    all.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
                    all.truncate(Self::DEFAULT_AGGREGATION_ENTRIES);
                    let covered = std::mem::take(&mut self.covered);
                    Some(Report::aggregation(self.id, covered, all, &self.wire))
                } else {
                    None
                }
            }
        };
        if let Some(r) = &report {
            self.bytes_sent += r.bytes;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_method_reports_one_sample_at_a_time() {
        let wire = WireFormat::tcp_src();
        let mut p = MeasurementPoint::new(0, CommMethod::Sample, 1.0, wire, 0, 1);
        let mut reports = 0;
        for i in 0..50_000u32 {
            if let Some(r) = p.process(i) {
                assert_eq!(r.payload.len(), 1);
                assert!(r.covered_packets > 0);
                reports += 1;
            }
        }
        // tau = 1/68, so ~735 reports over 50k packets.
        assert!((600..900).contains(&reports), "reports = {reports}");
        // Budget compliance within one report of slack.
        assert!(
            p.bytes_per_packet() <= 1.1,
            "bpp = {}",
            p.bytes_per_packet()
        );
    }

    #[test]
    fn batch_method_reports_b_samples_and_respects_budget() {
        let wire = WireFormat::tcp_src();
        let b = 44;
        let mut p = MeasurementPoint::new(2, CommMethod::Batch(b), 1.0, wire, 0, 7);
        let mut total_samples = 0usize;
        for i in 0..200_000u32 {
            if let Some(r) = p.process(i) {
                assert_eq!(r.payload.len(), b);
                total_samples += r.payload.len();
            }
        }
        assert!(total_samples > 0);
        assert!(
            p.bytes_per_packet() <= 1.05,
            "budget exceeded: {}",
            p.bytes_per_packet()
        );
        // Batch's effective sampling rate must exceed Sample's for equal B.
        let sample_tau = CommMethod::Sample.tau_for_budget(1.0, &WireFormat::tcp_src());
        assert!(p.tau() > sample_tau);
    }

    #[test]
    fn aggregation_sends_snapshots_within_budget() {
        let wire = WireFormat::tcp_src();
        let mut p = MeasurementPoint::new(1, CommMethod::Aggregation, 1.0, wire, 1_000, 3);
        let mut snapshots = 0;
        for i in 0..20_000u32 {
            if let Some(r) = p.process(i % 50) {
                match r.payload {
                    crate::message::ReportPayload::Aggregation(ref entries) => {
                        assert!(!entries.is_empty());
                        // Counts are exact for the point's local window.
                        let total: u64 = entries.iter().map(|(_, c)| *c).sum();
                        assert!(total <= 1_000);
                    }
                    _ => panic!("aggregation point must send aggregation payloads"),
                }
                snapshots += 1;
            }
        }
        assert!(snapshots > 0, "no snapshot was ever affordable");
        assert!(
            p.bytes_per_packet() <= 1.05,
            "budget exceeded: {}",
            p.bytes_per_packet()
        );
    }

    #[test]
    fn covered_packets_sum_to_processed_packets() {
        let wire = WireFormat::tcp_src();
        let mut p = MeasurementPoint::new(0, CommMethod::Batch(10), 2.0, wire, 0, 5);
        let mut covered = 0u64;
        let n = 30_000u32;
        for i in 0..n {
            if let Some(r) = p.process(i) {
                covered += r.covered_packets;
            }
        }
        assert!(covered <= n as u64);
        // Whatever is not covered yet is still pending at the point.
        assert!(n as u64 - covered <= 20_000, "covered = {covered}");
    }
}
