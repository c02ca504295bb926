//! bb-timed: the backbone trace at recorded timestamps through the time
//! plane.

use memento_bench::gate::Json;
use memento_bench::{on_arrival_rmse_timed, stamp_bursty_then_diurnal};
use memento_core::{Memento, TimedWindow, WindowQuery};
use memento_traces::{ArrivalModel, TraceGenerator, TracePreset};

use super::{digest, hh_digest, Bench, COUNTERS, PROBE_EVERY};
use crate::drive::{Engine, Spec, CHUNK};
use crate::ladder::{time_pass, Pass};
use crate::sketch::{SketchConfig, SketchStack};
use crate::{Checks, Scale};

/// Grains of the time window (the load balancer's resolution too).
const GRAINS: u64 = 64;

/// Mean inter-arrival gap inside a flood, in ns; the time window spans this
/// gap times `W`.
const FLOOD_GAP_NANOS: u64 = 100;

/// The backbone trace stamped with idle-gap floods, then a diurnal
/// rotation, scaled to window `W`: floods of W/4 packets at the provisioned
/// rate separated by idle gaps of two windows (each clears the ring
/// wholesale), then the provisioned rate alternating with a sixteenth of it
/// every W/2 packets.
fn bb_arrivals(packets: usize, window: u64, seed: u64) -> Vec<(u64, u64)> {
    let packets = TraceGenerator::new(TracePreset::backbone(), seed).generate(packets);
    let window_ticks = FLOOD_GAP_NANOS * window;
    let bursty = ArrivalModel::Bursty {
        burst_len: (window / 4).max(1),
        flood_gap_nanos: FLOOD_GAP_NANOS,
        idle_nanos: 2 * window_ticks,
    };
    let diurnal = ArrivalModel::Diurnal {
        fast_gap_nanos: FLOOD_GAP_NANOS,
        slow_gap_nanos: 16 * FLOOD_GAP_NANOS,
        period: (window / 2).max(1),
    };
    stamp_bursty_then_diurnal(&packets, bursty, diurnal, seed)
}

/// bb-timed: `TimedWindow<Memento>` at τ = 1 fed by `record_timed`.
pub(super) struct BbTimed {
    arrivals: Vec<(u64, u64)>,
    keys: Vec<u64>,
    window: usize,
    warm: usize,
    seed: u64,
}

type Timed = TimedWindow<u64, Memento<u64>>;

impl Engine for Timed {
    type Item = (u64, u64);
    const INGEST: &'static str = "time.record_timed";
    const READ: &'static str = "time.estimate";

    fn ingest(&mut self, chunk: &[(u64, u64)]) {
        self.record_timed(chunk);
    }

    fn read(&mut self, &(_, key): &(u64, u64)) -> f64 {
        self.estimate(&key)
    }

    fn finish(&mut self) -> u64 {
        self.position()
    }
}

/// What a bb-timed repetition leaves behind.
#[derive(Debug, PartialEq)]
pub(super) struct BbSummary {
    /// Wholesale clears of the ring by idle gaps.
    clears: u64,
    /// Timestamps clamped by the grain clock.
    clamped: u64,
    heavy_hitters: u64,
}

impl BbTimed {
    pub(super) fn new(scale: &Scale, seed: u64) -> Self {
        let arrivals = bb_arrivals(scale.bb_packets, scale.bb_window as u64, seed);
        let keys = arrivals.iter().map(|&(_, k)| k).collect();
        BbTimed {
            arrivals,
            keys,
            window: scale.bb_window,
            warm: 2 * scale.bb_window,
            seed,
        }
    }

    fn timed_window(&self, seed: u64) -> Timed {
        let w = self.window as u64;
        TimedWindow::with_grains(
            Memento::new(COUNTERS, self.window, 1.0, seed),
            FLOOD_GAP_NANOS * w,
            w,
            GRAINS,
        )
    }
}

impl Spec for BbTimed {
    type Engine = Timed;
    type Summary = BbSummary;

    fn setup(&self) -> Timed {
        let mut timed = self.timed_window(self.seed);
        for chunk in self.arrivals[..self.warm].chunks(CHUNK) {
            timed.record_timed(chunk);
        }
        timed
    }

    fn timed(&self) -> &[(u64, u64)] {
        &self.arrivals[self.warm..]
    }

    /// The wrapper's position counts records plus the grain clock's
    /// rotations; the inner sketch must agree with it, and it must cover
    /// every record.
    fn check(&self, timed: &mut Timed, position: u64, checks: &mut Checks) {
        let inner = timed.inner().processed();
        checks.check(inner == position, || {
            format!("the sketch is at position {inner}, its time window at {position}")
        });
        checks.check(position >= self.arrivals.len() as u64, || {
            format!(
                "position {position} is behind the {} records fed",
                self.arrivals.len()
            )
        });
    }

    fn summarize(&self, timed: &mut Timed) -> BbSummary {
        BbSummary {
            clears: timed.whole_window_advances(),
            clamped: timed.clock().clamped(),
            heavy_hitters: hh_digest(timed.inner(), self.window),
        }
    }

    fn space_bytes(&self, timed: &mut Timed) -> usize {
        timed.inner().space_bytes()
    }
}

impl Bench for BbTimed {
    fn sketch(&self) -> SketchStack<'_> {
        SketchStack::new(
            &self.keys,
            self.warm,
            SketchConfig {
                counters: COUNTERS,
                window: self.window,
                tau: 1.0,
                seed: self.seed,
                positioned: false,
            },
        )
    }

    /// `record_timed` without reads, over the same arrivals whose bare keys
    /// the Memento rung below batches.
    fn plane(&self) -> Pass {
        let mut timed = self.setup();
        time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                timed.record_timed(chunk);
            }
            timed.position()
        })
    }

    /// On-arrival RMSE against the exact time-window oracle over the whole
    /// input.
    fn rmse(&self, _: &BbSummary) -> f64 {
        on_arrival_rmse_timed(
            &mut self.timed_window(self.seed),
            &self.arrivals,
            PROBE_EVERY,
        )
        .value()
    }

    fn details(&self, summary: &BbSummary) -> Vec<(String, Json)> {
        vec![
            (
                "wholesale_clears".to_string(),
                Json::Num(summary.clears as f64),
            ),
            ("clamped".to_string(), Json::Num(summary.clamped as f64)),
        ]
    }

    fn input_digest(&self) -> u64 {
        digest(&self.arrivals)
    }
}
