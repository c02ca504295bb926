//! The closed-loop driver every workload shares.
//!
//! The producer feeds the timed part of the input in chunks of [`CHUNK`]
//! items. After every [`READ_EVERY`] chunks it reads back the estimates of
//! the [`READS`] most recently fed keys as one timed group (reads beside
//! writes), and after every [`PUBLISH_EVERY`] chunks it lets the engine
//! publish (only the sharded engine does). The timed region ends with the
//! engine's drain barrier, so work still queued inside the engine counts.

use std::time::{Duration, Instant};

use crate::ladder::{round_robin, Pass, Rung};
use crate::trace::Tracer;
use crate::Checks;

/// Items per ingest call (a NIC-burst-like unit, as in the perf gate).
pub const CHUNK: usize = 4_096;

/// Chunks between two read groups.
pub const READ_EVERY: usize = 8;

/// Estimates per read group.
pub const READS: usize = 32;

/// Chunks between two publications.
pub const PUBLISH_EVERY: usize = 64;

/// A workload's engine after set-up, as the driver sees it.
pub trait Engine {
    /// One input item.
    type Item;
    /// Span name of [`Self::ingest`].
    const INGEST: &'static str;
    /// Span name of one read group.
    const READ: &'static str;
    /// Span name of [`Self::publish`].
    const PUBLISH: &'static str = "publish";

    /// Feeds one chunk.
    fn ingest(&mut self, chunk: &[Self::Item]);

    /// The engine's estimate for `item`'s key.
    fn read(&mut self, item: &Self::Item) -> f64;

    /// The periodic publication; returns whether the engine has one.
    fn publish(&mut self, _checks: &mut Checks) -> bool {
        false
    }

    /// Items fed but not yet visible to readers, sampled once per read
    /// group; `None` when reads are synchronous.
    fn staleness(&mut self) -> Option<u64> {
        None
    }

    /// The drain barrier ending the timed region: returns how many items
    /// the engine has processed.
    fn finish(&mut self) -> u64;
}

/// A workload: its generated input and how to build, check and summarize
/// its engine.
pub trait Spec {
    /// The engine one repetition drives.
    type Engine: Engine;
    /// What a repetition leaves behind that must not depend on timing;
    /// every repetition of a run must produce the same summary.
    type Summary: PartialEq + std::fmt::Debug;

    /// Builds a fresh engine and feeds it the untimed warm-up prefix.
    fn setup(&self) -> Self::Engine;

    /// The timed part of the input.
    fn timed(&self) -> &[<Self::Engine as Engine>::Item];

    /// Checks a finished repetition; `processed` is what the engine's
    /// drain barrier reported.
    fn check(&self, engine: &mut Self::Engine, processed: u64, checks: &mut Checks);

    /// Summarizes a finished repetition.
    fn summarize(&self, engine: &mut Self::Engine) -> Self::Summary;

    /// Sketch memory of a finished repetition, in bytes.
    fn space_bytes(&self, engine: &mut Self::Engine) -> usize;
}

/// Timings the driver collects beside the throughput.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Nanoseconds per estimate, one sample per read group.
    pub read_ns: Vec<f64>,
    /// Nanoseconds per publication.
    pub publish_ns: Vec<f64>,
    /// Items not yet visible to readers, one sample per read group.
    pub staleness: Vec<f64>,
    /// Per repetition, the nanoseconds of each segment of
    /// [`PUBLISH_EVERY`] chunks with their reads and publication; the last
    /// segment ends with the drain barrier.
    pub segments: Vec<Vec<f64>>,
}

/// Feeds `items` through `engine` in the closed loop described in the
/// module docs. Returns the timed pass and the item count the engine's
/// drain barrier reported.
pub fn drive<E: Engine>(
    engine: &mut E,
    items: &[E::Item],
    tracer: &mut Tracer,
    log: &mut ReadLog,
    checks: &mut Checks,
) -> (Pass, u64) {
    let start = Instant::now();
    let rep = tracer.begin("rep", None);
    let mut sink = 0.0;
    let mut segments = Vec::new();
    let mut segment_start = start;
    for (c, chunk) in items.chunks(CHUNK).enumerate() {
        let span = tracer.begin(E::INGEST, rep);
        engine.ingest(chunk);
        tracer.end(span);
        let fed = c * CHUNK + chunk.len();
        if (c + 1) % READ_EVERY == 0 {
            let recent = &items[fed.saturating_sub(READS)..fed];
            let span = tracer.begin(E::READ, rep);
            let t = Instant::now();
            for item in recent {
                sink += engine.read(item);
            }
            let ns = t.elapsed().as_nanos() as f64;
            tracer.end(span);
            log.read_ns.push(ns / recent.len() as f64);
            if let Some(lag) = engine.staleness() {
                log.staleness.push(lag as f64);
            }
        }
        if (c + 1) % PUBLISH_EVERY == 0 {
            let span = tracer.begin(E::PUBLISH, rep);
            let t = Instant::now();
            let published = engine.publish(checks);
            let ns = t.elapsed().as_nanos() as f64;
            tracer.end(span);
            if published {
                log.publish_ns.push(ns);
            }
            let now = Instant::now();
            segments.push((now - segment_start).as_nanos() as f64);
            segment_start = now;
        }
    }
    let processed = engine.finish();
    tracer.end(rep);
    let end = Instant::now();
    segments.push((end - segment_start).as_nanos() as f64);
    log.segments.push(segments);
    let nanos = (end - start).as_nanos() as u64;
    std::hint::black_box(sink);
    checks.check(sink.is_finite(), || {
        "an estimate was not finite".to_string()
    });
    let pass = Pass {
        items: items.len() as u64,
        nanos,
    };
    (pass, processed)
}

/// Collects what repetitions leave behind: set-up times, reads, summaries,
/// sketch memory and check results.
#[derive(Debug)]
pub struct Collector<T> {
    /// Set-up (construction + warm-up) seconds per repetition.
    pub setup_s: Vec<f64>,
    /// Reads, publications and staleness over all repetitions.
    pub log: ReadLog,
    /// One summary per repetition.
    pub summaries: Vec<T>,
    /// Sketch memory after the latest repetition, in bytes.
    pub space_bytes: usize,
    /// Checks made by the repetitions.
    pub checks: Checks,
}

impl<T> Default for Collector<T> {
    fn default() -> Self {
        Collector {
            setup_s: Vec::new(),
            log: ReadLog::default(),
            summaries: Vec::new(),
            space_bytes: 0,
            checks: Checks::default(),
        }
    }
}

impl<T: PartialEq + std::fmt::Debug> Collector<T> {
    /// One repetition: set-up (timed on its own), the driven timed part,
    /// then the untimed checks and summary.
    pub fn repetition<S: Spec<Summary = T>>(&mut self, spec: &S, tracer: &mut Tracer) -> Pass {
        let t = Instant::now();
        let mut engine = spec.setup();
        self.setup_s.push(t.elapsed().as_secs_f64());
        let (pass, processed) = drive(
            &mut engine,
            spec.timed(),
            tracer,
            &mut self.log,
            &mut self.checks,
        );
        spec.check(&mut engine, processed, &mut self.checks);
        self.summaries.push(spec.summarize(&mut engine));
        self.space_bytes = spec.space_bytes(&mut engine);
        pass
    }

    /// Checks that every repetition summarized the same; returns the
    /// summary (`None` if no repetition ran).
    pub fn settle(&mut self) -> Option<T> {
        let mut summaries = std::mem::take(&mut self.summaries).into_iter();
        let first = summaries.next()?;
        for (i, other) in summaries.enumerate() {
            self.checks.check(other == first, || {
                format!(
                    "repetition {} summarized differently: {other:?} vs {first:?}",
                    i + 2
                )
            });
        }
        Some(first)
    }
}

/// Runs repetitions back to back until `seconds` have passed (at least
/// three). Returns the timed passes and the collector.
pub fn repeat<S: Spec>(spec: &S, seconds: f64) -> (Vec<Pass>, Collector<S::Summary>) {
    let mut collector = Collector::default();
    let mut tracer = Tracer::disabled();
    let passes = {
        let mut rungs = [Rung::new("top", || collector.repetition(spec, &mut tracer))];
        round_robin(&mut rungs, Duration::from_secs_f64(seconds), MIN_ROUNDS)
            .pop()
            .expect("one rung")
    };
    (passes, collector)
}

/// Repetitions (or ladder rounds) every run makes, however short its time
/// budget.
pub const MIN_ROUNDS: usize = 3;
