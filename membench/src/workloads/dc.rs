//! dc-count and dc-sharded: the datacenter trace, through a single-threaded
//! Memento and through the sharded engine at one shard.

use memento_bench::on_arrival_rmse;
use memento_core::{Memento, SlidingWindowEstimator, WindowQuery};
use memento_shard::{PublishPolicy, ShardedEstimator, SnapshotReader};
use memento_traces::{TraceGenerator, TracePreset};

use super::{digest, hh_digest, Bench, COUNTERS, PROBE_EVERY};
use crate::drive::{Engine, Spec, CHUNK};
use crate::ladder::{time_pass, Pass};
use crate::sketch::{SketchConfig, SketchStack};
use crate::{Checks, Scale};

/// Full-update probability of the datacenter workloads.
const DC_TAU: f64 = 0.25;

/// The flow keys of `packets` datacenter-trace packets.
fn keys(packets: usize, seed: u64) -> Vec<u64> {
    TraceGenerator::new(TracePreset::datacenter(), seed)
        .take(packets)
        .map(|p| p.flow())
        .collect()
}

/// The seed of accuracy stream `stream` of a run seeded `seed`
/// (a SplitMix64 finalizer, so neighbouring seeds share no stream).
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The datacenter workloads' input: the trace's flow keys.
struct DcInput {
    keys: Vec<u64>,
    window: usize,
    warm: usize,
    seed: u64,
    accuracy_streams: u64,
}

impl DcInput {
    fn new(scale: &Scale, seed: u64) -> Self {
        DcInput {
            keys: keys(scale.dc_packets, seed),
            window: scale.dc_window,
            warm: 2 * scale.dc_window,
            seed,
            accuracy_streams: scale.dc_accuracy_streams as u64,
        }
    }

    fn memento(&self, seed: u64) -> Memento<u64> {
        Memento::new(COUNTERS, self.window, DC_TAU, seed)
    }

    fn check_processed(&self, processed: u64, checks: &mut Checks) {
        checks.check(processed == self.keys.len() as u64, || {
            format!(
                "engine processed {processed} items, {} were fed",
                self.keys.len()
            )
        });
    }

    fn sketch(&self, positioned: bool) -> SketchStack<'_> {
        SketchStack::new(
            &self.keys,
            self.warm,
            SketchConfig {
                counters: COUNTERS,
                window: self.window,
                tau: DC_TAU,
                seed: self.seed,
                positioned,
            },
        )
    }

    /// Mean on-arrival RMSE over independent streams of 2·W packets, each
    /// with its own trace and sketch seed. The error of a stream is
    /// dominated by a few heavy flows and varies from seed to seed far more
    /// than along one stream, so many short streams pin the mean down and
    /// one long stream does not.
    fn rmse<E: SlidingWindowEstimator<u64>>(&self, make: impl Fn(u64) -> E) -> f64 {
        let total: f64 = (0..self.accuracy_streams)
            .map(|stream| {
                let seed = stream_seed(self.seed, stream);
                let keys = keys(2 * self.window, seed);
                on_arrival_rmse(&mut make(seed), &keys, self.window, PROBE_EVERY).value()
            })
            .sum();
        total / self.accuracy_streams as f64
    }
}

/// dc-count: single-threaded `Memento::update_batch`.
pub(super) struct DcCount(DcInput);

impl DcCount {
    pub(super) fn new(scale: &Scale, seed: u64) -> Self {
        DcCount(DcInput::new(scale, seed))
    }
}

impl Engine for Memento<u64> {
    type Item = u64;
    const INGEST: &'static str = "memento.update_batch";
    const READ: &'static str = "memento.estimate";

    fn ingest(&mut self, chunk: &[u64]) {
        self.update_batch(chunk);
    }

    fn read(&mut self, key: &u64) -> f64 {
        self.estimate(key)
    }

    fn finish(&mut self) -> u64 {
        self.processed()
    }
}

impl Spec for DcCount {
    type Engine = Memento<u64>;
    type Summary = u64;

    fn setup(&self) -> Memento<u64> {
        let mut memento = self.0.memento(self.0.seed);
        for chunk in self.0.keys[..self.0.warm].chunks(CHUNK) {
            memento.update_batch(chunk);
        }
        memento
    }

    fn timed(&self) -> &[u64] {
        &self.0.keys[self.0.warm..]
    }

    fn check(&self, _: &mut Memento<u64>, processed: u64, checks: &mut Checks) {
        self.0.check_processed(processed, checks);
    }

    fn summarize(&self, memento: &mut Memento<u64>) -> u64 {
        hh_digest(memento, self.0.window)
    }

    fn space_bytes(&self, memento: &mut Memento<u64>) -> usize {
        memento.space_bytes()
    }
}

impl Bench for DcCount {
    fn sketch(&self) -> SketchStack<'_> {
        self.0.sketch(false)
    }

    /// dc-count has no plane above the sketch: this rung repeats the
    /// Memento rung's calls, so `plane.self_ns` shows the ladder's noise.
    fn plane(&self) -> Pass {
        let mut memento = self.setup();
        time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                memento.update_batch(chunk);
            }
            memento.processed()
        })
    }

    fn rmse(&self, _: &u64) -> f64 {
        self.0.rmse(|seed| self.0.memento(seed))
    }

    fn input_digest(&self) -> u64 {
        digest(&self.0.keys)
    }
}

/// dc-sharded: the same sketch behind `ShardedEstimator` at one shard,
/// with snapshot reads every [`crate::drive::READ_EVERY`] chunks and a
/// `publish_now` every [`crate::drive::PUBLISH_EVERY`].
pub(super) struct DcSharded(DcInput);

/// The sharded engine with its reader and the producer's position.
pub(super) struct ShardedEngine {
    engine: ShardedEstimator<u64>,
    reader: SnapshotReader<u64>,
    fed: u64,
    epoch: u64,
}

impl Engine for ShardedEngine {
    type Item = u64;
    const INGEST: &'static str = "shard.update_batch";
    const READ: &'static str = "snapshot.estimate";
    const PUBLISH: &'static str = "snapshot.publish_now";

    fn ingest(&mut self, chunk: &[u64]) {
        self.engine.update_batch(chunk);
        self.fed += chunk.len() as u64;
    }

    fn read(&mut self, key: &u64) -> f64 {
        self.reader.estimate(key)
    }

    fn publish(&mut self, checks: &mut Checks) -> bool {
        let epoch = self.engine.publish_now();
        let previous = std::mem::replace(&mut self.epoch, epoch);
        checks.check(epoch > previous, || {
            format!("publication epoch went from {previous} to {epoch}")
        });
        let visible = self.reader.processed();
        checks.check(visible == self.fed, || {
            format!(
                "after publish_now the reader sees {visible} items, {} were fed",
                self.fed
            )
        });
        true
    }

    fn staleness(&mut self) -> Option<u64> {
        Some(self.fed.saturating_sub(self.reader.processed()))
    }

    fn finish(&mut self) -> u64 {
        self.engine.processed()
    }
}

impl DcSharded {
    pub(super) fn new(scale: &Scale, seed: u64) -> Self {
        DcSharded(DcInput::new(scale, seed))
    }

    fn engine(&self, policy: PublishPolicy) -> ShardedEstimator<u64> {
        let mut engine = ShardedEstimator::memento(1, COUNTERS, self.0.window, DC_TAU, self.0.seed)
            .with_policy(policy);
        for chunk in self.0.keys[..self.0.warm].chunks(CHUNK) {
            engine.update_batch(chunk);
        }
        let _ = engine.processed();
        engine
    }
}

impl Spec for DcSharded {
    type Engine = ShardedEngine;
    type Summary = u64;

    fn setup(&self) -> ShardedEngine {
        let engine = self.engine(PublishPolicy::default());
        let reader = engine.reader();
        ShardedEngine {
            engine,
            reader,
            fed: self.0.warm as u64,
            epoch: 0,
        }
    }

    fn timed(&self) -> &[u64] {
        &self.0.keys[self.0.warm..]
    }

    fn check(&self, _: &mut ShardedEngine, processed: u64, checks: &mut Checks) {
        self.0.check_processed(processed, checks);
    }

    fn summarize(&self, e: &mut ShardedEngine) -> u64 {
        hh_digest(&e.engine, self.0.window)
    }

    fn space_bytes(&self, e: &mut ShardedEngine) -> usize {
        e.engine.space_bytes()
    }
}

impl Bench for DcSharded {
    /// The Memento rung runs the worker's gap-stamped entry.
    fn sketch(&self) -> SketchStack<'_> {
        self.0.sketch(true)
    }

    /// Router, worker channel and worker with periodic publication off;
    /// one publication at the end drains the worker.
    fn plane(&self) -> Pass {
        let mut engine = self.engine(PublishPolicy {
            every_batches: 0,
            on_query: true,
        });
        time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                engine.update_batch(chunk);
            }
            engine.processed()
        })
    }

    fn rmse(&self, _: &u64) -> f64 {
        self.0
            .rmse(|seed| ShardedEstimator::memento(1, COUNTERS, self.0.window, DC_TAU, seed))
    }

    fn input_digest(&self) -> u64 {
        digest(&self.0.keys)
    }
}
