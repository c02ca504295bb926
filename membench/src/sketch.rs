//! The lower rungs of the layer ladder: the sketch stack every workload's
//! keys cross, timed from outside through public entry points.
//!
//! The rungs are cumulative in what a packet pays: the trace-iteration
//! floor, plus `fasthash::hash_one`, the `CompactMap` probe (which hashes),
//! a Space-Saving increment (which probes), and a Memento update (which
//! reaches Space Saving on a τ share of its packets).

use std::cell::Cell;

use memento_core::Memento;
use memento_sketches::fasthash::hash_one;
use memento_sketches::{CompactMap, SpaceSaving};

use crate::drive::CHUNK;
use crate::ladder::{time_pass, Pass, Rung};

/// The Memento configuration of a workload's sketch rung.
#[derive(Debug, Clone, Copy)]
pub struct SketchConfig {
    /// Space-Saving counters `k`.
    pub counters: usize,
    /// Count window `W`.
    pub window: usize,
    /// Full-update probability τ.
    pub tau: f64,
    /// RNG seed.
    pub seed: u64,
    /// Feed the sketch through the gap-stamped `update_batch_positioned`
    /// with all gaps zero (what a shard worker runs) instead of
    /// `update_batch`.
    pub positioned: bool,
}

/// A workload's key stream and sketch configuration.
pub struct SketchStack<'a> {
    keys: &'a [u64],
    warm: usize,
    config: SketchConfig,
    /// The first `k` distinct keys of the stream: the table the probe rung
    /// looks every key up in.
    table: CompactMap<u64, u32>,
    full_frac: Cell<f64>,
}

impl<'a> SketchStack<'a> {
    /// The stack over `keys`, of which the first `warm` are untimed warm-up.
    pub fn new(keys: &'a [u64], warm: usize, config: SketchConfig) -> Self {
        let mut table = CompactMap::with_capacity(config.counters);
        for &key in keys {
            if table.len() == config.counters {
                break;
            }
            table.get_or_insert_with(key, || 0);
        }
        SketchStack {
            keys,
            warm,
            config,
            table,
            full_frac: Cell::new(0.0),
        }
    }

    fn timed(&self) -> &'a [u64] {
        &self.keys[self.warm..]
    }

    /// The rungs, bottom up: `floor`, `fasthash`, `compact_map`,
    /// `space_saving`, `memento`.
    pub fn rungs(&self) -> Vec<Rung<'_>> {
        let n = self.timed().len() as u64;
        vec![
            Rung::new("floor", move || {
                time_pass(n, || {
                    self.timed()
                        .iter()
                        .fold(0u64, |acc, &k| acc.wrapping_add(k))
                })
            }),
            Rung::new("fasthash", move || {
                time_pass(n, || {
                    self.timed()
                        .iter()
                        .fold(0u64, |acc, k| acc.wrapping_add(hash_one(k)))
                })
            }),
            Rung::new("compact_map", move || {
                time_pass(n, || {
                    self.timed().iter().fold(0usize, |acc, k| {
                        acc.wrapping_add(self.table.probe(k).unwrap_or(1))
                    })
                })
            }),
            Rung::new("space_saving", move || self.space_saving_pass()),
            Rung::new("memento", move || self.memento_pass()),
        ]
    }

    fn space_saving_pass(&self) -> Pass {
        let mut ss = SpaceSaving::new(self.config.counters);
        for chunk in self.keys[..self.warm].chunks(CHUNK) {
            ss.add_batch(chunk);
        }
        time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                ss.add_batch(chunk);
            }
            ss.processed()
        })
    }

    fn memento_pass(&self) -> Pass {
        let c = self.config;
        let mut memento = Memento::new(c.counters, c.window, c.tau, c.seed);
        for chunk in self.keys[..self.warm].chunks(CHUNK) {
            memento.update_batch(chunk);
        }
        let gaps = vec![0u64; CHUNK];
        let pass = time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                if c.positioned {
                    memento.update_batch_positioned(&gaps[..chunk.len()], chunk);
                } else {
                    memento.update_batch(chunk);
                }
            }
            memento.processed()
        });
        self.full_frac
            .set(memento.full_updates() as f64 / memento.processed().max(1) as f64);
        pass
    }

    /// Full-update probability τ: the expected calls per item from the
    /// Memento rung into the Space-Saving rung.
    pub fn tau(&self) -> f64 {
        self.config.tau
    }

    /// Share of packets the latest Memento pass full-updated (the achieved
    /// τ).
    pub fn full_frac(&self) -> f64 {
        self.full_frac.get()
    }

    /// Mean probe length of the probe rung's table (slots walked per
    /// resident key).
    pub fn probe_len_mean(&self) -> f64 {
        self.table.probe_stats().mean_probe_len
    }

    /// Share of timed keys already monitored by Space Saving when they
    /// arrive (an untimed counting pass).
    pub fn hit_frac(&self) -> f64 {
        let mut ss = SpaceSaving::new(self.config.counters);
        for chunk in self.keys[..self.warm].chunks(CHUNK) {
            ss.add_batch(chunk);
        }
        let mut hits = 0u64;
        for &key in self.timed() {
            hits += u64::from(ss.is_monitored(&key));
            ss.add(key);
        }
        hits as f64 / self.timed().len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::round_robin;
    use std::time::Duration;

    #[test]
    fn the_stack_times_every_rung_and_counts() {
        // Half the packets from 7 hot keys, half spread over 300.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| if i % 2 == 0 { i % 7 } else { (i * 7919) % 300 })
            .collect();
        let stack = SketchStack::new(
            &keys,
            2_000,
            SketchConfig {
                counters: 64,
                window: 1_000,
                tau: 0.5,
                seed: 3,
                positioned: false,
            },
        );
        let passes = {
            let mut rungs = stack.rungs();
            assert_eq!(
                rungs.iter().map(|r| r.name).collect::<Vec<_>>(),
                [
                    "floor",
                    "fasthash",
                    "compact_map",
                    "space_saving",
                    "memento"
                ]
            );
            round_robin(&mut rungs, Duration::ZERO, 1)
        };
        assert!(passes.iter().all(|p| p[0].items == 18_000));
        let full = stack.full_frac();
        assert!(full > 0.3 && full < 0.7, "achieved tau {full}");
        let hits = stack.hit_frac();
        assert!(hits > 0.0 && hits < 1.0, "hit share {hits}");
        assert!(stack.probe_len_mean() >= 1.0);
    }
}
