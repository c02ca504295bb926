//! Synthetic packet-trace generation.
//!
//! Stand-in for the paper's three real traces (see ARCHITECTURE.md,
//! "Deviations from the paper"). A preset fixes (i) the number of distinct
//! flows, (ii) the skew of the flow-size Zipf distribution, and (iii) the
//! skew of the per-octet address distribution that creates subnet locality
//! (so that subnets, not just flows, are heavy-tailed — which is what the
//! HHH experiments need).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

use crate::packet::Packet;

/// Parameters of a synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePreset {
    /// Human-readable name (used in bench output).
    pub name: &'static str,
    /// Number of distinct flows in the universe.
    pub num_flows: usize,
    /// Zipf exponent of the flow-size distribution (larger = more skewed).
    pub flow_skew: f64,
    /// Zipf exponent of each address octet (larger = traffic concentrates in
    /// fewer subnets).
    pub octet_skew: f64,
}

impl TracePreset {
    /// Backbone-like preset: the heaviest-tailed of the three — many distinct
    /// flows, moderate skew (stands in for the CAIDA equinix-chicago trace).
    pub fn backbone() -> Self {
        TracePreset {
            name: "backbone",
            num_flows: 250_000,
            flow_skew: 0.9,
            octet_skew: 0.7,
        }
    }

    /// Datacenter-like preset: the most skewed of the three, few very large
    /// flows and strong subnet concentration (stands in for the IMC'10 UNIV1
    /// trace; the paper notes this trace is noticeably skewed).
    pub fn datacenter() -> Self {
        TracePreset {
            name: "datacenter",
            num_flows: 40_000,
            flow_skew: 1.2,
            octet_skew: 1.1,
        }
    }

    /// Edge-router-like preset: in between the other two (stands in for the
    /// UCLA edge trace).
    pub fn edge() -> Self {
        TracePreset {
            name: "edge",
            num_flows: 100_000,
            flow_skew: 1.0,
            octet_skew: 0.9,
        }
    }

    /// All three presets, in the order the paper's figures list them.
    pub fn all() -> Vec<TracePreset> {
        vec![Self::edge(), Self::datacenter(), Self::backbone()]
    }

    /// A small preset for unit tests and doc examples.
    pub fn tiny() -> Self {
        TracePreset {
            name: "tiny",
            num_flows: 500,
            flow_skew: 1.1,
            octet_skew: 1.0,
        }
    }
}

/// Infinite iterator of packets drawn from a [`TracePreset`].
///
/// Flow identities are fixed up front (each flow gets a source and
/// destination address whose octets are drawn from a skewed distribution
/// routed through per-position permutations); each emitted packet then picks
/// a flow from a Zipf distribution over flow ranks.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    flows: Vec<Packet>,
    zipf: Zipf<f64>,
    rng: StdRng,
    preset: TracePreset,
}

impl TraceGenerator {
    /// Creates a deterministic generator for a preset.
    pub fn new(preset: TracePreset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows = Self::build_flow_universe(&preset, &mut rng);
        let zipf = Zipf::new(preset.num_flows as u64, preset.flow_skew)
            .expect("zipf parameters are validated by the preset");
        TraceGenerator {
            flows,
            zipf,
            rng,
            preset,
        }
    }

    /// The preset this generator was built from.
    pub fn preset(&self) -> &TracePreset {
        &self.preset
    }

    /// Number of distinct flows in the universe.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    fn build_flow_universe(preset: &TracePreset, rng: &mut StdRng) -> Vec<Packet> {
        // Per-octet-position permutations: the Zipf rank of an octet is
        // mapped through a random permutation so that the "popular" octet
        // values differ per position and per seed while remaining skewed.
        let mut perms: Vec<[u8; 256]> = Vec::with_capacity(8);
        for _ in 0..8 {
            let mut p: Vec<u8> = (0..=255u8).collect();
            p.shuffle(rng);
            let mut arr = [0u8; 256];
            arr.copy_from_slice(&p);
            perms.push(arr);
        }
        let octet_dist =
            Zipf::new(256, preset.octet_skew).expect("octet zipf parameters are valid");
        let mut universe = std::collections::HashSet::with_capacity(preset.num_flows);
        let mut flows = Vec::with_capacity(preset.num_flows);
        while flows.len() < preset.num_flows {
            let mut octets = [0u8; 8];
            for (pos, o) in octets.iter_mut().enumerate() {
                let rank = octet_dist.sample(rng) as usize - 1; // 0-based rank
                *o = perms[pos][rank.min(255)];
            }
            let pkt = Packet::from_octets(
                [octets[0], octets[1], octets[2], octets[3]],
                [octets[4], octets[5], octets[6], octets[7]],
            );
            if universe.insert(pkt.flow()) {
                flows.push(pkt);
            }
        }
        flows
    }

    /// Generates `n` packets into a vector.
    pub fn generate(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }

    /// Draws the next packet.
    #[inline]
    pub fn next_packet(&mut self) -> Packet {
        let rank = self.zipf.sample(&mut self.rng) as usize - 1;
        self.flows[rank.min(self.flows.len() - 1)]
    }

    /// Draws a uniformly random flow from the universe (used by scenarios
    /// that need "background" addresses).
    pub fn random_flow(&mut self) -> Packet {
        let idx = self.rng.gen_range(0..self.flows.len());
        self.flows[idx]
    }
}

impl Iterator for TraceGenerator {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        Some(self.next_packet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = TraceGenerator::new(TracePreset::tiny(), 1);
        let mut b = TraceGenerator::new(TracePreset::tiny(), 1);
        assert_eq!(a.generate(500), b.generate(500));
        let mut c = TraceGenerator::new(TracePreset::tiny(), 2);
        assert_ne!(a.generate(500), c.generate(500));
    }

    #[test]
    fn flow_distribution_is_heavy_tailed() {
        let mut gen = TraceGenerator::new(TracePreset::tiny(), 7);
        let pkts = gen.generate(20_000);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for p in &pkts {
            *counts.entry(p.flow()).or_insert(0) += 1;
        }
        let mut sizes: Vec<u64> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top10: u64 = sizes.iter().take(10).sum();
        // With Zipf skew ~1.1 over 500 flows the top-10 flows must carry a
        // large share of the traffic.
        assert!(
            top10 as f64 / total as f64 > 0.3,
            "trace is not heavy-tailed: top10 share = {}",
            top10 as f64 / total as f64
        );
        // And still many distinct flows must appear.
        assert!(
            counts.len() > 100,
            "too few distinct flows: {}",
            counts.len()
        );
    }

    #[test]
    fn presets_are_ordered_by_skew() {
        let dc = TracePreset::datacenter();
        let bb = TracePreset::backbone();
        let edge = TracePreset::edge();
        assert!(dc.flow_skew > edge.flow_skew);
        assert!(edge.flow_skew > bb.flow_skew);
        assert!(dc.num_flows < edge.num_flows);
        assert!(edge.num_flows < bb.num_flows);
        assert_eq!(TracePreset::all().len(), 3);
    }

    #[test]
    fn subnets_show_locality() {
        // The /8 distribution of sources must also be skewed (needed for HHH
        // experiments to be meaningful).
        let mut gen = TraceGenerator::new(TracePreset::tiny(), 3);
        let pkts = gen.generate(20_000);
        let mut by_subnet: HashMap<u8, u64> = HashMap::new();
        for p in &pkts {
            *by_subnet.entry((p.src >> 24) as u8).or_insert(0) += 1;
        }
        let mut sizes: Vec<u64> = by_subnet.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        assert!(
            sizes[0] as f64 / total as f64 > 0.05,
            "top /8 subnet too small: {}",
            sizes[0] as f64 / total as f64
        );
    }

    #[test]
    fn random_flow_comes_from_universe() {
        let mut gen = TraceGenerator::new(TracePreset::tiny(), 3);
        let universe: std::collections::HashSet<u64> =
            (0..gen.num_flows()).map(|i| gen.flows[i].flow()).collect();
        for _ in 0..100 {
            assert!(universe.contains(&gen.random_flow().flow()));
        }
    }
}
