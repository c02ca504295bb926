//! lb-flood: the Figure 10 HTTP-flood defense.

use memento_bench::gate::Json;
use memento_bench::Rmse;
use memento_core::analysis::NetworkBudget;
use memento_core::HhhAlgorithm;
use memento_hierarchy::{Prefix1D, SrcHierarchy};
use memento_lb::scenario::FloodConfig;
use memento_lb::{FloodExperiment, FloodExperimentConfig, HttpRequest, LoadBalancer, Mitigator};
use memento_netwide::{CommMethod, DHMementoController, WireFormat};
use memento_sketches::ExactWindow;
use memento_traces::{FloodScenario, TraceGenerator, TracePreset};

use super::{digest, num, tail_details, Bench, COUNTERS};
use crate::drive::{Engine, Spec, CHUNK};
use crate::ladder::{time_pass, Pass};
use crate::sketch::{SketchConfig, SketchStack};
use crate::{Checks, Scale};

/// One request of the flood trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct Request {
    src: u32,
    dst: u32,
    attack: bool,
}

/// lb-flood: the request stream of `FloodExperiment` with the Figure 10
/// configuration, driven request by request through the same public
/// pieces the experiment uses, so the benchmark can warm up, time and read
/// in between. Every run checks the outcome against `FloodExperiment::run`
/// itself.
pub(super) struct LbFlood {
    config: FloodExperimentConfig,
    requests: Vec<Request>,
    keys: Vec<u64>,
    attack_prefixes: Vec<Prefix1D>,
}

/// The proxies, the controller, the exact oracle and the detection state.
pub(super) struct FloodEngine {
    proxies: Vec<LoadBalancer>,
    controller: DHMementoController<SrcHierarchy>,
    /// Exact per-/8 counts of the last `W` requests (the OPT oracle).
    opt: ExactWindow<u8>,
    mitigator: Mitigator,
    prefixes: Vec<Prefix1D>,
    detection: Vec<Option<usize>>,
    opt_detection: Vec<Option<usize>>,
    threshold: f64,
    check_every: usize,
    /// Whether detection sweeps (and so mitigation) run.
    sweeps: bool,
    /// Index of the next request.
    next: usize,
    attack: u64,
    missed: u64,
    reports: u64,
    /// `(requests fed, /8 octet, estimate)` of every read.
    reads: Vec<(usize, u8, f64)>,
}

impl FloodEngine {
    /// One request, exactly as `FloodExperiment::run` handles request `i`.
    fn step(&mut self, req: &Request) {
        let i = self.next;
        self.next += 1;
        let request = HttpRequest::get(req.src, req.dst, (i % 16) as u16);
        let proxies = self.proxies.len();
        let (outcome, report) = self.proxies[i % proxies].handle(request);
        self.opt.add((req.src >> 24) as u8);
        if req.attack {
            self.attack += 1;
            if outcome.reached_backend() {
                self.missed += 1;
            }
        }
        if let Some(r) = report {
            self.controller.receive(&r);
            self.reports += 1;
        }
        if self.sweeps && i.is_multiple_of(self.check_every) && i > 0 {
            self.sweep(i);
        }
    }

    /// Flags subnets whose estimated window frequency crossed the
    /// threshold and blocks them at every proxy.
    fn sweep(&mut self, i: usize) {
        let mut newly_detected = Vec::new();
        for (j, p) in self.prefixes.iter().enumerate() {
            if self.detection[j].is_none() && self.controller.point_estimate(p) >= self.threshold {
                self.detection[j] = Some(i);
                newly_detected.push(*p);
            }
            if self.opt_detection[j].is_none()
                && self.opt.query(&((p.addr() >> 24) as u8)) as f64 >= self.threshold
            {
                self.opt_detection[j] = Some(i);
            }
        }
        if !newly_detected.is_empty() {
            self.mitigator.apply(&newly_detected, &mut self.proxies);
        }
    }

    fn requests(&self) -> u64 {
        self.proxies.iter().map(|p| p.stats().total).sum()
    }

    /// Control bytes per request, computed as `FloodExperiment` does.
    fn bytes_per_request(&self) -> f64 {
        let bytes: f64 = self
            .proxies
            .iter()
            .map(|p| p.bytes_per_packet() * p.stats().total as f64)
            .sum();
        bytes / self.requests().max(1) as f64
    }
}

impl Engine for FloodEngine {
    type Item = Request;
    const INGEST: &'static str = "lb.handle";
    const READ: &'static str = "netwide.point_estimate";

    fn ingest(&mut self, chunk: &[Request]) {
        for req in chunk {
            self.step(req);
        }
    }

    fn read(&mut self, req: &Request) -> f64 {
        let estimate = self
            .controller
            .point_estimate(&Prefix1D::new(req.src & 0xFF00_0000, 8));
        self.reads
            .push((self.next, (req.src >> 24) as u8, estimate));
        estimate
    }

    fn finish(&mut self) -> u64 {
        self.requests()
    }
}

/// What an lb-flood repetition leaves behind.
#[derive(Debug, PartialEq)]
pub(super) struct FloodSummary {
    detection: Vec<Option<usize>>,
    opt_detection: Vec<Option<usize>>,
    attack: u64,
    missed: u64,
    reports: u64,
    bytes_per_request: f64,
    reads: Vec<(usize, u8, f64)>,
}

impl LbFlood {
    pub(super) fn new(scale: &Scale, seed: u64) -> Self {
        let window = scale.lb_window;
        let budget = scale.lb_budget;
        // The Figure 10 batch size: the one minimizing the error bound of
        // the network-wide H-Memento under the budget.
        let (batch, _) = NetworkBudget {
            header_overhead: 64.0,
            sample_bytes: 4.0,
            points: 10,
            hierarchy: 5,
            window,
            delta: 0.0001,
            budget,
        }
        .optimal_batch(2_000);
        let config = FloodExperimentConfig {
            proxies: 10,
            backends_per_proxy: 4,
            window,
            budget,
            counters: COUNTERS,
            method: CommMethod::Batch(batch),
            theta: 0.01,
            total_packets: scale.lb_requests,
            flood: FloodConfig {
                num_subnets: 50,
                flood_probability: 0.7,
                start: window,
            },
            preset: TracePreset::backbone(),
            check_interval: scale.lb_check_every,
            mitigate: true,
            seed,
        };
        // The experiment's own traffic derivation, so the benchmark's
        // stream is the one `FloodExperiment::run` replays.
        let base = TraceGenerator::new(config.preset.clone(), seed ^ 0x7777);
        let flood = FloodScenario::new(base, config.flood, seed ^ 0x4242);
        let attack_prefixes = flood.attack_prefixes();
        let requests: Vec<Request> = flood
            .take(config.total_packets)
            .map(|fp| Request {
                src: fp.packet.src,
                dst: fp.packet.dst,
                attack: fp.is_attack,
            })
            .collect();
        let keys = requests.iter().map(|r| u64::from(r.src)).collect();
        LbFlood {
            config,
            requests,
            keys,
            attack_prefixes,
        }
    }

    /// The pre-flood prefix is the warm-up.
    fn warm(&self) -> usize {
        self.config.flood.start
    }

    fn engine(&self, sweeps: bool) -> FloodEngine {
        let cfg = &self.config;
        let wire = WireFormat::tcp_src();
        let local_window = (cfg.window / cfg.proxies).max(1);
        let mut engine = FloodEngine {
            proxies: (0..cfg.proxies)
                .map(|id| {
                    LoadBalancer::new(
                        id,
                        cfg.backends_per_proxy,
                        cfg.method,
                        cfg.budget,
                        wire,
                        local_window,
                        cfg.seed.wrapping_add(id as u64),
                    )
                })
                .collect(),
            controller: DHMementoController::new(
                SrcHierarchy,
                cfg.counters,
                cfg.window,
                cfg.method.tau_for_budget(cfg.budget, &wire),
                0.01,
                cfg.seed,
            ),
            opt: ExactWindow::new(cfg.window),
            mitigator: Mitigator::deny_subnets(),
            prefixes: self.attack_prefixes.clone(),
            detection: vec![None; self.attack_prefixes.len()],
            opt_detection: vec![None; self.attack_prefixes.len()],
            threshold: cfg.theta * cfg.window as f64,
            check_every: cfg.check_interval,
            sweeps,
            next: 0,
            attack: 0,
            missed: 0,
            reports: 0,
            reads: Vec::new(),
        };
        for chunk in self.requests[..self.warm()].chunks(CHUNK) {
            engine.ingest(chunk);
        }
        engine
    }

    /// Thousands of requests from flood onset to detection, per subnet;
    /// infinite for a subnet never detected.
    fn delays_kreq(&self, detection: &[Option<usize>]) -> Vec<f64> {
        let start = self.config.flood.start;
        detection
            .iter()
            .map(|t| t.map_or(f64::INFINITY, |t| t.saturating_sub(start) as f64 / 1e3))
            .collect()
    }
}

impl Spec for LbFlood {
    type Engine = FloodEngine;
    type Summary = FloodSummary;

    fn setup(&self) -> FloodEngine {
        self.engine(true)
    }

    fn timed(&self) -> &[Request] {
        &self.requests[self.warm()..]
    }

    fn check(&self, engine: &mut FloodEngine, processed: u64, checks: &mut Checks) {
        checks.check(processed == self.requests.len() as u64, || {
            format!(
                "proxies handled {processed} requests, {} were fed",
                self.requests.len()
            )
        });
        let bytes = engine.bytes_per_request();
        checks.check(bytes <= 1.05 * self.config.budget, || {
            format!(
                "{bytes:.3} control bytes per request exceed the {} byte budget",
                self.config.budget
            )
        });
    }

    fn summarize(&self, e: &mut FloodEngine) -> FloodSummary {
        FloodSummary {
            detection: e.detection.clone(),
            opt_detection: e.opt_detection.clone(),
            attack: e.attack,
            missed: e.missed,
            reports: e.reports,
            bytes_per_request: e.bytes_per_request(),
            reads: std::mem::take(&mut e.reads),
        }
    }

    fn space_bytes(&self, e: &mut FloodEngine) -> usize {
        HhhAlgorithm::space_bytes(e.controller.as_hmemento())
    }
}

impl Bench for LbFlood {
    /// The proxies sample requests before anything reaches a sketch, so
    /// the plane stands on the floor; the sketch rungs show what the same
    /// keys would cost a per-request Memento.
    const PLANE_ON: &'static str = "floor";

    fn sketch(&self) -> SketchStack<'_> {
        SketchStack::new(
            &self.keys,
            self.warm(),
            SketchConfig {
                counters: COUNTERS,
                window: self.config.window,
                tau: 1.0,
                seed: self.config.seed,
                positioned: false,
            },
        )
    }

    /// Proxies and controller without detection sweeps or mitigation.
    fn plane(&self) -> Pass {
        let mut engine = self.engine(false);
        time_pass(self.timed().len() as u64, || {
            for chunk in self.timed().chunks(CHUNK) {
                engine.ingest(chunk);
            }
            engine.requests()
        })
    }

    /// On-arrival RMSE of the reads: the controller's point estimate of a
    /// request's /8 against the exact count of that /8 in the last `W`
    /// requests fed.
    fn rmse(&self, summary: &FloodSummary) -> f64 {
        let window = self.config.window;
        let mut counts = [0u64; 256];
        let mut fed = 0;
        let mut rmse = Rmse::new();
        for &(at, octet, estimate) in &summary.reads {
            while fed < at {
                counts[(self.requests[fed].src >> 24) as usize] += 1;
                if fed >= window {
                    counts[(self.requests[fed - window].src >> 24) as usize] -= 1;
                }
                fed += 1;
            }
            rmse.record(estimate, counts[octet as usize] as f64);
        }
        rmse.value()
    }

    /// The benchmark's pipeline must reproduce `FloodExperiment::run`
    /// exactly, and the defense must catch every subnet within budget.
    fn verify(&self, summary: &FloodSummary, checks: &mut Checks) {
        let reference = FloodExperiment::new(self.config.clone()).run();
        checks.check(
            reference.detection_time == summary.detection
                && reference.opt_detection_time == summary.opt_detection,
            || "detection times differ from FloodExperiment::run".to_string(),
        );
        checks.check(
            reference.total_attack_requests == summary.attack
                && reference.missed_attack_requests == summary.missed,
            || {
                format!(
                    "flood requests {}/{} missed, FloodExperiment::run says {}/{}",
                    summary.missed,
                    summary.attack,
                    reference.missed_attack_requests,
                    reference.total_attack_requests
                )
            },
        );
        checks.check(
            reference.bytes_per_packet == summary.bytes_per_request,
            || {
                format!(
                    "{} control bytes per request, FloodExperiment::run says {}",
                    summary.bytes_per_request, reference.bytes_per_packet
                )
            },
        );
        let detected = summary.detection.iter().filter(|t| t.is_some()).count();
        checks.check(detected == summary.detection.len(), || {
            format!(
                "only {detected} of {} flooding subnets detected",
                summary.detection.len()
            )
        });
    }

    fn details(&self, summary: &FloodSummary) -> Vec<(String, Json)> {
        let requests = self.requests.len() as f64;
        let mut details = vec![(
            "batch_size".to_string(),
            num(self.config.method.batch_size()),
        )];
        tail_details(
            "detect",
            "kreq",
            &self.delays_kreq(&summary.detection),
            &mut details,
        );
        tail_details(
            "opt_detect",
            "kreq",
            &self.delays_kreq(&summary.opt_detection),
            &mut details,
        );
        details.extend([
            (
                "missed_flood_pct".to_string(),
                Json::Num(100.0 * summary.missed as f64 / summary.attack.max(1) as f64),
            ),
            (
                "reports_per_kreq".to_string(),
                Json::Num(summary.reports as f64 * 1e3 / requests),
            ),
            (
                "bytes_per_req".to_string(),
                Json::Num(summary.bytes_per_request),
            ),
        ]);
        details
    }

    fn input_digest(&self) -> u64 {
        digest(&self.requests)
    }
}
