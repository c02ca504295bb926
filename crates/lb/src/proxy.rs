//! The measurement-enabled load balancer.
//!
//! Mirrors the paper's extended HAProxy: every ingress request is fed to the
//! measurement point (which reports to the controller within the bandwidth
//! budget), then the ACLs are enforced (Deny / Tarpit / rate-limit by source
//! subnet), and admitted requests are dispatched to a backend.

use memento_netwide::{CommMethod, Report, WireFormat};
use serde::{Deserialize, Serialize};

use memento_netwide::point::MeasurementPoint;

use crate::acl::{AclAction, AclTable};
use crate::backend::BackendPool;
use crate::http::{HttpRequest, RequestOutcome};

/// Per-proxy request counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStats {
    /// Total requests received.
    pub total: u64,
    /// Requests forwarded to a backend.
    pub served: u64,
    /// Requests rejected by Deny rules.
    pub denied: u64,
    /// Requests held by Tarpit rules.
    pub tarpitted: u64,
    /// Requests dropped by rate limits.
    pub rate_limited: u64,
}

/// A load balancer instance: measurement point + ACLs + backend pool.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    id: usize,
    acl: AclTable,
    pool: BackendPool,
    point: MeasurementPoint<u32>,
    stats: ProxyStats,
}

impl LoadBalancer {
    /// Creates a load balancer.
    ///
    /// * `id` — proxy identifier (also the measurement-point id);
    /// * `backends` — number of backend servers behind this proxy;
    /// * `method` / `budget` / `wire` — reporting configuration;
    /// * `local_window` — the point's share of the network-wide window
    ///   (used by the Aggregation method);
    /// * `seed` — RNG seed.
    pub fn new(
        id: usize,
        backends: usize,
        method: CommMethod,
        budget: f64,
        wire: WireFormat,
        local_window: usize,
        seed: u64,
    ) -> Self {
        LoadBalancer {
            id,
            acl: AclTable::new(),
            pool: BackendPool::new(backends),
            point: MeasurementPoint::new(id, method, budget, wire, local_window, seed),
            stats: ProxyStats::default(),
        }
    }

    /// The proxy's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The proxy's request counters.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// The ACL table (e.g. for the mitigation loop to install rules).
    pub fn acl_mut(&mut self) -> &mut AclTable {
        &mut self.acl
    }

    /// The ACL table, read-only.
    pub fn acl(&self) -> &AclTable {
        &self.acl
    }

    /// Average control-plane bytes per ingress request of this proxy.
    pub fn bytes_per_packet(&self) -> f64 {
        self.point.bytes_per_packet()
    }

    /// Handles one request: measure, enforce ACLs, dispatch. Returns the
    /// outcome and, when the measurement point emits one, a report destined
    /// for the controller.
    pub fn handle(&mut self, request: HttpRequest) -> (RequestOutcome, Option<Report<u32>>) {
        self.stats.total += 1;
        // Ingress measurement happens before mitigation: the controller must
        // keep seeing attack traffic so its window view stays current.
        let report = self.point.process(request.src);
        let outcome = match self.acl.evaluate(request.src) {
            Some(AclAction::Deny) => {
                self.stats.denied += 1;
                RequestOutcome::Denied
            }
            Some(AclAction::Tarpit) => {
                self.stats.tarpitted += 1;
                RequestOutcome::Tarpitted
            }
            Some(AclAction::RateLimit { .. }) => {
                self.stats.rate_limited += 1;
                RequestOutcome::RateLimited
            }
            None => {
                self.stats.served += 1;
                RequestOutcome::Served {
                    backend: self.pool.dispatch(),
                }
            }
        };
        (outcome, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_hierarchy::Prefix1D;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn proxy() -> LoadBalancer {
        LoadBalancer::new(
            0,
            3,
            CommMethod::Batch(10),
            8.0,
            WireFormat::tcp_src(),
            1_000,
            1,
        )
    }

    #[test]
    fn admitted_requests_are_served_round_robin() {
        let mut lb = proxy();
        let mut backends = std::collections::HashSet::new();
        for i in 0..9 {
            let (outcome, _) = lb.handle(HttpRequest::get(addr(1, 2, 3, i), addr(9, 9, 9, 9), 0));
            match outcome {
                RequestOutcome::Served { backend } => {
                    backends.insert(backend);
                }
                other => panic!("expected served, got {other:?}"),
            }
        }
        assert_eq!(backends.len(), 3, "all backends should participate");
        assert_eq!(lb.stats().served, 9);
        assert_eq!(lb.stats().total, 9);
    }

    #[test]
    fn deny_rule_blocks_but_measurement_continues() {
        let mut lb = proxy();
        lb.acl_mut().insert(
            Prefix1D::new(addr(66, 0, 0, 0), 8),
            crate::acl::AclAction::Deny,
        );
        let mut reports = 0;
        for i in 0..2_000u32 {
            let src = addr(66, (i % 250) as u8, 1, 1);
            let (outcome, report) = lb.handle(HttpRequest::get(src, addr(9, 9, 9, 9), 0));
            assert_eq!(outcome, RequestOutcome::Denied);
            if report.is_some() {
                reports += 1;
            }
        }
        assert_eq!(lb.stats().denied, 2_000);
        assert_eq!(lb.stats().served, 0);
        assert!(
            reports > 0,
            "denied traffic must still be measured/reported"
        );
    }

    #[test]
    fn rate_limit_admits_some_traffic() {
        let mut lb = proxy();
        lb.acl_mut().insert(
            Prefix1D::new(addr(50, 0, 0, 0), 8),
            crate::acl::AclAction::RateLimit {
                max_per_window: 5,
                window: 100,
            },
        );
        for i in 0..100u32 {
            lb.handle(HttpRequest::get(
                addr(50, 0, 0, i as u8),
                addr(9, 9, 9, 9),
                0,
            ));
        }
        assert_eq!(lb.stats().served, 5);
        assert_eq!(lb.stats().rate_limited, 95);
    }
}
