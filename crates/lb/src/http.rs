//! Minimal HTTP request model.
//!
//! The paper's traffic generator issues stateful HTTP GET and POST requests
//! from many source IPs towards the load balancers. For the measurement and
//! mitigation logic only the source address (and, for 2D hierarchies, the
//! destination) matters; the method and path are carried so the proxy and
//! backends behave like a real serving path.

use serde::{Deserialize, Serialize};

/// HTTP request method (the generator in the paper issues GET and POST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HttpMethod {
    /// An HTTP GET.
    Get,
    /// An HTTP POST.
    Post,
}

/// One HTTP request arriving at a load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Client (source) IPv4 address.
    pub src: u32,
    /// Service (destination / VIP) IPv4 address.
    pub dst: u32,
    /// Request method.
    pub method: HttpMethod,
    /// Identifier of the requested path (an index into the service's routes;
    /// kept as an id to avoid per-request string allocation).
    pub path_id: u16,
}

impl HttpRequest {
    /// Builds a GET request.
    pub fn get(src: u32, dst: u32, path_id: u16) -> Self {
        HttpRequest {
            src,
            dst,
            method: HttpMethod::Get,
            path_id,
        }
    }

    /// Builds a POST request.
    pub fn post(src: u32, dst: u32, path_id: u16) -> Self {
        HttpRequest {
            src,
            dst,
            method: HttpMethod::Post,
            path_id,
        }
    }
}

/// What the load balancer did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Forwarded to a backend.
    Served {
        /// Backend that served the request.
        backend: usize,
    },
    /// Rejected by a Deny ACL rule.
    Denied,
    /// Held by a Tarpit ACL rule (the connection is kept open and then
    /// dropped, wasting the attacker's resources).
    Tarpitted,
    /// Dropped because the source subnet exceeded its rate limit.
    RateLimited,
}

impl RequestOutcome {
    /// True when the request reached a backend (i.e. mitigation did *not*
    /// stop it — the paper's "missed" flood requests).
    pub fn reached_backend(&self) -> bool {
        matches!(self, RequestOutcome::Served { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_methods() {
        let g = HttpRequest::get(1, 2, 3);
        assert_eq!(g.method, HttpMethod::Get);
        let p = HttpRequest::post(1, 2, 3);
        assert_eq!(p.method, HttpMethod::Post);
        assert_eq!(g.src, 1);
        assert_eq!(g.dst, 2);
        assert_eq!(g.path_id, 3);
    }

    #[test]
    fn only_served_requests_reach_backends() {
        assert!(RequestOutcome::Served { backend: 0 }.reached_backend());
        assert!(!RequestOutcome::Denied.reached_backend());
        assert!(!RequestOutcome::Tarpitted.reached_backend());
        assert!(!RequestOutcome::RateLimited.reached_backend());
    }
}
