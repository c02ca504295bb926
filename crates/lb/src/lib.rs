//! # memento-lb
//!
//! Load-balancer substrate standing in for the paper's HAProxy extension
//! (§6.3–6.4). The paper extends HAProxy 1.8.1 with ACL-based subnet
//! mitigation (Deny / Tarpit / rate-limit), feeds the measurement algorithms
//! from the request stream, and reports to a centralized controller that
//! maintains a network-wide sliding-window HHH view used to mitigate HTTP
//! floods.
//!
//! This crate reproduces that information flow in-process (see
//! ARCHITECTURE.md, "Deviations from the paper", for why the substitution
//! preserves the evaluated behaviour):
//!
//! * [`http`] — a minimal stateful HTTP request model;
//! * [`backend`] — backend server pools with round-robin dispatch;
//! * [`acl`] — HAProxy-style subnet ACLs (Deny, Tarpit, rate-limit) with
//!   longest-prefix matching;
//! * [`proxy`] — the measurement-enabled load balancer: ingress measurement,
//!   ACL enforcement, backend dispatch, controller reporting;
//! * [`mitigation`] — the controller-driven mitigation loop;
//! * [`scenario`] — the full §6.4 HTTP-flood experiment (Figure 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod backend;
pub mod http;
pub mod mitigation;
pub mod proxy;
pub mod scenario;

pub use acl::{AclAction, AclTable};
pub use backend::{Backend, BackendPool};
pub use http::{HttpMethod, HttpRequest, RequestOutcome};
pub use mitigation::Mitigator;
pub use proxy::{LoadBalancer, ProxyStats};
pub use scenario::{FloodExperiment, FloodExperimentConfig, FloodExperimentResult};
