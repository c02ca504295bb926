//! Controller-driven mitigation loop.
//!
//! The paper's proof-of-concept uses the controller's HHH view as a simple
//! threshold-based mitigation application: once a subnet's window frequency
//! exceeds the threshold, the controller instructs every load balancer to
//! rate-limit or block it (§6.3, Figure 3).

use memento_hierarchy::Prefix1D;

use crate::acl::AclAction;
use crate::proxy::LoadBalancer;

/// Pushes controller decisions to the load balancers' ACLs.
#[derive(Debug, Clone)]
pub struct Mitigator {
    /// Action installed for detected subnets.
    action: AclAction,
    /// Only prefixes at least this long are acted on (never block `0.0.0.0/0`
    /// just because total traffic crossed the threshold).
    min_prefix_len: u8,
}

impl Mitigator {
    /// Creates a mitigator installing `action` for detected subnets of length
    /// at least `min_prefix_len` bits.
    pub fn new(action: AclAction, min_prefix_len: u8) -> Self {
        Mitigator {
            action,
            min_prefix_len,
        }
    }

    /// A mitigator that hard-blocks detected subnets of length ≥ 8.
    pub fn deny_subnets() -> Self {
        Mitigator::new(AclAction::Deny, 8)
    }

    /// The configured action.
    pub fn action(&self) -> AclAction {
        self.action
    }

    /// Filters a detected HHH set down to the prefixes this mitigator acts on.
    pub fn actionable<'a>(&self, detected: &'a [Prefix1D]) -> Vec<&'a Prefix1D> {
        detected
            .iter()
            .filter(|p| p.len() >= self.min_prefix_len)
            .collect()
    }

    /// Installs rules for the detected prefixes on every proxy. Returns how
    /// many new rules were installed (across all proxies).
    pub fn apply(&self, detected: &[Prefix1D], proxies: &mut [LoadBalancer]) -> usize {
        let mut installed = 0;
        for prefix in self.actionable(detected) {
            for proxy in proxies.iter_mut() {
                if !proxy.acl().contains(prefix) {
                    proxy.acl_mut().insert(*prefix, self.action);
                    installed += 1;
                }
            }
        }
        installed
    }

    /// Removes rules for prefixes that are no longer detected (e.g. the flood
    /// stopped and the window slid past it). Returns how many rules were
    /// removed.
    pub fn revoke_absent(
        &self,
        still_detected: &[Prefix1D],
        proxies: &mut [LoadBalancer],
    ) -> usize {
        let keep: std::collections::HashSet<&Prefix1D> = still_detected.iter().collect();
        let mut removed = 0;
        for proxy in proxies.iter_mut() {
            let stale: Vec<Prefix1D> = proxy
                .acl()
                .rules()
                .map(|(p, _)| p)
                .filter(|p| !keep.contains(p))
                .collect();
            for p in stale {
                proxy.acl_mut().remove(&p);
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_netwide::{CommMethod, WireFormat};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn proxies(n: usize) -> Vec<LoadBalancer> {
        (0..n)
            .map(|id| {
                LoadBalancer::new(
                    id,
                    2,
                    CommMethod::Sample,
                    1.0,
                    WireFormat::tcp_src(),
                    100,
                    id as u64,
                )
            })
            .collect()
    }

    #[test]
    fn apply_installs_rules_on_all_proxies() {
        let mut ps = proxies(3);
        let mit = Mitigator::deny_subnets();
        let detected = vec![
            Prefix1D::new(addr(10, 0, 0, 0), 8),
            Prefix1D::root(), // must be ignored (len 0 < 8)
        ];
        let installed = mit.apply(&detected, &mut ps);
        assert_eq!(installed, 3);
        for p in &ps {
            assert!(p.acl().contains(&Prefix1D::new(addr(10, 0, 0, 0), 8)));
            assert!(!p.acl().contains(&Prefix1D::root()));
        }
        // Re-applying is idempotent.
        assert_eq!(mit.apply(&detected, &mut ps), 0);
    }

    #[test]
    fn revoke_removes_stale_rules() {
        let mut ps = proxies(2);
        let mit = Mitigator::deny_subnets();
        let a = Prefix1D::new(addr(10, 0, 0, 0), 8);
        let b = Prefix1D::new(addr(20, 0, 0, 0), 8);
        mit.apply(&[a, b], &mut ps);
        let removed = mit.revoke_absent(&[a], &mut ps);
        assert_eq!(removed, 2);
        for p in &ps {
            assert!(p.acl().contains(&a));
            assert!(!p.acl().contains(&b));
        }
    }

    #[test]
    fn actionable_filters_short_prefixes() {
        let mit = Mitigator::new(AclAction::Tarpit, 16);
        let detected = vec![
            Prefix1D::new(addr(10, 0, 0, 0), 8),
            Prefix1D::new(addr(10, 1, 0, 0), 16),
        ];
        let act = mit.actionable(&detected);
        assert_eq!(act.len(), 1);
        assert_eq!(*act[0], Prefix1D::new(addr(10, 1, 0, 0), 16));
        assert_eq!(mit.action(), AclAction::Tarpit);
    }
}
