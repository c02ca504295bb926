//! Backend server pool.
//!
//! Stands in for the Apache instances behind the paper's HAProxy deployment:
//! the pool dispatches served requests to backends round-robin, as HAProxy
//! defaults to, and counts what each backend served.

use serde::{Deserialize, Serialize};

/// One backend server.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backend {
    /// Total requests served.
    pub served: u64,
}

/// A pool of backend servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendPool {
    backends: Vec<Backend>,
    next: usize,
}

impl BackendPool {
    /// Creates a pool of `n` idle backends.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a pool needs at least one backend");
        BackendPool {
            backends: vec![Backend::default(); n],
            next: 0,
        }
    }

    /// Dispatches one request round-robin; returns the chosen backend id.
    pub fn dispatch(&mut self) -> usize {
        let id = self.next;
        self.next = if id + 1 == self.backends.len() {
            0
        } else {
            id + 1
        };
        self.backends[id].served += 1;
        id
    }

    /// Total requests served by the whole pool.
    pub fn total_served(&self) -> u64 {
        self.backends.iter().map(|b| b.served).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_evenly() {
        let mut pool = BackendPool::new(3);
        let mut counts = [0u32; 3];
        for _ in 0..9 {
            counts[pool.dispatch()] += 1;
        }
        assert_eq!(counts, [3, 3, 3]);
        assert_eq!(pool.total_served(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_pool_panics() {
        let _ = BackendPool::new(0);
    }
}
