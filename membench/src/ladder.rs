//! The interleaved round-robin timer.
//!
//! On a shared, noisy host, timing variant A for a while and then variant B
//! lets host drift masquerade as a difference between them. Running one
//! pass of each variant per round, round after round, spreads the drift
//! over all of them equally; the per-variant median over rounds then
//! compares like with like. The layer ladder runs its rungs this way, and
//! the end-to-end repetitions are the one-variant case.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed pass: how many items the timed part processed, and how long
/// it took. Set-up done inside a pass before timing starts is not counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Items processed by the timed part.
    pub items: u64,
    /// Wall time of the timed part.
    pub nanos: u64,
}

impl Pass {
    /// Nanoseconds per item.
    pub fn ns_per_item(&self) -> f64 {
        self.nanos as f64 / self.items.max(1) as f64
    }

    /// Million items per second.
    pub fn mitems_per_s(&self) -> f64 {
        self.items as f64 * 1e3 / self.nanos.max(1) as f64
    }
}

/// Times `work` over `items` items; its result is kept observable so the
/// measured work cannot be optimized away.
pub fn time_pass<R>(items: u64, work: impl FnOnce() -> R) -> Pass {
    let start = Instant::now();
    black_box(work());
    Pass {
        items,
        nanos: start.elapsed().as_nanos() as u64,
    }
}

/// A named variant under the round-robin timer.
pub struct Rung<'a> {
    /// Name of the layer the rung adds.
    pub name: &'static str,
    /// One pass: untimed set-up, then the timed part.
    pub pass: Box<dyn FnMut() -> Pass + 'a>,
}

impl<'a> Rung<'a> {
    /// A rung named `name` running `pass`.
    pub fn new(name: &'static str, pass: impl FnMut() -> Pass + 'a) -> Self {
        Rung {
            name,
            pass: Box::new(pass),
        }
    }
}

/// Runs one pass of every rung per round, in order, until `budget` has
/// elapsed and at least `min_rounds` rounds have run. Returns every pass,
/// grouped by rung.
pub fn round_robin(rungs: &mut [Rung<'_>], budget: Duration, min_rounds: usize) -> Vec<Vec<Pass>> {
    let start = Instant::now();
    let mut passes = vec![Vec::new(); rungs.len()];
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        for (rung, out) in rungs.iter_mut().zip(passes.iter_mut()) {
            out.push((rung.pass)());
        }
        rounds += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn rungs_alternate_every_round() {
        let order = RefCell::new(Vec::new());
        let mut rungs = vec![
            Rung::new("a", || {
                order.borrow_mut().push('a');
                Pass {
                    items: 10,
                    nanos: 20,
                }
            }),
            Rung::new("b", || {
                order.borrow_mut().push('b');
                Pass {
                    items: 10,
                    nanos: 50,
                }
            }),
        ];
        let passes = round_robin(&mut rungs, Duration::ZERO, 3);
        drop(rungs);
        assert_eq!(order.into_inner(), vec!['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(passes.len(), 2);
        assert!(passes.iter().all(|p| p.len() == 3));
        assert_eq!(passes[1][0].ns_per_item(), 5.0);
        assert_eq!(passes[0][0].mitems_per_s(), 500.0);
    }

    #[test]
    fn the_budget_extends_past_the_minimum() {
        let mut rungs = vec![Rung::new("sleep", || {
            time_pass(1, || std::thread::sleep(Duration::from_millis(2)))
        })];
        let passes = round_robin(&mut rungs, Duration::from_millis(20), 1);
        assert!(passes[0].len() >= 5, "{} passes", passes[0].len());
        assert!(passes[0].iter().all(|p| p.nanos >= 2_000_000));
    }
}
