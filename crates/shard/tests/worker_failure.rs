//! A shard whose worker panics. The engine waits on its shards only
//! through their job queues, and a dead worker's queue is closed, so a
//! shard that panics — replaying an item, in `skip`, or freezing its part —
//! makes `publish_now`, the queries that force a publication and the
//! engine's drop panic with a message that names the shard and carries the
//! shard's own panic message, while readers keep answering from the last
//! published snapshot.
//!
//! Every scenario runs on a spawned thread, and the test waits for its
//! outcome with a bounded `recv_timeout`: a regression to a hang fails the
//! test instead of stalling the suite.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use memento_core::{Ingest, SlidingWindowEstimator, WindowPatch, WindowQuery};
use memento_shard::{ShardedEstimator, SnapshotReader};
use memento_sketches::{fasthash, ExactWindow};

/// The key that arms a [`Faulty`] shard.
const POISON: u64 = 999;
/// How long one scenario may run before the test calls it a hang; a
/// scenario takes milliseconds.
const BOUND: Duration = Duration::from_secs(30);
/// Every scenario runs at each of these shard counts.
const SHARDS: [usize; 3] = [1, 2, 4];
const FAULTS: [Fault; 3] = [Fault::Update, Fault::Skip, Fault::Freeze];

/// Where a [`Faulty`] shard panics once it has recorded [`POISON`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// On recording the poisoned key itself.
    Update,
    /// In the next `skip`.
    Skip,
    /// In the next `freeze_delta`.
    Freeze,
}

/// An exact window that panics at its [`Fault`] after it has recorded
/// [`POISON`].
struct Faulty {
    window: ExactWindow<u64>,
    fault: Fault,
    armed: bool,
}

impl Faulty {
    fn check(&self, at: Fault) {
        assert!(!(self.armed && self.fault == at), "{at:?} fault injected");
    }
}

impl Ingest<u64> for Faulty {
    fn update(&mut self, key: u64) {
        self.armed |= key == POISON;
        self.check(Fault::Update);
        self.window.update(key);
    }

    fn skip(&mut self, n: u64) {
        self.check(Fault::Skip);
        Ingest::skip(&mut self.window, n);
    }
}

impl WindowQuery<u64> for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn estimate(&self, key: &u64) -> f64 {
        WindowQuery::estimate(&self.window, key)
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        WindowQuery::heavy_hitters(&self.window, threshold)
    }

    fn processed(&self) -> u64 {
        WindowQuery::processed(&self.window)
    }

    fn error_bound(&self) -> f64 {
        0.0
    }

    fn freeze_delta(&mut self) -> WindowPatch<u64> {
        self.check(Fault::Freeze);
        self.window.freeze_delta()
    }
}

impl SlidingWindowEstimator<u64> for Faulty {
    fn space_bytes(&self) -> usize {
        self.window.space_bytes()
    }
}

/// Where the engine is dropped after its failing call.
#[derive(Debug, Clone, Copy)]
enum DropAt {
    /// After the failing call's panic was caught: the drop panics too.
    Outside,
    /// While the failing call unwinds through the frame that owns the
    /// engine: the drop must not panic again, which would abort.
    Unwinding,
}

/// What one scenario left behind.
struct Outcome {
    /// Taken after the clean publication, before the fault.
    reader: SnapshotReader<u64>,
    /// The failing call's panic message.
    failed: String,
    /// The drop's panic message, under [`DropAt::Outside`].
    dropped: Option<String>,
}

/// A panic's message; the engine formats all of its panics.
fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast::<String>()
        .map_or_else(|_| "<not a formatted panic>".into(), |m| *m)
}

/// On a spawned thread: an engine of `shards` [`Faulty`] shards ingests
/// and publishes a clean stream, records [`POISON`] and skips one
/// position, which reaches every shard as the tail of its next shipment.
/// Then `fail` must panic, and the engine is dropped at `drop_at`. Fails
/// the test when the scenario has not sent its outcome within [`BOUND`].
fn run(fault: Fault, shards: usize, fail: fn(&ShardedEstimator<u64>), drop_at: DropAt) -> Outcome {
    let (tx, rx) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let mut engine: ShardedEstimator<u64> = ShardedEstimator::new("faulty", shards, |_| {
            Box::new(Faulty {
                window: ExactWindow::new(10_000),
                fault,
                armed: false,
            })
        });
        engine.update_batch(&clean());
        engine.publish_now();
        let reader = engine.reader();
        engine.update(POISON);
        engine.skip(1);
        let (failed, dropped) = match drop_at {
            DropAt::Outside => {
                let failed = catch_unwind(AssertUnwindSafe(|| fail(&engine)));
                let dropped = catch_unwind(AssertUnwindSafe(move || drop(engine)));
                (failed, Some(dropped.expect_err("the drop returned")))
            }
            DropAt::Unwinding => (catch_unwind(AssertUnwindSafe(move || fail(&engine))), None),
        };
        let _ = tx.send(Outcome {
            reader,
            failed: message(failed.expect_err("the failing call returned")),
            dropped: dropped.map(message),
        });
    });
    let outcome = rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|e| panic!("{fault:?} at {shards} shards, {drop_at:?}: {e}"));
    scenario.join().expect("the scenario sent its outcome last");
    outcome
}

/// The stream published before the fault: keys 0..10, 100 times each.
fn clean() -> Vec<u64> {
    (0..1_000u64).map(|i| i % 10).collect()
}

/// Runs `fail` against every fault at every shard count and checks the
/// outcome.
fn check(fail: fn(&ShardedEstimator<u64>), drop_at: DropAt) {
    for fault in FAULTS {
        for shards in SHARDS {
            let outcome = run(fault, shards, fail, drop_at);
            let shard = format!("faulty-shard-{}", fasthash::route(&POISON, shards));
            let cause = format!("{fault:?} fault injected");
            let case = format!("{fault:?} at {shards} shards, {drop_at:?}");
            for failed in [Some(&outcome.failed), outcome.dropped.as_ref()]
                .into_iter()
                .flatten()
            {
                assert!(failed.contains(&shard), "{case}: {failed}");
                assert!(failed.contains(&cause), "{case}: {failed}");
            }
            let reader = outcome.reader;
            assert_eq!(reader.latest().expect("published").epoch(), 1, "{case}");
            assert_eq!(reader.processed(), 1_000, "{case}");
            for key in 0..10u64 {
                assert_eq!(reader.estimate(&key), 100.0, "{case}");
            }
            assert_eq!(reader.estimate(&POISON), 0.0, "{case}");
        }
    }
}

#[test]
fn publish_now_panics_naming_the_failed_shard() {
    check(
        |engine| {
            engine.publish_now();
        },
        DropAt::Outside,
    );
}

#[test]
fn a_query_forcing_a_publication_panics_naming_the_failed_shard() {
    check(
        |engine| {
            engine.estimate(&1u64);
        },
        DropAt::Outside,
    );
}

#[test]
fn dropping_an_unwinding_engine_does_not_panic_again() {
    check(
        |engine| {
            engine.publish_now();
        },
        DropAt::Unwinding,
    );
}
