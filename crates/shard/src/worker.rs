//! The shard worker: one thread owning one partition's algorithm state.
//!
//! A worker receives *jobs* — boxed closures over its state — through a
//! bounded channel, so the hot path (batched updates) and the query path
//! share one FIFO: a query job sent after a stretch of update jobs observes
//! every one of them, which is what makes the sharded engines' barrier-free
//! query protocol correct without any locking around the algorithm state.
//! The bounded channel doubles as backpressure: a producer that outruns its
//! workers blocks instead of queueing unbounded batches.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// A unit of work executed on the worker thread against the shard state.
pub(crate) type Job<S> = Box<dyn FnOnce(&mut S) + Send + 'static>;

/// A worker thread owning a shard's state of type `S`.
///
/// Jobs run strictly in submission order. Dropping the worker closes the
/// channel, drains the remaining jobs and joins the thread.
///
/// A job that panics ends the thread, which drops the channel's receiver
/// and every job still queued, reply channels included. No wait on a dead
/// worker can hang: `send` and `call` fail at once, or as soon as the
/// thread dies, and each of the three failure panics names the thread and
/// ends with the job's own panic message, which the thread records before
/// it unwinds.
#[derive(Debug)]
pub(crate) struct ShardWorker<S: Send + 'static> {
    name: String,
    tx: Option<SyncSender<Job<S>>>,
    handle: Option<JoinHandle<()>>,
    /// The message of the panic that ended the thread, set before the
    /// thread drops its receiver.
    cause: Arc<OnceLock<String>>,
}

impl<S: Send + 'static> ShardWorker<S> {
    /// Spawns a worker named `name` with a job queue of `depth` entries.
    pub(crate) fn spawn(name: String, depth: usize, mut state: S) -> Self {
        assert!(depth > 0, "job queue depth must be positive");
        let (tx, rx): (SyncSender<Job<S>>, Receiver<Job<S>>) = sync_channel(depth);
        let cause = Arc::new(OnceLock::new());
        let recorded = Arc::clone(&cause);
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    recording(&recorded, || job(&mut state));
                }
            })
            .expect("failed to spawn shard worker thread");
        ShardWorker {
            name,
            tx: Some(tx),
            handle: Some(handle),
            cause,
        }
    }

    /// Panics naming the worker, what failed, and the panic that ended its
    /// thread.
    fn fail(&self, what: &str) -> ! {
        let cause = self.cause.get().map_or("", String::as_str);
        panic!("shard worker {} {what}: {cause}", self.name)
    }

    /// Enqueues a fire-and-forget job (the update hot path). Blocks when the
    /// queue is full (backpressure).
    ///
    /// # Panics
    /// Panics naming the worker when its thread has panicked.
    pub(crate) fn send(&self, job: Job<S>) {
        self.tx
            .as_ref()
            .expect("shard worker already shut down")
            .send(job)
            .unwrap_or_else(|_| self.fail("hung up: it panicked"));
    }

    /// Runs `f` on the worker thread after all previously enqueued jobs and
    /// returns its result (the query path).
    ///
    /// # Panics
    /// Panics naming the worker when its thread panics before `f` returns.
    pub(crate) fn call<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut S) -> R + Send + 'static,
    {
        let (rtx, rrx) = sync_channel(1);
        let recorded = Arc::clone(&self.cause);
        self.send(Box::new(move |state| {
            // Recording inside the job keeps the reply sender alive until
            // the cause of a panic in `f` is set: its drop is what wakes
            // the caller. The receiver outlives the job unless the caller
            // panicked; either way a failed send must not take the worker
            // down.
            let _ = rtx.send(recording(&recorded, || f(state)));
        }));
        rrx.recv()
            .unwrap_or_else(|_| self.fail("dropped a call: it panicked"))
    }
}

/// Runs `job`; when it panics, records the panic's message in `cause`
/// before the unwind resumes.
fn recording<R>(cause: &OnceLock<String>, job: impl FnOnce() -> R) -> R {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let _ = cause.set(panic_message(&*payload));
        resume_unwind(payload)
    })
}

/// The text of a panic payload: `panic!` with arguments carries a
/// `String`, a literal message a `&str`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else {
        "a non-string panic payload".to_string()
    }
}

impl<S: Send + 'static> Drop for ShardWorker<S> {
    fn drop(&mut self) {
        // Closing the channel ends the worker loop after the queue drains.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            // Propagating a worker panic here would abort during unwinding;
            // report it instead.
            if handle.join().is_err() && !std::thread::panicking() {
                self.fail("panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_in_submission_order() {
        let worker: ShardWorker<Vec<u32>> = ShardWorker::spawn("test".into(), 4, Vec::new());
        for i in 0..100 {
            worker.send(Box::new(move |v| v.push(i)));
        }
        let seen = worker.call(|v| v.clone());
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn call_observes_all_prior_sends() {
        let worker: ShardWorker<u64> = ShardWorker::spawn("sum".into(), 2, 0);
        for _ in 0..1000 {
            worker.send(Box::new(|s| *s += 1));
        }
        assert_eq!(worker.call(|s| *s), 1000);
    }

    #[test]
    fn a_panic_in_a_call_reaches_the_caller_and_the_drop() {
        let worker: ShardWorker<u64> = ShardWorker::spawn("boom".into(), 2, 0);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            worker.call(|_| -> u64 { panic!("call fault") })
        }))
        .expect_err("the call returned");
        assert_eq!(
            panic_message(&*failed),
            "shard worker boom dropped a call: it panicked: call fault"
        );
        let dropped =
            catch_unwind(AssertUnwindSafe(move || drop(worker))).expect_err("the drop returned");
        assert_eq!(
            panic_message(&*dropped),
            "shard worker boom panicked: call fault"
        );
    }

    #[test]
    fn drop_drains_the_queue() {
        let worker: ShardWorker<u64> = ShardWorker::spawn("drain".into(), 8, 0);
        for _ in 0..50 {
            worker.send(Box::new(|s| *s += 1));
        }
        drop(worker); // must not deadlock or lose the thread
    }
}
