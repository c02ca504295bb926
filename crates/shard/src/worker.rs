//! The shard worker: one thread owning one partition's algorithm state.
//!
//! A worker receives *jobs* — boxed closures over its state — through a
//! bounded channel, so the hot path (batched updates) and the query path
//! share one FIFO: a query job sent after a stretch of update jobs observes
//! every one of them, which is what makes the sharded engines' barrier-free
//! query protocol correct without any locking around the algorithm state.
//! The bounded channel doubles as backpressure: a producer that outruns its
//! workers blocks instead of queueing unbounded batches.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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
/// thread dies, and each of the three failure panics names the thread.
#[derive(Debug)]
pub(crate) struct ShardWorker<S: Send + 'static> {
    name: String,
    tx: Option<SyncSender<Job<S>>>,
    handle: Option<JoinHandle<()>>,
}

impl<S: Send + 'static> ShardWorker<S> {
    /// Spawns a worker named `name` with a job queue of `depth` entries.
    pub(crate) fn spawn(name: String, depth: usize, mut state: S) -> Self {
        assert!(depth > 0, "job queue depth must be positive");
        let (tx, rx): (SyncSender<Job<S>>, Receiver<Job<S>>) = sync_channel(depth);
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job(&mut state);
                }
            })
            .expect("failed to spawn shard worker thread");
        ShardWorker {
            name,
            tx: Some(tx),
            handle: Some(handle),
        }
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
            .unwrap_or_else(|_| panic!("shard worker {} hung up: it panicked", self.name));
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
        self.send(Box::new(move |state| {
            // The receiver outlives the job unless the caller panicked;
            // either way a failed send must not take the worker down.
            let _ = rtx.send(f(state));
        }));
        rrx.recv()
            .unwrap_or_else(|_| panic!("shard worker {} dropped a call: it panicked", self.name))
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
                panic!("shard worker {} panicked", self.name);
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
    fn drop_drains_the_queue() {
        let worker: ShardWorker<u64> = ShardWorker::spawn("drain".into(), 8, 0);
        for _ in 0..50 {
            worker.send(Box::new(|s| *s += 1));
        }
        drop(worker); // must not deadlock or lose the thread
    }
}
