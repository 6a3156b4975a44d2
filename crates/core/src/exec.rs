//! Parallel execution for batch evaluations.
//!
//! Every parallel evaluation in this crate — the batch kernel, the grid
//! lattice, frontier rows, Monte-Carlo trials and tornado probes — fans
//! out through one primitive, [`try_fill_chunks`]: the caller's output
//! slice is split into one static contiguous chunk per scoped worker
//! thread, and each worker writes its chunk in place. Nothing is buffered
//! or reassembled, and a value depends only on its index, which makes every
//! parallel API in this crate **deterministic regardless of thread count**
//! — a property the Monte-Carlo engine relies on.
//!
//! The scoped fan-out is dependency-free (no rayon in the offline build
//! environment) and unsafe-free. [`WorkerPool`] is the separate,
//! long-lived pool a server hands whole requests to.
//!
//! The default worker count is [`std::thread::available_parallelism`],
//! overridable with the `GF_THREADS` environment variable (`GF_THREADS=1`
//! forces serial evaluation).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Default number of worker threads: `GF_THREADS` if set and valid,
/// otherwise the machine's available parallelism.
///
/// Resolved once per process: the environment scan behind
/// [`std::env::var`] is measurable on the batch-kernel hot path (every
/// `threads = 0` call would otherwise pay it), and the override is a
/// process-launch knob, not a runtime one.
pub fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(value) = std::env::var("GF_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Fills `out[i] = f(i)` in parallel, writing directly into the caller's
/// buffer: [`try_fill_chunks`] with one call per index, used by
/// Monte-Carlo trials and tornado probes.
///
/// # Errors
///
/// Returns the error with the **lowest index**, like [`try_fill_chunks`];
/// `out` is left partially written in that case and callers must treat
/// its contents as unspecified.
pub fn try_fill_indexed<T, E, F>(out: &mut [T], threads: usize, f: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_fill_chunks(out, threads, |start, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + j)?;
        }
        Ok(())
    })
}

/// Hands each worker one contiguous chunk of `out` to fill in place:
/// `fill(start, chunk)` writes `out[start..start + chunk.len()]`. One call
/// per chunk lets a filler carry state from one index to the next, as the
/// batch kernel ([`crate::ResultBuffer`]) does with the application lines
/// of the previous point. The frontier's items are the rows of its winner
/// mask, each a slice it fills in place.
///
/// The index space is split into one contiguous chunk per worker (static
/// partitioning: the per-item cost of a model evaluation is uniform, so
/// dynamic chunking would only add cursor traffic), each worker writes its
/// chunk via `split_at_mut`, and nothing is buffered or reassembled
/// afterwards. Results are identical for every thread count as long as
/// `fill` writes the same value at an index whatever chunk it lands in.
///
/// # Errors
///
/// `fill` stops at the first error of its chunk. Chunks are in index
/// order, so the error of the lowest failing chunk is the lowest-index
/// error overall, and that one is returned. `out` is left partially
/// written in that case.
pub fn try_fill_chunks<T, E, F>(out: &mut [T], threads: usize, fill: F) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    let n = out.len();
    let workers = effective_workers(n, threads);
    if workers <= 1 {
        return fill(0, out);
    }

    let base = n / workers;
    let extra = n % workers;
    let fill = &fill;
    let results: Vec<Result<(), E>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = out;
        let mut begin = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let start = begin;
            begin += len;
            handles.push(scope.spawn(move || fill(start, chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("batch fill worker panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// A persistent pool of joinable worker threads for long-lived services.
///
/// The batch kernels above use *scoped* threads: they spawn for one call
/// and join before it returns, which is the right shape for a CLI that
/// evaluates one artifact and exits. A server that handles connections for
/// hours must not pay a thread spawn per request, and must be able to shut
/// down without leaking threads — `WorkerPool` owns its threads for its
/// whole lifetime, hands them jobs over a channel, and **joins every one of
/// them on drop** (after draining jobs already queued).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = greenfpga::exec::WorkerPool::new(4);
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let counter = Arc::clone(&counter);
///     pool.execute(move |_claimed| {
///         counter.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// drop(pool); // joins the workers; every queued job has run
/// assert_eq!(counter.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    live: Arc<AtomicUsize>,
    queued: Arc<AtomicUsize>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl WorkerPool {
    /// Spawns a pool of `threads` workers (`0` = [`default_threads`]).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let live = Arc::new(AtomicUsize::new(0));
        let queued = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let live = Arc::clone(&live);
                let queued = Arc::clone(&queued);
                std::thread::spawn(move || {
                    // Guard-scoped count so the decrement runs even when a
                    // job panics and unwinds the worker.
                    struct LiveGuard(Arc<AtomicUsize>);
                    impl Drop for LiveGuard {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    live.fetch_add(1, Ordering::SeqCst);
                    let _guard = LiveGuard(live);
                    loop {
                        // Take the lock only to receive; never hold it while
                        // a job runs, so workers pull jobs concurrently.
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break, // sibling panicked holding the lock
                        };
                        match job {
                            Ok(job) => {
                                // Claimed: the job leaves the queue before it
                                // runs, so `queue_depth` counts only jobs
                                // still waiting for a worker.
                                queued.fetch_sub(1, Ordering::SeqCst);
                                job();
                            }
                            Err(_) => break, // channel closed: pool dropped
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            live,
            queued,
        }
    }

    /// Number of worker threads the pool was built with.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Number of worker threads currently running their loop. Drops to zero
    /// once the pool has been dropped and every worker has exited — the
    /// observable the leak tests assert on.
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Queues a job. Jobs run in FIFO claim order on whichever worker frees
    /// up first. Returns `false` if the pool is shutting down (only possible
    /// mid-drop, which safe callers never observe).
    ///
    /// The job runs under the submitter's current request id
    /// ([`gf_trace::current_request`]), so its own spans and the pool's
    /// `job_queue_wait` (enqueue → claim) and `job_run` (claim → done)
    /// spans land under the request that queued it. The job is handed the
    /// claim stamp (0 untraced), which opens its first span.
    pub fn execute(&self, job: impl FnOnce(u64) + Send + 'static) -> bool {
        match &self.sender {
            Some(sender) => {
                self.queued.fetch_add(1, Ordering::SeqCst);
                let request_id = gf_trace::current_request();
                let queued_ticks = gf_trace::open();
                let job: Job = Box::new(move || {
                    gf_trace::set_current_request(request_id);
                    let claimed =
                        gf_trace::close(gf_trace::SpanName::JobQueueWait, queued_ticks, 0);
                    job(claimed);
                    gf_trace::close(gf_trace::SpanName::JobRun, claimed, 0);
                    gf_trace::set_current_request(0);
                });
                if sender.send(job).is_ok() {
                    true
                } else {
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                    false
                }
            }
            None => false,
        }
    }

    /// Number of queued jobs no worker has claimed yet — the backlog a
    /// long-lived service watches for admission control. A job leaves the
    /// count the moment a worker picks it up, so a pool with idle capacity
    /// reads `0` even while jobs run.
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }
}

impl Drop for WorkerPool {
    /// Closes the job channel and joins every worker. Queued jobs finish
    /// first; a worker that panicked in a job is reported but does not
    /// poison the join of its siblings.
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                // The panic already unwound the worker (a panicking job is a
                // bug upstream); the join itself still completed, so no
                // thread leaks.
                eprintln!("greenfpga: worker thread panicked in a pool job");
            }
        }
    }
}

/// Fewest items each worker must get before `threads = 0` (auto) fans
/// out. A scoped spawn and join costs ~70 µs on a 2-vCPU host and a
/// batch-kernel point 20–35 ns, so a worker pays for itself only past ~2k
/// points; below that the serial loop wins (a 64-point batch: ~2 µs
/// serial, ~67 µs on two threads). Explicit thread counts are honoured.
const MIN_ITEMS_PER_AUTO_WORKER: usize = 2048;

/// Workers to run `n` items on: `threads` (at most one per item), or for
/// `threads = 0` the machine default capped so each worker gets at least
/// [`MIN_ITEMS_PER_AUTO_WORKER`] items. Never 0.
pub(crate) fn effective_workers(n: usize, threads: usize) -> usize {
    let workers = if threads == 0 {
        default_threads().min(n / MIN_ITEMS_PER_AUTO_WORKER)
    } else {
        threads.min(n)
    };
    workers.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn auto_fan_out_waits_for_enough_items_per_worker() {
        assert_eq!(effective_workers(64, 0), 1, "a small batch stays serial");
        assert_eq!(effective_workers(MIN_ITEMS_PER_AUTO_WORKER * 2 - 1, 0), 1);
        let large = MIN_ITEMS_PER_AUTO_WORKER * 64;
        assert_eq!(effective_workers(large, 0), default_threads().min(64));
        // Explicit counts are honoured, one worker per item at most.
        assert_eq!(effective_workers(64, 8), 8);
        assert_eq!(effective_workers(3, 8), 3);
        assert_eq!(effective_workers(0, 8), 1);
        assert_eq!(effective_workers(0, 0), 1);
    }

    #[test]
    fn results_are_thread_count_independent() {
        let fill = |threads| {
            let mut out = vec![0.0f64; 257];
            let result: Result<(), ()> =
                try_fill_indexed(&mut out, threads, |i| Ok((i as f64).sqrt()));
            assert!(result.is_ok(), "{threads} threads");
            out
        };
        let serial = fill(1);
        for threads in [0, 2, 3, 4, 16] {
            assert_eq!(fill(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn fill_matches_map_for_every_thread_count() {
        let expected: Vec<f64> = (0..257).map(|i| (i as f64).sqrt()).collect();
        for threads in [0, 1, 2, 3, 16] {
            let mut out = vec![0.0f64; 257];
            let result: Result<(), ()> =
                try_fill_indexed(&mut out, threads, |i| Ok((i as f64).sqrt()));
            assert!(result.is_ok());
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn fill_handles_empty_and_tiny_buffers() {
        let mut empty: Vec<usize> = Vec::new();
        assert_eq!(try_fill_indexed::<_, (), _>(&mut empty, 4, Ok), Ok(()));
        let mut one = vec![0usize];
        assert_eq!(
            try_fill_indexed::<_, (), _>(&mut one, 8, |i| Ok(i + 41)),
            Ok(())
        );
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn fill_chunks_partition_the_buffer_into_contiguous_runs() {
        for threads in [1, 2, 3, 16] {
            let chunks = Mutex::new(Vec::new());
            let mut out = vec![0usize; 101];
            let result: Result<(), ()> = try_fill_chunks(&mut out, threads, |start, chunk| {
                for (index, slot) in (start..).zip(chunk.iter_mut()) {
                    *slot = index;
                }
                chunks.lock().unwrap().push((start, chunk.len()));
                Ok(())
            });
            assert!(result.is_ok());
            assert_eq!(out, (0..101).collect::<Vec<_>>(), "{threads} threads");
            let mut chunks = chunks.into_inner().unwrap();
            chunks.sort_unstable();
            assert_eq!(chunks.len(), threads.min(101));
            let mut covered = 0;
            for (start, len) in chunks {
                assert_eq!(start, covered, "{threads} threads");
                covered += len;
            }
            assert_eq!(covered, 101);
        }
    }

    #[test]
    fn pool_runs_every_queued_job_before_join() {
        use std::sync::Arc;
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let counter = Arc::clone(&counter);
            assert!(pool.execute(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn repeated_pool_setup_and_teardown_leaks_no_threads() {
        use std::sync::Arc;
        // The long-lived-server shape: engines (pools) come and go over the
        // process lifetime. Every drop must join its workers — the live
        // count observed after each teardown must return to zero, and the
        // loop must terminate (no deadlock between drop and recv).
        for round in 0..50 {
            let pool = WorkerPool::new(3);
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                pool.execute(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            let live = Arc::clone(&pool.live);
            drop(pool);
            assert_eq!(counter.load(Ordering::Relaxed), 20, "round {round}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "round {round} leaked");
        }
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        use std::sync::Arc;
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.execute(|_| panic!("job panic must not wedge the pool"));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.execute(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        let live = Arc::clone(&pool.live);
        drop(pool);
        // The panicking worker died early, but its sibling drained the
        // queue and both were joined.
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn queue_depth_tracks_unclaimed_jobs() {
        use std::sync::mpsc::channel;
        let pool = WorkerPool::new(1);
        assert_eq!(pool.queue_depth(), 0);
        // Wedge the single worker so further jobs must queue.
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        pool.execute(move |_| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap(); // the blocker has been claimed
        for _ in 0..5 {
            pool.execute(|_| {});
        }
        assert_eq!(pool.queue_depth(), 5, "five jobs wait behind the blocker");
        release_tx.send(()).unwrap();
        drop(pool); // drains the queue and joins
    }

    #[test]
    fn pool_with_auto_sizing_is_usable() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move |_| {
            tx.send(41 + 1).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn fill_returns_lowest_index_error() {
        for threads in [1, 2, 4, 9] {
            let mut out = vec![0usize; 100];
            let result =
                try_fill_indexed(
                    &mut out,
                    threads,
                    |i| {
                        if i % 30 == 7 {
                            Err(i)
                        } else {
                            Ok(i)
                        }
                    },
                );
            assert_eq!(result, Err(7), "{threads} threads");
        }
    }
}
