//! A work-stealing worker pool over `std` primitives, with ordered
//! parallel maps over both owned (`'static`) and borrowed (scoped) work.
//!
//! The pool owns long-lived workers, each with its own deque;
//! [`WorkerPool::spawn`] distributes jobs round-robin and idle workers
//! steal from their siblings' queues, so an uneven job mix still keeps
//! every thread busy. Jobs are plain `FnOnce` boxes; a panicking job is
//! caught and dropped so one poisoned work item cannot take a worker
//! (and every queued job behind it) down with it.
//!
//! [`WorkerPool::scope_map`] is the replacement for the
//! `std::thread::scope` chunking that used to be copy-pasted across
//! `gestureprint-core`, `gp-datasets`, and the serve bench: it runs a
//! borrowing closure over items *on the pool's existing threads* and
//! blocks until every item has finished, which is what makes the
//! borrow sound (see the safety comment inside).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use gp_telemetry::{Counter, Gauge, Registry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Utilization handles installed by [`WorkerPool::instrument`]: how
/// many workers are busy right now, how many jobs ran (and how many of
/// those panicked), and the total busy time — enough to derive
/// busy/idle utilization from any two snapshots.
struct PoolMetrics {
    busy_workers: Arc<Gauge>,
    jobs: Arc<Counter>,
    panics: Arc<Counter>,
    busy_us: Arc<Counter>,
}

/// Locks ignoring poison: pool bookkeeping must stay reachable even if
/// some thread panicked at an unfortunate moment, because
/// [`WorkerPool::scope_map`]'s soundness depends on always being able
/// to wait for outstanding jobs.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Job-count + shutdown flag, guarded together so workers can sleep.
struct PoolState {
    /// Jobs queued but not yet claimed by a worker.
    queued: usize,
    shutdown: bool,
}

struct PoolShared {
    /// One deque per worker; `spawn` round-robins, idle workers steal.
    queues: Vec<Mutex<VecDeque<Job>>>,
    state: Mutex<PoolState>,
    work_available: Condvar,
    /// Set at most once by [`WorkerPool::instrument`]; uninstrumented
    /// pools pay a single relaxed load per job.
    metrics: OnceLock<PoolMetrics>,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool drains all queued jobs, then joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    next: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
}

/// Completion latch for one `scope_map` call: counts finished jobs and
/// wakes the waiting caller.
struct Latch {
    count: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            count: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Blocks until `n` jobs have counted themselves finished.
    fn wait(&self, n: usize) {
        let mut count = lock(&self.count);
        while *count < n {
            count = self
                .done
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Counts one finished job on drop — so a panicking closure still
/// counts and the caller cannot wait forever. The notify happens while
/// the latch mutex is held: once the caller observes the final count
/// (and may free the latch), this guard provably no longer touches it.
struct LatchGuard<'a>(&'a Latch);

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        let mut count = lock(&self.0.count);
        *count += 1;
        self.0.done.notify_all();
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (`0` = available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            state: Mutex::new(PoolState {
                queued: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            metrics: OnceLock::new(),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gp-runtime-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            next: AtomicUsize::new(0),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Publishes this pool's utilization into `registry` under
    /// `{prefix}.busy_workers` (gauge), `{prefix}.jobs`,
    /// `{prefix}.panics` (jobs that panicked, counted in `jobs` too) and
    /// `{prefix}.busy_us` (counters), and `{prefix}.workers` (gauge,
    /// the fixed thread count). Calling it again (any prefix) is a
    /// no-op: the first registration wins.
    pub fn instrument(&self, registry: &Registry, prefix: &str) {
        registry
            .gauge(&format!("{prefix}.workers"))
            .set(self.threads() as i64);
        let _ = self.shared.metrics.set(PoolMetrics {
            busy_workers: registry.gauge(&format!("{prefix}.busy_workers")),
            jobs: registry.counter(&format!("{prefix}.jobs")),
            panics: registry.counter(&format!("{prefix}.panics")),
            busy_us: registry.counter(&format!("{prefix}.busy_us")),
        });
    }

    /// Enqueues a job; returns immediately.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.inject(Box::new(job));
    }

    fn inject(&self, job: Job) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        lock(&self.shared.queues[w]).push_back(job);
        let mut state = lock(&self.shared.state);
        state.queued += 1;
        drop(state);
        self.shared.work_available.notify_one();
    }

    /// Parallel indexed map whose closure may borrow from the caller —
    /// the streaming-pool replacement for `std::thread::scope` chunking.
    /// Applies `f(index, item)` to every item on the pool's workers and
    /// blocks until all results are in, preserving input order.
    ///
    /// Results are positional, so a pure `f` yields identical output
    /// for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if any closure invocation panicked (after all items have
    /// finished). Must not be called from within a pool job of the same
    /// pool: the caller blocks its worker, which can deadlock.
    pub fn scope_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());
        let latch = Latch::new();
        {
            let slots = &slots;
            let latch = &latch;
            let f = &f;
            for (i, item) in items.into_iter().enumerate() {
                let job = move || {
                    // Declared first so it drops last: the slot write
                    // happens before the finish count, and a panic in
                    // `f` still counts on unwind (leaving the slot
                    // empty, which the caller detects below).
                    let _finished = LatchGuard(latch);
                    let out = f(i, item);
                    lock(slots)[i] = Some(out);
                };
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
                // SAFETY: the job borrows `f`, `slots`, and `latch`,
                // which live on this stack frame. Erasing the lifetime
                // is sound because this function cannot return (or
                // unwind) before `latch.wait(n)` observes every job
                // finished: jobs enqueued on the pool always run
                // (worker panics are caught per job, and pool shutdown
                // drains queues before joining), every job counts the
                // latch exactly once via `LatchGuard` even when `f`
                // panics, and nothing between this loop and the wait
                // can fail (all pool/latch locks ignore poisoning).
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                self.inject(job);
            }
            latch.wait(n);
        }
        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("a scoped map closure panicked; its result slot is empty"))
            .collect()
    }
}

fn worker_loop(me: usize, shared: &PoolShared) {
    loop {
        // Sleep until a job is queued (or drain the backlog on shutdown).
        {
            let mut state = lock(&shared.state);
            while state.queued == 0 && !state.shutdown {
                state = shared
                    .work_available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.queued == 0 && state.shutdown {
                return;
            }
            state.queued -= 1;
        }
        // One job is now reserved for us somewhere: own queue first
        // (front, FIFO), then steal from siblings (back, LIFO — the
        // classic stealing end). The reservation count guarantees the
        // scan terminates.
        let job = 'find: loop {
            for k in 0..shared.queues.len() {
                let q = (me + k) % shared.queues.len();
                let popped = {
                    let mut queue = lock(&shared.queues[q]);
                    if q == me {
                        queue.pop_front()
                    } else {
                        queue.pop_back()
                    }
                };
                if let Some(job) = popped {
                    break 'find job;
                }
            }
            std::thread::yield_now();
        };
        // A panicking job must not kill the worker: the queue behind it
        // still has owners waiting on results. Instrumented pools count
        // the panic.
        if let Some(metrics) = shared.metrics.get() {
            metrics.busy_workers.add(1);
            let start = std::time::Instant::now();
            if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                metrics.panics.inc();
            }
            metrics.busy_us.add(start.elapsed().as_micros() as u64);
            metrics.jobs.inc();
            metrics.busy_workers.sub(1);
        } else {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.scope_map((0..100u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scope_map_borrows_caller_state() {
        let pool = WorkerPool::new(3);
        // Borrowed, non-'static data: the whole point of scope_map.
        let base = vec![10u64, 20, 30, 40, 50];
        let out = pool.scope_map((0..5usize).collect(), |_, i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41, 51]);
    }

    #[test]
    fn scope_map_matches_serial_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 5] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.scope_map(items.clone(), |_, x| x * x + 1), serial);
        }
    }

    #[test]
    fn many_more_jobs_than_workers_all_run() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..500 {
            let counter = counter.clone();
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains the backlog before joining
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        pool.spawn(|| panic!("poisoned batch"));
        // The pool must still process subsequent work on every thread.
        let out = pool.scope_map((0..64u64).collect(), |_, x| x + 1);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn panicking_map_closure_panics_the_caller_instead_of_hanging() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map((0..8u64).collect(), |_, x| {
                if x == 3 {
                    panic!("bad item");
                }
                x
            })
        }));
        assert!(result.is_err(), "scope_map must not swallow the panic");
        // And the pool is still usable afterwards.
        assert_eq!(pool.scope_map(vec![1u64], |_, x| x * 2), vec![2]);
    }

    #[test]
    fn instrumented_pool_counts_jobs_and_busy_time() {
        let registry = Registry::new();
        let pool = WorkerPool::new(2);
        pool.instrument(&registry, "pool");
        pool.scope_map((0..32u64).collect(), |_, _| {
            std::thread::sleep(std::time::Duration::from_micros(300));
        });
        // The scope_map latch releases inside the job, a hair before the
        // worker's metric writes; joining the workers makes the counters
        // exact rather than eventually-consistent.
        drop(pool);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges.get("pool.workers"), Some(&2));
        assert_eq!(snap.counters.get("pool.jobs"), Some(&32));
        // 32 × ≥300 µs of work happened on the pool's clock.
        assert!(snap.counters["pool.busy_us"] >= 32 * 300);
        // Quiesced: nobody is mid-job now.
        assert_eq!(snap.gauges.get("pool.busy_workers"), Some(&0));
    }

    #[test]
    fn instrumented_pool_counts_job_panics() {
        let registry = Registry::new();
        let pool = WorkerPool::new(2);
        pool.instrument(&registry, "pool");
        pool.spawn(|| panic!("bad job"));
        for _ in 0..5 {
            pool.spawn(|| {});
        }
        // Dropping drains the queues and joins the workers, so the
        // counters are final.
        drop(pool);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("pool.panics"), Some(&1));
        assert_eq!(snap.counters.get("pool.jobs"), Some(&6));
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn work_distributes_across_threads() {
        let pool = WorkerPool::new(4);
        let seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        let slow = std::time::Duration::from_millis(20);
        pool.scope_map((0..16u64).collect(), |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(slow);
        });
        // With 16 × 20 ms jobs on 4 workers, at least two threads must
        // have participated (a single thread would need 320 ms of
        // serial work while its siblings steal).
        assert!(seen.lock().unwrap().len() >= 2);
    }
}
