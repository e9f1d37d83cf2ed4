//! A FIFO worker pool for owned (`'static`) jobs, and an ordered
//! parallel map for borrowed work on scoped threads.
//!
//! [`WorkerPool`] owns long-lived workers that share one job queue:
//! [`WorkerPool::spawn`] appends a job and the next idle worker takes
//! the oldest one. Jobs are plain `FnOnce` boxes; a panicking job is
//! caught and dropped so one poisoned work item cannot take a worker
//! (and every queued job behind it) down with it.
//!
//! [`scope_map`] runs a borrowing closure over items on scoped threads
//! (`std::thread::scope`) and returns the results in input order. It
//! waits only for threads it started itself, so it may be called from
//! anywhere, a pool job or another `scope_map` item included.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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

/// Locks ignoring poison: no job or map closure ever runs under these
/// locks, so a poisoned one still guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `0` means the machine's available parallelism.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Queued jobs and the shutdown flag, guarded together so workers can
/// sleep on one condition variable.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    work_available: Condvar,
    /// Set at most once by [`WorkerPool::instrument`]; uninstrumented
    /// pools pay a single relaxed load per job.
    metrics: OnceLock<PoolMetrics>,
}

/// A fixed-size thread pool over one FIFO job queue.
///
/// Dropping the pool runs every queued job, then joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (`0` = available
    /// parallelism), and returns once every worker is running.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            metrics: OnceLock::new(),
        });
        // A thread's first allocation, as it starts, attaches it to a
        // malloc arena, and a new thread takes over the arena the last
        // exited thread left. Waiting for the workers keeps the threads
        // the caller starts next from racing them for those arenas: in
        // the point_socket benchmark (2-core host) that race decided
        // whether the next training reused a warm arena, and moved peak
        // RSS by up to 13 MiB from run to run.
        let threads = resolve_threads(threads);
        let started = Arc::new(Barrier::new(threads + 1));
        let workers = (0..threads)
            .map(|w| {
                let shared = shared.clone();
                let started = started.clone();
                std::thread::Builder::new()
                    .name(format!("gp-runtime-worker-{w}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(&shared)
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        started.wait();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
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

    /// Enqueues a job behind every job already queued; returns
    /// immediately.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        lock(&self.shared.queue).jobs.push_back(Box::new(job));
        self.shared.work_available.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // Take the oldest job; sleep while the queue is empty, and exit
        // once it is empty after shutdown (so drop drains the backlog).
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
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
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Parallel indexed map whose closure may borrow from the caller:
/// applies `f(index, item)` to every item on `min(threads,
/// items.len())` scoped threads (`threads == 0` = available
/// parallelism) while the caller waits, and returns the results in
/// input order.
///
/// Every thread takes the next unclaimed item in input order until
/// none is left. Results are positional, so a pure `f` yields
/// identical output for any thread count.
///
/// # Panics
///
/// If any invocation of `f` panics, re-panics in the caller with that
/// payload once every thread has finished.
pub fn scope_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    // A closure, so the guard drops before `f` runs (`while let` on the
    // lock itself would hold it through the loop body).
    let next = || lock(&queue).next();
    let run = || {
        let mut done = Vec::new();
        while let Some((i, item)) = next() {
            done.push((i, f(i, item)));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        // Named like the pool's workers. In point_burst benchmark runs
        // each unnamed scoped training thread made 1 200–2 500 voluntary
        // context switches per second and each named one none, and
        // unnamed threads cost `setup_s` about 5%; why the name matters
        // was not found.
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                std::thread::Builder::new()
                    .name(format!("gp-runtime-scope-{t}"))
                    .spawn_scoped(s, run)
                    .expect("failed to spawn scope_map thread")
            })
            .collect();
        let mut done = Vec::new();
        for worker in workers {
            // Resuming here still waits for the other threads: the
            // scope joins every thread before it re-raises the panic.
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let out = scope_map(4, (0..100u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scope_map_borrows_caller_state() {
        // Borrowed, non-'static data: the whole point of scope_map.
        let base = [10u64, 20, 30, 40, 50];
        let out = scope_map(3, (0..5usize).collect(), |_, i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41, 51]);
    }

    #[test]
    fn scope_map_matches_serial_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 5, 64] {
            assert_eq!(scope_map(threads, items.clone(), |_, x| x * x + 1), serial);
        }
    }

    #[test]
    fn scope_map_items_run_on_named_threads() {
        let names = scope_map(2, vec![(); 4], |_, ()| {
            std::thread::current().name().map(str::to_owned)
        });
        for name in names {
            let name = name.expect("a scope_map thread has a name");
            assert!(name.starts_with("gp-runtime-scope-"), "{name}");
        }
    }

    #[test]
    fn scope_map_of_nothing_is_empty() {
        for threads in [0, 1, 4] {
            let out: Vec<u64> = scope_map(threads, Vec::<u64>::new(), |_, x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn scope_map_uses_at_most_min_of_threads_and_items() {
        // Slow items, so every thread that was started gets to take one.
        let threads_used = |threads: usize, items: usize| {
            let ran_on: HashSet<ThreadId> = scope_map(threads, vec![(); items], |_, ()| {
                std::thread::sleep(Duration::from_millis(2));
                std::thread::current().id()
            })
            .into_iter()
            .collect();
            assert!(!ran_on.contains(&std::thread::current().id()));
            ran_on.len()
        };
        assert!(threads_used(2, 8) <= 2);
        assert!(threads_used(16, 3) <= 3);
        assert_eq!(threads_used(16, 1), 1);
    }

    #[test]
    fn nested_scope_map_completes() {
        // Every outer item blocks on an inner map; the inner maps start
        // their own threads, so nothing waits on a busy worker.
        let out = scope_map(2, (0..4u64).collect(), |_, x| {
            scope_map(2, (0..3u64).collect(), |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn scope_map_inside_a_pool_job_completes() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            tx.send(scope_map(2, vec![1u64, 2, 3], |_, x| x * 2))
                .unwrap();
        });
        let out = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn single_worker_runs_jobs_in_submission_order() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50 {
            let order = order.clone();
            pool.spawn(move || order.lock().unwrap().push(i));
        }
        drop(pool);
        assert_eq!(*order.lock().unwrap(), (0..50).collect::<Vec<_>>());
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
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let counter = counter.clone();
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panicking_map_closure_panics_the_caller_instead_of_hanging() {
        let finished = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope_map(2, (0..8u64).collect(), |_, x| {
                if x == 3 {
                    panic!("bad item");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let payload = result.expect_err("scope_map must not swallow the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"bad item"));
        // Every other item still ran before the caller saw the panic.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
        // And scope_map is still usable afterwards.
        assert_eq!(scope_map(2, vec![1u64], |_, x| x * 2), vec![2]);
    }

    #[test]
    fn instrumented_pool_counts_jobs_and_busy_time() {
        let registry = Registry::new();
        let pool = WorkerPool::new(2);
        pool.instrument(&registry, "pool");
        for _ in 0..32 {
            pool.spawn(|| std::thread::sleep(Duration::from_micros(300)));
        }
        // Dropping drains the queue and joins the workers, so the
        // counters are exact rather than eventually-consistent.
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
        // Dropping drains the queue and joins the workers, so the
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
        let seen = Arc::new(Mutex::new(HashSet::<ThreadId>::new()));
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let (seen, running, peak) = (seen.clone(), running.clone(), peak.clone());
            pool.spawn(move || {
                seen.lock().unwrap().insert(std::thread::current().id());
                peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        // With 16 × 20 ms jobs on 4 workers, at least two workers must
        // have taken jobs, and some jobs must have overlapped (a pool
        // that ran one job at a time would peak at 1).
        assert!(seen.lock().unwrap().len() >= 2);
        assert!(peak.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn scope_map_distributes_across_threads() {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        scope_map(4, (0..16u64).collect(), |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(20));
        });
        // With 16 × 20 ms items on 4 threads, at least two threads must
        // have participated (a single thread would need 320 ms of
        // serial work while the others sit idle).
        assert!(seen.into_inner().unwrap().len() >= 2);
    }
}
