//! Scoped-thread parallel map — the in-tree replacement for the
//! `rayon::into_par_iter().map().collect()` pattern in the batch-evaluation
//! hot paths (`bench` ch4/ch5 run dozens of independent seeded tuning
//! repetitions per table row; each is seconds of work, so coarse-grained
//! work claiming is all the scheduling this workload needs).
//!
//! Work distribution: items are split into chunks (a few per worker), workers
//! claim whole chunks through a shared atomic cursor (workers that finish
//! early steal the remaining tail), results land in per-chunk slots, and
//! order is preserved — `par_map(xs, f)` returns exactly `xs.map(f)` in input
//! order regardless of interleaving. Thread
//! count comes from `std::thread::available_parallelism`, overridable with
//! the `CITROEN_THREADS` environment variable (set it to `1` to debug).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Telemetry hooks
// ---------------------------------------------------------------------------

/// Observer hooks a higher layer (the `citroen-telemetry` crate) installs so
/// worker threads can attribute their work to the span that called `par_map`.
/// `rt` sits below every other crate and cannot depend on the telemetry
/// crate, so propagation happens through plain function pointers: `capture`
/// runs on the calling thread before workers spawn, its token is handed to
/// `worker_start` on each worker thread, and `worker_end` closes the
/// worker's attribution scope. The two timing arguments let the observer
/// split a worker's wall time into queue wait (spawn → first claim) and work.
#[derive(Clone, Copy)]
pub struct TaskHooks {
    /// Called on the `par_map` caller's thread; returns an opaque scope token
    /// (e.g. the current span id; 0 = none).
    pub capture: fn() -> u64,
    /// Called on each worker thread before it claims work:
    /// `(token, queue_wait_ns)`.
    pub worker_start: fn(u64, u64),
    /// Called on each worker thread after its last chunk: `(work_ns)`.
    pub worker_end: fn(u64),
}

static TASK_HOOKS: OnceLock<TaskHooks> = OnceLock::new();

/// Install the process-wide worker hooks. The first caller wins; returns
/// whether this call installed its hooks.
pub fn set_task_hooks(hooks: TaskHooks) -> bool {
    TASK_HOOKS.set(hooks).is_ok()
}

/// Number of worker threads to use for `n_items` of work.
pub fn thread_count(n_items: usize) -> usize {
    let hw = std::env::var("CITROEN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
    hw.min(n_items).max(1)
}

// ---------------------------------------------------------------------------
// Chunked work queue (shared by `par_map` and `WorkerPool::map`)
// ---------------------------------------------------------------------------

/// Chunked work queue: the input is pre-split into ~4 chunks per worker —
/// small enough that an unlucky slow chunk still load-balances, large
/// enough to amortise the claim — and workers grab whole chunks through a
/// single shared atomic cursor. Each chunk's Mutex is locked exactly twice
/// (claim, deposit) by one worker, so there is no lock contention and no
/// per-item locking; flattening the chunk results in queue order restores
/// the input order.
struct ChunkQueue<T, R> {
    chunks: Vec<Mutex<Option<Vec<T>>>>,
    outputs: Vec<Mutex<Option<Vec<R>>>>,
    next: AtomicUsize,
}

impl<T: Send, R: Send> ChunkQueue<T, R> {
    fn new(mut items: Vec<T>, workers: usize) -> ChunkQueue<T, R> {
        let chunk_size = items.len().div_ceil(workers * 4).max(1);
        let mut chunks: Vec<Mutex<Option<Vec<T>>>> = Vec::new();
        while !items.is_empty() {
            let rest = items.split_off(chunk_size.min(items.len()));
            chunks.push(Mutex::new(Some(items)));
            items = rest;
        }
        let outputs = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
        ChunkQueue { chunks, outputs, next: AtomicUsize::new(0) }
    }

    /// One worker's claim loop: grab chunks until the queue is drained,
    /// wrapping the whole stint in the observer hooks (if installed).
    fn drain(&self, f: &(impl Fn(T) -> R + Sync), token: u64, spawned_at: Instant) {
        let hooks = TASK_HOOKS.get();
        if let Some(h) = hooks {
            (h.worker_start)(token, spawned_at.elapsed().as_nanos() as u64);
        }
        let work_start = Instant::now();
        loop {
            let ci = self.next.fetch_add(1, Ordering::Relaxed);
            if ci >= self.chunks.len() {
                break;
            }
            let batch = self.chunks[ci].lock().unwrap().take().expect("chunk claimed once");
            let out: Vec<R> = batch.into_iter().map(f).collect();
            *self.outputs[ci].lock().unwrap() = Some(out);
        }
        if let Some(h) = hooks {
            (h.worker_end)(work_start.elapsed().as_nanos() as u64);
        }
    }

    fn collect(self) -> Vec<R> {
        self.outputs
            .into_iter()
            .flat_map(|m| m.into_inner().unwrap().expect("every chunk completed"))
            .collect()
    }
}

/// Apply `f` to every item on a pool of scoped threads; results are returned
/// in input order. Falls back to a plain sequential map for 0–1 items or a
/// single available core.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = thread_count(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = ChunkQueue::new(items, workers);
    let token = TASK_HOOKS.get().map(|h| (h.capture)()).unwrap_or(0);
    let spawned_at = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, f) = (&queue, &f);
            scope.spawn(move || queue.drain(f, token, spawned_at));
        }
    });
    queue.collect()
}

// ---------------------------------------------------------------------------
// Reusable worker pool
// ---------------------------------------------------------------------------

/// A lifetime-erased shared closure every pool worker invokes exactly once
/// per submitted job. The submitting thread blocks until all workers have
/// returned, so the borrowed closure outlives every use (see
/// [`WorkerPool::map`] for the safety argument).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync` (required at construction in `map`) and only
// ever called through a shared reference, so shipping the pointer to worker
// threads is sound.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per submitted job so a worker never runs the same job
    /// twice and never misses one.
    seq: u64,
    /// Workers still executing the current job.
    running: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signalled when a new job is published (or on shutdown).
    go: Condvar,
    /// Signalled when the last worker finishes the current job.
    done: Condvar,
}

/// A reusable handle to a fixed set of persistent worker threads with the
/// same order-preserving chunked map semantics as [`par_map`].
///
/// [`par_map`] spawns and joins scoped threads per call — fine for the
/// seconds-long batch jobs in `bench`, but inside the tuning loop a small
/// batch (q = 2–8 candidates, each a few ms) is dispatched every iteration
/// and the per-call spawn/join would dominate. The pool parks its workers on
/// a condvar between jobs, so dispatch cost is one mutex round-trip.
///
/// `map` is **not reentrant**: calling `pool.map` from inside a closure
/// running on the same pool deadlocks (the submit blocks on workers that are
/// themselves blocked on the submit). Use a separate pool (or `par_map`) for
/// nested parallelism.
///
/// `map` **is** safe to call from multiple threads on a shared pool (e.g.
/// `Arc<WorkerPool>` across daemon sessions): the pool has a single
/// published-job slot, so concurrent submitters serialise on an internal
/// mutex at whole-batch granularity — one session's batch fully drains
/// before the next is published. Workers stay saturated; the waiting
/// submitter is parked, not spinning.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    /// Serialises concurrent `map` callers over the single job slot. Held
    /// from publish to drain; see the struct docs for the sharing contract.
    submit: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to ≥1; a 1-worker pool
    /// spawns no threads and maps sequentially).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                job: None,
                seq: 0,
                running: 0,
                panicked: false,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = if workers > 1 {
            (0..workers)
                .map(|_| {
                    let inner = Arc::clone(&inner);
                    std::thread::spawn(move || Self::worker_loop(&inner))
                })
                .collect()
        } else {
            Vec::new()
        };
        WorkerPool { inner, submit: Mutex::new(()), handles }
    }

    /// Number of worker threads (1 = sequential fallback).
    pub fn workers(&self) -> usize {
        self.handles.len().max(1)
    }

    fn worker_loop(inner: &PoolInner) {
        let mut last_seq = 0u64;
        loop {
            let job = {
                let mut st = inner.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.seq != last_seq {
                        if let Some(j) = st.job {
                            last_seq = st.seq;
                            break j;
                        }
                    }
                    st = inner.go.wait(st).unwrap();
                }
            };
            // A panicking closure must not kill the worker (the pool would
            // deadlock waiting on it forever); catch and report instead.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*job.0)()
            }));
            let mut st = inner.state.lock().unwrap();
            st.running -= 1;
            if result.is_err() {
                st.panicked = true;
            }
            if st.running == 0 {
                inner.done.notify_all();
            }
        }
    }

    /// Apply `f` to every item on the pool's workers; results in input order
    /// (exactly [`par_map`]'s semantics). Panics if any worker closure
    /// panicked. Safe to call repeatedly; each call fully drains before
    /// returning, so `f` may borrow from the caller's stack.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers();
        if workers <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }

        let queue = ChunkQueue::new(items, workers);
        let token = TASK_HOOKS.get().map(|h| (h.capture)()).unwrap_or(0);
        let submitted_at = Instant::now();
        let work = || queue.drain(&f, token, submitted_at);
        let job_ref: &(dyn Fn() + Sync) = &work;
        // SAFETY: we publish a raw pointer to a stack-borrowed closure, but
        // this very call blocks below until `running == 0`, i.e. until every
        // worker has returned from its single invocation — the pointee
        // strictly outlives all dereferences. The erased-lifetime pointer is
        // cleared before returning.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(job_ref)
        });

        // Serialise concurrent submitters: a poisoned lock (a previous
        // submitter's closure panicked while holding it) is still structurally
        // sound — the job slot below was cleared before the unwind reached
        // here — so recover the guard rather than cascading the panic.
        let _submit = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        let panicked = {
            let mut st = self.inner.state.lock().unwrap();
            st.job = Some(job);
            st.seq += 1;
            st.running = self.handles.len();
            drop(st);
            self.inner.go.notify_all();

            let mut st = self.inner.state.lock().unwrap();
            while st.running > 0 {
                st = self.inner.done.wait(st).unwrap();
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        if panicked {
            panic!("WorkerPool: a worker closure panicked");
        }
        queue.collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn preserves_order_and_values() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = par_map(xs.clone(), |x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<i32> = par_map(Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![7], |x| x * 2), vec![14]);
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) < 2
            || std::env::var("CITROEN_THREADS").ok().as_deref() == Some("1")
        {
            return; // single-core host: nothing to observe
        }
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        par_map((0..16).collect::<Vec<_>>(), |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(20));
        });
        let distinct = seen.lock().unwrap().len();
        assert!(distinct >= 2, "expected ≥2 worker threads, saw {distinct}");
    }

    #[test]
    fn thread_count_respects_env_and_items() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1000) >= 1);
    }

    #[test]
    fn pool_matches_sequential_across_repeated_maps() {
        let pool = WorkerPool::new(4);
        for round in 0..10u64 {
            let xs: Vec<u64> = (0..97).collect();
            let got = pool.map(xs.clone(), |x| x * x + round);
            let want: Vec<u64> = xs.iter().map(|x| x * x + round).collect();
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn pool_closure_may_borrow_caller_stack() {
        let pool = WorkerPool::new(3);
        let offsets: Vec<u64> = (0..8).collect();
        let got = pool.map((0..32u64).collect(), |x| x + offsets[(x % 8) as usize]);
        let want: Vec<u64> = (0..32u64).map(|x| x + offsets[(x % 8) as usize]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_single_worker_falls_back_sequentially() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(vec![1, 2, 3], |x| x * 10), vec![10, 20, 30]);
        assert_eq!(pool.map(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
    }

    #[test]
    fn pool_is_safe_under_concurrent_submitters() {
        // Several session threads share one pool (the daemon's layout): each
        // submits its own batches concurrently and must get back exactly its
        // own results in order — the submit mutex serialises batches over
        // the single published-job slot.
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let handles: Vec<_> = (0..6u64)
            .map(|session| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..20u64 {
                        let xs: Vec<u64> = (0..33).collect();
                        let got = pool.map(xs.clone(), |x| x * session + round);
                        let want: Vec<u64> =
                            xs.iter().map(|x| x * session + round).collect();
                        assert_eq!(got, want, "session {session} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pool_propagates_worker_panics_and_stays_usable_for_drop() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0..8u32).collect(), |x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(caught.is_err(), "panic in a worker closure must propagate");
        // The pool stays usable after a propagated panic (the submit lock
        // recovers from poisoning), and Drop still joins all workers.
        assert_eq!(pool.map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
        drop(pool);
    }
}
