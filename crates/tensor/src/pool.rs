//! Bounded kernel worker pool on `zi-sync` primitives.
//!
//! Replaces rayon in the kernel hot paths so tile scheduling runs on
//! the same instrumented Mutex/Condvar/thread primitives as the rest
//! of the runtime — under `--cfg zi_check` the pool is model-checkable
//! (see the `kernel_pool` protocol in `zi-check`).
//!
//! Shape: one FIFO of *jobs*, each a `total`-way index-parallel task.
//! Workers claim indices from the front job under the queue lock and
//! run them outside it. The submitting thread participates in its own
//! job (so a pool with zero workers still makes progress) and then
//! blocks on the job's completion condvar. Completion is tracked with
//! a per-job `Mutex<DoneState>` + Condvar rather than atomics: the
//! mutex provides the happens-before edge from every task's writes to
//! the submitter's return, which both humans and the model checker can
//! reason about locally.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use zi_sync::{Arc, OnceLock};

use zi_sync::{thread, Condvar, Mutex};

/// Lifetime-erased pointer to a submitted task closure. Safe to share
/// because [`KernelPool::run`] does not return until every claimed
/// index has finished executing, so the pointee outlives all uses.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: see the type docs — `KernelPool::run` keeps the pointee alive
// until every worker is done with it, and `dyn Fn(usize) + Sync` makes
// concurrent calls through the pointer sound.
unsafe impl Send for TaskPtr {}
// SAFETY: as above; shared `&TaskPtr` only ever calls the `Sync` closure.
unsafe impl Sync for TaskPtr {}

struct DoneState {
    remaining: usize,
    panicked: bool,
}

struct Job {
    task: TaskPtr,
    done: Mutex<DoneState>,
    done_cv: Condvar,
}

struct Entry {
    job: Arc<Job>,
    total: usize,
    next: usize,
}

struct Queue {
    jobs: VecDeque<Entry>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
}

/// A bounded pool of kernel worker threads (see module docs).
pub struct KernelPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl KernelPool {
    /// Spawn a pool with `workers` threads. Zero workers is valid: jobs
    /// then run entirely on the submitting thread.
    pub fn new(workers: usize) -> KernelPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("zi-kernel-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn kernel worker")
            })
            .collect();
        KernelPool { shared, workers, handles }
    }

    /// Number of worker threads (not counting participating submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(0), f(1), …, f(total - 1)` across the pool and the calling
    /// thread; returns when all indices have completed. Panics (after
    /// all indices finish or are abandoned) if any task panicked.
    pub fn run(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if self.workers == 0 {
            for i in 0..total {
                f(i);
            }
            return;
        }
        // SAFETY: erasing the borrow lifetime only; we wait for
        // `remaining == 0` below, so the closure outlives every use.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
                f,
            )
        });
        let job = Arc::new(Job {
            task,
            done: Mutex::new(DoneState { remaining: total, panicked: false }),
            done_cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock();
            q.jobs.push_back(Entry { job: job.clone(), total, next: 0 });
            self.shared.work_cv.notify_all();
        }
        // Participate: claim indices from our own job until it is fully
        // claimed (other jobs stay with the workers).
        loop {
            let idx = {
                let mut q = self.shared.queue.lock();
                let Some(pos) = q.jobs.iter().position(|e| Arc::ptr_eq(&e.job, &job)) else {
                    break;
                };
                let entry = &mut q.jobs[pos];
                let idx = entry.next;
                entry.next += 1;
                if entry.next == entry.total {
                    q.jobs.remove(pos);
                }
                idx
            };
            execute(&job, idx);
        }
        let mut d = job.done.lock();
        while d.remaining > 0 {
            job.done_cv.wait(&mut d);
        }
        if d.panicked {
            drop(d);
            panic!("kernel pool task panicked");
        }
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, idx) = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(entry) = q.jobs.front_mut() {
                    let idx = entry.next;
                    let job = entry.job.clone();
                    entry.next += 1;
                    if entry.next == entry.total {
                        q.jobs.pop_front();
                    }
                    break (job, idx);
                }
                if q.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut q);
            }
        };
        execute(&job, idx);
    }
}

/// Run one claimed index and record completion. The decrement happens
/// even if the task panics, so the submitter can never block forever;
/// the panic is re-raised on the submitting thread.
fn execute(job: &Arc<Job>, idx: usize) {
    // SAFETY: see `TaskPtr` — the submitter keeps the closure alive
    // until `remaining` hits zero, which happens strictly after this call.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (&*job.task.0)(idx) }));
    let mut d = job.done.lock();
    d.remaining -= 1;
    if result.is_err() {
        d.panicked = true;
    }
    if d.remaining == 0 {
        job.done_cv.notify_all();
    }
}

/// Raw-pointer wrapper for handing disjoint output ranges to pool
/// tasks. Safety is the caller's: tasks must write non-overlapping
/// ranges, and the pointee must outlive the [`KernelPool::run`] call.
pub struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: `SendPtr` is an address, not an access — every dereference is
// `unsafe` at the use site, where the caller must prove disjointness (the
// pool's tiling tests model-check exactly that discipline).
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above; sharing the wrapper grants no access by itself.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a raw pointer for capture by pool task closures.
    pub fn new(ptr: *mut T) -> SendPtr<T> {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    pub fn get(self) -> *mut T {
        self.0
    }
}

fn default_workers() -> usize {
    if let Ok(v) = std::env::var("ZI_KERNEL_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n;
        }
    }
    zi_sync::thread::available_parallelism().map(|n| n.get().saturating_sub(1)).unwrap_or(0)
}

/// The process-wide kernel pool, sized from `ZI_KERNEL_THREADS` or
/// `available_parallelism() - 1` (the submitter participates, so a
/// 1-core machine gets zero workers and runs everything inline).
pub fn global() -> &'static KernelPool {
    static POOL: OnceLock<KernelPool> = OnceLock::new();
    POOL.get_or_init(|| KernelPool::new(default_workers()))
}

/// Run `total` index tasks, on the global pool when `parallel` (and the
/// pool has workers), else inline on the calling thread.
pub fn run_tasks<F: Fn(usize) + Sync>(total: usize, parallel: bool, f: F) {
    if !parallel || total < 2 || global().workers() == 0 {
        for i in 0..total {
            f(i);
        }
    } else {
        global().run(total, &f);
    }
}

/// Split `data` into `chunk`-sized pieces and run `f(chunk_index, piece)`
/// for each, in parallel when asked and profitable. The sequential and
/// parallel paths visit identical (index, range) pairs, so kernels whose
/// per-chunk work is independent produce identical bytes either way.
pub(crate) fn for_chunks<T, F>(data: &mut [T], chunk: usize, parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let tasks = n.div_ceil(chunk);
    if !parallel || tasks < 2 || global().workers() == 0 {
        for (i, piece) in data.chunks_mut(chunk).enumerate() {
            f(i, piece);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    global().run(tasks, &move |i| {
        let start = i * chunk;
        let len = chunk.min(n - start);
        // SAFETY: task indices are distinct, so [start, start+len) ranges
        // are disjoint; the exclusive borrow of `data` outlives run().
        let piece = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        f(i, piece);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = KernelPool::new(3);
        let hits: Vec<zi_sync::atomic::AtomicUsize> =
            (0..97).map(|_| zi_sync::atomic::AtomicUsize::new(0)).collect();
        pool.run(97, &|i| {
            hits[i].fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(zi_sync::atomic::Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = KernelPool::new(0);
        let mut seen = Vec::new();
        let cell = Mutex::new(&mut seen);
        pool.run(5, &|i| cell.lock().push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panicking_task_propagates_without_hanging() {
        let pool = KernelPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        // Pool must still be usable afterwards.
        let count = zi_sync::atomic::AtomicUsize::new(0);
        pool.run(4, &|_| {
            count.fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(count.load(zi_sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn for_chunks_parallel_matches_sequential() {
        let mut a: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let mut b = a.clone();
        let body = |i: usize, piece: &mut [f32]| {
            for (j, v) in piece.iter_mut().enumerate() {
                *v = *v * 2.0 + (i + j) as f32;
            }
        };
        for_chunks(&mut a, 257, false, body);
        for_chunks(&mut b, 257, true, body);
        assert_eq!(a, b);
    }
}
