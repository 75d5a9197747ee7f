//! # rpas-par
//!
//! Deterministic seed fan-out over a persistent worker pool.
//!
//! Callers repeat expensive work per independent unit — the experiment
//! binaries per training seed (Table I averages three runs; the figure
//! and ablation binaries sweep strategies over independently-trained
//! models), the fleet engine per tenant. Each job derives its own RNG
//! from its index, so jobs are independent and the *result* is a pure
//! function of the index — which lets the pool run them in any order on
//! any number of threads while the returned `Vec` stays in job order,
//! byte-identical to a single-threaded run.
//!
//! One usage shape, [`WorkerPool`]: spawn once, submit many times. The
//! fleet engine holds one pool for its whole run, so a per-tick fan-out
//! costs two condvar round-trips instead of `N` thread spawns, and work
//! is handed out via an atomic stripe cursor over disjoint index ranges
//! (no per-item mutex allocations). A one-shot fan-out (the experiment
//! binaries) is `WorkerPool::for_jobs(n).map_indexed(n, f)` — the pool
//! reads `RPAS_THREADS` at construction, which is what the thread-count
//! invariance tests rely on.
//!
//! Thread count: `min(RPAS_THREADS or available_parallelism, jobs)`.
//! Setting `RPAS_THREADS=1` forces a sequential run (useful to confirm
//! seed-determinism of a parallel binary). A set-but-unusable override
//! (unparsable or zero) is ignored in favour of the hardware count, and
//! reported once per process as a `warn` obs event so misconfigured runs
//! are visible.
#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![deny(clippy::indexing_slicing)] // P1: zero index sites stay zero

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};

/// Report an ignored `RPAS_THREADS` override once per process.
fn warn_ignored_override(raw: &str) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        rpas_obs::Obs::from_env().emit(rpas_obs::catalog::PAR_THREADS_OVERRIDE_IGNORED, |e| {
            e.field("raw", raw.to_string()).field("expected", "positive integer");
        });
    });
}

/// Worker threads to use for `jobs` independent jobs: the smaller of the
/// machine's parallelism (or the `RPAS_THREADS` override, a positive
/// integer; any other value is ignored and reported) and the job count,
/// and at least 1.
pub(crate) fn worker_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cap = match std::env::var("RPAS_THREADS") {
        Err(_) => hw,
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                warn_ignored_override(&raw);
                hw
            }
        },
    };
    cap.min(jobs).max(1)
}

/// One submitted fan-out, published to the workers under the pool mutex.
///
/// The job closure is type-erased to a `'static` trait-object reference;
/// see the SAFETY discussion in [`WorkerPool::run`] for why the lifetime
/// extension is sound.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    jobs: usize,
    stripe: usize,
}

/// Dispatch state shared between the submitter and the worker threads.
struct PoolState {
    /// Bumped per submission; a worker runs each epoch exactly once.
    epoch: u64,
    /// The current job, present from submission until all workers drain.
    job: Option<Job>,
    /// Workers still running the current epoch.
    active: usize,
    /// First panic payload captured from a worker this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Submitter → workers: a new epoch (or shutdown) is available.
    work: Condvar,
    /// Workers → submitter: `active` reached zero.
    done: Condvar,
    /// Next unclaimed job index of the current epoch; workers grab
    /// disjoint `stripe`-sized ranges with one `fetch_add` each.
    cursor: AtomicUsize,
}

/// A persistent worker pool: spawn once, submit many fan-outs.
///
/// `run(jobs, f)` applies `f(0), …, f(jobs-1)` exactly once each, with
/// the submitting thread participating alongside `workers − 1` spawned
/// threads. Work is handed out via an atomic stripe cursor over disjoint
/// index ranges, so a submission performs no per-item allocation and no
/// per-item locking — the steady-state cost of a fan-out is two condvar
/// round-trips.
///
/// Results are byte-identical for any worker count provided `f` is a
/// pure function of its index (derive per-job seeds from the index, e.g.
/// via `rpas_tsmath::rng::child_seed`).
/// A pool with `workers <= 1` spawns nothing and runs every submission
/// inline, so `RPAS_THREADS=1` keeps the exact sequential code path.
pub struct WorkerPool {
    shared: Option<Arc<PoolShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

/// A raw pointer that may cross threads. The pool's cursor hands each
/// index to exactly one worker, so every dereference derived from a
/// `SendPtr` inside a pool job targets a distinct element.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced at indices owned exclusively
// by one worker (disjoint stripe ranges), and the pointee outlives the
// submission (`run` blocks until every worker finished).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[expect(clippy::expect_used, reason = "pool invariants; a breach is a bug here, reported on the submitter")]
impl WorkerPool {
    /// A pool with `workers` total workers (the submitting thread counts
    /// as one, so `workers − 1` threads are spawned). `workers <= 1`
    /// spawns nothing and runs submissions inline.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        if workers == 1 {
            return Self { shared: None, handles: Vec::new(), workers };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let handles = (0..workers - 1)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        Self { shared: Some(shared), handles, workers }
    }

    /// A pool sized by `worker_count` for `jobs` jobs — reads
    /// `RPAS_THREADS` at construction time.
    pub fn for_jobs(jobs: usize) -> Self {
        Self::new(worker_count(jobs.max(1)))
    }

    fn worker_loop(shared: &PoolShared) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().expect("pool state poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch != seen_epoch {
                        seen_epoch = st.epoch;
                        break st.job.expect("epoch bumped without a job");
                    }
                    st = shared.work.wait(st).expect("pool state poisoned");
                }
            };
            // Catch so one panicking job cannot abort the process from a
            // detached thread; the payload is re-thrown on the submitter.
            let result = catch_unwind(AssertUnwindSafe(|| drain(&shared.cursor, job)));
            let mut st = shared.state.lock().expect("pool state poisoned");
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.active -= 1;
            if st.active == 0 {
                shared.done.notify_one();
            }
        }
    }

    /// Apply `f` to every index in `0..jobs`, each exactly once, fanned
    /// over the pool; the submitting thread participates. Blocks until
    /// every index ran.
    ///
    /// # Panics
    /// Propagates the first captured panic from any job, after all
    /// workers have finished the submission (so sibling jobs still run
    /// and the pool remains usable).
    pub(crate) fn run<F>(&self, jobs: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if jobs == 0 {
            return;
        }
        let shared = match &self.shared {
            Some(shared) if jobs > 1 => shared,
            _ => {
                // Sequential pool (or a single job): the exact inline
                // code path, no synchronization at all.
                for i in 0..jobs {
                    f(i);
                }
                return;
            }
        };
        let f_obj: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the job reference escapes into worker threads only for
        // the duration of this call — `run` does not return until every
        // worker has decremented `active` for this epoch (and on a
        // submitter-side panic the wait below still happens before the
        // unwind resumes), after which no worker touches the job again.
        // The lifetime extension to 'static is therefore never observed
        // beyond the actual borrow.
        let f_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(f_obj) };
        // Stripes keep cursor traffic low without starving workers:
        // a few grabs per worker per submission.
        let stripe = (jobs / (self.workers * 4)).max(1);
        let job = Job { f: f_static, jobs, stripe };
        {
            let mut st = self.lock_state(shared);
            shared.cursor.store(0, Ordering::Relaxed);
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.active = self.handles.len();
            shared.work.notify_all();
        }
        // The submitter is a worker too; catch its own panic so we can
        // join the spawned workers before unwinding (they still borrow
        // the job closure).
        let mine = catch_unwind(AssertUnwindSafe(|| drain(&shared.cursor, job)));
        let worker_panic = {
            let mut st = self.lock_state(shared);
            while st.active > 0 {
                st = shared.done.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    fn lock_state<'a>(
        &self,
        shared: &'a PoolShared,
    ) -> std::sync::MutexGuard<'a, PoolState> {
        shared.state.lock().expect("pool state poisoned")
    }

    /// Run `f` over `0..jobs` and return the results in index order.
    ///
    /// # Panics
    /// Propagates a panic from any job (see `WorkerPool::run`).
    pub fn map_indexed<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
        self.for_each_mut(&mut slots, |i, slot| *slot = Some(f(i)));
        slots.into_iter().map(|slot| slot.expect("worker filled every slot")).collect()
    }

    /// Apply `f(i, &mut items[i])` to every item in place. Each worker
    /// owns one item at a time (the `&mut` references are disjoint by
    /// construction), so `f` may freely mutate its item; as with
    /// [`WorkerPool::map_indexed`], `f` must depend only on the index and
    /// the item for the result to be identical at every thread count.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let jobs = items.len();
        if jobs == 0 {
            return;
        }
        if self.workers == 1 || jobs == 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        self.run(jobs, |i| {
            // SAFETY: the cursor hands each index to exactly one worker,
            // so these `&mut` borrows are disjoint; the slice outlives
            // `run`.
            let item = unsafe { &mut *base.get().add(i) };
            f(i, item);
        });
    }
}

#[expect(clippy::expect_used, reason = "poisoned at drop: a worker died outside catch_unwind")]
impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            {
                let mut st = shared.state.lock().expect("pool state poisoned");
                st.shutdown = true;
                shared.work.notify_all();
            }
            for handle in self.handles.drain(..) {
                // A worker thread's panics are captured per-epoch and
                // re-thrown on the submitter, so join itself cannot fail
                // unless the process is already unwinding through a bug.
                let _ = handle.join();
            }
        }
    }
}

/// Claim stripe-sized index ranges off the shared cursor until the job
/// is exhausted.
fn drain(cursor: &AtomicUsize, job: Job) {
    loop {
        let start = cursor.fetch_add(job.stripe, Ordering::Relaxed);
        if start >= job.jobs {
            break;
        }
        let end = (start + job.stripe).min(job.jobs);
        for i in start..end {
            (job.f)(i);
        }
    }
}

/// Render a `catch_unwind` payload as a one-line message. Panic payloads
/// are almost always `&str` (literal `panic!`) or `String` (formatted
/// `panic!`); anything else is summarized rather than dropped so the
/// supervisor can still attribute the failure.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let out = WorkerPool::for_jobs(64).map_indexed(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job() {
        assert!(WorkerPool::for_jobs(0).map_indexed(0, |i| i).is_empty());
        assert_eq!(WorkerPool::for_jobs(1).map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn worker_count_respects_job_cap() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(usize::MAX) >= 1);
    }

    #[test]
    fn pool_results_are_worker_count_invariant() {
        // The WorkerPool analogue of the RPAS_THREADS contract: the same
        // seeded jobs must produce byte-identical results whether the
        // pool is sequential or heavily over-subscribed.
        let job = |i: usize| {
            let mut r = rpas_tsmath::rng::seeded(rpas_tsmath::rng::child_seed(7, i as u64));
            (0..50).map(|_| rpas_tsmath::rng::uniform(&mut r)).sum::<f64>()
        };
        let reference: Vec<u64> = (0..33).map(|i| job(i).to_bits()).collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let got: Vec<u64> =
                pool.map_indexed(33, job).into_iter().map(f64::to_bits).collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn pool_is_reusable_across_submissions() {
        // One pool, many fan-outs — the fleet tick pattern. Every
        // submission must see all indices exactly once.
        let pool = WorkerPool::new(4);
        let mut items: Vec<usize> = vec![0; 64];
        for round in 1..=10usize {
            pool.for_each_mut(&mut items, |_, v| *v += 1);
            assert!(items.iter().all(|&v| v == round), "round {round}: {items:?}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_submission() {
        // A panic propagates to the submitter, but the pool stays usable
        // for the next submission (workers re-synchronize per epoch).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkerPool::new(4);
        let thrown = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 11 {
                    panic!("boom");
                }
            });
        }));
        std::panic::set_hook(hook);
        assert!(thrown.is_err(), "panic must propagate");
        let out = pool.map_indexed(8, |i| i + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut items: Vec<usize> = (0..64).collect();
        WorkerPool::for_jobs(items.len()).for_each_mut(&mut items, |i, v| {
            assert_eq!(*v, i);
            *v += 1000 + i;
        });
        assert_eq!(items, (0..64).map(|i| 2 * i + 1000).collect::<Vec<_>>());
        let mut empty: Vec<usize> = Vec::new();
        WorkerPool::for_jobs(0).for_each_mut(&mut empty, |_, _| unreachable!());
    }

    #[test]
    fn panic_message_renders_every_payload_shape() {
        // An arbitrary `panic_any` payload must not lose the failure: it
        // is reported with the fixed marker instead of a message.
        assert_eq!(panic_message(Box::new(3.5_f64)), "<non-string panic payload>");
        assert_eq!(panic_message(Box::new("literal")), "literal");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
    }

    #[test]
    #[should_panic]
    fn job_panic_propagates() {
        let _ = WorkerPool::new(4).map_indexed(8, |i| {
            if i == 5 {
                panic!("job 5 failed");
            }
            i
        });
    }
}
