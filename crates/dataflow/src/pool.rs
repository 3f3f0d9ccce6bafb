//! Thread-parallel execution of per-partition work.
//!
//! Each simulated worker owns one partition; a stage processes all
//! partitions concurrently, mirroring Flink's task slots. Like Flink's
//! slots, the threads outlive every stage and every query: one
//! process-wide pool of `available_parallelism() - 1` threads is started on
//! first use, and every stage of every environment in the process submits
//! its partitions to it as one batch of tasks ([`run_tasks`]).
//!
//! The pool is *caller-assisted*: the submitting thread claims and runs
//! tasks of its own batch from the first moment, pool threads join in when
//! they are idle, and the submitter returns once every task has finished.
//! Three things follow. A small stage is usually over before a pool thread
//! has woken up, so its fixed cost is a queue push and a few atomics
//! rather than `workers` thread spawns. A submitter never waits for a free
//! pool thread, so nested submission (a task that runs a stage of its own)
//! and more concurrent submitters than threads cannot deadlock. And
//! `workers` larger than the machine (the simulated 16-node runs) simply
//! multiplexes the tasks over the threads that exist — the simulated
//! clock is computed from record counts, not from which thread ran what.
//! The pool has `nproc - 1` threads, not `nproc`, because the submitter
//! is the `nproc`-th: one more thread allocating raised peak memory
//! without making anything faster.
//!
//! Every dataflow stage submits its tasks through one runner, the
//! environment's crate-private `run_stage`: one task per partition, each
//! charging its own `WorkerCost`. A panicking task is caught here and
//! handed on as a `WorkerPanic` to the one panic policy, the environment's
//! crate-private `settle`, which the runner, the shuffle's routing loop and
//! the replicated index build share: with fault tolerance installed it
//! classifies the panic as an execution failure of its stage, without it
//! the caller fails with `partition worker {i} panicked: {message}`.
//! [`map_partitions`] is the one public adapter: it charges nothing and
//! re-raises a panic the same way, for reading a dataset's partitions in
//! parallel outside any stage. Every task runs under `catch_unwind` before
//! any pool lock is taken, so a panicking closure can neither kill a pool
//! thread nor poison a pool mutex; the pool is as usable after the panic
//! as before.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A worker died mid-stage. Carries the worker index and the panic
/// payload's message, when it was a string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerPanic {
    /// Index of the partition whose worker panicked.
    pub(crate) worker: usize,
    /// The panic message, or `"<non-string panic payload>"`.
    pub(crate) message: String,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One [`run_tasks`] call: `n` tasks, claimed by index.
struct Batch {
    /// The submitter's closure with its lifetime erased. Called only for a
    /// claimed index `< n`; see the safety argument in [`run_tasks`].
    task: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// Next unclaimed index; `>= n` once every task has been claimed.
    next: AtomicUsize,
    /// Tasks not yet finished. The submitter returns only at zero.
    pending: AtomicUsize,
    /// Payload of the first task that panicked, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    submitter: Thread,
}

impl Batch {
    fn has_unclaimed(&self) -> bool {
        // Relaxed: a stale answer costs a helper one failed claim.
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Claims and runs tasks until none is left to claim. `helper` is false
    /// on the submitting thread and true on a pool thread.
    fn drain(&self, helper: bool) {
        loop {
            // Relaxed: the claim publishes nothing; the batch itself reached
            // this thread through the queue mutex (or was built on it).
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.n {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(index))) {
                self.panic
                    .lock()
                    .expect("held only to store a payload")
                    .get_or_insert(payload);
            }
            // Release, paired with the submitter's Acquire load: everything
            // the task wrote (its output slot, `panic`) is visible
            // to the submitter once it reads zero.
            if self.pending.fetch_sub(1, Ordering::Release) == 1 && helper {
                self.submitter.unpark();
            }
        }
    }
}

/// The process-wide pool: a queue of batches with unclaimed tasks and the
/// threads that help drain them.
struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    /// Pool threads started; zero on a one-core machine.
    helpers: usize,
}

struct PoolState {
    queue: VecDeque<Arc<Batch>>,
    /// Pool threads currently waiting on `work`.
    idle: usize,
}

impl Pool {
    /// The pool, started on first use. Its threads are detached on purpose:
    /// they live as long as the process and hold no state a clean exit
    /// would have to flush.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let helpers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
            let pool = Arc::new(Pool {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    idle: 0,
                }),
                work: Condvar::new(),
                helpers,
            });
            for index in 0..helpers {
                let pool = Arc::clone(&pool);
                // A thread that cannot be spawned is a helper less, not an
                // error: every submitter completes its batch on its own.
                let _ = std::thread::Builder::new()
                    .name(format!("gradoop-pool-{index}"))
                    .spawn(move || pool.help());
            }
            pool
        })
    }

    /// Never panics — `run_tasks` relies on that between queueing a batch
    /// and seeing it finished. Ignoring poison is sound here: no task runs
    /// under the lock, and each update leaves `PoolState` consistent.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pool thread's life: run tasks of the oldest batch that has any
    /// unclaimed, sleep when there is none.
    fn help(&self) {
        let mut state = self.lock();
        loop {
            match state.queue.iter().find(|batch| batch.has_unclaimed()) {
                Some(batch) => {
                    let batch = Arc::clone(batch);
                    drop(state);
                    batch.drain(true);
                    state = self.lock();
                }
                None => {
                    state.idle += 1;
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.idle -= 1;
                }
            }
        }
    }
}

/// Runs `task(0)`, …, `task(n - 1)`, each exactly once, on the calling
/// thread and whichever pool threads are idle, and returns when all have
/// finished. A panic in a task is re-raised here, after the others are done.
fn run_tasks(n: usize, task: &(dyn Fn(usize) + Sync)) {
    let pool = Pool::global();
    if n <= 1 || pool.helpers == 0 {
        (0..n).for_each(task);
        return;
    }
    // SAFETY: the transmute only extends the reference's lifetime (and the
    // trait object's bound) to 'static; layout and vtable are unchanged.
    // The extended reference lives in `batch.task` and is called in exactly
    // one place, `Batch::drain`, for an index claimed from `next` that is
    // `< n`. `pending` starts at `n`, and each of those `n` claims lowers it
    // by one only after its call has returned or unwound into
    // `catch_unwind`. Once the batch is queued this function neither
    // returns nor unwinds before it has read `pending == 0`: the
    // submitter's own share runs under the same `catch_unwind`,
    // `Pool::lock` cannot panic, and a stored payload is re-raised only
    // below the wait. So every call happens while the caller's borrow of
    // `task` is still live. Pool threads may hold the `Arc<Batch>` longer,
    // but with `next >= n` they never touch `task` again.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let batch = Arc::new(Batch {
        task,
        n,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n),
        panic: Mutex::new(None),
        submitter: std::thread::current(),
    });
    let wake = {
        let mut state = pool.lock();
        state.queue.push_back(Arc::clone(&batch));
        state.idle.min(n - 1)
    };
    for _ in 0..wake {
        pool.work.notify_one();
    }
    // Drain before waiting: a small batch is finished here before a helper
    // has woken up.
    batch.drain(false);
    // Every task is claimed, so no helper needs to find the batch any more.
    pool.lock()
        .queue
        .retain(|queued| !Arc::ptr_eq(queued, &batch));
    while batch.pending.load(Ordering::Acquire) != 0 {
        // A helper finishing the last task unparks us; a token left over
        // from an earlier batch only costs one more turn of this loop.
        std::thread::park();
    }
    let payload = batch
        .panic
        .lock()
        .expect("held only to store a payload")
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs `f(0)`, …, `f(n - 1)` as one batch and yields the results in
/// index order; a panicking call becomes the `WorkerPanic` of its index,
/// the lowest index winning, and the other results are dropped. It yields
/// rather than collects so that a caller which reshapes each result builds
/// its one output `Vec` straight from the slots.
pub(crate) fn try_run_indexed<O: Send>(
    n: usize,
    f: &(dyn Fn(usize) -> O + Sync),
) -> Result<impl Iterator<Item = O>, WorkerPanic> {
    let mut slots: Vec<Mutex<Option<Result<O, WorkerPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    run_tasks(n, &|i| {
        let result = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| WorkerPanic {
            worker: i,
            message: panic_message(payload),
        });
        *slots[i].lock().expect("slot written once, outside f") = Some(result);
    });
    let failed = slots.iter_mut().find_map(|slot| match slot.get_mut() {
        Ok(Some(Err(panic))) => Some(panic.clone()),
        _ => None,
    });
    match failed {
        Some(panic) => Err(panic),
        None => Ok(slots.into_iter().map(|slot| match slot.into_inner() {
            Ok(Some(Ok(out))) => out,
            _ => unreachable!("every task ran and none panicked"),
        })),
    }
}

/// Runs `f` on the calling thread: a panic becomes the `WorkerPanic` of the
/// worker `f` last stored in its cell (the partition it was reading).
pub(crate) fn try_run_here<O>(f: impl FnOnce(&Cell<usize>) -> O) -> Result<O, WorkerPanic> {
    let worker = Cell::new(0);
    catch_unwind(AssertUnwindSafe(|| f(&worker))).map_err(|payload| WorkerPanic {
        worker: worker.get(),
        message: panic_message(payload),
    })
}

/// [`try_run_indexed`], collected, re-raising a task's panic on the calling
/// thread.
pub(crate) fn run_indexed<O, F>(n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    match try_run_indexed(n, &f) {
        Ok(outputs) => outputs.collect(),
        Err(panic) => propagate(panic),
    }
}

/// Applies `f` to every partition concurrently and collects the results in
/// partition order. `f` receives the partition index and the partition's
/// elements. Charges no stage: dataflow stages run through the
/// environment's one stage runner; this is for reading a dataset's
/// partitions in parallel outside any stage (decoding a query result).
pub fn map_partitions<I, O, F>(partitions: &[Vec<I>], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> O + Sync,
{
    run_indexed(partitions.len(), |i| f(i, &partitions[i]))
}

/// Fails the calling thread the way a panicking task fails a stage that
/// has no fault tolerance installed.
pub(crate) fn propagate(panic: WorkerPanic) -> ! {
    panic!(
        "partition worker {} panicked: {}",
        panic.worker, panic.message
    )
}

/// Partitions the tasks of one batch take by value: task `i` takes
/// partition `i`, so it may move the rows out instead of cloning them.
pub(crate) struct Handoff<T>(Mutex<Vec<Vec<T>>>);

impl<T> Handoff<T> {
    pub(crate) fn new(partitions: Vec<Vec<T>>) -> Self {
        Handoff(Mutex::new(partitions))
    }

    /// Partition `i`; empty if it was taken before. The lock is held only
    /// for the swap, so it cannot be poisoned by a task.
    pub(crate) fn take(&self, i: usize) -> Vec<T> {
        std::mem::take(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner)[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lowest_panicking_index_is_reported() {
        let result = try_run_indexed(4, &|i| {
            if i % 2 == 1 {
                panic!("worker {i} died");
            }
            i
        });
        let panic = result.err().expect("workers 1 and 3 died");
        assert_eq!(panic.worker, 1);
        assert_eq!(panic.message, "worker 1 died");
    }

    #[test]
    fn a_single_task_reports_its_panic_inline() {
        let result = try_run_indexed(1, &|_| -> usize { panic!("boom") });
        assert_eq!(result.err().expect("must fail").worker, 0);
    }

    #[test]
    #[should_panic(expected = "partition worker 0 panicked")]
    fn map_partitions_propagates_panics() {
        let parts = vec![vec![1u32], vec![2]];
        let _ = map_partitions(&parts, |i, _| {
            if i == 0 {
                panic!("die");
            }
            i
        });
    }

    #[test]
    fn handoff_gives_each_partition_away_once() {
        let handoff = Handoff::new(vec![vec![1u32, 2], vec![3]]);
        assert_eq!(handoff.take(1), vec![3]);
        assert_eq!(handoff.take(0), vec![1, 2]);
        assert!(handoff.take(0).is_empty());
    }

    #[test]
    fn maps_partitions_in_order() {
        let parts = vec![vec![1, 2], vec![3], vec![], vec![4, 5, 6]];
        let sums = map_partitions(&parts, |i, p| (i, p.iter().sum::<i32>()));
        assert_eq!(sums, vec![(0, 3), (1, 3), (2, 0), (3, 15)]);
    }

    #[test]
    fn single_partition_runs_inline() {
        let parts = vec![vec![10u32]];
        let out = map_partitions(&parts, |_, p| p.len());
        assert_eq!(out, vec![1]);
    }

    /// A task that submits a stage of its own must complete: the inner
    /// submitter drains its own batch, so it needs no free pool thread —
    /// not even when every pool thread is itself inside such a task.
    #[test]
    fn nested_submission_completes() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outer: Vec<Vec<u64>> = (0..8).map(|p| vec![p; 3]).collect();
            let sums = map_partitions(&outer, |_, part| {
                let inner: Vec<Vec<u64>> = part.iter().map(|&x| vec![x, x + 1]).collect();
                map_partitions(&inner, |_, p| p.iter().sum::<u64>())
                    .into_iter()
                    .sum::<u64>()
            });
            done.send(sums).unwrap();
        });
        let sums = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("nested submission deadlocked");
        let expected: Vec<u64> = (0..8).map(|p| 3 * (2 * p + 1)).collect();
        assert_eq!(sums, expected);
    }

    /// On more than one core a pool thread really runs tasks: the two tasks
    /// meet at a barrier, so the stage finishes only if a pool thread ran
    /// one of them while the submitter ran the other.
    #[test]
    fn a_pool_thread_runs_a_task() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
            return;
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rendezvous = std::sync::Barrier::new(2);
            let parts = vec![vec![1u32], vec![2u32]];
            let sums = map_partitions(&parts, |_, part| {
                rendezvous.wait();
                part.iter().sum::<u32>()
            });
            done.send(sums).unwrap();
        });
        let sums = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("no pool thread ran a task");
        assert_eq!(sums, vec![1, 2]);
    }

    /// More submitters than threads, all on the one pool: every stage must
    /// return what the single-partition inline path returns.
    #[test]
    fn concurrent_submitters_match_the_inline_path() {
        std::thread::scope(|scope| {
            for submitter in 0..8u64 {
                scope.spawn(move || {
                    for stage in 0..200u64 {
                        let records: Vec<u64> = (0..(stage % 23 + 5))
                            .map(|i| submitter * 1_000_003 + stage * 31 + i)
                            .collect();
                        let square = |_: usize, part: &[u64]| -> Vec<u64> {
                            part.iter().map(|x| x.wrapping_mul(*x)).collect()
                        };
                        let inline = map_partitions(std::slice::from_ref(&records), square);
                        let split: Vec<Vec<u64>> = records.chunks(4).map(<[u64]>::to_vec).collect();
                        let pooled = map_partitions(&split, square).concat();
                        assert_eq!(pooled, inline[0], "submitter {submitter} stage {stage}");
                    }
                });
            }
        });
    }

    /// A panicking closure must leave the pool as it found it. The barrier
    /// puts the two tasks of each failing stage on two threads at once, so
    /// over the two rounds the panic is raised once on the submitter and
    /// once on a pool thread (on a one-core machine there is no pool thread
    /// and no barrier: both tasks run inline).
    #[test]
    fn pool_survives_panicking_stages() {
        let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let parts = vec![vec![1u32], vec![2u32]];
        for failing in [0usize, 1] {
            let rendezvous = std::sync::Barrier::new(2);
            let result = try_run_indexed(parts.len(), &|i| {
                if parallel {
                    rendezvous.wait();
                }
                if i == failing {
                    panic!("stage died on {i}");
                }
                parts[i].len()
            });
            let panic = result.err().expect("the failing worker must be reported");
            assert_eq!(panic.worker, failing);
            assert_eq!(panic.message, format!("stage died on {failing}"));

            let rendezvous = std::sync::Barrier::new(2);
            let sums = map_partitions(&parts, |_, part| {
                if parallel {
                    rendezvous.wait();
                }
                part.iter().sum::<u32>()
            });
            assert_eq!(sums, vec![1, 2], "the stage after a panic runs normally");
        }
    }
}
