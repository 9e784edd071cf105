//! A minimal work-stealing-free parallel map over indices.
//!
//! The evaluation platform's unit of work (a dissimilarity-matrix row, a
//! nearest-neighbour scan row, a dataset) is coarse enough that a shared
//! atomic counter over scoped threads saturates all cores without any
//! dependency beyond `std`. Every entry point runs on one claiming loop.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The first panic payload caught across a worker pool, re-raised on the
/// calling thread once the pool has drained.
///
/// `std::thread::scope` re-panics with a generic "a scoped thread
/// panicked" message, discarding the worker's payload; catching in the
/// worker and resuming in the parent preserves it, so the fault-tolerant
/// cell runner (and plain test output) sees the real panic message. The
/// shared flag makes the remaining workers stop claiming new indices
/// instead of finishing the whole map for a doomed result.
struct FirstPanic {
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl FirstPanic {
    fn new() -> Self {
        FirstPanic {
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn record(&self, payload: Box<dyn std::any::Any + Send>) {
        self.poisoned.store(true, Ordering::Relaxed);
        let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn resume(self) {
        if let Some(payload) = self.payload.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
    }
}

/// Number of worker threads to use (the machine's available parallelism).
/// Asked of std once per process: each ask re-reads the cgroup CPU quota
/// files, and every parallel call needs the answer.
pub fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f(i)` for every `i in 0..n` across all cores, writing results
/// into the returned vector at position `i`. `f` must be `Sync` (it is
/// shared by reference across threads).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, || (), move |(), i| f(i))
}

/// [`parallel_map`] with one piece of per-worker mutable state created by
/// `init` — the hook the batch matrix engine and the scan engine use to
/// give every worker thread its own scratch buffers.
pub fn parallel_map_with<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Default,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut results: Vec<T> = Vec::with_capacity(n);
    results.resize_with(n, T::default);
    let results_ptr = SendPtr(results.as_mut_ptr());
    claim_each(n, init, |state, i| {
        let value = f(state, i);
        // SAFETY: `i < n`, the vector's length, and each index is claimed
        // exactly once, so this is the only access to slot `i`, which
        // holds an initialized value for the assignment to drop.
        unsafe {
            *results_ptr.at(i) = value;
        }
    });
    results
}

/// Fills the `row_len`-sized rows of `data` in parallel: workers claim
/// row indices from a shared counter and call `fill(&mut state, i, row)`
/// on disjoint `&mut [f64]` row slices, each with its own per-worker
/// state from `init`.
///
/// Trailing elements beyond the last whole row (there are none when
/// `data.len()` is a multiple of `row_len`) are left untouched.
pub fn parallel_fill_rows<S, I, F>(data: &mut [f64], row_len: usize, init: I, fill: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    if row_len == 0 {
        return;
    }
    let n = data.len() / row_len;
    let data_ptr = SendPtr(data.as_mut_ptr());
    claim_each(n, init, |state, i| {
        // SAFETY: row `i < n = data.len() / row_len` lies inside `data`,
        // and each row index is claimed exactly once, so the row slices
        // handed out are disjoint.
        let row = unsafe { std::slice::from_raw_parts_mut(data_ptr.at(i * row_len), row_len) };
        fill(state, i, row);
    });
}

/// The one worker pool: runs `f(&mut state, i)` once for every `i in
/// 0..n`, workers claiming indices from a shared counter, each with its
/// own state from `init`. One worker (or one index) runs on the calling
/// thread. A worker's panic stops the others claiming and is re-raised
/// here with its payload.
fn claim_each<S, I, F>(n: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let workers = worker_count().min(n.max(1));
    if workers <= 1 || n <= 1 {
        let mut state = init();
        (0..n).for_each(|i| f(&mut state, i));
        return;
    }

    let next = AtomicUsize::new(0);
    let first_panic = FirstPanic::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (next, init, f, first_panic) = (&next, &init, &f, &first_panic);
            scope.spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let mut state = init();
                    loop {
                        if first_panic.is_poisoned() {
                            return;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        f(&mut state, i);
                    }
                }));
                if let Err(payload) = caught {
                    first_panic.record(payload);
                }
            });
        }
    });
    first_panic.resume();
}

/// The output buffer's pointer, shared by the workers.
struct SendPtr<T>(*mut T);
// SAFETY: workers dereference the pointer only at indices each claims
// exactly once, so no two threads reach one element; `T: Send` because
// they write (and drop) `T` values on their own threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: a shared `&SendPtr` yields only pointers to
// elements one worker owns at a time.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The pointer `offset` elements on. A method, so a closure captures
    /// the whole (`Sync`) wrapper rather than its raw pointer field.
    ///
    /// # Safety
    /// `offset` must lie within the allocation the pointer was taken
    /// from.
    unsafe fn at(&self, offset: usize) -> *mut T {
        self.0.add(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_every_index_exactly_once() {
        let out = parallel_map(1000, |i| i * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn handles_non_copy_results() {
        let out = parallel_map(64, |i| vec![i; i % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn map_with_gives_each_worker_its_own_state() {
        // State is a scratch Vec; results must not depend on sharing.
        let out = parallel_map_with(200, Vec::<usize>::new, |scratch, i| {
            scratch.clear();
            scratch.extend(0..i % 7);
            scratch.len() + i
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i % 7 + i);
        }
    }

    #[test]
    fn fill_rows_covers_every_row_exactly_once() {
        let mut data = vec![0.0f64; 37 * 11];
        parallel_fill_rows(
            &mut data,
            11,
            || (),
            |(), i, row| {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i * 11 + j) as f64;
                }
            },
        );
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    fn fill_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = vec![];
        parallel_fill_rows(&mut empty, 4, || (), |(), _, _| unreachable!());
        let mut single = vec![0.0f64; 3];
        parallel_fill_rows(&mut single, 3, || (), |(), i, row| row.fill(i as f64 + 1.0));
        assert_eq!(single, vec![1.0; 3]);
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(64, |i| {
                if i == 13 {
                    panic!("worker 13 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("a worker panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            message.contains("worker 13 exploded"),
            "payload lost: {message:?}"
        );
    }

    #[test]
    fn fill_rows_panic_payload_is_preserved() {
        let mut data = vec![0.0f64; 16 * 4];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_fill_rows(
                &mut data,
                4,
                || (),
                |(), i, _| {
                    if i == 7 {
                        panic!("row 7 exploded");
                    }
                },
            )
        }));
        let payload = caught.expect_err("a worker panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("row 7 exploded"));
    }

    #[test]
    fn heavy_work_is_correct() {
        let out = parallel_map(100, |i| (0..1000).map(|j| (i * j) % 97).sum::<usize>());
        let serial: Vec<usize> = (0..100)
            .map(|i| (0..1000).map(|j| (i * j) % 97).sum::<usize>())
            .collect();
        assert_eq!(out, serial);
    }
}
