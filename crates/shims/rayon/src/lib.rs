//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the (small) rayon surface the workspace uses: `into_par_iter()` /
//! `par_iter()` with `map`, `map_init`, `sum` and `collect`, plus
//! [`current_num_threads`]. Semantics match rayon where it matters
//! here:
//!
//! * results are collected **in input order**, so everything downstream
//!   is deterministic regardless of scheduling;
//! * a call over at least [`INLINE_BELOW`] items runs on multiple OS
//!   threads (`std::thread::scope`, one contiguous chunk per thread) —
//!   the simulator's block-level parallelism and the multicore
//!   quality-up experiment keep their meaning; a smaller call runs on
//!   the calling thread;
//! * `map_init` creates one `init()` value per worker thread and
//!   threads it through that worker's chunk, like rayon's.
//!
//! Not implemented: work stealing, a persistent pool (each threaded
//! call spawns its workers), nested pools, the full `ParallelIterator`
//! trait zoo. Add methods as call sites need them.

use std::thread;

/// Calls over fewer items than this run on the calling thread.
///
/// The shim has no pool, so a threaded call spawns and joins its
/// workers, which costs more host time than a handful of simulated
/// blocks or fleet devices is worth. Measured on a 2-core machine
/// against thresholds of 2, 8 and 32, 16 gave the lowest or tied-lowest
/// host time on every perfbench workload and on `repro all`. Results
/// are the same either way; only the number of `map_init` states
/// differs.
pub const INLINE_BELOW: usize = 16;

/// Number of worker threads a call of at least [`INLINE_BELOW`] items
/// uses at most.
pub fn current_num_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commonly-imported surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// An eager "parallel iterator": the items are materialized and each
/// adapter runs them across threads, preserving order.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into a [`ParIter`] by value (`0..n`, vectors, …).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Conversion into a [`ParIter`] over references (`slice.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Order-preserving parallel map with one `init()` state per worker.
fn par_map_init<T, S, R, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let len = items.len();
    let workers = current_num_threads().min(len.max(1));
    if workers <= 1 || len < INLINE_BELOW {
        let mut state = init();
        return items.into_iter().map(|x| f(&mut state, x)).collect();
    }
    let chunk = len.div_ceil(workers);
    let mut source = items.into_iter();
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while source.len() > 0 {
        chunks.push(source.by_ref().take(chunk).collect());
    }
    let mapped: Vec<Vec<R>> = thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(|| {
                    let mut state = init();
                    c.into_iter().map(|x| f(&mut state, x)).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shim worker thread panicked"))
            .collect()
    });
    mapped.into_iter().flatten().collect()
}

impl<T: Send> ParIter<T> {
    /// Parallel map; results keep input order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map_init(self.items, || (), |(), x| f(x)),
        }
    }

    /// Parallel map with a per-worker mutable state created by `init`.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParIter<R>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParIter {
            items: par_map_init(self.items, init, f),
        }
    }

    /// Collect the (already computed) results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sum the results.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<u32> = (0u32..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0u32..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice_and_vec() {
        let v = vec![1.0f64, 2.0, 3.0];
        let s: f64 = v.par_iter().map(|x| x * x).sum();
        assert_eq!(s, 14.0);
        let slice: &[f64] = &v;
        let s2: f64 = slice.par_iter().map(|x| x * x).sum();
        assert_eq!(s2, 14.0);
    }

    #[test]
    fn map_init_threads_state_per_worker() {
        let out: Vec<usize> = vec![1usize; 64]
            .par_iter()
            .map_init(Vec::<usize>::new, |scratch, &x| {
                scratch.push(x);
                x
            })
            .collect();
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|&x| x == 1));
    }

    /// Maps `len` items through `map_init` with a state that counts the
    /// items it has seen; returns each item's `(input, count, thread)`
    /// in output order and the number of `init()` calls.
    fn traced_map_init(len: usize) -> (Vec<(usize, usize, thread::ThreadId)>, usize) {
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let out = (0..len)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    0usize
                },
                |seen, i| {
                    *seen += 1;
                    (i, *seen, thread::current().id())
                },
            )
            .collect();
        (out, inits.into_inner())
    }

    #[test]
    fn calls_below_the_threshold_run_inline_with_one_state() {
        let len = INLINE_BELOW - 1;
        let (out, inits) = traced_map_init(len);
        assert_eq!(inits, 1);
        let caller = thread::current().id();
        for (at, &(i, seen, on)) in out.iter().enumerate() {
            assert_eq!(i, at, "input order");
            assert_eq!(seen, at + 1, "one state threads through every item");
            assert_eq!(on, caller, "ran on the calling thread");
        }
    }

    #[test]
    fn calls_at_the_threshold_run_one_state_per_worker() {
        let len = INLINE_BELOW;
        let workers = current_num_threads().min(len);
        let (out, inits) = traced_map_init(len);
        // One contiguous chunk, and one state, per spawned worker.
        let chunk = len.div_ceil(workers);
        assert_eq!(inits, len.div_ceil(chunk));
        let caller = thread::current().id();
        for (at, &(i, seen, on)) in out.iter().enumerate() {
            assert_eq!(i, at, "input order");
            assert_eq!(
                seen,
                at % chunk + 1,
                "each worker's state threads its chunk"
            );
            assert_eq!(on == caller, workers == 1, "threaded unless one core");
        }
    }

    #[test]
    fn threads_reported() {
        assert!(current_num_threads() >= 1);
    }
}
