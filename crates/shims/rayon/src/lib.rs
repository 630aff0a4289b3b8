//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! exact API subset the workspace uses on top of [`std::thread::scope`]:
//!
//! - `(a..b).into_par_iter()` over `usize` ranges with `for_each`, `map` +
//!   `collect::<Vec<_>>` / `sum`,
//! - `slice.par_iter()` with `map`/`for_each`/`fold(..).reduce(..)`,
//! - `slice.par_chunks_mut(n)` with `enumerate().for_each(..)`,
//! - [`current_num_threads`].
//!
//! Semantics deliberately mirror rayon where the workspace relies on them:
//! ordered terminals (`collect`, `sum`, `fold/reduce`) split the input into
//! one contiguous chunk per worker and combine the partials **in chunk
//! order**, so for a fixed thread count results are deterministic run to
//! run. Unordered terminals (`for_each`) are dynamically load-balanced via
//! an atomic cursor. Worker count comes from `RAYON_NUM_THREADS` or
//! [`std::thread::available_parallelism`], read once per process.
//!
//! Threads are spawned per parallel call (a scoped fork-join, no persistent
//! pool), and the shim runs inline when only one worker would be used, so
//! nothing is spawned on a single-CPU host. A spawn costs tens of
//! microseconds per call. That is small beside the PIC step's tile and
//! particle loops, but not beside millisecond-sized learner kernels: with
//! the matmul rows split across 2 threads, the PointNet encoder's forward
//! pass took 7.2 ms against 5.1 ms on 1 thread (2 vCPU host, release
//! build), so the tensor kernels are serial. Parallelise a loop only where
//! a measurement shows the spawn pays for itself.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod prelude {
    //! Glob-import target mirroring `rayon::prelude`.
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// Number of worker threads parallel calls will use.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Run `task(i)` for every `i in 0..n`, dynamically load-balanced.
fn run_dynamic(n: usize, task: &(dyn Fn(usize) + Sync)) {
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        task(i);
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        work();
        for h in handles {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    });
}

/// Split `0..n` into one contiguous chunk per worker and map each chunk to a
/// value; returns the values **in chunk order** (deterministic reduction).
fn run_chunked<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return vec![f(0..n)];
    }
    let base = n / workers;
    let rem = n % workers;
    let bounds = move |w: usize| -> Range<usize> {
        let lo = w * base + w.min(rem);
        lo..lo + base + usize::from(w < rem)
    };
    std::thread::scope(|s| {
        let fr = &f;
        let handles: Vec<_> = (1..workers)
            .map(|w| s.spawn(move || fr(bounds(w))))
            .collect();
        let mut out = Vec::with_capacity(workers);
        out.push(f(bounds(0)));
        for h in handles {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// `into_par_iter()` for index ranges.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `usize` range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Map each index through `f`.
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        F: Fn(usize) -> T + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Run `f` on every index (dynamically scheduled, unordered).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.range.start;
        let n = self.range.end.saturating_sub(start);
        run_dynamic(n, &|i| f(start + i));
    }

    /// Like rayon's `for_each_init`: `init` runs once per worker and the
    /// resulting scratch value is threaded through that worker's items.
    pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, usize) + Sync,
    {
        let start = self.range.start;
        let n = self.range.end.saturating_sub(start);
        let workers = current_num_threads().min(n);
        if workers <= 1 {
            let mut scratch = init();
            for i in 0..n {
                f(&mut scratch, start + i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut scratch = init();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(&mut scratch, start + i);
            }
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            work();
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
    }

    /// Accepted for rayon compatibility; chunking here is already coarse.
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

/// A mapped parallel range (see [`ParRange::map`]).
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Collect mapped values in index order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<<Self as MappedParIter>::Item>,
        Self: MappedParIter,
    {
        C::from_chunks(self.run())
    }

    /// Sum mapped values; partials combine in chunk order.
    pub fn sum<S>(self) -> S
    where
        Self: MappedParIter,
        S: Send + std::iter::Sum<<Self as MappedParIter>::Item> + std::iter::Sum<S>,
    {
        self.sum_impl()
    }
}

/// Internal evaluation of a mapped range (object-safe façade avoided; the
/// generic bounds live here so `collect`/`sum` read like rayon's).
pub trait MappedParIter {
    /// Mapped item type.
    type Item: Send;
    /// Evaluate into per-chunk vectors, chunk order preserved.
    fn run(self) -> Vec<Vec<Self::Item>>;
    /// Evaluate and sum, combining partials in chunk order.
    fn sum_impl<S>(self) -> S
    where
        Self: Sized,
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>;
}

impl<T, F> MappedParIter for ParRangeMap<F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    type Item = T;

    fn run(self) -> Vec<Vec<T>> {
        let start = self.range.start;
        let n = self.range.end.saturating_sub(start);
        let f = &self.f;
        run_chunked(n, |r| r.map(|i| f(start + i)).collect::<Vec<T>>())
    }

    fn sum_impl<S>(self) -> S
    where
        S: Send + std::iter::Sum<T> + std::iter::Sum<S>,
    {
        let start = self.range.start;
        let n = self.range.end.saturating_sub(start);
        let f = &self.f;
        run_chunked(n, |r| r.map(|i| f(start + i)).sum::<S>())
            .into_iter()
            .sum::<S>()
    }
}

/// Collect target for parallel `collect` (only `Vec` is needed).
pub trait FromParallelIterator<T> {
    /// Build from per-chunk outputs in chunk order.
    fn from_chunks(chunks: Vec<Vec<T>>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_chunks(chunks: Vec<Vec<T>>) -> Self {
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for c in chunks {
            out.extend(c);
        }
        out
    }
}

/// `par_iter()` on slices (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator type.
    type Iter;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSliceIter<'a, T>;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSliceIter<'a, T>;
    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { data: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParSliceIter<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Map each element through `f`.
    pub fn map<U, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        F: Fn(&'a T) -> U + Sync,
    {
        ParSliceMap { data: self.data, f }
    }

    /// Run `f` on every element (unordered).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let data = self.data;
        run_dynamic(data.len(), &|i| f(&data[i]));
    }

    /// Rayon-style fold: one accumulator per chunk, later combined with
    /// [`ParSliceFold::reduce`].
    pub fn fold<Acc, ID, F>(self, identity: ID, fold: F) -> ParSliceFold<'a, T, ID, F>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync,
        F: Fn(Acc, &'a T) -> Acc + Sync,
    {
        ParSliceFold {
            data: self.data,
            identity,
            fold,
        }
    }
}

/// A mapped slice iterator.
pub struct ParSliceMap<'a, T, F> {
    data: &'a [T],
    f: F,
}

impl<'a, T, U, F> MappedParIter for ParSliceMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    type Item = U;

    fn run(self) -> Vec<Vec<U>> {
        let data = self.data;
        let f = &self.f;
        run_chunked(data.len(), |r| r.map(|i| f(&data[i])).collect::<Vec<U>>())
    }

    fn sum_impl<S>(self) -> S
    where
        S: Send + std::iter::Sum<U> + std::iter::Sum<S>,
    {
        let data = self.data;
        let f = &self.f;
        run_chunked(data.len(), |r| r.map(|i| f(&data[i])).sum::<S>())
            .into_iter()
            .sum::<S>()
    }
}

impl<'a, T, F> ParSliceMap<'a, T, F> {
    /// Collect mapped values in element order.
    pub fn collect<C>(self) -> C
    where
        Self: MappedParIter,
        C: FromParallelIterator<<Self as MappedParIter>::Item>,
    {
        C::from_chunks(self.run())
    }

    /// Sum mapped values; partials combine in chunk order.
    pub fn sum<S>(self) -> S
    where
        Self: MappedParIter,
        S: Send + std::iter::Sum<<Self as MappedParIter>::Item> + std::iter::Sum<S>,
    {
        self.sum_impl()
    }
}

/// Pending chunked fold (see [`ParSliceIter::fold`]).
pub struct ParSliceFold<'a, T, ID, F> {
    data: &'a [T],
    identity: ID,
    fold: F,
}

impl<'a, T, ID, F> ParSliceFold<'a, T, ID, F> {
    /// Combine the per-chunk accumulators in chunk order.
    pub fn reduce<Acc, RID, R>(self, reduce_identity: RID, reduce: R) -> Acc
    where
        Acc: Send,
        T: Sync,
        ID: Fn() -> Acc + Sync,
        F: Fn(Acc, &'a T) -> Acc + Sync,
        RID: Fn() -> Acc,
        R: Fn(Acc, Acc) -> Acc,
    {
        let data = self.data;
        let identity = &self.identity;
        let fold = &self.fold;
        let partials = run_chunked(data.len(), |r| {
            let mut acc = identity();
            for i in r {
                acc = fold(acc, &data[i]);
            }
            acc
        });
        partials.into_iter().fold(reduce_identity(), reduce)
    }
}

/// `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of size
    /// `chunk_size` (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
        }
    }
}

/// `par_chunks()` on shared slices (for symmetry; rarely needed).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping chunks of size `chunk_size`.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            data: self,
            chunk_size,
        }
    }
}

/// Parallel mutable chunk iterator.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index (matching serial `chunks_mut`).
    pub fn enumerate(self) -> ParChunksMutEnum<'a, T> {
        ParChunksMutEnum {
            data: self.data,
            chunk_size: self.chunk_size,
        }
    }

    /// Run `f` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

/// Enumerated parallel mutable chunk iterator.
pub struct ParChunksMutEnum<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMutEnum<'a, T> {
    /// Run `f` on every `(index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let len = self.data.len();
        let size = self.chunk_size;
        let n_chunks = len.div_ceil(size);
        // Chunks are disjoint by construction, so handing each task a raw
        // sub-slice is sound; the exclusive borrow of `data` pins the whole
        // region for the duration of the scope.
        let base = SyncPtr(self.data.as_mut_ptr());
        run_dynamic(n_chunks, &move |ci| {
            // Bind the whole wrapper so edition-2021 disjoint capture does
            // not capture the bare `*mut T` field (which is not Sync).
            let base = base;
            let lo = ci * size;
            let hi = (lo + size).min(len);
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
            f((ci, chunk));
        });
    }
}

/// Parallel shared chunk iterator.
pub struct ParChunks<'a, T> {
    data: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Run `f` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&[T]) + Sync,
    {
        let len = self.data.len();
        let size = self.chunk_size;
        let data = self.data;
        run_dynamic(len.div_ceil(size), &|ci| {
            let lo = ci * size;
            f(&data[lo..(lo + size).min(len)]);
        });
    }
}

struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Send for SyncPtr<T> {}
unsafe impl<T: Send> Sync for SyncPtr<T> {}
impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncPtr<T> {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn range_map_sum_matches_serial() {
        let s: u64 = (0..10_000usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 9999 * 10_000 / 2);
    }

    #[test]
    fn for_each_covers_every_index() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        (0..257usize).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn slice_fold_reduce_sums() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let total = data
            .par_iter()
            .fold(|| 0.0f64, |acc, &x| acc + x)
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(total, 4999.0 * 5000.0 / 2.0);
    }

    #[test]
    fn chunks_mut_enumerate_matches_serial() {
        let mut a = vec![0usize; 103];
        a.par_chunks_mut(10).enumerate().for_each(|(ci, chunk)| {
            for v in chunk {
                *v = ci;
            }
        });
        let mut b = vec![0usize; 103];
        b.chunks_mut(10).enumerate().for_each(|(ci, chunk)| {
            for v in chunk {
                *v = ci;
            }
        });
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<i32> = (0..0usize).into_par_iter().map(|_| 1).collect();
        assert!(v.is_empty());
        let s: i32 = [].par_iter().map(|&x: &i32| x).sum();
        assert_eq!(s, 0);
    }
}
