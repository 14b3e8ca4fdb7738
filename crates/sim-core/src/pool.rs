//! The deterministic worker pool every parallel path shares.
//!
//! Independent simulations — the GPUs of a fleet, the surviving devices
//! of a chaos drain, the lanes of one sharded GPU, the experiments of a
//! regeneration run — are each a pure function of their own inputs, so
//! they may run side by side. [`for_each_mut`] hands each element of a
//! slice to exactly one worker, together with its index; results are
//! written through the element, never collected in completion order, so
//! the output does not depend on the worker count.
//!
//! Worker `s` owns the contiguous shard `s` of the slice and takes its
//! elements front to back. A worker whose shard is dry steals from the
//! *back* of the next non-empty shard: the element the owner would have
//! reached last. Contiguous shards keep each worker's writes clustered;
//! stealing absorbs the uneven cost of heterogeneous elements.

use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};
use std::{mem, panic, thread};

/// Resolves a requested worker count for `items` elements: `None` means
/// the host's available parallelism, and the result is clamped to
/// `1..=items.max(1)`.
pub fn workers(requested: Option<usize>, items: usize) -> usize {
    requested
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
        .clamp(1, items.max(1))
}

/// Calls `f(index, element)` exactly once for every element of `items`,
/// on up to `workers` threads (the calling thread among them).
///
/// With one worker, or at most one element, everything runs inline on
/// the calling thread: no thread is spawned and nothing is allocated.
/// A panic in `f` reaches the caller with its original payload, after
/// the other workers have stopped.
pub fn for_each_mut<T: Send>(items: &mut [T], workers: usize, f: impl Fn(usize, &mut T) + Sync) {
    let workers = workers.min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let shards: Vec<Mutex<(usize, &mut [T])>> = items
        .chunks_mut(chunk)
        .enumerate()
        .map(|(s, slice)| Mutex::new((s * chunk, slice)))
        .collect();
    let work = |own: usize| {
        while let Some((i, item)) = next(&shards, own) {
            f(i, item);
        }
    };
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        work(0);
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// The next element for the worker owning shard `own % shards.len()`:
/// its own shard's front, else the back of the next non-empty shard,
/// else `None` (no work is ever added, so `None` is final).
fn next<'a, T>(shards: &[Mutex<(usize, &'a mut [T])>], own: usize) -> Option<(usize, &'a mut T)> {
    (0..shards.len()).find_map(|off| {
        let own_shard = off == 0;
        let mut shard = shards[(own + off) % shards.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (base, slice) = &mut *shard;
        if own_shard {
            let (item, rest) = mem::take(slice).split_first_mut()?;
            *slice = rest;
            *base += 1;
            Some((*base - 1, item))
        } else {
            let (item, rest) = mem::take(slice).split_last_mut()?;
            *slice = rest;
            Some((*base + slice.len(), item))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Deterministic per-index work whose cost varies a lot: every fifth
    /// index is far heavier than its neighbours, so shards finish at
    /// different times and workers steal.
    fn result(i: usize) -> u64 {
        let rounds = if i.is_multiple_of(5) { 20_000 } else { 50 };
        (0..rounds).fold(i as u64, |h, r| (h ^ r).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn every_index_is_visited_once_with_its_result() {
        for workers in [0, 1, 2, 3, 8] {
            for len in [0, 1, 2, 7, 64] {
                let mut items = vec![(0u32, 0u64); len];
                for_each_mut(&mut items, workers, |i, item| {
                    item.0 += 1;
                    item.1 = result(i);
                });
                for (i, &(visits, got)) in items.iter().enumerate() {
                    assert_eq!(visits, 1, "workers={workers} len={len} index {i}");
                    assert_eq!(got, result(i), "workers={workers} len={len} index {i}");
                }
            }
        }
    }

    #[test]
    fn an_idle_worker_steals_from_a_busy_shard() {
        // Two shards of four. Index 0 — the first element of shard 0 —
        // blocks until index 3, the last element of the same shard, has
        // run: only a worker stealing from that shard's back can run it.
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let mut items = vec![false; 8];
        for_each_mut(&mut items, 2, |i, item| {
            if i == 0 {
                let got = rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv_timeout(Duration::from_secs(60));
                assert_eq!(got, Ok(3), "index 3 was never stolen");
            }
            if i == 3 {
                let _ = tx.lock().unwrap_or_else(PoisonError::into_inner).send(3);
            }
            *item = true;
        });
        assert!(items.iter().all(|&done| done));
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (workers, len) in [(0, 5), (1, 5), (4, 1), (4, 0)] {
            let mut items = vec![0u8; len];
            for_each_mut(&mut items, workers, |_, _| {
                assert_eq!(
                    thread::current().id(),
                    caller,
                    "workers={workers} len={len}"
                );
            });
        }
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        for workers in [1, 4] {
            let mut items = vec![0u8; 16];
            let err = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                for_each_mut(&mut items, workers, |i, _| {
                    if i == 9 {
                        panic!("item {i} failed");
                    }
                })
            }))
            .expect_err("the panic must propagate");
            assert_eq!(
                err.downcast_ref::<String>().map(String::as_str),
                Some("item 9 failed"),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn workers_resolves_and_clamps() {
        assert_eq!(workers(Some(0), 10), 1);
        assert_eq!(workers(Some(3), 10), 3);
        assert_eq!(workers(Some(8), 2), 2);
        assert_eq!(workers(Some(8), 0), 1);
        let auto = workers(None, 1_000);
        assert!((1..=1_000).contains(&auto));
        assert_eq!(workers(None, 1), 1);
    }
}
