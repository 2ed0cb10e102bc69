//! Thread-count resolution and the scoped parallel map (no external
//! crates).
//!
//! Thread count resolution (first match wins):
//!
//! 1. [`set_threads`] — a process-wide programmatic override (`1` forces the
//!    serial path, used by benches to measure the serial/parallel ratio);
//! 2. the `TCNI_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! [`par_map`] fans independent whole jobs (Table-1 cells, sweep points,
//! seeds) over scoped threads; jobs are coarse, so spawning per call is
//! fine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide override; 0 = resolve automatically.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for all subsequent [`par_map`] calls in this
/// process. `1` forces serial in-place execution (no threads spawned); `0`
/// restores automatic resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] would use right now.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    if let Ok(s) = std::env::var("TCNI_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, in parallel, returning results in input order.
///
/// Work is distributed dynamically (a shared queue), so unevenly-sized items
/// — e.g. the six Table-1 models, whose handler programs differ in length —
/// balance across workers. With one worker (or one item) it degrades to a
/// plain serial map with no thread spawned, which is the tested fallback for
/// single-core hosts.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // A LIFO queue of (index, item); results carry the index back so the
    // output preserves input order regardless of completion order.
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop();
                let Some((i, item)) = job else { break };
                let out = f(item);
                results.lock().expect("results poisoned").push((i, out));
            });
        }
    });
    let mut out = results.into_inner().expect("results poisoned");
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, u)| u).collect()
}

/// [`par_map`] over a fixed-size array, preserving the array shape.
pub fn par_map_array<T, U, F, const N: usize>(items: [T; N], f: F) -> [U; N]
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let v = par_map(Vec::from(items), f);
    match v.try_into() {
        Ok(arr) => arr,
        Err(_) => unreachable!("par_map preserves length"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_length() {
        let out = par_map((0..100).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_override_matches_parallel() {
        let items: Vec<u64> = (0..40).collect();
        set_threads(1);
        let serial = par_map(items.clone(), |i| i * i);
        set_threads(0);
        let auto = par_map(items, |i| i * i);
        assert_eq!(serial, auto);
    }

    #[test]
    fn array_map_keeps_shape() {
        let out = par_map_array([1, 2, 3, 4, 5, 6], |i| i + 10);
        assert_eq!(out, [11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }
}
