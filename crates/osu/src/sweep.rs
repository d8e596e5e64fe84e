//! The size sweep under every OSU entry point.
//!
//! Each point of a sweep builds, runs and drops its own `Simulation`; points
//! share nothing but the coroutine-stack free list (behind a mutex). So the
//! points of one sweep run on every core the host has. Where a point runs
//! cannot change what it computes: a simulation is `Send`, model code keeps
//! no thread-keyed state (`scripts/check.sh` rejects thread-local cells),
//! and a point's simulation never leaves the thread that picked the point
//! up. The `Series` is bit-identical to a one-at-a-time sweep
//! (`tests/determinism.rs`, DESIGN §3).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `point(size)` for every size, as `(size, result)` in the order of
/// `sizes`.
///
/// `min(cores, sizes)` workers, the calling thread among them, take points
/// from a shared cursor: a point's cost varies ~100× across 1 B – 4 MiB, so
/// a fixed split would leave cores idle. The cursor deals from the end of
/// `sizes` (the largest sizes, which cost the most) down, so the sweep does
/// not end on one large point running alone. With one size or one core no
/// thread is spawned: the caller runs every point. Every point runs; once
/// every worker is back, the panic of the first failing point in size order
/// is resumed — the payload a one-at-a-time sweep would have raised.
pub(crate) fn sweep<T: Send>(sizes: &[u64], point: impl Fn(u64) -> T + Sync) -> Vec<(u64, T)> {
    let workers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(sizes.len());
    // The cursor publishes no data (results come back through `join`), so
    // `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let dealt = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(i) = sizes.len().checked_sub(dealt + 1) else {
                break;
            };
            done.push((i, catch_unwind(AssertUnwindSafe(|| point(sizes[i])))));
        }
        done
    };
    let mut slots: Vec<Option<thread::Result<T>>> = sizes.iter().map(|_| None).collect();
    thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mine = work();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        for (i, r) in theirs.chain(mine) {
            slots[i] = Some(r);
        }
    });
    let results = slots.into_iter().map(|slot| {
        slot.expect("every point ran")
            .unwrap_or_else(|payload| resume_unwind(payload))
    });
    sizes.iter().copied().zip(results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    }

    #[test]
    fn results_come_back_in_size_order() {
        let sizes: Vec<u64> = (0..40).rev().collect();
        let got = sweep(&sizes, |s| s * s);
        let want: Vec<(u64, u64)> = sizes.iter().map(|&s| (s, s * s)).collect();
        assert_eq!(got, want);
        assert!(sweep(&[], |s| s).is_empty());
    }

    #[test]
    fn a_panic_resumes_with_the_first_failing_point_in_size_order() {
        let sizes: Vec<u64> = (0..32).collect();
        // With more than one worker, point 9 holds its worker until point 20
        // has begun to fail, so the later point fails first in time.
        let concurrent = thread::available_parallelism().map_or(1, NonZeroUsize::get) > 1;
        let twenty_failing = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let err = catch_unwind(|| {
            sweep(&sizes, |s| {
                ran.fetch_add(1, Ordering::SeqCst);
                if s == 9 {
                    while concurrent && !twenty_failing.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    panic!("point {s} failed");
                }
                if s == 20 {
                    twenty_failing.store(true, Ordering::SeqCst);
                    panic!("point {s} failed");
                }
                s
            })
        })
        .expect_err("the sweep must fail");
        assert_eq!(message(err), "point 9 failed");
        assert_eq!(ran.into_inner(), sizes.len(), "a failure stops no point");
    }

    #[test]
    fn the_largest_sizes_are_dealt_first() {
        let sizes: Vec<u64> = (0..16).collect();
        let workers = thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(sizes.len());
        // Each point waits until every worker holds one, so the first
        // `workers` points started are exactly the first ones dealt.
        let started = Mutex::new(Vec::new());
        sweep(&sizes, |s| {
            started.lock().unwrap().push(s);
            while started.lock().unwrap().len() < workers {
                thread::yield_now();
            }
        });
        let mut first = started.into_inner().unwrap();
        first.truncate(workers.max(2));
        first.sort_unstable();
        let want: Vec<u64> = (16 - workers.max(2) as u64..16).collect();
        assert_eq!(first, want);
    }

    #[test]
    fn a_one_size_sweep_runs_on_the_caller() {
        let caller = thread::current().id();
        let got = sweep(&[7], |s| (s, thread::current().id()));
        assert_eq!(got, vec![(7, (7, caller))]);
    }
}
