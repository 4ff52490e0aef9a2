//! Deterministic fan-out of independent jobs over a scoped worker pool.
//!
//! Both embarrassingly parallel steps of the paper's workflow run through
//! [`fan_out`]: labelling every sample by its minimum-energy team size
//! (`pulp-energy`'s sweep driver) and the seeded repetitions of repeated
//! cross-validation ([`crate::repeated_cross_val_predict`]). Workers claim
//! jobs from one shared cursor, so a worker that draws a run of expensive
//! jobs never leaves the others idle; results land by input index, so the
//! output never depends on the worker count or on thread interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(state, i)` for every `i` in `0..n` over `threads` workers
/// (`0` = all available cores; never more workers than jobs, and always at
/// least one), returning the results in input order and the per-worker
/// states in worker order.
///
/// Worker `w` builds its private state with `init(w)` — a simulator
/// scratch, a [`pulp_obs::Recorder`] track, a journal buffer — and threads
/// it through every job it runs. Jobs are self-scheduled: each worker
/// claims the next unclaimed index from a shared cursor until all `n` are
/// taken, so which worker runs which job (and how many) depends on timing.
/// A single worker runs inline on the calling thread, in index order.
///
/// `work` must derive everything it computes from its index (and its own
/// state) for the results to be bit-identical at any thread count.
/// Fallible jobs return a `Result`; collecting the output in index order
/// then yields the **lowest-indexed** error, whatever the interleaving.
pub fn fan_out<S: Send, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let workers = fan_out_workers(n, threads);
    if workers == 1 {
        let mut state = init(0);
        let out = (0..n).map(|i| work(&mut state, i)).collect();
        return (out, vec![state]);
    }
    // One slot per job: a worker writes its result straight into the slot
    // of the index it claimed.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (init, work, slots, cursor) = (&init, &work, &slots, &cursor);
                scope.spawn(move || {
                    let mut state = init(w);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return state;
                        }
                        let v = work(&mut state, i);
                        *slots[i].lock().expect("result slot poisoned") = Some(v);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    let out = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job claimed")
        })
        .collect();
    (out, states)
}

/// The number of workers `fan_out(n, threads, ..)` starts: `0` means all
/// available cores, and the result is clamped to `1..=max(n, 1)`. Callers
/// size per-worker bookkeeping from it before the pool starts.
pub fn fan_out_workers(n: usize, threads: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    t.clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn fan_out_preserves_index_order_and_worker_state() {
        // Uneven split (17 % 4 != 0), empty input, `0` = all cores, and more
        // workers requested than jobs: results always come back in input
        // order.
        let squares = |n: usize, threads: usize| fan_out(n, threads, |_| (), |_, i| i * i).0;
        let expect = |n: usize| (0..n).map(|i| i * i).collect::<Vec<_>>();
        assert_eq!(squares(17, 4), expect(17));
        assert_eq!(squares(0, 4), Vec::<usize>::new());
        assert_eq!(squares(3, 0), expect(3));
        assert_eq!(squares(3, 8), expect(3));

        // States come back in worker order, each holding its own jobs.
        let (out, states) = fan_out(
            10,
            3,
            |w| (w, Vec::new()),
            |(_, seen): &mut (usize, Vec<usize>), i| {
                seen.push(i);
                i
            },
        );
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let workers: Vec<usize> = states.iter().map(|(w, _)| *w).collect();
        assert_eq!(workers, [0, 1, 2]);
        // Which worker ran which job depends on timing, but the workers'
        // job lists partition `0..n`: every job ran exactly once.
        let mut ran: Vec<usize> = states.iter().flat_map(|(_, seen)| seen.clone()).collect();
        assert_eq!(ran.len(), 10, "each job runs exactly once");
        ran.sort_unstable();
        assert_eq!(ran, (0..10).collect::<Vec<_>>());

        // One worker runs on the calling thread; several never do.
        let caller = std::thread::current().id();
        let on_caller = |threads: usize| {
            fan_out(
                4,
                threads,
                |_| (),
                |_, _| std::thread::current().id() == caller,
            )
            .0
        };
        assert_eq!(on_caller(1), [true; 4]);
        assert_eq!(on_caller(2), [false; 4]);
        assert_eq!(fan_out(0, 1, |w| w, |_, i| i).1, [0], "one inline worker");
    }

    #[test]
    fn fan_out_claims_jobs_dynamically() {
        // Job 0 blocks its worker until every other job has finished. Only
        // a self-scheduling pool lets the second worker run all of them;
        // under static striding job 2 would wait behind job 0 forever.
        let n = 9;
        let finished = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        let (out, _) = fan_out(
            n,
            2,
            |_| (),
            |_, i| {
                if i == 0 {
                    while finished.load(Ordering::Acquire) < n - 1 {
                        assert!(
                            Instant::now() < deadline,
                            "job 0 still waiting: only {} of {} other jobs ran",
                            finished.load(Ordering::Acquire),
                            n - 1
                        );
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
                i
            },
        );
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }
}
