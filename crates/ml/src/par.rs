//! Deterministic fan-out of independent jobs over a scoped worker pool.
//!
//! Both embarrassingly parallel steps of the paper's workflow run through
//! [`fan_out`]: labelling every sample by its minimum-energy team size
//! (`pulp-energy`'s sweep driver) and the seeded repetitions of repeated
//! cross-validation ([`crate::repeated_cross_val_predict`]). Results land by
//! input index, so the output never depends on the worker count or on
//! thread interleaving.

/// Runs `work(state, i)` for every `i` in `0..n` over `threads` workers
/// (`0` = all available cores; never more workers than jobs, and always at
/// least one), returning the results in input order and the per-worker
/// states in worker order.
///
/// Worker `w` builds its private state with `init(w)` — a simulator
/// scratch, a [`pulp_obs::Recorder`] track, a journal buffer — and threads
/// it through every job it runs. Jobs are assigned round-robin (worker `w`
/// runs `w, w + workers, ...`); [`fan_out_shares`] reports how many each
/// worker gets. A single worker runs inline on the calling thread.
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
    let workers = worker_count(threads, n);
    if workers == 1 {
        let mut state = init(0);
        let out = (0..n).map(|i| work(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    let (init, work) = (&init, &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init(w);
                    let out: Vec<(usize, T)> = assignment(w, workers, n)
                        .map(|i| (i, work(&mut state, i)))
                        .collect();
                    (out, state)
                })
            })
            .collect();
        for h in handles {
            let (out, state) = h.join().expect("fan-out worker panicked");
            for (i, v) in out {
                slots[i] = Some(v);
            }
            states.push(state);
        }
    });
    let out = slots
        .into_iter()
        .map(|v| v.expect("every job assigned"))
        .collect();
    (out, states)
}

/// Jobs each worker of `fan_out(n, threads, ..)` runs, in worker order; the
/// length is the resolved worker count. Sweep drivers size their per-shard
/// heartbeats and straggler checks from it before the pool starts.
pub fn fan_out_shares(n: usize, threads: usize) -> Vec<usize> {
    let workers = worker_count(threads, n);
    (0..workers)
        .map(|w| assignment(w, workers, n).count())
        .collect()
}

/// Resolves the requested worker count for `jobs` jobs: `0` means all
/// available cores, and the result is clamped to `1..=max(jobs, 1)`.
fn worker_count(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    t.clamp(1, jobs.max(1))
}

/// The job indices worker `w` of `workers` runs: round-robin striding.
fn assignment(w: usize, workers: usize, n: usize) -> impl Iterator<Item = usize> {
    (w..n).step_by(workers)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(states[0].1, [0, 3, 6, 9]);
        assert_eq!(states[1].1, [1, 4, 7]);
        assert_eq!(states[2].1, [2, 5, 8]);
        assert_eq!(fan_out_shares(10, 3), [4, 3, 3]);
        assert_eq!(fan_out_shares(3, 8), [1, 1, 1]);
        assert_eq!(fan_out_shares(0, 4), [0]);

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
}
