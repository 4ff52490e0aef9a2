//! Simulation-based labelling — steps (B)–(E) of the paper's workflow.
//!
//! Each dataset sample is simulated with every team size from 1 to 8; the
//! Table-I energy model assigns each run an energy; the arg-min team size
//! becomes the sample's class label.

use crate::cache::SweepCache;
use crate::pipeline::BuildObserver;
use kernel_ir::{lower, Kernel, LowerError};
use pulp_energy_model::{energy_of, DynamicFeatures, EnergyModel, EnergySummary};
use pulp_ml::{fan_out, fan_out_workers};
use pulp_obs::{JournalEvent, JournalWriter, Logger, Recorder};
use pulp_sim::{
    simulate_opts, ClusterConfig, NoTelemetry, NullSink, SimError, SimOptions, SimScratch,
    DEFAULT_MAX_CYCLES,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of classes (team sizes 1..=8 on the paper's cluster).
pub const NUM_CLASSES: usize = 8;

/// Errors produced while measuring a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// Lowering failed.
    Lower(LowerError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lower(e) => write!(f, "lowering failed: {e}"),
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lower(e) => Some(e),
            Self::Sim(e) => Some(e),
        }
    }
}

impl From<LowerError> for MeasureError {
    fn from(e: LowerError) -> Self {
        Self::Lower(e)
    }
}

impl From<SimError> for MeasureError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// Energy measurements of one kernel across all team sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyProfile {
    /// Total energy (fJ) per team size; index `t` = `t + 1` cores.
    pub energy: [f64; NUM_CLASSES],
    /// Kernel cycles per team size.
    pub cycles: [u64; NUM_CLASSES],
    /// Table-III dynamic features per team size.
    pub dynamic: Vec<DynamicFeatures>,
}

impl EnergyProfile {
    /// The minimum-energy class (0-based; class `c` means `c + 1` cores).
    ///
    /// Non-finite energies (NaN/∞ from a degenerate energy model, e.g.
    /// during ablation sweeps) are skipped with a warning instead of
    /// panicking the whole dataset build. Ties are broken deterministically
    /// in favour of the **fewest cores** — the cheaper configuration when
    /// energies are equal. If *no* energy is finite the profile degrades to
    /// class 0 (one core), again with a warning.
    pub fn label(&self) -> usize {
        let mut best: Option<(usize, f64)> = None;
        let mut skipped = 0usize;
        for (i, &e) in self.energy.iter().enumerate() {
            if !e.is_finite() {
                skipped += 1;
                continue;
            }
            // Strict `<` keeps the earlier (fewest-cores) index on ties.
            if best.is_none_or(|(_, b)| e < b) {
                best = Some((i, e));
            }
        }
        if skipped > 0 {
            eprintln!("[labeling] warning: {skipped} non-finite energies skipped in arg-min");
        }
        match best {
            Some((i, _)) => i,
            None => {
                eprintln!("[labeling] warning: no finite energy in profile; defaulting to class 0");
                0
            }
        }
    }

    /// Fractional energy wasted by running with class `c` instead of the
    /// optimum.
    pub fn waste(&self, c: usize) -> f64 {
        let min = self.energy[self.label()];
        (self.energy[c] - min) / min
    }

    /// Parallel speed-up of class `c` relative to one core.
    pub fn speedup(&self, c: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[c] as f64
    }

    /// The profile as per-core-count [`EnergySummary`] rows — the sweep
    /// cache's value type. Only the team sizes actually measured (one per
    /// [`DynamicFeatures`] entry) are emitted.
    pub fn summaries(&self) -> Vec<EnergySummary> {
        self.dynamic
            .iter()
            .enumerate()
            .map(|(t, dynamic)| EnergySummary {
                cores: t + 1,
                energy_fj: self.energy[t],
                cycles: self.cycles[t],
                dynamic: *dynamic,
            })
            .collect()
    }

    /// Reassembles a profile from cached [`EnergySummary`] rows
    /// (the inverse of [`summaries`](Self::summaries)).
    pub fn from_summaries(summaries: &[EnergySummary]) -> Self {
        let mut energy = [0.0; NUM_CLASSES];
        let mut cycles = [0u64; NUM_CLASSES];
        let mut dynamic = Vec::with_capacity(summaries.len());
        for s in summaries {
            energy[s.cores - 1] = s.energy_fj;
            cycles[s.cores - 1] = s.cycles;
            dynamic.push(s.dynamic);
        }
        Self {
            energy,
            cycles,
            dynamic,
        }
    }
}

/// Simulates `kernel` at every team size and assembles its energy profile.
///
/// # Errors
///
/// Propagates lowering or simulation failures (neither is expected for
/// validated dataset kernels).
pub fn measure_kernel(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
) -> Result<EnergyProfile, MeasureError> {
    measure_profile(
        kernel,
        config,
        model,
        DEFAULT_MAX_CYCLES,
        None,
        None,
        &mut SimScratch::new(),
    )
}

/// The one per-kernel measurement behind [`measure_kernel`] and the sweep
/// driver: simulates `kernel` at every team size under a `max_cycles`
/// budget (a run exceeding it fails with [`pulp_sim::SimError::CycleLimit`]).
///
/// * `scratch` is reused across all 1..=8 runs (and, in a sweep, across
///   every kernel a worker measures), so a multi-thousand-sample labelling
///   run performs a handful of scratch allocations instead of one per run.
/// * With a `cache`, a valid cached sweep short-circuits all simulator
///   invocations; a miss (or stale/corrupt entry) recomputes and stores the
///   fresh sweep atomically. Cache I/O never fails the measurement.
/// * With a `rec`, each run gets a `simulate` span annotated with its
///   cycle count and energy, and a cache hit a `cache` span.
pub(crate) fn measure_profile(
    kernel: &Kernel,
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    cache: Option<&SweepCache>,
    mut rec: Option<&mut Recorder>,
    scratch: &mut SimScratch,
) -> Result<EnergyProfile, MeasureError> {
    let teams = NUM_CLASSES.min(config.num_cores);
    let keyed = cache.map(|c| (c, c.key(&kernel.sample_id(), config, model)));
    if let Some((cache, key)) = &keyed {
        if let Some(summaries) = cache.lookup(key) {
            let shape_ok = summaries.len() == teams
                && summaries.iter().enumerate().all(|(i, s)| s.cores == i + 1);
            if shape_ok {
                if let Some(rec) = rec {
                    let span = rec.start_cat(&format!("cache hit {}", kernel.sample_id()), "cache");
                    rec.end(span);
                }
                return Ok(EnergyProfile::from_summaries(&summaries));
            }
            // A hash collision or foreign entry of the wrong shape: ignore it
            // and recompute (the store below overwrites it).
        }
    }
    let mut energy = [0.0; NUM_CLASSES];
    let mut cycles = [0u64; NUM_CLASSES];
    let mut dynamic = Vec::with_capacity(NUM_CLASSES);
    let opts = SimOptions::default().with_max_cycles(max_cycles);
    for team in 1..=teams {
        let span = rec
            .as_deref_mut()
            .map(|r| r.start_cat(&format!("simulate t{team}"), "simulate"));
        let result = lower(kernel, team, config)
            .map_err(MeasureError::from)
            .and_then(|lowered| {
                simulate_opts(
                    config,
                    &lowered.program,
                    &opts,
                    &mut NullSink,
                    &mut NoTelemetry,
                    scratch,
                )
                .map_err(MeasureError::from)
            });
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
                    rec.annotate(span, "error", &e);
                    rec.end(span);
                }
                return Err(e);
            }
        };
        let fj = energy_of(&stats, model, config).total();
        if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
            rec.annotate(span, "cycles", stats.cycles);
            rec.annotate(span, "energy_uj", format!("{:.4}", fj * 1e-9));
            rec.end(span);
        }
        energy[team - 1] = fj;
        cycles[team - 1] = stats.cycles;
        dynamic.push(DynamicFeatures::extract(&stats));
    }
    let profile = EnergyProfile {
        energy,
        cycles,
        dynamic,
    };
    if let Some((cache, key)) = &keyed {
        cache.store(key, &profile.summaries());
    }
    Ok(profile)
}

/// Live progress state for a sharded sweep: one lock-free counter per
/// shard, bumped by the worker after each kernel. Snapshots are cheap
/// (relaxed loads) and drive both the `--progress` line and the journal
/// heartbeats; counting takes no lock.
#[derive(Debug)]
pub struct SweepProgress {
    total: u64,
    start: Instant,
    shard_done: Vec<AtomicU64>,
}

impl SweepProgress {
    /// A fresh aggregator for `total` kernels across `shards` workers.
    pub fn new(total: usize, shards: usize) -> Self {
        Self {
            total: total as u64,
            start: Instant::now(),
            shard_done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one finished kernel on `shard`.
    pub fn record(&self, shard: usize) {
        self.shard_done[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Total kernels in the sweep.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Milliseconds since the sweep started.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> SweepSnapshot {
        SweepSnapshot {
            total: self.total,
            shard_done: self
                .shard_done
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            elapsed_s: self.start.elapsed().as_secs_f64(),
        }
    }
}

/// A point-in-time view of a [`SweepProgress`]. Plain data — the derived
/// quantities (rate, ETA) are pure functions of the fields,
/// so the unit tests exercise them without any timing dependence.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSnapshot {
    /// Total kernels in the sweep.
    pub total: u64,
    /// Kernels finished per shard.
    pub shard_done: Vec<u64>,
    /// Seconds since the sweep started.
    pub elapsed_s: f64,
}

impl SweepSnapshot {
    /// Kernels finished across all shards.
    pub fn done(&self) -> u64 {
        self.shard_done.iter().sum()
    }

    /// Aggregate throughput so far (kernels per second).
    pub fn rate(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.done() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Estimated seconds to completion at the current rate
    /// (`f64::INFINITY` before any kernel finishes).
    pub fn eta_s(&self) -> f64 {
        let remaining = self.total.saturating_sub(self.done()) as f64;
        let rate = self.rate();
        if remaining == 0.0 {
            0.0
        } else if rate > 0.0 {
            remaining / rate
        } else {
            f64::INFINITY
        }
    }

    /// The `--progress` line's key-value fields (percent done, rate, ETA),
    /// ready for [`Logger::info`].
    pub fn progress_fields(&self) -> Vec<(&'static str, String)> {
        let pct = if self.total > 0 {
            self.done() as f64 / self.total as f64 * 100.0
        } else {
            100.0
        };
        vec![
            ("pct", format!("{pct:.1}")),
            ("rate", format!("{:.1}", self.rate())),
            ("eta_s", format!("{:.0}", self.eta_s())),
        ]
    }
}

/// Kernels between two journal heartbeats on one shard.
const HEARTBEAT_EVERY: u64 = 16;
/// Slow-kernel entries each shard tracks (the report merges and re-ranks
/// them globally).
const SLOW_PER_SHARD: usize = 4;
/// Least gap between two live progress lines.
const PROGRESS_EVERY_MS: u64 = 200;

/// Sweeps a batch of independent kernels across a worker pool.
///
/// Labelling is embarrassingly parallel per sample: each kernel's 1..=8
/// team-size sweep touches no shared state. The kernels go through the
/// sweep driver (see [`LabeledDataset::build_observed`] for the dataset
/// form): each worker reuses one [`SimScratch`] across every run it
/// performs, and the profiles land in input order — the result is
/// **bit-identical to sequential measurement at any thread count**, which
/// the unit tests pin at 1/2/8 threads. `threads == 0` uses all available
/// cores; the count is clamped to the batch size.
///
/// `obs.journal` receives per-shard heartbeats (kernels done, kernels/s)
/// and each shard's slowest kernels, merged in shard order after the
/// sweep; `obs.logger` turns on a throttled `[sweep]` progress line with
/// rate and ETA. [`BuildObserver::default`] is the bare sweep
/// with no per-kernel timing on the hot loop. Observation never changes a
/// profile.
///
/// # Errors
///
/// If any kernels fail, returns the error of the **lowest-indexed** failing
/// kernel (independent of thread interleaving), as sequential measurement
/// would. Journal write failures after the sweep are reported to stderr
/// but do not fail the measurement.
///
/// [`LabeledDataset::build_observed`]: crate::pipeline::LabeledDataset::build_observed
pub fn measure_kernels_sharded(
    kernels: &[Kernel],
    config: &ClusterConfig,
    model: &EnergyModel,
    max_cycles: u64,
    threads: usize,
    obs: BuildObserver<'_>,
) -> Result<Vec<EnergyProfile>, MeasureError> {
    let (profiles, _) = sweep(
        kernels.len(),
        threads,
        false,
        obs.journal,
        obs.logger,
        |i, scratch, _| {
            measure_profile(&kernels[i], config, model, max_cycles, None, None, scratch)
        },
        |i, res| {
            (
                kernels[i].sample_id(),
                res.as_ref().map_or(0, |p| p.cycles[0]),
            )
        },
    );
    profiles
}

/// One sweep worker's private state, threaded through every sample it
/// measures.
struct Shard {
    index: usize,
    scratch: SimScratch,
    rec: Recorder,
    events: Vec<JournalEvent>,
    /// `(sample, wall_ms, cycles)` of the slowest samples so far.
    slow: Vec<(String, f64, u64)>,
    done: u64,
    cache_hits: u64,
    /// Sweep milliseconds when this shard finished its latest sample (when
    /// it started, before the first).
    finished_ms: u64,
}

impl Shard {
    /// This shard's heartbeat as of its latest sample. `assigned` is the
    /// count it has run so far; [`sweep`] rewrites it to the shard's
    /// final count once the pool joins.
    fn heartbeat(&self, caching: bool) -> JournalEvent {
        let elapsed_s = self.finished_ms as f64 / 1e3;
        JournalEvent::Heartbeat {
            shard: self.index as u64,
            done: self.done,
            assigned: self.done,
            elapsed_ms: self.finished_ms,
            kernels_per_s: if elapsed_s > 0.0 {
                self.done as f64 / elapsed_s
            } else {
                0.0
            },
            cache_hits: self.cache_hits,
            cache_misses: if caching {
                self.done - self.cache_hits
            } else {
                0
            },
        }
    }
}

/// The sweep driver: measures samples `0..n` with `measure` over
/// [`fan_out`] workers and observes the run.
///
/// Each worker owns a [`SimScratch`] and a [`Recorder`] (returned in worker
/// order for the caller to merge) and buffers its journal events off the
/// measurement path; `describe` names a finished sample and its one-core
/// cycle count for the slow-kernel list and is only called while
/// journaling. Cache hits are attributed from the `cache` spans `measure`
/// records; `caching` reports the rest as misses. Workers claim samples
/// from one shared cursor, so a shard's share is only known once the pool
/// joins: the heartbeats' `assigned` is then set to the samples that shard
/// ran, and each shard ends on a final heartbeat (`done == assigned`)
/// stamped when it finished its last sample. The journal gets every
/// shard's heartbeats then its slow kernels, shard by shard, after the
/// pool joins; `progress` receives throttled `[sweep]` lines from the
/// workers as they finish samples.
///
/// Results are collected in index order, so the error returned is always
/// the lowest-indexed failure.
pub(crate) fn sweep<T: Send, E: Send>(
    n: usize,
    threads: usize,
    caching: bool,
    journal: Option<&mut JournalWriter>,
    progress: Option<&Logger>,
    measure: impl Fn(usize, &mut SimScratch, &mut Recorder) -> Result<T, E> + Sync,
    describe: impl Fn(usize, &Result<T, E>) -> (String, u64) + Sync,
) -> (Result<Vec<T>, E>, Vec<Recorder>) {
    if n == 0 {
        return (Ok(Vec::new()), Vec::new());
    }
    let counts = SweepProgress::new(n, fan_out_workers(n, threads));
    let journaling = journal.is_some();
    // `(done, elapsed_ms)` at the last progress line; the lock keeps the
    // printed counts monotonic, so the last line always reports `n/n`.
    let last_line: Mutex<Option<(u64, u64)>> = Mutex::new(None);
    let report = || {
        let Some(log) = progress else { return };
        let mut last = last_line.lock().expect("progress lock poisoned");
        let snap = counts.snapshot();
        let now = counts.elapsed_ms();
        let due = last.is_none_or(|(done, at)| {
            snap.done() != done && (snap.done() == snap.total || now >= at + PROGRESS_EVERY_MS)
        });
        if due {
            log.info(
                "sweep",
                &format!("measured {}/{}", snap.done(), snap.total),
                &snap.progress_fields(),
            );
            *last = Some((snap.done(), now));
        }
    };
    report();
    let init = |index| Shard {
        index,
        scratch: SimScratch::new(),
        rec: Recorder::new(),
        events: Vec::new(),
        slow: Vec::new(),
        done: 0,
        cache_hits: 0,
        finished_ms: counts.elapsed_ms(),
    };
    let (results, shards) = fan_out(n, threads, init, |shard: &mut Shard, i| {
        let spans_before = shard.rec.spans().len();
        let t0 = journaling.then(Instant::now);
        let res = measure(i, &mut shard.scratch, &mut shard.rec);
        shard.done += 1;
        if let Some(t0) = t0 {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if shard.rec.spans()[spans_before..]
                .iter()
                .any(|s| s.cat == "cache")
            {
                shard.cache_hits += 1;
            }
            let (sample, cycles) = describe(i, &res);
            shard.slow.push((sample, wall_ms, cycles));
            if shard.slow.len() > SLOW_PER_SHARD {
                shard
                    .slow
                    .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                shard.slow.truncate(SLOW_PER_SHARD);
            }
            shard.finished_ms = counts.elapsed_ms();
            if shard.done.is_multiple_of(HEARTBEAT_EVERY) {
                shard.events.push(shard.heartbeat(caching));
            }
        }
        counts.record(shard.index);
        report();
        res
    });
    let mut events = Vec::new();
    let mut recorders = Vec::with_capacity(shards.len());
    for mut shard in shards {
        if journaling {
            for ev in &mut shard.events {
                if let JournalEvent::Heartbeat { assigned, .. } = ev {
                    *assigned = shard.done;
                }
            }
            let ended = matches!(
                shard.events.last(),
                Some(JournalEvent::Heartbeat { done, .. }) if *done == shard.done
            );
            if !ended {
                shard.events.push(shard.heartbeat(caching));
            }
        }
        shard.slow.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        events.append(&mut shard.events);
        events.extend(shard.slow.into_iter().map(|(sample, wall_ms, cycles)| {
            JournalEvent::SlowKernel {
                sample,
                wall_ms,
                cycles,
            }
        }));
        recorders.push(shard.rec);
    }
    if let Some(journal) = journal {
        // Deterministic merge: shard 0's buffer first, then shard 1's, ...
        if let Err(e) = journal.events(events) {
            eprintln!("[sweep] warning: journal write failed: {e}");
        }
    }
    (results.into_iter().collect(), recorders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::{DType, KernelBuilder, Suite};

    fn measure(kernel: &Kernel) -> EnergyProfile {
        measure_kernel(kernel, &ClusterConfig::default(), &EnergyModel::table1()).expect("measure")
    }

    fn compute_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("c", Suite::Custom, DType::I32, n * 4);
        let x = b.array("x", n);
        b.par_for(n as u64, |b, i| {
            b.load(x, i);
            b.alu(16);
            b.store(x, i);
        });
        b.build().expect("valid")
    }

    #[test]
    fn profile_has_all_team_sizes() {
        let p = measure(&compute_kernel(256));
        assert!(p.energy.iter().all(|&e| e > 0.0));
        assert!(p.cycles.iter().all(|&c| c > 0));
        assert_eq!(p.dynamic.len(), 8);
    }

    #[test]
    fn scalable_compute_prefers_many_cores() {
        let p = measure(&compute_kernel(2048));
        assert!(
            p.label() >= 5,
            "dense compute should favour large teams, got {} cores (energies {:?})",
            p.label() + 1,
            p.energy
        );
        assert!(p.speedup(7) > 4.0, "speed-up at 8 cores: {}", p.speedup(7));
    }

    #[test]
    fn serialised_kernel_prefers_few_cores() {
        // Critical section around every iteration: no parallel benefit.
        let n = 512usize;
        let mut b = KernelBuilder::new("ser", Suite::Custom, DType::I32, n * 4);
        let x = b.array("x", n);
        let acc = b.array("acc", 4);
        b.par_for(n as u64, |b, i| {
            b.load(x, i);
            b.critical(|b| {
                b.load(acc, 0);
                b.alu(4);
                b.store(acc, 0);
            });
        });
        let k = b.build().expect("valid");
        let p = measure(&k);
        assert!(
            p.label() <= 2,
            "serialised kernel should favour small teams, got {} cores (energies {:?})",
            p.label() + 1,
            p.energy
        );
    }

    #[test]
    fn waste_is_zero_at_the_label() {
        let p = measure(&compute_kernel(512));
        assert_eq!(p.waste(p.label()), 0.0);
        for c in 0..NUM_CLASSES {
            assert!(p.waste(c) >= 0.0);
        }
    }

    fn profile_with_energy(energy: [f64; NUM_CLASSES]) -> EnergyProfile {
        EnergyProfile {
            energy,
            cycles: [100; NUM_CLASSES],
            dynamic: Vec::new(),
        }
    }

    #[test]
    fn label_skips_nan_energies_instead_of_panicking() {
        // Regression: `partial_cmp(..).expect("finite energies")` used to
        // panic the whole dataset build on a single NaN.
        let mut energy = [10.0; NUM_CLASSES];
        energy[0] = f64::NAN;
        energy[3] = 2.0;
        energy[5] = f64::INFINITY;
        assert_eq!(profile_with_energy(energy).label(), 3);
    }

    #[test]
    fn label_ties_prefer_fewest_cores() {
        let mut energy = [5.0; NUM_CLASSES];
        energy[2] = 1.0;
        energy[6] = 1.0; // exact tie with class 2 → class 2 (fewer cores) wins
        assert_eq!(profile_with_energy(energy).label(), 2);
        assert_eq!(profile_with_energy([7.0; NUM_CLASSES]).label(), 0);
    }

    #[test]
    fn all_nan_profile_degrades_to_class_zero() {
        assert_eq!(profile_with_energy([f64::NAN; NUM_CLASSES]).label(), 0);
    }

    #[test]
    fn summaries_round_trip_through_the_cache_value_type() {
        let p = measure(&compute_kernel(256));
        let summaries = p.summaries();
        assert_eq!(summaries.len(), 8);
        assert!(summaries.iter().enumerate().all(|(i, s)| s.cores == i + 1));
        assert_eq!(EnergyProfile::from_summaries(&summaries), p);
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential_at_1_2_8_threads() {
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = [64usize, 128, 192, 256, 96, 160, 224, 80, 144, 208]
            .iter()
            .map(|&n| compute_kernel(n))
            .collect();
        let sequential: Vec<EnergyProfile> = kernels
            .iter()
            .map(|k| measure_kernel(k, &config, &model).expect("sequential"))
            .collect();
        for threads in [1usize, 2, 8] {
            let sharded = measure_kernels_sharded(
                &kernels,
                &config,
                &model,
                DEFAULT_MAX_CYCLES,
                threads,
                BuildObserver::default(),
            )
            .expect("sharded");
            assert_eq!(
                sharded, sequential,
                "sharding across {threads} threads must not change any profile"
            );
        }
        assert!(measure_kernels_sharded(
            &[],
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            4,
            BuildObserver::default()
        )
        .expect("empty batch")
        .is_empty());
    }

    #[test]
    fn observed_sweep_is_bit_identical_and_journals_round_trip_at_1_2_8_threads() {
        use pulp_obs::{validate_journal, JournalReader, JournalWriter};
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = [64usize, 128, 192, 256, 96, 160, 224, 80, 144, 208]
            .iter()
            .map(|&n| compute_kernel(n))
            .collect();
        let plain = measure_kernels_sharded(
            &kernels,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            2,
            BuildObserver::default(),
        )
        .expect("plain");
        for threads in [1usize, 2, 8] {
            let mut journal = JournalWriter::in_memory("test_sweep", "cafe", 7);
            let t0 = Instant::now();
            let observed = measure_kernels_sharded(
                &kernels,
                &config,
                &model,
                DEFAULT_MAX_CYCLES,
                threads,
                BuildObserver {
                    journal: Some(&mut journal),
                    logger: None,
                },
            )
            .expect("observed");
            // The whole call is this sweep's `measure` stage.
            let measure_ms = t0.elapsed().as_millis() as u64;
            assert_eq!(
                observed, plain,
                "observation must not perturb profiles at {threads} threads"
            );
            let text = journal.finalize_to_string().expect("journal text");
            validate_journal(&text).expect("journal validates");
            let parsed = JournalReader::read_str(&text).expect("journal reads");
            // Bit-identical round trip: canonical re-encode == file bytes.
            assert_eq!(
                pulp_obs::render_journal(&parsed),
                text,
                "journal round-trip at {threads} threads"
            );
            // Every shard's final heartbeat covers the samples it ran, is
            // stamped within the sweep, and the shards' shares add up to
            // the batch.
            let mut last: Vec<Option<(u64, u64, u64)>> = vec![None; threads];
            for ev in &parsed.events {
                if let pulp_obs::JournalEvent::Heartbeat {
                    shard,
                    done,
                    assigned,
                    elapsed_ms,
                    ..
                } = ev
                {
                    last[*shard as usize] = Some((*done, *assigned, *elapsed_ms));
                }
            }
            let covered: u64 = last
                .iter()
                .map(|hb| {
                    let (done, assigned, elapsed_ms) = hb.expect("each shard heartbeats");
                    assert_eq!(done, assigned, "final heartbeat covers the shard's share");
                    assert!(
                        elapsed_ms <= measure_ms,
                        "shard finished at {elapsed_ms} ms, after the {measure_ms} ms sweep"
                    );
                    done
                })
                .sum();
            assert_eq!(covered, kernels.len() as u64);
            assert!(
                parsed
                    .events
                    .iter()
                    .any(|e| matches!(e, pulp_obs::JournalEvent::SlowKernel { .. })),
                "slow-kernel entries recorded"
            );
        }
    }

    #[test]
    fn observed_sweep_progress_lines_reach_the_logger() {
        use pulp_obs::{LogFormat, Logger};
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = (0..4).map(|i| compute_kernel(64 + i * 32)).collect();
        let log = Logger::to_sink(LogFormat::Text);
        measure_kernels_sharded(
            &kernels,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            2,
            BuildObserver {
                journal: None,
                logger: Some(&log),
            },
        )
        .expect("observed");
        let lines = log.take_sink().expect("sink");
        assert!(!lines.is_empty(), "progress lines expected");
        assert!(
            lines.last().unwrap().starts_with("[sweep] measured 4/4"),
            "final line reports completion: {lines:?}"
        );
        assert!(lines.iter().all(|l| l.contains("eta_s=")), "{lines:?}");
    }

    #[test]
    fn snapshot_math_is_pure() {
        let snap = SweepSnapshot {
            total: 100,
            shard_done: vec![30, 30, 2],
            elapsed_s: 31.0,
        };
        assert_eq!(snap.done(), 62);
        assert!((snap.rate() - 2.0).abs() < 1e-9);
        assert!((snap.eta_s() - 19.0).abs() < 1e-9);
        let fields = snap.progress_fields();
        assert!(fields.iter().any(|(k, v)| *k == "pct" && v == "62.0"));
        // Zero-progress snapshots report an unbounded ETA without panicking.
        let cold = SweepSnapshot {
            total: 10,
            shard_done: vec![0, 0],
            elapsed_s: 0.0,
        };
        assert_eq!(cold.rate(), 0.0);
        assert!(cold.eta_s().is_infinite());
    }

    #[test]
    fn live_progress_aggregator_counts_per_shard() {
        let prog = SweepProgress::new(6, 2);
        assert_eq!(prog.total(), 6);
        prog.record(0);
        prog.record(1);
        prog.record(1);
        let snap = prog.snapshot();
        assert_eq!(snap.shard_done, vec![1, 2]);
        assert_eq!(snap.done(), 3);
    }

    #[test]
    fn sharded_sweep_reports_the_lowest_indexed_error() {
        // A 1-cycle budget fails every kernel; the reported error must be
        // kernel 0's regardless of which worker hits an error first.
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernels: Vec<Kernel> = (0..6).map(|i| compute_kernel(64 + i * 32)).collect();
        let err =
            measure_kernels_sharded(&kernels, &config, &model, 1, 3, BuildObserver::default())
                .expect_err("1-cycle budget must fail");
        let seq_err = measure_profile(
            &kernels[0],
            &config,
            &model,
            1,
            None,
            None,
            &mut SimScratch::new(),
        )
        .expect_err("sequential fails too");
        assert_eq!(format!("{err}"), format!("{seq_err}"));
    }

    #[test]
    fn cached_measurement_is_identical_and_skips_the_simulator() {
        let dir = std::env::temp_dir().join(format!(
            "pulp-labeling-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir).expect("create cache");
        let config = ClusterConfig::default();
        let model = EnergyModel::table1();
        let kernel = compute_kernel(256);

        let mut rec = Recorder::new();
        let cold = measure_profile(
            &kernel,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            Some(&cache),
            Some(&mut rec),
            &mut SimScratch::new(),
        )
        .expect("cold run");
        let mut rec = Recorder::new();
        let warm = measure_profile(
            &kernel,
            &config,
            &model,
            DEFAULT_MAX_CYCLES,
            Some(&cache),
            Some(&mut rec),
            &mut SimScratch::new(),
        )
        .expect("warm run");
        assert_eq!(cold, warm, "cache round-trip must be bit-identical");
        assert!(
            rec.spans().iter().all(|s| s.cat != "simulate"),
            "warm run must not invoke the simulator"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
