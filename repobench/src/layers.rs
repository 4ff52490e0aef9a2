//! The per-layer ledger of the traced runs.
//!
//! Every traced run reports every layer. A workload measures its own
//! layers at full scale; the layers it does not drive are measured through
//! small fixed probes (a 16-sample simulation walk, a 2-repetition CV
//! pass, a one-second serving burst), so each per-layer figure compares
//! like with like across runs of the same workload.

use crate::sweep::Reference;
use crate::trace::{Trace, Tracer};
use crate::{Args, Report};
use kernel_ir::lower;
use pulp_energy::{
    BuildObserver, EnergyProfile, LabeledDataset, PipelineOptions, Protocol, NUM_CLASSES,
};
use pulp_energy_model::{energy_of, DynamicFeatures};
use pulp_kernels::{all_samples, registry, SampleSpec};
use pulp_obs::{JournalEvent, JournalReader, JournalWriter, Recorder};
use pulp_sim::{simulate_opts, NoTelemetry, NullSink, SimOptions, SimScratch};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pulp-sim.simulate_s", "s"),
    ("pulp-sim.cycles_per_host_s", "cycles/s"),
    ("pulp-sim.simulated_cycles", "cycles"),
    ("pulp-sim.ff_skip_ratio", "ratio"),
    ("kernel-ir.lower_ms", "ms"),
    ("energy.account_ms", "ms"),
    ("energy.dynamic_features_ms", "ms"),
    ("kernels.build_ms", "ms"),
    ("core.features.static_ms", "ms"),
    ("core.labeling.shard_finish_spread", "ratio"),
    ("core.labeling.worker_idle_s", "s"),
    ("core.pipeline.warm_build_s", "s"),
    ("core.cache.hit_ratio", "ratio"),
    ("ml.tree.fit_static_ms", "ms"),
    ("ml.tree.fit_dynamic_ms", "ms"),
    ("ml.tree.fits", "count"),
    ("ml.tree.predict_ns_per_row", "ns"),
    ("ml.cv.repetition_ms", "ms"),
    ("core.evaluation.rank_s", "s"),
    ("core.evaluation.score_ms", "ms"),
    ("core.predictor.train_ms", "ms"),
    ("kernels.registry_us", "us"),
    ("kernels.build_us", "us"),
    ("core.features.static_us", "us"),
    ("core.predictor.predict_static_us", "us"),
    ("ml.flat.predict_ns_per_row", "ns"),
    ("bench.serve.queue_wait_p50_us", "us"),
    ("bench.serve.queue_wait_p99_us", "us"),
    ("bench.serve.parse_us", "us"),
    ("bench.serve.predict_us", "us"),
    ("bench.serve.write_us", "us"),
    ("bench.serve.shed_total", "count"),
    ("bench.serve.timeouts_total", "count"),
    ("trace.overhead_s", "s"),
];

/// Samples of the simulation probe: every 28th of the corpus.
const SIM_PROBE_STRIDE: usize = 28;
/// CV repetitions of the ML probe (10 folds each).
const ML_PROBE_REPEATS: usize = 2;

/// Per-layer values collected by one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Shard balance of a journaled build.
    pub fn shards(&mut self, build: &JournaledBuild) {
        self.set(
            "core.labeling.shard_finish_spread",
            build.shard_finish_spread,
        );
        self.set("core.labeling.worker_idle_s", build.worker_idle_s);
    }

    /// A warm-cache build.
    pub fn warm_build(&mut self, build: &JournaledBuild) {
        self.set("core.pipeline.warm_build_s", build.wall_s);
        self.set("core.cache.hit_ratio", build.hit_ratio);
    }

    /// The simulation-layer figures of a [`sim_walk`].
    pub fn sim(&mut self, walk: &Walk, trace: &Trace) {
        let layers = trace.layers();
        let total_ms = |layer: &str| layers.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        let simulate_s = total_ms("pulp-sim.simulate") / 1e3;
        self.set("pulp-sim.simulate_s", simulate_s);
        self.set("pulp-sim.simulated_cycles", walk.cycles as f64);
        self.set(
            "pulp-sim.cycles_per_host_s",
            walk.cycles as f64 / simulate_s.max(1e-12),
        );
        self.set(
            "pulp-sim.ff_skip_ratio",
            walk.skipped as f64 / walk.cycles.max(1) as f64,
        );
        self.set("kernel-ir.lower_ms", total_ms("kernel-ir.lower"));
        self.set("energy.account_ms", total_ms("energy.account"));
        self.set(
            "energy.dynamic_features_ms",
            total_ms("energy.dynamic_features"),
        );
        self.set("kernels.build_ms", total_ms("kernels.build"));
        self.set("core.features.static_ms", total_ms("core.features.static"));
    }

    /// Writes the Chrome trace, prints the self-time table and moves every
    /// per-layer value into `report` in [`PER_LAYER`] order.
    pub fn finish(self, args: &Args, trace: &Trace, report: &mut Report) -> Result<(), String> {
        let path = args.work_dir.join(format!("{}.trace.json", args.workload));
        trace
            .write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "[{}] spans written to {}\n{}",
            args.workload,
            path.display(),
            trace.render()
        );
        for (name, unit) in PER_LAYER {
            let value = self
                .0
                .get(name)
                .copied()
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            report.metric(name, value, unit);
        }
        Ok(())
    }
}

/// Outcome of a build observed through the program's run journal.
pub struct JournaledBuild {
    pub wall_s: f64,
    pub data: LabeledDataset,
    /// (slowest − fastest shard finish) / slowest.
    pub shard_finish_spread: f64,
    /// Summed time workers sat idle waiting for the slowest shard.
    pub worker_idle_s: f64,
    /// Cache hits over lookups (0 without a cache).
    pub hit_ratio: f64,
}

/// Builds with the journal on and reads shard finish times back from its
/// heartbeats.
pub fn journaled_build(opts: &PipelineOptions, path: &Path) -> Result<JournaledBuild, String> {
    let mut writer = JournalWriter::create(path, "repobench", "0000000000000000", 0)
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let data = LabeledDataset::build_observed(
        opts,
        &mut rec,
        BuildObserver {
            journal: Some(&mut writer),
            logger: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    writer.finalize().map_err(|e| e.to_string())?;
    let journal = JournalReader::read_file(path)?;
    let mut finish_ms: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in &journal.events {
        if let JournalEvent::Heartbeat {
            shard,
            done,
            assigned,
            elapsed_ms,
            ..
        } = ev
        {
            if done == assigned {
                finish_ms.insert(*shard, *elapsed_ms);
            }
        }
    }
    let slowest = finish_ms.values().copied().max().unwrap_or(0) as f64;
    let fastest = finish_ms.values().copied().min().unwrap_or(0) as f64;
    let idle_ms: f64 = finish_ms.values().map(|&f| slowest - f as f64).sum();
    let hit_ratio = hit_ratio(opts);
    Ok(JournaledBuild {
        wall_s,
        data,
        shard_finish_spread: if slowest > 0.0 {
            (slowest - fastest) / slowest
        } else {
            0.0
        },
        worker_idle_s: idle_ms / 1e3,
        hit_ratio,
    })
}

/// Sweep-cache hits over lookups of `opts`' cache (0 without one).
pub fn hit_ratio(opts: &PipelineOptions) -> f64 {
    opts.cache.as_ref().map_or(0.0, |c| {
        let stats = c.stats();
        stats.hits as f64 / stats.lookups().max(1) as f64
    })
}

/// Totals of a [`sim_walk`].
pub struct Walk {
    pub wall_s: f64,
    pub samples: u64,
    pub mismatches: u64,
    pub cycles: u64,
    pub skipped: u64,
}

/// Measures `specs` the way the labeling sweep does — build, static
/// features, then lower / simulate / account / dynamic features at every
/// team size — timing each public call, on `threads` round-robin workers.
/// Every sample is checked against the oracle digest.
fn sim_walk(
    specs: &[SampleSpec],
    threads: usize,
    reference: &Reference,
    origin: Instant,
    trace: &mut Trace,
) -> Walk {
    let opts = PipelineOptions::default();
    let defs = registry();
    let sim_opts = SimOptions::default().with_max_cycles(opts.max_cycles);
    let t0 = Instant::now();
    let per_worker: Vec<(Tracer, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (defs, opts, sim_opts) = (&defs, &opts, &sim_opts);
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin, 100 + t as u32);
                    let mut scratch = SimScratch::new();
                    let (mut bad, mut cycles_total, mut skipped) = (0u64, 0u64, 0u64);
                    for spec in specs.iter().skip(t).step_by(threads) {
                        let def = &defs[spec.kernel_index];
                        let sample = tr.begin("core.labeling.sample");
                        let measured = (|| -> Result<_, String> {
                            let kernel = tr
                                .time("kernels.build", || def.build(&spec.params()))
                                .map_err(|e| e.to_string())?;
                            std::hint::black_box(tr.time("core.features.static", || {
                                pulp_energy::static_feature_vector(&kernel)
                            }));
                            let mut energy = [0.0; NUM_CLASSES];
                            let mut cycles = [0u64; NUM_CLASSES];
                            let mut dynamic = Vec::with_capacity(NUM_CLASSES);
                            for team in 1..=NUM_CLASSES {
                                let lowered = tr
                                    .time("kernel-ir.lower", || lower(&kernel, team, &opts.config))
                                    .map_err(|e| e.to_string())?;
                                let stats = tr
                                    .time("pulp-sim.simulate", || {
                                        simulate_opts(
                                            &opts.config,
                                            &lowered.program,
                                            sim_opts,
                                            &mut NullSink,
                                            &mut NoTelemetry,
                                            &mut scratch,
                                        )
                                    })
                                    .map_err(|e| e.to_string())?;
                                energy[team - 1] = tr.time("energy.account", || {
                                    energy_of(&stats, &opts.model, &opts.config).total()
                                });
                                dynamic.push(tr.time("energy.dynamic_features", || {
                                    DynamicFeatures::extract(&stats)
                                }));
                                cycles[team - 1] = stats.cycles;
                                skipped += stats.fast_forward.skipped_cycles;
                            }
                            Ok((kernel.sample_id(), energy, cycles, dynamic))
                        })();
                        tr.end(sample);
                        match measured {
                            Ok((id, energy, cycles, dynamic)) => {
                                cycles_total += cycles.iter().sum::<u64>();
                                let label = EnergyProfile {
                                    energy,
                                    cycles,
                                    dynamic,
                                }
                                .label();
                                if !reference.matches(&id, label, &energy, &cycles) {
                                    bad += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("[walk] {}: {e}", def.name);
                                bad += 1;
                            }
                        }
                    }
                    (tr, bad, cycles_total, skipped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("walk worker panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut walk = Walk {
        wall_s,
        samples: specs.len() as u64,
        mismatches: 0,
        cycles: 0,
        skipped: 0,
    };
    for (tr, bad, cycles, skipped) in per_worker {
        trace.absorb(tr);
        walk.mismatches += bad;
        walk.cycles += cycles;
        walk.skipped += skipped;
    }
    walk
}

/// Walks `specs` (see [`sim_walk`]), checks it against the oracle and
/// records the simulation-layer figures; returns the walk's totals.
pub fn sim_layers(
    specs: &[SampleSpec],
    threads: usize,
    reference: &Reference,
    layers: &mut Layers,
    report: &mut Report,
    origin: Instant,
    trace: &mut Trace,
) -> Walk {
    let mut own = Trace::default();
    let walk = sim_walk(specs, threads, reference, origin, &mut own);
    report.checked(
        walk.samples,
        walk.mismatches,
        "simulation walk vs oracle digest",
    );
    layers.sim(&walk, &own);
    trace.merge(own);
    walk
}

/// The simulation probe: a fixed 16-sample walk on one thread.
pub fn probe_sim(
    reference: &Reference,
    layers: &mut Layers,
    report: &mut Report,
    origin: Instant,
    trace: &mut Trace,
) {
    let specs: Vec<SampleSpec> = all_samples()
        .into_iter()
        .step_by(SIM_PROBE_STRIDE)
        .collect();
    sim_layers(&specs, 1, reference, layers, report, origin, trace);
}

/// The ML probe: the traced CV pass at 10 folds × 2 repetitions and a
/// 2-repetition ranking, checked against `tolerance_curve`.
pub fn probe_ml(
    data: &LabeledDataset,
    layers: &mut Layers,
    report: &mut Report,
    origin: Instant,
    trace: &mut Trace,
) {
    let protocol = Protocol {
        repeats: ML_PROBE_REPEATS,
        cv_threads: 1,
        ..Protocol::default()
    };
    let reference = crate::train::untraced_pass(data, &protocol).1;
    let traced = crate::train::traced_pass(data, &protocol, origin);
    report.checked(
        4,
        traced.mismatching_curves(&reference),
        "probe curves vs tolerance_curve",
    );
    traced.record(layers, trace);
}
