//! `sweep_cold`: the cold label sweep — `LabeledDataset::build` with no
//! sweep cache over the full 448-sample corpus × team sizes 1..=8, on
//! [`THREADS`] workers.
//!
//! Correctness: every sample's label, per-core energies and cycles must
//! hash to the digest a sequential `measure_kernel` oracle produced
//! (`reference/sweep.txt`, regenerated by `repobench reference`).

use crate::layers::{self, Layers};
use crate::trace::Trace;
use crate::{median, Args, Report, Window};
use pulp_energy::{measure_kernel, LabeledDataset, PipelineOptions, SweepCache};
use pulp_kernels::{all_samples, registry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Sweep worker threads (the 2-core box the benchmark was sized on).
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 201;

/// Digest of one measured sample: FNV-1a 64 over the id, label, energy
/// bits and cycles.
pub fn sample_hash(id: &str, label: usize, energy: &[f64], cycles: &[u64]) -> u64 {
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut h = fnv(0xcbf2_9ce4_8422_2325, id.as_bytes());
    h = fnv(h, &(label as u64).to_le_bytes());
    for e in energy {
        h = fnv(h, &e.to_bits().to_le_bytes());
    }
    cycles.iter().fold(h, |h, c| fnv(h, &c.to_le_bytes()))
}

/// Reference digests by sample id.
pub struct Reference(BTreeMap<String, u64>);

fn reference_path(args: &Args) -> PathBuf {
    args.bench_dir.join("reference").join("sweep.txt")
}

impl Reference {
    pub fn load(args: &Args) -> Result<Self, String> {
        let path = reference_path(args);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (hash, id) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed reference line `{line}`"))?;
            let hash = u64::from_str_radix(hash, 16).map_err(|e| format!("{line}: {e}"))?;
            map.insert(id.to_string(), hash);
        }
        if map.len() != all_samples().len() {
            return Err(format!(
                "reference holds {} samples, the corpus {}",
                map.len(),
                all_samples().len()
            ));
        }
        Ok(Self(map))
    }

    /// Whether a measured sample matches its reference digest.
    pub fn matches(&self, id: &str, label: usize, energy: &[f64], cycles: &[u64]) -> bool {
        self.0.get(id) == Some(&sample_hash(id, label, energy, cycles))
    }

    /// Samples of `data` that differ from the reference, plus any missing.
    pub fn mismatches(&self, data: &LabeledDataset) -> u64 {
        let wrong = data
            .samples
            .iter()
            .filter(|s| !self.matches(&s.id, s.label, &s.energy, &s.cycles))
            .count();
        (wrong + self.0.len().saturating_sub(data.len())) as u64
    }
}

/// Regenerates `reference/sweep.txt` from the sequential oracle.
pub fn write_reference(args: &Args) -> Result<(), String> {
    let opts = PipelineOptions::default();
    let defs = registry();
    let mut out = String::from(
        "# FNV-1a of (id, label, energy bits, cycles) per sample, from a sequential\n\
         # measure_kernel walk over the 448-sample corpus; `repobench reference`.\n",
    );
    let mut total_cycles = 0u64;
    for spec in all_samples() {
        let kernel = defs[spec.kernel_index]
            .build(&spec.params())
            .map_err(|e| e.to_string())?;
        let profile =
            measure_kernel(&kernel, &opts.config, &opts.model).map_err(|e| e.to_string())?;
        total_cycles += profile.cycles.iter().sum::<u64>();
        let id = kernel.sample_id();
        let hash = sample_hash(&id, profile.label(), &profile.energy, &profile.cycles);
        out.push_str(&format!("{hash:016x} {id}\n"));
    }
    let path = reference_path(args);
    std::fs::create_dir_all(path.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| e.to_string())?;
    eprintln!("wrote {} ({total_cycles} simulated cycles)", path.display());
    Ok(())
}

/// Pipeline options of the cold sweep.
fn cold_options() -> PipelineOptions {
    PipelineOptions {
        threads: THREADS,
        ..PipelineOptions::default()
    }
}

/// One cold build: wall seconds and the dataset.
fn cold_build(opts: &PipelineOptions) -> Result<(f64, LabeledDataset), String> {
    let t0 = Instant::now();
    let data = LabeledDataset::build(opts).map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), data))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reference = Reference::load(args)?;
    if args.trace {
        return run_traced(args, &reference);
    }
    let mut report = Report::default();
    // Set-up: enumerating the registry and the sample corpus.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let defs = std::hint::black_box(registry());
            let specs = std::hint::black_box(all_samples());
            assert_eq!(specs.len(), 448, "{} kernels", defs.len());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    report.setup(&setup);

    let opts = cold_options();
    let window = Window::new(args.seconds);
    let mut walls = Vec::new();
    loop {
        let (wall, data) = cold_build(&opts)?;
        report.checked(
            448,
            reference.mismatches(&data),
            "cold sweep vs oracle digest",
        );
        walls.push(wall);
        if !window.admits(median(&walls)) {
            break;
        }
    }
    eprintln!("[sweep_cold] {} passes: {walls:.3?} s", walls.len());
    report.metric("latency_ms", median(&walls) * 1e3, "ms");
    Ok(report)
}

/// Traced run: the cold sweep at full scale, the other layers through the
/// ledger's fixed probes.
fn run_traced(args: &Args, reference: &Reference) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut trace = Trace::default();
    let origin = Instant::now();
    let opts = cold_options();

    let (untraced_s, data) = cold_build(&opts)?;
    report.checked(
        448,
        reference.mismatches(&data),
        "cold sweep vs oracle digest",
    );

    // The journaled cold build fills a fresh cache, so the warm rebuild
    // below measures the cache-hit path on this run's own entries.
    let cache_dir = args
        .work_dir
        .join(format!("sweep_cold_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let fresh = |dir: &PathBuf| -> Result<PipelineOptions, String> {
        let cache = SweepCache::new(dir).map_err(|e| e.to_string())?;
        Ok(PipelineOptions {
            cache: Some(std::sync::Arc::new(cache)),
            ..cold_options()
        })
    };
    let journal = args.work_dir.join("sweep_cold.journal.jsonl");
    let cold = layers::journaled_build(&fresh(&cache_dir)?, &journal)?;
    report.checked(
        448,
        reference.mismatches(&cold.data),
        "journaled sweep vs oracle",
    );
    layers.shards(&cold);
    let warm = layers::journaled_build(&fresh(&cache_dir)?, &journal)?;
    report.checked(
        448,
        reference.mismatches(&warm.data),
        "warm rebuild vs oracle",
    );
    layers.warm_build(&warm);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let walk = layers::sim_layers(
        &all_samples(),
        THREADS,
        reference,
        &mut layers,
        &mut report,
        origin,
        &mut trace,
    );
    eprintln!(
        "[sweep_cold] untraced {untraced_s:.3}s, traced walk {:.3}s",
        walk.wall_s
    );
    layers.set("trace.overhead_s", walk.wall_s - untraced_s);

    layers::probe_ml(&data, &mut layers, &mut report, origin, &mut trace);
    crate::serve::probe(args, &data, &mut layers, &mut report, origin, &mut trace)?;
    layers.finish(args, &trace, &mut report)?;
    Ok(report)
}
