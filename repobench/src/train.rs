//! `train_eval`: the paper's protocol (10 folds × 100 seeds, one CV
//! thread) on a dataset loaded from a warm sweep cache — the static-All
//! curve, the top-6 ranking plus the optimised curve, and the dynamic
//! curve, as `headline --model tree` computes them.
//!
//! The protocol's base seed is the benchmark seed. At the default seed 0
//! every accuracy field must be bit-equal to `reference/train_eval.txt`;
//! at every seed the curves must be well-formed, close to that reference
//! and identical from pass to pass. The traced pass runs the same CV
//! through a timing wrapper around the public `Classifier` trait and must
//! reproduce `tolerance_curve` exactly.

use crate::layers::{self, Layers};
use crate::sweep::Reference;
use crate::trace::{Trace, Tracer};
use crate::{median, Args, Report, Window};
use pulp_energy::{
    default_tolerances, evaluation::curve_from_predictions, tolerance_curve, top_feature_columns,
    LabeledDataset, PipelineOptions, Protocol, StaticFeatureSet, SweepCache, ToleranceCurve,
};
use pulp_ml::{cv::repeated_cross_val_predict, Classifier, Dataset, DecisionTree};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Warm-cache set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 31;
/// Largest distance of static@5 / dynamic@5 from the seed-0 reference
/// accepted at other seeds (the 100-repetition mean moves by ~1e-3).
const SEED_TOLERANCE: f64 = 0.02;

/// The paper protocol at one CV thread, seeded by the benchmark.
fn protocol(seed: u64) -> Protocol {
    Protocol {
        seed,
        cv_threads: 1,
        ..Protocol::default()
    }
}

/// The three curves and the ranking of one pass.
#[derive(PartialEq)]
pub struct Curves {
    pub top: Vec<usize>,
    pub static_all: ToleranceCurve,
    pub optimised: ToleranceCurve,
    pub dynamic: ToleranceCurve,
}

impl Curves {
    fn each(&self) -> [&ToleranceCurve; 3] {
        [&self.static_all, &self.optimised, &self.dynamic]
    }

    /// The accuracy fields `headline` records.
    fn accuracy(&self) -> Vec<(&'static str, f64)> {
        let at = |c: &ToleranceCurve, t: f64| c.at(t).unwrap_or(f64::NAN);
        vec![
            ("static_at_0", at(&self.static_all, 0.0)),
            ("static_at_5", at(&self.static_all, 0.05)),
            ("static_at_8", at(&self.static_all, 0.08)),
            ("optimized_at_0", at(&self.optimised, 0.0)),
            ("optimized_at_5", at(&self.optimised, 0.05)),
            ("dynamic_at_0", at(&self.dynamic, 0.0)),
            ("dynamic_at_5", at(&self.dynamic, 0.05)),
        ]
    }
}

/// The datasets a pass trains on.
struct Inputs {
    all: Dataset,
    dynamic: Dataset,
    energies: Vec<Vec<f64>>,
}

fn inputs(data: &LabeledDataset) -> Inputs {
    Inputs {
        all: data
            .static_dataset(StaticFeatureSet::All)
            .expect("static dataset"),
        dynamic: data.dynamic_dataset().expect("dynamic dataset"),
        energies: data.energies(),
    }
}

/// One untimed-instrumentation pass, exactly as `headline` runs it:
/// wall seconds and the curves.
pub fn untraced_pass(data: &LabeledDataset, p: &Protocol) -> (f64, Curves) {
    let inp = inputs(data);
    let tol = default_tolerances();
    let t0 = Instant::now();
    let static_all = tolerance_curve("static", &inp.all, &inp.energies, &tol, p);
    let top = top_feature_columns(&inp.all, 6, p);
    let optimised = tolerance_curve(
        "optimised",
        &inp.all.select_features(&top),
        &inp.energies,
        &tol,
        p,
    );
    let dynamic = tolerance_curve("dynamic", &inp.dynamic, &inp.energies, &tol, p);
    let wall = t0.elapsed().as_secs_f64();
    (
        wall,
        Curves {
            top,
            static_all,
            optimised,
            dynamic,
        },
    )
}

/// Span log shared by the timing wrappers of one traced pass.
struct FitLog {
    tracer: Tracer,
    /// Open `ml.cv.repetition` span and its seed.
    rep: Option<(u64, usize)>,
    predict_rows: u64,
}

impl FitLog {
    /// A model is being made for `seed`: a new seed opens a new repetition.
    fn make(&mut self, seed: u64) {
        if self.rep.map(|(s, _)| s) != Some(seed) {
            self.close_rep();
            self.rep = Some((seed, self.tracer.begin("ml.cv.repetition")));
        }
    }

    fn close_rep(&mut self) {
        if let Some((_, span)) = self.rep.take() {
            self.tracer.end(span);
        }
    }
}

/// Timing wrapper around the tree, seen by the CV engine through the
/// public `Classifier` trait. Predictions of one fold are timed as one
/// span, from the first `predict` until the model is dropped.
struct Timed<'a> {
    tree: DecisionTree,
    log: &'a Mutex<FitLog>,
    fit_layer: &'static str,
    first_predict: Cell<Option<Instant>>,
    predicts: Cell<u64>,
}

impl Classifier for Timed<'_> {
    fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        let t0 = Instant::now();
        self.tree.fit_rows(data, rows);
        let t1 = Instant::now();
        let mut log = self.log.lock().expect("fit log");
        log.tracer.record(self.fit_layer, t0, t1);
    }

    fn predict(&self, x: &[f64]) -> usize {
        if self.first_predict.get().is_none() {
            self.first_predict.set(Some(Instant::now()));
        }
        self.predicts.set(self.predicts.get() + 1);
        self.tree.predict(x)
    }
}

impl Drop for Timed<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.first_predict.get() {
            let t1 = Instant::now();
            let mut log = self.log.lock().expect("fit log");
            log.tracer.record("ml.tree.predict", t0, t1);
            log.predict_rows += self.predicts.get();
        }
    }
}

/// Outcome of a traced pass.
pub struct Traced {
    pub wall_s: f64,
    pub curves: Curves,
    fits: u64,
    predict_rows: u64,
    trace: Trace,
}

impl Traced {
    /// Curves (and the ranking) that differ from `reference`.
    pub fn mismatching_curves(&self, reference: &Curves) -> u64 {
        let curves = self
            .curves
            .each()
            .iter()
            .zip(reference.each())
            .filter(|(a, b)| *a != b)
            .count() as u64;
        curves + u64::from(self.curves.top != reference.top)
    }

    /// Moves the ML-layer figures into `layers` and the spans into `trace`.
    pub fn record(self, layers: &mut Layers, trace: &mut Trace) {
        let t = &self.trace;
        let ms = |layer: &str| median(&t.durations(layer)) / 1e6;
        layers.set("ml.tree.fit_static_ms", ms("ml.tree.fit_static"));
        layers.set("ml.tree.fit_dynamic_ms", ms("ml.tree.fit_dynamic"));
        layers.set("ml.tree.fits", self.fits as f64);
        let predict_ns: f64 = t.durations("ml.tree.predict").iter().sum();
        layers.set(
            "ml.tree.predict_ns_per_row",
            predict_ns / self.predict_rows.max(1) as f64,
        );
        layers.set("ml.cv.repetition_ms", ms("ml.cv.repetition"));
        layers.set(
            "core.evaluation.rank_s",
            t.durations("core.evaluation.rank").iter().sum::<f64>() / 1e9,
        );
        layers.set("core.evaluation.score_ms", ms("core.evaluation.score"));
        trace.merge(self.trace);
    }
}

/// The pass of [`untraced_pass`], with the CV run through [`Timed`] and
/// `repeated_cross_val_predict` + `curve_from_predictions` in place of
/// `tolerance_curve`, and spans around the ranking and the scoring.
pub fn traced_pass(data: &LabeledDataset, p: &Protocol, origin: Instant) -> Traced {
    let inp = inputs(data);
    let tol = default_tolerances();
    let log = Mutex::new(FitLog {
        tracer: Tracer::new(origin, 200),
        rep: None,
        predict_rows: 0,
    });
    let span = |layer: &'static str| log.lock().expect("fit log").tracer.begin(layer);
    let end = |id: usize| log.lock().expect("fit log").tracer.end(id);
    let curve = |label: &str, d: &Dataset, fit_layer: &'static str| {
        let cv = span("ml.cv.predict");
        let reps = repeated_cross_val_predict(d, p.folds, p.repeats, p.seed, 1, |seed| {
            log.lock().expect("fit log").make(seed);
            Timed {
                tree: DecisionTree::new(p.tree),
                log: &log,
                fit_layer,
                first_predict: Cell::new(None),
                predicts: Cell::new(0),
            }
        });
        log.lock().expect("fit log").close_rep();
        end(cv);
        let score = span("core.evaluation.score");
        let c = curve_from_predictions(label, &reps, &inp.energies, &tol);
        end(score);
        c
    };
    let t0 = Instant::now();
    let static_all = curve("static", &inp.all, "ml.tree.fit_static");
    let rank = span("core.evaluation.rank");
    let top = top_feature_columns(&inp.all, 6, p);
    end(rank);
    let optimised = curve(
        "optimised",
        &inp.all.select_features(&top),
        "ml.tree.fit_static",
    );
    let dynamic = curve("dynamic", &inp.dynamic, "ml.tree.fit_dynamic");
    let wall_s = t0.elapsed().as_secs_f64();
    let log = log.into_inner().expect("fit log");
    let mut trace = Trace::default();
    trace.absorb(log.tracer);
    let fits = (trace.durations("ml.tree.fit_static").len()
        + trace.durations("ml.tree.fit_dynamic").len()) as u64;
    Traced {
        wall_s,
        curves: Curves {
            top,
            static_all,
            optimised,
            dynamic,
        },
        fits,
        predict_rows: log.predict_rows,
        trace,
    }
}

fn reference_path(args: &Args) -> PathBuf {
    args.bench_dir.join("reference").join("train_eval.txt")
}

/// The seed-0 accuracy fields, bit patterns as stored.
fn load_reference(args: &Args) -> Result<Vec<(String, f64)>, String> {
    let path = reference_path(args);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l
                .split_once(' ')
                .ok_or_else(|| format!("malformed line `{l}`"))?;
            let v: f64 = v.parse().map_err(|e| format!("{l}: {e}"))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// Accuracy the full protocol reached at seed 0 when the benchmark was
/// sized; the regenerated reference must agree with it.
const SIZED_STATIC_AT_5: f64 = 0.9407142857142857;
const SIZED_DYNAMIC_AT_5: f64 = 0.9776339285714286;

/// Regenerates `reference/train_eval.txt` (full protocol, seed 0).
pub fn write_reference(args: &Args) -> Result<(), String> {
    prepare_cache(args)?;
    let data = LabeledDataset::build(&warm_options(args)?).map_err(|e| e.to_string())?;
    let (_, curves) = untraced_pass(
        &data,
        &Protocol {
            cv_threads: 0,
            ..protocol(0)
        },
    );
    let acc = curves.accuracy();
    let get = |k: &str| acc.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
    if get("static_at_5") != Some(SIZED_STATIC_AT_5)
        || get("dynamic_at_5") != Some(SIZED_DYNAMIC_AT_5)
    {
        return Err(format!("seed-0 accuracy moved: {acc:?}"));
    }
    let mut out = String::from("# Full-protocol accuracy at seed 0 (`repobench reference`).\n");
    for (k, v) in acc {
        out.push_str(&format!("{k} {v:?}\n"));
    }
    std::fs::write(reference_path(args), out).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", reference_path(args).display());
    Ok(())
}

/// Checks one pass; returns the number of failing curves (of 3).
fn check_curves(curves: &Curves, seed: u64, reference: &[(String, f64)]) -> u64 {
    let acc = curves.accuracy();
    let mut failed = 0;
    for (i, c) in curves.each().into_iter().enumerate() {
        let well_formed = !c.mean.is_empty()
            && c.mean.iter().all(|m| (0.0..=1.0).contains(m))
            && c.mean.windows(2).all(|w| w[0] <= w[1]);
        // Fields of this curve: static 0..3, optimised 3..5, dynamic 5..7.
        let fields = [0..3, 3..5, 5..7][i].clone();
        let matches_reference = acc[fields].iter().all(|(k, v)| {
            let r = reference.iter().find(|(n, _)| n == k).map(|(_, r)| *r);
            match r {
                Some(r) if seed == 0 => v.to_bits() == r.to_bits(),
                Some(r) if k.ends_with("_at_5") && !k.starts_with("optimized") => {
                    (v - r).abs() <= SEED_TOLERANCE
                }
                Some(_) => true,
                None => false,
            }
        });
        if !(well_formed && matches_reference) {
            eprintln!("[train_eval] curve {} failed: {:?}", c.label, acc);
            failed += 1;
        }
    }
    let distinct = {
        let mut t = curves.top.clone();
        t.sort_unstable();
        t.dedup();
        t.len()
    };
    failed + u64::from(distinct != 6)
}

/// Sweep-cache directory shared by the warm workloads.
fn cache_dir(args: &Args) -> PathBuf {
    args.work_dir.join("sweep-cache")
}

/// Pipeline options reading the shared warm cache through a fresh
/// `SweepCache` (so its hit counters cover one build).
pub fn warm_options(args: &Args) -> Result<PipelineOptions, String> {
    let cache = SweepCache::new(cache_dir(args))
        .map_err(|e| format!("sweep cache {}: {e}", cache_dir(args).display()))?;
    Ok(PipelineOptions {
        cache: Some(Arc::new(cache)),
        threads: crate::sweep::THREADS,
        ..PipelineOptions::default()
    })
}

/// Fills the shared sweep cache if it is cold or stale. Run before any
/// timing: a cold fill is the one-off cost of a fresh checkout, like the
/// build.
pub fn prepare_cache(args: &Args) -> Result<(), String> {
    let opts = warm_options(args)?;
    LabeledDataset::build(&opts).map_err(|e| e.to_string())?;
    let stats = opts.cache.as_ref().expect("cache").stats();
    if stats.misses > 0 {
        eprintln!(
            "[cache] filled {} with {} sweeps",
            cache_dir(args).display(),
            stats.misses
        );
    }
    Ok(())
}

/// One timed warm set-up: the cached build plus dataset assembly.
/// Returns the seconds taken, the dataset and the cache-hit ratio.
fn warm_setup(args: &Args) -> Result<(f64, LabeledDataset, f64), String> {
    let opts = warm_options(args)?;
    let t0 = Instant::now();
    let data = LabeledDataset::build(&opts).map_err(|e| e.to_string())?;
    std::hint::black_box(inputs(&data));
    let wall = t0.elapsed().as_secs_f64();
    let hit = layers::hit_ratio(&opts);
    Ok((wall, data, hit))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let sweep_reference = Reference::load(args)?;
    let reference = load_reference(args)?;
    prepare_cache(args)?;
    if args.trace {
        return run_traced(args, &sweep_reference, &reference);
    }
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let (wall, d, hit) = warm_setup(args)?;
        report.checked(1, u64::from(hit != 1.0), "warm build hit ratio is 1.0");
        setups.push(wall);
        data = Some(d);
    }
    let data = data.expect("at least one set-up");
    report.checked(
        448,
        sweep_reference.mismatches(&data),
        "warm dataset vs oracle digest",
    );
    report.setup(&setups);

    let p = protocol(args.seed);
    let window = Window::new(args.seconds);
    let mut walls = Vec::new();
    let mut first: Option<Curves> = None;
    loop {
        let (wall, curves) = untraced_pass(&data, &p);
        report.checked(3, check_curves(&curves, args.seed, &reference), "curves");
        if let Some(f) = &first {
            report.checked(1, u64::from(*f != curves), "passes are identical");
        }
        first.get_or_insert(curves);
        walls.push(wall);
        if !window.admits(median(&walls)) {
            break;
        }
    }
    eprintln!("[train_eval] {} passes: {walls:.3?} s", walls.len());
    report.metric("latency_ms", median(&walls) * 1e3, "ms");
    Ok(report)
}

/// Traced run: the full protocol traced, the other layers through the
/// ledger's probes.
fn run_traced(
    args: &Args,
    sweep_reference: &Reference,
    reference: &[(String, f64)],
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut trace = Trace::default();
    let origin = Instant::now();
    let journal = args.work_dir.join("train_eval.journal.jsonl");
    let warm = layers::journaled_build(&warm_options(args)?, &journal)?;
    report.checked(
        448,
        sweep_reference.mismatches(&warm.data),
        "warm dataset vs oracle",
    );
    report.checked(
        1,
        u64::from(warm.hit_ratio != 1.0),
        "warm build hit ratio is 1.0",
    );
    layers.shards(&warm);
    layers.warm_build(&warm);
    layers::probe_sim(
        sweep_reference,
        &mut layers,
        &mut report,
        origin,
        &mut trace,
    );

    let p = protocol(args.seed);
    let (untraced_s, curves) = untraced_pass(&warm.data, &p);
    report.checked(3, check_curves(&curves, args.seed, reference), "curves");
    let traced = traced_pass(&warm.data, &p, origin);
    report.checked(
        4,
        traced.mismatching_curves(&curves),
        "wrapped-Classifier curves vs tolerance_curve",
    );
    eprintln!(
        "[train_eval] untraced {untraced_s:.3}s, traced {:.3}s",
        traced.wall_s
    );
    layers.set("trace.overhead_s", traced.wall_s - untraced_s);
    traced.record(&mut layers, &mut trace);

    crate::serve::probe(
        args,
        &warm.data,
        &mut layers,
        &mut report,
        origin,
        &mut trace,
    )?;
    layers.finish(args, &trace, &mut report)?;
    Ok(report)
}
