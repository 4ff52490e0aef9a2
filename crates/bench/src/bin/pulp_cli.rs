//! `pulp_cli` — command-line front end to the whole stack.
//!
//! `pulp_cli --help` lists every command and every flag, generated from
//! the same table the strict parser reads: an unknown flag, a missing
//! value or a malformed value exits 2 naming the flag. `serve` logs its
//! capacity knobs at startup; SIGTERM/ctrl-c or `POST /admin/shutdown`
//! drain it gracefully.
//!
//! `bench sim` runs the fixed kernel basket (ALU-bound, TCDM-conflict,
//! barrier/DMA-heavy, FP-contended) at 1/2/4/8 cores with the event-horizon
//! fast-forward and the single-step oracle, verifies the two agree
//! bit-for-bit, and writes `BENCH_sim.json` (override with `--out`).
//!
//! `bench serve` boots the prediction server in-process and drives it with
//! concurrent keep-alive clients over kernel-name, raw-feature and batch
//! request mixes, reporting throughput, per-mix p50/p90/p99 latency and the
//! shed/timeout counters; writes `BENCH_serve.json` (override with
//! `--out`). `--trace-out PATH` additionally captures `GET /debug/requests`
//! (the flight recorder's tail of the load) as Chrome-trace JSON; the
//! capture is validated either way.
//!
//! `bench models` evaluates the whole model zoo (tree, random forest,
//! gradient-boosted trees, kNN) under the repeated-CV protocol and checks
//! the quantized flat compilation of each tree-backed model against the
//! float reference on every dataset row; writes `BENCH_models.json`
//! (override with `--out`). `--cv-threads N` pins the CV worker count —
//! the record is bit-identical at any value.
//!
//! `bench diff OLD NEW` dispatches on the record's `bench` field:
//! headline records gate on accuracy (>1 pt drop fails), `BENCH_sim.json`
//! on fast-forward throughput (>20% cycles-per-wall-second drop on any
//! basket fails), `BENCH_serve.json` on tail latency (p99 regression beyond
//! `--p99-tolerance`, default 20%, on any mix, or any shed in the quick
//! profile, fails), `BENCH_models.json` on per-model accuracy (>1 pt
//! static@5 drop fails) and flat/float parity (any mismatch fails).
//!
//! `bench history DIR` reads every `BENCH_*.json` record in `DIR` (sorted by
//! file name), groups them by benchmark kind and profile, prints the
//! trajectory as a table, and flags regressions between consecutive records
//! of a group using the same thresholds as `bench diff`. Run journals
//! (`*.jsonl`) in the directory contribute their `bench_record` tails.
//!
//! `report RUN.jsonl` validates a run journal and renders its deterministic
//! report: per-stage wall breakdown, shard throughput table, top-K slowest
//! kernels and cache attribution. `journal validate` runs just the
//! structural check (schema version, gap-free sequence, framing, stage
//! discipline) over any number of journals. `bench sim --journal PATH` and
//! the dataset-building bins' `--journal PATH` write such journals.

use kernel_ir::{lower, DType, Kernel};
use pulp_bench::cli::{self, Cli, Flag, Usage};
use pulp_bench::serve::{install_signal_shutdown, ServeOptions, ServeState, Server};
use pulp_bench::{
    profile_run, recorder_of_run, run_models_bench, run_serve_bench, CommonArgs, ServeBenchOptions,
    SimBenchOptions, QUICK_KERNELS,
};
use pulp_energy::{
    default_cache_version, measure_kernel,
    pipeline::{LabeledDataset, PipelineOptions},
    static_feature_names, static_feature_vector, StaticFeatureSet, SweepCache,
};
use pulp_energy_model::{energy_waterfall, EnergyModel};
use pulp_kernels::{registry, KernelDef, KernelParams};
use pulp_ml::{DecisionTree, TreeParams};
use pulp_sim::{simulate_traced, ClusterConfig, TextSink};
use serde::Value;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    command: String,
    kernel: Option<String>,
    /// Positional arguments after the first (e.g. `bench diff` paths).
    rest: Vec<String>,
    dtype: Option<DType>,
    size: usize,
    team: usize,
    chrome: Option<String>,
    cache_dir: Option<String>,
    addr: Option<String>,
    full: bool,
    quick: bool,
    out: Option<String>,
    max_cycles: Option<u64>,
    iters: Option<u32>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    timeout_ms: Option<u64>,
    max_body_bytes: Option<usize>,
    keepalive_max: Option<usize>,
    slow_ms: Option<u64>,
    flight_capacity: Option<usize>,
    retry_after_secs: Option<u64>,
    rate: Option<f64>,
    hist_out: Option<String>,
    log_json: bool,
    trace_out: Option<String>,
    p99_tolerance: Option<f64>,
    journal: Option<String>,
    cv_threads: Option<usize>,
}

/// Every flag `pulp_cli` accepts; each subcommand reads the ones it uses.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag::valued("--dtype",            "i32|f32",   "element type (default: f32, else i32)"),
    Flag::valued("--size",             "bytes",     "kernel payload size (default: 2048)"),
    Flag::valued("--team",             "n",         "disasm/trace: cores (default: 4)"),
    Flag::valued("--chrome",           "path",      "trace: write Chrome trace-event JSON"),
    Flag::valued("--max-cycles",       "n",         "profile/trace/bench sim cycle budget"),
    Flag::valued("--cache-dir",        "dir",       "cache/serve/bench models: sweep cache"),
    Flag::valued("--addr",             "host:port", "serve: listen address (127.0.0.1:7878)"),
    Flag::switch("--full",                          "serve: train on every kernel"),
    Flag::valued("--workers",          "n",         "serve: worker threads"),
    Flag::valued("--queue-depth",      "n",         "serve: accept queue bound (overflow: 503)"),
    Flag::valued("--timeout-ms",       "n",         "serve: per-connection read/write deadline"),
    Flag::valued("--max-body-bytes",   "n",         "serve: larger bodies get 413"),
    Flag::valued("--keepalive-max",    "n",         "serve: requests per keep-alive connection"),
    Flag::valued("--slow-ms",          "n",         "serve: log slower requests (0 logs all)"),
    Flag::valued("--flight-capacity",  "n",         "serve: traces kept for /debug/requests"),
    Flag::valued("--retry-after-secs", "n",         "serve: Retry-After on shed responses"),
    Flag::switch("--log-json",                      "serve: JSON-lines logs on stderr"),
    Flag::switch("--quick",                         "bench sim/serve/models: quick profile"),
    Flag::valued("--out",              "path",      "bench sim/serve/models: record path"),
    Flag::valued("--iters",            "n",         "bench sim: timing iterations"),
    Flag::valued("--journal",          "path",      "bench sim/models: JSONL run journal"),
    Flag::valued("--trace-out",        "path",      "bench serve: flight-recorder Chrome trace"),
    Flag::valued("--rate",             "rps",       "bench serve: open-loop arrival rate"),
    Flag::valued("--hist-out",         "path",      "bench serve: open-loop latency histogram"),
    Flag::valued("--cv-threads",       "n",         "bench models: CV worker threads"),
    Flag::valued("--p99-tolerance",    "x",         "bench diff/history: serve p99 bound (0.2)"),
];

const USAGE: Usage = Usage {
    synopsis: &[
        "list                        # dataset kernels",
        "pretty   <kernel>           # pseudo-C source",
        "features <kernel>           # static features",
        "disasm   <kernel>           # lowered program",
        "measure  <kernel>           # energy at 1..=8 cores",
        "classify <kernel>           # train + predict",
        "mca      <kernel>           # LLVM-MCA-style report",
        "profile  <kernel>           # stall causes + energy, 1..=8 cores",
        "trace    <kernel>           # GVSOC-style (or --chrome) trace",
        "cache    <stats|clear>      # sweep-cache usage / delete cached sweeps",
        "serve                       # HTTP prediction service",
        "bench    diff OLD NEW       # regression gate (headline/sim/serve/models)",
        "bench    <sim|serve|models> # simulator / serving-layer / model-zoo benchmark",
        "bench    history DIR        # benchmark trajectory over committed records",
        "report   RUN.jsonl          # deterministic report from a run journal",
        "journal  validate RUN...    # structural check of run journals",
    ],
    tables: &[FLAGS],
};

/// The first positional is the command, the second the kernel (or the
/// subcommand), the rest go to `rest`.
fn decode(cli: &Cli) -> Result<Args, String> {
    let mut words = cli.positionals().iter().cloned();
    let command = match words.next() {
        Some(c) => c,
        None if cli.help() => String::new(),
        None => return Err("missing command".to_string()),
    };
    Ok(Args {
        command,
        kernel: words.next(),
        rest: words.collect(),
        dtype: match cli.choice("--dtype", &["i32", "f32"])? {
            Some("i32") => Some(DType::I32),
            Some(_) => Some(DType::F32),
            None => None,
        },
        size: cli.positive("--size")?.unwrap_or(2048),
        team: cli.positive("--team")?.unwrap_or(4),
        chrome: cli.string("--chrome"),
        cache_dir: cli.string("--cache-dir"),
        addr: cli.string("--addr"),
        full: cli.switch("--full"),
        quick: cli.switch("--quick"),
        out: cli.string("--out"),
        max_cycles: cli.positive("--max-cycles")?,
        iters: cli.positive("--iters")?,
        workers: cli.positive("--workers")?,
        queue_depth: cli.positive("--queue-depth")?,
        timeout_ms: cli.positive("--timeout-ms")?,
        max_body_bytes: cli.positive("--max-body-bytes")?,
        keepalive_max: cli.positive("--keepalive-max")?,
        slow_ms: cli.non_negative("--slow-ms")?,
        flight_capacity: cli.positive("--flight-capacity")?,
        retry_after_secs: cli.positive("--retry-after-secs")?,
        rate: cli.positive_f64("--rate")?,
        hist_out: cli.string("--hist-out"),
        log_json: cli.switch("--log-json"),
        trace_out: cli.string("--trace-out"),
        p99_tolerance: cli.positive_f64("--p99-tolerance")?,
        journal: cli.string("--journal"),
        cv_threads: cli.positive("--cv-threads")?,
    })
}

/// [`decode`] over an explicit argument list.
#[cfg(test)]
fn parse_from(argv: impl Iterator<Item = String>) -> Option<Args> {
    decode(&Cli::parse(argv, USAGE.tables).ok()?).ok()
}

/// A command line naming no valid subcommand: usage on stderr, exit 2
/// (exit 1 is kept for failed gates and runs).
fn usage() -> ExitCode {
    eprint!("{}", USAGE.render("pulp_cli"));
    ExitCode::from(2)
}

/// Default cycle budget for interactive `profile`/`trace` runs
/// (override with `--max-cycles`).
const DEFAULT_RUN_BUDGET: u64 = 100_000_000;

/// Maximum tolerated accuracy drop between baseline and candidate before
/// `bench diff` fails: one percentage point.
const REGRESSION_TOLERANCE: f64 = 0.01;

/// Maximum tolerated relative drop in simulator throughput
/// (`ff_cycles_per_s`) per basket before `bench diff` fails: 20%.
const SIM_THROUGHPUT_TOLERANCE: f64 = 0.20;

/// Minimum fast-forward speedup over the single-step oracle tolerated on
/// any candidate basket: the fast-forward path must never be slower than
/// just stepping. Guards the contended-path regression (PR 4 shipped ALU
/// baskets at 0.64–0.89×) from coming back.
const SIM_SPEEDUP_FLOOR: f64 = 1.0;

/// Wall-clock jitter allowance on the speedup floor. Contended baskets sit
/// at parity (speedup ≈ 1.00 — nothing is skippable, so the fast-forward
/// does the same work as the oracle), and a knife-edge `< 1.0` check would
/// flake on scheduler noise; the regression this gate guards shipped at
/// 0.64–0.89×, far below the 0.95 effective floor.
const SIM_SPEEDUP_NOISE: f64 = 0.05;

/// Maximum tolerated relative drop in labeling throughput
/// (`labeling_samples_per_s`) before `bench diff` fails: 20%. Only gated
/// when both records carry the measurement (older baselines predate it).
const SIM_LABELING_TOLERANCE: f64 = 0.20;

/// Default maximum tolerated relative p99-latency regression per serve
/// mix before `bench diff` fails: 20%. Override with `--p99-tolerance`
/// (CI's recorder-overhead gate tightens it to 10%).
const SERVE_P99_TOLERANCE: f64 = 0.20;

/// Compares two benchmark records, dispatching on their `bench` field:
/// `"sim"` gates on per-basket fast-forward throughput, `"serve"` on
/// per-mix p99 latency plus shedding (tolerance from `--p99-tolerance`,
/// default [`SERVE_P99_TOLERANCE`]), anything else on the headline
/// `accuracy` map. Returns the regressions found.
fn bench_regressions_with(
    old: &Value,
    new: &Value,
    serve_p99_tolerance: f64,
) -> Result<Vec<String>, String> {
    let kind = old.field("bench").and_then(Value::as_str).unwrap_or("");
    match kind {
        "sim" => sim_regressions(old, new),
        "serve" => serve_regressions(old, new, serve_p99_tolerance),
        "models" => models_regressions(old, new),
        _ => headline_regressions(old, new),
    }
}

/// Both records must come from the same profile — a `--quick` candidate
/// against a full baseline (or vice versa) compares different workloads.
fn check_same_profile(old: &Value, new: &Value) -> Result<(), String> {
    let profile = |v: &Value, side: &str| {
        v.field("quick")
            .and_then(Value::as_bool)
            .map_err(|e| format!("{side}: {e}"))
    };
    let (old_quick, new_quick) = (profile(old, "baseline")?, profile(new, "candidate")?);
    if old_quick != new_quick {
        return Err(format!(
            "profiles differ (baseline quick={old_quick}, candidate quick={new_quick}); \
             records are not comparable"
        ));
    }
    Ok(())
}

/// Pulls the `rows` sequence out of a benchmark record, labelling parse
/// failures with which side (baseline/candidate) was at fault.
fn record_rows<'a>(v: &'a Value, side: &str) -> Result<&'a [Value], String> {
    v.field("rows")
        .and_then(Value::as_seq)
        .map_err(|e| format!("{side}: {e}"))
}

/// `BENCH_sim.json`: fail on >20% `ff_cycles_per_s` drop on any
/// (basket, cores) row, a row missing from the candidate, any candidate
/// row with fast-forward `speedup` below [`SIM_SPEEDUP_FLOOR`], or a >20%
/// drop in labeling throughput when both records measure it.
fn sim_regressions(old: &Value, new: &Value) -> Result<Vec<String>, String> {
    check_same_profile(old, new)?;
    let (old_rows, new_rows) = (
        record_rows(old, "baseline")?,
        record_rows(new, "candidate")?,
    );
    let key = |r: &Value| -> Option<(String, u64)> {
        Some((
            r.field("basket").and_then(Value::as_str).ok()?.to_string(),
            r.field("cores").and_then(Value::as_u64).ok()?,
        ))
    };
    let mut regressions = Vec::new();
    for old_row in old_rows {
        let Some((basket, cores)) = key(old_row) else {
            return Err("baseline: row without basket/cores".to_string());
        };
        let Ok(old_cps) = old_row.field("ff_cycles_per_s").and_then(Value::as_f64) else {
            continue;
        };
        let Some(new_cps) = new_rows
            .iter()
            .filter(|r| key(r).as_ref() == Some(&(basket.clone(), cores)))
            .find_map(|r| r.field("ff_cycles_per_s").and_then(Value::as_f64).ok())
        else {
            regressions.push(format!("{basket} @ {cores} cores: missing from candidate"));
            continue;
        };
        if new_cps < old_cps * (1.0 - SIM_THROUGHPUT_TOLERANCE) {
            regressions.push(format!(
                "{basket} @ {cores} cores: {old_cps:.3e} -> {new_cps:.3e} cycles/s \
                 (drop {:.1}% > {:.0}% tolerance)",
                (1.0 - new_cps / old_cps) * 100.0,
                SIM_THROUGHPUT_TOLERANCE * 100.0
            ));
        }
    }
    // Absolute floor on every candidate row: the fast-forward must beat
    // (or match) the oracle on all baskets, not just avoid drops vs the
    // previous record.
    for new_row in new_rows {
        let Some((basket, cores)) = key(new_row) else {
            return Err("candidate: row without basket/cores".to_string());
        };
        let Ok(speedup) = new_row.field("speedup").and_then(Value::as_f64) else {
            continue;
        };
        if speedup < SIM_SPEEDUP_FLOOR - SIM_SPEEDUP_NOISE {
            regressions.push(format!(
                "{basket} @ {cores} cores: fast-forward speedup {speedup:.2}x \
                 below the {SIM_SPEEDUP_FLOOR:.1}x floor (with {:.0}% jitter \
                 allowance) — the skipping path is slower than single-stepping",
                SIM_SPEEDUP_NOISE * 100.0
            ));
        }
    }
    // Labeling throughput: gate only when both records carry a positive
    // measurement (baselines from before the column lack it).
    let labeling = |v: &Value| {
        v.field("labeling_samples_per_s")
            .and_then(Value::as_f64)
            .ok()
            .filter(|&s| s > 0.0)
    };
    if let (Some(old_sps), Some(new_sps)) = (labeling(old), labeling(new)) {
        if new_sps < old_sps * (1.0 - SIM_LABELING_TOLERANCE) {
            regressions.push(format!(
                "labeling throughput: {old_sps:.1} -> {new_sps:.1} samples/s \
                 (drop {:.1}% > {:.0}% tolerance)",
                (1.0 - new_sps / old_sps) * 100.0,
                SIM_LABELING_TOLERANCE * 100.0
            ));
        }
    }
    Ok(regressions)
}

/// `BENCH_serve.json`: fail on a p99 regression beyond `p99_tolerance` on
/// any mix, a mix missing from the candidate, any shed in a quick-profile
/// candidate, or candidate correctness errors.
fn serve_regressions(old: &Value, new: &Value, p99_tolerance: f64) -> Result<Vec<String>, String> {
    check_same_profile(old, new)?;
    let (old_rows, new_rows) = (
        record_rows(old, "baseline")?,
        record_rows(new, "candidate")?,
    );
    let mut regressions = Vec::new();
    for old_row in old_rows {
        let Ok(mix) = old_row.field("mix").and_then(Value::as_str) else {
            return Err("baseline: row without mix".to_string());
        };
        let Ok(old_p99) = old_row.field("p99_us").and_then(Value::as_f64) else {
            continue;
        };
        let Some(new_p99) = new_rows
            .iter()
            .filter(|r| r.field("mix").and_then(Value::as_str) == Ok(mix))
            .find_map(|r| r.field("p99_us").and_then(Value::as_f64).ok())
        else {
            regressions.push(format!("mix {mix}: missing from candidate"));
            continue;
        };
        if new_p99 > old_p99 * (1.0 + p99_tolerance) {
            regressions.push(format!(
                "mix {mix}: p99 {old_p99:.0}us -> {new_p99:.0}us \
                 (+{:.1}% > {:.0}% tolerance)",
                (new_p99 / old_p99 - 1.0) * 100.0,
                p99_tolerance * 100.0
            ));
        }
    }
    let quick = new.field("quick").and_then(Value::as_bool).unwrap_or(false);
    let shed = new
        .field("shed_total")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if quick && shed > 0.0 {
        regressions.push(format!(
            "candidate shed {shed} connection(s); the quick profile must never shed"
        ));
    }
    let errors = new.field("errors").and_then(Value::as_u64).unwrap_or(0);
    if errors > 0 {
        regressions.push(format!("candidate had {errors} failed request(s)"));
    }
    // Open-loop (coordinated-omission-safe) envelope: gated only when the
    // baseline carries the section, so pre-open-loop records keep diffing.
    let open_p99 = |record: &Value| {
        record
            .field("open_loop")
            .ok()
            .and_then(|o| o.field("p99_us").and_then(Value::as_f64).ok())
    };
    if let Some(old_p99) = open_p99(old) {
        match open_p99(new) {
            None => regressions
                .push("open-loop results missing from candidate (baseline has them)".to_string()),
            Some(new_p99) if new_p99 > old_p99 * (1.0 + p99_tolerance) => {
                regressions.push(format!(
                    "open-loop: p99 {old_p99:.0}us -> {new_p99:.0}us \
                     (+{:.1}% > {:.0}% tolerance)",
                    (new_p99 / old_p99 - 1.0) * 100.0,
                    p99_tolerance * 100.0
                ));
            }
            Some(_) => {}
        }
    }
    Ok(regressions)
}

/// `BENCH_models.json`: fail on a >1-pt `static_at_5` accuracy drop for
/// any zoo model, a model missing from the candidate, or any candidate
/// row reporting flat/float prediction mismatches — the quantized flat
/// path must stay bit-exact with the float reference on the dataset.
fn models_regressions(old: &Value, new: &Value) -> Result<Vec<String>, String> {
    check_same_profile(old, new)?;
    let (old_rows, new_rows) = (
        record_rows(old, "baseline")?,
        record_rows(new, "candidate")?,
    );
    let mut regressions = Vec::new();
    for old_row in old_rows {
        let Ok(model) = old_row.field("model").and_then(Value::as_str) else {
            return Err("baseline: row without model".to_string());
        };
        let Ok(old_acc) = old_row.field("static_at_5").and_then(Value::as_f64) else {
            continue;
        };
        let Some(new_acc) = new_rows
            .iter()
            .filter(|r| r.field("model").and_then(Value::as_str) == Ok(model))
            .find_map(|r| r.field("static_at_5").and_then(Value::as_f64).ok())
        else {
            regressions.push(format!("model {model}: missing from candidate"));
            continue;
        };
        if new_acc < old_acc - REGRESSION_TOLERANCE {
            regressions.push(format!(
                "model {model}: static@5 {:.1}% -> {:.1}% (drop {:.1} pts > {:.0} pt tolerance)",
                old_acc * 100.0,
                new_acc * 100.0,
                (old_acc - new_acc) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    for new_row in new_rows {
        let model = new_row
            .field("model")
            .and_then(Value::as_str)
            .unwrap_or("?");
        if let Ok(m) = new_row.field("flat_mismatches").and_then(Value::as_u64) {
            if m > 0 {
                regressions.push(format!(
                    "model {model}: flat inference diverged from the float reference \
                     on {m} row(s); the quantized path must be bit-exact"
                ));
            }
        }
    }
    Ok(regressions)
}

/// Compares two `BENCH_headline.json` records field-by-field over their
/// `accuracy` maps; returns the regressions found.
fn headline_regressions(old: &Value, new: &Value) -> Result<Vec<String>, String> {
    let old_acc = old
        .field("accuracy")
        .and_then(Value::as_map)
        .map_err(|e| format!("baseline: {e}"))?;
    let new_acc = new
        .field("accuracy")
        .and_then(Value::as_map)
        .map_err(|e| format!("candidate: {e}"))?;
    let mut regressions = Vec::new();
    for (name, old_v) in old_acc {
        let Ok(old_v) = old_v.as_f64() else { continue };
        let Some(new_v) = new_acc
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64().ok())
        else {
            regressions.push(format!("{name}: missing from candidate"));
            continue;
        };
        if new_v < old_v - REGRESSION_TOLERANCE {
            regressions.push(format!(
                "{name}: {:.1}% -> {:.1}% (drop {:.1} pts > {:.0} pt tolerance)",
                old_v * 100.0,
                new_v * 100.0,
                (old_v - new_v) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    Ok(regressions)
}

fn cmd_bench_diff(old_path: &str, new_path: &str, p99_tolerance: Option<f64>) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bench_regressions_with(&old, &new, p99_tolerance.unwrap_or(SERVE_P99_TOLERANCE)) {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench diff: no regressions ({old_path} -> {new_path})");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!("bench diff: {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench diff: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a run journal and prints its deterministic report: per-stage
/// wall breakdown, shard throughput table, top-K slowest kernels and cache
/// attribution. The output is a pure function of the journal bytes.
fn cmd_report(path: &str) -> ExitCode {
    match pulp_obs::JournalReader::read_file(std::path::Path::new(path)) {
        Ok(journal) => {
            print!("{}", pulp_obs::render_report(&journal));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Structurally validates each journal: schema version, gap-free sequence
/// numbers, run_start/run_end framing, stage discipline, trailing newline.
/// Prints one line per file; any invalid journal fails the command.
fn cmd_journal_validate(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| pulp_obs::validate_journal(&text).map_err(|e| e.to_string()));
        match outcome {
            Ok(()) => println!("journal validate: {path}: ok"),
            Err(e) => {
                eprintln!("journal validate: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One line summarising a benchmark record for the `bench history` table.
fn record_summary(kind: &str, v: &Value) -> String {
    match kind {
        "sim" => {
            let sps = v
                .field("labeling_samples_per_s")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let min_speedup = v
                .field("rows")
                .and_then(Value::as_seq)
                .ok()
                .and_then(|rows| {
                    rows.iter()
                        .filter_map(|r| r.field("speedup").and_then(Value::as_f64).ok())
                        .min_by(f64::total_cmp)
                });
            match min_speedup {
                Some(s) => format!("labeling {sps:.1} samples/s, min speedup {s:.2}x"),
                None => format!("labeling {sps:.1} samples/s"),
            }
        }
        "serve" => {
            let max_p99 = v
                .field("rows")
                .and_then(Value::as_seq)
                .ok()
                .and_then(|rows| {
                    rows.iter()
                        .filter_map(|r| r.field("p99_us").and_then(Value::as_f64).ok())
                        .max_by(f64::total_cmp)
                });
            match max_p99 {
                Some(p) => format!("worst-mix p99 {p:.0}us"),
                None => "no rows".to_string(),
            }
        }
        "models" => match v.field("rows").and_then(Value::as_seq) {
            Ok(rows) => {
                let mut parts: Vec<String> = rows
                    .iter()
                    .filter_map(|r| {
                        let model = r.field("model").and_then(Value::as_str).ok()?;
                        let acc = r.field("static_at_5").and_then(Value::as_f64).ok()?;
                        Some(format!("{model}@5={:.1}%", acc * 100.0))
                    })
                    .collect();
                let mismatches: u64 = rows
                    .iter()
                    .filter_map(|r| r.field("flat_mismatches").and_then(Value::as_u64).ok())
                    .sum();
                parts.push(if mismatches == 0 {
                    "flat=exact".to_string()
                } else {
                    format!("flat={mismatches} mismatch(es)")
                });
                parts.join(" ")
            }
            Err(_) => "no rows".to_string(),
        },
        _ => match v.field("accuracy").and_then(Value::as_map) {
            Ok(acc) => acc
                .iter()
                .filter_map(|(k, val)| val.as_f64().ok().map(|x| format!("{k}={:.1}%", x * 100.0)))
                .collect::<Vec<_>>()
                .join(" "),
            Err(_) => "no accuracy map".to_string(),
        },
    }
}

/// Reads every `BENCH_*.json` record in `dir` (sorted by file name), groups
/// them by `(bench kind, quick)`, prints the trajectory, and flags
/// regressions between consecutive records of a group with the same
/// thresholds as `bench diff`. Journals (`*.jsonl`) in the directory
/// contribute their `bench_record` tails.
fn cmd_bench_history(dir: &str, p99_tolerance: Option<f64>) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench history: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records: Vec<String> = Vec::new();
    let mut journals: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            records.push(name);
        } else if name.ends_with(".jsonl") {
            journals.push(name);
        }
    }
    records.sort();
    journals.sort();
    if records.is_empty() && journals.is_empty() {
        println!("bench history: no BENCH_*.json records or *.jsonl journals in {dir}");
        return ExitCode::SUCCESS;
    }
    // Parse and group by (kind, quick); groups keep file-name order.
    // One group: the (bench kind, quick profile) key plus its (file, record) rows.
    type HistoryGroup = ((String, bool), Vec<(String, Value)>);
    let mut groups: Vec<HistoryGroup> = Vec::new();
    for name in &records {
        let path = format!("{dir}/{name}");
        let parsed: Result<Value, String> = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()));
        let v = match parsed {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench history: skipping {name}: {e}");
                continue;
            }
        };
        let kind = v
            .field("bench")
            .and_then(Value::as_str)
            .unwrap_or("headline")
            .to_string();
        let quick = v.field("quick").and_then(Value::as_bool).unwrap_or(false);
        let key = (kind, quick);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, list)) => list.push((name.clone(), v)),
            None => groups.push((key, vec![(name.clone(), v)])),
        }
    }
    groups.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut flagged = 0usize;
    for ((kind, quick), list) in &groups {
        println!(
            "== {kind} ({} profile), {} record(s) ==",
            if *quick { "quick" } else { "full" },
            list.len()
        );
        for (name, v) in list {
            println!("  {name:<28} {}", record_summary(kind, v));
        }
        for pair in list.windows(2) {
            let (old_name, old) = &pair[0];
            let (new_name, new) = &pair[1];
            match bench_regressions_with(old, new, p99_tolerance.unwrap_or(SERVE_P99_TOLERANCE)) {
                Ok(regressions) => {
                    for r in &regressions {
                        println!("  REGRESSION {old_name} -> {new_name}: {r}");
                    }
                    flagged += regressions.len();
                }
                Err(e) => println!("  (cannot compare {old_name} -> {new_name}: {e})"),
            }
        }
    }
    for name in &journals {
        let path = format!("{dir}/{name}");
        match pulp_obs::JournalReader::read_file(std::path::Path::new(&path)) {
            Ok(journal) => {
                let (tool, _, _) = journal.run_start();
                println!("== journal {name} (run {}, tool {tool}) ==", journal.run_id);
                for ev in &journal.events {
                    if let pulp_obs::JournalEvent::BenchRecord { bench, name, value } = ev {
                        println!("  {bench:<8} {name:<36} {value:.3}");
                    }
                }
            }
            Err(e) => println!("== journal {name}: invalid ({e}) =="),
        }
    }
    if flagged > 0 {
        println!("bench history: {flagged} regression(s) flagged");
    } else {
        println!("bench history: no regressions across consecutive records");
    }
    ExitCode::SUCCESS
}

/// Runs the simulator performance benchmark and writes `BENCH_sim.json`
/// (or `--out PATH`). Fails if any fast-forward run diverges from its
/// single-step oracle or if the barrier/DMA basket never skips a cycle.
fn cmd_bench_sim(args: &Args) -> ExitCode {
    let mut opts = if args.quick {
        SimBenchOptions::quick()
    } else {
        SimBenchOptions::default()
    };
    opts.max_cycles = args.max_cycles.unwrap_or(opts.max_cycles);
    opts.iters = args.iters.unwrap_or(opts.iters);
    eprintln!(
        "bench sim: {} run ({} baskets x {} team sizes, {} timing iteration(s))...",
        if opts.quick { "quick" } else { "full" },
        pulp_bench::sim_bench::BASKETS.len(),
        pulp_bench::sim_bench::TEAM_SIZES.len(),
        opts.iters
    );
    // The journal's run id is seeded from the pre-run provenance manifest
    // (wall times excluded), so re-running the same configuration re-derives
    // the same id.
    let common = CommonArgs {
        quick: opts.quick,
        journal: args.journal.clone().map(std::path::PathBuf::from),
        ..CommonArgs::default()
    };
    let mut journal = common.journal_writer("bench_sim", &common.pipeline_options(), None);
    let report = pulp_bench::sim_bench::run_sim_bench_journaled(&opts, journal.as_mut());
    common.finish_journal(journal);
    print!("{}", report.render_table());
    if !write_record(
        "sim",
        args.out.as_deref().unwrap_or("BENCH_sim.json"),
        &report,
    ) {
        return ExitCode::FAILURE;
    }
    verdict(
        "sim",
        report.verify(),
        "all runs bit-identical to the single-step oracle",
    )
}

/// Writes a bench record as pretty JSON, reporting the outcome.
fn write_record<T: serde::Serialize>(kind: &str, path: &str, report: &T) -> bool {
    let written = pulp_bench::write_json(std::path::Path::new(path), report);
    match &written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("bench {kind}: {e}"),
    }
    written.is_ok()
}

/// Exit status of a bench run: 0 when its invariants hold, 1 listing
/// every violation otherwise.
fn verdict(kind: &str, verified: Result<(), Vec<String>>, ok: &str) -> ExitCode {
    match verified {
        Ok(()) => {
            println!("bench {kind}: {ok}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            eprintln!("bench {kind}: {} invariant violation(s):", problems.len());
            for p in &problems {
                eprintln!("  {p}");
            }
            ExitCode::FAILURE
        }
    }
}

/// The server capacity knobs implied by the command line.
fn serve_options(args: &Args) -> ServeOptions {
    let d = ServeOptions::default();
    ServeOptions {
        workers: args.workers.unwrap_or(d.workers),
        queue_depth: args.queue_depth.unwrap_or(d.queue_depth),
        timeout_ms: args.timeout_ms.unwrap_or(d.timeout_ms),
        max_body_bytes: args.max_body_bytes.unwrap_or(d.max_body_bytes),
        keepalive_max_requests: args.keepalive_max.unwrap_or(d.keepalive_max_requests),
        slow_ms: args.slow_ms.unwrap_or(d.slow_ms),
        flight_capacity: args.flight_capacity.unwrap_or(d.flight_capacity),
        retry_after_secs: args.retry_after_secs.unwrap_or(d.retry_after_secs),
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let common = CommonArgs {
        quick: !args.full,
        cache_dir: args.cache_dir.clone().map(std::path::PathBuf::from),
        log_json: args.log_json,
        ..CommonArgs::default()
    };
    let log = common.logger();
    let opts = common.pipeline_options();
    log.info(
        "serve",
        "training model (this simulates the training sweep unless cached)...",
        &[(
            "profile",
            if args.full { "full" } else { "quick" }.to_string(),
        )],
    );
    let serve_opts = serve_options(args);
    // The request-path logger moves into the server state: slow-request
    // lines from worker threads honour `--log-json` too.
    let state = Arc::new(
        ServeState::train(&opts)
            .with_flight_capacity(serve_opts.flight_capacity)
            .with_logger(common.logger()),
    );
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7878");
    let server = match Server::bind_with(addr, state, serve_opts) {
        Ok(s) => s,
        Err(e) => {
            log.warn(
                "serve",
                "cannot bind",
                &[("addr", addr.to_string()), ("error", e.to_string())],
            );
            return ExitCode::FAILURE;
        }
    };
    install_signal_shutdown(server.shutdown_handle());
    log.info(
        "serve",
        "listening — POST /predict, POST /predict/batch, GET /metrics, GET /healthz, \
         GET /manifest, GET /debug/requests, GET /debug/slow, POST /admin/shutdown",
        &[("addr", server.addr.to_string())],
    );
    log.info(
        "serve",
        "capacity",
        &[
            ("workers", serve_opts.workers.to_string()),
            ("queue_depth", serve_opts.queue_depth.to_string()),
            ("timeout_ms", serve_opts.timeout_ms.to_string()),
            ("max_body_bytes", serve_opts.max_body_bytes.to_string()),
            (
                "keepalive_max",
                serve_opts.keepalive_max_requests.to_string(),
            ),
            ("slow_ms", serve_opts.slow_ms.to_string()),
            ("flight_capacity", serve_opts.flight_capacity.to_string()),
            ("retry_after_secs", serve_opts.retry_after_secs.to_string()),
        ],
    );
    server.run();
    log.info("serve", "drained; all workers joined", &[]);
    ExitCode::SUCCESS
}

/// Runs the serving-layer load benchmark and writes `BENCH_serve.json`
/// (or `--out PATH`). Fails on correctness errors, a batch/sequential
/// divergence, or (in the quick profile) any shed or timeout.
fn cmd_bench_serve(args: &Args) -> ExitCode {
    let mut opts = if args.quick {
        ServeBenchOptions::quick()
    } else {
        ServeBenchOptions::default()
    };
    opts.open_loop_rate_rps = args.rate.unwrap_or(opts.open_loop_rate_rps);
    eprintln!(
        "bench serve: {} run ({} rounds of {} clients x {} requests, {} workers, \
         queue depth {}, open-loop {} rps)...",
        if opts.quick { "quick" } else { "full" },
        opts.rounds,
        opts.clients,
        opts.requests_per_client,
        opts.serve.workers,
        opts.serve.queue_depth,
        opts.open_loop_rate_rps
    );
    let run = run_serve_bench(&opts);
    print!("{}", run.report.render_table());
    let out_path = args.out.as_deref().unwrap_or("BENCH_serve.json");
    if !write_record("serve", out_path, &run.report) {
        return ExitCode::FAILURE;
    }
    if let Some(trace_path) = &args.trace_out {
        if let Err(e) = std::fs::write(trace_path, &run.trace_json) {
            eprintln!("bench serve: cannot write {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {trace_path} (flight-recorder Chrome trace)");
    }
    if let Some(hist_path) = &args.hist_out {
        if let Err(e) = std::fs::write(hist_path, run.open_loop_histogram_json()) {
            eprintln!("bench serve: cannot write {hist_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {hist_path} (open-loop latency histogram)");
    }
    verdict("serve", run.verify(), "all invariants hold")
}

/// Runs the model-zoo evaluation benchmark and writes `BENCH_models.json`
/// (or `--out PATH`). Builds (or loads) the dataset with the usual
/// pipeline caches, evaluates every zoo model under the repeated-CV
/// protocol, checks flat/float parity on the full dataset, and wires the
/// run manifest + journal exactly like the other benches.
fn cmd_bench_models(args: &Args) -> ExitCode {
    let start = std::time::Instant::now();
    let common = CommonArgs {
        quick: args.quick,
        cv_threads: args.cv_threads.unwrap_or(0),
        cache_dir: args.cache_dir.clone().map(std::path::PathBuf::from),
        journal: args.journal.clone().map(std::path::PathBuf::from),
        ..CommonArgs::default()
    };
    let opts = common.pipeline_options();
    let protocol = common.protocol();
    eprintln!(
        "bench models: {} run ({} folds x {} repeats, cv-threads {})...",
        if args.quick { "quick" } else { "full" },
        protocol.folds,
        protocol.repeats,
        if protocol.cv_threads == 0 {
            "all".to_string()
        } else {
            protocol.cv_threads.to_string()
        }
    );
    let mut journal = common.journal_writer("bench_models", &opts, Some(&protocol));
    let data = pulp_bench::load_or_build_dataset(&opts, &common, journal.as_mut());
    let mut report = run_models_bench(&data, &protocol, args.quick);
    let manifest = common.write_manifest("bench_models", &opts, Some(&protocol), start);
    report.manifest_hash = manifest.manifest_hash();
    if let Some(j) = journal.as_mut() {
        for row in &report.rows {
            let record = |name: String, value: f64| pulp_obs::JournalEvent::BenchRecord {
                bench: "models".to_string(),
                name,
                value,
            };
            let _ = j.event(record(
                format!("{}_static_at_5", row.model),
                row.static_at_5,
            ));
            if let Some(m) = row.flat_mismatches {
                let _ = j.event(record(format!("{}_flat_mismatches", row.model), m as f64));
            }
        }
    }
    common.finish_journal(journal);
    print!("{}", report.render_table());
    if !write_record(
        "models",
        args.out.as_deref().unwrap_or("BENCH_models.json"),
        &report,
    ) {
        return ExitCode::FAILURE;
    }
    verdict(
        "models",
        report.verify(),
        "flat inference bit-exact with the float reference",
    )
}

/// The kernel named by the second positional, built at `--dtype` /
/// `--size`. A missing or unknown name, an unsupported dtype or a failed
/// build is reported on stderr and yields `None` (a usage error).
fn kernel_arg(args: &Args, defs: &[KernelDef]) -> Option<Kernel> {
    let Some(name) = &args.kernel else {
        eprint!("{}", USAGE.render("pulp_cli"));
        return None;
    };
    let Some(def) = defs.iter().find(|d| d.name == *name) else {
        eprintln!("unknown kernel `{name}`; run `pulp_cli list`");
        return None;
    };
    let dtype = args.dtype.unwrap_or_else(|| {
        if def.supports(DType::F32) {
            DType::F32
        } else {
            DType::I32
        }
    });
    if !def.supports(dtype) {
        eprintln!("kernel {} does not support {dtype}", def.name);
        return None;
    }
    def.build(&KernelParams::new(dtype, args.size))
        .map_err(|e| eprintln!("cannot instantiate {}: {e}", def.name))
        .ok()
}

/// Runs one of the commands that take a kernel; an error is the message
/// to print before exiting 1.
fn cmd_kernel(args: &Args, kernel: &Kernel) -> Result<(), String> {
    let config = ClusterConfig::default();
    let name = args.kernel.as_deref().unwrap_or_default();
    let budget = args.max_cycles.unwrap_or(DEFAULT_RUN_BUDGET);
    match args.command.as_str() {
        "pretty" => print!("{kernel}"),
        "features" => {
            for (n, v) in static_feature_names()
                .iter()
                .zip(static_feature_vector(kernel))
            {
                println!("{n:>10} = {v:.4}");
            }
        }
        "disasm" => {
            let lowered =
                lower(kernel, args.team, &config).map_err(|e| format!("lowering failed: {e}"))?;
            print!("{}", lowered.program.disassemble());
        }
        "measure" => {
            let profile = measure_kernel(kernel, &config, &EnergyModel::table1())
                .map_err(|e| format!("measurement failed: {e}"))?;
            println!(
                "{:>6} {:>12} {:>10} {:>9}",
                "cores", "energy [uJ]", "cycles", "speedup"
            );
            for c in 0..8 {
                let mark = if c == profile.label() {
                    "  <== min energy"
                } else {
                    ""
                };
                println!(
                    "{:>6} {:>12.4} {:>10} {:>8.2}x{mark}",
                    c + 1,
                    profile.energy[c] * 1e-9,
                    profile.cycles[c],
                    profile.speedup(c)
                );
            }
        }
        "classify" => {
            eprintln!("training on the quick kernel set...");
            let data = LabeledDataset::build(&PipelineOptions::quick(QUICK_KERNELS))
                .map_err(|e| format!("training-set build failed: {e}"))?;
            let ds = data
                .static_dataset(StaticFeatureSet::All)
                .map_err(|e| format!("dataset assembly failed: {e}"))?;
            let mut tree = DecisionTree::new(TreeParams::default());
            tree.fit(&ds);
            let predicted = tree.predict(&static_feature_vector(kernel));
            println!(
                "predicted minimum-energy configuration: {} cores",
                predicted + 1
            );
            if let Ok(profile) = measure_kernel(kernel, &config, &EnergyModel::table1()) {
                println!(
                    "simulated ground truth: {} cores (waste of prediction: {:.2}%)",
                    profile.label() + 1,
                    profile.waste(predicted) * 100.0
                );
            }
        }
        "mca" => {
            let block = pulp_mca::kernel_block(kernel);
            let features = pulp_mca::analyze_block(&block, pulp_mca::DEFAULT_ITERATIONS);
            print!(
                "{}",
                pulp_mca::render_report(block.len(), pulp_mca::DEFAULT_ITERATIONS, &features)
            );
        }
        "profile" => {
            let model = EnergyModel::table1();
            for team in 1..=config.num_cores {
                let lowered = lower(kernel, team, &config)
                    .map_err(|e| format!("lowering failed at team {team}: {e}"))?;
                let run = profile_run(&config, &lowered.program, budget)
                    .map_err(|e| format!("simulation failed at team {team}: {e}"))?;
                run.stats
                    .check_consistency()
                    .map_err(|e| format!("attribution inconsistent at team {team}: {e}"))?;
                let attributed = run.stats.breakdown_totals().total();
                println!("== {name} team {team} ==");
                print!("{}", run.stats.summary());
                println!(
                    "attribution: {attributed} cycle-cells = {} cycles x {} cores (exclusive)",
                    run.stats.cycles,
                    run.stats.cores.len()
                );
                for r in &run.regions {
                    println!(
                        "  {:<12} cycles {:>8}..{:<8} ({} cycles, {} executed)",
                        r.label(),
                        r.start_cycle,
                        r.end_cycle,
                        r.cycles(),
                        r.breakdown.execute
                    );
                }
                print!("{}", energy_waterfall(&run.stats, &model, &config));
                println!();
            }
        }
        _ => {
            let lowered =
                lower(kernel, args.team, &config).map_err(|e| format!("lowering failed: {e}"))?;
            if let Some(path) = &args.chrome {
                let run = profile_run(&config, &lowered.program, budget)
                    .map_err(|e| format!("simulation failed: {e}"))?;
                let mut rec = recorder_of_run(&run);
                energy_waterfall(&run.stats, &EnergyModel::table1(), &config).record(&mut rec);
                let json = pulp_obs::chrome_trace(&rec, &format!("pulp_cli {name} t{}", args.team));
                std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!(
                    "wrote {path}: {} cycles, {} spans (load in chrome://tracing or ui.perfetto.dev)",
                    run.stats.cycles,
                    rec.spans().len()
                );
            } else {
                let mut sink = TextSink::new();
                simulate_traced(&config, &lowered.program, budget, &mut sink)
                    .map_err(|e| format!("simulation failed: {e}"))?;
                print!("{}", sink.text);
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = cli::parse_env(&USAGE, decode);
    let defs = registry();
    match args.command.as_str() {
        "list" => {
            println!("{:<24} {:<10} dtypes", "kernel", "suite");
            for d in &defs {
                let dtypes: Vec<String> = d.dtypes.iter().map(|t| t.to_string()).collect();
                println!(
                    "{:<24} {:<10} {}",
                    d.name,
                    d.suite.to_string(),
                    dtypes.join(",")
                );
            }
            ExitCode::SUCCESS
        }
        "pretty" | "features" | "disasm" | "measure" | "classify" | "mca" | "profile" | "trace" => {
            let Some(kernel) = kernel_arg(&args, &defs) else {
                return ExitCode::from(2);
            };
            match cmd_kernel(&args, &kernel) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cache" => {
            let Some(action) = args.kernel.as_deref() else {
                return usage();
            };
            let Some(dir) = args.cache_dir.as_deref() else {
                eprintln!("cache {action}: --cache-dir DIR is required");
                return ExitCode::FAILURE;
            };
            let dir = std::path::Path::new(dir);
            match action {
                "stats" => match SweepCache::dir_stats(dir) {
                    Ok(stats) => {
                        println!("cache dir : {}", dir.display());
                        println!("version   : {}", default_cache_version());
                        println!("entries   : {}", stats.entries);
                        println!("size      : {} bytes", stats.bytes);
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", dir.display());
                        ExitCode::FAILURE
                    }
                },
                "clear" => match SweepCache::clear(dir) {
                    Ok(removed) => {
                        println!("removed {removed} cached sweep(s) from {}", dir.display());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cannot clear {}: {e}", dir.display());
                        ExitCode::FAILURE
                    }
                },
                _ => usage(),
            }
        }
        "serve" => cmd_serve(&args),
        "report" => match args.kernel.as_deref() {
            Some(path) if args.rest.is_empty() => cmd_report(path),
            _ => usage(),
        },
        "journal" => match args.kernel.as_deref() {
            Some("validate") if !args.rest.is_empty() => cmd_journal_validate(&args.rest),
            _ => usage(),
        },
        "bench" => match args.kernel.as_deref() {
            Some("diff") if args.rest.len() == 2 => {
                cmd_bench_diff(&args.rest[0], &args.rest[1], args.p99_tolerance)
            }
            Some("sim") if args.rest.is_empty() => cmd_bench_sim(&args),
            Some("serve") if args.rest.is_empty() => cmd_bench_serve(&args),
            Some("models") if args.rest.is_empty() => cmd_bench_models(&args),
            Some("history") if args.rest.len() == 1 => {
                cmd_bench_history(&args.rest[0], args.p99_tolerance)
            }
            _ => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Option<Args> {
        parse_from(words.iter().map(|s| s.to_string()))
    }

    /// [`bench_regressions_with`] at the default serve p99 tolerance.
    fn bench_regressions(old: &Value, new: &Value) -> Result<Vec<String>, String> {
        bench_regressions_with(old, new, SERVE_P99_TOLERANCE)
    }

    #[test]
    fn ci_command_lines_parse() {
        for line in [
            "journal validate run.jsonl",
            "report run.jsonl",
            "bench diff baselines/BENCH_serve.json BENCH_serve.json --p99-tolerance 0.10",
            "bench history baselines",
            "bench sim --quick --out BENCH_sim.json --journal sim_run.jsonl",
            "bench serve --quick --out S.json --trace-out T.json --hist-out H.json",
            "bench models --quick --out BENCH_models.json --journal models_run.jsonl",
        ] {
            assert!(
                parse_from(line.split(' ').map(String::from)).is_some(),
                "{line}"
            );
        }
        // `--help` parses without a command; an unknown flag never does.
        assert!(parse(&["--help"]).is_some());
        assert!(parse(&["bench", "serve", "--predictor", "float"]).is_none());
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse(&[
            "measure", "gemm", "--dtype", "i32", "--size", "512", "--team", "6",
        ])
        .expect("parse");
        assert_eq!(a.command, "measure");
        assert_eq!(a.kernel.as_deref(), Some("gemm"));
        assert_eq!(a.dtype, Some(DType::I32));
        assert_eq!(a.size, 512);
        assert_eq!(a.team, 6);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["pretty", "fir"]).expect("parse");
        assert_eq!(a.dtype, None);
        assert_eq!(a.size, 2048);
        assert_eq!(a.team, 4);
    }

    #[test]
    fn rejects_bad_dtype_and_flags() {
        assert!(parse(&["measure", "gemm", "--dtype", "f64"]).is_none());
        assert!(parse(&["measure", "gemm", "--bogus"]).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn chrome_flag_takes_a_path() {
        let a = parse(&["trace", "fir", "--chrome", "out.json"]).expect("parse");
        assert_eq!(a.chrome.as_deref(), Some("out.json"));
        assert!(parse(&["trace", "fir", "--chrome"]).is_none());
    }

    #[test]
    fn serve_and_bench_subcommands_parse() {
        let a = parse(&["serve", "--addr", "0.0.0.0:9000", "--full"]).expect("parse");
        assert_eq!(a.command, "serve");
        assert_eq!(a.addr.as_deref(), Some("0.0.0.0:9000"));
        assert!(a.full);

        let a = parse(&["bench", "diff", "old.json", "new.json"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("diff"));
        assert_eq!(a.rest, vec!["old.json".to_string(), "new.json".to_string()]);
    }

    #[test]
    fn bench_sim_flags_parse_strictly() {
        let a = parse(&[
            "bench",
            "sim",
            "--quick",
            "--out",
            "custom.json",
            "--max-cycles",
            "5000",
        ])
        .expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("sim"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("custom.json"));
        assert_eq!(a.max_cycles, Some(5_000));
        // Zero, negative and garbage budgets are rejected outright.
        assert!(parse(&["bench", "sim", "--max-cycles", "0"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles", "-3"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles", "many"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles"]).is_none());
    }

    fn headline_value(static_at_5: f64) -> Value {
        Value::Map(vec![(
            "accuracy".to_string(),
            Value::Map(vec![
                ("static_at_0".to_string(), Value::F64(0.55)),
                ("static_at_5".to_string(), Value::F64(static_at_5)),
            ]),
        )])
    }

    #[test]
    fn bench_diff_flags_only_real_regressions() {
        let base = headline_value(0.80);
        // Within tolerance: a 1-point drop passes.
        let ok = bench_regressions(&base, &headline_value(0.79)).expect("compare");
        assert!(ok.is_empty(), "{ok:?}");
        // Beyond tolerance fails and names the field.
        let bad = bench_regressions(&base, &headline_value(0.70)).expect("compare");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("static_at_5"), "{bad:?}");
        // Improvements never fail.
        assert!(bench_regressions(&base, &headline_value(0.95))
            .expect("compare")
            .is_empty());
        // A field missing from the candidate is a failure, not a skip.
        let missing = Value::Map(vec![(
            "accuracy".to_string(),
            Value::Map(vec![("static_at_0".to_string(), Value::F64(0.55))]),
        )]);
        let out = bench_regressions(&base, &missing).expect("compare");
        assert!(out.iter().any(|r| r.contains("missing")), "{out:?}");
        // Records without an accuracy map are an error.
        assert!(bench_regressions(&Value::Map(vec![]), &base).is_err());
    }

    #[test]
    fn serve_capacity_flags_parse_strictly() {
        let a = parse(&[
            "serve",
            "--workers",
            "8",
            "--queue-depth",
            "128",
            "--timeout-ms",
            "250",
            "--max-body-bytes",
            "4096",
            "--keepalive-max",
            "32",
        ])
        .expect("parse");
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.queue_depth, Some(128));
        assert_eq!(a.timeout_ms, Some(250));
        assert_eq!(a.max_body_bytes, Some(4096));
        assert_eq!(a.keepalive_max, Some(32));
        let o = serve_options(&a);
        assert_eq!((o.workers, o.queue_depth, o.timeout_ms), (8, 128, 250));
        assert_eq!((o.max_body_bytes, o.keepalive_max_requests), (4096, 32));
        // Defaults flow through when flags are absent.
        let defaults = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(defaults, ServeOptions::default());
        // Zero, negatives and garbage are rejected outright.
        assert!(parse(&["serve", "--workers", "0"]).is_none());
        assert!(parse(&["serve", "--queue-depth", "-1"]).is_none());
        assert!(parse(&["serve", "--timeout-ms", "soon"]).is_none());
        assert!(parse(&["serve", "--max-body-bytes"]).is_none());
    }

    #[test]
    fn retry_after_flag_parses_strictly_and_reaches_the_options() {
        let a = parse(&["serve", "--retry-after-secs", "5"]).expect("parse");
        assert_eq!(a.retry_after_secs, Some(5));
        assert_eq!(serve_options(&a).retry_after_secs, 5);
        // Default is 1 second, unchanged from the pre-flag behaviour.
        let d = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(d.retry_after_secs, 1);
        // Zero, negatives and garbage are rejected outright.
        assert!(parse(&["serve", "--retry-after-secs", "0"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs", "-2"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs", "soon"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs"]).is_none());
    }

    #[test]
    fn open_loop_flags_parse_strictly() {
        let a = parse(&[
            "bench",
            "serve",
            "--quick",
            "--rate",
            "750.5",
            "--hist-out",
            "H.json",
        ])
        .expect("parse");
        assert_eq!(a.rate, Some(750.5));
        assert_eq!(a.hist_out.as_deref(), Some("H.json"));
        // Zero, negatives, garbage and missing values are rejected.
        assert!(parse(&["bench", "serve", "--rate", "0"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "-100"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "fast"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "inf"]).is_none());
        assert!(parse(&["bench", "serve", "--hist-out"]).is_none());
    }

    #[test]
    fn bench_serve_subcommand_parses() {
        let a = parse(&["bench", "serve", "--quick", "--out", "S.json"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("serve"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("S.json"));
        let a = parse(&["bench", "serve", "--quick", "--trace-out", "T.json"]).expect("parse");
        assert_eq!(a.trace_out.as_deref(), Some("T.json"));
        assert!(parse(&["bench", "serve", "--trace-out"]).is_none());
    }

    #[test]
    fn observability_flags_parse_strictly() {
        let a = parse(&[
            "serve",
            "--slow-ms",
            "0",
            "--flight-capacity",
            "512",
            "--log-json",
        ])
        .expect("parse");
        assert_eq!(a.slow_ms, Some(0));
        assert_eq!(a.flight_capacity, Some(512));
        assert!(a.log_json);
        let o = serve_options(&a);
        assert_eq!((o.slow_ms, o.flight_capacity), (0, 512));
        // Defaults flow through when the flags are absent.
        let d = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(d.slow_ms, ServeOptions::default().slow_ms);
        assert_eq!(d.flight_capacity, ServeOptions::default().flight_capacity);
        // Garbage and missing values are rejected outright.
        assert!(parse(&["serve", "--slow-ms", "fast"]).is_none());
        assert!(parse(&["serve", "--slow-ms", "-1"]).is_none());
        assert!(parse(&["serve", "--flight-capacity", "0"]).is_none());
        assert!(parse(&["serve", "--flight-capacity"]).is_none());
    }

    #[test]
    fn p99_tolerance_parses_and_tightens_the_serve_gate() {
        let a = parse(&[
            "bench",
            "diff",
            "a.json",
            "b.json",
            "--p99-tolerance",
            "0.10",
        ])
        .expect("parse");
        assert_eq!(a.p99_tolerance, Some(0.10));
        assert!(parse(&["bench", "diff", "a.json", "b.json", "--p99-tolerance", "0"]).is_none());
        assert!(parse(&["bench", "diff", "a.json", "b.json", "--p99-tolerance", "x"]).is_none());
        // +15% p99 passes the default 20% gate but fails a 10% one.
        let base = serve_value(true, 500.0, 0.0, 0);
        let cand = serve_value(true, 575.0, 0.0, 0);
        assert!(bench_regressions(&base, &cand).expect("compare").is_empty());
        let tight = bench_regressions_with(&base, &cand, 0.10).expect("compare");
        assert_eq!(tight.len(), 1);
        assert!(tight[0].contains("mix kernel"), "{tight:?}");
    }

    fn sim_value(quick: bool, alu1_cps: f64) -> Value {
        let row = |basket: &str, cores: u64, cps: f64| {
            Value::Map(vec![
                ("basket".to_string(), Value::Str(basket.to_string())),
                ("cores".to_string(), Value::U64(cores)),
                ("ff_cycles_per_s".to_string(), Value::F64(cps)),
            ])
        };
        Value::Map(vec![
            ("bench".to_string(), Value::Str("sim".to_string())),
            ("quick".to_string(), Value::Bool(quick)),
            (
                "rows".to_string(),
                Value::Seq(vec![row("alu", 1, alu1_cps), row("barrier_dma", 8, 5e8)]),
            ),
        ])
    }

    #[test]
    fn bench_diff_gates_sim_throughput() {
        let base = sim_value(true, 1e7);
        // Within 20% passes; beyond fails and names the basket.
        assert!(bench_regressions(&base, &sim_value(true, 0.85e7))
            .expect("compare")
            .is_empty());
        let bad = bench_regressions(&base, &sim_value(true, 0.5e7)).expect("compare");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("alu @ 1 cores"), "{bad:?}");
        // Improvements never fail.
        assert!(bench_regressions(&base, &sim_value(true, 5e7))
            .expect("compare")
            .is_empty());
        // Quick-vs-full comparisons are refused, not silently compared.
        let err = bench_regressions(&base, &sim_value(false, 1e7)).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
        // A missing row is a regression.
        let mut missing = sim_value(true, 1e7);
        if let Value::Map(entries) = &mut missing {
            for (k, v) in entries.iter_mut() {
                if k == "rows" {
                    if let Value::Seq(rows) = v {
                        rows.truncate(1);
                    }
                }
            }
        }
        let out = bench_regressions(&base, &missing).expect("compare");
        assert!(out.iter().any(|r| r.contains("missing")), "{out:?}");
    }

    fn sim_value_gated(speedups: &[(&str, u64, f64)], labeling_sps: Option<f64>) -> Value {
        let rows = speedups
            .iter()
            .map(|(basket, cores, speedup)| {
                Value::Map(vec![
                    ("basket".to_string(), Value::Str((*basket).to_string())),
                    ("cores".to_string(), Value::U64(*cores)),
                    ("ff_cycles_per_s".to_string(), Value::F64(1e7)),
                    ("speedup".to_string(), Value::F64(*speedup)),
                ])
            })
            .collect();
        let mut entries = vec![
            ("bench".to_string(), Value::Str("sim".to_string())),
            ("quick".to_string(), Value::Bool(true)),
            ("rows".to_string(), Value::Seq(rows)),
        ];
        if let Some(sps) = labeling_sps {
            entries.push(("labeling_samples_per_s".to_string(), Value::F64(sps)));
        }
        Value::Map(entries)
    }

    #[test]
    fn bench_diff_gates_sim_speedup_floor() {
        let base = sim_value_gated(&[("alu", 1, 1.2)], None);
        // At or above 1.0x passes even when the baseline was faster, and
        // parity within the jitter allowance (0.96x) is tolerated.
        assert!(
            bench_regressions(&base, &sim_value_gated(&[("alu", 1, 1.0)], None))
                .expect("compare")
                .is_empty()
        );
        assert!(
            bench_regressions(&base, &sim_value_gated(&[("alu", 1, 0.96)], None))
                .expect("compare")
                .is_empty()
        );
        // Any candidate basket below 1.0x fails, regardless of the baseline
        // (extra candidate rows are still gated).
        let bad = bench_regressions(
            &base,
            &sim_value_gated(&[("alu", 1, 1.1), ("tcdm_conflict", 8, 0.84)], None),
        )
        .expect("compare");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains("tcdm_conflict @ 8 cores") && bad[0].contains("floor"),
            "{bad:?}"
        );
        // Rows without the column (older records) are skipped, not failed.
        assert!(bench_regressions(&base, &sim_value(true, 1e7))
            .expect("compare")
            .is_empty());
    }

    #[test]
    fn bench_diff_gates_labeling_throughput() {
        let base = sim_value_gated(&[("alu", 1, 1.2)], Some(100.0));
        // Within 20% passes; beyond fails and names the column.
        assert!(
            bench_regressions(&base, &sim_value_gated(&[("alu", 1, 1.2)], Some(85.0)))
                .expect("compare")
                .is_empty()
        );
        let bad = bench_regressions(&base, &sim_value_gated(&[("alu", 1, 1.2)], Some(50.0)))
            .expect("compare");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("labeling throughput"), "{bad:?}");
        // Either side missing (or zero) disables the gate: old baselines
        // predate the column.
        assert!(
            bench_regressions(&base, &sim_value_gated(&[("alu", 1, 1.2)], None))
                .expect("compare")
                .is_empty()
        );
        assert!(bench_regressions(
            &sim_value_gated(&[("alu", 1, 1.2)], Some(0.0)),
            &sim_value_gated(&[("alu", 1, 1.2)], Some(50.0))
        )
        .expect("compare")
        .is_empty());
    }

    fn serve_value(quick: bool, kernel_p99: f64, shed: f64, errors: u64) -> Value {
        let row = |mix: &str, p99: f64| {
            Value::Map(vec![
                ("mix".to_string(), Value::Str(mix.to_string())),
                ("p99_us".to_string(), Value::F64(p99)),
            ])
        };
        Value::Map(vec![
            ("bench".to_string(), Value::Str("serve".to_string())),
            ("quick".to_string(), Value::Bool(quick)),
            ("shed_total".to_string(), Value::F64(shed)),
            ("errors".to_string(), Value::U64(errors)),
            (
                "rows".to_string(),
                Value::Seq(vec![row("kernel", kernel_p99), row("batch", 900.0)]),
            ),
        ])
    }

    #[test]
    fn bench_diff_gates_serve_latency_and_shed() {
        let base = serve_value(true, 500.0, 0.0, 0);
        // Within 20% passes.
        assert!(bench_regressions(&base, &serve_value(true, 590.0, 0.0, 0))
            .expect("compare")
            .is_empty());
        // A >20% p99 regression fails and names the mix.
        let bad = bench_regressions(&base, &serve_value(true, 700.0, 0.0, 0)).expect("compare");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("mix kernel"), "{bad:?}");
        // Any shed in a quick candidate fails even with great latency.
        let shed = bench_regressions(&base, &serve_value(true, 100.0, 3.0, 0)).expect("compare");
        assert!(shed.iter().any(|r| r.contains("shed")), "{shed:?}");
        // Candidate correctness errors fail.
        let err = bench_regressions(&base, &serve_value(true, 100.0, 0.0, 2)).expect("compare");
        assert!(err.iter().any(|r| r.contains("failed request")), "{err:?}");
        // Quick-vs-full refused.
        assert!(bench_regressions(&base, &serve_value(false, 500.0, 0.0, 0)).is_err());
    }

    /// `serve_value` plus an `open_loop` section at the given p99.
    fn serve_value_with_open_loop(p99: f64) -> Value {
        let Value::Map(mut fields) = serve_value(true, 500.0, 0.0, 0) else {
            unreachable!("serve_value builds a map");
        };
        fields.push((
            "open_loop".to_string(),
            Value::Map(vec![("p99_us".to_string(), Value::F64(p99))]),
        ));
        Value::Map(fields)
    }

    #[test]
    fn bench_diff_gates_the_open_loop_envelope() {
        let base = serve_value_with_open_loop(1000.0);
        // Within tolerance passes.
        assert!(
            bench_regressions(&base, &serve_value_with_open_loop(1100.0))
                .expect("compare")
                .is_empty()
        );
        // Beyond tolerance fails and names the open-loop gate.
        let bad = bench_regressions(&base, &serve_value_with_open_loop(1500.0)).expect("compare");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("open-loop"), "{bad:?}");
        // A candidate that silently dropped its open-loop section fails.
        let dropped = bench_regressions(&base, &serve_value(true, 500.0, 0.0, 0)).expect("compare");
        assert!(
            dropped.iter().any(|r| r.contains("missing from candidate")),
            "{dropped:?}"
        );
        // Old baselines without the section never engage the gate.
        let old_base = serve_value(true, 500.0, 0.0, 0);
        assert!(
            bench_regressions(&old_base, &serve_value_with_open_loop(99999.0))
                .expect("compare")
                .is_empty()
        );
    }

    /// A `BENCH_models.json`-shaped record with the given per-model
    /// static@5 accuracies and flat mismatch counts (`None` = kNN-style
    /// row without a flat form).
    fn models_value(rows: &[(&str, f64, Option<u64>)]) -> Value {
        let rows = rows
            .iter()
            .map(|(model, at5, mismatches)| {
                Value::Map(vec![
                    ("model".to_string(), Value::Str((*model).to_string())),
                    ("static_at_5".to_string(), Value::F64(*at5)),
                    (
                        "flat_mismatches".to_string(),
                        mismatches.map_or(Value::Null, Value::U64),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("bench".to_string(), Value::Str("models".to_string())),
            ("quick".to_string(), Value::Bool(true)),
            ("rows".to_string(), Value::Seq(rows)),
        ])
    }

    #[test]
    fn bench_diff_gates_model_zoo_accuracy_and_flat_parity() {
        let base = models_value(&[
            ("tree", 0.93, Some(0)),
            ("gbt", 0.94, Some(0)),
            ("knn", 0.90, None),
        ]);
        // Within 1 pt passes.
        let ok = bench_regressions(
            &base,
            &models_value(&[
                ("tree", 0.925, Some(0)),
                ("gbt", 0.935, Some(0)),
                ("knn", 0.91, None),
            ]),
        )
        .expect("compare");
        assert!(ok.is_empty(), "{ok:?}");
        // A >1-pt static@5 drop fails and names the model.
        let bad = bench_regressions(
            &base,
            &models_value(&[
                ("tree", 0.90, Some(0)),
                ("gbt", 0.94, Some(0)),
                ("knn", 0.90, None),
            ]),
        )
        .expect("compare");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("model tree"), "{bad:?}");
        // Any flat mismatch fails even with perfect accuracy.
        let diverged = bench_regressions(
            &base,
            &models_value(&[
                ("tree", 0.99, Some(2)),
                ("gbt", 0.99, Some(0)),
                ("knn", 0.99, None),
            ]),
        )
        .expect("compare");
        assert_eq!(diverged.len(), 1, "{diverged:?}");
        assert!(
            diverged[0].contains("bit-exact") && diverged[0].contains("2 row(s)"),
            "{diverged:?}"
        );
        // A model missing from the candidate is a failure, not a skip.
        let missing = bench_regressions(
            &base,
            &models_value(&[("tree", 0.93, Some(0)), ("knn", 0.90, None)]),
        )
        .expect("compare");
        assert!(
            missing
                .iter()
                .any(|r| r.contains("gbt") && r.contains("missing")),
            "{missing:?}"
        );
        // Quick-vs-full refused.
        let mut full = models_value(&[("tree", 0.93, Some(0))]);
        if let Value::Map(fields) = &mut full {
            for (k, v) in fields.iter_mut() {
                if k == "quick" {
                    *v = Value::Bool(false);
                }
            }
        }
        assert!(bench_regressions(&base, &full).is_err());
    }

    #[test]
    fn bench_models_subcommand_and_flags_parse() {
        let a = parse(&[
            "bench",
            "models",
            "--quick",
            "--out",
            "M.json",
            "--cv-threads",
            "4",
            "--journal",
            "R.jsonl",
        ])
        .expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("models"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("M.json"));
        assert_eq!(a.cv_threads, Some(4));
        assert_eq!(a.journal.as_deref(), Some("R.jsonl"));
        // Zero, garbage and missing cv-thread counts are rejected.
        assert!(parse(&["bench", "models", "--cv-threads", "0"]).is_none());
        assert!(parse(&["bench", "models", "--cv-threads", "x"]).is_none());
        assert!(parse(&["bench", "models", "--cv-threads"]).is_none());
    }

    #[test]
    fn models_record_summary_names_models_and_parity() {
        let v = models_value(&[
            ("tree", 0.93, Some(0)),
            ("gbt", 0.94, Some(0)),
            ("knn", 0.90, None),
        ]);
        let s = record_summary("models", &v);
        assert!(s.contains("tree@5=93.0%"), "{s}");
        assert!(s.contains("gbt@5=94.0%"), "{s}");
        assert!(s.contains("flat=exact"), "{s}");
        let diverged = models_value(&[("tree", 0.93, Some(4))]);
        let s = record_summary("models", &diverged);
        assert!(s.contains("flat=4 mismatch(es)"), "{s}");
    }

    #[test]
    fn report_and_journal_subcommands_parse() {
        let a = parse(&["report", "RUN.jsonl"]).expect("parse");
        assert_eq!(a.command, "report");
        assert_eq!(a.kernel.as_deref(), Some("RUN.jsonl"));

        let a = parse(&["journal", "validate", "a.jsonl", "b.jsonl"]).expect("parse");
        assert_eq!(a.command, "journal");
        assert_eq!(a.kernel.as_deref(), Some("validate"));
        assert_eq!(a.rest, vec!["a.jsonl".to_string(), "b.jsonl".to_string()]);

        let a = parse(&["bench", "history", "baselines"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("history"));
        assert_eq!(a.rest, vec!["baselines".to_string()]);

        let a = parse(&["bench", "sim", "--quick", "--journal", "R.jsonl"]).expect("parse");
        assert_eq!(a.journal.as_deref(), Some("R.jsonl"));
        assert!(parse(&["bench", "sim", "--journal"]).is_none());
    }

    #[test]
    fn record_summaries_name_the_headline_figures() {
        let sim = sim_value_gated(&[("alu", 1, 1.2)], Some(100.0));
        let s = record_summary("sim", &sim);
        assert!(s.contains("labeling 100.0 samples/s"), "{s}");
        assert!(s.contains("min speedup 1.20x"), "{s}");
        let serve = serve_value(true, 500.0, 0.0, 0);
        assert_eq!(record_summary("serve", &serve), "worst-mix p99 900us");
        let headline = headline_value(0.80);
        let s = record_summary("headline", &headline);
        assert!(s.contains("static_at_5=80.0%"), "{s}");
    }

    #[test]
    fn cache_subcommand_parses() {
        let a = parse(&["cache", "stats", "--cache-dir", "/tmp/sweeps"]).expect("parse");
        assert_eq!(a.command, "cache");
        assert_eq!(a.kernel.as_deref(), Some("stats"));
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/sweeps"));
        assert!(parse(&["cache", "clear", "--cache-dir"]).is_none());
    }
}
