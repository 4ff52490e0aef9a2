//! `pulp_cli` — command-line front end to the whole stack, and the one
//! binary of `pulp-bench`.
//!
//! Every command is one entry of [`COMMANDS`] with its own flag tables:
//! `pulp_cli --help` lists the commands and `pulp_cli <command> --help`
//! prints one command's flags, generated from the table the strict parser
//! reads. A flag outside the command's tables, a missing value or a
//! malformed value exits 2 naming the flag. Each `cmd_*` function below
//! documents what its command does; `exp <name>` runs one experiment of
//! the paper (see [`exp`]). `serve` logs its capacity knobs at startup;
//! SIGTERM/ctrl-c or `POST /admin/shutdown` drain it gracefully.

#[path = "pulp_cli/exp/mod.rs"]
mod exp;

use kernel_ir::{lower, DType, Kernel};
use pulp_bench::cli::{self, Cli, Command, Flag};
use pulp_bench::flags::{CACHE_DIR, CV_THREADS, JOURNAL, LOG_JSON, MAX_CYCLES, QUICK};
use pulp_bench::serve::{install_signal_shutdown, ServeOptions, ServeState, Server};
use pulp_bench::{
    profile_run, recorder_of_run, run_models_bench, run_serve_bench, CommonArgs, RunContext,
    ServeBenchOptions, SimBenchOptions, COMMON_FLAGS, QUICK_KERNELS,
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
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// What a command runs once its whole command line decoded cleanly.
type Run = Box<dyn FnOnce() -> ExitCode>;

/// `pulp_cli`'s own flags; the ones it shares with the experiments are
/// [`pulp_bench::flags`].
#[rustfmt::skip]
mod flag {
    use pulp_bench::cli::Flag;

    pub const DTYPE: Flag =            Flag::valued("--dtype",            "i32|f32",   "element type (default: f32, else i32)");
    pub const SIZE: Flag =             Flag::valued("--size",             "bytes",     "kernel payload size (default: 2048)");
    pub const TEAM: Flag =             Flag::valued("--team",             "n",         "cores (default: 4)");
    pub const CHROME: Flag =           Flag::valued("--chrome",           "path",      "write Chrome trace-event JSON");
    pub const ADDR: Flag =             Flag::valued("--addr",             "host:port", "listen address (default: 127.0.0.1:7878)");
    pub const FULL: Flag =             Flag::switch("--full",                          "train on every kernel");
    pub const WORKERS: Flag =          Flag::valued("--workers",          "n",         "worker threads");
    pub const QUEUE_DEPTH: Flag =      Flag::valued("--queue-depth",      "n",         "accept queue bound (overflow: 503)");
    pub const TIMEOUT_MS: Flag =       Flag::valued("--timeout-ms",       "n",         "per-connection read/write deadline");
    pub const MAX_BODY_BYTES: Flag =   Flag::valued("--max-body-bytes",   "n",         "larger bodies get 413");
    pub const KEEPALIVE_MAX: Flag =    Flag::valued("--keepalive-max",    "n",         "requests per keep-alive connection");
    pub const SLOW_MS: Flag =          Flag::valued("--slow-ms",          "n",         "log slower requests (0 logs all)");
    pub const FLIGHT_CAPACITY: Flag =  Flag::valued("--flight-capacity",  "n",         "traces kept for /debug/requests");
    pub const RETRY_AFTER_SECS: Flag = Flag::valued("--retry-after-secs", "n",         "Retry-After on shed responses");
    pub const OUT: Flag =              Flag::valued("--out",              "path",      "record path (default: BENCH_<bench>.json)");
    pub const ITERS: Flag =            Flag::valued("--iters",            "n",         "timing iterations");
    pub const TRACE_OUT: Flag =        Flag::valued("--trace-out",        "path",      "flight-recorder Chrome trace");
    pub const RATE: Flag =             Flag::valued("--rate",             "rps",       "open-loop arrival rate");
    pub const HIST_OUT: Flag =         Flag::valued("--hist-out",         "path",      "open-loop latency histogram");
    pub const P99_TOLERANCE: Flag =    Flag::valued("--p99-tolerance",    "x",         "serve p99 regression bound (default: 0.2)");
}

use flag::*;

const KERNEL: &[Flag] = &[DTYPE, SIZE];
const P99: &[Flag] = &[P99_TOLERANCE];
const BENCH_SIM: &[Flag] = &[QUICK, OUT, ITERS, JOURNAL, MAX_CYCLES];
const BENCH_SERVE: &[Flag] = &[QUICK, OUT, TRACE_OUT, RATE, HIST_OUT];
const BENCH_MODELS: &[Flag] = &[QUICK, OUT, CV_THREADS, CACHE_DIR, JOURNAL];
#[rustfmt::skip]
const SERVE: &[Flag] = &[
    ADDR, FULL, WORKERS, QUEUE_DEPTH, TIMEOUT_MS, MAX_BODY_BYTES, KEEPALIVE_MAX, SLOW_MS,
    FLIGHT_CAPACITY, RETRY_AFTER_SECS, CACHE_DIR, LOG_JSON,
];

/// Every command: the words that select it, its positional arguments, its
/// summary, its flag tables and its decoder. A flag outside a command's
/// tables exits 2 naming it; `--help` prints the command's usage. A
/// pipeline experiment runs through [`exp::common`], whose flag says
/// whether its manifest records the CV protocol.
#[rustfmt::skip]
const COMMANDS: &[Command<Run>] = &[
    cmd("list", "", "dataset kernels", &[], |_| run_with(Ok(()), |_| cmd_list())),
    cmd("pretty", "<kernel>", "pseudo-C source", &[KERNEL], kernel),
    cmd("features", "<kernel>", "static features", &[KERNEL], kernel),
    cmd("disasm", "<kernel>", "lowered program", &[KERNEL, &[TEAM]], kernel),
    cmd("measure", "<kernel>", "energy at 1..=8 cores", &[KERNEL], kernel),
    cmd("classify", "<kernel>", "train + predict", &[KERNEL], kernel),
    cmd("mca", "<kernel>", "LLVM-MCA-style report", &[KERNEL], kernel),
    cmd("profile", "<kernel>", "stall causes + energy, 1..=8 cores", &[KERNEL, &[MAX_CYCLES]], kernel),
    cmd("trace", "<kernel>", "GVSOC-style (or --chrome) trace", &[KERNEL, &[TEAM, CHROME, MAX_CYCLES]], kernel),
    cmd("cache stats", "", "sweep-cache usage", &[&[CACHE_DIR]], |c| run_with(cache_dir(c), |d| cmd_cache_stats(d))),
    cmd("cache clear", "", "delete cached sweeps", &[&[CACHE_DIR]], |c| run_with(cache_dir(c), |d| cmd_cache_clear(d))),
    cmd("serve", "", "HTTP prediction service", &[SERVE], |c| run_with(serve_args(c), cmd_serve)),
    cmd("bench diff", "OLD NEW", "regression gate (headline/sim/serve/models)", &[P99],
        |c| run_with(gate_args(c), |(p, tol)| cmd_bench_diff(&p[0], &p[1], *tol))),
    cmd("bench history", "DIR", "benchmark trajectory over committed records", &[P99],
        |c| run_with(gate_args(c), |(p, tol)| cmd_bench_history(&p[0], *tol))),
    cmd("bench sim", "", "simulator benchmark", &[BENCH_SIM], |c| run_with(bench_args(c), cmd_bench_sim)),
    cmd("bench serve", "", "serving-layer benchmark", &[BENCH_SERVE], |c| run_with(bench_args(c), cmd_bench_serve)),
    cmd("bench models", "", "model-zoo benchmark", &[BENCH_MODELS], |c| run_with(bench_args(c), cmd_bench_models)),
    cmd("report", "RUN.jsonl", "deterministic report from a run journal", &[],
        |c| run_with(Ok(c.positionals()[0].clone()), |path| cmd_report(path))),
    cmd("journal validate", "RUN...", "structural check of run journals", &[],
        |c| run_with(Ok(c.positionals().to_vec()), |paths| cmd_journal_validate(paths))),
    cmd("exp table1-energy-model", "", "E1 Table I", &[COMMON_FLAGS], |c| exp::common(c, false, exp::table1_energy_model::run)),
    cmd("exp dataset-stats", "", "E2 dataset statistics", &[COMMON_FLAGS], |c| exp::common(c, false, exp::dataset_stats::run)),
    cmd("exp fig2-left", "", "E3 Figure 2 (left)", &[COMMON_FLAGS], |c| exp::common(c, true, exp::fig2_left::run)),
    cmd("exp fig2-right", "", "E4 Figure 2 (right)", &[COMMON_FLAGS], |c| exp::common(c, true, exp::fig2_right::run)),
    cmd("exp table4-importance", "", "E5 Table IV", &[COMMON_FLAGS], |c| exp::common(c, true, exp::table4_importance::run)),
    cmd("exp headline", "", "E6 headline numbers + BENCH record", exp::headline::TABLES, exp::headline::command),
    cmd("exp ablation-platform", "", "E7 platform ablation", &[COMMON_FLAGS], |c| exp::common(c, false, exp::ablation_platform::run)),
    cmd("exp unroll-ablation", "", "E9 unrolling sensitivity", &[COMMON_FLAGS], |c| exp::common(c, false, exp::unroll_ablation::run)),
    cmd("exp learning-curve", "", "E10 learning curve", &[COMMON_FLAGS], |c| exp::common(c, true, exp::learning_curve::run)),
    cmd("exp cluster-sweep", "", "E11 cluster shapes", &[COMMON_FLAGS], |c| exp::common(c, false, exp::cluster_sweep::run)),
    cmd("exp dataset-export", "", "the dataset as CSV", &[COMMON_FLAGS], |c| exp::common(c, false, exp::dataset_export::run)),
    cmd("exp suite-generalization", "", "E12 unseen suites/kernels", &[COMMON_FLAGS],
        |c| exp::common(c, false, exp::suite_generalization::run)),
    cmd("exp telemetry-guard", "", "no-op telemetry stays zero-cost", &[exp::telemetry_guard::FLAGS],
        |c| run_with(exp::telemetry_guard::decode(c), exp::telemetry_guard::run)),
    cmd("exp profile-report", "", "stall causes + energy of the quick kernels", &[exp::profile_report::FLAGS],
        |c| run_with(exp::profile_report::decode(c), exp::profile_report::run)),
];

/// One row of [`COMMANDS`].
const fn cmd(
    name: &'static str,
    args: &'static str,
    about: &'static str,
    tables: &'static [&'static [Flag]],
    decode: fn(&Cli) -> Result<Run, String>,
) -> Command<Run> {
    Command {
        name,
        args,
        about,
        tables,
        decode,
    }
}

/// The [`Run`] of a command whose decoded arguments are `args`: `command`
/// applied to them.
fn run_with<A: 'static>(
    args: Result<A, String>,
    command: fn(&A) -> ExitCode,
) -> Result<Run, String> {
    let args = args?;
    Ok(Box::new(move || command(&args)))
}

/// A command that takes a kernel, with the flags its table declares.
struct KernelArgs {
    command: &'static str,
    name: String,
    dtype: Option<DType>,
    size: usize,
    team: usize,
    chrome: Option<String>,
    max_cycles: Option<u64>,
}

fn kernel_args(cli: &Cli) -> Result<KernelArgs, String> {
    Ok(KernelArgs {
        command: cli.command(),
        name: cli.positionals()[0].clone(),
        dtype: match cli.choice("--dtype", &["i32", "f32"])? {
            Some("i32") => Some(DType::I32),
            Some(_) => Some(DType::F32),
            None => None,
        },
        size: cli.positive("--size")?.unwrap_or(2048),
        team: cli.positive("--team")?.unwrap_or(4),
        chrome: cli.string("--chrome"),
        max_cycles: CommonArgs::from_cli(cli)?.max_cycles,
    })
}

/// The decoder of every command that takes a kernel.
fn kernel(cli: &Cli) -> Result<Run, String> {
    run_with(kernel_args(cli), run_kernel)
}

/// `cache stats|clear` need the directory.
fn cache_dir(cli: &Cli) -> Result<PathBuf, String> {
    cli.path("--cache-dir")
        .ok_or_else(|| "--cache-dir <dir> is required".to_string())
}

/// `bench diff|history`: the record paths and the serve p99 bound.
fn gate_args(cli: &Cli) -> Result<(Vec<String>, f64), String> {
    let tolerance = cli.positive_f64("--p99-tolerance")?;
    Ok((
        cli.positionals().to_vec(),
        tolerance.unwrap_or(SERVE_P99_TOLERANCE),
    ))
}

/// `serve`'s command line: the shared flags, the address and the
/// capacity knobs.
struct ServeArgs {
    common: CommonArgs,
    addr: String,
    serve: ServeOptions,
}

fn serve_args(cli: &Cli) -> Result<ServeArgs, String> {
    let d = ServeOptions::default();
    Ok(ServeArgs {
        common: CommonArgs {
            quick: !cli.switch("--full"),
            ..CommonArgs::from_cli(cli)?
        },
        addr: cli
            .string("--addr")
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        serve: ServeOptions {
            workers: cli.positive("--workers")?.unwrap_or(d.workers),
            queue_depth: cli.positive("--queue-depth")?.unwrap_or(d.queue_depth),
            timeout_ms: cli.positive("--timeout-ms")?.unwrap_or(d.timeout_ms),
            max_body_bytes: cli
                .positive("--max-body-bytes")?
                .unwrap_or(d.max_body_bytes),
            keepalive_max_requests: cli
                .positive("--keepalive-max")?
                .unwrap_or(d.keepalive_max_requests),
            slow_ms: cli.non_negative("--slow-ms")?.unwrap_or(d.slow_ms),
            flight_capacity: cli
                .positive("--flight-capacity")?
                .unwrap_or(d.flight_capacity),
            retry_after_secs: cli
                .positive("--retry-after-secs")?
                .unwrap_or(d.retry_after_secs),
        },
    })
}

/// `bench sim|serve|models`' command line: the shared flags, the record
/// path and each bench's own knobs.
struct BenchArgs {
    common: CommonArgs,
    out: Option<String>,
    iters: Option<u32>,
    rate: Option<f64>,
    trace_out: Option<String>,
    hist_out: Option<String>,
}

fn bench_args(cli: &Cli) -> Result<BenchArgs, String> {
    Ok(BenchArgs {
        common: CommonArgs::from_cli(cli)?,
        out: cli.string("--out"),
        iters: cli.positive("--iters")?,
        rate: cli.positive_f64("--rate")?,
        trace_out: cli.string("--trace-out"),
        hist_out: cli.string("--hist-out"),
    })
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
/// default [`SERVE_P99_TOLERANCE`]), `"models"` on per-model accuracy and
/// flat/float parity, anything else on the headline `accuracy` map.
/// Returns the regressions found.
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

/// `bench diff OLD NEW`: fails (exit 1) on any regression
/// [`bench_regressions_with`] finds.
fn cmd_bench_diff(old_path: &str, new_path: &str, p99_tolerance: f64) -> ExitCode {
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
    match bench_regressions_with(&old, &new, p99_tolerance) {
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
fn cmd_bench_history(dir: &str, p99_tolerance: f64) -> ExitCode {
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
            match bench_regressions_with(old, new, p99_tolerance) {
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

/// Runs the simulator performance benchmark — the fixed kernel baskets at
/// 1/2/4/8 cores, fast-forward against the single-step oracle — and
/// writes `BENCH_sim.json` (or `--out PATH`). Fails if any fast-forward
/// run diverges from its oracle or if the barrier/DMA basket never skips
/// a cycle.
fn cmd_bench_sim(args: &BenchArgs) -> ExitCode {
    let common = &args.common;
    let mut opts = if common.quick {
        SimBenchOptions::quick()
    } else {
        SimBenchOptions::default()
    };
    opts.max_cycles = common.max_cycles.unwrap_or(opts.max_cycles);
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

fn cmd_serve(args: &ServeArgs) -> ExitCode {
    let common = &args.common;
    let log = common.logger();
    let opts = common.pipeline_options();
    log.info(
        "serve",
        "training model (this simulates the training sweep unless cached)...",
        &[(
            "profile",
            if common.quick { "quick" } else { "full" }.to_string(),
        )],
    );
    let serve_opts = args.serve;
    // The request-path logger moves into the server state: slow-request
    // lines from worker threads honour `--log-json` too.
    let state = Arc::new(
        ServeState::train(&opts)
            .with_flight_capacity(serve_opts.flight_capacity)
            .with_logger(common.logger()),
    );
    let addr = args.addr.as_str();
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

/// Runs the serving-layer load benchmark — the server in-process, driven
/// by concurrent keep-alive clients over kernel-name, raw-feature and
/// batch mixes, closed and open loop — and writes `BENCH_serve.json` (or
/// `--out PATH`); `--trace-out` adds the flight recorder's Chrome trace of
/// the load. Fails on correctness errors, a batch/sequential divergence,
/// or (in the quick profile) any shed or timeout.
fn cmd_bench_serve(args: &BenchArgs) -> ExitCode {
    let mut opts = if args.common.quick {
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
/// protocol, checks flat/float parity on the full dataset, and runs
/// through the same [`RunContext`] (manifest + journal) as the
/// experiments.
fn cmd_bench_models(args: &BenchArgs) -> ExitCode {
    let mut ctx = RunContext::new("bench_models", args.common.clone(), true);
    let protocol = ctx.protocol;
    eprintln!(
        "bench models: {} run ({} folds x {} repeats, cv-threads {})...",
        if ctx.args.quick { "quick" } else { "full" },
        protocol.folds,
        protocol.repeats,
        if protocol.cv_threads == 0 {
            "all".to_string()
        } else {
            protocol.cv_threads.to_string()
        }
    );
    let data = ctx.dataset();
    let mut report = run_models_bench(&data, &protocol, ctx.args.quick);
    for row in &report.rows {
        let record = |name: String, value: f64| pulp_obs::JournalEvent::BenchRecord {
            bench: "models".to_string(),
            name,
            value,
        };
        ctx.event(record(
            format!("{}_static_at_5", row.model),
            row.static_at_5,
        ));
        if let Some(m) = row.flat_mismatches {
            ctx.event(record(format!("{}_flat_mismatches", row.model), m as f64));
        }
    }
    report.manifest_hash = ctx.finish(&report).manifest_hash();
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

/// Runs a kernel command on the named kernel, built at `--dtype` /
/// `--size`: exit 2 (a usage error) when the name is unknown, the dtype
/// unsupported or the build fails, exit 1 when the command fails.
fn run_kernel(args: &KernelArgs) -> ExitCode {
    let Some(kernel) = kernel_arg(args, &registry()) else {
        return ExitCode::from(2);
    };
    cmd_kernel(args, &kernel).map_or_else(
        |e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        },
        |()| ExitCode::SUCCESS,
    )
}

/// The named kernel, or `None` after reporting why on stderr.
fn kernel_arg(args: &KernelArgs, defs: &[KernelDef]) -> Option<Kernel> {
    let name = &args.name;
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
fn cmd_kernel(args: &KernelArgs, kernel: &Kernel) -> Result<(), String> {
    let config = ClusterConfig::default();
    let name = &args.name;
    let budget = args.max_cycles.unwrap_or(DEFAULT_RUN_BUDGET);
    match args.command {
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

fn cmd_list() -> ExitCode {
    println!("{:<24} {:<10} dtypes", "kernel", "suite");
    for d in &registry() {
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

fn cmd_cache_stats(dir: &Path) -> ExitCode {
    match SweepCache::dir_stats(dir) {
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
    }
}

fn cmd_cache_clear(dir: &Path) -> ExitCode {
    match SweepCache::clear(dir) {
        Ok(removed) => {
            println!("removed {removed} cached sweep(s) from {}", dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot clear {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    cli::parse_env(COMMANDS)()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Selects the command `line` names and decodes it with `decode`.
    fn parse<T>(line: &str, decode: fn(&Cli) -> Result<T, String>) -> Option<T> {
        let (_, cli) = cli::select("pulp_cli", COMMANDS, argv(line)).ok()?;
        decode(&cli).ok()
    }

    /// Whether `line` decodes into a command that would run.
    fn accepted(line: &str) -> bool {
        cli::dispatch("pulp_cli", COMMANDS, argv(line)).is_ok()
    }

    /// The name of the command `line` selects, and its positional arguments.
    fn selected(line: &str) -> (&'static str, Vec<String>) {
        let (cmd, cli) = cli::select("pulp_cli", COMMANDS, argv(line)).expect("selects");
        (cmd.name, cli.positionals().to_vec())
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
            assert!(accepted(line), "{line}");
        }
        // `--help` stops without a command; an unknown flag never runs.
        let help = cli::dispatch("pulp_cli", COMMANDS, argv("--help"));
        assert!(matches!(help, Err(cli::Stop::Help(_))));
        assert!(!accepted("bench serve --predictor float"));
    }

    #[test]
    fn parses_full_command_line() {
        let line = "disasm gemm --dtype i32 --size 512 --team 6";
        let a = parse(line, kernel_args).expect("parse");
        assert_eq!(a.command, "disasm");
        assert_eq!(a.name, "gemm");
        assert_eq!(a.dtype, Some(DType::I32));
        assert_eq!(a.size, 512);
        assert_eq!(a.team, 6);
        // `--team` belongs to disasm and trace only.
        assert!(!accepted("measure gemm --team 6"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("pretty fir", kernel_args).expect("parse");
        assert_eq!(a.dtype, None);
        assert_eq!(a.size, 2048);
        assert_eq!(a.team, 4);
    }

    #[test]
    fn rejects_bad_dtype_and_flags() {
        assert!(!accepted("measure gemm --dtype f64"));
        assert!(!accepted("measure gemm --bogus"));
        assert!(!accepted(""));
    }

    #[test]
    fn chrome_flag_takes_a_path() {
        let a = parse("trace fir --chrome out.json", kernel_args).expect("parse");
        assert_eq!(a.chrome.as_deref(), Some("out.json"));
        assert!(!accepted("trace fir --chrome"));
    }

    #[test]
    fn serve_and_bench_subcommands_parse() {
        let line = "serve --addr 0.0.0.0:9000 --full";
        let a = parse(line, serve_args).expect("parse");
        assert_eq!(selected(line).0, "serve");
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert!(!a.common.quick);

        let (name, rest) = selected("bench diff old.json new.json");
        assert_eq!(name, "bench diff");
        assert_eq!(rest, vec!["old.json".to_string(), "new.json".to_string()]);
    }

    #[test]
    fn bench_sim_flags_parse_strictly() {
        let line = "bench sim --quick --out custom.json --max-cycles 5000";
        let a = parse(line, bench_args).expect("parse");
        assert_eq!(selected(line).0, "bench sim");
        assert!(a.common.quick);
        assert_eq!(a.out.as_deref(), Some("custom.json"));
        assert_eq!(a.common.max_cycles, Some(5_000));
        // Zero, negative and garbage budgets are rejected outright.
        assert!(!accepted("bench sim --max-cycles 0"));
        assert!(!accepted("bench sim --max-cycles -3"));
        assert!(!accepted("bench sim --max-cycles many"));
        assert!(!accepted("bench sim --max-cycles"));
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
        let a = parse(
            "serve --workers 8 --queue-depth 128 --timeout-ms 250 --max-body-bytes 4096 --keepalive-max 32",
            serve_args,
        )
        .expect("parse");
        let o = a.serve;
        assert_eq!((o.workers, o.queue_depth, o.timeout_ms), (8, 128, 250));
        assert_eq!((o.max_body_bytes, o.keepalive_max_requests), (4096, 32));
        // Defaults flow through when flags are absent.
        let defaults = parse("serve", serve_args).expect("parse").serve;
        assert_eq!(defaults, ServeOptions::default());
        // Zero, negatives and garbage are rejected outright.
        assert!(!accepted("serve --workers 0"));
        assert!(!accepted("serve --queue-depth -1"));
        assert!(!accepted("serve --timeout-ms soon"));
        assert!(!accepted("serve --max-body-bytes"));
    }

    #[test]
    fn retry_after_flag_parses_strictly_and_reaches_the_options() {
        let a = parse("serve --retry-after-secs 5", serve_args).expect("parse");
        assert_eq!(a.serve.retry_after_secs, 5);
        // Default is 1 second, unchanged from the pre-flag behaviour.
        let d = parse("serve", serve_args).expect("parse").serve;
        assert_eq!(d.retry_after_secs, 1);
        // Zero, negatives and garbage are rejected outright.
        assert!(!accepted("serve --retry-after-secs 0"));
        assert!(!accepted("serve --retry-after-secs -2"));
        assert!(!accepted("serve --retry-after-secs soon"));
        assert!(!accepted("serve --retry-after-secs"));
    }

    #[test]
    fn open_loop_flags_parse_strictly() {
        let a = parse(
            "bench serve --quick --rate 750.5 --hist-out H.json",
            bench_args,
        )
        .expect("parse");
        assert_eq!(a.rate, Some(750.5));
        assert_eq!(a.hist_out.as_deref(), Some("H.json"));
        // Zero, negatives, garbage and missing values are rejected.
        assert!(!accepted("bench serve --rate 0"));
        assert!(!accepted("bench serve --rate -100"));
        assert!(!accepted("bench serve --rate fast"));
        assert!(!accepted("bench serve --rate inf"));
        assert!(!accepted("bench serve --hist-out"));
    }

    #[test]
    fn bench_serve_subcommand_parses() {
        let line = "bench serve --quick --out S.json";
        let a = parse(line, bench_args).expect("parse");
        assert_eq!(selected(line).0, "bench serve");
        assert!(a.common.quick);
        assert_eq!(a.out.as_deref(), Some("S.json"));
        let line = "bench serve --quick --trace-out T.json";
        let a = parse(line, bench_args).expect("parse");
        assert_eq!(a.trace_out.as_deref(), Some("T.json"));
        assert!(!accepted("bench serve --trace-out"));
    }

    #[test]
    fn observability_flags_parse_strictly() {
        let a = parse(
            "serve --slow-ms 0 --flight-capacity 512 --log-json",
            serve_args,
        )
        .expect("parse");
        assert!(a.common.log_json);
        let o = a.serve;
        assert_eq!((o.slow_ms, o.flight_capacity), (0, 512));
        // Defaults flow through when the flags are absent.
        let d = parse("serve", serve_args).expect("parse").serve;
        assert_eq!(d.slow_ms, ServeOptions::default().slow_ms);
        assert_eq!(d.flight_capacity, ServeOptions::default().flight_capacity);
        // Garbage and missing values are rejected outright.
        assert!(!accepted("serve --slow-ms fast"));
        assert!(!accepted("serve --slow-ms -1"));
        assert!(!accepted("serve --flight-capacity 0"));
        assert!(!accepted("serve --flight-capacity"));
    }

    #[test]
    fn p99_tolerance_parses_and_tightens_the_serve_gate() {
        let line = "bench diff a.json b.json --p99-tolerance 0.10";
        assert_eq!(parse(line, gate_args).map(|a| a.1), Some(0.10));
        let default = parse("bench diff a.json b.json", gate_args);
        assert_eq!(default.map(|a| a.1), Some(SERVE_P99_TOLERANCE));
        assert!(!accepted("bench diff a.json b.json --p99-tolerance 0"));
        assert!(!accepted("bench diff a.json b.json --p99-tolerance x"));
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
        let line = "bench models --quick --out M.json --cv-threads 4 --journal R.jsonl";
        let a = parse(line, bench_args).expect("parse");
        assert_eq!(selected(line).0, "bench models");
        assert!(a.common.quick);
        assert_eq!(a.out.as_deref(), Some("M.json"));
        assert_eq!(a.common.cv_threads, 4);
        assert_eq!(a.common.journal, Some(PathBuf::from("R.jsonl")));
        // `--cv-threads` has one decoder everywhere: 0 means all cores,
        // as in every experiment.
        let all = parse("bench models --cv-threads 0", bench_args).expect("parse");
        assert_eq!(all.common.cv_threads, 0);
        // Garbage, negative and missing cv-thread counts are rejected.
        assert!(!accepted("bench models --cv-threads x"));
        assert!(!accepted("bench models --cv-threads -1"));
        assert!(!accepted("bench models --cv-threads"));
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
        let (name, rest) = selected("report RUN.jsonl");
        assert_eq!(name, "report");
        assert_eq!(rest, vec!["RUN.jsonl".to_string()]);
        assert!(!accepted("report") && !accepted("report a.jsonl b.jsonl"));

        let (name, rest) = selected("journal validate a.jsonl b.jsonl");
        assert_eq!(name, "journal validate");
        assert_eq!(rest, vec!["a.jsonl".to_string(), "b.jsonl".to_string()]);
        assert!(!accepted("journal validate"));

        let (name, rest) = selected("bench history baselines");
        assert_eq!(name, "bench history");
        assert_eq!(rest, vec!["baselines".to_string()]);

        let line = "bench sim --quick --journal R.jsonl";
        let a = parse(line, bench_args).expect("parse");
        assert_eq!(a.common.journal, Some(PathBuf::from("R.jsonl")));
        assert!(!accepted("bench sim --journal"));
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
        let line = "cache stats --cache-dir /tmp/sweeps";
        assert_eq!(selected(line).0, "cache stats");
        assert_eq!(parse(line, cache_dir), Some(PathBuf::from("/tmp/sweeps")));
        assert!(!accepted("cache clear --cache-dir"));
        // The directory is required, and the action must be known.
        assert!(!accepted("cache stats"));
        assert!(!accepted("cache purge --cache-dir /tmp/sweeps"));
    }

    /// Every command prints its own usage for `--help` and rejects every
    /// flag that only other commands declare, naming it.
    #[test]
    fn every_command_keeps_its_own_flag_table() {
        let flags = |c: &Command<Run>| -> Vec<&'static str> {
            c.tables
                .iter()
                .flat_map(|t| t.iter().map(|f| f.name))
                .collect()
        };
        let all: Vec<&str> = COMMANDS.iter().flat_map(flags).collect();
        for cmd in COMMANDS {
            let own = flags(cmd);
            let help = cli::dispatch("pulp_cli", COMMANDS, argv(&format!("{} -h", cmd.name)));
            let Err(cli::Stop::Help(usage)) = help else {
                panic!("{}: --help did not stop with the usage", cmd.name);
            };
            assert!(
                usage.starts_with(&format!("usage: pulp_cli {} ", cmd.name)),
                "{usage}"
            );
            for flag in &own {
                assert!(usage.contains(flag), "{}: usage misses {flag}", cmd.name);
            }
            for flag in all.iter().filter(|f| !own.contains(f)) {
                let line = format!("{} {flag}", cmd.name);
                match cli::dispatch("pulp_cli", COMMANDS, argv(&line)) {
                    Err(cli::Stop::Error(e)) => {
                        assert!(e.contains(&format!("unknown flag `{flag}`")), "{e}")
                    }
                    _ => panic!("{} accepted {flag}", cmd.name),
                }
            }
        }
        for (line, want) in [
            (
                "list --rate 5 --workers 3 --hist-out h.txt",
                "unknown flag `--rate`",
            ),
            ("exp fig2-left --workers 3", "unknown flag `--workers`"),
            ("report x.jsonl --quick", "unknown flag `--quick`"),
            ("report", "missing RUN.jsonl"),
            ("list extra", "unexpected argument `extra`"),
            ("", "missing command"),
            ("--quick exp headline", "missing command before `--quick`"),
            ("bench nope", "unknown command `bench nope`"),
        ] {
            let Err(cli::Stop::Error(e)) = cli::dispatch("pulp_cli", COMMANDS, argv(line)) else {
                panic!("`{line}` did not stop with an error");
            };
            assert!(e.contains(want), "{line}: {e}");
        }
        // Without a command, `--help` lists every command.
        let Err(cli::Stop::Help(all)) = cli::dispatch("pulp_cli", COMMANDS, argv("-h")) else {
            panic!("-h without a command");
        };
        assert!(COMMANDS.iter().all(|c| all.contains(c.name)));
    }
}
