//! `repobench` — the repository's end-to-end benchmark.
//!
//! One process runs one workload (`sweep_cold`, `train_eval` or
//! `serve_open`) and prints, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--trace 1`
//! the metrics are the end-to-end ones; with it, the per-layer ones,
//! measured by timing calls into each layer's public functions from the
//! outside. `prepare` fills the warm workloads' sweep cache; `reference`
//! regenerates the stored correctness references.
//! See `README.md` next to this crate for the metric table.

mod layers;
mod serve;
mod sweep;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory of this benchmark (reference files).
    pub bench_dir: PathBuf,
    /// Scratch directory for caches, journals and trace files.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: repobench <sweep_cold|train_eval|serve_open|prepare|reference> \
[--seed N] [--seconds S] [--trace 0|1] [--bench-dir DIR] [--work-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 0,
        seconds: 35.0,
        trace: false,
        bench_dir: PathBuf::from("repobench"),
        work_dir: PathBuf::from("repobench/target/work"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            "--bench-dir" => args.bench_dir = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Outcome of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the measurement itself cannot be trusted (e.g. a late load
    /// generator); any entry marks the run incorrect.
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports `setup_s` as the median of the set-up repetitions.
    pub fn setup(&mut self, samples: &[f64]) {
        let range = samples
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        eprintln!(
            "[repobench] set-up x{}: min {:.6}s median {:.6}s max {:.6}s",
            samples.len(),
            range.0,
            median(samples),
            range.1
        );
        self.metric("setup_s", median(samples), "s");
    }

    /// Counts `attempted` checks of which `failed` did not hold.
    pub fn checked(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("[repobench] check failed: {what} ({failed} of {attempted})");
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form, always with a fraction or exponent
/// so JSON readers see a number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The measurement window of one run: another repetition starts only if
/// its estimated duration still fits.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn admits(&self, next_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + next_s <= self.seconds
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let run = match args.workload.as_str() {
        "sweep_cold" => sweep::run,
        "train_eval" => train::run,
        "serve_open" => serve::run,
        "prepare" => {
            return match train::prepare_cache(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("prepare: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "reference" => {
            return match sweep::write_reference(&args).and_then(|()| train::write_reference(&args))
            {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("reference: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[repobench] {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    for reason in &report.invalid {
        eprintln!("[repobench] invalid run: {reason}");
    }
    eprintln!(
        "[repobench] {} seed={} trace={}: attempted {} failed {} (error_share {:.6})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &report.metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
