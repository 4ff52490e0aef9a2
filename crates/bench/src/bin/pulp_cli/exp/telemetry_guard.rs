//! `exp telemetry-guard` — keeps the telemetry hooks zero-cost.
//!
//! `simulate` monomorphises its generic telemetry parameter with
//! [`NoTelemetry`], whose hooks are empty `#[inline(always)]` methods, so
//! the instrumented loop must compile to the uninstrumented one. This
//! guard measures both entry points on the same workload, interleaved, and
//! compares medians: a real regression (someone making the hooks
//! non-inlinable or adding work outside them) shows up as a stable gap.
//!
//! Exits nonzero only with `--strict` (CI noise on shared runners makes a
//! hard default gate flaky; the 2% threshold is the contract).

use kernel_ir::{lower, DType};
use pulp_bench::cli::{Cli, Flag};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{
    simulate_instrumented, simulate_traced, ClusterConfig, NoTelemetry, NullSink, Program,
};
use std::process::ExitCode;
use std::time::Instant;

#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag::valued("--iters",     "n",   "timed runs per entry point (default: 21)"),
    Flag::valued("--threshold", "pct", "allowed median overhead in % (default: 2)"),
    Flag::switch("--strict",           "exit 1 when the overhead exceeds the threshold"),
];

pub struct Args {
    iters: usize,
    threshold: f64,
    strict: bool,
}

pub fn decode(cli: &Cli) -> Result<Args, String> {
    cli.no_positionals()?;
    Ok(Args {
        iters: cli.positive("--iters")?.unwrap_or(21),
        threshold: cli.positive_f64("--threshold")?.unwrap_or(2.0),
        strict: cli.switch("--strict"),
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn workload(config: &ClusterConfig) -> Program {
    let defs = registry();
    let def = defs
        .iter()
        .find(|d| d.name == "gemm")
        .expect("gemm in registry");
    // Large enough that one run takes tens of milliseconds: timing noise on
    // a shared runner stays well under the threshold being enforced.
    let kernel = def
        .build(&KernelParams::new(DType::F32, 32768))
        .expect("gemm instantiates");
    lower(&kernel, 8, config).expect("gemm lowers").program
}

pub fn run(args: &Args) -> ExitCode {
    let config = ClusterConfig::default();
    let program = workload(&config);

    // Warm up both paths once.
    let baseline_stats =
        simulate_traced(&config, &program, 100_000_000, &mut NullSink).expect("simulate");
    let hooked_stats = simulate_instrumented(
        &config,
        &program,
        100_000_000,
        &mut NullSink,
        &mut NoTelemetry,
    )
    .expect("simulate");
    assert_eq!(baseline_stats, hooked_stats, "both entry points must agree");

    let mut base = Vec::with_capacity(args.iters);
    let mut hooked = Vec::with_capacity(args.iters);
    for _ in 0..args.iters {
        let t = Instant::now();
        let s = simulate_traced(&config, &program, 100_000_000, &mut NullSink).expect("simulate");
        base.push(t.elapsed().as_secs_f64());
        std::hint::black_box(s.cycles);

        let t = Instant::now();
        let s = simulate_instrumented(
            &config,
            &program,
            100_000_000,
            &mut NullSink,
            &mut NoTelemetry,
        )
        .expect("simulate");
        hooked.push(t.elapsed().as_secs_f64());
        std::hint::black_box(s.cycles);
    }

    let cycles = baseline_stats.cycles as f64;
    let m_base = median(base);
    let m_hooked = median(hooked);
    let delta_pct = 100.0 * (m_hooked - m_base) / m_base;
    println!(
        "workload: gemm f32 32768B team 8 ({} cycles)",
        baseline_stats.cycles
    );
    println!(
        "baseline (simulate):              median {:>9.3} ms  {:>8.2} Mcycles/s",
        m_base * 1e3,
        cycles / m_base / 1e6
    );
    println!(
        "no-op telemetry (instrumented):   median {:>9.3} ms  {:>8.2} Mcycles/s",
        m_hooked * 1e3,
        cycles / m_hooked / 1e6
    );
    println!("delta: {delta_pct:+.2}% (threshold {:.2}%)", args.threshold);

    if delta_pct > args.threshold {
        eprintln!(
            "telemetry overhead exceeds the {:.2}% contract",
            args.threshold
        );
        if args.strict {
            return ExitCode::FAILURE;
        }
    } else {
        println!("OK: no-op telemetry is within the contract");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Cli::parse(line.split_whitespace().map(String::from), &[FLAGS]).and_then(|c| decode(&c))
    }

    #[test]
    fn ci_command_line_parses() {
        let a = parse("--iters 31 --threshold 2 --strict").expect("CI flags");
        assert_eq!((a.iters, a.threshold, a.strict), (31, 2.0, true));
        let d = parse("").expect("defaults");
        assert_eq!((d.iters, d.threshold, d.strict), (21, 2.0, false));
    }

    #[test]
    fn zero_iters_is_rejected() {
        // Regression: `--iters 0` panicked taking the median of no runs.
        let err = parse("--iters 0").err().expect("zero iterations");
        assert!(err.contains("--iters") && err.contains("`0`"), "{err}");
    }

    #[test]
    fn non_finite_threshold_is_rejected() {
        // Regression: `--threshold nan` made the gate always pass.
        for bad in ["nan", "inf", "0", "-1"] {
            let err = parse(&format!("--threshold {bad}"))
                .err()
                .expect("bad threshold");
            assert!(err.contains("--threshold") && err.contains(bad), "{err}");
        }
    }
}
