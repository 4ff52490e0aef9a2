//! `exp profile-report` — cycle-attribution and energy waterfall sweep.
//!
//! Profiles the quick kernel subset at every team size and prints, per
//! run, total cycles, energy and the dominant non-execute stall cause.
//! `--detail` additionally prints the full per-core stall table and the
//! energy waterfall of the single most interesting run per kernel (its
//! minimum-energy team).

use kernel_ir::{lower, DType};
use pulp_bench::cli::{Cli, Flag};
use pulp_bench::{profile_run, QUICK_KERNELS};
use pulp_energy_model::{energy_waterfall, EnergyModel};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{ClusterConfig, CycleCause};
use serde::Value;
use std::process::ExitCode;

#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag::valued("--size",   "bytes", "payload size (default: 2048)"),
    Flag::switch("--detail",          "stall table + energy waterfall of the best team"),
    Flag::valued("--json",   "path",  "dump the per-team breakdowns to <path>"),
    Flag::switch("--quiet",           "suppress the per-run table"),
];

pub struct Args {
    size: usize,
    detail: bool,
    json: Option<String>,
    quiet: bool,
}

pub fn decode(cli: &Cli) -> Result<Args, String> {
    cli.no_positionals()?;
    Ok(Args {
        size: cli.positive("--size")?.unwrap_or(2048),
        detail: cli.switch("--detail"),
        json: cli.string("--json"),
        quiet: cli.switch("--quiet"),
    })
}

/// The cause (other than plain execution) that claimed the most cycles.
fn dominant_stall(b: &pulp_sim::CycleBreakdown) -> (CycleCause, u64) {
    CycleCause::ALL
        .iter()
        .filter(|c| !matches!(c, CycleCause::Execute | CycleCause::ExecTail))
        .map(|&c| (c, b.count(c)))
        .max_by_key(|&(_, n)| n)
        .unwrap_or((CycleCause::Idle, 0))
}

pub fn run(args: &Args) -> ExitCode {
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let defs = registry();
    let mut json_kernels: Vec<(String, Value)> = Vec::new();

    if !args.quiet {
        println!(
            "{:<20} {:>4} {:>10} {:>12} {:>7} {:<14}",
            "kernel", "team", "cycles", "energy [uJ]", "exec%", "top stall"
        );
    }
    for name in QUICK_KERNELS {
        let Some(def) = defs.iter().find(|d| d.name == *name) else {
            eprintln!("quick kernel {name} missing from registry");
            return ExitCode::FAILURE;
        };
        let dtype = if def.supports(DType::F32) {
            DType::F32
        } else {
            DType::I32
        };
        let kernel = match def.build(&KernelParams::new(dtype, args.size)) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("cannot instantiate {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut best: Option<(usize, f64)> = None;
        let mut team_values: Vec<Value> = Vec::new();
        for team in 1..=config.num_cores {
            let run = match lower(&kernel, team, &config)
                .map_err(|e| e.to_string())
                .and_then(|l| {
                    profile_run(&config, &l.program, 100_000_000).map_err(|e| e.to_string())
                }) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{name} team {team}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let totals = run.stats.breakdown_totals();
            debug_assert_eq!(
                totals.total(),
                run.stats.cycles * run.stats.cores.len() as u64
            );
            let fj = energy_waterfall(&run.stats, &model, &config).total();
            let exec_pct = 100.0 * totals.execute as f64 / totals.total() as f64;
            let (cause, n) = dominant_stall(&totals);
            if !args.quiet {
                println!(
                    "{:<20} {:>4} {:>10} {:>12.4} {:>6.1}% {:<10} ({n})",
                    name,
                    team,
                    run.stats.cycles,
                    fj * 1e-9,
                    exec_pct,
                    cause.token()
                );
            }
            if best.is_none_or(|(_, e)| fj < e) {
                best = Some((team, fj));
            }
            team_values.push(Value::Map(vec![
                ("team".to_string(), Value::U64(team as u64)),
                ("cycles".to_string(), Value::U64(run.stats.cycles)),
                ("energy_fj".to_string(), Value::F64(fj)),
                (
                    "breakdown".to_string(),
                    Value::Map(
                        totals
                            .iter()
                            .map(|(c, v)| (c.token().to_string(), Value::U64(v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        if args.detail {
            let (team, _) = best.expect("at least one team");
            let lowered = lower(&kernel, team, &config).expect("lowering succeeded above");
            let run = profile_run(&config, &lowered.program, 100_000_000)
                .expect("simulation succeeded above");
            println!("-- {name} detail (minimum-energy team {team}) --");
            print!("{}", run.stats.summary());
            print!("{}", energy_waterfall(&run.stats, &model, &config));
        }
        json_kernels.push((name.to_string(), Value::Seq(team_values)));
    }

    if let Some(path) = &args.json {
        let record = Value::Map(vec![
            ("size".to_string(), Value::U64(args.size as u64)),
            ("kernels".to_string(), Value::Map(json_kernels)),
        ]);
        let text = serde_json::to_string_pretty(&record).expect("value serialises");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!("[profile_report] wrote {path}");
        }
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
    fn documented_command_lines_parse() {
        let a = parse("--size 512 --detail --json out.json --quiet").expect("every flag");
        assert_eq!((a.size, a.detail, a.quiet), (512, true, true));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(parse("").expect("defaults").size, 2048);
        for bad in ["--size 0", "--size big", "--json", "--sise 1", "stray"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
