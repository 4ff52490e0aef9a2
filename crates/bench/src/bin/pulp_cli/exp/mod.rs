//! `pulp_cli exp <name>`: the experiments of DESIGN.md §5, one module
//! each. The twelve pipeline experiments decode [`CommonArgs`] and run
//! through one [`RunContext`] under their historical tool name
//! (`exp fig2-left` is `fig2_left`, the module's name), which their
//! manifests and journals carry. `telemetry-guard` and `profile-report`
//! take their own flags and write neither.

pub mod ablation_platform;
pub mod cluster_sweep;
pub mod dataset_export;
pub mod dataset_stats;
pub mod fig2_left;
pub mod fig2_right;
pub mod headline;
pub mod learning_curve;
pub mod profile_report;
pub mod suite_generalization;
pub mod table1_energy_model;
pub mod table4_importance;
pub mod telemetry_guard;
pub mod unroll_ablation;

use crate::Run;
use pulp_bench::cli::Cli;
use pulp_bench::{CommonArgs, RunContext};
use std::process::ExitCode;

/// Runs `body` through one [`RunContext`] for the experiment `cli`
/// selected; with `records_protocol` its manifest and journal record the
/// CV protocol.
pub fn wired(
    cli: &Cli,
    args: CommonArgs,
    records_protocol: bool,
    body: impl FnOnce(RunContext) + 'static,
) -> Run {
    let tool = cli.command().trim_start_matches("exp ").replace('-', "_");
    Box::new(move || {
        body(RunContext::new(&tool, args, records_protocol));
        ExitCode::SUCCESS
    })
}

/// The decoder of an experiment that takes exactly the common flags.
pub fn common(cli: &Cli, records_protocol: bool, body: fn(RunContext)) -> Result<Run, String> {
    Ok(wired(
        cli,
        CommonArgs::from_cli(cli)?,
        records_protocol,
        body,
    ))
}

#[cfg(test)]
mod tests {
    use crate::{Run, COMMANDS};
    use pulp_bench::cli::{self, Command};
    use std::process::ExitCode;

    /// Every pipeline experiment, run in-process at `--quick`, writes a
    /// journal that validates, ends `ok`, renders, carries the
    /// experiment's historical tool name and records the experiment's work
    /// (at least one event besides `run_start` and `run_end`).
    #[test]
    fn every_experiment_writes_a_valid_journal() {
        let dir = std::env::temp_dir().join(format!("pulp-cli-exp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journaled = |c: &&Command<Run>| {
            c.tables
                .iter()
                .flat_map(|t| *t)
                .any(|f| f.name == "--journal")
        };
        let mut tools = Vec::new();
        for cmd in COMMANDS
            .iter()
            .filter(|c| c.name.starts_with("exp "))
            .filter(journaled)
        {
            let tool = cmd.name["exp ".len()..].replace('-', "_");
            let journal = dir.join(format!("{tool}.jsonl"));
            let mut line = format!(
                "{} --quick --quiet --no-manifest --journal {}",
                cmd.name,
                journal.display()
            );
            if tool == "headline" {
                line += &format!(" --bench-out {}", dir.join("B.json").display());
            }
            let run = cli::dispatch(
                "pulp_cli",
                COMMANDS,
                line.split(' ').map(String::from).collect(),
            );
            assert_eq!(run.expect("decodes")(), ExitCode::SUCCESS, "{line}");
            let read = pulp_obs::JournalReader::read_file(&journal)
                .unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(read.ok() && read.run_start().0 == tool, "{line}");
            assert!(
                read.events.iter().any(|ev| !matches!(
                    ev,
                    pulp_obs::JournalEvent::RunStart { .. } | pulp_obs::JournalEvent::RunEnd { .. }
                )),
                "{line}: the journal holds only run_start and run_end"
            );
            assert!(pulp_obs::render_report(&read).contains(&tool), "{line}");
            tools.push(tool);
        }
        #[rustfmt::skip]
        assert_eq!(tools, [
            "table1_energy_model", "dataset_stats", "fig2_left", "fig2_right", "table4_importance", "headline",
            "ablation_platform", "unroll_ablation", "learning_curve", "cluster_sweep", "dataset_export",
            "suite_generalization",
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
