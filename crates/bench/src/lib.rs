//! # pulp-bench — experiment harness
//!
//! One binary, `pulp_cli`: `pulp_cli exp <name>` regenerates each table
//! and figure of the paper (DESIGN.md §5, EXPERIMENTS.md); its other
//! commands drive the benchmarks, the server and the inspection tools.
//!
//! Every command declares its flags in [`cli::Flag`] tables and parses
//! them with the one strict parser in [`cli`]: an unknown flag, a missing
//! value or a malformed value names the flag on stderr and exits 2 before
//! anything runs, and `--help`/`-h` prints the usage generated from the
//! same tables and exits 0.
//!
//! All pipeline experiments accept [`COMMON_FLAGS`] and run through one
//! [`RunContext`], which owns the run journal, the `--json` record and the
//! run manifest. `--quick` runs the reduced dataset and CV protocol, and
//! `--cache-dir <dir>` is the only dataset cache: a content-addressed
//! per-sample sweep store, so a warm rerun simulates nothing. Without it
//! every run simulates the whole dataset. Predictions are bit-identical at
//! any `--threads` or `--cv-threads` value.

pub mod cli;
pub mod models_bench;
pub mod net;
pub mod profiling;
pub mod serve;
pub mod serve_bench;
pub mod sim_bench;

pub use models_bench::{run_models_bench, ModelsBenchReport, ModelsBenchRow, MODELS};
pub use profiling::{
    chrome_trace_of_run, profile_run, recorder_of_run, CauseRun, CoreTimeline, ProfiledRun,
};
pub use serve_bench::{
    run_serve_bench, OpenLoopReport, ServeBenchMixRow, ServeBenchOptions, ServeBenchReport,
    ServeBenchRun,
};
pub use sim_bench::{basket_program, run_sim_bench, SimBenchOptions, SimBenchReport, SimBenchRow};

use cli::{Cli, Flag};
use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_energy::{measure_kernels_sharded, EnergyProfile, Protocol, RunManifest, SweepCache};
use pulp_energy_model::EnergyModel;
use pulp_obs::{JournalEvent, JournalWriter, LogFormat, Logger, Recorder};
use pulp_sim::ClusterConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The flags of [`COMMON_FLAGS`], one constant each, so that every
/// command sharing a flag shares its spelling, its help line and (through
/// [`CommonArgs::from_cli`]) its decoder.
#[rustfmt::skip]
pub mod flags {
    use crate::cli::Flag;

    pub const QUICK: Flag =       Flag::switch("--quick",               "quick profile: reduced dataset, protocol and workload");
    pub const JSON: Flag =        Flag::valued("--json",        "path", "dump the machine-readable record to <path>");
    pub const THREADS: Flag =     Flag::valued("--threads",     "n",    "simulation worker threads (0 = all cores)");
    pub const CV_THREADS: Flag =  Flag::valued("--cv-threads",  "n",    "cross-validation worker threads (0 = all cores)");
    pub const CACHE_DIR: Flag =   Flag::valued("--cache-dir",   "dir",  "content-addressed sweep cache directory");
    pub const PROGRESS: Flag =    Flag::switch("--progress",            "per-sample progress lines on stderr");
    pub const QUIET: Flag =       Flag::switch("--quiet",               "suppress informational stderr chatter");
    pub const LOG_JSON: Flag =    Flag::switch("--log-json",            "JSON-lines structured logs on stderr");
    pub const MANIFEST: Flag =    Flag::valued("--manifest",    "path", "run-manifest path (default: manifest.json)");
    pub const NO_MANIFEST: Flag = Flag::switch("--no-manifest",         "skip writing the run manifest");
    pub const MAX_CYCLES: Flag =  Flag::valued("--max-cycles",  "n",    "per-run simulation cycle budget");
    pub const JOURNAL: Flag =     Flag::valued("--journal",     "path", "JSONL run journal (read with `pulp_cli report`)");
}

/// The flags every pipeline experiment accepts.
#[rustfmt::skip]
pub const COMMON_FLAGS: &[Flag] = {
    use flags::*;
    &[QUICK, JSON, THREADS, CV_THREADS, CACHE_DIR, PROGRESS, QUIET, LOG_JSON, MANIFEST, NO_MANIFEST, MAX_CYCLES, JOURNAL]
};

/// Parsed common command-line options.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Reduced dataset + protocol.
    pub quick: bool,
    /// Optional JSON dump path.
    pub json: Option<PathBuf>,
    /// Simulation threads (0 = all).
    pub threads: usize,
    /// Cross-validation threads (0 = all).
    pub cv_threads: usize,
    /// Sweep-cache directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Per-sample progress on stderr (`--progress`).
    pub progress: bool,
    /// Suppress informational stderr chatter (`--quiet`).
    pub quiet: bool,
    /// Structured JSON-lines logs instead of `[stage] message` text
    /// (`--log-json`).
    pub log_json: bool,
    /// Run-manifest output path (`--manifest`; default `manifest.json`).
    pub manifest: Option<PathBuf>,
    /// Skip the run manifest entirely (`--no-manifest`).
    pub no_manifest: bool,
    /// Per-run simulation cycle budget (`--max-cycles`; `None` = the
    /// simulator default).
    pub max_cycles: Option<u64>,
    /// Run-journal output path (`--journal`); `None` = no journal.
    pub journal: Option<PathBuf>,
    /// Print the usage and exit without running anything (`--help`/`-h`).
    pub help: bool,
}

impl CommonArgs {
    /// Parses a whole command line against [`COMMON_FLAGS`] (testable).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let cli = Cli::parse(args, &[COMMON_FLAGS])?;
        cli.no_positionals()?;
        Self::from_cli(&cli)
    }

    /// Decodes the common flags of a parsed command line (its positional
    /// arguments are the command's business). A command that declares
    /// only some of them (`serve`, `bench sim`, `bench models`, the kernel
    /// commands' `--max-cycles`) reads the rest as absent, so each shared
    /// flag has one decoder.
    ///
    /// # Errors
    ///
    /// Names the flag and value at fault.
    pub fn from_cli(cli: &Cli) -> Result<Self, String> {
        Ok(Self {
            quick: cli.switch("--quick"),
            json: cli.path("--json"),
            threads: cli.non_negative("--threads")?.unwrap_or(0),
            cv_threads: cli.non_negative("--cv-threads")?.unwrap_or(0),
            cache_dir: cli.path("--cache-dir"),
            progress: cli.switch("--progress"),
            quiet: cli.switch("--quiet"),
            log_json: cli.switch("--log-json"),
            manifest: cli.path("--manifest"),
            no_manifest: cli.switch("--no-manifest"),
            max_cycles: cli.positive("--max-cycles")?,
            journal: cli.path("--journal"),
            help: cli.help(),
        })
    }

    /// The pipeline options implied by these arguments. Opens the sweep
    /// cache when `--cache-dir` was given (an unopenable directory warns
    /// and degrades to uncached simulation).
    pub fn pipeline_options(&self) -> PipelineOptions {
        let mut opts = if self.quick {
            PipelineOptions::quick(QUICK_KERNELS)
        } else {
            PipelineOptions::default()
        };
        opts.threads = self.threads;
        // `--quiet` wins over `--progress`: a quiet run emits no live
        // progress/ETA lines even when both flags are given.
        opts.progress = self.progress && !self.quiet;
        if let Some(max_cycles) = self.max_cycles {
            opts.max_cycles = max_cycles;
        }
        if let Some(dir) = &self.cache_dir {
            match SweepCache::new(dir) {
                Ok(cache) => opts.cache = Some(Arc::new(cache)),
                Err(e) => self.logger().warn(
                    "cache",
                    "cannot open cache dir; continuing uncached",
                    &[("dir", dir.display().to_string()), ("error", e.to_string())],
                ),
            }
        }
        opts
    }

    /// The evaluation protocol implied by these arguments.
    pub fn protocol(&self) -> Protocol {
        let base = if self.quick {
            Protocol::quick()
        } else {
            Protocol::default()
        };
        Protocol {
            cv_threads: self.cv_threads,
            ..base
        }
    }

    /// The structured logger implied by these arguments: JSON-lines under
    /// `--log-json`, the historical `[stage] message` text otherwise.
    pub fn logger(&self) -> Logger {
        Logger::new(if self.log_json {
            LogFormat::Json
        } else {
            LogFormat::Text
        })
    }

    /// Opens the run journal when `--journal` was given. The run id is
    /// seeded from the **pre-run** manifest hash — the same provenance
    /// [`RunContext::finish`] records minus the fields only known at exit
    /// (wall time, cache counters) — so the id is stable for identical
    /// inputs and computable before the run starts.
    ///
    /// An unopenable path warns and degrades to no journal; observability
    /// must never fail the experiment.
    pub fn journal_writer(
        &self,
        tool: &str,
        opts: &PipelineOptions,
        protocol: Option<&Protocol>,
    ) -> Option<JournalWriter> {
        let path = self.journal.as_ref()?;
        let mut pre =
            RunManifest::new(tool, &opts.config, &opts.model).with_extra("quick", self.quick);
        if let Some(p) = protocol {
            pre = pre.with_protocol(*p);
        }
        match JournalWriter::create(path, tool, &pre.manifest_hash(), pre.seed) {
            Ok(w) => Some(w),
            Err(e) => {
                self.logger().warn(
                    "journal",
                    "cannot open journal; continuing without one",
                    &[
                        ("path", path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                None
            }
        }
    }

    /// Finalizes `journal` (writing the `run_end` record) and, unless
    /// `--quiet`, logs where it landed.
    pub fn finish_journal(&self, journal: Option<JournalWriter>) {
        let Some(journal) = journal else { return };
        let run_id = journal.run_id().to_string();
        if let Err(e) = journal.finalize() {
            self.logger()
                .warn("journal", "finalize failed", &[("error", e.to_string())]);
        } else if !self.quiet {
            if let Some(path) = &self.journal {
                self.logger().info(
                    "journal",
                    "written",
                    &[("path", path.display().to_string()), ("run", run_id)],
                );
            }
        }
    }
}

/// One pipeline experiment run: the decoded [`CommonArgs`], the pipeline
/// options and protocol they imply, and the run journal. Every experiment
/// runs through one, so `--journal`, `--json` and the manifest behave the
/// same in all of them.
pub struct RunContext {
    /// The decoded common flags.
    pub args: CommonArgs,
    /// The pipeline options implied by `args`.
    pub opts: PipelineOptions,
    /// The evaluation protocol implied by `args`.
    pub protocol: Protocol,
    /// When the run started (the manifest's wall time counts from here).
    pub start: Instant,
    tool: String,
    records_protocol: bool,
    journal: Option<JournalWriter>,
}

impl RunContext {
    /// Starts a run of `tool` (the name its manifest and journal carry)
    /// and opens the journal when `--journal` was given. With
    /// `records_protocol` the manifest and the journal's run id include
    /// the cross-validation protocol.
    pub fn new(tool: &str, args: CommonArgs, records_protocol: bool) -> Self {
        let start = Instant::now();
        let opts = args.pipeline_options();
        let protocol = args.protocol();
        let journal = args.journal_writer(tool, &opts, records_protocol.then_some(&protocol));
        Self {
            args,
            opts,
            protocol,
            start,
            tool: tool.to_string(),
            records_protocol,
            journal,
        }
    }

    /// Builds the dataset; with `--cache-dir` every sample is looked up in
    /// (and stored to) the content-addressed sweep cache, so a warm rebuild
    /// simulates nothing. `--quiet` suppresses the stderr chatter;
    /// `--progress` adds per-sample lines through the run's [`Logger`], so
    /// `--log-json` yields machine-readable progress too. The build's stage
    /// events, per-shard heartbeats, slow kernels and cache attribution go
    /// to the journal.
    ///
    /// # Panics
    ///
    /// Panics when the dataset cannot be built — experiments cannot proceed
    /// without it.
    pub fn dataset(&mut self) -> LabeledDataset {
        build_dataset(&self.opts, &self.args, self.journal.as_mut())
    }

    /// Builds a variant dataset with `opts` in place of the run's pipeline
    /// options (an ablated platform, say), journaled and logged like
    /// [`RunContext::dataset`]. The manifest still records the run's own
    /// options.
    ///
    /// # Panics
    ///
    /// Panics when the dataset cannot be built.
    pub fn dataset_with(&mut self, opts: &PipelineOptions) -> LabeledDataset {
        build_dataset(opts, &self.args, self.journal.as_mut())
    }

    /// Measures `kernels` at every team size on `config` as one journaled
    /// `measure` stage: the sweep's shard heartbeats and slowest kernels go
    /// to the journal, `--threads` sets the worker count and `--progress`
    /// adds `[sweep]` lines. Profiles come back in input order.
    ///
    /// # Panics
    ///
    /// Panics when a kernel fails to simulate.
    pub fn measure_kernels(
        &mut self,
        kernels: &[kernel_ir::Kernel],
        config: &ClusterConfig,
        model: &EnergyModel,
    ) -> Vec<EnergyProfile> {
        let (max_cycles, threads) = (self.opts.max_cycles, self.opts.threads);
        self.stage("measure", |ctx| {
            let log = ctx.args.logger();
            let observer = BuildObserver {
                journal: ctx.journal.as_mut(),
                logger: ctx.args.progress.then_some(&log),
            };
            measure_kernels_sharded(kernels, config, model, max_cycles, threads, observer)
                .expect("kernel measurement failed")
        })
    }

    /// Runs `work` as the journal stage `name`: a `stage_start` before it
    /// and a `stage_end` with its wall time after, so `pulp_cli report`
    /// shows where an experiment's time went. Stages nest.
    pub fn stage<R>(&mut self, name: &str, work: impl FnOnce(&mut Self) -> R) -> R {
        self.event(JournalEvent::StageStart {
            stage: name.to_string(),
        });
        let t0 = Instant::now();
        let out = work(self);
        self.event(JournalEvent::StageEnd {
            stage: name.to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        out
    }

    /// Appends `ev` to the journal, if any. A failed write warns: journal
    /// writes must never fail the experiment.
    pub fn event(&mut self, ev: JournalEvent) {
        if let Some(Err(e)) = self.journal.as_mut().map(|j| j.event(ev)) {
            self.args
                .logger()
                .warn("journal", "write failed", &[("error", e.to_string())]);
        }
    }

    /// Ends the run: writes `record` as pretty JSON under `--json`,
    /// finalizes the journal and writes the run manifest (unless
    /// `--no-manifest`): versions, config/model hashes (sweep-cache
    /// keying), protocol, seed, cache counters and wall time. The default
    /// path is `manifest.json` in the working directory, overridable with
    /// `--manifest <path>`. Returns the manifest (also when writing was
    /// skipped or failed), so a run can embed its hash in its own records.
    pub fn finish<T: serde::Serialize>(self, record: &T) -> RunManifest {
        let (args, opts) = (&self.args, &self.opts);
        if let Some(Err(e)) = args.json.as_deref().map(|path| write_json(path, record)) {
            eprintln!("warning: {e}");
        }
        args.finish_journal(self.journal);
        let mut m = RunManifest::new(&self.tool, &opts.config, &opts.model)
            .with_extra("quick", args.quick)
            .with_wall_time_ms(self.start.elapsed().as_millis() as u64);
        if self.records_protocol {
            m = m.with_protocol(self.protocol);
        }
        if let Some(cache) = &opts.cache {
            m = m.with_cache_stats(cache.stats());
        }
        if args.no_manifest {
            return m;
        }
        let path = args
            .manifest
            .clone()
            .unwrap_or_else(|| PathBuf::from("manifest.json"));
        if let Err(e) = m.write(&path) {
            args.logger().warn(
                "manifest",
                "cannot write manifest",
                &[
                    ("path", path.display().to_string()),
                    ("error", e.to_string()),
                ],
            );
        } else if !args.quiet {
            args.logger().info(
                "manifest",
                "written",
                &[
                    ("path", path.display().to_string()),
                    ("hash", m.manifest_hash()),
                ],
            );
        }
        m
    }
}

/// Builds the dataset `opts` describes, with the build's stage events,
/// heartbeats, slow kernels and cache attribution going to `journal` and
/// its chatter through `args`' logger (see [`RunContext::dataset`]).
fn build_dataset(
    opts: &PipelineOptions,
    args: &CommonArgs,
    journal: Option<&mut JournalWriter>,
) -> LabeledDataset {
    let log = args.logger();
    if !args.quiet {
        log.info(
            "dataset",
            "building (this simulates every sample at 1..=8 cores)",
            &[(
                "kernels",
                opts.kernel_filter.as_ref().map_or(59, Vec::len).to_string(),
            )],
        );
    }
    let start = Instant::now();
    let mut rec = Recorder::new();
    let observer = BuildObserver {
        journal,
        logger: Some(&log),
    };
    let data =
        LabeledDataset::build_observed(opts, &mut rec, observer).expect("dataset build failed");
    if !args.quiet {
        log.info(
            "dataset",
            "built",
            &[
                ("samples", data.len().to_string()),
                ("elapsed", format!("{:.1?}", start.elapsed())),
            ],
        );
    }
    if let Some(sweep) = &opts.cache {
        // In text mode this renders exactly as the historical
        // `[cache] N hits, ...` line the CI warm-cache check asserts on: a
        // warm run must report a 100% hit rate (zero simulator
        // invocations).
        log.info("cache", &sweep.stats().to_string(), &[]);
    }
    data
}

/// Writes `record` to `path` as pretty JSON; the error names the path.
pub fn write_json<T: serde::Serialize>(path: &Path, record: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(record)
        .map_err(|e| format!("cannot serialise {}: {e}", path.display()))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Kernel subset used by `--quick` runs: one representative per behaviour
/// class.
pub const QUICK_KERNELS: &[&str] = &[
    "gemm",
    "fir",
    "vec_scale",
    "fpu_storm",
    "bank_hammer",
    "reduction_critical",
    "compute_dense",
    "l2_stream",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_kernels_exist_in_registry() {
        let names: Vec<&str> = pulp_kernels::registry().iter().map(|d| d.name).collect();
        for k in QUICK_KERNELS {
            assert!(names.contains(k), "unknown quick kernel {k}");
        }
    }

    #[test]
    fn pipeline_options_respect_quick() {
        let args = CommonArgs {
            quick: true,
            threads: 2,
            progress: true,
            ..CommonArgs::default()
        };
        let opts = args.pipeline_options();
        assert_eq!(opts.threads, 2);
        assert!(opts.progress);
        assert!(opts.cache.is_none());
        assert_eq!(
            opts.kernel_filter.as_ref().map(Vec::len),
            Some(QUICK_KERNELS.len())
        );
        assert_eq!(
            args.protocol().repeats,
            pulp_energy::Protocol::quick().repeats
        );
    }

    fn parse(tokens: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parser_accepts_the_new_flags() {
        let args = parse(&[
            "--quick",
            "--threads",
            "3",
            "--cv-threads",
            "4",
            "--cache-dir",
            "/tmp/sweeps",
            "--quiet",
        ])
        .expect("valid");
        assert!(args.quick && args.quiet);
        assert_eq!(args.threads, 3);
        assert_eq!(args.cv_threads, 4);
        assert_eq!(args.cache_dir.as_deref(), Some(Path::new("/tmp/sweeps")));
        assert_eq!(args.protocol().cv_threads, 4);
    }

    #[test]
    fn parser_rejects_malformed_numeric_values() {
        // Regression: `--threads banana` used to silently become 0.
        let err = parse(&["--threads", "banana"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("banana"), "{err}");
        let err = parse(&["--cv-threads", "-1"]).unwrap_err();
        assert!(err.contains("--cv-threads"), "{err}");
        let err = parse(&["--threads"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = parse(&["--cache-dir", "--quick"]).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
        let err = parse(&["--json"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn parser_recognises_help() {
        // Regression: `headline --help` used to run the whole benchmark.
        for flag in ["--help", "-h"] {
            let args = parse(&["--quick", flag, "--threads", "2"]).expect("valid");
            assert!(args.help, "{flag}");
        }
        assert!(!parse(&["--quick"]).expect("valid").help);
        // A malformed known flag is still an error, help or not.
        assert!(parse(&["--help", "--threads", "banana"]).is_err());
    }

    #[test]
    fn parser_rejects_unknown_flags() {
        // Regression: `--quikc` used to run the full protocol and
        // `--cv-thread 1` the default thread count.
        for (argv, flag) in [
            (&["--quikc"][..], "--quikc"),
            (&["--quick", "--cv-thread", "1"], "--cv-thread"),
            (&["--iters", "31"], "--iters"),
            (&["-q"], "-q"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
        let err = parse(&["--quick", "stray"]).unwrap_err();
        assert!(err.contains("`stray`"), "{err}");
    }

    #[test]
    fn max_cycles_parses_strictly_and_reaches_the_pipeline() {
        let args = parse(&["--max-cycles", "5000"]).expect("valid");
        assert_eq!(args.max_cycles, Some(5000));
        assert_eq!(args.pipeline_options().max_cycles, 5000);
        // Unset: the simulator default flows through.
        let args = parse(&[]).expect("valid");
        assert_eq!(args.max_cycles, None);
        assert_eq!(
            args.pipeline_options().max_cycles,
            pulp_sim::DEFAULT_MAX_CYCLES
        );
        // Strict parsing: zero, negatives and garbage are rejected.
        for bad in [
            &["--max-cycles", "0"][..],
            &["--max-cycles", "-5"],
            &["--max-cycles", "many"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("--max-cycles"), "{err}");
        }
        let err = parse(&["--max-cycles"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn journal_flag_parses_and_quiet_wins_over_progress() {
        let args = parse(&["--journal", "/tmp/run.jsonl", "--progress", "--quiet"]).expect("valid");
        assert_eq!(args.journal.as_deref(), Some(Path::new("/tmp/run.jsonl")));
        assert!(
            !args.pipeline_options().progress,
            "--quiet must suppress --progress"
        );
        let loud = parse(&["--progress"]).expect("valid");
        assert!(loud.pipeline_options().progress);
        let err = parse(&["--journal"]).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        assert!(parse(&[]).expect("valid").journal.is_none());
    }

    #[test]
    fn journal_writer_opens_seeded_and_finalizes() {
        let path =
            std::env::temp_dir().join(format!("pulp-bench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = CommonArgs {
            quick: true,
            journal: Some(path.clone()),
            quiet: true,
            ..CommonArgs::default()
        };
        let opts = args.pipeline_options();
        let protocol = args.protocol();
        let w = args
            .journal_writer("test_tool", &opts, Some(&protocol))
            .expect("journal opens");
        // Run id derives from the pre-run manifest: stable across calls.
        let run_id = w.run_id().to_string();
        args.finish_journal(Some(w));
        let journal = pulp_obs::JournalReader::read_file(&path).expect("valid journal");
        assert_eq!(journal.run_id, run_id);
        assert!(journal.ok());
        let (tool, _, seed) = journal.run_start();
        assert_eq!(tool, "test_tool");
        assert_eq!(seed, protocol.seed);
        let again = args
            .journal_writer("test_tool", &opts, Some(&protocol))
            .expect("journal reopens");
        assert_eq!(again.run_id(), run_id, "run id is deterministic");
        drop(again);
        // No journal flag → no writer.
        assert!(CommonArgs::default()
            .journal_writer("t", &opts, None)
            .is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_dir_opens_a_sweep_cache() {
        let dir = std::env::temp_dir().join(format!("pulp-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = CommonArgs {
            cache_dir: Some(dir.clone()),
            ..CommonArgs::default()
        };
        let opts = args.pipeline_options();
        assert!(opts.cache.is_some());
        assert!(dir.is_dir(), "cache dir must be created eagerly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
