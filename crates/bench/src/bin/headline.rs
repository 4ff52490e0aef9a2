//! E6 — headline numbers of the paper, regenerated on our platform:
//!
//! * static features reach ~57% accuracy at 0% tolerance and approach 80%
//!   at 5% tolerance over eight classes;
//! * pruning to the most important features ("optimised") improves the
//!   0%-tolerance accuracy (paper: 61% / 79%);
//! * static features exceed 85% accuracy within an 8% tolerance;
//! * the static-vs-dynamic accuracy gap stays below ~10 points.
//!
//! `--model tree|forest|gbt` (default `tree`) swaps the classifier behind
//! every curve for another zoo member. The paper's reference numbers are
//! tree numbers, so non-tree runs write their record to
//! `BENCH_headline_<model>.json` by default — the committed tree baseline
//! is never clobbered by a zoo sweep — and the record names its model so
//! `bench diff` refuses cross-model comparisons via the accuracy map.

use pulp_bench::cli::{self, Cli, Flag, Usage};
use pulp_bench::{load_or_build_dataset, CommonArgs, COMMON_FLAGS};
use pulp_energy::{
    default_tolerances, evaluation::curve_from_predictions, report::render_confusion,
    tolerance_curve, top_feature_columns, CacheStats, Protocol, StaticFeatureSet, ToleranceCurve,
};
use pulp_ml::{
    confusion_matrix, cross_val_predict, cv::repeated_cross_val_predict, DecisionTree,
    ForestParams, Gbt, GbtParams, RandomForest,
};
use pulp_obs::JournalEvent;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Headline {
    static_at_0: f64,
    static_at_5: f64,
    static_at_8: f64,
    optimized_at_0: f64,
    optimized_at_5: f64,
    dynamic_at_0: f64,
    dynamic_at_5: f64,
    gap_at_5: f64,
    always8_at_5: f64,
}

/// The benchmark-trajectory record `pulp_cli bench diff` consumes. The
/// `accuracy` map is compared field-by-field; everything else is context.
#[derive(Debug, Serialize)]
struct BenchHeadline {
    schema: &'static str,
    /// Zoo member behind every accuracy figure (`tree` unless `--model`).
    model: String,
    accuracy: Headline,
    /// How much the tree beats the always-8 naive policy at 5% tolerance.
    naive_delta: f64,
    wall_time_ms: u64,
    cache: Option<CacheStats>,
    manifest_hash: String,
}

/// Headline's own flags, on top of [`COMMON_FLAGS`].
#[rustfmt::skip]
const HEADLINE_FLAGS: &[Flag] = &[
    Flag::valued("--model", "tree|forest|gbt", "classifier behind every curve (default: tree)"),
    Flag::valued("--bench-out", "path", "record path (default: BENCH_headline[_<model>].json)"),
];

const USAGE: Usage = Usage::options(&[COMMON_FLAGS, HEADLINE_FLAGS]);

struct Args {
    common: CommonArgs,
    model: &'static str,
    bench_out: PathBuf,
}

/// Decodes headline's command line. The record path defaults to
/// `BENCH_headline.json` for the tree (the paper's model, the committed
/// baseline) and to `BENCH_headline_<model>.json` for other zoo members.
fn decode(cli: &Cli) -> Result<Args, String> {
    let model = cli
        .choice("--model", &["tree", "forest", "gbt"])?
        .unwrap_or("tree");
    let bench_out = cli.path("--bench-out").unwrap_or_else(|| match model {
        "tree" => PathBuf::from("BENCH_headline.json"),
        m => PathBuf::from(format!("BENCH_headline_{m}.json")),
    });
    Ok(Args {
        common: CommonArgs::from_cli(cli)?,
        model,
        bench_out,
    })
}

/// The tolerance curve of the selected zoo member over `data`. Trees use
/// the instrumented single-model path (identical to the historical
/// behaviour); ensembles run the same repeated-CV protocol with the
/// repetition count scaled down as in `bench models`, seeded per
/// repetition so the result is bit-identical at any `--cv-threads`.
fn model_curve(
    model: &str,
    label: &str,
    data: &pulp_ml::Dataset,
    energies: &[Vec<f64>],
    tolerances: &[f64],
    protocol: &Protocol,
) -> ToleranceCurve {
    let slow_repeats = (protocol.repeats / 10).max(2);
    match model {
        "tree" => tolerance_curve(label, data, energies, tolerances, protocol),
        "forest" => {
            let preds = repeated_cross_val_predict(
                data,
                protocol.folds,
                slow_repeats,
                protocol.seed,
                protocol.cv_threads,
                |seed| {
                    RandomForest::new(ForestParams {
                        n_trees: 50,
                        tree: protocol.tree,
                        max_features: None,
                        seed: seed + 1,
                    })
                },
            );
            curve_from_predictions(label, &preds, energies, tolerances)
        }
        "gbt" => {
            let preds = repeated_cross_val_predict(
                data,
                protocol.folds,
                slow_repeats,
                protocol.seed,
                protocol.cv_threads,
                |seed| {
                    Gbt::new(GbtParams {
                        seed,
                        ..GbtParams::default()
                    })
                },
            );
            curve_from_predictions(label, &preds, energies, tolerances)
        }
        other => unreachable!("decode validated {other}"),
    }
}

fn main() {
    let start = Instant::now();
    let Args {
        common: args,
        model,
        bench_out: out,
    } = cli::parse_env(&USAGE, decode);
    let opts = args.pipeline_options();
    let protocol = args.protocol();
    let mut journal = args.journal_writer("headline", &opts, Some(&protocol));
    let data = load_or_build_dataset(&opts, &args, journal.as_mut());
    let tolerances = default_tolerances();
    let energies = data.energies();

    // Journal writes must never fail the experiment; a full disk degrades
    // to a warning.
    let journal_event = |journal: &mut Option<pulp_obs::JournalWriter>, ev: JournalEvent| {
        if let Some(j) = journal {
            if let Err(e) = j.event(ev) {
                eprintln!("[headline] warning: journal write failed: {e}");
            }
        }
    };
    journal_event(
        &mut journal,
        JournalEvent::StageStart {
            stage: "train_eval".into(),
        },
    );
    let eval_t0 = Instant::now();

    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let static_curve = model_curve(model, "static", &all, &energies, &tolerances, &protocol);

    let top = top_feature_columns(&all, 6, &protocol);
    let optimized = all.select_features(&top);
    let optimized_curve = model_curve(
        model,
        "optimised",
        &optimized,
        &energies,
        &tolerances,
        &protocol,
    );

    let dynamic = data.dynamic_dataset().expect("dynamic");
    let dynamic_curve = model_curve(
        model,
        "dynamic",
        &dynamic,
        &energies,
        &tolerances,
        &protocol,
    );

    let naive = pulp_energy::always_n_curve(8, &energies, &tolerances);

    journal_event(
        &mut journal,
        JournalEvent::StageEnd {
            stage: "train_eval".into(),
            wall_ms: eval_t0.elapsed().as_secs_f64() * 1e3,
        },
    );

    let at = |c: &pulp_energy::ToleranceCurve, t: f64| c.at(t).expect("non-empty tolerance grid");
    let h = Headline {
        static_at_0: at(&static_curve, 0.0),
        static_at_5: at(&static_curve, 0.05),
        static_at_8: at(&static_curve, 0.08),
        optimized_at_0: at(&optimized_curve, 0.0),
        optimized_at_5: at(&optimized_curve, 0.05),
        dynamic_at_0: at(&dynamic_curve, 0.0),
        dynamic_at_5: at(&dynamic_curve, 0.05),
        gap_at_5: at(&dynamic_curve, 0.05) - at(&static_curve, 0.05),
        always8_at_5: at(&naive, 0.05),
    };

    println!("E6 — headline numbers (ours [{model}] vs paper [tree])\n");
    println!("{:<34} {:>8} {:>10}", "metric", "ours", "paper");
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @0% tolerance",
        pct(h.static_at_0),
        "~57%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @5% tolerance",
        pct(h.static_at_5),
        "~80%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @8% tolerance",
        pct(h.static_at_8),
        ">85%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "optimised accuracy @0%",
        pct(h.optimized_at_0),
        "61%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "optimised accuracy @5%",
        pct(h.optimized_at_5),
        "79%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "dynamic accuracy @5%",
        pct(h.dynamic_at_5),
        "-"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static-dynamic gap @5%",
        pct(h.gap_at_5),
        "<10%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "always-8 accuracy @5%",
        pct(h.always8_at_5),
        "-"
    );

    // One CV pass for the confusion structure: most confusion should sit
    // between adjacent core counts (near-ties), as on the real platform.
    let preds = match model {
        "forest" => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            RandomForest::new(ForestParams {
                n_trees: 50,
                tree: protocol.tree,
                max_features: None,
                seed: protocol.seed + 1,
            })
        }),
        "gbt" => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            Gbt::new(GbtParams {
                seed: protocol.seed,
                ..GbtParams::default()
            })
        }),
        _ => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            DecisionTree::new(protocol.tree)
        }),
    };
    let confusion = confusion_matrix(&preds, all.labels(), pulp_energy::NUM_CLASSES);
    println!("\nconfusion matrix (static features, one CV pass):");
    print!("{}", render_confusion(&confusion));

    println!("\nshape verdicts:");
    let verdict = |ok: bool| if ok { "OK" } else { "DEVIATES" };
    println!(
        "  [{}] tolerance helps a lot (@5% - @0% > 10 pts)",
        verdict(h.static_at_5 - h.static_at_0 > 0.10)
    );
    println!(
        "  [{}] static @5% is strong (>70%)",
        verdict(h.static_at_5 > 0.70)
    );
    println!(
        "  [{}] static @8% exceeds 85%%-ish (>80%)",
        verdict(h.static_at_8 > 0.80)
    );
    println!(
        "  [{}] dynamic beats static by a bounded margin (gap in [-2%, 15%])",
        verdict(h.gap_at_5 > -0.02 && h.gap_at_5 < 0.15)
    );
    println!(
        "  [{}] tree beats always-8 @5%",
        verdict(h.static_at_5 > h.always8_at_5)
    );

    args.dump_json(&h);

    // The headline accuracy figures land in the journal tail so
    // `pulp_cli bench history` can read trajectories from journals alone.
    for (name, value) in [
        ("static_at_0", h.static_at_0),
        ("static_at_5", h.static_at_5),
        ("static_at_8", h.static_at_8),
        ("optimized_at_0", h.optimized_at_0),
        ("optimized_at_5", h.optimized_at_5),
        ("dynamic_at_5", h.dynamic_at_5),
    ] {
        journal_event(
            &mut journal,
            JournalEvent::BenchRecord {
                bench: "headline".into(),
                name: name.into(),
                value,
            },
        );
    }
    args.finish_journal(journal);

    // Provenance + the benchmark-trajectory record `bench diff` compares.
    let manifest = args.write_manifest("headline", &opts, Some(&protocol), start);
    let bench = BenchHeadline {
        schema: "pulp-headline/v1",
        model: model.to_string(),
        naive_delta: h.static_at_5 - h.always8_at_5,
        accuracy: h,
        wall_time_ms: start.elapsed().as_millis() as u64,
        cache: opts.cache.as_ref().map(|c| c.stats()),
        manifest_hash: manifest.manifest_hash(),
    };
    match pulp_bench::write_json(&out, &bench) {
        Err(e) => eprintln!("warning: {e}"),
        Ok(()) if !args.quiet => args.logger().info(
            "bench",
            "headline record written",
            &[("path", out.display().to_string())],
        ),
        Ok(()) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Cli::parse(line.split_whitespace().map(String::from), USAGE.tables).and_then(|c| decode(&c))
    }

    #[test]
    fn ci_command_lines_parse() {
        let a = parse("--quick --cache-dir /tmp/c").expect("warm-cache check");
        assert!(a.common.quick && a.common.cache_dir.is_some());
        assert_eq!(
            (a.model, a.bench_out),
            ("tree", "BENCH_headline.json".into())
        );
        let a = parse("--quick --bench-out B.json --manifest manifest.json --journal run.jsonl")
            .expect("bench record step");
        assert_eq!(a.bench_out, PathBuf::from("B.json"));
        assert_eq!(a.common.journal, Some(PathBuf::from("run.jsonl")));
    }

    #[test]
    fn model_and_bench_out_parse_strictly() {
        let a = parse("--model gbt").expect("valid");
        assert_eq!(a.bench_out, PathBuf::from("BENCH_headline_gbt.json"));
        let err = parse("--model knn").err().expect("not a headline model");
        assert!(err.contains("--model") && err.contains("`knn`"), "{err}");
        // Regression: a valueless `--bench-out` used to fall back to the
        // default path.
        let err = parse("--bench-out").err().expect("missing value");
        assert!(err.contains("--bench-out requires a value"), "{err}");
    }
}
