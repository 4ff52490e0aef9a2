//! E7 (ablation) — which platform mechanisms create the labels?
//!
//! DESIGN.md claims the energy/parallelism trade-off is driven by clock
//! gating, FPU sharing and TCDM bank conflicts. This experiment relabels
//! the dataset with each mechanism disabled and reports how the class
//! distribution and the labels move. If an ablated platform leaves labels
//! unchanged, that mechanism was irrelevant — the paper's premise would
//! not hold on our substrate.

use pulp_bench::{RunContext, QUICK_KERNELS};
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::report::render_class_distribution;
use pulp_sim::ClusterConfig;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Debug, Serialize)]
struct AblationRecord {
    name: String,
    class_counts: Vec<usize>,
    label_agreement_with_baseline: f64,
    mean_label: f64,
}

/// Builds the dataset on the ablated platform `config` as the journal
/// stage `name`.
fn build(name: &str, config: ClusterConfig, ctx: &mut RunContext) -> LabeledDataset {
    let args = &ctx.args;
    let mut opts = if args.quick {
        PipelineOptions::quick(QUICK_KERNELS)
    } else {
        PipelineOptions {
            // The ablation sweep rebuilds the dataset 4x; keep the full
            // kernel set but the two payload extremes unless --quick.
            payload_sizes: vec![512, 32768],
            ..PipelineOptions::default()
        }
    };
    opts.threads = args.threads;
    opts.config = config;
    if !args.quiet {
        args.logger().info(
            "ablation",
            "building dataset",
            &[("variant", name.to_string())],
        );
    }
    ctx.stage(name, |ctx| ctx.dataset_with(&opts))
}

pub fn run(mut ctx: RunContext) {
    let base_cfg = ClusterConfig::default();
    let variants: Vec<(&str, ClusterConfig)> = vec![
        ("baseline", base_cfg.clone()),
        ("no-clock-gating", base_cfg.clone().without_clock_gating()),
        (
            "no-fpu-contention",
            base_cfg.clone().without_fpu_contention(),
        ),
        (
            "no-bank-conflicts",
            base_cfg.clone().without_bank_conflicts(),
        ),
    ];

    let mut datasets: BTreeMap<&str, LabeledDataset> = BTreeMap::new();
    for (name, cfg) in &variants {
        datasets.insert(name, build(name, cfg.clone(), &mut ctx));
    }
    let baseline = &datasets["baseline"];
    let base_labels = baseline.labels();

    println!(
        "E7 — platform-mechanism ablation ({} samples per variant)\n",
        baseline.len()
    );
    let mut records = Vec::new();
    for (name, _) in &variants {
        let d = &datasets[name];
        let labels = d.labels();
        let agree = labels
            .iter()
            .zip(&base_labels)
            .filter(|(a, b)| a == b)
            .count() as f64
            / labels.len() as f64;
        let mean = labels.iter().map(|&l| (l + 1) as f64).sum::<f64>() / labels.len() as f64;
        println!("--- {name} ---");
        print!("{}", render_class_distribution(&d.class_counts()));
        println!("label agreement with baseline: {:.1}%", agree * 100.0);
        println!("mean optimal cores: {mean:.2}\n");
        records.push(AblationRecord {
            name: name.to_string(),
            class_counts: d.class_counts().to_vec(),
            label_agreement_with_baseline: agree,
            mean_label: mean,
        });
    }

    println!("shape checks:");
    let mean_of = |n: &str| {
        records
            .iter()
            .find(|r| r.name == n)
            .map(|r| r.mean_label)
            .unwrap_or(0.0)
    };
    println!(
        "  removing clock gating changes labels ({}% agreement)",
        (records
            .iter()
            .find(|r| r.name == "no-clock-gating")
            .map(|r| r.label_agreement_with_baseline)
            .unwrap_or(1.0)
            * 100.0)
            .round()
    );
    println!(
        "  removing FPU contention pushes optima to more cores: {:.2} -> {:.2}",
        mean_of("baseline"),
        mean_of("no-fpu-contention")
    );
    println!(
        "  removing bank conflicts pushes optima to more cores: {:.2} -> {:.2}",
        mean_of("baseline"),
        mean_of("no-bank-conflicts")
    );
    // The manifest records the *baseline* configuration; the ablated
    // variants are derived from it deterministically.
    ctx.finish(&records);
}
