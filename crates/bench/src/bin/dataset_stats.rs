//! E2 — §IV-B dataset statistics.
//!
//! The paper reports 448 samples with "a class unbalance between 5% and
//! 15%, except for the class with label 8 which accounts for the 34.8% of
//! the samples collection". This experiment regenerates the class
//! distribution of our measured dataset, plus per-suite and per-dtype
//! breakdowns.

use pulp_bench::{load_or_build_dataset, CommonArgs};
use pulp_energy::report::render_class_distribution;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Debug, Serialize)]
struct Record {
    total_samples: usize,
    class_counts: Vec<usize>,
    class_shares: Vec<f64>,
    by_suite: BTreeMap<String, usize>,
    by_dtype: BTreeMap<String, usize>,
    mean_label_by_payload: BTreeMap<usize, f64>,
}

fn main() {
    let start = std::time::Instant::now();
    let args = CommonArgs::parse();
    let opts = args.pipeline_options();
    let data = load_or_build_dataset(&opts, &args, None);

    println!("E2 / §IV-B — dataset statistics\n");
    println!("samples: {} (paper: 448)", data.len());
    let counts = data.class_counts();
    println!("\nminimum-energy class distribution:");
    print!("{}", render_class_distribution(&counts));

    let total = data.len() as f64;
    let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();
    println!(
        "\nlargest class: {} cores with {:.1}% (paper: class 8 at 34.8%)",
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i + 1)
            .unwrap_or(0),
        shares.iter().cloned().fold(0.0, f64::max) * 100.0
    );

    let mut by_suite: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_dtype: BTreeMap<String, usize> = BTreeMap::new();
    for s in &data.samples {
        *by_suite.entry(s.suite.to_string()).or_insert(0) += 1;
        *by_dtype.entry(s.dtype.to_string()).or_insert(0) += 1;
    }
    println!("\nby suite: {by_suite:?}");
    println!("by dtype: {by_dtype:?}");

    // Problem size influences the optimum: report the mean optimal core
    // count per payload size.
    let mut by_payload: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for s in &data.samples {
        let e = by_payload.entry(s.payload_bytes).or_insert((0, 0));
        e.0 += s.label + 1;
        e.1 += 1;
    }
    println!("\nmean optimal cores by payload size:");
    let mut mean_label_by_payload = BTreeMap::new();
    for (size, (sum, n)) in &by_payload {
        let mean = *sum as f64 / *n as f64;
        println!("  {size:>6} B: {mean:.2} cores");
        mean_label_by_payload.insert(*size, mean);
    }

    args.dump_json(&Record {
        total_samples: data.len(),
        class_counts: counts.to_vec(),
        class_shares: shares,
        by_suite,
        by_dtype,
        mean_label_by_payload,
    });
    args.write_manifest("dataset_stats", &opts, None, start);
}
