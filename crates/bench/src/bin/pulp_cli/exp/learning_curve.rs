//! E10 (extension) — learning curve: how many measured samples does the
//! static classifier need?
//!
//! Building the training set is the expensive part of the paper's pipeline
//! (each sample costs 8 cycle-accurate simulations). This experiment
//! trains on a growing stratified fraction of the dataset and tests on
//! the held-out remainder, answering how quickly accuracy saturates —
//! i.e. how much smaller the paper's measurement campaign could have been.

use pulp_bench::RunContext;
use pulp_energy::StaticFeatureSet;
use pulp_ml::{fan_out, mean_std, stratified_folds, tolerance_accuracy, DecisionTree, TreeParams};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    train_fraction: f64,
    train_samples: usize,
    acc_at_0_mean: f64,
    acc_at_0_std: f64,
    acc_at_5_mean: f64,
    acc_at_5_std: f64,
}

pub fn run(mut ctx: RunContext) {
    let data = ctx.dataset();
    let protocol = ctx.protocol;
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let energies = data.energies();

    // 10 stratified folds; training on the first `k` of them sweeps the
    // fraction in 10% steps while keeping class balance.
    let folds_per_step = 10usize;
    let repeats = protocol.repeats.clamp(3, 30);

    println!("E10 — learning curve (static ALL features, {repeats} repetitions)\n");
    println!(
        "{:>10} {:>9} {:>16} {:>16}",
        "fraction", "samples", "acc@0% (std)", "acc@5% (std)"
    );
    let mut points = Vec::new();
    for train_folds in 1..folds_per_step {
        // Each repetition derives everything from its index, so fanning
        // them over `--cv-threads` workers is deterministic.
        let rep_accuracy = |rep: usize| {
            let folds = stratified_folds(all.labels(), folds_per_step, rep as u64);
            let train: Vec<usize> = folds[..train_folds].iter().flatten().copied().collect();
            let test: Vec<usize> = folds[train_folds..].iter().flatten().copied().collect();
            let mut tree = DecisionTree::new(TreeParams::default());
            tree.fit_rows(&all, &train);
            let preds: Vec<usize> = test.iter().map(|&r| tree.predict(all.row(r))).collect();
            let test_energies: Vec<Vec<f64>> = test.iter().map(|&r| energies[r].clone()).collect();
            (
                train.len(),
                tolerance_accuracy(&preds, &test_energies, 0.0),
                tolerance_accuracy(&preds, &test_energies, 0.05),
            )
        };
        let (reps, _) = fan_out(
            repeats,
            protocol.cv_threads,
            |_| (),
            |_, rep| rep_accuracy(rep),
        );
        let train_samples = reps.last().map_or(0, |r| r.0);
        let acc0: Vec<f64> = reps.iter().map(|r| r.1).collect();
        let acc5: Vec<f64> = reps.iter().map(|r| r.2).collect();
        let (m0, s0) = mean_std(&acc0);
        let (m5, s5) = mean_std(&acc5);
        let fraction = train_folds as f64 / folds_per_step as f64;
        println!(
            "{:>9.0}% {:>9} {:>9.1}% ({:>4.1}) {:>9.1}% ({:>4.1})",
            fraction * 100.0,
            train_samples,
            m0 * 100.0,
            s0 * 100.0,
            m5 * 100.0,
            s5 * 100.0
        );
        points.push(Point {
            train_fraction: fraction,
            train_samples,
            acc_at_0_mean: m0,
            acc_at_0_std: s0,
            acc_at_5_mean: m5,
            acc_at_5_std: s5,
        });
    }

    println!("\nshape checks:");
    let first = points.first().expect("points");
    let last = points.last().expect("points");
    println!(
        "  accuracy grows with data: {:.1}% -> {:.1}% @5% tolerance",
        first.acc_at_5_mean * 100.0,
        last.acc_at_5_mean * 100.0
    );
    let half = &points[points.len() / 2];
    println!(
        "  half the dataset already reaches {:.1}% of the full-data accuracy",
        100.0 * half.acc_at_5_mean / last.acc_at_5_mean
    );
    ctx.finish(&points);
}
