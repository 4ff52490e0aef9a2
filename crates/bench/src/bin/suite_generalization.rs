//! E12 (extension) — leave-one-suite-out generalisation.
//!
//! The paper's 10-fold CV mixes samples from all three suites, so a
//! kernel's sibling instantiations (other sizes/dtypes) can appear in the
//! training folds. This experiment asks the harder question a deployed
//! predictor faces: **does the model generalise to kernel families it has
//! never seen?** Train on two suites, test on the third — and, stricter
//! still, leave single kernels out entirely.

use pulp_bench::{load_or_build_dataset, CommonArgs};
use pulp_energy::StaticFeatureSet;
use pulp_ml::{tolerance_accuracy, DecisionTree, TreeParams};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    held_out: String,
    test_samples: usize,
    acc_at_0: f64,
    acc_at_5: f64,
    acc_at_10: f64,
}

fn main() {
    let start = std::time::Instant::now();
    let args = CommonArgs::parse();
    let opts = args.pipeline_options();
    let data = load_or_build_dataset(&opts, &args, None);
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let energies = data.energies();

    let eval = |test_rows: &[usize], train_rows: &[usize]| -> (f64, f64, f64) {
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit_rows(&all, train_rows);
        let preds: Vec<usize> = test_rows
            .iter()
            .map(|&r| tree.predict(all.row(r)))
            .collect();
        let e: Vec<Vec<f64>> = test_rows.iter().map(|&r| energies[r].clone()).collect();
        (
            tolerance_accuracy(&preds, &e, 0.0),
            tolerance_accuracy(&preds, &e, 0.05),
            tolerance_accuracy(&preds, &e, 0.10),
        )
    };

    println!("E12 — leave-one-suite-out generalisation (static ALL features)\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "held-out", "samples", "acc@0%", "acc@5%", "acc@10%"
    );
    let mut rows = Vec::new();
    for suite in ["polybench", "utdsp", "custom"] {
        let test: Vec<usize> = (0..data.len())
            .filter(|&i| data.samples[i].suite.to_string() == suite)
            .collect();
        let train: Vec<usize> = (0..data.len())
            .filter(|&i| data.samples[i].suite.to_string() != suite)
            .collect();
        let (a0, a5, a10) = eval(&test, &train);
        println!(
            "{:<22} {:>8} {:>7.1}% {:>7.1}% {:>7.1}%",
            format!("suite:{suite}"),
            test.len(),
            a0 * 100.0,
            a5 * 100.0,
            a10 * 100.0
        );
        rows.push(Row {
            held_out: format!("suite:{suite}"),
            test_samples: test.len(),
            acc_at_0: a0,
            acc_at_5: a5,
            acc_at_10: a10,
        });
    }

    // Leave-one-kernel-out over every kernel, aggregated.
    let kernels: std::collections::BTreeSet<String> =
        data.samples.iter().map(|s| s.kernel.clone()).collect();
    let mut loko_preds: Vec<usize> = Vec::new();
    let mut loko_energy: Vec<Vec<f64>> = Vec::new();
    for kernel in &kernels {
        let test: Vec<usize> = (0..data.len())
            .filter(|&i| &data.samples[i].kernel == kernel)
            .collect();
        let train: Vec<usize> = (0..data.len())
            .filter(|&i| &data.samples[i].kernel != kernel)
            .collect();
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit_rows(&all, &train);
        for &r in &test {
            loko_preds.push(tree.predict(all.row(r)));
            loko_energy.push(energies[r].clone());
        }
    }
    let a0 = tolerance_accuracy(&loko_preds, &loko_energy, 0.0);
    let a5 = tolerance_accuracy(&loko_preds, &loko_energy, 0.05);
    let a10 = tolerance_accuracy(&loko_preds, &loko_energy, 0.10);
    println!(
        "{:<22} {:>8} {:>7.1}% {:>7.1}% {:>7.1}%",
        "kernel (LOKO, pooled)",
        loko_preds.len(),
        a0 * 100.0,
        a5 * 100.0,
        a10 * 100.0
    );
    rows.push(Row {
        held_out: "kernel:LOKO".into(),
        test_samples: loko_preds.len(),
        acc_at_0: a0,
        acc_at_5: a5,
        acc_at_10: a10,
    });

    println!("\nshape checks:");
    let within_suite = rows
        .iter()
        .take(3)
        .map(|r| r.acc_at_5)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  worst held-out-suite acc@5%: {:.1}%",
        within_suite * 100.0
    );
    println!(
        "  LOKO acc@5% {:.1}% vs mixed-CV ~94%: unseen-kernel generalisation is the hard case",
        a5 * 100.0
    );
    args.dump_json(&rows);
    args.write_manifest("suite_generalization", &opts, None, start);
}
