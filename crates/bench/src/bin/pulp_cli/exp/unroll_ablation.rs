//! E9 (extension) — compiler-knob sensitivity: loop unrolling.
//!
//! The paper extracts static features from one fixed compilation of each
//! kernel. This ablation asks how robust the approach is to a compiler
//! knob it holds fixed: innermost-loop unrolling changes both the energy
//! landscape (fewer loop-control instructions, more I-cache refills) and
//! the static features (bigger `op`/`tcdm` counts). We measure, per
//! unroll factor: the energy at the optimum, whether the optimal core
//! count moves, and whether a predictor trained on factor-1 code still
//! places unrolled kernels within tolerance.

use kernel_ir::{unroll_innermost, DType};
use pulp_bench::RunContext;
use pulp_energy::{measure_kernel, static_feature_vector, EnergyPredictor, StaticFeatureSet};
use pulp_energy_model::EnergyModel;
use pulp_kernels::{registry, KernelParams};
use pulp_ml::TreeParams;
use pulp_sim::ClusterConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    kernel: String,
    factor: u32,
    optimal_cores: usize,
    energy_at_optimum_uj: f64,
    energy_saved_vs_rolled: f64,
    static_op: f64,
    predictor_waste: f64,
}

pub fn run(mut ctx: RunContext) {
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();

    // Train a predictor on ordinary (factor-1) kernels.
    if !ctx.args.quiet {
        ctx.args
            .logger()
            .info("unroll", "training factor-1 predictor", &[]);
    }
    let data = ctx.dataset();
    let predictor =
        EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default()).expect("train");

    let kernels = ["fir", "gemm", "autocorr", "conv2d_5x5"];
    let factors = [1u32, 2, 4, 8];
    println!("E9 — loop-unrolling ablation\n");
    println!(
        "{:<12} {:>7} {:>6} {:>12} {:>10} {:>10} {:>12}",
        "kernel", "unroll", "best", "E@best [uJ]", "saved", "static op", "pred waste"
    );
    let mut rows = Vec::new();
    for name in kernels {
        let def = registry()
            .into_iter()
            .find(|d| d.name == name)
            .expect("kernel");
        let base = def
            .build(&KernelParams::new(DType::I32, 8196))
            .expect("build");
        let mut rolled_energy = 0.0;
        for factor in factors {
            let kernel = unroll_innermost(&base, factor);
            let profile = measure_kernel(&kernel, &config, &model).expect("measure");
            let best = profile.label();
            let e_best = profile.energy[best];
            if factor == 1 {
                rolled_energy = e_best;
            }
            let predicted = predictor.predict_cores(&kernel) - 1;
            let waste = profile.waste(predicted);
            let op = static_feature_vector(&kernel)[0];
            println!(
                "{:<12} {:>7} {:>6} {:>12.4} {:>9.1}% {:>10} {:>11.1}%",
                name,
                factor,
                best + 1,
                e_best * 1e-9,
                (1.0 - e_best / rolled_energy) * 100.0,
                op,
                waste * 100.0
            );
            rows.push(Row {
                kernel: name.to_string(),
                factor,
                optimal_cores: best + 1,
                energy_at_optimum_uj: e_best * 1e-9,
                energy_saved_vs_rolled: 1.0 - e_best / rolled_energy,
                static_op: op,
                predictor_waste: waste,
            });
        }
    }

    println!("\nshape checks:");
    let saved_any = rows
        .iter()
        .any(|r| r.factor > 1 && r.energy_saved_vs_rolled > 0.02);
    println!("  unrolling saves energy somewhere (> 2%): {saved_any}");
    let max_waste = rows
        .iter()
        .filter(|r| r.factor > 1)
        .map(|r| r.predictor_waste)
        .fold(0.0f64, f64::max);
    println!(
        "  factor-1 predictor stays within {:.1}% waste on unrolled code",
        max_waste * 100.0
    );
    ctx.finish(&rows);
}
