//! E4 — Figure 2 (right): classification accuracy vs energy tolerance
//! across static feature families (RAW, AGG, MCA, RAW+AGG, ALL) plus the
//! importance-pruned "optimised" set.
//!
//! Expected shape (paper): the families are roughly coherent at 0%
//! tolerance (~57%), approach 80% at 5%, and pruning to the most important
//! features improves the 0%-tolerance accuracy.

use pulp_bench::{load_or_build_dataset, CommonArgs};
use pulp_energy::{
    default_tolerances, report::render_curves, tolerance_curve, top_feature_columns,
    StaticFeatureSet, ToleranceCurve,
};

/// Features kept by the pruning step (the paper's "optimised" classifier).
const OPTIMIZED_FEATURES: usize = 6;

fn main() {
    let start = std::time::Instant::now();
    let args = CommonArgs::parse();
    let opts = args.pipeline_options();
    let data = load_or_build_dataset(&opts, &args, None);
    let protocol = args.protocol();
    let tolerances = default_tolerances();
    let energies = data.energies();

    let mut curves: Vec<ToleranceCurve> = Vec::new();
    for set in StaticFeatureSet::ALL_SETS {
        let ds = data.static_dataset(set).expect("static dataset");
        if !args.quiet {
            args.logger().info(
                "fig2-right",
                "evaluating feature set",
                &[
                    ("set", set.name().to_string()),
                    ("features", ds.n_features().to_string()),
                ],
            );
        }
        curves.push(tolerance_curve(
            set.name(),
            &ds,
            &energies,
            &tolerances,
            &protocol,
        ));
    }

    // Optimised: rank the full static vector, keep the top features.
    let all = data
        .static_dataset(StaticFeatureSet::All)
        .expect("static dataset");
    let top = top_feature_columns(&all, OPTIMIZED_FEATURES, &protocol);
    let kept: Vec<&str> = top
        .iter()
        .map(|&c| all.feature_names()[c].as_str())
        .collect();
    if !args.quiet {
        args.logger().info(
            "fig2-right",
            "optimised set keeps",
            &[("features", format!("{kept:?}"))],
        );
    }
    let optimized = all.select_features(&top);
    curves.push(tolerance_curve(
        "optimised",
        &optimized,
        &energies,
        &tolerances,
        &protocol,
    ));

    println!("E4 / Figure 2 (right) — static feature families\n");
    print!("{}", render_curves(&curves));
    println!("\noptimised set keeps: {kept:?}");

    println!("\nshape checks:");
    for c in &curves {
        let at = |t: f64| c.at(t).expect("non-empty tolerance grid");
        println!(
            "  {:<10} @0% = {:>5.1}%   @5% = {:>5.1}%",
            c.label,
            at(0.0) * 100.0,
            at(0.05) * 100.0
        );
    }
    args.dump_json(&curves);
    args.write_manifest("fig2_right", &opts, Some(&protocol), start);
}
