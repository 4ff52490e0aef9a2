//! E3 — Figure 2 (left): classification accuracy vs energy tolerance for
//! static (AGG) features, dynamic features, and the naive always-8 policy.
//!
//! Expected shape (paper): the decision tree always beats always-8; AGG
//! static features exceed 75% accuracy at 5% tolerance; dynamic features
//! sit above static ones by a bounded margin.

use pulp_bench::{load_or_build_dataset, CommonArgs};
use pulp_energy::{
    always_n_curve, default_tolerances, report::render_curves, tolerance_curve, StaticFeatureSet,
};

fn main() {
    let start = std::time::Instant::now();
    let args = CommonArgs::parse();
    let opts = args.pipeline_options();
    let data = load_or_build_dataset(&opts, &args, None);
    let protocol = args.protocol();
    let tolerances = default_tolerances();
    let energies = data.energies();

    if !args.quiet {
        args.logger().info(
            "fig2-left",
            "cross-validating",
            &[
                ("folds", protocol.folds.to_string()),
                ("repeats", protocol.repeats.to_string()),
                ("samples", data.len().to_string()),
            ],
        );
    }

    let agg = data
        .static_dataset(StaticFeatureSet::Agg)
        .expect("static dataset");
    let static_curve = tolerance_curve("static(AGG)", &agg, &energies, &tolerances, &protocol);

    let dyn_data = data.dynamic_dataset().expect("dynamic dataset");
    let dynamic_curve = tolerance_curve("dynamic", &dyn_data, &energies, &tolerances, &protocol);

    let naive = always_n_curve(8, &energies, &tolerances);

    let curves = vec![static_curve, dynamic_curve, naive];
    println!("E3 / Figure 2 (left) — accuracy vs energy tolerance\n");
    print!("{}", render_curves(&curves));

    println!("\nshape checks:");
    let at = |i: usize, t: f64| curves[i].at(t).expect("non-empty tolerance grid");
    let s0 = at(0, 0.0);
    let s5 = at(0, 0.05);
    let d5 = at(1, 0.05);
    let n5 = at(2, 0.05);
    println!("  static(AGG) @5%  = {:.1}%  (paper: >75%)", s5 * 100.0);
    println!("  static(AGG) @0%  = {:.1}%", s0 * 100.0);
    println!("  dynamic     @5%  = {:.1}%", d5 * 100.0);
    println!("  always-8    @5%  = {:.1}%", n5 * 100.0);
    println!(
        "  tree beats always-8 at every tolerance: {}",
        curves[0].tolerances.iter().all(|&t| at(0, t) >= at(2, t))
    );
    args.dump_json(&curves);
    args.write_manifest("fig2_left", &opts, Some(&protocol), start);
}
