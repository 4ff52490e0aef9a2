//! E5 — Table IV: most relevant features.
//!
//! Ranks dynamic and static features by decision-tree importance. Expected
//! shape (paper): `PE_sleep` at extreme parallelism dominates the dynamic
//! ranking; `avgws`, `F4` and `F1` dominate the static ranking, with a few
//! MCA port pressures in the tail.

use pulp_bench::RunContext;
use pulp_energy::{rank_features, report::render_importances, StaticFeatureSet};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Record {
    dynamic: Vec<pulp_energy::RankedFeature>,
    static_: Vec<pulp_energy::RankedFeature>,
}

pub fn run(mut ctx: RunContext) {
    let data = ctx.dataset();
    let protocol = ctx.protocol;

    let dynamic = rank_features(&data.dynamic_dataset().expect("dynamic"), &protocol);
    let static_ = rank_features(
        &data.static_dataset(StaticFeatureSet::All).expect("static"),
        &protocol,
    );

    println!("E5 / Table IV — most relevant features\n");
    print!(
        "{}",
        render_importances("Dynamic features (top 12):", &dynamic, 12)
    );
    println!();
    print!(
        "{}",
        render_importances("Static features (top 9):", &static_, 9)
    );

    println!("\nshape checks:");
    let top_dynamic: Vec<&str> = dynamic.iter().take(4).map(|r| r.name.as_str()).collect();
    println!(
        "  PE_sleep among top dynamic features: {} (top 4: {:?})",
        top_dynamic.iter().any(|n| n.starts_with("PE_sleep")),
        top_dynamic
    );
    let top_static: Vec<&str> = static_.iter().take(3).map(|r| r.name.as_str()).collect();
    println!(
        "  avgws/F-features lead static ranking: {} (top 3: {:?})",
        top_static
            .iter()
            .any(|n| matches!(*n, "avgws" | "F1" | "F3" | "F4" | "transfer")),
        top_static
    );

    ctx.finish(&Record { dynamic, static_ });
}
