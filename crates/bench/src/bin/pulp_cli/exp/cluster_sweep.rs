//! E11 (extension) — beyond `8c4flp`: energy/parallelism landscapes on
//! alternative cluster shapes.
//!
//! The paper fixes the platform to the 8-core/4-FPU instance. This
//! experiment sweeps the team size on three cluster shapes — the paper's
//! `8c4flp`, a 16-core/8-FPU scale-up, and an FPU-starved 8-core/2-FPU
//! variant — and reports where the minimum-energy configuration lands for
//! representative kernels. It shows the labels are a property of the
//! *platform*, not the kernel alone: the same source moves its optimum
//! when the cluster shape changes.

use kernel_ir::{lower, DType};
use pulp_bench::RunContext;
use pulp_energy_model::{energy_of, EnergyModel};
use pulp_kernels::{registry, KernelParams};
use pulp_sim::{simulate, ClusterConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    cluster: String,
    kernel: String,
    dtype: String,
    optimal_cores: usize,
    max_cores: usize,
    energy_at_optimum_uj: f64,
}

fn shapes() -> Vec<(String, ClusterConfig)> {
    let base = ClusterConfig::default();
    let mut big = base.clone().with_cores(16);
    big.num_fpus = 8;
    big.tcdm_banks = 32;
    let mut starved = base.clone();
    starved.num_fpus = 2;
    vec![
        ("8c4f (paper)".to_string(), base),
        ("16c8f".to_string(), big),
        ("8c2f".to_string(), starved),
    ]
}

pub fn run(ctx: RunContext) {
    let model = EnergyModel::table1();
    let kernels = [
        ("gemm", DType::F32),
        ("fpu_storm", DType::F32),
        ("bank_hammer", DType::I32),
        ("compute_dense", DType::I32),
        ("fir", DType::F32),
    ];

    println!("E11 — cluster-shape sweep (payload 8196 B)\n");
    println!(
        "{:<14} {:<16} {:>6} {:>10} {:>14}",
        "cluster", "kernel", "dtype", "best", "E@best [uJ]"
    );
    let mut rows = Vec::new();
    for (cluster_name, config) in shapes() {
        for (name, dtype) in kernels {
            let def = registry()
                .into_iter()
                .find(|d| d.name == name)
                .expect("kernel");
            let kernel = def.build(&KernelParams::new(dtype, 8196)).expect("build");
            let mut best = (0usize, f64::INFINITY);
            for team in 1..=config.num_cores {
                let lowered = lower(&kernel, team, &config).expect("lower");
                let stats = simulate(&config, &lowered.program).expect("simulate");
                let e = energy_of(&stats, &model, &config).total();
                if e < best.1 {
                    best = (team, e);
                }
            }
            println!(
                "{:<14} {:<16} {:>6} {:>7}/{:<2} {:>14.4}",
                cluster_name,
                name,
                dtype.to_string(),
                best.0,
                config.num_cores,
                best.1 * 1e-9
            );
            rows.push(Row {
                cluster: cluster_name.clone(),
                kernel: name.to_string(),
                dtype: dtype.to_string(),
                optimal_cores: best.0,
                max_cores: config.num_cores,
                energy_at_optimum_uj: best.1 * 1e-9,
            });
        }
    }

    println!("\nshape checks:");
    let opt = |cluster: &str, kernel: &str| {
        rows.iter()
            .find(|r| r.cluster.starts_with(cluster) && r.kernel == kernel)
            .map(|r| r.optimal_cores)
            .unwrap_or(0)
    };
    println!(
        "  fpu_storm/f32 optimum tracks the FPU count: 8c2f={} 8c4f={} 16c8f={}",
        opt("8c2f", "fpu_storm"),
        opt("8c4f", "fpu_storm"),
        opt("16c8f", "fpu_storm")
    );
    println!(
        "  bank_hammer stays low everywhere: 8c4f={} 16c8f={}",
        opt("8c4f", "bank_hammer"),
        opt("16c8f", "bank_hammer")
    );
    // The manifest records the paper-shape baseline; the alternative
    // cluster shapes are derived from it in `shapes()`.
    ctx.finish(&rows);
}
