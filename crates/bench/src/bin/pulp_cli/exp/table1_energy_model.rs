//! E1 — Table I: regenerate the per-instruction-class energy table.
//!
//! The paper derives Table I from post-layout simulation of synthetic
//! benchmarks, each containing a single class of instructions. This
//! experiment does the simulator-side equivalent: it runs
//! single-instruction-class microbenchmarks on one core and reports the
//! *marginal* energy per event next to the Table-I coefficient it should
//! reproduce. Deviations expose accounting bugs (each event must be
//! charged exactly once).

use pulp_energy_model::{energy_of, EnergyModel};
use pulp_sim::{
    simulate, AddrExpr, ClusterConfig, FpOp, OpKind, Program, SegOp, L2_BASE, TCDM_BASE,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    class: &'static str,
    table1_fj: f64,
    measured_fj_per_event: f64,
    error_percent: f64,
}

fn microbench(kind: OpKind, addr: Option<u32>, n: u64) -> Program {
    let instr = SegOp::Instr {
        kind,
        addr: addr.map(AddrExpr::constant),
    };
    Program::new(vec![vec![
        SegOp::LoopBegin { trip: n },
        instr,
        SegOp::LoopEnd,
    ]])
}

/// Marginal energy per event: subtract a baseline run with half the events
/// so the per-cycle platform overheads cancel exactly for 1-cycle ops.
fn marginal(config: &ClusterConfig, model: &EnergyModel, kind: OpKind, addr: Option<u32>) -> f64 {
    let n1 = 4096u64;
    let n0 = 2048u64;
    let e1 = energy_of(
        &simulate(config, &microbench(kind, addr, n1)).expect("sim"),
        model,
        config,
    );
    let e0 = energy_of(
        &simulate(config, &microbench(kind, addr, n0)).expect("sim"),
        model,
        config,
    );
    (e1.total() - e0.total()) / (n1 - n0) as f64
}

pub fn run(ctx: pulp_bench::RunContext) {
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();

    // Per-cycle platform overhead (leakage + idle of every component while
    // one core runs) — subtracted to isolate the PE-side op energy.
    let idle_per_cycle = {
        let a = energy_of(
            &simulate(&config, &microbench(OpKind::Nop, None, 4096)).expect("sim"),
            &model,
            &config,
        );
        let b = energy_of(
            &simulate(&config, &microbench(OpKind::Nop, None, 2048)).expect("sim"),
            &model,
            &config,
        );
        // Marginal energy of one NOP cycle minus the NOP coefficient and
        // I-cache use = platform per-cycle cost.
        (a.total() - b.total()) / 2048.0 - model.pe.nop - model.icache.use_
    };

    let cases: Vec<(&'static str, OpKind, Option<u32>, f64)> = vec![
        ("PE NOP", OpKind::Nop, None, model.pe.nop),
        ("PE ALU", OpKind::Alu, None, model.pe.alu),
        (
            "PE FP",
            OpKind::Fp(FpOp::Mul),
            None,
            model.pe.fp + model.fpu.operative,
        ),
        (
            "PE L1 (+bank read)",
            OpKind::Load,
            Some(TCDM_BASE),
            model.pe.l1 + model.l1_bank.read - model.l1_bank.idle,
        ),
        (
            "PE L1 (+bank write)",
            OpKind::Store,
            Some(TCDM_BASE),
            model.pe.l1 + model.l1_bank.write - model.l1_bank.idle,
        ),
        (
            "PE L2 (+bank read, +14 wait)",
            OpKind::Load,
            Some(L2_BASE),
            model.pe.l2 + model.l2_bank.read - model.l2_bank.idle
                + 14.0 * (model.pe.nop + idle_per_cycle),
        ),
    ];

    println!("E1 / Table I — energy model calibration (single-class microbenchmarks, 1 core)");
    println!("platform overhead per active cycle: {idle_per_cycle:.0} fJ");
    println!(
        "{:<30} {:>12} {:>12} {:>8}",
        "class", "table1 fJ", "measured fJ", "err%"
    );
    let mut rows = Vec::new();
    for (class, kind, addr, expected) in cases {
        let measured = marginal(&config, &model, kind, addr)
            - model.icache.use_
            - if kind == OpKind::Nop {
                0.0
            } else {
                idle_per_cycle
            };
        // Expected includes the per-event coefficients; measured removes
        // the I-cache fetch and platform overhead shared by all classes.
        let adjusted_expected = expected
            + if kind == OpKind::Nop {
                idle_per_cycle
            } else {
                0.0
            };
        let err = 100.0 * (measured - adjusted_expected) / adjusted_expected;
        println!("{class:<30} {adjusted_expected:>12.0} {measured:>12.0} {err:>7.2}%");
        rows.push(Row {
            class,
            table1_fj: adjusted_expected,
            measured_fj_per_event: measured,
            error_percent: err,
        });
    }

    let worst = rows
        .iter()
        .map(|r| r.error_percent.abs())
        .fold(0.0, f64::max);
    println!("\nmax |error| = {worst:.2}% (expected ~0: the accounting charges each event once)");
    ctx.finish(&rows);
}
