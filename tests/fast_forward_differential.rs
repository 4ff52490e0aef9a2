//! Differential test: the event-horizon fast-forward against the
//! single-step oracle on randomized programs.
//!
//! Programs are generated as a sequence of episodes over a shared
//! synchronisation skeleton (so they always validate): per-core compute
//! blocks, blocking and asynchronous DMA transfers, fork/join regions and
//! critical sections, each closed by a cluster barrier. Every sampled
//! program runs at 1..=8 cores through both simulator modes and must
//! produce bit-identical architectural statistics (including the per-core
//! 10-cause cycle histograms) and an identical trace-event stream.
//!
//! A second generator adds affine loop nests — TCDM or L2 loads and stores
//! whose addresses move with the induction variables, per-core trip counts
//! (zero-trip and trip-1 included) and fork/join regions — so loop folding
//! and bank mapping are diffed too, on the default cluster, on one with
//! non-power-of-two bank counts and on the no-clock-gating ablation.

use proptest::prelude::*;
use pulp_sim::{
    simulate_opts, AddrExpr, ClusterConfig, FpOp, NoTelemetry, OpKind, Program, SegOp, SimOptions,
    SimScratch, SimStats, TraceEvent, VecSink, L2_BASE, TCDM_BASE,
};

fn instr(kind: OpKind) -> SegOp {
    SegOp::Instr { kind, addr: None }
}

fn load(addr: u32) -> SegOp {
    SegOp::Instr {
        kind: OpKind::Load,
        addr: Some(AddrExpr::constant(addr)),
    }
}

/// One episode of the shared synchronisation skeleton.
#[derive(Debug, Clone)]
enum Episode {
    /// Per-core op mixes (index selects kind), each `(mix, reps)`.
    Compute(Vec<(u8, u8)>),
    /// Master runs a blocking DMA while workers head to the barrier.
    Dma { words: u64, inbound: bool },
    /// Master overlaps an async DMA with compute, then drains it.
    DmaAsync { words: u64, overlap: u8 },
    /// Fork/join region with per-core work.
    Fork(Vec<u8>),
    /// Every core takes the cluster critical section.
    Critical,
    /// Every core runs an affine loop nest (see [`ops_of_nest`]).
    Nest(Nest),
}

/// A per-core loop nest over memory: `trips[d]` iterations at depth `d`
/// (odd cores run one more at the innermost depth, so teams arrive at the
/// closing barrier unevenly), a body of `body` ops cycling through load,
/// ALU, store and FP, and addresses `base + Σ strides[d] · iv_d` in the
/// TCDM or in L2.
#[derive(Debug, Clone)]
struct Nest {
    trips: Vec<u64>,
    strides: Vec<i64>,
    body: u8,
    l2: bool,
    forked: bool,
}

fn ops_of_nest(nest: &Nest, core: usize, out: &mut Vec<SegOp>) {
    let depth = nest.trips.len();
    for (d, &trip) in nest.trips.iter().enumerate() {
        let extra = u64::from(d + 1 == depth && core % 2 == 1);
        out.push(SegOp::LoopBegin { trip: trip + extra });
    }
    let base = if nest.l2 { L2_BASE } else { TCDM_BASE } + 256 * core as u32;
    for i in 0..nest.body {
        let addr = |offset: u32| {
            Some(AddrExpr {
                base: i64::from(base + offset),
                terms: (0..depth).map(|d| (d as u8, nest.strides[d])).collect(),
            })
        };
        out.push(match i % 4 {
            0 => SegOp::Instr {
                kind: OpKind::Load,
                addr: addr(4 * u32::from(i)),
            },
            1 => instr(OpKind::Alu),
            2 => SegOp::Instr {
                kind: OpKind::Store,
                addr: addr(64),
            },
            _ => instr(OpKind::Fp(FpOp::Mul)),
        });
    }
    out.extend(std::iter::repeat_n(SegOp::LoopEnd, depth));
}

fn ops_of_mix(mix: u8, reps: u8, out: &mut Vec<SegOp>) {
    for r in 0..reps {
        out.push(match mix % 5 {
            0 => instr(OpKind::Alu),
            1 => instr(OpKind::Mul),
            2 => instr(OpKind::Fp(FpOp::Div)),
            3 => load(TCDM_BASE + u32::from(r % 4) * 4),
            _ => load(TCDM_BASE), // all cores on one bank: conflict stalls
        });
    }
}

/// Expands the episode list into one stream per core. Every episode ends
/// with a cluster barrier, so the synchronisation skeleton matches across
/// cores by construction and the program always validates.
fn program_of_episodes(team: usize, episodes: &[Episode]) -> Program {
    let mut streams = vec![Vec::new(); team];
    for ep in episodes {
        match ep {
            Episode::Compute(mixes) => {
                for (core, stream) in streams.iter_mut().enumerate() {
                    let (mix, reps) = mixes[core % mixes.len()];
                    ops_of_mix(mix, reps, stream);
                }
            }
            Episode::Dma { words, inbound } => {
                streams[0].push(SegOp::Dma {
                    words: *words,
                    inbound: *inbound,
                });
            }
            Episode::DmaAsync { words, overlap } => {
                streams[0].push(SegOp::DmaAsync {
                    words: *words,
                    inbound: true,
                });
                ops_of_mix(0, *overlap, &mut streams[0]);
                streams[0].push(SegOp::DmaWait);
            }
            Episode::Fork(work) => {
                for (core, stream) in streams.iter_mut().enumerate() {
                    stream.push(if core == 0 {
                        SegOp::Fork
                    } else {
                        SegOp::WaitFork
                    });
                    ops_of_mix(1, work[core % work.len()], stream);
                }
            }
            Episode::Critical => {
                for stream in &mut streams {
                    stream.push(SegOp::CriticalBegin);
                    stream.push(instr(OpKind::Alu));
                    stream.push(SegOp::CriticalEnd);
                }
            }
            Episode::Nest(nest) => {
                for (core, stream) in streams.iter_mut().enumerate() {
                    if nest.forked {
                        stream.push(if core == 0 {
                            SegOp::Fork
                        } else {
                            SegOp::WaitFork
                        });
                    }
                    ops_of_nest(nest, core, stream);
                }
            }
        }
        for stream in &mut streams {
            stream.push(SegOp::Barrier);
        }
    }
    Program::new(streams)
}

fn arb_episode() -> impl Strategy<Value = Episode> {
    (
        0u8..5,
        prop::collection::vec((0u8..5, 0u8..12), 1..8),
        16u64..2048,
        prop::bool::ANY,
        prop::collection::vec(0u8..10, 1..8),
        0u8..8,
    )
        .prop_map(|(kind, mixes, words, inbound, work, overlap)| match kind {
            0 => Episode::Compute(mixes),
            1 => Episode::Dma { words, inbound },
            2 => Episode::DmaAsync {
                words: words / 2 + 16,
                overlap,
            },
            3 => Episode::Fork(work),
            _ => Episode::Critical,
        })
}

/// The flat episodes of [`arb_episode`] mixed with affine loop nests.
fn arb_episode_or_nest() -> impl Strategy<Value = Episode> {
    (
        prop::bool::ANY,
        arb_episode(),
        prop::collection::vec((0u64..6, 0usize..6), 1..4),
        1u8..9,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(|(nest, flat, loops, body, l2, forked)| {
            if !nest {
                return flat;
            }
            const STRIDES: [i64; 6] = [4, 8, 12, 16, 64, 68];
            Episode::Nest(Nest {
                trips: loops.iter().map(|&(trip, _)| trip).collect(),
                strides: loops.iter().map(|&(_, s)| STRIDES[s]).collect(),
                body,
                l2,
                forked,
            })
        })
}

/// The clusters the loop-nest differential runs on: the paper's, one with
/// non-power-of-two TCDM and L2 bank counts (the bank map's modulo path),
/// and the no-clock-gating ablation (sleepers stall every cycle).
fn nest_configs() -> [(&'static str, ClusterConfig); 3] {
    let odd_banks = ClusterConfig {
        tcdm_banks: 12,
        l2_banks: 24,
        ..ClusterConfig::default()
    };
    [
        ("default", ClusterConfig::default()),
        ("12 tcdm banks", odd_banks),
        (
            "no clock gating",
            ClusterConfig::default().without_clock_gating(),
        ),
    ]
}

fn run(
    config: &ClusterConfig,
    program: &Program,
    opts: &SimOptions,
    scratch: &mut SimScratch,
) -> (SimStats, Vec<(u64, TraceEvent)>) {
    let mut sink = VecSink::new();
    let stats = simulate_opts(config, program, opts, &mut sink, &mut NoTelemetry, scratch)
        .expect("episode programs always terminate");
    (stats, sink.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast-forward is bit-identical to the single-step oracle on random
    /// episode programs at every team size: same statistics, same 10-cause
    /// cycle histograms, same trace-event stream.
    #[test]
    fn fast_forward_matches_oracle_on_random_programs(
        episodes in prop::collection::vec(arb_episode(), 1..6),
        team in 1usize..9,
    ) {
        let config = ClusterConfig::default();
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let ff_opts = SimOptions::default();
        let oracle_opts = SimOptions::oracle();
        let mut scratch = SimScratch::new();
        let (ff, ff_events) = run(&config, &program, &ff_opts, &mut scratch);
        let (oracle, oracle_events) = run(&config, &program, &oracle_opts, &mut scratch);
        // The oracle must never take a bulk span.
        prop_assert_eq!(oracle.fast_forward.spans, 0);
        prop_assert_eq!(oracle.fast_forward.skipped_cycles, 0);
        // Per-core cause histograms agree exactly.
        for (core, (a, b)) in ff.cores.iter().zip(oracle.cores.iter()).enumerate() {
            prop_assert_eq!(
                &a.breakdown, &b.breakdown,
                "core {} cause histogram diverged", core
            );
        }
        // The trace streams are identical event for event.
        prop_assert_eq!(ff_events, oracle_events);
        // Architectural state is bit-identical modulo the ff diagnostics.
        prop_assert_eq!(ff.without_fast_forward(), oracle);
    }

    /// The adaptive scan re-arm points never miss a skippable span: on
    /// random episode programs at every team size, adaptive scanning takes
    /// exactly the same bulk spans (count and skipped cycles) as scanning
    /// on every iteration, while computing the horizon no more often — and
    /// the architectural results stay bit-identical.
    #[test]
    fn adaptive_scan_never_misses_a_span_on_random_programs(
        episodes in prop::collection::vec(arb_episode(), 1..6),
        team in 1usize..9,
    ) {
        let config = ClusterConfig::default();
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let adaptive_opts = SimOptions::default(); // adaptive_scan: true
        let always_opts = SimOptions::default().with_adaptive_scan(false);
        let mut scratch = SimScratch::new();
        let (adaptive, adaptive_events) = run(&config, &program, &adaptive_opts, &mut scratch);
        let (always, always_events) = run(&config, &program, &always_opts, &mut scratch);
        // Same spans: an armed scan at every point the always-scan skips.
        prop_assert_eq!(adaptive.fast_forward.spans, always.fast_forward.spans);
        prop_assert_eq!(
            adaptive.fast_forward.skipped_cycles,
            always.fast_forward.skipped_cycles
        );
        prop_assert_eq!(
            adaptive.fast_forward.horizon_skips,
            always.fast_forward.horizon_skips
        );
        // Adaptive never scans more often than once per iteration.
        prop_assert!(
            adaptive.fast_forward.horizon_computations
                <= always.fast_forward.horizon_computations,
            "adaptive scanned {} times vs always-scan's {}",
            adaptive.fast_forward.horizon_computations,
            always.fast_forward.horizon_computations
        );
        // And the architectural results are bit-identical.
        prop_assert_eq!(adaptive.without_fast_forward(), always.without_fast_forward());
        prop_assert_eq!(adaptive_events, always_events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast-forward is bit-identical to the single-step oracle on random
    /// programs with affine loop nests, at every team size, on each of the
    /// [`nest_configs`] clusters: same statistics, same trace stream.
    #[test]
    fn fast_forward_matches_oracle_on_random_loop_nests(
        episodes in prop::collection::vec(arb_episode_or_nest(), 1..6),
        team in 1usize..9,
    ) {
        let program = program_of_episodes(team, &episodes);
        prop_assert_eq!(program.validate(), Ok(()));
        let mut scratch = SimScratch::new();
        for (name, config) in nest_configs() {
            let (ff, ff_events) = run(&config, &program, &SimOptions::default(), &mut scratch);
            let (oracle, oracle_events) =
                run(&config, &program, &SimOptions::oracle(), &mut scratch);
            prop_assert_eq!(ff_events, oracle_events, "{}: trace streams diverged", name);
            prop_assert_eq!(ff.without_fast_forward(), oracle, "{}: stats diverged", name);
        }
    }
}

/// A fixed barrier/DMA-heavy regression program: long quiescent spans, so
/// the fast-forward must actually engage while staying bit-identical.
#[test]
fn fast_forward_engages_and_matches_on_dma_heavy_program() {
    let config = ClusterConfig::default();
    let episodes = [
        Episode::Dma {
            words: 4096,
            inbound: true,
        },
        Episode::Fork(vec![3, 1, 4, 1, 5]),
        Episode::Dma {
            words: 2048,
            inbound: false,
        },
        Episode::Critical,
    ];
    let mut scratch = SimScratch::new();
    for team in [2usize, 4, 8] {
        let program = program_of_episodes(team, &episodes);
        let (ff, ff_events) = run(&config, &program, &SimOptions::default(), &mut scratch);
        let (oracle, oracle_events) = run(&config, &program, &SimOptions::oracle(), &mut scratch);
        assert!(
            ff.skip_ratio() > 0.5,
            "team {team}: expected heavy skipping, got {}",
            ff.skip_ratio()
        );
        assert_eq!(ff.without_fast_forward(), oracle, "team {team}");
        assert_eq!(ff_events, oracle_events, "team {team}");
    }
}

/// A fixed program that exercises every nest shape on each of the
/// [`nest_configs`] clusters: a forked TCDM nest with a zero-trip loop on
/// even cores, a serial L2 nest and a trip-1 nest, at team sizes 1, 3 and 8.
#[test]
fn fast_forward_matches_oracle_on_fixed_loop_nests() {
    let episodes = [
        Episode::Nest(Nest {
            trips: vec![3, 0, 4],
            strides: vec![64, 12, 4],
            body: 5,
            l2: false,
            forked: true,
        }),
        Episode::Nest(Nest {
            trips: vec![2, 5],
            strides: vec![68, 8],
            body: 3,
            l2: true,
            forked: false,
        }),
        Episode::Nest(Nest {
            trips: vec![1],
            strides: vec![16],
            body: 8,
            l2: false,
            forked: true,
        }),
    ];
    let mut scratch = SimScratch::new();
    for (name, config) in nest_configs() {
        for team in [1usize, 3, 8] {
            let program = program_of_episodes(team, &episodes);
            let (ff, ff_events) = run(&config, &program, &SimOptions::default(), &mut scratch);
            let (oracle, oracle_events) =
                run(&config, &program, &SimOptions::oracle(), &mut scratch);
            assert!(ff.total_retired() > 0, "{name}, team {team}: nothing ran");
            assert_eq!(ff.without_fast_forward(), oracle, "{name}, team {team}");
            assert_eq!(ff_events, oracle_events, "{name}, team {team}");
        }
    }
}
