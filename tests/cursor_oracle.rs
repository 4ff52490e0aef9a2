//! Differential test: the simulator's [`Cursor`] against the reference
//! loop-folding walker it replaced.
//!
//! The cursor resolves the common case — the pc already on a non-loop op —
//! inline and folds loop entry, iteration and exit out of line. The
//! reference below is the walker as it was before that split: one loop that
//! folds every `LoopBegin`/`LoopEnd` marker on each call. On random loop
//! nests (nested, zero-trip and trip-1 loops, multi-term affine addresses,
//! `DmaWait`/`Barrier` right after a `LoopEnd`) both must yield the same
//! [`Step`] and the same `next_is_dma_wait` answer at every position.

use proptest::prelude::*;
use pulp_sim::{AddrExpr, Cursor, MicroOp, OpKind, Program, SegOp, Step, TCDM_BASE};

/// The reference walker: folds loop bookkeeping in one loop on every call.
struct RefCursor<'p> {
    stream: &'p [SegOp],
    matches: Vec<usize>,
    pc: usize,
    /// `(loop begin pc, remaining iterations)` frames.
    frames: Vec<(usize, u64)>,
    ivs: Vec<u64>,
}

impl<'p> RefCursor<'p> {
    fn new(program: &'p Program, core: usize) -> Self {
        let stream = program.stream(core);
        let mut matches = vec![usize::MAX; stream.len()];
        let mut stack = Vec::new();
        for (pc, op) in stream.iter().enumerate() {
            match op {
                SegOp::LoopBegin { .. } => stack.push(pc),
                SegOp::LoopEnd => {
                    let b = stack.pop().expect("unmatched LoopEnd");
                    matches[b] = pc;
                    matches[pc] = b;
                }
                _ => {}
            }
        }
        Self {
            stream,
            matches,
            pc: 0,
            frames: Vec::new(),
            ivs: Vec::new(),
        }
    }

    fn resolve(&mut self) -> Option<&'p SegOp> {
        let stream = self.stream;
        loop {
            let op = stream.get(self.pc)?;
            match op {
                SegOp::LoopBegin { trip } => {
                    if *trip == 0 {
                        self.pc = self.matches[self.pc] + 1;
                    } else {
                        self.frames.push((self.pc, *trip));
                        self.ivs.push(0);
                        self.pc += 1;
                    }
                }
                SegOp::LoopEnd => {
                    let f = self.frames.last_mut().expect("dangling LoopEnd");
                    f.1 -= 1;
                    if f.1 == 0 {
                        self.frames.pop();
                        self.ivs.pop();
                        self.pc += 1;
                    } else {
                        *self.ivs.last_mut().expect("iv stack") += 1;
                        self.pc = f.0 + 1;
                    }
                }
                _ => return Some(op),
            }
        }
    }

    fn current(&mut self) -> Step {
        let Some(op) = self.resolve() else {
            return Step::Done;
        };
        match op {
            SegOp::Instr { kind, addr } => Step::Op(MicroOp {
                kind: *kind,
                addr: addr.as_ref().map(|e| e.eval(&self.ivs)),
            }),
            SegOp::Barrier => Step::Barrier,
            SegOp::Fork => Step::Fork,
            SegOp::WaitFork => Step::WaitFork,
            SegOp::CriticalBegin => Step::CriticalBegin,
            SegOp::CriticalEnd => Step::CriticalEnd,
            SegOp::Dma { words, inbound } => Step::Dma {
                words: *words,
                inbound: *inbound,
            },
            SegOp::DmaAsync { words, inbound } => Step::DmaAsync {
                words: *words,
                inbound: *inbound,
            },
            SegOp::DmaWait => Step::DmaWait,
            SegOp::LoopBegin { .. } | SegOp::LoopEnd => unreachable!("resolve folds loops"),
        }
    }

    fn next_is_dma_wait(&mut self) -> bool {
        matches!(self.resolve(), Some(SegOp::DmaWait))
    }

    fn advance(&mut self) {
        if self.pc < self.stream.len() {
            self.pc += 1;
        }
    }
}

/// Trip counts drawn for generated loops: zero-trip and trip-1 loops are
/// the edge cases of the folding logic.
const TRIPS: [u64; 6] = [0, 1, 1, 2, 3, 5];

/// Builds one core stream from a token list. Each `(tag, a, b)` token
/// opens a loop, closes the innermost open loop (the closing marker is
/// often followed by a `DmaWait` or `Barrier`), or emits an op — a memory
/// op gets an affine address over up to every enclosing induction
/// variable. Open loops are closed at the end, so the stream validates.
fn stream_of_tokens(tokens: &[(u8, u8, u8)]) -> Vec<SegOp> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    for &(tag, a, b) in tokens {
        match tag % 8 {
            0 | 1 if depth < 4 => {
                out.push(SegOp::LoopBegin {
                    trip: TRIPS[usize::from(a) % TRIPS.len()],
                });
                depth += 1;
            }
            2 | 3 if depth > 0 => {
                out.push(SegOp::LoopEnd);
                depth -= 1;
                match b % 3 {
                    0 => out.push(SegOp::DmaWait),
                    1 => out.push(SegOp::Barrier),
                    _ => {}
                }
            }
            4 | 5 => {
                let terms = (0..depth)
                    .filter(|d| (a >> d) & 1 == 1)
                    .map(|d| (d as u8, (4 * (1 + i64::from(b % 7))) << d))
                    .collect();
                out.push(SegOp::Instr {
                    kind: if b % 2 == 0 {
                        OpKind::Load
                    } else {
                        OpKind::Store
                    },
                    addr: Some(AddrExpr {
                        base: i64::from(TCDM_BASE) + 4 * i64::from(a),
                        terms,
                    }),
                });
            }
            6 => out.push(match a % 4 {
                0 => SegOp::DmaWait,
                1 => SegOp::Barrier,
                2 => SegOp::DmaAsync {
                    words: u64::from(b) + 1,
                    inbound: true,
                },
                _ => SegOp::CriticalBegin,
            }),
            _ => out.push(SegOp::Instr {
                kind: [OpKind::Alu, OpKind::Mul, OpKind::Nop][usize::from(a) % 3],
                addr: None,
            }),
        }
    }
    out.extend(std::iter::repeat_n(SegOp::LoopEnd, depth));
    out
}

/// Walks both cursors in lock-step, probing each position the way the
/// simulator does (`next_is_dma_wait` right after an advance, `current` to
/// issue, both idempotent until the next advance).
fn walk_in_lockstep(program: &Program, probes: &[u8]) -> Result<(), String> {
    let mut cursor = Cursor::new(program, 0);
    let mut reference = RefCursor::new(program, 0);
    let mut steps = 0usize;
    loop {
        let probe = probes[steps % probes.len()];
        if probe & 1 == 1 {
            prop_assert_eq!(
                cursor.next_is_dma_wait(),
                reference.next_is_dma_wait(),
                "next_is_dma_wait diverged at step {}",
                steps
            );
        }
        let step = cursor.current();
        prop_assert_eq!(step, reference.current(), "step {} diverged", steps);
        if probe & 2 == 2 {
            prop_assert_eq!(cursor.current(), step, "current() is not idempotent");
            prop_assert_eq!(cursor.next_is_dma_wait(), step == Step::DmaWait);
        }
        if step == Step::Done {
            prop_assert!(cursor.is_done());
            return Ok(());
        }
        cursor.advance();
        reference.advance();
        steps += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cursor yields exactly the reference walker's steps on random
    /// loop nests, at every position and for every probe order.
    #[test]
    fn cursor_matches_reference_walker_on_random_loop_nests(
        tokens in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 0..48),
        probes in prop::collection::vec(0u8..4, 1..8),
    ) {
        let program = Program::new(vec![stream_of_tokens(&tokens)]);
        prop_assert_eq!(program.validate(), Ok(()));
        walk_in_lockstep(&program, &probes)?;
    }
}

/// Hand-written nests covering each folding edge case at least once:
/// markers back to back, a zero-trip loop around a nest, a trip-1 loop,
/// and `DmaWait`/`Barrier` directly after a `LoopEnd` (including at the
/// end of the stream).
#[test]
fn cursor_matches_reference_walker_on_edge_case_nests() {
    let alu = || SegOp::Instr {
        kind: OpKind::Alu,
        addr: None,
    };
    let load = |terms: Vec<(u8, i64)>| SegOp::Instr {
        kind: OpKind::Load,
        addr: Some(AddrExpr {
            base: i64::from(TCDM_BASE),
            terms,
        }),
    };
    let streams = [
        vec![
            SegOp::LoopBegin { trip: 3 },
            SegOp::LoopBegin { trip: 2 },
            load(vec![(0, 64), (1, 4)]),
            SegOp::LoopEnd,
            SegOp::DmaWait,
            SegOp::LoopEnd,
            SegOp::Barrier,
        ],
        vec![
            SegOp::LoopBegin { trip: 0 },
            SegOp::LoopBegin { trip: 4 },
            alu(),
            SegOp::LoopEnd,
            SegOp::LoopEnd,
            SegOp::DmaWait,
            alu(),
        ],
        vec![
            SegOp::LoopBegin { trip: 1 },
            SegOp::LoopBegin { trip: 1 },
            SegOp::LoopEnd,
            SegOp::LoopEnd,
            SegOp::LoopBegin { trip: 2 },
            SegOp::LoopBegin { trip: 0 },
            alu(),
            SegOp::LoopEnd,
            load(vec![(0, 8)]),
            SegOp::LoopEnd,
        ],
        vec![
            alu(),
            SegOp::LoopBegin { trip: 2 },
            SegOp::LoopBegin { trip: 3 },
            SegOp::LoopBegin { trip: 2 },
            load(vec![(0, 256), (1, 32), (2, 4)]),
            SegOp::LoopEnd,
            SegOp::Barrier,
            SegOp::LoopEnd,
            SegOp::LoopEnd,
        ],
    ];
    for (i, stream) in streams.into_iter().enumerate() {
        let program = Program::new(vec![stream]);
        assert_eq!(program.validate(), Ok(()), "stream {i}");
        for probes in [[0u8], [1], [2], [3]] {
            walk_in_lockstep(&program, &probes)
                .unwrap_or_else(|e| panic!("stream {i}, probes {probes:?}: {e:?}"));
        }
    }
}
