//! Exclusive cycle-cause taxonomy.
//!
//! Every simulated core cycle is attributed to exactly one [`CycleCause`]:
//! the per-core [`CycleBreakdown`] totals sum to the run's cycle count
//! (checked by `SimStats::check_consistency`). This is the attribution
//! layer the observability stack builds on — the same causes flow through
//! trace lines (`stall <cause>` / `cg_enter <cause>`), the listener
//! reconstruction in the energy crate, and the `Telemetry` hooks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a core spent one specific cycle the way it did.
///
/// Exactly one cause applies per core per cycle. `Execute` is the only
/// productive cause (one retired op per cycle); the remainder partition the
/// non-retiring cycles by the mechanism responsible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CycleCause {
    /// The core retired a micro-op this cycle.
    Execute,
    /// Tail of a multi-cycle instruction (MUL/DIV latency, taken-branch
    /// penalty, FP pipeline occupancy after issue).
    ExecTail,
    /// Lost TCDM bank arbitration; the access retries next cycle.
    TcdmConflict,
    /// The shared FPU for this core was busy with a partner core's op.
    FpuContention,
    /// Waiting on the L2 port or an in-flight L2 access's latency.
    L2Wait,
    /// Waiting at (or sleeping in) the cluster barrier.
    Barrier,
    /// Worker sleeping until the master signals a fork.
    ForkWait,
    /// OpenMP runtime overhead: master fork sequence, wake dispatch and
    /// critical-section lock spinning.
    Runtime,
    /// Programming, blocking on, or retrying behind the DMA engine.
    Dma,
    /// Parked: the core finished its stream, or is unused by the team.
    Idle,
}

impl CycleCause {
    /// All causes, in [`CycleBreakdown`] field order.
    pub const ALL: [CycleCause; 10] = [
        CycleCause::Execute,
        CycleCause::ExecTail,
        CycleCause::TcdmConflict,
        CycleCause::FpuContention,
        CycleCause::L2Wait,
        CycleCause::Barrier,
        CycleCause::ForkWait,
        CycleCause::Runtime,
        CycleCause::Dma,
        CycleCause::Idle,
    ];

    /// Stable lowercase token used in trace payloads and JSON keys.
    pub fn token(self) -> &'static str {
        match self {
            CycleCause::Execute => "execute",
            CycleCause::ExecTail => "exec_tail",
            CycleCause::TcdmConflict => "tcdm_conflict",
            CycleCause::FpuContention => "fpu_contention",
            CycleCause::L2Wait => "l2_wait",
            CycleCause::Barrier => "barrier",
            CycleCause::ForkWait => "fork_wait",
            CycleCause::Runtime => "runtime",
            CycleCause::Dma => "dma",
            CycleCause::Idle => "idle",
        }
    }

    /// Parses a [`CycleCause::token`] back into a cause.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.token() == token)
    }
}

impl fmt::Display for CycleCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Per-core cycle counts, one per [`CycleCause`].
///
/// The taxonomy is exclusive and exhaustive: [`CycleBreakdown::total`]
/// equals the run's cycle count for every core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycles retiring a micro-op.
    pub execute: u64,
    /// Multi-cycle instruction tails.
    pub exec_tail: u64,
    /// TCDM bank-conflict retries.
    pub tcdm_conflict: u64,
    /// Shared-FPU arbitration losses.
    pub fpu_contention: u64,
    /// L2 port waits and access latency.
    pub l2_wait: u64,
    /// Barrier arrival and barrier sleep.
    pub barrier: u64,
    /// Fork-wait sleep on worker cores.
    pub fork_wait: u64,
    /// OpenMP runtime overhead (fork sequence, wake dispatch, lock spin).
    pub runtime: u64,
    /// DMA programming/blocking/retry cycles.
    pub dma: u64,
    /// Parked cycles (finished or unused cores).
    pub idle: u64,
}

impl CycleBreakdown {
    /// Adds one cycle to `cause`.
    #[inline]
    pub fn add(&mut self, cause: CycleCause) {
        *self.slot(cause) += 1;
    }

    /// Adds `n` cycles to `cause`.
    #[inline]
    pub fn add_n(&mut self, cause: CycleCause, n: u64) {
        *self.slot(cause) += n;
    }

    /// The count for `cause`.
    pub fn count(&self, cause: CycleCause) -> u64 {
        match cause {
            CycleCause::Execute => self.execute,
            CycleCause::ExecTail => self.exec_tail,
            CycleCause::TcdmConflict => self.tcdm_conflict,
            CycleCause::FpuContention => self.fpu_contention,
            CycleCause::L2Wait => self.l2_wait,
            CycleCause::Barrier => self.barrier,
            CycleCause::ForkWait => self.fork_wait,
            CycleCause::Runtime => self.runtime,
            CycleCause::Dma => self.dma,
            CycleCause::Idle => self.idle,
        }
    }

    #[inline]
    fn slot(&mut self, cause: CycleCause) -> &mut u64 {
        match cause {
            CycleCause::Execute => &mut self.execute,
            CycleCause::ExecTail => &mut self.exec_tail,
            CycleCause::TcdmConflict => &mut self.tcdm_conflict,
            CycleCause::FpuContention => &mut self.fpu_contention,
            CycleCause::L2Wait => &mut self.l2_wait,
            CycleCause::Barrier => &mut self.barrier,
            CycleCause::ForkWait => &mut self.fork_wait,
            CycleCause::Runtime => &mut self.runtime,
            CycleCause::Dma => &mut self.dma,
            CycleCause::Idle => &mut self.idle,
        }
    }

    /// Sum over all causes; equals the run's cycle count per core.
    pub fn total(&self) -> u64 {
        CycleCause::ALL.iter().map(|&c| self.count(c)).sum()
    }

    /// `(cause, count)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleCause, u64)> + '_ {
        CycleCause::ALL.into_iter().map(move |c| (c, self.count(c)))
    }

    /// Merges another breakdown into this one (e.g. summing over cores).
    pub fn merge(&mut self, other: &CycleBreakdown) {
        for (cause, n) in other.iter() {
            self.add_n(cause, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for cause in CycleCause::ALL {
            assert_eq!(CycleCause::from_token(cause.token()), Some(cause));
        }
        assert_eq!(CycleCause::from_token("bogus"), None);
    }

    #[test]
    fn add_and_total_agree() {
        let mut b = CycleBreakdown::default();
        for (i, cause) in CycleCause::ALL.into_iter().enumerate() {
            b.add_n(cause, i as u64 + 1);
        }
        assert_eq!(b.total(), (1..=10).sum::<u64>());
        assert_eq!(b.count(CycleCause::Execute), 1);
        assert_eq!(b.count(CycleCause::Idle), 10);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CycleBreakdown {
            execute: 3,
            barrier: 2,
            ..Default::default()
        };
        let b = CycleBreakdown {
            execute: 1,
            idle: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.execute, 4);
        assert_eq!(a.barrier, 2);
        assert_eq!(a.idle, 7);
        assert_eq!(a.total(), 13);
    }

    #[test]
    fn iter_is_in_canonical_order() {
        let b = CycleBreakdown::default();
        let causes: Vec<CycleCause> = b.iter().map(|(c, _)| c).collect();
        assert_eq!(causes.as_slice(), &CycleCause::ALL);
    }
}
