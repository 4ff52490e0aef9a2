//! Cluster DMA engine model.
//!
//! The paper's dataset deliberately keeps every working set inside the TCDM
//! so that no DMA transfers occur during kernels ("we avoid the need to take
//! into account DMA transfers"), but the engine is part of the platform and
//! its idle/leakage energy is charged for the whole run. The model below
//! also supports explicit transfers, which the paper lists as future work
//! (modelling DMA and the memory hierarchy) — exercised by the
//! `ablation_platform` bench and by examples that stage data from L2.

use serde::{Deserialize, Serialize};

/// Cycles of setup cost per programmed transfer.
pub const DMA_SETUP_CYCLES: u64 = 16;

/// Words moved per cycle once a transfer is streaming (64-bit AXI beat).
pub const DMA_WORDS_PER_CYCLE: u64 = 2;

/// A programmed 1D transfer between L2 and TCDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaTransfer {
    /// Number of 32-bit words to move.
    pub words: u64,
    /// `true` when moving L2 → TCDM ("in"), `false` for TCDM → L2 ("out").
    pub inbound: bool,
}

impl DmaTransfer {
    /// Creates an inbound (L2 → TCDM) transfer of `words` words.
    #[inline]
    pub fn inbound(words: u64) -> Self {
        Self {
            words,
            inbound: true,
        }
    }

    /// Creates an outbound (TCDM → L2) transfer of `words` words.
    #[inline]
    pub fn outbound(words: u64) -> Self {
        Self {
            words,
            inbound: false,
        }
    }

    /// Cycles the engine is busy executing this transfer
    /// (`DMA_WORDS_PER_CYCLE` words per cycle after setup).
    #[inline]
    pub fn busy_cycles(&self) -> u64 {
        DMA_SETUP_CYCLES + self.words.div_ceil(DMA_WORDS_PER_CYCLE)
    }
}

/// Accumulated DMA activity over a run.
///
/// Besides the activity totals, the engine tracks the absolute cycle at
/// which its current stream of transfers drains ([`DmaEngine::free_at`]).
/// Keeping completion as a cycle *stamp* rather than a per-cycle countdown
/// is what lets the fast-forward path jump the clock over a transfer in one
/// step: nothing in here needs ticking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaEngine {
    words: u64,
    busy: u64,
    free_at: u64,
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes a transfer to completion, returning the cycles it took.
    ///
    /// Accounting-only entry point; use [`DmaEngine::schedule`] inside the
    /// simulator so completion time is tracked too.
    #[inline]
    pub fn run(&mut self, t: DmaTransfer) -> u64 {
        let c = t.busy_cycles();
        self.words += t.words;
        self.busy += c;
        c
    }

    /// Programs `t` at `cycle`, returning the cycles the engine is busy
    /// with it and extending [`DmaEngine::free_at`] past the transfer.
    #[inline]
    pub fn schedule(&mut self, cycle: u64, t: DmaTransfer) -> u64 {
        let c = self.run(t);
        self.free_at = self.free_at.max(cycle + c);
        c
    }

    /// First cycle at which every scheduled transfer has drained. A core
    /// parked on `DmaWait` provably spins until this cycle, which is the
    /// DMA contribution to the fast-forward event horizon.
    #[inline]
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Returns `true` while a scheduled transfer is still streaming at
    /// `cycle` (an async issue must retry).
    #[inline]
    pub fn busy_at(&self, cycle: u64) -> bool {
        cycle < self.free_at
    }

    /// Total words moved.
    #[inline]
    pub fn words_transferred(&self) -> u64 {
        self.words
    }

    /// Total busy cycles.
    #[inline]
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_setup_plus_beats() {
        let t = DmaTransfer::inbound(128);
        assert_eq!(t.busy_cycles(), DMA_SETUP_CYCLES + 64);
        // Odd word counts round up to a full beat.
        assert_eq!(DmaTransfer::inbound(5).busy_cycles(), DMA_SETUP_CYCLES + 3);
    }

    #[test]
    fn engine_accumulates() {
        let mut e = DmaEngine::new();
        e.run(DmaTransfer::inbound(10));
        e.run(DmaTransfer::outbound(20));
        assert_eq!(e.words_transferred(), 30);
        assert_eq!(e.busy_cycles(), 2 * DMA_SETUP_CYCLES + 15);
    }

    #[test]
    fn schedule_tracks_completion_stamp() {
        let mut e = DmaEngine::new();
        assert!(!e.busy_at(0));
        let busy = e.schedule(100, DmaTransfer::inbound(128));
        assert_eq!(busy, DMA_SETUP_CYCLES + 64);
        assert_eq!(e.free_at(), 100 + busy);
        assert!(e.busy_at(100 + busy - 1));
        assert!(!e.busy_at(100 + busy));
        // Back-to-back scheduling extends rather than rewinds the stamp.
        let earlier = e.schedule(0, DmaTransfer::outbound(2));
        assert!(e.free_at() >= 100 + busy, "stamp rewound by {earlier}");
        assert_eq!(e.words_transferred(), 130);
    }
}
