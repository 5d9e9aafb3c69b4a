//! Warp state machine.
//!
//! Each warp owns its [`WarpProgram`] and a small amount of scoreboard-like
//! state: what it is currently waiting for (a long-latency compute result, an
//! outstanding memory request, a barrier). The scheduling flags of §IV-A —
//! the *active* bit `V` and the *isolation* bit `I` — belong to the policy
//! that sets them (CIAO keeps them per warp slot), not to the warp.

use crate::trace::{WarpOp, WarpProgram};
use gpu_mem::{CtaId, Cycle, WarpId};

/// Execution state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Ready to issue its next operation.
    Ready,
    /// Executing a compute instruction until the given cycle.
    Executing {
        /// Cycle at which the result is written back and the warp is ready again.
        until: Cycle,
    },
    /// Waiting for outstanding memory requests to return.
    WaitingMem {
        /// Number of block transactions still in flight.
        outstanding: u32,
    },
    /// Waiting at a CTA barrier.
    AtBarrier,
    /// All operations executed.
    Finished,
}

/// A warp resident on the SM.
pub struct Warp {
    /// SM-local warp identifier (0..max_warps_per_sm).
    pub id: WarpId,
    /// CTA this warp belongs to.
    pub cta: CtaId,
    /// Launch order (used by GTO's "oldest" tie-break).
    pub launch_seq: u64,
    /// Execution state.
    pub state: WarpState,
    /// Dynamic instructions issued by this warp.
    pub instructions: u64,
    /// Global-memory block transactions issued by this warp.
    pub mem_transactions: u64,
    /// Operation fetched from the program but not yet successfully issued
    /// (kept across cycles when a structural hazard forces a replay).
    pending_op: Option<WarpOp>,
    /// The warp's operation stream.
    program: Box<dyn WarpProgram>,
}

impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("id", &self.id)
            .field("cta", &self.cta)
            .field("state", &self.state)
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl Warp {
    /// Creates a warp executing `program`.
    pub fn new(id: WarpId, cta: CtaId, launch_seq: u64, program: Box<dyn WarpProgram>) -> Self {
        Warp {
            id,
            cta,
            launch_seq,
            state: WarpState::Ready,
            instructions: 0,
            mem_transactions: 0,
            pending_op: None,
            program,
        }
    }

    /// True when the warp has finished its program.
    pub fn is_finished(&self) -> bool {
        self.state == WarpState::Finished
    }

    /// True when the warp could issue an operation this cycle (ignoring
    /// scheduler throttling, which is the scheduler's decision).
    pub fn is_ready(&self, now: Cycle) -> bool {
        match self.state {
            WarpState::Ready => true,
            WarpState::Executing { until } => until <= now,
            _ => false,
        }
    }

    /// Fetches (or re-fetches) the operation the warp wants to issue next.
    /// Returns `None` when the program is exhausted, in which case the caller
    /// should mark the warp finished.
    pub fn peek_op(&mut self) -> Option<&WarpOp> {
        if self.pending_op.is_none() {
            self.pending_op = self.program.next_op();
        }
        self.pending_op.as_ref()
    }

    /// The operation already fetched by [`Warp::peek_op`] and not yet issued,
    /// without fetching a new one.
    pub fn pending(&self) -> Option<&WarpOp> {
        self.pending_op.as_ref()
    }

    /// Consumes the pending operation after it has been successfully issued.
    pub fn take_op(&mut self) -> Option<WarpOp> {
        self.pending_op.take()
    }

    /// Marks the warp as executing a compute instruction finishing at `until`.
    pub fn start_compute(&mut self, until: Cycle) {
        self.state = WarpState::Executing { until };
        self.instructions += 1;
    }

    /// Marks the warp as waiting for `outstanding` memory transactions.
    /// An `outstanding` of zero (e.g. all accesses hit and completed
    /// immediately) leaves the warp executing until `fallback_until`.
    pub fn start_mem(&mut self, outstanding: u32, fallback_until: Cycle) {
        self.instructions += 1;
        if outstanding == 0 {
            self.state = WarpState::Executing { until: fallback_until };
        } else {
            self.state = WarpState::WaitingMem { outstanding };
        }
    }

    /// Records the completion of one outstanding memory transaction;
    /// the warp becomes ready when the last one returns.
    pub fn complete_mem(&mut self) {
        if let WarpState::WaitingMem { outstanding } = self.state {
            if outstanding <= 1 {
                self.state = WarpState::Ready;
            } else {
                self.state = WarpState::WaitingMem { outstanding: outstanding - 1 };
            }
        }
    }

    /// Puts the warp at a barrier.
    pub fn enter_barrier(&mut self) {
        self.instructions += 1;
        self.state = WarpState::AtBarrier;
    }

    /// Releases the warp from a barrier.
    pub fn release_barrier(&mut self) {
        debug_assert_eq!(self.state, WarpState::AtBarrier);
        self.state = WarpState::Ready;
    }

    /// Marks the warp as finished.
    pub fn finish(&mut self) {
        self.state = WarpState::Finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{VecProgram, WarpOp};

    fn warp_with(ops: Vec<WarpOp>) -> Warp {
        Warp::new(0, 0, 0, Box::new(VecProgram::new(ops)))
    }

    #[test]
    fn peek_take_cycle() {
        let mut w = warp_with(vec![WarpOp::alu(), WarpOp::Barrier]);
        assert!(matches!(w.peek_op(), Some(WarpOp::Compute { .. })));
        // Peeking twice returns the same op without consuming.
        assert!(matches!(w.peek_op(), Some(WarpOp::Compute { .. })));
        assert!(matches!(w.take_op(), Some(WarpOp::Compute { .. })));
        assert!(matches!(w.peek_op(), Some(WarpOp::Barrier)));
        w.take_op();
        assert!(w.peek_op().is_none());
    }

    #[test]
    fn compute_blocks_until_done() {
        let mut w = warp_with(vec![WarpOp::alu()]);
        w.start_compute(10);
        assert!(!w.is_ready(5));
        assert!(w.is_ready(10));
        assert_eq!(w.instructions, 1);
    }

    #[test]
    fn memory_wait_counts_down() {
        let mut w = warp_with(vec![]);
        w.start_mem(2, 0);
        assert!(!w.is_ready(100));
        w.complete_mem();
        assert!(!w.is_ready(100));
        w.complete_mem();
        assert!(w.is_ready(100));
    }

    #[test]
    fn zero_outstanding_mem_uses_fallback_latency() {
        let mut w = warp_with(vec![]);
        w.start_mem(0, 7);
        assert!(!w.is_ready(6));
        assert!(w.is_ready(7));
    }

    #[test]
    fn barrier_and_release() {
        let mut w = warp_with(vec![]);
        w.enter_barrier();
        assert_eq!(w.state, WarpState::AtBarrier);
        assert!(!w.is_ready(0));
        w.release_barrier();
        assert!(w.is_ready(0));
    }

    #[test]
    fn finish_is_terminal() {
        let mut w = warp_with(vec![]);
        w.finish();
        assert!(w.is_finished());
        assert!(!w.is_ready(1_000_000));
    }

    #[test]
    fn pending_reports_the_fetched_op_without_fetching() {
        let mut w = warp_with(vec![WarpOp::alu()]);
        assert!(w.pending().is_none(), "nothing fetched yet");
        w.peek_op();
        assert!(matches!(w.pending(), Some(WarpOp::Compute { .. })));
        w.take_op();
        assert!(w.pending().is_none());
    }
}
