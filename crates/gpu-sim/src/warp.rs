//! Warp state machine.
//!
//! Each warp owns its [`WarpProgram`] and a small amount of scoreboard-like
//! state: what it is currently waiting for (a long-latency compute result, an
//! outstanding memory request, a barrier). The scheduling flags of §IV-A —
//! the *active* bit `V` and the *isolation* bit `I` — belong to the policy
//! that sets them (CIAO keeps them per warp slot), not to the warp.
//!
//! The SM holds its warps in `WarpSlots`, which keeps each slot's *wake
//! clock* (`Warp::wake_at`) and the set of *live* slots (those a clock
//! alone can make ready) up to date on every state transition, so the SM's
//! per-cycle scans visit only live slots.

use std::ops::Deref;

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

    /// The cycle from which the warp can issue by the passage of time alone:
    /// `0` when `Ready`, `until` when `Executing`, and `Cycle::MAX` when
    /// only an event can wake it (a memory reply or a barrier release) or it
    /// has finished. On any cycle below `Cycle::MAX`, the warp is ready
    /// exactly when this is at or before it.
    pub(crate) fn wake_at(&self) -> Cycle {
        match self.state {
            WarpState::Ready => 0,
            WarpState::Executing { until } => until,
            WarpState::WaitingMem { .. } | WarpState::AtBarrier | WarpState::Finished => Cycle::MAX,
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

    /// Keeps the fetched op for a retry at `until`: an issue that a
    /// structural hazard turned away (a full MSHR file) counts nothing and
    /// leaves the warp busy until then.
    pub(crate) fn retry_at(&mut self, until: Cycle) {
        self.state = WarpState::Executing { until };
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

/// A set of warp slots below a fixed slot count: one bit per slot in
/// `u64` words, so any slot count fits. Iterated in ascending slot order.
#[derive(Debug)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set of slots `0..slots`.
    pub fn new(slots: usize) -> Self {
        SlotSet { words: vec![0; slots.div_ceil(64)] }
    }

    /// Adds `slot`, which must be below the set's slot count.
    pub fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    /// Removes `slot`, which must be below the set's slot count.
    pub fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    /// True when `slot` is in the set (any `slot` may be asked about).
    pub fn contains(&self, slot: usize) -> bool {
        self.words.get(slot / 64).is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    /// Removes every slot, keeping the words.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The lowest slot not in the set (the slot count rounded up to whole
    /// words when every slot is in it).
    pub fn first_absent(&self) -> usize {
        match self.words.iter().position(|&word| word != u64::MAX) {
            Some(i) => i * 64 + self.words[i].trailing_ones() as usize,
            None => self.words.len() * 64,
        }
    }

    /// The slots in ascending order.
    pub fn iter(&self) -> SlotIter<'_> {
        SlotIter { words: self.words.iter(), base: 0, bits: 0 }
    }
}

/// Ascending iterator over a [`SlotSet`], one word at a time.
pub(crate) struct SlotIter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// The first slot of the word after the one in `bits`.
    base: usize,
    /// The unvisited slots of the current word.
    bits: u64,
}

impl Iterator for SlotIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base += 64;
        }
        let slot = self.base - 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(slot)
    }
}

/// The SM's warp slots, with each slot's wake clock and the set of live
/// slots kept beside them.
///
/// `wake[i]` is `warps[i].wake_at()` and slot `i` is live exactly when that
/// is finite (the warp is `Ready` or `Executing`). Both are re-read after
/// every state transition, which therefore goes through
/// [`WarpSlots::launch`] or [`WarpSlots::update`]: the slots hand out no
/// `&mut Warp`. Reads go through `Deref` to `[Warp]`.
#[derive(Debug)]
pub(crate) struct WarpSlots {
    warps: Vec<Warp>,
    wake: Vec<Cycle>,
    live: SlotSet,
}

impl WarpSlots {
    /// No warps yet, in an SM of `slots` warp slots.
    pub fn new(slots: usize) -> Self {
        WarpSlots { warps: Vec::new(), wake: Vec::new(), live: SlotSet::new(slots) }
    }

    /// Puts a newly launched warp into `slot`: the next new slot, or one
    /// whose warp has finished.
    pub fn launch(&mut self, slot: usize, warp: Warp) {
        if slot == self.warps.len() {
            self.warps.push(warp);
            self.wake.push(Cycle::MAX);
        } else {
            debug_assert!(self.warps[slot].is_finished(), "slot {slot} still in use");
            self.warps[slot] = warp;
        }
        self.sync(slot);
    }

    /// Applies the state transition `f` to the warp in `slot` and re-reads
    /// its wake clock.
    pub fn update(&mut self, slot: usize, f: impl FnOnce(&mut Warp)) {
        f(&mut self.warps[slot]);
        self.sync(slot);
    }

    fn sync(&mut self, slot: usize) {
        let at = self.warps[slot].wake_at();
        self.wake[slot] = at;
        if at == Cycle::MAX {
            self.live.remove(slot);
        } else {
            self.live.insert(slot);
        }
    }

    /// Calls `f` on each slot whose warp is ready at `now` (a cycle below
    /// `Cycle::MAX`), in ascending slot order, after fetching the warp's next
    /// op ([`Warp::peek_op`]; `pending` is `None` once its program ended).
    /// Visits only live slots: the others wait for an event.
    pub fn for_each_ready(&mut self, now: Cycle, mut f: impl FnMut(usize, &Warp)) {
        for slot in self.live.iter() {
            if self.wake[slot] <= now {
                let warp = &mut self.warps[slot];
                warp.peek_op();
                f(slot, warp);
            }
        }
    }

    /// [`Warp::take_op`] on the warp in `slot`.
    pub fn take_op(&mut self, slot: usize) -> Option<WarpOp> {
        self.warps[slot].take_op()
    }

    /// The wake clock of `slot` ([`Warp::wake_at`]).
    pub fn wake_at(&self, slot: usize) -> Cycle {
        self.wake[slot]
    }

    /// The live slots in ascending order.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter()
    }

    /// True when the wake clock and the live set equal a recompute from
    /// every warp's state.
    pub fn clock_is_consistent(&self) -> bool {
        self.warps.len() == self.wake.len()
            && self.warps.iter().zip(&self.wake).enumerate().all(|(i, (w, &at))| {
                at == w.wake_at() && self.live.contains(i) == (at != Cycle::MAX)
            })
            && self.live.iter().all(|i| i < self.warps.len())
    }
}

impl Deref for WarpSlots {
    type Target = [Warp];

    fn deref(&self) -> &[Warp] {
        &self.warps
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

    #[test]
    fn wake_clock_follows_every_transition() {
        let mut slots = WarpSlots::new(2);
        slots.launch(0, warp_with(vec![]));
        slots.launch(1, warp_with(vec![]));
        assert_eq!((slots.wake_at(0), slots.live().collect::<Vec<_>>()), (0, vec![0, 1]));
        slots.update(0, |w| w.start_compute(9));
        slots.update(1, |w| w.start_mem(2, 0));
        assert_eq!((slots.wake_at(0), slots.wake_at(1)), (9, Cycle::MAX));
        assert_eq!(slots.live().collect::<Vec<_>>(), vec![0]);
        slots.update(1, Warp::complete_mem);
        assert!(!slots.live.contains(1), "one transaction still in flight");
        slots.update(1, Warp::complete_mem);
        slots.update(0, |w| w.retry_at(12));
        assert_eq!((slots.wake_at(0), slots.wake_at(1)), (12, 0));
        slots.update(0, Warp::enter_barrier);
        slots.update(1, Warp::finish);
        assert_eq!(slots.live().count(), 0);
        slots.update(0, Warp::release_barrier);
        assert_eq!(slots.live().collect::<Vec<_>>(), vec![0]);
        slots.launch(1, warp_with(vec![]));
        assert_eq!(slots.live().collect::<Vec<_>>(), vec![0, 1]);
        assert!(slots.clock_is_consistent());
    }

    #[test]
    fn slot_set_spans_words_in_ascending_order() {
        let mut set = SlotSet::new(131);
        assert_eq!((set.first_absent(), set.iter().next(), set.len()), (0, None, 0));
        for slot in [130, 0, 63, 64, 65] {
            set.insert(slot);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 130]);
        assert_eq!((set.len(), set.first_absent()), (5, 1));
        for slot in 0..64 {
            set.insert(slot);
        }
        assert_eq!(set.first_absent(), 66);
        set.remove(64);
        assert!(!set.contains(64) && set.contains(65) && !set.contains(500));
        for slot in 64..131 {
            set.insert(slot);
        }
        assert_eq!(set.first_absent(), 131);
        set.remove(64);
        assert_eq!(set.first_absent(), 64);
        set.clear();
        assert_eq!((set.iter().count(), set.first_absent()), (0, 0));
        let mut full = SlotSet::new(64);
        (0..64).for_each(|slot| full.insert(slot));
        assert_eq!((full.len(), full.first_absent()), (64, 64));
    }
}
