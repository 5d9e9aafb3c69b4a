//! Warp state machine.
//!
//! Each warp owns its [`WarpProgram`] and a small amount of scoreboard-like
//! state: what it is currently waiting for (a long-latency compute result, an
//! outstanding memory request, a barrier). The scheduling flags of §IV-A —
//! the *active* bit `V` and the *isolation* bit `I` — belong to the policy
//! that sets them (CIAO keeps them per warp slot), not to the warp.
//!
//! The SM holds its warps in `WarpSlots`, which keeps its slot masks up to
//! date on every state transition: the *ready* warps, the *timed*
//! (`Executing`) warps with their write-back cycles, and the warps that
//! hold a *fetched* op, with two more words that say whether that op is a
//! global access or a barrier, one `u64` word of each per 64 slots, kept
//! inline. The SM reads them as [`SlotSet`]s, one bit per slot of a
//! `u128`, so its per-cycle eligibility test is a few word operations and
//! a warp waiting on an event is not visited until the event arrives.
//! The SM and its warp scheduler trade the same sets: the SM offers the
//! ready warps as one (`SchedulerCtx::ready`) and the scheduler answers
//! which live warps it holds back as another
//! (`WarpScheduler::throttled`), so CIAO's `V` bits reach the SM as the
//! mask CIAO keeps.
//! An `Executing` warp is promoted to `Ready` by the first step at or after
//! its write-back cycle.

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

/// A set of warp slots below [`SlotSet::CAPACITY`], one bit per slot of a
/// `u128` kept inline, so a set is `Copy` and a set operation (`&`, `|`,
/// `!`) is a pair of word operations. Iterated in ascending slot order.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSet(u128);

impl std::fmt::Debug for SlotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for SlotSet {
    fn from_iter<I: IntoIterator<Item = usize>>(slots: I) -> Self {
        let mut set = SlotSet::default();
        slots.into_iter().for_each(|slot| set.insert(slot));
        set
    }
}

impl SlotSet {
    /// The most slots a set holds, and so the most warp slots an SM has.
    pub const CAPACITY: usize = u128::BITS as usize;

    /// The slots `0..n`, for `n` up to [`SlotSet::CAPACITY`].
    pub fn below(n: usize) -> Self {
        debug_assert!(n <= Self::CAPACITY, "{n} slots past the slot masks");
        SlotSet(if n >= Self::CAPACITY { u128::MAX } else { (1u128 << n) - 1 })
    }

    /// The bit of `slot`, which must be below [`SlotSet::CAPACITY`], built
    /// from a 64-bit shift (a variable 128-bit shift takes several
    /// instructions).
    fn bit(slot: usize) -> u128 {
        debug_assert!(slot < Self::CAPACITY, "slot {slot} past the slot masks");
        let bit = u128::from(1u64 << (slot % 64));
        if slot < 64 {
            bit
        } else {
            bit << 64
        }
    }

    /// Adds `slot`, which must be below [`SlotSet::CAPACITY`].
    pub fn insert(&mut self, slot: usize) {
        self.0 |= Self::bit(slot);
    }

    /// Removes `slot`, which must be below [`SlotSet::CAPACITY`].
    pub fn remove(&mut self, slot: usize) {
        self.0 &= !Self::bit(slot);
    }

    /// Adds `slot` when `on` holds and removes it otherwise.
    pub fn set(&mut self, slot: usize, on: bool) {
        let bit = Self::bit(slot);
        self.0 = if on { self.0 | bit } else { self.0 & !bit };
    }

    /// True when `slot` is in the set (any `slot` may be asked about).
    pub fn contains(&self, slot: usize) -> bool {
        slot < Self::CAPACITY && self.0 >> slot & 1 == 1
    }

    /// True when no slot is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// The one slot of a set of exactly one slot (`None` for any other
    /// set).
    pub fn single(&self) -> Option<usize> {
        (self.0 != 0 && self.0 & (self.0 - 1) == 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// The lowest slot not in the set ([`SlotSet::CAPACITY`] when every
    /// slot is in it).
    pub fn first_absent(&self) -> usize {
        self.0.trailing_ones() as usize
    }

    /// The set whose slots `64 * i + b` are the set bits `b` of `words[i]`.
    fn from_words(words: [u64; Self::CAPACITY / 64]) -> Self {
        SlotSet(u128::from(words[0]) | u128::from(words[1]) << 64)
    }

    /// The slots in ascending order. The iterator holds a copy of the set,
    /// so the set itself may change while it runs.
    pub fn iter(self) -> SlotIter {
        SlotIter { word: self.0 as u64, next: (self.0 >> 64) as u64, base: 0 }
    }
}

impl std::ops::BitAnd for SlotSet {
    type Output = SlotSet;

    fn bitand(self, other: SlotSet) -> SlotSet {
        SlotSet(self.0 & other.0)
    }
}

impl std::ops::BitOr for SlotSet {
    type Output = SlotSet;

    fn bitor(self, other: SlotSet) -> SlotSet {
        SlotSet(self.0 | other.0)
    }
}

impl std::ops::Not for SlotSet {
    type Output = SlotSet;

    fn not(self) -> SlotSet {
        SlotSet(!self.0)
    }
}

/// Ascending iterator over a [`SlotSet`], one `u64` word at a time.
pub struct SlotIter {
    /// The unvisited slots of the current word.
    word: u64,
    /// The unvisited slots of the word after it.
    next: u64,
    /// The first slot of the current word.
    base: usize,
}

impl Iterator for SlotIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            if self.next == 0 {
                return None;
            }
            (self.word, self.next, self.base) = (self.next, 0, self.base + 64);
        }
        let slot = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(slot)
    }
}

/// The masks of one group of 64 consecutive warp slots, side by side, so
/// a transition of one slot rewrites a word of each in place, and no two
/// words of one mask are adjacent in memory (which keeps the compiler from
/// reading a mask as one wide load right after a narrow write to it).
#[derive(Debug, Clone, Copy, Default)]
struct MaskWords {
    ready: u64,
    timed: u64,
    fetched: u64,
    /// Whether the fetched op is a global-memory access (meaningful for
    /// `fetched` slots only).
    global: u64,
    /// Whether the fetched op is a barrier (meaningful for `fetched` slots
    /// only).
    barrier: u64,
}

/// The mask group of `slot` and the bit of `slot` in it.
fn group_bit(slot: usize) -> (usize, u64) {
    (slot / 64, 1 << (slot % 64))
}

/// Sets `bit` in `word` when `on` holds and clears it otherwise.
fn set_bit(word: &mut u64, bit: u64, on: bool) {
    *word = if on { *word | bit } else { *word & !bit };
}

/// The SM's warp slots, with the slot masks its step loop reads kept
/// beside them.
///
/// Slot `i` is in `ready` when its warp is `Ready`, in `timed` when it is
/// `Executing` (`wake[i]` then holds its `until`), and in `fetched` when it
/// holds a fetched op; a fetched slot is in `global` or `barrier` when its
/// op is a global-memory access or a barrier. It is *live*, able to issue
/// by the passage of time alone, when it is in `ready | timed`. The masks are updated at every
/// state transition, which therefore goes through [`WarpSlots::launch`],
/// [`WarpSlots::update`], [`WarpSlots::fetch`], [`WarpSlots::take_op`] or
/// [`WarpSlots::promote`]: the slots hand out no `&mut Warp`. Reads go
/// through `Deref` to `[Warp]`.
#[derive(Debug)]
pub(crate) struct WarpSlots {
    warps: Vec<Warp>,
    wake: Vec<Cycle>,
    masks: [MaskWords; SlotSet::CAPACITY / 64],
    /// The earliest `wake` of a `timed` slot (`Cycle::MAX` when none is).
    next_wake: Cycle,
    /// The slots the last promotion woke, and the cycle it woke them at.
    woken: SlotSet,
    woken_at: Cycle,
}

impl Default for WarpSlots {
    fn default() -> Self {
        WarpSlots {
            warps: Vec::new(),
            wake: Vec::new(),
            masks: Default::default(),
            next_wake: Cycle::MAX,
            woken: SlotSet::default(),
            woken_at: 0,
        }
    }
}

impl WarpSlots {
    /// Puts a newly launched warp into `slot`: the next new slot, or one
    /// whose warp has finished.
    pub fn launch(&mut self, slot: usize, warp: Warp) {
        debug_assert!(slot < SlotSet::CAPACITY, "slot {slot} past the slot masks");
        if slot == self.warps.len() {
            self.warps.push(warp);
            self.wake.push(Cycle::MAX);
        } else {
            debug_assert!(self.warps[slot].is_finished(), "slot {slot} still in use");
            self.warps[slot] = warp;
        }
        let (group, bit) = group_bit(slot);
        self.masks[group].fetched &= !bit;
        self.sync(slot);
    }

    /// Applies the state transition `f` to the warp in `slot` and updates
    /// its masks.
    pub fn update(&mut self, slot: usize, f: impl FnOnce(&mut Warp)) {
        f(&mut self.warps[slot]);
        self.sync(slot);
    }

    /// Re-reads the state of the warp in `slot` into the `ready` and
    /// `timed` masks (only a fetch or a take changes `fetched`).
    fn sync(&mut self, slot: usize) {
        let state = self.warps[slot].state;
        let (group, bit) = group_bit(slot);
        let masks = &mut self.masks[group];
        set_bit(&mut masks.ready, bit, state == WarpState::Ready);
        if let WarpState::Executing { until } = state {
            masks.timed |= bit;
            self.wake[slot] = until;
            self.next_wake = self.next_wake.min(until);
        } else {
            masks.timed &= !bit;
        }
    }

    /// Makes every `Executing` warp whose write-back cycle is at or before
    /// `now` `Ready`. From its `until` on an executing warp issues exactly
    /// as a ready one does, so no reader can tell the two apart. The SM
    /// calls this on every cycle it reaches, so a warp is promoted at its
    /// very write-back cycle, and `ready` names every warp that can issue.
    #[inline]
    pub fn promote(&mut self, now: Cycle) {
        if now >= self.next_wake {
            self.promote_due(now);
        }
    }

    /// [`WarpSlots::promote`] once some `timed` slot is due.
    fn promote_due(&mut self, now: Cycle) {
        self.next_wake = Cycle::MAX;
        let mut woken = [0; SlotSet::CAPACITY / 64];
        for (group, masks) in self.masks.iter_mut().enumerate() {
            let mut timed = masks.timed;
            while timed != 0 {
                let slot = group * 64 + timed.trailing_zeros() as usize;
                let at = self.wake[slot];
                if at <= now {
                    self.warps[slot].state = WarpState::Ready;
                    woken[group] |= timed & timed.wrapping_neg();
                } else {
                    self.next_wake = self.next_wake.min(at);
                }
                timed &= timed - 1;
            }
            masks.timed &= !woken[group];
            masks.ready |= woken[group];
        }
        self.woken = SlotSet::from_words(woken);
        self.woken_at = now;
    }

    /// The slots that [`WarpSlots::promote`] woke at `now`: those whose
    /// write-back cycle is `now`.
    pub fn woken_at(&self, now: Cycle) -> SlotSet {
        if self.woken_at == now {
            self.woken
        } else {
            SlotSet::default()
        }
    }

    /// The earliest write-back cycle of an `Executing` warp (`Cycle::MAX`
    /// when none is executing).
    pub fn next_wake(&self) -> Cycle {
        self.next_wake
    }

    /// [`Warp::peek_op`] on the warp in `slot`: false when its program has
    /// ended.
    pub fn fetch(&mut self, slot: usize) -> bool {
        let op = self.warps[slot].peek_op();
        let (fetched, global, barrier) = op.map_or((false, false, false), |op| {
            (true, op.is_global_mem(), matches!(op, WarpOp::Barrier))
        });
        let (group, bit) = group_bit(slot);
        let masks = &mut self.masks[group];
        set_bit(&mut masks.fetched, bit, fetched);
        set_bit(&mut masks.global, bit, global);
        set_bit(&mut masks.barrier, bit, barrier);
        fetched
    }

    /// [`Warp::take_op`] on the warp in `slot`.
    pub fn take_op(&mut self, slot: usize) -> Option<WarpOp> {
        let (group, bit) = group_bit(slot);
        self.masks[group].fetched &= !bit;
        self.warps[slot].take_op()
    }

    /// One mask of every group, as a set.
    fn mask(&self, word: impl Fn(&MaskWords) -> u64) -> SlotSet {
        SlotSet::from_words(self.masks.map(|masks| word(&masks)))
    }

    /// The slots whose warp is `Ready`.
    pub fn ready(&self) -> SlotSet {
        self.mask(|masks| masks.ready)
    }

    /// The slots whose warp is `Executing`.
    pub fn timed(&self) -> SlotSet {
        self.mask(|masks| masks.timed)
    }

    /// The slots whose warp holds a fetched op.
    pub fn fetched(&self) -> SlotSet {
        self.mask(|masks| masks.fetched)
    }

    /// The fetched slots whose op is a global-memory access.
    pub fn fetched_global(&self) -> SlotSet {
        self.mask(|masks| masks.fetched & masks.global)
    }

    /// The fetched slots whose op is not a barrier.
    pub fn fetched_non_barrier(&self) -> SlotSet {
        self.mask(|masks| masks.fetched & !masks.barrier)
    }

    /// True when the masks and write-back cycles equal a recompute from
    /// every warp's state, and every warp due by `now` is promoted.
    pub fn masks_are_consistent(&self, now: Cycle) -> bool {
        let (ready, timed, fetched) = (self.ready(), self.timed(), self.fetched());
        let (global, non_barrier) = (self.fetched_global(), self.fetched_non_barrier());
        self.warps.len() == self.wake.len()
            && self.warps.iter().enumerate().all(|(i, w)| {
                let until = match w.state {
                    WarpState::Executing { until } => Some(until),
                    _ => None,
                };
                ready.contains(i) == (w.state == WarpState::Ready)
                    && timed.contains(i) == until.is_some()
                    && until.is_none_or(|at| self.wake[i] == at && at > now)
                    && fetched.contains(i) == w.pending_op.is_some()
                    && global.contains(i) == w.pending().is_some_and(WarpOp::is_global_mem)
                    && non_barrier.contains(i)
                        == w.pending().is_some_and(|op| !matches!(op, WarpOp::Barrier))
            })
            && (ready | timed | fetched).iter().all(|i| i < self.warps.len())
            && self.next_wake == timed.iter().map(|i| self.wake[i]).min().unwrap_or(Cycle::MAX)
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
    fn masks_follow_every_transition() {
        let mut slots = WarpSlots::default();
        slots.launch(0, warp_with(vec![WarpOp::alu()]));
        slots.launch(1, warp_with(vec![]));
        assert_eq!(slots.ready().iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(slots.fetched().is_empty() && slots.fetch(0) && !slots.fetch(1));
        assert_eq!(slots.fetched().iter().collect::<Vec<_>>(), vec![0]);
        slots.update(0, |w| w.retry_at(9));
        slots.update(1, |w| w.start_mem(2, 0));
        assert_eq!((slots.ready(), slots.next_wake()), (SlotSet::default(), 9));
        assert_eq!(slots.timed().iter().collect::<Vec<_>>(), vec![0]);
        slots.promote(8);
        assert!(slots.timed().contains(0), "not due before its write-back cycle");
        assert_eq!((slots.next_wake(), slots.woken_at(8)), (9, SlotSet::default()));
        slots.promote(9);
        assert_eq!(slots.woken_at(9).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            (slots[0].state, slots.ready().iter().collect::<Vec<_>>()),
            (WarpState::Ready, vec![0])
        );
        assert!(slots.take_op(0).is_some() && slots.fetched().is_empty());
        slots.update(1, Warp::complete_mem);
        assert!(!slots.ready().contains(1), "one transaction still in flight");
        slots.update(1, Warp::complete_mem);
        slots.update(0, |w| w.start_compute(12));
        assert_eq!(slots.ready().iter().collect::<Vec<_>>(), vec![1]);
        assert!(slots.masks_are_consistent(11));
        slots.promote(12);
        assert_eq!(slots.next_wake(), Cycle::MAX);
        slots.update(0, Warp::enter_barrier);
        slots.update(1, Warp::finish);
        assert!((slots.ready() | slots.timed()).is_empty());
        slots.update(0, Warp::release_barrier);
        slots.launch(1, warp_with(vec![]));
        assert_eq!(slots.ready().iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(slots.masks_are_consistent(12));
    }

    #[test]
    fn slot_set_spans_words_in_ascending_order() {
        let mut set = SlotSet::default();
        assert_eq!((set.first_absent(), set.iter().next(), set.len()), (0, None, 0));
        for slot in [127, 0, 63, 64, 65] {
            set.insert(slot);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 127]);
        assert_eq!((set.len(), set.first_absent()), (5, 1));
        for slot in 0..64 {
            set.insert(slot);
        }
        assert_eq!(set.first_absent(), 66);
        set.remove(64);
        assert!(!set.contains(64) && set.contains(65) && !set.contains(500));
        for slot in 64..SlotSet::CAPACITY {
            set.set(slot, true);
        }
        assert_eq!(set.first_absent(), SlotSet::CAPACITY);
        set.set(64, false);
        assert_eq!(set.first_absent(), 64);
        let mut low = SlotSet::default();
        (60..70).for_each(|slot| low.insert(slot));
        assert_eq!((set & !low).iter().take(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(
            (set & low).iter().collect::<Vec<_>>(),
            vec![60, 61, 62, 63, 65, 66, 67, 68, 69]
        );
        assert_eq!((set | low).len(), SlotSet::CAPACITY);
        assert!((low & !low).is_empty() && !low.is_empty());
    }
}
