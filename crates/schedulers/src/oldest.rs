//! The `limit` oldest unfinished warps of an SM, kept exact at the two
//! events that change them.
//!
//! Best-SWL admits and statPCAL hands tokens to the same set: the `limit`
//! oldest warps that have not finished. It changes only when a warp
//! launches or finishes, and the SM reports launches in launch order, so
//! the live slots stay sorted by age by appending each launch. Each event
//! updates the admitted slot mask in place; nothing ever re-sorts the
//! warps.

use gpu_mem::WarpId;
use gpu_sim::SlotSet;

/// The `limit` oldest live warps, by warp slot.
pub(crate) struct OldestWarps {
    limit: usize,
    /// Launched, unfinished slots, oldest first.
    live: Vec<WarpId>,
    /// The slots whose warp is among the `limit` oldest.
    admitted: SlotSet,
}

impl OldestWarps {
    /// An empty set admitting up to `limit` warps.
    pub(crate) fn new(limit: usize) -> Self {
        OldestWarps { limit, live: Vec::new(), admitted: SlotSet::default() }
    }

    /// Warp `wid` launched; it is younger than every live warp.
    pub(crate) fn launch(&mut self, wid: WarpId) {
        let slot = wid as usize;
        debug_assert!(!self.live.contains(&wid), "slot {slot} launched while live");
        self.admitted.set(slot, self.live.len() < self.limit);
        self.live.push(wid);
    }

    /// Warp `wid` finished; the oldest warp outside the set, if any, takes
    /// its place.
    pub(crate) fn finish(&mut self, wid: WarpId) {
        let Some(pos) = self.live.iter().position(|&w| w == wid) else {
            return;
        };
        self.live.remove(pos);
        self.admitted.remove(wid as usize);
        if pos < self.limit {
            if let Some(&next) = self.live.get(self.limit - 1) {
                self.admitted.insert(next as usize);
            }
        }
    }

    /// Whether warp `wid` is among the `limit` oldest live warps.
    pub(crate) fn admits(&self, wid: WarpId) -> bool {
        self.admitted.contains(wid as usize)
    }

    /// The slots whose warp is among the `limit` oldest live warps.
    pub(crate) fn admitted_slots(&self) -> SlotSet {
        self.admitted
    }

    /// How many warps the set admits now.
    pub(crate) fn admitted(&self) -> usize {
        self.live.len().min(self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admitted_slots(set: &OldestWarps, slots: u32) -> Vec<WarpId> {
        let admitted: Vec<WarpId> = (0..slots).filter(|&w| set.admits(w)).collect();
        let mask: Vec<WarpId> = set.admitted_slots().iter().map(|w| w as WarpId).collect();
        assert_eq!(admitted, mask, "the admitted mask disagrees with admits");
        admitted
    }

    #[test]
    fn admits_the_first_launches_up_to_the_limit() {
        let mut set = OldestWarps::new(2);
        assert_eq!(admitted_slots(&set, 4), [] as [WarpId; 0], "nothing launched yet");
        for w in [3, 1, 0] {
            set.launch(w);
        }
        assert_eq!(admitted_slots(&set, 4), [1, 3]);
        assert_eq!(set.admitted(), 2);
    }

    #[test]
    fn a_finish_admits_the_oldest_waiting_warp() {
        let mut set = OldestWarps::new(2);
        for w in 0..4 {
            set.launch(w);
        }
        set.finish(1);
        assert_eq!(admitted_slots(&set, 4), [0, 2]);
        // A finish outside the set admits nobody new.
        set.finish(3);
        assert_eq!(admitted_slots(&set, 4), [0, 2]);
        // A reused slot is the youngest warp, queued behind the others.
        set.launch(1);
        set.launch(3);
        set.finish(0);
        assert_eq!(admitted_slots(&set, 4), [1, 2]);
        set.finish(2);
        set.finish(1);
        assert_eq!(admitted_slots(&set, 4), [3]);
        assert_eq!(set.admitted(), 1);
    }

    #[test]
    fn slots_launch_in_any_order() {
        let mut set = OldestWarps::new(1);
        set.launch(5);
        assert!(set.admits(5));
        set.launch(0);
        assert!(!set.admits(0));
        set.finish(5);
        assert!(set.admits(0));
    }

    #[test]
    fn a_zero_limit_admits_nobody() {
        let mut set = OldestWarps::new(0);
        set.launch(0);
        set.launch(1);
        set.finish(0);
        assert!(!set.admits(1));
        assert_eq!(set.admitted(), 0);
    }
}
