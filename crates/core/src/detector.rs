//! Cache-interference detector (§III-A, §IV-A).
//!
//! The detector combines four structures:
//!
//! 1. the **Victim Tag Array** (reused from CCWS, but with half the entries —
//!    8 per warp) plus per-warp VTA-hit counters and a per-SM total
//!    instruction counter, from which the **Individual Re-reference Score**
//!    of Eq. 1 is computed:
//!    `IRS_i = F_vta_hits_i / (N_executed_inst / N_active_warp)`;
//! 2. the **interference list**: one entry per warp holding the WID of the
//!    most recently *and* frequently interfering warp, guarded by a 2-bit
//!    saturating counter so a burst from a new interferer does not
//!    immediately displace the dominant one;
//! 3. the **pair list**: one entry per warp recording which *interfered* warp
//!    triggered this warp's redirection (field 0) or stall (field 1), so the
//!    reverse decision can be made when the interfered warp's IRS drops;
//! 4. the **interference matrix** used for the motivation figures (1a, 4a/4b);
//!    the hardware does not need it, so its cost is not part of §V-F.

use ciao_schedulers::vta::{Vta, VtaConfig, VtaHit};
use gpu_mem::{Addr, WarpId};
use serde::{Deserialize, Serialize};

/// Which of the two pair-list fields a record occupies (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairRole {
    /// Field 0: the interfered warp that triggered redirecting this warp's
    /// memory requests to shared memory.
    Redirect,
    /// Field 1: the interfered warp that triggered stalling this warp.
    Stall,
}

/// The interference list: per-warp (interfering WID, 2-bit saturating counter).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterferenceList {
    entries: Vec<Option<(WarpId, u8)>>,
}

impl InterferenceList {
    /// Creates an empty list for `num_warps` warps.
    pub fn new(num_warps: usize) -> Self {
        InterferenceList { entries: vec![None; num_warps] }
    }

    /// Records that `interferer` interfered with `victim` (a VTA hit whose
    /// last evictor was `interferer`). Implements the counter protocol of
    /// Fig. 4c: same interferer → increment (saturating at 3); different
    /// interferer → decrement, and replace only once the counter reaches 0.
    pub fn record(&mut self, victim: WarpId, interferer: WarpId) {
        let Some(entry) = self.entries.get_mut(victim as usize) else {
            return;
        };
        match entry {
            None => *entry = Some((interferer, 0)),
            Some((current, counter)) => {
                if *current == interferer {
                    *counter = (*counter + 1).min(3);
                } else if *counter == 0 {
                    *entry = Some((interferer, 0));
                } else {
                    *counter -= 1;
                }
            }
        }
    }

    /// The warp currently recorded as most interfering with `victim`.
    pub fn top_interferer(&self, victim: WarpId) -> Option<WarpId> {
        self.entries.get(victim as usize).copied().flatten().map(|(w, _)| w)
    }

    /// The saturating-counter value for `victim`'s entry (tests/diagnostics).
    pub fn counter(&self, victim: WarpId) -> Option<u8> {
        self.entries.get(victim as usize).copied().flatten().map(|(_, c)| c)
    }

    /// Storage cost in bits: each entry stores a 6-bit WID and a 2-bit counter.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 8
    }

    /// Clears the list.
    pub fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

/// The pair list: per-warp `[redirect-trigger, stall-trigger]` records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairList {
    entries: Vec<[Option<WarpId>; 2]>,
}

impl PairList {
    /// Creates an empty pair list for `num_warps` warps.
    pub fn new(num_warps: usize) -> Self {
        PairList { entries: vec![[None; 2]; num_warps] }
    }

    /// Records that `trigger` (the interfered warp) caused `warp` to be
    /// redirected or stalled.
    pub fn set(&mut self, warp: WarpId, role: PairRole, trigger: WarpId) {
        if let Some(e) = self.entries.get_mut(warp as usize) {
            e[role as usize] = Some(trigger);
        }
    }

    /// The interfered warp recorded for `warp` in the given role.
    pub fn get(&self, warp: WarpId, role: PairRole) -> Option<WarpId> {
        self.entries.get(warp as usize).and_then(|e| e[role as usize])
    }

    /// Clears the record for `warp` in the given role.
    pub fn clear(&mut self, warp: WarpId, role: PairRole) {
        if let Some(e) = self.entries.get_mut(warp as usize) {
            e[role as usize] = None;
        }
    }

    /// Storage cost in bits: two 6-bit WIDs per entry.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 12
    }

    /// Clears every record.
    pub fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = [None; 2]);
    }
}

/// The complete interference detector.
#[derive(Debug, Clone)]
pub struct InterferenceDetector {
    vta: Vta,
    interference_list: InterferenceList,
    pair_list: PairList,
    num_warps: usize,
}

impl InterferenceDetector {
    /// Builds a detector for `num_warps` warps using CIAO's 8-entry-per-warp
    /// VTA configuration.
    pub fn new(num_warps: usize) -> Self {
        InterferenceDetector {
            vta: Vta::new(VtaConfig {
                entries_per_warp: VtaConfig::ciao().entries_per_warp,
                num_warps,
            }),
            interference_list: InterferenceList::new(num_warps),
            pair_list: PairList::new(num_warps),
            num_warps,
        }
    }

    /// Number of warps tracked.
    pub fn num_warps(&self) -> usize {
        self.num_warps
    }

    /// Records an eviction: warp `evictor` displaced a line owned by `victim`.
    pub fn on_eviction(&mut self, victim: WarpId, block_addr: Addr, evictor: WarpId) {
        if victim != evictor {
            self.vta.record_eviction(victim, block_addr, evictor);
        }
    }

    /// Checks a miss of `wid` against its victim tags; on a VTA hit the
    /// interference list is updated and the hit returned.
    pub fn on_miss(&mut self, wid: WarpId, block_addr: Addr) -> Option<VtaHit> {
        let hit = self.vta.check_miss(wid, block_addr)?;
        self.interference_list.record(wid, hit.last_evictor);
        Some(hit)
    }

    /// Individual Re-reference Score of warp `i` (Eq. 1). Returns 0 when no
    /// instructions have executed yet.
    pub fn irs(&self, wid: WarpId, executed_instructions: u64, active_warps: usize) -> f64 {
        if executed_instructions == 0 || active_warps == 0 {
            return 0.0;
        }
        let per_warp_instructions = executed_instructions as f64 / active_warps as f64;
        self.vta.hits_of(wid) as f64 / per_warp_instructions
    }

    /// Total VTA hits (interference intensity over the whole SM).
    pub fn total_vta_hits(&self) -> u64 {
        self.vta.total_hits()
    }

    /// The warp most interfering with `victim`, if known.
    pub fn top_interferer(&self, victim: WarpId) -> Option<WarpId> {
        self.interference_list.top_interferer(victim)
    }

    /// Immutable access to the pair list.
    pub fn pair_list(&self) -> &PairList {
        &self.pair_list
    }

    /// Mutable access to the pair list (the scheduler records triggers here).
    pub fn pair_list_mut(&mut self) -> &mut PairList {
        &mut self.pair_list
    }

    /// Storage cost of the detector's SRAM structures in bits (VTA + VTA-hit
    /// counters + interference list + pair list), matching §V-F.
    pub fn storage_bits(&self) -> u64 {
        let vta_hit_counters = self.num_warps as u64 * 32;
        self.vta.storage_bits()
            + vta_hit_counters
            + self.interference_list.storage_bits()
            + self.pair_list.storage_bits()
    }

    /// Resets all structures (between kernels).
    pub fn reset(&mut self) {
        self.vta.reset();
        self.interference_list.reset();
        self.pair_list.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interference_list_counter_protocol() {
        // Reproduces the Fig. 4c walk-through: W32 interferes with W34 until
        // the counter saturates, W42 shows up once, then W32 returns.
        let mut list = InterferenceList::new(64);
        list.record(34, 32);
        assert_eq!(list.counter(34), Some(0));
        for _ in 0..5 {
            list.record(34, 32);
        }
        assert_eq!(list.counter(34), Some(3), "counter saturates at 3");
        list.record(34, 42); // step 2: decrement
        assert_eq!(list.top_interferer(34), Some(32));
        assert_eq!(list.counter(34), Some(2));
        list.record(34, 32); // step 3: increment again
        assert_eq!(list.counter(34), Some(3));
    }

    #[test]
    fn interference_list_replaces_only_at_zero() {
        let mut list = InterferenceList::new(8);
        list.record(1, 5);
        list.record(1, 5); // counter = 1
        list.record(1, 7); // decrement to 0, keep 5
        assert_eq!(list.top_interferer(1), Some(5));
        list.record(1, 7); // counter is 0 → replace
        assert_eq!(list.top_interferer(1), Some(7));
        assert_eq!(list.counter(1), Some(0));
    }

    #[test]
    fn pair_list_roles_are_independent() {
        let mut pairs = PairList::new(8);
        pairs.set(1, PairRole::Redirect, 0);
        pairs.set(1, PairRole::Stall, 3);
        assert_eq!(pairs.get(1, PairRole::Redirect), Some(0));
        assert_eq!(pairs.get(1, PairRole::Stall), Some(3));
        pairs.clear(1, PairRole::Redirect);
        assert_eq!(pairs.get(1, PairRole::Redirect), None);
        assert_eq!(pairs.get(1, PairRole::Stall), Some(3));
    }

    #[test]
    fn detector_tracks_vta_hits_and_interferers() {
        let mut d = InterferenceDetector::new(48);
        d.on_eviction(3, 0x1000, 9);
        assert!(d.on_miss(3, 0x1000).is_some());
        assert_eq!(d.total_vta_hits(), 1);
        assert_eq!(d.top_interferer(3), Some(9));
        // A self-eviction is not interference.
        d.on_eviction(4, 0x2000, 4);
        assert!(d.on_miss(4, 0x2000).is_none());
    }

    #[test]
    fn irs_matches_equation_one() {
        let mut d = InterferenceDetector::new(48);
        for i in 0..10u64 {
            d.on_eviction(0, i * 128, 1);
            d.on_miss(0, i * 128);
        }
        // 10 VTA hits, 5000 instructions, 20 active warps:
        // IRS = 10 / (5000 / 20) = 0.04.
        let irs = d.irs(0, 5000, 20);
        assert!((irs - 0.04).abs() < 1e-12, "irs = {irs}");
        assert_eq!(d.irs(0, 0, 20), 0.0);
        assert_eq!(d.irs(0, 5000, 0), 0.0);
        assert_eq!(d.irs(7, 5000, 20), 0.0, "warps with no hits have zero IRS");
    }

    #[test]
    fn storage_cost_is_small() {
        let d = InterferenceDetector::new(48);
        // VTA: 48*8*31, counters: 48*32, interference list: 48*8, pair list: 48*12.
        assert_eq!(d.storage_bits(), 48 * 8 * 31 + 48 * 32 + 48 * 8 + 48 * 12);
        // Well under 3 KB of SRAM per SM.
        assert!(d.storage_bits() / 8 < 3 * 1024);
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = InterferenceDetector::new(8);
        d.on_eviction(0, 0x80, 1);
        d.on_miss(0, 0x80);
        d.pair_list_mut().set(1, PairRole::Stall, 0);
        d.reset();
        assert_eq!(d.total_vta_hits(), 0);
        assert_eq!(d.top_interferer(0), None);
        assert_eq!(d.pair_list().get(1, PairRole::Stall), None);
    }

    proptest! {
        /// The saturating counter never leaves [0, 3] and the recorded
        /// interferer is always one of the warps that actually interfered.
        #[test]
        fn counter_bounds(interferers in proptest::collection::vec(0u32..8, 1..200)) {
            let mut list = InterferenceList::new(4);
            for &i in &interferers {
                list.record(0, i);
                let c = list.counter(0).unwrap();
                prop_assert!(c <= 3);
                let top = list.top_interferer(0).unwrap();
                prop_assert!(interferers.contains(&top));
            }
        }

        /// IRS is monotone in the number of VTA hits and inversely monotone
        /// in the per-warp instruction count.
        #[test]
        fn irs_monotonicity(hits in 1u64..50, insts in 1000u64..100_000, warps in 1usize..48) {
            let mut d = InterferenceDetector::new(48);
            for i in 0..hits {
                d.on_eviction(0, i * 128, 1);
                d.on_miss(0, i * 128);
            }
            let base = d.irs(0, insts, warps);
            d.on_eviction(0, hits * 128, 1);
            d.on_miss(0, hits * 128);
            prop_assert!(d.irs(0, insts, warps) > base);
            prop_assert!(d.irs(0, insts * 2, warps) < d.irs(0, insts, warps));
        }
    }
}
