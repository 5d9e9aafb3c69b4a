//! Cluster placement policies.
//!
//! At every fleet epoch boundary the placement tier assigns the epoch's
//! arrivals to chips, working from a [`ChipView`] snapshot per chip taken
//! at the epoch start (one epoch of telemetry latency — exactly what a
//! real cluster scheduler polling chip dispatchers would see) plus its own
//! running count of what it already planned this epoch.
//!
//! Two policies:
//!
//! * [`PlacementPolicy::BinPack`] — load-oblivious-to-interference
//!   consolidation: fill the busiest chip that still has a free resident
//!   slot, spilling to the least-loaded chip only when everything is full.
//!   Maximises chip-level co-residency, which is precisely what invites
//!   cache interference.
//! * [`PlacementPolicy::InterferenceSpread`] — interference-aware spread:
//!   scores every chip in **solo-equivalent cycles** as
//!   `load + Σ_class penalty[job][class] × backlog[class]`, where `load`
//!   is the chip's declared backlog plus its resident occupancy, and
//!   `backlog[class]` combines the per-class pending cycles with the
//!   residents the chip's on-chip dispatcher had classified as of the last
//!   epoch ([`ChipView::classified_cache`] /
//!   [`ChipView::classified_stream`]).
//!   The penalty matrix is **derived from the calibration table, not
//!   hard-coded**: `penalty[k][j]` is the excess service fraction a class-k
//!   job suffers from a class-j co-resident *plus* the excess it inflicts
//!   on it, so the policy avoids whatever pairings the engine actually
//!   measures as hostile (cache-vs-stream under the reference table;
//!   stream-on-compute pressure at the engine's Tiny scale) and a job
//!   crosses over to a hostile chip exactly when the load imbalance
//!   outweighs the measured interference cost. Counting backlog matters
//!   under load: today's queue is tomorrow's resident set, and counting
//!   *cycles* rather than jobs keeps segregated chips from draining at
//!   lopsided speeds. The cluster-level analogue of the paper's chip-level
//!   interference-aware dispatch.
//!
//! Placement is a pure function of (policy, views, context, planned
//! counts), runs single-threaded on the fleet coordinator, and is
//! therefore independent of the fleet's worker count — a load-bearing
//! property of the fleet's determinism guarantee.

use serde::{Deserialize, Serialize};

use crate::calib::Calibration;
use crate::chip::{ChipView, MAX_RESIDENT};
use crate::traffic::WorkClass;

/// Calibration-derived constants the spread policy scores with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementContext {
    /// `penalty[k][j]`: relative service-time cost of co-residency between
    /// a class-`k` job and class-`j` work — the excess slowdown `k`
    /// suffers from `j` plus the excess it inflicts on `j`, both from the
    /// calibration's pre-classification (unmanaged sharing) matrix.
    /// Multiplies the per-class backlog in the spread score.
    pub penalty: [[f64; 3]; 3],
    /// Solo-equivalent cycles of a typical job from the offered traffic;
    /// converts resident *counts* (all a [`ChipView`] exposes) into the
    /// same cycle units as the declared backlog.
    pub typical_job_cycles: f64,
}

impl PlacementContext {
    /// Builds the context from a calibration table and the traffic's mean
    /// per-job solo cycles.
    pub fn new(calib: &Calibration, typical_job_cycles: f64) -> PlacementContext {
        let mut penalty = [[0.0f64; 3]; 3];
        for k in WorkClass::ALL {
            for j in WorkClass::ALL {
                let suffered = (calib.slowdown(k, j, false) - 1.0).max(0.0);
                let inflicted = (calib.slowdown(j, k, false) - 1.0).max(0.0);
                penalty[k.index()][j.index()] = suffered + inflicted;
            }
        }
        PlacementContext { penalty, typical_job_cycles: typical_job_cycles.max(1.0) }
    }
}

/// A cluster placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Consolidate: pack the busiest non-full chip first.
    BinPack,
    /// Interference-aware spread informed by the chips' published classes.
    #[default]
    InterferenceSpread,
}

impl PlacementPolicy {
    /// All policies, in report order.
    pub const ALL: [PlacementPolicy; 2] =
        [PlacementPolicy::BinPack, PlacementPolicy::InterferenceSpread];

    /// Stable label used in CLI flags, reports, and JSON.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::BinPack => "bin-pack",
            PlacementPolicy::InterferenceSpread => "interference-spread",
        }
    }

    /// Parses a [`PlacementPolicy::label`].
    pub fn from_label(label: &str) -> Option<PlacementPolicy> {
        PlacementPolicy::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Picks the chip for a job of `class`, given the epoch-start `views`
    /// (already adjusted for jobs planned earlier in this epoch). Returns
    /// the chip index. `views` must be non-empty.
    pub fn place(self, class: WorkClass, views: &[ChipView], ctx: &PlacementContext) -> usize {
        assert!(!views.is_empty(), "placement needs at least one chip");
        match self {
            PlacementPolicy::BinPack => {
                // Busiest chip with a free resident slot; else least loaded.
                views
                    .iter()
                    .filter(|v| v.resident + v.queued < MAX_RESIDENT)
                    .max_by_key(|v| (v.resident + v.queued, std::cmp::Reverse(v.chip)))
                    .or_else(|| views.iter().min_by_key(|v| (v.resident + v.queued, v.chip)))
                    .expect("non-empty views")
                    .chip
            }
            PlacementPolicy::InterferenceSpread => {
                let pen = &ctx.penalty[class.index()];
                views
                    .iter()
                    .map(|v| {
                        let load =
                            v.pending_cycles() as f64 + v.resident as f64 * ctx.typical_job_cycles;
                        // Per-class backlog: declared pending cycles plus the
                        // residents the dispatcher has classified (counts,
                        // converted through the typical job size — remaining
                        // work is not telemetry a cluster scheduler has).
                        let mut interference = 0.0;
                        for j in WorkClass::ALL {
                            let classified = match j {
                                WorkClass::Cache => v.classified_cache,
                                WorkClass::Stream => v.classified_stream,
                                WorkClass::Compute => 0,
                            };
                            let backlog = v.pending_class_cycles[j.index()] as f64
                                + classified as f64 * ctx.typical_job_cycles;
                            interference += pen[j.index()] * backlog;
                        }
                        (load + interference, v.chip)
                    })
                    .min_by(|a, b| {
                        a.0.partial_cmp(&b.0)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.1.cmp(&b.1))
                    })
                    .expect("non-empty views")
                    .1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlacementContext {
        PlacementContext::new(&Calibration::reference(8), 10_000.0)
    }

    fn view(chip: usize, load: usize, cache: usize, stream: usize) -> ChipView {
        ChipView {
            chip,
            resident: load.min(MAX_RESIDENT),
            queued: load.saturating_sub(MAX_RESIDENT),
            classified_cache: cache,
            classified_stream: stream,
            pending_class_cycles: [0; 3],
        }
    }

    #[test]
    fn labels_round_trip() {
        for p in PlacementPolicy::ALL {
            assert_eq!(PlacementPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(PlacementPolicy::from_label("random"), None);
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::InterferenceSpread);
    }

    #[test]
    fn context_penalty_comes_from_the_calibration() {
        let c = ctx();
        let cache = WorkClass::Cache.index();
        let stream = WorkClass::Stream.index();
        assert!(
            c.penalty[cache][stream] > 0.0,
            "reference table must yield a positive cache-stream penalty"
        );
        assert_eq!(
            c.penalty[cache][stream], c.penalty[stream][cache],
            "suffered + inflicted is symmetric by construction"
        );
        let calm = Calibration { shared_slowdown: [[1.0; 3]; 3], ..Calibration::reference(8) };
        assert_eq!(
            PlacementContext::new(&calm, 10_000.0).penalty,
            [[0.0; 3]; 3],
            "no measured interference, no penalty"
        );
    }

    #[test]
    fn bin_pack_consolidates() {
        let views = [view(0, 2, 0, 0), view(1, 0, 0, 0), view(2, 3, 0, 0)];
        assert_eq!(
            PlacementPolicy::BinPack.place(WorkClass::Cache, &views, &ctx()),
            2,
            "bin-pack fills the busiest non-full chip"
        );
        let full = [view(0, 6, 0, 0), view(1, 4, 0, 0), view(2, 5, 0, 0)];
        assert_eq!(
            PlacementPolicy::BinPack.place(WorkClass::Cache, &full, &ctx()),
            1,
            "when everything is full, spill to the least loaded"
        );
    }

    #[test]
    fn spread_avoids_classified_interferers() {
        // Chip 0 is idle but hosts a classified streamer; chip 1 has one
        // more job but no streamers: a cache job must go to chip 1.
        let views = [view(0, 1, 0, 1), view(1, 2, 0, 0)];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Cache, &views, &ctx()), 1);
        // A compute job is indifferent to the streamer: lighter chip wins.
        assert_eq!(
            PlacementPolicy::InterferenceSpread.place(WorkClass::Compute, &views, &ctx()),
            0
        );
        // And a streamer avoids the chip with classified cache tenants.
        let views = [view(0, 1, 1, 0), view(1, 2, 0, 0)];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Stream, &views, &ctx()), 1);
    }

    #[test]
    fn spread_counts_queued_hostiles_too() {
        // Chip 0 runs nothing hostile right now, but its backlog is full of
        // streamer cycles; chip 1 is busier but stream-free.
        let mut hostile = view(0, 2, 0, 0);
        hostile.pending_class_cycles[WorkClass::Stream.index()] = 30_000;
        let mut clean = view(1, 4, 0, 0);
        clean.pending_class_cycles[WorkClass::Cache.index()] = 10_000;
        let views = [hostile, clean];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Cache, &views, &ctx()), 1);
    }

    #[test]
    fn spread_crosses_over_when_imbalance_outweighs_interference() {
        // Chip 0 hosts one classified streamer but is otherwise empty; chip 1
        // is stream-free but buried under backlog. The penalty is finite, so
        // past some imbalance a cache job must prefer the hostile chip.
        let mut buried = view(1, 4, 0, 0);
        buried.pending_class_cycles[WorkClass::Compute.index()] = 1_000_000;
        let views = [view(0, 1, 0, 1), buried];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Cache, &views, &ctx()), 0);
    }

    #[test]
    fn spread_balances_when_no_conflicts_exist() {
        let views = [view(0, 3, 0, 0), view(1, 1, 0, 0), view(2, 2, 0, 0)];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Cache, &views, &ctx()), 1);
    }

    #[test]
    fn ties_break_toward_the_lowest_chip_index() {
        let views = [view(0, 1, 0, 0), view(1, 1, 0, 0)];
        assert_eq!(PlacementPolicy::InterferenceSpread.place(WorkClass::Cache, &views, &ctx()), 0);
        assert_eq!(PlacementPolicy::BinPack.place(WorkClass::Cache, &views, &ctx()), 0);
    }
}
