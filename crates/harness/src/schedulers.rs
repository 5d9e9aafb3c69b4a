//! The seven warp schedulers of §V-A, built behind one enum so every
//! experiment iterates over the same list.

use ciao_core::{CiaoParams, CiaoVariant};
use ciao_schedulers::{CcwsConfig, CcwsScheduler, PcalConfig, PcalScheduler, SwlScheduler};
use ciao_workloads::Benchmark;
use gpu_sim::redirect::RedirectCache;
use gpu_sim::scheduler::{GtoScheduler, WarpScheduler};
use gpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};

/// The warp schedulers evaluated in the paper (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// GTO with XOR set-index hashing (the baseline all IPCs are normalised to).
    Gto,
    /// Cache-Conscious Wavefront Scheduling.
    Ccws,
    /// Best static wavefront limiting (per-benchmark profiled warp count).
    BestSwl,
    /// statPCAL-style bypass scheme.
    StatPcal,
    /// CIAO with only selective throttling.
    CiaoT,
    /// CIAO with only shared-memory redirection.
    CiaoP,
    /// CIAO with both mechanisms.
    CiaoC,
}

impl SchedulerKind {
    /// All seven schedulers in the order of Fig. 8a's legend.
    pub fn all() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Gto,
            SchedulerKind::Ccws,
            SchedulerKind::BestSwl,
            SchedulerKind::StatPcal,
            SchedulerKind::CiaoT,
            SchedulerKind::CiaoP,
            SchedulerKind::CiaoC,
        ]
    }

    /// The CIAO family only.
    pub fn ciao_family() -> Vec<SchedulerKind> {
        vec![SchedulerKind::CiaoT, SchedulerKind::CiaoP, SchedulerKind::CiaoC]
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Gto => "GTO",
            SchedulerKind::Ccws => "CCWS",
            SchedulerKind::BestSwl => "Best-SWL",
            SchedulerKind::StatPcal => "statPCAL",
            SchedulerKind::CiaoT => "CIAO-T",
            SchedulerKind::CiaoP => "CIAO-P",
            SchedulerKind::CiaoC => "CIAO-C",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn from_label(label: &str) -> Option<SchedulerKind> {
        Self::all().into_iter().find(|s| s.label().eq_ignore_ascii_case(label))
    }

    /// Builds the scheduler (and the redirect cache for the CIAO variants
    /// that need one) for a particular benchmark and machine configuration.
    ///
    /// `params` only affects the CIAO variants; Best-SWL and statPCAL take
    /// their warp/token budget from the benchmark's profiled `Nwrp`.
    pub fn build(
        self,
        benchmark: Benchmark,
        config: &GpuConfig,
        params: &CiaoParams,
    ) -> (Box<dyn WarpScheduler>, Option<Box<dyn RedirectCache>>) {
        match self {
            SchedulerKind::Gto => (Box::new(GtoScheduler::new()), None),
            SchedulerKind::Ccws => {
                let ccws = CcwsScheduler::new(CcwsConfig {
                    num_warps: config.max_warps_per_sm,
                    ..CcwsConfig::default()
                });
                (Box::new(ccws), None)
            }
            SchedulerKind::BestSwl => (
                Box::new(SwlScheduler::new(benchmark.best_swl_warps(), config.max_warps_per_sm)),
                None,
            ),
            SchedulerKind::StatPcal => {
                let tokens = benchmark.best_swl_warps();
                let pcal = PcalScheduler::new(PcalConfig {
                    num_warps: config.max_warps_per_sm,
                    ..PcalConfig::with_tokens(tokens)
                });
                (Box::new(pcal), None)
            }
            SchedulerKind::CiaoT => CiaoVariant::ThrottleOnly.build(params, config),
            SchedulerKind::CiaoP => CiaoVariant::PartitionOnly.build(params, config),
            SchedulerKind::CiaoC => CiaoVariant::Combined.build(params, config),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WarpId;

    #[test]
    fn seven_schedulers() {
        assert_eq!(SchedulerKind::all().len(), 7);
        assert_eq!(SchedulerKind::ciao_family().len(), 3);
    }

    #[test]
    fn labels_round_trip() {
        for s in SchedulerKind::all() {
            assert_eq!(SchedulerKind::from_label(s.label()), Some(s));
            assert_eq!(format!("{s}"), s.label());
        }
        assert_eq!(SchedulerKind::from_label("nope"), None);
    }

    #[test]
    fn build_produces_matching_names_and_redirects() {
        let cfg = GpuConfig::gtx480();
        let params = CiaoParams::default();
        for kind in SchedulerKind::all() {
            let (sched, redirect) = kind.build(Benchmark::Atax, &cfg, &params);
            assert_eq!(sched.name(), kind.label());
            let should_have_redirect = matches!(kind, SchedulerKind::CiaoP | SchedulerKind::CiaoC);
            assert_eq!(redirect.is_some(), should_have_redirect, "{kind}");
        }
    }

    #[test]
    fn best_swl_uses_profiled_nwrp() {
        let cfg = GpuConfig::gtx480();
        let params = CiaoParams::default();
        let launch_all = |benchmark| {
            let (mut sched, _) = SchedulerKind::BestSwl.build(benchmark, &cfg, &params);
            for wid in 0..cfg.max_warps_per_sm as WarpId {
                sched.on_warp_launched(wid, 0);
            }
            sched
        };
        // ATAX's profiled limit is 2: the two oldest warps run, the third is
        // throttled.
        let sched = launch_all(Benchmark::Atax);
        assert!(sched.is_throttled(2));
        assert!(!sched.is_throttled(1));
        // PVC's limit is 48: nothing throttled.
        let sched = launch_all(Benchmark::Pvc);
        assert!(!sched.is_throttled(47));
    }
}
