//! Multi-tenant CTA dispatch: kernel streams and SM partitioning policies.
//!
//! A [`KernelStream`] binds a kernel to a [`TenantId`], and a
//! [`DispatchPolicy`] decides which SM runs which tenant's CTAs. A
//! [`crate::SimRequest`] holds the streams of one run, and
//! [`crate::Simulator::execute`] turns them into one [`crate::SimResult`]
//! with per-tenant attribution. Streams may carry an
//! [`KernelStream::arrival_cycle`]: the engine admits such *dynamic arrivals*
//! at the first epoch boundary at or after their cycle.
//!
//! ## The four policies
//!
//! * [`DispatchPolicy::Exclusive`] — temporal multiplexing: each kernel gets
//!   the whole chip to itself, streams execute serially in submission order
//!   with cold caches between kernels. Tenants never interfere; turnaround
//!   grows with queue position (tenant `k`'s finish cycle includes every
//!   earlier kernel's runtime). A single stream runs exactly as it would
//!   under any other policy.
//! * [`DispatchPolicy::SpatialPartition`] — each tenant receives a disjoint,
//!   contiguous set of SMs (balanced to within one SM) and its grid is
//!   dispatched round-robin across that set only. Tenants are isolated at
//!   the SM/L1 level but still share the banked L2 and DRAM, so chip-level
//!   cache interference remains — precisely the effect the per-tenant L2
//!   attribution makes measurable. With more tenants than SMs, tenants wrap
//!   onto single SMs (`tenant t → SM t mod num_sms`) and SM-level isolation
//!   degrades gracefully into sharing.
//! * [`DispatchPolicy::SharedRoundRobin`] — CTAs from all streams are
//!   interleaved round-robin (one CTA per stream per round) into a single
//!   launch sequence that is then split round-robin across every SM, so each
//!   SM co-runs warps from all tenants and intra-SM L1 interference between
//!   tenants appears in addition to the shared-L2 contention. With a single
//!   stream the interleaving is the identity: CTA `b` runs on SM
//!   `b % num_sms`.
//! * [`DispatchPolicy::InterferenceAware`] — adaptive, monitor-driven
//!   dispatch, the chip-level analogue of CIAO-T: CTAs are fed from
//!   per-tenant pending queues at epoch boundaries, tenants are classified
//!   from their live L1/L2 attribution, and streaming tenants are throttled
//!   or migrated onto shrinking SM subsets when a cache-sensitive victim's
//!   L2 hit rate degrades.
//!
//! ## Determinism
//!
//! Every static policy is a pure function of `(streams, num_sms)`:
//! assignment lists are computed up front, before any simulation, and the
//! engine's single-threaded epoch-boundary loop (see [`crate::gpu`]) keeps
//! execution deterministic. The adaptive policy decides at epoch boundaries
//! from boundary-time statistics only, so it is equally deterministic. Two
//! runs of the same mix under the same policy produce identical results, and
//! changing the policy changes only the CTA placement, never the per-warp
//! traces.

use std::sync::Arc;

use crate::kernel::{Kernel, KernelInfo};
use crate::stats::{DispatchAction, DispatchDecision, DispatchLog, TenantClass};
use gpu_mem::{CtaId, Cycle, TenantId};
use serde::{Deserialize, Serialize};

/// A kernel submitted for co-execution, bound to the tenant identity used to
/// attribute its resource usage throughout the memory system.
#[derive(Clone)]
pub struct KernelStream {
    /// Tenant identity of this stream (dense, `0..num_streams`).
    pub tenant: TenantId,
    /// Chip cycle at which the stream enters the kernel queue. `0` (the
    /// default) launches at simulation start; a positive value makes the
    /// stream a *dynamic arrival*: the engine admits it at the first epoch
    /// boundary at or after this cycle.
    pub arrival_cycle: Cycle,
    kernel: Arc<dyn Kernel>,
    info: KernelInfo,
}

impl KernelStream {
    /// Binds `kernel` to `tenant`, launching at cycle 0.
    pub fn new(tenant: TenantId, kernel: Arc<dyn Kernel>) -> Self {
        Self::new_at(tenant, kernel, 0)
    }

    /// Binds `kernel` to `tenant`, entering the queue at `arrival_cycle`.
    pub fn new_at(tenant: TenantId, kernel: Arc<dyn Kernel>, arrival_cycle: Cycle) -> Self {
        let info = kernel.info();
        KernelStream { tenant, arrival_cycle, kernel, info }
    }

    /// The stream's kernel.
    pub fn kernel(&self) -> &Arc<dyn Kernel> {
        &self.kernel
    }

    /// Cached launch geometry of the stream's kernel.
    pub fn info(&self) -> &KernelInfo {
        &self.info
    }
}

impl std::fmt::Debug for KernelStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelStream")
            .field("tenant", &self.tenant)
            .field("kernel", &self.info.name)
            .field("ctas", &self.info.num_ctas)
            .field("arrival", &self.arrival_cycle)
            .finish()
    }
}

/// How co-running kernels share the chip's SMs. See the module docs for the
/// semantics and determinism guarantees of each policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Temporal multiplexing: kernels run serially, each owning every SM.
    Exclusive,
    /// Disjoint SM sets per kernel; the L2/DRAM backend stays shared.
    SpatialPartition,
    /// CTAs of all kernels interleaved round-robin onto every SM.
    SharedRoundRobin,
    /// Adaptive, monitor-driven dispatch — the chip-level analogue of CIAO-T.
    /// An epoch-boundary monitor reads the live per-tenant L1/L2 attribution,
    /// classifies tenants as cache-sensitive or streaming, and throttles or
    /// migrates the streaming tenants' *pending* CTAs onto a shrinking SM
    /// subset whenever a cache-sensitive tenant's hit rate degrades past a
    /// threshold (with multiplicative shrink / hysteresis-gated growth to
    /// avoid ping-ponging).
    InterferenceAware,
}

impl DispatchPolicy {
    /// All policies, in report order.
    pub fn all() -> Vec<DispatchPolicy> {
        vec![
            DispatchPolicy::Exclusive,
            DispatchPolicy::SpatialPartition,
            DispatchPolicy::SharedRoundRobin,
            DispatchPolicy::InterferenceAware,
        ]
    }

    /// Display label used by reports and the harness CLI.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::Exclusive => "exclusive",
            DispatchPolicy::SpatialPartition => "spatial",
            DispatchPolicy::SharedRoundRobin => "shared-rr",
            DispatchPolicy::InterferenceAware => "interference-aware",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn from_label(label: &str) -> Option<DispatchPolicy> {
        Self::all().into_iter().find(|p| p.label().eq_ignore_ascii_case(label))
    }

    /// Whether kernels execute at the same time under this policy (`false`
    /// only for [`DispatchPolicy::Exclusive`], which serialises them).
    pub fn is_concurrent(self) -> bool {
        !matches!(self, DispatchPolicy::Exclusive)
    }

    /// Whether the policy re-places work at run time (only
    /// [`DispatchPolicy::InterferenceAware`]); static policies compute their
    /// whole assignment before simulation starts.
    pub fn is_adaptive(self) -> bool {
        matches!(self, DispatchPolicy::InterferenceAware)
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One CTA's worth of work assigned to an SM: which tenant it belongs to,
/// which kernel builds its warp programs, and its launch footprint. SMs
/// launch the entries of their work list strictly in order as warp slots and
/// shared memory free up.
#[derive(Clone)]
pub struct CtaWork {
    /// Tenant the CTA belongs to.
    pub tenant: TenantId,
    /// Kernel that builds the CTA's warp programs.
    pub kernel: Arc<dyn Kernel>,
    /// Global CTA id within its kernel's grid.
    pub cta: CtaId,
    /// Warps the CTA launches.
    pub warps: usize,
    /// Programmer-allocated shared memory, in bytes.
    pub shared_mem: u32,
}

impl std::fmt::Debug for CtaWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtaWork")
            .field("tenant", &self.tenant)
            .field("cta", &self.cta)
            .field("warps", &self.warps)
            .finish()
    }
}

/// Expands a single kernel into its per-CTA work items (tenant defaults to
/// the stream's id), in launch order.
pub(crate) fn stream_work(stream: &KernelStream) -> Vec<CtaWork> {
    let info = stream.info();
    (0..info.num_ctas)
        .map(|c| CtaWork {
            tenant: stream.tenant,
            kernel: Arc::clone(&stream.kernel),
            cta: c as CtaId,
            warps: info.warps_per_cta.max(1),
            shared_mem: info.shared_mem_per_cta,
        })
        .collect()
}

/// Round-robin CTA dispatch: block `b` of the grid runs on SM `b % num_sms`.
/// Returns one list of global CTA ids per SM, each in launch order. This is
/// PR 2's single-kernel dispatcher, kept as the building block every policy
/// composes.
pub fn dispatch_round_robin(num_ctas: usize, num_sms: usize) -> Vec<Vec<usize>> {
    let num_sms = num_sms.max(1);
    let mut out = vec![Vec::with_capacity(num_ctas.div_ceil(num_sms)); num_sms];
    for b in 0..num_ctas {
        out[b % num_sms].push(b);
    }
    out
}

/// The disjoint SM sets the [`DispatchPolicy::SpatialPartition`] policy hands
/// to each of `num_tenants` tenants on a chip of `num_sms` SMs: contiguous
/// ranges balanced to within one SM, in tenant order. With more tenants than
/// SMs the sets degenerate to `tenant t → SM t mod num_sms` (no longer
/// disjoint — SM-level isolation is impossible in that regime).
pub fn spatial_sm_sets(num_tenants: usize, num_sms: usize) -> Vec<Vec<usize>> {
    let num_sms = num_sms.max(1);
    if num_tenants > num_sms {
        return (0..num_tenants).map(|t| vec![t % num_sms]).collect();
    }
    let base = num_sms / num_tenants.max(1);
    let extra = num_sms % num_tenants.max(1);
    let mut sets = Vec::with_capacity(num_tenants);
    let mut next = 0;
    for t in 0..num_tenants {
        let len = base + usize::from(t < extra);
        sets.push((next..next + len).collect());
        next += len;
    }
    sets
}

// ---------------------------------------------------------------------------
// Arrival-aware dispatch plans
// ---------------------------------------------------------------------------

/// Per-SM work of the streams sharing one arrival cycle, waiting for its
/// admission epoch (static policies only — the adaptive dispatcher holds its
/// deferred work in per-tenant pending queues instead).
#[derive(Debug, Clone)]
pub(crate) struct DeferredBatch {
    /// Cycle the batch's streams arrive; admitted at the first epoch boundary
    /// at or after it.
    pub arrival: Cycle,
    /// Work to append to each SM's list at admission.
    pub per_sm: Vec<Vec<CtaWork>>,
}

/// Everything the chip engine needs to execute `streams` under a policy:
/// the work lists installed before the first cycle, the arrival-deferred
/// batches of late streams (static policies), and the adaptive dispatcher
/// (interference-aware with more than one stream).
pub(crate) struct DispatchPlan {
    /// Per-SM work lists installed at construction (arrival-cycle-0 work).
    pub initial: Vec<Vec<CtaWork>>,
    /// Batches admitted at later epoch boundaries, sorted by arrival.
    pub deferred: Vec<DeferredBatch>,
    /// The run-time dispatcher for [`DispatchPolicy::InterferenceAware`].
    pub adaptive: Option<AdaptiveDispatcher>,
}

/// Builds the dispatch plan for `streams` under `policy`. Streams are grouped
/// by arrival cycle: the cycle-0 group becomes the initial work lists, every
/// later group a [`DeferredBatch`]. Each group is placed with the per-policy
/// rules:
///
/// * `SpatialPartition` — SM sets are computed over *all* streams (a late
///   tenant's SM share is reserved from the start), each stream's grid is
///   dealt over its own set, so deferral never changes placement.
/// * `SharedRoundRobin` — streams sharing an arrival cycle are interleaved
///   round-robin; the SM cursor continues across batches so late work keeps
///   filling SMs evenly.
/// * `Exclusive` and a single `InterferenceAware` stream — a chip runs only
///   one `Exclusive` stream, and a lone adaptive tenant has nothing to
///   arbitrate, so both take the `SharedRoundRobin` path. With one stream
///   the interleaving is the identity: CTA `b` runs on SM `b % num_sms`,
///   where `SpatialPartition` would put it too.
/// * `InterferenceAware` with >1 stream — no static work at all; the
///   [`AdaptiveDispatcher`] admits and feeds everything at epoch boundaries.
pub(crate) fn build_dispatch(
    streams: &[KernelStream],
    num_sms: usize,
    policy: DispatchPolicy,
    max_warps_per_sm: usize,
    epoch_cycles: Cycle,
) -> DispatchPlan {
    let num_sms = num_sms.max(1);
    if policy.is_adaptive() && streams.len() > 1 {
        return DispatchPlan {
            initial: vec![Vec::new(); num_sms],
            deferred: Vec::new(),
            adaptive: Some(AdaptiveDispatcher::new(
                streams,
                num_sms,
                max_warps_per_sm,
                epoch_cycles.max(1) * DECISION_EPOCHS,
            )),
        };
    }
    // Group streams by arrival cycle (ascending; ties keep tenant order).
    let mut arrivals: Vec<Cycle> = streams.iter().map(|s| s.arrival_cycle).collect();
    arrivals.sort_unstable();
    arrivals.dedup();
    let mut initial = vec![Vec::new(); num_sms];
    let mut deferred = Vec::new();
    let sets = spatial_sm_sets(streams.len(), num_sms);
    let mut rr_cursor = 0usize; // SharedRoundRobin SM cursor, continued across batches
    for arrival in arrivals {
        let group: Vec<&KernelStream> =
            streams.iter().filter(|s| s.arrival_cycle == arrival).collect();
        let mut per_sm: Vec<Vec<CtaWork>> = vec![Vec::new(); num_sms];
        match policy {
            DispatchPolicy::SpatialPartition => {
                for stream in &group {
                    let set = &sets[stream.tenant as usize];
                    for (j, work) in stream_work(stream).into_iter().enumerate() {
                        per_sm[set[j % set.len()]].push(work);
                    }
                }
            }
            // `SharedRoundRobin`, and the one stream of the other policies.
            _ => {
                let mut queues: Vec<Vec<CtaWork>> = group.iter().map(|s| stream_work(s)).collect();
                for q in &mut queues {
                    q.reverse();
                }
                while queues.iter().any(|q| !q.is_empty()) {
                    for q in &mut queues {
                        if let Some(work) = q.pop() {
                            per_sm[rr_cursor % num_sms].push(work);
                            rr_cursor += 1;
                        }
                    }
                }
            }
        }
        if arrival == 0 {
            initial = per_sm;
        } else {
            deferred.push(DeferredBatch { arrival, per_sm });
        }
    }
    DispatchPlan { initial, deferred, adaptive: None }
}

// ---------------------------------------------------------------------------
// The interference-aware adaptive dispatcher (chip-level CIAO-T)
// ---------------------------------------------------------------------------

/// Cumulative per-tenant counters the engine samples at every epoch boundary
/// and hands to the [`AdaptiveDispatcher`]; the dispatcher differences
/// consecutive samples into per-window rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct TenantSignal {
    /// L1D lookups of the tenant's warps, summed over SMs.
    pub l1_accesses: u64,
    /// Of those, the lookups that hit.
    pub l1_hits: u64,
    /// Shared-L2 lookups attributed to the tenant.
    pub l2_accesses: u64,
    /// Of those, the lookups that hit.
    pub l2_hits: u64,
    /// DRAM accesses attributed to the tenant.
    pub dram_accesses: u64,
    /// Instructions the tenant executed.
    pub instructions: u64,
    /// CTAs of the tenant that ran to completion, summed over SMs.
    pub ctas_completed: usize,
}

/// Decision-window length, in epochs, between monitor evaluations.
pub(crate) const DECISION_EPOCHS: Cycle = 8;
/// Minimum window L2 lookups before an L2 hit rate is considered measured.
const MIN_L2_SAMPLES: u64 = 16;
/// Minimum window L1 lookups before an L1 hit rate is considered measured.
const MIN_L1_SAMPLES: u64 = 32;
/// Minimum L1D lookups a tenant must have produced (cumulative since
/// admission) before its L1 signature weighs into classification — large
/// enough that the cold-start misses every tenant begins with are amortised
/// and data reuse has had time to emerge.
const CLASSIFY_MIN_L1: u64 = 256;
/// Cumulative L1 hit rate at or above which a tenant classifies as
/// cache-sensitive; below it the tenant is streaming (a working set too
/// large to profit from the cache it flows through).
const CACHE_L1_RATE: f64 = 0.42;
/// Best observed window L2 hit rate at or above which a tenant classifies as
/// cache-sensitive even when its L1 signature is ambiguous. Under the
/// pipelined banked backend the per-tenant L2 attribution is the sharper
/// reuse signal: a tenant whose own traffic, once warmed up, keeps hitting
/// in the shared L2 has a working set the caches can hold, whatever its L1
/// interleaving looks like. The *best* window is the right summary — the
/// cold-start windows every tenant begins with would dilute a cumulative
/// rate below any useful threshold.
const CACHE_L2_RATE: f64 = 0.6;
/// Windows a tenant may stay unclassifiable before it is given up on.
pub(crate) const MAX_PROBE_WINDOWS: Cycle = 40;
/// Windows after which a tenant producing almost no memory traffic is given
/// up on early — a compute-intensive tenant will never reach
/// `CLASSIFY_MIN_L1`, and waiting the full observation budget for it is
/// pointless.
const EARLY_PROBE_WINDOWS: Cycle = 8;
/// Observation windows that must pass before a *streaming* verdict is
/// allowed. Classification runs on live co-run signals (nothing is held back
/// while a tenant is unclassified), so patience here costs no throughput —
/// and cache reuse takes a few windows to emerge from the cold-start misses,
/// while a premature streaming verdict would confine a victim.
const MIN_STREAM_WINDOWS: Cycle = 4;
/// Minimum DRAM accesses since admission before a tenant can be declared
/// streaming: an interferer worth confining must actually flood the shared
/// memory system. Light-traffic (compute-intensive) tenants stay
/// unclassified and run anywhere.
const STREAM_MIN_DRAM: u64 = 512;
/// Fraction of a victim's best window L2 hit rate below which the window
/// counts as *degraded* (the throttle trigger).
const DEGRADE_FRAC: f64 = 0.85;
/// Fraction of a victim's best window IPC below which the window counts as
/// degraded. The L2 hit rate alone is blind to *bandwidth* interference — a
/// victim can keep hitting in its cache while its misses and replies queue
/// behind a streamer's flood at the DRAM bus and the reply fabric (the
/// channel the reply-path contention model makes visible) — so the monitor
/// watches the victim's delivered throughput too.
const IPC_DEGRADE_FRAC: f64 = 0.8;
/// Minimum instructions a victim must retire in a window before its window
/// IPC is considered measured.
const MIN_IPC_WINDOW_INSTR: u64 = 500;
/// Consecutive healthy windows required before throttles are relaxed — the
/// hysteresis that prevents shrink/grow ping-ponging.
const RESTORE_PATIENCE: u32 = 3;
/// Divisor of `num_sms` giving a streaming tenant's initial allowed-SM-set
/// size when it co-runs with a cache-sensitive tenant.
const CONFINE_DIVISOR: usize = 4;
/// Ceiling of the per-allowed-SM in-flight CTA multiplier for streamers.
const MAX_STREAM_LIMIT: usize = 64;
/// Extra warps' worth of work each SM may be handed per boundary beyond its
/// reported free slots. Retirements between boundaries would otherwise leave
/// warp slots idle for up to a full epoch before the dispatcher notices;
/// a small queued buffer keeps the SM launching while most of the grid still
/// stays pending (and therefore confinable) at the dispatcher.
const FEED_AHEAD_WARPS: usize = 8;

/// Per-tenant state of the adaptive dispatcher.
#[derive(Debug)]
struct TenantEntry {
    arrival: Cycle,
    admitted: bool,
    pending: std::collections::VecDeque<CtaWork>,
    dealt: usize,
    class: TenantClass,
    classified: bool,
    /// Decision windows observed since admission while still unclassified.
    probe_windows: Cycle,
    /// Size of the allowed-SM set (the *last* `allowed` SMs of the chip for
    /// streamers; the full chip for everyone else).
    allowed: usize,
    /// Per-allowed-SM in-flight CTA multiplier (streamers only; `usize::MAX`
    /// means unthrottled).
    limit: usize,
    best_l2_rate: f64,
    /// Best measured window IPC (instructions per window cycle) — the
    /// throughput baseline the bandwidth-interference check compares
    /// against.
    best_ipc: f64,
    /// Counter snapshot at admission; classification reads the cumulative
    /// traffic relative to this.
    base_signal: TenantSignal,
}

impl TenantEntry {
    fn active(&self, retired: usize) -> bool {
        self.admitted && (!self.pending.is_empty() || self.dealt > retired)
    }

    fn in_flight_cap(&self) -> usize {
        if self.class == TenantClass::Streaming {
            self.allowed.saturating_mul(self.limit).max(1)
        } else {
            usize::MAX
        }
    }
}

/// The run-time engine of [`DispatchPolicy::InterferenceAware`] — the
/// chip-level analogue of CIAO-T's interference-aware warp throttling.
///
/// The dispatcher holds every stream's CTAs in per-tenant pending queues and
/// feeds them to SMs at epoch boundaries. Classification runs on *live
/// co-run signals* — no tenant is held back while unclassified (the probe
/// phase of earlier revisions starved the chip for thousands of cycles; its
/// tax is what the ROADMAP's "cheaper classification" item asked to
/// amortise). The monitor reads each tenant's per-tenant L1/L2 attribution
/// window by window: a tenant whose best measured window L2 hit rate shows
/// real reuse (or whose cumulative L1 signature does) classifies
/// cache-sensitive; a tenant with an established low-reuse signature *and*
/// heavy DRAM traffic classifies streaming, but only after a patience of
/// observation windows — and an early streaming verdict is promoted back to
/// cache-sensitive if the tenant's reuse emerges later. Cache-sensitive and
/// unclassifiable tenants may fill the whole chip, while a streaming tenant
/// that co-runs with a cache-sensitive one is confined to a tail subset of
/// SMs with one in-flight CTA per allowed SM.
///
/// From then on the monitor differences the live per-tenant L2 attribution
/// every `DECISION_EPOCHS` epochs: when a cache-sensitive tenant's window
/// L2 hit rate degrades below `DEGRADE_FRAC` of its best observed window,
/// every active streaming tenant's allowed-SM set is *halved* (min 1 SM, so
/// no tenant ever starves); after `RESTORE_PATIENCE` consecutive healthy
/// windows the sets are doubled back and, once fully restored, the in-flight
/// multiplier grows too. Multiplicative shrink with hysteresis-gated growth
/// keeps the controller from ping-ponging.
///
/// Every quantity the dispatcher reads is sampled at a deterministic epoch
/// boundary, so its decisions — and therefore the whole run — are a pure
/// function of the streams and the configuration.
pub(crate) struct AdaptiveDispatcher {
    num_sms: usize,
    max_warps_per_sm: usize,
    window_cycles: Cycle,
    next_window_close: Cycle,
    tenants: Vec<TenantEntry>,
    last_signal: Vec<TenantSignal>,
    healthy_streak: u32,
    rotor: usize,
    log: DispatchLog,
    /// Per-boundary state, kept so a boundary allocates nothing: each
    /// tenant's retired-CTA count, each SM's free warp slots (less what
    /// `feed` deals), and the CTAs dealt to each SM.
    retired: Vec<usize>,
    free: Vec<usize>,
    fed: Vec<Vec<CtaWork>>,
}

impl AdaptiveDispatcher {
    /// Builds a dispatcher for `streams` on a chip of `num_sms` SMs with
    /// `max_warps_per_sm` warp slots each; the monitor closes a decision
    /// window every `window_cycles` cycles (the engine passes
    /// `DECISION_EPOCHS` × the effective epoch length).
    pub fn new(
        streams: &[KernelStream],
        num_sms: usize,
        max_warps_per_sm: usize,
        window_cycles: Cycle,
    ) -> Self {
        let num_sms = num_sms.max(1);
        let tenants: Vec<TenantEntry> = streams
            .iter()
            .map(|s| TenantEntry {
                arrival: s.arrival_cycle,
                admitted: false,
                pending: stream_work(s).into(),
                dealt: 0,
                class: TenantClass::Unclassified,
                classified: false,
                probe_windows: 0,
                allowed: num_sms,
                limit: usize::MAX,
                best_l2_rate: 0.0,
                best_ipc: 0.0,
                base_signal: TenantSignal::default(),
            })
            .collect();
        let window_cycles = window_cycles.max(1);
        AdaptiveDispatcher {
            num_sms,
            max_warps_per_sm: max_warps_per_sm.max(1),
            window_cycles,
            next_window_close: window_cycles,
            tenants,
            last_signal: vec![TenantSignal::default(); streams.len()],
            healthy_streak: 0,
            rotor: 0,
            log: DispatchLog::default(),
            retired: Vec::with_capacity(streams.len()),
            free: Vec::with_capacity(num_sms),
            fed: vec![Vec::new(); num_sms],
        }
    }

    /// True while the dispatcher still holds undealt work: streams not yet
    /// admitted, or admitted CTAs waiting in a pending queue.
    pub fn has_work(&self) -> bool {
        self.tenants.iter().any(|e| !e.admitted || !e.pending.is_empty())
    }

    /// True while an *admitted* tenant still has pending CTAs — work that
    /// only epoch progression (CTA retirements, probe give-ups) can release.
    /// When this is false, any remaining work is an unadmitted future
    /// arrival, and the engine may fast-forward straight to it.
    pub fn has_admitted_pending(&self) -> bool {
        self.tenants.iter().any(|e| e.admitted && !e.pending.is_empty())
    }

    /// Pending (admitted or not, undealt) CTAs of one tenant.
    pub fn pending_ctas(&self, tenant: TenantId) -> usize {
        self.tenants.get(tenant as usize).map_or(0, |e| e.pending.len())
    }

    /// Earliest arrival cycle of a stream not yet admitted.
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.tenants.iter().filter(|e| !e.admitted).map(|e| e.arrival).min()
    }

    /// Moves the decision log out (the engine calls this once, at the end).
    pub fn take_log(&mut self) -> DispatchLog {
        std::mem::take(&mut self.log)
    }

    /// One epoch boundary: admits newly arrived streams, closes a decision
    /// window when due (classification, throttle/restore), and returns the
    /// CTAs to append to each SM's work list, indexed by SM. The lists are
    /// buffers the dispatcher reuses: move the CTAs out (the next boundary
    /// discards whatever is left). `signals` are the *cumulative*
    /// per-tenant counters at this boundary; `free_warp_slots[sm]` is how
    /// many warp slots SM `sm` has left after its resident and
    /// queued-but-unlaunched CTAs.
    pub fn on_boundary(
        &mut self,
        now: Cycle,
        signals: &[TenantSignal],
        free_warp_slots: &[usize],
    ) -> &mut [Vec<CtaWork>] {
        debug_assert_eq!(signals.len(), self.tenants.len());
        debug_assert_eq!(free_warp_slots.len(), self.num_sms);
        self.retired.clear();
        self.retired.extend(signals.iter().map(|s| s.ctas_completed));
        let mut actions: Vec<DispatchAction> = Vec::new();

        for (t, e) in self.tenants.iter_mut().enumerate() {
            if !e.admitted && e.arrival <= now {
                e.admitted = true;
                e.base_signal = signals[t];
                // Tenancy changed: previously relaxed throttles must re-earn
                // their relaxation against the new co-runner.
                self.healthy_streak = 0;
                actions.push(DispatchAction::Admit { tenant: t as TenantId });
            }
        }

        if now >= self.next_window_close {
            self.next_window_close = now + self.window_cycles;
            self.close_window(now, signals, actions);
        } else if !actions.is_empty() {
            // Admit-only boundary between windows: record it with unmeasured
            // rates so the log keeps every tenancy change.
            let n = self.tenants.len();
            self.log.decisions.push(DispatchDecision {
                cycle: now,
                l2_hit_rate: vec![-1.0; n],
                l1_hit_rate: vec![-1.0; n],
                classes: self.tenants.iter().map(|e| e.class).collect(),
                allowed_sms: self.tenants.iter().map(|e| e.allowed).collect(),
                actions,
            });
        }

        self.free.clear();
        self.free.extend_from_slice(free_warp_slots);
        self.feed();
        &mut self.fed
    }

    /// Closes a decision window: classifies probing tenants, places newly
    /// classified ones, and runs the throttle/restore controller.
    fn close_window(
        &mut self,
        now: Cycle,
        signals: &[TenantSignal],
        mut actions: Vec<DispatchAction>,
    ) {
        let n = self.tenants.len();
        let mut l1_rate = vec![-1.0f64; n];
        let mut l2_rate = vec![-1.0f64; n];
        let mut ipc_rate = vec![-1.0f64; n];
        for t in 0..n {
            let (cur, last) = (&signals[t], &self.last_signal[t]);
            let d_l1 = cur.l1_accesses - last.l1_accesses;
            if d_l1 >= MIN_L1_SAMPLES {
                l1_rate[t] = (cur.l1_hits - last.l1_hits) as f64 / d_l1 as f64;
            }
            let d_l2 = cur.l2_accesses - last.l2_accesses;
            if d_l2 >= MIN_L2_SAMPLES {
                l2_rate[t] = (cur.l2_hits - last.l2_hits) as f64 / d_l2 as f64;
            }
            let d_instr = cur.instructions - last.instructions;
            if d_instr >= MIN_IPC_WINDOW_INSTR {
                ipc_rate[t] = d_instr as f64 / self.window_cycles as f64;
            }
        }
        self.last_signal.copy_from_slice(signals);

        // Roll every tenant's best observed window L2 hit rate and window
        // IPC forward — the interference-free-ish baselines the degradation
        // checks compare co-run windows against.
        for (t, e) in self.tenants.iter_mut().enumerate() {
            if l2_rate[t] > e.best_l2_rate {
                e.best_l2_rate = l2_rate[t];
            }
            if ipc_rate[t] > e.best_ipc {
                e.best_ipc = ipc_rate[t];
            }
        }

        // Live classification from each tenant's cumulative traffic since
        // admission plus its best measured window L2 hit rate. Cumulative L1
        // (rather than window-local) amortises the cold-start misses; the
        // best L2 window captures reuse even when co-run L1 interleaving
        // muddies the L1 signature.
        let mut newly_classified = false;
        for (e, sig) in self.tenants.iter_mut().zip(signals) {
            if !e.admitted || e.classified {
                continue;
            }
            let cum_l1 = sig.l1_accesses - e.base_signal.l1_accesses;
            let cum_dram = sig.dram_accesses - e.base_signal.dram_accesses;
            let l1_reuse = cum_l1 >= CLASSIFY_MIN_L1
                && (sig.l1_hits - e.base_signal.l1_hits) as f64 / cum_l1 as f64 >= CACHE_L1_RATE;
            if l1_reuse || e.best_l2_rate >= CACHE_L2_RATE {
                e.class = TenantClass::CacheSensitive;
                e.classified = true;
                newly_classified = true;
            } else if cum_l1 >= CLASSIFY_MIN_L1
                && cum_dram >= STREAM_MIN_DRAM
                && e.probe_windows >= MIN_STREAM_WINDOWS
            {
                // Established low-reuse signature over a real traffic volume,
                // observed long enough for reuse to have emerged: streaming.
                e.class = TenantClass::Streaming;
                e.classified = true;
                newly_classified = true;
            } else {
                e.probe_windows += 1;
                // Too little memory traffic to tell: give up — early for a
                // tenant that is clearly not memory-bound, eventually for
                // everyone — and let it run anywhere.
                let barely_any_traffic = cum_l1 < CLASSIFY_MIN_L1 / 8;
                if (e.probe_windows >= EARLY_PROBE_WINDOWS && barely_any_traffic)
                    || e.probe_windows >= MAX_PROBE_WINDOWS
                {
                    e.classified = true;
                    newly_classified = true;
                }
            }
        }

        // Promotion pass: live classification must be allowed to correct
        // itself. A tenant pinned streaming by an early ambiguous signature
        // whose own traffic later proves reusable is promoted — and released
        // from any confinement — as soon as its reuse shows.
        for e in &mut self.tenants {
            if e.classified && e.class == TenantClass::Streaming && e.best_l2_rate >= CACHE_L2_RATE
            {
                e.class = TenantClass::CacheSensitive;
                e.allowed = self.num_sms;
                e.limit = usize::MAX;
                newly_classified = true;
            }
        }

        // Placement: record the classification verdicts. Confinement is
        // *reactive* — a streamer keeps the whole chip until a victim's
        // measured window actually degrades (the throttle path below), so a
        // co-run the banked backend already keeps healthy pays no
        // containment tax at all.
        if newly_classified {
            for e in &mut self.tenants {
                if e.classified && e.class != TenantClass::Streaming {
                    e.allowed = self.num_sms;
                    e.limit = usize::MAX;
                }
            }
            actions.push(DispatchAction::Place {
                allowed_sms: self.tenants.iter().map(|e| e.allowed).collect(),
            });
        }

        // Throttle / restore controller over the measured window rates.
        // Skipped in a window that reshaped the tenancy (classification just
        // placed someone): the window's rates predate the new placement.
        if newly_classified {
            self.healthy_streak = 0;
        } else {
            let mut any_active_victim = false;
            let mut any_measured_victim = false;
            let mut degraded_victim: Option<TenantId> = None;
            for t in 0..n {
                let e = &mut self.tenants[t];
                if !(e.classified
                    && e.class == TenantClass::CacheSensitive
                    && e.active(self.retired[t]))
                {
                    continue;
                }
                any_active_victim = true;
                let l2_measured = l2_rate[t] >= 0.0;
                // The IPC check only arms while the victim still has real
                // parallelism in flight — a nearly-drained grid slows down on
                // its own, and throttling a streamer for that would be noise.
                let in_flight = e.dealt.saturating_sub(self.retired[t]);
                let ipc_measured = ipc_rate[t] >= 0.0 && in_flight >= 4;
                if !l2_measured && !ipc_measured {
                    continue;
                }
                any_measured_victim = true;
                let l2_degraded = l2_measured && l2_rate[t] < DEGRADE_FRAC * e.best_l2_rate;
                let ipc_degraded = ipc_measured && ipc_rate[t] < IPC_DEGRADE_FRAC * e.best_ipc;
                if (l2_degraded || ipc_degraded) && degraded_victim.is_none() {
                    degraded_victim = Some(t as TenantId);
                }
            }
            if let Some(victim) = degraded_victim {
                self.healthy_streak = 0;
                for (t, e) in self.tenants.iter_mut().enumerate() {
                    if !(e.classified
                        && e.class == TenantClass::Streaming
                        && e.active(self.retired[t]))
                    {
                        continue;
                    }
                    if e.allowed == self.num_sms {
                        // First reaction: confine to the tail quarter of the
                        // chip with one in-flight CTA per allowed SM.
                        e.allowed = self.num_sms.div_ceil(CONFINE_DIVISOR);
                        e.limit = e.limit.min(1);
                    } else if e.allowed > 1 {
                        e.allowed /= 2;
                    } else {
                        continue;
                    }
                    actions.push(DispatchAction::Throttle {
                        tenant: t as TenantId,
                        victim,
                        allowed_sms: e.allowed,
                    });
                }
            } else if !any_active_victim || any_measured_victim {
                // A window is *healthy* when every victim that spoke was fine
                // or no victim remains; a window in which active victims
                // produced too little L2 traffic to judge is neutral — it
                // neither relaxes throttles nor resets the streak.
                self.healthy_streak += 1;
                if self.healthy_streak >= RESTORE_PATIENCE {
                    for t in 0..n {
                        let e = &mut self.tenants[t];
                        if !(e.classified && e.class == TenantClass::Streaming) {
                            continue;
                        }
                        if e.allowed < self.num_sms {
                            e.allowed = (e.allowed * 2).min(self.num_sms);
                            actions.push(DispatchAction::Restore {
                                tenant: t as TenantId,
                                allowed_sms: e.allowed,
                            });
                        } else if e.limit < MAX_STREAM_LIMIT {
                            e.limit = (e.limit * 2).min(MAX_STREAM_LIMIT);
                            actions.push(DispatchAction::Restore {
                                tenant: t as TenantId,
                                allowed_sms: e.allowed,
                            });
                        }
                    }
                }
            }
        }

        self.log.decisions.push(DispatchDecision {
            cycle: now,
            l2_hit_rate: l2_rate,
            l1_hit_rate: l1_rate,
            classes: self.tenants.iter().map(|e| e.class).collect(),
            allowed_sms: self.tenants.iter().map(|e| e.allowed).collect(),
            actions,
        });
    }

    /// True when `sm` is in `tenant`'s allowed set: the *last* `allowed`
    /// SMs of the chip (the whole chip when unconfined).
    fn allows(&self, tenant: usize, sm: usize) -> bool {
        sm >= self.num_sms - self.tenants[tenant].allowed
    }

    /// Deals pending CTAs into the per-SM `fed` buffers: tenants
    /// round-robin over their allowed sets (the whole chip while
    /// unclassified — classification is live, so nothing is held back for
    /// it), bounded by free warp slots and (for throttled streamers) the
    /// in-flight cap.
    fn feed(&mut self) {
        let n = self.tenants.len();
        for work in &mut self.fed {
            work.clear();
        }

        // Feed slightly past the reported free slots so retirements between
        // boundaries never leave an SM without a launch-ready CTA.
        for f in self.free.iter_mut() {
            *f += FEED_AHEAD_WARPS;
        }

        loop {
            let mut progressed = false;
            for slot in 0..self.num_sms {
                for off in 0..n {
                    let t = (self.rotor + off) % n;
                    // Stagger each tenant's dealing start across the chip so
                    // equally-numbered CTAs of different tenants land on
                    // *different* SMs: tenant address offsets do not change
                    // cache set bits, so same-index CTAs of structurally
                    // similar kernels sweep the same L1 sets in lockstep and
                    // would thrash each other if co-resident.
                    let sm = (slot + t * self.num_sms / n) % self.num_sms;
                    if !self.feedable(t, sm) {
                        continue;
                    }
                    let e = &mut self.tenants[t];
                    let cta = e.pending.pop_front().expect("feedable implies pending");
                    self.free[sm] -= cta.warps.min(self.max_warps_per_sm).min(self.free[sm]);
                    e.dealt += 1;
                    self.fed[sm].push(cta);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            self.rotor = (self.rotor + 1) % n.max(1);
        }
    }

    /// Whether tenant `t` may deal its next pending CTA to `sm` right now.
    fn feedable(&self, t: usize, sm: usize) -> bool {
        let e = &self.tenants[t];
        if !e.admitted || e.pending.is_empty() || !self.allows(t, sm) {
            return false;
        }
        let in_flight = e.dealt.saturating_sub(self.retired[t]);
        if in_flight >= e.in_flight_cap() {
            return false;
        }
        let warps = e.pending.front().expect("non-empty").warps.min(self.max_warps_per_sm);
        self.free[sm] >= warps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ClosureKernel;
    use crate::trace::{VecProgram, WarpOp};
    use proptest::prelude::*;

    fn kernel(name: &str, ctas: usize, warps: usize) -> Arc<dyn Kernel> {
        let info = KernelInfo {
            name: name.into(),
            num_ctas: ctas,
            warps_per_cta: warps,
            shared_mem_per_cta: 0,
        };
        Arc::new(ClosureKernel::new(info, |_c, _w| Box::new(VecProgram::new(vec![WarpOp::alu()]))))
    }

    /// The work lists `build_dispatch` installs before the first cycle.
    fn initial(s: &[KernelStream], sms: usize, policy: DispatchPolicy) -> Vec<Vec<CtaWork>> {
        build_dispatch(s, sms, policy, 48, 64).initial
    }

    /// The statically planned policies: every policy but the adaptive one.
    fn static_policies() -> Vec<DispatchPolicy> {
        DispatchPolicy::all().into_iter().filter(|p| !p.is_adaptive()).collect()
    }

    fn streams(shapes: &[(usize, usize)]) -> Vec<KernelStream> {
        shapes
            .iter()
            .enumerate()
            .map(|(t, &(ctas, warps))| {
                KernelStream::new(t as TenantId, kernel(&format!("k{t}"), ctas, warps))
            })
            .collect()
    }

    #[test]
    fn round_robin_covers_every_block_once() {
        let lists = dispatch_round_robin(10, 3);
        assert_eq!(lists.len(), 3);
        assert_eq!(lists[0], vec![0, 3, 6, 9]);
        assert_eq!(lists[1], vec![1, 4, 7]);
        assert_eq!(lists[2], vec![2, 5, 8]);
    }

    #[test]
    fn policy_labels_round_trip() {
        assert_eq!(DispatchPolicy::all().len(), 4);
        for p in DispatchPolicy::all() {
            assert_eq!(DispatchPolicy::from_label(p.label()), Some(p));
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!(DispatchPolicy::from_label("nope"), None);
        assert!(!DispatchPolicy::Exclusive.is_concurrent());
        assert!(DispatchPolicy::SpatialPartition.is_concurrent());
        assert!(DispatchPolicy::InterferenceAware.is_concurrent());
        assert!(DispatchPolicy::InterferenceAware.is_adaptive());
        let adaptive: Vec<_> =
            DispatchPolicy::all().into_iter().filter(|p| p.is_adaptive()).collect();
        assert_eq!(adaptive, [DispatchPolicy::InterferenceAware]);
    }

    #[test]
    fn interference_aware_single_stream_plan_matches_exclusive() {
        let s = streams(&[(9, 2)]);
        let adaptive = initial(&s, 4, DispatchPolicy::InterferenceAware);
        let exclusive = initial(&s, 4, DispatchPolicy::Exclusive);
        for (a, e) in adaptive.iter().zip(&exclusive) {
            let ctas = |l: &Vec<CtaWork>| l.iter().map(|w| w.cta).collect::<Vec<_>>();
            assert_eq!(ctas(a), ctas(e));
        }
        // Multi-stream adaptive plans are empty: the dispatcher feeds SMs at
        // run time instead.
        let multi = initial(&streams(&[(4, 2), (4, 2)]), 4, DispatchPolicy::InterferenceAware);
        assert!(multi.iter().all(Vec::is_empty));
    }

    #[test]
    fn spatial_sets_are_disjoint_and_balanced() {
        let sets = spatial_sm_sets(3, 8);
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7]]);
        // More tenants than SMs: wrap (no longer disjoint).
        let wrapped = spatial_sm_sets(5, 3);
        assert_eq!(wrapped, vec![vec![0], vec![1], vec![2], vec![0], vec![1]]);
    }

    #[test]
    fn single_stream_shared_rr_matches_round_robin() {
        let s = streams(&[(7, 2)]);
        let lists = initial(&s, 3, DispatchPolicy::SharedRoundRobin);
        let reference = dispatch_round_robin(7, 3);
        for (sm, list) in lists.iter().enumerate() {
            let ctas: Vec<usize> = list.iter().map(|w| w.cta as usize).collect();
            assert_eq!(ctas, reference[sm]);
            assert!(list.iter().all(|w| w.tenant == 0));
        }
    }

    #[test]
    fn shared_rr_interleaves_tenants_on_every_sm() {
        let s = streams(&[(4, 2), (4, 2)]);
        let lists = initial(&s, 2, DispatchPolicy::SharedRoundRobin);
        // Interleaved sequence: (t0,c0) (t1,c0) (t0,c1) (t1,c1) ...
        // SM 0 gets even positions, SM 1 odd ones.
        let tenants_sm0: Vec<TenantId> = lists[0].iter().map(|w| w.tenant).collect();
        let tenants_sm1: Vec<TenantId> = lists[1].iter().map(|w| w.tenant).collect();
        assert_eq!(tenants_sm0, vec![0, 0, 0, 0]);
        assert_eq!(tenants_sm1, vec![1, 1, 1, 1]);
        // With 3 SMs both tenants appear on every SM.
        let lists3 = initial(&s, 3, DispatchPolicy::SharedRoundRobin);
        for list in &lists3 {
            assert!(!list.is_empty());
        }
        let all_tenants: std::collections::HashSet<TenantId> =
            lists3.iter().flatten().map(|w| w.tenant).collect();
        assert_eq!(all_tenants.len(), 2);
    }

    #[test]
    fn spatial_partition_confines_tenants_to_their_sets() {
        let s = streams(&[(6, 2), (9, 2)]);
        let lists = initial(&s, 4, DispatchPolicy::SpatialPartition);
        let sets = spatial_sm_sets(2, 4);
        for (sm, list) in lists.iter().enumerate() {
            for w in list {
                assert!(
                    sets[w.tenant as usize].contains(&sm),
                    "tenant {} CTA on SM {sm} outside its set",
                    w.tenant
                );
            }
        }
        // Every CTA of every stream is assigned exactly once.
        let mut counts = [vec![0usize; 6], vec![0usize; 9]];
        for w in lists.iter().flatten() {
            counts[w.tenant as usize][w.cta as usize] += 1;
        }
        assert!(counts.iter().flatten().all(|&c| c == 1));
    }

    proptest! {
        /// Every static policy assigns every CTA of every stream exactly once.
        #[test]
        fn plan_is_a_partition(
            shapes in proptest::collection::vec((1usize..40, 1usize..4), 1..5),
            sms in 1usize..32,
            policy_idx in 0usize..3,
        ) {
            let policy = static_policies()[policy_idx];
            let s = streams(&shapes);
            let lists = initial(&s, sms, policy);
            prop_assert_eq!(lists.len(), sms);
            let mut counts: Vec<Vec<usize>> =
                shapes.iter().map(|&(ctas, _)| vec![0; ctas]).collect();
            for w in lists.iter().flatten() {
                counts[w.tenant as usize][w.cta as usize] += 1;
            }
            prop_assert!(counts.iter().flatten().all(|&c| c == 1));
        }
    }

    fn streams_at(shapes: &[(usize, usize, u64)]) -> Vec<KernelStream> {
        shapes
            .iter()
            .enumerate()
            .map(|(t, &(ctas, warps, arrival))| {
                KernelStream::new_at(t as TenantId, kernel(&format!("k{t}"), ctas, warps), arrival)
            })
            .collect()
    }

    #[test]
    fn build_dispatch_installs_all_zero_arrivals_up_front() {
        let s = streams(&[(5, 2), (7, 1)]);
        for policy in static_policies() {
            let built = build_dispatch(&s, 3, policy, 48, 64);
            assert!(built.deferred.is_empty(), "{policy}");
            assert!(built.adaptive.is_none(), "{policy}");
            assert_eq!(built.initial.iter().map(Vec::len).sum::<usize>(), 12, "{policy}");
        }
    }

    #[test]
    fn build_dispatch_defers_late_arrivals_without_losing_work() {
        for policy in static_policies() {
            let s = streams_at(&[(5, 2, 0), (7, 1, 1000), (3, 1, 1000)]);
            let built = build_dispatch(&s, 4, policy, 48, 64);
            // Arrival-0 work is installed up front; the cycle-1000 group is
            // one deferred batch.
            assert_eq!(built.deferred.len(), 1, "{policy}");
            assert_eq!(built.deferred[0].arrival, 1000, "{policy}");
            let mut counts = [vec![0usize; 5], vec![0usize; 7], vec![0usize; 3]];
            for w in built.initial.iter().flatten() {
                counts[w.tenant as usize][w.cta as usize] += 1;
            }
            assert!(counts[0].iter().all(|&c| c == 1), "{policy}");
            assert!(counts[1].iter().chain(&counts[2]).all(|&c| c == 0), "{policy}");
            for w in built.deferred[0].per_sm.iter().flatten() {
                counts[w.tenant as usize][w.cta as usize] += 1;
            }
            assert!(counts.iter().flatten().all(|&c| c == 1), "{policy}");
        }
    }

    #[test]
    fn adaptive_dispatcher_feeds_immediately_and_classifies_live() {
        let s = streams(&[(6, 2), (10, 2)]);
        let mut d = AdaptiveDispatcher::new(&s, 4, 48, 512);
        assert!(d.has_work());
        // Arrival-0 streams are unadmitted until the first boundary.
        assert_eq!(d.next_arrival(), Some(0));
        let free = vec![48usize; 4];
        let signals = vec![TenantSignal::default(); 2];
        // Boundary 0: admission, then the whole pending load is dealt — live
        // classification holds nothing back while tenants are unclassified.
        let dealt: usize = d.on_boundary(0, &signals, &free).iter().map(Vec::len).sum();
        assert_eq!(dealt, 16, "every CTA dealt immediately (capacity allows)");
        assert!(!d.has_work());
        assert_eq!(d.tenants[0].dealt, 6);
        assert_eq!(d.pending_ctas(0), 0);
        // Rich reuse signals classify both tenants cache-sensitive from the
        // live co-run windows and place them across the whole chip.
        let rich = TenantSignal {
            l1_accesses: 10_000,
            l1_hits: 9_000,
            l2_accesses: 1_000,
            l2_hits: 900,
            dram_accesses: 100,
            instructions: 20_000,
            ctas_completed: 0,
        };
        d.on_boundary(512, &[rich, rich], &free);
        let log = &d.log;
        assert!(log
            .decisions
            .iter()
            .any(|dec| dec.actions.iter().any(|a| matches!(a, DispatchAction::Place { .. }))));
        let last = log.decisions.last().expect("has decisions");
        assert!(last.classes.iter().all(|&c| c == TenantClass::CacheSensitive));
        assert_eq!(last.allowed_sms, vec![4, 4]);
    }

    #[test]
    fn adaptive_dispatcher_confines_streamer_and_never_starves_it() {
        let s = streams(&[(4, 2), (12, 2)]);
        let mut d = AdaptiveDispatcher::new(&s, 8, 48, 512);
        let free = vec![48usize; 8];
        // Tenant 0 shows L2 reuse (cache-sensitive), tenant 1 streams (low
        // hit rates everywhere, heavy DRAM traffic).
        let cache = TenantSignal {
            l1_accesses: 5_000,
            l1_hits: 4_500,
            l2_accesses: 600,
            l2_hits: 500,
            dram_accesses: 100,
            instructions: 10_000,
            ctas_completed: 0,
        };
        let stream = TenantSignal {
            l1_accesses: 5_000,
            l1_hits: 500,
            l2_accesses: 4_500,
            l2_hits: 200,
            dram_accesses: 4_300,
            instructions: 6_000,
            ctas_completed: 0,
        };
        d.on_boundary(0, &[TenantSignal::default(); 2], &free);
        // The streaming verdict needs its patience windows; keep the signals
        // flowing until it lands, then degrade the victim.
        let mut cache_now = cache;
        let mut stream_now = stream;
        d.on_boundary(512, &[cache_now, stream_now], &free);
        for b in 2..12u64 {
            cache_now.l2_accesses += 100;
            cache_now.l2_hits += 5; // ~5% window rate: heavily degraded
            stream_now.l2_accesses += 1_000;
            stream_now.dram_accesses += 1_000;
            d.on_boundary(b * 512, &[cache_now, stream_now], &free);
        }
        // Confinement is reactive: the measured degradation must have driven
        // Throttle actions, the first of which drops the streamer straight to
        // the tail quarter of the chip.
        let throttles: Vec<usize> = d
            .log
            .decisions
            .iter()
            .flat_map(|dec| &dec.actions)
            .filter_map(|a| match a {
                DispatchAction::Throttle { tenant: 1, allowed_sms, .. } => Some(*allowed_sms),
                _ => None,
            })
            .collect();
        assert!(!throttles.is_empty(), "degradation must trigger throttles");
        assert_eq!(throttles[0], 2, "first throttle confines to the tail quarter (8/4 = 2 SMs)");
        let last = d.log.decisions.last().expect("has decisions");
        assert_eq!(last.classes[0], TenantClass::CacheSensitive);
        assert_eq!(last.classes[1], TenantClass::Streaming);
        assert_eq!(last.allowed_sms[1], 1, "streamer shrinks to its 1-SM floor");
        // Even fully throttled, the streamer keeps at least one in-flight
        // CTA's worth of feed: it is never starved outright.
        assert!(d.tenants[1].dealt >= 1);
    }

    proptest! {
        /// Under arbitrary monitor signals (hence arbitrary classify /
        /// throttle / restore decisions) and arbitrary free-slot reports, the
        /// adaptive dispatcher never loses or double-dispatches a CTA: what
        /// was dealt plus what is still pending is exactly each tenant's grid,
        /// and every dealt CTA lands on a valid SM.
        #[test]
        fn adaptive_feed_is_a_partition(
            shapes in proptest::collection::vec((1usize..20, 1usize..4), 2..5),
            sms in 1usize..16,
            rounds in proptest::collection::vec(
                (0u64..20_000, 0u64..20_000, 0u64..20_000, 0usize..48), 1..40),
        ) {
            let s = streams(&shapes);
            let mut d = AdaptiveDispatcher::new(&s, sms, 48, 512);
            let n = shapes.len();
            let mut dealt: Vec<Vec<usize>> =
                shapes.iter().map(|&(ctas, _)| vec![0; ctas]).collect();
            let mut signals = vec![TenantSignal::default(); n];
            let mut retired = vec![0usize; n];
            for (b, &(acc, hits, l2, free_slots)) in rounds.iter().enumerate() {
                // Arbitrary (even inconsistent-looking) monotone counters.
                for (t, sig) in signals.iter_mut().enumerate() {
                    sig.l1_accesses += acc + t as u64;
                    sig.l1_hits += hits.min(acc);
                    sig.l2_accesses += l2;
                    sig.l2_hits += (l2 / 2).saturating_sub(t as u64);
                    sig.dram_accesses += l2 / 2;
                    sig.instructions += acc * 2;
                    // Retire roughly half of what is in flight.
                    let in_flight = d.tenants[t].dealt - retired[t];
                    retired[t] += in_flight / 2;
                    sig.ctas_completed = retired[t];
                }
                let free = vec![free_slots; sms];
                let fed = d.on_boundary(b as u64 * 512, &signals, &free);
                prop_assert_eq!(fed.len(), sms);
                for w in fed.iter().flatten() {
                    dealt[w.tenant as usize][w.cta as usize] += 1;
                }
            }
            for (t, counts) in dealt.iter().enumerate() {
                let dealt_count: usize = counts.iter().sum();
                prop_assert!(counts.iter().all(|&c| c <= 1), "tenant {} double-dispatch", t);
                prop_assert_eq!(
                    dealt_count + d.pending_ctas(t as TenantId),
                    shapes[t].0,
                    "tenant {} lost work", t
                );
                prop_assert_eq!(d.tenants[t].dealt, dealt_count);
            }
        }
    }

    /// Repeated degraded windows shrink a streaming co-runner step by step
    /// to one allowed SM, and no further: the dispatcher never starves it.
    #[test]
    fn throttling_shrinks_a_streamer_to_one_sm() {
        // Tenant 0 is the victim, tenant 1 the streamer.
        let mut d = AdaptiveDispatcher::new(&streams(&[(64, 2), (64, 2)]), 8, 48, 100);
        let mut s = vec![TenantSignal::default(); 2];
        // Feed nothing extra per boundary (free slots 0; only the small
        // feed-ahead buffer moves) so both tenants keep pending CTAs and
        // stay `active` for the controller.
        let free = vec![0usize; 8];
        for window in 1..=10u64 {
            // Victim: strong L1/L2 reuse, classified cache-sensitive at
            // the first window; from window 6 its L2 hit rate collapses,
            // arming the throttle path every later window.
            s[0].l1_accesses += 1_000;
            s[0].l1_hits += 800;
            s[0].l2_accesses += 1_000;
            s[0].l2_hits += if window < 6 { 900 } else { 50 };
            s[0].instructions += 10_000;
            // Streamer: heavy low-reuse traffic; classifies streaming
            // after the observation patience.
            s[1].l1_accesses += 1_000;
            s[1].l1_hits += 10;
            s[1].dram_accesses += 1_000;
            s[1].instructions += 10_000;
            d.on_boundary(window * 100, &s, &free);
        }
        let last = d.log.decisions.last().expect("windows were logged");
        assert_eq!(last.classes[1], TenantClass::Streaming);
        assert_eq!(last.allowed_sms[1], 1, "the streamer shrinks to the one-SM minimum");
    }
}
