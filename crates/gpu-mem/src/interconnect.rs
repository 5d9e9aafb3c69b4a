//! SM ↔ memory-partition interconnect.
//!
//! The crossbar is modelled in two stages:
//!
//! 1. **Per-SM injection ports** ([`Interconnect`], one per SM, entered
//!    through [`Interconnect::transfer`]) — a simple latency + bandwidth pipe:
//!    each transfer pays a fixed traversal latency and occupies the link for
//!    `bytes / bytes_per_cycle` cycles, so one SM's own miss bursts serialise
//!    on its port without touching any other SM's link state.
//! 2. **The shared fabric** ([`CrossbarFabric`], entered through
//!    [`CrossbarFabric::request_transfer`] and
//!    [`CrossbarFabric::reply_transfer`]) — one chip-wide
//!    bytes-per-cycle budget *per direction* (SM→L2 requests, L2→SM replies).
//!    The multi-SM engine charges every request against the request budget
//!    before it reaches an L2 bank and every read reply against the reply
//!    budget on the way back, so concurrent bursts from different SMs queue
//!    against each other even when each stayed within its own port — the
//!    reply-path contention an injection-port-only model cannot express.
//!
//! The fabric accounts queueing cycles and per-tenant bytes in both
//! directions ([`FabricStats`]); per-tenant bytes always sum exactly to the
//! direction totals.

use crate::{ceil_cycles, Cycle, TenantId};
use serde::{Deserialize, Serialize};
use sim_obs::{TraceEvent, TraceRecorder, Track};

/// A unidirectional link with fixed latency and finite bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Traversal latency in cycles.
    pub latency: Cycle,
    /// Link bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Cycle at which the link becomes free.
    next_free: Cycle,
    /// Total bytes pushed through the link.
    bytes_transferred: u64,
    /// Total cycles transfers spent waiting for the link.
    queueing_cycles: Cycle,
    /// Bytes pushed through the link per tenant (indexed by [`TenantId`]).
    tenant_bytes: Vec<u64>,
}

impl Interconnect {
    /// Creates a link with the given latency and bandwidth.
    pub fn new(latency: Cycle, bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0);
        Interconnect {
            latency,
            bytes_per_cycle,
            next_free: 0,
            bytes_transferred: 0,
            queueing_cycles: 0,
            tenant_bytes: Vec::new(),
        }
    }

    /// A GTX 480-like SM-to-L2 link: ~32 bytes/cycle per SM, 20-cycle latency.
    pub fn gtx480() -> Self {
        Interconnect::new(20, 32.0)
    }

    /// The link's one entry point: schedules a transfer of `bytes` starting
    /// no earlier than `now`, charges the bytes to `tenant`'s counter, and
    /// returns the cycle at which the payload arrives at the other end.
    pub fn transfer(&mut self, bytes: u64, now: Cycle, tenant: TenantId) -> Cycle {
        let occupancy = ceil_cycles(bytes as f64 / self.bytes_per_cycle).max(1);
        let start = now.max(self.next_free);
        self.queueing_cycles += start - now;
        self.next_free = start + occupancy;
        self.bytes_transferred += bytes;
        let idx = tenant as usize;
        if self.tenant_bytes.len() <= idx {
            self.tenant_bytes.resize(idx + 1, 0);
        }
        self.tenant_bytes[idx] += bytes;
        start + occupancy + self.latency
    }

    /// Total bytes transferred so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Bytes transferred per tenant (indexed by [`TenantId`]; empty when the
    /// link was never used).
    pub fn tenant_bytes(&self) -> &[u64] {
        &self.tenant_bytes
    }

    /// Total cycles spent queueing for the link.
    pub fn queueing_cycles(&self) -> Cycle {
        self.queueing_cycles
    }
}

/// Aggregate traffic statistics over a chip's per-SM links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossbarStats {
    /// Total bytes injected across all ports.
    pub bytes_transferred: u64,
    /// Total cycles transfers spent queueing for their port.
    pub queueing_cycles: Cycle,
}

/// One direction of the shared fabric: a pipe with a finite bytes-per-cycle
/// budget and *sub-cycle* occupancy accounting, so a 480 B/cycle fabric really
/// moves 3.75 × 128-byte lines per cycle instead of being arbitrated down to
/// one transfer per cycle. Completion cycles are rounded up to whole cycles;
/// the fractional bus position carries over between transfers.
#[derive(Debug, Clone, Default)]
struct FabricLink {
    /// Fractional cycle at which the pipe becomes free.
    next_free: f64,
    /// Total bytes pushed through this direction.
    bytes_transferred: u64,
    /// Total whole cycles transfers were delayed past their unloaded
    /// completion by earlier traffic.
    queueing_cycles: Cycle,
    /// Bytes per tenant (indexed by [`TenantId`]).
    tenant_bytes: Vec<u64>,
}

impl FabricLink {
    /// Schedules `bytes` entering the pipe at `now`, charged to `tenant`,
    /// and returns the completion cycle. The fabric charges *queueing delay
    /// only*: an unloaded pipe completes at `now` (the traversal latency was
    /// already paid at the per-SM injection port); a transfer that finds the
    /// pipe busy completes however many whole cycles later the shared budget
    /// pushes its drain past the unloaded one. Callers must present
    /// transfers in non-decreasing `now` order within a batch.
    fn transfer(
        &mut self,
        bytes: u64,
        bytes_per_cycle: f64,
        now: Cycle,
        tenant: TenantId,
    ) -> Cycle {
        let occupancy = bytes as f64 / bytes_per_cycle;
        let start = (now as f64).max(self.next_free);
        let end = start + occupancy;
        self.next_free = end;
        let unloaded_end = now as f64 + occupancy;
        let delay = ceil_cycles(end).saturating_sub(ceil_cycles(unloaded_end));
        self.queueing_cycles += delay;
        self.bytes_transferred += bytes;
        let idx = tenant as usize;
        if self.tenant_bytes.len() <= idx {
            self.tenant_bytes.resize(idx + 1, 0);
        }
        self.tenant_bytes[idx] += bytes;
        now + delay
    }

    fn stats(&self) -> FabricDirectionStats {
        FabricDirectionStats {
            bytes_transferred: self.bytes_transferred,
            queueing_cycles: self.queueing_cycles,
            tenant_bytes: self.tenant_bytes.clone(),
        }
    }
}

/// Traffic statistics of one fabric direction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricDirectionStats {
    /// Total bytes moved in this direction.
    pub bytes_transferred: u64,
    /// Total cycles transfers were delayed by earlier traffic in this
    /// direction (queueing against the chip-wide budget).
    pub queueing_cycles: Cycle,
    /// Bytes per tenant (indexed by [`TenantId`]; sums to
    /// `bytes_transferred`).
    pub tenant_bytes: Vec<u64>,
}

impl FabricDirectionStats {
    /// Bytes attributed to `tenant` (0 when the tenant never used this
    /// direction).
    pub fn tenant_bytes(&self, tenant: TenantId) -> u64 {
        self.tenant_bytes.get(tenant as usize).copied().unwrap_or(0)
    }
}

/// End-of-run statistics of the shared crossbar fabric, both directions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// The chip-wide bytes-per-cycle budget per direction (0 when the run
    /// never instantiated a fabric — single-SM runs).
    pub bytes_per_cycle: f64,
    /// SM → L2 request direction.
    pub request: FabricDirectionStats,
    /// L2 → SM reply direction.
    pub reply: FabricDirectionStats,
}

/// The shared request/reply fabric of a multi-SM chip: one finite chip-wide
/// bytes-per-cycle budget per direction. Driven by the chip engine at its
/// epoch boundaries, in deterministic request order.
#[derive(Debug, Clone)]
pub struct CrossbarFabric {
    bytes_per_cycle: f64,
    request: FabricLink,
    reply: FabricLink,
    /// Optional sim-time trace sink: each transfer records a span whose
    /// duration is its queueing delay (0-delay transfers render as
    /// instants). `None` (the default) costs one branch per transfer.
    trace: Option<TraceRecorder>,
}

impl CrossbarFabric {
    /// Builds a fabric with the given per-direction aggregate bandwidth.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0);
        CrossbarFabric {
            bytes_per_cycle,
            request: FabricLink::default(),
            reply: FabricLink::default(),
            trace: None,
        }
    }

    /// Attaches a trace recorder; subsequent transfers record fabric spans.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceRecorder::with_default_capacity());
    }

    /// Detaches and returns the trace recorder, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take()
    }

    /// Charges a request-direction transfer of `bytes` entering at `now` to
    /// `tenant`; returns the cycle the payload reaches the L2 side.
    pub fn request_transfer(&mut self, bytes: u64, now: Cycle, tenant: TenantId) -> Cycle {
        let done = self.request.transfer(bytes, self.bytes_per_cycle, now, tenant);
        if let Some(trace) = &mut self.trace {
            trace.record(
                TraceEvent::span(Track::FabricRequest, "req", now, done - now, Some(tenant))
                    .with_arg(bytes),
            );
        }
        done
    }

    /// Charges a reply-direction transfer of `bytes` entering at `now` to
    /// `tenant`; returns the cycle the payload reaches the SM side.
    pub fn reply_transfer(&mut self, bytes: u64, now: Cycle, tenant: TenantId) -> Cycle {
        let done = self.reply.transfer(bytes, self.bytes_per_cycle, now, tenant);
        if let Some(trace) = &mut self.trace {
            trace.record(
                TraceEvent::span(Track::FabricReply, "reply", now, done - now, Some(tenant))
                    .with_arg(bytes),
            );
        }
        done
    }

    /// The per-direction bandwidth budget.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Snapshot of both directions' statistics.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            bytes_per_cycle: self.bytes_per_cycle,
            request: self.request.stats(),
            reply: self.reply.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_transfer_latency() {
        let mut link = Interconnect::new(10, 32.0);
        // 128 bytes at 32 B/cycle = 4 cycles occupancy + 10 latency.
        assert_eq!(link.transfer(128, 100, 0), 114);
    }

    #[test]
    fn back_to_back_transfers_serialise() {
        let mut link = Interconnect::new(10, 32.0);
        let a = link.transfer(128, 0, 0);
        let b = link.transfer(128, 0, 0);
        assert_eq!(a, 14);
        assert_eq!(b, 18); // second burst waits 4 cycles for the link
        assert_eq!(link.queueing_cycles(), 4);
    }

    #[test]
    fn idle_link_does_not_delay() {
        let mut link = Interconnect::new(5, 16.0);
        link.transfer(64, 0, 0);
        // Much later request sees an idle link.
        let done = link.transfer(64, 1000, 0);
        assert_eq!(done, 1000 + 4 + 5);
    }

    #[test]
    fn tenant_bytes_split_the_total() {
        let mut link = Interconnect::new(10, 32.0);
        assert!(link.tenant_bytes().is_empty(), "an unused link charges no tenant");
        link.transfer(128, 0, 0);
        link.transfer(256, 0, 1);
        link.transfer(64, 0, 0);
        assert_eq!(link.tenant_bytes(), &[192, 256]);
        assert_eq!(link.bytes_transferred(), 192 + 256);
    }

    proptest! {
        /// Arrival is always at least latency + 1 cycle after issue and the
        /// byte counter is exact.
        #[test]
        fn arrival_bounds(transfers in proptest::collection::vec((1u64..4096, 0u64..10_000), 1..64)) {
            let mut link = Interconnect::new(20, 32.0);
            let mut total = 0u64;
            for (bytes, now) in transfers {
                let done = link.transfer(bytes, now, 0);
                prop_assert!(done > now + 20);
                total += bytes;
            }
            prop_assert_eq!(link.bytes_transferred(), total);
        }
    }

    #[test]
    fn fabric_moves_sub_cycle_transfers_without_false_arbitration() {
        // 480 B/cycle fabric: 3 concurrent 128-byte lines fit into one cycle
        // (3 × 128 = 384 < 480), so none of them queues — and an unloaded
        // fabric adds zero latency (traversal is paid at the injection port).
        let mut fabric = CrossbarFabric::new(480.0);
        for tenant in 0..3 {
            assert_eq!(fabric.request_transfer(128, 100, tenant), 100);
        }
        let s = fabric.stats();
        assert_eq!(s.request.bytes_transferred, 3 * 128);
        assert_eq!(s.request.queueing_cycles, 0);
        // The fourth line in the same cycle spills past the budget.
        assert_eq!(fabric.request_transfer(128, 100, 0), 101);
        assert_eq!(fabric.stats().request.queueing_cycles, 1);
    }

    #[test]
    fn fabric_directions_are_independent_and_attribute_tenants() {
        let mut fabric = CrossbarFabric::new(128.0);
        fabric.request_transfer(128, 0, 0);
        fabric.request_transfer(128, 0, 1); // queues behind tenant 0's line
        let reply_done = fabric.reply_transfer(128, 0, 1); // reply pipe is idle
        assert_eq!(reply_done, 0);
        let s = fabric.stats();
        assert_eq!(s.request.tenant_bytes, vec![128, 128]);
        assert_eq!(s.reply.tenant_bytes, vec![0, 128]);
        assert_eq!(
            s.request.tenant_bytes.iter().sum::<u64>(),
            s.request.bytes_transferred,
            "per-tenant request bytes must sum to the direction total"
        );
        assert_eq!(s.reply.tenant_bytes.iter().sum::<u64>(), s.reply.bytes_transferred);
        assert_eq!(s.request.tenant_bytes(1), 128);
        assert_eq!(s.reply.tenant_bytes(7), 0);
        assert!(s.request.queueing_cycles > 0);
        assert_eq!(s.reply.queueing_cycles, 0);
    }

    #[test]
    fn fabric_trace_records_both_directions() {
        let mut fabric = CrossbarFabric::new(128.0);
        assert!(fabric.take_trace().is_none(), "tracing is off by default");
        fabric.enable_trace();
        fabric.request_transfer(128, 0, 0);
        fabric.request_transfer(128, 0, 1); // queues → nonzero span
        fabric.reply_transfer(64, 5, 1);
        let events = fabric.take_trace().expect("recorder attached").take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].track, Track::FabricRequest);
        assert_eq!(events[0].dur, 0, "unloaded fabric adds no delay");
        assert_eq!(events[0].arg, Some(128));
        assert!(events[1].dur > 0, "second line queues behind the first");
        assert_eq!(events[2].track, Track::FabricReply);
        assert_eq!(events[2].tenant, Some(1));
    }

    proptest! {
        /// Fabric completions never precede entry, queueing matches the
        /// reported completion delays exactly, and bytes are attributed
        /// exactly.
        #[test]
        fn fabric_completion_bounds(
            transfers in proptest::collection::vec((1u64..4096, 0u64..4, 0u64..5_000), 1..64),
        ) {
            let mut fabric = CrossbarFabric::new(256.0);
            // Present in non-decreasing `now` order, as the engine does.
            let mut transfers: Vec<_> = transfers;
            transfers.sort_by_key(|&(_, _, now)| now);
            let mut total = 0u64;
            let mut delays = 0;
            for (bytes, tenant, now) in transfers {
                let done = fabric.request_transfer(bytes, now, tenant as crate::TenantId);
                prop_assert!(done >= now, "completion must never precede entry");
                delays += done - now;
                total += bytes;
            }
            let s = fabric.stats();
            prop_assert_eq!(s.request.queueing_cycles, delays);
            prop_assert_eq!(s.request.bytes_transferred, total);
            prop_assert_eq!(s.request.tenant_bytes.iter().sum::<u64>(), total);
        }
    }
}
