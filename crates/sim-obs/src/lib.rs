//! # sim-obs — observability layer for the CIAO simulator
//!
//! Three independent layers, threaded through the engine crates and the
//! harness:
//!
//! * [`trace`] — structured **sim-time tracing**: a zero-cost-when-disabled
//!   [`trace::Tracer`] with a ring-buffer [`trace::TraceRecorder`] capturing
//!   typed spans and instants (SM busy stretches, CTA lifetimes, bank
//!   service, fabric link transfers, dispatch decisions, event-queue pops)
//!   keyed by `(cycle, unit, tenant)`, exported as Chrome trace-event JSON
//!   loadable in [Perfetto](https://ui.perfetto.dev) with one track per
//!   SM / L2 bank / fabric direction and one per tenant.
//! * [`metrics`] — a **metrics registry**: named counters, cycle-stamped
//!   gauges and log2-bucket histograms with per-tenant labels, exported as
//!   deterministic JSON. Subsumes ad-hoc series like the dispatch log's
//!   per-tenant L2-hit-rate windows.
//! * [`profile`] — a **wall-clock phase profiler**: scoped timers around the
//!   engine's real phases (parallel SM phase, fabric passes, sharded bank
//!   service, reply release, event-loop pop/advance) aggregated into a
//!   self-time table, so epoch-vs-event hotspots are measured rather than
//!   inferred.
//!
//! Sim-time traces and metrics are **deterministic** — bit-identical across
//! host thread counts and across the epoch/event timing backends (the
//! exporter sorts canonically and backend-specific events carry the
//! [`trace::TraceCategory::Engine`] category, excluded from the canonical
//! export). Wall-clock profiling never enters simulation results.
//!
//! The crate is dependency-free by design: engines embed recorders in hot
//! paths, so depending on it must cost nothing, and `off` compiles down to
//! an `Option` check per would-be event.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{chip_metric, Histogram, MetricsRegistry};
pub use profile::{PhaseProfiler, PhaseStat};
pub use trace::{chrome_trace_json, TraceCategory, TraceEvent, TraceRecorder, Tracer, Track};

/// How much observability a run collects, set per request
/// (`SimRequest::obs`, `FleetRequest::obs`) and threaded through every
/// engine entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// No collection at all: every recorder stays `None`, every hot-path
    /// hook is a single branch. The default.
    #[default]
    Off,
    /// Metrics registry and phase profiler only — no event trace. Cheap
    /// enough for routine runs.
    Metrics,
    /// Everything: metrics, profiler and the full sim-time event trace.
    Full,
}

impl ObsLevel {
    /// Every level, in increasing-cost order.
    pub const ALL: [ObsLevel; 3] = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Full];

    /// The stable lowercase label (`off` / `metrics` / `full`).
    pub fn label(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Full => "full",
        }
    }

    /// Whether the metrics registry (and the phase profiler) collect.
    pub fn metrics_enabled(self) -> bool {
        self >= ObsLevel::Metrics
    }

    /// Whether the sim-time event trace records.
    pub fn trace_enabled(self) -> bool {
        self == ObsLevel::Full
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything one observed run collected: the trace events, the metrics
/// registry and the wall-clock phase profile, plus the tenant names the
/// trace exporter uses to label per-tenant tracks.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// The level the run collected at.
    pub level: ObsLevel,
    /// Every recorded trace event (unsorted; the exporter sorts
    /// canonically). Empty below [`ObsLevel::Full`].
    pub events: Vec<TraceEvent>,
    /// Trace events the ring buffers dropped on overflow (0 = complete).
    pub dropped_events: u64,
    /// Tenant names in tenant-id order, used to label per-tenant tracks.
    pub tenants: Vec<String>,
    /// The metrics registry. Empty below [`ObsLevel::Metrics`].
    pub metrics: MetricsRegistry,
    /// The wall-clock phase profile. Never serialised into simulation
    /// results — wall clocks are machine-dependent.
    pub profile: PhaseProfiler,
}

impl ObsReport {
    /// An empty report at the given level.
    pub fn new(level: ObsLevel) -> Self {
        ObsReport { level, ..ObsReport::default() }
    }

    /// The canonical Chrome trace-event JSON export of the run's sim-time
    /// events (deterministic; excludes [`TraceCategory::Engine`] events).
    /// Load the returned string in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events, &self.tenants, false)
    }

    /// The metrics registry as deterministic JSON (canonical export:
    /// engine-internal metrics excluded, so the output is identical across
    /// timing backends).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// The metrics registry as deterministic JSON *including* engine
    /// metrics (`engine/skipped-boundaries` etc.), which are backend
    /// dependent by design. This is what file artifacts for humans carry.
    pub fn metrics_json_full(&self) -> String {
        self.metrics.to_json_full()
    }

    /// The wall-clock phase profile as an aligned text table.
    pub fn profile_table(&self) -> String {
        self.profile.render()
    }

    /// Shifts every event cycle and gauge stamp by `offset` — used when
    /// serially executed per-kernel runs are chained into one timeline (the
    /// `exclusive` dispatch policy).
    pub fn shift_cycles(&mut self, offset: u64) {
        for ev in &mut self.events {
            ev.cycle += offset;
        }
        self.metrics.shift_cycles(offset);
    }

    /// Re-labels tenant `from` as tenant `to` across trace events (both the
    /// `tenant` attribution and the per-tenant track) and metrics. Used
    /// before merging serially executed single-tenant runs, which each label
    /// their kernel tenant 0, into one multi-tenant report.
    pub fn relabel_tenant(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        for ev in &mut self.events {
            if ev.tenant == Some(from) {
                ev.tenant = Some(to);
            }
            if ev.track == Track::Tenant(from) {
                ev.track = Track::Tenant(to);
            }
        }
        self.metrics.relabel_tenant(from, to);
    }

    /// Merges another report into this one: events concatenate, metrics
    /// merge, profiles merge, tenant names extend (later names win on
    /// overlap only by filling gaps).
    pub fn merge(&mut self, other: ObsReport) {
        self.level = self.level.max(other.level);
        self.events.extend(other.events);
        self.dropped_events += other.dropped_events;
        if self.tenants.len() < other.tenants.len() {
            self.tenants = other.tenants;
        }
        self.metrics.merge(other.metrics);
        self.profile.merge(&other.profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_label_and_order() {
        for level in ObsLevel::ALL {
            assert_eq!(level.to_string(), level.label());
        }
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Full);
        assert!(!ObsLevel::Off.metrics_enabled());
        assert!(!ObsLevel::Off.trace_enabled());
        assert!(ObsLevel::Metrics.metrics_enabled());
        assert!(!ObsLevel::Metrics.trace_enabled());
        assert!(ObsLevel::Full.metrics_enabled());
        assert!(ObsLevel::Full.trace_enabled());
    }

    #[test]
    fn report_shift_and_merge() {
        let mut a = ObsReport::new(ObsLevel::Full);
        a.events.push(TraceEvent::span(Track::Sm(0), "busy", 10, 5, Some(0)));
        a.metrics.gauge_push("g", Some(0), 10, 1.0);
        a.shift_cycles(100);
        assert_eq!(a.events[0].cycle, 110);

        let mut b = ObsReport::new(ObsLevel::Metrics);
        b.tenants = vec!["x".into(), "y".into()];
        b.metrics.counter_add("c", None, 3);
        a.merge(b);
        assert_eq!(a.level, ObsLevel::Full);
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(a.events.len(), 1);
    }
}
