//! Structured sim-time tracing: typed spans/instants on per-unit tracks,
//! recorded into a bounded ring buffer and exported as Chrome trace-event
//! JSON (the `{"traceEvents": [...]}` shape Perfetto and `chrome://tracing`
//! load directly).
//!
//! Determinism contract: the exporter sorts events by their full content
//! before writing, so any two runs producing the same *multiset* of events
//! serialise to byte-identical JSON — regardless of the interleaving host
//! threads recorded them in. Events that are inherently backend-specific
//! (event-queue pops, idle-skip stretches) carry
//! [`TraceCategory::Engine`] and are excluded from the canonical export.

/// Which determinism class an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Simulated-machine behaviour: identical across host thread counts and
    /// timing backends. Included in the canonical export.
    Sim,
    /// Engine mechanics (event-queue pops, bulk idle skips): meaningful for
    /// debugging one backend, but not backend-invariant. Excluded from the
    /// canonical export unless explicitly requested.
    Engine,
}

/// The track (Perfetto "thread") an event renders on. Each variant maps to a
/// fixed, deterministic `tid` so track identity never depends on discovery
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// One streaming multiprocessor (busy stretches, CTA lifetimes).
    Sm(u32),
    /// One L2/DRAM bank (per-request service spans).
    Bank(u32),
    /// The shared request-direction crossbar fabric.
    FabricRequest,
    /// The shared reply-direction crossbar fabric.
    FabricReply,
    /// One tenant's decision timeline (admit/place/throttle/restore
    /// instants).
    Tenant(u32),
    /// The chip-level dispatcher's own timeline (every decision instant).
    Dispatcher,
    /// Engine mechanics (event-queue pops, idle skips).
    Engine,
}

impl Track {
    /// The stable Perfetto thread id of this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Sm(i) => 1_000 + i as u64,
            Track::Bank(i) => 2_000 + i as u64,
            Track::FabricRequest => 3_000,
            Track::FabricReply => 3_001,
            Track::Tenant(t) => 4_000 + t as u64,
            Track::Dispatcher => 4_999,
            Track::Engine => 5_000,
        }
    }

    /// The human-readable track name shown in the Perfetto timeline.
    /// `tenants` supplies per-tenant display names (falling back to the
    /// tenant id).
    pub fn display_name(self, tenants: &[String]) -> String {
        match self {
            Track::Sm(i) => format!("SM {i}"),
            Track::Bank(i) => format!("L2 bank {i}"),
            Track::FabricRequest => "fabric request".to_string(),
            Track::FabricReply => "fabric reply".to_string(),
            Track::Tenant(t) => match tenants.get(t as usize) {
                Some(name) => format!("tenant {t}: {name}"),
                None => format!("tenant {t}"),
            },
            Track::Dispatcher => "dispatcher".to_string(),
            Track::Engine => "engine".to_string(),
        }
    }
}

/// One recorded event: a span (`dur > 0`) or an instant (`dur == 0`) at a
/// simulated cycle on a [`Track`], optionally attributed to a tenant and
/// carrying one numeric argument (bytes, a flag — name-specific).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event starts at.
    pub cycle: u64,
    /// Span length in cycles; `0` renders as an instant.
    pub dur: u64,
    /// The track the event renders on.
    pub track: Track,
    /// Event name (a static label such as `"busy"`, `"l2-miss"`,
    /// `"throttle"`).
    pub name: &'static str,
    /// The tenant the event is attributed to, if any.
    pub tenant: Option<u32>,
    /// Determinism class (see [`TraceCategory`]).
    pub category: TraceCategory,
    /// One optional numeric argument; meaning is name-specific (fabric
    /// transfers record bytes, L2 misses record DRAM row-hit 0/1).
    pub arg: Option<u64>,
}

impl TraceEvent {
    /// A simulated-machine span.
    pub fn span(
        track: Track,
        name: &'static str,
        cycle: u64,
        dur: u64,
        tenant: Option<u32>,
    ) -> Self {
        TraceEvent { cycle, dur, track, name, tenant, category: TraceCategory::Sim, arg: None }
    }

    /// A simulated-machine instant.
    pub fn instant(track: Track, name: &'static str, cycle: u64, tenant: Option<u32>) -> Self {
        TraceEvent { cycle, dur: 0, track, name, tenant, category: TraceCategory::Sim, arg: None }
    }

    /// Attaches the numeric argument.
    pub fn with_arg(mut self, arg: u64) -> Self {
        self.arg = Some(arg);
        self
    }

    /// Marks the event as engine mechanics (see [`TraceCategory::Engine`]).
    pub fn engine(mut self) -> Self {
        self.category = TraceCategory::Engine;
        self
    }

    /// The full-content sort key the canonical exporter orders by.
    fn sort_key(&self) -> (u64, u64, TraceCategory, &'static str, u64, u32, u64) {
        (
            self.cycle,
            self.track.tid(),
            self.category,
            self.name,
            self.dur,
            self.tenant.map_or(u32::MAX, |t| t),
            self.arg.map_or(u64::MAX, |a| a),
        )
    }
}

/// A sink for trace events. The engine crates hold `Option<TraceRecorder>`
/// fields — `None` (the `Off` / `Metrics` observability levels) costs one
/// branch per would-be event.
pub trait Tracer {
    /// Records one event.
    fn record(&mut self, ev: TraceEvent);

    /// Whether recording is active (lets callers skip building expensive
    /// events).
    fn enabled(&self) -> bool {
        true
    }
}

/// Default ring-buffer capacity of a [`TraceRecorder`] (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// A bounded ring-buffer event recorder: the newest `capacity` events are
/// kept, older ones are dropped (counted in [`TraceRecorder::dropped`]) so a
/// long run cannot exhaust memory.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder { events: Vec::new(), capacity: capacity.max(1), start: 0, dropped: 0 }
    }

    /// A recorder with [`DEFAULT_TRACE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the held events in recording order.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let start = std::mem::take(&mut self.start);
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(start);
        events
    }
}

impl Tracer for TraceRecorder {
    fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.start] = ev;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Exports events as canonical Chrome trace-event JSON.
///
/// * Events are **sorted by full content** (cycle, track, category, name,
///   duration, tenant, argument) — two runs recording the same multiset of
///   events produce byte-identical output whatever order the recorders saw
///   them in. This is what the cross-backend / cross-thread-count
///   determinism tests compare.
/// * [`TraceCategory::Engine`] events are excluded unless `include_engine`
///   is set (they are backend-specific by nature).
/// * One `thread_name` metadata record is emitted per present track, so
///   Perfetto shows named SM / bank / fabric / tenant tracks; `tenants`
///   supplies tenant display names.
/// * Cycles map 1:1 to the trace's microsecond timestamps (`ts`/`dur`).
pub fn chrome_trace_json(
    events: &[TraceEvent],
    tenants: &[String],
    include_engine: bool,
) -> String {
    let mut selected: Vec<&TraceEvent> =
        events.iter().filter(|e| include_engine || e.category == TraceCategory::Sim).collect();
    selected.sort_by_key(|e| e.sort_key());

    let mut tracks: Vec<Track> = selected.iter().map(|e| e.track).collect();
    tracks.sort_by_key(|t| t.tid());
    tracks.dedup();

    let mut out = String::with_capacity(64 + selected.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(line);
    };

    let mut line = String::new();
    line.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"ciao-sim\"}}",
    );
    emit(&mut out, &line);
    for track in &tracks {
        line.clear();
        line.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        line.push_str(&track.tid().to_string());
        line.push_str(",\"args\":{\"name\":");
        push_json_str(&mut line, &track.display_name(tenants));
        line.push_str("}}");
        emit(&mut out, &line);
    }

    for ev in &selected {
        line.clear();
        line.push_str("{\"name\":");
        push_json_str(&mut line, ev.name);
        line.push_str(",\"cat\":");
        push_json_str(
            &mut line,
            match ev.category {
                TraceCategory::Sim => "sim",
                TraceCategory::Engine => "engine",
            },
        );
        if ev.dur > 0 {
            line.push_str(",\"ph\":\"X\",\"ts\":");
            line.push_str(&ev.cycle.to_string());
            line.push_str(",\"dur\":");
            line.push_str(&ev.dur.to_string());
        } else {
            line.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            line.push_str(&ev.cycle.to_string());
        }
        line.push_str(",\"pid\":0,\"tid\":");
        line.push_str(&ev.track.tid().to_string());
        line.push_str(",\"args\":{");
        let mut first_arg = true;
        if let Some(t) = ev.tenant {
            line.push_str("\"tenant\":");
            line.push_str(&t.to_string());
            first_arg = false;
        }
        if let Some(a) = ev.arg {
            if !first_arg {
                line.push(',');
            }
            line.push_str("\"arg\":");
            line.push_str(&a.to_string());
        }
        line.push_str("}}");
        emit(&mut out, &line);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span(Track::Sm(1), "busy", 0, 40, Some(0)),
            TraceEvent::span(Track::Bank(0), "l2-miss", 12, 200, Some(1)).with_arg(0),
            TraceEvent::instant(Track::Dispatcher, "throttle", 512, Some(1)),
            TraceEvent::instant(Track::Tenant(1), "throttle", 512, Some(1)),
            TraceEvent::span(Track::FabricRequest, "req", 10, 3, Some(0)).with_arg(128),
            TraceEvent::instant(Track::Engine, "pop", 64, None).engine(),
        ]
    }

    /// Pins the exported trace-event JSON shape byte for byte (the
    /// observability analogue of the SimResult v2 schema pin): metadata
    /// first, canonical event order, span/instant phases, tenant/arg args.
    #[test]
    fn chrome_trace_json_shape_is_pinned() {
        let json = chrome_trace_json(
            &sample_events(),
            &[String::from("atax"), String::from("kmn")],
            false,
        );
        let expected = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ciao-sim\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1001,\"args\":{\"name\":\"SM 1\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2000,\"args\":{\"name\":\"L2 bank 0\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3000,\"args\":{\"name\":\"fabric request\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":4001,\"args\":{\"name\":\"tenant 1: kmn\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":4999,\"args\":{\"name\":\"dispatcher\"}},\n",
            "{\"name\":\"busy\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":0,\"dur\":40,\"pid\":0,\"tid\":1001,\"args\":{\"tenant\":0}},\n",
            "{\"name\":\"req\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":10,\"dur\":3,\"pid\":0,\"tid\":3000,\"args\":{\"tenant\":0,\"arg\":128}},\n",
            "{\"name\":\"l2-miss\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":12,\"dur\":200,\"pid\":0,\"tid\":2000,\"args\":{\"tenant\":1,\"arg\":0}},\n",
            "{\"name\":\"throttle\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":512,\"pid\":0,\"tid\":4001,\"args\":{\"tenant\":1}},\n",
            "{\"name\":\"throttle\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":512,\"pid\":0,\"tid\":4999,\"args\":{\"tenant\":1}}\n",
            "]}\n",
        );
        assert_eq!(json, expected);
    }

    /// The canonical export is order-independent: any permutation of the
    /// same events serialises to identical bytes.
    #[test]
    fn export_is_permutation_invariant() {
        let events = sample_events();
        let tenants = vec![String::from("a"), String::from("b")];
        let base = chrome_trace_json(&events, &tenants, true);
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(chrome_trace_json(&reversed, &tenants, true), base);
        let mut rotated = events;
        rotated.rotate_left(3);
        assert_eq!(chrome_trace_json(&rotated, &tenants, true), base);
    }

    #[test]
    fn engine_events_excluded_from_canonical_export() {
        let events = sample_events();
        let canonical = chrome_trace_json(&events, &[], false);
        let full = chrome_trace_json(&events, &[], true);
        assert!(!canonical.contains("\"pop\""));
        assert!(full.contains("\"pop\""));
        assert!(full.contains("\"cat\":\"engine\""));
    }

    /// The export parses as JSON (via the vendored parser) with the
    /// documented top-level shape.
    #[test]
    fn export_round_trips_through_a_json_parser() {
        let json = chrome_trace_json(&sample_events(), &[], true);
        let value: serde::Value = serde_json::from_str(&json).expect("trace JSON parses");
        let events = match value.get("traceEvents") {
            Some(serde::Value::Array(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        // 1 process_name + 6 thread_name (engine track included) + 6 events.
        assert_eq!(events.len(), 13);
        for ev in events {
            assert!(ev.get("name").is_some());
            assert!(ev.get("ph").is_some());
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
        }
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let mut rec = TraceRecorder::new(3);
        for i in 0..5u64 {
            rec.record(TraceEvent::instant(Track::Sm(0), "tick", i, None));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let cycles: Vec<u64> = rec.take().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert!(rec.is_empty());
    }

    #[test]
    fn track_tids_are_disjoint() {
        let tracks = [
            Track::Sm(0),
            Track::Sm(999),
            Track::Bank(0),
            Track::Bank(255),
            Track::FabricRequest,
            Track::FabricReply,
            Track::Tenant(0),
            Track::Tenant(998),
            Track::Dispatcher,
            Track::Engine,
        ];
        let mut tids: Vec<u64> = tracks.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), tracks.len());
    }
}
