//! Per-layer probes for the traced run.
//!
//! The simulator API accepts trait objects at three layer boundaries: the
//! warp scheduler (`Box<dyn WarpScheduler>`), CIAO's redirect cache
//! (`Box<dyn RedirectCache>`) and the workload generator (`Arc<dyn Kernel>`,
//! whose `warp_program` hands out `Box<dyn WarpProgram>`s). The wrappers here
//! forward *every* trait method — provided ones included — to the wrapped
//! object and time the calls into it from outside. Each wrapper counts into
//! a private [`LayerTotals`] and folds it into a shared [`Sink`] when it is
//! dropped, so the hot path never takes a lock.
//!
//! Forwarding is what the traced run's `sim_digest` check proves: a wrapper
//! that fell back to a provided method instead of forwarding it would change
//! the simulation, and the traced digest would no longer match the untraced
//! one.
//!
//! [`Spans`] records coarse spans (pass, setup, one per `execute` call) with
//! their parent and simulation index; they stay in memory and are written
//! out when the benchmark ends.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpu_mem::cache::EvictedLine;
use gpu_sim::redirect::{RedirectCache, RedirectLookup};
use gpu_sim::scheduler::{CacheEvent, MemRoute, SchedulerCtx, SchedulerMetrics, WarpScheduler};
use gpu_sim::{Addr, CtaId, Cycle, Kernel, KernelInfo, SmUnit, WarpId, WarpOp, WarpProgram};

/// Counts and host times collected by the wrappers of one or more calls.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// `WarpScheduler::pick` calls.
    pub pick_calls: u64,
    /// Of those, the calls that returned `None` (the SM idled).
    pub pick_none: u64,
    /// Host time inside `pick`.
    pub pick_time: Duration,
    /// Host time inside the scheduler's other `&mut self` callbacks.
    pub hook_time: Duration,
    /// Cycles credited through `on_idle_cycles` (closed-form idle replay).
    pub idle_replay_cycles: u64,
    /// `RedirectCache::lookup` calls.
    pub redirect_lookups: u64,
    /// Of those, the lookups that hit.
    pub redirect_hits: u64,
    /// Host time inside `lookup` and `fill`.
    pub redirect_time: Duration,
    /// Host time inside `Kernel::warp_program` (building warp programs).
    pub build_time: Duration,
    /// `WarpProgram::next_op` calls.
    pub next_op_calls: u64,
    /// Host time inside `next_op`.
    pub next_op_time: Duration,
}

impl LayerTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTotals) {
        self.pick_calls += other.pick_calls;
        self.pick_none += other.pick_none;
        self.pick_time += other.pick_time;
        self.hook_time += other.hook_time;
        self.idle_replay_cycles += other.idle_replay_cycles;
        self.redirect_lookups += other.redirect_lookups;
        self.redirect_hits += other.redirect_hits;
        self.redirect_time += other.redirect_time;
        self.build_time += other.build_time;
        self.next_op_calls += other.next_op_calls;
        self.next_op_time += other.next_op_time;
    }

    /// Host time spent inside wrapped layers (the engine's children).
    pub fn wrapped_time(&self) -> Duration {
        self.pick_time + self.hook_time + self.redirect_time + self.build_time + self.next_op_time
    }
}

/// Where the wrappers of one `execute` call deposit their totals.
pub type Sink = Arc<Mutex<LayerTotals>>;

/// A fresh, empty sink.
pub fn sink() -> Sink {
    Arc::new(Mutex::new(LayerTotals::default()))
}

/// Reads a sink's totals.
pub fn totals(sink: &Sink) -> LayerTotals {
    sink.lock().expect("no wrapper panics while holding the sink").clone()
}

fn flush(sink: &Sink, local: &LayerTotals) {
    // Runs in `Drop`: ignore a poisoned lock rather than panic.
    if let Ok(mut shared) = sink.lock() {
        shared.add(local);
    }
}

/// Wraps an SM's scheduler and redirect cache.
pub fn wrap_unit((scheduler, redirect): SmUnit, sink: &Sink) -> SmUnit {
    let scheduler: Box<dyn WarpScheduler> = Box::new(TimedScheduler {
        inner: scheduler,
        local: LayerTotals::default(),
        sink: Arc::clone(sink),
    });
    let redirect = redirect.map(|inner| {
        Box::new(TimedRedirect { inner, local: LayerTotals::default(), sink: Arc::clone(sink) })
            as Box<dyn RedirectCache>
    });
    (scheduler, redirect)
}

/// Wraps a kernel so every warp program it builds is timed.
pub fn wrap_kernel(inner: Arc<dyn Kernel>, sink: &Sink) -> Arc<dyn Kernel> {
    Arc::new(TimedKernel { inner, sink: Arc::clone(sink) })
}

/// Pass-through [`WarpScheduler`] that times `pick` and the `&mut self`
/// callbacks. The `&self` queries are forwarded untimed: they are field
/// reads, cheaper than the clock.
struct TimedScheduler {
    inner: Box<dyn WarpScheduler>,
    local: LayerTotals,
    sink: Sink,
}

impl TimedScheduler {
    fn hook<T>(&mut self, f: impl FnOnce(&mut dyn WarpScheduler) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.local.hook_time += start.elapsed();
        out
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        flush(&self.sink, &self.local);
    }
}

impl WarpScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        let start = Instant::now();
        let picked = self.inner.pick(ctx);
        self.local.pick_time += start.elapsed();
        self.local.pick_calls += 1;
        self.local.pick_none += u64::from(picked.is_none());
        picked
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, skipped: u64) {
        self.local.idle_replay_cycles += skipped;
        self.hook(|s| s.on_idle_cycles(ctx, skipped));
    }

    fn on_issue(&mut self, wid: WarpId, is_mem: bool, now: Cycle) {
        self.hook(|s| s.on_issue(wid, is_mem, now));
    }

    fn on_cache_event(&mut self, ev: &CacheEvent) {
        self.hook(|s| s.on_cache_event(ev));
    }

    fn on_warp_launched(&mut self, wid: WarpId, now: Cycle) {
        self.hook(|s| s.on_warp_launched(wid, now));
    }

    fn on_warp_finished(&mut self, wid: WarpId, now: Cycle) {
        self.hook(|s| s.on_warp_finished(wid, now));
    }

    fn route(&mut self, wid: WarpId) -> MemRoute {
        self.hook(|s| s.route(wid))
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.inner.is_throttled(wid)
    }

    fn throttles_loads_only(&self) -> bool {
        self.inner.throttles_loads_only()
    }

    fn metrics(&self) -> SchedulerMetrics {
        self.inner.metrics()
    }
}

/// Pass-through [`RedirectCache`] that times and counts lookups and fills.
struct TimedRedirect {
    inner: Box<dyn RedirectCache>,
    local: LayerTotals,
    sink: Sink,
}

impl Drop for TimedRedirect {
    fn drop(&mut self) {
        flush(&self.sink, &self.local);
    }
}

impl RedirectCache for TimedRedirect {
    fn lookup(&mut self, block_addr: Addr, wid: WarpId, is_write: bool) -> RedirectLookup {
        let start = Instant::now();
        let out = self.inner.lookup(block_addr, wid, is_write);
        self.local.redirect_time += start.elapsed();
        self.local.redirect_lookups += 1;
        self.local.redirect_hits += u64::from(matches!(out, RedirectLookup::Hit { .. }));
        out
    }

    fn fill(&mut self, block_addr: Addr, wid: WarpId) -> Option<EvictedLine> {
        let start = Instant::now();
        let out = self.inner.fill(block_addr, wid);
        self.local.redirect_time += start.elapsed();
        out
    }

    fn utilization(&self) -> f64 {
        self.inner.utilization()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn invalidate_all(&mut self) {
        self.inner.invalidate_all();
    }

    fn set_capacity(&mut self, unused_bytes: u64) {
        self.inner.set_capacity(unused_bytes);
    }
}

/// Pass-through [`Kernel`] whose warp programs are timed.
struct TimedKernel {
    inner: Arc<dyn Kernel>,
    sink: Sink,
}

impl Kernel for TimedKernel {
    fn info(&self) -> KernelInfo {
        self.inner.info()
    }

    fn warp_program(&self, cta: CtaId, warp_in_cta: usize) -> Box<dyn WarpProgram> {
        let start = Instant::now();
        let inner = self.inner.warp_program(cta, warp_in_cta);
        let local = LayerTotals { build_time: start.elapsed(), ..LayerTotals::default() };
        Box::new(TimedProgram { inner, local, sink: Arc::clone(&self.sink) })
    }
}

/// Pass-through [`WarpProgram`] that times and counts `next_op`.
struct TimedProgram {
    inner: Box<dyn WarpProgram>,
    local: LayerTotals,
    sink: Sink,
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        flush(&self.sink, &self.local);
    }
}

impl WarpProgram for TimedProgram {
    fn next_op(&mut self) -> Option<WarpOp> {
        let start = Instant::now();
        let op = self.inner.next_op();
        self.local.next_op_time += start.elapsed();
        self.local.next_op_calls += 1;
        op
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// One recorded span: a named interval with the span that caused it and,
/// for `execute` spans, the index of the simulation within its pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the interval covers (`pass`, `setup`, `execute`, ...).
    pub name: String,
    /// Start, in seconds since the benchmark started.
    pub start_s: f64,
    /// End, in seconds since the benchmark started.
    pub end_s: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Index of the simulation (execute call) within its pass, if any.
    pub sim: Option<usize>,
}

/// In-memory span recorder, shared across worker threads.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        sim: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let mut spans = self.spans.lock().expect("span recorder lock is never poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_s: at(start),
            end_s: at(end),
            parent,
            sim,
        });
        spans.len() - 1
    }

    /// Opens a span that [`Spans::close`] ends; returns its index.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends the span `id` now.
    pub fn close(&self, id: usize) {
        let end = Instant::now().saturating_duration_since(self.origin).as_secs_f64();
        self.spans.lock().expect("span recorder lock is never poisoned")[id].end_s = end;
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder lock is never poisoned").clone()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// Self time of span `id`: its duration minus the part of it that the union
/// of its children's intervals covers (children may overlap when they ran on
/// parallel workers).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let mut children: Vec<(f64, f64)> =
        spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start_s, s.end_s)).collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    let span = &spans[id];
    (span.end_s - span.start_s - covered).max(0.0)
}

/// Spans as JSON lines, with each span's self time.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":{:?},\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{},\"sim\":{}}}\n",
            s.name,
            s.start_s,
            s.end_s,
            self_time(spans, id),
            opt(s.parent),
            opt(s.sim),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span { name: "s".into(), start_s, end_s, parent, sim: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 4.0, Some(0)),
            span(3.0, 6.0, Some(0)), // overlaps the first child by 1 s
            span(8.0, 9.0, Some(0)),
            span(2.0, 3.0, Some(1)), // grandchild: not the root's child
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.0).abs() < 1e-12, "a leaf's self time is its duration");
    }

    #[test]
    fn spans_render_one_json_line_each() {
        let rec = Spans::new();
        let root = rec.open("pass", None);
        let now = Instant::now();
        rec.record("execute", now, now, Some(root), Some(3));
        rec.close(root);
        let text = spans_json(&rec.snapshot());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"execute\"") && text.contains("\"sim\":3"));
        assert!(text.contains("\"parent\":0"));
    }
}
