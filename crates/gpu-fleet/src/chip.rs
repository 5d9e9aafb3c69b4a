//! The per-chip rate-server model of the fleet tier.
//!
//! A [`ChipModel`] stands in for one cycle-level chip (a [`gpu_sim`] run)
//! inside a fleet simulation. It is a discrete-event queueing server whose
//! constants come from real chip measurements ([`crate::calib`]): up to
//! [`MAX_RESIDENT`] jobs run concurrently, each draining at
//!
//! ```text
//! rate(job) = share(job) × solo_ipc(class) / max co-resident slowdown
//! ```
//!
//! where `share` divides the chip's SMs among residents (interactive jobs
//! weigh double, a throughput floor the chip tier's dispatcher does not
//! model), and the slowdown factor switches from the
//! unmanaged [`Calibration::shared_slowdown`] matrix to the contained
//! [`Calibration::aware_slowdown`] matrix once the on-chip dispatcher has
//! *classified* the pair — a delay of [`Calibration::classify_delay`]
//! cycles after admission, exactly the window the paper's dispatcher needs
//! to observe hit rates before acting.
//!
//! Cluster placement sees a chip through [`ChipModel::view`]: its load, and
//! the classes of the resident jobs the on-chip dispatcher has classified —
//! what a real chip's dispatcher publishes in its
//! [`gpu_sim::DispatchLog`]. The fleet polls views at epoch boundaries, so
//! placement reads them as of the last epoch.
//!
//! Determinism: all state is advanced by [`ChipModel::advance_to`] with a
//! fixed event order (completions by slot, then classifications by slot,
//! then arrivals) and fixed-order f64 arithmetic, so a chip's trajectory is
//! a pure function of the jobs pushed into it and the sequence of
//! `advance_to` targets. It is *not* independent of those targets in
//! general: a target that falls between two events splits the integration
//! step, and a completion's whole-cycle rounding can then land on a
//! different cycle. What the fleet relies on is narrower — skipping an
//! advance while [`ChipModel::next_event_time`] lies beyond the target
//! leaves both the trajectory and the published [`ChipView`] unchanged (see
//! the `sleep_skip_matches_advancing_every_epoch` test).
//!
//! Each chip keeps its per-slot drain rates and recomputes them only when
//! the resident set changes (an admission or a completion) or a resident
//! is classified; every other event — an epoch end, an arrival joining the
//! queue — reuses them.

use gpu_mem::{ceil_cycles, round_cycles};
use gpu_sim::TenantClass;
use std::collections::VecDeque;

use crate::calib::Calibration;
use crate::traffic::{ArrivalRecord, LatencyClass, WorkClass};

/// Maximum concurrently resident jobs per chip (the chip tier co-runs up to
/// four tenants; beyond that, arrivals queue).
pub const MAX_RESIDENT: usize = 4;

/// Queue-share weight per latency class: interactive jobs get a double
/// share of the chip while resident (throughput floor) and jump the
/// admission queue.
fn weight(latency: LatencyClass) -> f64 {
    match latency {
        LatencyClass::Interactive => 2.0,
        LatencyClass::Batch => 1.0,
    }
}

/// One job on (or queued for) a chip.
#[derive(Debug, Clone)]
struct Job {
    class: WorkClass,
    latency: LatencyClass,
    work: u64,
    arrival: u64,
    /// Solo service time rounded to whole cycles: the job's contribution
    /// to its class's pending backlog while it waits.
    solo: u64,
    /// Instructions still to execute.
    remaining: f64,
    /// Cycle at which the on-chip dispatcher classifies this job.
    classify_at: u64,
    classified: bool,
}

impl Job {
    fn from_arrival(a: &ArrivalRecord, solo: u64) -> Job {
        Job {
            class: a.class,
            latency: a.latency,
            work: a.work,
            arrival: a.cycle,
            solo,
            remaining: a.work as f64,
            classify_at: 0,
            classified: false,
        }
    }
}

/// One chip's completed jobs in completion order, kept as parallel columns
/// of what the fleet's reports read and nothing more: 18 B per job. The
/// reports read each ledger front to back, so their sums add the same terms
/// in the same order however the columns are laid out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletionLedger {
    /// Finish minus arrival cycle of each job.
    turnaround: Vec<u64>,
    /// Kernel size of each job in instructions.
    work: Vec<u64>,
    /// Tenant and latency class of each job.
    kind: Vec<(WorkClass, LatencyClass)>,
    /// Cycle of the last completion (0 before the first).
    last_finish: u64,
}

/// One job as read back from a [`CompletionLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Tenant class.
    pub class: WorkClass,
    /// Latency (SLO) class.
    pub latency: LatencyClass,
    /// Kernel size in instructions.
    pub work: u64,
    /// Finish minus arrival cycle.
    pub turnaround: u64,
}

impl CompletionLedger {
    /// Bytes the ledger keeps per completed job, summed over its columns.
    pub fn bytes_per_job() -> usize {
        fn column<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let ledger = CompletionLedger::default();
        column(&ledger.turnaround) + column(&ledger.work) + column(&ledger.kind)
    }

    /// Jobs completed.
    pub fn len(&self) -> usize {
        self.turnaround.len()
    }

    /// True before the first completion.
    pub fn is_empty(&self) -> bool {
        self.turnaround.is_empty()
    }

    /// Cycle of the last completion, 0 before the first.
    pub fn last_finish(&self) -> u64 {
        self.last_finish
    }

    /// The completed jobs in completion order.
    pub fn iter(&self) -> impl Iterator<Item = Completion> + '_ {
        self.kind.iter().zip(&self.work).zip(&self.turnaround).map(
            |((&(class, latency), &work), &turnaround)| Completion {
                class,
                latency,
                work,
                turnaround,
            },
        )
    }

    fn reserve(&mut self, jobs: usize) {
        self.turnaround.reserve_exact(jobs);
        self.work.reserve_exact(jobs);
        self.kind.reserve_exact(jobs);
    }

    fn push(&mut self, job: &Job, finish: u64) {
        self.turnaround.push(finish - job.arrival);
        self.work.push(job.work);
        self.kind.push((job.class, job.latency));
        self.last_finish = finish;
    }
}

/// Placement-visible snapshot of one chip: the classes its dispatcher has
/// published for its residents, and its queue state (load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipView {
    /// Chip index in the fleet.
    pub chip: usize,
    /// Currently resident jobs.
    pub resident: usize,
    /// Jobs queued or in flight to this chip (admission backlog).
    pub queued: usize,
    /// Resident jobs the on-chip dispatcher has classified as
    /// cache-sensitive.
    pub classified_cache: usize,
    /// Resident jobs the on-chip dispatcher has classified as streaming.
    pub classified_stream: usize,
    /// Backlog of not-yet-resident work in solo-equivalent cycles, by
    /// declared [`crate::traffic::WorkClass::index`] (the cluster placed
    /// these jobs, so it knows their declared class and size even though
    /// the chip has not classified them yet).
    pub pending_class_cycles: [u64; 3],
}

impl ChipView {
    /// Total pending backlog in solo-equivalent cycles, all classes.
    pub fn pending_cycles(&self) -> u64 {
        self.pending_class_cycles.iter().sum()
    }
}

/// End-of-run accounting for one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipAccounting {
    /// Cycles with at least one resident job, up to the chip's last event.
    pub busy_cycles: u64,
    /// Integral of resident count over time (slot-cycles).
    pub slot_cycles: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Classification verdicts issued, by class (cache, stream, compute).
    pub classified: [u64; 3],
    /// Peak admission-queue depth observed.
    pub peak_queue: usize,
}

/// One chip of the fleet: a calibrated rate server. Driven by
/// [`ChipModel::push`] (from fleet placement) and [`ChipModel::advance_to`]
/// (from the fleet epoch loop).
#[derive(Debug)]
pub struct ChipModel {
    id: usize,
    calib: Calibration,
    now: u64,
    /// Placed but not yet arrived jobs, in arrival order.
    inbox: VecDeque<Job>,
    /// Arrived jobs waiting for a resident slot, one FIFO lane per latency
    /// class: `[interactive, batch]`.
    lanes: [VecDeque<Job>; 2],
    /// Resident slots (tenant ids of the on-chip dispatcher).
    resident: [Option<Job>; MAX_RESIDENT],
    /// Drain rate of each resident slot, [`Self::rates`] as of the last
    /// admission, completion or classification.
    slot_rates: [f64; MAX_RESIDENT],
    /// Set when the resident set or a classification changed since
    /// `slot_rates` was computed.
    rates_stale: bool,
    /// Solo-equivalent cycles of the jobs in `inbox` + `lanes`, by declared
    /// [`WorkClass::index`].
    pending_cycles: [u64; 3],
    done: CompletionLedger,
    busy_cycles: u64,
    slot_cycles: u64,
    classified: [u64; 3],
    peak_queue: usize,
}

impl ChipModel {
    /// Creates chip `id` with the given calibration table.
    pub fn new(id: usize, calib: Calibration) -> ChipModel {
        ChipModel {
            id,
            calib,
            now: 0,
            inbox: VecDeque::new(),
            lanes: [VecDeque::new(), VecDeque::new()],
            resident: [None, None, None, None],
            slot_rates: [0.0; MAX_RESIDENT],
            rates_stale: false,
            pending_cycles: [0; 3],
            done: CompletionLedger::default(),
            busy_cycles: 0,
            slot_cycles: 0,
            classified: [0; 3],
            peak_queue: 0,
        }
    }

    /// Queues an arrival for this chip and returns its solo service time
    /// rounded to whole cycles — the amount added to its class's pending
    /// backlog in [`ChipView::pending_class_cycles`]. Must be called in
    /// non-decreasing arrival order (the fleet places the globally sorted
    /// stream).
    pub fn push(&mut self, arrival: &ArrivalRecord) -> u64 {
        debug_assert!(
            self.inbox.back().is_none_or(|j| j.arrival <= arrival.cycle),
            "arrivals must be pushed in order"
        );
        let solo = round_cycles(self.calib.solo_cycles(arrival.class, arrival.work));
        self.pending_cycles[arrival.class.index()] += solo;
        self.inbox.push_back(Job::from_arrival(arrival, solo));
        solo
    }

    /// Current sim time of this chip.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Arrived jobs waiting for a resident slot, both lanes.
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// True when no work is queued, resident, or in flight.
    pub fn idle(&self) -> bool {
        self.inbox.is_empty() && self.queued() == 0 && self.resident.iter().all(Option::is_none)
    }

    /// Conservative lower bound on the next cycle at which advancing this
    /// chip can change its state: `u64::MAX` when fully drained, the first
    /// in-flight arrival when nothing is resident or queued, [`Self::now`]
    /// otherwise. The fleet epoch loop skips advancing (and re-polling)
    /// chips whose hint lies beyond the epoch end — sound because a
    /// skipped chip's clock simply stays frozen and [`Self::advance_to`]
    /// fast-forwards over arrival gaps, so its trajectory is unchanged.
    pub fn next_event_time(&self) -> u64 {
        if self.resident.iter().any(Option::is_some) || self.queued() > 0 {
            self.now
        } else {
            self.inbox.front().map_or(u64::MAX, |j| j.arrival)
        }
    }

    /// Placement-visible snapshot. Classification counts are the published
    /// classes of the resident jobs — the placement tier sees exactly what
    /// the chip's dispatcher has classified, nothing more.
    pub fn view(&self) -> ChipView {
        let (mut cache, mut stream) = (0, 0);
        for slot in 0..MAX_RESIDENT {
            match self.slot_class(slot) {
                TenantClass::CacheSensitive => cache += 1,
                TenantClass::Streaming => stream += 1,
                TenantClass::Unclassified => {}
            }
        }
        ChipView {
            chip: self.id,
            resident: self.resident.iter().flatten().count(),
            queued: self.inbox.len() + self.queued(),
            classified_cache: cache,
            classified_stream: stream,
            pending_class_cycles: self.pending_cycles,
        }
    }

    /// End-of-run accounting.
    pub fn accounting(&self) -> ChipAccounting {
        ChipAccounting {
            busy_cycles: self.busy_cycles,
            slot_cycles: self.slot_cycles,
            completed: self.done.len() as u64,
            classified: self.classified,
            peak_queue: self.peak_queue,
        }
    }

    /// Reserves room for `jobs` completions up front, so the ledger never
    /// grows by reallocation while the chip runs. Reserved capacity that is
    /// never written costs address space, not resident memory.
    pub(crate) fn reserve_completions(&mut self, jobs: usize) {
        self.done.reserve(jobs);
    }

    /// The jobs this chip has completed, in completion order.
    pub fn ledger(&self) -> &CompletionLedger {
        &self.done
    }

    /// The published [`TenantClass`] of the job in `slot`: its true class
    /// once the dispatcher has classified it, `Unclassified` before.
    fn slot_class(&self, slot: usize) -> TenantClass {
        match &self.resident[slot] {
            Some(j) if j.classified => match j.class {
                WorkClass::Cache => TenantClass::CacheSensitive,
                WorkClass::Stream => TenantClass::Streaming,
                WorkClass::Compute => TenantClass::Unclassified,
            },
            _ => TenantClass::Unclassified,
        }
    }

    /// Per-slot chip share: weight(latency) / Σ weights over residents.
    fn shares(&self) -> [f64; MAX_RESIDENT] {
        let total: f64 = self.resident.iter().flatten().map(|j| weight(j.latency)).sum();
        let mut shares = [0.0; MAX_RESIDENT];
        if total <= 0.0 {
            return shares;
        }
        for (slot, job) in self.resident.iter().enumerate() {
            if let Some(j) = job {
                shares[slot] = weight(j.latency) / total;
            }
        }
        shares
    }

    /// Per-slot drain rate (instructions per cycle) under the current
    /// resident set: share × solo rate / worst co-resident slowdown. The
    /// contained (aware) matrix applies to a pair only once *both* jobs are
    /// classified.
    fn rates(&self) -> [f64; MAX_RESIDENT] {
        let shares = self.shares();
        let mut rates = [0.0; MAX_RESIDENT];
        for (slot, job) in self.resident.iter().enumerate() {
            let Some(j) = job else { continue };
            let mut slow = 1.0f64;
            for (other, o) in self.resident.iter().enumerate() {
                let Some(k) = o else { continue };
                if other == slot {
                    continue;
                }
                let aware = j.classified && k.classified;
                slow = slow.max(self.calib.slowdown(j.class, k.class, aware));
            }
            rates[slot] = shares[slot] * self.calib.solo_rate(j.class) / slow;
        }
        rates
    }

    /// Moves due inbox jobs to their latency lane and fills free resident
    /// slots (interactive lane first, each lane FIFO).
    fn admit_due(&mut self) {
        while self.inbox.front().is_some_and(|j| j.arrival <= self.now) {
            let job = self.inbox.pop_front().expect("front checked");
            let lane = match job.latency {
                LatencyClass::Interactive => 0,
                LatencyClass::Batch => 1,
            };
            self.lanes[lane].push_back(job);
        }
        self.peak_queue = self.peak_queue.max(self.queued());
        while let Some(slot) = self.resident.iter().position(Option::is_none) {
            let Some(mut job) = self.lanes.iter_mut().find_map(VecDeque::pop_front) else { break };
            self.pending_cycles[job.class.index()] =
                self.pending_cycles[job.class.index()].saturating_sub(job.solo);
            job.classify_at = self.now + self.calib.classify_delay;
            self.resident[slot] = Some(job);
            self.rates_stale = true;
        }
    }

    /// Advances the chip to `t_end` (fleet time), processing admissions,
    /// classifications, and completions in deterministic order. With
    /// `t_end == u64::MAX` the chip runs until it drains; its clock stops
    /// at the last event.
    pub fn advance_to(&mut self, t_end: u64) {
        loop {
            self.admit_due();
            let occupied = self.resident.iter().flatten().count();
            if occupied == 0 {
                // Nothing resident: jump to the next arrival or stop.
                match self.inbox.front() {
                    Some(j) if j.arrival <= t_end => {
                        self.now = j.arrival;
                        continue;
                    }
                    _ => {
                        if t_end != u64::MAX {
                            self.now = self.now.max(t_end);
                        }
                        return;
                    }
                }
            }

            if self.rates_stale {
                self.slot_rates = self.rates();
                self.rates_stale = false;
            }
            debug_assert_eq!(self.slot_rates, self.rates(), "cached drain rates went stale");
            let rates = self.slot_rates;

            // Next event: earliest completion / classification / arrival,
            // capped at the epoch end.
            let mut t_next = t_end;
            for (slot, job) in self.resident.iter().enumerate() {
                let Some(j) = job else { continue };
                if rates[slot] > 0.0 {
                    let dt = ceil_cycles(j.remaining / rates[slot]).max(1);
                    t_next = t_next.min(self.now.saturating_add(dt));
                }
                if !j.classified {
                    t_next = t_next.min(j.classify_at);
                }
            }
            if let Some(j) = self.inbox.front() {
                if j.arrival > self.now {
                    t_next = t_next.min(j.arrival);
                }
            }
            let dt = t_next.saturating_sub(self.now);

            // Integrate work over [now, t_next) at the current rates.
            if dt > 0 {
                for (slot, job) in self.resident.iter_mut().enumerate() {
                    if let Some(j) = job {
                        j.remaining -= rates[slot] * dt as f64;
                    }
                }
                self.busy_cycles += dt;
                self.slot_cycles += occupied as u64 * dt;
                self.now = t_next;
            }

            // Completions first (slot order), then classifications.
            for slot in 0..MAX_RESIDENT {
                let complete = self.resident[slot].as_ref().is_some_and(|j| j.remaining <= 1e-6);
                if complete {
                    let j = self.resident[slot].take().expect("checked occupied");
                    self.done.push(&j, self.now);
                    self.rates_stale = true;
                }
            }
            for slot in 0..MAX_RESIDENT {
                if let Some(j) = &mut self.resident[slot] {
                    if !j.classified && j.classify_at <= self.now {
                        j.classified = true;
                        self.classified[j.class.index()] += 1;
                        self.rates_stale = true;
                    }
                }
            }

            if self.now >= t_end {
                return;
            }
            if t_end == u64::MAX && self.idle() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficSpec;

    fn arrival(cycle: u64, class: WorkClass, latency: LatencyClass, work: u64) -> ArrivalRecord {
        ArrivalRecord { cycle, work, class, latency }
    }

    /// Pushes `jobs` and runs the chip until it drains.
    fn drain(calib: Calibration, jobs: &[ArrivalRecord]) -> ChipModel {
        let mut chip = ChipModel::new(0, calib);
        for job in jobs {
            chip.push(job);
        }
        chip.advance_to(u64::MAX);
        chip
    }

    /// Each completion as (index of its job in `jobs`, finish cycle), in
    /// completion order. The tests give their jobs distinct sizes, so a
    /// completion's size names its job.
    fn finishes(chip: &ChipModel, jobs: &[ArrivalRecord]) -> Vec<(usize, u64)> {
        chip.ledger()
            .iter()
            .map(|c| {
                let mut named = jobs.iter().enumerate().filter(|(_, j)| j.work == c.work);
                let (idx, job) = named.next().expect("a completion of a pushed job");
                assert!(named.next().is_none(), "job sizes must be distinct");
                assert_eq!((job.class, job.latency), (c.class, c.latency));
                (idx, job.cycle + c.turnaround)
            })
            .collect()
    }

    #[test]
    fn solo_job_finishes_at_solo_time() {
        let calib = Calibration::reference(8);
        let chip =
            drain(calib.clone(), &[arrival(100, WorkClass::Compute, LatencyClass::Batch, 48_000)]);
        let done: Vec<Completion> = chip.ledger().iter().collect();
        assert_eq!(done.len(), 1);
        let expect = calib.solo_cycles(WorkClass::Compute, 48_000).ceil() as u64;
        let got = done[0].turnaround;
        assert!(
            got.abs_diff(expect) <= 2,
            "solo turnaround {got} should be ~{expect} (solo rate, full share)"
        );
        assert_eq!(
            chip.ledger().last_finish(),
            100 + got,
            "the finish cycle is arrival + turnaround"
        );
    }

    #[test]
    fn co_residents_slow_each_other_down() {
        let calib = Calibration::reference(8);
        let cache = arrival(0, WorkClass::Cache, LatencyClass::Batch, 100_000);
        let stream = arrival(0, WorkClass::Stream, LatencyClass::Batch, 100_001);
        let solo = drain(calib.clone(), &[cache]).ledger().last_finish();
        let jobs = [cache, stream];
        let chip = drain(calib, &jobs);
        let cache_fin = finishes(&chip, &jobs).iter().find(|&&(idx, _)| idx == 0).unwrap().1;
        assert!(
            cache_fin > solo * 2,
            "shared cache job ({cache_fin}) must run slower than half-share solo ({})",
            solo * 2
        );
    }

    #[test]
    fn classification_switches_to_the_contained_regime() {
        let mut fast = Calibration::reference(8);
        fast.classify_delay = 10;
        let mut slow_calib = Calibration::reference(8);
        slow_calib.classify_delay = u64::MAX / 2; // effectively never classifies
        let jobs = [
            arrival(0, WorkClass::Cache, LatencyClass::Batch, 200_000),
            arrival(0, WorkClass::Stream, LatencyClass::Batch, 200_001),
        ];
        let run = |calib: Calibration| {
            let chip = drain(calib, &jobs);
            finishes(&chip, &jobs).iter().find(|&&(idx, _)| idx == 0).unwrap().1
        };
        assert!(
            run(fast) < run(slow_calib),
            "early classification (aware matrix) must speed the cache victim up"
        );
    }

    #[test]
    fn interactive_jobs_jump_the_queue_and_get_a_double_share() {
        // Fill all four slots, then queue one batch and one interactive job.
        let mut jobs: Vec<ArrivalRecord> = (0..4)
            .map(|i| arrival(0, WorkClass::Compute, LatencyClass::Batch, 50_000 + i))
            .collect();
        jobs.push(arrival(10, WorkClass::Compute, LatencyClass::Batch, 50_004));
        jobs.push(arrival(20, WorkClass::Compute, LatencyClass::Interactive, 50_005));
        let chip = drain(Calibration::reference(8), &jobs);
        let done = finishes(&chip, &jobs);
        let finish = |idx: usize| done.iter().find(|&&(i, _)| i == idx).unwrap().1;
        assert!(
            finish(5) < finish(4),
            "the later interactive job must be admitted first and finish earlier"
        );
    }

    #[test]
    fn queued_interactive_jobs_are_admitted_first_in_arrival_order() {
        // One short and three long residents: once the short job leaves,
        // a single slot serves the queue, so finish order is admission order.
        let mut jobs = vec![arrival(0, WorkClass::Compute, LatencyClass::Batch, 50_000)];
        for id in 1..4 {
            jobs.push(arrival(0, WorkClass::Compute, LatencyClass::Batch, 10_000_000 + id));
        }
        for id in 4..12 {
            let latency = if id % 2 == 0 { LatencyClass::Batch } else { LatencyClass::Interactive };
            jobs.push(arrival(id, WorkClass::Compute, latency, 1_000 + id));
        }
        let chip = drain(Calibration::reference(8), &jobs);
        let order: Vec<usize> =
            finishes(&chip, &jobs).iter().map(|&(idx, _)| idx).filter(|&idx| idx >= 4).collect();
        assert_eq!(order, [5, 7, 9, 11, 4, 6, 8, 10], "interactive lane first, each in FIFO order");
        assert_eq!(chip.accounting().peak_queue, 8, "peak queue counts both latency classes");
    }

    #[test]
    fn view_reads_classifications_of_the_resident_jobs() {
        let mut calib = Calibration::reference(8);
        calib.classify_delay = 100;
        let mut chip = ChipModel::new(0, calib);
        chip.push(&arrival(0, WorkClass::Cache, LatencyClass::Batch, 1_000_000));
        chip.push(&arrival(0, WorkClass::Stream, LatencyClass::Batch, 1_000_000));
        chip.advance_to(50);
        let early = chip.view();
        assert_eq!((early.classified_cache, early.classified_stream), (0, 0));
        assert_eq!(early.resident, 2);
        chip.advance_to(500);
        let later = chip.view();
        assert_eq!(
            (later.classified_cache, later.classified_stream),
            (1, 1),
            "after the classify delay the view must count both classes"
        );
        chip.advance_to(u64::MAX);
        let drained = chip.view();
        assert_eq!(
            (drained.classified_cache, drained.classified_stream),
            (0, 0),
            "completed jobs leave the class counts"
        );
        assert_eq!(chip.ledger().len(), 2);
    }

    #[test]
    fn next_event_time_tracks_the_chip_lifecycle() {
        let calib = Calibration::reference(8);
        let mut chip = ChipModel::new(0, calib);
        assert_eq!(chip.next_event_time(), u64::MAX, "a fresh chip sleeps forever");
        chip.push(&arrival(5_000, WorkClass::Compute, LatencyClass::Batch, 10_000));
        assert_eq!(chip.next_event_time(), 5_000, "in-flight arrival bounds the next event");
        chip.advance_to(6_000);
        assert_eq!(chip.next_event_time(), chip.now(), "resident work is due immediately");
        chip.advance_to(u64::MAX);
        assert_eq!(chip.next_event_time(), u64::MAX, "drained chips sleep forever again");
        assert_eq!(chip.ledger().len(), 1);
    }

    #[test]
    fn skipping_an_idle_chip_is_trajectory_invariant() {
        // Advancing an idle chip epoch-by-epoch and leaving it asleep until
        // its next arrival must produce bit-identical completions.
        let calib = Calibration::reference(8);
        let mut stepped = ChipModel::new(0, calib.clone());
        let mut slept = ChipModel::new(0, calib);
        let late = arrival(100_000, WorkClass::Cache, LatencyClass::Batch, 40_000);
        stepped.push(&late);
        slept.push(&late);
        let mut t = 0;
        while t < 200_000 {
            t += 1_000;
            stepped.advance_to(t);
            if slept.next_event_time() <= t {
                slept.advance_to(t);
            }
        }
        stepped.advance_to(u64::MAX);
        slept.advance_to(u64::MAX);
        assert_eq!(stepped.ledger().len(), 1);
        assert_eq!(stepped.ledger(), slept.ledger());
    }

    #[test]
    fn sleep_skip_matches_advancing_every_epoch() {
        // The fleet's sleep skip against a reference that advances at every
        // epoch end. Both receive each epoch's arrivals before the epoch is
        // run, as fleet placement pushes them. At every epoch end the two
        // must publish the same view (the fleet does not re-poll a skipped
        // chip), and at the end they must have completed the same jobs on
        // the same cycles. The sparse load leaves the chip asleep between
        // busy stretches.
        let calib = Calibration::reference(8);
        let arrivals: Vec<ArrivalRecord> = TrafficSpec::new(500, 3)
            .with_mean_interarrival(40_000.0)
            .stream()
            .map(ArrivalRecord::from)
            .collect();
        let mut every = ChipModel::new(0, calib.clone());
        let mut skipping = ChipModel::new(0, calib);
        let (mut next, mut t, mut skipped) = (0, 0, 0);
        while next < arrivals.len() {
            t += 1_000;
            while next < arrivals.len() && arrivals[next].cycle < t {
                every.push(&arrivals[next]);
                skipping.push(&arrivals[next]);
                next += 1;
            }
            every.advance_to(t);
            if skipping.next_event_time() <= t {
                skipping.advance_to(t);
            } else {
                skipped += 1;
            }
            assert_eq!(every.view(), skipping.view(), "views diverged at cycle {t}");
        }
        every.advance_to(u64::MAX);
        skipping.advance_to(u64::MAX);
        assert!(skipped > 0, "the sparse stream must leave the chip asleep for some epochs");
        assert_eq!(every.ledger().len(), arrivals.len());
        assert_eq!(every.ledger(), skipping.ledger(), "sleep skipping must not move a completion");
    }

    #[test]
    fn thousand_cycle_steps_leave_this_stream_unchanged() {
        // On this one 500-job stream, advancing in 1,000-cycle steps lands
        // every job on the finish cycle of one big advance. That is not
        // true of every stream: a step that falls between two events splits
        // the integration step, and whole-cycle rounding can then move a
        // completion (`TrafficSpec::new(2_000, 3)` at a 3,000-cycle mean gap
        // moves 255 of its 2,000 finish cycles). So this pins only that this
        // stream's splits stay below one cycle; the sleep skip the fleet
        // relies on is checked by `sleep_skip_matches_advancing_every_epoch`.
        let calib = Calibration::reference(8);
        let spec = TrafficSpec::new(500, 17).with_mean_interarrival(150.0);
        let mut a = ChipModel::new(0, calib.clone());
        let mut b = ChipModel::new(0, calib);
        for x in spec.stream().map(ArrivalRecord::from) {
            a.push(&x);
            b.push(&x);
        }
        a.advance_to(u64::MAX);
        let mut t = 0;
        while !b.idle() {
            t += 1_000;
            b.advance_to(t);
        }
        assert_eq!(a.ledger(), b.ledger(), "epoch-split advancement must be bit-identical");
    }

    #[test]
    fn sustained_load_completes_every_job() {
        let mut calib = Calibration::reference(8);
        calib.classify_delay = 1;
        let mut chip = ChipModel::new(0, calib);
        let arrivals =
            TrafficSpec::new(3_000, 5).with_mean_interarrival(50.0).with_work_range(1_000, 2_000);
        for x in arrivals.stream().map(ArrivalRecord::from) {
            chip.push(&x);
        }
        chip.advance_to(u64::MAX);
        assert_eq!(chip.accounting().completed, 3_000);
        assert_eq!(chip.ledger().len(), 3_000);
    }

    #[test]
    fn ledger_reads_back_what_was_pushed_in_completion_order() {
        let jobs: Vec<ArrivalRecord> = (0..6)
            .map(|i| {
                let class = WorkClass::ALL[i % 3];
                let latency =
                    if i % 2 == 0 { LatencyClass::Batch } else { LatencyClass::Interactive };
                arrival(100 * i as u64, class, latency, 20_000 + 7_000 * i as u64)
            })
            .collect();
        let chip = drain(Calibration::reference(8), &jobs);
        let done = finishes(&chip, &jobs);
        assert_eq!(done.len(), jobs.len());
        assert!(done.windows(2).all(|w| w[0].1 <= w[1].1), "completion order: {done:?}");
        assert_eq!(chip.ledger().last_finish(), done.last().unwrap().1);
        assert!(CompletionLedger::bytes_per_job() <= 18);
    }
}
