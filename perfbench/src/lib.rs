//! Host-time benchmark of the TCNI simulator.
//!
//! Four workloads run in-process through the public library API of the
//! repository's crates. Each returns an [`Outcome`]: every metric it
//! measured, the correctness checks it ran, and a digest of the simulated
//! counters. End-to-end metrics come from untraced repetitions; per-layer
//! metrics come from traced repetitions, which time the calls this crate
//! makes into each layer from the outside (the simulator itself is not
//! instrumented and runs with its default settings).
//!
//! See `README.md` beside this crate for the workloads, the layer → metric
//! → workload map, and the first baseline.

pub mod coll;
pub mod mesh;
pub mod paper;

use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with their units. A workload that does not
/// exercise a layer reports `0` for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.driver_s", "s"),
    ("workload.driver_share", "ratio"),
    ("workload.offered", "count"),
    ("workload.shed", "count"),
    ("workload.issued", "count"),
    ("workload.consumed", "count"),
    ("workload.completed", "count"),
    ("sim.machine_s", "s"),
    ("sim.ns_per_node_cycle", "ns"),
    ("sim.residency_mean", "count"),
    ("net.delivered", "count"),
    ("net.lat_mean", "cycles"),
    ("net.lat_p50", "cycles"),
    ("net.lat_p99", "cycles"),
    ("net.scanned_channels", "count"),
    ("net.scan_ratio", "ratio"),
    ("delivery.accepted", "count"),
    ("delivery.retransmits", "count"),
    ("delivery.delivered_unique", "count"),
    ("delivery.abandoned", "count"),
    ("delivery.acks_coalesced", "count"),
    ("delivery.peak_flows", "count"),
    ("delivery.flow_probes", "count"),
    ("delivery.goodput_ratio", "ratio"),
    ("coll.nic_s", "s"),
    ("coll.soft_s", "s"),
    ("coll.nic_rounds_per_s", "1/s"),
    ("coll.soft_rounds_per_s", "1/s"),
    ("coll.lat_mean", "cycles"),
    ("coll.combined", "count"),
    ("coll.fabric_delivered", "count"),
    ("eval.table1_s", "s"),
    ("eval.sweeps_s", "s"),
    ("tam.matmul_s", "s"),
    ("tam.gamteb_s", "s"),
    ("eval.figure12_s", "s"),
    ("util.threads", "count"),
    ("util.nproc", "count"),
    ("error_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sparse64_e2e", "dense16_closed", "coll16_storm", "paper"];

/// Host seconds one [`SetupProbe`] sample lasts at least.
pub const SETUP_BATCH_S: f64 = 0.002;

/// How one run is parameterized.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny sizes for the benchmark's own smoke test.
    pub smoke: bool,
}

/// One correctness check: operations attempted and failed.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name, printed as is.
    pub name: &'static str,
    /// Operations the check covered.
    pub attempted: u64,
    /// Operations that failed it.
    pub failed: u64,
    /// Whether a failure means the program's output is wrong (as opposed to
    /// an operation the program reported as failed, such as a shed offer).
    pub hard: bool,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)` of every metric measured; units come from
    /// [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness checks, in the order run.
    pub checks: Vec<Check>,
    /// Digest of the simulated counters (identical in every repetition).
    pub digest: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records `setup_s`, the median of the set-up `samples`.
    pub fn setup(&mut self, samples: &[f64]) {
        self.metric("setup_s", median(samples));
        self.notes.push(format!(
            "setup_s: median of {} samples, min {:.6} s, max {:.6} s",
            samples.len(),
            percentile(samples, 0.0),
            percentile(samples, 100.0)
        ));
    }

    /// Records a check.
    pub fn check(&mut self, name: &'static str, attempted: u64, failed: u64, hard: bool) {
        self.checks.push(Check {
            name,
            attempted,
            failed,
            hard,
        });
    }

    /// Operations attempted and failed over the hard checks: the result's
    /// `attempted` and `failed`. Operations the program itself reports as
    /// failed (soft checks) count only toward `error_ratio`.
    pub fn totals(&self) -> (u64, u64) {
        self.sum(|c| c.hard)
    }

    fn sum(&self, keep: impl Fn(&Check) -> bool) -> (u64, u64) {
        self.checks
            .iter()
            .filter(|c| keep(c))
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    /// Whether every hard check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| !c.hard || c.failed == 0)
    }

    /// Records the checks and metrics every workload shares: digest
    /// repetition, span coverage of the traced window, the error ratio,
    /// the worker count, and the process's peak RSS.
    pub fn finish(&mut self, digests: &[u64], coverage: &[f64]) {
        self.digest = digests[0];
        let mismatched = digests.iter().filter(|&&d| d != digests[0]).count();
        self.check(
            "digest.repeat",
            digests.len() as u64,
            mismatched as u64,
            true,
        );
        if !coverage.is_empty() {
            let low = coverage.iter().filter(|&&c| c < MIN_COVERAGE).count();
            self.check("trace.coverage", coverage.len() as u64, low as u64, true);
            self.notes.push(format!(
                "trace.coverage: spans cover {:.4} of the traced window (median of {})",
                median(coverage),
                coverage.len()
            ));
        }
        let (attempted, failed) = self.sum(|_| true);
        self.metric("error_ratio", ratio(failed as f64, attempted as f64));
        // The worker count the simulator resolves by default; the
        // benchmark never sets one.
        self.metric("util.threads", tcni_util::par::threads() as f64);
        self.metric("util.nproc", nproc() as f64);
        self.metric("peak_rss_mb", peak_rss_mb());
    }
}

/// Share of a traced window the layer spans must account for.
pub const MIN_COVERAGE: f64 = 0.9;

/// Host-time samples of fixed-size chunks of work.
#[derive(Debug, Default)]
pub struct Chunks {
    ms: Vec<f64>,
}

impl Chunks {
    /// Records one chunk given in seconds.
    pub fn push_s(&mut self, secs: f64) {
        self.ms.push(secs * 1e3);
    }

    /// Chunks of repetitions that simulate identical work: chunk `i` of
    /// every repetition runs the same simulated cycles. Each position is
    /// recorded once, as the median of its host times over the
    /// repetitions, so a host stall that hits one repetition drops out and
    /// the tail is that of the simulated work.
    pub fn by_position(reps: &[&[Duration]]) -> Chunks {
        let positions = reps.iter().map(|r| r.len()).min().unwrap_or(0);
        let mut chunks = Chunks::default();
        for i in 0..positions {
            chunks.push_s(median(
                &reps.iter().map(|r| r[i].as_secs_f64()).collect::<Vec<_>>(),
            ));
        }
        chunks
    }

    /// Records `chunk_ms_p50` and `chunk_ms_tail`. The tail is the highest
    /// percentile with at least ten chunks beyond it in `guaranteed` chunks,
    /// the count every run of the workload reaches whatever the host speed,
    /// so the same percentile is reported on every run. `what` describes
    /// one chunk.
    pub fn report(&self, out: &mut Outcome, guaranteed: usize, what: &str) {
        let pct = tail_percentile(guaranteed);
        let beyond = self.ms.len() - (pct / 100.0 * self.ms.len() as f64).ceil() as usize;
        out.metric("chunk_ms_p50", percentile(&self.ms, 50.0));
        out.metric("chunk_ms_tail", percentile(&self.ms, pct));
        out.notes.push(format!(
            "chunk_ms_tail is p{pct} over {} chunks of {what} ({beyond} beyond it)",
            self.ms.len()
        ));
    }
}

/// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    // Per-mille, so the "ten beyond" test is exact integer arithmetic.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile of unsorted samples (`0` when empty).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or `0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Times a set-up probe: the constructors a timed call runs inside itself.
/// A first, untimed call sizes the batch: each sample times as many calls
/// as fill [`SETUP_BATCH_S`], so a set-up of microseconds is not lost in
/// the clock's jitter. Each result is dropped before the next call.
pub struct SetupProbe<F> {
    build: F,
    batch: usize,
}

impl<T, F: FnMut() -> T> SetupProbe<F> {
    /// Sizes the batch for `build`.
    pub fn new(mut build: F) -> SetupProbe<F> {
        let first = timed(|| std::hint::black_box(build())).1;
        let batch = (SETUP_BATCH_S / first).ceil().clamp(1.0, 1e4) as usize;
        SetupProbe { build, batch }
    }

    /// Host seconds per call, over one batch.
    pub fn sample(&mut self) -> f64 {
        let secs = timed(|| {
            for _ in 0..self.batch {
                std::hint::black_box((self.build)());
            }
        })
        .1;
        secs / self.batch as f64
    }
}

/// Repeats `rep` until `seconds` have passed and at least `min_reps`
/// repetitions ran. `rep` receives the repetition index.
pub fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep(i);
        i += 1;
    }
}

/// 64-bit FNV-1a over a sequence of words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of a value in (for result structs whose
    /// fields are all simulated quantities).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        for b in format!("{v:?}").bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns the unknown name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "sparse64_e2e" => Ok(mesh::run(&mesh::SPARSE64, cfg)),
        "dense16_closed" => Ok(mesh::run(&mesh::DENSE16, cfg)),
        "coll16_storm" => Ok(coll::run(cfg)),
        "paper" => Ok(paper::run(cfg)),
        other => Err(other.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(256), 95.0);
        assert_eq!(tail_percentile(1024), 99.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn chunk_positions_take_the_median_over_repetitions() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (ms(&[1, 5, 2]), ms(&[1, 5, 2]), ms(&[90, 5, 2, 7]));
        let chunks = Chunks::by_position(&[&a, &b, &c]);
        // The stall in one repetition's first chunk drops out, and only the
        // positions every repetition reached are kept.
        assert_eq!(chunks.ms, vec![1.0, 5.0, 2.0]);
    }

    #[test]
    fn digest_separates_word_order() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
