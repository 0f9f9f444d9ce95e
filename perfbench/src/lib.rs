//! # easyhps-perfbench — the repo's one benchmark harness
//!
//! Drives every layer of EasyHPS from outside, through its public API,
//! and reports the metrics `BENCHMARK.json` names. See README.md for the
//! workloads, the metric definitions and how to run and compare.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod layers;
pub mod mix;
pub mod report;
pub mod sampler;
pub mod tracer;
pub mod workloads;

use std::path::PathBuf;
use std::time::Duration;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and derived values).
    pub n: usize,
}

impl RunResult {
    /// The result of a run whose set-up already failed.
    pub fn setup_failed() -> RunResult {
        RunResult {
            attempted: 1,
            failed: 1,
            correct: false,
            metrics: Vec::new(),
        }
    }
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            n,
        }
    }
}

/// What one run (one workload, traced or not) produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// Jobs that errored, were rejected, or whose matrix differed from
    /// the sequential reference.
    pub failed: u64,
    /// `failed == 0` and every exact-count assertion held.
    pub correct: bool,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

/// Parameters of one run, from the command line.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Measurement time (`--seconds`).
    pub seconds: Duration,
    /// Smoke mode: sequence lengths ÷ 4, five jobs, no 100-sample floor.
    pub smoke: bool,
}

impl RunParams {
    /// Whether `n` timed jobs are enough for a run to stop at its
    /// deadline: `job_ms_p90` needs ten samples beyond it (five jobs do
    /// for a smoke run, which reports its `n`).
    pub fn enough_jobs(&self, n: usize) -> bool {
        if self.smoke {
            n >= 5
        } else {
            sampler::highest_supported_permille(n) >= Some(900)
        }
    }

    /// The share `frac` of the measurement time.
    pub fn share(&self, frac: f64) -> Duration {
        self.seconds.mul_f64(frac)
    }
}

/// Directory for everything a run writes (Unix sockets, trace files):
/// `$CARGO_TARGET_DIR/bench`, or `target/bench` under the current
/// directory. Also becomes `TMPDIR`, because the runtime puts its Unix
/// sockets in `std::env::temp_dir()` and a run must stay inside its
/// checkout. Call once, before any thread is spawned.
pub fn init_scratch_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("bench");
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// Process CPU time (user + system) in ms, from `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    // Fields 14 and 15, counted after the parenthesised command name (it
    // may contain spaces). The unit is USER_HZ, 100 on every Linux ABI.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("utime/stime are numbers"))
        .sum();
    ticks as f64 * 10.0
}

/// Start a new peak-RSS window: reset `VmHWM` to the current RSS, so the
/// next [`peak_rss_mib`] is the peak since this call. One job's peak is a
/// transient (how many tile buffers happened to be alive at once); the
/// median of per-job peaks is steady where the peak of a whole run is not.
/// Where the kernel refuses the reset, every reading is the run's peak so
/// far, and the median degrades to that.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}
