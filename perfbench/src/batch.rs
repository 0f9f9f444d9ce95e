//! The batch driver: a closed loop of `EasyHps::run` calls on one
//! generated problem, each output compared with the sequential reference.

use crate::sampler::{chunked_percentile, median};
use crate::tracer::{SpanId, Tracer, ROOT};
use crate::workloads::{Workload, SLAVES, THREADS};
use crate::{peak_rss_mib, process_cpu_ms, reset_peak_rss, Metric, RunParams, RunResult};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_runtime::{EasyHps, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// Warm-up jobs of one set-up (page faults, lazy statics, socket caches).
const WARMUP_JOBS: usize = 5;
/// `job_ms_p90` is the median of the p90s of this many consecutive chunks
/// of the run (see [`chunked_percentile`]).
const P90_CHUNKS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A generated problem with its sequential reference.
pub struct Prepared<P: DpProblem> {
    /// The problem, shared with every job.
    pub problem: Arc<P>,
    /// `solve_sequential()` of it.
    pub reference: DpMatrix<P::Cell>,
}

/// The fleet every job of this benchmark runs on: the workload's
/// partitions and transport, 2 slaves × 1 thread, everything else default
/// (dynamic scheduling, no faults, no checkpoints, observability off).
pub fn configure<P: DpProblem>(w: &Workload, problem: Arc<P>) -> EasyHps<P> {
    EasyHps::new_shared(problem)
        .process_partition((w.pps, w.pps))
        .thread_partition((w.tps, w.tps))
        .slaves(SLAVES)
        .threads_per_slave(THREADS)
        .transport(w.transport)
}

/// One job: run (timed), then verify against the reference. Returns the
/// latency in ms and, when the output was right, the run's report.
pub fn job<P: DpProblem>(
    w: &Workload,
    prep: &Prepared<P>,
    tracer: &Tracer,
    parent: SpanId,
) -> (f64, Option<RunReport>) {
    tracer.span("job", parent, 0, |job| {
        let t0 = Instant::now();
        let out = tracer.span("run", job, 0, |_| configure(w, prep.problem.clone()).run());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = tracer.span("verify", job, 0, |_| match out {
            Ok(out) if out.matrix == prep.reference => Some(out.report),
            Ok(_) => {
                eprintln!("{}: matrix differs from the sequential reference", w.name);
                None
            }
            Err(e) => {
                eprintln!("{}: job failed: {e}", w.name);
                None
            }
        });
        (ms, report)
    })
}

/// One set-up: the sequential reference plus (untraced) warm-up jobs.
/// Returns `None` if a warm-up job failed.
pub fn set_up<P: DpProblem>(w: &Workload, problem: P) -> Option<Prepared<P>> {
    let tracer = Tracer::new(false);
    let reference = problem.solve_sequential();
    let prep = Prepared {
        problem: Arc::new(problem),
        reference,
    };
    for _ in 0..WARMUP_JOBS {
        job(w, &prep, &tracer, ROOT).1?;
    }
    Some(prep)
}

/// The end-to-end run of a batch workload on `make()`'s problem.
pub fn run_end_to_end<P: DpProblem>(
    w: &Workload,
    params: &RunParams,
    make: impl Fn() -> P,
) -> RunResult {
    let tracer = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prep = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        prep = set_up(w, make());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(prep) = prep else {
        return RunResult::setup_failed();
    };
    let dims = prep.problem.dims();
    let cells = dims.rows as f64 * dims.cols as f64;

    let (mut lat, mut rss) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    while !params.enough_jobs(lat.len()) || start.elapsed() < params.seconds {
        reset_peak_rss();
        let (ms, report) = job(w, &prep, &tracer, ROOT);
        lat.push(ms);
        rss.push(peak_rss_mib());
        failed += u64::from(report.is_none());
    }
    let window = start.elapsed().as_secs_f64();
    let cpu = process_cpu_ms() - cpu0;

    let n = lat.len();
    let correct_cells = (n as u64 - failed) as f64 * cells;
    let metrics = end_to_end_metrics(&setups, &lat, &rss, correct_cells, window, cpu);
    RunResult {
        attempted: n as u64,
        failed,
        correct: failed == 0,
        metrics,
    }
}

/// The end-to-end metrics from one run's raw observations.
pub fn end_to_end_metrics(
    setups_s: &[f64],
    lat_ms: &[f64],
    rss_mib: &[f64],
    correct_cells: f64,
    window_s: f64,
    cpu_ms: f64,
) -> Vec<Metric> {
    let n = lat_ms.len();
    vec![
        Metric::new("setup_s", median(setups_s), "s", setups_s.len()),
        Metric::new("job_ms_p50", median(lat_ms), "ms", n),
        Metric::new(
            "job_ms_p90",
            chunked_percentile(lat_ms, 90, P90_CHUNKS),
            "ms",
            n,
        ),
        Metric::new("cells_per_s", correct_cells / window_s, "cells/s", n),
        Metric::new("cpu_ms_per_job", cpu_ms / n as f64, "ms", n),
        Metric::new("peak_rss_mib", median(rss_mib), "MiB", rss_mib.len()),
    ]
}
