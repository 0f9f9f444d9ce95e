//! The one sampler: order statistics, the auto-batched micro-sampler and
//! interleaved-pair sampling (PR 6's method, moved here so every number
//! this repo reports comes from the same code).

use std::time::{Duration, Instant};

/// Median of `samples` (mean of the two middle values for even counts).
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `samples`.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (v.len() * pct as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// Median over `chunks` consecutive, equally long chunks of `samples` (in
/// the order taken) of each chunk's `pct`-th percentile: the tail a job
/// sees in a typical stretch of the run. A slow phase of the machine that
/// covers a tenth of a run moves the plain p90 of the run to the slow
/// level, and this sandbox has such phases; it has to cover half the
/// chunks to move this.
pub fn chunked_percentile(samples: &[f64], pct: u32, chunks: usize) -> f64 {
    let size = samples.len().div_ceil(chunks).max(1);
    let per_chunk: Vec<f64> = samples.chunks(size).map(|c| percentile(c, pct)).collect();
    median(&per_chunk)
}

/// The highest of p50/p90/p99/p99.9 (as tenths of a percent) that still
/// has at least ten samples beyond it, so the tail it names is not one
/// outlier. `None` below 20 samples, where even the median has fewer than
/// ten on its far side.
pub fn highest_supported_permille(n: usize) -> Option<u32> {
    [999u32, 990, 900, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm as usize) / 1000 >= 10)
}

/// Quartile spread `(q3 - q1) / median`, quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// steadiness measure the benchmark contract uses. `None` below 2 values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let q = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((q(3) - q(1)) / median(&v))
}

/// `(min, median)` ns per call of `op`, over `samples` timed batches. The
/// batch size is auto-calibrated so one batch lasts roughly 2 ms, which
/// keeps microsecond-scale kernels clear of timer granularity.
pub fn sample_ns(samples: usize, mut op: impl FnMut()) -> (f64, f64) {
    let t0 = Instant::now();
    op();
    let probe = t0.elapsed().as_nanos().max(1);
    let per_batch = (2_000_000 / probe).clamp(1, 1 << 20) as u64;
    // Warm-up batch, discarded.
    for _ in 0..per_batch {
        op();
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        times.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    (min, median(&times))
}

/// Alternate `a` and `b` (each returns its own measurement) until `budget`
/// is spent, at least `min_pairs` times, so drift in the machine's state
/// lands on both sides equally. Returns the two sample sets.
pub fn interleaved_pairs(
    budget: Duration,
    min_pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let deadline = Instant::now() + budget;
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    while xs.len() < min_pairs || Instant::now() < deadline {
        xs.push(a());
        ys.push(b());
    }
    (xs, ys)
}

/// `(median(with) - median(without)) / median(without)`.
pub fn overhead_frac(without: &[f64], with: &[f64]) -> f64 {
    let base = median(without);
    (median(with) - base) / base
}
