//! The serve mix: a daemon with a local fleet and two closed-loop clients
//! walking seeded schedules of cache hits, tiny jobs and cold fleet jobs.

use crate::batch::{end_to_end_metrics, SETUPS};
use crate::tracer::{SpanId, Tracer, ROOT};
use crate::workloads::{tiny_problem, Workload, SLAVES, THREADS};
use crate::{peak_rss_mib, process_cpu_ms, reset_peak_rss, RunParams, RunResult};
use easyhps_core::TileRegion;
use easyhps_net::{crc32c, NetAddr};
use easyhps_runtime::remote::{JobSpec, RemoteProblem};
use easyhps_serve::{Client, Daemon, FleetSpec, Response, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Closed-loop clients of the mix.
pub const CLIENTS: u64 = 2;
/// How many of a client's latest new problems a hit may repeat. Eight
/// resident 4 MB matrices sit far inside the daemon's 64 MiB cache.
pub const WINDOW: usize = 4;
/// One block of the schedule: 25 % hits, 5 % tiny, 70 % cold, shuffled;
/// fixed shares per block (not per draw) keep the mix from drifting with
/// the seed. The shares put p50 and p90 both well inside the one latency
/// mode that is steady on a two-core machine: a cold job that queued
/// behind the other client's (about twice the fleet's service time, and
/// over 85 % of cold jobs). Hits are sub-millisecond and swing by tens of
/// percent with scheduler noise; unqueued colds and queued tiny jobs sit
/// at one service time. With a p50 in or between those modes (the issue's
/// 60/15/25 mix, and 30/10/60, were both tried) the run-to-run spread of
/// `job_ms_p50` was 24-30 %, against 10 %.
pub const BLOCK: [(Label, usize); 3] = [(Label::Hit, 5), (Label::Tiny, 1), (Label::Cold, 14)];
/// Steps of a client's warm-up, which also fills its window.
const WARMUP: [Label; 5] = [
    Label::Cold,
    Label::Tiny,
    Label::Cold,
    Label::Tiny,
    Label::Hit,
];

/// What a step of the schedule exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Repeat of a problem in the client's window: served from the cache.
    Hit,
    /// New 100×100 edit distance: the batched sequential path.
    Tiny,
    /// New unique fleet job of the workload's shape.
    Cold,
}

/// One step: which problem to submit and what it should exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// What the step exercises.
    pub label: Label,
    /// Whether the problem is a tiny one (else the workload's fleet job).
    pub tiny: bool,
    /// Generator stream of the problem; unique per client and problem.
    pub stream: u64,
}

/// A client's endless seeded schedule: the warm-up steps, then shuffled
/// [`BLOCK`]s. Streams of different clients never overlap, so clients
/// never coalesce with or hit each other's jobs.
#[derive(Debug)]
pub struct Schedule {
    rng: StdRng,
    next_stream: u64,
    window: VecDeque<(bool, u64)>,
    pending: Vec<Label>,
}

impl Schedule {
    /// The schedule of client `client` (0-based) under `seed`.
    pub fn new(seed: u64, client: u64) -> Schedule {
        let mut pending = WARMUP.to_vec();
        pending.reverse();
        Schedule {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(CLIENTS).wrapping_add(client)),
            // Stream 0 is the batch problem; clients count up from 1<<32.
            next_stream: (client + 1) << 32,
            window: VecDeque::with_capacity(WINDOW + 1),
            pending,
        }
    }

    fn refill(&mut self) {
        for (label, count) in BLOCK {
            self.pending.extend(std::iter::repeat_n(label, count));
        }
        // Fisher–Yates.
        for i in (1..self.pending.len()).rev() {
            let j = self.rng.random_range(0..i + 1);
            self.pending.swap(i, j);
        }
    }
}

impl Iterator for Schedule {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.pending.is_empty() {
            self.refill();
        }
        let label = self.pending.pop().expect("just refilled");
        if label == Label::Hit {
            let (tiny, stream) = self.window[self.rng.random_range(0..self.window.len())];
            return Some(Step {
                label,
                tiny,
                stream,
            });
        }
        let tiny = label == Label::Tiny;
        let stream = self.next_stream;
        self.next_stream += 1;
        self.window.push_back((tiny, stream));
        if self.window.len() > WINDOW {
            self.window.pop_front();
        }
        Some(Step {
            label,
            tiny,
            stream,
        })
    }
}

/// What a client saw for one step.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// The step.
    pub step: Step,
    /// `submit_wait` call → `Done`, ms.
    pub ms: f64,
    /// CRC the daemon reported, `None` when the job errored or was
    /// rejected.
    pub crc: Option<u32>,
    /// Whether the daemon said it came from the cache.
    pub cached: bool,
    /// Cells of the job's matrix.
    pub cells: u64,
    /// Process peak RSS during the step, MiB (client 0 samples it).
    pub rss_mib: Option<f64>,
}

/// What [`Mix::verify`] found.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Timed outcomes that errored, had the wrong CRC, or came from the
    /// cache when they should not have (or the reverse).
    pub failed: u64,
    /// Matrix cells of the timed outcomes that were right.
    pub correct_cells: u64,
    /// Warm-up outcomes were right and the daemon's hit / tiny / cold
    /// counters equal the schedule's counts.
    pub counts_ok: bool,
}

/// A started daemon with its connected, warmed-up clients.
pub struct Mix {
    /// The daemon (stops on drop).
    pub daemon: Daemon,
    clients: Vec<(Client, Schedule)>,
    warmup: Vec<Outcome>,
}

/// CRC-32C of `problem`'s sequentially solved matrix, as the daemon
/// digests matrices (row-major little-endian cells).
pub fn reference_crc(problem: &RemoteProblem) -> u32 {
    let m = problem.solve_sequential();
    let d = m.dims();
    crc32c(&m.encode_region(TileRegion::new(0, d.rows, 0, d.cols)))
}

fn problem_of(w: &Workload, seed: u64, step: Step) -> RemoteProblem {
    if step.tiny {
        tiny_problem(seed, step.stream)
    } else {
        w.problem(seed, step.stream)
    }
}

fn submit(
    w: &Workload,
    seed: u64,
    client: &mut Client,
    lane: u32,
    step: Step,
    tracer: &Tracer,
    parent: SpanId,
) -> Outcome {
    let spec: JobSpec = w.job_spec(problem_of(w, seed, step));
    let cells = spec.problem.cells();
    // One sampler is enough, and two would reset each other's windows.
    let samples_rss = lane == 1;
    if samples_rss {
        reset_peak_rss();
    }
    tracer.span("job", parent, lane, |job| {
        let t0 = Instant::now();
        let resp = tracer.span("run", job, lane, |_| {
            client.submit_wait(&format!("client{lane}"), spec)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (crc, cached) = match resp {
            Ok(Response::Done { result, cached, .. }) => (Some(result.crc), cached),
            other => {
                eprintln!("{}: submit answered {other:?}", w.name);
                (None, false)
            }
        };
        Outcome {
            step,
            ms,
            crc,
            cached,
            cells,
            rss_mib: samples_rss.then(peak_rss_mib),
        }
    })
}

impl Mix {
    /// One set-up: start the daemon (TCP listen, local 2 × 1 fleet, no
    /// state dir, default cache and batch threshold), connect the
    /// clients, run their (untraced) warm-up steps.
    pub fn set_up(w: &Workload, seed: u64) -> std::io::Result<Mix> {
        let tracer = Tracer::new(false);
        let mut cfg = ServeConfig::new(NetAddr::parse("127.0.0.1:0").expect("loopback parses"));
        cfg.fleet = FleetSpec::Local {
            slaves: SLAVES,
            threads: Some(THREADS),
        };
        let daemon = Daemon::start(cfg)?;
        let mut clients = Vec::new();
        let mut warmup = Vec::new();
        for c in 0..CLIENTS {
            let mut client = Client::connect(daemon.addr())?;
            let mut schedule = Schedule::new(seed, c);
            for step in schedule.by_ref().take(WARMUP.len()) {
                warmup.push(submit(
                    w,
                    seed,
                    &mut client,
                    c as u32 + 1,
                    step,
                    &tracer,
                    ROOT,
                ));
            }
            clients.push((client, schedule));
        }
        Ok(Mix {
            daemon,
            clients,
            warmup,
        })
    }

    /// Let every client walk its schedule concurrently until
    /// `stop(jobs done by this client)`; returns their outcomes (warm-up
    /// not included) and the timed window in s.
    pub fn run(
        &mut self,
        w: &Workload,
        seed: u64,
        tracer: &Tracer,
        parent: SpanId,
        stop: impl Fn(usize) -> bool + Sync,
    ) -> (Vec<Outcome>, f64) {
        let start = Instant::now();
        let timed: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, (client, schedule))| {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        while !stop(done.len()) {
                            let step = schedule.next().expect("schedules are endless");
                            done.push(submit(w, seed, client, c as u32 + 1, step, tracer, parent));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        (timed, start.elapsed().as_secs_f64())
    }

    /// Check every outcome (warm-up included) against sequential
    /// references computed here, after the timed window, and the exact
    /// hit / tiny / cold counts against the daemon's counters.
    pub fn verify(&self, w: &Workload, seed: u64, timed: &[Outcome]) -> Verdict {
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut right = |o: &Outcome| {
            let want = *reference
                .entry(o.step.stream)
                .or_insert_with(|| reference_crc(&problem_of(w, seed, o.step)));
            o.crc == Some(want) && o.cached == (o.step.label == Label::Hit)
        };
        let warm_ok = self.warmup.iter().all(&mut right);
        let (mut failed, mut correct_cells) = (0, 0);
        for o in timed {
            if right(o) {
                correct_cells += o.cells;
            } else {
                failed += 1;
            }
        }

        let stats = self.daemon.registry().snapshot();
        let count = |l: Label| {
            self.warmup
                .iter()
                .chain(timed)
                .filter(|o| o.step.label == l)
                .count() as u64
        };
        let counter = |name: &str| stats.counter(name).unwrap_or(0);
        let counts_ok = counter("serve_cache_hits") == count(Label::Hit)
            && counter("serve_batch_jobs") == count(Label::Tiny)
            && counter("serve_fleet_rounds") == count(Label::Cold)
            && counter("serve_jobs_failed") + counter("serve_jobs_rejected") == 0;
        if !counts_ok {
            eprintln!(
                "{}: daemon counters disagree with the schedule: {}",
                w.name,
                stats.render_text()
            );
        }
        Verdict {
            failed,
            correct_cells,
            counts_ok: warm_ok && counts_ok,
        }
    }
}

/// The end-to-end run of `serve_mix`.
pub fn run_end_to_end(w: &Workload, params: &RunParams) -> std::io::Result<RunResult> {
    let tracer = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut mix = None;
    for _ in 0..SETUPS {
        drop(mix.take()); // stop the previous daemon before timing the next
        let t0 = Instant::now();
        mix = Some(Mix::set_up(w, params.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut mix = mix.expect("SETUPS > 0");

    let cpu0 = process_cpu_ms();
    let deadline = Instant::now() + params.seconds;
    // Each client needs half the job floor.
    let (timed, window) = mix.run(w, params.seed, &tracer, ROOT, |n| {
        params.enough_jobs(n * CLIENTS as usize) && Instant::now() >= deadline
    });
    let cpu = process_cpu_ms() - cpu0;

    let verdict = mix.verify(w, params.seed, &timed);
    let lat: Vec<f64> = timed.iter().map(|o| o.ms).collect();
    let rss: Vec<f64> = timed.iter().filter_map(|o| o.rss_mib).collect();
    Ok(RunResult {
        attempted: timed.len() as u64,
        failed: verdict.failed,
        correct: verdict.failed == 0 && verdict.counts_ok,
        metrics: end_to_end_metrics(
            &setups,
            &lat,
            &rss,
            verdict.correct_cells as f64,
            window,
            cpu,
        ),
    })
}
