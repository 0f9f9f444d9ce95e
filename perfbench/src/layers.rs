//! The traced run: per-layer probes on the workload's own fleet job
//! shape (problem, tile shape, transport). Every probe calls a layer's
//! public API from outside and is wrapped in a harness span; the layer is
//! the crate the metric's prefix names.

use crate::batch::{configure, job, set_up, Prepared};
use crate::mix::{reference_crc, Label, Mix};
use crate::sampler::{interleaved_pairs, median, overhead_frac, sample_ns};
use crate::tracer::{SpanId, Tracer};
use crate::workloads::{Class, Workload, SLAVES, THREADS};
use crate::{Metric, RunParams, RunResult};
use bytes::Bytes;
use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SchedParams};
use easyhps_core::{DagPattern, GridDims, GridPos, ScheduleMode, TaskDag, TileRegion, Trace};
use easyhps_dp::{DpGrid, DpMatrix, DpProblem};
use easyhps_net::frame::seal_data;
use easyhps_net::socket::connect;
use easyhps_net::{
    Endpoint, NetAddr, Network, Rank, ReliableEndpoint, RetryPolicy, SocketConfig, SocketListener,
    Tag,
};
use easyhps_obs::Registry;
use easyhps_runtime::{EasyHps, RunReport, TransportKind};
use easyhps_serve::{job_key, Client, Response};
use easyhps_sim::{simulate, SimConfig, SimWorkload};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GIB: f64 = (1u64 << 30) as f64;
/// Timed batches per micro-probe (each about 2 ms).
const MICRO_SAMPLES: usize = 15;
const PING: Tag = Tag(1);
const STOP: Tag = Tag(2);
const LINK_TIMEOUT: Duration = Duration::from_secs(5);

/// Length of the longest path through `dag` when vertex `v` costs
/// `weight[v]` (the span of the DAG; with per-tile kernel times, the
/// paper's critical-path compute time).
pub fn critical_path(dag: &TaskDag, weight: &[f64]) -> f64 {
    let order = dag
        .topological_order()
        .expect("library patterns are acyclic");
    let mut finish = vec![0.0f64; dag.len()];
    let mut longest = 0.0f64;
    for v in order {
        let start = dag
            .vertex(v)
            .preds
            .iter()
            .map(|p| finish[p.index()])
            .fold(0.0, f64::max);
        finish[v.index()] = start + weight[v.index()];
        longest = longest.max(finish[v.index()]);
    }
    longest
}

/// Drive a bare `MasterSched` over `dag` to `Finished` with the event
/// stream a fault-free two-slave run produces (Idle, then Heard + Done +
/// Tick per tile); returns the number of events fed. No I/O, no clock.
pub fn drive_scheduler(dag: &TaskDag) -> u64 {
    let mut sched = MasterSched::new(
        dag,
        SLAVES,
        ScheduleMode::Dynamic,
        &SchedParams::default(),
        None,
    );
    let mut events = 0u64;
    let mut feed = |ev| {
        events += 1;
        sched.on_event(dag, ev).expect("a fault-free stream")
    };
    for slave in 0..SLAVES {
        feed(MasterEvent::Idle { slave });
    }
    let mut in_flight = VecDeque::new();
    let mut now_ns = 0u64;
    loop {
        now_ns += 1_000;
        for action in feed(MasterEvent::Tick { now_ns }) {
            match action {
                MasterAction::Assign { slave, task } => in_flight.push_back((slave, task)),
                MasterAction::Finished => return events,
                _ => {}
            }
        }
        let (slave, task) = in_flight
            .pop_front()
            .expect("an unfinished DAG has a tile in flight");
        feed(MasterEvent::Heard {
            slave,
            at_ns: now_ns,
        });
        feed(MasterEvent::Done { slave, task });
    }
}

/// Idle gaps in µs between consecutive spans of each lane of `trace`
/// (the master-observed DONE → next ASSIGN turnaround per slave).
pub fn lane_gaps_us(trace: &Trace) -> Vec<f64> {
    let mut gaps = Vec::new();
    for lane in trace.lane_names() {
        let mut spans: Vec<_> = trace.spans.iter().filter(|s| s.lane == lane).collect();
        spans.sort_by_key(|s| s.start_ns);
        gaps.extend(
            spans
                .windows(2)
                .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns) as f64 / 1e3),
        );
    }
    gaps
}

/// `P`'s dimensions and dependency pattern with a kernel that computes
/// nothing: what is left of a run is the runtime's own cost per tile.
struct NoOp<P>(Arc<P>);

impl<P: DpProblem> DpProblem for NoOp<P> {
    type Cell = P::Cell;
    fn name(&self) -> String {
        format!("noop({})", self.0.name())
    }
    fn dims(&self) -> GridDims {
        self.0.dims()
    }
    fn pattern(&self) -> Arc<dyn DagPattern> {
        self.0.pattern()
    }
    fn compute_region<G: DpGrid<Self::Cell>>(&self, _m: &mut G, _region: TileRegion) {}
}

fn run_ms<P: DpProblem>(hps: EasyHps<P>) -> f64 {
    let t0 = Instant::now();
    let out = hps.run().expect("a fault-free run");
    black_box(out.report.master.completed);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Two connected raw endpoints (ranks 0 and 1) on `kind`.
fn link_pair(kind: TransportKind, scratch: &Path) -> std::io::Result<(Endpoint, Endpoint)> {
    let bind = match kind {
        TransportKind::InProcess => {
            let mut eps = Network::new(2);
            let b = eps.pop().expect("two endpoints");
            return Ok((eps.pop().expect("two endpoints"), b));
        }
        TransportKind::Tcp => NetAddr::parse("127.0.0.1:0").expect("loopback parses"),
        TransportKind::Uds => {
            NetAddr::Uds(scratch.join(format!("link-{}.sock", std::process::id())))
        }
    };
    let listener = SocketListener::bind(&bind, SocketConfig::default())?;
    let addr = listener.local_addr();
    std::thread::scope(|s| {
        let dial = s.spawn(|| connect(&addr, Some(1), SocketConfig::default(), None));
        let (a, _info) = listener.accept_ranks(1, None)?;
        let (b, _info) = dial.join().expect("connect does not panic")?;
        Ok((a, b))
    })
}

/// Median round trip in µs of a `size`-byte message between two raw
/// endpoints on `kind`.
fn link_rtt_us(kind: TransportKind, scratch: &Path, size: usize) -> std::io::Result<f64> {
    let (mut a, mut b) = link_pair(kind, scratch)?;
    let payload = Bytes::from(vec![0xA5u8; size]);
    Ok(std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(env) = b.recv_timeout(LINK_TIMEOUT) {
                if env.tag == STOP || b.send(env.src, env.tag, env.payload).is_err() {
                    break;
                }
            }
        });
        let (_, ns) = sample_ns(MICRO_SAMPLES, || {
            a.send(Rank(1), PING, payload.clone()).expect("peer is up");
            black_box(a.recv_timeout(LINK_TIMEOUT).expect("echo arrives"));
        });
        a.send(Rank(1), STOP, Bytes::from(Vec::new()))
            .expect("peer is up");
        ns / 1e3
    }))
}

/// The same 64-byte ping-pong through `ReliableEndpoint`s (seal, sequence,
/// ack, dedup): the difference to the raw link is the ack tax.
fn reliable_rtt_us(kind: TransportKind, scratch: &Path) -> std::io::Result<f64> {
    let (a, b) = link_pair(kind, scratch)?;
    let mut a = ReliableEndpoint::new(a, RetryPolicy::default());
    let mut b = ReliableEndpoint::new(b, RetryPolicy::default());
    let payload = Bytes::from(vec![0xA5u8; 64]);
    Ok(std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(env) = b.recv_timeout(LINK_TIMEOUT) {
                if env.tag == STOP || b.send_reliable(env.src, env.tag, env.payload).is_err() {
                    break;
                }
            }
            b.drain_pending(Duration::from_millis(100));
        });
        let (_, ns) = sample_ns(MICRO_SAMPLES, || {
            a.send_reliable(Rank(1), PING, payload.clone())
                .expect("peer is up");
            black_box(a.recv_timeout(LINK_TIMEOUT).expect("echo arrives"));
        });
        a.send_reliable(Rank(1), STOP, Bytes::from(Vec::new()))
            .expect("peer is up");
        a.drain_pending(Duration::from_millis(100));
        ns / 1e3
    }))
}

/// Everything measured on direct `EasyHps::run` jobs: the alternating
/// traced / untraced job loop and what its `RunReport`s say.
struct DirectJobs {
    /// p50 of the untraced jobs, ms: the traced run's own `job_ms_p50`.
    run_ms_p50: f64,
    /// Mean payload bytes of one ASSIGN.
    assign_bytes: f64,
    /// Job counts and the metrics read off the jobs' reports.
    result: RunResult,
}

fn direct_jobs<P: DpProblem>(
    w: &Workload,
    params: &RunParams,
    prep: &Prepared<P>,
    tracer: &Tracer,
    parent: SpanId,
) -> DirectJobs {
    let off = Tracer::new(false);
    let mut reports: Vec<(f64, Option<RunReport>)> = Vec::new();
    let min_pairs = if params.smoke { 3 } else { 10 };
    let (plain, traced) = interleaved_pairs(
        params.share(0.3),
        min_pairs,
        || job(w, prep, &off, parent).0,
        || {
            let (ms, report) = job(w, prep, tracer, parent);
            reports.push((ms, report));
            ms
        },
    );
    let n = reports.len();
    let failed = reports.iter().filter(|(_, r)| r.is_none()).count() as u64;
    let good: Vec<(f64, &RunReport)> = reports
        .iter()
        .filter_map(|(ms, r)| Some((*ms, r.as_ref()?)))
        .collect();
    let run_ms_p50 = median(&plain);
    let dims = prep.problem.dims();
    let cells = dims.rows as f64 * dims.cols as f64;
    let per_job = |f: &dyn Fn(f64, &RunReport) -> f64| -> f64 {
        if good.is_empty() {
            return f64::NAN;
        }
        median(&good.iter().map(|(ms, r)| f(*ms, r)).collect::<Vec<_>>())
    };
    let total = |f: &dyn Fn(&RunReport) -> u64| good.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    let gaps: Vec<f64> = good
        .iter()
        .flat_map(|(_, r)| lane_gaps_us(&r.trace))
        .collect();
    let metrics = vec![
        Metric::new(
            "bench.trace_overhead_frac",
            overhead_frac(&plain, &traced),
            "ratio",
            n,
        ),
        Metric::new(
            "net.bytes_per_cell",
            per_job(&|_, r| (r.master.bytes_sent + r.master.bytes_recv) as f64 / cells),
            "B/cell",
            n,
        ),
        Metric::new(
            "net.msgs_per_tile",
            per_job(&|_, r| {
                (r.master.msgs_sent + r.master.msgs_recv) as f64 / r.master.completed as f64
            }),
            "1/tile",
            n,
        ),
        Metric::new(
            "net.retransmits",
            total(&|r| r.master.retransmits),
            "count",
            n,
        ),
        Metric::new(
            "runtime.slave_busy_frac",
            per_job(&|ms, r| r.total_busy_ns() as f64 / (SLAVES as f64 * ms * 1e6)),
            "ratio",
            n,
        ),
        Metric::new(
            "runtime.tile_gap_us_p50",
            if gaps.is_empty() {
                f64::NAN
            } else {
                median(&gaps)
            },
            "us",
            gaps.len(),
        ),
        Metric::new(
            "runtime.redispatched",
            total(&|r| r.master.redispatched),
            "count",
            n,
        ),
    ];
    DirectJobs {
        run_ms_p50,
        assign_bytes: per_job(&|_, r| r.master.bytes_sent as f64 / r.master.dispatched as f64),
        result: RunResult {
            metrics,
            attempted: (plain.len() + n) as u64,
            failed,
            correct: failed == 0,
        },
    }
}

/// What `probe_dp_core` found, for the probes that build on it.
struct DpCore {
    metrics: Vec<Metric>,
    /// Tiles of the master DAG.
    tiles: usize,
    /// max(span, work ÷ slaves): the kernel-only floor of a job, ms.
    ideal_ms: f64,
    /// An interior tile and its median kernel time, ns.
    tile: TileRegion,
    tile_ns: f64,
}

/// `dp` and `core`: the kernels and the DAG machinery alone, no fleet.
fn probe_dp_core<P: DpProblem>(w: &Workload, prep: &Prepared<P>) -> DpCore {
    let problem = prep.problem.as_ref();
    let model = configure(w, prep.problem.clone()).model();
    let dag = model.master_dag();
    let tiles = dag.len();

    let seq_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(problem.solve_sequential());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // An interior tile: a third down, two thirds across, which is a full
    // off-diagonal tile of the triangular DAG too. Recomputing it on the
    // finished matrix is legal (every dependency is final) and idempotent.
    let d = dag.dims();
    let interior = GridPos::new(d.rows / 3, (2 * d.cols / 3).min(d.cols - 1));
    let region = model.tile_region(interior);
    let mut m = prep.reference.clone();
    let (_, tile_ns) = sample_ns(MICRO_SAMPLES, || problem.compute_region(&mut m, region));

    // Every tile once, in DAG order, on one thread: work W and span.
    let mut m = DpMatrix::<P::Cell>::new(problem.dims());
    let mut weight = vec![0.0f64; tiles];
    for v in dag
        .topological_order()
        .expect("library patterns are acyclic")
    {
        let region = model.tile_region(dag.vertex(v).pos);
        let t0 = Instant::now();
        problem.compute_region(&mut m, region);
        weight[v.index()] = t0.elapsed().as_secs_f64() * 1e3;
    }
    assert!(
        m == prep.reference,
        "tile-by-tile solve equals the reference"
    );
    let work_ms: f64 = weight.iter().sum();
    let span_ms = critical_path(&dag, &weight);

    let (_, build_ns) = sample_ns(MICRO_SAMPLES, || {
        black_box(configure(w, prep.problem.clone()).model().master_dag());
    });
    let mut events = 0;
    let (_, sched_ns) = sample_ns(MICRO_SAMPLES, || events = drive_scheduler(&dag));

    let metrics = vec![
        Metric::new("dp.seq_ms", median(&seq_ms), "ms", seq_ms.len()),
        Metric::new(
            "dp.kernel_ns_per_cell",
            tile_ns / region.area() as f64,
            "ns/cell",
            MICRO_SAMPLES,
        ),
        Metric::new("dp.tile_ms_sum", work_ms, "ms", tiles),
        Metric::new("dp.crit_path_ms", span_ms, "ms", tiles),
        Metric::new("core.dag_tiles", tiles as f64, "count", 1),
        Metric::new("core.dag_build_us", build_ns / 1e3, "us", MICRO_SAMPLES),
        Metric::new(
            "core.sched_us_per_tile",
            sched_ns / 1e3 / tiles as f64,
            "us",
            MICRO_SAMPLES,
        ),
        Metric::new(
            "core.sched_events_per_s",
            events as f64 / (sched_ns / 1e9),
            "1/s",
            MICRO_SAMPLES,
        ),
    ];
    DpCore {
        metrics,
        tiles,
        ideal_ms: span_ms.max(work_ms / SLAVES as f64),
        tile: region,
        tile_ns,
    }
}

/// `net`: codec, framing and links, no scheduler and no kernels.
fn probe_net<P: DpProblem>(
    w: &Workload,
    prep: &Prepared<P>,
    tile: TileRegion,
    assign_bytes: f64,
    scratch: &Path,
) -> std::io::Result<Vec<Metric>> {
    let dims = prep.problem.dims();
    // What ASSIGNs and DONEs carry: a pps-tile and a full-width row strip.
    let strip = TileRegion::new(tile.row_start, tile.row_end, 0, dims.cols);
    let reference = &prep.reference;
    let (tile_bytes, strip_bytes) = (
        reference.encode_region(tile),
        reference.encode_region(strip),
    );
    let codec_bytes = (tile_bytes.len() + strip_bytes.len()) as f64;
    let (_, enc_ns) = sample_ns(MICRO_SAMPLES, || {
        black_box(reference.encode_region(tile));
        black_box(reference.encode_region(strip));
    });
    let mut m = DpMatrix::<P::Cell>::new(dims);
    let (_, dec_ns) = sample_ns(MICRO_SAMPLES, || {
        m.decode_region(tile, &tile_bytes);
        m.decode_region(strip, &strip_bytes);
    });
    let payload = vec![0x5Au8; assign_bytes as usize];
    let mut seq = 0u64;
    let (_, seal_ns) = sample_ns(MICRO_SAMPLES, || {
        seq += 1;
        black_box(seal_data(seq, &payload));
    });
    Ok(vec![
        Metric::new(
            "net.encode_gib_s",
            codec_bytes / GIB / (enc_ns / 1e9),
            "GiB/s",
            MICRO_SAMPLES,
        ),
        Metric::new(
            "net.decode_gib_s",
            codec_bytes / GIB / (dec_ns / 1e9),
            "GiB/s",
            MICRO_SAMPLES,
        ),
        Metric::new("net.frame_seal_ns", seal_ns, "ns", MICRO_SAMPLES),
        Metric::new(
            "net.link_rtt_us_64B",
            link_rtt_us(w.transport, scratch, 64)?,
            "us",
            MICRO_SAMPLES,
        ),
        Metric::new(
            "net.link_rtt_us_64KiB",
            link_rtt_us(w.transport, scratch, 64 << 10)?,
            "us",
            MICRO_SAMPLES,
        ),
        Metric::new(
            "net.reliable_rtt_us_64B",
            reliable_rtt_us(w.transport, scratch)?,
            "us",
            MICRO_SAMPLES,
        ),
    ])
}

/// `runtime`: the fleet with the kernel taken out, and the derived
/// overhead / efficiency figures against the kernel-only ideal.
fn probe_runtime<P: DpProblem>(
    w: &Workload,
    params: &RunParams,
    prep: &Prepared<P>,
    dp: &DpCore,
    run_ms_p50: f64,
) -> Vec<Metric> {
    let ideal_ms = dp.ideal_ms;
    let noop = Arc::new(NoOp(prep.problem.clone()));
    let min_runs = if params.smoke { 3 } else { 5 };
    let timed = |one_tile: bool| {
        let deadline = Instant::now() + params.share(0.05);
        let mut ms = Vec::new();
        while ms.len() < min_runs || Instant::now() < deadline {
            let mut hps = configure(w, noop.clone());
            if one_tile {
                let d = noop.dims();
                hps = hps.process_partition(d).thread_partition(d);
            }
            ms.push(run_ms(hps));
        }
        ms
    };
    let (full, single) = (timed(false), timed(true));
    vec![
        Metric::new(
            "runtime.noop_tile_us",
            median(&full) * 1e3 / dp.tiles as f64,
            "us",
            full.len(),
        ),
        Metric::new("runtime.fixed_cost_ms", median(&single), "ms", single.len()),
        Metric::new("runtime.ideal_ms", ideal_ms, "ms", 1),
        Metric::new("runtime.overhead_ms", run_ms_p50 - ideal_ms, "ms", 1),
        Metric::new(
            "runtime.sched_efficiency",
            ideal_ms / run_ms_p50,
            "ratio",
            1,
        ),
    ]
}

/// `serve`: the mix with this workload's fleet job as the cold job (a
/// fixed number of steps, so the hit / coalesced shares are exact), then
/// scripted coalescing, RPC and job-key probes.
fn probe_serve(
    w: &Workload,
    params: &RunParams,
    tracer: &Tracer,
    parent: SpanId,
    run_ms_p50: f64,
) -> std::io::Result<RunResult> {
    let mut mix = Mix::set_up(w, params.seed)?;
    let steps = if params.smoke { 20 } else { 40 };
    let (timed, _) = mix.run(w, params.seed, tracer, parent, |n| n >= steps);
    let verdict = tracer.span("verify", parent, 0, |_| mix.verify(w, params.seed, &timed));
    let mode_ms = |label: Label| {
        let ms: Vec<f64> = timed
            .iter()
            .filter(|o| o.step.label == label)
            .map(|o| o.ms)
            .collect();
        (median(&ms), ms.len())
    };

    // Client A submits a cold job without waiting; client B immediately
    // submits the duplicate and waits: B must attach to A's computation.
    const COALESCED: u64 = 3;
    let addr = mix.daemon.addr();
    let (mut a, mut b) = (Client::connect(addr)?, Client::connect(addr)?);
    let mut coalesced_ms = Vec::new();
    let mut coalesced_ok = true;
    for k in 0..COALESCED {
        // Streams no client schedule uses (clients occupy 1<<32, 2<<32).
        let problem = w.problem(params.seed, (u64::MAX << 32) + k);
        let want = reference_crc(&problem);
        let spec = w.job_spec(problem);
        a.submit("probe-a", false, spec.clone())?;
        let t0 = Instant::now();
        let resp = b.submit_wait("probe-b", spec)?;
        coalesced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        coalesced_ok &= matches!(
            resp,
            Response::Done { result, .. } if result.crc == want
        );
    }
    let (_, rpc_ns) = sample_ns(MICRO_SAMPLES, || {
        black_box(a.stats().expect("daemon is up"));
    });
    let problem = w.problem(params.seed, 0);
    let key_bytes = problem.content_key_bytes().len() as f64;
    let (_, key_ns) = sample_ns(MICRO_SAMPLES, || {
        black_box(job_key(&problem));
    });

    let stats = mix.daemon.registry().snapshot();
    let counter = |name: &str| stats.counter(name).unwrap_or(0) as f64;
    let submitted = counter("serve_jobs_submitted");
    coalesced_ok &= counter("serve_jobs_coalesced") == COALESCED as f64;
    let (hit, tiny, cold) = (
        mode_ms(Label::Hit),
        mode_ms(Label::Tiny),
        mode_ms(Label::Cold),
    );
    let metrics = vec![
        Metric::new("serve.hit_ms_p50", hit.0, "ms", hit.1),
        Metric::new("serve.tiny_ms_p50", tiny.0, "ms", tiny.1),
        Metric::new("serve.cold_ms_p50", cold.0, "ms", cold.1),
        Metric::new(
            "serve.coalesced_ms_p50",
            median(&coalesced_ms),
            "ms",
            coalesced_ms.len(),
        ),
        Metric::new("serve.overhead_ms", cold.0 - run_ms_p50, "ms", 1),
        Metric::new("serve.rpc_rtt_us", rpc_ns / 1e3, "us", MICRO_SAMPLES),
        Metric::new(
            "serve.job_key_gib_s",
            key_bytes / GIB / (key_ns / 1e9),
            "GiB/s",
            MICRO_SAMPLES,
        ),
        Metric::new(
            "serve.cache_hit_frac",
            counter("serve_cache_hits") / submitted,
            "ratio",
            submitted as usize,
        ),
        Metric::new(
            "serve.coalesced_frac",
            counter("serve_jobs_coalesced") / submitted,
            "ratio",
            submitted as usize,
        ),
    ];
    Ok(RunResult {
        metrics,
        attempted: timed.len() as u64 + COALESCED,
        failed: verdict.failed + u64::from(!coalesced_ok),
        correct: verdict.counts_ok && coalesced_ok,
    })
}

/// `obs`: what turning the program's own metrics / tracing on costs this
/// workload's job, and the two metric primitives.
fn probe_obs<P: DpProblem>(
    w: &Workload,
    params: &RunParams,
    prep: &Prepared<P>,
    scratch: &Path,
) -> Vec<Metric> {
    let min_pairs = if params.smoke { 2 } else { 4 };
    let plain = || run_ms(configure(w, prep.problem.clone()));
    let (off, on) = interleaved_pairs(params.share(0.08), min_pairs, plain, || {
        run_ms(configure(w, prep.problem.clone()).metrics(true))
    });
    let metrics_frac = Metric::new(
        "obs.metrics_overhead_frac",
        overhead_frac(&off, &on),
        "ratio",
        on.len(),
    );
    let trace_path = scratch.join(format!("obs-trace-{}.json", w.name));
    let (off, on) = interleaved_pairs(params.share(0.08), min_pairs, plain, || {
        run_ms(configure(w, prep.problem.clone()).trace_out(&trace_path))
    });
    let registry = Registry::new();
    let (counter, hist) = (registry.counter("probe"), registry.histogram("probe_ns"));
    let (_, inc_ns) = sample_ns(MICRO_SAMPLES, || counter.inc());
    let mut v = 0u64;
    let (_, observe_ns) = sample_ns(MICRO_SAMPLES, || {
        v = v.wrapping_add(977);
        hist.observe(v & 0xF_FFFF);
    });
    vec![
        metrics_frac,
        Metric::new(
            "obs.trace_overhead_frac",
            overhead_frac(&off, &on),
            "ratio",
            on.len(),
        ),
        Metric::new("obs.counter_inc_ns", inc_ns, "ns", MICRO_SAMPLES),
        Metric::new("obs.hist_observe_ns", observe_ns, "ns", MICRO_SAMPLES),
    ]
}

/// `sim`: the simulator's makespan for the matching workload, its compute
/// cost calibrated from the measured kernel, over the measured p50.
fn probe_sim(w: &Workload, tile: TileRegion, tile_ns: f64, run_ms_p50: f64) -> Metric {
    let len = w.len as u32;
    let sim_w = match w.class {
        Class::Edit => SimWorkload::wavefront(len, w.pps, w.tps),
        Class::Swgg => SimWorkload::swgg(len, w.pps, w.tps),
        Class::Nussinov => SimWorkload::nussinov(len, w.pps, w.tps),
    };
    let mut config = SimConfig::uniform(SLAVES, THREADS);
    config.cost.work_per_us = ((sim_w.region_work(tile) as f64 / (tile_ns / 1e3)) as u64).max(1);
    let makespan_ms = simulate(&sim_w, &config).makespan_ns as f64 / 1e6;
    Metric::new("sim.makespan_ratio", makespan_ms / run_ms_p50, "ratio", 1)
}

/// The traced run of `w` on the concrete problem `problem`.
pub fn run_traced<P: DpProblem>(
    w: &Workload,
    params: &RunParams,
    problem: P,
    scratch: &Path,
    tracer: &Tracer,
) -> std::io::Result<RunResult> {
    tracer.span("workload", crate::tracer::ROOT, 0, |root| {
        let Some(prep) = tracer.span("setup", root, 0, |_| set_up(w, problem)) else {
            return Ok(RunResult::setup_failed());
        };
        let direct = tracer.span("jobs", root, 0, |s| {
            direct_jobs(w, params, &prep, tracer, s)
        });
        let dp = tracer.span("probe.dp_core", root, 0, |_| probe_dp_core(w, &prep));
        let net = tracer.span("probe.net", root, 0, |_| {
            probe_net(w, &prep, dp.tile, direct.assign_bytes, scratch)
        })?;
        let runtime = tracer.span("probe.runtime", root, 0, |_| {
            probe_runtime(w, params, &prep, &dp, direct.run_ms_p50)
        });
        let serve = tracer.span("probe.serve", root, 0, |s| {
            probe_serve(w, params, tracer, s, direct.run_ms_p50)
        })?;
        let obs = tracer.span("probe.obs", root, 0, |_| {
            probe_obs(w, params, &prep, scratch)
        });
        let sim = tracer.span("probe.sim", root, 0, |_| {
            probe_sim(w, dp.tile, dp.tile_ns, direct.run_ms_p50)
        });

        let mut metrics = dp.metrics;
        metrics.extend(net);
        metrics.extend(runtime);
        metrics.extend(direct.result.metrics);
        metrics.extend(serve.metrics);
        metrics.extend(obs);
        metrics.push(sim);
        let failed = direct.result.failed + serve.failed;
        Ok(RunResult {
            attempted: direct.result.attempted + serve.attempted,
            failed,
            correct: failed == 0 && direct.result.correct && serve.correct,
            metrics,
        })
    })
}
