//! The slave part: thread-level parallelization of one node (paper §V-C,
//! Figs. 11-12).
//!
//! Each slave rank runs [`run_slave`]: a scheduling loop that announces
//! idleness, receives sub-task assignments with their input strips,
//! executes them on a pool of computing threads over the shared node
//! matrix, and returns the computed region. The pool is spawned **once per
//! slave lifetime** and reused across every ASSIGN — thread creation is
//! not on the per-tile path. Computing-thread failures (panics) are caught
//! and the sub-sub-task is re-queued — the paper's "restart the
//! corresponding computing thread".
//!
//! The loop talks to the master over a [`ReliableEndpoint`]: IDLE, DONE
//! and STATS are acknowledged and retransmitted, so a lossy link cannot
//! silently lose a result. In between — and *during* long tile
//! computations — the slave emits unreliable HEARTBEATs at
//! `heartbeat_interval`, which is how the master tells slow from dead. A
//! heartbeat send failing with a channel error doubles as the slave's
//! master-death detector (its own receiver never disconnects, because
//! every endpoint holds a sender to itself).

use crate::config::Deployment;
use crate::obs::{lane_of, publish_endpoint_stats, registry_of, SlaveMetrics, TID_NET};
use crate::protocol::{tags, AssignMsg, DoneMsg, SlaveStatsMsg};
use crate::shared_grid::SharedGrid;
use crate::storage::{NodeStorage, SparseGrid};
use crate::{MemoryMode, RuntimeError};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use easyhps_core::sched::{PoolAction, PoolEvent, PoolLog, PoolSched};
use easyhps_core::{DagDataDrivenModel, GridPos, TileRegion, VertexId};
use easyhps_dp::DpProblem;
use easyhps_net::{Endpoint, NetError, Rank, ReliableEndpoint};
use easyhps_obs::{EventRecorder, LaneBuf};
use parking_lot::RwLock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One job handed to a computing thread.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Dense id in the slave DAG.
    sub: u32,
    /// Global cell region of the sub-sub-task.
    region: TileRegion,
}

/// Result reported back by a computing thread.
#[derive(Clone, Copy, Debug)]
struct WorkerResult {
    worker: usize,
    sub: u32,
    elapsed_ns: u64,
    ok: bool,
}

/// Outcome of executing one master-level sub-task on the thread pool.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TileExecution {
    pub subtasks: u64,
    pub busy_ns: u64,
    pub failures: u64,
}

/// A persistent pool of computing threads over one node matrix.
///
/// Threads are spawned once (inside a [`std::thread::scope`]) and then
/// serve any number of tiles; [`execute_tile`] feeds them jobs through
/// per-worker channels. Workers take the grid's read lock per job, so the
/// scheduler can take the write lock between tiles (strip decode, result
/// encode) without any thread teardown.
pub(crate) struct ComputePool {
    job_txs: Vec<Sender<Job>>,
    result_rx: Receiver<WorkerResult>,
    /// Computing threads spawned over this pool's lifetime (= worker
    /// count: spawning happens exactly once, at construction).
    threads_spawned: u64,
}

impl ComputePool {
    /// Spawn `ct` computing threads into `scope`, computing `problem`
    /// regions against `grid`. Panics inside a kernel are caught in place;
    /// the worker reports failure and stays alive for re-queued work. With
    /// a `recorder`, each worker records one `sub` compute span per job on
    /// its own `(pid, 1 + worker)` event lane.
    pub(crate) fn spawn<'scope, 'env, P, S>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        ct: usize,
        problem: &'env P,
        grid: &'env RwLock<S>,
        recorder: Option<Arc<EventRecorder>>,
        pid: u32,
    ) -> Self
    where
        P: DpProblem,
        S: NodeStorage<P::Cell>,
    {
        let (result_tx, result_rx) = unbounded::<WorkerResult>();
        let mut job_txs = Vec::with_capacity(ct);
        for w in 0..ct {
            let (tx, rx) = unbounded::<Job>();
            job_txs.push(tx);
            let result_tx = result_tx.clone();
            let recorder = recorder.clone();
            scope.spawn(move || {
                let mut wl = recorder.map_or_else(LaneBuf::disabled, |r| r.lane(pid, 1 + w as u32));
                for job in rx.iter() {
                    let start_ns = wl.now_ns();
                    let t0 = Instant::now();
                    let g = grid.read();
                    // SAFETY: the slave scheduler dispatches each region to
                    // exactly one worker, and the DAG (validated) orders
                    // every read-region strictly before this task; channel
                    // send/recv provides the happens-before edges.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut view = unsafe { g.task_view(job.region) };
                        problem.compute_region(&mut view, job.region);
                    }));
                    drop(g);
                    let elapsed_ns = t0.elapsed().as_nanos() as u64;
                    wl.span_since(
                        "sub",
                        "compute",
                        start_ns,
                        Some(("sub", u64::from(job.sub))),
                    );
                    let res = WorkerResult {
                        worker: w,
                        sub: job.sub,
                        elapsed_ns,
                        ok: outcome.is_ok(),
                    };
                    if result_tx.send(res).is_err() {
                        break;
                    }
                }
            });
        }
        Self {
            job_txs,
            result_rx,
            threads_spawned: ct as u64,
        }
    }

    /// Worker count.
    fn threads(&self) -> usize {
        self.job_txs.len()
    }

    /// Computing threads spawned over this pool's lifetime.
    pub(crate) fn threads_spawned(&self) -> u64 {
        self.threads_spawned
    }
}

/// Run the slave loop on `ep` until the master sends END, with dense node
/// storage (the paper's layout). Returns the stats that were reported
/// back, or the transport error that killed the slave (a `Dead` error
/// simulates a node crash and is expected under fault injection).
pub fn run_slave<P: DpProblem>(
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
) -> Result<SlaveStatsMsg, RuntimeError> {
    run_slave_with_storage::<P, SharedGrid<P::Cell>>(ep, problem, model, config)
}

/// [`run_slave`] with the storage strategy chosen at run time — the one
/// place a [`MemoryMode`] becomes a [`NodeStorage`] type.
pub(crate) fn run_slave_in<P: DpProblem>(
    memory: MemoryMode,
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
) -> Result<SlaveStatsMsg, RuntimeError> {
    match memory {
        MemoryMode::Dense => run_slave(ep, problem, model, config),
        MemoryMode::Sparse => {
            run_slave_with_storage::<P, SparseGrid<P::Cell>>(ep, problem, model, config)
        }
    }
}

/// [`run_slave`] generic over the node-matrix storage strategy (dense
/// [`SharedGrid`] or sparse
/// [`SparseGrid`](crate::storage::SparseGrid)).
pub fn run_slave_with_storage<P: DpProblem, S: NodeStorage<P::Cell>>(
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
) -> Result<SlaveStatsMsg, RuntimeError> {
    let master = Rank(0);
    let grid = RwLock::new(S::new(model.dag_size()));
    let ct = config.threads_per_slave.max(1);
    let mut rep = ReliableEndpoint::new(ep, config.retry.clone());

    // Observability: this rank is Chrome pid `rank`, slave index `rank-1`.
    // Metrics register unconditionally (against a private registry when
    // none is shared), so the loop below never branches on "metrics on".
    let obs = &config.obs;
    let pid = rep.rank().0;
    let w = (pid as usize).wrapping_sub(1);
    let registry = registry_of(obs);
    let sm = SlaveMetrics::register(&registry, w);
    let mut lane = lane_of(obs, pid, 0);
    rep.set_event_lane(lane_of(obs, pid, TID_NET));
    if let Some(rec) = &obs.recorder {
        rec.name_process(pid, format!("slave{w}"));
        rec.name_thread(pid, 0, "scheduler");
        for t in 0..ct {
            rec.name_thread(pid, 1 + t as u32, format!("worker{t}"));
        }
        rec.name_thread(pid, TID_NET, "net");
    }

    // Step a: announce idleness (acknowledged: a dropped IDLE would
    // otherwise starve this slave forever).
    rep.send_reliable(master, tags::IDLE, bytes::Bytes::new())?;

    std::thread::scope(|scope| {
        // The compute pool lives for the whole slave, not per tile.
        let pool = ComputePool::spawn(scope, ct, problem, &grid, obs.recorder.clone(), pid);
        let mut last_hb = Instant::now();

        loop {
            // A heartbeat failure means the master's endpoint is gone (or
            // this endpoint was killed): propagate, ending the slave.
            if last_hb.elapsed() >= config.heartbeat_interval {
                rep.send_unreliable(master, tags::HEARTBEAT, bytes::Bytes::new())?;
                sm.heartbeats.inc();
                lane.instant("heartbeat", "sched", None);
                last_hb = Instant::now();
            }
            // A frame ends the wait; the heartbeat cadence bounds it.
            let env = match rep.recv_timeout(config.heartbeat_interval) {
                Ok(env) => env,
                Err(NetError::Timeout) => continue,
                Err(e) => return Err(e.into()),
            };
            match env.tag {
                tags::END => {
                    // SlaveStatsMsg is a view over the registry: every
                    // field was maintained there as the tiles ran.
                    let stats = SlaveStatsMsg {
                        tasks_done: sm.tiles.get(),
                        subtasks_done: sm.subtasks.get(),
                        busy_ns: sm.busy_ns.get(),
                        thread_failures: sm.thread_failures.get(),
                        peak_node_bytes: sm.peak_node_bytes.get().max(0) as u64,
                        threads_spawned: pool.threads_spawned(),
                    };
                    let _ = rep.send_reliable(master, tags::STATS, stats.encode());
                    // Linger until the STATS (and any late DONE) is acked,
                    // so the master's teardown collection cannot miss it;
                    // the linger ends on that ACK.
                    rep.drain_pending(config.sched_params().slave_linger);
                    publish_endpoint_stats(&registry, &format!("slave{w}"), &rep);
                    return Ok(stats);
                }
                tags::ASSIGN => {
                    let msg = AssignMsg::decode(&env.payload)?;
                    lane.instant("dispatch", "sched", Some(("task", u64::from(msg.task))));
                    let tile_start = lane.now_ns();
                    {
                        // Steps b-c: install input strips, back every
                        // sub-sub-task region with memory. Write lock: the
                        // pool is idle between tiles, so this never blocks.
                        let mut g = grid.write();
                        for (region, bytes) in &msg.inputs {
                            g.decode_region(*region, bytes);
                        }
                        g.prepare(&[msg.region]);
                    }
                    // Steps d-i: drive the slave DAG through the pool,
                    // heartbeating (and retransmitting pending sends)
                    // whenever the tile makes us wait — a long compute
                    // must not read as death to the master.
                    let exec = execute_tile(
                        model,
                        &pool,
                        msg.tile,
                        config,
                        &sm,
                        &mut || {
                            if last_hb.elapsed() >= config.heartbeat_interval {
                                let _ = rep.send_unreliable(
                                    master,
                                    tags::HEARTBEAT,
                                    bytes::Bytes::new(),
                                );
                                sm.heartbeats.inc();
                                last_hb = Instant::now();
                            }
                            rep.pump();
                        },
                        None,
                    )?;
                    sm.tiles.inc();
                    sm.subtasks.add(exec.subtasks);
                    sm.busy_ns.add(exec.busy_ns);
                    sm.thread_failures.add(exec.failures);
                    // Step h (slave side): return the computed region.
                    let mut g = grid.write();
                    sm.peak_node_bytes.set_max(g.allocated_bytes() as i64);
                    let output = g.encode_region(msg.region);
                    drop(g);
                    let done = DoneMsg {
                        task: msg.task,
                        // Echoed blindly: the slave has no epoch knowledge;
                        // the master fences completions from replaced
                        // incarnations by this echo alone.
                        epoch: msg.epoch,
                        region: msg.region,
                        output,
                    };
                    rep.send_reliable(master, tags::DONE, done.encode())?;
                    lane.span_since(
                        "compute",
                        "sched",
                        tile_start,
                        Some(("task", u64::from(msg.task))),
                    );
                    lane.instant("done", "sched", Some(("task", u64::from(msg.task))));
                }
                other => {
                    debug_assert!(false, "slave received unexpected {other}");
                }
            }
        }
    })
}

/// Execute one master tile on the persistent worker pool: partition it by
/// `thread_partition_size` and drive the shared [`PoolSched`] state
/// machine until every sub-sub-task completes. This function is the
/// machine's threaded driver — every scheduling decision (which worker
/// gets which sub-sub-task, what a failed kernel means) is the machine's;
/// this loop only moves jobs and results across channels. Every job
/// dispatched here is collected before returning, so the pool is
/// quiescent between calls. `on_wait` is invoked whenever waiting for a
/// worker result exceeds the heartbeat interval — the slave loop
/// heartbeats there so a long tile never reads as silence. With `log`,
/// every `(event, actions)` exchange is recorded for differential replay
/// against the virtual-time driver.
pub(crate) fn execute_tile(
    model: &DagDataDrivenModel,
    pool: &ComputePool,
    tile: GridPos,
    config: &Deployment,
    metrics: &SlaveMetrics,
    on_wait: &mut dyn FnMut(),
    mut log: Option<&mut PoolLog>,
) -> Result<TileExecution, RuntimeError> {
    let sdag = model.slave_dag(tile);
    let mut sched = PoolSched::new(&sdag, pool.threads(), config.thread_mode);
    let mut exec = TileExecution::default();

    let mut queue = sched.on_event(&sdag, PoolEvent::Start)?;
    if let Some(l) = log.as_deref_mut() {
        l.push((PoolEvent::Start, queue.clone()));
    }
    loop {
        let mut finished = false;
        for a in queue.drain(..) {
            match a {
                PoolAction::Run { worker, sub } => {
                    let region = model.sub_region(tile, sdag.vertex(VertexId(sub)).pos);
                    pool.job_txs[worker]
                        .send(Job { sub, region })
                        .expect("worker channel open");
                }
                PoolAction::Done => finished = true,
            }
        }
        if finished {
            break;
        }

        // Collect one result (we are not done, so either a worker is busy
        // or a dispatch just happened above); heartbeat while waiting.
        let res = loop {
            match pool.result_rx.recv_timeout(config.heartbeat_interval) {
                Ok(res) => break res,
                Err(RecvTimeoutError::Timeout) => on_wait(),
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("workers alive while tasks remain")
                }
            }
        };
        exec.busy_ns += res.elapsed_ns;
        metrics.subtask_latency.observe(res.elapsed_ns);
        if res.ok {
            exec.subtasks += 1;
        } else {
            // Thread-level fault tolerance: the panic was caught (the
            // worker thread effectively restarted); the machine re-queues
            // the sub-sub-task for any worker.
            exec.failures += 1;
        }
        let ev = PoolEvent::WorkerDone {
            worker: res.worker,
            sub: res.sub,
            ok: res.ok,
        };
        queue = sched.on_event(&sdag, ev)?;
        if let Some(l) = log.as_deref_mut() {
            l.push((ev, queue.clone()));
        }
    }

    debug_assert!(sched.is_done());
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::sched::replay_pool;
    use easyhps_core::GridDims;
    use easyhps_dp::sequence::{random_sequence, Alphabet};
    use easyhps_dp::{DpProblem, EditDistance};

    /// Differential test (threaded driver): record the real thread pool's
    /// event log while computing a tile, then replay the same events into
    /// a fresh machine — the actions must match batch for batch. Any
    /// divergence means the threaded driver smuggled policy of its own.
    #[test]
    fn threaded_pool_driver_matches_machine_replay() {
        let a = random_sequence(Alphabet::Dna, 32, 11);
        let b = random_sequence(Alphabet::Dna, 32, 12);
        let problem = EditDistance::new(a, b);
        let dims = problem.dims();
        let model = DagDataDrivenModel::builder(problem.pattern())
            .process_partition_size(dims)
            .thread_partition_size(GridDims::new(8, 8))
            .build();
        let config = Deployment::local(1, 3);
        let registry = easyhps_obs::Registry::new();
        let sm = SlaveMetrics::register(&registry, 0);
        let grid = RwLock::new(SharedGrid::<<EditDistance as DpProblem>::Cell>::new(dims));

        let mut log = PoolLog::new();
        let exec = std::thread::scope(|scope| {
            let pool = ComputePool::spawn(scope, 3, &problem, &grid, None, 0);
            execute_tile(
                &model,
                &pool,
                GridPos::new(0, 0),
                &config,
                &sm,
                &mut || {},
                Some(&mut log),
            )
        })
        .unwrap();
        assert!(exec.subtasks > 1, "tile actually ran on the pool");

        let sdag = model.slave_dag(GridPos::new(0, 0));
        let replayed =
            replay_pool(&sdag, 3, config.thread_mode, log.iter().map(|(e, _)| *e)).unwrap();
        let recorded: Vec<_> = log.into_iter().map(|(_, a)| a).collect();
        assert_eq!(
            replayed, recorded,
            "threaded driver and replay diverged on the same event log"
        );
    }
}
