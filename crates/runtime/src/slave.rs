//! The slave part: thread-level parallelization of one node (paper §V-C,
//! Figs. 11-12).
//!
//! Each slave rank runs [`run_slave`]: a scheduling loop that announces
//! idleness, receives sub-task assignments with their input strips,
//! executes them on a pool of computing threads over the shared node
//! matrix, and returns the computed region. The pool is spawned **once per
//! slave lifetime** and reused across every ASSIGN — thread creation is
//! not on the per-tile path. Inside a tile the workers pull, as the
//! paper's idle workers pull from the computable stack: the worker that
//! finishes a sub-sub-task feeds the tile's [`PoolSched`] and runs the
//! next one it is given itself, so the scheduling thread only starts a
//! tile and wakes once when it is done. Computing-thread failures
//! (panics) are caught and the sub-sub-task is re-queued — the paper's
//! "restart the corresponding computing thread".
//!
//! The loop talks to the master over a [`ReliableEndpoint`]: IDLE, DONE
//! and STATS are acknowledged and retransmitted wherever the link could
//! lose them, so a lossy link cannot silently lose a result. In between —
//! and *during* long tile computations, since the scheduling thread never
//! runs a kernel — the slave emits unreliable HEARTBEATs at
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
use crossbeam::channel::{unbounded, Sender};
use easyhps_core::sched::{PoolAction, PoolEvent, PoolLog, PoolSched, SchedViolation};
use easyhps_core::{DagDataDrivenModel, GridPos, TaskDag, TileRegion, VertexId};
use easyhps_dp::DpProblem;
use easyhps_net::{Endpoint, NetError, Rank, ReliableEndpoint};
use easyhps_obs::{EventRecorder, LaneBuf};
use parking_lot::RwLock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Outcome of executing one master-level sub-task on the thread pool.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TileExecution {
    pub subtasks: u64,
    pub busy_ns: u64,
    pub failures: u64,
}

/// One sub-sub-task handed to a computing thread.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Dense id in the tile's slave DAG.
    sub: u32,
    /// Global cell region of the sub-sub-task.
    region: TileRegion,
}

/// What the scheduling thread and the computing threads share.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when the tile in flight gets its outcome.
    finished: Condvar,
}

/// Behind one mutex: the machine of the tile in flight and the routes to
/// the workers it dispatches to. The mutex also orders each kernel's
/// writes before the reads of the sub-sub-tasks they enable (DESIGN.md
/// §7).
struct PoolState {
    /// Per-worker job channels; cleared when the pool is dropped, which
    /// ends the workers.
    workers: Vec<Sender<Job>>,
    /// Installed and taken back by the scheduling thread, so everything a
    /// tile allocates is allocated and freed there.
    tile: Option<TileRun>,
}

/// One master tile in flight: its slave DAG and machine, and what the
/// workers report to it.
struct TileRun {
    sdag: TaskDag,
    /// Global cell region of each sub-sub-task, by dense id.
    regions: Vec<TileRegion>,
    sched: PoolSched,
    /// The machine's actions for the event being fed, kept so that a
    /// worker feeding the machine allocates nothing.
    actions: Vec<PoolAction>,
    exec: TileExecution,
    /// Kernel time of each finished sub-sub-task, recorded into the
    /// metrics by the scheduling thread.
    latencies: Vec<u64>,
    log: Option<PoolLog>,
    /// `Ok` once the machine said Done, `Err` if it refused an event.
    outcome: Option<Result<(), SchedViolation>>,
}

/// No code that runs under the pool's lock panics short of a bug.
const POISONED: &str = "pool lock poisoned by a panic while feeding the machine";

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect(POISONED)
    }

    /// Feed `ev` to the tile's machine and perform its actions — the one
    /// place a [`PoolAction`] is interpreted. A `Run` for worker `me` is
    /// returned for the caller to run itself; any other `Run` goes over
    /// its worker's channel. Once the outcome is set, events are dropped.
    fn feed(&self, st: &mut PoolState, ev: PoolEvent, me: Option<usize>) -> Option<Job> {
        let t = st.tile.as_mut().filter(|t| t.outcome.is_none())?;
        t.actions.clear();
        if let Err(e) = t.sched.on_event_into(&t.sdag, ev, &mut t.actions) {
            t.outcome = Some(Err(e));
            self.finished.notify_one();
            return None;
        }
        if let Some(log) = &mut t.log {
            log.push((ev, t.actions.clone()));
        }
        let mut mine = None;
        for a in t.actions.drain(..) {
            match a {
                PoolAction::Run { worker, sub } => {
                    let job = Job {
                        sub,
                        region: t.regions[sub as usize],
                    };
                    if Some(worker) == me {
                        mine = Some(job);
                    } else {
                        st.workers[worker]
                            .send(job)
                            .expect("workers outlive the pool's tiles");
                    }
                }
                PoolAction::Done => {
                    t.outcome = Some(Ok(()));
                    self.finished.notify_one();
                }
            }
        }
        mine
    }

    /// Worker `worker` finished `sub`: account for it, feed the machine,
    /// and return the worker's own next sub-sub-task.
    fn worker_done(&self, worker: usize, sub: u32, ok: bool, elapsed_ns: u64) -> Option<Job> {
        let mut st = self.lock();
        let t = st.tile.as_mut()?;
        t.exec.busy_ns += elapsed_ns;
        t.latencies.push(elapsed_ns);
        if ok {
            t.exec.subtasks += 1;
        } else {
            // Thread-level fault tolerance: the panic was caught (the
            // worker effectively restarted); the machine re-queues the
            // sub-sub-task for any worker.
            t.exec.failures += 1;
        }
        self.feed(
            &mut st,
            PoolEvent::WorkerDone { worker, sub, ok },
            Some(worker),
        )
    }
}

/// A persistent pool of computing threads over one node matrix.
///
/// Threads are spawned once (inside a [`std::thread::scope`]) and then
/// serve any number of tiles. [`execute_tile`] hands a tile its first
/// sub-sub-tasks over per-worker channels; from then on each worker
/// reports to the tile's machine itself and runs what it is given next,
/// passing work for an idle sibling over that sibling's channel. Workers
/// take the grid's read lock per sub-sub-task, so the scheduling thread
/// can take the write lock between tiles (strip decode, result encode)
/// without any thread teardown.
pub(crate) struct ComputePool {
    shared: Arc<PoolShared>,
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
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                workers: Vec::with_capacity(ct),
                tile: None,
            }),
            finished: Condvar::new(),
        });
        for w in 0..ct {
            let (tx, rx) = unbounded::<Job>();
            shared.lock().workers.push(tx);
            let recorder = recorder.clone();
            let shared = shared.clone();
            scope.spawn(move || {
                let mut wl = recorder.map_or_else(LaneBuf::disabled, |r| r.lane(pid, 1 + w as u32));
                for mut job in rx.iter() {
                    // Run the handed sub-sub-task, then every one the
                    // machine gives this worker back as it reports.
                    loop {
                        let start_ns = wl.now_ns();
                        let t0 = Instant::now();
                        let g = grid.read();
                        // SAFETY: the tile's machine dispatches each region
                        // to exactly one worker, and the DAG (validated)
                        // orders every read-region strictly before this
                        // task. The machine's mutex provides the
                        // happens-before edges: a predecessor's worker
                        // reported after its writes, and this task was
                        // handed out under the lock after that report.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let mut view = unsafe { g.task_view(job.region) };
                            problem.compute_region(&mut view, job.region);
                        }));
                        drop(g);
                        let elapsed_ns = t0.elapsed().as_nanos() as u64;
                        let arg = Some(("sub", u64::from(job.sub)));
                        wl.span_since("sub", "compute", start_ns, arg);
                        match shared.worker_done(w, job.sub, outcome.is_ok(), elapsed_ns) {
                            Some(next) => job = next,
                            None => break,
                        }
                    }
                }
            });
        }
        Self {
            shared,
            threads_spawned: ct as u64,
        }
    }

    /// Computing threads spawned over this pool's lifetime.
    pub(crate) fn threads_spawned(&self) -> u64 {
        self.threads_spawned
    }
}

impl Drop for ComputePool {
    /// Close every worker's channel: each finishes what it holds and exits.
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.workers.clear();
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

    // Step a: announce idleness (acknowledged wherever it could be
    // dropped: a dropped IDLE would otherwise starve this slave forever).
    rep.send_reliable(master, tags::IDLE, bytes::Bytes::new())?;

    let res = std::thread::scope(|scope| {
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
                    // the linger ends on that ACK, at once where nothing
                    // was sent acked.
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
                // The master probing the link of a slave it excluded.
                tags::HEARTBEAT => {}
                other => {
                    debug_assert!(false, "slave received unexpected {other}");
                }
            }
        }
    });
    // A broken link ends this incarnation, not the slave: publish what it
    // did, so a rejoined successor's counters add to it (a crash, `Dead`,
    // publishes nothing).
    if matches!(res, Err(RuntimeError::Net(NetError::Disconnected))) {
        publish_endpoint_stats(&registry, &format!("slave{w}"), &rep);
    }
    res
}

/// Execute one master tile on the persistent worker pool: partition it by
/// `thread_partition_size`, feed the tile's [`PoolSched`] its `Start` and
/// hand the first sub-sub-tasks out; the workers drive the machine from
/// there (see [`ComputePool`]). Every scheduling decision — which worker
/// gets which sub-sub-task, what a failed kernel means — is the
/// machine's. This thread wakes once, when the machine says Done, and
/// otherwise every `heartbeat_interval` to call `on_wait` — the slave loop
/// heartbeats there so a long sub-sub-task never reads as silence. Done
/// means every sub-sub-task has been reported, so the pool is quiescent
/// between calls; a machine error ends the slave, and with it the pool.
/// With `log`, every `(event, actions)` exchange is recorded, in the
/// order the machine saw it, for differential replay against the
/// virtual-time driver.
pub(crate) fn execute_tile(
    model: &DagDataDrivenModel,
    pool: &ComputePool,
    tile: GridPos,
    config: &Deployment,
    metrics: &SlaveMetrics,
    on_wait: &mut dyn FnMut(),
    log: Option<&mut PoolLog>,
) -> Result<TileExecution, RuntimeError> {
    let shared = &pool.shared;
    let sdag = model.slave_dag(tile);
    let regions = (0..sdag.len() as u32)
        .map(|s| model.sub_region(tile, sdag.vertex(VertexId(s)).pos))
        .collect();
    let mut st = shared.lock();
    let workers = st.workers.len();
    st.tile = Some(TileRun {
        sched: PoolSched::new(&sdag, workers, config.thread_mode),
        actions: Vec::with_capacity(workers + 1),
        exec: TileExecution::default(),
        latencies: Vec::with_capacity(sdag.len()),
        log: log.as_ref().map(|_| PoolLog::new()),
        outcome: None,
        sdag,
        regions,
    });
    shared.feed(&mut st, PoolEvent::Start, None);
    let pending = |st: &PoolState| st.tile.as_ref().is_some_and(|t| t.outcome.is_none());
    while pending(&st) {
        let (guard, wait) = shared
            .finished
            .wait_timeout(st, config.heartbeat_interval)
            .expect(POISONED);
        st = guard;
        if wait.timed_out() && pending(&st) {
            drop(st);
            on_wait();
            st = shared.lock();
        }
    }
    let run = st.tile.take().expect("installed above");
    drop(st);
    for &ns in &run.latencies {
        metrics.subtask_latency.observe(ns);
    }
    if let (Some(log), Some(recorded)) = (log, run.log) {
        *log = recorded;
    }
    run.outcome.expect("the wait ends on an outcome")?;
    debug_assert!(run.sched.is_done());
    Ok(run.exec)
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
