//! The slave part: thread-level parallelization of one node (paper §V-C,
//! Figs. 11-12).
//!
//! Each slave rank runs [`run_slave`]: a scheduling loop that announces
//! idleness, receives sub-task assignments with their input strips,
//! executes them on a pool of computing threads over the node matrix —
//! one dense [`SharedGrid`] of the job's `dag_size`, the paper's layout —
//! and returns the computed region. The scheduling thread is computing
//! thread 0 of its own pool: it runs the tile's sub-sub-tasks itself,
//! beside `ct − 1` helper threads that are spawned **once per slave
//! lifetime** and reused across every ASSIGN — thread creation is not on
//! the per-tile path, and at one computing thread a tile is decoded,
//! computed and returned on one thread with no hand-off at all. Inside a
//! tile the workers pull, as the paper's idle workers pull from the
//! computable stack: the worker that finishes a sub-sub-task feeds the
//! tile's [`PoolSched`] and runs the next one it is given itself.
//! Computing-thread failures (panics) are caught and the sub-sub-task is
//! re-queued — the paper's "restart the corresponding computing thread".
//!
//! The loop talks to the master over a [`ReliableEndpoint`]: IDLE, DONE
//! and STATS are acknowledged and retransmitted wherever the link could
//! lose them, so a lossy link cannot silently lose a result. The slave
//! emits unreliable HEARTBEATs at `heartbeat_interval`, which is how the
//! master tells slow from dead: the loop beats between frames, and a
//! heart thread beats (and retransmits pending sends) while the loop runs
//! kernels, so a long sub-sub-task never reads as silence. A slave
//! learns that its master is gone from its link: a receive fails once
//! the master's side is closed and what it sent before is read. A failed
//! send ends nothing, so the END a finished master left is still heard.

use crate::config::Deployment;
use crate::obs::{lane_of, publish_endpoint_stats, registry_of, SlaveMetrics, TID_NET};
use crate::protocol::{tags, AssignMsg, DoneMsg, SlaveStatsMsg};
use crate::shared_grid::SharedGrid;
use crate::RuntimeError;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use easyhps_core::sched::{PoolAction, PoolEvent, PoolLog, PoolSched, SchedViolation};
use easyhps_core::{DagDataDrivenModel, GridDims, GridPos, TaskDag, TileRegion, VertexId};
use easyhps_dp::{Cell, DpProblem};
use easyhps_net::{Endpoint, NetError, Rank, ReliableEndpoint};
use easyhps_obs::{EventRecorder, LaneBuf};
use parking_lot::RwLock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// What worker 0 (the thread in [`execute_tile`]) and the helper threads
/// share.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when the tile in flight gets its outcome, or worker 0 a
    /// sub-sub-task in [`PoolState::own`].
    finished: Condvar,
}

/// Behind one mutex: the machine of the tile in flight and the routes to
/// the workers it dispatches to. The mutex also orders each kernel's
/// writes before the reads of the sub-sub-tasks they enable (DESIGN.md
/// §7).
struct PoolState {
    /// Job channels of workers `1..ct`, the helper threads (worker `w`
    /// at `w - 1`); cleared when the pool is dropped, which ends them.
    helpers: Vec<Sender<Job>>,
    /// Worker 0's next sub-sub-task, when a helper's report gave it one.
    own: Option<Job>,
    /// Installed and taken back by worker 0, so everything a tile
    /// allocates is allocated and freed there.
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
    /// metrics by worker 0 once the tile is done.
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
    /// returned for the caller to run itself; a `Run` for worker 0 waits
    /// in [`PoolState::own`]; any other goes over its helper's channel.
    /// Once the outcome is set, events are dropped.
    fn feed(&self, st: &mut PoolState, ev: PoolEvent, me: usize) -> Option<Job> {
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
                    if worker == me {
                        mine = Some(job);
                    } else if worker == 0 {
                        debug_assert!(st.own.is_none(), "worker 0 was given two jobs");
                        st.own = Some(job);
                        self.finished.notify_one();
                    } else {
                        st.helpers[worker - 1]
                            .send(job)
                            .expect("helpers outlive the pool's tiles");
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
    fn report(
        &self,
        st: &mut PoolState,
        worker: usize,
        sub: u32,
        ok: bool,
        elapsed_ns: u64,
    ) -> Option<Job> {
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
        self.feed(st, PoolEvent::WorkerDone { worker, sub, ok }, worker)
    }
}

/// Run `job`'s kernel against `grid`, catching a panic, and record one
/// `sub` compute span on `lane`. Returns whether the kernel completed and
/// how long it took.
fn run_job<P: DpProblem>(
    problem: &P,
    grid: &RwLock<SharedGrid<P::Cell>>,
    lane: &mut LaneBuf,
    job: Job,
) -> (bool, u64) {
    let start_ns = lane.now_ns();
    let t0 = Instant::now();
    let g = grid.read();
    // SAFETY: the tile's machine dispatches each region to exactly one
    // worker, and the DAG (validated) orders every read-region strictly
    // before this task. The machine's mutex provides the happens-before
    // edges: a predecessor's worker reported after its writes, and this
    // task was handed out under the lock after that report (or, when the
    // same thread ran both, follows it in program order).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut view = unsafe { g.task_view(job.region) };
        problem.compute_region(&mut view, job.region);
    }));
    drop(g);
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    lane.span_since(
        "sub",
        "compute",
        start_ns,
        Some(("sub", u64::from(job.sub))),
    );
    (outcome.is_ok(), elapsed_ns)
}

/// A persistent pool of `ct` computing threads over one node matrix:
/// worker 0 is whichever thread calls [`execute_tile`], workers `1..ct`
/// are helper threads.
///
/// Helpers are spawned once (inside a [`std::thread::scope`]) and then
/// serve any number of tiles. [`execute_tile`] starts a tile and runs
/// worker 0's sub-sub-tasks in place; from then on each worker reports to
/// the tile's machine itself and runs what it is given next, passing work
/// for an idle sibling over that sibling's channel (or, for worker 0,
/// through [`PoolState::own`]). Workers take the grid's read lock per
/// sub-sub-task, so the scheduling thread can take the write lock between
/// tiles (strip decode, result encode) without any thread teardown.
pub(crate) struct ComputePool<'a, P: DpProblem> {
    shared: Arc<PoolShared>,
    problem: &'a P,
    grid: &'a RwLock<SharedGrid<P::Cell>>,
    /// Worker 0's event lane.
    lane: LaneBuf,
    /// Computing threads, worker 0 included (fixed at construction).
    threads: u64,
}

impl<'a, P: DpProblem> ComputePool<'a, P> {
    /// A pool of `ct` computing threads computing `problem` regions
    /// against `grid`: the caller's thread is worker 0, and `ct - 1`
    /// helpers are spawned into `scope`. Panics inside a kernel are caught
    /// in place; the worker reports failure and stays alive for re-queued
    /// work. With a `recorder`, worker `w` records one `sub` compute span
    /// per job on event lane `(pid, 1 + w)`.
    pub(crate) fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'a>,
        ct: usize,
        problem: &'a P,
        grid: &'a RwLock<SharedGrid<P::Cell>>,
        recorder: Option<Arc<EventRecorder>>,
        pid: u32,
    ) -> Self {
        assert!(ct > 0, "a pool needs at least one computing thread");
        let lane_for = |w: usize| {
            recorder
                .as_ref()
                .map_or_else(LaneBuf::disabled, |r| r.lane(pid, 1 + w as u32))
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                helpers: Vec::with_capacity(ct - 1),
                own: None,
                tile: None,
            }),
            finished: Condvar::new(),
        });
        for w in 1..ct {
            let (tx, rx) = unbounded::<Job>();
            shared.lock().helpers.push(tx);
            let mut lane = lane_for(w);
            let shared = shared.clone();
            scope.spawn(move || {
                for mut job in rx.iter() {
                    // Run the handed sub-sub-task, then every one the
                    // machine gives this worker back as it reports.
                    loop {
                        let (ok, ns) = run_job(problem, grid, &mut lane, job);
                        match shared.report(&mut shared.lock(), w, job.sub, ok, ns) {
                            Some(next) => job = next,
                            None => break,
                        }
                    }
                }
            });
        }
        Self {
            shared,
            problem,
            grid,
            lane: lane_for(0),
            threads: ct as u64,
        }
    }

    /// Computing threads of this pool, worker 0 included.
    pub(crate) fn threads(&self) -> u64 {
        self.threads
    }
}

impl<P: DpProblem> Drop for ComputePool<'_, P> {
    /// Close every helper's channel: each finishes what it holds and exits.
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.helpers.clear();
    }
}

/// The slave's link to the master, shared by the scheduling loop and the
/// heart thread.
struct Link {
    rep: ReliableEndpoint,
    last_beat: Instant,
}

impl Link {
    /// Send a HEARTBEAT if `interval` has passed since the last one;
    /// true when one went out.
    fn beat_if_due(&mut self, interval: Duration, sm: &SlaveMetrics) -> Result<bool, NetError> {
        if self.last_beat.elapsed() < interval {
            return Ok(false);
        }
        self.rep
            .send_unreliable(Rank(0), tags::HEARTBEAT, bytes::Bytes::new())?;
        sm.heartbeats.inc();
        self.last_beat = Instant::now();
        Ok(true)
    }
}

/// Nothing that holds the link panics short of a bug; a poisoned link is
/// still the link.
fn lock_link(link: &Mutex<Link>) -> MutexGuard<'_, Link> {
    link.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run the slave loop on `ep` until the master sends END, keeping the
/// node matrix in one [`SharedGrid`] (the paper's layout). Returns the
/// stats that were reported back, or the transport error that killed the
/// slave (a `Dead` error simulates a node crash and is expected under
/// fault injection).
pub fn run_slave<P: DpProblem>(
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
) -> Result<SlaveStatsMsg, RuntimeError> {
    let master = Rank(0);
    let grid = RwLock::new(SharedGrid::new(model.dag_size()));
    // A slave computes one tile at a time, so a thread beyond the
    // sub-tasks of the largest tile never gets work. The bound also keeps
    // a job from outside (a serve client's spec) from asking this host
    // for more threads than it can spawn.
    let pp = model.process_partition_size();
    let dag = model.dag_size();
    let largest_tile = GridDims::new(pp.rows.min(dag.rows), pp.cols.min(dag.cols));
    let per_tile = largest_tile.tiled_by(model.thread_partition_size()).area();
    let ct = (config.threads_per_slave as u64).clamp(1, per_tile.max(1)) as usize;
    let interval = config.heartbeat_interval;
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
    let link = Mutex::new(Link {
        rep,
        last_beat: Instant::now(),
    });

    let res = std::thread::scope(|scope| {
        // The compute pool lives for the whole slave, not per tile.
        let mut pool = ComputePool::spawn(scope, ct, problem, &grid, obs.recorder.clone(), pid);
        // The heart beats while this thread runs kernels: whenever it
        // finds the link free, it sends what is due and retransmits what
        // is pending. It stops when this closure returns and drops `_stop`.
        let (_stop, stopped) = unbounded::<()>();
        let (link, sm) = (&link, &sm);
        scope.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                if let Ok(mut l) = link.try_lock() {
                    let _ = l.beat_if_due(interval, sm);
                    l.rep.pump();
                }
            }
        });

        loop {
            let env = {
                let mut l = lock_link(link);
                // A failed send ends nothing, a heartbeat here or a DONE
                // below: the master may have closed its end after sending
                // the END (and SHUTDOWN) still waiting here. The receive
                // decides, and a link that is gone fails it.
                if let Ok(true) = l.beat_if_due(interval, sm) {
                    lane.instant("heartbeat", "sched", None);
                }
                // A frame ends the wait; the heartbeat cadence bounds it.
                match l.rep.recv_timeout(interval) {
                    Ok(env) => env,
                    Err(NetError::Timeout) => continue,
                    Err(e) => return Err(e.into()),
                }
            };
            // SlaveStatsMsg is a view over the registry: every field was
            // maintained there as the tiles ran.
            let stats = || SlaveStatsMsg {
                tasks_done: sm.tiles.get(),
                subtasks_done: sm.subtasks.get(),
                busy_ns: sm.busy_ns.get(),
                thread_failures: sm.thread_failures.get(),
                threads_spawned: pool.threads(),
            };
            match env.tag {
                tags::END => {
                    let stats = stats();
                    let mut l = lock_link(link);
                    let _ = l.rep.send_reliable(master, tags::STATS, stats.encode());
                    // Linger until the STATS (and any late DONE) is acked,
                    // so the master's teardown collection cannot miss it;
                    // the linger ends on that ACK, at once where nothing
                    // was sent acked.
                    l.rep.drain_pending(config.sched_params().slave_linger);
                    publish_endpoint_stats(&registry, &format!("slave{w}"), &l.rep);
                    return Ok(stats);
                }
                tags::ASSIGN => {
                    let msg = AssignMsg::decode(&env.payload)?;
                    lane.instant("dispatch", "sched", Some(("task", u64::from(msg.task))));
                    let tile_start = lane.now_ns();
                    // Steps b-c: install input strips. Write lock: the pool
                    // is idle between tiles, so this never blocks.
                    for &(region, bytes) in &msg.inputs {
                        grid.write().as_exclusive().decode_region(region, bytes);
                    }
                    // Steps d-i: drive the slave DAG through the pool, this
                    // thread computing as worker 0.
                    let exec = execute_tile(model, &mut pool, msg.tile, config, sm, None)?;
                    sm.tiles.inc();
                    sm.subtasks.add(exec.subtasks);
                    sm.busy_ns.add(exec.busy_ns);
                    sm.thread_failures.add(exec.failures);
                    // Step h (slave side): return the computed region,
                    // encoded from the node matrix straight into the frame.
                    let done = DoneMsg {
                        task: msg.task,
                        // Echoed blindly: the slave has no epoch knowledge;
                        // the master fences completions from replaced
                        // incarnations by this echo alone.
                        epoch: msg.epoch,
                        region: msg.region,
                        output: &[],
                    };
                    let len = msg.region.area() as usize * P::Cell::WIRE_SIZE;
                    let payload = done.encode_with(len, |out| {
                        grid.write()
                            .as_exclusive()
                            .encode_region_into(msg.region, out)
                    });
                    let _ = lock_link(link)
                        .rep
                        .send_reliable(master, tags::DONE, payload);
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
                // The fleet is going away and this job's END never came.
                tags::SHUTDOWN => return Ok(stats()),
                other => debug_assert!(false, "slave received unexpected {other}"),
            }
        }
    });
    // A broken link ends this incarnation, not the slave: publish what it
    // did, so a rejoined successor's counters add to it (a crash, `Dead`,
    // publishes nothing).
    if matches!(res, Err(RuntimeError::Net(NetError::Disconnected))) {
        publish_endpoint_stats(&registry, &format!("slave{w}"), &lock_link(&link).rep);
    }
    res
}

/// Execute one master tile on the persistent pool, this thread computing
/// as worker 0: partition it by `thread_partition_size`, feed the tile's
/// [`PoolSched`] its `Start`, hand the helpers their first sub-sub-tasks
/// and run worker 0's in place; every worker drives the machine from
/// there (see [`ComputePool`]). Every scheduling decision — which worker
/// gets which sub-sub-task, what a failed kernel means — is the
/// machine's. Between its own jobs this thread waits, untimed, for a
/// helper's report to give it one or for the machine to say Done. Done
/// means every sub-sub-task has been reported, so the pool is quiescent
/// between calls; a machine error ends the slave, and with it the pool.
/// With `log`, every `(event, actions)` exchange is recorded, in the
/// order the machine saw it, for differential replay against the
/// virtual-time driver.
pub(crate) fn execute_tile<P: DpProblem>(
    model: &DagDataDrivenModel,
    pool: &mut ComputePool<'_, P>,
    tile: GridPos,
    config: &Deployment,
    metrics: &SlaveMetrics,
    log: Option<&mut PoolLog>,
) -> Result<TileExecution, RuntimeError> {
    let ComputePool {
        shared,
        problem,
        grid,
        lane,
        ..
    } = pool;
    let sdag = model.slave_dag(tile);
    let regions = (0..sdag.len() as u32)
        .map(|s| model.sub_region(tile, sdag.vertex(VertexId(s)).pos))
        .collect();
    let mut st = shared.lock();
    let workers = st.helpers.len() + 1;
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
    let mut next = shared.feed(&mut st, PoolEvent::Start, 0);
    loop {
        let job = match next.take().or_else(|| st.own.take()) {
            Some(job) => job,
            None if st.tile.as_ref().is_some_and(|t| t.outcome.is_none()) => {
                st = shared.finished.wait(st).expect(POISONED);
                continue;
            }
            None => break,
        };
        drop(st);
        let (ok, ns) = run_job(*problem, *grid, lane, job);
        st = shared.lock();
        next = shared.report(&mut st, 0, job.sub, ok, ns);
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
    /// One worker is the calling thread alone; three add two helpers.
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
        for workers in [1, 3] {
            let config = Deployment::local(1, workers);
            let registry = easyhps_obs::Registry::new();
            let sm = SlaveMetrics::register(&registry, 0);
            let grid = RwLock::new(SharedGrid::<<EditDistance as DpProblem>::Cell>::new(dims));

            let mut log = PoolLog::new();
            let exec = std::thread::scope(|scope| {
                let mut pool = ComputePool::spawn(scope, workers, &problem, &grid, None, 0);
                execute_tile(
                    &model,
                    &mut pool,
                    GridPos::new(0, 0),
                    &config,
                    &sm,
                    Some(&mut log),
                )
            })
            .unwrap();
            assert!(exec.subtasks > 1, "tile actually ran on the pool");
            assert_eq!(grid.into_inner().to_matrix(), problem.solve_sequential());

            let sdag = model.slave_dag(GridPos::new(0, 0));
            let replayed = replay_pool(
                &sdag,
                workers,
                config.thread_mode,
                log.iter().map(|(e, _)| *e),
            )
            .unwrap();
            let recorded: Vec<_> = log.into_iter().map(|(_, a)| a).collect();
            assert_eq!(
                replayed, recorded,
                "threaded driver and replay diverged on the same event log ({workers} workers)"
            );
        }
    }

    /// The slave of a master that answered its IDLE with one ASSIGN (and,
    /// with `end`, an END) and closed its link, over a Unix-domain pair.
    /// The tile takes the slave long enough that the close lands while it
    /// computes, so its DONE and its due heartbeat go into the closed link.
    #[cfg(unix)]
    fn slave_after_master_closes(end: bool) -> Result<SlaveStatsMsg, RuntimeError> {
        use easyhps_net::socket::{connect, SocketConfig, SocketListener};
        use easyhps_net::NetAddr;
        let path = std::env::temp_dir().join(format!(
            "easyhps-slave-close-{}-{end}.sock",
            std::process::id()
        ));
        let listener =
            SocketListener::bind(&NetAddr::Uds(path.clone()), SocketConfig::default()).unwrap();
        let addr = listener.local_addr();
        let dial = std::thread::spawn(move || {
            connect(&addr, Some(1), SocketConfig::default(), None).unwrap()
        });
        let (mut master, _) = listener.accept_ranks(1, None).unwrap();
        let (ep, _) = dial.join().unwrap();
        let _ = std::fs::remove_file(&path);

        let problem = EditDistance::new(
            random_sequence(Alphabet::Dna, 1500, 1),
            random_sequence(Alphabet::Dna, 1500, 2),
        );
        let dims = problem.dims();
        let model = DagDataDrivenModel::builder(problem.pattern())
            .process_partition_size(dims)
            .thread_partition_size(GridDims::new(250, 250))
            .build();
        let mut config = Deployment::local(1, 1);
        config.heartbeat_interval = Duration::from_millis(1);
        let slave = std::thread::spawn(move || run_slave(ep, &problem, &model, &config));

        assert_eq!(master.recv().unwrap().tag, tags::IDLE);
        let assign = AssignMsg {
            task: 0,
            epoch: 0,
            tile: GridPos::new(0, 0),
            region: TileRegion::new(0, dims.rows, 0, dims.cols),
            inputs: Vec::new(),
        };
        master.send(Rank(1), tags::ASSIGN, assign.encode()).unwrap();
        if end {
            master
                .send(Rank(1), tags::END, bytes::Bytes::new())
                .unwrap();
        }
        drop(master);
        slave.join().unwrap()
    }

    /// A master that finished, sent END and closed its link leaves the END
    /// readable: the DONE and the heartbeat that fail into the closed link
    /// do not end the slave, the END does.
    #[cfg(unix)]
    #[test]
    fn an_end_sent_before_the_master_closed_still_ends_the_job() {
        let res = slave_after_master_closes(true);
        assert!(res.is_ok(), "{res:?}");
    }

    /// A master that vanished mid-job (no END) still ends its slave with
    /// `Disconnected`, which the rejoin path redials on.
    #[cfg(unix)]
    #[test]
    fn a_master_gone_mid_job_ends_the_slave_disconnected() {
        let res = slave_after_master_closes(false);
        assert!(
            matches!(res, Err(RuntimeError::Net(NetError::Disconnected))),
            "{res:?}"
        );
    }
}
