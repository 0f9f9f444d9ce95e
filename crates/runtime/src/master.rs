//! The master part: the threaded driver of the process-level scheduler
//! (paper §V-B, Figs. 9-10).
//!
//! Every scheduling decision — dispatch and DONE accounting, the overdue
//! drain, slow-vs-dead exclusion and re-admission, static→dynamic orphan
//! fallback, budget stop, teardown drain — lives in the pure
//! [`MasterSched`] state machine. This file is the I/O
//! shell: it translates network frames and real timers into
//! [`MasterEvent`]s, and the machine's
//! [`MasterAction`]s into reliable sends, matrix writes,
//! trace spans and metrics. The old separate fault-tolerance thread is
//! gone: the FT sweep is the [`MasterEvent::FtTick`] event,
//! fired from the single loop at `ft_poll` cadence, so the FT-vs-scheduler
//! interleaving class no longer exists in the runtime at all (and the
//! deterministic explorer can place the sweep anywhere it likes).
//!
//! Control messages travel over a [`ReliableEndpoint`]: every
//! ASSIGN/DONE/END is sequence-numbered, acknowledged and retransmitted
//! with backoff, so a lossy link delays the protocol instead of breaking
//! it. Liveness is decided by heartbeats, not by individual message
//! outcomes: a slave is excluded only when it is *unreachable* (its
//! endpoint is gone — permanent) or has been *silent* past
//! `heartbeat_timeout` (no frame of any kind, including acks). A slave
//! that is merely slow keeps heartbeating and stays in the schedule even
//! if its current sub-task is timed out and redistributed; a slave that
//! was excluded during a transient outage is re-admitted the moment it is
//! heard from again.
//!
//! One deviation from the paper's thread layout: instead of one blocking
//! worker thread per slave node sharing the MPI context, the master
//! multiplexes all slaves on its single endpoint and keeps a worker *slot*
//! per slave. The observable protocol and scheduling behaviour are
//! identical; only the thread count differs.

use crate::checkpoint::Checkpoint;
use crate::config::{Deployment, MasterStats};
use crate::durable::CheckpointStore;
use crate::obs::{lane_of, publish_endpoint_stats, registry_of, MasterMetrics, TID_FT, TID_NET};
use crate::protocol::{tags, AssignMsg, DoneMsg, SlaveStatsMsg};
use crate::RuntimeError;
use bytes::Bytes;
use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SendFailKind};
use easyhps_core::{DagDataDrivenModel, TaskDag, Trace, VertexId};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_net::{
    Endpoint, FailReason, FleetAcceptor, MembershipEvent, NetError, Rank, ReliableEndpoint,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Control surface between an elastic fleet and its running master.
///
/// The acceptor (when the fleet is socket-backed) admits reconnecting and
/// brand-new slaves in the background; the master drains its membership
/// events every loop iteration and re-fences the transport. The drain
/// list carries operator requests ("release rank N once its in-flight
/// work lands") from the daemon's RPC surface into the same loop. A local
/// fleet has no acceptor but can still drain.
#[derive(Clone, Default)]
pub struct FleetControl {
    /// Elastic acceptor admitting reconnections and mid-run joiners.
    /// `None` for fixed-membership (local or `accept_ranks`) fleets,
    /// where only drain requests apply.
    pub acceptor: Option<Arc<FleetAcceptor>>,
    /// Ranks the operator asked to drain. The running master consumes
    /// them, stops assigning to each, and releases the rank back to the
    /// fleet free-list once its last in-flight sub-task lands.
    pub drain: Arc<Mutex<Vec<u32>>>,
    /// Ranks the master released (drain completed). The fleet reads this
    /// at the next job boundary to retire the rank from fixed-membership
    /// bookkeeping; elastic fleets learn the same thing from the
    /// acceptor's free-list.
    pub released: Arc<Mutex<Vec<u32>>>,
}

impl FleetControl {
    /// Control block over `acceptor` (pass `None` for a fixed fleet).
    pub fn new(acceptor: Option<Arc<FleetAcceptor>>) -> Self {
        Self {
            acceptor,
            drain: Arc::new(Mutex::new(Vec::new())),
            released: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Ask the running (or next) master to drain `rank` gracefully.
    pub fn request_drain(&self, rank: u32) {
        self.drain.lock().unwrap().push(rank);
    }
}

/// Perform a [`MasterAction::Release`]: hand the rank back to the
/// acceptor's free-list (elastic fleets) and record it for the fleet's
/// job-boundary bookkeeping.
fn fleet_release(fleet: Option<&FleetControl>, slave: usize) {
    if let Some(fc) = fleet {
        let rank = slave as u32 + 1;
        if let Some(acc) = &fc.acceptor {
            acc.release_rank(rank);
        }
        fc.released.lock().unwrap().push(rank);
    }
}

/// Outcome of a master run.
pub struct MasterOutput<C: easyhps_dp::Cell> {
    /// The fully computed global matrix.
    pub matrix: DpMatrix<C>,
    /// Master counters.
    pub stats: MasterStats,
    /// Stats reported by each slave on shutdown (None for dead slaves).
    pub slave_stats: Vec<Option<SlaveStatsMsg>>,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Master-observed schedule: one span per tile execution
    /// (assign-sent to completion-accepted), lane per slave. Render with
    /// [`Trace::gantt`].
    pub trace: Trace,
    /// Snapshot of the finished sub-tasks, present when the run stopped at
    /// a tile budget before completing; resume with
    /// [`crate::EasyHps::resume_from`].
    pub checkpoint: Option<Checkpoint>,
}

/// Driver-side bookkeeping for accepted completions, shared between the
/// main loop and the teardown drain.
struct DoneCtx<'a, C: easyhps_dp::Cell> {
    t0: Instant,
    started: &'a mut Vec<Option<(Instant, u64)>>,
    trace: &'a mut Trace,
    slot_lanes: &'a mut Vec<easyhps_obs::LaneBuf>,
    matrix: &'a mut DpMatrix<C>,
    mm: &'a MasterMetrics,
    completed_tasks: &'a mut Vec<VertexId>,
}

impl<C: easyhps_dp::Cell> DoneCtx<'_, C> {
    /// The machine accepted `msg` from slave `w`: close the trace span,
    /// decode the result region into the global matrix, count it.
    fn accept(&mut self, w: usize, msg: &DoneMsg) {
        if let Some((start, start_ns)) = self.started[msg.task as usize].take() {
            let end = Instant::now();
            self.trace.record(
                format!("slave{w}"),
                "#",
                start.duration_since(self.t0).as_nanos() as u64,
                end.duration_since(self.t0).as_nanos() as u64,
            );
            self.mm
                .tile_latency
                .observe(end.duration_since(start).as_nanos() as u64);
            self.slot_lanes[w].span_since(
                "tile",
                "master",
                start_ns,
                Some(("task", u64::from(msg.task))),
            );
        }
        self.matrix.decode_region(msg.region, &msg.output);
        self.mm.completed.inc();
        self.completed_tasks.push(VertexId(msg.task));
    }
}

/// Map a transport failure reason onto the machine's vocabulary.
fn fail_kind(reason: FailReason) -> SendFailKind {
    match reason {
        FailReason::Unreachable => SendFailKind::Unreachable,
        FailReason::NoAck => SendFailKind::NoAck,
    }
}

/// Run the master loop to completion. `ep` must be rank 0 of a network
/// whose ranks `1..=config.slaves` run [`crate::run_slave`].
///
/// Checkpoint/restart controls: `resume` preloads the finished sub-tasks
/// of a prior run; `tile_budget` stops dispatching after that many
/// completions (counting resumed ones) and returns a [`Checkpoint`] in
/// the output.
///
/// Elastic membership: when `fleet` is given, the master polls its
/// acceptor for membership changes every loop iteration — splices are
/// transparent, new incarnations are re-fenced under a bumped epoch
/// (their zombie DONEs rejected by the epoch echo), mid-run joiners grow
/// the schedule — and consumes its drain requests.
#[allow(clippy::too_many_lines)] // the one I/O shell around the machine
pub fn run_master<P: DpProblem>(
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
    resume: Option<&Checkpoint>,
    tile_budget: Option<u64>,
    fleet: Option<&FleetControl>,
) -> Result<MasterOutput<P::Cell>, RuntimeError> {
    if config.slaves == 0 {
        return Err(RuntimeError::NoSlaves);
    }
    let t0 = Instant::now();
    let params = config.sched_params();
    let mut rep = ReliableEndpoint::new(ep, config.retry.clone());

    let obs = config.obs.clone();
    let registry = registry_of(&obs);
    let mm = MasterMetrics::register(&registry);
    let mut lane = lane_of(&obs, 0, 0);
    let mut ft_lane = lane_of(&obs, 0, TID_FT);
    rep.set_event_lane(lane_of(&obs, 0, TID_NET));
    if let Some(rec) = &obs.recorder {
        rec.name_process(0, "master");
        rec.name_thread(0, 0, "scheduler");
        for w in 0..config.slaves {
            rec.name_thread(0, 1 + w as u32, format!("slot{w}"));
        }
        rec.name_thread(0, TID_FT, "fault-tolerance");
        rec.name_thread(0, TID_NET, "net");
    }

    // Step a: master DAG Data Driven Model initialization (+ validation:
    // the race-freedom argument of the shared grid depends on it).
    let dag: TaskDag = model.master_dag();
    dag.validate()?;
    let mut n_slaves = config.slaves;
    let acceptor = fleet.and_then(|f| f.acceptor.as_deref());
    // Epoch each slot's ASSIGNs are stamped with. The slave echoes the
    // stamp blindly, so any init consistent with the fencing check is
    // correct — the acceptor's global epoch at start covers the initial
    // members; what matters is the bump on Rejoined. Fixed fleets stay
    // at epoch 0 forever and the fence never fires.
    let epoch0 = acceptor.map_or(0, FleetAcceptor::epoch);
    let mut cur_epoch: Vec<u64> = vec![epoch0; n_slaves];

    // Durable checkpoint store: opened before anything touches the
    // network, so a refused directory (dims mismatch, prior run present
    // without --resume) fails the run early.
    let dims = model.dag_size();
    let mut store = match &config.checkpoint {
        Some(pol) => Some(CheckpointStore::open(
            pol,
            dims.rows,
            dims.cols,
            resume.is_some(),
        )?),
        None => None,
    };
    // Prefix of `completed_tasks` already flushed to the store.
    let mut flush_idx: usize = 0;
    let mut last_flush = t0;

    // Steps b-i all live in the state machine; this function only drives
    // it. Nanosecond virtual time = wall time since `t0`.
    let mut sched = MasterSched::new(&dag, n_slaves, config.process_mode, &params, tile_budget);
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;

    let mut matrix = DpMatrix::<P::Cell>::new(model.dag_size());
    let mut trace = Trace::new();
    // Start instants per in-flight task for trace spans: the wall-clock
    // instant for `Trace` / tile-latency, and the recorder timestamp for
    // the slot-lane event span.
    let mut started: Vec<Option<(Instant, u64)>> = vec![None; dag.len()];
    // One event lane per slave slot: tile spans from assign-sent to
    // completion-accepted, as the master observed them.
    let mut slot_lanes: Vec<easyhps_obs::LaneBuf> = (0..n_slaves)
        .map(|w| lane_of(&obs, 0, 1 + w as u32))
        .collect();
    let mut completed_tasks: Vec<VertexId> = Vec::new();
    // Reliable-send bookkeeping: (slave, sequence number) of every ASSIGN
    // whose delivery is not yet known, so an abandoned send can roll the
    // dispatch back.
    let mut inflight: HashMap<(usize, u64), u32> = HashMap::new();

    // Resume: restore finished regions and fast-forward the machine. The
    // finished set of a valid checkpoint is ancestor-closed, so walking a
    // topological order completes each task the moment it is computable;
    // a corrupt set surfaces as a SchedulerInvariant error, not a panic.
    if let Some(cp) = resume {
        cp.restore_into(&mut matrix);
        let preload: std::collections::HashSet<u32> = cp.finished_tasks().map(|v| v.0).collect();
        for v in dag.topological_order()? {
            if preload.contains(&v.0) {
                sched.preload_finished(&dag, v)?;
                completed_tasks.push(v);
                mm.resumed.inc();
                if store.as_ref().is_some_and(|st| st.is_durable(v.0)) {
                    mm.restored.inc();
                }
            }
        }
        lane.instant("resume", "checkpoint", Some(("tiles", mm.resumed.get())));
    }
    let _ = problem; // kernels run slave-side; the master only routes data

    let mut last_ft = Instant::now();

    let result: Result<(), RuntimeError> = (|| {
        'run: loop {
            let now = Instant::now();

            // Membership first: a rejoin must re-fence the transport
            // before this iteration stamps any new ASSIGN, and a joiner
            // must exist before its first frame is dispatched on.
            if let Some(acc) = acceptor {
                for ev in acc.poll_events() {
                    let (rank, epoch) = match ev {
                        // Same incarnation, spliced stream: the reliable
                        // layer's retransmits already cover the gap.
                        MembershipEvent::Relinked { rank } => {
                            lane.instant("relink", "fleet", Some(("rank", u64::from(rank))));
                            continue;
                        }
                        MembershipEvent::Rejoined { rank, epoch }
                        | MembershipEvent::Joined { rank, epoch } => (rank, epoch),
                    };
                    let w = (rank as usize).wrapping_sub(1);
                    if rank == 0 {
                        continue;
                    }
                    // A joiner past the current fleet grows every
                    // driver-side per-slot structure before the machine.
                    if w >= n_slaves {
                        for i in n_slaves..=w {
                            slot_lanes.push(lane_of(&obs, 0, 1 + i as u32));
                            cur_epoch.push(epoch0);
                            if let Some(rec) = &obs.recorder {
                                rec.name_thread(0, 1 + i as u32, format!("slot{i}"));
                            }
                        }
                        n_slaves = w + 1;
                    }
                    rep.ensure_ranks(w + 2);
                    for a in sched.on_event(
                        &dag,
                        MasterEvent::Rejoined {
                            slave: w,
                            now_ns: ns(Instant::now()),
                        },
                    )? {
                        match a {
                            MasterAction::Redispatch { task } => {
                                mm.redispatched.inc();
                                lane.instant(
                                    "rejoin-redispatch",
                                    "fleet",
                                    Some(("task", u64::from(task))),
                                );
                            }
                            MasterAction::Readmit { slave } => {
                                mm.dead_slaves.add(-1);
                                mm.readmissions.inc();
                                lane.instant("readmit", "ft", Some(("slave", slave as u64)));
                            }
                            MasterAction::Refence { slave } => {
                                // New incarnation: its sequence numbers
                                // restarted, its predecessor's stamps are
                                // now stale, and its (slave, seq) ASSIGN
                                // bookkeeping is void.
                                rep.reset_peer(Rank(slave as u32 + 1));
                                inflight.retain(|(sw, _), _| *sw != slave);
                                cur_epoch[slave] = epoch;
                                mm.rejoins.inc();
                                lane.instant("rejoin", "fleet", Some(("slave", slave as u64)));
                            }
                            other => debug_assert!(false, "rejoin emitted {other:?}"),
                        }
                    }
                }
            }

            // Operator drain requests, from the CLI/daemon surface.
            if let Some(fc) = fleet {
                let drains: Vec<u32> = std::mem::take(&mut *fc.drain.lock().unwrap());
                for rank in drains {
                    let w = (rank as usize).wrapping_sub(1);
                    if rank == 0 || w >= n_slaves {
                        continue;
                    }
                    for a in sched.on_event(&dag, MasterEvent::DrainSlave { slave: w })? {
                        match a {
                            MasterAction::Release { slave } => {
                                fleet_release(fleet, slave);
                                lane.instant("release", "fleet", Some(("slave", slave as u64)));
                            }
                            other => debug_assert!(false, "drain emitted {other:?}"),
                        }
                    }
                }
            }

            // Sync heartbeat observations into the machine's liveness
            // record.
            for w in 0..n_slaves {
                if let Some(t) = rep.last_heard(Rank(w as u32 + 1)) {
                    sched.on_event(
                        &dag,
                        MasterEvent::Heard {
                            slave: w,
                            at_ns: ns(t),
                        },
                    )?;
                }
            }

            // The fault-tolerance sweep, at its own cadence inside the
            // one loop (no FT thread to race the scheduler).
            if last_ft.elapsed() >= params.ft_poll {
                last_ft = Instant::now();
                for a in sched.on_event(
                    &dag,
                    MasterEvent::FtTick {
                        now_ns: ns(last_ft),
                    },
                )? {
                    match a {
                        MasterAction::Redispatch { task } => {
                            mm.redispatched.inc();
                            ft_lane.instant("redispatch", "ft", Some(("task", u64::from(task))));
                        }
                        MasterAction::Exclude { slave } => {
                            mm.exclusions.inc();
                            mm.dead_slaves.add(1);
                            ft_lane.instant("exclude", "ft", Some(("slave", slave as u64)));
                        }
                        // The overdue drain can take back a draining
                        // slave's last in-flight sub-task.
                        MasterAction::Release { slave } => {
                            fleet_release(fleet, slave);
                            ft_lane.instant("release", "fleet", Some(("slave", slave as u64)));
                        }
                        other => debug_assert!(false, "FT sweep emitted {other:?}"),
                    }
                }
            }

            // One scheduling pass: re-admission, termination checks and
            // dispatch all come back as actions.
            for a in sched.on_event(&dag, MasterEvent::Tick { now_ns: ns(now) })? {
                match a {
                    MasterAction::Finished | MasterAction::BudgetStop => break 'run,
                    MasterAction::AllSlavesDead => return Err(RuntimeError::AllSlavesDead),
                    MasterAction::Readmit { slave } => {
                        mm.dead_slaves.add(-1);
                        mm.readmissions.inc();
                        lane.instant("readmit", "ft", Some(("slave", slave as u64)));
                    }
                    MasterAction::Assign { slave: w, task } => {
                        // Steps c-d: encode the tile's input strips and
                        // send the ASSIGN.
                        let v = VertexId(task);
                        let vertex = dag.vertex(v);
                        let inputs: Vec<_> = vertex
                            .data_deps
                            .iter()
                            .map(|d| {
                                let region = model.tile_region(dag.vertex(*d).pos);
                                (region, matrix.encode_region(region))
                            })
                            .collect();
                        let msg = AssignMsg {
                            task,
                            epoch: cur_epoch[w],
                            tile: vertex.pos,
                            region: model.tile_region(vertex.pos),
                            inputs,
                        };
                        match rep.send_reliable(Rank(w as u32 + 1), tags::ASSIGN, msg.encode()) {
                            Ok(seq) => {
                                mm.dispatched.inc();
                                started[v.index()] = Some((Instant::now(), slot_lanes[w].now_ns()));
                                inflight.insert((w, seq), task);
                            }
                            Err(_) => {
                                // Slave endpoint gone: the machine rolls
                                // the dispatch back (the task was never
                                // sent) and puts the slave permanently out.
                                mm.send_failures.inc();
                                for ra in sched.on_event(
                                    &dag,
                                    MasterEvent::AssignRejected { slave: w, task },
                                )? {
                                    if let MasterAction::Exclude { slave } = ra {
                                        mm.exclusions.inc();
                                        mm.dead_slaves.add(1);
                                        lane.instant(
                                            "exclude",
                                            "ft",
                                            Some(("slave", slave as u64)),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    other => debug_assert!(false, "scheduling tick emitted {other:?}"),
                }
            }

            // Steps e-f, h: collect completions and idle signals. The
            // reliable endpoint retransmits pending sends while waiting.
            match rep.recv_timeout(params.recv_poll) {
                Ok(env) => {
                    let w = (env.src.0 as usize).wrapping_sub(1);
                    match env.tag {
                        tags::IDLE if w < n_slaves => {
                            sched.on_event(&dag, MasterEvent::Idle { slave: w })?;
                        }
                        tags::IDLE => { /* out-of-range source rank: ignore */ }
                        tags::HEARTBEAT => { /* liveness noted by the endpoint */ }
                        // Bound-check the source rank before touching any
                        // per-slave state — a frame from outside the slave
                        // range must not reach the machine.
                        tags::DONE if w < n_slaves => {
                            let msg = DoneMsg::decode(&env.payload)?;
                            // The epoch fence: a completion stamped by a
                            // since-replaced incarnation is counted and
                            // dropped before the register table is even
                            // consulted — it can never be accepted.
                            if msg.epoch != cur_epoch[w] {
                                mm.stale_epoch_rejected.inc();
                                let acts = sched.on_event(
                                    &dag,
                                    MasterEvent::StaleEpoch {
                                        slave: w,
                                        task: msg.task,
                                    },
                                )?;
                                debug_assert!(acts.is_empty(), "StaleEpoch emitted {acts:?}");
                                continue 'run;
                            }
                            let mut ctx = DoneCtx {
                                t0,
                                started: &mut started,
                                trace: &mut trace,
                                slot_lanes: &mut slot_lanes,
                                matrix: &mut matrix,
                                mm: &mm,
                                completed_tasks: &mut completed_tasks,
                            };
                            for a in sched.on_event(
                                &dag,
                                MasterEvent::Done {
                                    slave: w,
                                    task: msg.task,
                                },
                            )? {
                                match a {
                                    MasterAction::Accept { .. } => ctx.accept(w, &msg),
                                    MasterAction::Stale { .. } => mm.stale.inc(),
                                    MasterAction::Release { slave } => {
                                        fleet_release(fleet, slave);
                                        lane.instant(
                                            "release",
                                            "fleet",
                                            Some(("slave", slave as u64)),
                                        );
                                    }
                                    other => {
                                        debug_assert!(false, "DONE emitted {other:?}")
                                    }
                                }
                            }
                        }
                        tags::DONE => { /* out-of-range source rank: ignore */ }
                        tags::STATS => { /* late stats, ignore */ }
                        // A fleet slave idling outside this job (mid-run
                        // joiner already shipped the JOB by the acceptor,
                        // or a relinked slave sitting the job out)
                        // re-announces READY periodically; the barrier
                        // that wants it runs at the next job boundary.
                        tags::READY => {}
                        other => debug_assert!(false, "master received unexpected {other}"),
                    }
                }
                Err(NetError::Timeout) => {}
                Err(e) => return Err(e.into()),
            }

            // Abandoned reliable sends: the machine rolls the dispatch
            // back so the task is redistributable, and judges the slave by
            // its heartbeat — an unreachable peer is dead, a silent one
            // presumed dead (re-admitted later if it turns out merely
            // slow).
            for f in rep.take_failures() {
                mm.send_failures.inc();
                let w = (f.dst.0 as usize).wrapping_sub(1);
                if w >= n_slaves {
                    continue;
                }
                let assign_task = if f.tag == tags::ASSIGN {
                    inflight.remove(&(w, f.seq))
                } else {
                    None
                };
                let ev = MasterEvent::SendFailed {
                    slave: w,
                    assign_task,
                    reason: fail_kind(f.reason),
                    now_ns: ns(Instant::now()),
                };
                for a in sched.on_event(&dag, ev)? {
                    match a {
                        MasterAction::CancelAssign { task } => {
                            mm.redispatched.inc();
                            started[task as usize] = None;
                        }
                        MasterAction::Exclude { slave } => {
                            mm.exclusions.inc();
                            mm.dead_slaves.add(1);
                            lane.instant("exclude", "ft", Some(("slave", slave as u64)));
                        }
                        MasterAction::Release { slave } => {
                            fleet_release(fleet, slave);
                            lane.instant("release", "fleet", Some(("slave", slave as u64)));
                        }
                        other => debug_assert!(false, "send failure emitted {other:?}"),
                    }
                }
            }

            // Durable capture: flush tiles accepted since the last flush
            // once the policy's cadence is due — never on the DONE hot
            // path itself.
            if let (Some(st), Some(pol)) = (store.as_mut(), config.checkpoint.as_ref()) {
                let pending = (completed_tasks.len() - flush_idx) as u64;
                let due = (pol.every_tiles > 0 && pending >= pol.every_tiles)
                    || (pending > 0 && pol.every.is_some_and(|d| last_flush.elapsed() >= d));
                if due {
                    flush_durable(
                        st,
                        &mut flush_idx,
                        &completed_tasks,
                        model,
                        &dag,
                        &matrix,
                        &mm,
                        &mut lane,
                    )?;
                    last_flush = Instant::now();
                }
            }
        }
        Ok(())
    })();
    result?;

    // Step i: tear down. The machine stops dispatching; completions still
    // in flight are accepted into the matrix — on a budget stop they
    // would otherwise be recomputed after `resume_from`.
    sched.on_event(&dag, MasterEvent::Drain)?;
    let alive: Vec<bool> = sched.alive().to_vec();

    // Send END to every slave (dead ones may never read it; unreachable
    // ones fail immediately and are ignored) and collect final stats from
    // the live ones.
    let mut slave_stats: Vec<Option<SlaveStatsMsg>> = vec![None; n_slaves];
    for w in 0..n_slaves {
        let _ = rep.send_reliable(Rank(w as u32 + 1), tags::END, Bytes::new());
    }
    // Only slaves counted into `expected` may decrement it: a STATS from a
    // dead-marked (actually alive) slave is stored but must not make the
    // master stop waiting for a counted one.
    let mut counted = alive;
    let mut expected: usize = counted.iter().filter(|a| **a).count();
    // The drain must outlive the slowest legitimate reply: a slave's
    // STATS (or final DONE) can spend a full retransmit cycle in flight,
    // so the deadline scales with the configured `RetryPolicy` — the
    // floor and margin are the shared `SchedParams` constants.
    let deadline = Instant::now() + params.drain_deadline(config.retry.drain_budget());
    while (expected > 0 || rep.has_pending()) && Instant::now() < deadline {
        match rep.recv_timeout(params.teardown_recv) {
            Ok(env) => {
                let w = (env.src.0 as usize).wrapping_sub(1);
                match env.tag {
                    tags::STATS if w < n_slaves && slave_stats[w].is_none() => {
                        slave_stats[w] = Some(SlaveStatsMsg::decode(&env.payload)?);
                        if counted[w] {
                            counted[w] = false;
                            expected -= 1;
                        }
                    }
                    // Same rank guard as the main loop: a frame from an
                    // out-of-range rank is ignored outright, not counted
                    // stale (stale means "duplicate from a known slave").
                    tags::DONE if w < n_slaves => {
                        let msg = DoneMsg::decode(&env.payload)?;
                        // Same epoch fence as the main loop: teardown
                        // accepts late completions, never zombie ones.
                        if msg.epoch != cur_epoch[w] {
                            mm.stale_epoch_rejected.inc();
                            let acts = sched.on_event(
                                &dag,
                                MasterEvent::StaleEpoch {
                                    slave: w,
                                    task: msg.task,
                                },
                            )?;
                            debug_assert!(acts.is_empty(), "StaleEpoch emitted {acts:?}");
                            continue;
                        }
                        let mut ctx = DoneCtx {
                            t0,
                            started: &mut started,
                            trace: &mut trace,
                            slot_lanes: &mut slot_lanes,
                            matrix: &mut matrix,
                            mm: &mm,
                            completed_tasks: &mut completed_tasks,
                        };
                        for a in sched.on_event(
                            &dag,
                            MasterEvent::Done {
                                slave: w,
                                task: msg.task,
                            },
                        )? {
                            match a {
                                MasterAction::Accept { .. } => ctx.accept(w, &msg),
                                MasterAction::Stale { .. } => mm.stale.inc(),
                                MasterAction::Release { slave } => {
                                    fleet_release(fleet, slave);
                                }
                                other => debug_assert!(false, "DONE emitted {other:?}"),
                            }
                        }
                    }
                    _ => {} // stray IDLE/HEARTBEAT from shutting-down slaves
                }
            }
            Err(NetError::Timeout) => {}
            Err(_) => break,
        }
        // ENDs to dead slaves give up quietly; nobody is waiting on them.
        let _ = rep.take_failures();
    }

    // Final durable capture: everything the drain above accepted is on
    // disk before the run reports success. A crashed run (`result?`
    // above) never reaches this — exactly the gap the incremental
    // in-loop flushes cover.
    if let Some(st) = store.as_mut() {
        flush_durable(
            st,
            &mut flush_idx,
            &completed_tasks,
            model,
            &dag,
            &matrix,
            &mm,
            &mut lane,
        )?;
    }

    publish_endpoint_stats(&registry, "master", &rep);
    let reli = rep.stats();
    let net = rep.net_stats();
    // `MasterStats` is a view over the registry: every counter below was
    // maintained there during the run (`completed` folds resumed tiles
    // back in so budget/DAG accounting stays whole-run).
    let stats = MasterStats {
        dispatched: mm.dispatched.get(),
        redispatched: mm.redispatched.get(),
        completed: mm.completed.get() + mm.resumed.get(),
        resumed: mm.resumed.get(),
        stale_completions: mm.stale.get(),
        dead_slaves: mm.dead_slaves.get().max(0) as u64,
        readmitted: mm.readmissions.get(),
        rejoins: mm.rejoins.get(),
        stale_epoch_rejected: mm.stale_epoch_rejected.get(),
        retransmits: reli.retransmits,
        duplicates: reli.duplicates,
        send_failures: mm.send_failures.get(),
        msgs_sent: net.sent_msgs,
        bytes_sent: net.sent_bytes,
        msgs_recv: net.recv_msgs,
        bytes_recv: net.recv_bytes,
    };

    let checkpoint = (!sched.is_done()).then(|| {
        let cp = Checkpoint::capture(model, &dag, &matrix, completed_tasks.iter().copied());
        mm.checkpoints.inc();
        lane.instant(
            "checkpoint",
            "checkpoint",
            Some(("finished", cp.finished_len() as u64)),
        );
        cp
    });

    Ok(MasterOutput {
        matrix,
        stats,
        slave_stats,
        elapsed: t0.elapsed(),
        trace,
        checkpoint,
    })
}

/// Append the not-yet-durable tail of `completed` to the checkpoint
/// store: encode each tile's region from the live matrix, write one
/// segment, account the cost. `flush_idx` advances to the end of
/// `completed` even when nothing was fresh (already-durable resumed tiles
/// are skipped without re-writing).
#[allow(clippy::too_many_arguments)] // plumbing between two loop sites
fn flush_durable<C: easyhps_dp::Cell>(
    store: &mut CheckpointStore,
    flush_idx: &mut usize,
    completed: &[VertexId],
    model: &DagDataDrivenModel,
    dag: &TaskDag,
    matrix: &DpMatrix<C>,
    mm: &MasterMetrics,
    lane: &mut easyhps_obs::LaneBuf,
) -> Result<(), RuntimeError> {
    let fresh: Vec<_> = completed[*flush_idx..]
        .iter()
        .copied()
        .filter(|v| !store.is_durable(v.0))
        .map(|v| {
            let region = model.tile_region(dag.vertex(v).pos);
            (v.0, region, matrix.encode_region(region))
        })
        .collect();
    *flush_idx = completed.len();
    if fresh.is_empty() {
        return Ok(());
    }
    let tiles = fresh.len() as u64;
    let t = Instant::now();
    let bytes = store.append(&fresh)?;
    mm.checkpoint_bytes.add(bytes);
    mm.checkpoint_write_us
        .observe(t.elapsed().as_micros() as u64);
    mm.checkpoints.inc();
    lane.instant("checkpoint-flush", "checkpoint", Some(("tiles", tiles)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_reasons_map_onto_machine_vocabulary() {
        assert_eq!(
            fail_kind(FailReason::Unreachable),
            SendFailKind::Unreachable
        );
        assert_eq!(fail_kind(FailReason::NoAck), SendFailKind::NoAck);
    }
}
