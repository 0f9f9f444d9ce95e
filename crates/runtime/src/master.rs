//! The master part: the threaded driver of the process-level scheduler
//! (paper §V-B, Figs. 9-10).
//!
//! Every scheduling decision — dispatch and DONE accounting, the overdue
//! drain, slow-vs-dead exclusion and re-admission, static→dynamic orphan
//! fallback, budget stop, teardown drain — lives in the pure
//! [`MasterSched`] state machine. This file is the I/O shell around it,
//! one [`Shell`] with three entry points: [`Shell::on_frame`] is the only
//! place a received frame becomes [`MasterEvent`]s (main loop and teardown
//! drain alike), [`Shell::apply`] is the only `match` on [`MasterAction`]
//! (each variant's send, matrix write, trace instant in one arm), and the
//! machine's own counters are *published* — into `MasterStats` and the
//! `master_*` metric series — never re-counted. The fault-tolerance sweep
//! is the [`MasterEvent::FtTick`] event, fired from the single loop at
//! `ft_poll` cadence, so the deterministic explorer can place it anywhere
//! it likes and what it checks is what runs.
//!
//! Control messages travel over a [`ReliableEndpoint`]: an
//! ASSIGN/DONE/END that its sender could lose — the sender carries a
//! fault plan — is sequence-numbered, acknowledged and retransmitted with
//! backoff, so a lossy link delays the protocol instead of breaking it; on
//! a link that delivers every frame or fails for good it is one RAW frame,
//! and a tile costs one frame each way. Liveness is decided by heartbeats,
//! not by individual message outcomes: a slave is excluded only when it
//! is *unreachable* (its link is gone; only a rejoin brings it back) or
//! has been *silent* past `heartbeat_timeout` (no frame of any kind,
//! including acks). A slave that is merely slow keeps heartbeating and
//! stays in the schedule even if its current sub-task is timed out and
//! redistributed; a slave that was excluded during a transient outage is
//! re-admitted the moment it is heard from again.
//!
//! An ASSIGN carries only the input strips the slave's node matrix lacks:
//! the machine keeps a residency record per slave, learnt from accepted
//! DONEs and cleared by a rejoin, and [`Shell::apply`] leaves out every
//! `data_deps` strip [`MasterSched::resident`] says the slave holds. A
//! tile crosses to each slave at most once.
//!
//! A slave holds up to [`WINDOW`](easyhps_core::sched::WINDOW) tiles: the
//! ASSIGN of its next tile waits, unread, in its endpoint while it
//! computes the current one. The master-observed span of a queued tile
//! therefore starts when the slave's previous DONE is answered, not when
//! its ASSIGN was sent, so the spans of one slot never overlap.
//!
//! One deviation from the paper's thread layout: instead of one blocking
//! worker thread per slave node sharing the MPI context, the master
//! multiplexes all slaves on its single endpoint and keeps a worker *slot*
//! per slave. The observable protocol and scheduling behaviour are
//! identical; only the thread count differs.

use crate::checkpoint::Entries;
use crate::config::{Deployment, MasterStats, ObsConfig};
use crate::durable::CheckpointStore;
use crate::obs::{lane_of, publish_endpoint_stats, registry_of, MasterMetrics, TID_FT, TID_NET};
use crate::protocol::{tags, AssignMsg, DoneMsg, SlaveStatsMsg};
use crate::RuntimeError;
use bytes::Bytes;
use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SchedParams, SendFailKind};
use easyhps_core::{DagDataDrivenModel, TaskDag, TileRegion, Trace, VertexId};
use easyhps_dp::{Cell, DpMatrix, DpProblem};
use easyhps_net::{
    Endpoint, Envelope, FailReason, FleetAcceptor, MembershipEvent, Rank, ReliableEndpoint,
};
use easyhps_obs::LaneBuf;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Control surface between an elastic fleet and its running master.
///
/// The acceptor (when the fleet is socket-backed) admits rejoining and
/// brand-new slaves in the background; the master drains its membership
/// events every loop iteration and re-fences the transport. The drain
/// list carries operator requests ("release rank N once its in-flight
/// work lands") from the daemon's RPC surface into the same loop. A local
/// fleet has no acceptor but can still drain.
#[derive(Clone, Default)]
pub struct FleetControl {
    /// Elastic acceptor admitting rejoins and mid-run joiners. `None`
    /// for fixed-membership (local or `accept_ranks`) fleets, where only
    /// drain requests apply.
    pub acceptor: Option<Arc<FleetAcceptor>>,
    /// How long after it was last heard an unreachable slave may still
    /// redial and rejoin: until then it does not count as dead. `None`:
    /// an unreachable slave is gone for good.
    pub(crate) rejoin_window: Option<Duration>,
    /// Ranks the operator asked to drain. The running master consumes
    /// them, stops assigning to each, and releases the rank back to the
    /// fleet free-list once its last in-flight sub-task lands.
    pub drain: Arc<Mutex<Vec<u32>>>,
    /// Ranks the master released (drain completed). The fleet reads this
    /// at the next job boundary to retire the rank from fixed-membership
    /// bookkeeping; elastic fleets learn the same thing from the
    /// acceptor's free-list.
    pub released: Arc<Mutex<Vec<u32>>>,
    /// Set when a master running on this block begins its teardown, and
    /// when the fleet shuts down; cleared when a job starts. While set,
    /// no job needs a slave whose link broke, so the fleet's own socket
    /// slave threads do not redial.
    pub(crate) tearing_down: Arc<AtomicBool>,
}

impl FleetControl {
    /// Control block over `acceptor` (pass `None` for a fixed fleet).
    pub fn new(acceptor: Option<Arc<FleetAcceptor>>) -> Self {
        Self {
            acceptor,
            ..Self::default()
        }
    }

    /// Ask the running (or next) master to drain `rank` gracefully.
    pub fn request_drain(&self, rank: u32) {
        self.drain.lock().unwrap().push(rank);
    }

    /// Release `rank`: hand it back to the acceptor's free-list (elastic
    /// fleets) and record it for the fleet's job-boundary bookkeeping.
    pub(crate) fn release(&self, rank: u32) {
        if let Some(acc) = &self.acceptor {
            acc.release_rank(rank);
        }
        self.released.lock().unwrap().push(rank);
    }
}

/// Outcome of a master run.
pub struct MasterOutput<C: Cell> {
    /// The fully computed global matrix.
    pub matrix: DpMatrix<C>,
    /// Master counters.
    pub stats: MasterStats,
    /// Stats reported by each slave on shutdown (None for dead slaves).
    pub slave_stats: Vec<Option<SlaveStatsMsg>>,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Master-observed schedule: one span per tile execution (assign-sent,
    /// or the slave's previous DONE answered when later, to
    /// completion-accepted), lane per slave. Render with [`Trace::gantt`].
    pub trace: Trace,
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
/// Checkpoint/restart: with `config.checkpoint` set, finished tiles are
/// flushed to its directory, and a policy that resumes first restores
/// the tiles the directory holds. `tile_budget` stops dispatching after
/// that many completions (counting resumed ones); the final flush then
/// leaves everything accepted in the directory for a later run to resume.
///
/// Elastic membership: when `fleet` is given, the master polls its
/// acceptor for membership changes every loop iteration — a rejoining
/// incarnation is re-fenced under a bumped epoch (its predecessor's
/// zombie DONEs rejected by the epoch echo), a mid-run joiner grows the
/// schedule — and consumes its drain requests.
pub fn run_master<P: DpProblem>(
    ep: Endpoint,
    problem: &P,
    model: &DagDataDrivenModel,
    config: &Deployment,
    tile_budget: Option<u64>,
    fleet: Option<&FleetControl>,
) -> Result<MasterOutput<P::Cell>, RuntimeError> {
    let _ = problem; // kernels run slave-side; the master only routes data
    run_job(ep, model, config, tile_budget, fleet, || Ok(()))
}

/// [`run_master`], with `ship` to start the job on the slaves once the
/// checks that can refuse it passed, and before the matrix allocation
/// and the restore. From `ship` on, every way out, an error included,
/// passes through the teardown's END round.
pub(crate) fn run_job<C: Cell>(
    ep: Endpoint,
    model: &DagDataDrivenModel,
    config: &Deployment,
    tile_budget: Option<u64>,
    fleet: Option<&FleetControl>,
    ship: impl FnOnce() -> Result<(), RuntimeError>,
) -> Result<MasterOutput<C>, RuntimeError> {
    if config.slaves == 0 {
        return Err(RuntimeError::NoSlaves);
    }
    // Step a: master DAG Data Driven Model initialization (+ validation:
    // the race-freedom argument of the shared grid depends on it).
    let dag: TaskDag = model.master_dag();
    dag.validate()?;
    let (store, resume) = match &config.checkpoint {
        Some(pol) => {
            let dims = model.dag_size();
            let (store, resume) = CheckpointStore::open(pol, dims.rows, dims.cols)?;
            // Under other partition sizes the same ids name other tiles.
            let region = |id: u32| model.tile_region(dag.vertex(VertexId(id)).pos);
            let foreign = |(id, r, _): &&_| *id as usize >= dag.len() || region(*id) != *r;
            if let Some((id, r, _)) = resume.iter().find(foreign) {
                return Err(RuntimeError::Checkpoint(format!(
                    "checkpoint dir {}: tile {id} at {r:?} is not a tile of this run's \
                     partitioning",
                    pol.dir.display()
                )));
            }
            (Some(store), resume)
        }
        None => (None, Vec::new()),
    };
    ship()?;
    let mut shell = start_shell(ep, dag, store, model, config, tile_budget, fleet);
    shell.run(resume)?;
    shell.finish()
}

/// Everything before the loop: the endpoint, the machine and the matrix.
fn start_shell<'a, C: Cell>(
    ep: Endpoint,
    dag: TaskDag,
    store: Option<CheckpointStore>,
    model: &'a DagDataDrivenModel,
    config: &'a Deployment,
    tile_budget: Option<u64>,
    fleet: Option<&'a FleetControl>,
) -> Shell<'a, C> {
    let t0 = Instant::now();
    let params = config.sched_params();
    let obs = &config.obs;
    let mut rep = ReliableEndpoint::new(ep, config.retry.clone());
    rep.set_event_lane(lane_of(obs, 0, TID_NET));
    if let Some(rec) = &obs.recorder {
        rec.name_process(0, "master");
        rec.name_thread(0, 0, "scheduler");
        rec.name_thread(0, TID_FT, "fault-tolerance");
        rec.name_thread(0, TID_NET, "net");
    }
    let acceptor = fleet.and_then(|f| f.acceptor.as_deref());
    let n = config.slaves;
    Shell {
        sched: MasterSched::new(&dag, n, config.process_mode, &params, tile_budget)
            .with_rejoin_window(fleet.and_then(|f| f.rejoin_window)),
        matrix: DpMatrix::new(model.dag_size()),
        trace: Trace::new(),
        mm: MasterMetrics::register(&registry_of(obs)),
        lanes: [lane_of(obs, 0, 0), lane_of(obs, 0, TID_FT)],
        slot_lanes: (0..n).map(|w| slot_lane(obs, w)).collect(),
        answered: vec![(t0, 0); n],
        cur_epoch: vec![acceptor.map_or(0, FleetAcceptor::epoch); n],
        started: vec![None; dag.len()],
        inflight: HashMap::new(),
        completed: Vec::new(),
        flush_idx: 0,
        last_ft: Instant::now(),
        teardown: None,
        model,
        config,
        fleet,
        params,
        t0,
        dag,
        rep,
        store,
    }
}

/// The teardown drain (step i): which final STATS it still waits for. It
/// ends on the later of the last awaited STATS and the last END ACK (an
/// END sent RAW has none to wait for).
struct Teardown {
    stats: Vec<Option<SlaveStatsMsg>>,
    /// Slaves alive at END time whose STATS has not arrived. Only these
    /// keep the drain waiting: a STATS from a dead-marked (actually alive)
    /// slave is stored but must not stand in for a counted one.
    awaited: Vec<bool>,
    /// The drain must outlive the slowest legitimate reply: a slave's
    /// STATS (or final DONE) can spend a full retransmit cycle in flight,
    /// so the deadline scales with the configured `RetryPolicy`.
    deadline: Instant,
    /// Why the job failed: returned after the drain, which feeds no event.
    error: Option<RuntimeError>,
}

/// Everything the master owns besides the machine's decisions: the
/// transport, the matrix, the trace and the per-slot driver state.
struct Shell<'a, C: Cell> {
    model: &'a DagDataDrivenModel,
    config: &'a Deployment,
    fleet: Option<&'a FleetControl>,
    params: SchedParams,
    /// Nanosecond virtual time = wall time since `t0`.
    t0: Instant,
    dag: TaskDag,
    /// Steps b-i all live in the state machine; the shell only drives it.
    sched: MasterSched,
    rep: ReliableEndpoint,
    matrix: DpMatrix<C>,
    trace: Trace,
    mm: MasterMetrics,
    /// Scheduler instants, and the FT sweep's on their own lane (`TID_FT`).
    lanes: [LaneBuf; 2],
    /// One event lane per slave slot: tile spans from assign-sent (or the
    /// previous DONE answered) to completion-accepted, as the master
    /// observed them.
    slot_lanes: Vec<LaneBuf>,
    /// When each slot's last DONE was answered (wall clock, recorder
    /// timestamp): a tile queued behind it starts no earlier.
    answered: Vec<(Instant, u64)>,
    /// Epoch each slot's ASSIGNs are stamped with; its length is the fleet
    /// size. The slave echoes the stamp blindly, so any init consistent
    /// with the fencing check is correct — the acceptor's global epoch at
    /// start covers the initial members; what matters is the bump on a
    /// rejoin. Fixed fleets stay at epoch 0 and the fence never fires.
    cur_epoch: Vec<u64>,
    /// Start per in-flight task: the wall-clock instant for `Trace` and
    /// tile latency, the recorder timestamp for the slot-lane span.
    started: Vec<Option<(Instant, u64)>>,
    /// (slave, sequence number) of every acknowledged ASSIGN whose
    /// delivery is not yet known, so an abandoned send can roll the
    /// dispatch back. An ASSIGN sent RAW is never reported as failed and
    /// has no entry.
    inflight: HashMap<(usize, u64), u32>,
    completed: Vec<VertexId>,
    store: Option<CheckpointStore>,
    /// Prefix of `completed` already flushed to the store.
    flush_idx: usize,
    last_ft: Instant,
    /// `Some` once the job is ending: finished, budget-stopped or failed.
    teardown: Option<Teardown>,
}

/// The event lane of slave slot `w` (Chrome tid `1 + w`), named.
fn slot_lane(obs: &ObsConfig, w: usize) -> LaneBuf {
    if let Some(rec) = &obs.recorder {
        rec.name_thread(0, 1 + w as u32, format!("slot{w}"));
    }
    lane_of(obs, 0, 1 + w as u32)
}

impl<C: Cell> Shell<'_, C> {
    fn n_slaves(&self) -> usize {
        self.cur_epoch.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// The cell region of master-DAG vertex `task`.
    fn region_of(&self, task: u32) -> TileRegion {
        self.model.tile_region(self.dag.vertex(VertexId(task)).pos)
    }

    /// A trace instant on the scheduler lane, or the FT sweep's when `ft`.
    fn instant(
        &mut self,
        ft: bool,
        name: &'static str,
        cat: &'static str,
        arg: (&'static str, u64),
    ) {
        self.lanes[usize::from(ft)].instant(name, cat, Some(arg));
    }

    /// Restore the resumed tiles, then [`Shell::pass`] until the teardown
    /// drain is over; an error at any step goes to [`Shell::fail`].
    fn run(&mut self, resume: Entries) -> Result<(), RuntimeError> {
        let mut pass = self.restore(resume).map(|()| true);
        while !matches!(pass, Ok(false)) {
            if let Err(e) = pass {
                self.fail(e);
            }
            pass = self.pass();
        }
        let error = self.teardown.as_mut().and_then(|t| t.error.take());
        error.map_or(Ok(()), Err)
    }

    /// Resume: restore finished regions and fast-forward the machine. The
    /// finished set of a valid checkpoint is ancestor-closed, so walking a
    /// topological order completes each task the moment it is computable;
    /// a corrupt set surfaces as a SchedulerInvariant error, not a panic.
    fn restore(&mut self, resume: Entries) -> Result<(), RuntimeError> {
        if resume.is_empty() {
            return Ok(());
        }
        let mut preload = HashSet::with_capacity(resume.len());
        for (id, region, cells) in &resume {
            self.matrix.decode_region(*region, cells);
            preload.insert(*id);
        }
        for v in self.dag.topological_order()? {
            if preload.contains(&v.0) {
                self.sched.preload_finished(&self.dag, v)?;
                self.completed.push(v);
                self.mm.restored.inc();
            }
        }
        // The restored tiles are the directory's own: flushes start after them.
        self.flush_idx = self.completed.len();
        let resumed = self.sched.counters().resumed;
        self.instant(false, "resume", "checkpoint", ("tiles", resumed));
        Ok(())
    }

    /// One pass of the loop: membership → drain requests → `Heard` →
    /// `FtTick` → `Tick` → receive → send failures → durable flush; once
    /// the job is ending the same pass is the teardown drain — frames
    /// only, until the awaited STATS and the END ACKs are in. The receive
    /// is the pass's one wait: it returns on a frame or at a deadline the
    /// shell holds, never on a poll slice. False once the drain is over.
    fn pass(&mut self) -> Result<bool, RuntimeError> {
        if self.teardown.is_none() {
            // Membership first: a rejoin must re-fence the transport
            // before this iteration stamps any new ASSIGN, and a joiner
            // must exist before its first frame is dispatched on.
            self.poll_fleet()?;
            // Sync heartbeat observations into the machine's liveness
            // record.
            for w in 0..self.n_slaves() {
                if let Some(t) = self.rep.last_heard(Rank(w as u32 + 1)) {
                    let at_ns = self.ns(t);
                    self.feed(MasterEvent::Heard { slave: w, at_ns }, &[])?;
                }
            }
            // The fault-tolerance sweep, at its own cadence.
            if self.last_ft.elapsed() >= self.params.ft_poll {
                self.last_ft = Instant::now();
                let now_ns = self.ns(self.last_ft);
                self.feed(MasterEvent::FtTick { now_ns }, &[])?;
                self.probe_excluded()?;
            }
            // One scheduling pass: re-admission, termination checks
            // and dispatch all come back as actions.
            let now_ns = self.ns(Instant::now());
            self.feed(MasterEvent::Tick { now_ns }, &[])?;
        }
        // Without a frame, the main loop next acts at the FT sweep;
        // membership and drain requests ride on that wakeup, so they
        // are seen within `ft_poll`.
        let (deadline, until_acked) = match &self.teardown {
            None => (self.last_ft + self.params.ft_poll, false),
            Some(t) => {
                let stats_in = !t.awaited.contains(&true);
                if stats_in && !self.rep.has_pending() || Instant::now() >= t.deadline {
                    return Ok(false);
                }
                (t.deadline, stats_in)
            }
        };
        // Steps e-f, h: collect completions and idle signals. The
        // reliable endpoint retransmits pending sends while waiting.
        match self.rep.recv_until(deadline, until_acked) {
            Ok(Some(env)) => self.on_frame(env)?,
            Ok(None) => {}
            Err(_) if self.teardown.is_some() => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        self.on_send_failures()?;
        self.flush_durable(false)?;
        self.mm.publish(self.sched.counters());
        Ok(true)
    }

    /// Feed one event to the machine and perform what it answers.
    /// `output` is the payload when the event is a DONE, else empty.
    fn feed(&mut self, ev: MasterEvent, output: &[u8]) -> Result<(), RuntimeError> {
        let ft = matches!(ev, MasterEvent::FtTick { .. });
        let actions = self.sched.on_event(&self.dag, ev)?;
        self.apply(actions, ft, output)
    }

    /// Perform the machine's actions, in order — the only place a
    /// [`MasterAction`] is interpreted. `ft` routes trace instants to the
    /// FT lane; `output` is the payload of the DONE being answered.
    fn apply(
        &mut self,
        actions: Vec<MasterAction>,
        ft: bool,
        output: &[u8],
    ) -> Result<(), RuntimeError> {
        for a in actions {
            match a {
                // Steps c-d: encode the input strips the slave's node
                // matrix lacks, and send.
                MasterAction::Assign { slave: w, task } => {
                    let vertex = self.dag.vertex(VertexId(task));
                    let strips: Vec<_> = vertex
                        .data_deps
                        .iter()
                        .filter(|d| !self.sched.resident(w, d.0))
                        .map(|d| {
                            let region = self.region_of(d.0);
                            (region, region.area() as usize * C::WIRE_SIZE)
                        })
                        .collect();
                    let msg = AssignMsg {
                        task,
                        epoch: self.cur_epoch[w],
                        tile: vertex.pos,
                        region: self.region_of(task),
                        inputs: Vec::new(),
                    };
                    // The strips go from the matrix straight into the frame.
                    let payload = msg.encode_with(&strips, |i, out| {
                        self.matrix.encode_region_into(strips[i].0, out)
                    });
                    let dst = Rank(w as u32 + 1);
                    match self.rep.send_reliable(dst, tags::ASSIGN, payload) {
                        Ok(tracked) => {
                            let start = (Instant::now(), self.slot_lanes[w].now_ns());
                            self.started[task as usize] = Some(start);
                            if let Some(seq) = tracked {
                                self.inflight.insert((w, seq), task);
                            }
                        }
                        // Slave endpoint gone: the machine rolls the
                        // dispatch back (the task was never sent) and puts
                        // the slave permanently out.
                        Err(_) => self.feed(MasterEvent::AssignRejected { slave: w, task }, &[])?,
                    }
                }
                MasterAction::Accept { slave: w, task } => {
                    let now = (Instant::now(), self.slot_lanes[w].now_ns());
                    if let Some((sent, sent_ns)) = self.started[task as usize].take() {
                        let (free, free_ns) = self.answered[w];
                        let (from, to) = (self.ns(sent.max(free)), self.ns(now.0));
                        self.trace.record(format!("slave{w}"), "#", from, to);
                        self.mm.tile_latency.observe(to - from);
                        let arg = Some(("task", u64::from(task)));
                        self.slot_lanes[w].span_since("tile", "master", sent_ns.max(free_ns), arg);
                    }
                    self.answered[w] = now;
                    self.matrix.decode_region(self.region_of(task), output);
                    self.completed.push(VertexId(task));
                }
                MasterAction::Stale { slave: w, .. } => {
                    self.answered[w] = (Instant::now(), self.slot_lanes[w].now_ns());
                }
                // Taken back by the overdue sweep, or given back by a slave
                // whose link is gone or that was replaced by a rejoin.
                MasterAction::Redispatch { task } => {
                    let (name, cat) =
                        [("give-back", "fleet"), ("redispatch", "ft")][usize::from(ft)];
                    self.instant(ft, name, cat, ("task", u64::from(task)));
                }
                MasterAction::CancelAssign { task } => self.started[task as usize] = None,
                MasterAction::Exclude { slave } => {
                    self.instant(ft, "exclude", "ft", ("slave", slave as u64));
                }
                MasterAction::Readmit { slave } => {
                    self.instant(ft, "readmit", "ft", ("slave", slave as u64));
                }
                // New incarnation: its sequence numbers restarted and its
                // (slave, seq) ASSIGN bookkeeping is void. Its stamp was
                // bumped when the membership event arrived.
                MasterAction::Refence { slave } => {
                    self.rep.reset_peer(Rank(slave as u32 + 1));
                    self.inflight.retain(|(sw, _), _| *sw != slave);
                    self.instant(ft, "rejoin", "fleet", ("slave", slave as u64));
                }
                MasterAction::Release { slave } => {
                    if let Some(fc) = self.fleet {
                        fc.release(slave as u32 + 1);
                    }
                    self.instant(ft, "release", "fleet", ("slave", slave as u64));
                }
                // The machine stops dispatching; completions in flight are
                // still accepted, or a budget stop would recompute them.
                MasterAction::Finished | MasterAction::BudgetStop => {
                    self.feed(MasterEvent::Drain, &[])?;
                    self.end_job();
                }
                MasterAction::AllSlavesDead => return Err(RuntimeError::AllSlavesDead),
            }
        }
        Ok(())
    }

    /// Turn one received frame into machine events — the only place that
    /// happens, for the main loop and the teardown drain alike.
    fn on_frame(&mut self, env: Envelope) -> Result<(), RuntimeError> {
        // Bound-check the source rank before touching any per-slave state
        // — a frame from outside the slave range must not reach the
        // machine (ignored outright, not counted stale: stale means
        // "duplicate from a known slave").
        let w = (env.src.0 as usize).wrapping_sub(1);
        if w >= self.n_slaves() {
            return Ok(());
        }
        // A failed job's machine is fed nothing more: only STATS count.
        let failed = self.teardown.as_ref().is_some_and(|t| t.error.is_some());
        match env.tag {
            _ if failed && env.tag != tags::STATS => {}
            tags::IDLE => self.feed(MasterEvent::Idle { slave: w }, &[])?,
            tags::DONE => {
                // Outside input: counted and dropped, as the shape fence.
                let Ok(msg) = DoneMsg::decode(&env.payload) else {
                    self.mm.malformed.inc();
                    return Ok(());
                };
                let task = msg.task;
                // The epoch fence: a completion stamped by a since-replaced
                // incarnation is counted and dropped before the register
                // table is even consulted — it can never be accepted, in
                // the main loop or in teardown.
                if msg.epoch != self.cur_epoch[w] {
                    return self.feed(MasterEvent::StaleEpoch { slave: w, task }, &[]);
                }
                // The shape fence: the master knows the cells it assigned,
                // so a DONE for an unknown task, another region or a
                // payload that does not fill it is dropped before the
                // machine sees it. The task stays in flight: an honest DONE
                // still lands, else the overdue sweep redistributes it.
                let fits = |r: TileRegion| {
                    msg.region == r && msg.output.len() == r.area() as usize * C::WIRE_SIZE
                };
                if task as usize >= self.dag.len() || !fits(self.region_of(task)) {
                    self.mm.malformed.inc();
                    return Ok(());
                }
                self.feed(MasterEvent::Done { slave: w, task }, msg.output)?;
            }
            // Final stats answer END (an undecodable one is counted); one
            // arriving earlier is a late reply to a previous job's END.
            tags::STATS => {
                if let Some(t) = self.teardown.as_mut().filter(|t| t.stats[w].is_none()) {
                    match SlaveStatsMsg::decode(&env.payload) {
                        Ok(stats) => t.stats[w] = Some(stats),
                        Err(_) => self.mm.malformed.inc(),
                    }
                    t.awaited[w] = false;
                }
            }
            // Liveness is noted by the endpoint.
            tags::HEARTBEAT => {}
            other => debug_assert!(false, "master received unexpected {other}"),
        }
        Ok(())
    }

    /// Membership changes from the elastic acceptor, then operator drain
    /// requests from the CLI/daemon surface.
    fn poll_fleet(&mut self) -> Result<(), RuntimeError> {
        let Some(fc) = self.fleet else {
            return Ok(());
        };
        let events = fc.acceptor.as_ref().map(|acc| acc.poll_events());
        for ev in events.into_iter().flatten() {
            let (MembershipEvent::Rejoined { rank, epoch }
            | MembershipEvent::Joined { rank, epoch }) = ev;
            let Some(w) = (rank as usize).checked_sub(1) else {
                continue;
            };
            // A joiner past the current fleet grows every shell-side
            // per-slot structure before the machine.
            for i in self.n_slaves()..=w {
                self.slot_lanes.push(slot_lane(&self.config.obs, i));
                self.answered.push((self.t0, 0));
                self.cur_epoch.push(epoch);
            }
            self.rep.ensure_ranks(w + 2);
            // The machine answers with a Refence for this slot; from here
            // on its predecessor's stamps are stale.
            self.cur_epoch[w] = epoch;
            let now_ns = self.ns(Instant::now());
            self.feed(MasterEvent::Rejoined { slave: w, now_ns }, &[])?;
        }
        let drains: Vec<u32> = std::mem::take(&mut *fc.drain.lock().unwrap());
        for rank in drains {
            let w = (rank as usize).wrapping_sub(1);
            if w < self.n_slaves() {
                self.feed(MasterEvent::DrainSlave { slave: w }, &[])?;
            }
        }
        Ok(())
    }

    /// Abandoned reliable sends: the machine rolls the dispatch back so
    /// the task is redistributable, and judges the slave by its heartbeat
    /// — an unreachable peer is dead, a silent one presumed dead
    /// (re-admitted later if it turns out merely slow).
    fn on_send_failures(&mut self) -> Result<(), RuntimeError> {
        for f in self.rep.take_failures() {
            let w = (f.dst.0 as usize).wrapping_sub(1);
            // In teardown ENDs to dead slaves give up quietly; nobody
            // waits on them.
            if self.teardown.is_some() || w >= self.n_slaves() {
                continue;
            }
            let assign = (f.tag == tags::ASSIGN).then_some((w, f.seq));
            let ev = MasterEvent::SendFailed {
                slave: w,
                assign_task: assign.and_then(|sent| self.inflight.remove(&sent)),
                reason: fail_kind(f.reason),
                now_ns: self.ns(Instant::now()),
            };
            self.feed(ev, &[])?;
        }
        Ok(())
    }

    /// Probe every slave excluded as silent but not known unreachable with
    /// a HEARTBEAT, which slaves ignore. An excluded slave is sent nothing
    /// else: with its ASSIGNs unacknowledged no retransmission would ever
    /// find its endpoint gone. A probe that fails at once marks it
    /// unreachable — what lets a run whose every slave died end.
    fn probe_excluded(&mut self) -> Result<(), RuntimeError> {
        for w in 0..self.n_slaves() {
            if self.sched.alive()[w] || self.sched.unreachable()[w] {
                continue;
            }
            let dst = Rank(w as u32 + 1);
            if self
                .rep
                .send_unreliable(dst, tags::HEARTBEAT, Bytes::new())
                .is_err()
            {
                let ev = MasterEvent::SendFailed {
                    slave: w,
                    assign_task: None,
                    reason: SendFailKind::Unreachable,
                    now_ns: self.ns(Instant::now()),
                };
                self.feed(ev, &[])?;
            }
        }
        Ok(())
    }

    /// Step i, the job's one END round, for a finished job and a failed
    /// one alike. END goes to every slave (dead ones may never read it); the
    /// STATS of the live ones whose END went out are awaited — an END
    /// that fails at once names a slave that can never answer, so a dead
    /// master endpoint awaits nothing.
    fn end_job(&mut self) {
        if let Some(fc) = self.fleet {
            fc.tearing_down.store(true, Ordering::SeqCst);
        }
        let mut awaited = self.sched.alive().to_vec();
        for (w, awaits) in awaited.iter_mut().enumerate() {
            let end = self
                .rep
                .send_reliable(Rank(w as u32 + 1), tags::END, Bytes::new());
            *awaits &= end.is_ok();
        }
        let grace = self.params.drain_deadline(self.config.retry.drain_budget());
        self.teardown = Some(Teardown {
            stats: vec![None; self.n_slaves()],
            awaited,
            deadline: Instant::now() + grace,
            error: None,
        });
    }

    /// End the job on `e`, starting the END round unless it has begun.
    fn fail(&mut self, e: RuntimeError) {
        if self.teardown.is_none() {
            self.end_job();
        }
        if let Some(t) = &mut self.teardown {
            t.error.get_or_insert(e);
        }
    }

    /// Durable flush: append the not-yet-flushed tail of `completed` to
    /// the checkpoint store once the policy's cadence is due (or `force`d
    /// at the end of the run) — never on the DONE hot path itself.
    fn flush_durable(&mut self, force: bool) -> Result<(), RuntimeError> {
        let (Some(_), Some(pol)) = (&self.store, &self.config.checkpoint) else {
            return Ok(());
        };
        let due = (self.completed.len() - self.flush_idx) as u64 >= pol.every_tiles;
        // The teardown drain has no cadence: the forced final flush follows it.
        if !(force || due && self.teardown.is_none()) {
            return Ok(());
        }
        let fresh: Vec<_> = self.completed[self.flush_idx..]
            .iter()
            .map(|v| {
                let region = self.region_of(v.0);
                (v.0, region, self.matrix.encode_region(region))
            })
            .collect();
        self.flush_idx = self.completed.len();
        if fresh.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let bytes = self.store.as_mut().expect("checked above").append(&fresh)?;
        self.mm.checkpoint_bytes.add(bytes);
        let write_us = started.elapsed().as_micros() as u64;
        self.mm.checkpoint_write_us.observe(write_us);
        self.mm.checkpoints.inc();
        let tiles = ("tiles", fresh.len() as u64);
        self.instant(false, "checkpoint-flush", "checkpoint", tiles);
        Ok(())
    }

    /// Final durable flush, counter publication and the output.
    fn finish(mut self) -> Result<MasterOutput<C>, RuntimeError> {
        // Everything the drain accepted is on disk before the run reports
        // success — after a budget stop, that is what a resume continues
        // from. A crashed run never reaches this — exactly the gap the
        // incremental in-loop flushes cover.
        self.flush_durable(true)?;

        // `MasterStats` and the `master_*` series are the machine's
        // counters (`completed` folds resumed tiles back in so budget/DAG
        // accounting stays whole-run).
        let c = self.sched.counters();
        self.mm.publish(c);
        publish_endpoint_stats(&registry_of(&self.config.obs), "master", &self.rep);
        let (reli, net) = (self.rep.stats(), self.rep.net_stats());
        let stats = MasterStats {
            dispatched: c.dispatched,
            redispatched: c.redispatched,
            completed: c.completed + c.resumed,
            resumed: c.resumed,
            stale_completions: c.stale,
            dead_slaves: c.exclusions.saturating_sub(c.readmissions),
            readmitted: c.readmissions,
            rejoins: c.rejoins,
            stale_epoch_rejected: c.stale_epoch,
            retransmits: reli.retransmits,
            duplicates: reli.duplicates,
            send_failures: c.send_failures,
            msgs_sent: net.sent_msgs,
            bytes_sent: net.sent_bytes,
            msgs_recv: net.recv_msgs,
            bytes_recv: net.recv_bytes,
        };

        Ok(MasterOutput {
            matrix: self.matrix,
            stats,
            slave_stats: self.teardown.map_or_else(Vec::new, |t| t.stats),
            elapsed: self.t0.elapsed(),
            trace: self.trace,
        })
    }
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

    /// An ASSIGN is held for a failure report only when the reliable
    /// layer tracks it: never on clean channels, always once the master
    /// carries a fault plan (here one that injects nothing).
    #[test]
    fn only_acked_assigns_are_held_for_a_failure_report() {
        use easyhps_dp::sequence::{random_sequence, Alphabet};
        use easyhps_dp::EditDistance;
        use easyhps_net::{FaultPlan, Network};
        let problem = EditDistance::new(
            random_sequence(Alphabet::Dna, 30, 1),
            random_sequence(Alphabet::Dna, 30, 2),
        );
        let reference = problem.solve_sequential();
        let model = DagDataDrivenModel::builder(problem.pattern())
            .process_partition_size(easyhps_core::GridDims::square(8))
            .thread_partition_size(easyhps_core::GridDims::square(4))
            .build();
        let config = Deployment::local(2, 1);
        for (plan, acked) in [(None, false), (Some(FaultPlan::default()), true)] {
            let mut eps = Network::with_faults(3, &[plan]);
            let master_ep = eps.remove(0);
            let (held, out) = std::thread::scope(|s| {
                for ep in eps {
                    let (p, m, c) = (&problem, &model, &config);
                    s.spawn(move || crate::run_slave(ep, p, m, c));
                }
                let dag = model.master_dag();
                let mut shell =
                    start_shell::<i32>(master_ep, dag, None, &model, &config, None, None);
                shell.run(Vec::new()).unwrap();
                (shell.inflight.len(), shell.finish().unwrap())
            });
            assert_eq!(out.matrix, reference);
            assert_eq!(held > 0, acked, "{held} ASSIGNs held, acked = {acked}");
        }
    }
}
