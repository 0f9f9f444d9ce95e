//! The master scheduler (paper §V-B, Figs. 9-10) as a pure state machine.
//!
//! Everything the old threaded master decided — dispatch and DONE
//! accounting, the overdue drain, slow-vs-dead exclusion and re-admission,
//! speculative dispatch when every slave looks dead, static→dynamic
//! orphan fallback, budget stop, teardown drain — lives here, keyed only
//! by the event stream. Time is a `u64` of nanoseconds since run start,
//! carried in events; the machine never reads a clock. The fault-tolerance
//! sweep that used to be a separate thread racing the scheduling loop is
//! now the [`MasterEvent::FtTick`] event, fired by the driver at
//! `SchedParams::ft_poll` cadence — the FT-vs-main-loop interleaving class
//! is gone by construction, and the explorer can place an `FtTick`
//! anywhere it likes.
//!
//! The machine also keeps the residency record: which master tiles each
//! slave's node matrix holds, learnt from accepted DONEs only and cleared
//! when a new incarnation is admitted. It changes no decision; the
//! runtime's shell reads it ([`MasterSched::resident`]) to leave out of an
//! ASSIGN every strip the slave already has.

use super::{pick_task, RegisterTable, SchedParams, SchedViolation};
use crate::{DagParser, ScheduleMode, TaskDag, VertexId};
use std::time::Duration;

/// How a reliable send was lost (mirror of the transport's failure
/// reasons, kept transport-free so the machine does not depend on the
/// network crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFailKind {
    /// The peer's endpoint is gone for good; it can never ack again.
    Unreachable,
    /// The retry budget ran out without an ack; the peer may still live.
    NoAck,
}

/// Input to the master scheduler. All times are nanoseconds since run
/// start (the driver's epoch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MasterEvent {
    /// One scheduling pass: sync liveness, re-admit, dispatch to idle
    /// slaves, check for termination.
    Tick {
        /// Now, in ns since run start.
        now_ns: u64,
    },
    /// One fault-tolerance sweep: drain overdue sub-tasks, judge liveness
    /// of every slave.
    FtTick {
        /// Now, in ns since run start.
        now_ns: u64,
    },
    /// A frame of any kind was heard from `slave` at `at_ns` (the
    /// driver's liveness observation — heartbeats, acks, anything).
    Heard {
        /// Slave index (rank - 1).
        slave: usize,
        /// Observation time, ns since run start.
        at_ns: u64,
    },
    /// The slave announced idleness.
    Idle {
        /// Slave index.
        slave: usize,
    },
    /// The slave reported a completed sub-task.
    Done {
        /// Slave index.
        slave: usize,
        /// Dense id of the completed master-DAG vertex.
        task: u32,
    },
    /// An [`MasterAction::Assign`] could not even be handed to the
    /// transport (the slave's channel is gone). Rolls the dispatch back:
    /// the task returns to the computable stack untouched and the slave
    /// is permanently out.
    AssignRejected {
        /// Slave index.
        slave: usize,
        /// The task of the rejected assignment.
        task: u32,
    },
    /// A previously accepted reliable send was abandoned by the transport
    /// (retry budget exhausted or peer unreachable). `assign_task` names
    /// the in-flight assignment if the lost send was an ASSIGN.
    SendFailed {
        /// Slave index.
        slave: usize,
        /// Task of the lost ASSIGN, if the send was one.
        assign_task: Option<u32>,
        /// Why the transport gave up.
        reason: SendFailKind,
        /// Now, in ns since run start.
        now_ns: u64,
    },
    /// The driver enters teardown: stop dispatching, keep accepting
    /// completions still in flight.
    Drain,
    /// A *new incarnation* of `slave` was admitted under a new fleet
    /// epoch (or, when `slave` is past the current fleet, a brand-new
    /// slave joined mid-run and the machine must grow). The old
    /// incarnation's in-flight work is rolled back for redistribution —
    /// whatever it computes now will arrive stamped with a stale epoch
    /// and be fenced.
    Rejoined {
        /// Slave index (>= the current fleet size for a mid-run joiner).
        slave: usize,
        /// Admission time, ns since run start.
        now_ns: u64,
    },
    /// A DONE stamped with an out-of-date epoch arrived from `slave`:
    /// the computing incarnation was already fenced. Counted and
    /// dropped; the register table is never consulted, so a stale-epoch
    /// completion can never be accepted.
    StaleEpoch {
        /// Slave index.
        slave: usize,
        /// Task of the fenced completion.
        task: u32,
    },
    /// Operator request: stop assigning work to `slave`, let its
    /// in-flight sub-tasks finish, then release it from the fleet
    /// ([`MasterAction::Release`]).
    DrainSlave {
        /// Slave index.
        slave: usize,
    },
}

/// Effect the driver must perform, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterAction {
    /// Send an ASSIGN for `task` to `slave` (build the payload, record
    /// the dispatch instant). If the transport refuses outright, feed
    /// [`MasterEvent::AssignRejected`] back.
    Assign {
        /// Slave index.
        slave: usize,
        /// Dense id of the assigned master-DAG vertex.
        task: u32,
    },
    /// The completion of `task` by `slave` is authentic: decode the
    /// result into the matrix, close the trace span.
    Accept {
        /// Slave index.
        slave: usize,
        /// Completed task.
        task: u32,
    },
    /// The completion was a stale duplicate (redistributed task): count
    /// it, touch nothing.
    Stale {
        /// Slave index.
        slave: usize,
        /// Task of the stale completion.
        task: u32,
    },
    /// `task` timed out and was taken back for redistribution.
    Redispatch {
        /// The overdue task.
        task: u32,
    },
    /// The ASSIGN of `task` was abandoned in flight; the dispatch was
    /// rolled back — clear any driver-side start record.
    CancelAssign {
        /// The rolled-back task.
        task: u32,
    },
    /// `slave` was excluded from scheduling.
    Exclude {
        /// Slave index.
        slave: usize,
    },
    /// A dead-marked `slave` proved alive and rejoined the schedule.
    Readmit {
        /// Slave index.
        slave: usize,
    },
    /// Every task has completed; the run is done.
    Finished,
    /// The tile budget is reached; stop dispatching and drain.
    BudgetStop,
    /// Every slave is unreachable and none may still rejoin; the run
    /// cannot finish.
    AllSlavesDead,
    /// A new incarnation of `slave` was admitted: reset the transport's
    /// per-peer reliability state (its sequence numbers restarted) and
    /// stamp every future ASSIGN to it with the new fleet epoch.
    Refence {
        /// Slave index.
        slave: usize,
    },
    /// The drained `slave` has nothing left in flight: release its rank
    /// back to the fleet's free-list.
    Release {
        /// Slave index.
        slave: usize,
    },
}

/// The machine's own counters, mirroring `MasterStats` semantics. The
/// conservation invariant `dispatched == (completed - resumed) +
/// redispatched` holds at quiescence by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Sub-tasks dispatched (including re-dispatches).
    pub dispatched: u64,
    /// Sub-tasks taken back for redistribution (timeout or lost ASSIGN).
    pub redispatched: u64,
    /// Completions accepted (excluding resumed).
    pub completed: u64,
    /// Sub-tasks preloaded from a checkpoint.
    pub resumed: u64,
    /// Stale duplicate completions ignored.
    pub stale: u64,
    /// Reliable sends the transport abandoned or rejected.
    pub send_failures: u64,
    /// Slaves declared dead.
    pub exclusions: u64,
    /// Dead-marked slaves re-admitted.
    pub readmissions: u64,
    /// New incarnations admitted (a redialling or replacement slave, or
    /// a mid-run joiner growing the fleet).
    pub rejoins: u64,
    /// Completions fenced because they were stamped with a stale epoch.
    pub stale_epoch: u64,
}

/// An in-flight dispatch: virtual-time twin of the runtime's overtime
/// queue entry.
#[derive(Clone, Copy, Debug)]
struct Overtime {
    task: u32,
    slave: u32,
    started_ns: u64,
}

/// The master-side scheduling state machine. See the module docs for the
/// event/action contract; the threaded runtime, the simulator and the
/// explorer all drive this same struct.
#[derive(Clone, Debug)]
pub struct MasterSched {
    parser: DagParser,
    register: RegisterTable,
    overtime: Vec<Overtime>,
    mode: ScheduleMode,
    tile_cols: u32,
    n_slaves: usize,
    task_timeout_ns: u64,
    heartbeat_timeout_ns: u64,
    budget: Option<u64>,
    /// How long after it was last heard an unreachable slave may still
    /// rejoin as a new incarnation (`None`: never).
    rejoin_window_ns: Option<u64>,
    /// Presumed-alive flag per slave (re-admittable).
    alive: Vec<bool>,
    /// The slave's link is gone: never re-admitted by hearing from it,
    /// only by a rejoin.
    unreachable: Vec<bool>,
    /// Idle flag per slave (set by IDLE/DONE, cleared by dispatch).
    idle: Vec<bool>,
    /// Residency record: one bitset per slave over master-DAG vertices.
    /// Bit `v` is set once an accepted DONE proves the slave's node
    /// matrix holds `v`'s cells, and cleared with the rest of the set
    /// when a new incarnation, with a new matrix, is admitted.
    resident: Vec<Vec<u64>>,
    /// When each slave was last heard from, ns since run start. Seeded
    /// with 0 (the run start) so a not-yet-heard slave gets a startup
    /// grace of one `heartbeat_timeout` instead of counting as silent.
    last_seen: Vec<Option<u64>>,
    /// Per-slave graceful drain: no new dispatch, release when the last
    /// in-flight sub-task lands.
    slave_draining: Vec<bool>,
    draining: bool,
    counters: SchedCounters,
}

impl MasterSched {
    /// Machine for `n_slaves` slaves draining `dag` under `mode`, with an
    /// optional tile budget (resumed tiles count toward it).
    pub fn new(
        dag: &TaskDag,
        n_slaves: usize,
        mode: ScheduleMode,
        params: &SchedParams,
        budget: Option<u64>,
    ) -> Self {
        assert!(n_slaves > 0, "need at least one slave");
        Self {
            parser: DagParser::new(dag),
            register: RegisterTable::new(dag.len()),
            overtime: Vec::new(),
            mode,
            tile_cols: dag.dims().cols,
            n_slaves,
            task_timeout_ns: params.task_timeout_ns(),
            heartbeat_timeout_ns: params.heartbeat_timeout_ns(),
            budget,
            rejoin_window_ns: None,
            alive: vec![true; n_slaves],
            unreachable: vec![false; n_slaves],
            idle: vec![false; n_slaves],
            resident: vec![vec![0; dag.len().div_ceil(64)]; n_slaves],
            last_seen: vec![Some(0); n_slaves],
            slave_draining: vec![false; n_slaves],
            draining: false,
            counters: SchedCounters::default(),
        }
    }

    /// Let an unreachable slave rejoin for up to `window` after it was
    /// last heard: until then it does not count toward
    /// [`MasterAction::AllSlavesDead`]. `None` (the default): an
    /// unreachable slave is gone for good.
    pub fn with_rejoin_window(mut self, window: Option<Duration>) -> Self {
        self.rejoin_window_ns = window.map(|w| u64::try_from(w.as_nanos()).unwrap_or(u64::MAX));
        self
    }

    /// Grow the machine to `n` slaves — called when a mid-run joiner
    /// extends the fleet past its initial size. New slots start alive,
    /// busy (they announce IDLE themselves) and just-heard.
    pub fn grow_to(&mut self, n: usize) {
        while self.n_slaves < n {
            self.alive.push(true);
            self.unreachable.push(false);
            self.idle.push(false);
            self.resident.push(vec![0; self.resident[0].len()]);
            self.last_seen.push(Some(0));
            self.slave_draining.push(false);
            self.n_slaves += 1;
        }
    }

    /// Current number of slave slots (grows with mid-run joins).
    pub fn n_slaves(&self) -> usize {
        self.n_slaves
    }

    /// Counters so far.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// Whether every task has completed.
    pub fn is_done(&self) -> bool {
        self.parser.is_done()
    }

    /// Per-slave liveness view (true = presumed alive).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Per-slave reachability view (true = its channel is gone, or it was
    /// released: never dispatched to again).
    pub fn unreachable(&self) -> &[bool] {
        &self.unreachable
    }

    /// Whether `slave`'s node matrix holds the cells of master-DAG vertex
    /// `task`: the slave computed it, or received it as an input strip,
    /// and an accepted DONE proved so. An ASSIGN need not carry a
    /// resident strip.
    pub fn resident(&self, slave: usize, task: u32) -> bool {
        self.resident[slave][task as usize / 64] >> (task % 64) & 1 == 1
    }

    /// Fast-forward one checkpointed task. The driver walks a topological
    /// order restricted to the checkpoint's finished set; a set that is
    /// not ancestor-closed surfaces here as a violation.
    pub fn preload_finished(&mut self, dag: &TaskDag, v: VertexId) -> Result<(), SchedViolation> {
        let claimed = self
            .parser
            .pop_computable_matching(|x| x == v)
            .ok_or_else(|| SchedViolation::new("checkpointed set must be ancestor-closed", v))?;
        self.parser
            .complete(dag, claimed, None)
            .map_err(|_| SchedViolation::new("claimed preload task completes", v))?;
        self.counters.resumed += 1;
        Ok(())
    }

    /// Whether `slave` has been silent past the heartbeat timeout
    /// (measured from run start when it was never heard from).
    fn silent(&self, slave: usize, now_ns: u64) -> bool {
        self.last_seen[slave].is_none_or(|t| now_ns.saturating_sub(t) > self.heartbeat_timeout_ns)
    }

    /// Whether unreachable `slave` may still come back: it was heard
    /// from within the rejoin window and is not leaving (a drained or
    /// released rank is refused).
    fn may_rejoin(&self, slave: usize, now_ns: u64) -> bool {
        let heard = self.last_seen[slave].unwrap_or(0);
        !self.slave_draining[slave]
            && self
                .rejoin_window_ns
                .is_some_and(|w| now_ns < heard.saturating_add(w))
    }

    /// Exclude `slave` from scheduling; true if this call excluded it.
    fn exclude(&mut self, slave: usize, out: &mut Vec<MasterAction>) {
        if self.alive[slave] {
            self.alive[slave] = false;
            self.counters.exclusions += 1;
            out.push(MasterAction::Exclude { slave });
        }
    }

    fn budget_reached(&self) -> bool {
        self.budget
            .is_some_and(|b| self.counters.completed + self.counters.resumed >= b)
    }

    /// Feed one event; returns the actions the driver must perform, in
    /// order.
    pub fn on_event(
        &mut self,
        dag: &TaskDag,
        ev: MasterEvent,
    ) -> Result<Vec<MasterAction>, SchedViolation> {
        let mut out = Vec::new();
        match ev {
            MasterEvent::Tick { now_ns } => self.tick(dag, now_ns, &mut out),
            MasterEvent::FtTick { now_ns } => self.ft_tick(dag, now_ns, &mut out)?,
            MasterEvent::Heard { slave, at_ns } => {
                if slave < self.n_slaves {
                    self.last_seen[slave] = Some(at_ns);
                }
            }
            MasterEvent::Idle { slave } => {
                if slave < self.n_slaves {
                    self.idle[slave] = true;
                }
            }
            MasterEvent::Done { slave, task } => {
                if slave < self.n_slaves {
                    self.done(dag, slave, task, &ev, &mut out)?;
                }
            }
            MasterEvent::AssignRejected { slave, task } => {
                if slave >= self.n_slaves {
                    return Err(SchedViolation::new(
                        "rejected assign names unknown slave",
                        ev,
                    ));
                }
                // The task was never dispatched: back onto the computable
                // stack untouched, and the dispatch un-counted. The slave's
                // channel is gone for good.
                self.register.cancel(task);
                self.overtime.retain(|e| e.task != task);
                self.parser
                    .fail(dag, VertexId(task))
                    .map_err(|_| SchedViolation::new("rejected assignment was not running", ev))?;
                self.counters.dispatched -= 1;
                self.counters.send_failures += 1;
                self.idle[slave] = true;
                self.unreachable[slave] = true;
                self.exclude(slave, &mut out);
            }
            MasterEvent::SendFailed {
                slave,
                assign_task,
                reason,
                now_ns,
            } => {
                if slave < self.n_slaves {
                    self.send_failed(dag, slave, assign_task, reason, now_ns, &mut out)?;
                }
            }
            MasterEvent::Drain => self.draining = true,
            MasterEvent::Rejoined { slave, now_ns } => {
                self.rejoined(dag, slave, now_ns, &mut out)?
            }
            MasterEvent::StaleEpoch { slave, task } => {
                // The fenced incarnation's work never touches the
                // register: a stale-epoch DONE cannot be accepted even
                // if the task happens to be registered to this rank
                // (the *new* incarnation may legitimately be running it).
                if slave < self.n_slaves {
                    let _ = task;
                    self.counters.stale_epoch += 1;
                }
            }
            MasterEvent::DrainSlave { slave } => {
                if slave < self.n_slaves && !self.slave_draining[slave] {
                    self.slave_draining[slave] = true;
                    self.maybe_release(slave, &mut out);
                }
            }
        }
        Ok(out)
    }

    /// A new incarnation of `slave` was admitted (or a brand-new slave
    /// joined past the fleet's current size): roll the old incarnation's
    /// in-flight work back for redistribution, restore the slot to
    /// scheduling, and tell the driver to re-fence the transport.
    fn rejoined(
        &mut self,
        dag: &TaskDag,
        slave: usize,
        now_ns: u64,
        out: &mut Vec<MasterAction>,
    ) -> Result<(), SchedViolation> {
        if slave >= self.n_slaves {
            // Mid-run joiner: fresh slot, nothing to roll back.
            self.grow_to(slave + 1);
            self.last_seen[slave] = Some(now_ns);
            self.counters.rejoins += 1;
            out.push(MasterAction::Refence { slave });
            return Ok(());
        }
        // Roll back whatever the dead incarnation still held: its DONEs
        // will arrive (if at all) under a stale epoch and be fenced, so
        // the work must be redistributable *now*, not after the task
        // timeout.
        let mut mine = Vec::new();
        self.overtime.retain(|e| {
            if e.slave == slave as u32 {
                mine.push(*e);
                false
            } else {
                true
            }
        });
        for e in mine {
            if self.register.accepts(e.task, e.slave) {
                self.register.cancel(e.task);
                self.parser.fail(dag, VertexId(e.task)).map_err(|_| {
                    SchedViolation::new(
                        "rejoined slave's in-flight task was not running",
                        MasterEvent::Rejoined { slave, now_ns },
                    )
                })?;
                self.counters.redispatched += 1;
                out.push(MasterAction::Redispatch { task: e.task });
            }
        }
        // The new incarnation is reachable and idle by construction; a
        // pending drain applied to the old incarnation, not this one.
        self.unreachable[slave] = false;
        self.last_seen[slave] = Some(now_ns);
        self.idle[slave] = true;
        self.resident[slave].fill(0);
        self.slave_draining[slave] = false;
        self.counters.rejoins += 1;
        if !self.alive[slave] {
            self.alive[slave] = true;
            self.counters.readmissions += 1;
            out.push(MasterAction::Readmit { slave });
        }
        out.push(MasterAction::Refence { slave });
        Ok(())
    }

    /// If `slave` is draining and holds nothing in flight, release it:
    /// out of scheduling for good, rank returned to the fleet.
    fn maybe_release(&mut self, slave: usize, out: &mut Vec<MasterAction>) {
        if !self.slave_draining[slave] || self.unreachable[slave] {
            return;
        }
        if self.overtime.iter().any(|e| e.slave == slave as u32) {
            return;
        }
        // Released, not excluded: the departure is voluntary, so it is
        // not counted as a death and never re-admitted.
        self.alive[slave] = false;
        self.unreachable[slave] = true;
        out.push(MasterAction::Release { slave });
    }

    /// One scheduling pass (the body the old threaded loop ran under its
    /// lock): re-admit wrongly excluded slaves, stop on done/budget,
    /// dispatch to idle live slaves, give up only when every channel is
    /// permanently gone.
    fn tick(&mut self, dag: &TaskDag, now_ns: u64, out: &mut Vec<MasterAction>) {
        // Re-admission: a dead-marked slave that was heard from recently
        // (and whose channel still exists) was slow or unlucky, not dead.
        for w in 0..self.n_slaves {
            if !self.alive[w] && !self.unreachable[w] && !self.silent(w, now_ns) {
                self.alive[w] = true;
                self.counters.readmissions += 1;
                out.push(MasterAction::Readmit { slave: w });
            }
        }

        // Stop *before* dispatching: once the budget is reached no new
        // work may start, so every in-flight completion can be drained
        // into the checkpoint during teardown.
        if self.parser.is_done() {
            out.push(MasterAction::Finished);
            return;
        }
        if self.budget_reached() {
            out.push(MasterAction::BudgetStop);
            return;
        }
        if self.draining {
            return;
        }

        // Dispatch computable sub-tasks to idle live slaves. When *every*
        // slave is presumed dead but some channels are still open,
        // dispatch speculatively to the silent-but-reachable ones: a slave
        // whose heartbeats are lost will ACK the ASSIGN and be re-admitted,
        // while a truly hung one exhausts the retry budget, turns
        // unreachable, and the run fails fast below.
        let alive_now = self.alive.clone();
        let none_alive = alive_now.iter().all(|a| !a);
        for w in 0..self.n_slaves {
            if self.slave_draining[w] {
                continue; // draining: finish in-flight work, take no more
            }
            let speculative = none_alive && !self.unreachable[w];
            if !self.idle[w] || !(alive_now[w] || speculative) {
                continue;
            }
            let picked = if speculative {
                self.parser.pop_computable()
            } else {
                // Orphan fallback: a statically-owned task whose owner is
                // excluded would otherwise never be dispatchable.
                pick_task(
                    &mut self.parser,
                    dag,
                    self.mode,
                    self.tile_cols,
                    self.n_slaves as u32,
                    w as u32,
                    Some(&|o| !alive_now[o as usize]),
                )
            };
            if let Some(v) = picked {
                self.register.register(v.0, w as u32);
                self.overtime.push(Overtime {
                    task: v.0,
                    slave: w as u32,
                    started_ns: now_ns,
                });
                self.idle[w] = false;
                self.counters.dispatched += 1;
                out.push(MasterAction::Assign {
                    slave: w,
                    task: v.0,
                });
            }
        }

        // Give up only when every slave is *unreachable* — its channel is
        // gone — and none may still rejoin. Merely-silent slaves can be
        // heard again and re-admitted (and the speculative dispatch above
        // actively probes them), so presumed-dead is not a terminal state
        // on its own, and neither is a link that broke within the window.
        if (0..self.n_slaves).all(|w| self.unreachable[w] && !self.may_rejoin(w, now_ns)) {
            out.push(MasterAction::AllSlavesDead);
        }
    }

    /// One fault-tolerance sweep (step g of the paper's workflow):
    /// redistribute overdue sub-tasks; exclude a slave only when the
    /// heartbeat record says it is dead, not merely slow.
    fn ft_tick(
        &mut self,
        dag: &TaskDag,
        now_ns: u64,
        out: &mut Vec<MasterAction>,
    ) -> Result<(), SchedViolation> {
        let mut overdue = Vec::new();
        self.overtime.retain(|e| {
            if now_ns.saturating_sub(e.started_ns) >= self.task_timeout_ns {
                overdue.push(*e);
                false
            } else {
                true
            }
        });
        for e in overdue {
            if self.register.accepts(e.task, e.slave) {
                self.register.cancel(e.task);
                self.parser.fail(dag, VertexId(e.task)).map_err(|_| {
                    SchedViolation::new(
                        "overdue task was not running",
                        MasterEvent::FtTick { now_ns },
                    )
                })?;
                self.counters.redispatched += 1;
                out.push(MasterAction::Redispatch { task: e.task });
            }
        }
        // Liveness is judged for every slave, not only owners of overdue
        // work: a slave that crashes while holding nothing overdue (its
        // task already redispatched while it was merely slow) would
        // otherwise never be excluded — and in static modes its owned
        // tiles would never fall back to the survivors (deadlock, found
        // by `easyhps stress`).
        for w in 0..self.n_slaves {
            if self.unreachable[w] || self.silent(w, now_ns) {
                self.exclude(w, out);
            }
        }
        // The overdue drain may have taken back a draining slave's last
        // in-flight sub-task: it can be released now.
        for w in 0..self.n_slaves {
            self.maybe_release(w, out);
        }
        Ok(())
    }

    /// A DONE frame: authenticate against the register table; accept or
    /// count stale. Identical in the running and draining phases — a
    /// budget stop keeps accepting completions still in flight so they
    /// land in the checkpoint instead of being recomputed after resume.
    fn done(
        &mut self,
        dag: &TaskDag,
        slave: usize,
        task: u32,
        ev: &MasterEvent,
        out: &mut Vec<MasterAction>,
    ) -> Result<(), SchedViolation> {
        self.idle[slave] = true;
        if self.register.accepts(task, slave as u32) {
            self.register.cancel(task);
            self.overtime.retain(|e| e.task != task);
            self.parser
                .complete(dag, VertexId(task), None)
                .map_err(|_| {
                    SchedViolation::new("registered completion was not running", ev.clone())
                })?;
            self.counters.completed += 1;
            // The DONE proves the ASSIGN arrived: the slave decoded every
            // strip it carried and held every one it did not, and now
            // holds the tile it computed.
            let set = &mut self.resident[slave];
            for v in std::iter::once(task)
                .chain(dag.vertex(VertexId(task)).data_deps.iter().map(|d| d.0))
            {
                set[v as usize / 64] |= 1 << (v % 64);
            }
            out.push(MasterAction::Accept { slave, task });
        } else {
            self.counters.stale += 1;
            out.push(MasterAction::Stale { slave, task });
        }
        self.maybe_release(slave, out);
        Ok(())
    }

    /// An abandoned reliable send: roll back the in-flight assignment (if
    /// it was one) so the task is redistributable, and judge the slave by
    /// its heartbeat — an unreachable peer is dead, a silent one presumed
    /// dead (re-admitted later if it turns out merely slow).
    fn send_failed(
        &mut self,
        dag: &TaskDag,
        slave: usize,
        assign_task: Option<u32>,
        reason: SendFailKind,
        now_ns: u64,
        out: &mut Vec<MasterAction>,
    ) -> Result<(), SchedViolation> {
        self.counters.send_failures += 1;
        if let Some(task) = assign_task {
            if self.register.accepts(task, slave as u32) {
                self.register.cancel(task);
                self.overtime.retain(|e| e.task != task);
                self.parser.fail(dag, VertexId(task)).map_err(|_| {
                    SchedViolation::new(
                        "undelivered task was not running",
                        MasterEvent::SendFailed {
                            slave,
                            assign_task,
                            reason,
                            now_ns,
                        },
                    )
                })?;
                self.counters.redispatched += 1;
                // The slave never saw the ASSIGN; it is not busy with it,
                // whatever its health.
                self.idle[slave] = true;
                out.push(MasterAction::CancelAssign { task });
            }
        }
        match reason {
            SendFailKind::Unreachable => {
                self.unreachable[slave] = true;
                self.exclude(slave, out);
            }
            SendFailKind::NoAck => {
                if self.silent(slave, now_ns) {
                    self.exclude(slave, out);
                }
            }
        }
        self.maybe_release(slave, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Wavefront2D;
    use crate::{GridDims, TaskDag};

    const MS: u64 = 1_000_000;

    fn dag4() -> TaskDag {
        // 2x2 wavefront: 0 -> {1, 2} -> 3.
        TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)))
    }

    fn machine(dag: &TaskDag, slaves: usize, mode: ScheduleMode) -> MasterSched {
        MasterSched::new(dag, slaves, mode, &SchedParams::default(), None)
    }

    fn assigns(acts: &[MasterAction]) -> Vec<(usize, u32)> {
        acts.iter()
            .filter_map(|a| match a {
                MasterAction::Assign { slave, task } => Some((*slave, *task)),
                _ => None,
            })
            .collect()
    }

    /// The machine's side of the driver contract: which action kinds each
    /// event kind may answer with. The runtime's shell applies every action
    /// in one `match` and no longer asserts this per call site, so it is
    /// pinned here, on every event these tests feed.
    fn on_event_checked(m: &mut MasterSched, dag: &TaskDag, ev: MasterEvent) -> Vec<MasterAction> {
        use MasterAction as A;
        use MasterEvent as E;
        let allowed: fn(&A) -> bool = match ev {
            E::Tick { .. } => |a| {
                matches!(
                    a,
                    A::Readmit { .. }
                        | A::Assign { .. }
                        | A::Finished
                        | A::BudgetStop
                        | A::AllSlavesDead
                )
            },
            E::FtTick { .. } => |a| {
                matches!(
                    a,
                    A::Redispatch { .. } | A::Exclude { .. } | A::Release { .. }
                )
            },
            E::Done { .. } => {
                |a| matches!(a, A::Accept { .. } | A::Stale { .. } | A::Release { .. })
            }
            E::SendFailed { .. } => |a| {
                matches!(
                    a,
                    A::CancelAssign { .. } | A::Exclude { .. } | A::Release { .. }
                )
            },
            E::AssignRejected { .. } => |a| matches!(a, A::Exclude { .. }),
            E::Rejoined { .. } => |a| {
                matches!(
                    a,
                    A::Redispatch { .. } | A::Readmit { .. } | A::Refence { .. }
                )
            },
            E::DrainSlave { .. } => |a| matches!(a, A::Release { .. }),
            E::Heard { .. } | E::Idle { .. } | E::Drain | E::StaleEpoch { .. } => |_| false,
        };
        let acts = m.on_event(dag, ev.clone()).expect("legal event sequence");
        assert!(acts.iter().all(allowed), "{ev:?} emitted {acts:?}");
        acts
    }

    /// Run a whole event sequence, collecting every action batch.
    fn feed(
        m: &mut MasterSched,
        dag: &TaskDag,
        evs: impl IntoIterator<Item = MasterEvent>,
    ) -> Vec<MasterAction> {
        evs.into_iter()
            .flat_map(|e| on_event_checked(m, dag, e))
            .collect()
    }

    /// Regression (startup-exclusion bug): a slave nobody has heard from
    /// yet is within the heartbeat grace window right after startup, not
    /// "silent since forever" — the FT sweep excluded healthy
    /// slow-starting slaves otherwise.
    #[test]
    fn never_heard_slave_gets_startup_grace() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        // Within the 250 ms default timeout: nobody is excluded.
        let acts = feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: 100 * MS }]);
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(m.alive(), &[true, true]);
    }

    /// The grace window still expires: a slave quiet past the heartbeat
    /// timeout measured from run start is silent.
    #[test]
    fn startup_grace_expires_after_heartbeat_timeout() {
        let dag = dag4();
        let mut m = machine(&dag, 1, ScheduleMode::Dynamic);
        let acts = feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: 300 * MS }]);
        assert_eq!(acts, vec![MasterAction::Exclude { slave: 0 }]);
    }

    /// Table-driven transition coverage for the PR 2/PR 4 bug classes:
    /// each case is a pure event sequence and the actions it must end on.
    #[test]
    fn transition_table() {
        struct Case {
            name: &'static str,
            mode: ScheduleMode,
            rejoin_window: Option<Duration>,
            events: Vec<MasterEvent>,
            /// The exact batch the last event must emit (`None`: not pinned).
            emits: Option<Vec<MasterAction>>,
            last_actions: Vec<MasterAction>,
        }
        let idle = |slave| MasterEvent::Idle { slave };
        let heard = |slave, at_ns| MasterEvent::Heard { slave, at_ns };
        let tick = |now_ns| MasterEvent::Tick { now_ns };
        let done = |slave, task| MasterEvent::Done { slave, task };
        let unreachable = |slave, now_ns| MasterEvent::SendFailed {
            slave,
            assign_task: None,
            reason: SendFailKind::Unreachable,
            now_ns,
        };
        let window = Some(Duration::from_millis(1000));
        // Slave 0 holds task 0 in flight and is asked to drain.
        let draining_holder = || {
            vec![
                idle(0),
                idle(1),
                tick(0),
                MasterEvent::DrainSlave { slave: 0 },
            ]
        };
        let cases = [
            Case {
                name: "dispatch goes to the idle slave only",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: vec![idle(1)],
                emits: None,
                // Idle itself emits nothing; the probe tick dispatches to
                // the one idle slave.
                last_actions: vec![MasterAction::Assign { slave: 1, task: 0 }],
            },
            Case {
                name: "tick assigns the one computable source",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: vec![idle(0), idle(1)],
                emits: None,
                last_actions: vec![MasterAction::Assign { slave: 0, task: 0 }],
            },
            Case {
                name: "silent slave is excluded, heartbeat re-admits it",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: vec![
                    heard(0, 400 * MS),
                    MasterEvent::FtTick { now_ns: 400 * MS }, // slave 1 silent since 0
                    heard(1, 401 * MS),
                ],
                emits: None,
                last_actions: vec![MasterAction::Readmit { slave: 1 }],
            },
            Case {
                name: "unreachable slave is never re-admitted",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: vec![
                    MasterEvent::SendFailed {
                        slave: 1,
                        assign_task: None,
                        reason: SendFailKind::Unreachable,
                        now_ns: MS,
                    },
                    heard(1, 2 * MS),
                ],
                emits: None,
                last_actions: vec![],
            },
            // FtTick -> Release: the overdue sweep takes back a draining
            // slave's last sub-task, so the same sweep releases it.
            Case {
                name: "overdue sweep releases the draining slave it drains",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: [
                    draining_holder(),
                    vec![
                        heard(0, 31_000 * MS),
                        heard(1, 31_000 * MS),
                        MasterEvent::FtTick {
                            now_ns: 31_000 * MS,
                        },
                    ],
                ]
                .concat(),
                emits: Some(vec![
                    MasterAction::Redispatch { task: 0 },
                    MasterAction::Release { slave: 0 },
                ]),
                last_actions: vec![MasterAction::Assign { slave: 1, task: 0 }],
            },
            // SendFailed -> CancelAssign + Release: the draining slave's
            // ASSIGN never arrived, so it holds nothing and may go.
            Case {
                name: "lost assign to a draining slave releases it",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: [
                    draining_holder(),
                    vec![
                        heard(0, MS),
                        MasterEvent::SendFailed {
                            slave: 0,
                            assign_task: Some(0),
                            reason: SendFailKind::NoAck,
                            now_ns: 2 * MS,
                        },
                    ],
                ]
                .concat(),
                emits: Some(vec![
                    MasterAction::CancelAssign { task: 0 },
                    MasterAction::Release { slave: 0 },
                ]),
                last_actions: vec![MasterAction::Assign { slave: 1, task: 0 }],
            },
            // Tick -> Finished, and nothing after it: one slave walks the
            // whole 2x2 wavefront.
            Case {
                name: "tick reports finished once every task completed",
                mode: ScheduleMode::Dynamic,
                rejoin_window: None,
                events: vec![
                    idle(0),
                    tick(MS),
                    done(0, 0),
                    tick(2 * MS),
                    done(0, 2),
                    tick(3 * MS),
                    done(0, 1),
                    tick(4 * MS),
                    done(0, 3),
                    tick(5 * MS),
                ],
                emits: Some(vec![MasterAction::Finished]),
                last_actions: vec![],
            },
            // Every link gone, but a slave may still redial: no give-up.
            Case {
                name: "all slaves unreachable inside the rejoin window is not fatal",
                mode: ScheduleMode::Dynamic,
                rejoin_window: window,
                events: vec![unreachable(0, MS), unreachable(1, MS), tick(2 * MS)],
                emits: Some(vec![]),
                last_actions: vec![],
            },
            // ... and the rank that comes back is scheduled again.
            Case {
                name: "a rejoin inside the window re-admits the rank",
                mode: ScheduleMode::Dynamic,
                rejoin_window: window,
                events: vec![
                    unreachable(0, MS),
                    unreachable(1, MS),
                    tick(2 * MS),
                    MasterEvent::Rejoined {
                        slave: 1,
                        now_ns: 3 * MS,
                    },
                ],
                emits: Some(vec![
                    MasterAction::Readmit { slave: 1 },
                    MasterAction::Refence { slave: 1 },
                ]),
                last_actions: vec![
                    MasterAction::Readmit { slave: 1 },
                    MasterAction::Assign { slave: 1, task: 0 },
                ],
            },
            // Once the window has closed on every slave, the run is lost.
            Case {
                name: "all slaves unreachable after the rejoin window is fatal",
                mode: ScheduleMode::Dynamic,
                rejoin_window: window,
                events: vec![unreachable(0, MS), unreachable(1, MS), tick(1001 * MS)],
                emits: Some(vec![MasterAction::AllSlavesDead]),
                last_actions: vec![],
            },
        ];
        for c in cases {
            let dag = dag4();
            let mut m = machine(&dag, 2, c.mode).with_rejoin_window(c.rejoin_window);
            let mut last = Vec::new();
            for e in c.events {
                last = on_event_checked(&mut m, &dag, e);
            }
            if let Some(emits) = c.emits {
                assert_eq!(last, emits, "{}", c.name);
            }
            // The final probe tick surfaces re-admissions / dispatches.
            let probe = on_event_checked(&mut m, &dag, tick(402 * MS));
            let got: Vec<_> = last
                .iter()
                .chain(probe.iter())
                .filter(|a| {
                    matches!(
                        a,
                        MasterAction::Readmit { .. } | MasterAction::Assign { .. }
                    )
                })
                .cloned()
                .collect();
            match c.name {
                "tick assigns the one computable source" => {
                    assert_eq!(assigns(&got), vec![(0, 0)], "{}", c.name)
                }
                "silent slave is excluded, heartbeat re-admits it" => {
                    assert!(
                        got.contains(&MasterAction::Readmit { slave: 1 }),
                        "{}: {got:?}",
                        c.name
                    )
                }
                "unreachable slave is never re-admitted" => {
                    assert!(
                        !got.iter()
                            .any(|a| matches!(a, MasterAction::Readmit { .. })),
                        "{}: {got:?}",
                        c.name
                    )
                }
                _ => assert_eq!(got, c.last_actions, "{}", c.name),
            }
        }
    }

    /// Exclusion and re-admission round trip, with the dispatch shape
    /// checked at each step.
    #[test]
    fn exclusion_and_readmission() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        // Both idle; slave 0 takes the single source.
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        // Slave 1 goes silent past the timeout; slave 0 keeps heartbeating.
        let now = 300 * MS;
        feed(
            &mut m,
            &dag,
            [MasterEvent::Heard {
                slave: 0,
                at_ns: now,
            }],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: now }]);
        assert!(
            acts.contains(&MasterAction::Exclude { slave: 1 }),
            "{acts:?}"
        );
        assert_eq!(m.alive(), &[true, false]);
        assert_eq!(m.counters().exclusions, 1);
        // It speaks again: the next tick re-admits it.
        feed(
            &mut m,
            &dag,
            [MasterEvent::Heard {
                slave: 1,
                at_ns: now + MS,
            }],
        );
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::Tick {
                now_ns: now + 2 * MS,
            }],
        );
        assert!(
            acts.contains(&MasterAction::Readmit { slave: 1 }),
            "{acts:?}"
        );
        assert_eq!(m.counters().readmissions, 1);
        assert_eq!(m.alive(), &[true, true]);
    }

    /// Static-mode orphan fallback: the excluded owner's tiles go to a
    /// survivor instead of livelocking the wavefront.
    #[test]
    fn static_orphan_falls_back_to_survivor() {
        let dag = dag4(); // columns 0,1 -> owners 0,1 under ColumnWavefront
        let mut m = machine(&dag, 2, ScheduleMode::ColumnWavefront);
        // Exclude slave 0 (owner of the source column) via silence while
        // slave 1 stays heard.
        let now = 300 * MS;
        feed(
            &mut m,
            &dag,
            [MasterEvent::Heard {
                slave: 1,
                at_ns: now,
            }],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: now }]);
        assert!(acts.contains(&MasterAction::Exclude { slave: 0 }));
        // Slave 1 idle: it must adopt task 0 (owned by dead slave 0).
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 1 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: now + MS }]);
        assert_eq!(assigns(&acts), vec![(1, 0)], "orphan adopted: {acts:?}");
    }

    /// Budget stop happens *before* dispatch, and completions still in
    /// flight are accepted during the drain.
    #[test]
    fn budget_stop_then_drain_accepts_inflight() {
        let dag = dag4();
        let mut m = MasterSched::new(
            &dag,
            2,
            ScheduleMode::Dynamic,
            &SchedParams::default(),
            Some(1),
        );
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        // Completing task 0 reaches the budget of 1.
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Accept { slave: 0, task: 0 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 2 * MS }]);
        assert_eq!(
            acts,
            vec![MasterAction::BudgetStop],
            "no dispatch after the budget"
        );
        assert_eq!(m.counters().dispatched, 1, "budget stop precedes dispatch");
        // Teardown: draining still authenticates and accepts completions
        // (here a stale one, since nothing else is in flight).
        feed(&mut m, &dag, [MasterEvent::Drain]);
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 1, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Stale { slave: 1, task: 0 }]);
        assert_eq!(m.counters().stale, 1);
    }

    /// Overdue drain redistributes and the stale duplicate from the slow
    /// slave is rejected — at-least-once dispatch stays safe.
    #[test]
    fn overdue_redispatch_then_stale_duplicate() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 0 }]);
        // 31 s later the task is overdue; both slaves still heartbeat so
        // neither is excluded — slow, not dead.
        let late = 31_000 * MS;
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Heard {
                    slave: 0,
                    at_ns: late,
                },
                MasterEvent::Heard {
                    slave: 1,
                    at_ns: late,
                },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: late }]);
        assert_eq!(acts, vec![MasterAction::Redispatch { task: 0 }]);
        assert_eq!(m.counters().redispatched, 1);
        // Redispatched to slave 1 (slave 0 is still presumed busy).
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: late + MS }]);
        assert_eq!(assigns(&acts), vec![(1, 0)]);
        // The slow original completes first... as a stale duplicate.
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Stale { slave: 0, task: 0 }]);
        // The registered copy lands.
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 1, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Accept { slave: 1, task: 0 }]);
        let c = m.counters();
        assert_eq!(
            c.dispatched,
            (c.completed - c.resumed) + c.redispatched,
            "conservation: {c:?}"
        );
    }

    /// A completion for a task that is not running is a structured error,
    /// not a panic (the old `expect("registered completion is running")`).
    #[test]
    fn impossible_completion_is_a_violation_not_a_panic() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 0 }]);
        feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        // Forge the register into an inconsistent state to model a driver
        // bug: complete the task twice by replaying the same Done.
        m.on_event(&dag, MasterEvent::Done { slave: 0, task: 0 })
            .unwrap();
        m.register.register(0, 0); // adversarial: re-register a finished task
        let err = m
            .on_event(&dag, MasterEvent::Done { slave: 0, task: 0 })
            .unwrap_err();
        assert!(err.context.contains("not running"), "{err}");
        assert!(err.event.contains("task: 0"), "{err}");
    }

    /// All channels permanently gone -> AllSlavesDead, but merely-silent
    /// slaves keep the run alive (speculative dispatch probes them).
    #[test]
    fn all_unreachable_aborts_but_silence_does_not() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        // Both silent past timeout: excluded, but not aborted; an idle
        // silent slave still gets speculative work.
        let now = 300 * MS;
        feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: now }]);
        assert_eq!(m.alive(), &[false, false]);
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 0 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: now }]);
        assert_eq!(
            assigns(&acts),
            vec![(0, 0)],
            "speculative dispatch: {acts:?}"
        );
        assert!(!acts.contains(&MasterAction::AllSlavesDead));
        // Both channels actually gone: abort.
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::SendFailed {
                    slave: 0,
                    assign_task: Some(0),
                    reason: SendFailKind::Unreachable,
                    now_ns: now,
                },
                MasterEvent::SendFailed {
                    slave: 1,
                    assign_task: None,
                    reason: SendFailKind::Unreachable,
                    now_ns: now,
                },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: now + MS }]);
        assert!(acts.contains(&MasterAction::AllSlavesDead), "{acts:?}");
    }

    /// A rejected ASSIGN rolls back completely: counters conserve and the
    /// task is immediately redispatchable elsewhere.
    #[test]
    fn rejected_assign_rolls_back() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::AssignRejected { slave: 0, task: 0 }],
        );
        assert!(acts.contains(&MasterAction::Exclude { slave: 0 }));
        assert_eq!(m.counters().dispatched, 0, "rolled back");
        assert_eq!(m.counters().send_failures, 1);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 2 * MS }]);
        assert_eq!(assigns(&acts), vec![(1, 0)], "survivor takes it over");
    }

    /// The two-incarnation zombie scenario: incarnation 1 takes a task,
    /// its link dies, it reconnects as incarnation 2 (Rejoined), and the
    /// delayed DONE of incarnation 1 then arrives as a stale-epoch frame.
    /// It must be counted and fenced — never accepted — and the task,
    /// rolled back at rejoin, is recomputed and accepted exactly once.
    #[test]
    fn stale_epoch_done_is_fenced_never_accepted() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        // Incarnation 1 of slave 0 dies; incarnation 2 is admitted.
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::Rejoined {
                slave: 0,
                now_ns: 2 * MS,
            }],
        );
        assert!(
            acts.contains(&MasterAction::Redispatch { task: 0 }),
            "in-flight work rolled back at rejoin: {acts:?}"
        );
        assert!(
            acts.contains(&MasterAction::Refence { slave: 0 }),
            "{acts:?}"
        );
        assert_eq!(m.counters().rejoins, 1);
        // The zombie's delayed DONE arrives under the old epoch: the
        // driver classifies it as StaleEpoch. Nothing is accepted.
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::StaleEpoch { slave: 0, task: 0 }],
        );
        assert!(acts.is_empty(), "fenced DONE produces no actions: {acts:?}");
        assert_eq!(m.counters().stale_epoch, 1);
        assert_eq!(m.counters().completed, 0, "never accepted");
        // The rolled-back task is redispatched (to the rejoined slave,
        // which came back idle) and its fresh completion is accepted —
        // exactly once.
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 3 * MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Accept { slave: 0, task: 0 }]);
        // A replay of the same stale frame is still fenced.
        feed(
            &mut m,
            &dag,
            [MasterEvent::StaleEpoch { slave: 0, task: 0 }],
        );
        let c = m.counters();
        assert_eq!(c.stale_epoch, 2);
        assert_eq!(c.completed, 1, "double-accept is impossible");
        assert_eq!(
            c.dispatched,
            (c.completed - c.resumed) + c.redispatched,
            "conservation: {c:?}"
        );
    }

    /// A rejoin of an *excluded* slave re-admits it, and a rejoin past
    /// the fleet size grows the machine (mid-run join).
    #[test]
    fn rejoin_readmits_and_join_grows() {
        let dag = dag4();
        let mut m = machine(&dag, 1, ScheduleMode::Dynamic);
        // Excluded by silence.
        feed(&mut m, &dag, [MasterEvent::FtTick { now_ns: 300 * MS }]);
        assert_eq!(m.alive(), &[false]);
        // A new incarnation readmits the slot without waiting for ticks.
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::Rejoined {
                slave: 0,
                now_ns: 301 * MS,
            }],
        );
        assert!(
            acts.contains(&MasterAction::Readmit { slave: 0 }),
            "{acts:?}"
        );
        assert_eq!(m.alive(), &[true]);
        // A joiner past the fleet: the machine grows and dispatches to it.
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::Rejoined {
                slave: 1,
                now_ns: 302 * MS,
            }],
        );
        assert!(
            acts.contains(&MasterAction::Refence { slave: 1 }),
            "{acts:?}"
        );
        assert_eq!(m.n_slaves(), 2);
        // Once the wavefront widens past the source, the joiner is
        // scheduled alongside the original slave.
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 1 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 303 * MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)], "source to first idle slave");
        feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 304 * MS }]);
        let got = assigns(&acts);
        assert!(
            got.iter().any(|(w, _)| *w == 1),
            "joiner gets work once the frontier widens: {got:?}"
        );
        assert_eq!(got.len(), 2, "both slaves busy: {got:?}");
    }

    /// Graceful drain: a draining slave takes no new work, its in-flight
    /// sub-task still lands, and the Release fires exactly when the last
    /// one drains. Released slaves never come back.
    #[test]
    fn drain_waits_for_inflight_then_releases() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        // Drain slave 0 while task 0 is in flight: no release yet.
        let acts = feed(&mut m, &dag, [MasterEvent::DrainSlave { slave: 0 }]);
        assert!(acts.is_empty(), "{acts:?}");
        // No new dispatch to the draining slave even though it turns idle.
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 0 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 2 * MS }]);
        assert!(assigns(&acts).is_empty(), "{acts:?}");
        // Its in-flight DONE is still accepted, and the release follows.
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert!(acts.contains(&MasterAction::Accept { slave: 0, task: 0 }));
        assert!(
            acts.contains(&MasterAction::Release { slave: 0 }),
            "{acts:?}"
        );
        // The released slot takes no more work; the survivor drains the DAG.
        feed(&mut m, &dag, [MasterEvent::Idle { slave: 0 }]);
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 3 * MS }]);
        assert!(
            assigns(&acts).iter().all(|(w, _)| *w == 1),
            "released slave must not be scheduled: {acts:?}"
        );
        assert_eq!(m.counters().exclusions, 0, "voluntary exit is not a death");
    }

    /// Draining an idle slave releases it immediately.
    #[test]
    fn drain_of_idle_slave_releases_at_once() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        let acts = feed(&mut m, &dag, [MasterEvent::DrainSlave { slave: 1 }]);
        assert_eq!(acts, vec![MasterAction::Release { slave: 1 }]);
        // Idempotent: a second drain of the same slave does nothing.
        let acts = feed(&mut m, &dag, [MasterEvent::DrainSlave { slave: 1 }]);
        assert!(acts.is_empty(), "{acts:?}");
    }

    /// Checkpoint preload fast-forwards the parser and counts resumed.
    #[test]
    fn preload_fast_forwards() {
        let dag = dag4();
        let mut m = machine(&dag, 1, ScheduleMode::Dynamic);
        m.preload_finished(&dag, VertexId(0)).unwrap();
        assert_eq!(m.counters().resumed, 1);
        // A non-ancestor-closed set errors instead of panicking.
        let err = m.preload_finished(&dag, VertexId(3)).unwrap_err();
        assert!(err.context.contains("ancestor-closed"), "{err}");
    }

    /// Every task of `dag` resident on `slave`, in id order.
    fn resident_on(m: &MasterSched, dag: &TaskDag, slave: usize) -> Vec<u32> {
        (0..dag.len() as u32)
            .filter(|&v| m.resident(slave, v))
            .collect()
    }

    /// An accepted DONE marks the task and every data dependency of it as
    /// resident on the slave that sent it, and on no other.
    #[test]
    fn accept_marks_the_task_and_its_data_deps_resident() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        assert!(resident_on(&m, &dag, 0).is_empty());
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        assert!(
            resident_on(&m, &dag, 0).is_empty(),
            "dispatch marks nothing"
        );
        feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert_eq!(resident_on(&m, &dag, 0), vec![0]);
        assert!(resident_on(&m, &dag, 1).is_empty());
        // Tasks 1 and 2 both read task 0; the slave that did not compute
        // it holds it once its DONE is accepted.
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 2 * MS }]);
        assert_eq!(assigns(&acts).len(), 2, "{acts:?}");
        let (w, t) = *assigns(&acts).iter().find(|(w, _)| *w == 1).unwrap();
        feed(&mut m, &dag, [MasterEvent::Done { slave: w, task: t }]);
        let mut want: Vec<u32> = dag
            .vertex(VertexId(t))
            .data_deps
            .iter()
            .map(|d| d.0)
            .collect();
        want.push(t);
        want.sort_unstable();
        assert_eq!(resident_on(&m, &dag, 1), want);
        assert_eq!(resident_on(&m, &dag, 0), vec![0], "slave 0 gained nothing");
    }

    /// Completions that are not accepted prove nothing about the slave's
    /// node matrix: a stale DONE, a stale-epoch DONE and an abandoned
    /// ASSIGN leave the record as it was.
    #[test]
    fn stale_fenced_and_failed_sends_mark_nothing() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: MS }]);
        assert_eq!(assigns(&acts), vec![(0, 0)]);
        // Task 0 overruns its timeout and moves to slave 1.
        let late = SchedParams::default().task_timeout_ns() + 2 * MS;
        let acts = feed(
            &mut m,
            &dag,
            [
                MasterEvent::Heard {
                    slave: 0,
                    at_ns: late,
                },
                MasterEvent::Heard {
                    slave: 1,
                    at_ns: late,
                },
                MasterEvent::FtTick { now_ns: late },
                MasterEvent::Tick { now_ns: late },
            ],
        );
        assert!(acts.contains(&MasterAction::Redispatch { task: 0 }));
        assert_eq!(assigns(&acts), vec![(1, 0)]);
        let acts = feed(&mut m, &dag, [MasterEvent::Done { slave: 0, task: 0 }]);
        assert_eq!(acts, vec![MasterAction::Stale { slave: 0, task: 0 }]);
        feed(
            &mut m,
            &dag,
            [MasterEvent::StaleEpoch { slave: 1, task: 0 }],
        );
        let acts = feed(
            &mut m,
            &dag,
            [MasterEvent::SendFailed {
                slave: 1,
                assign_task: Some(0),
                reason: SendFailKind::NoAck,
                now_ns: late,
            }],
        );
        assert!(acts.contains(&MasterAction::CancelAssign { task: 0 }));
        assert!(resident_on(&m, &dag, 0).is_empty());
        assert!(resident_on(&m, &dag, 1).is_empty());
    }

    /// A new incarnation has a new node matrix: its rejoin clears the
    /// slave's record and leaves the others' alone.
    #[test]
    fn rejoin_clears_the_slaves_residency() {
        let dag = dag4();
        let mut m = machine(&dag, 2, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Idle { slave: 1 },
                MasterEvent::Tick { now_ns: MS },
                MasterEvent::Done { slave: 0, task: 0 },
            ],
        );
        let acts = feed(&mut m, &dag, [MasterEvent::Tick { now_ns: 2 * MS }]);
        for (slave, task) in assigns(&acts) {
            feed(&mut m, &dag, [MasterEvent::Done { slave, task }]);
        }
        let on_1 = resident_on(&m, &dag, 1);
        assert_eq!(on_1.len(), 2, "task 0 and the one slave 1 computed");
        assert_eq!(resident_on(&m, &dag, 0).len(), 2);
        feed(
            &mut m,
            &dag,
            [MasterEvent::Rejoined {
                slave: 0,
                now_ns: 3 * MS,
            }],
        );
        assert!(resident_on(&m, &dag, 0).is_empty());
        assert_eq!(resident_on(&m, &dag, 1), on_1);
    }

    /// A slot added by `grow_to` (a mid-run joiner) starts with nothing
    /// resident.
    #[test]
    fn a_grown_slot_starts_empty() {
        let dag = dag4();
        let mut m = machine(&dag, 1, ScheduleMode::Dynamic);
        feed(
            &mut m,
            &dag,
            [
                MasterEvent::Idle { slave: 0 },
                MasterEvent::Tick { now_ns: MS },
                MasterEvent::Done { slave: 0, task: 0 },
            ],
        );
        m.grow_to(2);
        assert!(resident_on(&m, &dag, 1).is_empty());
        assert_eq!(resident_on(&m, &dag, 0), vec![0]);
    }
}
