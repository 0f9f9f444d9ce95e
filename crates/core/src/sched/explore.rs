//! Deterministic schedule exploration for the master state machine.
//!
//! `easyhps stress` samples interleavings with real threads and seeds;
//! this module *enumerates* them. A run is fully cooperative: virtual
//! slaves compute instantly, every frame sits in a pending queue, and the
//! single source of nondeterminism is **which pending frame the master
//! sees next**. At each step where more than one frame is deliverable,
//! the explorer may deliver any of the first `reorder_window` of them —
//! one choice point. A depth-first search over choice vectors replays
//! runs with up to `depth` non-FIFO choices (the CHESS/Loom bounded
//! strategy: almost all scheduler bugs need only a few reorderings), and
//! the PR 4 schedule invariants are checked on every explored order —
//! every tile accepted exactly once, dispatch conservation, no spurious
//! exclusion or redistribution in a fault-free world — and the residency
//! record on every step: a tile is resident on a slave only once it was
//! accepted, and a rejoined slave holds nothing.
//!
//! Runs are replayed from scratch for each choice vector: the machine is
//! cheap, and replay keeps the search stateless and deterministic — the
//! same config always explores the same schedules in the same order.

use super::{MasterAction, MasterEvent, MasterSched, SchedParams};
use crate::{ScheduleMode, TaskDag};
use std::collections::BTreeSet;

const STEP_NS: u64 = 1_000_000;

/// What to explore and how hard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Number of virtual slaves.
    pub slaves: usize,
    /// Scheduling mode under test.
    pub mode: ScheduleMode,
    /// Maximum number of non-FIFO delivery choices per run (the preemption
    /// bound). Depth 0 is the single FIFO baseline schedule.
    pub depth: usize,
    /// Stop after this many schedules (the DFS frontier is dropped).
    pub max_schedules: u64,
    /// How many pending frames are candidates at a choice point. Bounds
    /// the branching factor; FIFO order beyond the window.
    pub reorder_window: usize,
}

impl ExploreConfig {
    /// Defaults: bounded depth 2, window 4, at most 10 000 schedules.
    pub fn new(slaves: usize, mode: ScheduleMode) -> Self {
        Self {
            slaves,
            mode,
            depth: 2,
            max_schedules: 10_000,
            reorder_window: 4,
        }
    }
}

/// A scripted membership perturbation for [`explore_membership`]. Each
/// op fires once, after a fixed number of delivered frames, so a script
/// replays identically under every explored delivery order — the only
/// nondeterminism stays where it belongs, in frame delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipOp {
    /// A new incarnation of `slave` is admitted (a rejoin, or a
    /// mid-run join when `slave` equals the current fleet size). Any of
    /// the old incarnation's still-undelivered DONE frames turn into
    /// stale-epoch frames at the moment the rejoin is delivered — the
    /// link died, so whatever was in flight arrives fenced.
    Rejoin {
        /// Slave index to (re)admit.
        slave: usize,
        /// Fire after this many delivered frames.
        after: usize,
    },
    /// Operator asks `slave` to drain: finish in-flight work, take no
    /// more, release the rank.
    Drain {
        /// Slave index to drain.
        slave: usize,
        /// Fire after this many delivered frames.
        after: usize,
    },
}

/// Aggregate result of an exploration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreOutcome {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct delivery orders among them (duplicates mean a choice did
    /// not change what the master observed).
    pub distinct_orders: u64,
    /// Choice points encountered across all runs.
    pub decisions: u64,
    /// High-water mark of simultaneously deliverable frames.
    pub max_pending: usize,
    /// Invariant violations, each tagged with the choice vector that
    /// reproduces it deterministically. Empty means every explored
    /// schedule satisfied the contract.
    pub violations: Vec<String>,
}

/// One replayed run under a fixed choice prefix.
struct Run {
    /// The choice actually taken at each delivery step (prefix choices
    /// clamped to the available range, FIFO `0` beyond the prefix).
    choices: Vec<usize>,
    /// How many candidates were available at each delivery step.
    avail: Vec<usize>,
    /// Encoded delivery order, for distinctness accounting.
    order: Vec<u64>,
    decisions: u64,
    max_pending: usize,
    violation: Option<String>,
}

fn encode(ev: &MasterEvent) -> u64 {
    match ev {
        MasterEvent::Idle { slave } => 1_000_000_000 + *slave as u64,
        MasterEvent::Done { slave, task } => {
            2_000_000_000 + (*slave as u64) * 1_000_000 + *task as u64
        }
        MasterEvent::Rejoined { slave, .. } => 3_000_000_000 + *slave as u64,
        MasterEvent::StaleEpoch { slave, task } => {
            4_000_000_000 + (*slave as u64) * 1_000_000 + *task as u64
        }
        MasterEvent::DrainSlave { slave } => 5_000_000_000 + *slave as u64,
        _ => 9_000_000_000,
    }
}

/// Execute one schedule. Virtual time advances one millisecond per step;
/// every slave is heard every step, so outside the scripted membership
/// ops any exclusion, re-admission, redistribution or stale completion
/// the machine produces is an invariant violation, not noise. With a
/// non-empty `script` the run additionally checks the membership
/// contract: a stale-epoch frame is fenced (never accepted), a draining
/// slave takes no new work and is eventually released, and a released
/// slave is never assigned again — under *every* explored delivery order
/// of the membership frames relative to the DONEs around them.
fn run_one(
    dag: &TaskDag,
    cfg: &ExploreConfig,
    params: &SchedParams,
    script: &[MembershipOp],
    prefix: &[usize],
) -> Run {
    let mut run = Run {
        choices: Vec::new(),
        avail: Vec::new(),
        order: Vec::new(),
        decisions: 0,
        max_pending: 0,
        violation: None,
    };
    let membership = !script.is_empty();
    let mut m = MasterSched::new(dag, cfg.slaves, cfg.mode, params, None);
    let mut pending: Vec<MasterEvent> = (0..cfg.slaves)
        .map(|slave| MasterEvent::Idle { slave })
        .collect();
    let mut busy: Vec<Option<u32>> = vec![None; cfg.slaves];
    let mut released: Vec<bool> = vec![false; cfg.slaves];
    let mut draining: Vec<bool> = vec![false; cfg.slaves];
    let mut fired: Vec<bool> = vec![false; script.len()];
    let mut accepted: Vec<u64> = vec![0; dag.len()];
    let mut delivered = 0usize;
    let mut stale_delivered = 0u64;
    let mut rejoins_delivered = 0u64;
    let mut drains_delivered: Vec<usize> = Vec::new();
    let window = cfg.reorder_window.max(1);
    let step_limit = 4 * dag.len() + 8 * cfg.slaves + 16 * script.len() + 64;
    let mut now = 0u64;
    let mut finished = false;

    macro_rules! fail {
        ($($t:tt)*) => {{
            run.violation = Some(format!($($t)*));
            return run;
        }};
    }

    for _ in 0..step_limit {
        now += STEP_NS;
        run.max_pending = run.max_pending.max(pending.len());

        for slave in 0..m.n_slaves() {
            if let Err(e) = m.on_event(dag, MasterEvent::Heard { slave, at_ns: now }) {
                fail!("{e}");
            }
        }

        // Fire due membership ops into the pending queue: from here on
        // their delivery order relative to surrounding frames is the
        // explorer's to choose.
        for (i, op) in script.iter().enumerate() {
            if fired[i] {
                continue;
            }
            match *op {
                MembershipOp::Rejoin { slave, after } if after <= delivered => {
                    fired[i] = true;
                    pending.push(MasterEvent::Rejoined { slave, now_ns: now });
                }
                MembershipOp::Drain { slave, after } if after <= delivered => {
                    fired[i] = true;
                    pending.push(MasterEvent::DrainSlave { slave });
                }
                _ => {}
            }
        }

        // Deliver one pending frame — the choice point.
        if !pending.is_empty() {
            let avail = pending.len().min(window);
            let step = run.avail.len();
            let c = prefix.get(step).copied().unwrap_or(0).min(avail - 1);
            if avail > 1 {
                run.decisions += 1;
            }
            run.avail.push(avail);
            run.choices.push(c);
            let ev = pending.remove(c);
            run.order.push(encode(&ev));
            delivered += 1;
            match ev {
                MasterEvent::Done { slave, .. } => busy[slave] = None,
                MasterEvent::Rejoined { slave, .. } => {
                    // The link to the old incarnation died: every DONE of
                    // its still in flight arrives under the old epoch and
                    // is classified StaleEpoch by the driver. The new
                    // incarnation starts idle.
                    rejoins_delivered += 1;
                    for p in pending.iter_mut() {
                        if let MasterEvent::Done { slave: s, task } = *p {
                            if s == slave {
                                *p = MasterEvent::StaleEpoch { slave, task };
                            }
                        }
                    }
                    if slave < busy.len() {
                        busy[slave] = None;
                        draining[slave] = false;
                        released[slave] = false;
                    } else {
                        // Mid-run join: the fleet grows by one slot.
                        busy.push(None);
                        draining.push(false);
                        released.push(false);
                    }
                }
                MasterEvent::StaleEpoch { .. } => stale_delivered += 1,
                MasterEvent::DrainSlave { slave } => {
                    draining[slave] = true;
                    drains_delivered.push(slave);
                }
                _ => {}
            }
            let acts = match m.on_event(dag, ev.clone()) {
                Ok(a) => a,
                Err(e) => fail!("{e}"),
            };
            // A new incarnation has a new node matrix: nothing of the old
            // one may be taken as resident.
            if let MasterEvent::Rejoined { slave, .. } = ev {
                if let Some(v) = (0..dag.len() as u32).find(|&v| m.resident(slave, v)) {
                    fail!("task {v} resident on slave {slave} right after its rejoin");
                }
            }
            for a in acts {
                match a {
                    MasterAction::Accept { task, .. } => {
                        if matches!(ev, MasterEvent::StaleEpoch { .. }) {
                            fail!(
                                "stale-epoch frame for task {task} was ACCEPTED — fencing broken"
                            );
                        }
                        accepted[task as usize] += 1;
                    }
                    MasterAction::Stale { slave, task } => {
                        fail!("stale completion of task {task} by slave {slave} in a timeout-free schedule")
                    }
                    MasterAction::Redispatch { .. }
                    | MasterAction::Refence { .. }
                    | MasterAction::Readmit { .. }
                        if matches!(ev, MasterEvent::Rejoined { .. }) => {}
                    MasterAction::Release { slave }
                        if membership
                            && matches!(
                                ev,
                                MasterEvent::DrainSlave { .. } | MasterEvent::Done { .. }
                            ) =>
                    {
                        released[slave] = true;
                    }
                    other => fail!("unexpected action {other:?} from delivering {ev:?}"),
                }
            }
        }

        // The scheduling pass: dispatches become instantly-computed Done
        // frames in the pending queue.
        let acts = match m.on_event(dag, MasterEvent::Tick { now_ns: now }) {
            Ok(a) => a,
            Err(e) => fail!("{e}"),
        };
        for a in acts {
            match a {
                MasterAction::Assign { slave, task } => {
                    if let Some(t) = busy[slave] {
                        fail!("assigned task {task} to slave {slave} already busy with {t}");
                    }
                    if released[slave] {
                        fail!("assigned task {task} to slave {slave} after its release");
                    }
                    if draining[slave] {
                        fail!("assigned task {task} to draining slave {slave}");
                    }
                    busy[slave] = Some(task);
                    pending.push(MasterEvent::Done { slave, task });
                }
                MasterAction::Finished => finished = true,
                other => fail!("unexpected action {other:?} from a fault-free tick"),
            }
        }

        // The FT sweep must be a no-op when every slave heartbeats and
        // nothing is overdue — wherever it lands in the order. (With a
        // drain in the script it may legitimately release the drained
        // slave.)
        match m.on_event(dag, MasterEvent::FtTick { now_ns: now }) {
            Ok(a) if a.is_empty() => {}
            Ok(a) if membership && a.iter().all(|x| matches!(x, MasterAction::Release { .. })) => {
                for x in a {
                    if let MasterAction::Release { slave } = x {
                        released[slave] = true;
                    }
                }
            }
            Ok(a) => fail!("fault-free FT sweep produced {a:?}"),
            Err(e) => fail!("{e}"),
        }

        // Residency is learnt from accepted DONEs only: a tile resident
        // anywhere was accepted (a data dependency is accepted before any
        // tile that reads it is dispatched).
        for slave in 0..m.n_slaves() {
            let early =
                (0..dag.len() as u32).find(|&v| m.resident(slave, v) && accepted[v as usize] == 0);
            if let Some(v) = early {
                fail!("task {v} resident on slave {slave} before any DONE of it was accepted");
            }
        }

        if finished {
            break;
        }
    }

    // PR 4 schedule invariants, on every explored order.
    if !finished {
        fail!("schedule did not finish within {step_limit} steps");
    }
    if !m.is_done() {
        fail!("Finished emitted but the parser is not done");
    }
    let c = m.counters();
    if c.completed != dag.len() as u64 {
        fail!("completed {} of {} tiles", c.completed, dag.len());
    }
    if let Some(t) = accepted.iter().position(|n| *n != 1) {
        fail!(
            "tile {t} accepted {} times (want exactly once)",
            accepted[t]
        );
    }
    if c.dispatched != (c.completed - c.resumed) + c.redispatched {
        fail!("dispatch conservation broken: {c:?}");
    }
    if membership {
        // Membership invariants: the machine counted exactly the frames
        // we delivered, every delivered drain ended in a release, and
        // nothing leaked into the genuine fault paths (no timeouts or
        // silence exist in this virtual world).
        if c.stale_epoch != stale_delivered {
            fail!(
                "stale-epoch accounting: machine counted {} but {} frames were delivered",
                c.stale_epoch,
                stale_delivered
            );
        }
        if c.rejoins != rejoins_delivered {
            fail!(
                "rejoin accounting: machine counted {} but {} rejoins were delivered",
                c.rejoins,
                rejoins_delivered
            );
        }
        for &slave in &drains_delivered {
            if !released[slave] {
                fail!("drained slave {slave} was never released");
            }
        }
        if c.stale + c.send_failures + c.exclusions + c.readmissions != 0 {
            fail!("membership schedule took a genuine fault path: {c:?}");
        }
    } else if c.stale + c.send_failures + c.exclusions + c.readmissions + c.redispatched != 0 {
        fail!("fault-free schedule took a fault path: {c:?}");
    }
    run
}

/// Enumerate delivery schedules of `dag` on a fault-free virtual cluster
/// and check the scheduling invariants on each. Deterministic: the same
/// inputs explore the same schedules in the same order.
pub fn explore(dag: &TaskDag, cfg: &ExploreConfig) -> ExploreOutcome {
    explore_membership(dag, cfg, &[])
}

/// [`explore`], with a scripted membership schedule folded in: rejoins,
/// zombie stale-epoch frames and drains become pending frames whose
/// delivery order the explorer varies alongside the DONEs. Every order
/// must satisfy the fencing contract — a stale-epoch completion is
/// never accepted, a drained slave is released exactly when its last
/// in-flight sub-task lands, and the run still finishes bit-complete.
pub fn explore_membership(
    dag: &TaskDag,
    cfg: &ExploreConfig,
    script: &[MembershipOp],
) -> ExploreOutcome {
    let params = SchedParams::default();
    let mut out = ExploreOutcome::default();
    let mut orders: BTreeSet<Vec<u64>> = BTreeSet::new();
    // DFS over choice prefixes, seeded with the all-FIFO run.
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if out.schedules >= cfg.max_schedules {
            break;
        }
        let run = run_one(dag, cfg, &params, script, &prefix);
        out.schedules += 1;
        out.decisions += run.decisions;
        out.max_pending = out.max_pending.max(run.max_pending);
        orders.insert(run.order);
        if let Some(v) = run.violation {
            out.violations
                .push(format!("choices {:?}: {v}", run.choices));
        }
        // Branch only past the forced prefix (earlier alternatives were
        // queued when their own prefix ran), keeping non-FIFO choices
        // within the depth bound.
        let spent = prefix.iter().filter(|c| **c != 0).count();
        for step in prefix.len()..run.avail.len() {
            if spent >= cfg.depth {
                break;
            }
            for c in 1..run.avail[step] {
                let mut child = run.choices[..step].to_vec();
                child.push(c);
                frontier.push(child);
            }
        }
    }
    out.distinct_orders = orders.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Wavefront2D;
    use crate::GridDims;

    #[test]
    fn fifo_baseline_is_deterministic() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let mut cfg = ExploreConfig::new(2, ScheduleMode::Dynamic);
        cfg.max_schedules = 1; // the FIFO schedule alone
        let a = explore(&dag, &cfg);
        let b = explore(&dag, &cfg);
        assert_eq!(a, b, "same config must explore the same schedule");
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.schedules, 1);
    }

    #[test]
    fn depth_bounded_exploration_finds_many_distinct_orders() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let mut cfg = ExploreConfig::new(2, ScheduleMode::Dynamic);
        cfg.depth = 3;
        let out = explore(&dag, &cfg);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.distinct_orders >= 100,
            "want >= 100 distinct schedules, got {} over {} runs",
            out.distinct_orders,
            out.schedules
        );
        assert!(out.decisions > 0, "a 2-slave wavefront has choice points");
    }

    #[test]
    fn static_modes_survive_exploration_too() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(3)));
        for mode in [
            ScheduleMode::ColumnWavefront,
            ScheduleMode::BlockCyclic { block: 1 },
        ] {
            let mut cfg = ExploreConfig::new(2, mode);
            cfg.depth = 2;
            let out = explore(&dag, &cfg);
            assert!(out.violations.is_empty(), "{mode:?}: {:?}", out.violations);
            assert!(out.schedules > 1, "{mode:?} explored only FIFO");
        }
    }

    // Membership orders as pure schedules: a mid-run rejoin turns the
    // old incarnation's in-flight DONE into a stale-epoch frame, and
    // *every* explored placement of that frame — before the redispatch,
    // after it, after the fresh accept — must be fenced. The final check
    // asserts the machine's stale_epoch counter matches the frames
    // delivered and each tile is accepted exactly once.
    #[test]
    fn rejoin_orders_never_accept_a_stale_epoch_frame() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let mut cfg = ExploreConfig::new(2, ScheduleMode::Dynamic);
        cfg.depth = 2;
        for after in [1usize, 3, 6] {
            let script = [MembershipOp::Rejoin { slave: 1, after }];
            let out = explore_membership(&dag, &cfg, &script);
            assert!(
                out.violations.is_empty(),
                "rejoin after {after}: {:?}",
                out.violations
            );
            assert!(out.schedules > 1, "rejoin after {after} explored only FIFO");
        }
    }

    // A drain mid-run: the slave finishes its in-flight sub-task, is
    // released, and the remaining wavefront lands entirely on the
    // survivor — under every explored order of the drain frame.
    #[test]
    fn drain_orders_release_exactly_once_and_finish_on_the_survivor() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let mut cfg = ExploreConfig::new(2, ScheduleMode::Dynamic);
        cfg.depth = 2;
        let script = [MembershipOp::Drain { slave: 1, after: 2 }];
        let out = explore_membership(&dag, &cfg, &script);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.schedules > 1, "explored only FIFO");
    }

    // A join past the fleet size grows the machine mid-run; combined
    // with a later drain of the joiner the fleet shrinks back, and the
    // run still completes every tile exactly once in every order.
    #[test]
    fn join_then_drain_orders_all_complete() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let mut cfg = ExploreConfig::new(2, ScheduleMode::Dynamic);
        cfg.depth = 2;
        let script = [
            MembershipOp::Rejoin { slave: 2, after: 2 },
            MembershipOp::Drain { slave: 2, after: 6 },
        ];
        let out = explore_membership(&dag, &cfg, &script);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.schedules > 1, "explored only FIFO");
    }

    #[test]
    fn depth_zero_is_exactly_the_fifo_schedule() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(3)));
        let mut cfg = ExploreConfig::new(3, ScheduleMode::Dynamic);
        cfg.depth = 0;
        let out = explore(&dag, &cfg);
        assert_eq!(out.schedules, 1);
        assert_eq!(out.distinct_orders, 1);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
