//! The scheduler core: pure event-driven state machines for both levels
//! of the EasyHPS hierarchy.
//!
//! The paper's contribution is the multilevel scheduling policy, so the
//! policy must exist exactly once. This module holds it: the master-side
//! process scheduler ([`MasterSched`]) and the slave-side worker-pool
//! scheduler ([`PoolSched`]) as state machines of the form
//! `fn on_event(&mut self, &TaskDag, Event) -> Result<Vec<Action>, _>`
//! with **no clocks, channels, or threads inside** — time is a `u64`
//! nanosecond value carried *in* events, and every effect is returned as
//! an [`MasterAction`]/[`PoolAction`] for the caller to perform.
//!
//! Three drivers feed these machines:
//!
//! - the **threaded runtime** (`easyhps-runtime`'s `master.rs` and
//!   `slave.rs`): translates network frames and real timers into events,
//!   and actions into sends, matrix writes, and metrics;
//! - the **virtual-time simulators** (`easyhps-sim`'s `cluster`, which
//!   drives [`MasterSched`], and `pool_sim`, which drives [`PoolSched`]):
//!   feed the same machines from a discrete-event heap;
//! - the **deterministic explorer** ([`explore`]): enumerates event
//!   delivery orderings at decision points with a bounded reordering
//!   depth and checks the schedule invariants on every explored order.
//!
//! The machines live in `easyhps-core` (not `easyhps-runtime`) because
//! both executors, the runtime and the simulator, drive them — the core
//! is the one crate below both.
//!
//! An impossible transition (e.g. a completion for a task the parser does
//! not consider running) is **not a panic**: it surfaces as a structured
//! [`SchedViolation`] naming the offending event, so an adversarial
//! schedule degrades into an error return instead of poisoning a thread.

mod explore;
mod master;
mod params;
mod pool;
mod register;

pub use explore::{explore, explore_membership, ExploreConfig, ExploreOutcome, MembershipOp};
pub use master::{MasterAction, MasterEvent, MasterSched, SchedCounters, SendFailKind, WINDOW};
pub use params::SchedParams;
pub use pool::{replay_pool, PoolAction, PoolEvent, PoolLog, PoolSched};
pub use register::RegisterTable;

use crate::{DagParser, VertexId};
use std::fmt;

/// A scheduler state-machine invariant was violated by an event.
///
/// Carried up as `RuntimeError::SchedulerInvariant` by the threaded
/// driver. Under a correct driver this is unreachable; under an
/// adversarial or replayed event log it is an error value, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedViolation {
    /// Which transition was attempted.
    pub context: &'static str,
    /// The offending event, rendered.
    pub event: String,
}

impl SchedViolation {
    pub(crate) fn new(context: &'static str, event: impl fmt::Debug) -> Self {
        Self {
            context,
            event: format!("{event:?}"),
        }
    }
}

impl fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler invariant violated: {} (event {})",
            self.context, self.event
        )
    }
}

impl std::error::Error for SchedViolation {}

/// Pick the next computable task for `executor` — the one placement
/// decision shared by both machines (master dispatch and slave pool), and
/// through them by every driver.
///
/// `owner` is the task's static owner under the run's
/// [`ScheduleMode`](crate::ScheduleMode)
/// (`None` in dynamic mode: anyone may take it). The pick is the top of
/// the computable stack among the tasks `executor` owns that `admit`
/// lets through. When `orphaned` is given (process level, where executors
/// can die), a task whose static owner satisfies the predicate falls back
/// to dynamic placement — a statically-owned task of a dead executor
/// would otherwise never be dispatchable (the livelock `easyhps stress`
/// found in PR 4, and the runtime↔sim divergence this module's extraction
/// flushed out of the cluster DES).
pub(crate) fn pick_task(
    parser: &mut DagParser,
    owner: impl Fn(VertexId) -> Option<u32>,
    executor: u32,
    admit: impl Fn(VertexId) -> bool,
    orphaned: Option<&dyn Fn(u32) -> bool>,
) -> Option<VertexId> {
    parser
        .pop_computable_matching(|v| admit(v) && owner(v).is_none_or(|o| o == executor))
        .or_else(|| {
            let dead = orphaned?;
            parser.pop_computable_matching(|v| admit(v) && owner(v).is_some_and(dead))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Wavefront2D;
    use crate::{GridDims, ScheduleMode, TaskDag};

    #[test]
    fn pick_dynamic_ignores_ownership() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let v = pick_task(&mut parser, |_| None, 1, |_| true, None);
        assert!(v.is_some());
    }

    #[test]
    fn pick_static_respects_ownership_without_fallback() {
        // Column-wavefront over 2 columns, 2 executors: executor 1 owns
        // column 1, which is blocked until (0,0) completes — so executor 1
        // picks nothing even though (0,0) is computable.
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let owner =
            |v: VertexId| ScheduleMode::ColumnWavefront.static_owner(dag.vertex(v).pos, 2, 2);
        let v = pick_task(&mut parser, owner, 1, |_| true, None);
        assert_eq!(v, None, "static executor must idle, not steal");
    }

    #[test]
    fn pick_static_orphan_falls_back_when_owner_dead() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let dead = |o: u32| o == 0;
        let owner =
            |v: VertexId| ScheduleMode::ColumnWavefront.static_owner(dag.vertex(v).pos, 2, 2);
        let v = pick_task(&mut parser, owner, 1, |_| true, Some(&dead));
        let v = v.expect("orphaned task of the dead owner is adoptable");
        assert_eq!(dag.vertex(v).pos.col, 0, "adopted the dead owner's tile");
    }
}
