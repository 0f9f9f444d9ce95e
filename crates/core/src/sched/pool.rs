//! The worker-pool scheduler (paper §V-C): the slave's thread-level state
//! machine, also used single-level by the EasyPDP mode and under virtual
//! time by `easyhps-sim`.

use super::{pick_task, SchedViolation};
use crate::{DagParser, ScheduleMode, TaskDag, VertexId};

/// Input to the pool scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolEvent {
    /// The pool starts draining its DAG: fill every idle worker.
    Start,
    /// A worker reported the outcome of a sub-sub-task. `ok == false`
    /// means the kernel panicked and was caught — the task is re-queued
    /// (the paper's "restart the corresponding computing thread").
    WorkerDone {
        /// Worker index.
        worker: usize,
        /// Dense id in the pool's DAG.
        sub: u32,
        /// Whether the kernel completed.
        ok: bool,
    },
}

/// Effect the driver must perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolAction {
    /// Hand `sub` to `worker` for execution.
    Run {
        /// Worker index.
        worker: usize,
        /// Dense id in the pool's DAG.
        sub: u32,
    },
    /// Every task in the DAG has completed; the drive loop may stop.
    Done,
}

/// One driver-recorded `(event, actions)` exchange, for differential
/// replay across drivers.
pub type PoolLog = Vec<(PoolEvent, Vec<PoolAction>)>;

/// The slave worker-pool state machine: a [`DagParser`] over the pool's
/// DAG plus per-worker idle flags. Pure — no threads, channels or clocks;
/// the driver owns those and feeds [`PoolEvent`]s.
///
/// There is no orphan fallback at this level: workers are threads of one
/// process and do not die independently (a panicking kernel is caught and
/// its task re-queued via `ok: false`, which is a retry, not an
/// exclusion).
#[derive(Clone, Debug)]
pub struct PoolSched {
    parser: DagParser,
    mode: ScheduleMode,
    tile_cols: u32,
    idle: Vec<bool>,
}

impl PoolSched {
    /// Machine for `workers` identical executors draining `dag` under
    /// `mode`.
    pub fn new(dag: &TaskDag, workers: usize, mode: ScheduleMode) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        Self {
            parser: DagParser::new(dag),
            mode,
            tile_cols: dag.dims().cols,
            idle: vec![true; workers],
        }
    }

    /// Whether every task has completed.
    pub fn is_done(&self) -> bool {
        self.parser.is_done()
    }

    /// Feed one event; returns the actions the driver must perform, in
    /// order. Workers are filled in ascending index order — the dispatch
    /// order every driver observes is the machine's, not its own.
    pub fn on_event(
        &mut self,
        dag: &TaskDag,
        ev: PoolEvent,
    ) -> Result<Vec<PoolAction>, SchedViolation> {
        let mut out = Vec::new();
        self.on_event_into(dag, ev, &mut out)?;
        Ok(out)
    }

    /// [`Self::on_event`] appending to a caller's buffer, so a driver that
    /// feeds the machine from its computing threads need not allocate
    /// there.
    pub fn on_event_into(
        &mut self,
        dag: &TaskDag,
        ev: PoolEvent,
        out: &mut Vec<PoolAction>,
    ) -> Result<(), SchedViolation> {
        match ev {
            PoolEvent::Start => {}
            PoolEvent::WorkerDone { worker, sub, ok } => {
                if worker >= self.idle.len() {
                    return Err(SchedViolation::new("result from unknown worker", ev));
                }
                self.idle[worker] = true;
                let v = VertexId(sub);
                if ok {
                    self.parser.complete(dag, v, None).map_err(|_| {
                        SchedViolation::new("worker completed a task that was not running", ev)
                    })?;
                } else {
                    // Thread-level fault tolerance: the panic was caught
                    // (the worker effectively restarted); re-queue the
                    // sub-sub-task for any worker.
                    self.parser.fail(dag, v).map_err(|_| {
                        SchedViolation::new("worker failed a task that was not running", ev)
                    })?;
                }
            }
        }
        self.dispatch(dag, out);
        if self.parser.is_done() {
            out.push(PoolAction::Done);
        }
        Ok(())
    }

    /// Fill every idle worker the scheduling mode allows.
    fn dispatch(&mut self, dag: &TaskDag, out: &mut Vec<PoolAction>) {
        let workers = self.idle.len();
        #[allow(clippy::needless_range_loop)] // w doubles as the worker id
        for w in 0..workers {
            if !self.idle[w] {
                continue;
            }
            let owner = |v: VertexId| {
                self.mode
                    .static_owner(dag.vertex(v).pos, self.tile_cols, workers as u32)
            };
            let picked = pick_task(&mut self.parser, owner, w as u32, |_| true, None);
            if let Some(v) = picked {
                self.idle[w] = false;
                out.push(PoolAction::Run {
                    worker: w,
                    sub: v.0,
                });
            }
        }
    }
}

/// Replay a recorded event log into a fresh machine, returning the action
/// batches it produces. The differential test asserts these are
/// action-for-action identical to what the recording driver observed —
/// the machine's behaviour is a function of the event sequence alone,
/// whichever executor delivered it.
pub fn replay_pool(
    dag: &TaskDag,
    workers: usize,
    mode: ScheduleMode,
    events: impl IntoIterator<Item = PoolEvent>,
) -> Result<Vec<Vec<PoolAction>>, SchedViolation> {
    let mut m = PoolSched::new(dag, workers, mode);
    events.into_iter().map(|ev| m.on_event(dag, ev)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{Linear1D, Wavefront2D};
    use crate::GridDims;

    fn drain(dag: &TaskDag, workers: usize, mode: ScheduleMode) -> (u64, PoolLog) {
        let mut m = PoolSched::new(dag, workers, mode);
        let mut log = PoolLog::new();
        let mut acts = m.on_event(dag, PoolEvent::Start).unwrap();
        log.push((PoolEvent::Start, acts.clone()));
        let mut completed = 0u64;
        let mut running: Vec<(usize, u32)> = Vec::new();
        loop {
            let mut done = false;
            for a in acts.drain(..) {
                match a {
                    PoolAction::Run { worker, sub } => running.push((worker, sub)),
                    PoolAction::Done => done = true,
                }
            }
            if done {
                break;
            }
            let (worker, sub) = running.remove(0);
            completed += 1;
            let ev = PoolEvent::WorkerDone {
                worker,
                sub,
                ok: true,
            };
            acts = m.on_event(dag, ev).unwrap();
            log.push((ev, acts.clone()));
        }
        assert!(m.is_done());
        (completed, log)
    }

    #[test]
    fn drains_whole_dag_exactly_once() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(4)));
        let (completed, _) = drain(&dag, 3, ScheduleMode::Dynamic);
        assert_eq!(completed, dag.len() as u64);
    }

    #[test]
    fn chain_runs_one_at_a_time() {
        let dag = TaskDag::from_pattern(&Linear1D::new(6));
        let mut m = PoolSched::new(&dag, 4, ScheduleMode::Dynamic);
        let acts = m.on_event(&dag, PoolEvent::Start).unwrap();
        let runs = acts
            .iter()
            .filter(|a| matches!(a, PoolAction::Run { .. }))
            .count();
        assert_eq!(runs, 1, "a chain admits one runnable task at a time");
    }

    #[test]
    fn failed_subtask_is_requeued_not_lost() {
        let dag = TaskDag::from_pattern(&Linear1D::new(2));
        let mut m = PoolSched::new(&dag, 1, ScheduleMode::Dynamic);
        let acts = m.on_event(&dag, PoolEvent::Start).unwrap();
        let PoolAction::Run { worker, sub } = acts[0] else {
            panic!("expected a dispatch")
        };
        // Kernel panic: the same sub comes straight back.
        let acts = m
            .on_event(
                &dag,
                PoolEvent::WorkerDone {
                    worker,
                    sub,
                    ok: false,
                },
            )
            .unwrap();
        assert_eq!(acts, vec![PoolAction::Run { worker: 0, sub }]);
    }

    #[test]
    fn bogus_completion_is_an_error_not_a_panic() {
        let dag = TaskDag::from_pattern(&Linear1D::new(3));
        let mut m = PoolSched::new(&dag, 2, ScheduleMode::Dynamic);
        m.on_event(&dag, PoolEvent::Start).unwrap();
        // Task 2 was never dispatched (blocked behind 0 and 1).
        let err = m
            .on_event(
                &dag,
                PoolEvent::WorkerDone {
                    worker: 0,
                    sub: 2,
                    ok: true,
                },
            )
            .unwrap_err();
        assert!(err.context.contains("not running"), "{err}");
        // Out-of-range worker likewise.
        let err = m
            .on_event(
                &dag,
                PoolEvent::WorkerDone {
                    worker: 9,
                    sub: 0,
                    ok: true,
                },
            )
            .unwrap_err();
        assert!(err.context.contains("unknown worker"), "{err}");
    }

    #[test]
    fn replay_reproduces_the_recorded_actions() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(3, 3)));
        let (_, log) = drain(&dag, 2, ScheduleMode::ColumnWavefront);
        let replayed = replay_pool(
            &dag,
            2,
            ScheduleMode::ColumnWavefront,
            log.iter().map(|(e, _)| *e),
        )
        .unwrap();
        let recorded: Vec<_> = log.into_iter().map(|(_, a)| a).collect();
        assert_eq!(replayed, recorded);
    }
}
