//! Deployment configuration and run statistics.

use crate::durable::CheckpointPolicy;
use crate::protocol::SlaveStatsMsg;
use easyhps_core::sched::SchedParams;
use easyhps_core::ScheduleMode;
use easyhps_net::RetryPolicy;
use easyhps_obs::{EventRecorder, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Observability wiring shared by the master and every slave of a run.
///
/// Both handles are optional and independent: `metrics` turns on counter /
/// gauge / histogram collection into a shared [`Registry`] (snapshot it
/// after the run for Prometheus-style text or JSON export); `recorder`
/// turns on structured event tracing for Chrome trace-event (Perfetto)
/// export. In the in-process virtual cluster every rank shares the same
/// registry and recorder — slave series are distinguished by metric
/// labels, slave events by Chrome process ids. Defaults to everything
/// off, which costs one untaken branch per instrumentation site.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Shared metrics registry (`None` = metrics off).
    pub metrics: Option<Arc<Registry>>,
    /// Shared structured-event recorder (`None` = tracing off).
    pub recorder: Option<Arc<EventRecorder>>,
}

/// How the runtime is deployed on the (virtual) cluster: the paper's
/// `Experiment_X_Y` knobs plus scheduling and fault-tolerance policy.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Number of slave computing nodes (the paper's `X - 1`).
    pub slaves: usize,
    /// Computing threads per slave node (the paper's `ct`, at most 11 on
    /// their 12-core nodes: one core is the slave scheduling thread).
    pub threads_per_slave: usize,
    /// Process-level scheduling policy.
    pub process_mode: ScheduleMode,
    /// Thread-level scheduling policy.
    pub thread_mode: ScheduleMode,
    /// How long a dispatched sub-task may run before the master's fault
    /// tolerance presumes its slave failed and redistributes it.
    pub task_timeout: Duration,
    /// Cadence of the fault-tolerance sweep inside the master loop.
    pub ft_poll: Duration,
    /// Retransmission policy for reliable control messages
    /// (ASSIGN/DONE/END/...): attempts and backoff before a send is
    /// abandoned and reported.
    pub retry: RetryPolicy,
    /// How often slaves emit a HEARTBEAT (also while computing a tile).
    pub heartbeat_interval: Duration,
    /// How long the master tolerates silence from a slave before treating
    /// it as dead rather than slow. Should be several multiples of
    /// `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Metrics and structured-event tracing (defaults to off); see
    /// [`ObsConfig`]. The [`crate::EasyHps`] builder wires this through
    /// its `.metrics(..)` / `.trace_out(..)` knobs.
    pub obs: ObsConfig,
    /// Durable incremental checkpointing (defaults to off). When set, the
    /// master appends finished tiles to CRC-guarded segment files in
    /// [`CheckpointPolicy::dir`] at the policy's cadence, and a later run
    /// can recover them with [`crate::Checkpoint::load_dir`] even after a
    /// hard master kill.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Deployment {
    /// A small local deployment: `slaves` nodes x `threads` computing
    /// threads, fully dynamic scheduling, generous timeouts.
    pub fn local(slaves: usize, threads: usize) -> Self {
        // The canonical policy durations live in [`SchedParams`]; the
        // deployment defaults are that one source of truth, not a second
        // set of literals that could drift from the simulator's.
        let p = SchedParams::default();
        Self {
            slaves,
            threads_per_slave: threads,
            process_mode: ScheduleMode::Dynamic,
            thread_mode: ScheduleMode::Dynamic,
            task_timeout: p.task_timeout,
            ft_poll: p.ft_poll,
            retry: RetryPolicy::default(),
            heartbeat_interval: p.heartbeat_interval,
            heartbeat_timeout: p.heartbeat_timeout,
            obs: ObsConfig::default(),
            checkpoint: None,
        }
    }

    /// This deployment's scheduling-policy constants as the shared
    /// [`SchedParams`] every scheduler driver consumes — the four knobs a
    /// deployment can override, over the shared defaults for the rest.
    pub fn sched_params(&self) -> SchedParams {
        SchedParams {
            task_timeout: self.task_timeout,
            ft_poll: self.ft_poll,
            heartbeat_interval: self.heartbeat_interval,
            heartbeat_timeout: self.heartbeat_timeout,
            ..SchedParams::default()
        }
    }

    /// Total cores this deployment would occupy on the paper's accounting
    /// (`N + (N-1) + ct*(N-1)` for `N` nodes): the master scheduling core,
    /// plus per slave node one process-level core, one thread-level
    /// scheduling core and `ct` computing cores —
    /// `1 + slaves * (2 + ct)`.
    pub fn total_cores(&self) -> usize {
        1 + self.slaves * (2 + self.threads_per_slave)
    }
}

/// Master-side counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Sub-tasks dispatched (including re-dispatches).
    pub dispatched: u64,
    /// Sub-tasks re-dispatched after a timeout.
    pub redispatched: u64,
    /// Completions accepted (folds in resumed tiles so budget/DAG
    /// accounting stays whole-run).
    pub completed: u64,
    /// Sub-tasks restored from a checkpoint instead of being dispatched
    /// (also counted in `completed`). Lets conservation be checked on
    /// full runs: `dispatched == completed + redispatched - resumed`.
    pub resumed: u64,
    /// Stale completions ignored (duplicate results after redistribution).
    pub stale_completions: u64,
    /// Slaves declared dead by fault tolerance.
    pub dead_slaves: u64,
    /// Dead-marked slaves re-admitted after a fresh heartbeat proved them
    /// alive (wrong exclusions undone).
    pub readmitted: u64,
    /// Slave incarnations re-admitted under a new fleet epoch (reconnect
    /// with a fresh session, or a mid-run joiner growing the fleet).
    pub rejoins: u64,
    /// Completions rejected because their echoed epoch predated the
    /// slave's current incarnation (zombie DONEs fenced out).
    pub stale_epoch_rejected: u64,
    /// Control-message retransmissions by the master's reliable endpoint.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by the master's reliable endpoint.
    pub duplicates: u64,
    /// Reliable sends the master abandoned (retry budget exhausted or
    /// peer unreachable).
    pub send_failures: u64,
    /// Messages sent by the master endpoint.
    pub msgs_sent: u64,
    /// Bytes sent by the master endpoint.
    pub bytes_sent: u64,
    /// Messages received by the master endpoint.
    pub msgs_recv: u64,
    /// Bytes received by the master endpoint.
    pub bytes_recv: u64,
}

/// Full report of one runtime execution.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Wall-clock duration of the run (master side).
    pub elapsed: Duration,
    /// Master counters.
    pub master: MasterStats,
    /// Per-slave stats (indexed by slave; dead slaves report `None`).
    pub slaves: Vec<Option<SlaveStatsMsg>>,
    /// Master-observed schedule (one span per tile execution, lane per
    /// slave); render with [`easyhps_core::Trace::gantt`].
    pub trace: easyhps_core::Trace,
}

impl RunReport {
    /// Total thread-level sub-sub-tasks completed across surviving slaves.
    pub fn total_subtasks(&self) -> u64 {
        self.slaves.iter().flatten().map(|s| s.subtasks_done).sum()
    }

    /// Total compute-busy nanoseconds across surviving slaves.
    pub fn total_busy_ns(&self) -> u64 {
        self.slaves.iter().flatten().map(|s| s.busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_accounting_matches_paper_formula() {
        // Paper: N nodes deployed => N + (N-1) + ct*(N-1) cores, where the
        // first N are process-level schedulers (one of which is the
        // master). With slaves = N-1 this is 1 + slaves*(1 + ct).
        let d = Deployment::local(4, 11);
        assert_eq!(d.total_cores(), 53); // N=5 nodes: 5 + 4 + 44
        let d = Deployment::local(1, 1);
        assert_eq!(d.total_cores(), 4); // N=2 nodes: 2 + 1 + 1 (Experiment_2_4)
    }

    #[test]
    fn report_aggregates() {
        let r = RunReport {
            slaves: vec![
                Some(SlaveStatsMsg {
                    tasks_done: 2,
                    subtasks_done: 10,
                    busy_ns: 100,
                    ..Default::default()
                }),
                None,
                Some(SlaveStatsMsg {
                    tasks_done: 1,
                    subtasks_done: 5,
                    busy_ns: 50,
                    thread_failures: 1,
                    ..Default::default()
                }),
            ],
            ..RunReport::default()
        };
        assert_eq!(r.total_subtasks(), 15);
        assert_eq!(r.total_busy_ns(), 150);
    }
}
