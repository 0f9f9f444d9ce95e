//! The user API: configure a problem and a deployment, call `run()`.
//!
//! This is the EasyHPS promise (paper §I): "the only requirement is that
//! the programmer's implementation uses APIs supplied by EasyHPS". A user
//! provides a [`DpProblem`] (or picks one from `easyhps-dp`), the two
//! partition sizes, and a deployment shape; the runtime does partitioning,
//! scheduling, communication and fault tolerance.
//!
//! `run()` assembles no cluster of its own: it builds a one-job
//! [`Fleet`] of slave threads over the chosen [`TransportKind`], runs the
//! job on it with the master on the calling thread, and shuts it down —
//! the same assembly `easyhps master` and the serve daemon use.

use crate::config::{Deployment, ObsConfig, RunReport};
use crate::durable::CheckpointPolicy;
use crate::fleet::Fleet;
use crate::remote::RemoteProblem;
use crate::slave::run_slave;
use crate::RuntimeError;
use bytes::Bytes;
use easyhps_core::ScheduleMode;
use easyhps_core::{DagDataDrivenModel, GridDims};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_net::{Endpoint, FaultPlan, RetryPolicy};
use easyhps_obs::{EventRecorder, Registry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Result of a full multilevel run.
#[derive(Debug)]
pub struct RunOutput<C: easyhps_dp::Cell> {
    /// The computed global DP matrix (partial if a tile budget stopped the
    /// run early — see [`EasyHps::tile_budget`]).
    pub matrix: DpMatrix<C>,
    /// Execution report (timings, counters, per-slave stats).
    pub report: RunReport,
    /// The metrics registry of the run when [`EasyHps::metrics`] (or
    /// [`EasyHps::metrics_registry`]) enabled collection: snapshot it for
    /// Prometheus-style text or JSON export.
    pub metrics: Option<Arc<Registry>>,
}

/// Builder for a multilevel EasyHPS execution.
///
/// ```
/// use easyhps_runtime::EasyHps;
/// use easyhps_dp::{DpProblem, EditDistance};
///
/// let problem = EditDistance::new(b"kitten".to_vec(), b"sitting".to_vec());
/// let out = EasyHps::new(problem)
///     .process_partition((3, 3))
///     .thread_partition((2, 2))
///     .slaves(2)
///     .threads_per_slave(2)
///     .run()
///     .unwrap();
/// assert_eq!(out.matrix.get(6, 7), 3);
/// ```
pub struct EasyHps<P: DpProblem> {
    problem: Arc<P>,
    process_partition: Option<GridDims>,
    thread_partition: Option<GridDims>,
    deployment: Deployment,
    fault_plans: Vec<Option<FaultPlan>>,
    transport: TransportKind,
    tile_budget: Option<u64>,
    metrics: Option<Arc<Registry>>,
    collect_metrics: bool,
    trace_out: Option<PathBuf>,
    reconnect: Option<Duration>,
}

/// Which transport carries the virtual cluster's messages. All three run
/// the identical protocol stack (reliable endpoints, CRC frames, fault
/// injection); they differ only in the link under it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TransportKind {
    /// Crossbeam channels between threads of this process (default;
    /// fastest, fully deterministic).
    #[default]
    InProcess,
    /// Real TCP connections over loopback — every byte crosses the
    /// kernel, so framing, partial reads and backpressure are exercised.
    Tcp,
    /// Unix-domain socket connections through a temp-dir path.
    Uds,
}

impl TransportKind {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "inproc" | "in-process" | "channel" => Ok(TransportKind::InProcess),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" | "unix" => Ok(TransportKind::Uds),
            other => Err(format!(
                "unknown transport {other:?}: expected inproc, tcp or uds"
            )),
        }
    }
}

impl<P: DpProblem> EasyHps<P> {
    /// Start configuring a run of `problem`.
    pub fn new(problem: P) -> Self {
        Self::new_shared(Arc::new(problem))
    }

    /// Start configuring a run of an already-shared problem. Useful when
    /// the caller wants to keep a handle (e.g. to inspect counters the
    /// problem accumulates during the run).
    pub fn new_shared(problem: Arc<P>) -> Self {
        Self {
            problem,
            process_partition: None,
            thread_partition: None,
            deployment: Deployment::local(2, 2),
            fault_plans: Vec::new(),
            transport: TransportKind::InProcess,
            tile_budget: None,
            metrics: None,
            collect_metrics: false,
            trace_out: None,
            reconnect: None,
        }
    }

    /// Collect run metrics (counters, gauges, latency histograms) into a
    /// fresh registry, returned in [`RunOutput::metrics`]. Cheap: every
    /// update is one relaxed atomic operation.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.collect_metrics = enabled;
        self
    }

    /// Collect run metrics into a caller-owned registry — e.g. one shared
    /// across several runs, or pre-seeded with the caller's own series.
    /// Implies [`EasyHps::metrics`]`(true)`.
    pub fn metrics_registry(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self.collect_metrics = true;
        self
    }

    /// Record a structured event trace of the run and write it to `path`
    /// as Chrome trace-event JSON on completion — load it in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`. Events cover
    /// tile dispatch/compute/done, per-thread kernel spans, heartbeats,
    /// retransmissions, exclusions and checkpoints.
    pub fn trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Durably checkpoint the run per `policy`: the master appends
    /// finished tiles to CRC-sealed segment files in the policy's
    /// directory, so even a hard master kill loses at most the tiles
    /// accepted since the last flush. A later run whose policy sets
    /// [`CheckpointPolicy::resume`] continues from the directory: its
    /// tiles are restored instead of re-executed.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.deployment.checkpoint = Some(policy);
        self
    }

    /// [`Self::checkpoint`] with the default policy (flush every 32
    /// accepted tiles, compact beyond 8 live segments, a fresh run).
    pub fn checkpoint_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint(CheckpointPolicy::new(dir))
    }

    /// Stop after `tiles` completions (counting resumed ones) — for
    /// incremental or preemptible runs. With a [`Self::checkpoint`]
    /// policy, the directory then holds every accepted tile, and a run
    /// that resumes from it continues where this one stopped.
    pub fn tile_budget(mut self, tiles: u64) -> Self {
        self.tile_budget = Some(tiles);
        self
    }

    /// Choose the transport carrying the virtual cluster's messages
    /// (default in-process channels). The socket kinds still run every
    /// rank as a thread of this process, but all master↔slave traffic
    /// crosses real TCP or Unix-domain sockets — fault plans included,
    /// since injection happens above the link.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Process-level partition size (the paper's
    /// `process_partition_size`). Defaults to `dag_size / (4 * slaves)`
    /// per side, rounded up ([`RemoteProblem::resolve_partitions`]).
    pub fn process_partition(mut self, size: impl Into<GridDims>) -> Self {
        self.process_partition = Some(size.into());
        self
    }

    /// Thread-level partition size (`thread_partition_size`). Defaults to
    /// the process partition when each slave computes on one thread, and
    /// to a quarter of it per side otherwise
    /// ([`RemoteProblem::resolve_partitions`]).
    pub fn thread_partition(mut self, size: impl Into<GridDims>) -> Self {
        self.thread_partition = Some(size.into());
        self
    }

    /// Number of slave computing nodes.
    pub fn slaves(mut self, n: usize) -> Self {
        self.deployment.slaves = n;
        self
    }

    /// Computing threads per slave node.
    pub fn threads_per_slave(mut self, n: usize) -> Self {
        self.deployment.threads_per_slave = n;
        self
    }

    /// Process-level scheduling policy (default dynamic).
    pub fn process_mode(mut self, mode: ScheduleMode) -> Self {
        self.deployment.process_mode = mode;
        self
    }

    /// Thread-level scheduling policy (default dynamic).
    pub fn thread_mode(mut self, mode: ScheduleMode) -> Self {
        self.deployment.thread_mode = mode;
        self
    }

    /// Fault-tolerance timeout: how long a dispatched sub-task may run
    /// before its slave is presumed dead.
    pub fn task_timeout(mut self, timeout: Duration) -> Self {
        self.deployment.task_timeout = timeout;
        self
    }

    /// Inject faults into slave `slave_index` (0-based) per `plan` — used
    /// to exercise the fault-tolerance path.
    pub fn inject_fault(mut self, slave_index: usize, plan: FaultPlan) -> Self {
        if self.fault_plans.len() <= slave_index + 1 {
            self.fault_plans.resize(slave_index + 2, None);
        }
        self.fault_plans[slave_index + 1] = Some(plan); // rank = index + 1
        self
    }

    /// Inject faults into the master's own endpoint (rank 0) — lets
    /// stress harnesses make the master's outgoing traffic (ASSIGNs,
    /// ENDs, acks) lossy, duplicated or reordered too.
    pub fn inject_master_fault(mut self, plan: FaultPlan) -> Self {
        if self.fault_plans.is_empty() {
            self.fault_plans.resize(1, None);
        }
        self.fault_plans[0] = Some(plan);
        self
    }

    /// Make every link lossy: each rank — master included — independently
    /// drops outgoing messages with probability `p`, deterministically
    /// derived from `seed`. Ranks with an explicit [`Self::inject_fault`]
    /// plan keep it. Call after [`Self::slaves`] so every rank is covered.
    pub fn lossy_network(mut self, p: f64, seed: u64) -> Self {
        let n_ranks = 1 + self.deployment.slaves;
        if self.fault_plans.len() < n_ranks {
            self.fault_plans.resize(n_ranks, None);
        }
        for (i, slot) in self.fault_plans.iter_mut().enumerate() {
            if slot.is_none() {
                // Distinct per-rank streams from one user-visible seed.
                *slot = Some(FaultPlan::lossy(p, seed.wrapping_add(i as u64 * 7919)));
            }
        }
        self
    }

    /// Retransmission policy for reliable control messages (attempts,
    /// backoff) — how hard master and slaves try before declaring a send
    /// failed.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.deployment.retry = policy;
        self
    }

    /// Elastic membership for the socket transports: a slave whose link
    /// breaks redials for up to `window` and rejoins on its rank under a
    /// bumped fleet epoch (the master rolls back and redistributes its
    /// in-flight tiles and fences frames from the old incarnation), and
    /// the master counts no unreachable slave dead within the window. No
    /// effect on the in-process transport, whose channel links cannot
    /// drop. See DESIGN.md §17.
    pub fn reconnect(mut self, window: Duration) -> Self {
        self.reconnect = Some(window);
        self
    }

    /// Heartbeat cadence: slaves announce liveness every `interval`; the
    /// master treats a slave silent past `timeout` as dead rather than
    /// slow.
    pub fn heartbeat(mut self, interval: Duration, timeout: Duration) -> Self {
        self.deployment.heartbeat_interval = interval;
        self.deployment.heartbeat_timeout = timeout;
        self
    }

    /// Access the configured deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Effective partition sizes: explicit settings win, the rest come
    /// from [`RemoteProblem::resolve_partitions`], the rule every
    /// command-line job shares.
    fn partitions(&self) -> (GridDims, GridDims) {
        RemoteProblem::resolve_partitions(
            self.problem.dims(),
            self.deployment.slaves,
            self.deployment.threads_per_slave,
            self.process_partition,
            self.thread_partition,
        )
    }

    /// Reject partition settings the runtime cannot execute, before any
    /// thread is spawned ([`RemoteProblem::validate_partitions`] is the
    /// rule; the defaults always pass it).
    fn validate_partitions(&self) -> Result<(), RuntimeError> {
        let (pp, tp) = self.partitions();
        RemoteProblem::validate_partitions(pp, tp).map_err(|why| {
            RuntimeError::InvalidConfig(format!(
                "process_partition_size {pp} / thread_partition_size {tp}: invalid {why}"
            ))
        })
    }

    /// Build the DAG Data Driven Model this run will use.
    pub fn model(&self) -> DagDataDrivenModel {
        let (pp, tp) = self.partitions();
        DagDataDrivenModel::builder(self.problem.pattern())
            .process_partition_size(pp)
            .thread_partition_size(tp)
            .build()
    }

    /// Execute: build a one-job [`Fleet`] of slave threads over the
    /// chosen transport, run the job with the master on the calling
    /// thread, shut the fleet down, and return the computed matrix with a
    /// report.
    pub fn run(self) -> Result<RunOutput<P::Cell>, RuntimeError> {
        if self.deployment.slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        self.validate_partitions()?;
        let n_ranks = 1 + self.deployment.slaves;
        let model = self.model();
        let mut plans = self.fault_plans;
        if let Some(i) = plans.iter().skip(n_ranks).position(Option::is_some) {
            let (slave, n) = (n_ranks - 1 + i, n_ranks - 1);
            let why = format!("inject_fault: slave index {slave} is out of range for {n} slave(s)");
            return Err(RuntimeError::InvalidConfig(why));
        }
        plans.resize(n_ranks, None);
        let master_plan = plans.remove(0);

        // Observability: one registry / recorder shared by every rank of
        // the virtual cluster, carried to them through the deployment.
        let registry = match (&self.metrics, self.collect_metrics) {
            (Some(r), _) => Some(r.clone()),
            (None, true) => Some(Arc::new(Registry::new())),
            (None, false) => None,
        };
        let recorder = self
            .trace_out
            .as_ref()
            .map(|_| Arc::new(EventRecorder::new()));
        let mut deployment = self.deployment.clone();
        deployment.obs = ObsConfig {
            metrics: registry.clone(),
            recorder: recorder.clone(),
        };

        // Every slave thread holds the problem itself: the JOB frame only
        // starts its job.
        let job = {
            let (problem, model, deployment) =
                (self.problem.clone(), model.clone(), deployment.clone());
            move |ep: Endpoint, _: &[u8]| run_slave(ep, problem.as_ref(), &model, &deployment)
        };
        let mut fleet = Fleet::spawn(self.transport, plans, self.reconnect, registry.clone(), job)?;
        let out = fleet.run::<P::Cell>(
            Bytes::new(),
            &model,
            deployment,
            self.tile_budget,
            master_plan,
        );
        fleet.shutdown();
        let out = out?;

        // The shutdown joined every slave thread, so every event lane has
        // flushed into the recorder: the export is complete.
        if let (Some(rec), Some(path)) = (&recorder, &self.trace_out) {
            std::fs::write(path, rec.chrome_trace_json())
                .map_err(|e| RuntimeError::TraceIo(format!("{}: {e}", path.display())))?;
        }

        Ok(RunOutput {
            matrix: out.matrix,
            report: RunReport {
                elapsed: out.elapsed,
                master: out.stats,
                slaves: out.slave_stats,
                trace: out.trace,
            },
            metrics: registry,
        })
    }
}
