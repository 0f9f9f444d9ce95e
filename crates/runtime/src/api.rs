//! The user API: configure a problem and a deployment, call `run()`.
//!
//! This is the EasyHPS promise (paper §I): "the only requirement is that
//! the programmer's implementation uses APIs supplied by EasyHPS". A user
//! provides a [`DpProblem`] (or picks one from `easyhps-dp`), the two
//! partition sizes, and a deployment shape; the runtime does partitioning,
//! scheduling, communication and fault tolerance.

use crate::checkpoint::Checkpoint;
use crate::config::{Deployment, ObsConfig, RunReport};
use crate::durable::CheckpointPolicy;
use crate::fleet::accept_slaves;
use crate::master::run_master;
use crate::obs::registry_of;
use crate::remote::{serve_rejoining, RemoteProblem};
use crate::slave::run_slave;
use crate::RuntimeError;
use easyhps_core::ScheduleMode;
use easyhps_core::{DagDataDrivenModel, GridDims};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_net::socket::{SocketConfig, SocketListener};
use easyhps_net::{FaultPlan, NetAddr, NetError, Network, RetryPolicy};
use easyhps_obs::{labeled, EventRecorder, Registry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Result of a full multilevel run.
#[derive(Debug)]
pub struct RunOutput<C: easyhps_dp::Cell> {
    /// The computed global DP matrix (partial if a tile budget stopped the
    /// run early — see [`RunOutput::checkpoint`]).
    pub matrix: DpMatrix<C>,
    /// Execution report (timings, counters, per-slave stats).
    pub report: RunReport,
    /// Present when the run stopped at a tile budget before finishing;
    /// feed to [`EasyHps::resume_from`] to continue.
    pub checkpoint: Option<Checkpoint>,
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
    resume: Option<Checkpoint>,
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
            resume: None,
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

    /// Resume a run from a [`Checkpoint`]: finished sub-tasks are restored
    /// instead of re-executed. Combine with [`Checkpoint::load_dir`] to
    /// continue a run a hard master kill interrupted.
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Durably checkpoint the run per `policy`: the master appends
    /// finished tiles to CRC-guarded segment files in the policy's
    /// directory, so even a hard master kill loses at most the tiles
    /// accepted since the last capture. Recover with
    /// [`Checkpoint::load_dir`] + [`Self::resume_from`].
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.deployment.checkpoint = Some(policy);
        self
    }

    /// [`Self::checkpoint`] with the default policy (capture every 32
    /// accepted tiles, compact beyond 8 live segments).
    pub fn checkpoint_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint(CheckpointPolicy::new(dir))
    }

    /// Stop after `tiles` completions (counting resumed ones) and return a
    /// checkpoint in the output — for incremental or preemptible runs.
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

    /// Execute: spawn the virtual cluster (one thread per slave rank plus
    /// the master on the calling thread), run to completion, and return
    /// the computed matrix with a report.
    pub fn run(self) -> Result<RunOutput<P::Cell>, RuntimeError> {
        if self.deployment.slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        self.validate_partitions()?;
        let model = self.model();
        let n_ranks = 1 + self.deployment.slaves;
        let mut plans = self.fault_plans.clone();
        plans.resize(n_ranks, None);

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
        let problem = self.problem.clone();
        let mut deployment = self.deployment.clone();
        deployment.obs = ObsConfig {
            metrics: registry.clone(),
            recorder: recorder.clone(),
        };

        let out = match self.transport {
            TransportKind::InProcess => {
                let mut endpoints = Network::with_faults(n_ranks, &plans);
                let master_ep = endpoints.remove(0);
                std::thread::scope(|s| {
                    for ep in endpoints {
                        let problem = problem.clone();
                        let model = model.clone();
                        let deployment = deployment.clone();
                        // A slave that dies under fault injection returns
                        // Err; the master's fault tolerance handles it.
                        s.spawn(move || {
                            let _ = run_slave(ep, problem.as_ref(), &model, &deployment);
                        });
                    }
                    run_master(
                        master_ep,
                        problem.as_ref(),
                        &model,
                        &deployment,
                        self.resume.as_ref(),
                        self.tile_budget,
                        None,
                    )
                })?
            }
            kind => {
                // Socket-backed virtual cluster: every rank still runs as
                // a thread here, but all master<->slave traffic crosses a
                // real kernel socket. Ranks are requested explicitly so
                // per-rank fault plans land on the intended endpoint.
                let bind_addr = match kind {
                    TransportKind::Uds => NetAddr::Uds(temp_socket_path()),
                    _ => NetAddr::parse("127.0.0.1:0").expect("loopback address parses"),
                };
                let scfg = SocketConfig {
                    reconnect_window: self.reconnect,
                };
                let listener = SocketListener::bind(&bind_addr, scfg.clone()).map_err(|e| {
                    RuntimeError::InvalidConfig(format!("binding {bind_addr}: {e}"))
                })?;
                let addr = listener.local_addr();
                // Set once the master is done dispatching: a slave whose
                // link broke then has no job left to rejoin.
                let job_over: Arc<AtomicBool> = Arc::default();
                std::thread::scope(|s| {
                    for i in 0..self.deployment.slaves {
                        let plan = plans[i + 1].clone();
                        let addr = addr.clone();
                        let scfg = scfg.clone();
                        let problem = problem.clone();
                        let model = model.clone();
                        let deployment = deployment.clone();
                        let job_over = &job_over;
                        // A slave that dies under fault injection, or finds
                        // the master torn down early (e.g. under a
                        // kill-master drill), returns Err; the master's
                        // fault tolerance handles it.
                        s.spawn(move || {
                            let rank = Some(i as u32 + 1);
                            let wanted = || !job_over.load(Ordering::SeqCst);
                            let lost = |r: &Result<_, _>| {
                                matches!(r, Err(RuntimeError::Net(NetError::Disconnected)))
                            };
                            // Whether a broken link cut one of this slave's runs.
                            let mut cut = false;
                            let res =
                                serve_rejoining(&addr, rank, scfg, plan, wanted, |ep, plan| {
                                    let ep = ep.fork(plan);
                                    let run = run_slave(ep, problem.as_ref(), &model, &deployment);
                                    cut |= lost(&run);
                                    run
                                });
                            // A run cut while the job still needed this slave
                            // owes the master a rejoin; one that came back to
                            // a finished job owes none.
                            if cut && (wanted() || !lost(&res)) {
                                let l = labeled("slave_rejoins_owed", &[("slave", &i.to_string())]);
                                registry_of(&deployment.obs).counter(&l).inc();
                            }
                        });
                    }
                    // Elastic membership when a reconnect window is set:
                    // the listener stays open in a background acceptor
                    // that admits a redialling slave as a rejoin.
                    let (master_ep, sinfo, mut control) = accept_slaves(
                        listener,
                        self.deployment.slaves,
                        plans[0].clone(),
                        self.reconnect.is_some(),
                    )?;
                    control.rejoin_window = self.reconnect;
                    control.tearing_down = job_over.clone();
                    let out = run_master(
                        master_ep,
                        problem.as_ref(),
                        &model,
                        &deployment,
                        self.resume.as_ref(),
                        self.tile_budget,
                        Some(&control),
                    );
                    // Also when the master failed before its teardown.
                    job_over.store(true, Ordering::SeqCst);
                    let out = out?;
                    if let Some(reg) = &registry {
                        crate::remote::publish_socket_stats(reg, &sinfo);
                    }
                    Ok::<_, RuntimeError>(out)
                })?
            }
        };

        // Every slave thread has joined (the scope ended), so every event
        // lane has flushed into the recorder: the export is complete.
        if let (Some(rec), Some(path)) = (&recorder, &self.trace_out) {
            std::fs::write(path, rec.chrome_trace_json())
                .map_err(|e| RuntimeError::TraceIo(format!("{}: {e}", path.display())))?;
        }

        Ok(RunOutput {
            checkpoint: out.checkpoint,
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

/// A unique Unix-domain socket path for one in-process virtual cluster.
/// Uniqueness needs both the pid (parallel test binaries) and a counter
/// (parallel runs inside one binary).
fn temp_socket_path() -> std::path::PathBuf {
    static NEXT_SOCK: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "easyhps-{}-{}.sock",
        std::process::id(),
        NEXT_SOCK.fetch_add(1, Ordering::Relaxed)
    ))
}
