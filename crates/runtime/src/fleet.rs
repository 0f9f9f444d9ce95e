//! The one cluster assembly: rank-assigned slaves whose links outlive a
//! single job. [`EasyHps::run`](crate::EasyHps::run) builds a [`Fleet`]
//! of slave threads over its transport for its one job; `easyhps master`
//! accepts slave processes into one
//! ([`run_remote_master`](crate::remote::run_remote_master)); the serve
//! daemon keeps one and calls [`Fleet::run_job`] per job. Each job runs on
//! a per-job [`Endpoint::fork`] of the root endpoint, so the connections
//! outlive it (a socket writer exits only when the last `TxLink` clone is
//! gone).
//!
//! A slave waits for a [`tags::JOB`] frame, runs the job its *job source*
//! makes of it on a fork of its link, and repeats until
//! [`tags::SHUTDOWN`] or until the master disappears. A slave process
//! decodes the frame's [`JobSpec`] ([`serve_slave_jobs`]); a slave thread
//! of `EasyHps::run` holds the problem and ignores the payload. Fault
//! plans ride on the job forks only, so JOB and SHUTDOWN are never lost.
//!
//! A job begins when its JOB frame is sent and ends with END, also when
//! its master fails: [`Fleet::run_job`] then ENDs the job itself and
//! collects one STATS per rank, so the next job starts on links that hold
//! no frame of this one. Nothing else marks the boundary. A fleet that
//! runs many jobs carries no fault plan, so a link delivers every frame in
//! order or fails for good, and a frame of job N that job N+1's master
//! reads arrives before that slave's IDLE: a DONE then finds no registered
//! tile and is counted stale, a STATS arrives outside the teardown and is
//! ignored. A one-job fleet whose master fails shuts down at once.

use crate::api::TransportKind;
use crate::config::{Deployment, RunReport};
use crate::durable::CheckpointPolicy;
use crate::master::{run_master, FleetControl, MasterOutput};
use crate::protocol::{tags, SlaveStatsMsg};
use crate::remote::{JobSpec, RemoteOutput, RemoteSlaveOptions, SlaveServeSummary};
use crate::slave::run_slave;
use crate::{with_problem, ObsConfig, RuntimeError};
use bytes::Bytes;
use easyhps_core::DagDataDrivenModel;
use easyhps_dp::DpProblem;
use easyhps_net::socket::{
    connect, redial, SocketConfig, SocketInfo, SocketListener, DIAL_BACKOFF,
};
use easyhps_net::stream::retry_with_backoff;
use easyhps_net::{
    Endpoint, FaultPlan, FleetAcceptor, KillHandle, NetAddr, NetError, Network, Rank,
};
use easyhps_obs::{labeled, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job knobs for [`Fleet::run_job`] and
/// [`run_remote_master`](crate::remote::run_remote_master).
#[derive(Debug, Default)]
pub struct JobOptions {
    /// Observability wiring for this job (a daemon hands each job its
    /// own registry and republishes it with `job=`/`tenant=` labels).
    pub obs: ObsConfig,
    /// Durable checkpoint policy for this job (it says whether the job
    /// resumes from its directory).
    pub checkpoint: Option<CheckpointPolicy>,
}

type SlaveThread = JoinHandle<Result<SlaveServeSummary, RuntimeError>>;

/// A set of connected, rank-assigned slaves that stays usable across
/// jobs. Create with [`Fleet::accept`] (sockets, fixed membership),
/// [`Fleet::accept_elastic`] (sockets, rejoin + mid-run join + drain) or
/// [`Fleet::local`] (threads), run any number of jobs, then
/// [`Fleet::shutdown`].
pub struct Fleet {
    root: Endpoint,
    n_slaves: usize,
    /// Per-link counters of a socket-backed fleet.
    socket: Option<SocketInfo>,
    /// Slave threads of this process; empty when the slaves are other
    /// processes.
    threads: Vec<SlaveThread>,
    /// The channel slaves' root endpoints. Their receivers never
    /// disconnect, so a slave whose job ate the SHUTDOWN would wait out
    /// an idle probe: the shutdown kills them instead.
    kills: Vec<KillHandle>,
    /// Shared with every job's master: drain requests flow in, released
    /// ranks flow out, and the elastic acceptor (if any) rides along.
    control: FleetControl,
    /// Ranks no longer part of a *fixed-membership* fleet (drained and
    /// released, or found dead between jobs); indexed by rank, 0 unused.
    /// Elastic fleets derive membership from the acceptor instead — a
    /// released rank there may be re-issued to the next joiner.
    retired: Vec<bool>,
}

impl Fleet {
    fn assemble(
        root: Endpoint,
        n_slaves: usize,
        socket: Option<SocketInfo>,
        control: FleetControl,
    ) -> Fleet {
        let (threads, retired) = (Vec::new(), vec![false; n_slaves + 1]);
        Fleet {
            root,
            n_slaves,
            socket,
            threads,
            kills: Vec::new(),
            control,
            retired,
        }
    }

    /// Accept `n_slaves` socket connections on an already-bound listener
    /// and perform the rank handshake.
    pub fn accept(listener: SocketListener, n_slaves: usize) -> Result<Fleet, RuntimeError> {
        Self::remote(listener, n_slaves, false, None)
    }

    /// [`Fleet::accept`] with *elastic* membership: the listener stays
    /// open in a background acceptor that admits a redialling or
    /// replacement slave as a rejoin — a fresh link, fenced under a bumped
    /// fleet epoch — and brand-new slaves mid-run, shipping both the
    /// current job. Slaves redial a broken link when they run with
    /// [`SocketConfig::reconnect_window`].
    pub fn accept_elastic(
        listener: SocketListener,
        n_slaves: usize,
    ) -> Result<Fleet, RuntimeError> {
        Self::remote(listener, n_slaves, true, None)
    }

    /// Accept `n_slaves` ranks on `listener`. With `elastic`, the
    /// listener stays open on a background acceptor (rejoins, mid-run
    /// joiners) that rides in the control block; otherwise membership is
    /// fixed and only drain requests apply. An unreachable slave may
    /// rejoin for up to `rejoin_window` before the masters count it dead.
    pub(crate) fn remote(
        listener: SocketListener,
        n_slaves: usize,
        elastic: bool,
        rejoin_window: Option<Duration>,
    ) -> Result<Fleet, RuntimeError> {
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        let accept_err = |e| RuntimeError::InvalidConfig(format!("accepting slaves: {e}"));
        let (root, info, acceptor) = if elastic {
            let (ep, info, acc) = listener.accept_fleet(n_slaves, None).map_err(accept_err)?;
            (ep, info, Some(Arc::new(acc)))
        } else {
            let (ep, info) = listener.accept_ranks(n_slaves, None).map_err(accept_err)?;
            (ep, info, None)
        };
        let mut control = FleetControl::new(acceptor);
        control.rejoin_window = rejoin_window;
        Ok(Self::assemble(root, n_slaves, Some(info), control))
    }

    /// An in-process fleet: `n_slaves` threads running the multi-job
    /// slave loop over channel links. `threads` overrides each job's
    /// `threads_per_slave` when set.
    pub fn local(n_slaves: usize, threads: Option<usize>) -> Result<Fleet, RuntimeError> {
        Self::spawn(
            TransportKind::InProcess,
            vec![None; n_slaves],
            None,
            None,
            move |ep: Endpoint, payload: &[u8]| run_spec(ep, payload, threads),
        )
    }

    /// A fleet of slave threads in this process, one per entry of
    /// `plans`, linked to the root by `transport`: channels, or sockets
    /// over loopback TCP or a temp-dir Unix path that the fleet binds and
    /// accepts on. Each slave runs `job` on a fork of its link that
    /// carries its plan. Over sockets a `reconnect` window makes the
    /// fleet elastic: a slave whose link breaks redials and rejoins, until
    /// the running job's master begins its teardown. A slave cut off
    /// while that job still needed it counts in `slave_rejoins_owed` on
    /// `metrics`.
    pub(crate) fn spawn<J>(
        transport: TransportKind,
        plans: Vec<Option<FaultPlan>>,
        reconnect: Option<Duration>,
        metrics: Option<Arc<Registry>>,
        job: J,
    ) -> Result<Fleet, RuntimeError>
    where
        J: Fn(Endpoint, &[u8]) -> Result<SlaveStatsMsg, RuntimeError> + Clone + Send + 'static,
    {
        let n_slaves = plans.len();
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        // In process the links exist before the threads; over sockets each
        // slave dials the listener that the fleet accepts on below.
        let (mut eps, listener) = match transport {
            TransportKind::InProcess => (Network::new(n_slaves + 1), None),
            kind => {
                let addr = match kind {
                    TransportKind::Uds => NetAddr::Uds(temp_socket_path()),
                    _ => NetAddr::parse("127.0.0.1:0").expect("loopback address parses"),
                };
                let listener = SocketListener::bind(&addr, SocketConfig::default())
                    .map_err(|e| RuntimeError::InvalidConfig(format!("binding {addr}: {e}")))?;
                (Vec::new(), Some(listener))
            }
        };
        let addr = listener.as_ref().map(SocketListener::local_addr);
        let links = eps.split_off(eps.len().min(1));
        let kills = links.iter().map(Endpoint::kill_handle).collect();
        let mut links = links.into_iter();
        let tearing_down: Arc<AtomicBool> = Arc::default();
        let threads = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let (link, addr, job) = (links.next(), addr.clone(), job.clone());
                let (metrics, tearing_down) = (metrics.clone(), tearing_down.clone());
                let body = move || {
                    let wanted = || !tearing_down.load(Ordering::SeqCst);
                    // Whether a broken link cut one of this slave's jobs.
                    let mut cut = false;
                    let mut serve = |ep: Endpoint, plan: Option<FaultPlan>| {
                        slave_job_loop(ep, |root, payload| {
                            let run = job(root.fork(plan.clone()), payload);
                            cut |= link_lost(&run);
                            run
                        })
                    };
                    let res = match link {
                        Some(ep) => serve(ep, plan),
                        None => {
                            let mut dial = RemoteSlaveOptions::new(addr.expect("socket fleet"));
                            (dial.want_rank, dial.socket.reconnect_window) =
                                (Some(i as u32 + 1), reconnect);
                            serve_rejoining(&dial, plan, wanted, serve)
                        }
                    };
                    // A job cut while it still needed this slave owes
                    // the master a rejoin; one that came back to a
                    // finished job owes none.
                    if cut && (wanted() || !link_lost(&res)) {
                        if let Some(reg) = &metrics {
                            let l = labeled("slave_rejoins_owed", &[("slave", &i.to_string())]);
                            reg.counter(&l).inc();
                        }
                    }
                    res
                };
                std::thread::Builder::new()
                    .name(format!("fleet-slave-{}", i + 1))
                    .spawn(body)
                    .expect("spawn fleet slave")
            })
            .collect();
        let mut fleet = match listener {
            None => Self::assemble(eps.remove(0), n_slaves, None, FleetControl::new(None)),
            Some(listener) => Self::remote(listener, n_slaves, reconnect.is_some(), reconnect)?,
        };
        (fleet.threads, fleet.kills) = (threads, kills);
        fleet.control.tearing_down = tearing_down;
        Ok(fleet)
    }

    /// Number of slave slots in the fleet (the high-water rank; retired
    /// or currently-dark slots included).
    pub fn n_slaves(&self) -> usize {
        self.n_slaves
    }

    /// The control surface shared with every job's master. Clone it to
    /// feed drain requests in from another thread (the serve daemon's
    /// RPC handler does).
    pub fn control(&self) -> &FleetControl {
        &self.control
    }

    /// The elastic acceptor, when this fleet was created with
    /// [`Fleet::accept_elastic`].
    pub fn acceptor(&self) -> Option<&Arc<FleetAcceptor>> {
        self.control.acceptor.as_ref()
    }

    /// Ask the running (or next) job's master to gracefully drain
    /// `rank`: stop assigning it work, let its in-flight sub-tasks land,
    /// then release the rank back to the fleet.
    pub fn drain(&self, rank: u32) {
        self.control.request_drain(rank);
    }

    /// Fold membership changes into the fleet's own bookkeeping at a job
    /// boundary: retire ranks the previous job's master released, grow
    /// the slot count to cover mid-run joiners, and re-request drains
    /// for ranks that must stay out of the next job's schedule (each
    /// job's scheduler starts fresh, so a released slot must be drained
    /// again — the request releases an idle slot instantly).
    fn sync_membership(&mut self) {
        for rank in std::mem::take(&mut *self.control.released.lock().unwrap()) {
            if let Some(f) = self.retired.get_mut(rank as usize) {
                *f = true;
            }
        }
        if let Some(acc) = &self.control.acceptor {
            self.n_slaves = self.n_slaves.max(acc.n_ranks().saturating_sub(1));
            for r in 1..=self.n_slaves as u32 {
                // Slot empty in the acceptor: released and not re-issued.
                if acc.link_stats(r).is_none() {
                    self.control.request_drain(r);
                }
            }
        } else {
            for r in 1..=self.n_slaves {
                if self.retired[r] {
                    self.control.request_drain(r as u32);
                }
            }
        }
        if self.retired.len() < self.n_slaves + 1 {
            self.retired.resize(self.n_slaves + 1, false);
        }
    }

    /// The ranks the next job should treat as members: currently-linked
    /// ranks for an elastic fleet (a dark rank may rejoin mid-job and is
    /// shipped the job then), non-retired ranks otherwise.
    fn expected_ranks(&self) -> Vec<u32> {
        match &self.control.acceptor {
            Some(acc) => acc.live_ranks(),
            None => (1..=self.n_slaves as u32)
                .filter(|r| !self.retired[*r as usize])
                .collect(),
        }
    }

    /// Per-link socket counters; `None` for an in-process fleet.
    pub fn socket_info(&self) -> Option<&SocketInfo> {
        self.socket.as_ref()
    }

    /// Ship `spec` to every slave and run the master loop over a per-job
    /// fork of the fleet's endpoint. The connections stay open when the
    /// job finishes, ready for the next call.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        opts: JobOptions,
    ) -> Result<RemoteOutput, RuntimeError> {
        let mut deployment = spec.deployment(self.n_slaves, None);
        deployment.obs = opts.obs;
        deployment.checkpoint = opts.checkpoint;
        let grace = deployment
            .sched_params()
            .drain_deadline(deployment.retry.drain_budget());
        let payload = Bytes::from(spec.encode());
        let model = spec.model();
        let out = with_problem!(&spec.problem, p => {
            self.run(payload, &p, &model, deployment, None, None)
        });
        let out = out.inspect_err(|_| self.end_failed_job(grace))?;
        Ok(RemoteOutput {
            matrix: out.matrix,
            report: RunReport {
                elapsed: out.elapsed,
                master: out.stats,
                slaves: out.slave_stats,
                trace: out.trace,
            },
            socket: self.socket.clone(),
        })
    }

    /// Run one job: ship `payload` in a JOB frame to every member, then
    /// run the master loop over a fork of the root endpoint that carries
    /// `master_plan`. The connections stay open when the job finishes.
    /// A job that fails is left to the caller to end.
    pub(crate) fn run<P: DpProblem>(
        &mut self,
        payload: Bytes,
        problem: &P,
        model: &DagDataDrivenModel,
        mut deployment: Deployment,
        tile_budget: Option<u64>,
        master_plan: Option<FaultPlan>,
    ) -> Result<MasterOutput<P::Cell>, RuntimeError> {
        self.sync_membership();
        // Mid-run joiners (and re-incarnated slaves) must learn the job
        // too: the acceptor ships this to everyone it admits from now on.
        if let Some(acc) = &self.control.acceptor {
            acc.set_join_payload(tags::JOB, &payload);
        }
        self.control.tearing_down.store(false, Ordering::SeqCst);
        // A link that died since the last job fails here, and the rank is
        // retired. The master's send-failure path excludes the slot for
        // this job.
        let mut shipped = false;
        for r in self.expected_ranks() {
            if self.root.send(Rank(r), tags::JOB, payload.clone()).is_ok() {
                shipped = true;
            } else if let Some(f) = self.retired.get_mut(r as usize) {
                *f = true;
            }
        }
        deployment.slaves = self.n_slaves;
        let out = if shipped {
            let (ep, fc) = (self.root.fork(master_plan), Some(&self.control));
            run_master(ep, problem, model, &deployment, tile_budget, fc)
        } else {
            Err(RuntimeError::NoSlaves)
        };
        // Clear before propagating any error: a stale payload would ship
        // yesterday's job to tomorrow's joiners.
        if let Some(acc) = &self.control.acceptor {
            acc.clear_join_payload();
        }
        if let (Ok(_), Some(reg), Some(info)) = (&out, &deployment.obs.metrics, &self.socket) {
            publish_socket_stats(reg, info);
        }
        out
    }

    /// End the job of a master that failed: send END to every rank that
    /// may hold the job and read the root endpoint until each has
    /// answered with STATS or `grace` has passed. A rank whose END fails
    /// is retired; one that does not answer is released, as a drain
    /// would.
    fn end_failed_job(&mut self, grace: Duration) {
        let mut owed = Vec::new();
        for r in self.expected_ranks() {
            if self.root.send(Rank(r), tags::END, Bytes::new()).is_ok() {
                owed.push(r);
            } else if let Some(f) = self.retired.get_mut(r as usize) {
                *f = true;
            }
        }
        let deadline = Instant::now() + grace;
        while !owed.is_empty() {
            match self
                .root
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(env) if env.tag == tags::STATS => owed.retain(|r| *r != env.src.0),
                // The failed job's DONEs and heartbeats.
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // Retired at the next job boundary, like a drained rank.
        for r in owed {
            self.control.release(r);
        }
    }

    /// Send SHUTDOWN to every slave and tear the fleet down. Slave
    /// threads of this process are joined and their per-slave service
    /// summaries returned; remote slaves exit their own processes' loops.
    pub fn shutdown(self) -> Vec<SlaveServeSummary> {
        let Fleet {
            mut root,
            threads,
            kills,
            n_slaves,
            control,
            ..
        } = self;
        // No slave thread redials a fleet that is going away.
        control.tearing_down.store(true, Ordering::SeqCst);
        for r in 1..=n_slaves as u32 {
            let _ = root.send(Rank(r), tags::SHUTDOWN, Bytes::new());
        }
        // Drop the root *before* joining: a slave still inside a job
        // whose END never reached it ignores SHUTDOWN, and only notices
        // the fleet is gone when its next heartbeat send fails — which
        // requires the master side of the links to actually close.
        // Socket writers flush queued frames (the SHUTDOWN) before
        // closing.
        drop(root);
        // The elastic acceptor holds a clone of the link table: it must
        // go too (stopping the accept thread) or the socket writers would
        // never exit.
        drop(control);
        kills.iter().for_each(KillHandle::kill);
        threads
            .into_iter()
            .filter_map(|h| h.join().ok().and_then(|r| r.ok()))
            .collect()
    }
}

/// Export per-link socket counters (bytes queued, initial-connect
/// retries, frames rejected, traffic) into a metrics registry, one series
/// set per link.
fn publish_socket_stats(reg: &Registry, info: &SocketInfo) {
    for (rank, stats) in &info.links {
        let s = stats.snapshot();
        let peer = rank.0.to_string();
        let l = |name: &str| labeled(name, &[("link", &peer)]);
        reg.gauge(&l("socket_bytes_queued"))
            .set(s.bytes_queued as i64);
        reg.counter(&l("socket_frames_sent")).add(s.frames_sent);
        reg.counter(&l("socket_bytes_sent")).add(s.bytes_sent);
        reg.counter(&l("socket_frames_recv")).add(s.frames_recv);
        reg.counter(&l("socket_bytes_recv")).add(s.bytes_recv);
        reg.counter(&l("socket_frames_rejected"))
            .add(s.frames_rejected);
        reg.counter(&l("socket_reconnects")).add(s.reconnects);
        reg.counter(&l("socket_disconnects")).add(s.disconnects);
    }
}

/// A unique Unix-domain socket path for one fleet of this process.
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

/// How often an idle fleet slave sends a HEARTBEAT between jobs. The
/// send is its master-death detector: a channel link's receiver never
/// disconnects, so once the master is gone only a failing send tells.
const IDLE_PROBE: Duration = Duration::from_millis(500);

/// Serve jobs on an already-connected endpoint until the master sends
/// SHUTDOWN or disappears. Each [`tags::JOB`] frame starts one job:
/// `job` runs it, given the root endpoint and the frame's payload, on a
/// per-job [`Endpoint::fork`] of the root that it makes, so the link
/// survives from job to job.
fn slave_job_loop(
    mut root: Endpoint,
    mut job: impl FnMut(&Endpoint, &[u8]) -> Result<SlaveStatsMsg, RuntimeError>,
) -> Result<SlaveServeSummary, RuntimeError> {
    let master = Rank(0);
    let mut summary = SlaveServeSummary::default();
    loop {
        let env = match root.recv_timeout(IDLE_PROBE) {
            Ok(env) => env,
            Err(NetError::Timeout) => {
                if root.send(master, tags::HEARTBEAT, Bytes::new()).is_err() {
                    return Ok(summary); // master gone between jobs
                }
                continue;
            }
            Err(_) => return Ok(summary),
        };
        match env.tag {
            tags::JOB => {
                let stats = job(&root, &env.payload)?;
                summary.jobs += 1;
                summary.stats.tasks_done += stats.tasks_done;
                summary.stats.subtasks_done += stats.subtasks_done;
                summary.stats.busy_ns += stats.busy_ns;
                summary.stats.thread_failures += stats.thread_failures;
                summary.stats.threads_spawned += stats.threads_spawned;
            }
            // An END with no job running (a failed job's master had
            // already ended it here, or this rank sat the job out) is
            // answered too, so that every END draws one STATS.
            tags::END => {
                let stats = SlaveStatsMsg::default().encode();
                if root.send(master, tags::STATS, stats).is_err() {
                    return Ok(summary);
                }
            }
            tags::SHUTDOWN => return Ok(summary),
            // Stray frames between jobs (a probe of an excluded slave)
            // are harmless.
            _ => {}
        }
    }
}

/// The job source of a slave that holds no problem of its own: decode
/// the JOB payload's [`JobSpec`] and run the ordinary slave loop on `ep`
/// for the problem it names.
fn run_spec(
    ep: Endpoint,
    payload: &[u8],
    threads: Option<usize>,
) -> Result<SlaveStatsMsg, RuntimeError> {
    let spec = JobSpec::decode(payload)?;
    let deployment = spec.deployment(ep.n_ranks() - 1, threads);
    let model = spec.model();
    with_problem!(&spec.problem, p => run_slave(ep, &p, &model, &deployment))
}

/// Run the slave side of a multi-process deployment: connect, then serve
/// every job the master ships until it sends SHUTDOWN or disappears. A
/// one-shot `easyhps master` sends exactly one job followed by SHUTDOWN;
/// a serve daemon keeps the connection and streams jobs through it.
pub fn serve_slave_jobs(opts: RemoteSlaveOptions) -> Result<SlaveServeSummary, RuntimeError> {
    serve_rejoining(
        &opts,
        None,
        || true,
        |ep, _| {
            slave_job_loop(ep, |root, payload| {
                run_spec(root.fork(None), payload, opts.threads)
            })
        },
    )
}

/// Whether `res` is a broken link ([`NetError::Disconnected`]; never
/// `Dead`, which is a crash).
fn link_lost<T>(res: &Result<T, RuntimeError>) -> bool {
    matches!(res, Err(RuntimeError::Net(NetError::Disconnected)))
}

/// Connect to the master as `opts` say and `serve` on the link, handing
/// it the slave's fault plan — and rejoin when the link breaks. A run that
/// ends with a lost link redials the same rank under the same session for
/// up to the socket config's reconnect window, while `wanted` says the master may still
/// need it, and serves again; the master admits that as a rejoin. A
/// plan's sever fires once per slave: the slave stays dark for its
/// `down_for` and rejoins with the sever cleared. A slave that does not
/// come back returns its run's error — or, when the master refused a
/// redial while `wanted` still held, that redial's.
fn serve_rejoining<T>(
    opts: &RemoteSlaveOptions,
    mut plan: Option<FaultPlan>,
    wanted: impl Fn() -> bool,
    mut serve: impl FnMut(Endpoint, Option<FaultPlan>) -> Result<T, RuntimeError>,
) -> Result<T, RuntimeError> {
    let io_err = |what: &str, e| RuntimeError::InvalidConfig(format!("{what}: {e}"));
    let (addr, window) = (&opts.addr, opts.socket.reconnect_window);
    let (mut ep, mut info) = connect(addr, opts.want_rank, opts.socket.clone(), None)
        .map_err(|e| io_err("connecting to master", e))?;
    loop {
        let res = serve(ep, plan.clone());
        let Some(window) = window else { return res };
        if !link_lost(&res) {
            return res;
        }
        if let Some(sever) = plan.as_mut().and_then(|p| p.link_sever.take()) {
            std::thread::sleep(sever.down_for);
        }
        if !wanted() {
            return res;
        }
        let deadline = Instant::now() + window;
        let mut refused = false;
        let redialled = retry_with_backoff(
            DIAL_BACKOFF.0,
            DIAL_BACKOFF.1,
            || redial(addr, &info),
            |_, _| {
                refused |= wanted();
                wanted() && Instant::now() < deadline
            },
        );
        (ep, info) = match redialled {
            Ok(link) => link,
            Err(_) if !refused => return res,
            Err(e) => return Err(io_err("rejoining the master", e)),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteProblem;
    use easyhps_core::GridDims;

    /// A two-slave fleet over `root` whose slaves are `threads`.
    fn fleet_of(root: Endpoint, threads: Vec<SlaveThread>) -> Fleet {
        let mut fleet = Fleet::assemble(root, 2, None, FleetControl::new(None));
        fleet.threads = threads;
        fleet
    }

    /// A fleet slave that learns each job from its JOB frame.
    fn spec_loop(ep: Endpoint) -> Result<SlaveServeSummary, RuntimeError> {
        slave_job_loop(ep, |root, payload| run_spec(root.fork(None), payload, None))
    }

    fn editdist_spec(a: &[u8], b: &[u8]) -> JobSpec {
        JobSpec::new(
            RemoteProblem::EditDistance {
                a: a.to_vec(),
                b: b.to_vec(),
            },
            GridDims::new(8, 8),
            GridDims::new(4, 4),
        )
    }

    /// The satellite fix, in-process: one fleet runs two different jobs
    /// back to back over the same links, both bit-identical to their
    /// sequential references.
    #[test]
    fn local_fleet_reuses_slaves_across_jobs() {
        let mut fleet = Fleet::local(2, None).unwrap();
        let specs = [
            editdist_spec(b"kitten sat on the mat", b"sitting on the hat"),
            editdist_spec(b"abcdefghij", b"jihgfedcba"),
        ];
        for spec in &specs {
            let out = fleet.run_job(spec, JobOptions::default()).unwrap();
            let reference = spec.problem.solve_sequential();
            let d = reference.dims();
            assert_eq!(
                out.matrix.get(d.rows - 1, d.cols - 1),
                reference.get(d.rows - 1, d.cols - 1)
            );
        }
        let summaries = fleet.shutdown();
        assert_eq!(summaries.len(), 2);
        assert_eq!(
            summaries.iter().map(|s| s.jobs).sum::<u64>(),
            4,
            "each slave served both jobs"
        );
    }

    /// A job's thread count comes from outside the host (a serve client's
    /// spec): a fleet slave spawns no more computing threads than one
    /// tile has sub-tasks, however many the spec asks for.
    #[test]
    fn fleet_slave_threads_are_bounded_by_the_tile() {
        let mut fleet = Fleet::local(2, None).unwrap();
        // 8x8 tiles in 4x4 sub-tiles: 4 sub-tasks per tile.
        let mut spec = editdist_spec(b"a job asking for a thousand", b"threads per slave");
        spec.threads_per_slave = 1000;
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.matrix, spec.problem.solve_sequential());
        let slaves: Vec<_> = out.report.slaves.iter().flatten().collect();
        assert_eq!(slaves.len(), 2);
        for s in slaves {
            assert_eq!(s.threads_spawned, 4, "{s:?}");
        }
        fleet.shutdown();
    }

    /// Regression: a slave that dies *between* jobs is a membership
    /// change, not a stall. The JOB send to the dead rank fails, the rank
    /// is retired, and the next job completes promptly on the survivor.
    #[test]
    fn slave_death_between_jobs_is_a_membership_change() {
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        let mut kills = Vec::new();
        let handles = eps
            .into_iter()
            .map(|ep| {
                kills.push(ep.kill_handle());
                std::thread::spawn(move || spec_loop(ep))
            })
            .collect();
        let mut fleet = fleet_of(root, handles);

        let spec = editdist_spec(b"a job for two slaves", b"before one dies");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.report.master.dead_slaves, 0);

        // Kill slave 2 between jobs: its loop observes the kill within
        // one liveness slice, exits, and drops its endpoint.
        kills[1].kill();
        std::thread::sleep(Duration::from_millis(50));

        let t = Instant::now();
        let spec = editdist_spec(b"the survivor finishes", b"this one alone");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "the job waited on a dead slave: {:?}",
            t.elapsed()
        );
        assert!(fleet.retired[2], "dead rank must be retired");
        fleet.shutdown();
    }

    /// The race behind the test above, forced: rank 2 is gone before the
    /// job ships. The failed JOB send retires it, and the teardown does
    /// not wait for the STATS of a slave its END cannot reach.
    #[test]
    fn job_send_failure_retires_a_rank_that_is_gone() {
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        drop(eps.pop().unwrap());
        let live = eps.pop().unwrap();
        let handle = std::thread::spawn(move || spec_loop(live));
        let mut fleet = fleet_of(root, vec![handle]);
        let spec = editdist_spec(b"one slave is already gone", b"before the job ships");
        let t = Instant::now();
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        let reference = spec.problem.solve_sequential();
        assert_eq!(out.matrix, reference);
        assert!(
            fleet.retired[2],
            "the rank whose JOB send failed is retired"
        );
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "teardown awaited the STATS of a slave its END could not reach: {:?}",
            t.elapsed()
        );
        fleet.shutdown();
    }

    /// A master that fails after the JOB went out (here: its checkpoint
    /// directory holds a run of other dimensions, which the store
    /// refuses) leaves its slaves inside the job. The fleet ends the job
    /// with END, so the next job runs at once on the same slaves.
    #[test]
    fn a_failed_job_leaves_the_fleet_ready() {
        use crate::durable::{CheckpointPolicy, CheckpointStore};
        let dir =
            std::env::temp_dir().join(format!("easyhps-fleet-failed-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let other = CheckpointPolicy::new(&dir);
        let (mut store, _) = CheckpointStore::open(&other, 5, 5).unwrap();
        store
            .append(&[(0, easyhps_core::TileRegion::new(0, 1, 0, 1), vec![0; 4])])
            .unwrap();

        let mut fleet = Fleet::local(2, None).unwrap();
        let spec = editdist_spec(b"a job whose master fails", b"before it dispatches");
        let failed = fleet.run_job(
            &spec,
            JobOptions {
                checkpoint: Some(CheckpointPolicy::new(&dir)),
                ..JobOptions::default()
            },
        );
        assert!(
            matches!(&failed, Err(RuntimeError::Checkpoint(m)) if m.contains("5x5")),
            "{:?}",
            failed.map(|o| o.report.master)
        );

        let t = Instant::now();
        let spec = editdist_spec(b"the next job runs anyway", b"on the same two slaves");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.matrix, spec.problem.solve_sequential());
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "the job after a failed one took {:?}",
            t.elapsed()
        );
        assert_eq!(fleet.retired, [false; 3], "no rank was retired");
        let summaries = fleet.shutdown();
        assert_eq!(summaries.iter().map(|s| s.jobs).sum::<u64>(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job that reads the SHUTDOWN off the shared link (a lingering
    /// reliable layer reads every frame) and then ends cleanly leaves its
    /// slave idle on a channel that never disconnects. The shutdown does
    /// not wait for that slave's idle probe to find the master gone.
    #[test]
    fn a_slave_whose_job_ate_the_shutdown_exits_at_once() {
        let (started, job_started) = std::sync::mpsc::channel();
        let eat_until_shutdown = move |mut ep: Endpoint, _: &[u8]| {
            started.send(()).unwrap();
            loop {
                if ep.recv_timeout(Duration::from_secs(5))?.tag == tags::SHUTDOWN {
                    return Ok(SlaveStatsMsg::default());
                }
            }
        };
        let mut fleet = Fleet::spawn(
            TransportKind::InProcess,
            vec![None],
            None,
            None,
            eat_until_shutdown,
        )
        .unwrap();
        fleet.root.send(Rank(1), tags::JOB, Bytes::new()).unwrap();
        job_started.recv().unwrap();
        let t = Instant::now();
        let summaries = fleet.shutdown();
        assert!(
            t.elapsed() < IDLE_PROBE / 2,
            "shutdown waited {:?} for the slave's idle probe",
            t.elapsed()
        );
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].jobs, 1);
    }

    /// An idle slave answers END with empty stats, so a fleet ending a
    /// job that its master had already ended there is answered at once.
    #[test]
    fn an_idle_slave_answers_end_with_empty_stats() {
        use crate::protocol::SlaveStatsMsg;
        let mut eps = Network::new(2);
        let mut root = eps.remove(0);
        let ep = eps.remove(0);
        let slave = std::thread::spawn(move || spec_loop(ep));
        root.send(Rank(1), tags::END, Bytes::new()).unwrap();
        let env = root.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.tag, tags::STATS);
        let stats = SlaveStatsMsg::decode(&env.payload).unwrap();
        assert_eq!(stats, SlaveStatsMsg::default());
        root.send(Rank(1), tags::SHUTDOWN, Bytes::new()).unwrap();
        assert_eq!(slave.join().unwrap().unwrap().jobs, 0);
    }

    /// Per-link FIFO is the whole job boundary: a DONE and a STATS that a
    /// slave sent before the job began reach the master before that
    /// slave's IDLE. The DONE names a tile of this job in its exact region,
    /// yet finds nothing registered and is counted stale, and the report
    /// holds the STATS of the slave's own work in this job.
    #[test]
    fn a_previous_jobs_frames_are_not_taken_for_this_jobs() {
        use crate::protocol::{DoneMsg, SlaveStatsMsg};
        let spec = editdist_spec(b"frames of the last job", b"arrive first on the link");
        let model = spec.model();
        let region = model.tile_region(model.master_dag().vertex(easyhps_core::VertexId(0)).pos);
        let stale_stats = SlaveStatsMsg {
            tasks_done: 1000,
            subtasks_done: 1000,
            busy_ns: 1,
            thread_failures: 7,
            threads_spawned: 99,
        };
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        let handles = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                std::thread::spawn(move || {
                    if i == 0 {
                        let cells = vec![0u8; region.area() as usize * 4];
                        let done = DoneMsg {
                            task: 0,
                            epoch: 0,
                            region,
                            output: &cells,
                        };
                        ep.send(Rank(0), tags::DONE, done.encode())?;
                        ep.send(Rank(0), tags::STATS, stale_stats.encode())?;
                    }
                    spec_loop(ep)
                })
            })
            .collect();
        let mut fleet = fleet_of(root, handles);
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.matrix, spec.problem.solve_sequential());
        assert_eq!(out.report.master.stale_completions, 1);
        let summaries = fleet.shutdown();
        assert_eq!(summaries.len(), 2);
        for (w, summary) in summaries.iter().enumerate() {
            assert_eq!(out.report.slaves[w], Some(summary.stats), "slave {w}");
        }
        assert_eq!(
            summaries.iter().map(|s| s.stats.tasks_done).sum::<u64>(),
            model.master_dag().len() as u64
        );
    }

    /// Elastic fleet over TCP: a second slave joins *between* jobs and
    /// serves the next one; draining it afterwards releases its rank and
    /// the remaining jobs still complete.
    #[test]
    fn elastic_fleet_admits_joiner_and_drains_it() {
        use crate::remote::RemoteSlaveOptions;
        use easyhps_net::socket::SocketConfig;
        use easyhps_net::NetAddr;

        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let first = {
            let mut o = RemoteSlaveOptions::new(addr.clone());
            o.want_rank = Some(1);
            std::thread::spawn(move || serve_slave_jobs(o))
        };
        let mut fleet = Fleet::accept_elastic(listener, 1).unwrap();

        let spec = editdist_spec(b"one slave to begin with", b"the fleet grows later");
        fleet.run_job(&spec, JobOptions::default()).unwrap();

        // A new slave walks up between jobs (wildcard rank: the acceptor
        // assigns the next free one).
        let second = {
            let o = RemoteSlaveOptions::new(addr);
            std::thread::spawn(move || serve_slave_jobs(o))
        };
        // Wait for admission so the next job ships to it.
        let acc = fleet.acceptor().unwrap().clone();
        let t = Instant::now();
        while acc.live_ranks().len() < 2 && t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(acc.live_ranks().len(), 2, "joiner not admitted");

        let spec = editdist_spec(b"now two slaves share it", b"the job after the join");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(fleet.n_slaves(), 2);
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );

        // Drain rank 2: the request is consumed by the next job's
        // master, which releases the idle rank at once and computes the
        // whole job on rank 1.
        fleet.drain(2);
        let spec = editdist_spec(b"drained back down to one", b"the last job of the test");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );
        assert!(
            !acc.live_ranks().contains(&2),
            "drained rank must be released: {:?}",
            acc.live_ranks()
        );

        fleet.shutdown();
        first.join().unwrap().unwrap();
        // The drained slave's loop exits once its link closes — possibly
        // with a net error if release caught it mid-recv, which is fine.
        let _ = second.join().unwrap();
    }

    /// Same over real TCP: the socket connections survive the first job.
    #[test]
    fn tcp_fleet_reuses_connections_across_jobs() {
        use crate::remote::RemoteSlaveOptions;
        use easyhps_net::socket::SocketConfig;
        use easyhps_net::NetAddr;

        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let slaves: Vec<_> = (1..=2u32)
            .map(|r| {
                let mut o = RemoteSlaveOptions::new(addr.clone());
                o.want_rank = Some(r);
                std::thread::spawn(move || serve_slave_jobs(o))
            })
            .collect();
        let mut fleet = Fleet::accept(listener, 2).unwrap();
        for text in ["the first job of the fleet", "and a different second one"] {
            let spec = editdist_spec(text.as_bytes(), b"a shared reference string");
            let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
            let reference = spec.problem.solve_sequential();
            let d = reference.dims();
            assert_eq!(
                out.matrix.get(d.rows - 1, d.cols - 1),
                reference.get(d.rows - 1, d.cols - 1)
            );
        }
        fleet.shutdown();
        for s in slaves {
            let summary = s.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 2, "slave must have served both jobs");
        }
    }
}
