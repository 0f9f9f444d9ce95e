//! The serve daemon: a long-lived process owning a persistent slave
//! fleet, accepting DP jobs from many clients and tenants.
//!
//! The job table is also the cache. One index maps a problem's content
//! key ([`crate::cache::job_key`]) to its computation: queued or running,
//! with the submissions attached to it, or finished, as its digest
//! (rows, cols, CRC — no cells). Every submission, and every job crash
//! recovery replays, passes the same admission rule (all under one
//! mutex — decisions are cheap next to the jobs themselves):
//!
//! 1. **Hit** — the problem is computed: answer with its digest, no
//!    queue slot.
//! 2. **Coalesce** — the problem is queued *or running*: attach the job
//!    to that computation. It consumes no queue slot and is answered by
//!    the one computation.
//! 3. **Enqueue** — a new computation. A client's submission meets the
//!    bounded queue first: past it, reject, naming the limit and the way
//!    out. Otherwise persist the spec (acceptance *is* the durable
//!    write), enqueue, and wake the scheduler.
//!
//! A queued computation is charged to, and runs as, its earliest live
//! submission, so cancelling one submission only detaches it.
//!
//! The scheduler picks queued computations by **weighted fair queuing**
//! over tenant keys: each tenant has a virtual time advanced by
//! `cells / weight` per dispatched job; the queued job whose tenant has
//! the smallest virtual time runs next, so a tenant spraying jobs cannot
//! starve one submitting occasionally. Jobs at or below
//! `batch_max_cells` are gathered — in the same fairness order — into
//! one **batch round** of sequential solves (tiny DP matrices are
//! cheaper to solve than to partition); larger jobs run on the fleet
//! with a per-job metrics registry and a per-job durable checkpoint
//! directory, so a `kill -9` mid-job resumes from the last flushed tile
//! segment rather than from scratch. A job's spec is held only until it
//! is dispatched.
//!
//! Crash recovery replays the state directory on startup: jobs with a
//! persisted digest re-enter the index as finished; accepted-but-
//! unfinished jobs are re-admitted in id order through the same
//! admission rule, bypassing the queue bound — accepted jobs must
//! complete.

use crate::cache::job_key;
use crate::protocol::{Admission, JobResult, JobState, Request, Response, SubmitReq};
use crate::state::JobStore;
use easyhps_net::frame::{self, CLIENT_MAGIC};
use easyhps_net::socket::{SocketConfig, SocketListener};
use easyhps_net::stream::{Listener, Stream};
use easyhps_net::NetAddr;
use easyhps_obs::{labeled, MetricValue, Registry, Snapshot};
use easyhps_runtime::remote::JobSpec;
use easyhps_runtime::{CheckpointPolicy, Fleet, FleetControl, JobOptions, ObsConfig, RuntimeError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon's compute comes from.
#[derive(Debug)]
pub enum FleetSpec {
    /// In-process slave threads (the default).
    Local {
        /// Number of slave workers.
        slaves: usize,
        /// Override each job's `threads_per_slave` when set.
        threads: Option<usize>,
    },
    /// Real slave processes connecting over sockets.
    Remote {
        /// Address to listen for slaves on.
        listen: NetAddr,
        /// How many slaves to wait for.
        slaves: usize,
    },
}

/// Daemon configuration. `new` fills every knob with a usable default;
/// the CLI maps flags onto the public fields.
#[derive(Debug)]
pub struct ServeConfig {
    /// Client-protocol listen address.
    pub listen: NetAddr,
    /// Compute fleet.
    pub fleet: FleetSpec,
    /// State directory for durable specs/results/checkpoints. `None`
    /// disables durability (accepted jobs die with the process).
    pub state_dir: Option<PathBuf>,
    /// Bounded queue depth; submissions past it are rejected.
    pub queue_cap: usize,
    /// Jobs at or below this many matrix cells are batched into
    /// sequential-solve rounds instead of fleet dispatches. 0 disables
    /// batching (everything goes to the fleet).
    pub batch_max_cells: u64,
    /// Maximum jobs gathered into one batch round.
    pub batch_max_jobs: usize,
    /// Durable checkpoint cadence (tiles) for fleet jobs; 0 keeps the
    /// policy default.
    pub checkpoint_every: u64,
    /// Also republish each fleet job's metrics under
    /// `job="..."`/`tenant="..."` labels. Off by default: label
    /// cardinality grows with job count.
    pub per_job_metrics: bool,
    /// Tenant weights for fair scheduling (unlisted tenants weigh 1).
    pub tenant_weights: Vec<(String, u64)>,
}

impl ServeConfig {
    /// Defaults: 2 local slaves, queue of 64, batch threshold 16384
    /// cells, 8 jobs per batch round.
    pub fn new(listen: NetAddr) -> ServeConfig {
        ServeConfig {
            listen,
            fleet: FleetSpec::Local {
                slaves: 2,
                threads: None,
            },
            state_dir: None,
            queue_cap: 64,
            batch_max_cells: 16_384,
            batch_max_jobs: 8,
            checkpoint_every: 0,
            per_job_metrics: false,
            tenant_weights: Vec::new(),
        }
    }
}

/// A submission's lifecycle. A pending job is queued or running as its
/// computation is ([`Entry::Pending`]).
#[derive(Debug)]
enum St {
    Pending,
    Done(JobResult),
    Failed(String),
    Cancelled,
}

/// One submission, kept for `status`.
struct Job {
    tenant: String,
    key: u128,
    cells: u64,
    /// Held while the job's computation is queued, for when this job is
    /// its earliest live submission at dispatch; then moved into the
    /// [`Dispatch`] or dropped.
    spec: Option<JobSpec>,
    st: St,
    /// `wait = true` connections blocked on this job's terminal state.
    waiters: Vec<mpsc::Sender<Response>>,
}

/// What the job table knows of one problem.
enum Entry {
    /// Queued or running: the live submissions attached, earliest first.
    /// The first is charged for the computation and is the job it runs
    /// as.
    Pending(Vec<u64>),
    /// Computed: the digest that answers every later submission.
    Done(JobResult),
}

struct Core {
    jobs: BTreeMap<u64, Job>,
    /// Content key -> that problem's computation.
    index: HashMap<u128, Entry>,
    /// Content keys of the queued computations, arrival order. A pending
    /// computation not in it is running. Fair pick scans it.
    queue: VecDeque<u128>,
    /// Weighted-fair virtual time per tenant.
    vtime: HashMap<String, u64>,
    next_id: u64,
}

struct Inner {
    registry: Arc<Registry>,
    store: Option<JobStore>,
    weights: HashMap<String, u64>,
    queue_cap: usize,
    batch_max_cells: u64,
    batch_max_jobs: usize,
    checkpoint_every: u64,
    per_job_metrics: bool,
    core: Mutex<Core>,
    work: Condvar,
    shutdown: AtomicBool,
    /// The fleet's control surface, published by the scheduler once the
    /// fleet is up. Drain RPCs push requests through it; the next (or
    /// running) job's master honours them.
    fleet_control: Mutex<Option<FleetControl>>,
    /// Shutdown handles of live client connections: a graceful stop
    /// closes them so handler threads parked in a read exit instead of
    /// keeping pre-restart connections (and answers) alive.
    clients: Mutex<Vec<Arc<Stream>>>,
}

/// One computation handed from the queue to an execution round, running
/// as job `id`.
struct Dispatch {
    id: u64,
    key: u128,
    tenant: String,
    spec: JobSpec,
    cells: u64,
}

impl Inner {
    fn weight(&self, tenant: &str) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }

    fn queue_gauge(&self, core: &Core) {
        self.registry
            .gauge("serve_queue_depth")
            .set(core.queue.len() as i64);
    }

    /// Join a tenant's virtual time to the current floor so a returning
    /// tenant does not replay its idle period as priority.
    fn join_vtime(&self, core: &mut Core, tenant: &str) {
        let floor = core.vtime.values().copied().min().unwrap_or(0);
        core.vtime
            .entry(tenant.to_string())
            .and_modify(|v| *v = (*v).max(floor))
            .or_insert(floor);
    }

    // -- admission ----------------------------------------------------

    /// Admit one client submission. Returns the immediate responses plus,
    /// for `wait` submissions still in flight, the receiver for the
    /// terminal response.
    fn submit(&self, req: SubmitReq) -> (Vec<Response>, Option<mpsc::Receiver<Response>>) {
        let SubmitReq { tenant, wait, spec } = req;
        self.registry.counter("serve_jobs_submitted").inc();
        let reject = |reason| {
            self.registry.counter("serve_jobs_rejected").inc();
            (vec![Response::Rejected { reason }], None)
        };
        if self.shutdown.load(Ordering::SeqCst) {
            return reject("daemon is shutting down".into());
        }
        let (tx, rx) = mpsc::channel();
        let mut core = self.core.lock().unwrap();
        let (job, admission) = match self.admit(&mut core, None, tenant, spec, wait.then_some(tx)) {
            Ok(admitted) => admitted,
            Err(reason) => return reject(reason),
        };
        let accepted = Response::Accepted { job, admission };
        match core.jobs[&job].st {
            St::Done(result) => (
                vec![
                    accepted,
                    Response::Done {
                        job,
                        result,
                        cached: true,
                    },
                ],
                None,
            ),
            _ => (vec![accepted], wait.then_some(rx)),
        }
    }

    /// Enter one job into the table under the one admission rule: a
    /// computed problem is a hit, a queued or running one gains the job
    /// as an attached submission, and any other becomes a new computation
    /// at the back of the queue. A client's submission (`recovered` is
    /// `None`) also meets the queue bound, takes the next id, and has its
    /// spec persisted before it is entered; a job replayed from the state
    /// directory was accepted before the crash and skips all three.
    fn admit(
        &self,
        core: &mut Core,
        recovered: Option<u64>,
        tenant: String,
        spec: JobSpec,
        waiter: Option<mpsc::Sender<Response>>,
    ) -> Result<(u64, Admission), String> {
        let key = job_key(&spec.problem);
        let admission = match core.index.get(&key) {
            Some(Entry::Done(_)) => Admission::CacheHit,
            Some(Entry::Pending(_)) => Admission::Coalesced,
            None => Admission::New,
        };
        let id = match recovered {
            Some(id) => id,
            None => {
                if admission == Admission::New && core.queue.len() >= self.queue_cap {
                    return Err(format!(
                        "queue full: {} jobs waiting (capacity {}); retry later or \
                         restart the daemon with a larger --queue",
                        core.queue.len(),
                        self.queue_cap
                    ));
                }
                let id = core.next_id;
                core.next_id += 1;
                // The durable write precedes the acknowledgement; a hit
                // is answered at once and leaves nothing to recover.
                if let Some(store) = self
                    .store
                    .as_ref()
                    .filter(|_| admission != Admission::CacheHit)
                {
                    store
                        .persist_spec(id, &tenant, &spec)
                        .map_err(|e| format!("cannot persist job to state dir: {e}"))?;
                }
                self.registry.counter("serve_jobs_accepted").inc();
                self.tenant_counters(&tenant);
                id
            }
        };
        let mut job = Job {
            tenant,
            key,
            cells: spec.problem.cells(),
            spec: None,
            st: St::Pending,
            waiters: Vec::new(),
        };
        match core.index.get_mut(&key) {
            Some(Entry::Done(result)) => {
                self.registry.counter("serve_cache_hits").inc();
                job.st = St::Done(*result);
            }
            Some(Entry::Pending(jobs)) => {
                self.registry.counter("serve_jobs_coalesced").inc();
                jobs.push(id);
            }
            None => {
                self.join_vtime(core, &job.tenant);
                core.index.insert(key, Entry::Pending(vec![id]));
                core.queue.push_back(key);
                self.queue_gauge(core);
                self.work.notify_all();
            }
        }
        if matches!(job.st, St::Pending) {
            // A running computation needs no spec.
            job.spec = core.queue.contains(&key).then_some(spec);
            job.waiters.extend(waiter);
        }
        core.jobs.insert(id, job);
        Ok((id, admission))
    }

    fn tenant_counters(&self, tenant: &str) {
        self.registry
            .counter(&labeled("serve_tenant_jobs", &[("tenant", tenant)]))
            .inc();
    }

    // -- scheduling --------------------------------------------------

    /// Index into the queue of the fair-share pick: the computation whose
    /// tenant has the smallest virtual time (FIFO within a tenant).
    fn pick_pos(&self, core: &Core, only_small: bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (pos, key) in core.queue.iter().enumerate() {
            let Some(Entry::Pending(jobs)) = core.index.get(key) else {
                unreachable!("a queued computation is pending");
            };
            let first = &core.jobs[&jobs[0]];
            if only_small && first.cells > self.batch_max_cells {
                continue;
            }
            let v = core.vtime.get(&first.tenant).copied().unwrap_or(0);
            if best.is_none_or(|(bv, _)| v < bv) {
                best = Some((v, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Remove the queue entry at `pos` and charge the tenant of its
    /// earliest live submission, whose spec it runs; the other attached
    /// jobs drop theirs.
    fn dispatch_at(&self, core: &mut Core, pos: usize) -> Dispatch {
        let key = core.queue.remove(pos).expect("pos in range");
        let Some(Entry::Pending(jobs)) = core.index.get(&key) else {
            unreachable!("a queued computation is pending");
        };
        let id = jobs[0];
        for j in &jobs[1..] {
            core.jobs.get_mut(j).expect("attached job exists").spec = None;
        }
        let first = core.jobs.get_mut(&id).expect("attached job exists");
        let (tenant, cells) = (first.tenant.clone(), first.cells);
        let spec = first.spec.take().expect("a queued job holds its spec");
        let charge = (cells / self.weight(&tenant)).max(1);
        *core.vtime.entry(tenant.clone()).or_insert(0) += charge;
        Dispatch {
            id,
            key,
            tenant,
            spec,
            cells,
        }
    }

    /// Block until work or shutdown. Returns one round: either a single
    /// fleet job or a batch of small jobs.
    fn next_round(&self) -> Option<Vec<Dispatch>> {
        let mut core: MutexGuard<'_, Core> = self.core.lock().unwrap();
        let head = loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(pos) = self.pick_pos(&core, false) {
                break pos;
            }
            // Every queue push and the shutdown flag notify `work`.
            core = self.work.wait(core).unwrap();
        };
        let first = self.dispatch_at(&mut core, head);
        let mut round = vec![first];
        if round[0].cells <= self.batch_max_cells {
            while round.len() < self.batch_max_jobs {
                match self.pick_pos(&core, true) {
                    Some(pos) => round.push(self.dispatch_at(&mut core, pos)),
                    None => break,
                }
            }
        }
        self.queue_gauge(&core);
        Some(round)
    }

    // -- completion --------------------------------------------------

    /// Terminal transition shared by success and failure: answers every
    /// job attached to the computation and blocked `wait` connections. A
    /// success leaves the digest in the index; a failure takes the
    /// problem out of it.
    fn finish(&self, d: &Dispatch, outcome: Result<JobResult, String>) {
        let mut core = self.core.lock().unwrap();
        if let (Ok(result), Some(store)) = (&outcome, &self.store) {
            // Durable before visible: a result we answered with must
            // survive a crash, or a restart would recompute and could
            // in principle disagree with what a client already saw. Every
            // attached job gets it, each under its own id. The writes run
            // outside the lock; a submission may attach meanwhile (the
            // list only grows while the computation runs), so repeat
            // until a pass finds none new, and answer under that lock.
            let mut persisted = 0;
            loop {
                let Some(Entry::Pending(jobs)) = core.index.get(&d.key) else {
                    unreachable!("a running computation is pending");
                };
                let fresh = jobs[persisted..].to_vec();
                if fresh.is_empty() {
                    break;
                }
                persisted = jobs.len();
                drop(core);
                for id in fresh {
                    if let Err(e) = store.persist_result(id, result) {
                        eprintln!("serve: persisting result of job {id}: {e}");
                    }
                }
                core = self.core.lock().unwrap();
            }
        }
        let Some(Entry::Pending(jobs)) = core.index.remove(&d.key) else {
            unreachable!("a running computation is pending");
        };
        if let Ok(result) = &outcome {
            core.index.insert(d.key, Entry::Done(*result));
            self.registry.counter("serve_cells_computed").add(d.cells);
        }
        for jid in jobs {
            let job = core.jobs.get_mut(&jid).expect("attached job exists");
            let resp = match &outcome {
                Ok(result) => {
                    job.st = St::Done(*result);
                    self.registry.counter("serve_jobs_completed").inc();
                    Response::Done {
                        job: jid,
                        result: *result,
                        cached: jid != d.id,
                    }
                }
                Err(msg) => {
                    job.st = St::Failed(msg.clone());
                    self.registry.counter("serve_jobs_failed").inc();
                    Response::Error {
                        message: format!("job {jid} failed: {msg}"),
                    }
                }
            };
            for w in job.waiters.drain(..) {
                let _ = w.send(resp.clone());
            }
        }
    }

    /// Fold a finished fleet job's registry into the daemon's. Entries
    /// are republished under `job`/`tenant` labels when enabled;
    /// unlabelled master/slave counters also aggregate into the fleet-
    /// wide totals. Socket link counters (`link_*`) are skipped: they
    /// are cumulative per connection, and re-adding them every job
    /// would double-count.
    fn republish(&self, id: u64, tenant: &str, snap: &Snapshot) {
        let job_label = id.to_string();
        for (name, value) in &snap.entries {
            if name.starts_with("link_") {
                continue;
            }
            match value {
                MetricValue::Counter(v) if *v > 0 => {
                    if !name.contains('{') {
                        self.registry.counter(name).add(*v);
                    }
                    if self.per_job_metrics {
                        self.registry
                            .counter(&with_labels(name, &job_label, tenant))
                            .add(*v);
                    }
                }
                MetricValue::Gauge(v) if self.per_job_metrics => {
                    self.registry
                        .gauge(&with_labels(name, &job_label, tenant))
                        .set(*v);
                }
                _ => {}
            }
        }
    }

    // -- status / cancel --------------------------------------------

    fn status(&self, id: u64) -> JobState {
        let core = self.core.lock().unwrap();
        let Some(job) = core.jobs.get(&id) else {
            return JobState::Unknown;
        };
        match &job.st {
            St::Pending => match core.queue.iter().position(|&k| k == job.key) {
                Some(position) => JobState::Queued {
                    position: position as u32,
                },
                None => JobState::Running,
            },
            St::Done(r) => JobState::Done(*r),
            St::Failed(e) => JobState::Failed { error: e.clone() },
            St::Cancelled => JobState::Cancelled,
        }
    }

    /// Detach a queued job from its computation; the computation leaves
    /// the queue only with its last submission. Running work is not
    /// preempted, and terminal states are final.
    fn cancel(&self, id: u64) -> bool {
        let mut core = self.core.lock().unwrap();
        let Some(job) = core.jobs.get(&id) else {
            return false;
        };
        let key = job.key;
        let queued = core.queue.iter().position(|&k| k == key);
        let (St::Pending, Some(pos)) = (&job.st, queued) else {
            return false;
        };
        let Some(Entry::Pending(jobs)) = core.index.get_mut(&key) else {
            unreachable!("a queued computation is pending");
        };
        jobs.retain(|&j| j != id);
        if jobs.is_empty() {
            core.index.remove(&key);
            core.queue.remove(pos);
        }
        let job = core.jobs.get_mut(&id).expect("checked above");
        job.st = St::Cancelled;
        job.spec = None;
        let notice = Response::Error {
            message: format!("job {id} cancelled"),
        };
        for w in job.waiters.drain(..) {
            let _ = w.send(notice.clone());
        }
        self.registry.counter("serve_jobs_cancelled").inc();
        if let Some(store) = &self.store {
            let _ = store.remove(id);
        }
        self.queue_gauge(&core);
        true
    }

    // -- crash recovery ---------------------------------------------

    /// Replay the state directory into the core. Called once, before
    /// any client is accepted.
    fn recover(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let (persisted, unreadable) = store.scan()?;
        let mut core = self.core.lock().unwrap();
        // Acknowledged, but not runnable by this build: say so, keep the
        // directory for the operator, and never hand out its id again.
        for dir in unreadable {
            eprintln!(
                "serve: recovery skips {}: its spec does not decode with this build",
                dir.display()
            );
            self.registry.counter("serve_jobs_unreadable").inc();
            let id = dir
                .file_name()
                .and_then(|n| n.to_str()?.parse::<u64>().ok());
            if let Some(id) = id {
                core.next_id = core.next_id.max(id + 1);
            }
        }
        for p in persisted {
            core.next_id = core.next_id.max(p.id + 1);
            match p.result {
                // Finished before the crash: the digest stays queryable
                // and, unless the problem is pending again, answers
                // later submissions.
                Some(result) => {
                    let key = job_key(&p.spec.problem);
                    core.index.entry(key).or_insert(Entry::Done(result));
                    let job = Job {
                        tenant: p.tenant,
                        key,
                        cells: p.spec.problem.cells(),
                        spec: None,
                        st: St::Done(result),
                        waiters: Vec::new(),
                    };
                    core.jobs.insert(p.id, job);
                }
                // Accepted but unfinished: re-admitted in id order, so a
                // duplicate attaches to the earliest copy, and one whose
                // twin persisted a result is a hit.
                None => {
                    self.registry.counter("serve_jobs_recovered").inc();
                    self.admit(&mut core, Some(p.id), p.tenant, p.spec, None)
                        .expect("recovery bypasses every refusal");
                }
            }
        }
        self.queue_gauge(&core);
        Ok(())
    }
}

/// `name` -> `name{job="..",tenant=".."}`, merging with existing labels.
fn with_labels(name: &str, job: &str, tenant: &str) -> String {
    match name.strip_suffix('}') {
        Some(open) => format!("{open},job=\"{job}\",tenant=\"{tenant}\"}}"),
        None => labeled(name, &[("job", job), ("tenant", tenant)]),
    }
}

enum FleetSrc {
    Local {
        slaves: usize,
        threads: Option<usize>,
    },
    Remote {
        listener: SocketListener,
        slaves: usize,
    },
}

/// Scheduler: owns the fleet, drains the queue round by round.
fn scheduler(inner: Arc<Inner>, src: FleetSrc) {
    // A failed job ends with END and leaves its slaves ready for the
    // next, but a slave thread that died with it has lost its rank:
    // rebuilding a local fleet after a failure restores its size. A
    // remote fleet cannot be rebuilt from here (its slaves are other
    // processes); it runs on with the ranks that answered the END.
    let mut rebuild = None;
    let mut fleet = match src {
        FleetSrc::Local { slaves, threads } => {
            rebuild = Some((slaves, threads));
            Fleet::local(slaves, threads)
                .map_err(|e| eprintln!("serve: starting local fleet: {e}"))
                .ok()
        }
        // Remote fleets are *elastic*: the slave listener stays open, so
        // new slaves can join between (or during) jobs, a slave whose
        // link broke rejoins under a bumped epoch, and drained ranks free
        // their slot.
        FleetSrc::Remote { listener, slaves } => Fleet::accept_elastic(listener, slaves)
            .map_err(|e| eprintln!("serve: accepting slave fleet: {e}"))
            .ok(),
    };
    *inner.fleet_control.lock().unwrap() = fleet.as_ref().map(|f| f.control().clone());
    while let Some(round) = inner.next_round() {
        // next_round only groups jobs at or below the batch threshold,
        // so a multi-job round is always a batch; a single job batches
        // iff it is small.
        if round.len() > 1 || round[0].cells <= inner.batch_max_cells {
            run_batch_round(&inner, round);
            continue;
        }
        let d = round.into_iter().next().expect("round is non-empty");
        match run_fleet_job(&inner, fleet.as_mut(), &d) {
            Ok(result) => inner.finish(&d, Ok(result)),
            Err(e) => {
                inner.finish(&d, Err(e.to_string()));
                if let Some((slaves, threads)) = rebuild {
                    if let Some(f) = fleet.take() {
                        f.shutdown();
                    }
                    fleet = Fleet::local(slaves, threads)
                        .map_err(|e| eprintln!("serve: rebuilding local fleet: {e}"))
                        .ok();
                    *inner.fleet_control.lock().unwrap() =
                        fleet.as_ref().map(|f| f.control().clone());
                }
            }
        }
    }
    if let Some(f) = fleet {
        f.shutdown();
    }
}

/// One batch round: every member solved sequentially, concurrently on
/// scoped threads — tiny matrices are cheaper to solve than to
/// partition across the fleet.
fn run_batch_round(inner: &Arc<Inner>, round: Vec<Dispatch>) {
    inner.registry.counter("serve_batch_rounds").inc();
    inner
        .registry
        .counter("serve_batch_jobs")
        .add(round.len() as u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = round
            .iter()
            .map(|d| s.spawn(move || JobResult::of(&d.spec.problem.solve_sequential())))
            .collect();
        for (d, h) in round.iter().zip(handles) {
            match h.join() {
                Ok(result) => inner.finish(d, Ok(result)),
                Err(_) => inner.finish(d, Err("batch solve panicked".into())),
            }
        }
    });
}

/// One fleet job: per-job registry, per-job durable checkpoint dir,
/// resuming from any segments a previous incarnation flushed. The
/// directory belongs to this job id alone, so the policy always resumes;
/// a directory that fails its scan fails the job with the scan's error.
fn run_fleet_job(
    inner: &Arc<Inner>,
    fleet: Option<&mut Fleet>,
    d: &Dispatch,
) -> Result<JobResult, RuntimeError> {
    let fleet =
        fleet.ok_or_else(|| RuntimeError::InvalidConfig("no slave fleet available".into()))?;
    inner.registry.counter("serve_fleet_rounds").inc();
    let job_reg = Arc::new(Registry::new());
    let checkpoint = inner.store.as_ref().map(|store| {
        let policy = CheckpointPolicy::new(store.ckpt_dir(d.id)).with_resume(true);
        match inner.checkpoint_every {
            0 => policy,
            n => policy.with_every_tiles(n),
        }
    });
    let out = fleet.run_job(
        &d.spec,
        JobOptions {
            obs: ObsConfig {
                metrics: Some(job_reg.clone()),
                recorder: None,
            },
            checkpoint,
        },
    )?;
    inner.republish(d.id, &d.tenant, &job_reg.snapshot());
    Ok(JobResult::of(&out.matrix))
}

/// Per-connection handler: hello, then request/response until EOF.
fn handle_client(inner: Arc<Inner>, mut s: Stream) {
    if frame::recv_hello(&mut s, CLIENT_MAGIC).is_err() {
        return; // not a client (a slave dialing the wrong port, a scanner)
    }
    loop {
        let msg = match frame::recv_msg(&mut s) {
            Ok(m) => m,
            Err(_) => return, // EOF or a corrupt frame: drop the peer
        };
        let req = match Request::decode(&msg) {
            Ok(r) => r,
            Err(e) => {
                let _ = write_resp(
                    &mut s,
                    &Response::Error {
                        message: format!("malformed request: {e}"),
                    },
                );
                return;
            }
        };
        let ok = match req {
            Request::Submit(sub) => {
                let (replies, wait_rx) = inner.submit(sub);
                let mut ok = true;
                for r in &replies {
                    ok &= write_resp(&mut s, r).is_ok();
                }
                if let (true, Some(rx)) = (ok, wait_rx) {
                    ok = wait_for_terminal(&inner, &rx, &mut s);
                }
                ok
            }
            Request::Status { job } => write_resp(
                &mut s,
                &Response::Status {
                    job,
                    state: inner.status(job),
                },
            )
            .is_ok(),
            Request::Stats => write_resp(
                &mut s,
                &Response::Stats {
                    text: inner.registry.snapshot().render_text(),
                },
            )
            .is_ok(),
            Request::Cancel { job } => write_resp(
                &mut s,
                &Response::Cancelled {
                    job,
                    ok: inner.cancel(job),
                },
            )
            .is_ok(),
            Request::Drain { rank } => {
                let ok = match (rank, &*inner.fleet_control.lock().unwrap()) {
                    (0, _) => false, // rank 0 is the master
                    (_, Some(fc)) => {
                        fc.request_drain(rank);
                        inner.registry.counter("serve_drain_requests").inc();
                        true
                    }
                    (_, None) => false,
                };
                write_resp(&mut s, &Response::Drained { rank, ok }).is_ok()
            }
        };
        if !ok {
            return;
        }
    }
}

fn write_resp(s: &mut Stream, resp: &Response) -> io::Result<()> {
    frame::send_msg(s, &resp.encode())
}

/// Block a `wait` submission until its terminal response, polling for
/// daemon shutdown so the connection is never parked forever.
fn wait_for_terminal(inner: &Arc<Inner>, rx: &mpsc::Receiver<Response>, s: &mut Stream) -> bool {
    loop {
        // The terminal response ends the wait; the slice bounds how late
        // a daemon shutdown is seen.
        match rx.recv_timeout(Duration::from_millis(500)) {
            Ok(resp) => return write_resp(s, &resp).is_ok(),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    let _ = write_resp(
                        s,
                        &Response::Error {
                            message: "daemon is shutting down".into(),
                        },
                    );
                    return false;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = write_resp(
                    s,
                    &Response::Error {
                        message: "job state lost".into(),
                    },
                );
                return false;
            }
        }
    }
}

/// A running daemon. Dropping (or calling [`Daemon::stop`]) shuts it
/// down gracefully: in-flight rounds finish, the fleet is released.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: NetAddr,
    fleet_addr: Option<NetAddr>,
    accept: Option<JoinHandle<()>>,
    sched: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind, recover persisted state, start the fleet and serve.
    ///
    /// With a [`FleetSpec::Remote`] fleet the slave listener is bound
    /// before this returns — read the address from
    /// [`Daemon::fleet_addr`] and start slaves with `easyhps slave`;
    /// the scheduler waits for them in the background while clients can
    /// already submit.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        let listener = Listener::bind(&cfg.listen)?;
        let addr = listener.local_addr();
        let store = match &cfg.state_dir {
            Some(dir) => Some(JobStore::open(dir)?),
            None => None,
        };
        let inner = Arc::new(Inner {
            registry: Arc::new(Registry::new()),
            store,
            weights: cfg.tenant_weights.iter().cloned().collect(),
            queue_cap: cfg.queue_cap.max(1),
            batch_max_cells: cfg.batch_max_cells,
            batch_max_jobs: cfg.batch_max_jobs.max(1),
            checkpoint_every: cfg.checkpoint_every,
            per_job_metrics: cfg.per_job_metrics,
            core: Mutex::new(Core {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                index: HashMap::new(),
                vtime: HashMap::new(),
                next_id: 1,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            fleet_control: Mutex::new(None),
            clients: Mutex::new(Vec::new()),
        });
        inner.recover()?;

        let (src, fleet_addr) = match cfg.fleet {
            FleetSpec::Local { slaves, threads } => (FleetSrc::Local { slaves, threads }, None),
            FleetSpec::Remote { listen, slaves } => {
                let l = SocketListener::bind(&listen, SocketConfig::default())?;
                let fleet_addr = l.local_addr();
                (
                    FleetSrc::Remote {
                        listener: l,
                        slaves,
                    },
                    Some(fleet_addr),
                )
            }
        };

        let sched = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("serve-sched".into())
                .spawn(move || scheduler(inner, src))?
        };
        let accept = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    while !inner.shutdown.load(Ordering::SeqCst) {
                        // A client ends the wait; 50 ms bounds how late
                        // shutdown is seen.
                        match listener.accept_by(Instant::now() + Duration::from_millis(50)) {
                            Ok(Some(s)) => {
                                let inner = inner.clone();
                                // A second handle, so a graceful shutdown
                                // can unblock the handler parked in a read.
                                let handle = s.try_clone().ok().map(Arc::new);
                                if let Some(h) = &handle {
                                    inner.clients.lock().unwrap().push(h.clone());
                                }
                                let _ = std::thread::Builder::new()
                                    .name("serve-client".into())
                                    .spawn(move || {
                                        handle_client(inner.clone(), s);
                                        if let Some(h) = &handle {
                                            inner
                                                .clients
                                                .lock()
                                                .unwrap()
                                                .retain(|x| !Arc::ptr_eq(x, h));
                                        }
                                    });
                            }
                            Ok(None) => {}
                            // A failing accept (fd limit) must not spin.
                            Err(_) => std::thread::sleep(Duration::from_millis(50)),
                        }
                    }
                })?
        };
        Ok(Daemon {
            inner,
            addr,
            fleet_addr,
            accept: Some(accept),
            sched: Some(sched),
        })
    }

    /// The client address actually bound (ephemeral ports resolved).
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    /// The slave listener address, for a [`FleetSpec::Remote`] fleet.
    pub fn fleet_addr(&self) -> Option<&NetAddr> {
        self.fleet_addr.as_ref()
    }

    /// The daemon's metrics registry (what `stats` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.inner.registry.clone()
    }

    /// Graceful shutdown: stop admitting, finish the current round,
    /// release the fleet.
    pub fn stop(mut self) {
        self.shutdown_join();
    }

    fn shutdown_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Lock-then-notify: the scheduler tests the flag under `core`, so
        // it is either before that check or already parked on `work`.
        drop(self.inner.core.lock().unwrap());
        self.inner.work.notify_all();
        // Close live client connections: their handler threads unblock
        // and exit, so no pre-shutdown connection keeps answering.
        for h in self.inner.clients.lock().unwrap().drain(..) {
            h.shutdown();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_join();
    }
}
