//! The serve daemon: a long-lived process owning a persistent slave
//! fleet, accepting DP jobs from many clients and tenants.
//!
//! Request path (all under one mutex — decisions are cheap next to the
//! jobs themselves):
//!
//! 1. **Cache** — the job's content key ([`crate::cache::job_key`]) hits
//!    the result cache: answer immediately, no queue slot.
//! 2. **Coalesce** — an identical job is already queued *or running*:
//!    attach this submission as a follower of that leader. Followers
//!    consume no queue slot and are completed by the leader's single
//!    computation.
//! 3. **Admission** — the bounded queue is full: reject, naming the
//!    limit and the way out. Otherwise persist the spec (acceptance *is*
//!    the durable write), enqueue, and wake the scheduler.
//!
//! The scheduler picks queued leaders by **weighted fair queuing** over
//! tenant keys: each tenant has a virtual time advanced by
//! `cells / weight` per dispatched job; the queued job whose tenant has
//! the smallest virtual time runs next, so a tenant spraying jobs cannot
//! starve one submitting occasionally. Jobs at or below
//! `batch_max_cells` are gathered — in the same fairness order — into
//! one **batch round** of sequential solves (tiny DP matrices are
//! cheaper to solve than to partition); larger jobs run on the fleet
//! with a per-job metrics registry and a per-job durable checkpoint
//! directory, so a `kill -9` mid-job resumes from the last flushed tile
//! segment rather than from scratch.
//!
//! Crash recovery replays the state directory on startup: jobs with a
//! persisted result re-enter the cache; accepted-but-unfinished jobs are
//! re-admitted in id order (re-coalescing duplicates onto the earliest
//! copy) bypassing the queue bound — accepted jobs must complete.

use crate::cache::{job_key, CacheEntry, ResultCache};
use crate::protocol::{Admission, JobResult, JobState, Request, Response, SubmitReq};
use crate::state::JobStore;
use easyhps_net::frame::{self, CLIENT_MAGIC};
use easyhps_net::socket::{SocketConfig, SocketListener};
use easyhps_net::stream::{Listener, Stream};
use easyhps_net::NetAddr;
use easyhps_obs::{labeled, MetricValue, Registry, Snapshot};
use easyhps_runtime::remote::JobSpec;
use easyhps_runtime::{
    Checkpoint, CheckpointPolicy, Fleet, FleetControl, JobOptions, ObsConfig, RuntimeError,
};
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
        /// Socket config for the fleet listener.
        socket: SocketConfig,
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
    /// Result-cache budget in cell bytes.
    pub cache_bytes: usize,
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
    /// Defaults: 2 local slaves, queue of 64, 64 MiB cache, batch
    /// threshold 16384 cells, 8 jobs per batch round.
    pub fn new(listen: NetAddr) -> ServeConfig {
        ServeConfig {
            listen,
            fleet: FleetSpec::Local {
                slaves: 2,
                threads: None,
            },
            state_dir: None,
            queue_cap: 64,
            cache_bytes: 64 << 20,
            batch_max_cells: 16_384,
            batch_max_jobs: 8,
            checkpoint_every: 0,
            per_job_metrics: false,
            tenant_weights: Vec::new(),
        }
    }
}

/// Internal job lifecycle.
#[derive(Debug)]
enum St {
    Queued,
    Running,
    Done(JobResult),
    Failed(String),
    Cancelled,
}

struct Job {
    tenant: String,
    key: u128,
    spec: JobSpec,
    cells: u64,
    st: St,
    /// Set on coalesced followers: the job doing the computing.
    leader: Option<u64>,
    /// Set on leaders: submissions waiting on this computation.
    followers: Vec<u64>,
    /// `wait = true` connections blocked on this job's terminal state.
    waiters: Vec<mpsc::Sender<Response>>,
}

struct Core {
    jobs: BTreeMap<u64, Job>,
    /// Leaders awaiting dispatch, arrival order. Fair pick scans it.
    queue: VecDeque<u64>,
    /// Content key -> leader id, for every queued or running leader.
    inflight: HashMap<u128, u64>,
    /// Weighted-fair virtual time per tenant.
    vtime: HashMap<String, u64>,
    cache: ResultCache,
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

/// One unit of work handed from the queue to an execution round.
struct Dispatch {
    id: u64,
    tenant: String,
    spec: JobSpec,
    cells: u64,
}

impl Inner {
    fn weight(&self, tenant: &str) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }

    fn gauges(&self, core: &Core) {
        self.registry
            .gauge("serve_queue_depth")
            .set(core.queue.len() as i64);
        self.registry
            .gauge("serve_cache_entries")
            .set(core.cache.entries() as i64);
        self.registry
            .gauge("serve_cache_bytes")
            .set(core.cache.bytes() as i64);
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

    // -- submission -------------------------------------------------

    /// Admit one submission. Returns the immediate responses plus, for
    /// `wait` submissions still in flight, the receiver for the
    /// terminal response.
    fn submit(&self, req: SubmitReq) -> (Vec<Response>, Option<mpsc::Receiver<Response>>) {
        let SubmitReq { tenant, wait, spec } = req;
        self.registry.counter("serve_jobs_submitted").inc();
        if self.shutdown.load(Ordering::SeqCst) {
            self.registry.counter("serve_jobs_rejected").inc();
            return (
                vec![Response::Rejected {
                    reason: "daemon is shutting down".into(),
                }],
                None,
            );
        }
        let key = job_key(&spec.problem);
        let cells = spec.problem.cells();
        let mut core = self.core.lock().unwrap();

        // 1. Content-addressed cache.
        if let Some(hit) = core.cache.get(key) {
            self.registry.counter("serve_cache_hits").inc();
            self.registry.counter("serve_jobs_accepted").inc();
            let result = JobResult {
                rows: hit.rows,
                cols: hit.cols,
                crc: hit.crc,
            };
            let id = core.next_id;
            core.next_id += 1;
            core.jobs.insert(
                id,
                Job {
                    tenant: tenant.clone(),
                    key,
                    spec,
                    cells,
                    st: St::Done(result),
                    leader: None,
                    followers: Vec::new(),
                    waiters: Vec::new(),
                },
            );
            self.tenant_counters(&tenant);
            return (
                vec![
                    Response::Accepted {
                        job: id,
                        admission: Admission::CacheHit,
                    },
                    Response::Done {
                        job: id,
                        result,
                        cached: true,
                    },
                ],
                None,
            );
        }

        // 2. In-flight coalescing (queued or running leader).
        if let Some(&leader) = core.inflight.get(&key) {
            let id = core.next_id;
            core.next_id += 1;
            if let Some(store) = &self.store {
                if let Err(e) = store.persist_spec(id, &tenant, &spec) {
                    self.registry.counter("serve_jobs_rejected").inc();
                    return (
                        vec![Response::Rejected {
                            reason: format!("cannot persist job to state dir: {e}"),
                        }],
                        None,
                    );
                }
            }
            let running = matches!(core.jobs.get(&leader).map(|j| &j.st), Some(St::Running));
            let mut job = Job {
                tenant: tenant.clone(),
                key,
                spec,
                cells,
                st: if running { St::Running } else { St::Queued },
                leader: Some(leader),
                followers: Vec::new(),
                waiters: Vec::new(),
            };
            let rx = wait.then(|| {
                let (tx, rx) = mpsc::channel();
                job.waiters.push(tx);
                rx
            });
            core.jobs.insert(id, job);
            core.jobs
                .get_mut(&leader)
                .expect("inflight leader exists")
                .followers
                .push(id);
            self.registry.counter("serve_jobs_accepted").inc();
            self.registry.counter("serve_jobs_coalesced").inc();
            self.tenant_counters(&tenant);
            return (
                vec![Response::Accepted {
                    job: id,
                    admission: Admission::Coalesced,
                }],
                rx,
            );
        }

        // 3. Admission control on the bounded queue.
        if core.queue.len() >= self.queue_cap {
            self.registry.counter("serve_jobs_rejected").inc();
            return (
                vec![Response::Rejected {
                    reason: format!(
                        "queue full: {} jobs waiting (capacity {}); retry later or \
                         restart the daemon with a larger --queue",
                        core.queue.len(),
                        self.queue_cap
                    ),
                }],
                None,
            );
        }

        // Accept: the durable write precedes the acknowledgement.
        let id = core.next_id;
        core.next_id += 1;
        if let Some(store) = &self.store {
            if let Err(e) = store.persist_spec(id, &tenant, &spec) {
                self.registry.counter("serve_jobs_rejected").inc();
                return (
                    vec![Response::Rejected {
                        reason: format!("cannot persist job to state dir: {e}"),
                    }],
                    None,
                );
            }
        }
        let mut job = Job {
            tenant: tenant.clone(),
            key,
            spec,
            cells,
            st: St::Queued,
            leader: None,
            followers: Vec::new(),
            waiters: Vec::new(),
        };
        let rx = wait.then(|| {
            let (tx, rx) = mpsc::channel();
            job.waiters.push(tx);
            rx
        });
        core.jobs.insert(id, job);
        core.queue.push_back(id);
        core.inflight.insert(key, id);
        self.join_vtime(&mut core, &tenant);
        self.registry.counter("serve_jobs_accepted").inc();
        self.tenant_counters(&tenant);
        self.gauges(&core);
        self.work.notify_all();
        (
            vec![Response::Accepted {
                job: id,
                admission: Admission::New,
            }],
            rx,
        )
    }

    fn tenant_counters(&self, tenant: &str) {
        self.registry
            .counter(&labeled("serve_tenant_jobs", &[("tenant", tenant)]))
            .inc();
    }

    // -- scheduling --------------------------------------------------

    /// Index into the queue of the fair-share pick: the job whose tenant
    /// has the smallest virtual time (FIFO within a tenant).
    fn pick_pos(&self, core: &Core, only_small: bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (pos, id) in core.queue.iter().enumerate() {
            let job = &core.jobs[id];
            if only_small && job.cells > self.batch_max_cells {
                continue;
            }
            let v = core.vtime.get(&job.tenant).copied().unwrap_or(0);
            if best.is_none_or(|(bv, _)| v < bv) {
                best = Some((v, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Remove the queue entry at `pos`, charge its tenant's virtual
    /// time, mark it (and its followers) running.
    fn dispatch_at(&self, core: &mut Core, pos: usize) -> Dispatch {
        let id = core.queue.remove(pos).expect("pos in range");
        let (tenant, cells, spec, followers) = {
            let job = core.jobs.get_mut(&id).expect("queued job exists");
            job.st = St::Running;
            (
                job.tenant.clone(),
                job.cells,
                job.spec.clone(),
                job.followers.clone(),
            )
        };
        for f in followers {
            if let Some(j) = core.jobs.get_mut(&f) {
                j.st = St::Running;
            }
        }
        let charge = (cells / self.weight(&tenant)).max(1);
        *core.vtime.entry(tenant.clone()).or_insert(0) += charge;
        Dispatch {
            id,
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
        self.gauges(&core);
        Some(round)
    }

    // -- completion --------------------------------------------------

    /// Terminal transition shared by success and failure. Resolves the
    /// leader and every follower, releases the in-flight slot, feeds the
    /// cache, and answers blocked `wait` connections.
    fn finish(&self, id: u64, outcome: Result<CacheEntry, String>) {
        if let (Ok(entry), Some(store)) = (&outcome, &self.store) {
            // Durable before visible: a result we answered with must
            // survive a crash, or a restart would recompute and could
            // in principle disagree with what a client already saw.
            if let Err(e) =
                store.persist_result(id, entry.rows, entry.cols, entry.crc, &entry.cells)
            {
                eprintln!("serve: persisting result of job {id}: {e}");
            }
        }
        let mut core = self.core.lock().unwrap();
        let (key, followers) = match core.jobs.get(&id) {
            Some(j) => (j.key, j.followers.clone()),
            None => return,
        };
        if core.inflight.get(&key) == Some(&id) {
            core.inflight.remove(&key);
        }
        let resolve = |core: &mut Core, jid: u64| {
            let job = match core.jobs.get_mut(&jid) {
                Some(j) => j,
                None => return,
            };
            let resp = match &outcome {
                Ok(entry) => {
                    let result = JobResult {
                        rows: entry.rows,
                        cols: entry.cols,
                        crc: entry.crc,
                    };
                    job.st = St::Done(result);
                    self.registry.counter("serve_jobs_completed").inc();
                    Response::Done {
                        job: jid,
                        result,
                        cached: jid != id,
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
        };
        resolve(&mut core, id);
        for f in followers {
            resolve(&mut core, f);
        }
        if let Ok(entry) = outcome {
            self.registry
                .counter("serve_cells_computed")
                .add(core.jobs.get(&id).map_or(0, |j| j.cells));
            let key = core.jobs[&id].key;
            core.cache.insert(key, entry);
        }
        self.gauges(&core);
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
            St::Queued => {
                let anchor = job.leader.unwrap_or(id);
                let position = core.queue.iter().position(|&q| q == anchor).unwrap_or(0) as u32;
                JobState::Queued { position }
            }
            St::Running => JobState::Running,
            St::Done(r) => JobState::Done(*r),
            St::Failed(e) => JobState::Failed { error: e.clone() },
            St::Cancelled => JobState::Cancelled,
        }
    }

    fn cancel(&self, id: u64) -> bool {
        let mut core = self.core.lock().unwrap();
        let Some(job) = core.jobs.get(&id) else {
            return false;
        };
        if !matches!(job.st, St::Queued) {
            // Running work is not preempted; terminal states are final.
            return false;
        }
        let key = job.key;
        let leader = job.leader;
        match leader {
            // A follower: detach from its leader and resolve.
            Some(l) => {
                if let Some(lj) = core.jobs.get_mut(&l) {
                    lj.followers.retain(|&f| f != id);
                }
            }
            // A queued leader: remove from the queue and promote the
            // first follower to leader so coalesced submissions still
            // complete.
            None => {
                let pos = core.queue.iter().position(|&q| q == id);
                let followers = core
                    .jobs
                    .get_mut(&id)
                    .map(|j| std::mem::take(&mut j.followers))
                    .unwrap_or_default();
                match followers.split_first() {
                    Some((&heir, rest)) => {
                        if let Some(p) = pos {
                            core.queue[p] = heir;
                        } else {
                            core.queue.push_back(heir);
                            self.work.notify_all();
                        }
                        core.inflight.insert(key, heir);
                        if let Some(h) = core.jobs.get_mut(&heir) {
                            h.leader = None;
                            h.followers = rest.to_vec();
                        }
                        for &r in rest {
                            if let Some(j) = core.jobs.get_mut(&r) {
                                j.leader = Some(heir);
                            }
                        }
                    }
                    None => {
                        if let Some(p) = pos {
                            core.queue.remove(p);
                        }
                        if core.inflight.get(&key) == Some(&id) {
                            core.inflight.remove(&key);
                        }
                    }
                }
            }
        }
        let job = core.jobs.get_mut(&id).expect("checked above");
        job.st = St::Cancelled;
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
        self.gauges(&core);
        true
    }

    // -- crash recovery ---------------------------------------------

    /// Replay the state directory into the core. Called once, before
    /// any client is accepted.
    fn recover(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let persisted = store.scan()?;
        let mut core = self.core.lock().unwrap();
        for p in persisted {
            core.next_id = core.next_id.max(p.id + 1);
            let key = job_key(&p.spec.problem);
            let cells = p.spec.problem.cells();
            let mut job = Job {
                tenant: p.tenant.clone(),
                key,
                spec: p.spec,
                cells,
                st: St::Queued,
                leader: None,
                followers: Vec::new(),
                waiters: Vec::new(),
            };
            match p.result {
                // Finished before the crash: warm the cache, keep the
                // terminal state queryable.
                Some(r) => {
                    let entry = CacheEntry {
                        rows: r.rows,
                        cols: r.cols,
                        crc: r.crc,
                        cells: r.cells.into(),
                    };
                    job.st = St::Done(JobResult {
                        rows: entry.rows,
                        cols: entry.cols,
                        crc: entry.crc,
                    });
                    core.cache.insert(key, entry);
                    core.jobs.insert(p.id, job);
                }
                // Accepted but unfinished: re-admit, bypassing the
                // queue bound (it was already accepted), re-coalescing
                // onto the earliest identical job. A leader that died
                // after its twin persisted a result completes straight
                // from the recovered cache.
                None => {
                    self.registry.counter("serve_jobs_recovered").inc();
                    if let Some(hit) = core.cache.get(key) {
                        job.st = St::Done(JobResult {
                            rows: hit.rows,
                            cols: hit.cols,
                            crc: hit.crc,
                        });
                        self.registry.counter("serve_cache_hits").inc();
                        core.jobs.insert(p.id, job);
                    } else if let Some(&leader) = core.inflight.get(&key) {
                        job.leader = Some(leader);
                        core.jobs.insert(p.id, job);
                        core.jobs
                            .get_mut(&leader)
                            .expect("inflight leader exists")
                            .followers
                            .push(p.id);
                        self.registry.counter("serve_jobs_coalesced").inc();
                    } else {
                        self.join_vtime(&mut core, &job.tenant);
                        core.jobs.insert(p.id, job);
                        core.queue.push_back(p.id);
                        core.inflight.insert(key, p.id);
                    }
                }
            }
        }
        self.gauges(&core);
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

/// Row-major little-endian cell bytes — the `DpMatrix::encode_region`
/// layout over the full matrix, which is also what `easyhps master`
/// digests as `matrix-crc:`.
fn encode_cells(m: &easyhps_dp::DpMatrix<i32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.as_slice().len() * 4);
    for c in m.as_slice() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
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
    // Rebuild parameters for a local fleet that a failed job may have
    // left with wedged slaves; a remote fleet cannot be rebuilt from
    // here (its slaves are other processes) and keeps limping.
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
            Ok(entry) => inner.finish(d.id, Ok(entry)),
            Err(e) => {
                inner.finish(d.id, Err(e.to_string()));
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
            .map(|d| {
                s.spawn(move || {
                    let m = d.spec.problem.solve_sequential();
                    let dims = m.dims();
                    CacheEntry::from_cells(dims.rows, dims.cols, encode_cells(&m))
                })
            })
            .collect();
        for (d, h) in round.iter().zip(handles) {
            match h.join() {
                Ok(entry) => inner.finish(d.id, Ok(entry)),
                Err(_) => inner.finish(d.id, Err("batch solve panicked".into())),
            }
        }
    });
}

/// One fleet job: per-job registry, per-job durable checkpoint dir,
/// resuming from any segments a previous incarnation flushed.
fn run_fleet_job(
    inner: &Arc<Inner>,
    fleet: Option<&mut Fleet>,
    d: &Dispatch,
) -> Result<CacheEntry, RuntimeError> {
    let fleet =
        fleet.ok_or_else(|| RuntimeError::InvalidConfig("no slave fleet available".into()))?;
    inner.registry.counter("serve_fleet_rounds").inc();
    let job_reg = Arc::new(Registry::new());
    let (checkpoint, resume) = match &inner.store {
        Some(store) => {
            let dir = store.ckpt_dir(d.id);
            let resume = Checkpoint::load_dir(&dir).ok().flatten();
            let mut policy = CheckpointPolicy::new(&dir);
            if inner.checkpoint_every > 0 {
                policy = policy.with_every_tiles(inner.checkpoint_every);
            }
            (Some(policy), resume)
        }
        None => (None, None),
    };
    let out = fleet.run_job(
        &d.spec,
        JobOptions {
            obs: ObsConfig {
                metrics: Some(job_reg.clone()),
                recorder: None,
            },
            checkpoint,
            resume,
            tile_budget: None,
        },
    )?;
    inner.republish(d.id, &d.tenant, &job_reg.snapshot());
    let dims = out.matrix.dims();
    Ok(CacheEntry::from_cells(
        dims.rows,
        dims.cols,
        encode_cells(&out.matrix),
    ))
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
                inflight: HashMap::new(),
                vtime: HashMap::new(),
                cache: ResultCache::new(cfg.cache_bytes.max(1)),
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
            FleetSpec::Remote {
                listen,
                slaves,
                socket,
            } => {
                let l = SocketListener::bind(&listen, socket)?;
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
