//! A persistent slave fleet: connections that outlive a single job.
//!
//! `run_remote_master` used to accept slave connections, run one job and
//! drop the endpoint — which closed every socket, leaving the slaves
//! unusable for a second run. [`Fleet`] factors the acceptance/handshake
//! step out and *owns* the links: each job runs on a per-job
//! [`Endpoint::fork`](easyhps_net::Endpoint::fork) of the shared root
//! endpoint, so dropping the job's endpoint leaves the connections open
//! (the socket writer thread exits only when the last `TxLink` clone is
//! gone). The one-shot `easyhps master` path and the serve daemon share
//! this type; the daemon simply calls [`Fleet::run_job`] many times.
//!
//! Slaves run the matching loop
//! ([`serve_slave_jobs`](crate::remote::serve_slave_jobs)): wait for a
//! [`tags::JOB`] frame, run the ordinary slave loop on a fork of their
//! connection, repeat until [`tags::SHUTDOWN`] arrives or the master
//! disappears.
//!
//! An in-process variant ([`Fleet::local`]) spawns the same multi-job
//! slave loop on threads over channel links — the serve daemon's default
//! fleet when no `--fleet-listen` address is given.
//!
//! Fault injection composes with the one-shot path only: a fault plan
//! replays from its first clause on every forked endpoint, and a job
//! that dies mid-run can leave slaves executing stale work, so a fleet
//! that will run more than one job must not inject faults.

use crate::config::{ObsConfig, RunReport};
use crate::durable::CheckpointPolicy;
use crate::master::{run_master, FleetControl};
use crate::protocol::tags;
use crate::remote::{
    publish_socket_stats, slave_job_loop, JobSpec, RemoteOutput, SlaveServeSummary,
};
use crate::{with_problem, RuntimeError};
use bytes::Bytes;
use easyhps_net::socket::{SocketInfo, SocketListener};
use easyhps_net::{Endpoint, FaultPlan, FleetAcceptor, Network, Rank};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job knobs for [`Fleet::run_job`] — the job-scoped subset of
/// [`RemoteMasterOptions`](crate::remote::RemoteMasterOptions).
#[derive(Debug, Default)]
pub struct JobOptions {
    /// Observability wiring for this job (a daemon hands each job its
    /// own registry and republishes it with `job=`/`tenant=` labels).
    pub obs: ObsConfig,
    /// Durable checkpoint policy for this job (it says whether the job
    /// resumes from its directory).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Stop after this many tile completions.
    pub tile_budget: Option<u64>,
}

enum FleetSlaves {
    /// Remote slaves over sockets; the info carries per-link counters.
    Remote(SocketInfo),
    /// In-process slave threads over channel links.
    Local(Vec<JoinHandle<Result<SlaveServeSummary, RuntimeError>>>),
}

/// A set of connected, rank-assigned slaves that stays usable across
/// jobs. Create with [`Fleet::accept`] (sockets, fixed membership),
/// [`Fleet::accept_elastic`] (sockets, rejoin + mid-run join + drain) or
/// [`Fleet::local`] (threads), run any number of jobs, then
/// [`Fleet::shutdown`].
pub struct Fleet {
    root: Endpoint,
    n_slaves: usize,
    fault: Option<FaultPlan>,
    slaves: FleetSlaves,
    /// Shared with every job's master: drain requests flow in, released
    /// ranks flow out, and the elastic acceptor (if any) rides along.
    control: FleetControl,
    /// Ranks no longer part of a *fixed-membership* fleet (drained and
    /// released, or found dead between jobs); indexed by rank, 0 unused.
    /// Elastic fleets derive membership from the acceptor instead — a
    /// released rank there may be re-issued to the next joiner.
    retired: Vec<bool>,
}

/// Accept `slaves` ranks on `listener` and build the control surface
/// their masters share: with `elastic`, the listener stays open on a
/// background acceptor (rejoins, mid-run joiners) that rides in the
/// control block; otherwise membership is fixed and only drain
/// requests apply. `plan` injects faults into the master's endpoint.
pub(crate) fn accept_slaves(
    listener: SocketListener,
    slaves: usize,
    plan: Option<FaultPlan>,
    elastic: bool,
) -> Result<(Endpoint, SocketInfo, FleetControl), RuntimeError> {
    let accept_err = |e| RuntimeError::InvalidConfig(format!("accepting slaves: {e}"));
    if elastic {
        let (ep, info, acceptor) = listener.accept_fleet(slaves, plan).map_err(accept_err)?;
        Ok((ep, info, FleetControl::new(Some(Arc::new(acceptor)))))
    } else {
        let (ep, info) = listener.accept_ranks(slaves, plan).map_err(accept_err)?;
        Ok((ep, info, FleetControl::new(None)))
    }
}

impl Fleet {
    /// Accept `n_slaves` socket connections on an already-bound listener
    /// and perform the rank handshake. `fault` configures the master's
    /// fault injection for drills — see the module docs for why a faulty
    /// fleet must stay single-job.
    pub fn accept(
        listener: SocketListener,
        n_slaves: usize,
        fault: Option<FaultPlan>,
    ) -> Result<Fleet, RuntimeError> {
        Self::remote(listener, n_slaves, fault, false)
    }

    /// [`Fleet::accept`] with *elastic* membership: the listener stays
    /// open in a background acceptor that admits a redialling or
    /// replacement slave as a rejoin — a fresh link, fenced under a bumped
    /// fleet epoch — and brand-new slaves mid-run, shipping both the
    /// current job. Slaves redial a broken link when they run with
    /// [`SocketConfig::reconnect_window`](easyhps_net::socket::SocketConfig::reconnect_window).
    pub fn accept_elastic(
        listener: SocketListener,
        n_slaves: usize,
    ) -> Result<Fleet, RuntimeError> {
        Self::remote(listener, n_slaves, None, true)
    }

    /// Let an unreachable slave rejoin for up to `window` before the
    /// masters count it dead (see [`FleetControl::rejoin_window`]).
    pub(crate) fn with_rejoin_window(mut self, window: Option<Duration>) -> Fleet {
        self.control.rejoin_window = window;
        self
    }

    fn remote(
        listener: SocketListener,
        n_slaves: usize,
        fault: Option<FaultPlan>,
        elastic: bool,
    ) -> Result<Fleet, RuntimeError> {
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        let (root, info, control) = accept_slaves(listener, n_slaves, None, elastic)?;
        Ok(Fleet {
            root,
            n_slaves,
            fault,
            slaves: FleetSlaves::Remote(info),
            control,
            retired: vec![false; n_slaves + 1],
        })
    }

    /// An in-process fleet: `n_slaves` threads running the multi-job
    /// slave loop over channel links. `threads` overrides each job's
    /// `threads_per_slave` when set.
    pub fn local(n_slaves: usize, threads: Option<usize>) -> Result<Fleet, RuntimeError> {
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        let mut eps = Network::new(n_slaves + 1);
        let root = eps.remove(0);
        let handles = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                std::thread::Builder::new()
                    .name(format!("fleet-slave-{}", i + 1))
                    .spawn(move || slave_job_loop(ep, threads, None))
                    .expect("spawn fleet slave")
            })
            .collect();
        Ok(Fleet {
            root,
            n_slaves,
            fault: None,
            slaves: FleetSlaves::Local(handles),
            control: FleetControl::new(None),
            retired: vec![false; n_slaves + 1],
        })
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
        match &self.slaves {
            FleetSlaves::Remote(info) => Some(info),
            FleetSlaves::Local(_) => None,
        }
    }

    /// Job-boundary barrier: consume one READY per slave before the
    /// next JOB ships. A slave announces READY when it enters its idle
    /// loop (on connect and after each finished job); until then its
    /// previous job's reliable teardown may still be lingering, and the
    /// linger ACKs-and-discards unexpected frames — a JOB sent early
    /// would be silently lost. Stray heartbeats and late ACKs queued
    /// between jobs are discarded along the way.
    fn await_ready(&mut self) -> Result<Vec<u32>, RuntimeError> {
        // Backstop for a READY that never comes from a live link.
        const READY_TIMEOUT: Duration = Duration::from_secs(60);
        // Cadence of the dead-link probe below; a READY ends the wait early.
        const PROBE_EVERY: Duration = Duration::from_millis(200);
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut pending: BTreeSet<u32> = self.expected_ranks().into_iter().collect();
        // READYs the last job's teardown received on our behalf.
        let mut ready: Vec<u32> = std::mem::take(&mut *self.control.ready.lock().unwrap());
        ready.retain(|r| pending.remove(r));
        let mut last_probe = Instant::now();
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RuntimeError::InvalidConfig(format!(
                    "timed out waiting for {} slave(s) to finish their previous job",
                    pending.len()
                )));
            }
            let until_probe = (last_probe + PROBE_EVERY).saturating_duration_since(Instant::now());
            match self.root.recv_timeout(left.min(until_probe)) {
                Ok(env) if env.tag == tags::READY => {
                    let r = env.src.0;
                    if pending.remove(&r) {
                        ready.push(r);
                    }
                }
                Ok(_) => {} // stray heartbeat / late ACK between jobs
                Err(easyhps_net::NetError::Timeout) => {}
                Err(e) => return Err(e.into()),
            }
            // A slave that died between jobs is a *membership change*,
            // not a reason to burn the whole readiness deadline: probe
            // the silent ranks and retire any whose link is already
            // gone. (An elastic fleet's slave may come back: it rejoins
            // and is shipped the job by the acceptor.)
            if last_probe.elapsed() >= PROBE_EVERY && !pending.is_empty() {
                last_probe = Instant::now();
                let root = &mut self.root;
                let retired = &mut self.retired;
                pending.retain(|r| {
                    if root.send(Rank(*r), tags::HEARTBEAT, Bytes::new()).is_err() {
                        if let Some(f) = retired.get_mut(*r as usize) {
                            *f = true;
                        }
                        false
                    } else {
                        true
                    }
                });
            }
        }
        Ok(ready)
    }

    /// Ship `spec` to every slave and run the master loop over a per-job
    /// fork of the fleet's endpoint. The connections stay open when the
    /// job finishes, ready for the next call.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        opts: JobOptions,
    ) -> Result<RemoteOutput, RuntimeError> {
        self.sync_membership();
        let ready = self.await_ready()?;
        if ready.is_empty() {
            return Err(RuntimeError::NoSlaves);
        }
        let mut ep = self.root.fork(self.fault.clone());
        let payload = Bytes::from(spec.encode());
        // Mid-run joiners (and re-incarnated slaves) must learn the job
        // too: the acceptor ships this to everyone it admits from now on.
        if let Some(acc) = &self.control.acceptor {
            acc.set_join_payload(tags::JOB, &payload);
        }
        for &r in &ready {
            // A link that died since the readiness barrier (its READY may
            // have been queued before the slave went) fails here: the
            // same evidence the barrier's probe retires a rank on. The
            // master's send-failure path excludes the slot for this job.
            if ep.send(Rank(r), tags::JOB, payload.clone()).is_err() {
                if let Some(f) = self.retired.get_mut(r as usize) {
                    *f = true;
                }
            }
        }
        let mut deployment = spec.deployment(self.n_slaves, None);
        deployment.obs = opts.obs.clone();
        deployment.checkpoint = opts.checkpoint;
        let model = spec.model();
        let out = with_problem!(&spec.problem, p => {
            run_master(
                ep,
                &p,
                &model,
                &deployment,
                opts.tile_budget,
                Some(&self.control),
            )
        });
        // Clear before propagating any error: a stale payload would ship
        // yesterday's job to tomorrow's joiners.
        if let Some(acc) = &self.control.acceptor {
            acc.clear_join_payload();
        }
        let out = out?;
        if let (Some(reg), Some(info)) = (&opts.obs.metrics, self.socket_info()) {
            publish_socket_stats(reg, info);
        }
        Ok(RemoteOutput {
            matrix: out.matrix,
            report: RunReport {
                elapsed: out.elapsed,
                master: out.stats,
                slaves: out.slave_stats,
                trace: out.trace,
            },
            socket: self.socket_info().cloned(),
        })
    }

    /// Send SHUTDOWN to every slave and tear the fleet down. Local slave
    /// threads are joined and their per-slave service summaries
    /// returned; remote slaves exit their own processes' loops.
    pub fn shutdown(self) -> Vec<SlaveServeSummary> {
        let Fleet {
            mut root,
            slaves,
            n_slaves,
            control,
            ..
        } = self;
        for r in 1..=n_slaves as u32 {
            let _ = root.send(Rank(r), tags::SHUTDOWN, Bytes::new());
        }
        // Drop the root *before* joining: a slave that was still mid-
        // teardown when SHUTDOWN flew past it (discarded by its linger)
        // only notices the fleet is gone when its next READY/heartbeat
        // send fails — which requires the master side of the links to
        // actually close. Socket writers flush queued frames (the
        // SHUTDOWN) before closing.
        drop(root);
        // The elastic acceptor holds a clone of the link table: it must
        // go too (stopping the accept thread) or the socket writers would
        // never exit.
        drop(control);
        match slaves {
            FleetSlaves::Remote(_) => Vec::new(),
            FleetSlaves::Local(handles) => handles
                .into_iter()
                .filter_map(|h| h.join().ok().and_then(|r| r.ok()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteProblem;
    use easyhps_core::GridDims;

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
    /// change, not a 60-second readiness stall. The barrier probes the
    /// silent rank, finds the link gone, retires it, and the next job
    /// completes promptly on the survivor.
    #[test]
    fn slave_death_between_jobs_is_a_membership_change() {
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        let mut kills = Vec::new();
        let handles = eps
            .into_iter()
            .map(|ep| {
                kills.push(ep.kill_handle());
                std::thread::spawn(move || slave_job_loop(ep, None, None))
            })
            .collect();
        let mut fleet = Fleet {
            root,
            n_slaves: 2,
            fault: None,
            slaves: FleetSlaves::Local(handles),
            control: FleetControl::new(None),
            retired: vec![false; 3],
        };

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
            "readiness barrier burned the deadline on a dead slave: {:?}",
            t.elapsed()
        );
        assert!(fleet.retired[2], "dead rank must be retired");
        fleet.shutdown();
    }

    /// The race behind the test above, forced: rank 2's READY is already
    /// queued when it dies, so the barrier counts it and never probes the
    /// rank. The failed JOB send is then the evidence that retires it.
    #[test]
    fn job_send_failure_retires_a_rank_whose_ready_was_queued() {
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        let mut ghost = eps.pop().unwrap();
        let live = eps.pop().unwrap();
        ghost.send(Rank(0), tags::READY, Bytes::new()).unwrap();
        drop(ghost);
        let handle = std::thread::spawn(move || slave_job_loop(live, None, None));
        let mut fleet = Fleet {
            root,
            n_slaves: 2,
            fault: None,
            slaves: FleetSlaves::Local(vec![handle]),
            control: FleetControl::new(None),
            retired: vec![false; 3],
        };
        let spec = editdist_spec(b"one slave is already gone", b"but it said ready");
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

    /// Elastic fleet over TCP: a second slave joins *between* jobs and
    /// serves the next one; draining it afterwards releases its rank and
    /// the remaining jobs still complete.
    #[test]
    fn elastic_fleet_admits_joiner_and_drains_it() {
        use crate::remote::{serve_slave_jobs, RemoteSlaveOptions};
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
        // Wait for admission so the next barrier counts it.
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
        use crate::remote::{serve_slave_jobs, RemoteSlaveOptions};
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
        let mut fleet = Fleet::accept(listener, 2, None).unwrap();
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
