//! In-process integration tests for the serve daemon: the full client
//! protocol over real TCP against a daemon with a local fleet. The
//! acceptance scenarios — two identical submissions collapsing into one
//! computation (the counters prove it) and a crash leaving only durable
//! specs behind that a restarted daemon completes bit-identically — run
//! here deterministically; the process-level kill -9 variant lives in
//! the workspace-level `daemon` e2e test.

use easyhps_core::{GridDims, TileRegion};
use easyhps_net::{crc32c, NetAddr};
use easyhps_runtime::remote::{JobSpec, RemoteProblem};
use easyhps_serve::{
    Admission, Client, Daemon, FleetSpec, JobState, JobStore, Response, ServeConfig,
};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "easyhps-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn editdist_spec(a: &[u8], b: &[u8], pps: u32) -> JobSpec {
    JobSpec::new(
        RemoteProblem::EditDistance {
            a: a.to_vec(),
            b: b.to_vec(),
        },
        GridDims::new(pps, pps),
        GridDims::new((pps / 2).max(1), (pps / 2).max(1)),
    )
}

/// The reference CRC a daemon result must match: the sequential solve's
/// canonical cell encoding, same digest the CLI prints as `matrix-crc:`.
fn reference_crc(spec: &JobSpec) -> u32 {
    let m = spec.problem.solve_sequential();
    let d = m.dims();
    crc32c(&m.encode_region(TileRegion::new(0, d.rows, 0, d.cols)))
}

fn local_config(listen: &str) -> ServeConfig {
    let mut cfg = ServeConfig::new(NetAddr::parse(listen).unwrap());
    cfg.fleet = FleetSpec::Local {
        slaves: 2,
        threads: Some(2),
    };
    cfg
}

fn counter(daemon: &Daemon, name: &str) -> u64 {
    use easyhps_obs::MetricValue;
    daemon
        .registry()
        .snapshot()
        .entries
        .iter()
        .find_map(|(n, v)| match (n == name, v) {
            (true, MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

fn wait_done(client: &mut Client, job: u64, deadline: Duration) -> easyhps_serve::JobResult {
    let t0 = Instant::now();
    loop {
        match client.status(job).unwrap() {
            Response::Status {
                state: JobState::Done(r),
                ..
            } => return r,
            Response::Status {
                state: JobState::Failed { error },
                ..
            } => panic!("job {job} failed: {error}"),
            _ if t0.elapsed() > deadline => panic!("job {job} not done in {deadline:?}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A repeat submission is answered from the content-addressed cache —
/// accepted as a cache hit, followed by an unsolicited `Done`, with the
/// sequential reference's exact CRC — and the counters show exactly one
/// computation.
#[test]
fn repeat_submission_hits_the_cache_bit_identically() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let spec = editdist_spec(b"the quick brown fox jumps", b"over the lazy dog", 6);
    let want = reference_crc(&spec);

    let mut c = Client::connect(daemon.addr()).unwrap();
    let Response::Accepted { job, admission } = c.submit("alice", true, spec.clone()).unwrap()
    else {
        panic!("first submission must be accepted");
    };
    assert_eq!(admission, Admission::New);
    let Response::Done { result, cached, .. } = c.read_response().unwrap() else {
        panic!("wait submission must end in Done");
    };
    assert!(!cached, "first computation is not a cache hit");
    assert_eq!(result.crc, want, "daemon result != sequential reference");
    let _ = job;

    let Response::Accepted { admission, .. } = c.submit("bob", false, spec).unwrap() else {
        panic!("second submission must be accepted");
    };
    assert_eq!(admission, Admission::CacheHit);
    let Response::Done { result, cached, .. } = c.read_response().unwrap() else {
        panic!("a cache hit is followed by its Done");
    };
    assert!(cached);
    assert_eq!(result.crc, want);

    assert_eq!(counter(&daemon, "serve_cache_hits"), 1);
    // Only the first submission was computed; the hit was answered from
    // the cache without ever reaching the scheduler.
    assert_eq!(counter(&daemon, "serve_jobs_completed"), 1);
    assert_eq!(counter(&daemon, "serve_jobs_submitted"), 2);
    let cells = counter(&daemon, "serve_cells_computed");
    assert_eq!(
        cells,
        spec_cells(b"the quick brown fox jumps", b"over the lazy dog"),
        "only ONE computation ran for two submissions"
    );
    daemon.stop();
}

fn spec_cells(a: &[u8], b: &[u8]) -> u64 {
    (a.len() as u64 + 1) * (b.len() as u64 + 1)
}

/// Two identical submissions in flight at once collapse into one
/// computation: the daemon runs a long job first so the identical pair
/// sits queued together, where the second coalesces onto the first.
#[test]
fn concurrent_identical_submissions_coalesce() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();

    // A job big enough to hold the scheduler for a moment (fleet path,
    // above the batch threshold).
    let blocker = editdist_spec(&[b'a'; 300], &[b'b'; 290], 8);
    let Response::Accepted { job: j0, .. } = c.submit("alice", false, blocker).unwrap() else {
        panic!("blocker must be accepted");
    };

    // While it runs (or queues), two identical submissions arrive from
    // different tenants. Whatever the interleaving, the second of the
    // pair must coalesce onto the first — never compute twice.
    let spec = editdist_spec(b"coalesce me exactly once", b"coalesce me too", 4);
    let want = reference_crc(&spec);
    let Response::Accepted {
        job: j1,
        admission: a1,
    } = c.submit("alice", false, spec.clone()).unwrap()
    else {
        panic!("leader must be accepted");
    };
    assert_eq!(a1, Admission::New);
    let Response::Accepted {
        job: j2,
        admission: a2,
    } = c.submit("bob", false, spec).unwrap()
    else {
        panic!("follower must be accepted");
    };
    assert_eq!(
        a2,
        Admission::Coalesced,
        "identical in-flight job must coalesce"
    );
    assert_ne!(j1, j2, "coalesced submissions keep distinct job ids");

    for j in [j0, j1, j2] {
        wait_done(&mut c, j, Duration::from_secs(60));
    }
    let r1 = wait_done(&mut c, j1, Duration::from_secs(1));
    let r2 = wait_done(&mut c, j2, Duration::from_secs(1));
    assert_eq!(r1.crc, want);
    assert_eq!(r2.crc, want, "leader and follower see the same bits");
    assert_eq!(counter(&daemon, "serve_jobs_coalesced"), 1);
    assert_eq!(counter(&daemon, "serve_jobs_completed"), 3);
    daemon.stop();
}

/// Admission control rejects past the queue bound, and the refusal names
/// the limit and what to do about it.
#[test]
fn queue_full_rejection_names_the_limit() {
    let mut cfg = local_config("127.0.0.1:0");
    cfg.queue_cap = 1;
    let daemon = Daemon::start(cfg).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    // A long fleet-path job keeps the scheduler busy; distinct small
    // jobs then pile into the one queue slot. The scheduler can drain
    // at most the first — by the third submission one must bounce.
    let blocker = editdist_spec(&[b'q'; 300], &[b'r'; 290], 8);
    let Response::Accepted { .. } = c.submit("alice", false, blocker).unwrap() else {
        panic!("blocker must be accepted");
    };
    let mut rejection = None;
    for i in 0..4u8 {
        let spec = editdist_spec(
            format!("distinct job {i}").as_bytes(),
            b"fills the queue",
            3,
        );
        match c.submit("alice", false, spec).unwrap() {
            Response::Rejected { reason } => {
                rejection = Some(reason);
                break;
            }
            Response::Accepted { .. } => {}
            other => panic!("unexpected answer: {other:?}"),
        }
    }
    let reason = rejection.expect("a 1-slot queue must reject one of 4 submissions");
    assert!(
        reason.contains("queue full"),
        "reason names the limit: {reason}"
    );
    assert!(reason.contains("retry"), "reason says what to do: {reason}");
    assert!(counter(&daemon, "serve_jobs_rejected") >= 1);
    daemon.stop();
}

/// A queued job can be cancelled; its id answers `status` as cancelled
/// and it never completes.
#[test]
fn queued_jobs_are_cancellable() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    // Enough work ahead of it that the target is still queued when the
    // cancel arrives.
    let blocker = editdist_spec(&[b'x'; 300], &[b'y'; 280], 8);
    let Response::Accepted { job: j0, .. } = c.submit("alice", false, blocker).unwrap() else {
        panic!()
    };
    let spec = editdist_spec(b"cancel me", b"before i run", 3);
    let Response::Accepted { job, .. } = c.submit("alice", false, spec).unwrap() else {
        panic!()
    };
    match c.cancel(job).unwrap() {
        Response::Cancelled { ok: true, .. } => {
            let Response::Status { state, .. } = c.status(job).unwrap() else {
                panic!()
            };
            assert_eq!(state, JobState::Cancelled);
        }
        // The scheduler may have already grabbed it — then the cancel
        // honestly reports failure instead.
        Response::Cancelled { ok: false, .. } => {}
        other => panic!("unexpected cancel answer: {other:?}"),
    }
    wait_done(&mut c, j0, Duration::from_secs(60));
    daemon.stop();
}

/// Cancelling the first of two coalesced queued submissions cancels that
/// submission only: the second, from another tenant, still finishes with
/// the sequential reference's bits, and the problem is computed once.
#[test]
fn cancelling_a_queued_leader_keeps_its_follower() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    // Two fleet-path blockers from the leader's tenant: the second waits
    // behind the first, and the identical pair waits behind both.
    let blockers = [
        editdist_spec(&[b'l'; 300], &[b'm'; 290], 8),
        editdist_spec(&[b'n'; 300], &[b'o'; 290], 8),
    ];
    let mut ids = Vec::new();
    for b in blockers {
        let Response::Accepted { job, .. } = c.submit("alice", false, b).unwrap() else {
            panic!("blocker must be accepted");
        };
        ids.push(job);
    }
    let spec = editdist_spec(b"one problem from two tenants", b"one cancel", 4);
    let want = reference_crc(&spec);
    let Response::Accepted {
        job: j1,
        admission: a1,
    } = c.submit("alice", false, spec.clone()).unwrap()
    else {
        panic!("leader must be accepted");
    };
    let Response::Accepted {
        job: j2,
        admission: a2,
    } = c.submit("bob", false, spec).unwrap()
    else {
        panic!("follower must be accepted");
    };
    assert_eq!((a1, a2), (Admission::New, Admission::Coalesced));

    let Response::Cancelled { ok, .. } = c.cancel(j1).unwrap() else {
        panic!("cancel must be answered");
    };
    assert!(ok, "the leader was still queued behind two blockers");
    let Response::Status { state, .. } = c.status(j1).unwrap() else {
        panic!("status must be answered");
    };
    assert_eq!(state, JobState::Cancelled);

    for j in ids {
        wait_done(&mut c, j, Duration::from_secs(60));
    }
    let r2 = wait_done(&mut c, j2, Duration::from_secs(60));
    assert_eq!(r2.crc, want, "the follower outlives its leader's cancel");
    let Response::Status { state, .. } = c.status(j1).unwrap() else {
        panic!("status must be answered");
    };
    assert_eq!(
        state,
        JobState::Cancelled,
        "a cancelled job stays cancelled"
    );
    assert_eq!(counter(&daemon, "serve_jobs_coalesced"), 1);
    assert_eq!(counter(&daemon, "serve_jobs_cancelled"), 1);
    assert_eq!(
        counter(&daemon, "serve_cells_computed"),
        2 * spec_cells(&[0; 300], &[0; 290])
            + spec_cells(b"one problem from two tenants", b"one cancel"),
        "the pair's problem is computed once"
    );
    daemon.stop();
}

/// A result persisted under `--state-dir` outlives the daemon: a new
/// daemon on the same directory reports the old job done with the same
/// digest and answers an identical submission as a cache hit without a
/// fleet round.
#[test]
fn persisted_result_survives_a_restart_as_a_hit() {
    let dir = tmp_dir("hit-after-restart");
    let config = || {
        let mut cfg = local_config("127.0.0.1:0");
        cfg.state_dir = Some(dir.clone());
        cfg
    };
    // Above the batch threshold: a miss would cost a fleet round.
    let spec = editdist_spec(&[b'p'; 200], &[b'q'; 190], 8);
    let want = reference_crc(&spec);

    let daemon = Daemon::start(config()).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    let Response::Accepted { job, .. } = c.submit("alice", true, spec.clone()).unwrap() else {
        panic!("first submission must be accepted");
    };
    let Response::Done { result, .. } = c.read_response().unwrap() else {
        panic!("wait submission must end in Done");
    };
    assert_eq!(result.crc, want);
    assert_eq!(counter(&daemon, "serve_fleet_rounds"), 1);
    daemon.stop();

    let daemon = Daemon::start(config()).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    let Response::Status { state, .. } = c.status(job).unwrap() else {
        panic!("status must be answered");
    };
    assert_eq!(
        state,
        JobState::Done(result),
        "the old job keeps its digest"
    );
    let Response::Accepted { admission, .. } = c.submit("bob", false, spec).unwrap() else {
        panic!("repeat submission must be accepted");
    };
    assert_eq!(admission, Admission::CacheHit);
    let Response::Done { result, cached, .. } = c.read_response().unwrap() else {
        panic!("a cache hit is followed by its Done");
    };
    assert!(cached);
    assert_eq!(result.crc, want);
    assert_eq!(
        counter(&daemon, "serve_fleet_rounds"),
        0,
        "no recomputation"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet job under `--state-dir` checkpoints its tiles while it runs;
/// once its result is durable the checkpoint is a second copy of the
/// matrix, and nothing of it may stay on disk — neither after the job
/// finishes nor, for one a crash left beside its result, after recovery.
#[test]
fn finished_fleet_job_leaves_no_checkpoint() {
    let dir = tmp_dir("no-ckpt");
    let config = || {
        let mut cfg = local_config("127.0.0.1:0");
        cfg.state_dir = Some(dir.clone());
        cfg
    };
    let daemon = Daemon::start(config()).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();
    // Above the batch threshold, so it runs on the fleet.
    let spec = editdist_spec(&[b's'; 200], &[b't'; 190], 8);
    let Response::Accepted { job, .. } = c.submit("alice", true, spec.clone()).unwrap() else {
        panic!("submission must be accepted");
    };
    let Response::Done { result, .. } = c.read_response().unwrap() else {
        panic!("wait submission must end in Done");
    };
    assert_eq!(result.crc, reference_crc(&spec));
    assert_eq!(counter(&daemon, "serve_fleet_rounds"), 1);
    let job_dir = dir.join("jobs").join(format!("{job:016}"));
    assert!(job_dir.join("result.bin").exists(), "the result is durable");
    assert!(
        !job_dir.join("ckpt").exists(),
        "a finished job keeps its checkpoint in {}",
        job_dir.display()
    );
    daemon.stop();

    // A crash between the result's write and the checkpoint's removal.
    std::fs::create_dir_all(job_dir.join("ckpt")).unwrap();
    let daemon = Daemon::start(config()).unwrap();
    assert!(
        !job_dir.join("ckpt").exists(),
        "recovery keeps the checkpoint of a finished job in {}",
        job_dir.display()
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client outlives a daemon restart: its next request redials with
/// bounded exponential backoff and resends, so `status`/`submit --wait`
/// keep working across the restart instead of erroring out.
#[test]
fn client_survives_daemon_restart() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let addr = daemon.addr().clone();
    let mut c = Client::connect(&addr).unwrap();

    let spec = editdist_spec(b"a job before the restart", b"and after it too", 4);
    let want = reference_crc(&spec);
    let Response::Done { result, .. } = c.submit_wait("alice", spec.clone()).unwrap() else {
        panic!("wait submission must end in Done");
    };
    assert_eq!(result.crc, want);
    assert_eq!(c.retries(), 0, "healthy daemon needs no retries");

    // Restart the daemon on the same address; the client's TCP stream
    // is now dead.
    daemon.stop();
    let t0 = Instant::now();
    let daemon = loop {
        let mut cfg = local_config("127.0.0.1:0");
        cfg.listen = addr.clone();
        // The freed port may take a moment to rebind.
        match Daemon::start(cfg) {
            Ok(d) => break d,
            Err(e) if t0.elapsed() < Duration::from_secs(10) => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("rebinding {addr}: {e}"),
        }
    };

    // The same client object keeps working: the dead stream is detected,
    // redialed and the request resent.
    let Response::Status { state, .. } = c.status(1).unwrap() else {
        panic!("status must be answered after the restart");
    };
    assert_eq!(state, JobState::Unknown, "fresh daemon has no job 1");
    assert!(c.retries() >= 1, "the restart must have cost a retry");

    // And a full wait-submission still runs end to end, bit-identical.
    let Response::Done { result, .. } = c.submit_wait("alice", spec).unwrap() else {
        panic!("post-restart submission must end in Done");
    };
    assert_eq!(result.crc, want);
    daemon.stop();
}

/// The drain RPC reaches the fleet: rank 0 is refused, a slave rank is
/// accepted once the scheduler has published the fleet control, and
/// jobs submitted after the drain still complete (on the remaining
/// slave).
#[test]
fn drain_rpc_reaches_the_fleet() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();

    let Response::Drained { ok, .. } = c.drain(0).unwrap() else {
        panic!("drain must be answered");
    };
    assert!(!ok, "rank 0 is the master and cannot be drained");

    // The scheduler publishes the control shortly after start.
    let t0 = Instant::now();
    loop {
        match c.drain(2).unwrap() {
            Response::Drained { ok: true, .. } => break,
            Response::Drained { ok: false, .. } if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected drain answer: {other:?}"),
        }
    }
    assert_eq!(counter(&daemon, "serve_drain_requests"), 1);

    // Big enough for the fleet path; it must complete without rank 2.
    let spec = editdist_spec(&[b'd'; 200], &[b'e'; 190], 8);
    let Response::Done { result, .. } = c.submit_wait("alice", spec.clone()).unwrap() else {
        panic!("post-drain submission must end in Done");
    };
    assert_eq!(result.crc, reference_crc(&spec));
    daemon.stop();
}

/// The crash-recovery acceptance scenario, in-process: a state directory
/// holding durably accepted but unfinished specs (exactly what a daemon
/// killed with -9 mid-queue leaves behind) is fully completed by a fresh
/// daemon on startup, bit-identical to the sequential references, with
/// duplicate specs re-coalescing rather than recomputing.
#[test]
fn restart_completes_accepted_jobs_bit_identically() {
    let dir = tmp_dir("recover");
    let specs = [
        editdist_spec(b"first accepted job", b"lost to a kill -9", 4),
        editdist_spec(b"second accepted job", b"also never ran", 4),
        // A duplicate of the first: recovery must coalesce or cache-hit
        // it, not compute it twice.
        editdist_spec(b"first accepted job", b"lost to a kill -9", 4),
    ];
    {
        // Simulate the dead daemon's durable footprint: specs persisted
        // at acceptance, no results.
        let store = JobStore::open(&dir).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            store.persist_spec(i as u64 + 1, "alice", spec).unwrap();
        }
    }

    let mut cfg = local_config("127.0.0.1:0");
    cfg.state_dir = Some(dir.clone());
    let daemon = Daemon::start(cfg).unwrap();
    assert_eq!(counter(&daemon, "serve_jobs_recovered"), 3);

    let mut c = Client::connect(daemon.addr()).unwrap();
    for (i, spec) in specs.iter().enumerate() {
        let r = wait_done(&mut c, i as u64 + 1, Duration::from_secs(60));
        assert_eq!(
            r.crc,
            reference_crc(spec),
            "recovered job {} must match its sequential reference",
            i + 1
        );
    }
    // Two distinct problems — the duplicate pair computed once.
    let dup = counter(&daemon, "serve_jobs_coalesced") + counter(&daemon, "serve_cache_hits");
    assert_eq!(dup, 1, "the duplicate spec must not recompute");

    // A job submitted after recovery gets an id above every recovered
    // one — ids never collide across the crash.
    let Response::Accepted { job, .. } = c
        .submit("bob", true, editdist_spec(b"post-crash", b"job", 3))
        .unwrap()
    else {
        panic!()
    };
    assert!(job > 3);
    let Response::Done { .. } = c.read_response().unwrap() else {
        panic!()
    };
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec whose seal verifies but whose payload this build cannot decode
/// (here: one trailing byte, as a JOB codec with one more field wrote
/// it) was acknowledged by the daemon that wrote it. Recovery must count
/// it, not drop it silently, and still complete every other job.
#[test]
fn undecodable_persisted_spec_is_counted_and_the_rest_recover() {
    let dir = tmp_dir("unreadable");
    let good = editdist_spec(b"readable job", b"still runs", 4);
    {
        let store = JobStore::open(&dir).unwrap();
        store.persist_spec(1, "alice", &good).unwrap();
    }
    // The documented sealed layout: [crc32c LE | 0x00 | payload], the
    // checksum covering the format byte and the payload.
    let mut spec = editdist_spec(b"older codec", b"job", 4).encode();
    spec.push(0);
    let mut w = easyhps_net::WireWriter::new();
    w.put_u64(2).put_bytes(b"bob").put_bytes(&spec);
    let mut body = vec![0u8];
    body.extend_from_slice(&w.finish());
    let mut sealed = crc32c(&body).to_le_bytes().to_vec();
    sealed.extend_from_slice(&body);
    let stale = dir.join("jobs").join(format!("{:016}", 2));
    std::fs::create_dir_all(&stale).unwrap();
    std::fs::write(stale.join("spec.bin"), sealed).unwrap();

    let mut cfg = local_config("127.0.0.1:0");
    cfg.state_dir = Some(dir.clone());
    let daemon = Daemon::start(cfg).unwrap();
    assert_eq!(counter(&daemon, "serve_jobs_unreadable"), 1);
    assert_eq!(counter(&daemon, "serve_jobs_recovered"), 1);

    let mut c = Client::connect(daemon.addr()).unwrap();
    let r = wait_done(&mut c, 1, Duration::from_secs(60));
    assert_eq!(r.crc, reference_crc(&good));
    // The unreadable job's id is not handed out again.
    let Response::Accepted { job, .. } = c
        .submit("carol", true, editdist_spec(b"after", b"recovery", 3))
        .unwrap()
    else {
        panic!()
    };
    assert!(job > 2, "id {job} reuses a recovered directory");
    let Response::Done { .. } = c.read_response().unwrap() else {
        panic!()
    };
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client-submitted spec is outside input: a zero partition side used
/// to reach the model builder's `assert!` on the fleet thread and in
/// every slave, taking the whole fleet down with one bad `Submit`. It
/// must be refused at decode, and the daemon must keep serving.
#[test]
fn zero_partition_submit_is_refused_and_the_next_job_still_runs() {
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let mut c = Client::connect(daemon.addr()).unwrap();

    for (pp, tp) in [((0, 6), (1, 1)), ((6, 6), (0, 3)), ((4, 4), (5, 5))] {
        let mut bad = editdist_spec(b"a poisoned job", b"with no tiles", 6);
        bad.pp = GridDims::new(pp.0, pp.1);
        bad.tp = GridDims::new(tp.0, tp.1);
        match c.submit("mallory", true, bad).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("partition"), "{message}")
            }
            other => panic!("a spec with pp {pp:?} tp {tp:?} must be refused, got {other:?}"),
        }
    }

    // Same client (it redials: the daemon hung up on the bad request),
    // same fleet, and an honest job completes bit-identically.
    let good = editdist_spec(b"an honest job follows", b"the poisoned ones", 6);
    let want = reference_crc(&good);
    let Response::Done { result, .. } = c.submit_wait("alice", good).unwrap() else {
        panic!("the next job must run");
    };
    assert_eq!(result.crc, want);
    assert_eq!(counter(&daemon, "serve_jobs_failed"), 0);
    daemon.stop();
}

/// The two protocols share one frame format but not one port: a rank
/// hello sent to the client port, and a client hello sent to a rank
/// port, are each refused by the one magic check — and neither dialer
/// hangs waiting for an answer that will not come.
#[test]
fn cross_protocol_connections_are_refused_promptly() {
    use easyhps_net::socket::connect;
    use easyhps_net::{SocketConfig, SocketListener};

    // A slave dialing the daemon's *client* port.
    let daemon = Daemon::start(local_config("127.0.0.1:0")).unwrap();
    let t = Instant::now();
    let err = connect(daemon.addr(), Some(1), SocketConfig::default(), None)
        .expect_err("the client port must not admit a rank");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "refusal took {:?}",
        t.elapsed()
    );
    assert!(
        err.to_string().contains("rank handshake") && err.to_string().contains("closed"),
        "the daemon hangs up on a non-client, and the dialer says so: {err}"
    );
    // The daemon is unharmed.
    let mut c = Client::connect(daemon.addr()).unwrap();
    assert!(matches!(c.stats().unwrap(), Response::Stats { .. }));
    daemon.stop();

    // A client dialing a master's *rank* port: the master drops it as a
    // garbage peer and keeps waiting for real slaves.
    let listener = SocketListener::bind(
        &NetAddr::parse("127.0.0.1:0").unwrap(),
        SocketConfig::default(),
    )
    .unwrap();
    let addr = listener.local_addr();
    let master = std::thread::spawn(move || listener.accept_ranks(1, None));
    let t = Instant::now();
    let mut stray = Client::connect(&addr).unwrap();
    // One attempt only: the bounded retry loop would redial a port that
    // will never speak this protocol.
    let err = stray
        .read_response()
        .expect_err("a rank port never answers a client");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "refusal took {:?}",
        t.elapsed()
    );
    assert_ne!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    // A real slave is still admitted afterwards.
    let (slave, _info) = connect(&addr, Some(1), SocketConfig::default(), None).unwrap();
    let (master_ep, _minfo) = master.join().unwrap().unwrap();
    assert_eq!((master_ep.n_ranks(), slave.rank().0), (2, 1));
}
