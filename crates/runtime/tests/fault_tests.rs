//! Fault-path drills: lossy-network survival end-to-end, and regression
//! tests for the scheduler's single-drop failure modes (static-mode
//! livelock, dispatch-failure bookkeeping, the teardown stats race, and
//! checkpoint loss of in-flight completions on a budget stop).
//!
//! The hand-driven tests speak the wire protocol through a
//! [`ReliableEndpoint`] directly, playing a slave that is slow, silent or
//! gone at exactly the wrong moment.

mod common;

use bytes::Bytes;
use common::assert_series_equal_stats;
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpMatrix, DpProblem, EditDistance, Nussinov, SmithWatermanGeneralGap};
use easyhps_net::{FaultPlan, NetError, Network, Rank, ReliableEndpoint, RetryPolicy};
use easyhps_obs::{labeled, Snapshot};
use easyhps_runtime::testing::StallProblem;
use easyhps_runtime::{
    run_master, run_slave, tags, AssignMsg, Checkpoint, CheckpointPolicy, Deployment, DoneMsg,
    EasyHps, Registry, ScheduleMode, SlaveStatsMsg, TransportKind,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Tentpole: full runs complete bit-identically under uniform message loss.
// ---------------------------------------------------------------------

/// Run `problem` with 4 slaves under `p` uniform drop on every link
/// (master included) and check the matrix is bit-identical to the
/// sequential reference, with no slave permanently excluded.
fn assert_lossy_run_is_exact<P: DpProblem + Clone>(problem: P, p: f64, seed: u64) {
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let out = EasyHps::new(problem)
        .process_partition((10, 10))
        .thread_partition((4, 4))
        .slaves(4)
        .threads_per_slave(2)
        .lossy_network(p, seed)
        .run()
        .unwrap_or_else(|e| panic!("run must survive {p} drop: {e}"));
    for pos in reference.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(
                out.matrix.at(pos),
                reference.at(pos),
                "cell {pos} at drop rate {p}"
            );
        }
    }
    let m = &out.report.master;
    assert_eq!(
        m.dead_slaves, 0,
        "no live slave permanently excluded at {p}"
    );
    assert_eq!(m.completed, m.dispatched, "every dispatch completed at {p}");
    assert_eq!(m.redispatched, 0, "no timeout-driven redispatch at {p}");
    assert_eq!(
        m.stale_completions, 0,
        "dedup upstream: no stale DONEs at {p}"
    );
    assert_eq!(m.send_failures, 0, "retry pushed every send through at {p}");
    for (i, s) in out.report.slaves.iter().enumerate() {
        assert!(s.is_some(), "slave {i} reported stats at drop rate {p}");
    }
}

#[test]
fn swgg_survives_5_percent_drop() {
    let a = random_sequence(Alphabet::Dna, 40, 101);
    let b = random_sequence(Alphabet::Dna, 44, 102);
    assert_lossy_run_is_exact(SmithWatermanGeneralGap::dna(a, b), 0.05, 1);
}

#[test]
fn swgg_survives_10_percent_drop() {
    let a = random_sequence(Alphabet::Dna, 40, 103);
    let b = random_sequence(Alphabet::Dna, 44, 104);
    assert_lossy_run_is_exact(SmithWatermanGeneralGap::dna(a, b), 0.1, 2);
}

#[test]
fn swgg_survives_20_percent_drop() {
    let a = random_sequence(Alphabet::Dna, 40, 105);
    let b = random_sequence(Alphabet::Dna, 44, 106);
    assert_lossy_run_is_exact(SmithWatermanGeneralGap::dna(a, b), 0.2, 3);
}

#[test]
fn nussinov_survives_5_percent_drop() {
    let rna = random_sequence(Alphabet::Rna, 48, 107);
    assert_lossy_run_is_exact(Nussinov::new(rna), 0.05, 4);
}

/// Acceptance drill for the CRC-guarded framing: every link (master
/// included) flips one bit in ~1% of its outgoing frames. The run must
/// complete bit-identical to the sequential reference, the receivers
/// must have actually *caught* corrupt frames (so the pass is not
/// vacuous), and no decoder error surfaces as a run failure — corrupt
/// frames are dropped and recovered by retransmission.
#[test]
fn swgg_survives_1_percent_bitflips_bit_identical() {
    let a = random_sequence(Alphabet::Dna, 40, 109);
    let b = random_sequence(Alphabet::Dna, 44, 110);
    let problem = SmithWatermanGeneralGap::dna(a, b);
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let mut hps = EasyHps::new(problem)
        .process_partition((10, 10))
        .thread_partition((4, 4))
        .slaves(4)
        .threads_per_slave(2)
        .metrics(true);
    for rank in 0..5u64 {
        let fp = FaultPlan {
            seed: 0x5eed ^ rank,
            ..FaultPlan::default()
        }
        .with_bitflips(0.01);
        hps = if rank == 0 {
            hps.inject_master_fault(fp)
        } else {
            hps.inject_fault(rank as usize - 1, fp)
        };
    }
    let out = hps.run().expect("corrupting links are survivable");
    for pos in reference.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(out.matrix.at(pos), reference.at(pos), "cell {pos}");
        }
    }
    let snap = out.metrics.unwrap().snapshot();
    let injected = snap.counter_total("net_msgs_corrupted");
    let caught = snap.counter_total("net_frames_corrupt");
    assert!(injected > 0, "the plan actually flipped frames");
    assert!(
        caught > 0,
        "the CRC check caught corrupt frames ({injected} injected)"
    );
    assert_eq!(
        out.report.master.send_failures, 0,
        "retransmit pushed every corrupted message through"
    );
}

#[test]
fn nussinov_survives_10_percent_drop() {
    let rna = random_sequence(Alphabet::Rna, 48, 108);
    assert_lossy_run_is_exact(Nussinov::new(rna), 0.1, 5);
}

#[test]
fn nussinov_survives_20_percent_drop() {
    let rna = random_sequence(Alphabet::Rna, 48, 109);
    assert_lossy_run_is_exact(Nussinov::new(rna), 0.2, 6);
}

#[test]
fn heavy_loss_forces_retransmits_and_counters_stay_consistent() {
    // At 20% drop the reliability layer must visibly work (retransmits on
    // the master link), and the loss must stay invisible to scheduling.
    let a = random_sequence(Alphabet::Dna, 36, 110);
    let b = random_sequence(Alphabet::Dna, 36, 111);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let out = EasyHps::new(problem)
        .process_partition((8, 8))
        .thread_partition((3, 3))
        .slaves(4)
        .threads_per_slave(2)
        .lossy_network(0.2, 42)
        .run()
        .unwrap();
    assert_eq!(out.matrix, reference);
    let m = &out.report.master;
    // 37x37 grid in 8x8 tiles -> 5x5 = 25 sub-tasks, each exactly once.
    assert_eq!(m.completed, 25);
    assert_eq!(m.dispatched, 25);
    assert!(
        m.retransmits > 0,
        "a 20% lossy master link must retransmit something"
    );
    assert_eq!(m.dead_slaves, 0);
    assert_eq!(out.report.trace.spans.len() as u64, m.completed);
}

// ---------------------------------------------------------------------
// Satellite: static-mode livelock on an excluded slave's tiles.
// ---------------------------------------------------------------------

#[test]
fn static_mode_survives_slave_death_via_orphan_fallback() {
    // Under BlockCyclic every tile has a static owner. When slave 0 dies,
    // its tiles are orphaned: without the dynamic fallback the master
    // spins forever (parser not done, no dispatchable task -> livelock,
    // this test hangs on the pre-fix scheduler).
    let a = random_sequence(Alphabet::Dna, 30, 120);
    let b = random_sequence(Alphabet::Dna, 30, 121);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let out = EasyHps::new(problem)
        .process_partition((6, 6))
        .thread_partition((3, 3))
        .slaves(3)
        .threads_per_slave(2)
        .process_mode(ScheduleMode::BlockCyclic { block: 1 })
        .task_timeout(Duration::from_millis(300))
        .inject_fault(0, FaultPlan::die_after(3))
        .run()
        .expect("orphaned static tiles must fall back to dynamic dispatch");
    assert_eq!(out.matrix, reference);
    assert_eq!(out.report.master.dead_slaves, 1);
}

#[test]
fn column_wavefront_survives_slave_death_too() {
    let rna = random_sequence(Alphabet::Rna, 40, 122);
    let problem = Nussinov::new(rna);
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let out = EasyHps::new(problem)
        .process_partition((8, 8))
        .thread_partition((4, 4))
        .slaves(3)
        .threads_per_slave(2)
        .process_mode(ScheduleMode::ColumnWavefront)
        .task_timeout(Duration::from_millis(300))
        .inject_fault(1, FaultPlan::die_after(4))
        .run()
        .expect("column-wavefront orphans must be redistributable");
    for pos in reference.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(out.matrix.at(pos), reference.at(pos), "cell {pos}");
        }
    }
}

// ---------------------------------------------------------------------
// Satellite: dispatch-failure bookkeeping (no phantom dispatches).
// ---------------------------------------------------------------------

/// The master gives up on ASSIGNs its lossy link dropped while the
/// slaves stay heard, so each slave keeps working after a lost ASSIGN
/// without a rejoin. A lost ASSIGN delivered none of its strips: the
/// master must learn what a slave holds from accepted DONEs only, or a
/// later ASSIGN to that slave leaves out strips it never received and
/// the matrix comes back wrong.
#[test]
fn a_given_up_assign_leaves_nothing_resident() {
    let problem = SmithWatermanGeneralGap::dna(
        random_sequence(Alphabet::Dna, 48, 141),
        random_sequence(Alphabet::Dna, 44, 142),
    );
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let out = EasyHps::new(problem)
        .process_partition((8, 8))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(1)
        .inject_master_fault(FaultPlan {
            seed: 0xa551,
            ..FaultPlan::default().with_tag_drop(tags::ASSIGN, 0.5)
        })
        .retry_policy(RetryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
        })
        .heartbeat(Duration::from_millis(10), Duration::from_secs(60))
        .run()
        .expect("dropped ASSIGNs are survivable");
    for pos in reference.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(out.matrix.at(pos), reference.at(pos), "cell {pos}");
        }
    }
    let m = &out.report.master;
    assert!(m.send_failures > 0, "the master gave up on some ASSIGN");
    assert_eq!(m.rejoins, 0, "no new incarnation cleared a record");
    assert_eq!(m.dead_slaves, 0, "both slaves kept working");
}

#[test]
fn failed_assign_send_is_not_counted_as_a_dispatch() {
    // Rank 1 announces idle and vanishes before the master starts: the
    // very first ASSIGN to it fails at the transport. That failed send
    // must not inflate `dispatched` or leave a stale trace start (on the
    // pre-fix master, dispatched > completed here).
    let a = random_sequence(Alphabet::Dna, 30, 130);
    let b = random_sequence(Alphabet::Dna, 30, 131);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let config = Deployment::local(2, 2);

    let mut eps = Network::new(3);
    let ep2 = eps.pop().unwrap();
    let ep1 = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    // The ghost slave: one reliable IDLE, then its endpoint is dropped
    // (deterministically, before the master runs).
    {
        let mut ghost = ReliableEndpoint::new(ep1, RetryPolicy::default());
        ghost
            .send_reliable(Rank(0), tags::IDLE, Bytes::new())
            .unwrap();
    }

    let out = std::thread::scope(|s| {
        let (p, m, c) = (&problem, &model, &config);
        s.spawn(move || {
            let _ = run_slave(ep2, p, m, c);
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(out.matrix, reference);
    // 31x31 in 8x8 tiles -> 16 sub-tasks, all done by the real slave.
    assert_eq!(out.stats.completed, 16);
    assert_eq!(
        out.stats.dispatched, out.stats.completed,
        "a failed ASSIGN send is not a dispatch"
    );
    assert_eq!(out.stats.redispatched, 0, "the task was never in flight");
    assert!(out.stats.send_failures >= 1, "the failed send is accounted");
    assert_eq!(out.stats.dead_slaves, 1);
    assert_eq!(
        out.trace.spans.len() as u64,
        out.stats.completed,
        "no stale trace start from the failed send"
    );
    assert!(out.slave_stats[0].is_none());
    assert!(out.slave_stats[1].is_some());
}

// ---------------------------------------------------------------------
// Satellite: teardown stats race (dead-marked but alive slave).
// ---------------------------------------------------------------------

#[test]
fn stats_from_excluded_slave_do_not_satisfy_a_live_slaves_slot() {
    // Slave A takes a task and goes silent long enough to be excluded,
    // then wakes and answers END immediately. Slave B does all the work
    // but delays its STATS. On the pre-fix master, A's STATS decremented
    // `expected` (which only counted B) and teardown returned without B's
    // stats.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 20, 140),
        random_sequence(Alphabet::Dna, 20, 141),
    );
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(2, 1);
    config.task_timeout = Duration::from_millis(150);
    config.ft_poll = Duration::from_millis(10);
    config.heartbeat_timeout = Duration::from_millis(100);

    let mut eps = Network::new(3);
    let ep_b = eps.pop().unwrap();
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
    let mut rep_b = ReliableEndpoint::new(ep_b, RetryPolicy::default());
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();
    rep_b
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        // A: take one ASSIGN (acked by the receive path), play dead past
        // task_timeout + heartbeat_timeout, then answer END instantly.
        s.spawn(move || loop {
            match rep_a.recv_timeout(Duration::from_millis(20)) {
                Ok(env) if env.tag == tags::ASSIGN => {
                    std::thread::sleep(Duration::from_millis(350));
                }
                Ok(env) if env.tag == tags::END => {
                    rep_a
                        .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                        .unwrap();
                    rep_a.drain_pending(Duration::from_secs(1));
                    return;
                }
                Ok(_) | Err(NetError::Timeout) => {}
                Err(_) => return,
            }
        });
        // B: answer every ASSIGN instantly (zero-filled regions — this
        // test is about teardown accounting, not matrix values), heartbeat
        // while idle, and hold the STATS back after END.
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            let mut last_hb = Instant::now();
            loop {
                if last_hb.elapsed() >= Duration::from_millis(20) {
                    let _ = rep_b.send_unreliable(Rank(0), tags::HEARTBEAT, Bytes::new());
                    last_hb = Instant::now();
                }
                match rep_b.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &zeros.encode_region(msg.region),
                        };
                        rep_b
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        std::thread::sleep(Duration::from_millis(500));
                        rep_b
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_b.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(out.stats.dead_slaves, 1, "A was excluded as silent");
    assert!(
        out.slave_stats[1].is_some(),
        "the live slave's stats must be awaited even after the excluded \
         slave's STATS arrives"
    );
    assert!(
        out.slave_stats[0].is_some(),
        "the excluded slave's stats are still recorded"
    );
}

// ---------------------------------------------------------------------
// Satellite: in-flight DONEs are drained into the checkpoint on a budget
// stop.
// ---------------------------------------------------------------------

#[test]
fn budget_stop_drains_in_flight_completions_into_the_checkpoint() {
    // Two slaves each take a window of Nussinov's four initially
    // computable diagonal tiles; the budget is 1. The first DONE reaches
    // the budget; the other three arrive during teardown and must land in
    // the matrix and the checkpoint directory's final flush instead of
    // being discarded (pre-fix: the directory held 1 tile and the others
    // were recomputed on resume).
    let problem = Nussinov::new(random_sequence(Alphabet::Rna, 40, 150));
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(10))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let dir = std::env::temp_dir().join(format!("easyhps-budget-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = Deployment::local(2, 1);
    config.checkpoint = Some(CheckpointPolicy::new(&dir));

    let mut eps = Network::new(3);
    let ep_b = eps.pop().unwrap();
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
    let mut rep_b = ReliableEndpoint::new(ep_b, RetryPolicy::default());
    // Both IDLEs are queued before the master starts, so both slaves get
    // an assignment before the first completion can reach the budget.
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();
    rep_b
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let serve = move |mut rep: ReliableEndpoint| {
        let zeros = DpMatrix::<i32>::new(dims);
        loop {
            match rep.recv_timeout(Duration::from_millis(20)) {
                Ok(env) if env.tag == tags::ASSIGN => {
                    let msg = AssignMsg::decode(&env.payload).unwrap();
                    let done = DoneMsg {
                        task: msg.task,
                        epoch: msg.epoch,
                        region: msg.region,
                        output: &zeros.encode_region(msg.region),
                    };
                    rep.send_reliable(Rank(0), tags::DONE, done.encode())
                        .unwrap();
                }
                Ok(env) if env.tag == tags::END => {
                    rep.send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                        .unwrap();
                    rep.drain_pending(Duration::from_secs(1));
                    return;
                }
                Ok(_) | Err(NetError::Timeout) => {}
                Err(_) => return,
            }
        }
    };

    let out = std::thread::scope(|s| {
        s.spawn(move || serve(rep_a));
        s.spawn(move || serve(rep_b));
        run_master(master_ep, &problem, &model, &config, Some(1), None).unwrap()
    });

    let windows = 2 * u64::from(easyhps_core::sched::WINDOW);
    assert_eq!(
        out.stats.dispatched, windows,
        "all four diagonal tiles dispatched before the budget hit; none after"
    );
    assert_eq!(
        out.stats.completed, windows,
        "the in-flight completions were accepted during teardown"
    );
    let cp = Checkpoint::load_dir(&dir)
        .unwrap()
        .expect("the final flush wrote");
    assert_eq!(
        cp.finished_len() as u64,
        windows,
        "teardown-drained DONEs are in the checkpoint, not recomputed later"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Heartbeats: a wrongly excluded (slow, not dead) slave is re-admitted.
// ---------------------------------------------------------------------

#[test]
fn silent_but_alive_slave_is_readmitted_after_heartbeat_resumes() {
    // A stalls past task_timeout + heartbeat_timeout (excluded), then
    // resumes heartbeating; the master must re-admit it — zero
    // permanently-excluded live slaves. B paces the run slowly enough
    // that the run is still going when A comes back.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 160),
        random_sequence(Alphabet::Dna, 30, 161),
    );
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(2, 1);
    config.task_timeout = Duration::from_millis(100);
    config.ft_poll = Duration::from_millis(10);
    config.heartbeat_timeout = Duration::from_millis(80);

    let mut eps = Network::new(3);
    let ep_b = eps.pop().unwrap();
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
    let mut rep_b = ReliableEndpoint::new(ep_b, RetryPolicy::default());
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();
    rep_b
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        // A: ack its first ASSIGN, stall 300ms (exclusion), then come back
        // heartbeating and serving until END.
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            let mut stalled = false;
            let mut last_hb = Instant::now();
            loop {
                if stalled && last_hb.elapsed() >= Duration::from_millis(20) {
                    let _ = rep_a.send_unreliable(Rank(0), tags::HEARTBEAT, Bytes::new());
                    last_hb = Instant::now();
                }
                match rep_a.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        if !stalled {
                            std::thread::sleep(Duration::from_millis(300));
                            stalled = true;
                        } else {
                            let msg = AssignMsg::decode(&env.payload).unwrap();
                            let done = DoneMsg {
                                task: msg.task,
                                epoch: msg.epoch,
                                region: msg.region,
                                output: &zeros.encode_region(msg.region),
                            };
                            rep_a
                                .send_reliable(Rank(0), tags::DONE, done.encode())
                                .unwrap();
                        }
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_a
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_a.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        // B: serve every ASSIGN with a 40ms delay so the 16-tile run
        // outlasts A's stall, heartbeating throughout.
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            let mut last_hb = Instant::now();
            loop {
                if last_hb.elapsed() >= Duration::from_millis(20) {
                    let _ = rep_b.send_unreliable(Rank(0), tags::HEARTBEAT, Bytes::new());
                    last_hb = Instant::now();
                }
                match rep_b.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        std::thread::sleep(Duration::from_millis(40));
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &zeros.encode_region(msg.region),
                        };
                        rep_b
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_b
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_b.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert!(
        out.stats.readmitted >= 1,
        "the stalled slave must be re-admitted once it is heard again"
    );
    assert_eq!(
        out.stats.dead_slaves, 0,
        "no live slave is permanently excluded"
    );
    assert!(
        out.slave_stats[0].is_some(),
        "readmitted slave reports stats"
    );
    assert!(out.slave_stats[1].is_some());
}

// ---------------------------------------------------------------------
// Regression (PR 4): startup-exclusion — a slave that is slow to say its
// first word is within the heartbeat grace window, not silent-forever.
// (The direct revert detector is the `never_heard_slave_gets_startup_grace`
// unit test in master.rs; this drill exercises the same scenario
// end-to-end over the wire.)
// ---------------------------------------------------------------------

#[test]
fn slow_starting_slave_is_neither_excluded_nor_readmitted() {
    // A sends nothing at all for 400ms, well within the 1s heartbeat
    // grace, then joins and serves. B paces the run slowly enough that it
    // is still going when A appears. A must simply join: zero exclusions,
    // zero re-admissions, stats from both. With the startup seeding of
    // `last_seen` reverted, A counts as "silent since forever" and the
    // FT liveness sweep excludes it on its first poll, so `readmitted`
    // comes back nonzero.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 170),
        random_sequence(Alphabet::Dna, 30, 171),
    );
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(2, 1);
    config.task_timeout = Duration::from_millis(200);
    config.ft_poll = Duration::from_millis(10);
    config.heartbeat_timeout = Duration::from_millis(1000);

    let mut eps = Network::new(3);
    let ep_b = eps.pop().unwrap();
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_b = ReliableEndpoint::new(ep_b, RetryPolicy::default());
    rep_b
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        // A: dead air during the whole startup window, then a normal
        // serving loop with heartbeats.
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
            rep_a
                .send_reliable(Rank(0), tags::IDLE, Bytes::new())
                .unwrap();
            let zeros = DpMatrix::<i32>::new(dims);
            let mut last_hb = Instant::now();
            loop {
                if last_hb.elapsed() >= Duration::from_millis(20) {
                    let _ = rep_a.send_unreliable(Rank(0), tags::HEARTBEAT, Bytes::new());
                    last_hb = Instant::now();
                }
                match rep_a.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &zeros.encode_region(msg.region),
                        };
                        rep_a
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_a
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_a.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        // B: serve every ASSIGN with a 60ms delay so the 16-tile run
        // outlasts A's 400ms of startup silence.
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            let mut last_hb = Instant::now();
            loop {
                if last_hb.elapsed() >= Duration::from_millis(20) {
                    let _ = rep_b.send_unreliable(Rank(0), tags::HEARTBEAT, Bytes::new());
                    last_hb = Instant::now();
                }
                match rep_b.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        std::thread::sleep(Duration::from_millis(60));
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &zeros.encode_region(msg.region),
                        };
                        rep_b
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_b
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_b.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(
        out.stats.dead_slaves, 0,
        "a slow-starting slave must not be excluded"
    );
    assert_eq!(
        out.stats.readmitted, 0,
        "it was never excluded, so there is nothing to re-admit"
    );
    assert!(
        out.slave_stats[0].is_some(),
        "the late starter reports stats"
    );
    assert!(out.slave_stats[1].is_some());
}

// ---------------------------------------------------------------------
// Regression (PR 4): the teardown drain deadline scales with the
// configured RetryPolicy instead of being hard-coded to 2s.
// ---------------------------------------------------------------------

#[test]
fn teardown_waits_out_a_slow_retry_schedule_for_stats() {
    // A slow retry schedule (worst-case retransmit budget 4.4s) with a
    // 20% lossy slave link, and a slave whose STATS takes 2.6s to appear
    // after END. The pre-fix master cut collection at a flat 2s and
    // returned without the stats; the deadline must instead cover the
    // policy's whole retransmit budget.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 20, 180),
        random_sequence(Alphabet::Dna, 20, 181),
    );
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(1, 1);
    config.retry = RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(200),
        max_backoff: Duration::from_secs(1),
    };

    let plans = vec![None, Some(FaultPlan::lossy(0.2, 77))];
    let mut eps = Network::with_faults(2, &plans);
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            loop {
                match rep_a.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &zeros.encode_region(msg.region),
                        };
                        rep_a
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        // Slow stats assembly: past the old flat deadline,
                        // within the policy-derived one.
                        std::thread::sleep(Duration::from_millis(2600));
                        rep_a
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_a.drain_pending(Duration::from_secs(3));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(out.stats.dead_slaves, 0);
    assert!(
        out.slave_stats[0].is_some(),
        "teardown must wait out the retry schedule's worst case, not a \
         hard-coded 2s"
    );
}

// ---------------------------------------------------------------------
// The teardown drain ends on the later of its last awaited STATS and its
// last END acknowledgement — not on the STATS alone, and not at the end
// of a poll slice or the drain deadline.
// ---------------------------------------------------------------------

#[test]
fn teardown_ends_on_the_end_ack_after_the_stats() {
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 220),
        random_sequence(Alphabet::Dna, 30, 221),
    );
    let reference = problem.solve_sequential();
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let tiles = model.master_dag().len();
    let config = Deployment::local(1, 1);

    // A plan that injects nothing: the master's sends (END included) are
    // acked as on any link where a frame could be lost.
    let mut eps = Network::with_faults(2, &[Some(FaultPlan::default())]);
    let mut rep_a = ReliableEndpoint::new(eps.pop().unwrap(), RetryPolicy::default());
    let master_ep = eps.pop().unwrap();
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let t0 = Instant::now();
    let (out, returned, acking) = std::thread::scope(|s| {
        let answers = &reference;
        let slave = s.spawn(move || {
            let mut done = 0;
            loop {
                let env = rep_a.recv_timeout(Duration::from_secs(5)).unwrap();
                if env.tag != tags::ASSIGN {
                    continue;
                }
                let msg = AssignMsg::decode(&env.payload).unwrap();
                let honest = DoneMsg {
                    task: msg.task,
                    epoch: msg.epoch,
                    region: msg.region,
                    output: &answers.encode_region(msg.region),
                };
                rep_a
                    .send_reliable(Rank(0), tags::DONE, honest.encode())
                    .unwrap();
                done += 1;
                if done == tiles {
                    break;
                }
            }
            // STATS first, queued right behind the last DONE; END is read
            // (and so ACKed) only ~30 ms later.
            rep_a
                .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                .unwrap();
            std::thread::sleep(Duration::from_millis(30));
            let acking = Instant::now();
            let env = rep_a.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.tag, tags::END);
            rep_a.drain_pending(Duration::from_secs(1));
            acking
        });
        let out = run_master(master_ep, &problem, &model, &config, None, None).unwrap();
        let returned = Instant::now();
        (out, returned, slave.join().unwrap())
    });

    assert_eq!(out.matrix, reference);
    assert!(out.slave_stats[0].is_some(), "the STATS was collected");
    assert!(returned >= acking, "the master returned before the END ACK");
    assert!(
        returned - t0 < Duration::from_secs(1),
        "teardown waited {:?}, past the ACK toward the 2.5 s drain deadline",
        returned - t0
    );
}

// ---------------------------------------------------------------------
// Epoch fencing: a two-incarnation slave's delayed first-incarnation
// DONE is rejected as stale-epoch — counted, never double-accepted —
// and the wire-level run differentially replays through the MasterSched
// state machine with identical accounting.
// ---------------------------------------------------------------------

#[test]
fn zombie_epoch_done_is_fenced_and_replays_through_the_machine() {
    // The wire-level half. A fixed in-process fleet never bumps its
    // fence (that takes a FleetAcceptor rejoin), so the zombie is played
    // from the slave side: for its first assignment the slave emits the
    // DONE twice — once stamped as the *other* incarnation would stamp
    // it (epoch one off the fence) and once correctly. The mis-stamped
    // frame must be counted and dropped before the register table is
    // consulted; the correct one is accepted. Exactly once, no
    // redispatch, no stale-completion.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 200),
        random_sequence(Alphabet::Dna, 30, 201),
    );
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(1, 1);
    let registry = Arc::new(Registry::new());
    config.obs.metrics = Some(registry.clone());

    let mut eps = Network::new(2);
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        s.spawn(move || {
            let zeros = DpMatrix::<i32>::new(dims);
            let mut zombie_sent = false;
            loop {
                match rep_a.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let output = zeros.encode_region(msg.region);
                        if !zombie_sent {
                            zombie_sent = true;
                            // The fenced incarnation's delayed DONE: same
                            // task, same payload, wrong epoch stamp.
                            let zombie = DoneMsg {
                                task: msg.task,
                                epoch: msg.epoch.wrapping_add(1),
                                region: msg.region,
                                output: &output,
                            };
                            rep_a
                                .send_reliable(Rank(0), tags::DONE, zombie.encode())
                                .unwrap();
                        }
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &output,
                        };
                        rep_a
                            .send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_a
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_a.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    // 31x31 in 8x8 tiles -> 16 sub-tasks.
    assert_eq!(out.stats.completed, 16, "every tile accepted exactly once");
    assert_eq!(out.stats.dispatched, 16);
    assert_eq!(
        out.stats.stale_epoch_rejected, 1,
        "the zombie stamp was counted and fenced"
    );
    assert_eq!(
        out.stats.stale_completions, 0,
        "epoch fencing fires before the register table's stale check"
    );
    assert_eq!(out.stats.redispatched, 0, "the fresh DONE landed in time");
    assert_eq!(out.stats.dead_slaves, 0);
    assert_series_equal_stats(&registry.snapshot(), &out.stats);

    // The differential half: the same order of observations — idle
    // slave, dispatch, a stale-epoch frame for the first assignment,
    // then the genuine completion — fed to the bare MasterSched machine
    // must land on identical accounting.
    use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SchedParams};
    let dag = model.master_dag();
    let params = SchedParams::default();
    let mut m = MasterSched::new(&dag, 1, ScheduleMode::Dynamic, &params, None);
    let mut accepted = vec![0u64; dag.len()];
    let mut zombie_replayed = false;
    let mut now = 0u64;
    m.on_event(&dag, MasterEvent::Idle { slave: 0 }).unwrap();
    for _ in 0..4 * dag.len() + 8 {
        if m.is_done() {
            break;
        }
        now += 1_000_000;
        let acts = m.on_event(&dag, MasterEvent::Tick { now_ns: now }).unwrap();
        for a in acts {
            let MasterAction::Assign { slave, task } = a else {
                continue;
            };
            if !zombie_replayed {
                zombie_replayed = true;
                let fenced = m
                    .on_event(&dag, MasterEvent::StaleEpoch { slave, task })
                    .unwrap();
                assert!(fenced.is_empty(), "stale-epoch frame acts: {fenced:?}");
            }
            for d in m.on_event(&dag, MasterEvent::Done { slave, task }).unwrap() {
                if let MasterAction::Accept { task, .. } = d {
                    accepted[task as usize] += 1;
                }
            }
        }
    }
    assert!(m.is_done(), "the replay finishes the DAG");
    let c = m.counters();
    assert_eq!(c.completed, out.stats.completed, "replay diverged: {c:?}");
    assert_eq!(c.dispatched, out.stats.dispatched, "replay diverged: {c:?}");
    assert_eq!(
        c.stale_epoch, out.stats.stale_epoch_rejected,
        "replay diverged: {c:?}"
    );
    assert!(
        accepted.iter().all(|n| *n == 1),
        "a tile was double-accepted in replay: {accepted:?}"
    );
}

// ---------------------------------------------------------------------
// Regression (PR 4): a DONE frame from an out-of-range source rank is
// ignored outright — no per-slave state touched, no panic from a rogue
// task id, not even a stale-completion count.
// ---------------------------------------------------------------------

#[test]
fn rogue_out_of_range_rank_done_frames_are_ignored() {
    // The network has one rank more than the deployment knows about; the
    // extra rank floods the master with DONE frames carrying an
    // out-of-range task id. On the pre-fix master the main loop reached
    // `register.accepts` with the rogue rank (and an unhardened register
    // table panicked on the task index); now the frames must vanish
    // without a trace while the real slaves finish the run bit-exactly.
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 190),
        random_sequence(Alphabet::Dna, 30, 191),
    );
    let reference = problem.solve_sequential();
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let config = Deployment::local(2, 2);

    let mut eps = Network::new(4);
    let rogue_ep = eps.pop().unwrap(); // rank 3: not a slave
    let ep_b = eps.pop().unwrap();
    let ep_a = eps.pop().unwrap();
    let master_ep = eps.pop().unwrap();

    // Queue the rogue frames before the master starts so they are
    // processed by the main loop, not the teardown drain.
    let mut rogue = ReliableEndpoint::new(rogue_ep, RetryPolicy::default());
    let region = easyhps_core::TileRegion::new(0, 1, 0, 1);
    let rogue_done = DoneMsg {
        task: u32::MAX,
        epoch: 0,
        region,
        output: &DpMatrix::<i32>::new(dims).encode_region(region),
    };
    for _ in 0..3 {
        rogue
            .send_reliable(Rank(0), tags::DONE, rogue_done.encode())
            .unwrap();
    }

    let out = std::thread::scope(|s| {
        let (p, m, c) = (&problem, &model, &config);
        s.spawn(move || {
            let _ = run_slave(ep_a, p, m, c);
        });
        s.spawn(move || {
            let _ = run_slave(ep_b, p, m, c);
        });
        // Let the rogue pump its retransmit/ack cycle while the run goes.
        s.spawn(move || {
            rogue.drain_pending(Duration::from_secs(2));
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(out.matrix, reference, "real slaves still compute exactly");
    assert_eq!(out.stats.completed, 16);
    assert_eq!(
        out.stats.stale_completions, 0,
        "rogue frames are ignored outright, not counted as stale"
    );
    assert_eq!(out.stats.dead_slaves, 0);
}

// ---------------------------------------------------------------------
// A slave *process* is outside input: a DONE whose region or payload does
// not match what the master assigned, or that names an unknown task, is
// counted and dropped before the machine sees it — never a panic (the
// pre-fix master wrote the slave-supplied region unchecked).
// ---------------------------------------------------------------------

#[test]
fn malformed_and_zombie_completions_are_dropped_never_fatal() {
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 30, 210),
        random_sequence(Alphabet::Dna, 30, 211),
    );
    let reference = problem.solve_sequential();
    let model = easyhps_core::DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(easyhps_core::GridDims::square(8))
        .thread_partition_size(easyhps_core::GridDims::square(4))
        .build();
    let dims = model.dag_size();
    let mut config = Deployment::local(1, 1);
    let registry = Arc::new(Registry::new());
    config.obs.metrics = Some(registry.clone());

    // One rank more than the deployment knows about, to speak from
    // outside the slave range.
    let mut eps = Network::new(3);
    let mut rogue = ReliableEndpoint::new(eps.pop().unwrap(), RetryPolicy::default());
    let mut rep_a = ReliableEndpoint::new(eps.pop().unwrap(), RetryPolicy::default());
    let master_ep = eps.pop().unwrap();
    rep_a
        .send_reliable(Rank(0), tags::IDLE, Bytes::new())
        .unwrap();

    let out = std::thread::scope(|s| {
        let answers = &reference;
        s.spawn(move || {
            let mut lied = false;
            loop {
                match rep_a.recv_timeout(Duration::from_millis(15)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let honest = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: &answers.encode_region(msg.region),
                        };
                        // For the first assignment, in turn: a DONE cut
                        // off mid-header, a region shifted clean off the
                        // matrix, a payload one cell short, an unknown task
                        // id, a frame from outside the slave range, a stale
                        // epoch — then the truth.
                        let mut frames = Vec::new();
                        if !std::mem::replace(&mut lied, true) {
                            rep_a
                                .send_reliable(Rank(0), tags::DONE, honest.encode().slice(..6))
                                .unwrap();
                            let r = msg.region;
                            let shifted = easyhps_core::TileRegion::new(
                                r.row_start + dims.rows,
                                r.row_end + dims.rows,
                                r.col_start,
                                r.col_end,
                            );
                            frames.push(DoneMsg {
                                region: shifted,
                                ..honest.clone()
                            });
                            frames.push(DoneMsg {
                                output: &honest.output[4..],
                                ..honest.clone()
                            });
                            frames.push(DoneMsg {
                                task: u32::MAX,
                                ..honest.clone()
                            });
                            rogue
                                .send_reliable(Rank(0), tags::DONE, honest.encode())
                                .unwrap();
                            frames.push(DoneMsg {
                                epoch: msg.epoch.wrapping_add(1),
                                ..honest.clone()
                            });
                        }
                        frames.push(honest);
                        for done in frames {
                            rep_a
                                .send_reliable(Rank(0), tags::DONE, done.encode())
                                .unwrap();
                        }
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep_a
                            .send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep_a.drain_pending(Duration::from_secs(1));
                        rogue.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        });
        run_master(master_ep, &problem, &model, &config, None, None).unwrap()
    });

    assert_eq!(out.matrix, reference, "only the honest DONEs were written");
    // 31x31 in 8x8 tiles -> 16 sub-tasks, each accepted exactly once.
    assert_eq!(out.stats.completed, 16);
    assert_eq!(out.stats.dispatched, 16);
    assert_eq!(out.stats.redispatched, 0, "the task stayed in flight");
    assert_eq!(out.stats.stale_completions, 0, "dropped before the machine");
    assert_eq!(out.stats.stale_epoch_rejected, 1);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("master_malformed_completions"), Some(4));
    assert_series_equal_stats(&snap, &out.stats);
}

// ---------------------------------------------------------------------
// Heartbeats go on while the slave computes: the scheduling thread is
// computing thread 0, so a heart thread beats whenever it finds the link
// free. A sub-task stalled past three heartbeat timeouts must not read as
// a dead slave, however many computing threads the slave has, and over a
// socket link as over in-process channels.
// ---------------------------------------------------------------------

#[test]
fn heartbeats_continue_while_a_sub_task_runs_long() {
    let stall = 3 * Deployment::local(1, 1).heartbeat_timeout;
    let cases = [
        (1, TransportKind::InProcess),
        (3, TransportKind::InProcess),
        (1, TransportKind::Tcp),
    ];
    for (threads, kind) in cases {
        let inner = EditDistance::new(
            random_sequence(Alphabet::Dna, 30, 230),
            random_sequence(Alphabet::Dna, 30, 231),
        );
        let reference = inner.solve_sequential();
        let problem = Arc::new(StallProblem::new(inner, 5, 30, stall));
        let out = EasyHps::new_shared(problem.clone())
            .process_partition((8, 8))
            .thread_partition((4, 4))
            .slaves(2)
            .threads_per_slave(threads)
            .transport(kind)
            .run()
            .unwrap_or_else(|e| panic!("stalled run, {threads} threads, {kind:?}: {e}"));
        assert!(problem.stalls_fired() >= 1, "the drill stalled nothing");
        assert_eq!(out.matrix, reference, "{threads} threads, {kind:?}");
        let m = &out.report.master;
        assert_eq!(
            (m.dead_slaves, m.readmitted, m.redispatched),
            (0, 0, 0),
            "a stalled kernel read as silence with {threads} threads, {kind:?}: {m:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Who acknowledges: a sender ACK-tracks a frame only where it could lose
// it — where it carries a fault plan. Everywhere else a control message
// is one RAW frame, and a clean run sends no ACK at all, over elastic
// socket links (a rejoin window set) as over fixed ones.
// ---------------------------------------------------------------------

/// `(ACKs sent, ACKs received, retransmits)` the endpoint of `role`
/// published.
fn ack_counts(snap: &Snapshot, role: &str) -> (u64, u64, u64) {
    let c = |name: &str| {
        snap.counter(&labeled(name, &[("role", role)]))
            .unwrap_or_else(|| panic!("{role} published no {name}"))
    };
    (c("net_acks_sent"), c("net_acks_recv"), c("net_retransmits"))
}

#[test]
fn only_a_sender_that_could_lose_a_frame_is_acked() {
    const ROLES: [&str; 3] = ["master", "slave0", "slave1"];
    // (transport, ranks carrying a lossy plan: 0 is the master, elastic)
    let cases: [(TransportKind, &[usize], bool); 5] = [
        (TransportKind::InProcess, &[], false),
        (TransportKind::Tcp, &[], false),
        (TransportKind::Tcp, &[], true),
        (TransportKind::InProcess, &[0], false),
        (TransportKind::InProcess, &[2], false),
    ];
    for (kind, planned, elastic) in cases {
        let problem = EditDistance::new(
            random_sequence(Alphabet::Dna, 30, 240),
            random_sequence(Alphabet::Dna, 30, 241),
        );
        let reference = problem.solve_sequential();
        let mut hps = EasyHps::new(problem)
            .process_partition((8, 8))
            .thread_partition((4, 4))
            .slaves(2)
            .threads_per_slave(2)
            .transport(kind)
            .metrics(true);
        if elastic {
            hps = hps.reconnect(Duration::from_secs(10));
        }
        for &rank in planned {
            let plan = FaultPlan::lossy(0.05, 40 + rank as u64);
            hps = match rank {
                0 => hps.inject_master_fault(plan),
                r => hps.inject_fault(r - 1, plan),
            };
        }
        let out = hps.run().unwrap();
        let case = format!("{kind:?} (elastic: {elastic}) with plans on ranks {planned:?}");
        assert_eq!(out.matrix, reference, "{case}");
        let snap = out.metrics.unwrap().snapshot();
        let acked = |rank: usize| planned.contains(&rank);
        for (rank, role) in ROLES.iter().enumerate() {
            let (sent, recv, retransmits) = ack_counts(&snap, role);
            let peers_acked = match rank {
                0 => acked(1) || acked(2),
                _ => acked(0),
            };
            assert_eq!(recv > 0, acked(rank), "{role} received ACKs: {case}");
            assert_eq!(sent > 0, peers_acked, "{role} sent ACKs: {case}");
            if !acked(rank) {
                assert_eq!(retransmits, 0, "{role} retransmitted: {case}");
            }
        }
        if planned.is_empty() {
            let m = &out.report.master;
            assert_eq!(
                m.msgs_sent,
                m.dispatched + 2,
                "one frame per ASSIGN and per END: {case}"
            );
        }
    }
}
