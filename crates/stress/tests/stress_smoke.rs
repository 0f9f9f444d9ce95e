//! End-to-end smoke tests: real seeds through the real runtime.
//!
//! The full sweep (hundreds of seeds, release mode) lives in CI's
//! `stress-matrix` job; here a handful of seeds keeps `cargo test` fast
//! while still proving the harness drives real runs and holds its
//! invariants.

use easyhps_core::ScheduleMode;
use easyhps_stress::{
    run_kill_seed, run_plan, run_seed, FaultClause, KillPlan, StressConfig, StressPlan, Verdict,
};
use std::time::Duration;

#[test]
fn a_handful_of_seeds_pass_every_invariant() {
    let cfg = StressConfig::default();
    for seed in [1u64, 7, 42] {
        let outcome = run_seed(seed, &cfg);
        assert!(
            outcome.passed(),
            "seed {seed} failed; repro: {}\nviolations:\n{}\nplan:\n{}",
            outcome.repro_line(),
            outcome.violations.join("\n"),
            outcome.plan.describe(),
        );
    }
}

#[test]
fn pinned_modes_all_work() {
    for mode in [
        ScheduleMode::Dynamic,
        ScheduleMode::BlockCyclic { block: 1 },
        ScheduleMode::ColumnWavefront,
    ] {
        let cfg = StressConfig {
            mode,
            ..StressConfig::default()
        };
        let outcome = run_seed(3, &cfg);
        assert!(
            outcome.passed(),
            "seed 3 under {mode:?} failed; repro: {}\nviolations:\n{}",
            outcome.repro_line(),
            outcome.violations.join("\n"),
        );
    }
}

#[test]
fn a_seed_replays_the_same_schedule_byte_for_byte() {
    let cfg = StressConfig::default();
    let a = StressPlan::from_seed(99, &cfg);
    let b = StressPlan::from_seed(99, &cfg);
    assert_eq!(a.describe(), b.describe());
    // And the run itself is reproducible at the invariant level: two runs
    // of the same plan agree on pass/fail.
    assert_eq!(run_plan(&a, &cfg).is_empty(), run_plan(&b, &cfg).is_empty());
}

// Regression for the static-mode liveness deadlock the harness caught on
// its first CI-scale sweep (`easyhps stress --seed 66 --mode cw
// --clauses 1,2`): a slave that crashed while holding no *overdue* task
// (its task had already been redispatched while it was stall-slow) was
// never judged for liveness, so it was never excluded — and the tiles it
// statically owned could never fall back to the surviving slave. The run
// hung forever. Fixed by sweeping heartbeat liveness for every slave on
// every FT poll, independent of the overtime queue.
#[test]
fn crash_with_nothing_overdue_does_not_deadlock_static_modes() {
    let plan = StressPlan {
        seed: 66,
        mode: ScheduleMode::ColumnWavefront,
        slaves: 2,
        workload: "swgg",
        len: 32,
        clauses: vec![
            FaultClause::Crash {
                rank: 1,
                after_sends: 37,
            },
            FaultClause::Stall {
                permille: 199,
                millis: 257,
            },
        ],
    };
    let cfg = StressConfig {
        mode: plan.mode,
        hang_timeout: Duration::from_secs(45),
        ..StressConfig::default()
    };
    let violations = run_plan(&plan, &cfg);
    assert!(violations.is_empty(), "{violations:?}");
}

// Regression for the transient-all-dead abort the harness caught next
// (`easyhps stress --seed 23`): one slave crashes early, the other is
// 98% heartbeat-starved. The eager liveness sweep briefly excluded both
// at once, and the master aborted with AllSlavesDead even though the
// starved slave was alive with a clean data link. The master now gives
// up only when every slave's channel is gone for good, and dispatches
// speculatively to silent-but-reachable slaves so a live one proves
// itself by ACKing (a hung one exhausts the retry budget and turns
// unreachable, so the run still fails fast).
#[test]
fn heartbeat_starvation_of_the_last_slave_is_survivable() {
    let plan = StressPlan {
        seed: 23,
        mode: ScheduleMode::Dynamic,
        slaves: 2,
        workload: "nussinov",
        len: 31,
        clauses: vec![
            FaultClause::LinkChaos {
                rank: 1,
                drop_pm: 29,
                dup_pm: 165,
                delay_pm: 249,
                delay_sends: 3,
            },
            FaultClause::StarveHeartbeats { rank: 2, pm: 980 },
            FaultClause::Crash {
                rank: 1,
                after_sends: 13,
            },
        ],
    };
    let cfg = StressConfig {
        hang_timeout: Duration::from_secs(45),
        ..StressConfig::default()
    };
    let violations = run_plan(&plan, &cfg);
    assert!(violations.is_empty(), "{violations:?}");
}

// A severed socket link must heal by redial: the slave keeps its state,
// reconnects under a bumped epoch, and the matrix still comes out
// bit-identical. Invariant 8 (`socket_reconnects >= 1` when a sever
// clause ran over a socket transport) makes a silent non-reconnect a
// failure rather than a vacuous pass.
#[test]
fn a_severed_tcp_link_heals_by_reconnecting() {
    let cfg = StressConfig {
        transport: easyhps_runtime::TransportKind::Tcp,
        hang_timeout: Duration::from_secs(60),
        ..StressConfig::default()
    };
    let plan = StressPlan {
        seed: 777,
        mode: ScheduleMode::Dynamic,
        slaves: 2,
        workload: "swgg",
        len: 48,
        clauses: vec![FaultClause::LinkSever {
            rank: 1,
            after_sends: 20,
            down_ms: 120,
        }],
    };
    let violations = run_plan(&plan, &cfg);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn an_empty_fault_schedule_is_a_clean_run() {
    let cfg = StressConfig::default();
    let plan = StressPlan::from_seed(5, &cfg).with_clauses(&[]);
    assert!(plan.clauses.is_empty());
    let violations = run_plan(&plan, &cfg);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn kill_master_seeds_recover_bit_identical() {
    let cfg = StressConfig::default();
    for seed in [2u64, 11] {
        let outcome = run_kill_seed(seed, &cfg);
        assert!(
            outcome.passed(),
            "seed {seed} failed; repro: {}\nviolations:\n{}\nplan: {:?}",
            outcome.repro_line(),
            outcome.violations.join("\n"),
            outcome.plan,
        );
        assert_eq!(outcome.verdict(), Verdict::Pass);
    }
}

#[test]
fn kill_plans_replay_byte_for_byte_and_vary() {
    assert_eq!(
        format!("{:?}", KillPlan::from_seed(7)),
        format!("{:?}", KillPlan::from_seed(7))
    );
    // The knobs actually vary across seeds: some plans chop the segment
    // tail, some corrupt a link, and the kill budget is not constant.
    let plans: Vec<KillPlan> = (0..80).map(KillPlan::from_seed).collect();
    assert!(plans.iter().any(|p| p.chop_tail.is_some()));
    assert!(plans.iter().any(|p| p.bitflip.is_some()));
    let budgets: std::collections::HashSet<u64> =
        plans.iter().map(|p| p.kill_after_sends).collect();
    assert!(budgets.len() > 10, "kill budgets vary ({})", budgets.len());
}

/// The verdict distinguishes a hang from an invariant failure, so the
/// one-line repro carries the failure class.
#[test]
fn hang_verdict_is_not_an_invariant_failure() {
    let cfg = StressConfig::default();
    let mut outcome = run_seed(1, &cfg);
    assert_eq!(outcome.verdict(), Verdict::Pass);
    outcome.violations = vec!["hang: no result within 60s (deadlock or livelock)".into()];
    assert_eq!(outcome.verdict(), Verdict::Hang);
    outcome.violations = vec!["matrix mismatch at (1, 1)".into()];
    assert_eq!(outcome.verdict(), Verdict::InvariantFailed);
}
