//! Executing one stress plan against the real runtime and checking the
//! run invariants.

use crate::plan::{mix64, FaultClause, StressConfig, StressPlan};
use crate::shrink::shrink;
use easyhps_dp::DpProblem;
use easyhps_net::FaultPlan;
use easyhps_runtime::testing::StallProblem;
use easyhps_runtime::{tags, with_problem, EasyHps, RunOutput};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a seed ended, coarsened for exit codes and the repro line. A hang
/// is not an invariant failure: the run produced *no* result, the stuck
/// thread was leaked, and the trace file is left on disk for inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every invariant held.
    Pass,
    /// The run finished (or failed) and violated at least one invariant.
    InvariantFailed,
    /// No result within the hang timeout — deadlock or livelock.
    Hang,
}

/// Result of stressing one seed.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// The schedule that was run.
    pub plan: StressPlan,
    /// Invariant violations (empty = the seed passed).
    pub violations: Vec<String>,
    /// When the seed failed and shrinking was on: the minimal set of
    /// clause indices that still reproduces a failure.
    pub minimized: Option<Vec<usize>>,
    /// Wall-clock time spent on this seed (shrinking included).
    pub elapsed: Duration,
}

impl SeedOutcome {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Coarse verdict: pass, invariant failure, or hang.
    pub fn verdict(&self) -> Verdict {
        if self.violations.is_empty() {
            Verdict::Pass
        } else if self.violations.iter().any(|v| v.starts_with("hang:")) {
            Verdict::Hang
        } else {
            Verdict::InvariantFailed
        }
    }

    /// The one-line repro command for a failing seed.
    pub fn repro_line(&self) -> String {
        let mode = match self.plan.mode {
            easyhps_core::ScheduleMode::Dynamic => "dynamic",
            easyhps_core::ScheduleMode::BlockCyclic { .. } => "bcw",
            easyhps_core::ScheduleMode::ColumnWavefront => "cw",
        };
        let clauses = match &self.minimized {
            Some(keep) if keep.len() < self.plan.clauses.len() => {
                if keep.is_empty() {
                    " --clauses none".to_string()
                } else {
                    format!(
                        " --clauses {}",
                        keep.iter()
                            .map(|i| i.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                }
            }
            _ => String::new(),
        };
        format!(
            "easyhps stress --seed {} --mode {mode}{clauses}",
            self.plan.seed
        )
    }
}

/// Derive the plan for `seed`, run it, and (on failure) minimize the
/// fault schedule.
pub fn run_seed(seed: u64, cfg: &StressConfig) -> SeedOutcome {
    let t0 = Instant::now();
    let plan = StressPlan::from_seed(seed, cfg);
    let violations = run_plan(&plan, cfg);
    let minimized = (cfg.shrink && !violations.is_empty() && !plan.clauses.is_empty()).then(|| {
        shrink(plan.clauses.len(), |keep| {
            !run_plan(&plan.with_clauses(keep), cfg).is_empty()
        })
    });
    SeedOutcome {
        plan,
        violations,
        minimized,
        elapsed: t0.elapsed(),
    }
}

/// Run one plan against the real runtime; return the invariant
/// violations (empty = pass).
pub fn run_plan(plan: &StressPlan, cfg: &StressConfig) -> Vec<String> {
    match plan.problem() {
        Ok(problem) => with_problem!(&problem, p => drive(plan, cfg, p)),
        Err(e) => vec![format!("run failed: {e}")],
    }
}

/// Per-rank [`FaultPlan`]s folded from the plan's clauses. Index = rank
/// (0 = master); `None` = clean link.
fn rank_fault_plans(plan: &StressPlan) -> Vec<Option<FaultPlan>> {
    let mut plans: Vec<Option<FaultPlan>> = vec![None; plan.slaves + 1];
    fn touch(plans: &mut [Option<FaultPlan>], seed: u64, rank: u32) -> &mut FaultPlan {
        plans[rank as usize].get_or_insert_with(|| FaultPlan {
            // Distinct deterministic stream per rank, all from one seed.
            seed: mix64(seed ^ (0x1000 + rank as u64)),
            ..FaultPlan::default()
        })
    }
    for clause in &plan.clauses {
        match *clause {
            FaultClause::LinkChaos {
                rank,
                drop_pm,
                dup_pm,
                delay_pm,
                delay_sends,
            } => {
                let p = touch(&mut plans, plan.seed, rank);
                p.drop_prob = drop_pm as f64 / 1000.0;
                p.dup_prob = dup_pm as f64 / 1000.0;
                p.delay_prob = delay_pm as f64 / 1000.0;
                p.delay_sends = delay_sends;
            }
            FaultClause::StarveHeartbeats { rank, pm } => {
                touch(&mut plans, plan.seed, rank)
                    .tag_drops
                    .push((tags::HEARTBEAT, pm as f64 / 1000.0));
            }
            FaultClause::Crash { rank, after_sends } => {
                touch(&mut plans, plan.seed, rank).die_after_sends = Some(after_sends);
            }
            FaultClause::Stall { .. } => {} // handled at the kernel level
            FaultClause::BitFlip { rank, pm } => {
                touch(&mut plans, plan.seed, rank).bitflip_prob = pm as f64 / 1000.0;
            }
            FaultClause::LinkSever {
                rank,
                after_sends,
                down_ms,
            } => {
                touch(&mut plans, plan.seed, rank).link_sever = Some(easyhps_net::LinkSever {
                    at: after_sends,
                    down_for: Duration::from_millis(down_ms),
                });
            }
        }
    }
    plans
}

static TRACE_NONCE: AtomicU64 = AtomicU64::new(0);

fn drive<P>(plan: &StressPlan, cfg: &StressConfig, problem: P) -> Vec<String>
where
    P: DpProblem + Clone + Send + 'static,
{
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();

    let (stall_pm, stall_ms) = plan
        .clauses
        .iter()
        .find_map(|c| match c {
            FaultClause::Stall { permille, millis } => Some((*permille, *millis)),
            _ => None,
        })
        .unwrap_or((0, 0));
    let stalled = StallProblem::new(
        problem,
        mix64(plan.seed ^ 0x57a11),
        stall_pm,
        Duration::from_millis(stall_ms),
    );

    let trace_path: PathBuf = std::env::temp_dir().join(format!(
        "easyhps-stress-{}-{}-{}.trace.json",
        std::process::id(),
        plan.seed,
        TRACE_NONCE.fetch_add(1, Ordering::Relaxed)
    ));

    let has_sever = plan
        .clauses
        .iter()
        .any(|c| matches!(c, FaultClause::LinkSever { .. }));
    let socket_transport = cfg.transport != easyhps_runtime::TransportKind::InProcess;

    let mut hps = EasyHps::new(stalled)
        .slaves(plan.slaves)
        .threads_per_slave(2)
        .process_partition((8, 8))
        .thread_partition((4, 4))
        .process_mode(plan.mode)
        .transport(cfg.transport)
        .task_timeout(Duration::from_millis(300))
        .heartbeat(Duration::from_millis(20), Duration::from_millis(150))
        .metrics(true)
        .trace_out(&trace_path);
    if has_sever && socket_transport {
        // A severed socket is a rejoin: the slave redials on its rank and
        // the master admits it under a bumped fleet epoch. (In-process
        // channel links cannot drop; the clause is inert there.)
        hps = hps.reconnect(Duration::from_secs(10));
    }
    for (rank, fp) in rank_fault_plans(plan).into_iter().enumerate() {
        let Some(fp) = fp else { continue };
        hps = if rank == 0 {
            hps.inject_master_fault(fp)
        } else {
            hps.inject_fault(rank - 1, fp)
        };
    }
    let n_tiles = hps.model().master_dag().len() as u64;
    // A crashed slave must end excluded; a fully heartbeat-starved one
    // legitimately may (it is indistinguishable from a dead one, and
    // exclusion is the correct response) — either clause waives the
    // no-permanent-exclusion liveness invariant.
    let exclusion_expected = plan.clauses.iter().any(|c| {
        matches!(
            c,
            FaultClause::Crash { .. } | FaultClause::StarveHeartbeats { .. }
        )
    });

    // Watchdog: the run happens on its own thread; if no result appears
    // within the hang timeout, the seed fails (the stuck thread is
    // leaked — the harness process is about to report and exit anyway).
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(hps.run());
    });
    let result = match rx.recv_timeout(cfg.hang_timeout) {
        Ok(r) => r,
        Err(_) => {
            return vec![format!(
                "hang: no result within {:?} (deadlock or livelock)",
                cfg.hang_timeout
            )];
        }
    };

    let mut v: Vec<String> = Vec::new();
    let out: RunOutput<P::Cell> = match result {
        Ok(out) => out,
        Err(e) => {
            let _ = std::fs::remove_file(&trace_path);
            return vec![format!("run failed: {e}")];
        }
    };

    // Invariant 1: the matrix is bit-identical to the sequential kernel.
    let mut mismatches = 0u64;
    for pos in reference.dims().iter() {
        if pattern.contains(pos) && out.matrix.at(pos) != reference.at(pos) {
            mismatches += 1;
            if mismatches <= 3 {
                v.push(format!(
                    "matrix mismatch at {pos}: got {:?}, sequential says {:?}",
                    out.matrix.at(pos),
                    reference.at(pos)
                ));
            }
        }
    }
    if mismatches > 3 {
        v.push(format!("... {mismatches} mismatched cells total"));
    }

    // Invariant 2: every tile accepted exactly once, none lost.
    let m = &out.report.master;
    if m.completed != n_tiles {
        v.push(format!(
            "tile accounting: completed={} but the DAG has {n_tiles} tiles",
            m.completed
        ));
    }

    // Invariant 3: stats conservation — every dispatch ends in exactly
    // one of {accepted completion, cancelled-and-redispatched}.
    if m.dispatched != (m.completed - m.resumed) + m.redispatched {
        v.push(format!(
            "stats conservation: dispatched={} != (completed={} - resumed={}) \
             + redispatched={}",
            m.dispatched, m.completed, m.resumed, m.redispatched
        ));
    }

    // Invariant 4: one master-observed span per accepted tile.
    if out.report.trace.spans.len() as u64 != m.completed - m.resumed {
        v.push(format!(
            "trace spans: {} spans for {} accepted completions",
            out.report.trace.spans.len(),
            m.completed - m.resumed
        ));
    }

    // Invariant 5: without a planned crash or heartbeat starvation,
    // nobody ends up permanently dead (exclusions must heal via
    // re-admission). A link sever that actually fired also waives this:
    // when the outage outlasts the rest of the run, the survivor
    // finishes the matrix while the severed rank is still excluded for
    // silence — correct behaviour, indistinguishable at run end from a
    // silent death. A sever clause that never triggered waives nothing.
    let severs_fired = out
        .metrics
        .as_ref()
        .map_or(0, |reg| reg.snapshot().counter_total("net_links_severed"));
    if !exclusion_expected && severs_fired == 0 && m.dead_slaves != 0 {
        v.push(format!(
            "liveness: {} slave(s) permanently excluded with no crash or \
             heartbeat-starvation clause in the plan",
            m.dead_slaves
        ));
    }

    // Invariant 6: the emitted Chrome trace passes the structural
    // validator and records exactly the accepted tiles.
    match std::fs::read_to_string(&trace_path) {
        Ok(text) => match easyhps_obs::validate_chrome_trace(&text) {
            Ok(summary) => {
                let tiles = summary.count("tile") as u64;
                if tiles != m.completed - m.resumed {
                    v.push(format!(
                        "trace: {tiles} 'tile' events for {} accepted \
                         completions",
                        m.completed - m.resumed
                    ));
                }
            }
            Err(e) => v.push(format!("trace validation: {e}")),
        },
        Err(e) => v.push(format!("trace file unreadable: {e}")),
    }
    let _ = std::fs::remove_file(&trace_path);

    // Invariant 7: a corrupting link never goes unnoticed — if the fault
    // layer flipped bits in a meaningful number of outgoing messages, the
    // CRC-guarded framing must have caught at least one (a corrupted
    // frame that *verifies* would instead surface as a matrix mismatch,
    // but this catches silent accounting bugs too). The >= 3 floor skips
    // runs where the seeded flips never actually fired.
    if let Some(metrics) = &out.metrics {
        let snap = metrics.snapshot();
        let injected = snap.counter_total("net_msgs_corrupted");
        let caught = snap.counter_total("net_frames_corrupt");
        if injected >= 3 && caught == 0 {
            v.push(format!(
                "corruption defense: {injected} messages were bit-flipped \
                 but zero frames failed the CRC check"
            ));
        }

        // Invariant 8: a link sever that actually *fired* over a socket
        // transport is a rejoin — `net_links_severed` proves the cable
        // was pulled (a clause whose send threshold was never reached is
        // vacuous, like invariant 7's un-fired bit flips), and the
        // master's rejoin counter proves the slave redialled and was
        // admitted as a new incarnation; the bit-identical matrix above
        // already vouches for its work. A rejoin is owed by every slave
        // whose run the sever cut while the job still needed it
        // (`slave_rejoins_owed`): a sever under a short job's last sends
        // (the slave's teardown, or the master finishing while the slave
        // is dark) owes none. No tile computed under a stale epoch is
        // ever accepted: the master's epoch fence rejects late DONEs from
        // the pre-sever incarnation, and any fence leak would surface as
        // invariant 2/3 double-accounting.
        let severed = snap.counter_total("net_links_severed");
        let owed = snap.counter_total("slave_rejoins_owed");
        if has_sever && socket_transport && severed >= 1 && m.rejoins < owed {
            v.push(format!(
                "rejoin: {severed} link sever(s) fired over a socket \
                 transport but the master counted no rejoin (the severed \
                 slave never came back)"
            ));
        }
    }

    v
}
