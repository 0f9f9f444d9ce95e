//! The kill-master drill: run to a seeded progress point with durable
//! checkpointing on, kill the master, then restart from the checkpoint
//! *directory* — not from any in-memory state — and check that recovery
//! is exact.
//!
//! Each seed derives a [`KillPlan`]: workload, cluster shape, the
//! master's send budget (its endpoint dies mid-run, which is what a
//! process kill looks like from the network), the checkpoint cadence,
//! an optional torn-tail chop (bytes truncated from the newest segment
//! file, simulating a crash mid-append), and an optional corrupting
//! link. The recovery invariants:
//!
//! 1. the resumed run completes and its matrix is bit-identical to the
//!    sequential kernel;
//! 2. `resumed` equals exactly the tiles the directory held
//!    (`Checkpoint::load_dir`), and `master_tiles_restored` agrees;
//! 3. stats conservation still holds across the restart:
//!    `dispatched == (completed - resumed) + redispatched`;
//! 4. with a corrupting link, flipped frames are caught by the CRC
//!    check, never silently decoded.

use crate::plan::{draw_workload, mix64, seeded_problem, StressConfig};
use crate::run::{matrix_mismatches, run_watched, Verdict};
use easyhps_dp::DpProblem;
use easyhps_net::FaultPlan;
use easyhps_runtime::{with_problem, Checkpoint, CheckpointPolicy, EasyHps};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A seeded crash-recovery schedule. Like `StressPlan`, deriving one
/// from its seed is pure: the same seed reproduces byte for byte.
#[derive(Clone, Debug)]
pub struct KillPlan {
    /// The seed everything derives from.
    pub seed: u64,
    /// Slave count (the master is rank 0 on top).
    pub slaves: usize,
    /// Which DP problem to run: a `RemoteProblem::NAMES` entry.
    pub workload: &'static str,
    /// Input sequence length.
    pub len: u32,
    /// The master endpoint dies after this many send attempts.
    pub kill_after_sends: u64,
    /// Checkpoint flush cadence, in accepted tiles.
    pub every_tiles: u64,
    /// Segment count that triggers compaction.
    pub compact_after: usize,
    /// Truncate this many bytes off the newest segment file after the
    /// kill — a crash mid-append. The torn tail must be discarded, the
    /// prefix must survive.
    pub chop_tail: Option<u32>,
    /// Corrupting link: `(rank, permille)` — deterministic bit flips on
    /// that rank's outgoing frames, in both the killed and resumed run.
    pub bitflip: Option<(u32, u32)>,
}

impl KillPlan {
    /// Derive the whole schedule from one seed. Draws are ordered and
    /// appended-only: new knobs must draw *after* every existing one so
    /// old seeds keep their schedules.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x6b17));
        let slaves = rng.random_range(2..=3usize);
        let workload = draw_workload(&mut rng);
        let len = 26 + rng.random_range(0..8u32);
        // 25-ish tiles need well over 50 sends (ASSIGNs + acks) to
        // finish; this budget ranges from "dies almost immediately" to
        // "dies near the end".
        let kill_after_sends = rng.random_range(10..=120u64);
        let every_tiles = rng.random_range(1..=3u64);
        let compact_after = rng.random_range(2..=4usize);
        let chop_tail = rng.random_bool(0.5).then(|| rng.random_range(1..=40u32));
        let bitflip = rng.random_bool(0.35).then(|| {
            (
                rng.random_range(0..=slaves as u32),
                rng.random_range(5..=15u32),
            )
        });
        Self {
            seed,
            slaves,
            workload,
            len,
            kill_after_sends,
            every_tiles,
            compact_after,
            chop_tail,
            bitflip,
        }
    }
}

/// Result of one kill-master seed.
#[derive(Clone, Debug)]
pub struct KillOutcome {
    /// The schedule that was run.
    pub plan: KillPlan,
    /// Invariant violations (empty = the seed passed).
    pub violations: Vec<String>,
    /// Wall-clock time spent on this seed.
    pub elapsed: Duration,
}

impl KillOutcome {
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
        format!("easyhps stress --kill-master --seed {}", self.plan.seed)
    }
}

/// Derive the kill plan for `seed` and run the two-phase drill.
pub fn run_kill_seed(seed: u64, cfg: &StressConfig) -> KillOutcome {
    let t0 = Instant::now();
    let plan = KillPlan::from_seed(seed);
    let violations = match seeded_problem(plan.workload, plan.len, seed) {
        Ok(problem) => with_problem!(&problem, p => drive_kill(&plan, cfg, p)),
        Err(e) => vec![format!("run failed: {e}")],
    };
    KillOutcome {
        plan,
        violations,
        elapsed: t0.elapsed(),
    }
}

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

/// Deterministic bit-flip plan for one rank.
fn flip_plan(seed: u64, rank: u32, pm: u32) -> FaultPlan {
    FaultPlan {
        seed: mix64(seed ^ (0x2000 + rank as u64)),
        ..FaultPlan::default()
    }
    .with_bitflips(pm as f64 / 1000.0)
}

/// Truncate `bytes` off the end of the newest (highest-index) segment
/// file — a torn append. No-op when the directory has no segments.
fn chop_newest_segment(dir: &Path, bytes: u32) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let newest = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .max();
    if let Some(path) = newest {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let len = f.metadata().map(|m| m.len()).unwrap_or(0);
            let _ = f.set_len(len.saturating_sub(bytes as u64));
        }
    }
}

fn drive_kill<P>(plan: &KillPlan, cfg: &StressConfig, problem: P) -> Vec<String>
where
    P: DpProblem + Clone + Send + 'static,
{
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "easyhps-stress-kill-{}-{}-{}",
        std::process::id(),
        plan.seed,
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let policy = CheckpointPolicy::new(&dir)
        .with_every_tiles(plan.every_tiles)
        .with_compact_after(plan.compact_after);

    let build = |p: P| {
        let mut hps = EasyHps::new(p)
            .slaves(plan.slaves)
            .threads_per_slave(2)
            .process_partition((8, 8))
            .thread_partition((4, 4))
            .transport(cfg.transport)
            .task_timeout(Duration::from_millis(300))
            .heartbeat(Duration::from_millis(20), Duration::from_millis(150))
            .checkpoint(policy.clone());
        if let Some((rank, pm)) = plan.bitflip {
            let fp = flip_plan(plan.seed, rank, pm);
            hps = if rank == 0 {
                hps.inject_master_fault(fp)
            } else {
                hps.inject_fault(rank as usize - 1, fp)
            };
        }
        hps
    };

    let mut v = Vec::new();

    // Phase 1: run with a send budget on the master's endpoint — it dies
    // mid-run, exactly like a process kill as seen from the network.
    let mut kill_fp = FaultPlan::die_after(plan.kill_after_sends);
    if let Some((0, pm)) = plan.bitflip {
        kill_fp = kill_fp.with_bitflips(pm as f64 / 1000.0);
        kill_fp.seed = mix64(plan.seed ^ 0x2000);
    }
    let hps1 = build(problem.clone()).inject_master_fault(kill_fp);
    match run_watched(hps1, cfg.hang_timeout) {
        None => {
            v.push(format!(
                "hang: killed run produced no result within {:?} \
                 (death must surface as an error, not a wedge)",
                cfg.hang_timeout
            ));
            return v;
        }
        // A generous budget can let the run finish — fine; the directory
        // then holds the full run and the resume phase still exercises
        // load + replay.
        Some(Ok(out)) => {
            if out.matrix != reference {
                v.push("killed run finished but its matrix is wrong".into());
            }
        }
        Some(Err(_)) => {} // the expected mid-run death
    }

    // A crash can tear the append in progress: chop the newest segment
    // and require the prefix to survive.
    if let Some(bytes) = plan.chop_tail {
        chop_newest_segment(&dir, bytes);
    }

    // Phase 2: recover from the directory alone.
    let cp = match Checkpoint::load_dir(&dir) {
        Ok(cp) => cp,
        Err(e) => {
            v.push(format!("checkpoint directory unreadable after kill: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            return v;
        }
    };
    let restored = cp.as_ref().map_or(0, |c| c.finished_len()) as u64;

    let mut hps2 = build(problem).metrics(true);
    if let Some(cp) = cp {
        hps2 = hps2.resume_from(cp);
    }
    let n_tiles = hps2.model().master_dag().len() as u64;
    let out = match run_watched(hps2, cfg.hang_timeout) {
        None => {
            v.push(format!(
                "hang: resumed run produced no result within {:?}",
                cfg.hang_timeout
            ));
            return v;
        }
        Some(Err(e)) => {
            v.push(format!("resumed run failed: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            return v;
        }
        Some(Ok(out)) => out,
    };

    // Invariant 1: bit-identical recovery.
    v.extend(matrix_mismatches(
        &out.matrix,
        &reference,
        pattern.as_ref(),
        " after resume",
    ));

    // Invariant 2: the resumed run skipped exactly the durable tiles.
    let m = &out.report.master;
    if m.completed != n_tiles {
        v.push(format!(
            "tile accounting: completed={} but the DAG has {n_tiles} tiles",
            m.completed
        ));
    }
    if m.resumed != restored {
        v.push(format!(
            "resume accounting: the directory held {restored} tiles but \
             the run resumed {}",
            m.resumed
        ));
    }

    // Invariant 3: stats conservation across the restart.
    if m.dispatched != (m.completed - m.resumed) + m.redispatched {
        v.push(format!(
            "stats conservation: dispatched={} != (completed={} - \
             resumed={}) + redispatched={}",
            m.dispatched, m.completed, m.resumed, m.redispatched
        ));
    }

    if let Some(metrics) = &out.metrics {
        let snap = metrics.snapshot();
        // Invariant 2b: the restored-from-disk counter agrees.
        if snap.counter("master_tiles_restored") != Some(restored) {
            v.push(format!(
                "master_tiles_restored={:?} but the directory held \
                 {restored} tiles",
                snap.counter("master_tiles_restored")
            ));
        }
        // Invariant 4: bit flips never decode — they get caught.
        let injected = snap.counter_total("net_msgs_corrupted");
        let caught = snap.counter_total("net_frames_corrupt");
        if injected >= 3 && caught == 0 {
            v.push(format!(
                "corruption defense: {injected} messages were bit-flipped \
                 but zero frames failed the CRC check"
            ));
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    v
}
