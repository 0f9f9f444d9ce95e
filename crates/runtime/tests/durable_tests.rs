//! End-to-end drills of durable incremental checkpointing: a hard master
//! kill mid-run must be recoverable from the on-disk segments alone, with
//! the final matrix bit-identical to the sequential reference.

use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpProblem, EditDistance};
use easyhps_net::FaultPlan;
use easyhps_runtime::{Checkpoint, CheckpointPolicy, EasyHps, RuntimeError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "easyhps-durable-e2e-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn problem() -> EditDistance {
    let a = random_sequence(Alphabet::Dna, 50, 31);
    let b = random_sequence(Alphabet::Dna, 50, 32);
    EditDistance::new(a, b)
}

fn builder(p: EditDistance) -> EasyHps<EditDistance> {
    // 51x51 matrix in 11x11 tiles -> 5x5 = 25 sub-tasks.
    EasyHps::new(p)
        .process_partition((11, 11))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
}

/// The tentpole invariant: kill the master's endpoint mid-run (its sends
/// start failing after a budget, exactly like a process kill as seen from
/// the network), then restart from the checkpoint *directory* — not from
/// any in-memory state — and the final matrix is bit-identical to the
/// sequential reference, with the restored tiles accounted.
#[test]
fn hard_master_kill_resumes_from_disk_bit_identical() {
    let dir = tmp_dir("kill");
    let p = problem();
    let reference = p.solve_sequential();

    // 25 tiles need >= 25 ASSIGN sends to finish (the slaves carry no
    // plan, so their DONEs arrive unacked); a 15-send budget on the master
    // endpoint guarantees death mid-run, after more than ten completions.
    let crashed = builder(p.clone())
        .checkpoint(CheckpointPolicy::new(&dir).with_every_tiles(1))
        .inject_master_fault(FaultPlan::die_after(15))
        .run();
    assert!(crashed.is_err(), "the master cannot finish on 15 sends");

    let cp = Checkpoint::load_dir(&dir)
        .expect("directory is readable")
        .expect("the run flushed segments before dying");
    let restored = cp.finished_len() as u64;
    assert!(restored > 0, "some accepted tiles were durable");

    let out = builder(p)
        .checkpoint(CheckpointPolicy::new(&dir).with_every_tiles(1))
        .resume_from(cp)
        .metrics(true)
        .run()
        .expect("resumed run completes");
    assert_eq!(out.matrix, reference, "bit-identical after kill + resume");

    let m = &out.report.master;
    assert_eq!(m.resumed, restored);
    assert_eq!(
        m.dispatched,
        m.completed + m.redispatched - m.resumed,
        "conservation: every non-resumed completion was dispatched"
    );
    let snap = out.metrics.unwrap().snapshot();
    assert_eq!(snap.counter("master_tiles_restored"), Some(restored));
    assert!(snap.counter("checkpoint_bytes").unwrap_or(0) > 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// A graceful budget stop flushes everything it accepted at teardown: the
/// directory alone can resume the run, no in-memory checkpoint needed.
#[test]
fn budget_stop_leaves_a_resumable_directory() {
    let dir = tmp_dir("budget");
    let p = problem();
    let reference = p.solve_sequential();

    let partial = builder(p.clone())
        .checkpoint(CheckpointPolicy::new(&dir))
        .tile_budget(10)
        .run()
        .expect("budget stop is a clean exit");
    let in_memory = partial.checkpoint.expect("budget stop checkpoints");

    let cp = Checkpoint::load_dir(&dir).unwrap().expect("store exists");
    assert_eq!(
        cp.finished_len(),
        in_memory.finished_len(),
        "teardown flush covers every accepted tile"
    );

    let out = builder(p)
        .checkpoint(CheckpointPolicy::new(&dir))
        .resume_from(cp)
        .run()
        .expect("resumed run completes");
    assert_eq!(out.matrix, reference);

    std::fs::remove_dir_all(&dir).ok();
}

/// Pointing a *fresh* run at a directory holding prior progress is a
/// configuration error, not silent interleaving of two runs.
#[test]
fn dirty_directory_without_resume_is_refused() {
    let dir = tmp_dir("dirty");
    let p = problem();

    builder(p.clone())
        .checkpoint(CheckpointPolicy::new(&dir))
        .tile_budget(5)
        .run()
        .expect("first run");

    let err = builder(p)
        .checkpoint(CheckpointPolicy::new(&dir))
        .run()
        .expect_err("unresumed dirty directory is refused");
    assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
    // The refusal must name the offending directory and suggest both
    // ways out: resume the prior run, or pick a fresh directory.
    let msg = err.to_string();
    assert!(
        msg.contains(dir.to_str().unwrap()),
        "refusal must name the directory: {msg}"
    );
    assert!(
        msg.contains("--resume"),
        "refusal must suggest --resume: {msg}"
    );
    assert!(
        msg.contains("--checkpoint-dir"),
        "refusal must suggest a fresh --checkpoint-dir: {msg}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Interval-based capture: with the tile trigger off, progress still
/// reaches disk on the clock.
#[test]
fn interval_trigger_flushes_without_tile_threshold() {
    let dir = tmp_dir("interval");
    let p = problem();
    let reference = p.solve_sequential();

    let out = builder(p)
        .checkpoint(
            CheckpointPolicy::new(&dir)
                .with_every_tiles(0)
                .with_interval(std::time::Duration::from_millis(1)),
        )
        .run()
        .expect("run completes");
    assert_eq!(out.matrix, reference);

    let cp = Checkpoint::load_dir(&dir).unwrap().expect("store exists");
    assert_eq!(cp.finished_len(), 25, "final flush covers the whole run");

    std::fs::remove_dir_all(&dir).ok();
}
