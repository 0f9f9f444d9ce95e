//! End-to-end drills of durable incremental checkpointing: a hard master
//! kill mid-run must be recoverable from the on-disk segments alone, with
//! the final matrix bit-identical to the sequential reference.

use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpProblem, EditDistance};
use easyhps_net::FaultPlan;
use easyhps_runtime::{Checkpoint, CheckpointPolicy, EasyHps, RuntimeError, TransportKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
        .checkpoint(
            CheckpointPolicy::new(&dir)
                .with_every_tiles(1)
                .with_resume(true),
        )
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
/// directory alone resumes the run, and it then holds the whole run and
/// nothing but segment files.
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

    let cp = Checkpoint::load_dir(&dir).unwrap().expect("store exists");
    assert_eq!(
        cp.finished_len() as u64,
        partial.report.master.completed,
        "teardown flush covers every accepted tile"
    );

    let out = builder(p)
        .checkpoint(CheckpointPolicy::new(&dir).with_resume(true))
        .run()
        .expect("resumed run completes");
    assert_eq!(out.matrix, reference);
    assert_eq!(out.report.master.resumed, cp.finished_len() as u64);

    let full = Checkpoint::load_dir(&dir).unwrap().expect("store exists");
    assert_eq!(
        full.finished_len(),
        25,
        "the final flush covers the whole run"
    );
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            name.starts_with("seg-") && name.ends_with(".bin"),
            "only segment files: {name}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Pointing a *fresh* run at a directory holding prior progress is a
/// configuration error, not silent interleaving of two runs. The master
/// fails after its slaves have started the job, on every transport, and
/// the run still returns at once.
#[test]
fn dirty_directory_without_resume_is_refused() {
    for kind in [
        TransportKind::InProcess,
        TransportKind::Tcp,
        TransportKind::Uds,
    ] {
        let dir = tmp_dir("dirty");
        let p = problem();

        builder(p.clone())
            .transport(kind)
            .checkpoint(CheckpointPolicy::new(&dir))
            .tile_budget(5)
            .run()
            .expect("first run");

        let t = Instant::now();
        let err = builder(p)
            .transport(kind)
            .checkpoint(CheckpointPolicy::new(&dir))
            .run()
            .expect_err("unresumed dirty directory is refused");
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "{kind:?}: the failed run took {:?}",
            t.elapsed()
        );
        assert!(
            matches!(err, RuntimeError::Checkpoint(_)),
            "{kind:?}: {err}"
        );
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
}

/// A flush cadence of 0 tiles would write nothing before a crash: the run
/// is refused as misconfigured before it computes anything.
#[test]
fn zero_flush_cadence_is_invalid_config() {
    let dir = tmp_dir("cadence");
    let err = builder(problem())
        .checkpoint(CheckpointPolicy::new(&dir).with_every_tiles(0))
        .run()
        .expect_err("cadence 0 is refused");
    assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
    assert!(!dir.exists(), "a refused policy creates nothing");
}

/// A directory written under other partition sizes (same matrix) names
/// other tiles by the same ids: resuming from it is refused, not
/// silently mixed into this run's tiles.
#[test]
fn resume_under_another_partitioning_is_refused() {
    let dir = tmp_dir("partition");
    let p = problem();
    builder(p.clone())
        .checkpoint(CheckpointPolicy::new(&dir))
        .tile_budget(5)
        .run()
        .expect("first run");

    let err = builder(p)
        .process_partition((10, 10))
        .checkpoint(CheckpointPolicy::new(&dir).with_resume(true))
        .run()
        .expect_err("another partitioning is refused");
    assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
    assert!(err.to_string().contains("partitioning"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
