//! Facade-level tests for the beyond-the-paper features: EasyPDP mode,
//! DAG analysis, trace rendering, and the checkpoint workflow through the
//! re-exported API.

use easyhps::dp::sequence::{random_sequence, Alphabet};
use easyhps::dp::{DpProblem, Lcs, Nussinov};
use easyhps::runtime::{Checkpoint, CheckpointPolicy, EasyPdp};
use easyhps::EasyHps;
use std::collections::BTreeSet;

#[test]
fn easypdp_through_the_facade() {
    let a = random_sequence(Alphabet::Dna, 30, 80);
    let b = random_sequence(Alphabet::Dna, 34, 81);
    let p = Lcs::new(a.clone(), b.clone());
    let reference = p.solve_sequential();
    let out = EasyPdp::new(Lcs::new(a, b))
        .partition((6, 7))
        .threads(3)
        .run()
        .unwrap();
    assert_eq!(out.matrix, reference);
    assert!(out.busy_ns > 0 || out.subtasks > 0);
}

#[test]
fn dag_analysis_guides_partition_choice() {
    let rna = random_sequence(Alphabet::Rna, 100, 82);
    let p = Nussinov::new(rna);
    // Coarse partition: little parallelism. Fine partition: much more.
    let coarse = easyhps::DagDataDrivenModel::builder(p.pattern())
        .process_partition_size(easyhps::GridDims::square(50))
        .build()
        .master_dag()
        .analyze()
        .unwrap();
    let fine = easyhps::DagDataDrivenModel::builder(p.pattern())
        .process_partition_size(easyhps::GridDims::square(10))
        .build()
        .master_dag()
        .analyze()
        .unwrap();
    assert!(fine.max_width > coarse.max_width);
    assert!(fine.avg_parallelism > coarse.avg_parallelism);
    assert_eq!(coarse.vertices, 3); // 2x2 triangle
    assert_eq!(fine.vertices, 55); // 10x10 triangle
}

#[test]
fn trace_gantt_is_renderable_from_report() {
    let a = random_sequence(Alphabet::Dna, 30, 83);
    let b = random_sequence(Alphabet::Dna, 30, 84);
    let out = EasyHps::new(Lcs::new(a, b))
        .process_partition((8, 8))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(1)
        .run()
        .unwrap();
    let g = out.report.trace.gantt(50);
    // Which slaves compute is timing: one may finish the whole job before
    // the other announces itself. Every slave that computed has a lane
    // with a 50-cell bar that shows its tiles, no other slave has one,
    // and the time axis follows the lanes.
    let rows: Vec<(&str, &str)> = g
        .lines()
        .filter_map(|l| l.split_once(" |"))
        .map(|(name, bar)| (name.trim(), bar))
        .collect();
    for (name, bar) in &rows {
        assert!(
            bar.len() == 51 && bar.ends_with('|') && bar.contains('#'),
            "{name}: {g}"
        );
    }
    let lanes: BTreeSet<&str> = rows.iter().map(|(name, _)| *name).collect();
    let computed: BTreeSet<String> = (out.report.slaves.iter().enumerate())
        .filter(|(_, s)| s.is_some_and(|s| s.tasks_done > 0))
        .map(|(w, _)| format!("slave{w}"))
        .collect();
    assert!(!computed.is_empty(), "no slave computed: {g}");
    assert_eq!(lanes, computed.iter().map(String::as_str).collect(), "{g}");
    assert_eq!(g.lines().count(), rows.len() + 1, "{g}");
}

#[test]
fn checkpoint_workflow_on_a_triangular_dag() {
    // Budget stop into a checkpoint directory and resume from it on
    // Nussinov's triangular DAG, whose lower triangle no tile ever writes.
    let rna = random_sequence(Alphabet::Rna, 80, 85);
    let reference = Nussinov::new(rna.clone()).solve_sequential();
    let pattern = Nussinov::new(rna.clone()).pattern();
    let dir = std::env::temp_dir().join(format!("easyhps-facade-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let partial = EasyHps::new(Nussinov::new(rna.clone()))
        .process_partition((20, 20))
        .thread_partition((5, 5))
        .slaves(2)
        .threads_per_slave(2)
        .checkpoint_dir(&dir)
        .tile_budget(4)
        .run()
        .unwrap();
    let held = Checkpoint::load_dir(&dir).unwrap().expect("stopped early");
    assert_eq!(held.finished_len() as u64, partial.report.master.completed);
    assert!(held.finished_len() < 10, "the triangle has 10 tiles");

    let full = EasyHps::new(Nussinov::new(rna))
        .process_partition((20, 20))
        .thread_partition((5, 5))
        .slaves(2)
        .threads_per_slave(2)
        .checkpoint(CheckpointPolicy::new(&dir).with_resume(true))
        .run()
        .unwrap();
    assert_eq!(full.report.master.resumed, held.finished_len() as u64);
    std::fs::remove_dir_all(&dir).ok();
    for pos in reference.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(full.matrix.at(pos), reference.at(pos), "cell {pos}");
        }
    }
}
