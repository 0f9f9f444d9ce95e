//! End-to-end tests of the multilevel runtime: correctness against the
//! sequential reference for every algorithm and scheduling mode, plus the
//! fault-tolerance drills.

use easyhps_core::{DagDataDrivenModel, DagPattern, GridDims, TileRegion};
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{
    DpGrid, DpProblem, EditDistance, Lcs, MatrixChain, Nussinov, OptimalBst, Quadrant2D2D,
    SmithWatermanAffine, SmithWatermanGeneralGap,
};
use easyhps_net::{FaultPlan, Network};
use easyhps_runtime::testing::FaultyProblem;
use easyhps_runtime::{run_master, run_slave, Deployment, EasyHps, RuntimeError, ScheduleMode};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Run `problem` through the full runtime and compare present cells to the
/// sequential reference.
fn assert_runtime_matches<P: DpProblem + Clone>(
    problem: P,
    configure: impl FnOnce(EasyHps<P>) -> EasyHps<P>,
) {
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let out = configure(EasyHps::new(problem))
        .run()
        .expect("run succeeds");
    for p in reference.dims().iter() {
        if pattern.contains(p) {
            assert_eq!(out.matrix.at(p), reference.at(p), "cell {p}");
        }
    }
}

#[test]
fn edit_distance_on_runtime() {
    let a = random_sequence(Alphabet::Dna, 57, 1);
    let b = random_sequence(Alphabet::Dna, 49, 2);
    assert_runtime_matches(EditDistance::new(a, b), |e| {
        e.process_partition((10, 10))
            .thread_partition((4, 4))
            .slaves(3)
            .threads_per_slave(2)
    });
}

#[test]
fn swgg_on_runtime() {
    let a = random_sequence(Alphabet::Dna, 40, 3);
    let b = random_sequence(Alphabet::Dna, 44, 4);
    assert_runtime_matches(SmithWatermanGeneralGap::dna(a, b), |e| {
        e.process_partition((8, 8))
            .thread_partition((3, 3))
            .slaves(2)
            .threads_per_slave(3)
    });
}

#[test]
fn sw_affine_on_runtime() {
    let a = random_sequence(Alphabet::Dna, 35, 5);
    let b = random_sequence(Alphabet::Dna, 31, 6);
    assert_runtime_matches(SmithWatermanAffine::dna(a, b), |e| {
        e.process_partition((7, 9))
            .thread_partition((3, 4))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn nussinov_on_runtime() {
    let rna = random_sequence(Alphabet::Rna, 50, 7);
    assert_runtime_matches(Nussinov::new(rna), |e| {
        e.process_partition((10, 10))
            .thread_partition((4, 4))
            .slaves(3)
            .threads_per_slave(2)
    });
}

#[test]
fn lcs_on_runtime() {
    let a = random_sequence(Alphabet::Protein, 30, 8);
    let b = random_sequence(Alphabet::Protein, 33, 9);
    assert_runtime_matches(Lcs::new(a, b), |e| {
        e.process_partition((6, 6))
            .thread_partition((2, 2))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn matrix_chain_on_runtime() {
    let dims: Vec<u64> = (0..=24).map(|i| 2 + (i * 11 % 19)).collect();
    assert_runtime_matches(MatrixChain::new(dims), |e| {
        e.process_partition((6, 6))
            .thread_partition((2, 2))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn obst_on_runtime() {
    let freq: Vec<u64> = (0..20).map(|i| 1 + (i * 7 % 13)).collect();
    assert_runtime_matches(OptimalBst::new(freq), |e| {
        e.process_partition((5, 5))
            .thread_partition((2, 2))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn quadrant_2d2d_on_runtime() {
    assert_runtime_matches(Quadrant2D2D::new(20, 77), |e| {
        e.process_partition((6, 6))
            .thread_partition((3, 3))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn block_cyclic_wavefront_is_correct_too() {
    // The BCW baseline must produce identical results, only slower.
    let a = random_sequence(Alphabet::Dna, 36, 11);
    let b = random_sequence(Alphabet::Dna, 36, 12);
    assert_runtime_matches(SmithWatermanGeneralGap::dna(a, b), |e| {
        e.process_partition((6, 6))
            .thread_partition((3, 3))
            .slaves(3)
            .threads_per_slave(2)
            .process_mode(ScheduleMode::BlockCyclic { block: 1 })
            .thread_mode(ScheduleMode::BlockCyclic { block: 1 })
    });
}

#[test]
fn column_wavefront_is_correct_too() {
    let rna = random_sequence(Alphabet::Rna, 40, 13);
    assert_runtime_matches(Nussinov::new(rna), |e| {
        e.process_partition((8, 8))
            .thread_partition((4, 4))
            .slaves(2)
            .threads_per_slave(2)
            .process_mode(ScheduleMode::ColumnWavefront)
            .thread_mode(ScheduleMode::ColumnWavefront)
    });
}

#[test]
fn single_slave_single_thread_degenerate() {
    let a = random_sequence(Alphabet::Dna, 20, 14);
    let b = random_sequence(Alphabet::Dna, 22, 15);
    assert_runtime_matches(EditDistance::new(a, b), |e| {
        e.process_partition((5, 5))
            .thread_partition((5, 5))
            .slaves(1)
            .threads_per_slave(1)
    });
}

#[test]
fn one_tile_covers_whole_problem() {
    let a = random_sequence(Alphabet::Dna, 12, 16);
    let b = random_sequence(Alphabet::Dna, 12, 17);
    assert_runtime_matches(EditDistance::new(a, b), |e| {
        e.process_partition((13, 13))
            .thread_partition((13, 13))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn no_slaves_is_an_error() {
    let p = EditDistance::new(b"a".to_vec(), b"b".to_vec());
    let err = EasyHps::new(p).slaves(0).run().unwrap_err();
    assert_eq!(err, RuntimeError::NoSlaves);
}

#[test]
fn report_counts_are_consistent() {
    let a = random_sequence(Alphabet::Dna, 30, 18);
    let b = random_sequence(Alphabet::Dna, 30, 19);
    let p = EditDistance::new(a, b);
    let out = EasyHps::new(p)
        .process_partition((8, 8))
        .thread_partition((3, 3))
        .slaves(2)
        .threads_per_slave(2)
        .run()
        .unwrap();
    let r = &out.report;
    // 31x31 grid in 8x8 tiles -> 4x4 = 16 master sub-tasks.
    assert_eq!(r.master.completed, 16);
    assert_eq!(r.master.dispatched, 16, "no re-dispatch without faults");
    assert_eq!(r.master.redispatched, 0);
    assert_eq!(r.master.dead_slaves, 0);
    // Each 8x8 tile in 3x3 sub-tiles -> 9 sub-sub-tasks (3x3 tile grid),
    // ragged edges have fewer; total must cover all 16 tiles.
    let slave_tasks: u64 = r.slaves.iter().flatten().map(|s| s.tasks_done).sum();
    assert_eq!(slave_tasks, 16);
    assert!(r.total_subtasks() >= 16);
    assert_eq!(
        r.slaves
            .iter()
            .flatten()
            .map(|s| s.thread_failures)
            .sum::<u64>(),
        0
    );
    // The compute pool is persistent: each slave spawns its ct computing
    // threads exactly once, not once per assigned tile (16 tiles over 2
    // slaves guarantees some slave ran many tiles on those same threads).
    for s in r.slaves.iter().flatten() {
        assert_eq!(
            s.threads_spawned, 2,
            "threads spawned once per slave lifetime"
        );
    }
    assert!(
        r.slaves.iter().flatten().any(|s| s.tasks_done > 1),
        "at least one slave executed several tiles on one pool"
    );
}

/// Wraps a problem and records the thread every kernel call runs on.
struct ThreadLog<P> {
    inner: P,
    ids: Mutex<Vec<ThreadId>>,
}

impl<P: DpProblem> DpProblem for ThreadLog<P> {
    type Cell = P::Cell;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn dims(&self) -> GridDims {
        self.inner.dims()
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        self.inner.pattern()
    }

    fn compute_region<G: DpGrid<Self::Cell>>(&self, m: &mut G, region: TileRegion) {
        self.ids.lock().unwrap().push(std::thread::current().id());
        self.inner.compute_region(m, region);
    }
}

/// The thread that runs the slave loop is computing thread 0: at one
/// computing thread every kernel runs on it, and with helpers it still
/// takes its share, on at most `threads` threads in all.
#[test]
fn one_thread_slave_runs_kernels_on_its_own_thread() {
    for threads in [1, 3] {
        let problem = ThreadLog {
            inner: EditDistance::new(
                random_sequence(Alphabet::Dna, 40, 40),
                random_sequence(Alphabet::Dna, 40, 41),
            ),
            ids: Mutex::new(Vec::new()),
        };
        let reference = problem.solve_sequential();
        problem.ids.lock().unwrap().clear();
        let model = DagDataDrivenModel::builder(problem.pattern())
            .process_partition_size(GridDims::square(10))
            .thread_partition_size(GridDims::square(5))
            .build();
        let config = Deployment::local(1, threads);
        let mut eps = Network::new(2);
        let slave_ep = eps.pop().unwrap();
        let master_ep = eps.pop().unwrap();
        let (slave_id, out) = std::thread::scope(|s| {
            let (p, m, c) = (&problem, &model, &config);
            let slave = s.spawn(move || {
                run_slave(slave_ep, p, m, c).unwrap();
                std::thread::current().id()
            });
            let out = run_master(master_ep, &problem, &model, &config, None, None, None).unwrap();
            (slave.join().unwrap(), out)
        });
        assert_eq!(out.matrix, reference, "{threads} threads");
        let ids = problem.ids.into_inner().unwrap();
        assert!(!ids.is_empty(), "no kernel ran");
        if threads == 1 {
            assert!(
                ids.iter().all(|&id| id == slave_id),
                "a kernel ran off the slave's thread"
            );
        } else {
            assert!(ids.contains(&slave_id), "the slave's thread ran no kernel");
        }
        let distinct: HashSet<_> = ids.iter().collect();
        assert!(
            distinct.len() <= threads,
            "{} kernel threads for {threads} computing threads",
            distinct.len()
        );
    }
}

#[test]
fn thread_level_fault_tolerance_recovers_from_panics() {
    // At one computing thread the slave loop's own thread catches every
    // panic; at two, worker 0 and a helper share them.
    for threads in [1, 2] {
        let a = random_sequence(Alphabet::Dna, 25, 20);
        let b = random_sequence(Alphabet::Dna, 25, 21);
        let inner = EditDistance::new(a, b);
        let reference = inner.solve_sequential();
        let faulty = FaultyProblem::new(inner, 5);
        let out = EasyHps::new(faulty)
            .process_partition((9, 9))
            .thread_partition((3, 3))
            .slaves(2)
            .threads_per_slave(threads)
            .run()
            .expect("recovers from injected panics");
        assert_eq!(out.matrix, reference, "{threads} threads");
        let failures: u64 = out
            .report
            .slaves
            .iter()
            .flatten()
            .map(|s| s.thread_failures)
            .sum();
        assert_eq!(
            failures, 5,
            "every injected panic recovered exactly once ({threads} threads)"
        );
    }
}

#[test]
fn process_level_fault_tolerance_survives_slave_death() {
    // Slave 0 dies after 3 sends (its IDLE + two results); the master must
    // time it out, redistribute, and still produce a correct matrix.
    let a = random_sequence(Alphabet::Dna, 30, 22);
    let b = random_sequence(Alphabet::Dna, 30, 23);
    let p = EditDistance::new(a, b);
    let reference = p.solve_sequential();
    let out = EasyHps::new(p)
        .process_partition((6, 6))
        .thread_partition((3, 3))
        .slaves(3)
        .threads_per_slave(2)
        .task_timeout(Duration::from_millis(300))
        .inject_fault(0, FaultPlan::die_after(3))
        .run()
        .expect("survives one slave dying");
    assert_eq!(out.matrix, reference);
    assert_eq!(out.report.master.dead_slaves, 1);
    assert!(
        out.report.slaves[0].is_none(),
        "dead slave reports no stats"
    );
    assert!(out.report.slaves[1].is_some());
}

#[test]
fn all_slaves_dead_is_reported() {
    let a = random_sequence(Alphabet::Dna, 20, 24);
    let b = random_sequence(Alphabet::Dna, 20, 25);
    let p = EditDistance::new(a, b);
    let err = EasyHps::new(p)
        .process_partition((5, 5))
        .thread_partition((5, 5))
        .slaves(2)
        .threads_per_slave(1)
        .task_timeout(Duration::from_millis(200))
        .inject_fault(0, FaultPlan::die_after(1))
        .inject_fault(1, FaultPlan::die_after(1))
        .run()
        .unwrap_err();
    assert_eq!(err, RuntimeError::AllSlavesDead);
}

#[test]
fn larger_multilevel_nussinov_with_failures() {
    // Triangular workload + injected thread panics + a dying slave: the
    // full fault-tolerance stack at once.
    let rna = random_sequence(Alphabet::Rna, 45, 26);
    let inner = Nussinov::new(rna);
    let reference = inner.solve_sequential();
    let pattern = inner.pattern();
    let faulty = FaultyProblem::new(inner, 3);
    let out = EasyHps::new(faulty)
        .process_partition((9, 9))
        .thread_partition((3, 3))
        .slaves(3)
        .threads_per_slave(2)
        .task_timeout(Duration::from_millis(500))
        .inject_fault(1, FaultPlan::die_after(4))
        .run()
        .expect("survives combined faults");
    for p in reference.dims().iter() {
        if pattern.contains(p) {
            assert_eq!(out.matrix.at(p), reference.at(p), "cell {p}");
        }
    }
}

#[test]
fn needleman_wunsch_on_runtime() {
    let a = random_sequence(Alphabet::Dna, 33, 30);
    let b = random_sequence(Alphabet::Dna, 37, 31);
    assert_runtime_matches(easyhps_dp::NeedlemanWunsch::dna(a, b), |e| {
        e.process_partition((8, 8))
            .thread_partition((3, 3))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn knapsack_on_runtime_with_column_partitions() {
    // The RowLookback2D pattern must ship whole previous-row prefixes;
    // column partitions would corrupt results if it under-declared.
    let items: Vec<(u32, u64)> = (0..20)
        .map(|i| (1 + i % 7, (i * 13 % 29) as u64 + 1))
        .collect();
    assert_runtime_matches(easyhps_dp::Knapsack::new(&items, 60), |e| {
        e.process_partition((6, 13))
            .thread_partition((3, 5))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn cyk_on_runtime() {
    let word: Vec<u8> = b"(()())((()))()(()(()))((())())".to_vec();
    let p = easyhps_dp::CykParser::new(easyhps_dp::Grammar::balanced_parens(), word.clone());
    let reference = p.solve_sequential();
    assert!(p.recognized(&reference), "the word is balanced");
    assert_runtime_matches(
        easyhps_dp::CykParser::new(easyhps_dp::Grammar::balanced_parens(), word),
        |e| {
            e.process_partition((8, 8))
                .thread_partition((3, 3))
                .slaves(3)
                .threads_per_slave(2)
        },
    );
}

#[test]
fn single_level_and_multilevel_agree() {
    // EasyPDP (one shared-memory pool) and EasyHPS (multilevel) must
    // produce identical matrices for the same problem.
    use easyhps_runtime::EasyPdp;
    let rna = random_sequence(Alphabet::Rna, 40, 40);
    let multilevel = EasyHps::new(Nussinov::new(rna.clone()))
        .process_partition((10, 10))
        .thread_partition((5, 5))
        .slaves(2)
        .threads_per_slave(2)
        .run()
        .unwrap();
    let single = EasyPdp::new(Nussinov::new(rna.clone()))
        .partition((5, 5))
        .threads(4)
        .run()
        .unwrap();
    let pattern = Nussinov::new(rna).pattern();
    for pos in multilevel.matrix.dims().iter() {
        if pattern.contains(pos) {
            assert_eq!(
                multilevel.matrix.at(pos),
                single.matrix.at(pos),
                "cell {pos}"
            );
        }
    }
}

#[test]
fn runtime_trace_records_every_tile() {
    let a = random_sequence(Alphabet::Dna, 40, 60);
    let b = random_sequence(Alphabet::Dna, 40, 61);
    let out = EasyHps::new(EditDistance::new(a, b))
        .process_partition((10, 10))
        .thread_partition((5, 5))
        .slaves(2)
        .threads_per_slave(2)
        .run()
        .unwrap();
    let trace = &out.report.trace;
    assert_eq!(trace.spans.len() as u64, out.report.master.completed);
    assert!(
        !trace.has_lane_overlaps(),
        "a slave never runs two tiles at once:\n{}",
        trace.gantt(60)
    );
    // Both slaves appear.
    let lanes: std::collections::BTreeSet<_> = trace.spans.iter().map(|s| s.lane.clone()).collect();
    assert_eq!(lanes.len(), 2);
    assert!(trace.gantt(50).contains("slave0"));
}

#[test]
fn checkpoint_and_resume_complete_the_run() {
    let a = random_sequence(Alphabet::Dna, 50, 70);
    let b = random_sequence(Alphabet::Dna, 50, 71);
    let reference = EditDistance::new(a.clone(), b.clone()).solve_sequential();

    // Phase 1: run only 10 of the 25 tiles, then stop with a checkpoint.
    let partial = EasyHps::new(EditDistance::new(a.clone(), b.clone()))
        .process_partition((11, 11))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
        .tile_budget(10)
        .run()
        .unwrap();
    assert!(partial.report.master.completed >= 10);
    assert!(partial.report.master.completed < 25, "stopped early");
    let cp = partial.checkpoint.expect("early stop yields a checkpoint");

    // The checkpoint round-trips through bytes (a file on a real cluster).
    let cp = easyhps_runtime::Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
    let resumed_from = cp.finished_len() as u64;

    // Phase 2: resume; only the remaining tiles are dispatched.
    let full = EasyHps::new(EditDistance::new(a, b))
        .process_partition((11, 11))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
        .resume_from(cp)
        .run()
        .unwrap();
    assert!(full.checkpoint.is_none(), "run completed");
    assert_eq!(full.matrix, reference);
    assert_eq!(full.report.master.completed, 25);
    assert_eq!(
        full.report.master.dispatched,
        25 - resumed_from,
        "resumed tiles are not re-dispatched"
    );
}

#[test]
fn budget_covering_everything_behaves_like_a_full_run() {
    let a = random_sequence(Alphabet::Dna, 20, 72);
    let b = random_sequence(Alphabet::Dna, 20, 73);
    let reference = EditDistance::new(a.clone(), b.clone()).solve_sequential();
    let out = EasyHps::new(EditDistance::new(a, b))
        .process_partition((7, 7))
        .thread_partition((3, 3))
        .slaves(2)
        .threads_per_slave(1)
        .tile_budget(1_000)
        .run()
        .unwrap();
    assert!(out.checkpoint.is_none());
    assert_eq!(out.matrix, reference);
}

#[test]
fn viterbi_on_runtime_with_row_bands() {
    use easyhps_dp::{Hmm, Viterbi};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let hmm = Hmm::random(10, 6, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let obs: Vec<u32> = (0..60).map(|_| rng.random_range(0..6)).collect();
    let v = Viterbi::new(hmm.clone(), obs.clone());
    let reference = v.solve_sequential();
    // Full-row process tiles (10 columns) as PrevRow2D requires.
    let out = EasyHps::new(Viterbi::new(hmm, obs))
        .process_partition((12, 10))
        .thread_partition((3, 10))
        .slaves(2)
        .threads_per_slave(2)
        .run()
        .unwrap();
    assert_eq!(out.matrix, reference);
}

#[test]
fn semi_global_on_runtime() {
    let reference_seq = random_sequence(Alphabet::Dna, 60, 95);
    let query = reference_seq[20..45].to_vec();
    assert_runtime_matches(easyhps_dp::SemiGlobal::dna(query, reference_seq), |e| {
        e.process_partition((9, 13))
            .thread_partition((4, 5))
            .slaves(2)
            .threads_per_slave(2)
    });
}

#[test]
fn longest_palindrome_on_runtime() {
    let s = random_sequence(Alphabet::Dna, 48, 96);
    assert_runtime_matches(easyhps_dp::LongestPalindrome::new(s), |e| {
        e.process_partition((12, 12))
            .thread_partition((4, 4))
            .slaves(3)
            .threads_per_slave(2)
    });
}

#[test]
fn zero_or_oversized_thread_partition_is_rejected() {
    let problem = || {
        EditDistance::new(
            random_sequence(Alphabet::Dna, 40, 97),
            random_sequence(Alphabet::Dna, 40, 98),
        )
    };
    // Zero thread partition: a clear error, not a hang or a panic.
    let err = EasyHps::new(problem())
        .process_partition((8, 8))
        .thread_partition((0, 4))
        .run()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidConfig(_)), "got {err:?}");
    assert!(err.to_string().contains("thread_partition_size"), "{err}");

    // Zero process partition likewise.
    let err = EasyHps::new(problem())
        .process_partition((8, 0))
        .run()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidConfig(_)));

    // A thread tile bigger than its process tile cannot partition it.
    let err = EasyHps::new(problem())
        .process_partition((8, 8))
        .thread_partition((9, 8))
        .run()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidConfig(_)), "got {err:?}");

    // Non-dividing (ragged) sizes stay legal.
    assert_runtime_matches(problem(), |e| {
        e.process_partition((8, 8))
            .thread_partition((3, 3))
            .slaves(2)
            .threads_per_slave(2)
    });
}

/// With no partition sizes set and one computing thread per slave, each
/// tile runs whole as one sub-task: the default rule splits a tile only
/// among threads that can compute its parts in parallel.
#[test]
fn one_thread_default_runs_each_tile_as_one_subtask() {
    let problem = EditDistance::new(
        random_sequence(Alphabet::Dna, 120, 99),
        random_sequence(Alphabet::Dna, 97, 100),
    );
    let reference = problem.solve_sequential();
    let hps = EasyHps::new(problem).slaves(2).threads_per_slave(1);
    let tiles = hps.model().master_dag().len() as u64;
    let out = hps.run().unwrap();
    assert_eq!(out.matrix, reference);
    assert_eq!(out.report.master.completed, tiles);
    assert_eq!(out.report.total_subtasks(), tiles);
}
