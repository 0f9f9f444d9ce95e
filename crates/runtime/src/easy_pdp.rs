//! EasyPDP compatibility mode: single-level shared-memory execution.
//!
//! EasyHPS grew out of the authors' earlier EasyPDP system (paper §II,
//! ref. [14]), which runs the DAG Data Driven Model on one shared-memory
//! node: a single DAG of sub-tasks drained by a thread pool, no master
//! rank, no message passing. This module provides that mode — useful on
//! its own for laptop-scale problems, and as the single-level baseline
//! when evaluating what the multilevel architecture buys.

use crate::config::Deployment;
use crate::shared_grid::SharedGrid;
use crate::slave::execute_tile;
use crate::RuntimeError;
use easyhps_core::{DagDataDrivenModel, GridDims, GridPos, ScheduleMode};
use easyhps_dp::{DpMatrix, DpProblem};
use std::time::{Duration, Instant};

/// Result of a single-level (EasyPDP) run.
#[derive(Debug)]
pub struct PdpOutput<C: easyhps_dp::Cell> {
    /// The computed matrix.
    pub matrix: DpMatrix<C>,
    /// Sub-tasks executed.
    pub subtasks: u64,
    /// Sum of per-sub-task kernel times.
    pub busy_ns: u64,
    /// Kernel panics recovered by re-queueing.
    pub failures: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

/// Builder for single-level shared-memory execution — the EasyPDP mode.
///
/// ```
/// use easyhps_runtime::EasyPdp;
/// use easyhps_dp::{DpProblem, EditDistance};
///
/// let problem = EditDistance::new(b"kitten".to_vec(), b"sitting".to_vec());
/// let out = EasyPdp::new(problem)
///     .partition((3, 3))
///     .threads(2)
///     .run()
///     .unwrap();
/// assert_eq!(out.matrix.get(6, 7), 3);
/// ```
pub struct EasyPdp<P: DpProblem> {
    problem: P,
    partition: Option<GridDims>,
    threads: usize,
    mode: ScheduleMode,
}

impl<P: DpProblem> EasyPdp<P> {
    /// Start configuring a single-level run of `problem`.
    pub fn new(problem: P) -> Self {
        Self {
            problem,
            partition: None,
            threads: 2,
            mode: ScheduleMode::Dynamic,
        }
    }

    /// Sub-task block size (there is only one level, so one partition).
    pub fn partition(mut self, size: impl Into<GridDims>) -> Self {
        self.partition = Some(size.into());
        self
    }

    /// Computing threads.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Scheduling policy for the pool (default dynamic).
    pub fn mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Execute on the calling process's threads and return the matrix.
    pub fn run(self) -> Result<PdpOutput<P::Cell>, RuntimeError> {
        let t0 = Instant::now();
        let dims = self.problem.dims();
        let partition = self.partition.unwrap_or_else(|| {
            GridDims::new(dims.rows.div_ceil(8).max(1), dims.cols.div_ceil(8).max(1))
        });
        // One process-level tile covering the whole grid; the thread-level
        // partition is the user's.
        let model = DagDataDrivenModel::builder(self.problem.pattern())
            .process_partition_size(dims)
            .thread_partition_size(partition)
            .build();
        model.master_dag().validate()?;
        model.slave_dag(GridPos::new(0, 0)).validate()?;

        let mut config = Deployment::local(1, self.threads);
        config.thread_mode = self.mode;

        let grid = parking_lot::RwLock::new(SharedGrid::<P::Cell>::new(dims));
        // Single-level mode still registers metrics (against a private
        // registry by default) so execute_tile is identical either way.
        let registry = crate::obs::registry_of(&config.obs);
        let sm = crate::obs::SlaveMetrics::register(&registry, 0);
        let exec = std::thread::scope(|scope| {
            // The calling thread is computing thread 0.
            let mut pool = crate::slave::ComputePool::spawn(
                scope,
                self.threads,
                &self.problem,
                &grid,
                config.obs.recorder.clone(),
                0,
            );
            execute_tile(&model, &mut pool, GridPos::new(0, 0), &config, &sm, None)
        })?;

        Ok(PdpOutput {
            matrix: grid.into_inner().to_matrix(),
            subtasks: exec.subtasks,
            busy_ns: exec.busy_ns,
            failures: exec.failures,
            elapsed: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_dp::sequence::{random_sequence, Alphabet};
    use easyhps_dp::{EditDistance, Nussinov, SmithWatermanGeneralGap};

    #[test]
    fn single_level_matches_sequential() {
        let a = random_sequence(Alphabet::Dna, 40, 1);
        let b = random_sequence(Alphabet::Dna, 44, 2);
        let p = EditDistance::new(a, b);
        let reference = p.solve_sequential();
        let out = EasyPdp::new(p).partition((7, 9)).threads(3).run().unwrap();
        assert_eq!(out.matrix, reference);
        assert!(out.subtasks > 1);
        assert_eq!(out.failures, 0);
    }

    #[test]
    fn triangular_single_level() {
        let rna = random_sequence(Alphabet::Rna, 50, 3);
        let p = Nussinov::new(rna);
        let pattern = p.pattern();
        let reference = p.solve_sequential();
        let out = EasyPdp::new(p).partition((8, 8)).threads(4).run().unwrap();
        for pos in reference.dims().iter() {
            if pattern.contains(pos) {
                assert_eq!(out.matrix.at(pos), reference.at(pos), "cell {pos}");
            }
        }
    }

    #[test]
    fn static_pool_mode_is_correct() {
        let a = random_sequence(Alphabet::Dna, 30, 4);
        let b = random_sequence(Alphabet::Dna, 30, 5);
        let p = SmithWatermanGeneralGap::dna(a, b);
        let reference = p.solve_sequential();
        let out = EasyPdp::new(p)
            .partition((6, 6))
            .threads(3)
            .mode(ScheduleMode::BlockCyclic { block: 1 })
            .run()
            .unwrap();
        assert_eq!(out.matrix, reference);
    }

    #[test]
    fn default_partition_covers_grid() {
        let p = EditDistance::new(b"abcd".to_vec(), b"abdd".to_vec());
        let reference = p.solve_sequential();
        let out = EasyPdp::new(p).run().unwrap();
        assert_eq!(out.matrix, reference);
    }

    #[test]
    fn recovers_injected_panics() {
        use crate::testing::FaultyProblem;
        let a = random_sequence(Alphabet::Dna, 25, 6);
        let b = random_sequence(Alphabet::Dna, 25, 7);
        let inner = EditDistance::new(a, b);
        let reference = inner.solve_sequential();
        let out = EasyPdp::new(FaultyProblem::new(inner, 3))
            .partition((5, 5))
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(out.matrix, reference);
        assert_eq!(out.failures, 3);
    }
}
