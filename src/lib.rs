//! # EasyHPS — a multilevel hybrid parallel runtime for dynamic programming
//!
//! A from-scratch Rust reproduction of *EasyHPS: A Multilevel Hybrid
//! Parallel System for Dynamic Programming* (Du, Yu, Sun, Sun, Tang, Yin;
//! IPDPS Workshops 2013): a master/slave runtime that parallelizes DP
//! recurrences across (virtual) cluster nodes and, inside each node, across
//! computing threads, driven by the **DAG Data Driven Model** — block
//! partitioning of the DP matrix into a dependency DAG of sub-tasks,
//! dynamically scheduled through worker pools with hierarchical fault
//! tolerance.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`](mod@core) — patterns, partitioning, the DAG parser
//!   (`easyhps-core`);
//! * [`dp`] — the DP algorithm library: SWGG, Nussinov, edit distance, LCS,
//!   matrix-chain, optimal BST, 2D/2D (`easyhps-dp`);
//! * [`net`] — the in-process virtual-MPI transport with fault injection
//!   (`easyhps-net`);
//! * [`obs`] — metrics registry and structured tracing with Perfetto
//!   (Chrome trace-event) export (`easyhps-obs`);
//! * [`runtime`] — the master/slave runtime and the [`EasyHps`] user API
//!   (`easyhps-runtime`);
//! * [`serve`] — the multi-job daemon: admission control, weighted-fair
//!   scheduling, request coalescing and a content-addressed result cache
//!   over a persistent slave fleet (`easyhps-serve`);
//! * [`sim`] — the deterministic cluster simulator regenerating the paper's
//!   figures (`easyhps-sim`);
//! * [`stress`] — the seeded schedule-stress harness driving the real
//!   runtime through adversarial fault schedules (`easyhps-stress`).
//!
//! ## Quickstart
//!
//! ```
//! use easyhps::EasyHps;
//! use easyhps::dp::{DpProblem, Nussinov};
//! use easyhps::dp::sequence::{random_sequence, Alphabet};
//!
//! let rna = random_sequence(Alphabet::Rna, 80, 42);
//! let problem = Nussinov::new(rna);
//!
//! let out = EasyHps::new(problem)
//!     .process_partition((16, 16)) // sub-task tiles across nodes
//!     .thread_partition((4, 4))    // sub-sub-task tiles across threads
//!     .slaves(3)
//!     .threads_per_slave(2)
//!     .run()
//!     .unwrap();
//!
//! println!("max base pairs: {}", out.matrix.get(0, 79));
//! ```

pub use easyhps_core as core;
pub use easyhps_dp as dp;
pub use easyhps_net as net;
pub use easyhps_obs as obs;
pub use easyhps_runtime as runtime;
pub use easyhps_serve as serve;
pub use easyhps_sim as sim;
pub use easyhps_stress as stress;

pub use easyhps_core::{
    DagDataDrivenModel, DagParser, DagPattern, GridDims, GridPos, PatternKind, ScheduleMode,
    TaskDag, TileRegion, VertexId,
};
pub use easyhps_dp::{DpMatrix, DpProblem};
pub use easyhps_runtime::{
    Checkpoint, CheckpointPolicy, Deployment, EasyHps, RunOutput, RuntimeError, TransportKind,
};
