//! # easyhps-runtime — the multilevel master/slave runtime
//!
//! The EasyHPS system proper (paper §III and §V): a master rank partitions
//! a DP problem by the DAG Data Driven Model and dynamically schedules
//! sub-tasks onto slave nodes; each slave re-partitions its sub-task and
//! schedules sub-sub-tasks onto computing threads. Both levels are
//! driven by the pure scheduler machines of [`easyhps_core::sched`]
//! (computable/finished sets, overtime queue, register table); fault
//! tolerance is hierarchical (timeout-based node exclusion at process
//! level, panic-catching thread restart at thread level).
//!
//! The "cluster" is whatever [`easyhps-net`](easyhps_net) links the ranks
//! with: in-process channels between threads (the default), or TCP /
//! Unix-domain sockets between threads or separate OS processes
//! ([`remote`], [`fleet`]) — one protocol stack above all three. See
//! DESIGN.md for why the substitution for MPI preserves the paper's
//! scheduling behaviour.
//!
//! Quick start:
//!
//! ```
//! use easyhps_runtime::EasyHps;
//! use easyhps_dp::{DpProblem, Nussinov};
//! use easyhps_dp::sequence::{random_sequence, Alphabet};
//!
//! let rna = random_sequence(Alphabet::Rna, 60, 1);
//! let problem = Nussinov::new(rna);
//! let reference = problem.solve_sequential();
//!
//! let out = EasyHps::new(problem)
//!     .process_partition((12, 12))
//!     .thread_partition((4, 4))
//!     .slaves(3)
//!     .threads_per_slave(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(out.matrix.get(0, 59), reference.get(0, 59));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod api;
mod checkpoint;
mod config;
mod durable;
mod easy_pdp;
mod error;
pub mod fleet;
mod master;
mod obs;
mod protocol;
pub mod remote;
mod shared_grid;
mod slave;
pub mod testing;

// What `with_problem!` expands to, so its callers need no `easyhps-dp`
// dependency of their own.
#[doc(hidden)]
pub use easyhps_dp as __dp;

pub use api::{EasyHps, RunOutput, TransportKind};
pub use checkpoint::Checkpoint;
pub use config::{Deployment, MasterStats, ObsConfig, RunReport};
pub use durable::CheckpointPolicy;
pub use easy_pdp::{EasyPdp, PdpOutput};
pub use easyhps_core::ScheduleMode;
pub use easyhps_net::RetryPolicy;
pub use easyhps_obs::{EventRecorder, Registry, Snapshot};
pub use error::RuntimeError;
pub use fleet::{Fleet, JobOptions};
pub use master::{run_master, FleetControl, MasterOutput};
pub use protocol::{tags, AssignMsg, DoneMsg, SlaveStatsMsg};
pub use shared_grid::{ExclusiveGrid, SharedGrid, TaskView};
pub use slave::run_slave;
