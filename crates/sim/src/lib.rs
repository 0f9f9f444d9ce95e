//! # easyhps-sim — deterministic cluster simulation of EasyHPS
//!
//! The paper evaluates EasyHPS on Tianhe-1A with 2-5 multi-core nodes. This
//! crate reproduces those experiments without the cluster: a discrete-event
//! simulation executes the *same* abstract DAGs under the *same* scheduling
//! policies (`easyhps_core::ScheduleMode`, shared with the real runtime) in
//! virtual time, pricing compute and communication with calibrated cost
//! models. Every run is deterministic, so the figures regenerate
//! byte-identically.
//!
//! ```
//! use easyhps_sim::{simulate, sequential_ns, CostModel, SimConfig, SimWorkload};
//!
//! let workload = SimWorkload::swgg(1000, 100, 10);
//! let result = simulate(&workload, &SimConfig::uniform(3, 8));
//! let seq = sequential_ns(&workload, &CostModel::tianhe1a());
//! assert!(result.makespan_ns < seq, "24 cores beat 1 core");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod cost;
mod experiment;
pub mod figures;
mod pool_sim;
mod report;
mod workload;

pub use cluster::{sequential_ns, simulate, simulate_traced, SimConfig, SimResult};
pub use cost::CostModel;
pub use easyhps_core::{Span, Trace};
pub use experiment::{
    bcw_baseline, bcw_ratio_series, node_comparison_series, scaling_series, speedup_series,
    Experiment, NODE_COUNTS,
};
pub use pool_sim::{simulate_pool, simulate_pool_logged, PoolOutcome};
pub use report::{render_csv, render_table, Series};
pub use workload::{SimWorkload, WorkProfile};
