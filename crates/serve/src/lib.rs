//! # easyhps-serve — DP-as-a-service
//!
//! A long-lived daemon that owns a persistent slave fleet
//! ([`easyhps_runtime::Fleet`]) and serves DP jobs to many clients and
//! tenants:
//!
//! * **Admission control** — a bounded job queue; submissions past it
//!   are rejected with the limit and the way out spelled out.
//! * **Weighted-fair scheduling** — queued jobs are dispatched by
//!   per-tenant virtual time, so a flood from one tenant cannot starve
//!   another.
//! * **Content-addressed caching & coalescing** — one job table, keyed
//!   by what a job computes: a repeat of a finished job is answered with
//!   its stored digest (rows, cols, CRC — the daemon keeps no cells), and
//!   a duplicate of a queued or *running* job attaches to it instead of
//!   computing twice.
//! * **Batching** — jobs below a cell threshold are gathered into one
//!   round of sequential solves instead of fleet dispatches.
//! * **Durability** — accepted jobs are persisted before they are
//!   acknowledged, digests before they are reported, and fleet jobs
//!   checkpoint to per-job directories until their digest is durable:
//!   `kill -9` loses no accepted job, and a restarted daemon completes
//!   them bit-identically.
//!
//! The client protocol (submit / status / stats / cancel) rides the same
//! CRC-sealed frames as the rank links ([`easyhps_net::frame`]); see
//! [`protocol`] for the messages and DESIGN.md §15 for the full
//! architecture.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod state;

pub use cache::job_key;
pub use client::Client;
pub use daemon::{Daemon, FleetSpec, ServeConfig};
pub use protocol::{Admission, JobResult, JobState, Request, Response, SubmitReq};
pub use state::{JobStore, PersistedJob};
