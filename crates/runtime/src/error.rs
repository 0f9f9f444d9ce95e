//! Runtime error type.

use easyhps_core::sched::SchedViolation;
use easyhps_core::PatternError;
use easyhps_net::{NetError, WireError};
use std::fmt;

/// Errors surfaced by the multilevel runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// Transport failure on a path the runtime cannot recover from (e.g.
    /// the master's own endpoint died).
    Net(NetError),
    /// A message failed to decode (protocol corruption).
    Wire(WireError),
    /// The DAG model failed validation.
    Pattern(PatternError),
    /// Every slave died before the computation finished.
    AllSlavesDead,
    /// The deployment has no slaves to compute on.
    NoSlaves,
    /// Writing the structured-event trace file failed (path and OS error).
    TraceIo(String),
    /// The durable checkpoint store refused to open, read or write (path,
    /// cause).
    Checkpoint(String),
    /// The configured deployment or partitioning is invalid (e.g. a zero
    /// or oversized `thread_partition_size`).
    InvalidConfig(String),
    /// The scheduler state machine was fed an event it considers
    /// impossible (e.g. a completion for a task that is not running).
    /// Under a correct driver this is unreachable; it surfaces driver
    /// bugs as an error return instead of a poisoned thread.
    SchedulerInvariant(SchedViolation),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Net(e) => write!(f, "transport error: {e}"),
            RuntimeError::Wire(e) => write!(f, "protocol decode error: {e}"),
            RuntimeError::Pattern(e) => write!(f, "invalid DAG model: {e}"),
            RuntimeError::AllSlavesDead => {
                write!(f, "every slave node failed before the computation finished")
            }
            RuntimeError::NoSlaves => write!(f, "deployment has no slave nodes"),
            RuntimeError::TraceIo(e) => write!(f, "failed to write trace file: {e}"),
            RuntimeError::Checkpoint(e) => write!(f, "checkpoint store error: {e}"),
            RuntimeError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RuntimeError::SchedulerInvariant(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<NetError> for RuntimeError {
    fn from(e: NetError) -> Self {
        RuntimeError::Net(e)
    }
}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Wire(e)
    }
}

impl From<PatternError> for RuntimeError {
    fn from(e: PatternError) -> Self {
        RuntimeError::Pattern(e)
    }
}

impl From<SchedViolation> for RuntimeError {
    fn from(e: SchedViolation) -> Self {
        RuntimeError::SchedulerInvariant(e)
    }
}
