//! Shared scheduling-policy constants.

use std::time::Duration;

/// Every duration the scheduling policy depends on, in one place.
///
/// Both executors consume this struct — the threaded runtime builds one
/// from its `Deployment` and the deterministic drivers use the defaults —
/// so a policy constant cannot drift between the real master loop and a
/// simulation of it. No driver may hard-code a literal duration of its
/// own: if a new knob is needed, it goes here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedParams {
    /// How long a dispatched sub-task may run before the fault-tolerance
    /// sweep presumes its executor failed and redistributes it.
    pub task_timeout: Duration,
    /// Cadence of the fault-tolerance sweep (overdue drain + liveness
    /// judgement).
    pub ft_poll: Duration,
    /// How often slaves emit a HEARTBEAT (also while computing a tile).
    pub heartbeat_interval: Duration,
    /// How long the master tolerates silence from a slave before treating
    /// it as dead rather than slow.
    pub heartbeat_timeout: Duration,
    /// Floor of the teardown drain deadline — the historical grace a fast
    /// retry policy still gets.
    pub drain_floor: Duration,
    /// Margin added to the drain deadline for slave-side compute of the
    /// stats reply itself.
    pub drain_margin: Duration,
    /// Bound on a slave's linger after replying STATS: the linger ends on
    /// the ACK of the reply (and of any late DONE), or after this long
    /// when the master is gone.
    pub slave_linger: Duration,
}

impl Default for SchedParams {
    fn default() -> Self {
        Self {
            task_timeout: Duration::from_secs(30),
            ft_poll: Duration::from_millis(20),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(250),
            drain_floor: Duration::from_secs(2),
            drain_margin: Duration::from_millis(500),
            slave_linger: Duration::from_secs(1),
        }
    }
}

impl SchedParams {
    /// Teardown drain deadline for a retry policy whose pending sends can
    /// spend `retry_drain_budget` in flight: the drain must outlive the
    /// slowest legitimate reply, floored and margined by the shared
    /// constants.
    pub fn drain_deadline(&self, retry_drain_budget: Duration) -> Duration {
        retry_drain_budget
            .max(self.drain_floor)
            .saturating_add(self.drain_margin)
    }

    /// `task_timeout` in nanoseconds (virtual-time drivers).
    pub fn task_timeout_ns(&self) -> u64 {
        self.task_timeout.as_nanos() as u64
    }

    /// `heartbeat_timeout` in nanoseconds (virtual-time drivers).
    pub fn heartbeat_timeout_ns(&self) -> u64 {
        self.heartbeat_timeout.as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_deadline_scales_with_retry_budget_but_is_floored() {
        let p = SchedParams::default();
        // Fast retry policies keep the historical 2 s + 500 ms grace.
        assert_eq!(
            p.drain_deadline(Duration::from_millis(100)),
            Duration::from_millis(2500)
        );
        // Slow ones scale: a 10 s retransmit cycle is not truncated.
        assert_eq!(
            p.drain_deadline(Duration::from_secs(10)),
            Duration::from_millis(10_500)
        );
    }

    #[test]
    fn ns_views_match_durations() {
        let p = SchedParams::default();
        assert_eq!(p.task_timeout_ns(), 30_000_000_000);
        assert_eq!(p.heartbeat_timeout_ns(), 250_000_000);
    }
}
