//! Runtime ↔ observability glue: metric handle bundles, lane layout and
//! endpoint-stat publication.
//!
//! The runtime instruments itself against [`easyhps_obs`] through the
//! [`ObsConfig`](crate::ObsConfig) carried by the deployment. Master and
//! slaves **always** register their metrics — against the user's shared
//! registry when one is configured, against a private throwaway one
//! otherwise — so the counting code has no enabled/disabled branches;
//! disabling merely makes the numbers unobservable. Event lanes go through
//! [`LaneBuf::disabled`] the same way.
//!
//! ## Lane layout (Chrome `pid`/`tid`)
//!
//! | pid     | process        | tid             | thread                  |
//! |---------|----------------|-----------------|-------------------------|
//! | 0       | master         | 0               | scheduler (instants)    |
//! | 0       | master         | 1 + w           | slot for slave `w` (tile spans) |
//! | 0       | master         | [`TID_FT`]      | fault-tolerance sweep   |
//! | 0       | master         | [`TID_NET`]     | reliable endpoint       |
//! | 1 + w   | slave `w`      | 0               | slave scheduler         |
//! | 1 + w   | slave `w`      | 1..=ct          | computing threads       |
//! | 1 + w   | slave `w`      | [`TID_NET`]     | reliable endpoint       |

use crate::config::ObsConfig;
use easyhps_core::sched::SchedCounters;
use easyhps_net::ReliableEndpoint;
use easyhps_obs::{labeled, Counter, Gauge, Histogram, LaneBuf, Registry};
use std::sync::Arc;

/// Chrome tid of the master's fault-tolerance sweep events (a lane of the
/// scheduler loop since PR 9, not a thread).
pub(crate) const TID_FT: u32 = 98;
/// Chrome tid of a rank's reliable-endpoint events.
pub(crate) const TID_NET: u32 = 99;

/// The registry to instrument against: the configured one, or a private
/// throwaway so counting code never branches on "metrics enabled".
pub(crate) fn registry_of(obs: &ObsConfig) -> Arc<Registry> {
    obs.metrics
        .clone()
        .unwrap_or_else(|| Arc::new(Registry::new()))
}

/// An event lane for `(pid, tid)`, disabled when tracing is off.
pub(crate) fn lane_of(obs: &ObsConfig, pid: u32, tid: u32) -> LaneBuf {
    obs.recorder
        .as_ref()
        .map_or_else(LaneBuf::disabled, |r| r.lane(pid, tid))
}

/// The series that are the scheduler machine's own [`SchedCounters`], with
/// their current values. Dispatches exclude resumed tiles, completions are
/// those accepted over the wire, exclusions are monotone
/// (`master_dead_slaves` is the current count).
fn machine_series(c: &SchedCounters) -> [(&'static str, u64); 10] {
    [
        ("master_tiles_dispatched", c.dispatched),
        ("master_tiles_redispatched", c.redispatched),
        ("master_tiles_completed", c.completed),
        ("master_tiles_resumed", c.resumed),
        ("master_stale_completions", c.stale),
        ("master_slave_exclusions", c.exclusions),
        ("master_slave_readmissions", c.readmissions),
        ("master_slave_rejoins", c.rejoins),
        ("master_stale_epoch_rejected", c.stale_epoch),
        ("master_send_failures", c.send_failures),
    ]
}

/// Master-side metric handles. The shell publishes the machine's counters
/// ([`MasterMetrics::publish`]), it does not count; only what the machine
/// cannot know is counted beside them.
#[derive(Debug)]
pub(crate) struct MasterMetrics {
    /// One counter per [`machine_series`] row.
    machine: [Arc<Counter>; 10],
    /// Currently-excluded slaves (exclusions minus re-admissions).
    dead_slaves: Arc<Gauge>,
    /// The machine counters as of the last [`Self::publish`].
    published: SchedCounters,
    /// DONEs dropped before the machine saw them: unknown task id, a
    /// region other than the one assigned, or a payload of the wrong size.
    pub malformed: Arc<Counter>,
    /// Flushes to the checkpoint directory.
    pub checkpoints: Arc<Counter>,
    /// Sub-tasks restored from the checkpoint directory on resume (equal
    /// to `master_tiles_resumed`: the directory is the only source).
    pub restored: Arc<Counter>,
    /// Bytes appended to the durable checkpoint store.
    pub checkpoint_bytes: Arc<Counter>,
    /// Dispatch-to-completion latency per tile, nanoseconds.
    pub tile_latency: Arc<Histogram>,
    /// Wall-clock cost of each durable checkpoint flush, microseconds.
    pub checkpoint_write_us: Arc<Histogram>,
}

impl MasterMetrics {
    pub(crate) fn register(reg: &Registry) -> Self {
        Self {
            machine: machine_series(&SchedCounters::default()).map(|(name, _)| reg.counter(name)),
            dead_slaves: reg.gauge("master_dead_slaves"),
            published: SchedCounters::default(),
            malformed: reg.counter("master_malformed_completions"),
            checkpoints: reg.counter("master_checkpoints"),
            restored: reg.counter("master_tiles_restored"),
            checkpoint_bytes: reg.counter("checkpoint_bytes"),
            tile_latency: reg.histogram("master_tile_latency_ns"),
            checkpoint_write_us: reg.histogram("checkpoint_write_us"),
        }
    }

    /// Publish the machine's counters: add what moved since the last call
    /// (deltas, because a registry may be shared across runs). Called once
    /// per master loop pass, so a live `stats` view still moves; between
    /// passes every counter is monotone — a rejected ASSIGN un-counts its
    /// dispatch inside the pass that counted it.
    pub(crate) fn publish(&mut self, now: SchedCounters) {
        let was = std::mem::replace(&mut self.published, now);
        if now == was {
            return;
        }
        let moved = machine_series(&now).into_iter().zip(machine_series(&was));
        for (series, ((_, now), (_, was))) in self.machine.iter().zip(moved) {
            series.add(now - was);
        }
        let dead = |c: SchedCounters| c.exclusions as i64 - c.readmissions as i64;
        self.dead_slaves.add(dead(now) - dead(was));
    }
}

/// Slave-side metric handles, one labelled series set per slave index.
#[derive(Clone, Debug)]
pub(crate) struct SlaveMetrics {
    /// Master-level sub-tasks completed.
    pub tiles: Arc<Counter>,
    /// Thread-level sub-sub-tasks completed.
    pub subtasks: Arc<Counter>,
    /// Computing-thread panics caught and re-queued.
    pub thread_failures: Arc<Counter>,
    /// Nanoseconds spent computing, summed over computing threads.
    pub busy_ns: Arc<Counter>,
    /// Heartbeats emitted.
    pub heartbeats: Arc<Counter>,
    /// Per-sub-sub-task kernel latency, nanoseconds.
    pub subtask_latency: Arc<Histogram>,
}

impl SlaveMetrics {
    pub(crate) fn register(reg: &Registry, slave: usize) -> Self {
        let s = slave.to_string();
        let l = |name: &str| labeled(name, &[("slave", &s)]);
        Self {
            tiles: reg.counter(&l("slave_tiles_done")),
            subtasks: reg.counter(&l("slave_subtasks_done")),
            thread_failures: reg.counter(&l("slave_thread_failures")),
            busy_ns: reg.counter(&l("slave_busy_ns")),
            heartbeats: reg.counter(&l("slave_heartbeats")),
            subtask_latency: reg.histogram(&l("slave_subtask_latency_ns")),
        }
    }
}

/// Publish a reliable endpoint's counters into the registry at teardown:
/// aggregate reliability and transport counters under a `role` label, plus
/// per-peer retransmit/duplicate/abandon series for every peer that has
/// any (so quiet peers do not bloat the snapshot).
pub(crate) fn publish_endpoint_stats(reg: &Registry, role: &str, rep: &ReliableEndpoint) {
    let l = |name: &str| labeled(name, &[("role", role)]);
    let reli = rep.stats();
    reg.counter(&l("net_retransmits")).add(reli.retransmits);
    reg.counter(&l("net_duplicates")).add(reli.duplicates);
    reg.counter(&l("net_send_failures")).add(reli.give_ups);
    reg.counter(&l("net_backoff_wait_ns"))
        .add(reli.backoff_wait_ns);
    reg.counter(&l("net_acks_sent")).add(reli.acks_sent);
    reg.counter(&l("net_acks_recv")).add(reli.acks_recv);
    let net = rep.net_stats();
    reg.counter(&l("net_frames_corrupt"))
        .add(net.corrupt_frames);
    reg.counter(&l("net_msgs_corrupted"))
        .add(net.corrupted_msgs);
    reg.counter(&l("net_links_severed")).add(net.severed_links);
    reg.counter(&l("net_msgs_sent")).add(net.sent_msgs);
    reg.counter(&l("net_bytes_sent")).add(net.sent_bytes);
    reg.counter(&l("net_msgs_recv")).add(net.recv_msgs);
    reg.counter(&l("net_bytes_recv")).add(net.recv_bytes);
    for (peer, pp) in rep.all_peer_stats().iter().enumerate() {
        if *pp == easyhps_net::PeerReliStats::default() {
            continue;
        }
        let p = peer.to_string();
        let lp = |name: &str| labeled(name, &[("role", role), ("peer", &p)]);
        reg.counter(&lp("net_peer_retransmits")).add(pp.retransmits);
        reg.counter(&lp("net_peer_duplicates")).add(pp.duplicates);
        reg.counter(&lp("net_peer_send_failures"))
            .add(pp.send_failures);
    }
}
