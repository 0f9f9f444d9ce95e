//! Helpers shared by the integration tests (`mod common;`).

use easyhps_runtime::{MasterStats, Snapshot};

/// The master shell publishes the scheduler machine's counters, it does
/// not count: in `snap`, taken from a registry that saw only the run that
/// reported `m`, every machine-counted `master_*` series must equal its
/// `MasterStats` field.
pub fn assert_series_equal_stats(snap: &Snapshot, m: &MasterStats) {
    for (series, field) in [
        ("master_tiles_dispatched", m.dispatched),
        ("master_tiles_redispatched", m.redispatched),
        ("master_tiles_completed", m.completed - m.resumed),
        ("master_tiles_resumed", m.resumed),
        ("master_stale_completions", m.stale_completions),
        ("master_slave_exclusions", m.dead_slaves + m.readmitted),
        ("master_slave_readmissions", m.readmitted),
        ("master_slave_rejoins", m.rejoins),
        ("master_stale_epoch_rejected", m.stale_epoch_rejected),
        ("master_send_failures", m.send_failures),
    ] {
        assert_eq!(snap.counter(series), Some(field), "{series}");
    }
    assert_eq!(snap.gauge("master_dead_slaves"), Some(m.dead_slaves as i64));
}
