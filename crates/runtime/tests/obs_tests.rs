//! Observability integration: a full multilevel run must export a valid
//! Chrome trace (loadable in Perfetto) and a metrics snapshot whose
//! counters agree with the run report — including under message loss
//! (retransmit counters/events) and across checkpoint/resume (only the
//! re-dispatched tiles counted on the resumed run).

mod common;

use common::assert_series_equal_stats;
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpProblem, EditDistance, SmithWatermanGeneralGap};
use easyhps_obs::{labeled, validate_chrome_trace};
use easyhps_runtime::{EasyHps, Registry};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Per-test temp path so parallel tests never collide on the trace file.
fn trace_path(test: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("easyhps-obs-{test}-{}.json", std::process::id()))
}

#[test]
fn swgg_e2e_exports_trace_and_metrics() {
    let a = random_sequence(Alphabet::Dna, 40, 11);
    let b = random_sequence(Alphabet::Dna, 44, 12);
    let problem = SmithWatermanGeneralGap::dna(a, b);
    let reference = problem.solve_sequential();
    let path = trace_path("swgg-e2e");

    let out = EasyHps::new(problem)
        .process_partition((11, 12)) // 41x45 grid -> 4x4 = 16 tiles
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
        .lossy_network(0.10, 7)
        .heartbeat(Duration::from_millis(5), Duration::from_secs(5))
        .metrics(true)
        .trace_out(&path)
        .run()
        .unwrap();
    assert_eq!(
        out.matrix, reference,
        "instrumentation must not change results"
    );
    let m = &out.report.master;
    assert_eq!(m.completed, 16);

    // --- Metrics: the registry is the run's bookkeeping, so its counters
    // must agree with the report built from it.
    let snap = out
        .metrics
        .as_ref()
        .expect("metrics(true) returns a registry")
        .snapshot();
    assert_series_equal_stats(&snap, m);
    assert_eq!(snap.counter("master_tiles_resumed"), Some(0));

    let hist = snap
        .histogram("master_tile_latency_ns")
        .expect("tile latency histogram registered");
    assert_eq!(
        hist.count, m.completed,
        "one latency sample per accepted DONE"
    );
    assert!(hist.p50 > 0 && hist.p95 >= hist.p50 && hist.max >= hist.p99);

    // A 10% lossy link must retransmit; master-side counter matches the
    // report and the per-role series sum to a nonzero workspace total.
    assert_eq!(
        snap.counter(&labeled("net_retransmits", &[("role", "master")])),
        Some(m.retransmits)
    );
    assert!(
        snap.counter_total("net_retransmits") > 0,
        "10% loss must retransmit"
    );

    // No slave stays dead; every exclusion (if any) was re-admitted.
    let excl = snap.counter("master_slave_exclusions").unwrap();
    let readm = snap.counter("master_slave_readmissions").unwrap();
    assert_eq!(excl, readm, "every excluded slave must be re-admitted");
    assert_eq!(snap.gauge("master_dead_slaves"), Some(0));

    // Slave-side series are labelled per slave and cover all tiles.
    assert_eq!(snap.counter_total("slave_tiles_done"), m.completed);
    assert!(snap.counter_total("slave_subtasks_done") >= m.completed);
    assert!(
        snap.counter_total("slave_heartbeats") > 0,
        "5ms cadence must tick"
    );

    // Text exposition carries the summary-typed histogram with quantiles.
    let text = snap.render_text();
    assert!(
        text.contains("# TYPE master_tile_latency_ns summary"),
        "{text}"
    );
    assert!(
        text.contains("master_tile_latency_ns{quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(text.contains("net_retransmits{role=\"master\"}"), "{text}");

    // JSON exposition parses and groups by kind.
    let json = easyhps_obs::json::parse(&snap.render_json()).expect("snapshot JSON parses");
    assert!(json
        .get("counters")
        .and_then(|c| c.get("master_tiles_completed"))
        .is_some());
    assert!(json
        .get("histograms")
        .and_then(|h| h.get("master_tile_latency_ns"))
        .is_some());

    // --- Trace: the written file is a structurally valid Chrome trace
    // with the documented event vocabulary on master + both slave pids.
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(
        summary.pids >= 3,
        "master + 2 slaves, got {} pids",
        summary.pids
    );
    assert!(summary.count("dispatch") >= 16, "{:?}", summary.by_name);
    assert!(summary.count("compute") >= 16, "{:?}", summary.by_name);
    assert!(summary.count("done") >= 16, "{:?}", summary.by_name);
    assert_eq!(
        summary.count("tile") as u64,
        m.completed,
        "{:?}",
        summary.by_name
    );
    assert!(
        summary.count("sub") as u64 >= m.completed,
        "{:?}",
        summary.by_name
    );
    assert!(summary.count("retransmit") >= 1, "{:?}", summary.by_name);
    assert!(summary.count("heartbeat") >= 1, "{:?}", summary.by_name);

    // "compute" tile spans must come from at least two distinct slave
    // processes (pid = 1 + slave index; the master is pid 0).
    let doc = easyhps_obs::json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let compute_pids: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("compute"))
        .map(|e| e.get("pid").and_then(|v| v.as_f64()).unwrap() as u64)
        .collect();
    assert!(
        compute_pids.len() >= 2,
        "compute spans on one lane only: {compute_pids:?}"
    );
    assert!(
        !compute_pids.contains(&0),
        "the master never computes tiles"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_counts_only_redispatched_tiles() {
    let a = random_sequence(Alphabet::Dna, 50, 21);
    let b = random_sequence(Alphabet::Dna, 50, 22);
    let problem = EditDistance::new(a, b);
    let reference = problem.solve_sequential();

    // 51x51 grid in 11x11 tiles -> 5x5 = 25 sub-tasks; stop after 10.
    let first = EasyHps::new(problem.clone())
        .process_partition((11, 11))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
        .tile_budget(10)
        .metrics(true)
        .run()
        .unwrap();
    let cp = first.checkpoint.expect("budget stop must checkpoint");
    let resumed_from = cp.finished_len() as u64;
    assert!(resumed_from >= 10);
    let snap = first.metrics.unwrap().snapshot();
    assert_eq!(snap.counter("master_checkpoints"), Some(1));
    assert_eq!(snap.counter("master_tiles_resumed"), Some(0));

    // The resumed run gets a fresh registry: it must report only the
    // tiles it actually re-dispatched, with the restored ones counted
    // separately under master_tiles_resumed.
    let second = EasyHps::new(problem)
        .process_partition((11, 11))
        .thread_partition((4, 4))
        .slaves(2)
        .threads_per_slave(2)
        .resume_from(cp)
        .metrics(true)
        .run()
        .unwrap();
    assert_eq!(second.matrix, reference);
    assert_eq!(
        second.report.master.completed, 25,
        "stats view folds resumed tiles in"
    );

    let snap = second.metrics.unwrap().snapshot();
    assert_eq!(snap.counter("master_tiles_resumed"), Some(resumed_from));
    assert_eq!(
        snap.counter("master_tiles_dispatched"),
        Some(25 - resumed_from)
    );
    assert_eq!(
        snap.counter("master_tiles_completed"),
        Some(25 - resumed_from)
    );
    assert_eq!(
        snap.histogram("master_tile_latency_ns").unwrap().count,
        25 - resumed_from,
        "restored tiles must not fabricate latency samples"
    );
    assert_eq!(snap.counter("master_checkpoints"), Some(0));
}

#[test]
fn metrics_disabled_returns_no_registry() {
    let problem = EditDistance::new(b"kitten".to_vec(), b"sitting".to_vec());
    let out = EasyHps::new(problem)
        .process_partition((3, 3))
        .thread_partition((2, 2))
        .slaves(2)
        .threads_per_slave(2)
        .run()
        .unwrap();
    assert!(out.metrics.is_none(), "metrics are strictly opt-in");
    assert_eq!(out.matrix.get(6, 7), 3);
}

#[test]
fn shared_registry_accumulates_across_runs() {
    let registry = Arc::new(Registry::new());
    for _ in 0..2 {
        let problem = EditDistance::new(b"kitten".to_vec(), b"sitting".to_vec());
        let out = EasyHps::new(problem)
            .process_partition((3, 3))
            .thread_partition((2, 2))
            .slaves(2)
            .threads_per_slave(2)
            .metrics_registry(registry.clone())
            .run()
            .unwrap();
        assert!(Arc::ptr_eq(out.metrics.as_ref().unwrap(), &registry));
    }
    // 7x8 grid in 3x3 tiles -> 3x3 = 9 sub-tasks per run, two runs.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("master_tiles_completed"), Some(18));
    assert_eq!(snap.histogram("master_tile_latency_ns").unwrap().count, 18);
}
