//! The design-choice ablations DESIGN.md calls out, held as assertions:
//! partition-size sensitivity, jitter sensitivity of static scheduling,
//! the cost of the data-communication level (strip volume), and the
//! makespan cost of losing a node.

use easyhps_core::ScheduleMode;
use easyhps_sim::{simulate, CostModel, SimConfig, SimWorkload};

/// Partition-size sweep: too-coarse tiles starve nodes, too-fine tiles
/// drown the master in scheduling overhead — the classic U-curve.
#[test]
fn a_finer_partition_beats_one_giant_tile() {
    let elapsed = |pps: u32| {
        simulate(
            &SimWorkload::swgg(2_000, pps, 10),
            &SimConfig::uniform(4, 8),
        )
        .seconds()
    };
    let best = [50u32, 100, 200, 400]
        .into_iter()
        .map(elapsed)
        .fold(f64::MAX, f64::min);
    assert!(best < elapsed(1000), "the middle of the sweep must win");
}

/// As execution noise grows, the tuned static schedule degrades relative
/// to the dynamic pool: under heavy jitter it must not be better.
#[test]
fn static_schedule_does_not_beat_dynamic_under_jitter() {
    let w = SimWorkload::nussinov(2_000, 100, 10);
    let mut cfg = SimConfig::uniform(4, 6);
    cfg.cost = CostModel::tianhe1a();
    cfg.cost.jitter_pct = 40;
    let dynamic = simulate(&w, &cfg).seconds();
    cfg.process_mode = ScheduleMode::BlockCyclic { block: 1 };
    cfg.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
    let bcw = simulate(&w, &cfg).seconds();
    assert!(bcw >= dynamic * 0.98, "static {bcw} vs dynamic {dynamic}");
}

/// The 2D/1D data-communication level ships far more bytes than 2D/0D at
/// the same matrix size: row/column prefixes dominate boundary strips.
#[test]
fn rowcol_strips_move_far_more_bytes_than_wavefront_boundaries() {
    let cfg = SimConfig::uniform(3, 4);
    let wave = simulate(&SimWorkload::wavefront(2_000, 100, 10), &cfg);
    let swgg = simulate(&SimWorkload::swgg(2_000, 100, 10), &cfg);
    assert!(swgg.bytes_moved > 5 * wave.bytes_moved);
}

/// Makespan inflation as a function of when one of four nodes crashes.
#[test]
fn losing_one_of_four_nodes_never_doubles_the_makespan() {
    let w = SimWorkload::swgg(2_000, 100, 10);
    let healthy = simulate(&w, &SimConfig::uniform(4, 6));
    for frac in [10u64, 30, 50, 70, 90] {
        let mut cfg = SimConfig::uniform(4, 6).fail_node(2, healthy.makespan_ns * frac / 100);
        cfg.task_timeout_ns = healthy.makespan_ns / 20;
        let inflation = simulate(&w, &cfg).makespan_ns as f64 / healthy.makespan_ns as f64;
        // Greedy LIFO scheduling is not optimal, so a crash that forces a
        // reshuffle of the tail can occasionally *luckily* beat the healthy
        // schedule by a couple of percent; anything beyond that, or a
        // doubling, would be a fault-tolerance bug.
        assert!(inflation >= 0.95, "crash at {frac}%: implausible speedup");
        assert!(inflation < 2.0, "crash at {frac}%: makespan doubled");
    }
}
