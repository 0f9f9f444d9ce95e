//! Cluster-scale what-if analysis with the deterministic simulator: how
//! should a 30-core budget be split across nodes, and what does dynamic
//! scheduling buy over the static block-cyclic wavefront?
//!
//! This drives the same machinery that regenerates the paper's figures
//! (see `cargo run --release --bin easyhps -- figures`), at a scale
//! that finishes in a couple of seconds.
//!
//! ```text
//! cargo run --release --example cluster_sim
//! ```

use easyhps::sim::{
    bcw_baseline, render_table, sequential_ns, simulate, simulate_traced, CostModel, Experiment,
    Series, SimWorkload,
};

fn main() {
    let cost = CostModel::tianhe1a();
    let workload = SimWorkload::nussinov(3_000, 150, 10);
    let seq = sequential_ns(&workload, &cost);
    println!(
        "workload: {} ({} master tiles), sequential baseline {:.2}s\n",
        workload.name,
        workload.model.master_dag().len(),
        seq as f64 / 1e9
    );

    // Question 1: best node grouping for a fixed 30-core budget.
    let mut grouping = Series::new("elapsed (s)");
    let mut speedups = Series::new("speedup");
    for nodes in [2u32, 3, 4, 5] {
        let e = Experiment::new(nodes, 30);
        if !e.is_valid() {
            continue;
        }
        let r = simulate(&workload, &e.config(cost));
        grouping.push(nodes as f64, r.seconds());
        speedups.push(nodes as f64, seq as f64 / r.makespan_ns as f64);
    }
    println!(
        "{}",
        render_table(
            "30 total cores, split across X nodes (Experiment_X_30)",
            "nodes",
            &[grouping, speedups,]
        )
    );

    // Question 2: dynamic pool vs static block-cyclic wavefront.
    let e = Experiment::new(4, 30);
    let dyn_r = simulate(&workload, &e.config(cost));
    let mut bcw_cfg = e.config(cost);
    let (pm, tm) = bcw_baseline();
    bcw_cfg.process_mode = pm;
    bcw_cfg.thread_mode = tm;
    let bcw_r = simulate(&workload, &bcw_cfg);
    println!("Experiment_4_30, dynamic:      {:.3}s", dyn_r.seconds());
    println!("Experiment_4_30, block-cyclic: {:.3}s", bcw_r.seconds());
    println!(
        "BCW / EasyHPS ratio: {:.3} (above 1.0 -> the dynamic pool wins)",
        bcw_r.makespan_ns as f64 / dyn_r.makespan_ns as f64
    );

    // Question 3: what does the schedule look like? (Gantt of a small run;
    // letters cycle with the tile's anti-diagonal, dots are idle time.)
    let small = SimWorkload::nussinov(600, 100, 10);
    let (_, trace) = simulate_traced(&small, &Experiment::new(4, 18).config(cost));
    println!("\nschedule of nussinov(600) on Experiment_4_18:");
    print!("{}", trace.gantt(72));

    // Question 4: where does the time go?
    println!(
        "\ndynamic run breakdown: {:.1}% compute-parallel efficiency, {} MB moved, master busy {:.1} ms",
        100.0 * dyn_r.compute_ns as f64
            / (dyn_r.makespan_ns as f64 * e.computing_cores() as f64),
        dyn_r.bytes_moved / 1_000_000,
        dyn_r.master_busy_ns as f64 / 1e6
    );
}
