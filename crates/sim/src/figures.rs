//! Every table and figure of the EasyHPS paper's evaluation (§VI) at the
//! paper's own parameters (`seq_len = 10000`, `process_partition_size =
//! 200`, `thread_partition_size = 10`), as text — what `easyhps figures`
//! prints.
//!
//! All simulations are deterministic; rendering twice gives byte-identical
//! output. Expect several minutes for all of them (several hundred full
//! cluster simulations of 2500-tile DAGs); `fig14` is the cheapest.

use crate::{
    bcw_ratio_series, node_comparison_series, render_csv, render_table, scaling_series,
    sequential_ns, speedup_series, CostModel, Series, SimWorkload,
};
use std::fmt::Write as _;

/// What [`render`] accepts, in the order `easyhps figures all` prints them.
pub const NAMES: [&str; 6] = ["table1", "fig13", "fig14", "fig15", "fig16", "fig17"];

/// The total-core counts shared by several node deployments, used for the
/// Fig. 15 comparison (the paper highlights 20 and 40).
const FIG15_CORE_COUNTS: [u32; 6] = [14, 20, 27, 33, 40, 46];

fn paper_swgg() -> SimWorkload {
    SimWorkload::swgg(10_000, 200, 10)
}

fn paper_nussinov() -> SimWorkload {
    SimWorkload::nussinov(10_000, 200, 10)
}

fn emit(out: &mut String, title: &str, series: &[Series], csv: bool) {
    if csv {
        out.push_str(&render_csv("cores", series));
    } else {
        out.push_str(&render_table(title, "cores", series));
    }
    out.push('\n');
}

/// Render one of [`NAMES`] as an aligned table, or as CSV with `csv`
/// (`table1` is prose either way). `None` for any other name.
pub fn render(which: &str, csv: bool) -> Option<String> {
    let cost = CostModel::tianhe1a();
    let mut out = String::new();
    match which {
        "table1" => table1(&mut out),
        "fig13" => emit(
            &mut out,
            "Fig 13: SWGG elapsed time (s) vs cores, per node count (seq_len=10000, pps=200, tps=10)",
            &scaling_series(&paper_swgg(), cost),
            csv,
        ),
        "fig14" => emit(
            &mut out,
            "Fig 14: Nussinov elapsed time (s) vs cores, per node count (len=10000, pps=200, tps=10)",
            &scaling_series(&paper_nussinov(), cost),
            csv,
        ),
        "fig15" => {
            emit(
                &mut out,
                "Fig 15a: SWGG elapsed time (s) at equal core counts across node counts",
                &node_comparison_series(&paper_swgg(), cost, &FIG15_CORE_COUNTS),
                csv,
            );
            emit(
                &mut out,
                "Fig 15b: Nussinov elapsed time (s) at equal core counts across node counts",
                &node_comparison_series(&paper_nussinov(), cost, &FIG15_CORE_COUNTS),
                csv,
            );
        }
        "fig16" => {
            let _ = writeln!(
                out,
                "# sequential baselines: SWGG {:.2}s, Nussinov {:.2}s",
                sequential_ns(&paper_swgg(), &cost) as f64 / 1e9,
                sequential_ns(&paper_nussinov(), &cost) as f64 / 1e9
            );
            let (elapsed, speedup) = speedup_series(&paper_swgg(), cost, 53);
            emit(
                &mut out,
                "Fig 16a/b: SWGG best-grouping elapsed and speedup",
                &[elapsed, speedup],
                csv,
            );
            let (elapsed, speedup) = speedup_series(&paper_nussinov(), cost, 53);
            emit(
                &mut out,
                "Fig 16c/d: Nussinov best-grouping elapsed and speedup",
                &[elapsed, speedup],
                csv,
            );
        }
        "fig17" => {
            emit(
                &mut out,
                "Fig 17 (SWGG): BCW / EasyHPS runtime ratio (>1 means EasyHPS wins)",
                &bcw_ratio_series(&paper_swgg(), cost),
                csv,
            );
            emit(
                &mut out,
                "Fig 17 (Nussinov): BCW / EasyHPS runtime ratio (>1 means EasyHPS wins)",
                &bcw_ratio_series(&paper_nussinov(), cost),
                csv,
            );
        }
        _ => return None,
    }
    Some(out)
}

/// Table I is the user-facing data-structure surface of the DAG Data
/// Driven Model; its reproduction is the API itself. Print the mapping.
fn table1(out: &mut String) {
    out.push_str("# Table I: DAG Data Driven Model user API -> this implementation\n");
    for (paper, ours) in [
        (
            "pre_cnt / pos_cnt",
            "easyhps_core::TaskVertex::{preds, succs} lengths",
        ),
        (
            "data_pre_cnt / data_prefix_id",
            "easyhps_core::TaskVertex::data_deps",
        ),
        ("posfix_id", "easyhps_core::TaskVertex::succs"),
        (
            "process (task function)",
            "easyhps_dp::DpProblem::compute_region",
        ),
        ("dag_pattern_element", "easyhps_core::TaskDag vertex table"),
        ("dag_size", "easyhps_core::DagDataDrivenModel::dag_size"),
        (
            "partition_size (process/thread)",
            "DagDataDrivenModel::{process,thread}_partition_size",
        ),
        ("rect_size", "easyhps_core::DagDataDrivenModel::rect_size"),
        ("dag_pos", "easyhps_core::GridPos of each vertex"),
        (
            "dag_pattern_type",
            "easyhps_core::PatternKind + patterns library",
        ),
        (
            "data_mapping_function",
            "easyhps_core::ModelBuilder::data_mapping_function",
        ),
    ] {
        let _ = writeln!(out, "{paper:>34}  ->  {ours}");
    }
    out.push('\n');
}
