//! Golden-series regression: the simulator must reproduce a committed
//! figure series byte-for-byte. Any change to the cost model, scheduling
//! policy or event ordering shows up here as a diff, forcing a deliberate
//! regeneration (and an EXPERIMENTS.md update) instead of a silent drift
//! of the paper reproduction.

use easyhps_sim::{render_csv, scaling_series, CostModel, SimWorkload};

#[test]
fn nussinov_scaling_series_matches_golden_csv() {
    let w = SimWorkload::nussinov(1_000, 100, 10);
    let series = scaling_series(&w, CostModel::tianhe1a());
    let csv = render_csv("cores", &series);
    let golden = include_str!("golden_nussinov_1000.csv");
    assert_eq!(
        csv, golden,
        "simulator output drifted from the committed golden series; if the \
         change is intentional, regenerate the CSV and re-run the paper \
         figures (see EXPERIMENTS.md)"
    );
}

/// What the figures *say*, not only that they repeat: `easyhps figures
/// fig14 --csv` (the cheapest figure at paper scale) must print the bytes
/// the `figures` binary printed before it moved into this crate.
#[test]
fn fig14_csv_matches_golden_bytes() {
    let csv = easyhps_sim::figures::render("fig14", true).expect("fig14 is a figure");
    assert_eq!(csv, include_str!("golden_fig14.csv"));
}
