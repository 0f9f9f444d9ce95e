//! Unit-level checks of the harness's own arithmetic and generators.

use easyhps_core::patterns::Wavefront2D;
use easyhps_core::{GridDims, GridPos, TaskDag};
use easyhps_perfbench::layers::{critical_path, drive_scheduler};
use easyhps_perfbench::mix::{Label, Schedule, BLOCK, WINDOW};
use easyhps_perfbench::report::Manifest;
use easyhps_perfbench::sampler::{
    chunked_percentile, highest_supported_permille, median, overhead_frac, percentile,
    quartile_spread,
};
use easyhps_perfbench::workloads::{generate, Class, WORKLOADS};
use std::collections::VecDeque;

#[test]
fn median_and_percentile_on_known_vectors() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90), 90.0);
    assert_eq!(percentile(&v, 50), 50.0);
    assert_eq!(percentile(&v, 100), 100.0);
    assert_eq!(percentile(&[7.0], 90), 7.0);
    assert_eq!(overhead_frac(&[10.0, 10.0, 10.0], &[11.0, 12.0, 11.0]), 0.1);
    // Five chunks of 20 with p90s 18, 38, 58, 78, 98: one slow stretch at
    // the end of the run does not move the median of them.
    assert_eq!(chunked_percentile(&v, 90, 5), 58.0);
    let mut slow_tail = v.clone();
    slow_tail[80..].iter_mut().for_each(|x| *x *= 10.0);
    assert_eq!(chunked_percentile(&slow_tail, 90, 5), 58.0);
    assert_eq!(percentile(&slow_tail, 90), 900.0);
}

#[test]
fn percentile_picker_wants_ten_samples_beyond() {
    assert_eq!(highest_supported_permille(5), None);
    assert_eq!(highest_supported_permille(19), None);
    assert_eq!(highest_supported_permille(20), Some(500));
    assert_eq!(highest_supported_permille(99), Some(500));
    assert_eq!(highest_supported_permille(100), Some(900));
    assert_eq!(highest_supported_permille(999), Some(900));
    assert_eq!(highest_supported_permille(1000), Some(990));
    assert_eq!(highest_supported_permille(10_000), Some(999));
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartile_spread(&v), Some(1.0));
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartile_spread(&[4.0, 1.0, 2.0]), Some(1.5));
    assert_eq!(quartile_spread(&[1.0]), None);
}

#[test]
fn critical_path_of_a_3x3_wavefront() {
    let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(3, 3)));
    let mut weight = vec![0.0; dag.len()];
    let at = |r: u32, c: u32| dag.vertex_at(GridPos::new(r, c)).unwrap().index();
    // 1 2 3
    // 4 5 6   heaviest monotone path: 1 + 4 + 7 + 8 + 9
    // 7 8 9
    for r in 0..3 {
        for c in 0..3 {
            weight[at(r, c)] = f64::from(3 * r + c + 1);
        }
    }
    assert_eq!(critical_path(&dag, &weight), 29.0);
    // One heavy corner tile pulls the path through the top row.
    weight[at(0, 2)] = 100.0;
    assert_eq!(critical_path(&dag, &weight), 1.0 + 2.0 + 100.0 + 6.0 + 9.0);
    // Unit weights: the span is the number of anti-diagonals.
    assert_eq!(critical_path(&dag, &vec![1.0; dag.len()]), 5.0);
}

#[test]
fn bare_scheduler_finishes_with_a_fixed_event_count() {
    let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(4, 5)));
    // Two Idles, then Tick + Heard + Done per tile, then the Tick that
    // reports Finished.
    assert_eq!(drive_scheduler(&dag), 2 + 3 * dag.len() as u64 + 1);
}

#[test]
fn generator_is_a_function_of_class_len_seed_and_stream() {
    for class in [Class::Edit, Class::Swgg, Class::Nussinov] {
        let a = generate(class, 300, 7, 0);
        assert_eq!(a, generate(class, 300, 7, 0));
        assert_eq!(
            a.content_key_bytes(),
            generate(class, 300, 7, 0).content_key_bytes()
        );
        assert_ne!(a, generate(class, 300, 8, 0), "seed changes the input");
        assert_ne!(a, generate(class, 300, 7, 1), "stream changes the input");
    }
}

#[test]
fn schedule_blocks_hold_the_stated_mix_and_hits_stay_in_the_window() {
    for client in 0..2 {
        let steps: Vec<_> = Schedule::new(5, client).take(5 + 10 * 20).collect();
        assert_eq!(
            steps,
            Schedule::new(5, client)
                .take(steps.len())
                .collect::<Vec<_>>()
        );
        for block in steps[5..].chunks(20) {
            for (label, count) in BLOCK {
                assert_eq!(block.iter().filter(|s| s.label == label).count(), count);
            }
        }
        let mut window = VecDeque::new();
        for s in &steps {
            if s.label == Label::Hit {
                assert!(window.contains(&s.stream), "hit outside the last {WINDOW}");
            } else {
                assert!(!window.contains(&s.stream), "new problems are unique");
                assert_eq!(s.tiny, s.label == Label::Tiny);
                window.push_back(s.stream);
                if window.len() > WINDOW {
                    window.pop_front();
                }
            }
        }
    }
    // Clients draw from disjoint streams.
    let of = |c| -> Vec<u64> { Schedule::new(5, c).take(100).map(|s| s.stream).collect() };
    let (a, b) = (of(0), of(1));
    assert!(a.iter().all(|s| !b.contains(s)));
}

#[test]
fn manifest_names_are_well_formed_and_cover_the_suite() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let manifest = Manifest::parse(&text).unwrap();
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    names.extend(manifest.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(manifest.per_layer.iter().map(|m| m.name.as_str()));
    for (i, name) in names.iter().enumerate() {
        assert!(well_formed(name), "{name}");
        assert!(!names[..i].contains(name), "{name} is used twice");
    }
    assert!(manifest.end_to_end.iter().any(|m| m.name == "setup_s"));
    assert!(manifest
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}
