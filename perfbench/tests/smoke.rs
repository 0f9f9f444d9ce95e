//! The whole harness end to end at smoke size: all four workloads, both
//! kinds of run, through the real binary — so the benchmark cannot rot
//! unnoticed between the PRs that use it.

use easyhps_perfbench::report::{agree, Manifest, ResultFile};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn smoke_run_emits_exactly_the_manifest_and_is_not_comparable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(root)
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("bench starts");
    assert!(status.success(), "bench run --smoke failed");

    let manifest =
        Manifest::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let file = ResultFile::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(file.smoke);
    let expected: BTreeSet<&str> = manifest
        .end_to_end
        .iter()
        .chain(&manifest.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let workloads: Vec<&str> = file.workloads.iter().map(|(w, _)| w.as_str()).collect();
    assert_eq!(workloads, manifest.workloads);
    for (w, series) in &file.workloads {
        let got: BTreeSet<&str> = series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(got, expected, "{w}");
        for s in series {
            assert_eq!(s.values.len(), 1, "{w} {}", s.name);
        }
    }
    assert!(
        agree(&manifest, &file, &file).is_err(),
        "agree must refuse smoke results"
    );

    // The same results, not marked smoke, agree with themselves.
    let full = ResultFile {
        smoke: false,
        ..file
    };
    assert_eq!(ResultFile::parse(&full.to_json()).unwrap(), full);
    let (table, ok) = agree(&manifest, &full, &full).unwrap();
    assert!(ok, "{table}");
}
