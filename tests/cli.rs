//! End-to-end tests of the `easyhps` CLI binary.

use easyhps::runtime::remote::{JobSpec, ProblemParams, RemoteProblem};
use easyhps::runtime::{Fleet, JobOptions};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn easyhps(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_easyhps"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn editdist_prints_the_distance() {
    let (ok, stdout, _) = easyhps(&["editdist", "kitten", "sitting"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "3");

    // Regression: `editdist` used to hard-code 2 slaves x 2 threads and
    // the library's default partitions; it takes the deployment flags
    // `align` and `fold` take. An 8x7 matrix in 4x4 tiles is 4 tiles.
    let (ok, stdout, stderr) = easyhps(&[
        "editdist",
        "kitten",
        "sitting",
        "--slaves",
        "3",
        "--threads",
        "1",
        "--pps",
        "4",
        "--tps",
        "2",
        "--metrics",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().next(), Some("3"));
    assert!(stdout.contains("master_tiles_completed 4"), "{stdout}");
    assert!(stdout.contains("slave=\"2\""), "three slaves ran: {stdout}");
}

#[test]
fn align_on_fasta_file() {
    let dir = std::env::temp_dir().join(format!("easyhps-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pair.fa");
    std::fs::write(&path, ">q\nACGTACGTTTACGG\n>s\nTTACGTACGTTTAC\n").unwrap();
    let (ok, stdout, stderr) = easyhps(&["align", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("score"), "{stdout}");
    assert!(stdout.contains('|'), "midline rendered");

    // Global mode also works.
    let (ok, stdout, _) = easyhps(&[
        "align",
        path.to_str().unwrap(),
        "--global",
        "--gap",
        "linear:2",
    ]);
    assert!(ok);
    assert!(stdout.contains("score"));

    // Regression: a non-linear gap with --global used to align silently
    // with linear gap 2.
    let (ok, _, stderr) = easyhps(&[
        "align",
        path.to_str().unwrap(),
        "--global",
        "--gap",
        "affine:5,1",
    ]);
    assert!(!ok, "Needleman-Wunsch has no affine gap");
    assert!(stderr.contains("--gap linear:N"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fold_prints_dot_bracket() {
    let dir = std::env::temp_dir().join(format!("easyhps-cli-fold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rna.fa");
    std::fs::write(&path, ">hairpin\nGGGGAAAACCCC\n").unwrap();
    let (ok, stdout, stderr) = easyhps(&["fold", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("base pairs"), "{stdout}");
    assert!(stdout.contains('('), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_exports_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("easyhps-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("pair.fa");
    std::fs::write(&fasta, ">q\nACGTACGTTTACGGAGTC\n>s\nTTACGTACGTTTACGATG\n").unwrap();
    let trace = dir.join("trace.json");
    let (ok, stdout, stderr) = easyhps(&[
        "align",
        fasta.to_str().unwrap(),
        "--metrics",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("score"), "{stdout}");
    assert!(
        stdout.contains("master_tiles_completed"),
        "--metrics prints the exposition: {stdout}"
    );
    assert!(
        stdout.contains("# TYPE master_tile_latency_ns summary"),
        "{stdout}"
    );

    let text = std::fs::read_to_string(&trace).expect("--trace-out writes the file");
    let summary = easyhps::obs::validate_chrome_trace(&text).expect("valid Chrome trace");
    assert!(summary.pids >= 3, "master + 2 slaves in the trace");
    assert!(summary.count("dispatch") >= 1);
    assert!(summary.count("compute") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_reports_and_gantt() {
    let dir = std::env::temp_dir().join(format!("easyhps-cli-sim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sim-trace.json");
    let (ok, stdout, stderr) = easyhps(&[
        "sim",
        "--workload",
        "nussinov",
        "--len",
        "600",
        "--nodes",
        "3",
        "--cores",
        "12",
        "--gantt",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("speedup"), "{stdout}");
    assert!(stdout.contains("node0"), "gantt lanes rendered");

    // The simulator's virtual-time schedule exports as a Chrome trace too.
    let text = std::fs::read_to_string(&trace).expect("sim --trace-out writes the file");
    let summary = easyhps::obs::validate_chrome_trace(&text).expect("valid Chrome trace");
    assert!(summary.events > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = easyhps(&["sim", "--nodes", "2", "--cores", "3"]);
    assert!(!ok);
    assert!(stderr.contains("not realizable"));

    let (ok, _, stderr) = easyhps(&["align", "/nonexistent/file.fa"]);
    assert!(!ok);
    assert!(stderr.contains("error"));

    let (ok, _, stderr) = easyhps(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, _) = easyhps(&["editdist", "onlyone"]);
    assert!(!ok);

    for cmd in ["sim", "analyze", "explore"] {
        let (ok, _, stderr) = easyhps(&[cmd, "--workload", "frobnicate"]);
        assert!(!ok);
        assert!(
            stderr.contains("swgg|nussinov|wavefront"),
            "{cmd}: {stderr}"
        );
    }
    let (ok, _, stderr) = easyhps(&["stress", "--seed", "1", "--list", "--workload", "wavefront"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"), "{stderr}");

    // A zero duration is refused before the master binds (the address is
    // unbindable, so a master that got as far as binding says so instead).
    for flag in [
        "--heartbeat-ms",
        "--heartbeat-timeout-ms",
        "--task-timeout-ms",
    ] {
        let (ok, stdout, stderr) = easyhps(&[
            "master",
            "--listen",
            "uds:/nonexistent/easyhps.sock",
            "--slaves",
            "1",
            "editdist",
            "abc",
            "abd",
            flag,
            "0",
        ]);
        assert!(!ok, "{flag} 0");
        assert!(stderr.contains("(zero)"), "{flag} 0: {stderr}");
        assert!(!stdout.contains("listening"), "{flag} 0: {stdout}");
    }
}

#[test]
fn analyze_reports_dag_structure() {
    let (ok, stdout, stderr) = easyhps(&[
        "analyze",
        "--workload",
        "nussinov",
        "--len",
        "1000",
        "--pps",
        "100",
        "--tps",
        "10",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(
        stdout.contains("sub-tasks:        55"),
        "10x10 triangle: {stdout}"
    );
    assert!(stdout.contains("max width:        10"), "{stdout}");
}

/// A child process whose first stdout line `PREFIX ADDR` has been read;
/// killed on drop so a failing assertion leaks nothing.
struct Listening {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_listening(args: &[&str], prefix: &str) -> Listening {
    let mut child = Command::new(env!("CARGO_BIN_EXE_easyhps"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the address line");
    let addr = line
        .strip_prefix(prefix)
        .unwrap_or_else(|| panic!("`easyhps {}` printed {line:?} first", args.join(" ")))
        .trim()
        .to_string();
    Listening {
        child,
        addr,
        stdout,
    }
}

fn crc_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("matrix-crc: "))
        .unwrap_or_else(|| panic!("no matrix-crc line in {stdout:?}"))
}

/// One row of `RemoteProblem::NAMES` is all a recurrence needs to run
/// everywhere: for every name, parse -> seeded random problem -> JOB
/// bytes round-trip -> a 2-slave fleet run equal to the sequential
/// kernel, and the same name is accepted by `stress --workload`, by
/// `master` (two slave processes over TCP) and by `submit` (a daemon),
/// each printing the CRC of the library's sequential matrix.
#[test]
fn every_name_in_the_problem_table_runs_everywhere() {
    let (len, seed) = (24usize, 5u64);
    // The sub-seeds `master|submit --len N --seed S` derive.
    let sub_seed = |i: u64| seed.wrapping_add(i).wrapping_mul(0x9e3779b97f4a7c15);
    let mut fleet = Fleet::local(2, None).unwrap();
    let daemon = spawn_listening(&["serve", "--listen", "127.0.0.1:0"], "serving: ");

    for name in RemoteProblem::NAMES {
        assert_eq!(RemoteProblem::parse_name(name), Ok(name));
        let problem = RemoteProblem::random(
            name,
            len,
            sub_seed(0),
            sub_seed(1),
            &ProblemParams::default(),
        )
        .unwrap();
        assert_eq!(problem.name(), name);

        let (pp, tp) = RemoteProblem::resolve_partitions(problem.dims(), 2, 2, None, None);
        let spec = JobSpec::new(problem.clone(), pp, tp);
        assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec, "{name}");
        let reference = problem.solve_sequential();
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.matrix, reference, "{name}: 2-slave run");
        let d = reference.dims();
        let crc = format!(
            "{:#010x}",
            easyhps::net::crc32c(
                &reference.encode_region(easyhps::TileRegion::new(0, d.rows, 0, d.cols))
            )
        );

        let (ok, stdout, stderr) =
            easyhps(&["stress", "--seed", "3", "--list", "--workload", name]);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains(&format!("workload={name} ")), "{stdout}");

        let (len, seed) = (len.to_string(), seed.to_string());
        let job = [name, "--len", &len, "--seed", &seed];
        let mut master = spawn_listening(
            &[
                &["master", "--listen", "127.0.0.1:0", "--slaves", "2"],
                &job[..],
            ]
            .concat(),
            "listening: ",
        );
        let slaves: Vec<Child> = (0..2)
            .map(|_| {
                Command::new(env!("CARGO_BIN_EXE_easyhps"))
                    .args(["slave", "--connect", &master.addr])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("binary runs")
            })
            .collect();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut master.stdout, &mut rest).unwrap();
        assert!(master.child.wait().unwrap().success(), "{name}: {rest}");
        assert_eq!(crc_line(&rest), crc, "{name}: master");
        for mut s in slaves {
            assert!(s.wait().unwrap().success(), "{name}: slave");
        }

        let (ok, stdout, stderr) =
            easyhps(&[&["submit", "--connect", &daemon.addr, "--wait"], &job[..]].concat());
        assert!(ok, "{name}: {stderr}");
        assert_eq!(crc_line(&stdout), crc, "{name}: submit");
    }
    fleet.shutdown();
}
