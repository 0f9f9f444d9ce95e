//! Multi-process end-to-end tests: the `easyhps master` / `easyhps
//! slave` CLI as *real OS processes* joined only by sockets.
//!
//! These are the acceptance drills for the socket transport:
//!
//! * a master plus two slave processes over TCP and over a Unix-domain
//!   socket produce a matrix bit-identical (by CRC) to the sequential
//!   kernel run in this process;
//! * `kill -9` on a slave mid-run: the master excludes it, redispatches,
//!   and still completes with the right matrix;
//! * `kill -9` on the *master* mid-run with durable checkpointing on:
//!   restarting with `--resume` (and fresh slaves) recovers bit-identical.

#![cfg(unix)]

use easyhps::dp::sequence::{random_sequence, Alphabet};
use easyhps::dp::{DpProblem, EditDistance};
use easyhps::net::crc32c;
use easyhps::TileRegion;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_easyhps");

fn seqs() -> (Vec<u8>, Vec<u8>) {
    (
        random_sequence(Alphabet::Dna, 200, 7),
        random_sequence(Alphabet::Dna, 203, 8),
    )
}

/// The `matrix-crc:` value the master must print: CRC of the sequential
/// kernel's full-matrix encoding (the runtime is exact, so any correct
/// run — in-process or multi-process — matches this).
fn expected_crc() -> String {
    let (a, b) = seqs();
    let m = EditDistance::new(a, b).solve_sequential();
    let d = m.dims();
    format!(
        "{:#010x}",
        crc32c(&m.encode_region(TileRegion::new(0, d.rows, 0, d.cols)))
    )
}

/// A spawned `easyhps master` whose `listening:` line has been consumed.
struct MasterProc {
    child: Child,
    addr: String,
    reader: BufReader<std::process::ChildStdout>,
}

fn spawn_master(extra: &[&str]) -> MasterProc {
    let (a, b) = seqs();
    let mut cmd = Command::new(BIN);
    cmd.args([
        "master",
        "--slaves",
        "2",
        "--pps",
        "12",
        "--tps",
        "4",
        "--task-timeout-ms",
        "1000",
    ])
    .args(extra)
    .args(["editdist"])
    .arg(String::from_utf8(a).unwrap())
    .arg(String::from_utf8(b).unwrap())
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn master");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // Scan to the listening line, whatever the master prints before it.
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read listening line");
        assert!(n > 0, "master exited before printing a listening line");
        if let Some(addr) = line.strip_prefix("listening: ") {
            break addr.trim().to_string();
        }
    };
    MasterProc {
        child,
        addr,
        reader,
    }
}

impl MasterProc {
    /// Wait for exit and return (success, remaining stdout).
    fn finish(mut self) -> (bool, String) {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).unwrap();
        let status = self.child.wait().unwrap();
        (status.success(), rest)
    }
}

fn spawn_slave(addr: &str, rank: u32) -> Child {
    Command::new(BIN)
        .args(["slave", "--connect", addr, "--rank", &rank.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn slave")
}

/// Reap `child` within `timeout`, SIGKILLing on expiry. Returns whether
/// it exited successfully on its own.
fn reap(mut child: Child, timeout: Duration) -> bool {
    let t0 = Instant::now();
    loop {
        match child.try_wait().unwrap() {
            Some(status) => return status.success(),
            None if t0.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn crc_line(output: &str) -> &str {
    output
        .lines()
        .find_map(|l| l.strip_prefix("matrix-crc: "))
        .unwrap_or_else(|| panic!("no matrix-crc line in {output:?}"))
        .trim()
}

fn run_cluster(listen: &str) -> String {
    let master = spawn_master(&["--listen", listen]);
    let s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    let (ok, out) = master.finish();
    assert!(ok, "master failed:\n{out}");
    assert!(reap(s1, Duration::from_secs(30)), "slave 1 failed");
    assert!(reap(s2, Duration::from_secs(30)), "slave 2 failed");
    crc_line(&out).to_string()
}

#[test]
fn tcp_cluster_is_bit_identical_to_sequential() {
    assert_eq!(run_cluster("127.0.0.1:0"), expected_crc());
}

#[test]
fn uds_cluster_is_bit_identical_to_sequential() {
    let path = std::env::temp_dir().join(format!("easyhps-e2e-{}.sock", std::process::id()));
    let listen = format!("uds:{}", path.display());
    assert_eq!(run_cluster(&listen), expected_crc());
}

/// SIGKILL one slave mid-run: the master must exclude it, redispatch its
/// tiles to the survivor, and still produce the exact matrix.
#[test]
fn kill9_slave_mid_run_completes_exactly() {
    let master = spawn_master(&[
        "--listen",
        "127.0.0.1:0",
        "--heartbeat-ms",
        "20",
        "--heartbeat-timeout-ms",
        "150",
        "--task-timeout-ms",
        "400",
    ]);
    let mut s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    // Let the run get going, then hard-kill slave 1. If the run happened
    // to finish first the kill is a no-op and this degenerates to the
    // clean two-slave case — still a valid pass.
    std::thread::sleep(Duration::from_millis(120));
    let _ = s1.kill();
    let _ = s1.wait();
    let (ok, out) = master.finish();
    assert!(ok, "master failed after slave kill:\n{out}");
    assert_eq!(crc_line(&out), expected_crc());
    assert!(reap(s2, Duration::from_secs(30)), "surviving slave failed");
}

/// The `fleet:` line an elastic master prints, parsed into
/// (rejoins, stale-epoch fences).
fn fleet_line(output: &str) -> (u64, u64) {
    let line = output
        .lines()
        .find_map(|l| l.strip_prefix("fleet: "))
        .unwrap_or_else(|| panic!("no fleet line in {output:?}"));
    let nums: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(nums.len(), 2, "malformed fleet line: {line:?}");
    (nums[0], nums[1])
}

fn signal(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill {sig} failed");
}

/// The elastic-membership drill (DESIGN.md §17), over real processes and
/// TCP: SIGKILL a slave mid-run and start a replacement process on the
/// same rank. The master (running with a reconnect window) must admit
/// the new incarnation as a rejoin — epoch bumped, in-flight work rolled
/// back and redistributed — and the run must still finish bit-identical
/// with no slave permanently excluded from the result.
#[test]
fn killed_slave_replaced_on_same_rank_rejoins_and_run_is_exact() {
    // Tiny tiles keep the run latency-bound (~1 s even in release), so
    // the kill below reliably lands mid-run rather than after the last
    // DONE. Duplicate flags are last-wins, overriding spawn_master's.
    let master = spawn_master(&[
        "--listen",
        "127.0.0.1:0",
        "--pps",
        "2",
        "--tps",
        "1",
        "--reconnect-ms",
        "10000",
        "--heartbeat-ms",
        "20",
        "--heartbeat-timeout-ms",
        "300",
        "--task-timeout-ms",
        "600",
    ]);
    let mut s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    // Let the first incarnation take work, then hard-kill it and start
    // its replacement immediately: a fresh session on the same rank.
    std::thread::sleep(Duration::from_millis(80));
    let _ = s1.kill();
    let _ = s1.wait();
    let s1b = spawn_slave(&master.addr, 1);
    let (ok, out) = master.finish();
    assert!(ok, "master failed across the rejoin:\n{out}");
    assert_eq!(crc_line(&out), expected_crc());
    let (rejoins, _fenced) = fleet_line(&out);
    assert!(
        rejoins >= 1,
        "the replacement incarnation must register as a rejoin:\n{out}"
    );
    // The replacement served to the end of the run; the survivor too.
    assert!(
        reap(s1b, Duration::from_secs(30)),
        "replacement slave failed"
    );
    assert!(reap(s2, Duration::from_secs(30)), "surviving slave failed");
}

/// The same drill over a Unix-domain socket: the membership protocol is
/// transport-agnostic.
#[test]
fn uds_killed_slave_replaced_on_same_rank_rejoins() {
    let path = std::env::temp_dir().join(format!("easyhps-e2e-rejoin-{}.sock", std::process::id()));
    let listen = format!("uds:{}", path.display());
    let master = spawn_master(&[
        "--listen",
        &listen,
        "--pps",
        "2",
        "--tps",
        "1",
        "--reconnect-ms",
        "10000",
        "--heartbeat-ms",
        "20",
        "--heartbeat-timeout-ms",
        "300",
        "--task-timeout-ms",
        "600",
    ]);
    let mut s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    std::thread::sleep(Duration::from_millis(80));
    let _ = s1.kill();
    let _ = s1.wait();
    let s1b = spawn_slave(&master.addr, 1);
    let (ok, out) = master.finish();
    assert!(ok, "master failed across the rejoin:\n{out}");
    assert_eq!(crc_line(&out), expected_crc());
    let (rejoins, _) = fleet_line(&out);
    assert!(rejoins >= 1, "no rejoin observed:\n{out}");
    assert!(
        reap(s1b, Duration::from_secs(30)),
        "replacement slave failed"
    );
    assert!(reap(s2, Duration::from_secs(30)), "surviving slave failed");
}

/// SIGSTOP/SIGCONT re-admission: freeze a slave past the heartbeat
/// timeout (excluded as silent), thaw it (heard again, re-admitted), and
/// require the bit-identical matrix. The frozen incarnation never died,
/// so this exercises the exclusion/re-admission path rather than the
/// epoch fence — any DONE it wakes up holding is either still current or
/// a plain stale completion, and both are idempotent.
#[test]
fn sigstopped_slave_is_readmitted_and_run_is_exact() {
    let master = spawn_master(&[
        "--listen",
        "127.0.0.1:0",
        "--pps",
        "2",
        "--tps",
        "1",
        "--heartbeat-ms",
        "20",
        "--heartbeat-timeout-ms",
        "200",
        "--task-timeout-ms",
        "400",
    ]);
    let s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    std::thread::sleep(Duration::from_millis(100));
    signal(&s1, "-STOP");
    // Well past heartbeat-timeout: the master judges rank 1 silent.
    std::thread::sleep(Duration::from_millis(600));
    signal(&s1, "-CONT");
    let (ok, out) = master.finish();
    assert!(ok, "master failed across the freeze:\n{out}");
    assert_eq!(crc_line(&out), expected_crc());
    assert!(reap(s1, Duration::from_secs(30)), "thawed slave failed");
    assert!(reap(s2, Duration::from_secs(30)), "surviving slave failed");
}

/// SIGKILL the master mid-run with durable checkpointing, then restart
/// with `--resume` and fresh slaves: recovery must be bit-identical.
#[test]
fn kill9_master_then_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("easyhps-e2e-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // Phase 1: checkpoint every accepted tile, kill the master mid-run.
    let mut master = spawn_master(&[
        "--listen",
        "127.0.0.1:0",
        "--checkpoint-dir",
        &dir_s,
        "--checkpoint-every",
        "1",
    ]);
    let s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    std::thread::sleep(Duration::from_millis(150));
    let _ = master.child.kill();
    let _ = master.child.wait();
    // Orphaned slaves notice the dead master (their link's receive
    // fails) and exit on their own; don't require success, just exit.
    reap(s1, Duration::from_secs(30));
    reap(s2, Duration::from_secs(30));

    // Phase 2: recover from the directory alone.
    let master = spawn_master(&[
        "--listen",
        "127.0.0.1:0",
        "--checkpoint-dir",
        &dir_s,
        "--resume",
    ]);
    let s1 = spawn_slave(&master.addr, 1);
    let s2 = spawn_slave(&master.addr, 2);
    let (ok, out) = master.finish();
    assert!(ok, "resumed master failed:\n{out}");
    assert_eq!(crc_line(&out), expected_crc());
    assert!(reap(s1, Duration::from_secs(30)), "slave 1 failed");
    assert!(reap(s2, Duration::from_secs(30)), "slave 2 failed");
    let _ = std::fs::remove_dir_all(&dir);
}
