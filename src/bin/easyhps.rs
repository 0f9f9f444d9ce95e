//! `easyhps` — command-line front end to the runtime and the simulator.
//!
//! ```text
//! easyhps align <fasta>   [--global] [--gap log:4,2|affine:4,1|linear:2]
//!                         [--slaves N] [--threads N] [--pps N] [--tps N]
//! easyhps fold  <fasta>   [--min-loop N] [--slaves N] [--threads N] [--pps N] [--tps N]
//! easyhps editdist <a> <b> [--slaves N] [--threads N] [--pps N] [--tps N]
//! easyhps figures [fig13|fig14|fig15|fig16|fig17|table1|all]... [--csv]
//! easyhps sim   [--workload swgg|nussinov|wavefront] [--len N]
//!               [--nodes X] [--cores Y] [--policy dynamic|bcw|cw] [--gantt]
//!               [--trace-out PATH]
//! easyhps analyze [--workload swgg|nussinov|wavefront] [--len N]
//!               [--pps N] [--tps N]
//! easyhps explore [--workload swgg|nussinov|wavefront] [--len N]
//!               [--pps N] [--tps N] [--slaves N] [--mode dynamic|bcw|cw]
//!               [--depth N] [--max-schedules N] [--reorder-window N]
//!               [--rejoin SLAVE@AFTER]... [--drain SLAVE@AFTER]...
//!               [--sever SLAVE@AFTER]...
//! easyhps stress [--seed N | --seeds N [--start N]] [--kill-master]
//!               [--mode dynamic|bcw|cw] [--slaves N] [--transport inproc|tcp|uds]
//!               [--workload editdist|swgg|nussinov|nw|lcs] [--clauses i,j|none]
//!               [--hang-timeout SECS] [--no-shrink] [--list]
//! easyhps master --listen ADDR --slaves N <editdist|lcs|nw|swgg|nussinov>
//!               [SEQ...] [--len N --seed S] [--pps N] [--tps N] [--threads N]
//!               [--mode dynamic|bcw|cw] [--gap SPEC] [--min-loop N]
//!               [--task-timeout-ms N] [--heartbeat-ms N] [--heartbeat-timeout-ms N]
//!               [--reconnect-ms N]
//! easyhps slave --connect ADDR [--rank R] [--threads N]
//!               [--reconnect-ms N]
//! easyhps serve --listen ADDR [--slaves N] [--threads N] [--fleet-listen ADDR]
//!               [--state-dir DIR] [--queue N] [--batch-cells N] [--batch-jobs N]
//!               [--checkpoint-every N] [--job-metrics] [--weight TENANT=N]...
//! easyhps submit --connect ADDR [--tenant T] [--wait]
//!               <editdist|lcs|nw|swgg|nussinov> [SEQ...] [--len N --seed S]
//!               [--pps N] [--tps N] [--mode dynamic|bcw|cw] [--gap SPEC]
//! easyhps status --connect ADDR JOB
//! easyhps stats  --connect ADDR
//! easyhps cancel --connect ADDR JOB
//! easyhps drain  --connect ADDR RANK
//! ```
//!
//! `align`, `fold` and `editdist` run the real multilevel runtime on the
//! input (`align --global` is Needleman-Wunsch and takes `--gap linear:N`
//! only); `sim` runs the deterministic cluster simulator and can print a
//! Gantt chart of the schedule; `figures` regenerates the paper's
//! evaluation (§VI) from the simulator at the paper's own parameters —
//! deterministic, byte-identical run to run, minutes for `all`;
//! `explore` *enumerates* master-scheduler event
//! orderings on a fault-free virtual cluster (bounded-depth reordering,
//! CHESS-style) and checks the schedule invariants on every explored
//! order — complementary to `stress`, which *samples* interleavings with
//! real threads and injected faults; `stress` drives the real runtime
//! through seed-derived adversarial fault schedules and checks run
//! invariants (failing seeds print a one-line repro with a minimized
//! schedule).
//! `stress --kill-master` runs the crash-recovery drill instead: each
//! seed checkpoints to disk, kills the master mid-run, restarts from the
//! checkpoint directory, and requires bit-identical recovery.
//!
//! `master` and `slave` run the two halves of a **multi-process**
//! deployment over real sockets (`ADDR` is `tcp:HOST:PORT`, bare
//! `HOST:PORT`, or `uds:PATH`): the master binds, prints the bound
//! address on a `listening:` line, ships the job description to every
//! connected slave, and prints a `matrix-crc:` line at the end so
//! separate runs can be compared bit for bit. Slaves connect, receive
//! the job, and serve until the run ends. Input sequences are given as
//! positional arguments or generated with `--len N --seed S`.
//! `--reconnect-ms N` sets the **rejoin window** of the elastic
//! membership protocol (DESIGN.md §17): on `master` it keeps the listener
//! open and waits that long for an unreachable slave before counting it
//! dead; on `slave` it redials a broken link for that long and rejoins on
//! its rank under a bumped fleet epoch. The master rolls back and
//! redistributes the old incarnation's in-flight tiles, fences any
//! completion it stamped, and reports the counts on a `fleet:` line. With a
//! `serve --fleet-listen` fleet, `drain RANK` asks the daemon to stop
//! assigning work to that slave, wait out its in-flight sub-tasks, and
//! release the rank back to the fleet's free-list (new slaves may join
//! a running fleet at any time by connecting to the fleet address).
//!
//! `serve` runs the **DP-as-a-service daemon**: a long-lived process that
//! owns a persistent slave fleet (in-process by default, real slave
//! processes via `--fleet-listen`) and accepts jobs from the client
//! subcommands over the CRC-sealed client protocol. Submissions pass
//! admission control (bounded queue, reject-with-reason), identical
//! in-flight jobs coalesce into one computation, a repeat of a finished
//! job is answered with its stored digest (shape and CRC — the daemon
//! keeps no cells), and `--state-dir` makes accepted jobs survive a
//! daemon kill. `submit` ships the same workload
//! grammar as `master` and prints the job id; `--wait` (or a cache hit)
//! also prints the `matrix-crc:` line, identical to the one a one-shot
//! `master` run prints for the same problem. `status`, `stats` and
//! `cancel` poke a running daemon.
//!
//! Every runtime command (`align`, `fold`, `editdist`) also accepts
//! `--metrics` (print a Prometheus-style metrics exposition of the run to
//! stdout) and `--trace-out PATH` (write a Chrome trace-event JSON file —
//! open it in Perfetto, <https://ui.perfetto.dev>), plus the durable
//! recovery flags: `--checkpoint-dir DIR` (append finished tiles to an
//! on-disk checkpoint as the run progresses), `--checkpoint-every N`
//! (flush cadence in accepted tiles, default 32, at least 1), and
//! `--resume` (restore the directory's progress and skip the finished
//! tiles); the last two need `--checkpoint-dir`.
//!
//! ## Exit codes
//!
//! `stress` distinguishes failure classes so CI can triage without
//! parsing output:
//!
//! * `0` — every seed passed all invariants;
//! * `1` — an invariant failed, a run errored, or the arguments were
//!   malformed;
//! * `2` — a run hung (no result within `--hang-timeout`): deadlock or
//!   livelock, the trace file is left on disk for inspection.
//!
//! Every other command exits `0` on success and `1` on any error.

use easyhps::dp::sequence::parse_fasta;
use easyhps::dp::{EditDistance, Lcs, NeedlemanWunsch, Nussinov, SmithWatermanGeneralGap};
use easyhps::runtime::remote::{GapSpec, JobSpec, ProblemParams, RemoteProblem};
use easyhps::runtime::with_problem;
use easyhps::sim::{sequential_ns, simulate_traced, CostModel, Experiment, SimWorkload};
use easyhps::{CheckpointPolicy, DpMatrix, EasyHps, GridDims, ScheduleMode};
use std::process::ExitCode;

/// Minimal flag parser: positionals plus `--key value` / `--flag` pairs.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(
        raw: impl IntoIterator<Item = String>,
        boolean_flags: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if boolean_flags.contains(&name) {
                    out.flags.push((name.to_string(), None));
                } else {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), Some(v)));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Every value given for a repeatable flag, in order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse '{v}'"))
            })
            .transpose()
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }
}

/// The durable-recovery flags every runtime command and `master` share:
/// `--checkpoint-dir DIR`, `--checkpoint-every N`, `--resume`. Returns
/// the policy to checkpoint under; with `--resume` it continues the run
/// the directory holds (an empty or missing directory resumes from
/// nothing — the run simply starts fresh and checkpoints into it).
fn recovery_flags(args: &Args) -> Result<Option<CheckpointPolicy>, String> {
    let Some(dir) = args.get("checkpoint-dir") else {
        for flag in ["resume", "checkpoint-every"] {
            if args.has(flag) {
                return Err(format!("--{flag} needs --checkpoint-dir"));
            }
        }
        return Ok(None);
    };
    let mut policy = CheckpointPolicy::new(dir).with_resume(args.has("resume"));
    if let Some(n) = args.get_opt("checkpoint-every")? {
        if n == 0 {
            return Err("--checkpoint-every must be at least 1 tile".into());
        }
        policy = policy.with_every_tiles(n);
    }
    Ok(Some(policy))
}

/// Print the run's metrics exposition when `--metrics` asked for one.
fn print_metrics<C: easyhps::dp::Cell>(out: &easyhps::RunOutput<C>) {
    if let Some(registry) = &out.metrics {
        print!("{}", registry.snapshot().render_text());
    }
}

/// Parse a gap spec like `log:4,2`, `affine:4,1`, `linear:2`.
fn parse_gap(spec: &str) -> Result<GapSpec, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let nums: Vec<i32> = if rest.is_empty() {
        vec![]
    } else {
        rest.split(',')
            .map(|n| {
                n.trim()
                    .parse()
                    .map_err(|_| format!("bad gap number '{n}'"))
            })
            .collect::<Result<_, _>>()?
    };
    match (kind, nums.as_slice()) {
        ("linear", [g]) => Ok(GapSpec::Linear(*g)),
        ("affine", [o, e]) => Ok(GapSpec::Affine(*o, *e)),
        ("log", [a, b]) => Ok(GapSpec::Logarithmic(*a, *b)),
        _ => Err(format!(
            "gap spec '{spec}' not understood (use linear:N, affine:O,E or log:A,B)"
        )),
    }
}

/// The one table of scheduling-policy names; `bcw` bands `block` tiles.
fn parse_policy(spec: &str, block: u32) -> Result<ScheduleMode, String> {
    match spec {
        "dynamic" => Ok(ScheduleMode::Dynamic),
        "bcw" => Ok(ScheduleMode::BlockCyclic { block }),
        "cw" => Ok(ScheduleMode::ColumnWavefront),
        other => Err(format!("unknown policy '{other}' (dynamic|bcw|cw)")),
    }
}

/// The records of a FASTA file, at least `n` of them.
fn read_fasta(path: &str, n: usize) -> Result<Vec<(String, Vec<u8>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = parse_fasta(&text);
    if records.len() < n {
        return Err(format!(
            "{path}: need {n} FASTA record(s), found {}",
            records.len()
        ));
    }
    Ok(records)
}

/// The problem a command runs: the [`RemoteProblem::NAMES`] entry `name`
/// over `seqs`, or with none given over `--len N` (`--seed S`)
/// deterministic random ones, parameterised by `--gap SPEC` (`--gap-per
/// N` spells `--gap linear:N`) and `--min-loop N`. Every command that
/// takes a problem builds it here.
fn build_problem(args: &Args, name: &str, seqs: Vec<Vec<u8>>) -> Result<RemoteProblem, String> {
    let name = RemoteProblem::parse_name(name)?;
    let gap = match args.get("gap") {
        Some(spec) => Some(parse_gap(spec)?),
        None => args.get_opt("gap-per")?.map(GapSpec::Linear),
    };
    let params = ProblemParams {
        gap,
        min_loop: args.get_opt("min-loop")?,
    };
    if !seqs.is_empty() {
        return RemoteProblem::from_sequences(name, seqs, &params);
    }
    let len = args.get_num("len", 0usize)?;
    if len == 0 {
        return Err(
            "give sequences as arguments, or --len N (with --seed S) for random input".into(),
        );
    }
    let seed = args.get_num("seed", 1u64)?;
    let sub_seed = |i: u64| seed.wrapping_add(i).wrapping_mul(0x9e3779b97f4a7c15);
    RemoteProblem::random(name, len, sub_seed(0), sub_seed(1), &params)
}

/// What a command prints for a finished matrix — the only per-problem
/// code in this file. `label` is the input's FASTA record name. The
/// default is the score in the matrix corner, which is what a distance
/// or a subsequence length is.
trait Report {
    fn report(&self, m: &DpMatrix<i32>, _label: &str) -> String {
        let d = m.dims();
        m.get(d.rows - 1, d.cols - 1).to_string()
    }
}

impl Report for EditDistance {}
impl Report for Lcs {}

impl Report for NeedlemanWunsch {
    fn report(&self, m: &DpMatrix<i32>, _label: &str) -> String {
        self.traceback(m).to_string()
    }
}

impl Report for SmithWatermanGeneralGap {
    fn report(&self, m: &DpMatrix<i32>, _label: &str) -> String {
        self.traceback(m).to_string()
    }
}

impl Report for Nussinov {
    fn report(&self, m: &DpMatrix<i32>, label: &str) -> String {
        let pairs = self.traceback(m);
        format!(
            "> {label}: {} base pairs\n{}\n{}",
            pairs.len(),
            String::from_utf8_lossy(self.sequence()),
            self.dot_bracket(&pairs)
        )
    }
}

/// Run `problem` on the in-process virtual cluster and print its report:
/// the one path behind `align`, `fold` and `editdist`, so all three take
/// `--slaves/--threads/--pps/--tps` plus the observability and recovery
/// flags.
fn run_in_process(args: &Args, problem: &RemoteProblem, label: &str) -> Result<(), String> {
    let slaves = args.get_num("slaves", 2usize)?;
    let threads = args.get_num("threads", 2usize)?;
    let (pp, tp) = partitions(args, problem, slaves, threads)?;
    let checkpoint = recovery_flags(args)?;
    with_problem!(problem, p => {
        let mut hps = EasyHps::new(p.clone())
            .process_partition(pp)
            .thread_partition(tp)
            .slaves(slaves)
            .threads_per_slave(threads)
            .metrics(args.has("metrics"));
        if let Some(path) = args.get("trace-out") {
            hps = hps.trace_out(path);
        }
        if let Some(policy) = checkpoint {
            hps = hps.checkpoint(policy);
        }
        let out = hps.run().map_err(|e| e.to_string())?;
        if args.has("resume") {
            println!("resumed: {} finished tile(s) restored", out.report.master.resumed);
        }
        println!("{}", p.report(&out.matrix, label));
        print_metrics(&out);
    });
    Ok(())
}

/// The partition sizes of `problem` on `slaves` x `threads`: `--pps` and
/// `--tps` where given, [`RemoteProblem::resolve_partitions`] for the rest.
fn partitions(
    args: &Args,
    problem: &RemoteProblem,
    slaves: usize,
    threads: usize,
) -> Result<(GridDims, GridDims), String> {
    let side = |name| Ok::<_, String>(args.get_opt(name)?.map(GridDims::square));
    Ok(RemoteProblem::resolve_partitions(
        problem.dims(),
        slaves,
        threads,
        side("pps")?,
        side("tps")?,
    ))
}

fn cmd_align(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("align: missing FASTA path")?;
    let seqs = read_fasta(path, 2)?.into_iter().take(2).map(|r| r.1);
    let name = if args.has("global") {
        RemoteProblem::NW
    } else {
        RemoteProblem::SWGG
    };
    run_in_process(args, &build_problem(args, name, seqs.collect())?, "")
}

fn cmd_fold(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("fold: missing FASTA path")?;
    let (label, rna) = read_fasta(path, 1)?.swap_remove(0);
    let problem = build_problem(args, RemoteProblem::NUSSINOV, vec![rna])?;
    run_in_process(args, &problem, &label)
}

fn cmd_editdist(args: &Args) -> Result<(), String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("editdist: need two strings".into());
    };
    let seqs = vec![a.as_bytes().to_vec(), b.as_bytes().to_vec()];
    run_in_process(
        args,
        &build_problem(args, RemoteProblem::EDITDIST, seqs)?,
        "",
    )
}

/// Print the paper's tables and figures from the simulator.
fn cmd_figures(args: &Args) -> Result<(), String> {
    use easyhps::sim::figures;

    let all = args.positional.is_empty() || args.positional.iter().any(|w| w == "all");
    let which: Vec<&str> = if all {
        figures::NAMES.to_vec()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    let t0 = std::time::Instant::now();
    for name in which {
        let text = figures::render(name, args.has("csv"))
            .ok_or_else(|| format!("unknown figure '{name}' ({}|all)", figures::NAMES.join("|")))?;
        print!("{text}");
    }
    eprintln!(
        "(regenerated in {:.1?}; all series deterministic)",
        t0.elapsed()
    );
    Ok(())
}

/// The `--workload/--len/--pps/--tps` quadruple `sim`, `analyze` and
/// `explore` share; the partition defaults are `len / pps_div` and
/// `pps / tps_div`.
fn sim_workload(
    args: &Args,
    default_len: u32,
    pps_div: u32,
    tps_div: u32,
) -> Result<SimWorkload, String> {
    let len = args.get_num("len", default_len)?;
    let pps = args.get_num("pps", (len / pps_div).max(1))?;
    let tps = args.get_num("tps", (pps / tps_div).max(1))?;
    SimWorkload::parse(args.get("workload").unwrap_or("swgg"), len, pps, tps)
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let workload = sim_workload(args, 2_000, 20, 10)?;
    let nodes = args.get_num("nodes", 4u32)?;
    let cores = args.get_num("cores", 24u32)?;
    let e = Experiment::new(nodes, cores);
    if !e.is_valid() {
        return Err(format!(
            "{} is not realizable (computing cores = {}, must be {}..={})",
            e.label(),
            e.computing_cores(),
            nodes - 1,
            11 * (nodes as i64 - 1)
        ));
    }
    let mut cfg = e.config(CostModel::tianhe1a());
    let policy = parse_policy(args.get("policy").unwrap_or("dynamic"), 2)?;
    cfg.process_mode = policy;
    cfg.thread_mode = match policy {
        ScheduleMode::BlockCyclic { .. } => ScheduleMode::BlockCyclic { block: 1 },
        p => p,
    };

    let (r, trace) = simulate_traced(&workload, &cfg);
    let seq = sequential_ns(&workload, &cfg.cost);
    println!(
        "{} on {} ({:?} threads, {} policy):",
        workload.name,
        e.label(),
        cfg.threads,
        policy.name()
    );
    println!(
        "  elapsed {:.3}s  speedup {:.1}x  ({} tiles, {} MB moved, master busy {:.1} ms)",
        r.seconds(),
        seq as f64 / r.makespan_ns as f64,
        r.tiles,
        r.bytes_moved / 1_000_000,
        r.master_busy_ns as f64 / 1e6
    );
    if args.has("gantt") {
        print!("{}", trace.gantt(100));
    }
    // The simulator's virtual-time schedule exports to the same Chrome
    // trace format as real runs, so both open side by side in Perfetto.
    if let Some(path) = args.get("trace-out") {
        let json = easyhps::obs::chrome_json_from_trace(&trace);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let workload = sim_workload(args, 2_000, 20, 10)?;
    let dag = workload.model.master_dag();
    let a = dag.analyze().map_err(|e| e.to_string())?;
    println!(
        "{} master DAG with pps={}, tps={}:",
        workload.name,
        workload.model.process_partition_size().rows,
        workload.model.thread_partition_size().rows
    );
    println!("  sub-tasks:        {}", a.vertices);
    println!("  edges:            {}", a.edges);
    println!("  critical path:    {} levels", a.critical_path);
    println!(
        "  max width:        {} (more computing nodes than this sit idle)",
        a.max_width
    );
    println!("  avg parallelism:  {:.2}", a.avg_parallelism);
    // Compact width profile: show a sparkline-style row of buckets.
    let buckets = 20.min(a.width_profile.len());
    if buckets > 0 {
        let per = a.width_profile.len().div_ceil(buckets);
        let rows: Vec<String> = a
            .width_profile
            .chunks(per)
            .map(|c| {
                let avg = c.iter().sum::<usize>() / c.len();
                format!("{avg:>4}")
            })
            .collect();
        println!("  width over time:  {}", rows.join(" "));
    }
    Ok(())
}

/// Build a [`JobSpec`] from the shared workload grammar: `<NAME>
/// [SEQ...]` plus the partitioning/schedule flags. `master` and `submit`
/// accept exactly the same job description; `who` names the command in
/// errors, and `slaves` is the fleet size the default partitions divide
/// the matrix among.
fn build_job_spec(args: &Args, who: &str, slaves: usize) -> Result<JobSpec, String> {
    let Some((name, seqs)) = args.positional.split_first() else {
        return Err(format!(
            "{who}: missing workload ({})",
            RemoteProblem::NAMES.join("|")
        ));
    };
    let seqs = seqs.iter().map(|s| s.as_bytes().to_vec()).collect();
    let problem = build_problem(args, name, seqs)?;
    let threads = args.get_num("threads", 2u32)?;
    let (pp, tp) = partitions(args, &problem, slaves, threads as usize)?;
    let mut spec = JobSpec::new(problem, pp, tp);
    spec.threads_per_slave = threads;
    spec.process_mode = parse_policy(args.get("mode").unwrap_or("dynamic"), 2)?;
    spec.task_timeout =
        std::time::Duration::from_millis(args.get_num("task-timeout-ms", 30_000u64)?);
    spec.heartbeat_interval =
        std::time::Duration::from_millis(args.get_num("heartbeat-ms", 25u64)?);
    spec.heartbeat_timeout =
        std::time::Duration::from_millis(args.get_num("heartbeat-timeout-ms", 250u64)?);
    // The checks a slave or daemon applies to the shipped spec (zero
    // durations among them), run here so a bad flag fails before any
    // socket is bound or dialled.
    JobSpec::decode(&spec.encode()).map_err(|e| format!("{who}: invalid job: {}", e.context))?;
    Ok(spec)
}

/// Master half of a multi-process run: bind, announce the address, ship
/// the job to every slave, run, print the result CRC.
fn cmd_master(args: &Args) -> Result<(), String> {
    use easyhps::runtime::remote::run_remote_master;
    use easyhps::runtime::{JobOptions, ObsConfig};
    use std::io::Write;

    let listen = args.get("listen").ok_or("master: --listen ADDR required")?;
    let slaves = args.get_num("slaves", 2usize)?;
    let spec = build_job_spec(args, "master", slaves)?;

    let reconnect = args
        .get_opt("reconnect-ms")?
        .map(std::time::Duration::from_millis);
    let registry = args
        .has("metrics")
        .then(|| std::sync::Arc::new(easyhps::runtime::Registry::new()));
    let opts = JobOptions {
        obs: ObsConfig {
            metrics: registry.clone(),
            recorder: None,
        },
        checkpoint: recovery_flags(args)?,
    };

    let addr = easyhps::net::NetAddr::parse(listen)?;
    let listener = easyhps::net::SocketListener::bind(&addr, easyhps::net::SocketConfig::default())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // The bound address (the kernel fills in port 0) goes out first and
    // flushed, so a parent orchestrating the processes can read it and
    // point the slaves at it.
    println!("listening: {}", listener.local_addr());
    std::io::stdout().flush().ok();

    let out =
        run_remote_master(listener, &spec, slaves, reconnect, opts).map_err(|e| e.to_string())?;
    let m = &out.report.master;
    println!(
        "completed: {} tile(s) in {:.3}s ({} redispatched, {} resumed)",
        m.completed,
        out.report.elapsed.as_secs_f64(),
        m.redispatched,
        m.resumed
    );
    // The membership drill's observables: rejoins and fenced zombie
    // DONEs from the scheduler.
    if out.socket.is_some() {
        println!(
            "fleet: {} rejoin(s), {} stale-epoch done(s) fenced",
            m.rejoins, m.stale_epoch_rejected
        );
    }
    // The daemon's digest, so `master`, `submit` and `status` print the
    // same line for the same problem.
    println!(
        "matrix-crc: {:#010x}",
        easyhps::serve::JobResult::of(&out.matrix).crc
    );
    if let Some(registry) = &registry {
        print!("{}", registry.snapshot().render_text());
    }
    Ok(())
}

/// Slave half of a multi-process run: connect and serve until the master
/// ends the run.
fn cmd_slave(args: &Args) -> Result<(), String> {
    use easyhps::runtime::fleet::serve_slave_jobs;
    use easyhps::runtime::remote::RemoteSlaveOptions;

    let addr = args
        .get("connect")
        .ok_or("slave: --connect ADDR required")?;
    let mut opts = RemoteSlaveOptions::new(easyhps::net::NetAddr::parse(addr)?);
    opts.want_rank = args.get_opt("rank")?;
    opts.threads = args.get_opt("threads")?;
    opts.socket.reconnect_window = args
        .get_opt("reconnect-ms")?
        .map(std::time::Duration::from_millis);
    let stats = serve_slave_jobs(opts).map_err(|e| e.to_string())?.stats;
    println!(
        "slave done: {} sub-task(s), {} sub-sub-task(s), {} thread failure(s) recovered",
        stats.tasks_done, stats.subtasks_done, stats.thread_failures
    );
    Ok(())
}

/// Fleet size of `serve` without `--slaves`.
const SERVE_SLAVES: usize = 2;

/// The serve daemon: bind, announce the client (and fleet) addresses,
/// then serve jobs until killed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use easyhps::serve::{Daemon, FleetSpec, ServeConfig};
    use std::io::Write;

    let listen = args.get("listen").ok_or("serve: --listen ADDR required")?;
    let mut cfg = ServeConfig::new(easyhps::net::NetAddr::parse(listen)?);
    let slaves = args.get_num("slaves", SERVE_SLAVES)?;
    let threads = args
        .get("threads")
        .map(|t| t.parse())
        .transpose()
        .map_err(|_: std::num::ParseIntError| "--threads: not a number".to_string())?;
    cfg.fleet = match args.get("fleet-listen") {
        Some(addr) => easyhps::serve::FleetSpec::Remote {
            listen: easyhps::net::NetAddr::parse(addr)?,
            slaves,
        },
        None => FleetSpec::Local { slaves, threads },
    };
    cfg.state_dir = args.get("state-dir").map(Into::into);
    cfg.queue_cap = args.get_num("queue", cfg.queue_cap)?;
    cfg.batch_max_cells = args.get_num("batch-cells", cfg.batch_max_cells)?;
    cfg.batch_max_jobs = args.get_num("batch-jobs", cfg.batch_max_jobs)?;
    cfg.checkpoint_every = args.get_num("checkpoint-every", 0u64)?;
    cfg.per_job_metrics = args.has("job-metrics");
    for w in args.get_all("weight") {
        let (tenant, weight) = w
            .split_once('=')
            .ok_or(format!("--weight: '{w}' is not tenant=N"))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("--weight: '{weight}' is not a number"))?;
        cfg.tenant_weights.push((tenant.to_string(), weight));
    }

    let daemon = Daemon::start(cfg).map_err(|e| format!("starting daemon: {e}"))?;
    // Addresses go out first and flushed so an orchestrating parent can
    // read them and point clients (and remote slaves) at the daemon.
    println!("serving: {}", daemon.addr());
    if let Some(fleet) = daemon.fleet_addr() {
        println!("fleet: {fleet}");
    }
    std::io::stdout().flush().ok();
    // The daemon's own threads do all the work; serve until killed.
    loop {
        std::thread::park();
    }
}

/// Connect to a daemon for one of the client subcommands.
fn serve_client(args: &Args, who: &str) -> Result<easyhps::serve::Client, String> {
    let addr = args
        .get("connect")
        .ok_or(format!("{who}: --connect ADDR required"))?;
    easyhps::serve::Client::connect(&easyhps::net::NetAddr::parse(addr)?)
        .map_err(|e| format!("{who}: connecting {addr}: {e}"))
}

/// Render one daemon response; terminal errors become CLI errors.
fn print_response(resp: easyhps::serve::Response) -> Result<(), String> {
    use easyhps::serve::{Admission, Response};
    match resp {
        Response::Accepted { job, admission } => {
            let how = match admission {
                Admission::New => "new",
                Admission::CacheHit => "cache-hit",
                Admission::Coalesced => "coalesced",
            };
            println!("accepted: job {job} ({how})");
        }
        Response::Rejected { reason } => return Err(format!("rejected: {reason}")),
        Response::Status { job, state } => {
            use easyhps::serve::JobState;
            match state {
                JobState::Queued { position } => {
                    println!("job {job}: queued (position {position})")
                }
                JobState::Running => println!("job {job}: running"),
                JobState::Done(r) => println!(
                    "job {job}: done ({}x{} cells, matrix-crc {:#010x})",
                    r.rows, r.cols, r.crc
                ),
                JobState::Failed { error } => println!("job {job}: failed: {error}"),
                JobState::Cancelled => println!("job {job}: cancelled"),
                JobState::Unknown => println!("job {job}: unknown"),
            }
        }
        Response::Stats { text } => print!("{text}"),
        Response::Cancelled { job, ok } => {
            if !ok {
                return Err(format!(
                    "job {job}: not cancellable (finished, running or unknown)"
                ));
            }
            println!("cancelled: job {job}");
        }
        Response::Done {
            job,
            result,
            cached,
        } => {
            println!(
                "done: job {job} ({}x{} cells{})",
                result.rows,
                result.cols,
                if cached { ", cached" } else { "" }
            );
            // Same format as `master`'s summary line, so daemon results
            // can be diffed against one-shot runs bit for bit.
            println!("matrix-crc: {:#010x}", result.crc);
        }
        Response::Drained { rank, ok } => {
            if !ok {
                return Err(format!(
                    "rank {rank}: not drainable (rank 0 is the master, and the \
                     daemon needs an elastic --fleet-listen fleet)"
                ));
            }
            println!("draining: rank {rank} (released once its in-flight work lands)");
        }
        Response::Error { message } => return Err(message),
    }
    Ok(())
}

/// Submit a job to a daemon; with `--wait` (or on a cache hit) also
/// print the terminal result.
fn cmd_submit(args: &Args) -> Result<(), String> {
    use easyhps::serve::{Admission, Response};

    // A client cannot see the daemon's fleet: size the default
    // partitions for the fleet `serve` starts when not told otherwise.
    let spec = build_job_spec(args, "submit", SERVE_SLAVES)?;
    let tenant = args.get("tenant").unwrap_or("default");
    let wait = args.has("wait");
    let mut client = serve_client(args, "submit")?;
    let resp = client
        .submit(tenant, wait, spec)
        .map_err(|e| format!("submit: {e}"))?;
    let follow_up = wait
        || matches!(
            resp,
            Response::Accepted {
                admission: Admission::CacheHit,
                ..
            }
        );
    print_response(resp)?;
    if follow_up {
        let done = client
            .read_response()
            .map_err(|e| format!("submit: waiting for result: {e}"))?;
        print_response(done)?;
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let job = args
        .positional
        .first()
        .ok_or("status: missing job id")?
        .parse()
        .map_err(|_| "status: job id is not a number")?;
    let mut client = serve_client(args, "status")?;
    print_response(client.status(job).map_err(|e| format!("status: {e}"))?)
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let mut client = serve_client(args, "stats")?;
    print_response(client.stats().map_err(|e| format!("stats: {e}"))?)
}

fn cmd_cancel(args: &Args) -> Result<(), String> {
    let job = args
        .positional
        .first()
        .ok_or("cancel: missing job id")?
        .parse()
        .map_err(|_| "cancel: job id is not a number")?;
    let mut client = serve_client(args, "cancel")?;
    print_response(client.cancel(job).map_err(|e| format!("cancel: {e}"))?)
}

/// Ask a daemon to gracefully drain one fleet slave: finish its
/// in-flight sub-tasks, assign it nothing new, release its rank.
fn cmd_drain(args: &Args) -> Result<(), String> {
    let rank = args
        .positional
        .first()
        .ok_or("drain: missing rank")?
        .parse()
        .map_err(|_| "drain: rank is not a number")?;
    let mut client = serve_client(args, "drain")?;
    print_response(client.drain(rank).map_err(|e| format!("drain: {e}"))?)
}

/// Enumerate master-scheduler event orderings on a small workload's
/// master DAG and check the schedule invariants on every explored order.
/// Exits 1 if any explored schedule violates the contract.
fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    use easyhps::core::sched::{explore_membership, ExploreConfig, MembershipOp};

    // Defaults give a 4x4 master DAG — small enough that bounded-depth
    // exploration covers hundreds of distinct orders in well under a
    // second, the regime the technique is designed for.
    let workload = sim_workload(args, 400, 4, 2)?;
    let dag = workload.model.master_dag();

    let slaves = args.get_num("slaves", 2usize)?;
    let mode = parse_policy(args.get("mode").unwrap_or("dynamic"), 2)?;
    let mut cfg = ExploreConfig::new(slaves, mode);
    cfg.depth = args.get_num("depth", cfg.depth)?;
    cfg.max_schedules = args.get_num("max-schedules", cfg.max_schedules)?;
    cfg.reorder_window = args.get_num("reorder-window", cfg.reorder_window)?;

    // Scripted membership operations (DESIGN.md §17): `SLAVE@AFTER`
    // fires the op once AFTER delivered frames. The explorer then
    // enumerates delivery orders around the membership change, modelling
    // a rejoined slave's undelivered DONEs as stale-epoch zombies, and
    // fails any order in which the machine accepts one. A severed link
    // loses its DONEs; the run must still finish on the survivors.
    let parse_op = |spec: &str, what: &str| -> Result<(usize, usize), String> {
        let (s, a) = spec
            .split_once('@')
            .ok_or_else(|| format!("--{what}: expected SLAVE@AFTER, got '{spec}'"))?;
        Ok((
            s.parse()
                .map_err(|_| format!("--{what}: bad slave '{s}'"))?,
            a.parse()
                .map_err(|_| format!("--{what}: bad frame count '{a}'"))?,
        ))
    };
    let mut script = Vec::new();
    for spec in args.get_all("rejoin") {
        let (slave, after) = parse_op(spec, "rejoin")?;
        script.push(MembershipOp::Rejoin { slave, after });
    }
    for spec in args.get_all("drain") {
        let (slave, after) = parse_op(spec, "drain")?;
        script.push(MembershipOp::Drain { slave, after });
    }
    for spec in args.get_all("sever") {
        let (slave, after) = parse_op(spec, "sever")?;
        script.push(MembershipOp::Sever { slave, after });
    }

    let t0 = std::time::Instant::now();
    let out = explore_membership(&dag, &cfg, &script);
    println!(
        "{} master DAG ({} tiles) on {} slave(s), {} policy, depth {}{}:",
        workload.name,
        dag.len(),
        slaves,
        mode.name(),
        cfg.depth,
        if script.is_empty() {
            String::new()
        } else {
            format!(", {} membership op(s)", script.len())
        }
    );
    println!(
        "  {} schedule(s), {} distinct delivery orders, {} decision point(s), \
         max {} pending frame(s), {:.2}s",
        out.schedules,
        out.distinct_orders,
        out.decisions,
        out.max_pending,
        t0.elapsed().as_secs_f64()
    );
    if out.violations.is_empty() {
        println!("  every explored schedule satisfied the invariants");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &out.violations {
            println!("  violation: {v}");
        }
        println!(
            "  {} schedule(s) violated the contract",
            out.violations.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Exit code for a set of stress violations: 0 = pass, 2 = hang,
/// 1 = anything else (see the module docs).
fn stress_exit(violations: &[String]) -> ExitCode {
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else if violations.iter().any(|v| v.starts_with("hang:")) {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}

/// The crash-recovery drill: checkpoint, kill the master, resume from
/// disk, require bit-identical recovery.
fn cmd_stress_kill(args: &Args, cfg: &easyhps::stress::StressConfig) -> Result<ExitCode, String> {
    use easyhps::stress::run_kill_seed;

    let (start, n) = match args.get("seed") {
        Some(seed) => (seed.parse().map_err(|_| "--seed: not a number")?, 1),
        None => (args.get_num("start", 0u64)?, args.get_num("seeds", 20u64)?),
    };
    let t0 = std::time::Instant::now();
    for seed in start..start + n {
        let outcome = run_kill_seed(seed, cfg);
        if outcome.passed() {
            println!(
                "kill-master seed {seed}: PASS ({:.1}s)",
                outcome.elapsed.as_secs_f64()
            );
            continue;
        }
        println!("kill-master seed {seed}: FAIL\nplan: {:?}", outcome.plan);
        for v in &outcome.violations {
            println!("  violation: {v}");
        }
        println!("repro: {}", outcome.repro_line());
        return Ok(stress_exit(&outcome.violations));
    }
    println!(
        "{n} kill-master seed(s) recovered bit-identical in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stress(args: &Args) -> Result<ExitCode, String> {
    use easyhps::stress::{run_plan, run_seed, StressConfig, StressPlan};

    // block=1 keeps block-cyclic distinct from plain wavefront at the
    // small tile counts stress plans use.
    let mode = parse_policy(args.get("mode").unwrap_or("dynamic"), 1)?;
    let cfg = StressConfig {
        mode,
        slaves: args
            .get("slaves")
            .map(|s| s.parse())
            .transpose()
            .map_err(|_: std::num::ParseIntError| "--slaves: not a number".to_string())?,
        workload: args
            .get("workload")
            .map(RemoteProblem::parse_name)
            .transpose()?,
        hang_timeout: std::time::Duration::from_secs(args.get_num("hang-timeout", 60u64)?),
        shrink: !args.has("no-shrink"),
        transport: easyhps::TransportKind::parse(args.get("transport").unwrap_or("inproc"))?,
    };

    if args.has("kill-master") {
        return cmd_stress_kill(args, &cfg);
    }

    // Single-seed mode: --seed N, optionally with --clauses to replay a
    // minimized schedule, or --list to print the derived plan and exit.
    if let Some(seed) = args.get("seed") {
        let seed: u64 = seed.parse().map_err(|_| "--seed: not a number")?;
        let plan = StressPlan::from_seed(seed, &cfg);
        let plan = match args.get("clauses") {
            None => plan,
            Some("none") => plan.with_clauses(&[]),
            Some(list) => {
                let keep: Vec<usize> = list
                    .split(',')
                    .map(|i| i.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--clauses: cannot parse '{list}'"))?;
                plan.with_clauses(&keep)
            }
        };
        print!("{}", plan.describe());
        if args.has("list") {
            return Ok(ExitCode::SUCCESS);
        }
        let violations = run_plan(&plan, &cfg);
        if violations.is_empty() {
            println!("seed {seed}: PASS");
            return Ok(ExitCode::SUCCESS);
        }
        for v in &violations {
            println!("  violation: {v}");
        }
        println!("seed {seed}: {} violation(s)", violations.len());
        Ok(stress_exit(&violations))
    } else {
        // Sweep mode: --seeds N seeds starting at --start (default 0).
        let n = args.get_num("seeds", 100u64)?;
        let start = args.get_num("start", 0u64)?;
        let t0 = std::time::Instant::now();
        for seed in start..start + n {
            let outcome = run_seed(seed, &cfg);
            if outcome.passed() {
                println!(
                    "seed {seed}: PASS ({} clauses, {:.1}s)",
                    outcome.plan.clauses.len(),
                    outcome.elapsed.as_secs_f64()
                );
                continue;
            }
            println!("seed {seed}: FAIL");
            print!("{}", outcome.plan.describe());
            for v in &outcome.violations {
                println!("  violation: {v}");
            }
            println!("repro: {}", outcome.repro_line());
            return Ok(stress_exit(&outcome.violations));
        }
        println!(
            "{n} seed(s) passed every invariant in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        Ok(ExitCode::SUCCESS)
    }
}

const USAGE: &str = "usage: easyhps <align|fold|editdist|sim|figures|analyze|explore|stress|master\
|slave|serve|submit|status|stats|cancel|drain> [args]  (see --help in source docs)";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = argv.remove(0);
    let booleans = [
        "global",
        "gantt",
        "csv",
        "metrics",
        "list",
        "no-shrink",
        "resume",
        "kill-master",
        "wait",
        "job-metrics",
    ];
    let result = Args::parse(argv, &booleans).and_then(|args| match cmd.as_str() {
        "align" => cmd_align(&args).map(|()| ExitCode::SUCCESS),
        "fold" => cmd_fold(&args).map(|()| ExitCode::SUCCESS),
        "editdist" => cmd_editdist(&args).map(|()| ExitCode::SUCCESS),
        "sim" => cmd_sim(&args).map(|()| ExitCode::SUCCESS),
        "figures" => cmd_figures(&args).map(|()| ExitCode::SUCCESS),
        "analyze" => cmd_analyze(&args).map(|()| ExitCode::SUCCESS),
        "explore" => cmd_explore(&args),
        "stress" => cmd_stress(&args),
        "master" => cmd_master(&args).map(|()| ExitCode::SUCCESS),
        "slave" => cmd_slave(&args).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&args).map(|()| ExitCode::SUCCESS),
        "submit" => cmd_submit(&args).map(|()| ExitCode::SUCCESS),
        "status" => cmd_status(&args).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(&args).map(|()| ExitCode::SUCCESS),
        "cancel" => cmd_cancel(&args).map(|()| ExitCode::SUCCESS),
        "drain" => cmd_drain(&args).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(
            s.iter().map(|x| x.to_string()),
            &["global", "gantt", "metrics"],
        )
        .unwrap()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&[
            "file.fa",
            "--slaves",
            "3",
            "--global",
            "--metrics",
            "--trace-out",
            "trace.json",
            "--gap",
            "affine:4,1",
        ]);
        assert_eq!(a.positional, vec!["file.fa"]);
        assert_eq!(a.get("slaves"), Some("3"));
        assert!(a.has("global"));
        assert!(a.has("metrics"), "--metrics takes no value");
        assert_eq!(a.get("trace-out"), Some("trace.json"));
        assert_eq!(a.get_num("slaves", 0usize).unwrap(), 3);
        assert_eq!(a.get_num("threads", 7usize).unwrap(), 7);
    }

    #[test]
    fn missing_value_errors() {
        let e = Args::parse(["--slaves".to_string()], &[]).unwrap_err();
        assert!(e.contains("needs a value"));
    }

    #[test]
    fn recovery_flag_errors() {
        let flags = |s: &[&str]| {
            let raw = s.iter().map(|x| x.to_string());
            recovery_flags(&Args::parse(raw, &["resume"]).unwrap())
        };
        assert_eq!(flags(&[]).unwrap(), None);
        let e = flags(&["--resume"]).unwrap_err();
        assert!(e.contains("--resume needs --checkpoint-dir"), "{e}");
        let e = flags(&["--checkpoint-every", "4"]).unwrap_err();
        assert!(
            e.contains("--checkpoint-every needs --checkpoint-dir"),
            "{e}"
        );
        let e = flags(&["--checkpoint-dir", "d", "--checkpoint-every", "0"]).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let policy = flags(&[
            "--checkpoint-dir",
            "d",
            "--checkpoint-every",
            "4",
            "--resume",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            policy,
            CheckpointPolicy::new("d")
                .with_every_tiles(4)
                .with_resume(true)
        );
    }

    #[test]
    fn gap_specs() {
        assert_eq!(parse_gap("linear:3").unwrap(), GapSpec::Linear(3));
        assert_eq!(parse_gap("affine:4,1").unwrap(), GapSpec::Affine(4, 1));
        assert_eq!(parse_gap("log:4,2").unwrap(), GapSpec::Logarithmic(4, 2));
        assert!(parse_gap("bogus").is_err());
        assert!(parse_gap("affine:4").is_err());
    }

    #[test]
    fn stress_exit_codes_triage_failure_classes() {
        assert_eq!(stress_exit(&[]), ExitCode::SUCCESS);
        assert_eq!(
            stress_exit(&["matrix mismatch at (1, 1)".into()]),
            ExitCode::FAILURE
        );
        assert_eq!(
            stress_exit(&["hang: no result within 60s (deadlock or livelock)".into()]),
            ExitCode::from(2)
        );
    }

    #[test]
    fn policy_specs() {
        // Block 2: sim, fold/align/editdist, master; block 1: stress.
        for block in [2, 1] {
            let parse = |spec| parse_policy(spec, block);
            assert_eq!(parse("dynamic").unwrap(), ScheduleMode::Dynamic);
            assert_eq!(parse("bcw").unwrap(), ScheduleMode::BlockCyclic { block });
            assert_eq!(parse("cw").unwrap(), ScheduleMode::ColumnWavefront);
            assert!(parse("x").unwrap_err().contains("dynamic|bcw|cw"));
        }
    }
}
