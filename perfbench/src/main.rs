//! `bench` — the one benchmark of this repository.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     One run of one workload in this process (what BENCHMARK.json's
//!     command invokes). --trace 0 reports the end-to-end metrics, --trace 1
//!     the per-layer metrics. The last line of stdout is the result object.
//! bench run [--workload W]... [--seed N] [--seconds S] [--runs R] [--smoke] [--out PATH]
//!     Both kinds of run for each workload (default: all), each in a fresh
//!     child process, R times with seeds N, N+1, ...; prints one line per
//!     value and writes them to PATH.
//! bench agree A.json B.json
//!     Compare two `run --out` files against the bounds of BENCHMARK.json.
//! ```

use easyhps_obs::json;
use easyhps_perfbench::report::{agree, result_line, Manifest, ResultFile};
use easyhps_perfbench::tracer::Tracer;
use easyhps_perfbench::workloads::{self, Driver, WORKLOADS};
use easyhps_perfbench::{batch, init_scratch_dir, layers, mix, with_problem, RunParams, RunResult};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;

#[derive(Default)]
struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    runs: Option<u64>,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => parsed.workloads.push(value("--workload")?),
            "--seed" => parsed.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => parsed.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--runs" => parsed.runs = Some(number("--runs", value("--runs")?)?),
            "--trace" => parsed.trace = number("--trace", value("--trace")?)? != 0,
            "--out" => parsed.out = Some(value("--out")?),
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.files.push(arg),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn run_one(args: &Args, manifest: &Manifest) -> Result<RunResult, String> {
    let [name] = args.workloads.as_slice() else {
        return Err("exactly one --workload, please (or use `bench run`)".into());
    };
    let mut w = workloads::find(name).ok_or(format!("no workload named {name}"))?;
    if args.smoke {
        w = w.smoke();
    }
    let params = RunParams {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: Duration::from_secs(args.seconds.unwrap_or(manifest.run_seconds)),
        smoke: args.smoke,
    };
    let scratch = init_scratch_dir().map_err(|e| format!("scratch directory: {e}"))?;
    let problem = w.problem(params.seed, 0);
    let tracer = Tracer::new(args.trace);
    let result = if args.trace {
        with_problem!(&problem, p => layers::run_traced(&w, &params, p, &scratch, &tracer))
    } else {
        match w.driver {
            // Generating the sequences takes microseconds; each set-up
            // clones them instead of drawing them again.
            Driver::Batch => {
                with_problem!(&problem, p => Ok(batch::run_end_to_end(&w, &params, || p.clone())))
            }
            Driver::ServeMix => mix::run_end_to_end(&w, &params),
        }
    }
    .map_err(|e| format!("{name}: {e}"))?;

    manifest.check(args.trace, &result.metrics)?;
    for m in &result.metrics {
        println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    if args.trace {
        let path = scratch.join(format!("trace-{name}.json"));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (span, ms) in tracer.self_time_ms() {
            println!("{name} span {span} self_ms={ms:.1}");
        }
        println!("{name} trace {} ({} spans)", path.display(), tracer.len());
    }
    Ok(result)
}

/// `bench run`: every selected workload, both kinds of run, each in a
/// fresh child process so that `peak_rss_mib` is per workload.
fn run_suite(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let names: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = match (args.seconds, args.smoke) {
        (Some(s), _) => s,
        (None, true) => 1,
        (None, false) => manifest.run_seconds,
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut file = ResultFile {
        smoke: args.smoke,
        seed,
        seconds,
        workloads: Vec::new(),
    };
    let mut all_correct = true;
    for run in 0..args.runs.unwrap_or(1) {
        for name in &names {
            for trace in ["0", "1"] {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", name, "--trace", trace])
                    .args(["--seed", &(seed + run).to_string()])
                    .args(["--seconds", &seconds.to_string()]);
                if args.smoke {
                    child.arg("--smoke");
                }
                let out = child
                    .output()
                    .map_err(|e| format!("starting {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some((human, last)) = stdout.trim_end().rsplit_once('\n') else {
                    return Err(format!(
                        "{name} --trace {trace} printed no result: {}",
                        String::from_utf8_lossy(&out.stderr)
                    ));
                };
                println!("{human}");
                let line = json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
                all_correct &= out.status.success()
                    && line.get("correct") == Some(&json::JsonValue::Bool(true));
                file.push_line(name, &line);
            }
        }
    }
    if args.runs.unwrap_or(1) > 1 {
        print!("{}", file.render());
    }
    if let Some(path) = &args.out {
        std::fs::write(path, file.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

fn agree_files(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("usage: bench agree A.json B.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, ok) = agree(manifest, &load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next_if(|a| !a.starts_with("--"));
    let outcome = parse_args(argv).and_then(|args| {
        let manifest = Manifest::load()?;
        match command.as_deref() {
            None => {
                let result = run_one(&args, &manifest)?;
                println!("{}", result_line(&result, manifest.expected(args.trace)));
                Ok(result.correct)
            }
            Some("run") => run_suite(&args, &manifest),
            Some("agree") => agree_files(&args, &manifest),
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: FAILED (a job failed, a count was off, or results disagree)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
