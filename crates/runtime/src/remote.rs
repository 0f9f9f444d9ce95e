//! Multi-process deployment: master and slaves as separate OS processes
//! over the socket transport.
//!
//! In-process runs hand every rank an [`Arc`](std::sync::Arc) of the
//! same problem; a remote slave has nothing, so the master ships a
//! [`JobSpec`] — the problem's defining data plus the partition sizes
//! and deployment knobs both sides must agree on — as the first message
//! after the socket handshake (tag [`tags::JOB`](crate::tags::JOB)). The
//! slave reconstructs the problem and model locally and then runs the
//! ordinary [`run_slave`](crate::run_slave) loop; the master runs the
//! ordinary [`run_master`](crate::run_master). Everything above the
//! transport — reliable control messages, heartbeats, fault tolerance,
//! durable checkpoints — is byte-identical to the in-process path. Both
//! sides are a [`Fleet`]: a slave serves any number of jobs on one
//! connection ([`serve_slave_jobs`](crate::fleet::serve_slave_jobs)), a
//! JOB frame starts each and END ends it; between jobs the slave waits
//! for the next JOB, SHUTDOWN or the link closing.
//!
//! [`RemoteProblem`] is the one table of shippable recurrences: the only
//! map between a workload name and a variant ([`RemoteProblem::NAMES`]),
//! the only constructors from input sequences, the wire codec, and the
//! dispatch onto the concrete `easyhps-dp` types
//! ([`with_problem!`](crate::with_problem)). The CLI, the stress harness
//! and the serve daemon all go through it, so adding a recurrence is one
//! more row here. Every row has `Cell = i32`, which keeps the wire
//! format and the master's output monomorphic.

use crate::config::{Deployment, ObsConfig, RunReport};
use crate::fleet::{Fleet, JobOptions};
use crate::protocol::SlaveStatsMsg;
use crate::RuntimeError;
use easyhps_core::{DagDataDrivenModel, GridDims, ScheduleMode};
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpMatrix, DpProblem, GapPenalty, Substitution};
use easyhps_net::socket::{SocketConfig, SocketInfo, SocketListener};
use easyhps_net::{NetAddr, RetryPolicy, WireError, WireReader, WireWriter};
use std::time::Duration;

/// Substitution scheme a job can carry: the simple match/mismatch form.
/// (Table substitutions would ship fine but nothing in the CLI produces
/// them remotely yet.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubSpec {
    /// Score for identical symbols.
    pub match_score: i32,
    /// Score for differing symbols.
    pub mismatch: i32,
}

impl SubSpec {
    /// The DNA default (+2 match, −1 mismatch).
    pub fn dna() -> Self {
        SubSpec {
            match_score: 2,
            mismatch: -1,
        }
    }

    /// The scoring scheme the kernels take.
    pub fn to_substitution(self) -> Substitution {
        Substitution::Simple {
            match_score: self.match_score,
            mismatch: self.mismatch,
        }
    }
}

/// Gap penalty a job can carry — every [`GapPenalty`] form except
/// `Custom` closures, which cannot cross a process boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapSpec {
    /// `w(k) = per_gap * k`.
    Linear(i32),
    /// `w(k) = open + extend * (k - 1)`.
    Affine(i32, i32),
    /// `w(k) = a + b * floor(log2 k)`.
    Logarithmic(i32, i32),
}

impl GapSpec {
    /// The gap function the kernels take.
    pub fn to_penalty(self) -> GapPenalty {
        match self {
            GapSpec::Linear(per_gap) => GapPenalty::Linear { per_gap },
            GapSpec::Affine(open, extend) => GapPenalty::Affine { open, extend },
            GapSpec::Logarithmic(a, b) => GapPenalty::Logarithmic { a, b },
        }
    }
}

/// The problems a remote job can describe. All share `Cell = i32`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteProblem {
    /// Levenshtein distance between two byte strings.
    EditDistance {
        /// First string.
        a: Vec<u8>,
        /// Second string.
        b: Vec<u8>,
    },
    /// Longest common subsequence.
    Lcs {
        /// First string.
        a: Vec<u8>,
        /// Second string.
        b: Vec<u8>,
    },
    /// Global alignment with linear gaps.
    NeedlemanWunsch {
        /// First sequence.
        a: Vec<u8>,
        /// Second sequence.
        b: Vec<u8>,
        /// Substitution scores.
        sub: SubSpec,
        /// Per-symbol gap cost.
        gap: i32,
    },
    /// Local alignment with a general gap function (the paper's SWGG).
    Swgg {
        /// First sequence.
        a: Vec<u8>,
        /// Second sequence.
        b: Vec<u8>,
        /// Substitution scores.
        sub: SubSpec,
        /// Gap penalty function.
        gap: GapSpec,
    },
    /// RNA secondary structure (Nussinov).
    Nussinov {
        /// RNA sequence.
        seq: Vec<u8>,
        /// Minimum hairpin loop length.
        min_loop: u32,
    },
}

/// What a recurrence takes besides its sequences; `None` is the
/// problem's default. Each problem reads the fields it has.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProblemParams {
    /// Gap penalty: `swgg` takes any form (default `log:4,2`), `nw` a
    /// linear one only (default `linear:2`).
    pub gap: Option<GapSpec>,
    /// Minimum hairpin loop length of `nussinov` (default 1).
    pub min_loop: Option<u32>,
}

/// Run the same code for whichever concrete problem a [`RemoteProblem`]
/// describes: `with_problem!(&problem, p => body)` evaluates `body` with
/// `p` bound to the `easyhps-dp` value. (A macro because the arms need
/// different monomorphic types but identical bodies, and Rust has no
/// generic closures.)
#[macro_export]
macro_rules! with_problem {
    ($problem:expr, $p:ident => $body:expr) => {
        match $problem {
            $crate::remote::RemoteProblem::EditDistance { a, b } => {
                let $p = $crate::__dp::EditDistance::new(a.clone(), b.clone());
                $body
            }
            $crate::remote::RemoteProblem::Lcs { a, b } => {
                let $p = $crate::__dp::Lcs::new(a.clone(), b.clone());
                $body
            }
            $crate::remote::RemoteProblem::NeedlemanWunsch { a, b, sub, gap } => {
                let $p = $crate::__dp::NeedlemanWunsch::new(
                    a.clone(),
                    b.clone(),
                    sub.to_substitution(),
                    *gap,
                );
                $body
            }
            $crate::remote::RemoteProblem::Swgg { a, b, sub, gap } => {
                let $p = $crate::__dp::SmithWatermanGeneralGap::new(
                    a.clone(),
                    b.clone(),
                    sub.to_substitution(),
                    gap.to_penalty(),
                );
                $body
            }
            $crate::remote::RemoteProblem::Nussinov { seq, min_loop } => {
                let $p = $crate::__dp::Nussinov::with_min_loop(seq.clone(), *min_loop);
                $body
            }
        }
    };
}

impl RemoteProblem {
    /// Levenshtein distance.
    pub const EDITDIST: &'static str = "editdist";
    /// Smith-Waterman local alignment with a general gap function.
    pub const SWGG: &'static str = "swgg";
    /// Nussinov RNA folding.
    pub const NUSSINOV: &'static str = "nussinov";
    /// Needleman-Wunsch global alignment.
    pub const NW: &'static str = "nw";
    /// Longest common subsequence.
    pub const LCS: &'static str = "lcs";

    /// Every workload name, in the order seeded harnesses draw from: a
    /// new name goes at the end, so existing seeds keep their problems.
    pub const NAMES: [&'static str; 5] = [
        Self::EDITDIST,
        Self::SWGG,
        Self::NUSSINOV,
        Self::NW,
        Self::LCS,
    ];

    /// The [`Self::NAMES`] entry of this problem.
    pub fn name(&self) -> &'static str {
        match self {
            RemoteProblem::EditDistance { .. } => Self::EDITDIST,
            RemoteProblem::Swgg { .. } => Self::SWGG,
            RemoteProblem::Nussinov { .. } => Self::NUSSINOV,
            RemoteProblem::NeedlemanWunsch { .. } => Self::NW,
            RemoteProblem::Lcs { .. } => Self::LCS,
        }
    }

    /// The [`Self::NAMES`] entry spelled `name`.
    pub fn parse_name(name: &str) -> Result<&'static str, String> {
        Self::NAMES
            .into_iter()
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown workload '{name}' ({})", Self::NAMES.join("|")))
    }

    /// Build the problem `name` over `seqs` (two sequences, or one for
    /// `nussinov`). Errors are worded for the command line, which is
    /// where names and parameters come from.
    pub fn from_sequences(
        name: &str,
        seqs: Vec<Vec<u8>>,
        params: &ProblemParams,
    ) -> Result<RemoteProblem, String> {
        let name = Self::parse_name(name)?;
        let wrong =
            |n: usize, got: &[Vec<u8>]| format!("{name} needs {n} sequence(s), got {}", got.len());
        if name == Self::NUSSINOV {
            let [seq] = <[_; 1]>::try_from(seqs).map_err(|s| wrong(1, &s))?;
            return Ok(RemoteProblem::Nussinov {
                seq,
                min_loop: params.min_loop.unwrap_or(1),
            });
        }
        let [a, b] = <[_; 2]>::try_from(seqs).map_err(|s| wrong(2, &s))?;
        let sub = SubSpec::dna();
        Ok(match name {
            Self::EDITDIST => RemoteProblem::EditDistance { a, b },
            Self::LCS => RemoteProblem::Lcs { a, b },
            Self::NW => match params.gap.unwrap_or(GapSpec::Linear(2)) {
                GapSpec::Linear(gap) if gap >= 0 => {
                    RemoteProblem::NeedlemanWunsch { a, b, sub, gap }
                }
                _ => {
                    return Err(format!(
                        "{name} (global alignment) takes a non-negative linear gap only: \
                         use --gap linear:N"
                    ))
                }
            },
            _ => RemoteProblem::Swgg {
                a,
                b,
                sub,
                gap: params.gap.unwrap_or(GapSpec::Logarithmic(4, 2)),
            },
        })
    }

    /// The problem `name` over seeded random input: DNA sequences of
    /// `len` and `len + 3` symbols from `s1` and `s2` (unequal lengths
    /// exercise ragged edge tiles), or for `nussinov` one RNA sequence of
    /// `len + 6` bases from `s1`. Pure: the same arguments give the same
    /// problem, which is what makes a stress seed reproducible.
    pub fn random(
        name: &str,
        len: usize,
        s1: u64,
        s2: u64,
        params: &ProblemParams,
    ) -> Result<RemoteProblem, String> {
        let seqs = if name == Self::NUSSINOV {
            vec![random_sequence(Alphabet::Rna, len + 6, s1)]
        } else {
            vec![
                random_sequence(Alphabet::Dna, len, s1),
                random_sequence(Alphabet::Dna, len + 3, s2),
            ]
        };
        Self::from_sequences(name, seqs, params)
    }

    /// The one rule for default partition sizes, used by the builder and
    /// by every command that writes a [`JobSpec`]. A given size wins. An
    /// unset process partition is `dims / (4 * slaves)` per axis, about
    /// four tiles per slave per side. An unset thread partition is the
    /// process partition itself when a slave computes on at most one
    /// thread (a slave runs 0 as 1): a finer grain there adds per-sub-task
    /// overhead and no parallelism. Otherwise it is a quarter of the
    /// process partition per axis. Sizes round up and never reach zero.
    pub fn resolve_partitions(
        dims: GridDims,
        slaves: usize,
        threads: usize,
        pp: Option<GridDims>,
        tp: Option<GridDims>,
    ) -> (GridDims, GridDims) {
        let split = |d: GridDims, parts: u32| {
            GridDims::new(d.rows.div_ceil(parts).max(1), d.cols.div_ceil(parts).max(1))
        };
        let parts = u32::try_from(slaves).unwrap_or(u32::MAX).saturating_mul(4);
        let pp = pp.unwrap_or_else(|| split(dims, parts.max(1)));
        let tp = tp.unwrap_or(if threads <= 1 { pp } else { split(pp, 4) });
        (pp, tp)
    }

    /// The one rule for partition sizes, wherever they come from (builder
    /// calls, command-line flags, a decoded [`JobSpec`]): no zero side —
    /// every sub-task needs at least one cell per axis — and a thread
    /// partition no larger than the process partition it subdivides.
    /// Non-dividing sizes are legal; edge sub-tasks are simply ragged.
    pub fn validate_partitions(pp: GridDims, tp: GridDims) -> Result<(), &'static str> {
        if pp.rows == 0 || pp.cols == 0 || tp.rows == 0 || tp.cols == 0 {
            return Err("partition size (zero side)");
        }
        if tp.rows > pp.rows || tp.cols > pp.cols {
            return Err("thread partition (larger than the process partition)");
        }
        Ok(())
    }

    /// Global matrix dimensions of this problem — what the master's DAG
    /// covers, and the cost proxy job schedulers use (`rows * cols`).
    pub fn dims(&self) -> GridDims {
        with_problem!(self, p => p.dims())
    }

    /// Total cells of the global matrix — the unit of job cost for
    /// admission control and fair scheduling.
    pub fn cells(&self) -> u64 {
        let d = self.dims();
        d.rows as u64 * d.cols as u64
    }

    /// Solve on one thread with the sequential reference kernel. Small
    /// jobs batched below the dispatch threshold take this path; the
    /// runtime is exact, so the result is bit-identical to a fleet run.
    pub fn solve_sequential(&self) -> DpMatrix<i32> {
        with_problem!(self, p => p.solve_sequential())
    }

    /// Canonical encoding of the problem alone — no partition sizes, no
    /// deployment knobs. Two specs with equal `content_key_bytes` compute
    /// the same matrix regardless of how the work is partitioned, which
    /// is exactly the equivalence a content-addressed result cache needs.
    pub fn content_key_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.finish().to_vec()
    }

    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            RemoteProblem::EditDistance { a, b } => {
                w.put_u8(0).put_bytes(a).put_bytes(b);
            }
            RemoteProblem::Lcs { a, b } => {
                w.put_u8(1).put_bytes(a).put_bytes(b);
            }
            RemoteProblem::NeedlemanWunsch { a, b, sub, gap } => {
                w.put_u8(2)
                    .put_bytes(a)
                    .put_bytes(b)
                    .put_i64(sub.match_score as i64)
                    .put_i64(sub.mismatch as i64)
                    .put_i64(*gap as i64);
            }
            RemoteProblem::Swgg { a, b, sub, gap } => {
                w.put_u8(3)
                    .put_bytes(a)
                    .put_bytes(b)
                    .put_i64(sub.match_score as i64)
                    .put_i64(sub.mismatch as i64);
                let (kind, x, y) = match gap {
                    GapSpec::Linear(p) => (0u8, *p, 0),
                    GapSpec::Affine(o, e) => (1, *o, *e),
                    GapSpec::Logarithmic(a, b) => (2, *a, *b),
                };
                w.put_u8(kind).put_i64(x as i64).put_i64(y as i64);
            }
            RemoteProblem::Nussinov { seq, min_loop } => {
                w.put_u8(4).put_bytes(seq).put_u32(*min_loop);
            }
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<RemoteProblem, WireError> {
        Ok(match r.get_u8()? {
            0 => RemoteProblem::EditDistance {
                a: r.get_bytes()?.to_vec(),
                b: r.get_bytes()?.to_vec(),
            },
            1 => RemoteProblem::Lcs {
                a: r.get_bytes()?.to_vec(),
                b: r.get_bytes()?.to_vec(),
            },
            2 => RemoteProblem::NeedlemanWunsch {
                a: r.get_bytes()?.to_vec(),
                b: r.get_bytes()?.to_vec(),
                sub: SubSpec {
                    match_score: r.get_i64()? as i32,
                    mismatch: r.get_i64()? as i32,
                },
                // The kernel asserts the gap is a cost; a negative one
                // must fail here, not panic a fleet.
                gap: match r.get_i64()? as i32 {
                    g if g >= 0 => g,
                    _ => {
                        return Err(WireError {
                            context: "linear gap (negative)",
                        })
                    }
                },
            },
            3 => {
                let a = r.get_bytes()?.to_vec();
                let b = r.get_bytes()?.to_vec();
                let sub = SubSpec {
                    match_score: r.get_i64()? as i32,
                    mismatch: r.get_i64()? as i32,
                };
                let kind = r.get_u8()?;
                let (x, y) = (r.get_i64()? as i32, r.get_i64()? as i32);
                RemoteProblem::Swgg {
                    a,
                    b,
                    sub,
                    gap: match kind {
                        0 => GapSpec::Linear(x),
                        1 => GapSpec::Affine(x, y),
                        2 => GapSpec::Logarithmic(x, y),
                        _ => {
                            return Err(WireError {
                                context: "gap kind",
                            })
                        }
                    },
                }
            }
            4 => RemoteProblem::Nussinov {
                seq: r.get_bytes()?.to_vec(),
                min_loop: r.get_u32()?,
            },
            _ => {
                return Err(WireError {
                    context: "job problem kind",
                });
            }
        })
    }
}

fn put_mode(w: &mut WireWriter, mode: ScheduleMode) {
    match mode {
        ScheduleMode::Dynamic => {
            w.put_u8(0);
        }
        ScheduleMode::BlockCyclic { block } => {
            w.put_u8(1).put_u32(block);
        }
        ScheduleMode::ColumnWavefront => {
            w.put_u8(2);
        }
    }
}

fn get_mode(r: &mut WireReader<'_>) -> Result<ScheduleMode, WireError> {
    Ok(match r.get_u8()? {
        0 => ScheduleMode::Dynamic,
        1 => ScheduleMode::BlockCyclic {
            block: r.get_u32()?,
        },
        2 => ScheduleMode::ColumnWavefront,
        _ => {
            return Err(WireError {
                context: "schedule mode",
            })
        }
    })
}

/// Everything a remote slave needs to join a run: the problem, the two
/// partition sizes, and the deployment knobs both sides must share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The problem to reconstruct.
    pub problem: RemoteProblem,
    /// Process-level partition size.
    pub pp: GridDims,
    /// Thread-level partition size.
    pub tp: GridDims,
    /// Computing threads per slave (a slave may override locally).
    pub threads_per_slave: u32,
    /// Process-level scheduling policy.
    pub process_mode: ScheduleMode,
    /// Thread-level scheduling policy.
    pub thread_mode: ScheduleMode,
    /// Sub-task timeout before fault tolerance redistributes.
    pub task_timeout: Duration,
    /// Fault-tolerance poll interval.
    pub ft_poll: Duration,
    /// Heartbeat cadence.
    pub heartbeat_interval: Duration,
    /// Heartbeat silence tolerated before exclusion.
    pub heartbeat_timeout: Duration,
    /// Reliable-send retry policy.
    pub retry: RetryPolicy,
}

impl JobSpec {
    /// A spec with the given problem and partitions and the default
    /// local deployment knobs.
    pub fn new(problem: RemoteProblem, pp: GridDims, tp: GridDims) -> Self {
        let d = Deployment::local(1, 2);
        JobSpec {
            problem,
            pp,
            tp,
            threads_per_slave: 2,
            process_mode: d.process_mode,
            thread_mode: d.thread_mode,
            task_timeout: d.task_timeout,
            ft_poll: d.ft_poll,
            heartbeat_interval: d.heartbeat_interval,
            heartbeat_timeout: d.heartbeat_timeout,
            retry: d.retry,
        }
    }

    /// The deployment a rank should run with: the shared knobs plus its
    /// local slave count and (optionally overridden) thread count.
    pub fn deployment(&self, slaves: usize, threads_override: Option<usize>) -> Deployment {
        Deployment {
            slaves,
            threads_per_slave: threads_override.unwrap_or(self.threads_per_slave as usize),
            process_mode: self.process_mode,
            thread_mode: self.thread_mode,
            task_timeout: self.task_timeout,
            ft_poll: self.ft_poll,
            retry: self.retry.clone(),
            heartbeat_interval: self.heartbeat_interval,
            heartbeat_timeout: self.heartbeat_timeout,
            obs: ObsConfig::default(),
            checkpoint: None,
        }
    }

    /// The DAG Data Driven Model for this job — identical on master and
    /// every slave because it is derived from the shipped spec.
    pub fn model(&self) -> DagDataDrivenModel {
        with_problem!(&self.problem, p => {
            DagDataDrivenModel::builder(p.pattern())
                .process_partition_size(self.pp)
                .thread_partition_size(self.tp)
                .build()
        })
    }

    /// Encode to raw payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.problem.encode_into(&mut w);
        w.put_u32(self.pp.rows).put_u32(self.pp.cols);
        w.put_u32(self.tp.rows).put_u32(self.tp.cols);
        w.put_u32(self.threads_per_slave);
        put_mode(&mut w, self.process_mode);
        put_mode(&mut w, self.thread_mode);
        w.put_u64(self.task_timeout.as_millis() as u64)
            .put_u64(self.ft_poll.as_millis() as u64)
            .put_u64(self.heartbeat_interval.as_millis() as u64)
            .put_u64(self.heartbeat_timeout.as_millis() as u64);
        w.put_u32(self.retry.max_attempts)
            .put_u64(self.retry.initial_backoff.as_micros() as u64)
            .put_u64(self.retry.max_backoff.as_micros() as u64);
        w.finish().to_vec()
    }

    /// Reject a duration that is zero on the wire (whole milliseconds). A
    /// zero heartbeat interval spins the slave loop, flooding the
    /// master's link with heartbeats; a zero task timeout makes every
    /// tile in flight overdue at the next sweep, so none ever finishes;
    /// a zero poll or heartbeat timeout is as degenerate.
    fn validate_durations(&self) -> Result<(), &'static str> {
        for (d, what) in [
            (self.task_timeout, "task timeout (zero)"),
            (self.ft_poll, "fault-tolerance poll (zero)"),
            (self.heartbeat_interval, "heartbeat interval (zero)"),
            (self.heartbeat_timeout, "heartbeat timeout (zero)"),
        ] {
            if d.as_millis() == 0 {
                return Err(what);
            }
        }
        Ok(())
    }

    /// Decode from raw payload bytes. A spec arrives from outside the
    /// process (a client's `Submit`, a master's JOB), so everything the
    /// model builder would otherwise `assert!` on is rejected here: a
    /// partition with a zero side, a thread partition larger than the
    /// process partition it subdivides, unknown enum bytes, and a
    /// duration of zero milliseconds.
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, WireError> {
        let mut r = WireReader::new(bytes);
        let problem = RemoteProblem::decode_from(&mut r)?;
        let pp = GridDims::new(r.get_u32()?, r.get_u32()?);
        let tp = GridDims::new(r.get_u32()?, r.get_u32()?);
        RemoteProblem::validate_partitions(pp, tp).map_err(|context| WireError { context })?;
        let threads_per_slave = r.get_u32()?;
        let process_mode = get_mode(&mut r)?;
        let thread_mode = get_mode(&mut r)?;
        let task_timeout = Duration::from_millis(r.get_u64()?);
        let ft_poll = Duration::from_millis(r.get_u64()?);
        let heartbeat_interval = Duration::from_millis(r.get_u64()?);
        let heartbeat_timeout = Duration::from_millis(r.get_u64()?);
        let retry = RetryPolicy {
            max_attempts: r.get_u32()?,
            initial_backoff: Duration::from_micros(r.get_u64()?),
            max_backoff: Duration::from_micros(r.get_u64()?),
        };
        r.expect_end()?;
        let spec = JobSpec {
            problem,
            pp,
            tp,
            threads_per_slave,
            process_mode,
            thread_mode,
            task_timeout,
            ft_poll,
            heartbeat_interval,
            heartbeat_timeout,
            retry,
        };
        spec.validate_durations()
            .map_err(|context| WireError { context })?;
        Ok(spec)
    }
}

/// Outcome of a multi-process master run.
#[derive(Debug)]
pub struct RemoteOutput {
    /// The computed global matrix (all remote problems use `i32` cells).
    pub matrix: DpMatrix<i32>,
    /// Execution report.
    pub report: RunReport,
    /// Per-link socket counters of the master endpoint; `None` for an
    /// in-process fleet, whose links are plain channels.
    pub socket: Option<SocketInfo>,
}

/// Run the master side of a multi-process job on an already-bound
/// listener: accept `slaves` connections, ship one [`JobSpec`], run the
/// ordinary master loop over the socket endpoint, and shut the fleet
/// down. A `reconnect` window opts into elastic membership: a slave
/// whose link broke may rejoin for that long. One-shot sugar over
/// [`Fleet`], which the serve daemon uses directly to run many jobs over
/// the same connections.
pub fn run_remote_master(
    listener: SocketListener,
    spec: &JobSpec,
    slaves: usize,
    reconnect: Option<Duration>,
    opts: JobOptions,
) -> Result<RemoteOutput, RuntimeError> {
    let mut fleet = Fleet::remote(listener, slaves, reconnect.is_some(), reconnect)?;
    let out = fleet.run_job(spec, opts);
    fleet.shutdown();
    out
}

/// Options for the slave side of a multi-process run.
#[derive(Clone, Debug)]
pub struct RemoteSlaveOptions {
    /// Master address to connect to.
    pub addr: NetAddr,
    /// Ask the master for a specific rank (drills and tests).
    pub want_rank: Option<u32>,
    /// Override the job's `threads_per_slave` locally.
    pub threads: Option<usize>,
    /// Socket config (a reconnect window makes a broken link a rejoin:
    /// the slave redials for that long).
    pub socket: SocketConfig,
}

impl RemoteSlaveOptions {
    /// Connect to `addr` with defaults everywhere else.
    pub fn new(addr: NetAddr) -> Self {
        RemoteSlaveOptions {
            addr,
            want_rank: None,
            threads: None,
            socket: SocketConfig::default(),
        }
    }
}

/// What a slave's multi-job service loop did before it exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlaveServeSummary {
    /// Jobs served to completion.
    pub jobs: u64,
    /// Execution stats summed across every job.
    pub stats: SlaveStatsMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The JOB payload and the cache's content key are wire and on-disk
    /// contracts. One spec per problem, bytes captured before the table
    /// refactor: the problem's own bytes (= `content_key_bytes`) and the
    /// knobs every spec appends after them.
    #[test]
    fn job_payload_and_content_key_bytes_are_golden() {
        const KNOBS: &str = "0800000006000000040000000300000003000000010200000002090300000000000014000000000000001900000000000000fa000000000000000a00000088130000000000008038010000000000";
        for (problem, key) in [
            (
                RemoteProblem::EditDistance {
                    a: b"kitten".to_vec(),
                    b: b"sitting".to_vec(),
                },
                "00060000006b697474656e0700000073697474696e67",
            ),
            (
                RemoteProblem::Lcs {
                    a: b"abcbdab".to_vec(),
                    b: b"bdcaba".to_vec(),
                },
                "01070000006162636264616206000000626463616261",
            ),
            (
                RemoteProblem::NeedlemanWunsch {
                    a: b"ACGT".to_vec(),
                    b: b"AGT".to_vec(),
                    sub: SubSpec::dna(),
                    gap: 2,
                },
                "020400000041434754030000004147540200000000000000ffffffffffffffff0200000000000000",
            ),
            (
                RemoteProblem::Swgg {
                    a: b"ACGTACGT".to_vec(),
                    b: b"TTACGA".to_vec(),
                    sub: SubSpec {
                        match_score: 3,
                        mismatch: -2,
                    },
                    gap: GapSpec::Affine(5, 1),
                },
                "03080000004143475441434754060000005454414347410300000000000000feffffffffffffff0105000000000000000100000000000000",
            ),
            (
                RemoteProblem::Nussinov {
                    seq: b"GGGAAACCC".to_vec(),
                    min_loop: 3,
                },
                "040900000047474741414143434303000000",
            ),
        ] {
            assert_eq!(hex(&problem.content_key_bytes()), key, "{}", problem.name());
            let mut spec = JobSpec::new(problem, GridDims::new(8, 6), GridDims::new(4, 3));
            spec.threads_per_slave = 3;
            spec.process_mode = ScheduleMode::BlockCyclic { block: 2 };
            spec.thread_mode = ScheduleMode::ColumnWavefront;
            spec.task_timeout = Duration::from_millis(777);
            assert_eq!(hex(&spec.encode()), format!("{key}{KNOBS}"));
            assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
        }
    }

    #[test]
    fn truncated_spec_never_decodes() {
        let spec = JobSpec::new(
            RemoteProblem::EditDistance {
                a: b"abc".to_vec(),
                b: b"abd".to_vec(),
            },
            GridDims::new(2, 2),
            GridDims::new(1, 1),
        );
        let bytes = spec.encode();
        for cut in 0..bytes.len() {
            assert!(
                JobSpec::decode(&bytes[..cut]).is_err(),
                "prefix {cut}/{} must not decode",
                bytes.len()
            );
        }
    }

    /// A spec is outside input: values the model builder would `assert!`
    /// on, and enum bytes no encoder writes, must fail at decode.
    #[test]
    fn out_of_range_spec_never_decodes() {
        let base = JobSpec::new(
            RemoteProblem::Swgg {
                a: b"ACGT".to_vec(),
                b: b"AGT".to_vec(),
                sub: SubSpec::dna(),
                gap: GapSpec::Linear(2),
            },
            GridDims::new(4, 4),
            GridDims::new(2, 2),
        );
        assert!(JobSpec::decode(&base.encode()).is_ok());
        let with = |f: &dyn Fn(&mut JobSpec)| {
            let mut s = base.clone();
            f(&mut s);
            JobSpec::decode(&s.encode())
        };
        assert!(
            with(&|s| s.pp = GridDims::new(0, 4)).is_err(),
            "zero pp rows"
        );
        assert!(
            with(&|s| s.pp = GridDims::new(4, 0)).is_err(),
            "zero pp cols"
        );
        assert!(
            with(&|s| s.tp = GridDims::new(0, 2)).is_err(),
            "zero tp rows"
        );
        assert!(
            with(&|s| s.tp = GridDims::new(2, 0)).is_err(),
            "zero tp cols"
        );
        assert!(
            with(&|s| s.tp = GridDims::new(5, 2)).is_err(),
            "tp beyond pp"
        );
        assert!(
            with(&|s| s.task_timeout = Duration::ZERO).is_err(),
            "zero task timeout"
        );
        assert!(
            with(&|s| s.ft_poll = Duration::ZERO).is_err(),
            "zero ft poll"
        );
        assert!(
            with(&|s| s.heartbeat_interval = Duration::ZERO).is_err(),
            "zero heartbeat interval"
        );
        assert!(
            with(&|s| s.heartbeat_timeout = Duration::ZERO).is_err(),
            "zero heartbeat timeout"
        );
        let negative_gap = JobSpec::new(
            RemoteProblem::NeedlemanWunsch {
                a: b"ACGT".to_vec(),
                b: b"AGT".to_vec(),
                sub: SubSpec::dna(),
                gap: -1,
            },
            GridDims::new(4, 4),
            GridDims::new(2, 2),
        );
        assert!(
            JobSpec::decode(&negative_gap.encode()).is_err(),
            "the nw kernel asserts its gap is a cost"
        );
        // Unknown enum bytes: locate each kind byte as the one byte that
        // differs between two valid encodings, then write a value no
        // encoder produces.
        let bytes = base.encode();
        let kind_byte = |f: &dyn Fn(&mut JobSpec)| {
            let mut s = base.clone();
            f(&mut s);
            let other = s.encode();
            assert_eq!(other.len(), bytes.len());
            let diff: Vec<usize> = (0..bytes.len())
                .filter(|i| bytes[*i] != other[*i])
                .collect();
            assert_eq!(diff.len(), 1, "exactly the kind byte differs");
            diff[0]
        };
        for (what, at) in [
            (
                "gap kind",
                kind_byte(&|s| {
                    if let RemoteProblem::Swgg { gap, .. } = &mut s.problem {
                        *gap = GapSpec::Affine(2, 0);
                    }
                }),
            ),
            (
                "process mode",
                kind_byte(&|s| s.process_mode = ScheduleMode::ColumnWavefront),
            ),
            (
                "thread mode",
                kind_byte(&|s| s.thread_mode = ScheduleMode::ColumnWavefront),
            ),
        ] {
            let mut bad = bytes.clone();
            bad[at] = 9;
            assert!(JobSpec::decode(&bad).is_err(), "unknown {what} byte");
        }
    }

    /// The default rule over degenerate, ragged and square matrices: every
    /// output is executable, and a slave on at most one thread gets its
    /// tile whole. (A 1x1 tile has nothing to split, so it is also whole
    /// on more threads.)
    #[test]
    fn default_partitions_are_valid_and_whole_tiles_at_one_thread() {
        let n = 37;
        for (rows, cols) in [(1, 1), (1, n), (n, 1), (1001, 1004), (900, 900)] {
            let d = GridDims::new(rows, cols);
            for slaves in [1, 2, 3] {
                let parts = 4 * slaves as u32;
                for threads in [0, 1, 2] {
                    let (pp, tp) =
                        RemoteProblem::resolve_partitions(d, slaves, threads, None, None);
                    let case = format!("{d} on {slaves} x {threads}: {pp} / {tp}");
                    assert_eq!(RemoteProblem::validate_partitions(pp, tp), Ok(()), "{case}");
                    let splittable = pp != GridDims::square(1);
                    assert_eq!(tp == pp, threads <= 1 || !splittable, "{case}");
                    assert_eq!(
                        pp,
                        GridDims::new(rows.div_ceil(parts), cols.div_ceil(parts)),
                        "{case}"
                    );
                }
            }
        }
        // A given size wins on either level.
        let (d, pp, tp) = (
            GridDims::new(50, 60),
            GridDims::new(9, 8),
            GridDims::new(3, 2),
        );
        assert_eq!(
            RemoteProblem::resolve_partitions(d, 2, 1, Some(pp), Some(tp)),
            (pp, tp)
        );
        assert_eq!(
            RemoteProblem::resolve_partitions(d, 2, 1, Some(pp), None),
            (pp, pp)
        );
        let (_, quarter) = RemoteProblem::resolve_partitions(d, 2, 2, Some(pp), None);
        assert_eq!(quarter, GridDims::new(3, 2));
    }

    /// Full multi-process semantics in one process: a master thread and
    /// two slave threads joined only by TCP, exchanging the job spec and
    /// computing a matrix identical to the sequential reference.
    #[test]
    fn tcp_job_runs_end_to_end() {
        let problem = RemoteProblem::EditDistance {
            a: b"the quick brown fox jumps over the lazy dog".to_vec(),
            b: b"the quick brown cat naps over the lazy dog".to_vec(),
        };
        let spec = JobSpec::new(problem, GridDims::new(8, 8), GridDims::new(4, 4));
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let slaves: Vec<_> = (1..=2u32)
            .map(|r| {
                let mut o = RemoteSlaveOptions::new(addr.clone());
                o.want_rank = Some(r);
                std::thread::spawn(move || crate::fleet::serve_slave_jobs(o))
            })
            .collect();
        let out = run_remote_master(listener, &spec, 2, None, JobOptions::default()).unwrap();
        for s in slaves {
            s.join().unwrap().unwrap();
        }
        let reference = spec.problem.solve_sequential();
        assert_eq!(out.matrix.get(43, 42), reference.get(43, 42));
        assert_eq!(
            out.report.master.completed,
            out.report.master.dispatched + out.report.master.resumed
                - out.report.master.redispatched
        );
    }
}
