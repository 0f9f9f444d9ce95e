//! The four workloads and the seeded generator behind them.
//!
//! Every workload names one *fleet job shape* — problem class, sequence
//! length, partition sizes, transport — which the end-to-end run executes
//! (directly, or as the cold job of the serve mix) and on which the traced
//! run probes every layer. The program under test only ever sees inputs
//! generated here from `--seed`.

use easyhps_core::GridDims;
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_runtime::remote::{GapSpec, JobSpec, RemoteProblem, SubSpec};
use easyhps_runtime::TransportKind;

/// Slaves in every fleet this benchmark starts (the sandbox has 2 cores).
pub const SLAVES: usize = 2;
/// Computing threads per slave.
pub const THREADS: usize = 1;
/// Side of the tiny (batched, sequentially solved) job of the serve mix.
pub const TINY_LEN: usize = 100;

/// Problem class of a workload's fleet job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `EditDistance` over two DNA sequences (bit-parallel Myers kernel).
    Edit,
    /// `SmithWatermanGeneralGap::dna`: O(n) scans per cell.
    Swgg,
    /// `Nussinov` over one RNA sequence: triangular DAG.
    Nussinov,
}

/// What the end-to-end run of a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Closed loop of `EasyHps::run` calls on one problem.
    Batch,
    /// `Daemon` + two closed-loop `Client`s walking a seeded schedule.
    ServeMix,
}

/// One workload: its fleet job shape and how it is driven.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Stable name (a key of `BENCHMARK.json`).
    pub name: &'static str,
    /// Driver of the end-to-end run.
    pub driver: Driver,
    /// Problem class of the fleet job.
    pub class: Class,
    /// Sequence length.
    pub len: usize,
    /// Process partition size (square).
    pub pps: u32,
    /// Thread partition size (square).
    pub tps: u32,
    /// Transport of the direct runs. The serve daemon's local fleet always
    /// uses channel links, so `serve_mix` names `InProcess`.
    pub transport: TransportKind,
}

/// The suite. Sizes are the issue's, shrunk so that one job takes 100 to
/// 140 ms and a 20 s run times well over 100 of them; the tile counts
/// (441 / 81 / 78) are kept. See README.md for the rationale.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edit_fine_tcp",
        driver: Driver::Batch,
        class: Class::Edit,
        len: 1000,
        pps: 50,
        tps: 25,
        transport: TransportKind::Tcp,
    },
    Workload {
        name: "swgg_coarse_inproc",
        driver: Driver::Batch,
        class: Class::Swgg,
        len: 600,
        pps: 75,
        tps: 15,
        transport: TransportKind::InProcess,
    },
    Workload {
        name: "nussinov_tri_uds",
        driver: Driver::Batch,
        class: Class::Nussinov,
        len: 900,
        pps: 75,
        tps: 25,
        transport: TransportKind::Uds,
    },
    Workload {
        name: "serve_mix",
        driver: Driver::ServeMix,
        class: Class::Edit,
        len: 1000,
        pps: 100,
        tps: 50,
        transport: TransportKind::InProcess,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The smoke variant: sequence length ÷ 4, same partitions (so fewer
    /// tiles, same code paths).
    pub fn smoke(mut self) -> Workload {
        self.len /= 4;
        self
    }

    /// Generated inputs of this workload's fleet job; `stream` separates
    /// the independent problems one run needs (the batch job is stream 0,
    /// serve-mix jobs count up from there).
    pub fn problem(&self, seed: u64, stream: u64) -> RemoteProblem {
        generate(self.class, self.len, seed, stream)
    }

    /// The job a serve client submits for `problem`.
    pub fn job_spec(&self, problem: RemoteProblem) -> JobSpec {
        let mut spec = JobSpec::new(
            problem,
            GridDims::square(self.pps),
            GridDims::square(self.tps),
        );
        spec.threads_per_slave = THREADS as u32;
        spec
    }
}

/// The tiny job of the serve mix (below the daemon's batch threshold).
pub fn tiny_problem(seed: u64, stream: u64) -> RemoteProblem {
    generate(Class::Edit, TINY_LEN, seed, stream)
}

/// Seeded input generator: equal `(class, len, seed, stream)` give
/// byte-identical problems, any difference a different one.
pub fn generate(class: Class, len: usize, seed: u64, stream: u64) -> RemoteProblem {
    // Two sequence seeds per stream; odd multiplier keeps streams and
    // driver seeds (consecutive small integers) from colliding.
    let s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(2 * stream);
    match class {
        Class::Edit => RemoteProblem::EditDistance {
            a: random_sequence(Alphabet::Dna, len, s),
            b: random_sequence(Alphabet::Dna, len, s.wrapping_add(1)),
        },
        Class::Swgg => RemoteProblem::Swgg {
            a: random_sequence(Alphabet::Dna, len, s),
            b: random_sequence(Alphabet::Dna, len, s.wrapping_add(1)),
            sub: SubSpec::dna(),
            gap: GapSpec::Logarithmic(4, 2),
        },
        Class::Nussinov => RemoteProblem::Nussinov {
            seq: random_sequence(Alphabet::Rna, len, s),
            min_loop: 1,
        },
    }
}

/// Run `$body` with `$p` bound to the concrete `DpProblem` that
/// `$problem` (a `RemoteProblem` made by [`generate`]) describes.
#[macro_export]
macro_rules! with_problem {
    ($problem:expr, $p:ident => $body:expr) => {
        match $problem {
            easyhps_runtime::remote::RemoteProblem::EditDistance { a, b } => {
                let $p = easyhps_dp::EditDistance::new(a.clone(), b.clone());
                $body
            }
            easyhps_runtime::remote::RemoteProblem::Swgg { a, b, .. } => {
                let $p = easyhps_dp::SmithWatermanGeneralGap::dna(a.clone(), b.clone());
                $body
            }
            easyhps_runtime::remote::RemoteProblem::Nussinov { seq, .. } => {
                let $p = easyhps_dp::Nussinov::new(seq.clone());
                $body
            }
            other => unreachable!("the generator never makes {other:?}"),
        }
    };
}
