//! # easyhps-stress — seeded schedule-stress harness for the real runtime
//!
//! Property-based fault drilling for the master–slave runtime: one `u64`
//! seed deterministically derives a whole adversarial schedule — per-link
//! drop/duplicate/delay(reorder) chaos (master link included), heartbeat
//! starvation, a mid-run slave crash, seeded kernel stalls, a corrupting
//! link (seeded bit flips) — which is then run against the **real**
//! runtime (real threads, real wire protocol, not the virtual-time
//! simulator in `crates/sim`). After the run, invariants are checked:
//!
//! 1. the matrix is bit-identical to the sequential kernel;
//! 2. every DAG tile was accepted exactly once (none lost or
//!    double-credited);
//! 3. stats conservation: `dispatched == (completed - resumed) +
//!    redispatched`;
//! 4. one master-observed trace span per accepted tile;
//! 5. with no crash or heartbeat-starvation clause, no slave stays
//!    permanently excluded;
//! 6. the emitted Chrome trace passes the `easyhps-obs` structural
//!    validator and records exactly the accepted tiles;
//! 7. when the fault layer flipped bits in a meaningful number of
//!    messages, the CRC-guarded framing caught at least one.
//!
//! The kill-master drill ([`run_kill_seed`]) is the crash-recovery
//! counterpart: each seed checkpoints to disk, kills the master mid-run,
//! optionally tears the newest segment file, restarts from the directory
//! alone, and requires bit-identical recovery with the restored-tile
//! accounting conserved.
//!
//! A failing seed prints a one-line repro (`easyhps stress --seed N ...`)
//! and a greedy delta-debugging shrinker minimizes the fault schedule
//! first, so the repro carries only the clauses that matter. Re-deriving a
//! plan from its seed is pure: the schedule reproduces byte for byte.
//!
//! ```no_run
//! use easyhps_stress::{run_seed, StressConfig};
//!
//! let outcome = run_seed(42, &StressConfig::default());
//! assert!(outcome.passed(), "{}\n{}", outcome.repro_line(),
//!         outcome.violations.join("\n"));
//! ```

mod kill;
mod plan;
mod run;
mod shrink;

pub use kill::{run_kill_seed, KillOutcome, KillPlan};
pub use plan::{FaultClause, StressConfig, StressPlan};
pub use run::{run_plan, run_seed, SeedOutcome, Verdict};
pub use shrink::shrink;
