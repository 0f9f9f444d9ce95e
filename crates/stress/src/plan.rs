//! Seed-derived stress plans.
//!
//! A [`StressPlan`] is a pure function of one `u64` seed (plus the
//! optional pins in [`StressConfig`]): the workload, cluster shape and
//! every fault clause are drawn from a `StdRng` seeded with it, in a
//! fixed order. Re-deriving the plan for the same seed therefore
//! reproduces the exact fault schedule, byte for byte — which is what
//! makes a one-line `easyhps stress --seed N` repro possible. All clause
//! parameters are integers (probabilities in permille) so the canonical
//! description renders identically everywhere.

use easyhps_core::ScheduleMode;
use easyhps_runtime::remote::{ProblemParams, RemoteProblem};
use easyhps_runtime::TransportKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Duration;

/// One adversarial ingredient of a stress schedule. Probabilities are in
/// permille so plans describe (and reproduce) exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultClause {
    /// Chaos on one rank's outgoing link: uniform drop, duplicate
    /// delivery, and delayed/reordered delivery (held for `delay_sends`
    /// subsequent sends).
    LinkChaos {
        /// Rank whose outgoing traffic is affected (0 = master).
        rank: u32,
        /// Drop probability, permille.
        drop_pm: u32,
        /// Duplicate probability, permille.
        dup_pm: u32,
        /// Delay probability, permille.
        delay_pm: u32,
        /// Sends a delayed message is held for.
        delay_sends: u32,
    },
    /// Drop this slave rank's HEARTBEAT frames specifically — the master
    /// must judge it by its remaining traffic (exclusion + re-admission).
    StarveHeartbeats {
        /// Slave rank (1-based).
        rank: u32,
        /// Heartbeat drop probability, permille.
        pm: u32,
    },
    /// Kill this slave rank's endpoint after it has attempted
    /// `after_sends` sends — a mid-run crash.
    Crash {
        /// Slave rank (1-based).
        rank: u32,
        /// Send attempts before death.
        after_sends: u64,
    },
    /// Stall a seeded subset of kernel invocations — slow or frozen
    /// compute threads (drives timeout-redistribution and stale DONEs).
    Stall {
        /// Per-call stall probability, permille.
        permille: u32,
        /// Stall duration, milliseconds.
        millis: u64,
    },
    /// Flip one seeded bit in a fraction of this rank's outgoing frames —
    /// a corrupting link. The CRC-guarded framing must catch every flip
    /// and recover by retransmission; a flip that decodes is a bug.
    BitFlip {
        /// Rank whose outgoing traffic is corrupted (0 = master).
        rank: u32,
        /// Corruption probability, permille.
        pm: u32,
    },
    /// Hard-close this slave rank's socket after `after_sends` send
    /// attempts, keeping it dark for `down_ms` — a severed link. Under a
    /// socket transport with a reconnect window the slave must redial,
    /// resume its rank under a bumped fleet epoch, and the run must
    /// still produce the exact matrix (meaningless on the in-process
    /// transport, whose channel links cannot drop).
    LinkSever {
        /// Slave rank (1-based) whose link is severed.
        rank: u32,
        /// Send attempts before the sever.
        after_sends: u64,
        /// How long the link stays down, milliseconds.
        down_ms: u64,
    },
}

impl fmt::Display for FaultClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LinkChaos {
                rank,
                drop_pm,
                dup_pm,
                delay_pm,
                delay_sends,
            } => write!(
                f,
                "link-chaos rank={rank} drop={drop_pm}pm dup={dup_pm}pm \
                 delay={delay_pm}pm delay-sends={delay_sends}"
            ),
            Self::StarveHeartbeats { rank, pm } => {
                write!(f, "starve-heartbeats rank={rank} pm={pm}")
            }
            Self::Crash { rank, after_sends } => {
                write!(f, "crash rank={rank} after-sends={after_sends}")
            }
            Self::Stall { permille, millis } => {
                write!(f, "stall permille={permille} millis={millis}")
            }
            Self::BitFlip { rank, pm } => {
                write!(f, "bit-flip rank={rank} pm={pm}")
            }
            Self::LinkSever {
                rank,
                after_sends,
                down_ms,
            } => {
                write!(
                    f,
                    "link-sever rank={rank} after-sends={after_sends} down-ms={down_ms}"
                )
            }
        }
    }
}

/// User pins on plan derivation (CLI flags). Anything left `None` is
/// drawn from the seed.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Process-level schedule mode of the run.
    pub mode: ScheduleMode,
    /// Pin the slave count (otherwise 2..=3 from the seed).
    pub slaves: Option<usize>,
    /// Pin the workload to a [`RemoteProblem::NAMES`] entry (otherwise
    /// drawn from the seed).
    pub workload: Option<&'static str>,
    /// Kill a run (and fail the seed) after this long with no result.
    pub hang_timeout: Duration,
    /// Minimize failing fault schedules before reporting.
    pub shrink: bool,
    /// Transport carrying the virtual cluster's traffic. Not part of the
    /// seed draw (a pin, like `mode`): the same schedule can be replayed
    /// over channels, TCP or Unix sockets to compare behaviour.
    pub transport: TransportKind,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            mode: ScheduleMode::Dynamic,
            slaves: None,
            workload: None,
            hang_timeout: Duration::from_secs(60),
            shrink: true,
            transport: TransportKind::InProcess,
        }
    }
}

/// A fully derived stress schedule: everything a run needs, reproducible
/// from `(seed, mode, pins)`.
#[derive(Clone, Debug)]
pub struct StressPlan {
    /// The seed everything derives from.
    pub seed: u64,
    /// Process-level schedule mode.
    pub mode: ScheduleMode,
    /// Number of slaves.
    pub slaves: usize,
    /// Kernel under test: a [`RemoteProblem::NAMES`] entry.
    pub workload: &'static str,
    /// Input sequence length.
    pub len: u32,
    /// The adversarial ingredients, in derivation order. Clause indices
    /// are stable: `--clauses 0,2` re-derives this list and keeps only
    /// those positions.
    pub clauses: Vec<FaultClause>,
}

/// SplitMix64 finalizer — used to give each rank's fault stream its own
/// sub-seed without consuming draws from the plan RNG.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The workload every seeded drill draws: one of the first three
/// [`RemoteProblem::NAMES`]. Later names are pin-only (`--workload
/// nw|lcs`), so adding one never perturbs the draw order that existing
/// seeds' schedules depend on.
pub(crate) fn draw_workload(rng: &mut StdRng) -> &'static str {
    RemoteProblem::NAMES[rng.random_range(0..3u32) as usize]
}

/// The problem a drill of `workload` at `len` under `seed` runs: the
/// input sequences derive from the seed too, so the whole run is one
/// number.
pub(crate) fn seeded_problem(workload: &str, len: u32, seed: u64) -> Result<RemoteProblem, String> {
    RemoteProblem::random(
        workload,
        len as usize,
        mix64(seed ^ 0xa5a5),
        mix64(seed ^ 0x5a5a),
        &ProblemParams::default(),
    )
}

impl StressPlan {
    /// Derive the plan for `seed` under `cfg`. Pure: same inputs, same
    /// plan, always.
    pub fn from_seed(seed: u64, cfg: &StressConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw order is part of the reproducibility contract: slaves,
        // workload, len, then clauses. Pinned values still consume their
        // draws so `--slaves 3` does not reshuffle the rest of the plan.
        let drawn_slaves = rng.random_range(2..=3usize);
        let slaves = cfg.slaves.unwrap_or(drawn_slaves);
        let drawn_workload = draw_workload(&mut rng);
        let workload = cfg.workload.unwrap_or(drawn_workload);
        let len = 26 + rng.random_range(0..8u32);

        let mut clauses = Vec::new();
        // Per-link chaos, master (rank 0) included.
        for rank in 0..=slaves as u32 {
            if !rng.random_bool(0.5) {
                continue;
            }
            let drop_pm = rng.random_range(0..=200u32);
            let dup_pm = rng.random_range(0..=250u32);
            let delay_pm = rng.random_range(0..=250u32);
            let delay_sends = rng.random_range(1..=3u32);
            if drop_pm + dup_pm + delay_pm == 0 {
                continue;
            }
            clauses.push(FaultClause::LinkChaos {
                rank,
                drop_pm,
                dup_pm,
                delay_pm,
                delay_sends,
            });
        }
        // At most one heartbeat starvation.
        if rng.random_bool(0.25) {
            clauses.push(FaultClause::StarveHeartbeats {
                rank: rng.random_range(1..=slaves as u32),
                pm: rng.random_range(600..=1000u32),
            });
        }
        // At most one crash, and only with a surviving slave left.
        if slaves >= 2 && rng.random_bool(0.25) {
            clauses.push(FaultClause::Crash {
                rank: rng.random_range(1..=slaves as u32),
                after_sends: rng.random_range(10..=120u64),
            });
        }
        // Seeded kernel stalls.
        if rng.random_bool(0.5) {
            clauses.push(FaultClause::Stall {
                permille: rng.random_range(30..=200u32),
                millis: rng.random_range(40..=300u64),
            });
        }
        // Corrupting link on one rank. Drawn *after* every pre-existing
        // clause so old seeds keep their schedules byte for byte.
        if rng.random_bool(0.35) {
            clauses.push(FaultClause::BitFlip {
                rank: rng.random_range(0..=slaves as u32),
                pm: rng.random_range(5..=15u32),
            });
        }
        // Severed link on one slave. Drawn after BitFlip — same
        // byte-for-byte contract for pre-existing seeds.
        if rng.random_bool(0.3) {
            clauses.push(FaultClause::LinkSever {
                rank: rng.random_range(1..=slaves as u32),
                after_sends: rng.random_range(10..=120u64),
                down_ms: rng.random_range(50..=400u64),
            });
        }

        Self {
            seed,
            mode: cfg.mode,
            slaves,
            workload,
            len,
            clauses,
        }
    }

    /// The problem this plan runs.
    pub fn problem(&self) -> Result<RemoteProblem, String> {
        seeded_problem(self.workload, self.len, self.seed)
    }

    /// The same plan with only the clauses at `keep` (original indices)
    /// left active — the shrinker's probe.
    pub fn with_clauses(&self, keep: &[usize]) -> Self {
        let mut p = self.clone();
        p.clauses = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(i, _)| keep.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        p
    }

    /// Canonical, byte-exact description of the full schedule. Equal
    /// descriptions mean equal fault schedules.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "seed={} mode={} workload={} len={} slaves={}\n",
            self.seed,
            self.mode.name(),
            self.workload,
            self.len,
            self.slaves
        );
        if self.clauses.is_empty() {
            s.push_str("  (no fault clauses: interleaving stress only)\n");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            let _ = writeln!(s, "  clause {i}: {c}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_byte_for_byte() {
        let cfg = StressConfig::default();
        for seed in 0..200u64 {
            let a = StressPlan::from_seed(seed, &cfg);
            let b = StressPlan::from_seed(seed, &cfg);
            assert_eq!(a.describe(), b.describe(), "seed {seed} must replay");
            assert_eq!(a.clauses, b.clauses);
        }
    }

    #[test]
    fn seeds_cover_every_clause_kind() {
        let cfg = StressConfig::default();
        let (mut chaos, mut starve, mut crash, mut stall, mut flip, mut sever) = (0, 0, 0, 0, 0, 0);
        for seed in 0..300u64 {
            for c in StressPlan::from_seed(seed, &cfg).clauses {
                match c {
                    FaultClause::LinkChaos { .. } => chaos += 1,
                    FaultClause::StarveHeartbeats { .. } => starve += 1,
                    FaultClause::Crash { .. } => crash += 1,
                    FaultClause::Stall { .. } => stall += 1,
                    FaultClause::BitFlip { .. } => flip += 1,
                    FaultClause::LinkSever { .. } => sever += 1,
                }
            }
        }
        assert!(chaos > 100, "link chaos common ({chaos})");
        assert!(starve > 20, "starvation present ({starve})");
        assert!(crash > 20, "crashes present ({crash})");
        assert!(stall > 50, "stalls present ({stall})");
        assert!(flip > 50, "bit flips present ({flip})");
        assert!(sever > 50, "link severs present ({sever})");
    }

    #[test]
    fn pinning_slaves_does_not_reshuffle_the_rest() {
        let free = StressPlan::from_seed(11, &StressConfig::default());
        let pinned = StressPlan::from_seed(
            11,
            &StressConfig {
                slaves: Some(free.slaves),
                ..StressConfig::default()
            },
        );
        assert_eq!(free.describe(), pinned.describe());
    }

    #[test]
    fn with_clauses_keeps_original_positions() {
        let cfg = StressConfig::default();
        let plan = (0..100u64)
            .map(|s| StressPlan::from_seed(s, &cfg))
            .find(|p| p.clauses.len() >= 3)
            .expect("some seed has 3+ clauses");
        let sub = plan.with_clauses(&[0, 2]);
        assert_eq!(sub.clauses.len(), 2);
        assert_eq!(sub.clauses[0], plan.clauses[0]);
        assert_eq!(sub.clauses[1], plan.clauses[2]);
    }

    #[test]
    fn crash_clauses_never_target_the_master_or_exceed_one() {
        let cfg = StressConfig::default();
        for seed in 0..500u64 {
            let plan = StressPlan::from_seed(seed, &cfg);
            let crashes: Vec<_> = plan
                .clauses
                .iter()
                .filter_map(|c| match c {
                    FaultClause::Crash { rank, .. } => Some(*rank),
                    _ => None,
                })
                .collect();
            assert!(crashes.len() <= 1, "seed {seed}: at most one crash");
            for r in crashes {
                assert!(
                    r >= 1 && r <= plan.slaves as u32,
                    "seed {seed}: crash rank {r} is a slave"
                );
                assert!(plan.slaves >= 2, "seed {seed}: a slave survives");
            }
        }
    }
}
