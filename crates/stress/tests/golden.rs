//! Golden schedules: a seed is a promise. These descriptions and
//! reference-matrix CRCs were captured before workloads became
//! [`RemoteProblem::NAMES`] entries; every existing seed must keep
//! deriving the same fault schedule over the same input bytes.

use easyhps_core::{ScheduleMode, TileRegion};
use easyhps_net::crc32c;
use easyhps_runtime::remote::RemoteProblem;
use easyhps_stress::{KillPlan, StressConfig, StressPlan};

fn reference_crc(problem: &RemoteProblem) -> u32 {
    let m = problem.solve_sequential();
    let d = m.dims();
    crc32c(&m.encode_region(TileRegion::new(0, d.rows, 0, d.cols)))
}

/// `(seed, description under --mode dynamic, CRC of the sequential
/// reference matrix)` — the five seeds whose plans carry a link sever.
const PLANS: [(u64, &str, u32); 5] = [
    (
        0,
        concat!(
            "seed=0 mode=dynamic workload=swgg len=28 slaves=2\n",
            "  clause 0: link-chaos rank=0 drop=99pm dup=5pm delay=215pm delay-sends=3\n",
            "  clause 1: link-chaos rank=1 drop=14pm dup=78pm delay=16pm delay-sends=1\n",
            "  clause 2: link-chaos rank=2 drop=13pm dup=100pm delay=157pm delay-sends=1\n",
            "  clause 3: stall permille=52 millis=50\n",
            "  clause 4: bit-flip rank=1 pm=9\n",
            "  clause 5: link-sever rank=2 after-sends=110 down-ms=65\n",
        ),
        0x272acdc4,
    ),
    (
        8,
        concat!(
            "seed=8 mode=dynamic workload=swgg len=28 slaves=2\n",
            "  clause 0: link-chaos rank=1 drop=180pm dup=74pm delay=167pm delay-sends=1\n",
            "  clause 1: bit-flip rank=2 pm=15\n",
            "  clause 2: link-sever rank=1 after-sends=23 down-ms=230\n",
        ),
        0xfe9478ee,
    ),
    (
        15,
        concat!(
            "seed=15 mode=dynamic workload=nussinov len=31 slaves=2\n",
            "  clause 0: link-chaos rank=0 drop=142pm dup=45pm delay=87pm delay-sends=3\n",
            "  clause 1: link-chaos rank=1 drop=186pm dup=189pm delay=96pm delay-sends=2\n",
            "  clause 2: stall permille=94 millis=166\n",
            "  clause 3: bit-flip rank=1 pm=15\n",
            "  clause 4: link-sever rank=1 after-sends=67 down-ms=394\n",
        ),
        0xf0056eee,
    ),
    (
        25,
        concat!(
            "seed=25 mode=dynamic workload=nussinov len=33 slaves=2\n",
            "  clause 0: link-chaos rank=1 drop=89pm dup=167pm delay=214pm delay-sends=3\n",
            "  clause 1: stall permille=160 millis=279\n",
            "  clause 2: link-sever rank=2 after-sends=35 down-ms=52\n",
        ),
        0x08bc813b,
    ),
    (
        32,
        concat!(
            "seed=32 mode=dynamic workload=editdist len=32 slaves=3\n",
            "  clause 0: link-chaos rank=0 drop=188pm dup=217pm delay=191pm delay-sends=1\n",
            "  clause 1: link-chaos rank=1 drop=169pm dup=26pm delay=73pm delay-sends=1\n",
            "  clause 2: link-chaos rank=2 drop=160pm dup=177pm delay=145pm delay-sends=2\n",
            "  clause 3: link-chaos rank=3 drop=98pm dup=63pm delay=17pm delay-sends=3\n",
            "  clause 4: crash rank=2 after-sends=41\n",
            "  clause 5: link-sever rank=1 after-sends=116 down-ms=389\n",
        ),
        0x67df1690,
    ),
];

#[test]
fn seeded_plans_and_inputs_are_golden_in_every_mode() {
    for mode in [
        ScheduleMode::Dynamic,
        ScheduleMode::BlockCyclic { block: 1 },
        ScheduleMode::ColumnWavefront,
    ] {
        let cfg = StressConfig {
            mode,
            ..StressConfig::default()
        };
        for (seed, described, crc) in PLANS {
            let plan = StressPlan::from_seed(seed, &cfg);
            // The schedule does not depend on the mode; only its label does.
            let want = described.replace("mode=dynamic", &format!("mode={}", mode.name()));
            assert_eq!(plan.describe(), want, "seed {seed} under {}", mode.name());
            assert_eq!(
                reference_crc(&plan.problem().unwrap()),
                crc,
                "seed {seed}: input sequences moved"
            );
        }
    }
}

/// The two pin-only names keep the seed's schedule and draw their own
/// inputs from it.
#[test]
fn pinned_names_keep_the_schedule_and_their_inputs() {
    for (name, crc) in [("nw", 0x4cf2ec5f), ("lcs", 0x8bbbbb59)] {
        let cfg = StressConfig {
            workload: Some(name),
            ..StressConfig::default()
        };
        let plan = StressPlan::from_seed(8, &cfg);
        assert_eq!(
            plan.describe(),
            PLANS[1]
                .1
                .replace("workload=swgg", &format!("workload={name}"))
        );
        assert_eq!(reference_crc(&plan.problem().unwrap()), crc, "{name}");
    }
}

#[test]
fn kill_plans_are_golden() {
    // (slaves, workload, len, kill_after_sends, every_tiles, compact_after,
    //  chop_tail, bitflip)
    let golden = [
        (2, "swgg", 26, 87, 1, 4, Some(20), None),
        (3, "nussinov", 32, 46, 2, 2, Some(7), Some((1, 13))),
        (3, "editdist", 28, 31, 1, 4, Some(38), None),
        (2, "swgg", 28, 16, 1, 3, None, None),
        (3, "swgg", 27, 42, 3, 4, None, None),
    ];
    for (seed, want) in golden.into_iter().enumerate() {
        let k = KillPlan::from_seed(seed as u64);
        assert_eq!(
            (
                k.slaves,
                k.workload,
                k.len,
                k.kill_after_sends,
                k.every_tiles,
                k.compact_after,
                k.chop_tail,
                k.bitflip
            ),
            want,
            "kill seed {seed}"
        );
    }
}
