//! What the master puts on the wire, counted exactly. An ASSIGN carries
//! only the input strips the receiving slave's node matrix lacks, so a
//! tile crosses to each slave at most once. These are counts, not
//! clocks: a fault-free in-process run sends one frame per ASSIGN and
//! per END, and nothing else, however loaded the host is.

use easyhps_core::{GridPos, TileRegion};
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{Cell, DpProblem, Nussinov, SmithWatermanGeneralGap};
use easyhps_net::frame::HEADER_LEN;
use easyhps_runtime::{AssignMsg, EasyHps, MasterStats};
use std::time::Duration;

/// Bytes a strip adds to an ASSIGN besides its cells: its region and the
/// length prefix of its cells.
const STRIP_OVERHEAD: u64 = 20;

/// The size of an ASSIGN frame that carries no strip.
fn bare_assign_frame() -> u64 {
    let msg = AssignMsg {
        task: 0,
        epoch: 0,
        tile: GridPos::new(0, 0),
        region: TileRegion::new(0, 0, 0, 0),
        inputs: Vec::new(),
    };
    (HEADER_LEN + msg.encode().len()) as u64
}

/// What one fault-free run cost: the master's counters, the tile count
/// and the wire size of the cells the tiles cover.
struct Counted {
    master: MasterStats,
    tiles: u64,
    cell_bytes: u64,
}

/// Run `problem` in-process with `slaves` single-threaded slaves and
/// `pp`-square tiles, check the matrix against the sequential solve, and
/// return the master's counts. The heartbeat timeout is far beyond the
/// run, so no slave is ever excluded and probed.
fn run_counted<P: DpProblem + Clone>(problem: P, slaves: usize, pp: u32) -> Counted {
    let reference = problem.solve_sequential();
    let pattern = problem.pattern();
    let hps = EasyHps::new(problem)
        .process_partition((pp, pp))
        .thread_partition((pp, pp))
        .slaves(slaves)
        .threads_per_slave(1)
        .heartbeat(Duration::from_millis(25), Duration::from_secs(600));
    let model = hps.model();
    let dag = model.master_dag();
    let cells: u64 = dag
        .topological_order()
        .unwrap()
        .into_iter()
        .map(|v| model.tile_region(dag.vertex(v).pos).area())
        .sum();
    let out = hps.run().expect("fault-free run succeeds");
    for p in reference.dims().iter() {
        if pattern.contains(p) {
            assert_eq!(out.matrix.at(p), reference.at(p), "cell {p}");
        }
    }
    let master = out.report.master;
    let tiles = dag.len() as u64;
    assert_eq!(master.dispatched, tiles, "one dispatch per tile");
    assert_eq!(master.redispatched, 0);
    assert_eq!(master.retransmits, 0);
    assert_eq!(
        master.msgs_sent,
        tiles + slaves as u64,
        "one ASSIGN per tile and one END per slave"
    );
    Counted {
        master,
        tiles,
        cell_bytes: cells * P::Cell::WIRE_SIZE as u64,
    }
}

fn swgg() -> SmithWatermanGeneralGap {
    SmithWatermanGeneralGap::dna(
        random_sequence(Alphabet::Dna, 46, 31),
        random_sequence(Alphabet::Dna, 41, 32),
    )
}

fn nussinov() -> Nussinov {
    Nussinov::new(random_sequence(Alphabet::Rna, 58, 33))
}

/// One slave computes every tile itself, so every input is resident when
/// its reader is dispatched: no ASSIGN carries a strip.
fn assert_one_slave_ships_no_strip(c: &Counted) {
    let want = c.tiles * bare_assign_frame() + HEADER_LEN as u64;
    assert_eq!(
        c.master.bytes_sent, want,
        "{} tiles: every ASSIGN bare plus one END",
        c.tiles
    );
}

/// Two slaves: a tile crosses at most once, to the slave that did not
/// compute it, so strip cells add up to at most one copy of the matrix.
fn assert_two_slaves_ship_each_tile_once(c: &Counted) {
    let frames = c.tiles * bare_assign_frame() + 2 * HEADER_LEN as u64;
    let strips = c.tiles * STRIP_OVERHEAD + c.cell_bytes;
    assert!(
        c.master.bytes_sent <= frames + strips,
        "{} bytes sent for {} tiles over {} cell bytes; at most {} with one copy per slave",
        c.master.bytes_sent,
        c.tiles,
        c.cell_bytes,
        frames + strips
    );
}

#[test]
fn swgg_on_one_slave_ships_no_strip() {
    assert_one_slave_ships_no_strip(&run_counted(swgg(), 1, 8));
}

#[test]
fn nussinov_on_one_slave_ships_no_strip() {
    assert_one_slave_ships_no_strip(&run_counted(nussinov(), 1, 8));
}

#[test]
fn swgg_on_two_slaves_ships_each_tile_at_most_once() {
    assert_two_slaves_ship_each_tile_once(&run_counted(swgg(), 2, 8));
}

#[test]
fn nussinov_on_two_slaves_ships_each_tile_at_most_once() {
    assert_two_slaves_ship_each_tile_once(&run_counted(nussinov(), 2, 8));
}
