//! Property-based tests for the runtime: the shared grid's concurrent
//! slice access (disjoint row-band writers hammering `TaskView::write_row`
//! from many threads must produce exactly the matrix a sequential fill
//! would), plus decoder robustness — every truncation of a protocol
//! message must fail with a clean `WireError`, never a panic or a
//! hostile-length allocation. The same properties for checkpoint segment
//! files are unit tests of the runtime's `durable` module.

use easyhps_core::{GridDims, GridPos, TileRegion};
use easyhps_dp::DpGrid;
use easyhps_runtime::{AssignMsg, DoneMsg, SharedGrid, SlaveStatsMsg};
use proptest::prelude::*;

/// The value every writer stores at `(row, col)` — distinct per cell so a
/// misdirected write is always visible.
fn expected(row: u32, col: u32, salt: i64) -> i64 {
    ((row as i64) << 32) ^ (col as i64) ^ salt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N threads, each owning a disjoint band of rows, write their band
    /// through bulk `write_row` (in several chunks per row), re-read it
    /// through `row_slice`, and the collected matrix is exact.
    #[test]
    fn disjoint_row_slice_writers_are_exact(
        rows in 1u32..60, cols in 1u32..60,
        writers in 1usize..8, chunk in 1u32..17,
        salt in 0i64..1000,
    ) {
        let dims = GridDims::new(rows, cols);
        let mut grid = SharedGrid::<i64>::new(dims);
        let writers = writers.min(rows as usize);
        let band = rows.div_ceil(writers as u32);
        std::thread::scope(|scope| {
            for w in 0..writers as u32 {
                let r0 = w * band;
                let r1 = ((w + 1) * band).min(rows);
                if r0 >= r1 {
                    continue;
                }
                let region = TileRegion::new(r0, r1, 0, cols);
                // SAFETY: the bands [r0, r1) partition the row range, so
                // no two views overlap — the same disjointness the DAG
                // scheduler guarantees for concurrent sub-tasks.
                let mut view = unsafe { grid.task_view(region) };
                scope.spawn(move || {
                    let mut buf = vec![0i64; chunk as usize];
                    for row in r0..r1 {
                        let mut c = 0;
                        while c < cols {
                            let end = (c + chunk).min(cols);
                            let n = (end - c) as usize;
                            for (k, slot) in buf[..n].iter_mut().enumerate() {
                                *slot = expected(row, c + k as u32, salt);
                            }
                            view.write_row(row, c, &buf[..n]);
                            c = end;
                        }
                        // Re-read through the bulk accessor: a writer must
                        // observe its own finalized row.
                        let got = view.row_slice(row, 0, cols).expect("own row is contiguous");
                        for (k, &v) in got.iter().enumerate() {
                            assert_eq!(v, expected(row, k as u32, salt), "row {row} col {k}");
                        }
                    }
                });
            }
        });
        let m = grid.to_matrix();
        for p in dims.iter() {
            prop_assert_eq!(m.at(p), expected(p.row, p.col, salt), "cell {}", p);
        }
    }
}

/// An ASSIGN's fields, its input cells owned: `(task, epoch, tile,
/// [(strip corner, cells)])`. [`assign_of`] borrows an `AssignMsg` of it.
type AssignParts = (u32, u64, (u32, u32), Vec<((u32, u32), Vec<u8>)>);

fn arb_assign() -> impl Strategy<Value = AssignParts> {
    (
        any::<u32>(),
        any::<u64>(),
        (0u32..100, 0u32..100),
        proptest::collection::vec(
            (
                (0u32..50, 0u32..50),
                proptest::collection::vec(any::<u8>(), 0..60),
            ),
            0..4,
        ),
    )
}

fn assign_of(&(task, epoch, (tr, tc), ref inputs): &AssignParts) -> AssignMsg<'_> {
    AssignMsg {
        task,
        epoch,
        tile: GridPos::new(tr, tc),
        region: TileRegion::new(tr, tr + 2, tc, tc + 2),
        inputs: inputs
            .iter()
            .map(|&((r, c), ref bytes)| (TileRegion::new(r, r + 1, c, c + 1), &bytes[..]))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every byte-length prefix of a wire message fails decode cleanly:
    /// no panic, no hostile-length allocation, no silent part-read (the
    /// full message is the only prefix that parses).
    #[test]
    fn every_assign_prefix_fails_cleanly(parts in arb_assign()) {
        let msg = assign_of(&parts);
        let buf = msg.encode();
        prop_assert_eq!(&AssignMsg::decode(&buf).unwrap(), &msg);
        for cut in 0..buf.len() {
            prop_assert!(AssignMsg::decode(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn every_done_prefix_fails_cleanly(
        task in any::<u32>(),
        epoch in any::<u64>(),
        output in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let msg = DoneMsg { task, epoch, region: TileRegion::new(0, 2, 0, 2), output: &output };
        let buf = msg.encode();
        prop_assert_eq!(&DoneMsg::decode(&buf).unwrap(), &msg);
        for cut in 0..buf.len() {
            prop_assert!(DoneMsg::decode(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn every_stats_prefix_fails_cleanly(vals in proptest::collection::vec(any::<u64>(), 5)) {
        let msg = SlaveStatsMsg {
            tasks_done: vals[0],
            subtasks_done: vals[1],
            busy_ns: vals[2],
            thread_failures: vals[3],
            threads_spawned: vals[4],
        };
        let buf = msg.encode();
        prop_assert_eq!(SlaveStatsMsg::decode(&buf).unwrap(), msg);
        for cut in 0..buf.len() {
            prop_assert!(SlaveStatsMsg::decode(&buf[..cut]).is_err(), "prefix {cut}");
        }
    }

    /// Arbitrary bytes through every decoder: errors are fine, panics and
    /// runaway allocations are not.
    #[test]
    fn random_bytes_never_panic_any_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = AssignMsg::decode(&data);
        let _ = DoneMsg::decode(&data);
        let _ = SlaveStatsMsg::decode(&data);
    }
}

/// Regression for the pre-allocation guard: an ASSIGN header claiming
/// `u32::MAX` inputs must be rejected before the allocation it sizes.
#[test]
fn assign_hostile_input_count_is_rejected() {
    use easyhps_net::WireWriter;
    let mut w = WireWriter::new();
    w.put_u32(7); // task
    w.put_u64(1); // epoch
    w.put_u32(0).put_u32(0); // tile
    w.put_u32(0).put_u32(2).put_u32(0).put_u32(2); // region
    w.put_u32(u32::MAX); // input count
    let err = AssignMsg::decode(&w.finish()).expect_err("hostile count");
    assert!(err.to_string().contains("input count"), "{err}");
}
