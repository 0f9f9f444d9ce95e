//! Bit-parallel Myers kernel for unit-cost edit distance.
//!
//! Myers' algorithm (in Hyyrö's block formulation) carries the *vertical
//! deltas* of one matrix column in two machine words — `PV` bit `k` set
//! when `D[i+k, j] - D[i+k-1, j] = +1`, `MV` when it is `-1` — and
//! advances a whole 64-row block per text character with a dozen word
//! operations. It applies because unit-cost edit distance guarantees
//! every adjacent-cell delta lies in `{-1, 0, +1}`, which also makes
//! *tile-boundary* initialization sound: an interior tile seeds `PV`/`MV`
//! from the actual deltas of its left-boundary column and feeds each
//! column's horizontal input delta `hin` from the row above, so the
//! kernel is bit-identical to the per-cell recurrence on any
//! [`TileRegion`], not just the full matrix.
//!
//! Long sequences use the block-wise variant: rows are processed in
//! stripes of 64, each stripe sweeping all columns with its own `Peq`
//! match-vector table; the stripe's last emitted row is the next
//! stripe's top boundary. Cell values (the runtime ships full tiles, so
//! every cell must be materialized) come from a running prefix sum of
//! the `PV`/`MV` bits — a handful of straight-line integer ops per cell
//! with no `min`-chain data dependency, which is where the speedup over
//! the slice sweep comes from.

use crate::matrix::DpGrid;
use easyhps_core::TileRegion;

/// Rows per stripe: one matrix cell per bit of a `u64`.
const WORD_ROWS: u32 = 64;

/// Advance one (possibly partial) 64-row block by one column.
///
/// `eq` holds the match bits of the text character against the stripe's
/// pattern slice, `hin ∈ {-1, 0, +1}` is the horizontal delta entering
/// the block from above. Returns the new `(PV, MV)`. For stripes shorter
/// than 64 rows the bits at and above the stripe length are garbage, but
/// carries and shifts only move information upward, so the live low bits
/// stay exact.
#[inline(always)]
fn advance(eq: u64, pv: u64, mv: u64, hin: i32) -> (u64, u64) {
    let hin_neg = (hin < 0) as u64;
    let xv = eq | mv;
    let eq = eq | hin_neg;
    let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
    let mut ph = mv | !(xh | pv);
    let mut mh = pv & xh;
    ph <<= 1;
    mh <<= 1;
    mh |= hin_neg;
    ph |= (hin > 0) as u64;
    (mh | !(xv | ph), ph & xv)
}

/// Fill `region` of the edit-distance matrix of `a` (rows) vs `b`
/// (columns). Same contract as the scalar slice sweep: boundary cells
/// outside the region are read from the grid (or the `D[0,j] = j`,
/// `D[i,0] = i` formulas), cells inside are written.
pub(crate) fn compute_region<G: DpGrid<i32>>(a: &[u8], b: &[u8], m: &mut G, region: TileRegion) {
    let (r0, r1, c0, c1) = (
        region.row_start,
        region.row_end,
        region.col_start,
        region.col_end,
    );
    if r0 >= r1 || c0 >= c1 {
        return;
    }
    if r0 == 0 {
        // Boundary row: D[0, j] = j.
        let row0: Vec<i32> = (c0..c1).map(|j| j as i32).collect();
        m.write_row(0, c0, &row0);
    }
    let ri0 = r0.max(1);
    if ri0 >= r1 {
        return;
    }
    let ci0 = c0.max(1);
    // `off` is 1 when the region includes boundary column 0 (D[i,0] = i),
    // which the stripes emit alongside the bit-parallel columns.
    let off = (c0 < ci0) as usize;
    let width_out = (c1 - c0) as usize;
    if ci0 >= c1 {
        // Column-0-only region.
        for i in ri0..r1 {
            m.write_row(i, 0, &[i as i32]);
        }
        return;
    }
    let lb = ci0 - 1; // column feeding PV/MV initialization
    let w = (c1 - ci0) as usize;

    // Top boundary row `ri0 - 1` over columns [lb, c1): the formula row 0
    // or a row finished by the tile above.
    let mut trow = vec![0i32; w + 1];
    if r0 == 0 {
        for (x, v) in trow.iter_mut().enumerate() {
            *v = (lb as usize + x) as i32;
        }
    } else {
        m.read_row_into(ri0 - 1, lb, &mut trow);
    }

    let mut peq = [0u64; 256];
    let mut leftvals = vec![0i32; WORD_ROWS as usize + 1];
    // Per-column PV/MV snapshots of the current stripe, consumed by the
    // row-major emission pass below.
    let mut pvs = vec![0u64; w];
    let mut mvs = vec![0u64; w];
    let mut rowbuf = vec![0i32; width_out];
    let mut s0 = ri0;
    while s0 < r1 {
        let len = (r1 - s0).min(WORD_ROWS) as usize;
        // Left-boundary values D[s0-1 .. s0+len-1, lb].
        if lb == 0 {
            for (k, v) in leftvals[..=len].iter_mut().enumerate() {
                *v = (s0 as usize - 1 + k) as i32;
            }
        } else {
            for (k, v) in leftvals[..=len].iter_mut().enumerate() {
                *v = m.get(s0 - 1 + k as u32, lb);
            }
        }
        trow[0] = leftvals[0];
        // PV/MV from the left-boundary column's vertical deltas.
        let (mut pv, mut mv) = (0u64, 0u64);
        for k in 0..len {
            let d = leftvals[k + 1] - leftvals[k];
            pv |= ((d > 0) as u64) << k;
            mv |= ((d < 0) as u64) << k;
        }
        // Match vectors for the stripe's slice of `a`.
        peq.fill(0);
        for k in 0..len {
            peq[a[s0 as usize - 1 + k] as usize] |= 1u64 << k;
        }
        // Pass 1: advance the whole stripe column by column, keeping each
        // column's final delta words.
        for jj in 0..w {
            let j = ci0 + jj as u32;
            let eq = peq[b[j as usize - 1] as usize];
            let hin = trow[jj + 1] - trow[jj];
            (pv, mv) = advance(eq, pv, mv, hin);
            pvs[jj] = pv;
            mvs[jj] = mv;
        }
        // Pass 2: emit row-major. Each row updates in place from the row
        // above it — independent lanes per column, no serial prefix-sum
        // chain, sequential stores — which is what lets LLVM vectorize
        // the bit extraction.
        rowbuf[off..].copy_from_slice(&trow[1..]);
        for k in 0..len {
            let row = &mut rowbuf[off..];
            for (jj, cell) in row.iter_mut().enumerate() {
                *cell += (((pvs[jj] >> k) & 1) as i32) - (((mvs[jj] >> k) & 1) as i32);
            }
            if off == 1 {
                rowbuf[0] = (s0 as usize + k) as i32;
            }
            m.write_row(s0 + k as u32, c0, &rowbuf);
        }
        // The stripe's last row is the next stripe's top boundary (its
        // column-lb value is refreshed from `leftvals` next iteration).
        trow[1..].copy_from_slice(&rowbuf[off..]);
        s0 += len as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DpMatrix;
    use crate::sequence::{random_sequence, Alphabet};
    use easyhps_core::GridDims;

    /// Per-cell reference over the full matrix.
    fn reference(a: &[u8], b: &[u8]) -> DpMatrix<i32> {
        let dims = GridDims::new(a.len() as u32 + 1, b.len() as u32 + 1);
        let mut m = DpMatrix::<i32>::new(dims);
        for i in 0..dims.rows {
            for j in 0..dims.cols {
                let v = if i == 0 {
                    j as i32
                } else if j == 0 {
                    i as i32
                } else {
                    let sub = (a[i as usize - 1] != b[j as usize - 1]) as i32;
                    (m.get(i - 1, j) + 1)
                        .min(m.get(i, j - 1) + 1)
                        .min(m.get(i - 1, j - 1) + sub)
                };
                m.set(i, j, v);
            }
        }
        m
    }

    #[test]
    fn full_matrix_matches_reference_across_word_boundaries() {
        // Lengths straddling one and two 64-row stripes, plus tiny ones.
        for (la, lb, seed) in [
            (1, 1, 1),
            (5, 9, 2),
            (63, 70, 3),
            (64, 64, 4),
            (65, 63, 5),
            (130, 140, 6),
        ] {
            let a = random_sequence(Alphabet::Dna, la, seed);
            let b = random_sequence(Alphabet::Dna, lb, seed + 100);
            let dims = GridDims::new(la as u32 + 1, lb as u32 + 1);
            let mut m = DpMatrix::new(dims);
            compute_region(&a, &b, &mut m, TileRegion::new(0, dims.rows, 0, dims.cols));
            assert_eq!(m, reference(&a, &b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn ragged_tiles_match_reference() {
        use crate::algos::testing::{tile_rows, wavefront, SHAPES};
        let a = random_sequence(Alphabet::Dna, 90, 7);
        let b = random_sequence(Alphabet::Dna, 75, 8);
        let reference = reference(&a, &b);
        let dims = reference.dims();
        // Tile the matrix with deliberately awkward tile shapes — single
        // rows, single columns, sub-word strips, tiles of one and two
        // 64-row stripes — in wavefront order.
        let more = [(3, 70), (70, 3), (17, 13), (64, 64), (100, 1)];
        for (th, tw) in SHAPES.into_iter().chain(more) {
            let mut m = DpMatrix::new(dims);
            for region in wavefront(&tile_rows(dims, th, tw)) {
                compute_region(&a, &b, &mut m, region);
            }
            assert_eq!(m, reference, "tile {th}x{tw}");
        }
    }
}
