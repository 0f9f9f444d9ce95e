//! Anti-diagonal SIMD kernels for the 2D/0D wavefront recurrences.
//!
//! Cells on one anti-diagonal `i + j = d` are mutually independent, so
//! the inner loop vectorizes: the three neighbour diagonals live in
//! contiguous buffers indexed by row, the `a` characters stream forward,
//! and a reversed copy of the `b` slice makes the column characters
//! stream forward too. Each finished diagonal is scattered into a
//! row-major tile buffer (strided stores, L1-resident for runtime-sized
//! tiles) which is then bulk-written row by row.
//!
//! Only the `Simple` substitution vectorizes (compare + select); `Table`
//! lookups stay on the scalar slice sweep. Results are bit-identical to
//! the sweep: the recurrences use only `max`/`add` over `i32`, whose
//! value is independent of evaluation order.

use crate::matrix::DpGrid;
use easyhps_core::TileRegion;

/// One wavefront recurrence: boundary formulas plus the cell rule,
/// split into a byte-compare *score* pass and a pure-`i32` *cell* pass.
/// The split matters for vectorization: a fused body mixes 8-bit
/// compares with 32-bit arithmetic, which LLVM's cost model refuses to
/// vectorize for the wider rules, while each half alone is a clean
/// element-wise map.
pub(crate) trait AdiagRule {
    /// Value of boundary row 0 at column `j`.
    fn top(&self, j: u32) -> i32;
    /// Value of boundary column 0 at row `i`.
    fn left(&self, i: u32) -> i32;
    /// Score contribution of one character pair.
    fn score(&self, ac: u8, bc: u8) -> i32;
    /// The recurrence for `i, j > 0` from the three neighbours and the
    /// pair score. Must compile to compare/select, `max` and adds.
    fn cell(&self, diag: i32, up: i32, left: i32, score: i32) -> i32;
}

/// Needleman-Wunsch with `Simple` substitution and a linear gap.
pub(crate) struct NwRule {
    pub match_score: i32,
    pub mismatch: i32,
    pub gap: i32,
}

impl AdiagRule for NwRule {
    #[inline(always)]
    fn top(&self, j: u32) -> i32 {
        -(j as i32) * self.gap
    }

    #[inline(always)]
    fn left(&self, i: u32) -> i32 {
        -(i as i32) * self.gap
    }

    #[inline(always)]
    fn score(&self, ac: u8, bc: u8) -> i32 {
        if ac == bc {
            self.match_score
        } else {
            self.mismatch
        }
    }

    #[inline(always)]
    fn cell(&self, diag: i32, up: i32, left: i32, score: i32) -> i32 {
        (diag + score).max(up.max(left) - self.gap)
    }
}

/// Longest common subsequence.
pub(crate) struct LcsRule;

impl AdiagRule for LcsRule {
    #[inline(always)]
    fn top(&self, _j: u32) -> i32 {
        0
    }

    #[inline(always)]
    fn left(&self, _i: u32) -> i32 {
        0
    }

    #[inline(always)]
    fn score(&self, ac: u8, bc: u8) -> i32 {
        (ac == bc) as i32
    }

    #[inline(always)]
    fn cell(&self, diag: i32, up: i32, left: i32, score: i32) -> i32 {
        if score != 0 {
            diag + 1
        } else {
            up.max(left)
        }
    }
}

/// Fill `region` of the wavefront matrix of `a` (rows) vs `b` (columns)
/// in anti-diagonal order. Same boundary contract as the row sweep.
pub(crate) fn sweep<G: DpGrid<i32>, R: AdiagRule>(
    m: &mut G,
    region: TileRegion,
    a: &[u8],
    b: &[u8],
    rule: &R,
) {
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
        let row0: Vec<i32> = (c0..c1).map(|j| rule.top(j)).collect();
        m.write_row(0, c0, &row0);
    }
    let ri0 = r0.max(1);
    if ri0 >= r1 {
        return;
    }
    let ci0 = c0.max(1);
    let off = (c0 < ci0) as usize;
    let width_out = (c1 - c0) as usize;
    if ci0 >= c1 {
        for i in ri0..r1 {
            m.write_row(i, 0, &[rule.left(i)]);
        }
        return;
    }
    let h = (r1 - ri0) as usize;
    let w = (c1 - ci0) as usize;

    // Characters for rows ri0..r1 forward, columns c1-1..ci0 reversed, so
    // both stream forward along a diagonal.
    let arow = &a[ri0 as usize - 1..r1 as usize - 1];
    let brev: Vec<u8> = b[ci0 as usize - 1..c1 as usize - 1]
        .iter()
        .rev()
        .copied()
        .collect();

    // Halo: top boundary row over local columns 0..=w, left boundary
    // column over local rows 0..=h (local (k, l) is matrix
    // (ri0-1+k, ci0-1+l)).
    let mut toprow = vec![0i32; w + 1];
    if r0 == 0 {
        for (x, v) in toprow.iter_mut().enumerate() {
            *v = rule.top(ci0 - 1 + x as u32);
        }
    } else {
        m.read_row_into(ri0 - 1, ci0 - 1, &mut toprow);
    }
    let mut leftcol = vec![0i32; h + 1];
    leftcol[0] = toprow[0];
    if ci0 == 1 {
        for (k, v) in leftcol.iter_mut().enumerate().skip(1) {
            *v = rule.left(ri0 - 1 + k as u32);
        }
    } else {
        for (k, v) in leftcol.iter_mut().enumerate().skip(1) {
            *v = m.get(ri0 - 1 + k as u32, ci0 - 1);
        }
    }

    // Three rolling diagonals, indexed by local row k, plus the row-major
    // output tile.
    let mut prev2 = vec![0i32; h + 1];
    let mut prev1 = vec![0i32; h + 1];
    let mut cur = vec![0i32; h + 1];
    let mut scores = vec![0i32; h.min(w)];
    prev1[0] = toprow[0]; // diagonal d = 0 is the single corner cell
    let mut out = vec![0i32; h * width_out];
    if off == 1 {
        for k in 1..=h {
            out[(k - 1) * width_out] = rule.left(ri0 - 1 + k as u32);
        }
    }
    for d in 1..=(h + w) {
        if d <= w {
            cur[0] = toprow[d];
        }
        if d <= h {
            cur[d] = leftcol[d];
        }
        let klo = 1.max(d as isize - w as isize) as usize;
        let khi = h.min(d - 1);
        // Bind the input streams as contiguous slices so each pass is a
        // pure element-wise map — the shape LLVM's loop vectorizer turns
        // into compare/blend/max vector code.
        if klo <= khi {
            let span = khi + 1 - klo;
            let ac = &arow[klo - 1..klo - 1 + span];
            let bc = &brev[w + klo - d..w + klo - d + span];
            let sc = &mut scores[..span];
            for t in 0..span {
                sc[t] = rule.score(ac[t], bc[t]);
            }
            let diag = &prev2[klo - 1..klo - 1 + span];
            let up = &prev1[klo - 1..klo - 1 + span];
            let lf = &prev1[klo..klo + span];
            let dst = &mut cur[klo..klo + span];
            for t in 0..span {
                dst[t] = rule.cell(diag[t], up[t], lf[t], sc[t]);
            }
        }
        // Scatter the finished span (halo cells excluded: k = 0 is the
        // boundary row, l = 0 the boundary column) into the tile.
        for k in klo..=khi {
            out[(k - 1) * width_out + off + (d - k - 1)] = cur[k];
        }
        std::mem::swap(&mut prev2, &mut prev1);
        std::mem::swap(&mut prev1, &mut cur);
    }
    for k in 1..=h {
        m.write_row(
            ri0 - 1 + k as u32,
            c0,
            &out[(k - 1) * width_out..k * width_out],
        );
    }
}
