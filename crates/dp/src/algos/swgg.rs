//! Smith-Waterman with a *general* gap function (SWGG) — the paper's
//! primary workload and a 2D/1D recurrence.

use crate::alignment::LocalAlignment;
use crate::matrix::{DpGrid, DpMatrix};
use crate::problem::DpProblem;
use crate::scan;
use crate::scoring::{GapPenalty, Substitution};
use easyhps_core::patterns::RowColumn2D1D;
use easyhps_core::{DagPattern, GridDims, GridPos, TileRegion};
use std::sync::Arc;

/// Local alignment with an arbitrary gap penalty `w(k)`:
///
/// ```text
/// H[i,j] = max( 0,
///               H[i-1,j-1] + s(a_i, b_j),
///               max_{1<=k<=j} H[i,j-k] - w(k),
///               max_{1<=k<=i} H[i-k,j] - w(k) )
/// ```
///
/// Because `w` is not affine, each cell scans its whole row and column
/// prefix — `O(n)` work per cell, `O(n^3)` total — which is exactly why the
/// paper parallelizes it on a cluster. The data-communication level of the
/// pattern carries the row/column prefixes (see
/// [`RowColumn2D1D`]).
#[derive(Clone, Debug)]
pub struct SmithWatermanGeneralGap {
    a: Vec<u8>,
    b: Vec<u8>,
    substitution: Substitution,
    gap: GapPenalty,
}

impl SmithWatermanGeneralGap {
    /// Align `a` (rows) against `b` (columns).
    pub fn new(
        a: impl Into<Vec<u8>>,
        b: impl Into<Vec<u8>>,
        substitution: Substitution,
        gap: GapPenalty,
    ) -> Self {
        Self {
            a: a.into(),
            b: b.into(),
            substitution,
            gap,
        }
    }

    /// Convenience: DNA defaults (+2/-1) with the logarithmic gap
    /// `w(k) = 4 + 2*floor(log2 k)`.
    pub fn dna(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        Self::new(
            a,
            b,
            Substitution::dna_default(),
            GapPenalty::Logarithmic { a: 4, b: 2 },
        )
    }

    /// Best local alignment score in a computed matrix.
    pub fn best_score(&self, m: &DpMatrix<i32>) -> i32 {
        let d = m.dims();
        m.max_in_region_by_key(TileRegion::new(0, d.rows, 0, d.cols), |c| c)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    /// Reconstruct the best local alignment from a computed matrix.
    pub fn traceback(&self, m: &DpMatrix<i32>) -> LocalAlignment {
        let d = m.dims();
        let (end, score) = m
            .max_in_region_by_key(TileRegion::new(0, d.rows, 0, d.cols), |c| c)
            .expect("nonempty matrix");
        if score <= 0 {
            return LocalAlignment {
                score: 0,
                a_range: 0..0,
                b_range: 0..0,
                a_aligned: vec![],
                b_aligned: vec![],
            };
        }

        let (mut i, mut j) = (end.row, end.col);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        while i > 0 && j > 0 && m.get(i, j) > 0 {
            let cur = m.get(i, j);
            let s = self
                .substitution
                .score(self.a[i as usize - 1], self.b[j as usize - 1]);
            if m.get(i - 1, j - 1) + s == cur {
                ra.push(self.a[i as usize - 1]);
                rb.push(self.b[j as usize - 1]);
                i -= 1;
                j -= 1;
                continue;
            }
            let mut moved = false;
            // The `j -= k` below is followed by `break`; the captured range
            // bound is never re-read.
            #[allow(clippy::mut_range_bound)]
            for k in 1..=j {
                if m.get(i, j - k) - self.gap.cost(k) == cur {
                    for kk in 0..k {
                        ra.push(b'-');
                        rb.push(self.b[(j - kk) as usize - 1]);
                    }
                    j -= k;
                    moved = true;
                    break;
                }
            }
            if moved {
                continue;
            }
            #[allow(clippy::mut_range_bound)]
            for k in 1..=i {
                if m.get(i - k, j) - self.gap.cost(k) == cur {
                    for kk in 0..k {
                        ra.push(self.a[(i - kk) as usize - 1]);
                        rb.push(b'-');
                    }
                    i -= k;
                    moved = true;
                    break;
                }
            }
            assert!(
                moved,
                "traceback stuck at ({i},{j}): matrix inconsistent with scoring"
            );
        }
        ra.reverse();
        rb.reverse();
        LocalAlignment {
            score,
            a_range: i as usize..end.row as usize,
            b_range: j as usize..end.col as usize,
            a_aligned: ra,
            b_aligned: rb,
        }
    }
}

impl DpProblem for SmithWatermanGeneralGap {
    type Cell = i32;

    fn name(&self) -> String {
        "smith-waterman-general-gap".into()
    }

    fn dims(&self) -> GridDims {
        GridDims::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        Arc::new(RowColumn2D1D::new(self.dims()))
    }

    super::avx2_leaf!(fn compute_region for SmithWatermanGeneralGap => region_body);

    fn cell_work(&self, p: GridPos) -> u64 {
        // Row scan of length j, column scan of length i, plus O(1) terms.
        p.row as u64 + p.col as u64 + 1
    }

    fn region_work(&self, region: TileRegion) -> u64 {
        // Closed form of sum_{i,j in region} (i + j + 1).
        let rows = region.rows() as u64;
        let cols = region.cols() as u64;
        let sum_i = rows * (region.row_start as u64 + region.row_end as u64 - 1) / 2;
        let sum_j = cols * (region.col_start as u64 + region.col_end as u64 - 1) / 2;
        sum_i * cols + sum_j * rows + rows * cols
    }
}

impl SmithWatermanGeneralGap {
    /// The region kernel, compiled into each caller's instruction set.
    #[inline(always)]
    fn region_body<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        let (r0, r1, c0, c1) = (
            region.row_start,
            region.row_end,
            region.col_start,
            region.col_end,
        );
        if r0 >= r1 || c0 >= c1 {
            return;
        }
        let rows = r1 as usize;
        let w = (c1 - c0) as usize;
        // The gap cost is pure in k: tabulate it once per region instead of
        // re-evaluating inside every row/column scan. The table is stored
        // reversed (`wrev[max_k - k] = w(k)`), so a scan over the `len`
        // cells before the current one pairs them with the forward slice
        // `wrev[max_k - len..max_k]` and both operands walk forwards.
        let max_k = (r1.max(c1) - 1) as usize;
        let mut wrev = vec![0i32; max_k];
        for (k, wk) in wrev.iter_mut().rev().enumerate() {
            *wk = self.gap.cost(k as u32 + 1);
        }
        // rowbuf holds the current row over columns [0, c1): the prefix
        // [0, c0) comes from earlier tiles (one bulk read per row), the
        // region part is produced in place, so the row scan sweeps one
        // contiguous slice.
        let mut rowbuf = vec![0i32; c1 as usize];
        // cols holds, column-major, rows [0, i) of every region column —
        // the column scan's input. Rows above the region are loaded once.
        let mut cols = vec![0i32; w * rows];
        if r0 > 0 {
            let mut tmp = vec![0i32; w];
            for r in 0..r0 {
                m.read_row_into(r, c0, &mut tmp);
                for (idx, &v) in tmp.iter().enumerate() {
                    cols[idx * rows + r as usize] = v;
                }
            }
        }
        for i in r0..r1 {
            if c0 > 0 {
                m.read_row_into(i, 0, &mut rowbuf[..c0 as usize]);
            }
            for j in c0..c1 {
                let idx = (j - c0) as usize;
                let v = if i == 0 || j == 0 {
                    0
                } else {
                    let s = self
                        .substitution
                        .score(self.a[i as usize - 1], self.b[j as usize - 1]);
                    let diag = if j == c0 {
                        m.get(i - 1, j - 1)
                    } else {
                        cols[(idx - 1) * rows + i as usize - 1]
                    };
                    let mut best = 0.max(diag + s);
                    // max_{1<=k<=j} H[i, j-k] - w(k): the row prefix
                    // against the gap table (autovectorized).
                    let (j, i) = (j as usize, i as usize);
                    best = best.max(scan::sub_scan_max(&rowbuf[..j], &wrev[max_k - j..]));
                    // max_{1<=k<=i} H[i-k, j] - w(k): same over the column.
                    let col = &cols[idx * rows..idx * rows + i];
                    best = best.max(scan::sub_scan_max(col, &wrev[max_k - i..]));
                    best
                };
                rowbuf[j as usize] = v;
                cols[idx * rows + i as usize] = v;
            }
            m.write_row(i, c0, &rowbuf[c0 as usize..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{random_sequence, Alphabet};

    /// The recurrence written cell-at-a-time, as a reference for the
    /// slice-sweep kernel.
    fn reference_cell(p: &SmithWatermanGeneralGap, m: &DpMatrix<i32>, i: u32, j: u32) -> i32 {
        if i == 0 || j == 0 {
            return 0;
        }
        let s = p
            .substitution
            .score(p.a[i as usize - 1], p.b[j as usize - 1]);
        let mut best = 0.max(m.get(i - 1, j - 1) + s);
        for k in 1..=j {
            best = best.max(m.get(i, j - k) - p.gap.cost(k));
        }
        for k in 1..=i {
            best = best.max(m.get(i - k, j) - p.gap.cost(k));
        }
        best
    }

    #[test]
    fn sweep_kernel_matches_per_cell_reference() {
        let a = random_sequence(Alphabet::Dna, 21, 41);
        let b = random_sequence(Alphabet::Dna, 18, 42);
        let p = SmithWatermanGeneralGap::dna(a, b);
        let m = p.solve_sequential();
        let mut r = DpMatrix::new(p.dims());
        for i in 0..p.dims().rows {
            for j in 0..p.dims().cols {
                r.set(i, j, reference_cell(&p, &r, i, j));
            }
        }
        assert_eq!(m, r);
    }

    type Kernel = fn(&SmithWatermanGeneralGap, &mut DpMatrix<i32>, TileRegion);

    /// Every path this CPU can run, named for failure messages: the
    /// portable body called directly, and the dispatched entry (the AVX2
    /// twin on a CPU that has AVX2).
    fn paths() -> [(&'static str, Kernel); 2] {
        [
            ("portable", |p, m, r| p.region_body(m, r)),
            ("dispatched", |p, m, r| p.compute_region(m, r)),
        ]
    }

    #[test]
    fn every_path_agrees_on_ragged_regions() {
        use crate::algos::testing::{tile_rows, wavefront, SHAPES};
        let a = random_sequence(Alphabet::Dna, 70, 11);
        let b = random_sequence(Alphabet::Dna, 61, 12);
        let gaps = [
            GapPenalty::Linear { per_gap: 3 },
            GapPenalty::Affine { open: 5, extend: 1 },
            GapPenalty::Logarithmic { a: 4, b: 2 },
            // Not monotone in k, so a gap table read at the wrong offset
            // shows.
            GapPenalty::Custom(Arc::new(|k| 2 + (k % 5) as i32 * 3)),
        ];
        for gap in gaps {
            let p = SmithWatermanGeneralGap::new(
                a.clone(),
                b.clone(),
                Substitution::dna_default(),
                gap.clone(),
            );
            let d = p.dims();
            let mut want = DpMatrix::new(d);
            for i in 0..d.rows {
                for j in 0..d.cols {
                    want.set(i, j, reference_cell(&p, &want, i, j));
                }
            }
            for (name, kernel) in paths() {
                for (th, tw) in SHAPES {
                    let mut m = DpMatrix::new(d);
                    for region in wavefront(&tile_rows(d, th, tw)) {
                        kernel(&p, &mut m, region);
                    }
                    assert_eq!(m, want, "{name} {gap:?} tiles {th}x{tw}");
                }
            }
        }
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let p = SmithWatermanGeneralGap::dna(b"ACGTACGT".to_vec(), b"ACGTACGT".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.best_score(&m), 16); // 8 matches x 2
        let aln = p.traceback(&m);
        assert_eq!(aln.a_aligned, b"ACGTACGT");
        assert_eq!(aln.identity(), 1.0);
    }

    #[test]
    fn disjoint_sequences_score_small() {
        let p = SmithWatermanGeneralGap::dna(b"AAAA".to_vec(), b"CCCC".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.best_score(&m), 0);
        assert!(p.traceback(&m).is_empty());
    }

    #[test]
    fn gap_is_taken_when_cheaper() {
        // b has an insertion of 3 symbols; log gap (4 + 2*log2 3 = 6) beats
        // three mismatches only if the flanks are long enough to pay for it.
        let p = SmithWatermanGeneralGap::dna(b"ACGTACGTACGT".to_vec(), b"ACGTACTTTGTACGT".to_vec());
        let m = p.solve_sequential();
        let aln = p.traceback(&m);
        assert!(aln.score > 0);
        assert!(
            aln.a_aligned.contains(&b'-') || aln.b_aligned.contains(&b'-'),
            "expected a gap in {aln}"
        );
    }

    #[test]
    fn matrix_values_are_nonnegative() {
        let a = random_sequence(Alphabet::Dna, 40, 1);
        let b = random_sequence(Alphabet::Dna, 40, 2);
        let p = SmithWatermanGeneralGap::dna(a, b);
        let m = p.solve_sequential();
        assert!(m.as_slice().iter().all(|&v| v >= 0));
    }

    #[test]
    fn region_work_closed_form_matches_sum() {
        let p = SmithWatermanGeneralGap::dna(b"ACGT".repeat(8), b"TTGA".repeat(7));
        for region in [
            TileRegion::new(0, 5, 0, 5),
            TileRegion::new(3, 9, 10, 20),
            TileRegion::new(32, 33, 0, 29),
        ] {
            let by_sum: u64 = region.iter().map(|q| p.cell_work(q)).sum();
            assert_eq!(p.region_work(region), by_sum, "{region:?}");
        }
    }

    #[test]
    fn tiled_equals_sequential() {
        use easyhps_core::{DagParser, TaskDag};
        let a = random_sequence(Alphabet::Dna, 33, 5);
        let b = random_sequence(Alphabet::Dna, 29, 6);
        let p = SmithWatermanGeneralGap::dna(a, b);
        let seq = p.solve_sequential();

        let model = easyhps_core::DagDataDrivenModel::builder(p.pattern())
            .process_partition_size(GridDims::new(7, 5))
            .build();
        let dag: TaskDag = model.master_dag();
        let mut m = DpMatrix::new(p.dims());
        DagParser::drain_sequential(&dag, |v| {
            p.compute_region(&mut m, model.tile_region(dag.vertex(v).pos));
        });
        assert_eq!(m, seq);
    }
}
