//! Nussinov RNA secondary-structure prediction — triangular 2D/1D.

use crate::matrix::{DpGrid, DpMatrix};
use crate::problem::DpProblem;
use crate::sequence::rna_pairs;
use easyhps_core::patterns::TriangularGap;
use easyhps_core::{DagPattern, GridDims, GridPos, TileRegion};
use std::sync::Arc;

/// Nussinov's maximum base-pairing recurrence over the upper triangle
/// (`0 <= i <= j < n`):
///
/// ```text
/// F[i,j] = max( F[i+1,j],
///               F[i,j-1],
///               F[i+1,j-1] + pair(i,j)        if j - i > min_loop
///               max_{i<k<j} F[i,k] + F[k+1,j] )
/// ```
///
/// The bifurcation scan makes each cell `O(j - i)` — the same 2D/1D class
/// as SWGG but over a triangle, so the work per anti-diagonal grows toward
/// the upper-right corner. This skew is what defeats static block-cyclic
/// scheduling in the paper's Fig. 17.
#[derive(Clone, Debug)]
pub struct Nussinov {
    seq: Vec<u8>,
    /// Minimum unpaired loop length between a pair (`j - i > min_loop`);
    /// the classic algorithm uses 1 (no sharp hairpins).
    min_loop: u32,
}

impl Nussinov {
    /// Fold `seq` with the default minimum loop length of 1.
    pub fn new(seq: impl Into<Vec<u8>>) -> Self {
        Self {
            seq: seq.into(),
            min_loop: 1,
        }
    }

    /// Fold with a custom minimum loop length.
    pub fn with_min_loop(seq: impl Into<Vec<u8>>, min_loop: u32) -> Self {
        Self {
            seq: seq.into(),
            min_loop,
        }
    }

    /// The sequence being folded.
    pub fn sequence(&self) -> &[u8] {
        &self.seq
    }

    fn n(&self) -> u32 {
        self.seq.len() as u32
    }

    /// Maximum number of base pairs, read from a computed matrix.
    pub fn max_pairs(&self, m: &DpMatrix<i32>) -> i32 {
        if self.seq.is_empty() {
            return 0;
        }
        m.get(0, self.n() - 1)
    }

    /// Reconstruct one optimal set of base pairs `(i, j)` from a computed
    /// matrix.
    pub fn traceback(&self, m: &DpMatrix<i32>) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        if self.seq.is_empty() {
            return pairs;
        }
        let mut stack = vec![(0u32, self.n() - 1)];
        while let Some((i, j)) = stack.pop() {
            if j <= i {
                continue;
            }
            let cur = m.get(i, j);
            if cur == 0 {
                continue;
            }
            if m.get(i + 1, j) == cur {
                stack.push((i + 1, j));
            } else if m.get(i, j - 1) == cur {
                stack.push((i, j - 1));
            } else if j - i > self.min_loop
                && rna_pairs(self.seq[i as usize], self.seq[j as usize])
                && m.get(i + 1, j - 1) + 1 == cur
            {
                pairs.push((i, j));
                stack.push((i + 1, j - 1));
            } else {
                let mut found = false;
                for k in (i + 1)..j {
                    if m.get(i, k) + m.get(k + 1, j) == cur {
                        stack.push((i, k));
                        stack.push((k + 1, j));
                        found = true;
                        break;
                    }
                }
                assert!(found, "traceback stuck at ({i},{j})");
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Dot-bracket string of a pair set.
    pub fn dot_bracket(&self, pairs: &[(u32, u32)]) -> String {
        let mut s = vec![b'.'; self.seq.len()];
        for &(i, j) in pairs {
            s[i as usize] = b'(';
            s[j as usize] = b')';
        }
        String::from_utf8(s).expect("ASCII")
    }
}

impl DpProblem for Nussinov {
    type Cell = i32;

    fn name(&self) -> String {
        "nussinov".into()
    }

    fn dims(&self) -> GridDims {
        GridDims::square(self.n())
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        Arc::new(TriangularGap::new(self.n()))
    }

    fn compute_region<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        self.compute_region_recursive(m, region, RECURSE_BASE);
    }

    fn cell_work(&self, p: GridPos) -> u64 {
        if p.col < p.row {
            0
        } else {
            (p.col - p.row) as u64 + 1
        }
    }
}

/// Base-case edge length of the cache-oblivious recursion: regions no
/// larger than this on either side run the iterative kernel directly.
/// A 256-cell side keeps the iterative kernel's scan buffers inside L2;
/// smaller bases trade too much per-leaf setup (buffer allocation,
/// column gathers along quadrant seams) for locality the caches already
/// provide.
const RECURSE_BASE: u32 = 256;

impl Nussinov {
    /// Cache-oblivious recursive tiling: halve any side larger than
    /// `base` and visit the quadrants in dependency order — bottom-left
    /// first (it feeds both neighbours), then top-left and bottom-right
    /// (independent of each other), then top-right, which consumes row
    /// prefixes from the top-left and column suffixes from the
    /// bottom-right. Leaves run the iterative slice kernel, so every
    /// scan walks buffers sized to the base case regardless of how big
    /// the outer region is. Exposed with a tunable `base` for tests and
    /// benches; [`DpProblem::compute_region`] fixes it at
    /// [`RECURSE_BASE`].
    #[doc(hidden)]
    pub fn compute_region_recursive<G: DpGrid<i32>>(
        &self,
        m: &mut G,
        region: TileRegion,
        base: u32,
    ) {
        let (r0, r1, c0, c1) = (
            region.row_start,
            region.row_end,
            region.col_start,
            region.col_end,
        );
        if r0 >= r1 || c0 >= c1 || c1 <= r0 {
            return;
        }
        let (rows, cols) = (r1 - r0, c1 - c0);
        if rows <= base && cols <= base {
            self.compute_region_iterative(m, region);
            return;
        }
        let rm = if rows > base { r0 + rows / 2 } else { r1 };
        let cm = if cols > base { c0 + cols / 2 } else { c1 };
        self.compute_region_recursive(m, TileRegion::new(rm, r1, c0, cm), base);
        self.compute_region_recursive(m, TileRegion::new(r0, rm, c0, cm), base);
        self.compute_region_recursive(m, TileRegion::new(rm, r1, cm, c1), base);
        self.compute_region_recursive(m, TileRegion::new(r0, rm, cm, c1), base);
    }

    /// The iterative slice kernel (the recursion's base case): bottom-up
    /// rows, left-to-right columns — inside the region, (i+1, *) is done
    /// before row i, and (i, j-1) before (i, j).
    #[doc(hidden)]
    pub fn compute_region_iterative<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        let (r0, r1, c0, c1) = (
            region.row_start,
            region.row_end,
            region.col_start,
            region.col_end,
        );
        if r0 >= r1 || c0 >= c1 || c1 <= r0 {
            // (c1 <= r0: the region lies entirely in the untouched lower
            // triangle.)
            return;
        }
        let w = (c1 - c0) as usize;
        // Per region column j, cells of rows [r0, c1) — the bifurcation
        // scan's right operand. Rows below the region come from finished
        // tiles (or the never-written lower triangle, which reads as 0).
        let span = (c1 - r0) as usize;
        let mut cols = vec![0i32; w * span];
        let mut tmp = vec![0i32; w];
        for r in r1..c1 {
            m.read_row_into(r, c0, &mut tmp);
            for (idx, &v) in tmp.iter().enumerate() {
                cols[idx * span + (r - r0) as usize] = v;
            }
        }
        // The current row over columns [0, c1); the prefix [0, c0) is one
        // bulk read per row, the region part is produced in place.
        let mut rowbuf = vec![0i32; c1 as usize];
        for i in (r0..r1).rev() {
            if c0 > 0 {
                m.read_row_into(i, 0, &mut rowbuf[..c0 as usize]);
            }
            let start = c0.max(i);
            for j in start..c1 {
                let idx = (j - c0) as usize;
                let col_j = &cols[idx * span..(idx + 1) * span];
                let v = if j <= i {
                    0
                } else {
                    // F[i+1, j] and F[i, j-1].
                    let mut best = col_j[(i + 1 - r0) as usize].max(rowbuf[j as usize - 1]);
                    if j - i > self.min_loop
                        && rna_pairs(self.seq[i as usize], self.seq[j as usize])
                    {
                        let pair_diag = if j == c0 {
                            m.get(i + 1, c0 - 1)
                        } else {
                            cols[(idx - 1) * span + (i + 1 - r0) as usize]
                        };
                        best = best.max(pair_diag + 1);
                    }
                    // Bifurcation: k in (i, j) pairs F[i, k] (row) with
                    // F[k+1, j] (column).
                    best = best.max(crate::scan::add_scan_max(
                        &rowbuf[(i + 1) as usize..j as usize],
                        &col_j[(i + 2 - r0) as usize..(j + 1 - r0) as usize],
                    ));
                    best
                };
                rowbuf[j as usize] = v;
                cols[idx * span + (i - r0) as usize] = v;
            }
            if start < c1 {
                m.write_row(i, start, &rowbuf[start as usize..c1 as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{random_sequence, Alphabet};

    /// The recurrence written cell-at-a-time, as a reference for the
    /// slice-sweep kernel.
    fn reference_cell(p: &Nussinov, m: &DpMatrix<i32>, i: u32, j: u32) -> i32 {
        if j <= i {
            return 0;
        }
        let mut best = m.get(i + 1, j).max(m.get(i, j - 1));
        if j - i > p.min_loop && rna_pairs(p.seq[i as usize], p.seq[j as usize]) {
            best = best.max(m.get(i + 1, j - 1) + 1);
        }
        for k in (i + 1)..j {
            best = best.max(m.get(i, k) + m.get(k + 1, j));
        }
        best
    }

    #[test]
    fn sweep_kernel_matches_per_cell_reference() {
        let seq = random_sequence(Alphabet::Rna, 41, 17);
        let p = Nussinov::new(seq);
        let m = p.solve_sequential();
        let n = p.n();
        let mut r = DpMatrix::new(p.dims());
        for i in (0..n).rev() {
            for j in i..n {
                let v = reference_cell(&p, &r, i, j);
                r.set(i, j, v);
            }
        }
        for i in 0..n {
            for j in i..n {
                assert_eq!(m.get(i, j), r.get(i, j), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn tiny_hairpin() {
        // GGGAAACCC folds into three GC pairs with an AAA loop.
        let p = Nussinov::new(b"GGGAAACCC".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.max_pairs(&m), 3);
        let pairs = p.traceback(&m);
        assert_eq!(pairs.len(), 3);
        let db = p.dot_bracket(&pairs);
        assert_eq!(db.matches('(').count(), 3);
        assert_eq!(db.matches(')').count(), 3);
    }

    #[test]
    fn unpairable_sequence() {
        let p = Nussinov::new(b"AAAA".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.max_pairs(&m), 0);
        assert!(p.traceback(&m).is_empty());
    }

    #[test]
    fn empty_and_single() {
        let p = Nussinov::new(Vec::<u8>::new());
        assert_eq!(p.max_pairs(&p.solve_sequential()), 0);
        let p = Nussinov::new(b"A".to_vec());
        assert_eq!(p.max_pairs(&p.solve_sequential()), 0);
    }

    #[test]
    fn min_loop_blocks_sharp_hairpins() {
        // AU adjacent: with min_loop 1, A-U at distance 1 cannot pair.
        let p = Nussinov::new(b"AU".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.max_pairs(&m), 0);
        let p0 = Nussinov::with_min_loop(b"AU".to_vec(), 0);
        let m0 = p0.solve_sequential();
        assert_eq!(p0.max_pairs(&m0), 1);
    }

    #[test]
    fn pairs_are_valid_and_non_crossing_count() {
        let seq = random_sequence(Alphabet::Rna, 60, 42);
        let p = Nussinov::new(seq.clone());
        let m = p.solve_sequential();
        let pairs = p.traceback(&m);
        assert_eq!(pairs.len() as i32, p.max_pairs(&m));
        for &(i, j) in &pairs {
            assert!(j > i + 1);
            assert!(rna_pairs(seq[i as usize], seq[j as usize]));
        }
        // Nussinov structures are nested: for i1 < i2, either the second
        // pair nests inside the first (j2 < j1) or is disjoint (i2 > j1).
        for &(i1, j1) in &pairs {
            for &(i2, j2) in &pairs {
                if i1 < i2 {
                    assert!(j2 < j1 || i2 > j1, "crossing pair");
                }
            }
        }
    }

    #[test]
    fn recursive_tiling_matches_iterative_with_tiny_base() {
        // Force several recursion levels (90 >> base 8) and ragged splits,
        // then demand bit-identical output against the iterative kernel.
        let seq = random_sequence(Alphabet::Rna, 90, 23);
        let p = Nussinov::new(seq);
        let full = easyhps_core::TileRegion::new(0, p.n(), 0, p.n());
        let mut iter = DpMatrix::new(p.dims());
        p.compute_region_iterative(&mut iter, full);
        for base in [8, 13, 64] {
            let mut rec = DpMatrix::new(p.dims());
            p.compute_region_recursive(&mut rec, full, base);
            assert_eq!(rec, iter, "base {base}");
        }
    }

    #[test]
    fn tiled_equals_sequential() {
        use easyhps_core::{DagParser, TaskDag};
        let seq = random_sequence(Alphabet::Rna, 47, 9);
        let p = Nussinov::new(seq);
        let seq_m = p.solve_sequential();

        let model = easyhps_core::DagDataDrivenModel::builder(p.pattern())
            .process_partition_size(GridDims::square(8))
            .build();
        let dag: TaskDag = model.master_dag();
        let mut m = DpMatrix::new(p.dims());
        DagParser::drain_sequential(&dag, |v| {
            p.compute_region(&mut m, model.tile_region(dag.vertex(v).pos));
        });
        // Compare only the upper triangle (lower is never touched).
        for i in 0..47u32 {
            for j in i..47u32 {
                assert_eq!(m.get(i, j), seq_m.get(i, j), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn cell_work_grows_with_span() {
        let p = Nussinov::new(random_sequence(Alphabet::Rna, 10, 1));
        assert_eq!(p.cell_work(GridPos::new(3, 3)), 1);
        assert_eq!(p.cell_work(GridPos::new(0, 9)), 10);
        assert_eq!(p.cell_work(GridPos::new(5, 2)), 0);
    }
}
