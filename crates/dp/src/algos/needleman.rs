//! Needleman-Wunsch global alignment (2D/0D).

use crate::alignment::LocalAlignment;
use crate::matrix::{DpGrid, DpMatrix};
use crate::problem::DpProblem;
use crate::scoring::Substitution;
use easyhps_core::patterns::Wavefront2D;
use easyhps_core::{DagPattern, GridDims, TileRegion};
use std::sync::Arc;

/// Global alignment with linear gaps:
///
/// ```text
/// F[i,j] = max( F[i-1,j-1] + s(a_i, b_j),
///               F[i-1,j] - gap,
///               F[i,j-1] - gap )
/// ```
///
/// with `F[i,0] = -i*gap`, `F[0,j] = -j*gap`. The global cousin of
/// Smith-Waterman; same wavefront pattern, different boundary conditions
/// and no clamping at zero.
#[derive(Clone, Debug)]
pub struct NeedlemanWunsch {
    a: Vec<u8>,
    b: Vec<u8>,
    substitution: Substitution,
    gap: i32,
}

impl NeedlemanWunsch {
    /// Align `a` (rows) against `b` (columns) globally.
    pub fn new(
        a: impl Into<Vec<u8>>,
        b: impl Into<Vec<u8>>,
        substitution: Substitution,
        gap: i32,
    ) -> Self {
        assert!(gap >= 0, "gap penalty is a cost (non-negative)");
        Self {
            a: a.into(),
            b: b.into(),
            substitution,
            gap,
        }
    }

    /// DNA defaults: +2/-1 substitution, gap 2.
    pub fn dna(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        Self::new(a, b, Substitution::dna_default(), 2)
    }

    /// The global alignment score from a computed matrix.
    pub fn score(&self, m: &DpMatrix<i32>) -> i32 {
        m.get(self.a.len() as u32, self.b.len() as u32)
    }

    /// Reconstruct the global alignment (spans both full sequences).
    pub fn traceback(&self, m: &DpMatrix<i32>) -> LocalAlignment {
        let (mut i, mut j) = (self.a.len() as u32, self.b.len() as u32);
        let score = m.get(i, j);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        while i > 0 || j > 0 {
            let cur = m.get(i, j);
            if i > 0 && j > 0 {
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
            }
            if i > 0 && m.get(i - 1, j) - self.gap == cur {
                ra.push(self.a[i as usize - 1]);
                rb.push(b'-');
                i -= 1;
            } else {
                debug_assert!(j > 0 && m.get(i, j - 1) - self.gap == cur);
                ra.push(b'-');
                rb.push(self.b[j as usize - 1]);
                j -= 1;
            }
        }
        ra.reverse();
        rb.reverse();
        LocalAlignment {
            score,
            a_range: 0..self.a.len(),
            b_range: 0..self.b.len(),
            a_aligned: ra,
            b_aligned: rb,
        }
    }
}

impl DpProblem for NeedlemanWunsch {
    type Cell = i32;

    fn name(&self) -> String {
        "needleman-wunsch".into()
    }

    fn dims(&self) -> GridDims {
        GridDims::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        Arc::new(Wavefront2D::new(self.dims()))
    }

    fn compute_region<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        // Simple substitution vectorizes as compare + select, so those
        // tiles take the anti-diagonal SIMD kernel; `Table` lookups use
        // the scalar row sweep.
        if let Substitution::Simple {
            match_score,
            mismatch,
        } = self.substitution
        {
            let rule = crate::algos::adiag::NwRule {
                match_score,
                mismatch,
                gap: self.gap,
            };
            crate::algos::adiag::sweep(m, region, &self.a, &self.b, &rule);
            return;
        }
        self.compute_region_scalar(m, region);
    }
}

impl NeedlemanWunsch {
    /// The scalar slice-sweep kernel — the fallback for `Table`
    /// substitutions and the bit-identical reference for the SIMD path.
    #[doc(hidden)]
    pub fn compute_region_scalar<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        crate::algos::row_sweep::sweep_rows_2d(
            m,
            region,
            |j| -(j as i32) * self.gap,
            |i| -(i as i32) * self.gap,
            |diag, up, left, i, j| {
                let s = self
                    .substitution
                    .score(self.a[i as usize - 1], self.b[j as usize - 1]);
                (diag + s).max(up - self.gap).max(left - self.gap)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{random_sequence, Alphabet};

    #[test]
    fn identical_sequences_score_full() {
        let p = NeedlemanWunsch::dna(b"ACGT".to_vec(), b"ACGT".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.score(&m), 8);
        let aln = p.traceback(&m);
        assert_eq!(aln.identity(), 1.0);
    }

    #[test]
    fn empty_vs_sequence_is_all_gaps() {
        let p = NeedlemanWunsch::dna(Vec::<u8>::new(), b"ACGT".to_vec());
        let m = p.solve_sequential();
        assert_eq!(p.score(&m), -8);
        let aln = p.traceback(&m);
        assert_eq!(aln.a_aligned, b"----");
        assert_eq!(aln.b_aligned, b"ACGT");
    }

    #[test]
    fn global_alignment_spans_everything() {
        let a = random_sequence(Alphabet::Dna, 25, 1);
        let b = random_sequence(Alphabet::Dna, 30, 2);
        let p = NeedlemanWunsch::dna(a.clone(), b.clone());
        let m = p.solve_sequential();
        let aln = p.traceback(&m);
        let a_used: Vec<u8> = aln
            .a_aligned
            .iter()
            .copied()
            .filter(|&c| c != b'-')
            .collect();
        let b_used: Vec<u8> = aln
            .b_aligned
            .iter()
            .copied()
            .filter(|&c| c != b'-')
            .collect();
        assert_eq!(a_used, a, "global alignment consumes all of a");
        assert_eq!(b_used, b, "global alignment consumes all of b");
    }

    #[test]
    fn traceback_replays_to_score() {
        let a = random_sequence(Alphabet::Dna, 20, 3);
        let b = random_sequence(Alphabet::Dna, 24, 4);
        let p = NeedlemanWunsch::dna(a, b);
        let m = p.solve_sequential();
        let aln = p.traceback(&m);
        let mut score = 0;
        for (x, y) in aln.a_aligned.iter().zip(&aln.b_aligned) {
            if *x == b'-' || *y == b'-' {
                score -= 2;
            } else {
                score += Substitution::dna_default().score(*x, *y);
            }
        }
        assert_eq!(score, aln.score);
    }

    #[test]
    fn tiled_equals_sequential() {
        use easyhps_core::{DagParser, TaskDag};
        let a = random_sequence(Alphabet::Dna, 37, 5);
        let b = random_sequence(Alphabet::Dna, 31, 6);
        let p = NeedlemanWunsch::dna(a, b);
        let seq = p.solve_sequential();
        let model = easyhps_core::DagDataDrivenModel::builder(p.pattern())
            .process_partition_size(GridDims::new(8, 7))
            .build();
        let dag: TaskDag = model.master_dag();
        let mut m = DpMatrix::new(p.dims());
        DagParser::drain_sequential(&dag, |v| {
            p.compute_region(&mut m, model.tile_region(dag.vertex(v).pos));
        });
        assert_eq!(m, seq);
    }
}
