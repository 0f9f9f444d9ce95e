//! Longest common subsequence (2D/0D).

use crate::matrix::{DpGrid, DpMatrix};
use crate::problem::DpProblem;
use easyhps_core::patterns::Wavefront2D;
use easyhps_core::{DagPattern, GridDims, TileRegion};
use std::sync::Arc;

/// Longest common subsequence of two byte strings, the other canonical
/// 2D/0D wavefront:
///
/// ```text
/// L[i,j] = L[i-1,j-1] + 1                 if a_i == b_j
///        = max(L[i-1,j], L[i,j-1])        otherwise
/// ```
#[derive(Clone, Debug)]
pub struct Lcs {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl Lcs {
    /// LCS of `a` (rows) and `b` (columns).
    pub fn new(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        Self {
            a: a.into(),
            b: b.into(),
        }
    }

    /// Length of the LCS from a computed matrix.
    pub fn length(&self, m: &DpMatrix<i32>) -> i32 {
        m.get(self.a.len() as u32, self.b.len() as u32)
    }

    /// One longest common subsequence, reconstructed from a computed matrix.
    pub fn traceback(&self, m: &DpMatrix<i32>) -> Vec<u8> {
        let mut out = Vec::new();
        let (mut i, mut j) = (self.a.len() as u32, self.b.len() as u32);
        while i > 0 && j > 0 {
            if self.a[i as usize - 1] == self.b[j as usize - 1] {
                out.push(self.a[i as usize - 1]);
                i -= 1;
                j -= 1;
            } else if m.get(i - 1, j) >= m.get(i, j - 1) {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        out.reverse();
        out
    }
}

impl DpProblem for Lcs {
    type Cell = i32;

    fn name(&self) -> String {
        "lcs".into()
    }

    fn dims(&self) -> GridDims {
        GridDims::new(self.a.len() as u32 + 1, self.b.len() as u32 + 1)
    }

    fn pattern(&self) -> Arc<dyn DagPattern> {
        Arc::new(Wavefront2D::new(self.dims()))
    }

    fn compute_region<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        crate::algos::adiag::sweep(m, region, &self.a, &self.b, &crate::algos::adiag::LcsRule);
    }
}

impl Lcs {
    /// The scalar slice-sweep kernel — the bit-identical reference for
    /// the anti-diagonal path.
    #[doc(hidden)]
    pub fn compute_region_scalar<G: DpGrid<i32>>(&self, m: &mut G, region: TileRegion) {
        crate::algos::row_sweep::sweep_rows_2d(
            m,
            region,
            |_| 0,
            |_| 0,
            |diag, up, left, i, j| {
                if self.a[i as usize - 1] == self.b[j as usize - 1] {
                    diag + 1
                } else {
                    up.max(left)
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcs_of(a: &str, b: &str) -> (i32, String) {
        let p = Lcs::new(a.as_bytes().to_vec(), b.as_bytes().to_vec());
        let m = p.solve_sequential();
        (p.length(&m), String::from_utf8(p.traceback(&m)).unwrap())
    }

    #[test]
    fn known_lcs() {
        let (len, s) = lcs_of("ABCBDAB", "BDCABA");
        assert_eq!(len, 4);
        assert_eq!(s.len(), 4);
        // The reconstruction must be a subsequence of both inputs.
        for (hay, _) in [("ABCBDAB", 0), ("BDCABA", 0)] {
            let mut it = hay.bytes();
            assert!(
                s.bytes().all(|c| it.any(|h| h == c)),
                "{s} not a subsequence of {hay}"
            );
        }
    }

    #[test]
    fn disjoint_strings_have_empty_lcs() {
        assert_eq!(lcs_of("AAAA", "BBBB").0, 0);
    }

    #[test]
    fn identical_strings() {
        let (len, s) = lcs_of("GATTACA", "GATTACA");
        assert_eq!(len, 7);
        assert_eq!(s, "GATTACA");
    }
}
