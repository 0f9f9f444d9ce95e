//! The DP algorithm library: one module per recurrence, each implementing
//! [`crate::DpProblem`] with a sequential reference and a region kernel.

mod adiag;
mod myers;
mod row_sweep;

mod banded_edit;
mod cyk;
mod edit;
mod hirschberg;
mod knapsack;
mod lcs;
mod matrix_chain;
mod needleman;
mod nussinov;
mod obst;
mod palindrome;
mod quadrant;
mod semi_global;
mod sw_affine;
mod swgg;
mod viterbi;

pub use banded_edit::{BandedEditDistance, BAND_INF};
pub use cyk::{CykParser, Grammar};
pub use edit::{EditDistance, EditOp};
pub use hirschberg::Hirschberg;
pub use knapsack::Knapsack;
pub use lcs::Lcs;
pub use matrix_chain::MatrixChain;
pub use needleman::NeedlemanWunsch;
pub use nussinov::Nussinov;
pub use obst::OptimalBst;
pub use palindrome::LongestPalindrome;
pub use quadrant::Quadrant2D2D;
pub use semi_global::SemiGlobal;
pub use sw_affine::SmithWatermanAffine;
pub use swgg::SmithWatermanGeneralGap;
pub use viterbi::{Hmm, Viterbi};

/// Writes the dispatched entry of a leaf kernel,
/// `fn $entry<G>(&self, m: &mut G, region: TileRegion)`: it runs
/// `$body` compiled for AVX2 when this CPU has AVX2 and the portable
/// build of it otherwise, asking once per call as `crc::hardware` does.
/// `$body` must be `#[inline(always)]` so that it compiles into the twin;
/// the twin is a plain fn item, not a closure, so it cannot stay portable
/// by not being inlined. `$ty` names the problem type, which the twin
/// (an inner item) cannot spell as `Self`.
macro_rules! avx2_leaf {
    ($(#[$attr:meta])* $vis:vis fn $entry:ident for $ty:ty => $body:ident) => {
        $(#[$attr])*
        $vis fn $entry<G: $crate::matrix::DpGrid<i32>>(
            &self,
            m: &mut G,
            region: easyhps_core::TileRegion,
        ) {
            // The body compiled for AVX2: the same loops, 8 lanes and a
            // packed signed `max`. Callable only once AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn twin<G: $crate::matrix::DpGrid<i32>>(
                p: &$ty,
                m: &mut G,
                region: easyhps_core::TileRegion,
            ) {
                p.$body(m, region);
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected just above, and it is the one
                // target feature `twin` enables.
                return unsafe { twin(self, m, region) };
            }
            self.$body(m, region);
        }
    };
}
use avx2_leaf;

/// Support for the leaf kernels' tests.
#[cfg(test)]
mod testing {
    use easyhps_core::{GridDims, TileRegion};

    /// Tile shapes with sides 1–40: single cells, strips, either side of
    /// the 4- and 8-lane widths, ragged, and the largest side.
    pub(super) const SHAPES: [(u32, u32); 9] = [
        (1, 1),
        (1, 40),
        (40, 1),
        (7, 9),
        (8, 8),
        (9, 7),
        (16, 17),
        (33, 40),
        (40, 40),
    ];

    /// `dims` cut into `th` x `tw` tiles, one `Vec` per tile row, top row
    /// first; edge tiles are ragged and every other tile starts at a
    /// non-zero offset.
    pub(super) fn tile_rows(dims: GridDims, th: u32, tw: u32) -> Vec<Vec<TileRegion>> {
        (0..dims.rows)
            .step_by(th as usize)
            .map(|r| {
                (0..dims.cols)
                    .step_by(tw as usize)
                    .map(|c| {
                        TileRegion::new(r, (r + th).min(dims.rows), c, (c + tw).min(dims.cols))
                    })
                    .collect()
            })
            .collect()
    }

    /// The tiles of `rows` (as from [`tile_rows`]) in wavefront order:
    /// anti-diagonal by anti-diagonal, the first tile row first in each.
    /// This is the order the runtime's DAG allows, so a tile runs while
    /// the tiles two or more anti-diagonals on are still zero: a kernel
    /// that reads outside its contract reads a wrong value and fails.
    pub(super) fn wavefront(rows: &[Vec<TileRegion>]) -> Vec<TileRegion> {
        let diagonals = rows.len() + rows[0].len() - 1;
        (0..diagonals)
            .flat_map(|d| {
                rows.iter()
                    .enumerate()
                    .filter_map(move |(tr, row)| row.get(d.checked_sub(tr)?).copied())
            })
            .collect()
    }
}
