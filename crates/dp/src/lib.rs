//! # easyhps-dp — dynamic-programming algorithm substrate
//!
//! The DP workloads the EasyHPS paper evaluates (Smith-Waterman with a
//! general gap function, Nussinov RNA folding) plus the other recurrences
//! its tD/eD taxonomy names (edit distance, LCS, affine-gap alignment,
//! matrix-chain multiplication, optimal BST, a generic 2D/2D instance),
//! each exposed as a [`DpProblem`]: a cell-level dependency pattern plus a
//! region kernel the multilevel runtime can schedule tile by tile.
//!
//! ```
//! use easyhps_dp::{DpProblem, Nussinov};
//! use easyhps_dp::sequence::{random_sequence, Alphabet};
//!
//! let rna = random_sequence(Alphabet::Rna, 40, 7);
//! let problem = Nussinov::new(rna);
//! let matrix = problem.solve_sequential();
//! let pairs = problem.traceback(&matrix);
//! assert_eq!(pairs.len() as i32, problem.max_pairs(&matrix));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algos;
mod alignment;
mod cell;
mod custom_problem;
mod matrix;
mod problem;
mod scan;
pub mod scoring;
pub mod sequence;

pub use algos::{
    BandedEditDistance, CykParser, EditDistance, EditOp, Grammar, Hirschberg, Hmm, Knapsack, Lcs,
    LongestPalindrome, MatrixChain, NeedlemanWunsch, Nussinov, OptimalBst, Quadrant2D2D,
    SemiGlobal, SmithWatermanAffine, SmithWatermanGeneralGap, Viterbi, BAND_INF,
};
pub use alignment::LocalAlignment;
pub use cell::{Cell, Gotoh};
pub use custom_problem::{CellCtx, ClosureProblem, ClosureProblemBuilder};
pub use matrix::{DpGrid, DpMatrix};
pub use problem::DpProblem;
pub use scoring::{GapPenalty, Substitution};
