//! Vector-friendly scan reductions shared by the 2D/1D kernels.
//!
//! These helpers are written as straight element-wise reduction loops
//! over contiguous slices — the exact shape LLVM's loop vectorizer
//! compiles to `max`/`add` vector code on any target, without
//! arch-specific intrinsics or extra crates. An earlier draft carried a
//! hand-rolled eight-lane `i32` wrapper here; measured on the tile
//! benches it *lost* to these plain loops (the array-shuffling loads
//! never folded into single vector moves and the per-call reduction
//! overhead dominated short scans), so the explicit-lane path was
//! dropped in favour of the autovectorized form. The *algorithmic*
//! layer above does the rest: the anti-diagonal kernels in
//! [`crate::algos::adiag`] restructure the wavefront recurrences so
//! their inner loops become element-wise maps like the ones below (both
//! are plain Rust and always compiled — there is no feature to select
//! them). Results are bit-identical to any scalar
//! evaluation order: only `max`, `add` and `sub` over `i32` are
//! involved, which are exact and associative-safe here.

/// `max_t (cells[n-1-t] - wt[t])` over `t in 0..n`, where
/// `n = cells.len() == wt.len()` — the SWGG row/column gap scan with the
/// cell operand walked backwards. Returns `i32::MIN` on empty input.
#[inline]
pub(crate) fn rev_scan_max(cells: &[i32], wt: &[i32]) -> i32 {
    debug_assert_eq!(cells.len(), wt.len());
    let mut best = i32::MIN;
    for (&c, &w) in cells.iter().rev().zip(wt.iter()) {
        best = best.max(c - w);
    }
    best
}

/// `max_t (x[t] + y[t])` over `t in 0..x.len()` — the Nussinov
/// bifurcation scan, both operands walked forwards. Returns `i32::MIN`
/// on empty input.
#[inline]
pub(crate) fn add_scan_max(x: &[i32], y: &[i32]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    let mut best = i32::MIN;
    for (&a, &b) in x.iter().zip(y.iter()) {
        best = best.max(a + b);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rev_scan_ref(cells: &[i32], wt: &[i32]) -> i32 {
        let mut best = i32::MIN;
        for (&c, &w) in cells.iter().rev().zip(wt) {
            best = best.max(c - w);
        }
        best
    }

    fn add_scan_ref(x: &[i32], y: &[i32]) -> i32 {
        let mut best = i32::MIN;
        for (&a, &b) in x.iter().zip(y) {
            best = best.max(a + b);
        }
        best
    }

    #[test]
    fn scans_match_reference_on_all_lengths() {
        // Cover empty, sub-lane, exactly-one-lane, ragged and multi-lane.
        for n in 0usize..40 {
            let cells: Vec<i32> = (0..n).map(|i| ((i * 37) % 23) as i32 - 11).collect();
            let wt: Vec<i32> = (0..n).map(|i| ((i * 13) % 17) as i32).collect();
            assert_eq!(
                rev_scan_max(&cells, &wt),
                rev_scan_ref(&cells, &wt),
                "n={n}"
            );
            assert_eq!(
                add_scan_max(&cells, &wt),
                add_scan_ref(&cells, &wt),
                "n={n}"
            );
        }
    }
}
