//! Scan reductions shared by the 2D/1D kernels: the SWGG gap scan and
//! the Nussinov bifurcation scan.
//!
//! These helpers are written as straight element-wise reduction loops
//! over contiguous slices, both operands walked forwards — the exact
//! shape LLVM's loop vectorizer compiles to `max`/`add` vector code on
//! any target, without arch-specific intrinsics or extra crates. An
//! earlier draft carried a hand-rolled eight-lane `i32` wrapper here;
//! measured on the tile benches it *lost* to these plain loops (the
//! array-shuffling loads never folded into single vector moves and the
//! per-call reduction overhead dominated short scans), so the
//! explicit-lane path was dropped in favour of the autovectorized form.
//! The *algorithmic* layer above does the rest: the anti-diagonal
//! kernels in [`crate::algos::adiag`] restructure the wavefront
//! recurrences so their inner loops become element-wise maps like the
//! ones below.
//!
//! Which vector instructions those loops become is the caller's choice.
//! Both helpers are `#[inline(always)]`, so they compile into the leaf
//! kernel that calls them: baseline x86-64 there means SSE2 (4 lanes, no
//! packed signed `max`), and the SWGG and Nussinov leaf kernels also
//! have an AVX2 twin of the same body (8 lanes, `vpmaxsd`, written by
//! `algos::avx2_leaf!`) that they choose once per call by CPU detection. Results are bit-identical to
//! any scalar evaluation order: only `max`, `add` and `sub` over `i32`
//! are involved, which are exact and associative-safe here.

/// `max_t (x[t] - y[t])` over `t in 0..x.len()` — the SWGG row and
/// column gap scan, the cells against a reversed gap table. Returns
/// `i32::MIN` on empty input.
#[inline(always)]
pub(crate) fn sub_scan_max(x: &[i32], y: &[i32]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    let mut best = i32::MIN;
    for (&a, &b) in x.iter().zip(y.iter()) {
        best = best.max(a - b);
    }
    best
}

/// `max_t (x[t] + y[t])` over `t in 0..x.len()` — the Nussinov
/// bifurcation scan. Returns `i32::MIN` on empty input.
#[inline(always)]
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

    fn scan_ref(x: &[i32], y: &[i32], op: fn(i32, i32) -> i32) -> i32 {
        x.iter()
            .zip(y)
            .map(|(&a, &b)| op(a, b))
            .fold(i32::MIN, i32::max)
    }

    #[test]
    fn scans_match_reference_on_all_lengths() {
        // Cover empty, sub-lane, exactly-one-lane, ragged and multi-lane.
        for n in 0usize..40 {
            let x: Vec<i32> = (0..n).map(|i| ((i * 37) % 23) as i32 - 11).collect();
            let y: Vec<i32> = (0..n).map(|i| ((i * 13) % 17) as i32).collect();
            assert_eq!(
                sub_scan_max(&x, &y),
                scan_ref(&x, &y, |a, b| a - b),
                "n={n}"
            );
            assert_eq!(
                add_scan_max(&x, &y),
                scan_ref(&x, &y, |a, b| a + b),
                "n={n}"
            );
        }
    }
}
