//! The shared node matrix: race-free concurrent tile computation.
//!
//! Every slave, and EasyPDP, keeps its node matrix in one [`SharedGrid`]:
//! a single dense `dag_size` allocation, the paper's layout (its §VII
//! names that memory cost the system's main limitation).
//!
//! Inside one slave node, computing threads work on disjoint tile regions
//! of a single matrix while reading regions finished earlier — the classic
//! wavefront shared-memory discipline. Rust cannot prove this discipline
//! statically, so the grid uses `UnsafeCell` with a narrow, documented
//! unsafe constructor; everything else is safe.
//!
//! ## Safety argument
//!
//! * Each sub-task's region is assigned to exactly one computing thread at
//!   a time (the slave scheduler pops it from the computable stack once).
//! * A task only reads cells in regions that the DAG orders strictly before
//!   it ([`easyhps_core::TaskDag::validate`] checks that every
//!   data-communication dependency is a topological ancestor).
//! * Completion and dispatch go through the tile machine's mutex: a
//!   worker reports a finished task under it after its writes, and a task
//!   those writes enable is handed out under it afterwards (run by the
//!   reporter, or sent to a sibling while the lock is held), which
//!   establishes happens-before between the finisher's writes and the
//!   reader's reads.
//!
//! Together these give data-race freedom: no cell is ever written
//! concurrently with another access.

use easyhps_core::{GridDims, TileRegion};
use easyhps_dp::{Cell, DpGrid, DpMatrix};
use std::cell::UnsafeCell;

/// A grid whose cells can be written by multiple threads under the DAG
/// scheduling discipline described in the module docs.
pub struct SharedGrid<C: Cell> {
    dims: GridDims,
    cells: Box<[UnsafeCell<C>]>,
}

// SAFETY: all aliasing is governed by the task-region discipline; see the
// module documentation. `C: Cell` is `Send + Sync` by bound (plain data).
unsafe impl<C: Cell> Sync for SharedGrid<C> {}

impl<C: Cell> SharedGrid<C> {
    /// A grid of `dims` filled with `C::default()`.
    pub fn new(dims: GridDims) -> Self {
        let n = dims.area() as usize;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || UnsafeCell::new(C::default()));
        Self {
            dims,
            cells: v.into_boxed_slice(),
        }
    }

    /// Grid extent.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    fn idx(&self, row: u32, col: u32) -> usize {
        debug_assert!(row < self.dims.rows && col < self.dims.cols);
        row as usize * self.dims.cols as usize + col as usize
    }

    /// Borrow cells `[col_start, col_end)` of `row` as a plain shared slice.
    ///
    /// # Safety
    ///
    /// Caller must guarantee no thread writes any of these cells for the
    /// lifetime of the returned borrow (the task-view read contract: each
    /// cell is finalized, or owned by the caller and not being written).
    #[inline]
    unsafe fn row_span(&self, row: u32, col_start: u32, col_end: u32) -> &[C] {
        debug_assert!(col_start <= col_end && col_end <= self.dims.cols);
        let start = self.idx(row, col_start);
        let len = (col_end - col_start) as usize;
        // SAFETY: `UnsafeCell<C>` has the same layout as `C`, the range is
        // in bounds, and the caller guarantees no concurrent writes — the
        // DAG schedule orders every producing task (with happens-before via
        // the tile machine's mutex) strictly before this read.
        unsafe { std::slice::from_raw_parts(self.cells[start].get() as *const C, len) }
    }

    /// Overwrite cells `[col_start, col_start + values.len())` of `row`.
    ///
    /// # Safety
    ///
    /// Caller must have exclusive write rights to these cells per the
    /// task-view contract (its region, or `&mut` access to the grid).
    #[inline]
    unsafe fn write_row_span(&self, row: u32, col_start: u32, values: &[C]) {
        let col_end = col_start + values.len() as u32;
        debug_assert!(col_end <= self.dims.cols);
        let start = self.idx(row, col_start);
        // SAFETY: in-bounds, and the caller holds region exclusivity per
        // the DAG scheduling discipline, so no other thread reads or
        // writes these cells during the copy.
        unsafe {
            let dst = self.cells[start].get();
            std::ptr::copy_nonoverlapping(values.as_ptr(), dst, values.len());
        }
    }

    /// Create a view that may write `region` and read anything.
    ///
    /// # Safety
    ///
    /// The caller must guarantee, for the lifetime of the view:
    /// 1. no other live view's writable region overlaps `region`;
    /// 2. every cell read through the view is either inside `region` or was
    ///    written by a task whose completion happens-before this view's
    ///    creation (and is never written again while the view lives).
    pub unsafe fn task_view(&self, region: TileRegion) -> TaskView<'_, C> {
        TaskView { grid: self, region }
    }

    /// Exclusive access as a plain mutable grid. Safe: `&mut self` proves
    /// no views are alive.
    pub fn as_exclusive(&mut self) -> ExclusiveGrid<'_, C> {
        ExclusiveGrid { grid: self }
    }

    /// Snapshot the whole grid into an owned matrix. Safe only with `&mut`
    /// (no concurrent writers).
    pub fn to_matrix(&mut self) -> DpMatrix<C> {
        let mut m = DpMatrix::new(self.dims);
        for r in 0..self.dims.rows {
            // SAFETY: &mut self excludes all concurrent access.
            let row = unsafe { self.row_span(r, 0, self.dims.cols) };
            m.write_row(r, 0, row);
        }
        m
    }
}

/// A task's window onto the shared grid: writes restricted to the task's
/// region, reads anywhere (per the safety contract of
/// [`SharedGrid::task_view`]).
pub struct TaskView<'g, C: Cell> {
    grid: &'g SharedGrid<C>,
    region: TileRegion,
}

impl<C: Cell> TaskView<'_, C> {
    /// The writable region.
    pub fn region(&self) -> TileRegion {
        self.region
    }
}

impl<C: Cell> DpGrid<C> for TaskView<'_, C> {
    fn dims(&self) -> GridDims {
        self.grid.dims
    }

    #[inline]
    fn get(&self, row: u32, col: u32) -> C {
        // SAFETY: per the view contract the cell is either ours or final.
        unsafe { *self.grid.cells[self.grid.idx(row, col)].get() }
    }

    #[inline]
    fn set(&mut self, row: u32, col: u32, value: C) {
        // Hot path: the region check is a debug assertion; release builds
        // rely on the DAG schedule (and the bulk write_row check).
        debug_assert!(
            self.region.contains(easyhps_core::GridPos::new(row, col)),
            "task wrote ({row},{col}) outside its region {:?}",
            self.region
        );
        // SAFETY: in-region writes are exclusive per the view contract.
        unsafe { *self.grid.cells[self.grid.idx(row, col)].get() = value }
    }

    fn row_slice(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        // SAFETY: the view's read contract (cells finalized or owned) is
        // exactly row_span's no-concurrent-writer requirement.
        Some(unsafe { self.grid.row_span(row, col_start, col_end) })
    }

    fn write_row(&mut self, row: u32, col_start: u32, values: &[C]) {
        let col_end = col_start + values.len() as u32;
        // One region check per row instead of per cell.
        assert!(
            row >= self.region.row_start
                && row < self.region.row_end
                && col_start >= self.region.col_start
                && col_end <= self.region.col_end,
            "task wrote row {row} cols [{col_start},{col_end}) outside its region {:?}",
            self.region
        );
        // SAFETY: the row span is inside the view's region, where writes
        // are exclusive per the view contract.
        unsafe { self.grid.write_row_span(row, col_start, values) }
    }
}

/// Whole-grid mutable access (strip decode, result encode) while no task
/// views exist.
pub struct ExclusiveGrid<'g, C: Cell> {
    grid: &'g mut SharedGrid<C>,
}

impl<C: Cell> ExclusiveGrid<'_, C> {
    /// Overwrite `region` from wire bytes (see
    /// [`DpMatrix::decode_region`] for the format).
    pub fn decode_region(&mut self, region: TileRegion, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            region.area() as usize * C::WIRE_SIZE,
            "byte length does not match region {region:?}"
        );
        if region.cols() == 0 {
            return;
        }
        let row_bytes = region.cols() as usize * C::WIRE_SIZE;
        let mut scratch = vec![C::default(); region.cols() as usize];
        for (r, chunk) in (region.row_start..region.row_end).zip(bytes.chunks_exact(row_bytes)) {
            C::decode_slice(&mut scratch, chunk);
            // SAFETY: &mut SharedGrid inside excludes concurrent access.
            unsafe { self.grid.write_row_span(r, region.col_start, &scratch) };
        }
    }

    /// Serialize `region` to wire bytes appended to `out`.
    pub fn encode_region_into(&self, region: TileRegion, out: &mut Vec<u8>) {
        for r in region.row_start..region.row_end {
            // SAFETY: &mut SharedGrid inside excludes concurrent access.
            let row = unsafe { self.grid.row_span(r, region.col_start, region.col_end) };
            C::encode_slice(row, out);
        }
    }
}

impl<C: Cell> DpGrid<C> for ExclusiveGrid<'_, C> {
    fn dims(&self) -> GridDims {
        self.grid.dims
    }

    #[inline]
    fn get(&self, row: u32, col: u32) -> C {
        // SAFETY: the &mut SharedGrid inside excludes concurrent access.
        unsafe { *self.grid.cells[self.grid.idx(row, col)].get() }
    }

    #[inline]
    fn set(&mut self, row: u32, col: u32, value: C) {
        // SAFETY: as above.
        unsafe { *self.grid.cells[self.grid.idx(row, col)].get() = value }
    }

    fn row_slice(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        // SAFETY: the &mut SharedGrid inside excludes concurrent access.
        Some(unsafe { self.grid.row_span(row, col_start, col_end) })
    }

    fn write_row(&mut self, row: u32, col_start: u32, values: &[C]) {
        // SAFETY: as above.
        unsafe { self.grid.write_row_span(row, col_start, values) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::GridPos;

    #[test]
    fn exclusive_roundtrip() {
        let mut g = SharedGrid::<i32>::new(GridDims::new(3, 4));
        let mut ex = g.as_exclusive();
        ex.set(1, 2, 42);
        assert_eq!(ex.get(1, 2), 42);
        assert_eq!(ex.get(0, 0), 0);
        let m = g.to_matrix();
        assert_eq!(m.get(1, 2), 42);
    }

    #[test]
    fn task_view_writes_own_region() {
        let g = SharedGrid::<i32>::new(GridDims::square(4));
        let region = TileRegion::new(1, 3, 1, 3);
        // SAFETY: single thread, no other views.
        let mut v = unsafe { g.task_view(region) };
        v.set(1, 1, 5);
        v.set(2, 2, 6);
        assert_eq!(v.get(1, 1), 5);
        assert_eq!(v.get(0, 0), 0, "reads outside region are allowed");
    }

    // `set`'s region check is a debug assertion (hot path); only the bulk
    // `write_row` check fires in release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside its region")]
    fn task_view_rejects_out_of_region_write() {
        let g = SharedGrid::<i32>::new(GridDims::square(4));
        let mut v = unsafe { g.task_view(TileRegion::new(0, 2, 0, 2)) };
        v.set(3, 3, 1);
    }

    #[test]
    #[should_panic(expected = "outside its region")]
    fn task_view_rejects_out_of_region_row_write() {
        let g = SharedGrid::<i32>::new(GridDims::square(4));
        let mut v = unsafe { g.task_view(TileRegion::new(0, 2, 0, 2)) };
        v.write_row(1, 1, &[7, 8]); // cols [1,3) spill out of [0,2)
    }

    #[test]
    fn task_view_row_slice_and_write_row() {
        let g = SharedGrid::<i32>::new(GridDims::new(3, 5));
        let region = TileRegion::new(1, 2, 1, 4);
        let mut v = unsafe { g.task_view(region) };
        v.write_row(1, 1, &[10, 20, 30]);
        assert_eq!(v.row_slice(1, 1, 4), Some(&[10, 20, 30][..]));
        assert_eq!(
            v.row_slice(0, 0, 5),
            Some(&[0; 5][..]),
            "reads outside region allowed"
        );
        let mut buf = [0i32; 2];
        v.read_row_into(1, 2, &mut buf);
        assert_eq!(buf, [20, 30]);
    }

    #[test]
    fn strip_encode_decode() {
        let mut g = SharedGrid::<i32>::new(GridDims::square(3));
        let mut ex = g.as_exclusive();
        for p in GridDims::square(3).iter() {
            ex.set(p.row, p.col, (p.row * 3 + p.col) as i32);
        }
        let region = TileRegion::new(0, 2, 1, 3);
        let mut bytes = Vec::new();
        ex.encode_region_into(region, &mut bytes);
        let mut g2 = SharedGrid::<i32>::new(GridDims::square(3));
        g2.as_exclusive().decode_region(region, &bytes);
        let m2 = g2.to_matrix();
        for p in region.iter() {
            assert_eq!(m2.at(p), (p.row * 3 + p.col) as i32);
        }
        assert_eq!(m2.at(GridPos::new(2, 2)), 0);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        // Two threads write disjoint halves; channel join synchronizes.
        let g = SharedGrid::<i64>::new(GridDims::new(2, 100));
        std::thread::scope(|s| {
            let top = unsafe { g.task_view(TileRegion::new(0, 1, 0, 100)) };
            let bottom = unsafe { g.task_view(TileRegion::new(1, 2, 0, 100)) };
            s.spawn(move || {
                let mut v = top;
                for c in 0..100 {
                    v.set(0, c, c as i64);
                }
            });
            s.spawn(move || {
                let mut v = bottom;
                for c in 0..100 {
                    v.set(1, c, -(c as i64));
                }
            });
        });
        let mut g = g;
        let m = g.to_matrix();
        for c in 0..100u32 {
            assert_eq!(m.get(0, c), c as i64);
            assert_eq!(m.get(1, c), -(c as i64));
        }
    }
}
