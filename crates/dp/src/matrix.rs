//! Dense DP matrix storage with strip extraction for the runtime.

use crate::cell::Cell;
use easyhps_core::{GridDims, GridPos, TileRegion};

/// Read/write access to a DP grid.
///
/// Kernels ([`crate::DpProblem::compute_region`]) are written against this
/// trait so they can run both on an owned [`DpMatrix`] (sequential
/// reference, master-side assembly) and on the runtime's shared node matrix
/// (where the DAG schedule guarantees race freedom).
pub trait DpGrid<C: Cell> {
    /// Grid extent.
    fn dims(&self) -> GridDims;

    /// Read the cell at `(row, col)`.
    fn get(&self, row: u32, col: u32) -> C;

    /// Write the cell at `(row, col)`.
    fn set(&mut self, row: u32, col: u32, value: C);

    /// Borrow cells `[col_start, col_end)` of `row` as a contiguous slice,
    /// if this grid stores them contiguously. `None` means the caller must
    /// fall back to [`DpGrid::read_row_into`].
    ///
    /// Callers must only request cells that are *finalized* for them: their
    /// own already-written cells, or cells whose producing task the DAG
    /// schedule orders (with happens-before) strictly before the caller.
    /// This is the same contract as per-cell `get`, stated once per row.
    fn row_slice(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        let _ = (row, col_start, col_end);
        None
    }

    /// Bulk-read cells `[col_start, col_start + dst.len())` of `row` into
    /// `dst`. Same finalization contract as [`DpGrid::row_slice`]; the
    /// default copies the row slice when one exists and falls back to
    /// per-cell `get` otherwise.
    fn read_row_into(&self, row: u32, col_start: u32, dst: &mut [C]) {
        if let Some(s) = self.row_slice(row, col_start, col_start + dst.len() as u32) {
            dst.copy_from_slice(s);
            return;
        }
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self.get(row, col_start + i as u32);
        }
    }

    /// Bulk-write `values` into `row` starting at `col_start`. Grids that
    /// enforce a writable region may check it once per call instead of once
    /// per cell.
    fn write_row(&mut self, row: u32, col_start: u32, values: &[C]) {
        for (i, v) in values.iter().enumerate() {
            self.set(row, col_start + i as u32, *v);
        }
    }
}

/// A dense, row-major DP matrix.
///
/// Triangular problems also use a dense matrix and simply never touch the
/// lower triangle; the memory overhead matches the paper's implementation
/// (its §VII explicitly lists space consumption as a known limitation).
#[derive(Clone, Debug, PartialEq)]
pub struct DpMatrix<C: Cell> {
    dims: GridDims,
    data: Vec<C>,
}

impl<C: Cell> DpMatrix<C> {
    /// Create a matrix filled with `C::default()`.
    pub fn new(dims: GridDims) -> Self {
        Self {
            dims,
            data: vec![C::default(); dims.area() as usize],
        }
    }

    /// Matrix extent.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Read the cell at `(row, col)`.
    #[inline]
    pub fn get(&self, row: u32, col: u32) -> C {
        debug_assert!(self.dims.contains(GridPos::new(row, col)));
        self.data[row as usize * self.dims.cols as usize + col as usize]
    }

    /// Write the cell at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: u32, col: u32, value: C) {
        debug_assert!(self.dims.contains(GridPos::new(row, col)));
        self.data[row as usize * self.dims.cols as usize + col as usize] = value;
    }

    /// Read by position.
    #[inline]
    pub fn at(&self, p: GridPos) -> C {
        self.get(p.row, p.col)
    }

    /// Borrow one row as a slice.
    pub fn row(&self, row: u32) -> &[C] {
        let w = self.dims.cols as usize;
        &self.data[row as usize * w..(row as usize + 1) * w]
    }

    /// Mutably borrow cells `[col_start, col_end)` of one row.
    fn row_span_mut(&mut self, row: u32, col_start: u32, col_end: u32) -> &mut [C] {
        debug_assert!(col_start <= col_end && col_end <= self.dims.cols);
        let base = row as usize * self.dims.cols as usize;
        &mut self.data[base + col_start as usize..base + col_end as usize]
    }

    /// Raw cells in row-major order.
    pub fn as_slice(&self) -> &[C] {
        &self.data
    }

    /// Serialize the cells of `region` (row-major) into bytes.
    pub fn encode_region(&self, region: TileRegion) -> Vec<u8> {
        let mut out = Vec::with_capacity(region.area() as usize * C::WIRE_SIZE);
        self.encode_region_into(region, &mut out);
        out
    }

    /// [`Self::encode_region`], appending to `out` — e.g. straight into a
    /// message frame.
    pub fn encode_region_into(&self, region: TileRegion, out: &mut Vec<u8>) {
        for r in region.row_start..region.row_end {
            let base = r as usize * self.dims.cols as usize;
            let row = &self.data[base + region.col_start as usize..base + region.col_end as usize];
            C::encode_slice(row, out);
        }
    }

    /// Overwrite the cells of `region` from bytes produced by
    /// [`Self::encode_region`]. Panics if the byte length does not match the
    /// region.
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
        for (r, chunk) in (region.row_start..region.row_end).zip(bytes.chunks_exact(row_bytes)) {
            let row = self.row_span_mut(r, region.col_start, region.col_end);
            C::decode_slice(row, chunk);
        }
    }

    /// Copy the cells of `region` from `src` (same dims required).
    pub fn copy_region_from(&mut self, src: &DpMatrix<C>, region: TileRegion) {
        assert_eq!(self.dims, src.dims);
        for r in region.row_start..region.row_end {
            let base = r as usize * self.dims.cols as usize;
            let span = base + region.col_start as usize..base + region.col_end as usize;
            self.data[span.clone()].copy_from_slice(&src.data[span]);
        }
    }

    /// Maximum cell value over `region` by a key function, with its
    /// position. Returns `None` on an empty region.
    pub fn max_in_region_by_key<K: PartialOrd>(
        &self,
        region: TileRegion,
        key: impl Fn(C) -> K,
    ) -> Option<(GridPos, C)> {
        let mut best: Option<(GridPos, C, K)> = None;
        for p in region.iter() {
            let v = self.at(p);
            let k = key(v);
            match &best {
                Some((_, _, bk)) if *bk >= k => {}
                _ => best = Some((p, v, k)),
            }
        }
        best.map(|(p, v, _)| (p, v))
    }
}

impl<C: Cell> DpGrid<C> for DpMatrix<C> {
    fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    fn get(&self, row: u32, col: u32) -> C {
        DpMatrix::get(self, row, col)
    }

    #[inline]
    fn set(&mut self, row: u32, col: u32, value: C) {
        DpMatrix::set(self, row, col, value);
    }

    fn row_slice(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        debug_assert!(col_start <= col_end && col_end <= self.dims.cols);
        let base = row as usize * self.dims.cols as usize;
        Some(&self.data[base + col_start as usize..base + col_end as usize])
    }

    fn write_row(&mut self, row: u32, col_start: u32, values: &[C]) {
        self.row_span_mut(row, col_start, col_start + values.len() as u32)
            .copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut m = DpMatrix::<i32>::new(GridDims::new(3, 4));
        m.set(2, 3, 42);
        m.set(0, 0, -1);
        assert_eq!(m.get(2, 3), 42);
        assert_eq!(m.get(0, 0), -1);
        assert_eq!(m.get(1, 1), 0);
    }

    #[test]
    fn region_encode_decode_roundtrip() {
        let mut m = DpMatrix::<i32>::new(GridDims::new(4, 4));
        for p in m.dims().iter() {
            m.set(p.row, p.col, (p.row * 10 + p.col) as i32);
        }
        let region = TileRegion::new(1, 3, 1, 4);
        let bytes = m.encode_region(region);
        assert_eq!(bytes.len(), 6 * 4);

        let mut m2 = DpMatrix::<i32>::new(GridDims::new(4, 4));
        m2.decode_region(region, &bytes);
        for p in region.iter() {
            assert_eq!(m2.at(p), m.at(p));
        }
        assert_eq!(m2.get(0, 0), 0, "cells outside the region untouched");
    }

    #[test]
    #[should_panic(expected = "byte length")]
    fn decode_wrong_length_panics() {
        let mut m = DpMatrix::<i32>::new(GridDims::new(2, 2));
        m.decode_region(TileRegion::new(0, 2, 0, 2), &[0u8; 3]);
    }

    #[test]
    fn copy_region() {
        let mut a = DpMatrix::<i64>::new(GridDims::square(3));
        let mut b = DpMatrix::<i64>::new(GridDims::square(3));
        for p in a.dims().iter() {
            a.set(p.row, p.col, (p.row + p.col) as i64);
        }
        b.copy_region_from(&a, TileRegion::new(0, 2, 0, 2));
        assert_eq!(b.get(1, 1), 2);
        assert_eq!(b.get(2, 2), 0);
    }

    #[test]
    fn max_in_region() {
        let mut m = DpMatrix::<i32>::new(GridDims::square(3));
        m.set(1, 2, 9);
        m.set(2, 0, 11);
        let (p, v) = m
            .max_in_region_by_key(TileRegion::new(0, 3, 0, 3), |c| c)
            .unwrap();
        assert_eq!((p, v), (GridPos::new(2, 0), 11));
        // Restricted region misses the global max.
        let (p, v) = m
            .max_in_region_by_key(TileRegion::new(0, 2, 0, 3), |c| c)
            .unwrap();
        assert_eq!((p, v), (GridPos::new(1, 2), 9));
    }
}
