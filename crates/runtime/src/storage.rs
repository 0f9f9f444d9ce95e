//! Node-matrix storage strategies.
//!
//! The paper's §VII names space consumption as EasyHPS's main limitation:
//! every slave holds a full `dag_size` matrix even though it only ever
//! touches its input strips and its own tiles. [`NodeStorage`] abstracts
//! the node matrix so the slave can run either **dense** (one flat
//! allocation, fastest access — the paper's behaviour) or **sparse**
//! (fixed-size chunks allocated on demand — memory proportional to the
//! data a node actually sees). The sparse mode implements the paper's
//! future-work item.

use crate::shared_grid::{SharedGrid, TaskView};
use easyhps_core::{GridDims, GridPos, TileRegion};
use easyhps_dp::{Cell, DpGrid};
use std::cell::UnsafeCell;
use std::collections::HashMap;

/// Storage for one slave's node matrix. The safety contract of
/// [`NodeStorage::task_view`] is the same as
/// [`SharedGrid::task_view`]: per-region exclusivity plus
/// happens-before on reads, both guaranteed by the DAG schedule.
pub trait NodeStorage<C: Cell>: Send + Sync + 'static {
    /// The grid view computing threads work through.
    type View<'a>: DpGrid<C>
    where
        Self: 'a;

    /// Create storage for a `dims` matrix.
    fn new(dims: GridDims) -> Self;

    /// Make sure every cell of `regions` is backed by real memory. Called
    /// with exclusive access before the worker pool starts; dense storage
    /// is a no-op.
    fn prepare(&mut self, regions: &[TileRegion]);

    /// Overwrite `region` from wire bytes (exclusive access).
    fn decode_region(&mut self, region: TileRegion, bytes: &[u8]);

    /// Serialize `region` to wire bytes appended to `out` (exclusive
    /// access).
    fn encode_region_into(&mut self, region: TileRegion, out: &mut Vec<u8>);

    /// Create a view that may write `region` and read finished cells.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedGrid::task_view`].
    unsafe fn task_view(&self, region: TileRegion) -> Self::View<'_>;

    /// Bytes of cell memory currently allocated.
    fn allocated_bytes(&self) -> u64;
}

impl<C: Cell> NodeStorage<C> for SharedGrid<C> {
    type View<'a> = TaskView<'a, C>;

    fn new(dims: GridDims) -> Self {
        SharedGrid::new(dims)
    }

    fn prepare(&mut self, _regions: &[TileRegion]) {}

    fn decode_region(&mut self, region: TileRegion, bytes: &[u8]) {
        self.as_exclusive().decode_region(region, bytes);
    }

    fn encode_region_into(&mut self, region: TileRegion, out: &mut Vec<u8>) {
        self.as_exclusive().encode_region_into(region, out)
    }

    unsafe fn task_view(&self, region: TileRegion) -> TaskView<'_, C> {
        // SAFETY: forwarded contract.
        unsafe { SharedGrid::task_view(self, region) }
    }

    fn allocated_bytes(&self) -> u64 {
        self.dims().area() * std::mem::size_of::<C>() as u64
    }
}

/// Chunk side length of the sparse grid, in cells. 64x64 chunks balance
/// map overhead against over-allocation at strip edges.
const CHUNK: u32 = 64;

/// Sparse node matrix: fixed-size chunks allocated on first touch.
///
/// Reads of unallocated chunks return `C::default()` — exactly what a
/// freshly allocated dense grid would contain (this matters for
/// recurrences that read never-written base cells, like Nussinov's lower
/// triangle).
pub struct SparseGrid<C: Cell> {
    dims: GridDims,
    chunks: HashMap<u64, Box<[UnsafeCell<C>]>>,
}

// SAFETY: aliasing discipline per NodeStorage contract; the chunk map is
// only mutated through &mut self (prepare/decode), never while views live.
unsafe impl<C: Cell> Sync for SparseGrid<C> {}

impl<C: Cell> SparseGrid<C> {
    fn chunk_key(&self, cr: u32, cc: u32) -> u64 {
        (cr as u64) << 32 | cc as u64
    }

    fn chunk_of(&self, row: u32, col: u32) -> (u32, u32, usize) {
        let (cr, cc) = (row / CHUNK, col / CHUNK);
        let idx = ((row % CHUNK) * CHUNK + (col % CHUNK)) as usize;
        (cr, cc, idx)
    }

    fn ensure_chunk(&mut self, cr: u32, cc: u32) {
        let key = self.chunk_key(cr, cc);
        self.chunks.entry(key).or_insert_with(|| {
            let n = (CHUNK * CHUNK) as usize;
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || UnsafeCell::new(C::default()));
            v.into_boxed_slice()
        });
    }

    #[inline]
    fn read(&self, row: u32, col: u32) -> C {
        debug_assert!(self.dims.contains(GridPos::new(row, col)));
        let (cr, cc, idx) = self.chunk_of(row, col);
        match self.chunks.get(&self.chunk_key(cr, cc)) {
            // SAFETY: per the NodeStorage view contract the cell is final
            // or owned by the reading task.
            Some(chunk) => unsafe { *chunk[idx].get() },
            None => C::default(),
        }
    }

    /// # Safety
    /// Caller must hold write rights to `(row, col)` per the view
    /// contract, and the chunk must be allocated (prepare() was called).
    #[inline]
    unsafe fn write(&self, row: u32, col: u32, value: C) {
        let (cr, cc, idx) = self.chunk_of(row, col);
        let chunk = self
            .chunks
            .get(&self.chunk_key(cr, cc))
            .expect("write to unprepared chunk: prepare() must cover every task region");
        // SAFETY: caller contract.
        unsafe { *chunk[idx].get() = value }
    }

    /// Number of allocated chunks (for tests and stats).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Call `f(chunk_key, in_chunk_idx, col, seg_end)` for each maximal
    /// chunk-contiguous segment of row cells `[col_start, col_end)`. Within
    /// one chunk a row is contiguous, so each segment maps to one slice.
    fn for_row_segments(
        &self,
        row: u32,
        col_start: u32,
        col_end: u32,
        mut f: impl FnMut(u64, usize, u32, u32),
    ) {
        let cr = row / CHUNK;
        let row_off = (row % CHUNK) * CHUNK;
        let mut c = col_start;
        while c < col_end {
            let cc = c / CHUNK;
            let seg_end = ((cc + 1) * CHUNK).min(col_end);
            f(
                self.chunk_key(cr, cc),
                (row_off + c % CHUNK) as usize,
                c,
                seg_end,
            );
            c = seg_end;
        }
    }

    /// Borrow row cells `[col_start, col_end)` as a slice, if they live in
    /// one allocated chunk (a row never spans chunks vertically, so this is
    /// the only contiguity requirement).
    ///
    /// # Safety
    ///
    /// Same as [`SparseGrid::read`], slice-wide: every cell must be
    /// finalized or owned by the caller for the borrow's lifetime.
    unsafe fn row_span(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        debug_assert!(col_start <= col_end && col_end <= self.dims.cols);
        if col_start == col_end {
            return Some(&[]);
        }
        if col_start / CHUNK != (col_end - 1) / CHUNK {
            return None;
        }
        let (cr, cc, idx) = self.chunk_of(row, col_start);
        let chunk = self.chunks.get(&self.chunk_key(cr, cc))?;
        let len = (col_end - col_start) as usize;
        // SAFETY: `UnsafeCell<C>` has the same layout as `C`, the segment is
        // within one chunk row, and the caller guarantees no concurrent
        // writers per the view contract.
        Some(unsafe { std::slice::from_raw_parts(chunk[idx].get() as *const C, len) })
    }

    /// Bulk-read row cells into `dst`, filling `C::default()` for
    /// unallocated chunks (matching [`SparseGrid::read`]).
    fn read_row_cells(&self, row: u32, col_start: u32, dst: &mut [C]) {
        self.for_row_segments(
            row,
            col_start,
            col_start + dst.len() as u32,
            |key, idx, c, end| {
                let d = &mut dst[(c - col_start) as usize..(end - col_start) as usize];
                match self.chunks.get(&key) {
                    // SAFETY: per the view contract the cells are finalized or
                    // owned by the reading task; same layout argument as
                    // `row_span`.
                    Some(chunk) => d.copy_from_slice(unsafe {
                        std::slice::from_raw_parts(chunk[idx].get() as *const C, d.len())
                    }),
                    None => d.fill(C::default()),
                }
            },
        );
    }

    /// Bulk-write row cells from `values`.
    ///
    /// # Safety
    ///
    /// Same as [`SparseGrid::write`], slice-wide: the caller holds write
    /// rights to every cell, and every touched chunk is prepared.
    unsafe fn write_row_cells(&self, row: u32, col_start: u32, values: &[C]) {
        self.for_row_segments(
            row,
            col_start,
            col_start + values.len() as u32,
            |key, idx, c, end| {
                let chunk = self
                    .chunks
                    .get(&key)
                    .expect("write to unprepared chunk: prepare() must cover every task region");
                let src = &values[(c - col_start) as usize..(end - col_start) as usize];
                // SAFETY: caller contract; the segment stays inside one chunk
                // row, so the destination range is in bounds.
                unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), chunk[idx].get(), src.len()) };
            },
        );
    }
}

impl<C: Cell> NodeStorage<C> for SparseGrid<C> {
    type View<'a> = SparseView<'a, C>;

    fn new(dims: GridDims) -> Self {
        Self {
            dims,
            chunks: HashMap::new(),
        }
    }

    fn prepare(&mut self, regions: &[TileRegion]) {
        for region in regions {
            if region.is_empty() {
                continue;
            }
            for cr in region.row_start / CHUNK..=(region.row_end - 1) / CHUNK {
                for cc in region.col_start / CHUNK..=(region.col_end - 1) / CHUNK {
                    self.ensure_chunk(cr, cc);
                }
            }
        }
    }

    fn decode_region(&mut self, region: TileRegion, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            region.area() as usize * C::WIRE_SIZE,
            "byte length does not match region {region:?}"
        );
        if region.cols() == 0 {
            return;
        }
        self.prepare(&[region]);
        let row_bytes = region.cols() as usize * C::WIRE_SIZE;
        let mut scratch = vec![C::default(); region.cols() as usize];
        for (r, chunk) in (region.row_start..region.row_end).zip(bytes.chunks_exact(row_bytes)) {
            C::decode_slice(&mut scratch, chunk);
            // SAFETY: &mut self = exclusive; chunks just prepared.
            unsafe { self.write_row_cells(r, region.col_start, &scratch) };
        }
    }

    fn encode_region_into(&mut self, region: TileRegion, out: &mut Vec<u8>) {
        let mut scratch = vec![C::default(); region.cols() as usize];
        for r in region.row_start..region.row_end {
            self.read_row_cells(r, region.col_start, &mut scratch);
            C::encode_slice(&scratch, out);
        }
    }

    unsafe fn task_view(&self, region: TileRegion) -> SparseView<'_, C> {
        SparseView { grid: self, region }
    }

    fn allocated_bytes(&self) -> u64 {
        self.chunks.len() as u64 * (CHUNK as u64 * CHUNK as u64) * std::mem::size_of::<C>() as u64
    }
}

/// Task view over a [`SparseGrid`].
pub struct SparseView<'g, C: Cell> {
    grid: &'g SparseGrid<C>,
    region: TileRegion,
}

impl<C: Cell> DpGrid<C> for SparseView<'_, C> {
    fn dims(&self) -> GridDims {
        self.grid.dims
    }

    #[inline]
    fn get(&self, row: u32, col: u32) -> C {
        self.grid.read(row, col)
    }

    #[inline]
    fn set(&mut self, row: u32, col: u32, value: C) {
        // Hot path: the region check is a debug assertion; release builds
        // rely on the DAG schedule (and the bulk write_row check).
        debug_assert!(
            self.region.contains(GridPos::new(row, col)),
            "task wrote ({row},{col}) outside its region {:?}",
            self.region
        );
        // SAFETY: in-region writes are exclusive per the view contract;
        // the slave prepares every task region before the pool starts.
        unsafe { self.grid.write(row, col, value) }
    }

    fn row_slice(&self, row: u32, col_start: u32, col_end: u32) -> Option<&[C]> {
        // SAFETY: the view's read contract (cells finalized or owned) is
        // exactly row_span's no-concurrent-writer requirement.
        unsafe { self.grid.row_span(row, col_start, col_end) }
    }

    fn read_row_into(&self, row: u32, col_start: u32, dst: &mut [C]) {
        self.grid.read_row_cells(row, col_start, dst);
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
        unsafe { self.grid.write_row_cells(row, col_start, values) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_reads_default_when_unallocated() {
        let g = SparseGrid::<i32>::new(GridDims::square(1000));
        assert_eq!(g.read(999, 999), 0);
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn sparse_decode_encode_roundtrip() {
        let mut g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::square(500));
        let region = TileRegion::new(100, 164, 200, 280);
        let bytes: Vec<u8> = (0..region.area() as usize * 4)
            .map(|i| (i % 251) as u8)
            .collect();
        g.decode_region(region, &bytes);
        let mut out = Vec::new();
        g.encode_region_into(region, &mut out);
        assert_eq!(out, bytes);
        // Only the touched chunks exist: rows 100..164 span chunks 1..=2,
        // cols 200..280 span chunks 3..=4 -> at most 6 chunks.
        assert!(g.chunk_count() <= 6, "{} chunks", g.chunk_count());
    }

    #[test]
    fn sparse_task_view_reads_and_writes() {
        let mut g = <SparseGrid<i64> as NodeStorage<i64>>::new(GridDims::square(300));
        let region = TileRegion::new(64, 128, 64, 128);
        g.prepare(&[region]);
        let mut v = unsafe { g.task_view(region) };
        v.set(100, 100, 42);
        assert_eq!(v.get(100, 100), 42);
        assert_eq!(v.get(0, 0), 0, "unallocated reads default");
    }

    #[test]
    fn sparse_row_ops_cross_chunks() {
        let mut g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::new(4, 300));
        let region = TileRegion::new(0, 4, 30, 200); // spans chunks 0..=3
        g.prepare(&[region]);
        let mut v = unsafe { g.task_view(region) };
        let vals: Vec<i32> = (0..170).collect();
        v.write_row(2, 30, &vals);
        // Within one chunk the row is a real slice...
        assert_eq!(v.row_slice(2, 64, 128), Some(&vals[34..98]));
        // ...across chunks it is not, but read_row_into reassembles it.
        assert_eq!(v.row_slice(2, 30, 200), None);
        let mut back = vec![0i32; 170];
        v.read_row_into(2, 30, &mut back);
        assert_eq!(back, vals);
        // Reads reaching into unallocated chunks yield defaults.
        let mut edge = vec![-1i32; 150];
        v.read_row_into(2, 150, &mut edge);
        assert_eq!(&edge[..50], &vals[120..]);
        assert_eq!(&edge[50..], &[0i32; 100]);
    }

    // `set`'s region check is a debug assertion (hot path); only the bulk
    // `write_row` check fires in release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside its region")]
    fn sparse_view_rejects_out_of_region_write() {
        let mut g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::square(100));
        let region = TileRegion::new(0, 10, 0, 10);
        g.prepare(&[region]);
        let mut v = unsafe { g.task_view(region) };
        v.set(50, 50, 1);
    }

    #[test]
    #[should_panic(expected = "outside its region")]
    fn sparse_view_rejects_out_of_region_row_write() {
        let mut g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::square(100));
        let region = TileRegion::new(0, 10, 0, 10);
        g.prepare(&[region]);
        let mut v = unsafe { g.task_view(region) };
        v.write_row(5, 8, &[1, 2, 3]); // cols [8,11) spill out of [0,10)
    }

    #[test]
    #[should_panic(expected = "unprepared chunk")]
    fn sparse_write_without_prepare_panics() {
        let g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::square(100));
        let mut v = unsafe { g.task_view(TileRegion::new(0, 10, 0, 10)) };
        v.set(5, 5, 1);
    }

    #[test]
    fn sparse_allocates_proportionally() {
        let mut g = <SparseGrid<i32> as NodeStorage<i32>>::new(GridDims::square(10_000));
        // A 10000^2 dense i32 grid would be 400 MB; touch one 128x128 area.
        g.prepare(&[TileRegion::new(5_000, 5_128, 5_000, 5_128)]);
        assert!(
            g.allocated_bytes() <= 9 * 64 * 64 * 4,
            "{} bytes",
            g.allocated_bytes()
        );
    }

    #[test]
    fn dense_storage_trait_roundtrip() {
        let mut g = <SharedGrid<i32> as NodeStorage<i32>>::new(GridDims::square(8));
        let region = TileRegion::new(2, 6, 2, 6);
        let bytes: Vec<u8> = (0..region.area() as usize * 4).map(|i| i as u8).collect();
        NodeStorage::decode_region(&mut g, region, &bytes);
        let mut out = Vec::new();
        NodeStorage::encode_region_into(&mut g, region, &mut out);
        assert_eq!(out, bytes);
        assert_eq!(NodeStorage::allocated_bytes(&g), 8 * 8 * 4);
    }

    #[test]
    fn sparse_concurrent_disjoint_writers() {
        let mut g = <SparseGrid<i64> as NodeStorage<i64>>::new(GridDims::new(2, 200));
        let top = TileRegion::new(0, 1, 0, 200);
        let bottom = TileRegion::new(1, 2, 0, 200);
        g.prepare(&[top, bottom]);
        std::thread::scope(|s| {
            let vt = unsafe { g.task_view(top) };
            let vb = unsafe { g.task_view(bottom) };
            s.spawn(move || {
                let mut v = vt;
                for c in 0..200 {
                    v.set(0, c, c as i64);
                }
            });
            s.spawn(move || {
                let mut v = vb;
                for c in 0..200 {
                    v.set(1, c, -(c as i64));
                }
            });
        });
        for c in 0..200u32 {
            assert_eq!(g.read(0, c), c as i64);
            assert_eq!(g.read(1, c), -(c as i64));
        }
    }
}
