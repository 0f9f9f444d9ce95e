//! Master-side checkpoint/restart.
//!
//! The paper's fault tolerance covers slave failures; a master failure
//! loses the whole run. A [`Checkpoint`] closes that gap: it captures the
//! set of finished master-DAG sub-tasks together with their matrix
//! regions, serialized with the same wire codec as the protocol, so a new
//! master can resume exactly where the old one stopped — only unfinished
//! sub-tasks are re-dispatched.

use easyhps_core::{DagDataDrivenModel, TaskDag, TileRegion, VertexId};
use easyhps_dp::{Cell, DpMatrix};
use easyhps_net::{WireError, WireReader, WireWriter};

/// Magic header guarding against feeding a checkpoint to the wrong
/// decoder.
const MAGIC: u32 = 0x4850_5343; // "CSPH"

/// Finished master-DAG sub-tasks: `(dense id, region, cells)`.
pub(crate) type Entries = Vec<(u32, TileRegion, Vec<u8>)>;

/// A resumable snapshot of a partially executed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Matrix extent (consistency check on resume).
    rows: u32,
    cols: u32,
    finished: Entries,
}

/// Validate a decoded entry set against the claimed matrix extent:
/// every region in-matrix and non-empty, no duplicate vertex ids, no
/// overlapping regions, and at least one byte of cell data per cell (no
/// cell encoding is narrower than a byte). Shared by [`Checkpoint::
/// from_bytes`] and the durable segment loader — a checkpoint is the
/// master's source of truth on resume, so nothing structurally unsound
/// may get past decode.
pub(crate) fn validate_entries(
    rows: u32,
    cols: u32,
    finished: &[(u32, TileRegion, Vec<u8>)],
) -> Result<(), WireError> {
    let mut ids = std::collections::HashSet::with_capacity(finished.len());
    // Cell-granular occupancy: two regions overlap iff they share a cell.
    // Total work is bounded by the total cell bytes (>= 1 byte per cell),
    // which is bounded by the blob the entries were decoded from.
    let mut cells = std::collections::HashSet::new();
    for (id, region, bytes) in finished {
        if !ids.insert(*id) {
            return Err(WireError {
                context: "checkpoint duplicate vertex id",
            });
        }
        if region.row_start >= region.row_end || region.col_start >= region.col_end {
            return Err(WireError {
                context: "checkpoint empty or inverted region",
            });
        }
        if region.row_end > rows || region.col_end > cols {
            return Err(WireError {
                context: "checkpoint region outside matrix",
            });
        }
        let area =
            (region.row_end - region.row_start) as u64 * (region.col_end - region.col_start) as u64;
        if (bytes.len() as u64) < area {
            return Err(WireError {
                context: "checkpoint cell bytes shorter than region",
            });
        }
        for row in region.row_start..region.row_end {
            for col in region.col_start..region.col_end {
                if !cells.insert(row as u64 * cols as u64 + col as u64) {
                    return Err(WireError {
                        context: "checkpoint overlapping regions",
                    });
                }
            }
        }
    }
    Ok(())
}

/// The one entries codec: `rows, cols, count`, then per entry `id,
/// region, length-prefixed cell bytes`. A durable segment's body is
/// exactly this; the in-memory blob is [`MAGIC`] followed by it.
pub(crate) fn encode_entries(
    rows: u32,
    cols: u32,
    entries: &[(u32, TileRegion, Vec<u8>)],
) -> Vec<u8> {
    let payload: usize = entries.iter().map(|(_, _, b)| b.len() + 24).sum();
    let mut w = WireWriter::with_capacity(16 + payload);
    w.put_u32(rows).put_u32(cols);
    w.put_u32(entries.len() as u32);
    for (id, region, bytes) in entries {
        w.put_u32(*id)
            .put_u32(region.row_start)
            .put_u32(region.row_end)
            .put_u32(region.col_start)
            .put_u32(region.col_end)
            .put_bytes(bytes);
    }
    w.finish().to_vec()
}

/// Decode what [`encode_entries`] wrote, to the end of the reader. Only
/// the shape and a sane entry count are enforced here; structural
/// validation ([`validate_entries`]) runs on the set the caller ends up
/// with (for segments, the merged one).
pub(crate) fn decode_entries(r: &mut WireReader<'_>) -> Result<(u32, u32, Entries), WireError> {
    let rows = r.get_u32()?;
    let cols = r.get_u32()?;
    let n = r.get_u32()?;
    // Every entry takes at least 24 bytes (id + region + length
    // prefix); a count the remaining bytes cannot hold is corrupt.
    // Checked *before* the allocation sized by it.
    if n as u64 * 24 > r.remaining() as u64 {
        return Err(WireError {
            context: "checkpoint entry count exceeds buffer",
        });
    }
    let mut entries = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let id = r.get_u32()?;
        let region = TileRegion::new(r.get_u32()?, r.get_u32()?, r.get_u32()?, r.get_u32()?);
        entries.push((id, region, r.get_bytes()?.to_vec()));
    }
    r.expect_end()?;
    Ok((rows, cols, entries))
}

impl Checkpoint {
    /// Capture the finished sub-tasks of a run: `finished` lists dense
    /// master-DAG vertex ids whose regions in `matrix` hold final values.
    pub fn capture<C: Cell>(
        model: &DagDataDrivenModel,
        dag: &TaskDag,
        matrix: &DpMatrix<C>,
        finished: impl IntoIterator<Item = VertexId>,
    ) -> Self {
        let dims = matrix.dims();
        let finished = finished
            .into_iter()
            .map(|v| {
                let region = model.tile_region(dag.vertex(v).pos);
                (v.0, region, matrix.encode_region(region))
            })
            .collect();
        Self {
            rows: dims.rows,
            cols: dims.cols,
            finished,
        }
    }

    /// Assemble a checkpoint from already-decoded parts, applying the
    /// same structural validation as [`Self::from_bytes`]. Used by the
    /// durable segment loader after merging on-disk segments.
    pub(crate) fn from_parts(rows: u32, cols: u32, finished: Entries) -> Result<Self, WireError> {
        validate_entries(rows, cols, &finished)?;
        Ok(Self {
            rows,
            cols,
            finished,
        })
    }

    /// Matrix extent the checkpoint was captured for.
    #[cfg(test)]
    pub(crate) fn extent(&self) -> (u32, u32) {
        (self.rows, self.cols)
    }

    /// Number of finished sub-tasks recorded.
    pub fn finished_len(&self) -> usize {
        self.finished.len()
    }

    /// Ids of the finished sub-tasks.
    pub fn finished_tasks(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.finished.iter().map(|(id, _, _)| VertexId(*id))
    }

    /// Write the recorded regions back into `matrix` (resume path).
    /// Panics if the matrix extent differs from the captured one.
    pub fn restore_into<C: Cell>(&self, matrix: &mut DpMatrix<C>) {
        assert_eq!(
            (matrix.dims().rows, matrix.dims().cols),
            (self.rows, self.cols),
            "checkpoint was captured for a different matrix size"
        );
        for (_, region, bytes) in &self.finished {
            matrix.decode_region(*region, bytes);
        }
    }

    /// Serialize to bytes (stable format: magic, then the same body a
    /// durable segment carries — dims, count, entries).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = encode_entries(self.rows, self.cols, &self.finished);
        [&MAGIC.to_le_bytes()[..], &body].concat()
    }

    /// Decode from bytes produced by [`Self::to_bytes`], rejecting
    /// structurally unsound data: duplicate vertex ids, empty or
    /// out-of-matrix regions, overlapping regions, and entry counts the
    /// buffer cannot possibly hold (so a hostile length prefix cannot
    /// drive a huge allocation).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        if r.get_u32()? != MAGIC {
            return Err(WireError {
                context: "checkpoint magic",
            });
        }
        let (rows, cols, finished) = decode_entries(&mut r)?;
        Self::from_parts(rows, cols, finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::{DagParser, GridDims, PatternKind};
    use easyhps_dp::{DpProblem, EditDistance};

    fn setup() -> (DagDataDrivenModel, TaskDag, DpMatrix<i32>, EditDistance) {
        let p = EditDistance::new(b"checkpointing".to_vec(), b"checkpoints".to_vec());
        let model = DagDataDrivenModel::from_library(
            PatternKind::Wavefront2D,
            p.dims(),
            GridDims::square(4),
            GridDims::square(2),
        );
        let dag = model.master_dag();
        let m = DpMatrix::new(p.dims());
        (model, dag, m, p)
    }

    #[test]
    fn roundtrip_bytes() {
        let (model, dag, mut m, p) = setup();
        // Finish the first five tiles in topological order.
        let mut done = Vec::new();
        let mut parser = DagParser::new(&dag);
        for _ in 0..5 {
            let v = parser.pop_computable().unwrap();
            p.compute_region(&mut m, model.tile_region(dag.vertex(v).pos));
            parser.complete(&dag, v, None).unwrap();
            done.push(v);
        }
        let cp = Checkpoint::capture(&model, &dag, &m, done.clone());
        assert_eq!(cp.finished_len(), 5);
        let decoded = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(decoded, cp);

        // Restoring into a fresh matrix reproduces exactly those regions.
        let mut m2 = DpMatrix::<i32>::new(m.dims());
        decoded.restore_into(&mut m2);
        for v in done {
            let region = model.tile_region(dag.vertex(v).pos);
            for pos in region.iter() {
                assert_eq!(m2.at(pos), m.at(pos), "cell {pos}");
            }
        }
    }

    /// The blob format is an on-disk/over-the-wire contract: these bytes
    /// were captured before the blob and the durable segment body were
    /// made to share one codec, and must never move.
    #[test]
    fn blob_bytes_are_golden() {
        let cells: Vec<u8> = (1..=16).collect();
        let cp =
            Checkpoint::from_parts(4, 4, vec![(7, TileRegion::new(0, 2, 2, 4), cells)]).unwrap();
        let golden: &[u8] = &[
            0x43, 0x53, 0x50, 0x48, // "CSPH"
            4, 0, 0, 0, 4, 0, 0, 0, // rows, cols
            1, 0, 0, 0, // one entry
            7, 0, 0, 0, // vertex id
            0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, // region
            16, 0, 0, 0, // cell-bytes length
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        ];
        assert_eq!(cp.to_bytes(), golden);
        assert_eq!(Checkpoint::from_bytes(golden).unwrap(), cp);
    }

    #[test]
    fn rejects_garbage_and_wrong_magic() {
        assert!(Checkpoint::from_bytes(&[1, 2, 3]).is_err());
        let (model, dag, m, _) = setup();
        let cp = Checkpoint::capture::<i32>(&model, &dag, &m, []);
        let mut bytes = cp.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        bytes[0] ^= 0xFF;
        bytes.push(9); // trailing garbage
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "different matrix size")]
    fn restore_into_wrong_size_panics() {
        let (model, dag, m, _) = setup();
        let cp = Checkpoint::capture::<i32>(&model, &dag, &m, []);
        let mut wrong = DpMatrix::<i32>::new(GridDims::square(3));
        cp.restore_into(&mut wrong);
    }

    /// Encode a raw checkpoint blob without going through `capture`, so
    /// structurally unsound entry sets can be fed to `from_bytes`.
    fn raw_blob(rows: u32, cols: u32, entries: &[(u32, TileRegion, Vec<u8>)]) -> Vec<u8> {
        [
            &MAGIC.to_le_bytes()[..],
            &encode_entries(rows, cols, entries),
        ]
        .concat()
    }

    fn region_entry(id: u32, r0: u32, r1: u32, c0: u32, c1: u32) -> (u32, TileRegion, Vec<u8>) {
        let area = ((r1.saturating_sub(r0)) * (c1.saturating_sub(c0))) as usize;
        (
            id,
            TileRegion::new(r0, r1, c0, c1),
            vec![1; area.max(1) * 4],
        )
    }

    fn rejects(blob: &[u8], why: &str) {
        let err = Checkpoint::from_bytes(blob).expect_err(why);
        assert!(err.to_string().contains(why), "{err} should mention {why}");
    }

    #[test]
    fn rejects_duplicate_vertex_ids() {
        let blob = raw_blob(
            8,
            8,
            &[region_entry(3, 0, 2, 0, 2), region_entry(3, 2, 4, 2, 4)],
        );
        rejects(&blob, "duplicate vertex id");
    }

    #[test]
    fn rejects_overlapping_regions() {
        let blob = raw_blob(
            8,
            8,
            &[region_entry(0, 0, 3, 0, 3), region_entry(1, 2, 5, 2, 5)],
        );
        rejects(&blob, "overlapping regions");
    }

    #[test]
    fn rejects_out_of_matrix_region() {
        let blob = raw_blob(8, 8, &[region_entry(0, 6, 9, 0, 2)]);
        rejects(&blob, "outside matrix");
    }

    #[test]
    fn rejects_empty_and_inverted_regions() {
        let blob = raw_blob(8, 8, &[region_entry(0, 2, 2, 0, 2)]);
        rejects(&blob, "empty or inverted region");
        let blob = raw_blob(8, 8, &[region_entry(0, 4, 2, 0, 2)]);
        rejects(&blob, "empty or inverted region");
    }

    #[test]
    fn rejects_cell_bytes_shorter_than_region() {
        let blob = raw_blob(8, 8, &[(0, TileRegion::new(0, 4, 0, 4), vec![1; 3])]);
        rejects(&blob, "cell bytes shorter than region");
    }

    /// A hostile entry count must be rejected *before* any allocation
    /// sized by it — `u32::MAX` entries "fit" in 16 bytes of header only
    /// if nobody checks.
    #[test]
    fn rejects_entry_count_exceeding_buffer_without_allocating() {
        let mut w = WireWriter::new();
        w.put_u32(MAGIC).put_u32(8).put_u32(8).put_u32(u32::MAX);
        rejects(&w.finish(), "entry count exceeds buffer");
    }
}
