//! What a checkpoint directory holds: finished master-DAG sub-tasks
//! with their matrix regions, in the entries codec every segment file
//! carries, and the structural checks a set of them must pass before a
//! master may trust it.
//!
//! The paper's fault tolerance covers slave failures; a master failure
//! loses the whole run. The checkpoint directory ([`crate::durable`])
//! closes that gap, and [`Checkpoint`] is its read-only view.

use easyhps_core::{TileRegion, VertexId};
use easyhps_net::{WireError, WireReader, WireWriter};

/// Finished master-DAG sub-tasks: `(dense id, region, cells)`.
pub(crate) type Entries = Vec<(u32, TileRegion, Vec<u8>)>;

/// The finished sub-tasks a checkpoint directory holds, as
/// [`Checkpoint::load_dir`] reads them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Matrix extent the directory was written for.
    rows: u32,
    cols: u32,
    finished: Entries,
}

/// Validate a decoded entry set against the claimed matrix extent:
/// every region in-matrix and non-empty, no duplicate vertex ids, no
/// overlapping regions, and at least one byte of cell data per cell (no
/// cell encoding is narrower than a byte). A checkpoint directory is the
/// master's source of truth on resume, so nothing structurally unsound
/// may get past its scan.
pub(crate) fn validate_entries(
    rows: u32,
    cols: u32,
    finished: &[(u32, TileRegion, Vec<u8>)],
) -> Result<(), WireError> {
    let mut ids = std::collections::HashSet::with_capacity(finished.len());
    // Cell-granular occupancy: two regions overlap iff they share a cell.
    // Total work is bounded by the total cell bytes (>= 1 byte per cell),
    // which is bounded by the segments the entries were decoded from.
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

/// The entries codec: `rows, cols, count`, then per entry `id, region,
/// length-prefixed cell bytes`. A segment file's payload is exactly
/// this.
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
/// validation ([`validate_entries`]) runs on the merged set of a
/// directory's segments.
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
    /// Assemble a checkpoint from the merged entries of a directory's
    /// segments, applying [`validate_entries`].
    pub(crate) fn from_parts(rows: u32, cols: u32, finished: Entries) -> Result<Self, WireError> {
        validate_entries(rows, cols, &finished)?;
        Ok(Self {
            rows,
            cols,
            finished,
        })
    }

    /// Matrix extent the directory was written for.
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
}
