//! Durable incremental checkpointing.
//!
//! The in-memory [`Checkpoint`](crate::Checkpoint) survives a *graceful*
//! stop (tile budget, caller-driven restart) but dies with the master
//! process. This module puts the checkpoint on disk, incrementally, so a
//! hard master kill loses at most the tiles accepted since the last
//! capture:
//!
//! * The master appends **segment files** (`seg-00000000.bin`,
//!   `seg-00000001.bin`, …) to a checkpoint directory. Each segment
//!   carries only the tiles finished since the previous capture, so
//!   capture cost is proportional to recent progress, not to the whole
//!   matrix, and stays off the DONE hot path (capture cadence is set by
//!   [`CheckpointPolicy`], not by message arrival).
//! * Every segment is covered by a CRC-32C in its header; a torn or
//!   bit-rotted tail (the segment being written when the master died) is
//!   detected on load and discarded together with everything after it —
//!   prefix-consistency, the standard write-ahead-log rule.
//! * A small **manifest** (`MANIFEST`) names the live segments and the
//!   matrix extent. It is replaced atomically (write `MANIFEST.tmp`,
//!   fsync, rename) so a crash mid-update leaves either the old or the
//!   new manifest, never a half-written one. Loading works even with no
//!   manifest at all by probing consecutive segment indices from zero.
//! * When the directory accumulates more than
//!   [`CheckpointPolicy::compact_after`] live segments, the store merges
//!   them into one fresh segment and deletes the originals, bounding both
//!   file count and replay time.
//!
//! On restart, [`Checkpoint::load_dir`] replays the segments (manifest
//! order first, then any appended tail), merges entries first-wins by
//! vertex id, validates the merged set with the same structural checks as
//! [`Checkpoint::from_bytes`], and hands the result to the existing
//! resume path.

use crate::checkpoint::{decode_entries, encode_entries, validate_entries, Entries};
use crate::error::RuntimeError;
use crate::Checkpoint;
use easyhps_core::TileRegion;
use easyhps_net::{crc32c, WireReader, WireWriter};
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic header of a segment file.
const MAGIC_SEG: u32 = 0x4853_4547; // "GESH"
/// Magic header of the manifest.
const MAGIC_MAN: u32 = 0x484E_414D; // "MANH"
/// Manifest file name inside the checkpoint directory.
const MANIFEST: &str = "MANIFEST";

/// When and where the master captures durable checkpoints.
///
/// Both triggers are evaluated *between* scheduler iterations, never while
/// a DONE message is being accepted: a capture flushes the tiles accepted
/// since the previous one, so raising the thresholds trades re-computed
/// work after a crash against capture overhead during the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding segments and manifest. Created if missing.
    pub dir: PathBuf,
    /// Capture after this many newly accepted tiles (0 disables the
    /// tile-count trigger).
    pub every_tiles: u64,
    /// Also capture when this much time passed since the last capture and
    /// at least one new tile was accepted (`None` disables).
    pub every: Option<Duration>,
    /// Merge live segments into one once more than this many accumulate.
    pub compact_after: usize,
}

impl CheckpointPolicy {
    /// Policy writing to `dir` with the defaults: capture every 32 tiles,
    /// no time trigger, compact beyond 8 live segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_tiles: 32,
            every: None,
            compact_after: 8,
        }
    }

    /// Capture after `n` newly accepted tiles (0 disables this trigger).
    pub fn with_every_tiles(mut self, n: u64) -> Self {
        self.every_tiles = n;
        self
    }

    /// Also capture whenever `d` elapsed since the last capture.
    pub fn with_interval(mut self, d: Duration) -> Self {
        self.every = Some(d);
        self
    }

    /// Compact once more than `n` live segments accumulate.
    pub fn with_compact_after(mut self, n: usize) -> Self {
        self.compact_after = n;
        self
    }
}

/// What a directory scan recovered.
struct ScannedDir {
    rows: u32,
    cols: u32,
    /// Merged entries, first-wins by vertex id, torn tail discarded.
    entries: Entries,
    /// Segments that replayed cleanly, in logical order.
    live_segs: Vec<u64>,
    /// One past the highest segment index *seen* (valid or torn), so new
    /// appends never collide with a leftover file.
    next_seg: u64,
}

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("seg-{idx:08}.bin"))
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> RuntimeError {
    RuntimeError::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// Frame a body as `[magic][crc32c(body)][len][body]` — shared by
/// segments and the manifest.
fn frame_file(magic: u32, body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(12 + body.len());
    w.put_u32(magic).put_u32(crc32c(body)).put_bytes(body);
    w.finish().to_vec()
}

/// Open a framed file; `Err(())` means missing, torn or corrupt —
/// indistinguishable on purpose, the caller treats all three as "not
/// there".
fn read_framed(path: &Path, magic: u32) -> Result<Vec<u8>, ()> {
    let buf = fs::read(path).map_err(|_| ())?;
    let mut r = WireReader::new(&buf);
    if r.get_u32().map_err(|_| ())? != magic {
        return Err(());
    }
    let crc = r.get_u32().map_err(|_| ())?;
    let body = r.get_bytes().map_err(|_| ())?;
    r.expect_end().map_err(|_| ())?;
    if crc32c(body) != crc {
        return Err(());
    }
    Ok(body.to_vec())
}

/// Write `bytes` to `path` via a temp file + atomic rename, fsyncing the
/// data before the rename so the final name never points at a torn file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RuntimeError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))
}

fn read_segment(path: &Path) -> Result<(u32, u32, Entries), ()> {
    let body = read_framed(path, MAGIC_SEG)?;
    decode_entries(&mut WireReader::new(&body)).map_err(|_| ())
}

/// Manifest body: dims + the live segment indices in logical order.
fn read_manifest(dir: &Path) -> Option<(u32, u32, Vec<u64>)> {
    let body = read_framed(&dir.join(MANIFEST), MAGIC_MAN).ok()?;
    let mut r = WireReader::new(&body);
    let rows = r.get_u32().ok()?;
    let cols = r.get_u32().ok()?;
    let n = r.get_u32().ok()?;
    if n as u64 * 8 > r.remaining() as u64 {
        return None;
    }
    let mut segs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        segs.push(r.get_u64().ok()?);
    }
    r.expect_end().ok()?;
    Some((rows, cols, segs))
}

/// Replay a checkpoint directory. `Ok(None)` means "no store here" (the
/// directory is missing or holds neither manifest nor segments). A torn
/// or corrupt segment discards itself and every later segment; it is
/// *not* an error — that is the expected state after a mid-write crash.
fn scan_dir(dir: &Path) -> Result<Option<ScannedDir>, RuntimeError> {
    if !dir.exists() {
        return Ok(None);
    }
    let manifest = read_manifest(dir);
    let (mut dims, listed) = match &manifest {
        Some((r, c, segs)) => (Some((*r, *c)), segs.clone()),
        None => (None, Vec::new()),
    };
    // Logical order: manifest-listed segments first, then any segments
    // appended after the manifest was last written (tail probe).
    let mut order = listed;
    let mut probe = order.iter().copied().max().map_or(0, |m| m + 1);
    while seg_path(dir, probe).exists() {
        order.push(probe);
        probe += 1;
    }
    if manifest.is_none() && order.is_empty() {
        return Ok(None);
    }
    let next_seg = order.iter().copied().max().map_or(0, |m| m + 1);

    let mut entries: Entries = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    let mut live_segs = Vec::new();
    for idx in &order {
        match read_segment(&seg_path(dir, *idx)) {
            Ok((rows, cols, segs)) => {
                if dims.is_some_and(|d| d != (rows, cols)) {
                    // A segment for a different matrix cannot belong to
                    // this run's tail — stop replaying here.
                    break;
                }
                dims = Some((rows, cols));
                live_segs.push(*idx);
                for e in segs {
                    // First-wins: a tile can be re-flushed after a
                    // compaction race, the earliest copy is authoritative.
                    if seen.insert(e.0) {
                        entries.push(e);
                    }
                }
            }
            Err(()) => break, // torn tail: discard this and all later
        }
    }
    let Some((rows, cols)) = dims else {
        // Segments existed but none replayed cleanly and there was no
        // manifest to recover dims from: nothing usable.
        return Ok(None);
    };
    Ok(Some(ScannedDir {
        rows,
        cols,
        entries,
        live_segs,
        next_seg,
    }))
}

impl Checkpoint {
    /// Load a durable checkpoint directory written by a previous run.
    ///
    /// Returns `Ok(None)` when the directory does not exist or holds no
    /// store. Torn or corrupt trailing segments are silently discarded
    /// (that is the normal post-crash state); an *internally
    /// inconsistent* surviving prefix — duplicate ids across segments
    /// resolve first-wins, but overlapping regions or out-of-matrix data
    /// do not — is an error.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Option<Self>, RuntimeError> {
        let dir = dir.as_ref();
        match scan_dir(dir)? {
            None => Ok(None),
            Some(s) => Checkpoint::from_parts(s.rows, s.cols, s.entries)
                .map(Some)
                .map_err(|e| {
                    RuntimeError::Checkpoint(format!("checkpoint dir {}: {e}", dir.display()))
                }),
        }
    }
}

/// The master's handle on an open checkpoint directory.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    rows: u32,
    cols: u32,
    next_seg: u64,
    live_segs: Vec<u64>,
    /// Ids already durable on disk — appends filter against this so a
    /// resumed run never re-writes tiles the directory already holds.
    durable: HashSet<u32>,
    compact_after: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `policy.dir` for a matrix
    /// of `rows x cols`. `resuming` says whether the caller is feeding a
    /// resume checkpoint to the master: a directory holding prior
    /// progress is an error otherwise, so a typo'd `--checkpoint-dir`
    /// cannot silently interleave two different runs.
    pub(crate) fn open(
        policy: &CheckpointPolicy,
        rows: u32,
        cols: u32,
        resuming: bool,
    ) -> Result<Self, RuntimeError> {
        let dir = policy.dir.clone();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let scanned = scan_dir(&dir)?;
        let mut store = Self {
            dir: dir.clone(),
            rows,
            cols,
            next_seg: 0,
            live_segs: Vec::new(),
            durable: HashSet::new(),
            compact_after: policy.compact_after.max(1),
        };
        if let Some(s) = scanned {
            if (s.rows, s.cols) != (rows, cols) {
                return Err(RuntimeError::Checkpoint(format!(
                    "checkpoint dir {} was written for a {}x{} matrix, this run is {}x{}",
                    dir.display(),
                    s.rows,
                    s.cols,
                    rows,
                    cols
                )));
            }
            if !resuming && !s.entries.is_empty() {
                return Err(RuntimeError::Checkpoint(format!(
                    "checkpoint dir {} already holds {} finished tile(s) from a previous run; \
                     pass --resume to continue that run, or point --checkpoint-dir at a fresh \
                     (empty) directory to start over",
                    dir.display(),
                    s.entries.len()
                )));
            }
            validate_entries(rows, cols, &s.entries).map_err(|e| {
                RuntimeError::Checkpoint(format!("checkpoint dir {}: {e}", dir.display()))
            })?;
            store.next_seg = s.next_seg;
            store.live_segs = s.live_segs;
            store.durable = s.entries.iter().map(|(id, _, _)| *id).collect();
            store.cleanup_stale();
        }
        Ok(store)
    }

    /// Whether `id` is already durable on disk.
    pub(crate) fn is_durable(&self, id: u32) -> bool {
        self.durable.contains(&id)
    }

    /// Append `entries` as one new segment, then update the manifest and
    /// compact if the policy says so. Entries already durable are skipped.
    /// Returns the number of segment bytes written (0 = nothing new).
    pub(crate) fn append(
        &mut self,
        entries: &[(u32, TileRegion, Vec<u8>)],
    ) -> Result<u64, RuntimeError> {
        let fresh: Vec<_> = entries
            .iter()
            .filter(|(id, _, _)| !self.durable.contains(id))
            .cloned()
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let body = encode_entries(self.rows, self.cols, &fresh);
        let file = frame_file(MAGIC_SEG, &body);
        let idx = self.next_seg;
        let path = seg_path(&self.dir, idx);
        // The segment itself goes through the same fsync'd temp-file
        // rename as the manifest: the WAL rule only needs the *tail* to
        // be detectably torn, but atomic publication means a crash
        // mid-capture leaves no file at all rather than a torn one, so
        // the next append never has to skip an index.
        write_atomic(&path, &file)?;
        self.next_seg += 1;
        self.live_segs.push(idx);
        self.durable.extend(fresh.iter().map(|(id, _, _)| *id));
        self.write_manifest()?;
        if self.live_segs.len() > self.compact_after {
            self.compact()?;
        }
        Ok(file.len() as u64)
    }

    /// Merge every live segment into one and delete the originals.
    fn compact(&mut self) -> Result<(), RuntimeError> {
        let mut entries: Entries = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for idx in &self.live_segs {
            let path = seg_path(&self.dir, *idx);
            let (_, _, segs) = read_segment(&path).map_err(|()| {
                RuntimeError::Checkpoint(format!(
                    "compaction re-read failed for {}",
                    path.display()
                ))
            })?;
            for e in segs {
                if seen.insert(e.0) {
                    entries.push(e);
                }
            }
        }
        let body = encode_entries(self.rows, self.cols, &entries);
        let idx = self.next_seg;
        write_atomic(&seg_path(&self.dir, idx), &frame_file(MAGIC_SEG, &body))?;
        self.next_seg += 1;
        let old = std::mem::replace(&mut self.live_segs, vec![idx]);
        // Publish the new manifest before deleting the merged inputs: a
        // crash between the two steps leaves extra files, never data loss.
        self.write_manifest()?;
        for i in old {
            let _ = fs::remove_file(seg_path(&self.dir, i));
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), RuntimeError> {
        let mut w = WireWriter::with_capacity(12 + self.live_segs.len() * 8);
        w.put_u32(self.rows).put_u32(self.cols);
        w.put_u32(self.live_segs.len() as u32);
        for idx in &self.live_segs {
            w.put_u64(*idx);
        }
        let body = w.finish().to_vec();
        write_atomic(&self.dir.join(MANIFEST), &frame_file(MAGIC_MAN, &body))
    }

    /// Delete segment files the scan discarded (torn tails from a
    /// previous crash, leftovers of an interrupted compaction). Only
    /// called from the write path — `load_dir` never mutates the
    /// directory.
    fn cleanup_stale(&self) {
        let live: HashSet<u64> = self.live_segs.iter().copied().collect();
        for idx in 0..self.next_seg {
            if !live.contains(&idx) {
                let _ = fs::remove_file(seg_path(&self.dir, idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("easyhps-durable-{tag}-{}-{n}", std::process::id()))
    }

    fn entry(id: u32, r0: u32, r1: u32, c0: u32, c1: u32) -> (u32, TileRegion, Vec<u8>) {
        let region = TileRegion::new(r0, r1, c0, c1);
        let area = ((r1 - r0) * (c1 - c0)) as usize;
        (id, region, vec![id as u8; area * 4])
    }

    #[test]
    fn append_load_roundtrip_and_incremental_merge() {
        let dir = tmp_dir("roundtrip");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        assert!(
            st.append(&[entry(0, 0, 2, 0, 2), entry(1, 0, 2, 2, 4)])
                .unwrap()
                > 0
        );
        assert!(st.append(&[entry(2, 2, 4, 0, 2)]).unwrap() > 0);
        // Already-durable ids are filtered out.
        assert_eq!(st.append(&[entry(1, 0, 2, 2, 4)]).unwrap(), 0);
        drop(st);

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.extent(), (8, 8));
        assert_eq!(cp.finished_len(), 3);
        let ids: Vec<u32> = cp.finished_tasks().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The segment file format must never move: bytes captured before
    /// the segment body and the in-memory blob shared one codec.
    #[test]
    fn segment_file_bytes_are_golden() {
        let dir = tmp_dir("golden");
        let mut st = CheckpointStore::open(&CheckpointPolicy::new(&dir), 4, 4, false).unwrap();
        let cells: Vec<u8> = (1..=16).collect();
        st.append(&[(7, TileRegion::new(0, 2, 2, 4), cells)])
            .unwrap();
        let golden: &[u8] = &[
            0x47, 0x45, 0x53, 0x48, // "GESH"
            0x74, 0x58, 0xA0, 0xBB, // crc32c(body)
            52, 0, 0, 0, // body length
            4, 0, 0, 0, 4, 0, 0, 0, // rows, cols
            1, 0, 0, 0, // one entry
            7, 0, 0, 0, // vertex id
            0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, // region
            16, 0, 0, 0, // cell-bytes length
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        ];
        assert_eq!(fs::read(seg_path(&dir, 0)).unwrap(), golden);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_none() {
        assert_eq!(Checkpoint::load_dir(tmp_dir("missing")).unwrap(), None);
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let dir = tmp_dir("torn");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        drop(st);
        // Tear the last segment: truncate it to half length.
        let last = seg_path(&dir, 1);
        let bytes = fs::read(&last).unwrap();
        fs::write(&last, &bytes[..bytes.len() / 2]).unwrap();

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 1);
        assert_eq!(cp.finished_tasks().next().unwrap().0, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_discards_it_and_everything_after() {
        let dir = tmp_dir("midcorrupt");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        st.append(&[entry(2, 2, 4, 0, 2)]).unwrap();
        drop(st);
        // Flip a payload bit in the middle segment.
        let mid = seg_path(&dir, 1);
        let mut bytes = fs::read(&mid).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        fs::write(&mid, &bytes).unwrap();

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(
            cp.finished_len(),
            1,
            "prefix before the corruption survives"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loads_without_manifest_by_probing_indices() {
        let dir = tmp_dir("noman");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        drop(st);
        fs::remove_file(dir.join(MANIFEST)).unwrap();

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_segments_and_keeps_data() {
        let dir = tmp_dir("compact");
        let pol = CheckpointPolicy::new(&dir).with_compact_after(2);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        st.append(&[entry(2, 2, 4, 0, 2)]).unwrap(); // triggers compaction
        assert_eq!(st.live_segs.len(), 1, "three segments merged into one");
        st.append(&[entry(3, 2, 4, 2, 4)]).unwrap();
        drop(st);

        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .collect();
        assert_eq!(files.len(), 2, "compacted segment + one fresh append");

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_dir_requires_resume() {
        let dir = tmp_dir("dirty");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        drop(st);
        let err = CheckpointStore::open(&pol, 8, 8, false).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        // With resuming=true the same directory opens fine and knows its
        // durable ids.
        let st = CheckpointStore::open(&pol, 8, 8, true).unwrap();
        assert!(st.is_durable(0));
        assert!(!st.is_durable(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dims_mismatch_is_rejected() {
        let dir = tmp_dir("dims");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        drop(st);
        let err = CheckpointStore::open(&pol, 9, 9, true).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_index_is_never_reused() {
        let dir = tmp_dir("reuse");
        let pol = CheckpointPolicy::new(&dir);
        let mut st = CheckpointStore::open(&pol, 8, 8, false).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        drop(st);
        let last = seg_path(&dir, 1);
        let bytes = fs::read(&last).unwrap();
        fs::write(&last, &bytes[..10]).unwrap();

        // Reopen for resume: torn seg 1 is discarded AND deleted; the
        // next append must land on index 2, not overwrite history ranges.
        let mut st = CheckpointStore::open(&pol, 8, 8, true).unwrap();
        assert!(!st.is_durable(1));
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        assert!(!seg_path(&dir, 1).exists(), "stale torn file cleaned up");
        assert!(seg_path(&dir, 2).exists(), "append skipped the torn index");

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_segments_are_an_error_not_a_panic() {
        let dir = tmp_dir("overlap");
        fs::create_dir_all(&dir).unwrap();
        // Hand-craft two valid segments whose regions overlap.
        let s0 = frame_file(MAGIC_SEG, &encode_entries(8, 8, &[entry(0, 0, 2, 0, 2)]));
        let s1 = frame_file(MAGIC_SEG, &encode_entries(8, 8, &[entry(1, 1, 3, 1, 3)]));
        fs::write(seg_path(&dir, 0), s0).unwrap();
        fs::write(seg_path(&dir, 1), s1).unwrap();
        let err = Checkpoint::load_dir(&dir).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
