//! Durable incremental checkpointing: the checkpoint directory is the one
//! record of a run's progress.
//!
//! * The master appends **segment files** (`seg-00000000.bin`,
//!   `seg-00000001.bin`, …) to a checkpoint directory. Each segment
//!   carries only the tiles finished since the previous flush, so a
//!   flush costs what recent progress costs, not the whole matrix, and
//!   stays off the DONE hot path (the cadence is set by
//!   [`CheckpointPolicy`], not by message arrival). A tile-budget stop
//!   and a clean exit end with one final flush of everything accepted.
//! * Every segment is a **sealed record** ([`write_sealed`]): a CRC-32C
//!   over a format byte and the payload, written to a temp file, fsynced
//!   and renamed into place. A torn or bit-rotted segment reads as absent
//!   and is discarded together with every later one — prefix-consistency,
//!   the standard write-ahead-log rule.
//! * The directory holds nothing else: a scan lists the `seg-*.bin`
//!   files and replays them in index order.
//! * When more than [`CheckpointPolicy::compact_after`] live segments
//!   accumulate, the store writes one merged segment and only then
//!   deletes the originals. A crash between the two steps leaves every
//!   tile twice, and the replay keeps the first copy: no step loses a
//!   durable tile.
//!
//! A later run sets [`CheckpointPolicy::resume`] to continue: the master
//! opens the directory, restores its tiles into the matrix and dispatches
//! only the rest. [`Checkpoint::load_dir`] reads the same directory
//! without touching it, for callers that want to inspect what it holds.

use crate::checkpoint::{decode_entries, encode_entries, validate_entries, Entries};
use crate::error::RuntimeError;
use crate::Checkpoint;
use easyhps_core::TileRegion;
use easyhps_net::{crc32c, WireReader};
use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Offset of the payload in a sealed record: the checksum, then the
/// format byte (always 0).
const SEALED_BODY: usize = 5;

/// Seal `payload` as `[crc32c(0x00 ‖ payload) u32 LE | 0x00 | payload]`
/// and write it to `path` atomically: a temp file beside it, fsync,
/// rename, fsync of the directory. Readers see the old content or the
/// new, never a torn prefix.
/// Every file the system persists is one of these: checkpoint segments
/// and the serve daemon's job specs and results.
pub fn write_sealed(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(SEALED_BODY + payload.len());
    buf.extend_from_slice(&[0; SEALED_BODY]);
    buf.extend_from_slice(payload);
    let crc = crc32c(&buf[4..]);
    buf[..4].copy_from_slice(&crc.to_le_bytes());
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename survives a crash only once the directory entry does.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// The payload of the sealed record at `path`, or `None` when the file is
/// missing, truncated, corrupt or not a sealed record: torn state must
/// read as absent, never as wrong.
pub fn read_sealed(path: &Path) -> Option<Vec<u8>> {
    let buf = fs::read(path).ok()?;
    let stored = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    (buf.get(4) == Some(&0) && crc32c(&buf[4..]) == stored).then(|| buf[SEALED_BODY..].to_vec())
}

/// When and where the master flushes finished tiles to disk, and whether
/// it continues the run the directory already holds.
///
/// The flush is evaluated *between* scheduler iterations, never while a
/// DONE message is being accepted: raising `every_tiles` trades
/// re-computed work after a crash against flush overhead during the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding the segment files. Created if missing.
    pub dir: PathBuf,
    /// Flush after this many newly accepted tiles. Must be at least 1: a
    /// store that flushes only at a clean exit holds nothing after the
    /// crash it exists for, so a run with 0 is refused.
    pub every_tiles: u64,
    /// Merge live segments into one once more than this many accumulate.
    pub compact_after: usize,
    /// Continue the run the directory holds: its tiles are restored into
    /// the matrix instead of being recomputed. Without it, a directory
    /// that holds finished tiles is refused, so a mistyped directory
    /// cannot silently interleave two runs.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Policy writing to `dir` with the defaults: flush every 32 tiles,
    /// compact beyond 8 live segments, start a fresh run.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_tiles: 32,
            compact_after: 8,
            resume: false,
        }
    }

    /// Flush after `n` newly accepted tiles (at least 1).
    pub fn with_every_tiles(mut self, n: u64) -> Self {
        self.every_tiles = n;
        self
    }

    /// Compact once more than `n` live segments accumulate.
    pub fn with_compact_after(mut self, n: usize) -> Self {
        self.compact_after = n;
        self
    }

    /// Continue (`true`) the run the directory holds, or refuse a
    /// directory holding progress (`false`, the default).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// What a directory scan recovered.
#[derive(Default)]
struct ScannedDir {
    /// Matrix extent of the replayed segments; `None` when none replayed.
    dims: Option<(u32, u32)>,
    /// Merged entries, first-wins by vertex id across segments.
    entries: Entries,
    /// Segments that replayed cleanly, in index order.
    live: Vec<u64>,
    /// Files a writer deletes: segments past the replayed prefix and
    /// temp files an interrupted write left behind.
    stale: Vec<PathBuf>,
    /// One past the highest segment index seen (replayed or not), so new
    /// appends never collide with a leftover file.
    next_seg: u64,
}

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("seg-{idx:08}.bin"))
}

/// The index of a segment file named `seg-NNNNNNNN.bin`.
fn seg_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn io_err(what: &str, path: &Path, e: io::Error) -> RuntimeError {
    RuntimeError::Checkpoint(format!("{what} {}: {e}", path.display()))
}

/// A segment's `(rows, cols, entries)`, or `None` when it is missing,
/// torn, or not a segment this build wrote.
fn read_segment(path: &Path) -> Option<(u32, u32, Entries)> {
    decode_entries(&mut WireReader::new(&read_sealed(path)?)).ok()
}

/// Replay a checkpoint directory (a missing one is empty). The first
/// segment that does not read — torn, corrupt, written by another build,
/// or for another matrix — discards itself and every later segment; it
/// is *not* an error, that is the expected state after a mid-write
/// crash. Never modifies the directory.
fn scan_dir(dir: &Path) -> Result<ScannedDir, RuntimeError> {
    let listing = match fs::read_dir(dir) {
        Ok(listing) => listing,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ScannedDir::default()),
        Err(e) => return Err(io_err("read dir", dir, e)),
    };
    let mut s = ScannedDir::default();
    let mut segs = Vec::new();
    for entry in listing {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = seg_index(&name) {
            segs.push(idx);
        } else if name.starts_with("seg-") && name.ends_with(".tmp") {
            s.stale.push(entry.path());
        }
    }
    segs.sort_unstable();
    s.next_seg = segs.last().map_or(0, |m| m + 1);
    let mut seen: HashSet<u32> = HashSet::new();
    let mut torn = false;
    for idx in segs {
        let path = seg_path(dir, idx);
        match (!torn).then(|| read_segment(&path)).flatten() {
            Some((rows, cols, seg)) if s.dims.is_none_or(|d| d == (rows, cols)) => {
                s.dims = Some((rows, cols));
                s.live.push(idx);
                // First-wins across segments: a compaction interrupted
                // before it deleted its inputs leaves each tile twice,
                // in equal copies. Duplicates *within* one segment stay
                // for `validate_entries` to reject.
                let fresh: Vec<_> = seg.into_iter().filter(|e| !seen.contains(&e.0)).collect();
                seen.extend(fresh.iter().map(|e| e.0));
                s.entries.extend(fresh);
            }
            _ => {
                torn = true;
                s.stale.push(path);
            }
        }
    }
    Ok(s)
}

impl Checkpoint {
    /// Read a checkpoint directory written by a previous run, without
    /// modifying it.
    ///
    /// Returns `Ok(None)` when the directory does not exist or no segment
    /// in it replays. Torn or corrupt trailing segments are silently
    /// discarded (that is the normal post-crash state); an *internally
    /// inconsistent* surviving prefix — duplicate ids across segments
    /// resolve first-wins, but overlapping regions, out-of-matrix data or
    /// a duplicate id within one segment do not — is an error.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Option<Self>, RuntimeError> {
        let dir = dir.as_ref();
        let s = scan_dir(dir)?;
        let Some((rows, cols)) = s.dims else {
            return Ok(None);
        };
        Checkpoint::from_parts(rows, cols, s.entries)
            .map(Some)
            .map_err(|e| RuntimeError::Checkpoint(format!("checkpoint dir {}: {e}", dir.display())))
    }
}

/// The master's handle on an open checkpoint directory.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    rows: u32,
    cols: u32,
    next_seg: u64,
    live: Vec<u64>,
    compact_after: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) the store at `policy.dir` for a matrix
    /// of `rows x cols`, and return it with the tiles to resume from —
    /// empty unless `policy.resume`, since a directory holding progress
    /// is refused otherwise. Once the directory is accepted, the files
    /// its scan discarded are deleted.
    pub(crate) fn open(
        policy: &CheckpointPolicy,
        rows: u32,
        cols: u32,
    ) -> Result<(Self, Entries), RuntimeError> {
        let dir = policy.dir.clone();
        if policy.every_tiles == 0 {
            return Err(RuntimeError::InvalidConfig(format!(
                "checkpoint dir {}: a flush cadence of 0 tiles would write nothing before \
                 a crash; it must be at least 1",
                dir.display()
            )));
        }
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let s = scan_dir(&dir)?;
        if let Some((r, c)) = s.dims.filter(|&d| d != (rows, cols)) {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint dir {} was written for a {r}x{c} matrix, this run is {rows}x{cols}",
                dir.display()
            )));
        }
        if !policy.resume && !s.entries.is_empty() {
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
        for path in &s.stale {
            let _ = fs::remove_file(path);
        }
        let store = Self {
            dir,
            rows,
            cols,
            next_seg: s.next_seg,
            live: s.live,
            compact_after: policy.compact_after.max(1),
        };
        Ok((store, s.entries))
    }

    /// Write `entries` as the next segment; returns its size in bytes.
    fn write_segment(
        &mut self,
        entries: &[(u32, TileRegion, Vec<u8>)],
    ) -> Result<u64, RuntimeError> {
        let body = encode_entries(self.rows, self.cols, entries);
        let path = seg_path(&self.dir, self.next_seg);
        write_sealed(&path, &body).map_err(|e| io_err("write", &path, e))?;
        self.next_seg += 1;
        Ok((SEALED_BODY + body.len()) as u64)
    }

    /// Append `entries` — tiles the directory does not hold yet — as one
    /// new segment, then compact if the policy says so. Returns the
    /// number of segment bytes written.
    pub(crate) fn append(
        &mut self,
        entries: &[(u32, TileRegion, Vec<u8>)],
    ) -> Result<u64, RuntimeError> {
        let bytes = self.write_segment(entries)?;
        self.live.push(self.next_seg - 1);
        if self.live.len() > self.compact_after {
            self.compact()?;
        }
        Ok(bytes)
    }

    /// Merge every live segment into one new segment, then delete the
    /// originals — in that order, so a crash between the steps leaves
    /// extra copies, never a lost tile.
    fn compact(&mut self) -> Result<(), RuntimeError> {
        let mut entries: Entries = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for idx in &self.live {
            let path = seg_path(&self.dir, *idx);
            let (_, _, seg) = read_segment(&path).ok_or_else(|| {
                RuntimeError::Checkpoint(format!(
                    "compaction re-read failed for {}",
                    path.display()
                ))
            })?;
            entries.extend(seg.into_iter().filter(|e| seen.insert(e.0)));
        }
        self.write_segment(&entries)?;
        let merged = self.next_seg - 1;
        for idx in std::mem::replace(&mut self.live, vec![merged]) {
            let _ = fs::remove_file(seg_path(&self.dir, idx));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EasyHps;
    use easyhps_dp::sequence::{random_sequence, Alphabet};
    use easyhps_dp::{DpProblem, EditDistance};
    use easyhps_net::WireWriter;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("easyhps-durable-{tag}-{}-{n}", std::process::id()))
    }

    fn entry(id: u32, r0: u32, r1: u32, c0: u32, c1: u32) -> (u32, TileRegion, Vec<u8>) {
        let region = TileRegion::new(r0, r1, c0, c1);
        let area = (r1.saturating_sub(r0) * c1.saturating_sub(c0)) as usize;
        (id, region, vec![id as u8; area.max(1) * 4])
    }

    fn open(pol: &CheckpointPolicy) -> Result<(CheckpointStore, Entries), RuntimeError> {
        CheckpointStore::open(pol, 8, 8)
    }

    /// Seal `entries` as segment `idx` of `dir`, bypassing the store so
    /// structurally unsound entry sets reach the disk.
    fn put_segment(dir: &Path, idx: u64, entries: &[(u32, TileRegion, Vec<u8>)]) {
        fs::create_dir_all(dir).unwrap();
        write_sealed(&seg_path(dir, idx), &encode_entries(8, 8, entries)).unwrap();
    }

    fn seg_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A 51x51 edit-distance matrix in 11x11 tiles: 25 sub-tasks.
    fn problem() -> EditDistance {
        let a = random_sequence(Alphabet::Dna, 50, 41);
        let b = random_sequence(Alphabet::Dna, 50, 42);
        EditDistance::new(a, b)
    }

    fn run(p: &EditDistance, policy: CheckpointPolicy) -> EasyHps<EditDistance> {
        EasyHps::new(p.clone())
            .process_partition((11, 11))
            .thread_partition((4, 4))
            .slaves(2)
            .threads_per_slave(2)
            .checkpoint(policy)
    }

    #[test]
    fn append_load_roundtrip_and_incremental_merge() {
        let dir = tmp_dir("roundtrip");
        let (mut st, resumed) = open(&CheckpointPolicy::new(&dir)).unwrap();
        assert!(resumed.is_empty());
        assert!(
            st.append(&[entry(0, 0, 2, 0, 2), entry(1, 0, 2, 2, 4)])
                .unwrap()
                > 0
        );
        assert!(st.append(&[entry(2, 2, 4, 0, 2)]).unwrap() > 0);
        drop(st);

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.extent(), (8, 8));
        assert_eq!(cp.finished_len(), 3);
        let ids: Vec<u32> = cp.finished_tasks().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(seg_files(&dir), ["seg-00000000.bin", "seg-00000001.bin"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The segment file format is an on-disk contract: a sealed record
    /// (checksum, format byte 0) around the entries codec.
    #[test]
    fn segment_file_bytes_are_golden() {
        let dir = tmp_dir("golden");
        let pol = CheckpointPolicy::new(&dir);
        let (mut st, _) = CheckpointStore::open(&pol, 4, 4).unwrap();
        let cells: Vec<u8> = (1..=16).collect();
        st.append(&[(7, TileRegion::new(0, 2, 2, 4), cells)])
            .unwrap();
        let golden: &[u8] = &[
            0x99, 0xE9, 0xBF, 0x2A, // crc32c(0x00 ‖ payload)
            0,    // format byte
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

    /// A crash can tear the newest segment: the prefix before it
    /// survives, for the inspector and for a resuming store, and the
    /// store deletes the torn file.
    #[test]
    fn truncated_newest_segment_keeps_the_prefix() {
        let dir = tmp_dir("torn");
        let pol = CheckpointPolicy::new(&dir);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        drop(st);
        let last = seg_path(&dir, 1);
        let bytes = fs::read(&last).unwrap();
        fs::write(&last, &bytes[..bytes.len() / 2]).unwrap();

        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 1);
        assert_eq!(cp.finished_tasks().next().unwrap().0, 0);
        assert!(last.exists(), "load_dir never modifies the directory");

        let (_st, resumed) = open(&pol.with_resume(true)).unwrap();
        let ids: Vec<u32> = resumed.iter().map(|e| e.0).collect();
        assert_eq!(ids, [0]);
        assert!(!last.exists(), "the writer deletes the torn segment");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_discards_it_and_everything_after() {
        let dir = tmp_dir("midcorrupt");
        let (mut st, _) = open(&CheckpointPolicy::new(&dir)).unwrap();
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
    fn compaction_merges_segments_and_keeps_data() {
        let dir = tmp_dir("compact");
        let pol = CheckpointPolicy::new(&dir).with_compact_after(2);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        st.append(&[entry(2, 2, 4, 0, 2)]).unwrap(); // triggers compaction
        assert_eq!(st.live.len(), 1, "three segments merged into one");
        st.append(&[entry(3, 2, 4, 2, 4)]).unwrap();
        drop(st);

        assert_eq!(
            seg_files(&dir),
            ["seg-00000003.bin", "seg-00000004.bin"],
            "compacted segment + one fresh append, nothing else"
        );
        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction whose merged segment cannot be written deletes none
    /// of its inputs: the inputs go only once the merge is durable.
    #[test]
    fn failed_compaction_write_deletes_no_input() {
        let dir = tmp_dir("compact-fail");
        let pol = CheckpointPolicy::new(&dir).with_compact_after(2);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        // The merged segment would be index 3: block its temp file.
        fs::create_dir(dir.join("seg-00000003.tmp")).unwrap();
        st.append(&[entry(2, 2, 4, 0, 2)])
            .expect_err("the merged segment cannot be written");
        let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
        assert_eq!(cp.finished_len(), 3, "every input survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    fn ids(cp: &Checkpoint) -> Vec<u32> {
        let mut ids: Vec<u32> = cp.finished_tasks().map(|v| v.0).collect();
        ids.sort_unstable();
        ids
    }

    /// Crash points inside a compaction: after the merged segment is
    /// written, before and midway through deleting its inputs. The
    /// deletions follow the inputs' index order, so "midway" means the
    /// lower half is gone. Every state holds every durable tile, and a
    /// run resumed from it is bit-identical.
    #[test]
    fn interrupted_compaction_loses_no_durable_tile() {
        let p = problem();
        let reference = p.solve_sequential();
        let dir = tmp_dir("interrupted");
        // One segment per tile and no compaction: ten inputs.
        let pol = CheckpointPolicy::new(&dir)
            .with_every_tiles(1)
            .with_compact_after(usize::MAX);
        run(&p, pol.clone()).tile_budget(10).run().unwrap();
        let held = Checkpoint::load_dir(&dir).unwrap().unwrap();
        let (rows, cols) = held.extent();
        let inputs: Vec<(PathBuf, Vec<u8>)> = seg_files(&dir)
            .into_iter()
            .map(|name| {
                let path = dir.join(name);
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        assert!(inputs.len() >= 10);

        for deleted in [0, inputs.len() / 2] {
            for name in seg_files(&dir) {
                fs::remove_file(dir.join(name)).unwrap();
            }
            for (path, bytes) in &inputs {
                fs::write(path, bytes).unwrap();
            }
            let resume = pol.clone().with_resume(true);
            let (mut st, _) = CheckpointStore::open(&resume, rows, cols).unwrap();
            st.compact().unwrap();
            // The crash: the inputs from `deleted` on were never removed.
            for (path, bytes) in &inputs[deleted..] {
                fs::write(path, bytes).unwrap();
            }
            let cp = Checkpoint::load_dir(&dir).unwrap().unwrap();
            assert_eq!(ids(&cp), ids(&held), "{deleted} input(s) deleted");

            let out = run(&p, resume).run().unwrap();
            assert_eq!(out.matrix, reference, "{deleted} input(s) deleted");
            assert_eq!(out.report.master.resumed, held.finished_len() as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory the previous on-disk format wrote (segments framed as
    /// `[magic "GESH" | crc32c | length | body]`, an index file, a temp
    /// file) holds nothing this build reads: a run opens it as empty,
    /// deletes the old segments and the temp file, and its own segments
    /// then resume. Files that are not segments are left alone.
    #[test]
    fn previous_format_directory_is_discarded_and_own_segments_resume() {
        let p = problem();
        let reference = p.solve_sequential();
        let dir = tmp_dir("previous");
        fs::create_dir_all(&dir).unwrap();
        let old_segment: &[u8] = &[
            0x47, 0x45, 0x53, 0x48, // "GESH"
            0x74, 0x58, 0xA0, 0xBB, // crc32c(body)
            52, 0, 0, 0, // body length
            4, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 4,
            0, 0, 0, 16, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        ];
        fs::write(seg_path(&dir, 0), old_segment).unwrap();
        fs::write(seg_path(&dir, 1), old_segment).unwrap();
        fs::write(dir.join("MANIFEST"), b"MANH").unwrap();
        fs::write(dir.join("seg-00000099.tmp"), &old_segment[..9]).unwrap();
        assert_eq!(Checkpoint::load_dir(&dir).unwrap(), None);

        let pol = CheckpointPolicy::new(&dir).with_every_tiles(1);
        run(&p, pol.clone()).tile_budget(10).run().unwrap();
        let names = seg_files(&dir);
        assert_eq!(names[0], "MANIFEST", "{names:?}");
        assert!(
            names[1..]
                .iter()
                .all(|n| seg_index(n).is_some_and(|i| i >= 2)),
            "old segments and the temp file are gone, appends start past \
             the old indices: {names:?}"
        );
        let held = Checkpoint::load_dir(&dir).unwrap().unwrap().finished_len();
        assert!(held >= 10);

        let out = run(&p, pol.with_resume(true)).run().unwrap();
        assert_eq!(out.matrix, reference);
        assert_eq!(out.report.master.resumed, held as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_dir_requires_resume() {
        let dir = tmp_dir("dirty");
        let pol = CheckpointPolicy::new(&dir);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        drop(st);
        let err = open(&pol).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        // Resuming, the same directory opens fine and hands back its tiles.
        let (_st, resumed) = open(&pol.with_resume(true)).unwrap();
        assert_eq!(resumed, [entry(0, 0, 2, 0, 2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_cadence_is_refused() {
        let dir = tmp_dir("cadence");
        let err = open(&CheckpointPolicy::new(&dir).with_every_tiles(0)).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        assert!(!dir.exists(), "a refused policy creates nothing");
    }

    #[test]
    fn dims_mismatch_is_rejected() {
        let dir = tmp_dir("dims");
        let pol = CheckpointPolicy::new(&dir).with_resume(true);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        drop(st);
        let err = CheckpointStore::open(&pol, 9, 9).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_index_is_never_reused() {
        let dir = tmp_dir("reuse");
        let pol = CheckpointPolicy::new(&dir).with_resume(true);
        let (mut st, _) = open(&pol).unwrap();
        st.append(&[entry(0, 0, 2, 0, 2)]).unwrap();
        st.append(&[entry(1, 0, 2, 2, 4)]).unwrap();
        drop(st);
        let last = seg_path(&dir, 1);
        let bytes = fs::read(&last).unwrap();
        fs::write(&last, &bytes[..10]).unwrap();

        // Reopen for resume: torn seg 1 is discarded AND deleted; the
        // next append must land on index 2, not overwrite history ranges.
        let (mut st, resumed) = open(&pol).unwrap();
        assert_eq!(
            resumed,
            [entry(0, 0, 2, 0, 2)],
            "the torn tile is not restored"
        );
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
        put_segment(&dir, 0, &[entry(0, 0, 2, 0, 2)]);
        put_segment(&dir, 1, &[entry(1, 1, 3, 1, 3)]);
        let err = Checkpoint::load_dir(&dir).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One sealed segment holding `entries` must fail to load, with
    /// `why` in the error, for the inspector and for a resuming store.
    fn rejects(entries: &[(u32, TileRegion, Vec<u8>)], why: &str) {
        let dir = tmp_dir("rejects");
        put_segment(&dir, 0, entries);
        let err = Checkpoint::load_dir(&dir).expect_err(why);
        assert!(err.to_string().contains(why), "{err} should mention {why}");
        let err = open(&CheckpointPolicy::new(&dir).with_resume(true)).expect_err(why);
        assert!(err.to_string().contains(why), "{err} should mention {why}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_duplicate_vertex_ids_within_a_segment() {
        let dup = [entry(3, 0, 2, 0, 2), entry(3, 2, 4, 2, 4)];
        rejects(&dup, "duplicate vertex id");
    }

    #[test]
    fn rejects_overlapping_regions() {
        let overlap = [entry(0, 0, 3, 0, 3), entry(1, 2, 5, 2, 5)];
        rejects(&overlap, "overlapping regions");
    }

    #[test]
    fn rejects_out_of_matrix_region() {
        rejects(&[entry(0, 6, 9, 0, 2)], "outside matrix");
    }

    #[test]
    fn rejects_empty_and_inverted_regions() {
        rejects(&[entry(0, 2, 2, 0, 2)], "empty or inverted region");
        rejects(&[entry(0, 4, 2, 0, 2)], "empty or inverted region");
    }

    #[test]
    fn rejects_cell_bytes_shorter_than_region() {
        let short = [(0, TileRegion::new(0, 4, 0, 4), vec![1; 3])];
        rejects(&short, "cell bytes shorter than region");
    }

    /// A hostile entry count must be rejected *before* any allocation
    /// sized by it — `u32::MAX` entries "fit" in 12 bytes of header only
    /// if nobody checks. Sealed, such a body is not a segment this build
    /// wrote: it reads as absent.
    #[test]
    fn rejects_entry_count_exceeding_buffer_without_allocating() {
        let mut w = WireWriter::new();
        w.put_u32(8).put_u32(8).put_u32(u32::MAX);
        let body = w.finish();
        let err = decode_entries(&mut WireReader::new(&body)).unwrap_err();
        assert!(
            err.to_string().contains("entry count exceeds buffer"),
            "{err}"
        );
        let dir = tmp_dir("hostile");
        fs::create_dir_all(&dir).unwrap();
        write_sealed(&seg_path(&dir, 0), &body).unwrap();
        assert_eq!(Checkpoint::load_dir(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A body with bytes after its last entry is not a body this build
    /// wrote: the decoder rejects it, and sealed it reads as absent.
    #[test]
    fn rejects_trailing_bytes_after_the_entries() {
        let mut body = encode_entries(8, 8, &[entry(0, 0, 2, 0, 2)]);
        decode_entries(&mut WireReader::new(&body)).expect("the exact body decodes");
        body.push(0);
        decode_entries(&mut WireReader::new(&body)).expect_err("a trailing byte");
        let dir = tmp_dir("trailing");
        fs::create_dir_all(&dir).unwrap();
        write_sealed(&seg_path(&dir, 0), &body).unwrap();
        assert_eq!(Checkpoint::load_dir(&dir).unwrap(), None);
        let (_st, resumed) = open(&CheckpointPolicy::new(&dir).with_resume(true)).unwrap();
        assert!(resumed.is_empty(), "the store restores nothing from it");
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every strict prefix of a sealed segment reads as absent: no
        /// panic, no hostile-length allocation, no silent part-read.
        #[test]
        fn every_strict_segment_prefix_reads_as_absent(tiles in 0u32..6, salt in any::<u8>()) {
            let dir = tmp_dir("prefix");
            let entries: Vec<_> = (0..tiles)
                .map(|i| {
                    let (id, region, _) = entry(i, 0, 2, 2 * i, 2 * i + 2);
                    (id, region, vec![salt; 16])
                })
                .collect();
            fs::create_dir_all(&dir).unwrap();
            let path = seg_path(&dir, 0);
            write_sealed(&path, &encode_entries(2, 12, &entries)).unwrap();
            let full = Checkpoint::load_dir(&dir).unwrap().expect("the whole segment reads");
            prop_assert_eq!(full.finished_len(), tiles as usize);
            let sealed = fs::read(&path).unwrap();
            for cut in 0..sealed.len() {
                fs::write(&path, &sealed[..cut]).unwrap();
                let cp = Checkpoint::load_dir(&dir).unwrap();
                prop_assert!(cp.is_none(), "prefix of {cut}/{} bytes must not read", sealed.len());
            }
            fs::remove_dir_all(&dir).unwrap();
        }

        /// Arbitrary bytes as the first segment, raw or sealed (so the
        /// body reaches the entries decoder and the validation): errors
        /// are fine, panics and runaway allocations are not.
        #[test]
        fn arbitrary_segment_bytes_never_panic_load_dir(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            sealed in any::<bool>(),
        ) {
            let dir = tmp_dir("arbitrary");
            fs::create_dir_all(&dir).unwrap();
            let path = seg_path(&dir, 0);
            if sealed {
                write_sealed(&path, &data).unwrap();
            } else {
                fs::write(&path, &data).unwrap();
            }
            let _ = Checkpoint::load_dir(&dir);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
