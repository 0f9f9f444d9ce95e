//! Durable job state: what lets `kill -9` lose no accepted job.
//!
//! Layout under the daemon's `--state-dir`:
//!
//! ```text
//! state/
//!   jobs/
//!     0000000000000007/
//!       spec.bin      sealed {id, tenant, encoded JobSpec}
//!       result.bin    sealed {rows, cols, crc}: the job's digest
//!       ckpt/         per-job durable CheckpointStore segments, while
//!                     the job runs
//! ```
//!
//! `spec.bin` is written — atomically, via tmp + rename, fsynced — *before*
//! the daemon acknowledges a submission, so "accepted" and "on disk" are
//! the same event. `result.bin` is written before the job is reported
//! done, and the job's `ckpt/` is removed once it is: the daemon never
//! serves cells, so a finished job keeps only its digest. Both files are
//! CRC-sealed (`[crc32c u32 LE | 0x00 | payload]`,
//! the checksum covering the format byte and the payload), so a torn
//! write (a crash between `write` and `rename` can leave nothing, but a
//! corrupting disk can leave garbage) reads as *absent*, never as a
//! wrong job: a job dir with an unreadable spec was never acknowledged
//! and is dropped; an unreadable result means the job re-runs from its
//! `ckpt/` segments. A spec whose seal verifies but whose payload no
//! longer decodes (written by a build with another JOB codec) *was*
//! acknowledged: [`JobStore::scan`] reports it instead of dropping it.
//! A `result.bin` that also holds the cells, as earlier builds wrote it,
//! does not decode either: its job reads as unfinished and is computed
//! once more, resuming from its `ckpt/` if one is left.

use crate::protocol::JobResult;
use easyhps_net::{crc32c, WireError, WireReader, WireWriter};
use easyhps_runtime::remote::JobSpec;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A job as recovered from disk.
#[derive(Clone, Debug)]
pub struct PersistedJob {
    /// The id assigned at submission (ids survive restarts).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The full job specification.
    pub spec: JobSpec,
    /// The finished result's digest, when `result.bin` exists and
    /// verifies.
    pub result: Option<JobResult>,
}

/// Handle on the daemon's state directory.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
}

/// Offset of the payload in a sealed file: checksum, then the format
/// byte (always 0).
const SEALED_BODY: usize = 5;

/// Seal `payload` and write it to `path` atomically: tmp file in the
/// same directory, fsync, rename. Readers see the old content or the
/// new, never a torn prefix.
fn write_sealed(path: &Path, payload: &[u8]) -> io::Result<()> {
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
    fs::rename(&tmp, path)
}

/// Read a sealed file, returning its payload or `None` when the file is
/// missing, truncated or corrupt — torn state must read as absent.
fn read_sealed(path: &Path) -> Option<Vec<u8>> {
    let buf = fs::read(path).ok()?;
    let stored = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    (buf.get(4) == Some(&0) && crc32c(&buf[4..]) == stored).then(|| buf[SEALED_BODY..].to_vec())
}

/// `fs::remove_dir_all`, where a directory already gone is no error.
fn remove_tree(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        done => done,
    }
}

fn decode_spec(payload: &[u8]) -> Result<(u64, String, JobSpec), WireError> {
    let mut r = WireReader::new(payload);
    let id = r.get_u64()?;
    let tenant = String::from_utf8(r.get_bytes()?.to_vec()).map_err(|_| WireError {
        context: "persisted tenant",
    })?;
    let spec = JobSpec::decode(r.get_bytes()?)?;
    r.expect_end()?;
    Ok((id, tenant, spec))
}

fn decode_result(payload: &[u8]) -> Result<JobResult, WireError> {
    let mut r = WireReader::new(payload);
    let out = JobResult {
        rows: r.get_u32()?,
        cols: r.get_u32()?,
        crc: r.get_u32()?,
    };
    r.expect_end()?;
    Ok(out)
}

impl JobStore {
    /// Open (creating if needed) a state directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<JobStore> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        Ok(JobStore { root })
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(format!("{id:016}"))
    }

    /// The per-job durable checkpoint directory (for `CheckpointPolicy`).
    pub fn ckpt_dir(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("ckpt")
    }

    /// Persist an accepted job. Must complete before the daemon replies
    /// `Accepted` — this write *is* the acceptance.
    pub fn persist_spec(&self, id: u64, tenant: &str, spec: &JobSpec) -> io::Result<()> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        let mut w = WireWriter::new();
        w.put_u64(id)
            .put_bytes(tenant.as_bytes())
            .put_bytes(&spec.encode());
        write_sealed(&dir.join("spec.bin"), &w.finish())
    }

    /// Persist a finished job's digest, then remove its checkpoint: a
    /// second copy of a matrix nothing serves. Must complete before the
    /// job is reported `Done`.
    pub fn persist_result(&self, id: u64, result: &JobResult) -> io::Result<()> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        let mut w = WireWriter::new();
        w.put_u32(result.rows)
            .put_u32(result.cols)
            .put_u32(result.crc);
        write_sealed(&dir.join("result.bin"), &w.finish())?;
        remove_tree(&self.ckpt_dir(id))
    }

    /// Remove a job's directory (cancelled jobs must not resurrect on
    /// restart).
    pub fn remove(&self, id: u64) -> io::Result<()> {
        remove_tree(&self.job_dir(id))
    }

    /// Recover every acknowledged job, sorted by id. Dirs with a torn or
    /// missing spec are skipped (never acknowledged); torn results are
    /// reported as unfinished, and a finished job's leftover `ckpt/` (a
    /// crash before [`JobStore::persist_result`] removed it) is removed.
    /// Dirs whose spec verifies but does not
    /// decode held acknowledged jobs this build cannot run: they are
    /// returned second, for the caller to report.
    pub fn scan(&self) -> io::Result<(Vec<PersistedJob>, Vec<PathBuf>)> {
        let mut out = Vec::new();
        let mut unreadable = Vec::new();
        for entry in fs::read_dir(self.root.join("jobs"))? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            let Some(payload) = read_sealed(&dir.join("spec.bin")) else {
                continue;
            };
            let Ok((id, tenant, spec)) = decode_spec(&payload) else {
                unreadable.push(dir);
                continue;
            };
            let result = read_sealed(&dir.join("result.bin")).and_then(|p| decode_result(&p).ok());
            if result.is_some() {
                remove_tree(&dir.join("ckpt"))?;
            }
            out.push(PersistedJob {
                id,
                tenant,
                spec,
                result,
            });
        }
        out.sort_by_key(|j| j.id);
        unreadable.sort();
        Ok((out, unreadable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::GridDims;
    use easyhps_runtime::remote::RemoteProblem;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_root() -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("easyhps-serve-state-{}-{n}", std::process::id()))
    }

    fn spec(text: &[u8]) -> JobSpec {
        JobSpec::new(
            RemoteProblem::EditDistance {
                a: text.to_vec(),
                b: b"reference".to_vec(),
            },
            GridDims::new(4, 4),
            GridDims::new(2, 2),
        )
    }

    #[test]
    fn specs_and_results_survive_a_scan() {
        let root = tmp_root();
        let store = JobStore::open(&root).unwrap();
        store.persist_spec(3, "alice", &spec(b"one")).unwrap();
        store.persist_spec(7, "bob", &spec(b"two")).unwrap();
        let digest = JobResult {
            rows: 4,
            cols: 10,
            crc: 0xFEED,
        };
        store.persist_result(3, &digest).unwrap();

        // The on-disk layout is a format, not an implementation detail:
        // checksum, format byte 0, then the wire-coded fields.
        let on_disk = fs::read(store.job_dir(3).join("result.bin")).unwrap();
        let mut want = 0xe39b_c898u32.to_le_bytes().to_vec();
        want.push(0);
        for v in [4u32, 10, 0xFEED] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(on_disk, want);

        let (jobs, unreadable) = store.scan().unwrap();
        assert!(unreadable.is_empty());
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 3, "sorted by id");
        assert_eq!(jobs[0].tenant, "alice");
        assert_eq!(jobs[0].spec, spec(b"one"));
        let r = jobs[0].result.as_ref().unwrap();
        assert_eq!((r.rows, r.cols, r.crc), (4, 10, 0xFEED));
        assert!(jobs[1].result.is_none());

        store.remove(3).unwrap();
        assert_eq!(store.scan().unwrap().0.len(), 1, "removed job is gone");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_files_read_as_absent_not_wrong() {
        let root = tmp_root();
        let store = JobStore::open(&root).unwrap();
        store.persist_spec(1, "alice", &spec(b"keep")).unwrap();
        store.persist_spec(2, "bob", &spec(b"tear")).unwrap();
        let digest = JobResult {
            rows: 4,
            cols: 5,
            crc: 9,
        };
        store.persist_result(1, &digest).unwrap();

        // Corrupt job 2's spec and job 1's result in place.
        let spec2 = root
            .join("jobs")
            .join(format!("{:016}", 2))
            .join("spec.bin");
        let mut bytes = fs::read(&spec2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&spec2, bytes).unwrap();
        let res1 = root
            .join("jobs")
            .join(format!("{:016}", 1))
            .join("result.bin");
        let bytes = fs::read(&res1).unwrap();
        fs::write(&res1, &bytes[..bytes.len() - 1]).unwrap();

        let (jobs, unreadable) = store.scan().unwrap();
        assert!(unreadable.is_empty(), "torn is absent, not unreadable");
        assert_eq!(jobs.len(), 1, "torn spec means never acknowledged");
        assert_eq!(jobs[0].id, 1);
        assert!(jobs[0].result.is_none(), "torn result means unfinished");
        fs::remove_dir_all(&root).ok();
    }
}
