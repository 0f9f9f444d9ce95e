//! Wire messages of the serve client protocol.
//!
//! Requests and responses are hand-encoded with the workspace wire
//! format ([`WireWriter`]/[`WireReader`]) and travel as the payload of
//! CRC-sealed frames ([`easyhps_net::frame::send_msg`]). The
//! codec therefore only has to be *unambiguous*; integrity (truncation,
//! bit flips) is the frame layer's job, and the proptests in this crate
//! hold every message to the same standard as [`JobSpec`]: no byte
//! prefix of a sealed message decodes, and no single corrupted byte
//! passes the seal.
//!
//! A connection carries a sequence of request/response exchanges. Every
//! request gets exactly one immediate response, except `Submit` with
//! `wait = true`, which gets an immediate admission response
//! ([`Response::Accepted`] / [`Response::Rejected`] /
//! [`Response::Done`] on a cache hit) followed — possibly much later —
//! by a terminal [`Response::Done`] or [`Response::Error`].

use easyhps_core::TileRegion;
use easyhps_dp::DpMatrix;
use easyhps_net::{crc32c, WireError, WireReader, WireWriter};
use easyhps_runtime::remote::JobSpec;

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_CANCEL: u8 = 4;
const REQ_DRAIN: u8 = 5;

const RESP_ACCEPTED: u8 = 1;
const RESP_REJECTED: u8 = 2;
const RESP_STATUS: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_CANCELLED: u8 = 5;
const RESP_DONE: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_DRAINED: u8 = 8;

fn get_string(r: &mut WireReader<'_>, context: &'static str) -> Result<String, WireError> {
    String::from_utf8(r.get_bytes()?.to_vec()).map_err(|_| WireError { context })
}

/// How an accepted submission will be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A fresh computation was queued.
    New,
    /// The result was already in the content-addressed cache.
    CacheHit,
    /// An identical job is already queued or running; this submission
    /// was attached to it and consumes no queue slot.
    Coalesced,
}

impl Admission {
    fn to_u8(self) -> u8 {
        match self {
            Admission::New => 0,
            Admission::CacheHit => 1,
            Admission::Coalesced => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Admission::New),
            1 => Ok(Admission::CacheHit),
            2 => Ok(Admission::Coalesced),
            _ => Err(WireError {
                context: "admission kind",
            }),
        }
    }
}

/// The compact summary of a finished job: matrix shape plus the CRC-32C
/// of its row-major little-endian cell bytes (the same digest
/// `easyhps master` prints as `matrix-crc:`), enough for a client to
/// verify bit-identity without shipping the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// Matrix rows.
    pub rows: u32,
    /// Matrix columns.
    pub cols: u32,
    /// CRC-32C over the encoded cells.
    pub crc: u32,
}

impl JobResult {
    /// The digest of a finished matrix: its shape and the CRC-32C of its
    /// canonical cell encoding (row-major, little-endian — the
    /// [`DpMatrix::encode_region`] layout over the whole matrix). It is
    /// what `easyhps master` prints as `matrix-crc:`.
    pub fn of(matrix: &DpMatrix<i32>) -> JobResult {
        let d = matrix.dims();
        JobResult {
            rows: d.rows,
            cols: d.cols,
            crc: crc32c(&matrix.encode_region(TileRegion::new(0, d.rows, 0, d.cols))),
        }
    }
}

/// Where a job is in its lifecycle, as reported by `status`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting; `position` is its place in the dispatch
    /// queue (0 = next).
    Queued {
        /// Place in the dispatch queue, 0 = next to run.
        position: u32,
    },
    /// Currently dispatched to the fleet or a batch round.
    Running,
    /// Finished; the result summary.
    Done(JobResult),
    /// The computation failed.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
    /// Cancelled before completion.
    Cancelled,
    /// The daemon has no record of this job id.
    Unknown,
}

impl JobState {
    fn encode_into(&self, w: &mut WireWriter) {
        match self {
            JobState::Queued { position } => {
                w.put_u8(0).put_u32(*position);
            }
            JobState::Running => {
                w.put_u8(1);
            }
            JobState::Done(r) => {
                w.put_u8(2).put_u32(r.rows).put_u32(r.cols).put_u32(r.crc);
            }
            JobState::Failed { error } => {
                w.put_u8(3).put_bytes(error.as_bytes());
            }
            JobState::Cancelled => {
                w.put_u8(4);
            }
            JobState::Unknown => {
                w.put_u8(5);
            }
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => JobState::Queued {
                position: r.get_u32()?,
            },
            1 => JobState::Running,
            2 => JobState::Done(JobResult {
                rows: r.get_u32()?,
                cols: r.get_u32()?,
                crc: r.get_u32()?,
            }),
            3 => JobState::Failed {
                error: get_string(r, "job failure text")?,
            },
            4 => JobState::Cancelled,
            5 => JobState::Unknown,
            _ => {
                return Err(WireError {
                    context: "job state kind",
                })
            }
        })
    }
}

/// A submission: who is asking, whether the connection should block for
/// the terminal response, and the full job specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitReq {
    /// Tenant key for fair scheduling and accounting labels.
    pub tenant: String,
    /// Keep the exchange open until the job finishes.
    pub wait: bool,
    /// The job to run, in the same encoding the master ships to slaves.
    pub spec: JobSpec,
}

/// Client → daemon messages.
// Requests are transient (decoded, handled, dropped — never stored in
// bulk), so the Submit variant's size is not worth a Box indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitReq),
    /// Ask where a job is in its lifecycle.
    Status {
        /// Job id returned by a prior submit.
        job: u64,
    },
    /// Fetch the daemon's metrics registry as Prometheus-style text.
    Stats,
    /// Cancel a queued or running job.
    Cancel {
        /// Job id returned by a prior submit.
        job: u64,
    },
    /// Gracefully drain a slave out of the daemon's fleet: stop
    /// assigning it work, let in-flight sub-tasks land, release the
    /// rank. See DESIGN.md §17.
    Drain {
        /// Slave rank to drain (1-based; 0 is the master).
        rank: u32,
    },
}

impl Request {
    /// Encode to bytes (to be sealed by [`easyhps_net::frame::send_msg`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Request::Submit(s) => {
                w.put_u8(REQ_SUBMIT)
                    .put_bytes(s.tenant.as_bytes())
                    .put_u8(s.wait as u8)
                    .put_bytes(&s.spec.encode());
            }
            Request::Status { job } => {
                w.put_u8(REQ_STATUS).put_u64(*job);
            }
            Request::Stats => {
                w.put_u8(REQ_STATS);
            }
            Request::Cancel { job } => {
                w.put_u8(REQ_CANCEL).put_u64(*job);
            }
            Request::Drain { rank } => {
                w.put_u8(REQ_DRAIN).put_u32(*rank);
            }
        }
        w.finish().to_vec()
    }

    /// Decode from the payload of a checked frame. Trailing bytes are an
    /// error, like every other message in the workspace.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(bytes);
        let req = match r.get_u8()? {
            REQ_SUBMIT => {
                let tenant = get_string(&mut r, "tenant key")?;
                let wait = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError {
                            context: "wait flag",
                        })
                    }
                };
                let spec = JobSpec::decode(r.get_bytes()?)?;
                Request::Submit(SubmitReq { tenant, wait, spec })
            }
            REQ_STATUS => Request::Status { job: r.get_u64()? },
            REQ_STATS => Request::Stats,
            REQ_CANCEL => Request::Cancel { job: r.get_u64()? },
            REQ_DRAIN => Request::Drain { rank: r.get_u32()? },
            _ => {
                return Err(WireError {
                    context: "request kind",
                })
            }
        };
        r.expect_end()?;
        Ok(req)
    }
}

/// Daemon → client messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The submission was admitted; how it will be satisfied.
    Accepted {
        /// Assigned job id.
        job: u64,
        /// How the job will be satisfied.
        admission: Admission,
    },
    /// The submission was refused by admission control.
    Rejected {
        /// Why, including the limit that was hit and what to do.
        reason: String,
    },
    /// Answer to `Status`.
    Status {
        /// The queried job id.
        job: u64,
        /// Its current lifecycle state.
        state: JobState,
    },
    /// Answer to `Stats`: the registry rendered as Prometheus text.
    Stats {
        /// Rendered metrics.
        text: String,
    },
    /// Answer to `Cancel`.
    Cancelled {
        /// The job id the cancel targeted.
        job: u64,
        /// Whether the job was actually cancelled (false if it already
        /// finished, is currently running, or is unknown).
        ok: bool,
    },
    /// Terminal success, sent for `wait` submissions and cache hits.
    Done {
        /// The finished job id.
        job: u64,
        /// Result summary.
        result: JobResult,
        /// True when served from the content-addressed cache.
        cached: bool,
    },
    /// Terminal failure (or a malformed request).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Answer to `Drain`.
    Drained {
        /// The rank the drain targeted.
        rank: u32,
        /// Whether the drain was handed to the fleet (false when the
        /// daemon has no fleet yet).
        ok: bool,
    },
}

impl Response {
    /// Encode to bytes (to be sealed by [`easyhps_net::frame::send_msg`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Response::Accepted { job, admission } => {
                w.put_u8(RESP_ACCEPTED)
                    .put_u64(*job)
                    .put_u8(admission.to_u8());
            }
            Response::Rejected { reason } => {
                w.put_u8(RESP_REJECTED).put_bytes(reason.as_bytes());
            }
            Response::Status { job, state } => {
                w.put_u8(RESP_STATUS).put_u64(*job);
                state.encode_into(&mut w);
            }
            Response::Stats { text } => {
                w.put_u8(RESP_STATS).put_bytes(text.as_bytes());
            }
            Response::Cancelled { job, ok } => {
                w.put_u8(RESP_CANCELLED).put_u64(*job).put_u8(*ok as u8);
            }
            Response::Done {
                job,
                result,
                cached,
            } => {
                w.put_u8(RESP_DONE)
                    .put_u64(*job)
                    .put_u32(result.rows)
                    .put_u32(result.cols)
                    .put_u32(result.crc)
                    .put_u8(*cached as u8);
            }
            Response::Error { message } => {
                w.put_u8(RESP_ERROR).put_bytes(message.as_bytes());
            }
            Response::Drained { rank, ok } => {
                w.put_u8(RESP_DRAINED).put_u32(*rank).put_u8(*ok as u8);
            }
        }
        w.finish().to_vec()
    }

    /// Decode from the payload of a checked frame.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(bytes);
        let resp = match r.get_u8()? {
            RESP_ACCEPTED => Response::Accepted {
                job: r.get_u64()?,
                admission: Admission::from_u8(r.get_u8()?)?,
            },
            RESP_REJECTED => Response::Rejected {
                reason: get_string(&mut r, "rejection reason")?,
            },
            RESP_STATUS => Response::Status {
                job: r.get_u64()?,
                state: JobState::decode_from(&mut r)?,
            },
            RESP_STATS => Response::Stats {
                text: get_string(&mut r, "stats text")?,
            },
            RESP_CANCELLED => Response::Cancelled {
                job: r.get_u64()?,
                ok: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError {
                            context: "cancel ok flag",
                        })
                    }
                },
            },
            RESP_DONE => Response::Done {
                job: r.get_u64()?,
                result: JobResult {
                    rows: r.get_u32()?,
                    cols: r.get_u32()?,
                    crc: r.get_u32()?,
                },
                cached: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError {
                            context: "cached flag",
                        })
                    }
                },
            },
            RESP_ERROR => Response::Error {
                message: get_string(&mut r, "error message")?,
            },
            RESP_DRAINED => Response::Drained {
                rank: r.get_u32()?,
                ok: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError {
                            context: "drain ok flag",
                        })
                    }
                },
            },
            _ => {
                return Err(WireError {
                    context: "response kind",
                })
            }
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::GridDims;
    use easyhps_runtime::remote::RemoteProblem;

    fn sample_spec() -> JobSpec {
        JobSpec::new(
            RemoteProblem::EditDistance {
                a: b"GATTACA".to_vec(),
                b: b"GCATGCT".to_vec(),
            },
            GridDims::new(4, 4),
            GridDims::new(2, 2),
        )
    }

    #[test]
    fn every_request_roundtrips() {
        let reqs = [
            Request::Submit(SubmitReq {
                tenant: "alice".into(),
                wait: true,
                spec: sample_spec(),
            }),
            Request::Status { job: 42 },
            Request::Stats,
            Request::Cancel { job: u64::MAX },
            Request::Drain { rank: 3 },
        ];
        for req in &reqs {
            assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let result = JobResult {
            rows: 8,
            cols: 9,
            crc: 0xDEAD_BEEF,
        };
        let resps = [
            Response::Accepted {
                job: 1,
                admission: Admission::New,
            },
            Response::Accepted {
                job: 2,
                admission: Admission::CacheHit,
            },
            Response::Accepted {
                job: 3,
                admission: Admission::Coalesced,
            },
            Response::Rejected {
                reason: "queue full".into(),
            },
            Response::Status {
                job: 4,
                state: JobState::Queued { position: 7 },
            },
            Response::Status {
                job: 5,
                state: JobState::Running,
            },
            Response::Status {
                job: 6,
                state: JobState::Done(result),
            },
            Response::Status {
                job: 7,
                state: JobState::Failed {
                    error: "slave died".into(),
                },
            },
            Response::Status {
                job: 8,
                state: JobState::Cancelled,
            },
            Response::Status {
                job: 9,
                state: JobState::Unknown,
            },
            Response::Stats {
                text: "serve_cache_hits 3\n".into(),
            },
            Response::Cancelled { job: 10, ok: true },
            Response::Done {
                job: 11,
                result,
                cached: true,
            },
            Response::Error {
                message: "no fleet".into(),
            },
            Response::Drained { rank: 2, ok: true },
        ];
        for resp in &resps {
            assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_rejected() {
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err(), "trailing byte detected");
    }
}
