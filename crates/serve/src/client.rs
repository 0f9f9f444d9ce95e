//! Blocking client for the serve daemon.
//!
//! Every request/response exchange retries through a bounded
//! exponential-backoff-with-jitter loop: a dropped connection (daemon
//! restart, transient network failure) is redialed and the request
//! resent. Resending is safe because the daemon's request handlers are
//! idempotent from the client's point of view — a resubmitted job
//! coalesces onto the in-flight copy or hits the result cache, and
//! `status`/`stats`/`cancel`/`drain` are plain queries or at-most-once
//! state flips. Protocol errors (a malformed response) do *not* retry:
//! the peer is broken, not the link.

use crate::protocol::{Request, Response, SubmitReq};
use easyhps_net::frame::{self, CLIENT_MAGIC};
use easyhps_net::stream::{retry_with_backoff, Stream};
use easyhps_net::NetAddr;
use easyhps_runtime::remote::JobSpec;
use std::io;
use std::time::Duration;

/// Redial-and-resend attempts after the initial try.
const RETRY_ATTEMPTS: u32 = 8;
/// First backoff; doubles per attempt.
const RETRY_BASE: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const RETRY_CAP: Duration = Duration::from_secs(2);

/// A connected client. One request/response exchange at a time; a
/// `wait` submission keeps the exchange open until the terminal
/// response ([`Client::read_response`] fetches it).
pub struct Client {
    addr: NetAddr,
    /// `None` after a failed exchange, until the next one redials.
    stream: Option<Stream>,
    retries: u64,
}

/// Whether a failed exchange is worth redialing: connection-level
/// errors are; a decoded-but-malformed response (`InvalidData`) means
/// the peer speaks a different protocol and retrying cannot help.
fn retryable(e: &io::Error) -> bool {
    e.kind() != io::ErrorKind::InvalidData
}

impl Client {
    /// Connect to a daemon and perform the protocol hello.
    pub fn connect(addr: &NetAddr) -> io::Result<Client> {
        Ok(Client {
            addr: addr.clone(),
            stream: Some(Self::dial(addr)?),
            retries: 0,
        })
    }

    /// How many times this client redialed and resent a request.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn dial(addr: &NetAddr) -> io::Result<Stream> {
        let mut stream = Stream::connect(addr)?;
        frame::send_hello(&mut stream, frame::hello(CLIENT_MAGIC))?;
        Ok(stream)
    }

    /// Run one exchange on the live connection (redialing first if the
    /// previous exchange lost it), and again — bounded, with exponential
    /// backoff + jitter — when the connection fails mid-exchange, e.g.
    /// across a daemon restart. A refused redial is just another failed
    /// attempt.
    fn with_retry(
        &mut self,
        mut exchange: impl FnMut(&mut Client) -> io::Result<Response>,
    ) -> io::Result<Response> {
        let mut retried = 0;
        let out = retry_with_backoff(
            RETRY_BASE,
            RETRY_CAP,
            || {
                if self.stream.is_none() {
                    self.stream = Some(Self::dial(&self.addr)?);
                }
                exchange(self).inspect_err(|_| self.stream = None)
            },
            |e, failures| {
                let again = retryable(e) && failures <= RETRY_ATTEMPTS;
                retried += again as u64;
                again
            },
        );
        self.retries += retried;
        out
    }

    fn try_request(&mut self, req: &Request) -> io::Result<Response> {
        let stream = self.stream.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        frame::send_msg(stream, &req.encode())?;
        self.read_response()
    }

    /// Send a request and read its first response, redialing and
    /// resending when the connection fails mid-exchange.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.with_retry(|c| c.try_request(req))
    }

    /// Read one more response — the terminal `Done`/`Error` of a `wait`
    /// submission, or the `Done` following a cache-hit acceptance. Not
    /// retried here: a connection lost mid-wait needs the job resubmitted
    /// (see [`Client::submit_wait`]), not the read repeated.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let stream = self.stream.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        let payload = frame::recv_msg(stream)?;
        Ok(Response::decode(&payload)?)
    }

    /// Submit a job. Returns the admission response; on a cache hit or
    /// with `wait`, call [`Client::read_response`] for the `Done`.
    pub fn submit(&mut self, tenant: &str, wait: bool, spec: JobSpec) -> io::Result<Response> {
        self.request(&Request::Submit(SubmitReq {
            tenant: tenant.to_string(),
            wait,
            spec,
        }))
    }

    /// Submit and block for the terminal response, surviving daemon
    /// restarts: a connection lost while waiting resubmits the job
    /// (idempotent — it coalesces onto the in-flight copy or hits the
    /// result cache) under the same bounded backoff as [`Client::request`].
    pub fn submit_wait(&mut self, tenant: &str, spec: JobSpec) -> io::Result<Response> {
        let req = Request::Submit(SubmitReq {
            tenant: tenant.to_string(),
            wait: true,
            spec,
        });
        self.with_retry(|c| match c.try_request(&req)? {
            // Admitted: the terminal Done/Error follows on the same
            // exchange (a cache hit's Done is immediate).
            Response::Accepted { .. } => c.read_response(),
            other => Ok(other),
        })
    }

    /// Query a job's lifecycle state.
    pub fn status(&mut self, job: u64) -> io::Result<Response> {
        self.request(&Request::Status { job })
    }

    /// Fetch the daemon's metrics as Prometheus-style text.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(&Request::Stats)
    }

    /// Cancel a queued job.
    pub fn cancel(&mut self, job: u64) -> io::Result<Response> {
        self.request(&Request::Cancel { job })
    }

    /// Gracefully drain slave `rank` out of the daemon's fleet.
    pub fn drain(&mut self, rank: u32) -> io::Result<Response> {
        self.request(&Request::Drain { rank })
    }
}
