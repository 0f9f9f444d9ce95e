//! Byte streams under the frame layer: TCP or Unix-domain, one enum.
//!
//! Rank links and the serve daemon's client protocol both run over a
//! [`Stream`] dialed with [`Stream::connect`] or handed out by a
//! [`Listener`]; [`retry_with_backoff`] is the one redial loop.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

/// A transport address: `tcp:host:port` (or bare `host:port`) or
/// `uds:/path/to.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetAddr {
    /// TCP endpoint, `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl NetAddr {
    /// Parse an address spec. Accepted forms: `tcp:HOST:PORT`,
    /// `HOST:PORT`, `uds:PATH`, `unix:PATH`.
    pub fn parse(spec: &str) -> Result<NetAddr, String> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            return Ok(NetAddr::Tcp(rest.to_string()));
        }
        if let Some(rest) = spec
            .strip_prefix("uds:")
            .or_else(|| spec.strip_prefix("unix:"))
        {
            return Ok(NetAddr::Uds(PathBuf::from(rest)));
        }
        if spec.contains(':') {
            return Ok(NetAddr::Tcp(spec.to_string()));
        }
        Err(format!(
            "bad address {spec:?}: expected tcp:HOST:PORT, HOST:PORT or uds:PATH"
        ))
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            NetAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A connected byte stream of either flavour.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection (Nagle off: small protocol messages dominate, so
    /// latency matters more than packet count).
    Tcp(TcpStream),
    /// Unix-domain connection.
    Uds(UnixStream),
}

impl Stream {
    /// Dial `addr` once.
    pub fn connect(addr: &NetAddr) -> io::Result<Stream> {
        Ok(match addr {
            NetAddr::Tcp(hp) => {
                let s = TcpStream::connect(hp)?;
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }
            NetAddr::Uds(path) => Stream::Uds(UnixStream::connect(path)?),
        })
    }

    /// A second handle to the same connection — for a writer thread, or
    /// to [`Stream::shutdown`] it from another thread.
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

    /// Close both directions; a thread blocked in a read on any handle
    /// of this connection sees EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// Bound blocking reads (handshakes must not park forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Bound blocking writes — unlike `O_NONBLOCK`, which all handles of
    /// the connection share, this leaves reads blocking.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Uds(s) => s.set_write_timeout(t),
        }
    }

    /// std's socket as a reader, which fills a buffer's spare capacity
    /// without zeroing it first (this enum's `Read` impl would).
    pub fn reader(&mut self) -> &mut dyn Read {
        match self {
            Stream::Tcp(s) => s,
            Stream::Uds(s) => s,
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader().read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// First and largest delay between the polls of [`Listener::accept_by`].
const ACCEPT_BACKOFF: (Duration, Duration) = (Duration::from_micros(100), Duration::from_millis(5));

/// A bound listener, accepted from by polling so the caller can give up
/// at a deadline (a missing slave, a daemon shutting down).
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener; the socket file is removed on drop.
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// Bind to `addr`. For `tcp:host:0` the OS picks a port; read it
    /// back with [`Listener::local_addr`]. A stale Unix socket file from
    /// a crashed run is removed first.
    pub fn bind(addr: &NetAddr) -> io::Result<Listener> {
        Ok(match addr {
            NetAddr::Tcp(hp) => {
                let l = TcpListener::bind(hp)?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
            NetAddr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Listener::Uds(l, path.clone())
            }
        })
    }

    /// The address actually bound (port resolved for TCP).
    pub fn local_addr(&self) -> NetAddr {
        match self {
            Listener::Tcp(l) => NetAddr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into()),
            ),
            Listener::Uds(_, path) => NetAddr::Uds(path.clone()),
        }
    }

    /// Accept one (blocking-mode) connection, polling with backoff until
    /// `deadline`; `Ok(None)` when it passes with nobody at the door. The
    /// polls start sub-millisecond, so a peer dialing just after the call
    /// is taken at once, and back off to a 5 ms cap.
    pub fn accept_by(&self, deadline: Instant) -> io::Result<Option<Stream>> {
        let accept = || match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(false)?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }),
            Listener::Uds(l, _) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(false)?;
                Ok(Stream::Uds(s))
            }),
        };
        let idle = |e: &io::Error| e.kind() == io::ErrorKind::WouldBlock;
        let (first, cap) = ACCEPT_BACKOFF;
        match retry_with_backoff(first, cap, accept, |e, _| {
            idle(e) && Instant::now() < deadline
        }) {
            Ok(s) => Ok(Some(s)),
            Err(e) if idle(&e) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// 64 well-mixed bits without a PRNG dependency: splitmix64 over the
/// clock, the pid and `salt`. Distinct across processes and, for
/// distinct salts, across calls within one.
pub(crate) fn entropy(salt: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut z = nanos ^ (u64::from(std::process::id()) << 32) ^ salt;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one redial loop. Call `op` until it succeeds; after each failure
/// ask `retry` (handed the error and the 1-based count of failures so
/// far) whether to go on, and if so sleep `first * 2^(failures-1)` capped
/// at `cap`, plus up to 50 % jitter so a herd of peers restarting
/// against one listener does not redial in lockstep. The error `retry`
/// declines is the one returned.
pub fn retry_with_backoff<T>(
    first: Duration,
    cap: Duration,
    mut op: impl FnMut() -> io::Result<T>,
    mut retry: impl FnMut(&io::Error, u32) -> bool,
) -> io::Result<T> {
    let mut failures = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                failures += 1;
                if !retry(&e, failures) {
                    return Err(e);
                }
                let delay = first
                    .saturating_mul(1u32 << (failures - 1).min(16))
                    .min(cap);
                let jitter = entropy(u64::from(failures)) % (delay.as_nanos() as u64 / 2).max(1);
                std::thread::sleep(delay + Duration::from_nanos(jitter));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_forms() {
        assert_eq!(
            NetAddr::parse("tcp:1.2.3.4:99").unwrap(),
            NetAddr::Tcp("1.2.3.4:99".into())
        );
        assert_eq!(
            NetAddr::parse("1.2.3.4:99").unwrap(),
            NetAddr::Tcp("1.2.3.4:99".into())
        );
        assert_eq!(
            NetAddr::parse("uds:/tmp/x.sock").unwrap(),
            NetAddr::Uds("/tmp/x.sock".into())
        );
        assert_eq!(
            NetAddr::parse("unix:/tmp/x.sock").unwrap(),
            NetAddr::Uds("/tmp/x.sock".into())
        );
        assert!(NetAddr::parse("nonsense").is_err());
    }

    #[test]
    fn backoff_retries_until_declined_and_returns_that_error() {
        let mut calls = 0;
        let out: io::Result<()> = retry_with_backoff(
            Duration::from_millis(1),
            Duration::from_millis(2),
            || {
                calls += 1;
                Err(io::Error::other(format!("attempt {calls}")))
            },
            |_, failures| failures < 3,
        );
        assert_eq!(out.unwrap_err().to_string(), "attempt 3");
        let ok = retry_with_backoff(
            Duration::from_millis(1),
            Duration::from_millis(2),
            || Ok(7),
            |_, _| panic!("no failure to ask about"),
        );
        assert_eq!(ok.unwrap(), 7);
    }

    #[test]
    fn accept_by_wakes_on_a_connect() {
        // A peer dialing ~1 ms into a long accept is taken within a
        // sub-millisecond poll, not at the end of a fixed nap.
        let l = Listener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
        let NetAddr::Tcp(addr) = l.local_addr() else {
            unreachable!("bound TCP")
        };
        let mut lag: Vec<Duration> = (0..10)
            .map(|_| {
                let addr = addr.clone();
                let dialer = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    let s = TcpStream::connect(addr).unwrap();
                    (Instant::now(), s)
                });
                let got = l.accept_by(Instant::now() + Duration::from_secs(1));
                let accepted = Instant::now();
                assert!(got.unwrap().is_some(), "the dialer was accepted");
                let (connected, _s) = dialer.join().unwrap();
                accepted.saturating_duration_since(connected)
            })
            .collect();
        lag.sort_unstable();
        assert!(lag[5] < Duration::from_millis(2), "median lag {:?}", lag[5]);
    }
}
