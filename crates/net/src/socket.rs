//! Socket transport: master and slaves as separate OS processes.
//!
//! Replaces the in-process crossbeam links with real TCP or Unix-domain
//! connections while keeping the [`Endpoint`] API,
//! fault injection and statistics identical — `ReliableEndpoint` runs on
//! top unchanged.
//!
//! ## Topology
//!
//! The runtime is a star: every message flows master (rank 0) ↔ slave.
//! The master listens, accepts one connection per slave and assigns
//! ranks; each slave holds exactly one connection (to the master) and
//! unrouted stubs for its siblings.
//!
//! ## Wire format
//!
//! This module knows none: a link moves the sealed frames of
//! [`crate::frame`] verbatim. The writer thread hands each queued frame
//! to [`frame::write_frame`], the reader thread takes whole frames from
//! [`frame::read_frame`] and forwards them — unverified, the receiving
//! endpoint checks the CRC exactly as it does for an in-process frame —
//! and both handshake messages are HELLO frames read by
//! [`frame::recv_hello`]. A length prefix outside the frame bound
//! desynchronises the stream and is a fatal connection error.
//!
//! ## Backpressure
//!
//! Each connection owns a bounded outbound queue drained by a writer
//! thread, so a sender never blocks in `write(2)` behind a frozen peer.
//! `send` blocks once [`OUTBOUND_HWM`] bytes are queued (a single frame
//! larger than the mark is admitted when the queue is empty, so a giant
//! strip cannot deadlock). A reader thread feeds received frames into
//! the endpoint's ordinary channel.
//!
//! ## Failure mapping
//!
//! Socket errors collapse onto the existing [`NetError`] semantics: a
//! closed or errored connection makes every subsequent send to that peer
//! return [`NetError::Disconnected`] (which the runtime's fault
//! tolerance already treats as "peer unreachable"), receives simply stop
//! yielding messages from that peer (heartbeat silence), and
//! [`KillHandle`](crate::KillHandle) / timeouts behave exactly as over
//! channels.

use crate::fault::FaultPlan;
use crate::frame::{self, Kind, RANK_MAGIC};
use crate::message::{Rank, Tag};
use crate::stream::{entropy, retry_with_backoff, Listener, NetAddr, Stream};
use crate::transport::{Endpoint, Inbound, NetError, TxLink};
use crate::wire::WireReader;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `want_rank` wildcard: let the master pick.
pub const ANY_RANK: u32 = u32::MAX;
/// Outbound queue high-water mark in bytes; sends block past it.
pub const OUTBOUND_HWM: usize = 8 << 20;
/// How long a slave keeps retrying its initial connect (the master may
/// not be up yet).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the master waits for all slaves to join.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);
/// Bound on each blocking read of a handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long dropping a link's last sender waits for its writer to put
/// the queued frames on the wire and for both link threads to finish.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(1);
/// First and largest delay between dial attempts.
const DIAL_BACKOFF: (Duration, Duration) = (Duration::from_millis(10), Duration::from_millis(500));

/// A fresh per-incarnation session id: unique across processes and across
/// `connect` calls within one process, never zero. The id is what lets
/// the master tell a resumed link (same session — splice, no fencing)
/// from a restarted slave (new session — fence the old incarnation).
fn fresh_session() -> u64 {
    static CTR: AtomicU64 = AtomicU64::new(0);
    entropy(
        CTR.fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ) | 1
}

/// The socket backend's one knob.
#[derive(Clone, Debug, Default)]
pub struct SocketConfig {
    /// When set, a broken link is not terminal: the slave side re-dials
    /// the master with exponential backoff (resuming its rank and session)
    /// for up to this window before giving up, and queued sends wait out
    /// the outage instead of failing. `None` (the default): the first
    /// link error makes every later send return
    /// [`NetError::Disconnected`].
    pub reconnect_window: Option<Duration>,
}

/// Per-link socket counters, shared with the reader/writer threads and
/// exported by the runtime's observability layer.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Bytes currently sitting in the outbound queue (gauge).
    pub bytes_queued: AtomicU64,
    /// Frames handed to the writer thread.
    pub frames_sent: AtomicU64,
    /// Bytes written to the socket: whole frames, header included.
    pub bytes_sent: AtomicU64,
    /// Frames received and forwarded to the endpoint.
    pub frames_recv: AtomicU64,
    /// Bytes read from the socket: whole frames, header included.
    pub bytes_recv: AtomicU64,
    /// Frames rejected for an out-of-range length: an oversized send
    /// (refused), or a received length prefix outside the frame bound
    /// (fatal for the stream).
    pub frames_rejected: AtomicU64,
    /// Connect attempts beyond the first (slave-side retry loop).
    pub reconnects: AtomicU64,
    /// Times the connection was observed closed or errored.
    pub disconnects: AtomicU64,
}

/// A point-in-time copy of [`LinkStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// See [`LinkStats::bytes_queued`].
    pub bytes_queued: u64,
    /// See [`LinkStats::frames_sent`].
    pub frames_sent: u64,
    /// See [`LinkStats::bytes_sent`].
    pub bytes_sent: u64,
    /// See [`LinkStats::frames_recv`].
    pub frames_recv: u64,
    /// See [`LinkStats::bytes_recv`].
    pub bytes_recv: u64,
    /// See [`LinkStats::frames_rejected`].
    pub frames_rejected: u64,
    /// See [`LinkStats::reconnects`].
    pub reconnects: u64,
    /// See [`LinkStats::disconnects`].
    pub disconnects: u64,
}

impl LinkStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            bytes_queued: self.bytes_queued.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// What a socket endpoint knows about its links, returned alongside the
/// [`Endpoint`] so callers can export per-link counters.
#[derive(Clone, Debug)]
pub struct SocketInfo {
    /// This endpoint's assigned rank.
    pub rank: Rank,
    /// Total ranks in the job (slaves + master).
    pub n_ranks: usize,
    /// `(peer rank, counters)` for every socket link this endpoint owns.
    pub links: Vec<(Rank, Arc<LinkStats>)>,
    /// The fleet epoch the handshake reported. Fenced fleets
    /// ([`SocketListener::accept_fleet`]) start at 1; plain
    /// [`SocketListener::accept_ranks`] / [`connect`] clusters report 0,
    /// matching the in-process transport's epochless runs.
    pub epoch: u64,
}

impl SocketInfo {
    /// Counters for the link to `peer`, if one exists.
    pub fn link(&self, peer: Rank) -> Option<&Arc<LinkStats>> {
        self.links.iter().find(|(r, _)| *r == peer).map(|(_, s)| s)
    }
}

// ---------------------------------------------------------------------
// Outbound queue + writer/reader threads
// ---------------------------------------------------------------------

/// Mutable half of a connection's outbound queue.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Bytes>,
    queued_bytes: usize,
    /// Connection observed broken (IO error or peer EOF): sends fail.
    closed: bool,
    /// Every `SocketTx` clone for this connection has been dropped:
    /// writer flushes and exits.
    tx_dropped: bool,
    /// Reader and writer threads that have finished; at 2 the queue is on
    /// the wire (or the link is gone) and both are ready to join.
    io_exited: u8,
}

/// How a connection reacts to a broken stream.
enum RelinkMode {
    /// The first link error closes the connection for good.
    Terminal,
    /// Slave side: re-dial the master with exponential backoff, resuming
    /// the same rank and session, for up to `window`.
    Dial {
        addr: NetAddr,
        rank: u32,
        session: u64,
        window: Duration,
    },
    /// Master side: hold the link open and wait for the fleet acceptor to
    /// splice a replacement stream in when the slave reconnects.
    Await,
}

/// The mutable link half of a connection: the current stream (if any)
/// and a generation counter bumped on every splice, so reader and writer
/// threads can tell a healed link from the one they saw break.
#[derive(Default)]
struct LinkState {
    gen: u64,
    stream: Option<Stream>,
    /// Sever-imposed downtime: the dialer must not re-establish before
    /// this instant.
    hold_until: Option<Instant>,
}

/// State shared between one connection's `SocketTx`, writer and reader.
struct Conn {
    q: Mutex<OutQueue>,
    cv: Condvar,
    link: Mutex<LinkState>,
    link_cv: Condvar,
    mode: RelinkMode,
    stats: Arc<LinkStats>,
    /// The writer and reader threads, joined when the last sender drops.
    io_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Conn {
    /// The last act of the reader and of the writer thread.
    fn io_thread_exited(&self) {
        self.q.lock().unwrap().io_exited += 1;
        self.cv.notify_all();
    }

    fn mark_closed(&self) {
        let mut q = self.q.lock().unwrap();
        if !q.closed {
            q.closed = true;
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
        drop(q);
        // Wake anyone parked on the link state too (dialer, writer).
        let mut l = self.link.lock().unwrap();
        if let Some(s) = l.stream.take() {
            s.shutdown();
        }
        self.link_cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.q.lock().unwrap().closed
    }

    /// Whether the dialer should give up: the connection is closed, or
    /// its endpoint is gone — the same rule as [`Conn::wait_stream`], so
    /// a dropped endpoint's link is never healed into a zombie that holds
    /// (or, redialing late, takes back) the rank of its replacement.
    fn unwanted(&self) -> bool {
        let q = self.q.lock().unwrap();
        q.closed || q.tx_dropped
    }

    /// Install `stream` as the link's current stream, waking the reader
    /// and writer. Counts a reconnect for every splice after the first
    /// installation.
    fn splice(&self, stream: Stream) {
        let mut l = self.link.lock().unwrap();
        if let Some(old) = l.stream.take() {
            old.shutdown();
        }
        if l.gen > 0 {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        l.gen += 1;
        l.stream = Some(stream);
        l.hold_until = None;
        self.link_cv.notify_all();
        self.cv.notify_all();
    }

    /// A reader or writer hit an IO error on generation `gen`: tear the
    /// stream down (once) and, in terminal mode, close the connection.
    fn link_broken(&self, gen: u64) {
        let terminal = {
            let mut l = self.link.lock().unwrap();
            if l.gen == gen && l.stream.is_some() {
                l.stream.take().unwrap().shutdown();
                self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                self.link_cv.notify_all();
                matches!(self.mode, RelinkMode::Terminal)
            } else {
                false
            }
        };
        if terminal {
            self.mark_closed();
        }
    }

    /// Hard-close the current stream (fault injection) and keep the link
    /// down for `down_for` before redial attempts may succeed. In
    /// terminal mode a severed link is gone for good.
    fn sever(&self, down_for: Duration) {
        {
            let mut l = self.link.lock().unwrap();
            if let Some(s) = l.stream.take() {
                s.shutdown();
                self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            l.hold_until = Some(Instant::now() + down_for);
            self.link_cv.notify_all();
        }
        if matches!(self.mode, RelinkMode::Terminal) {
            self.mark_closed();
        }
    }

    /// Block until a stream is available, returning a clone of it plus
    /// its generation. `None` means the connection is closed (or the
    /// sender half is gone while the link is down) and the caller should
    /// give up.
    fn wait_stream(&self) -> Option<(Stream, u64)> {
        self.wait_stream_after(0)
    }

    /// Like [`Conn::wait_stream`], but only returns a stream of a
    /// generation strictly greater than `after` — the reader uses this to
    /// wait for a *new* stream after the one it was reading broke.
    fn wait_stream_after(&self, after: u64) -> Option<(Stream, u64)> {
        let mut l = self.link.lock().unwrap();
        loop {
            if l.gen > after {
                if let Some(s) = &l.stream {
                    if let Ok(c) = s.try_clone() {
                        return Some((c, l.gen));
                    }
                    // Un-clonable stream: treat as broken.
                    l.stream.take().unwrap().shutdown();
                    self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
            {
                let q = self.q.lock().unwrap();
                if q.closed || (q.tx_dropped && l.stream.is_none()) {
                    return None;
                }
            }
            l = self.link_cv.wait(l).unwrap();
        }
    }
}

/// Sending half of a socket link, held inside an endpoint's `TxLink`.
/// Clones share the connection; the writer thread is told to flush and
/// exit only when the *last* clone drops (see [`TxGuard`]), so a
/// persistent fleet endpoint keeps the link open while per-job endpoint
/// forks are created and dropped freely.
#[derive(Clone)]
pub(crate) struct SocketTx {
    conn: Arc<Conn>,
    _guard: Arc<TxGuard>,
}

/// Drop token shared by every clone of one connection's `SocketTx`.
struct TxGuard {
    conn: Arc<Conn>,
}

impl Drop for TxGuard {
    fn drop(&mut self) {
        let conn = &self.conn;
        conn.q.lock().unwrap().tx_dropped = true;
        conn.cv.notify_all();
        // The dialer and a stream waiter test `tx_dropped` on `link_cv`:
        // lock-then-notify, as in `mark_closed`.
        drop(conn.link.lock().unwrap());
        conn.link_cv.notify_all();
        // The writer puts the last frames (END, SHUTDOWN) on the wire and
        // shuts the stream, which ends the reader. Joining both means a
        // process cannot exit under them and the next job's threads do not
        // start beside them; the bound backstops a peer that stopped
        // reading, whose threads are left detached.
        let q = conn.q.lock().unwrap();
        let (q, _) = conn
            .cv
            .wait_timeout_while(q, FLUSH_TIMEOUT, |q| q.io_exited < 2)
            .unwrap();
        if q.io_exited == 2 {
            drop(q);
            for h in conn.io_threads.lock().unwrap().drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl SocketTx {
    /// Enqueue one sealed frame, blocking while the outbound queue sits
    /// above the high-water mark.
    pub(crate) fn send(&self, frame: Bytes) -> Result<(), NetError> {
        if frame::oversized(&frame) {
            self.conn
                .stats
                .frames_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Disconnected);
        }
        let mut q = self.conn.q.lock().unwrap();
        loop {
            if q.closed {
                return Err(NetError::Disconnected);
            }
            // Admit when under the mark, or unconditionally when the
            // queue is empty (a lone giant frame must not deadlock).
            if q.queued_bytes + frame.len() <= OUTBOUND_HWM || q.frames.is_empty() {
                break;
            }
            q = self.conn.cv.wait(q).unwrap();
        }
        q.queued_bytes += frame.len();
        self.conn
            .stats
            .bytes_queued
            .store(q.queued_bytes as u64, Ordering::Relaxed);
        self.conn.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        q.frames.push_back(frame);
        self.conn.cv.notify_all();
        Ok(())
    }

    /// Hard-close the connection's stream (fault injection), keeping it
    /// down for `down_for` before the reconnect path may heal it.
    pub(crate) fn sever(&self, down_for: Duration) {
        self.conn.sever(down_for);
    }
}

/// Writer thread: drain the outbound queue onto the current stream.
/// Exits when the connection breaks terminally or when the endpoint is
/// gone and the queue is flushed (so teardown messages like END still
/// reach the peer). Under a relinkable mode a write error re-targets the
/// same frame at the next spliced stream instead of giving up; the
/// reliable layer's dedup absorbs the rare frame written twice across a
/// break.
fn writer_loop(conn: Arc<Conn>) {
    'frames: loop {
        let frame = {
            let mut q = conn.q.lock().unwrap();
            loop {
                if let Some(f) = q.frames.pop_front() {
                    q.queued_bytes -= f.len();
                    conn.stats
                        .bytes_queued
                        .store(q.queued_bytes as u64, Ordering::Relaxed);
                    conn.cv.notify_all();
                    break Some(f);
                }
                if q.closed || q.tx_dropped {
                    break None;
                }
                q = conn.cv.wait(q).unwrap();
            }
        };
        let Some(frame) = frame else { break };
        loop {
            let Some((mut stream, gen)) = conn.wait_stream() else {
                break 'frames;
            };
            if frame::write_frame(&mut stream, &frame).is_ok() {
                conn.stats
                    .bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                continue 'frames;
            }
            conn.link_broken(gen);
            if conn.is_closed() {
                break 'frames;
            }
        }
    }
    if let Some(s) = &conn.link.lock().unwrap().stream {
        s.shutdown();
    }
    conn.io_thread_exited();
}

/// Reader thread: take whole frames off the current stream and forward
/// them, unverified, into the endpoint's channel. On EOF or error the
/// behaviour depends on the relink mode: terminal links are marked closed
/// (subsequent sends fail with `Disconnected`); relinkable links wait for
/// the next spliced stream and resume.
fn reader_loop(conn: Arc<Conn>, peer: Rank, out: Sender<Inbound>) {
    let mut seen_gen = 0;
    'link: loop {
        let Some((mut stream, gen)) = conn.wait_stream_after(seen_gen) else {
            break;
        };
        seen_gen = gen;
        loop {
            let frame = match frame::read_frame(&mut stream) {
                Ok(f) => f,
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        // The stream is desynchronised; nothing after
                        // this length can be trusted.
                        conn.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            };
            conn.stats
                .bytes_recv
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            conn.stats.frames_recv.fetch_add(1, Ordering::Relaxed);
            // The connection, not the wire, is the source of truth for
            // the sender's identity.
            if out.send(Inbound { src: peer, frame }).is_err() {
                break 'link; // endpoint dropped
            }
        }
        conn.link_broken(gen);
        if conn.is_closed() {
            break;
        }
    }
    conn.mark_closed();
    conn.io_thread_exited();
}

/// Supervisor thread for slave-side relinkable connections: whenever the
/// link drops (and the connection is still wanted), re-dial the master
/// with exponential backoff, resuming the same rank under the same
/// session, then splice the fresh stream in. Gives up — closing the
/// connection — when a whole reconnect window passes without success.
fn dial_loop(conn: Arc<Conn>) {
    let RelinkMode::Dial {
        addr,
        rank,
        session,
        window,
    } = &conn.mode
    else {
        return;
    };
    loop {
        {
            // Park until the link is down.
            let mut l = conn.link.lock().unwrap();
            while l.stream.is_some() {
                if conn.unwanted() {
                    return;
                }
                l = conn.link_cv.wait(l).unwrap();
            }
            // Respect a sever's enforced downtime.
            if let Some(hold) = l.hold_until {
                let left = hold.saturating_duration_since(Instant::now());
                let _ = conn
                    .link_cv
                    .wait_timeout_while(l, left, |_| !conn.unwanted() && Instant::now() < hold);
            }
        }
        let deadline = Instant::now() + *window;
        let redialed = retry_with_backoff(
            DIAL_BACKOFF.0,
            DIAL_BACKOFF.1,
            || {
                if conn.unwanted() {
                    return Err(io::ErrorKind::NotConnected.into());
                }
                let mut s = Stream::connect(addr)?;
                let (got, _n_ranks, _epoch) = hello_exchange(&mut s, *rank, *session)?;
                if got != *rank {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("master re-assigned rank {got}, wanted {rank}"),
                    ));
                }
                Ok(s)
            },
            |_, _| !conn.unwanted() && Instant::now() < deadline,
        );
        match redialed {
            // Dropped mid-handshake: do not resurrect the link (the
            // master sees this stream close and the rank go dark).
            Ok(s) if !conn.unwanted() => conn.splice(s),
            _ => {
                conn.mark_closed();
                return;
            }
        }
    }
}

fn spawn_link(
    stream: Stream,
    peer: Rank,
    out: Sender<Inbound>,
    stats: Arc<LinkStats>,
    mode: RelinkMode,
) -> SocketTx {
    let dial = matches!(mode, RelinkMode::Dial { .. });
    let conn = Arc::new(Conn {
        q: Mutex::new(OutQueue::default()),
        cv: Condvar::new(),
        link: Mutex::new(LinkState::default()),
        link_cv: Condvar::new(),
        mode,
        stats,
        io_threads: Mutex::new(Vec::new()),
    });
    conn.splice(stream);
    let wc = conn.clone();
    let writer = std::thread::Builder::new()
        .name(format!("sock-wr-{}", peer.0))
        .spawn(move || writer_loop(wc))
        .expect("spawn socket writer");
    let rc = conn.clone();
    let reader = std::thread::Builder::new()
        .name(format!("sock-rd-{}", peer.0))
        .spawn(move || reader_loop(rc, peer, out))
        .expect("spawn socket reader");
    *conn.io_threads.lock().unwrap() = vec![writer, reader];
    if dial {
        let dc = conn.clone();
        std::thread::Builder::new()
            .name(format!("sock-dial-{}", peer.0))
            .spawn(move || dial_loop(dc))
            .expect("spawn socket dialer");
    }
    let guard = Arc::new(TxGuard { conn: conn.clone() });
    SocketTx {
        conn,
        _guard: guard,
    }
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Dialing side of the handshake: send the hello (`want_rank`, and the
/// slave's per-incarnation session id), read the welcome (assigned rank,
/// cluster size, the fleet epoch this admission happened under).
fn hello_exchange(s: &mut Stream, want_rank: u32, session: u64) -> io::Result<(u32, u32, u64)> {
    s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut hello = frame::hello(RANK_MAGIC);
    hello.put_u32(want_rank).put_u64(session);
    frame::send_hello(s, hello)?;
    let fields = frame::recv_hello(s, RANK_MAGIC)?;
    let mut r = WireReader::new(&fields);
    let welcome = (r.get_u32()?, r.get_u32()?, r.get_u64()?);
    s.set_read_timeout(None)?;
    Ok(welcome)
}

/// Accepting side, first half: read a peer's `(want_rank, session)`.
fn read_hello(s: &mut Stream) -> io::Result<(u32, u64)> {
    s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let fields = frame::recv_hello(s, RANK_MAGIC)?;
    let mut r = WireReader::new(&fields);
    Ok((r.get_u32()?, r.get_u64()?))
}

/// Accepting side, second half: admit the peer.
fn write_welcome(s: &mut Stream, rank: u32, n_ranks: u32, epoch: u64) -> io::Result<()> {
    let mut welcome = frame::hello(RANK_MAGIC);
    welcome.put_u32(rank).put_u32(n_ranks).put_u64(epoch);
    frame::send_hello(s, welcome)?;
    s.set_read_timeout(None)
}

// ---------------------------------------------------------------------
// Master: listen + accept
// ---------------------------------------------------------------------

/// A bound listener; call [`SocketListener::accept_ranks`] to gather the
/// slave connections and build the master endpoint. Binding is split
/// from accepting so callers can learn the actual address (ephemeral TCP
/// port) before starting slaves.
pub struct SocketListener {
    inner: Listener,
}

/// The master side after its initial fleet is in.
struct Admitted {
    ep: Endpoint,
    info: SocketInfo,
    slots: Vec<Option<RankSlot>>,
    env_tx: Sender<Inbound>,
}

impl SocketListener {
    /// Bind to `addr`. For `tcp:host:0` the OS picks a port; read the
    /// result back with [`SocketListener::local_addr`]. The config is
    /// taken for symmetry with [`connect`]; the accepting side has no use
    /// for a reconnect window (it never dials — elastic membership is
    /// chosen by calling [`SocketListener::accept_fleet`]).
    pub fn bind(addr: &NetAddr, _cfg: SocketConfig) -> io::Result<SocketListener> {
        Ok(SocketListener {
            inner: Listener::bind(addr)?,
        })
    }

    /// The address actually bound (port resolved for TCP).
    pub fn local_addr(&self) -> NetAddr {
        self.inner.local_addr()
    }

    /// Accept `n_slaves` connections, assign ranks `1..=n_slaves`
    /// (honouring a slave's `want_rank` when it is free) and hand every
    /// admitted slave `epoch` in its welcome. `elastic` links are held
    /// open across outages ([`RelinkMode::Await`]) instead of closing on
    /// the first error.
    fn admit_initial(
        &self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
        epoch: u64,
        elastic: bool,
    ) -> io::Result<Admitted> {
        assert!(n_slaves > 0, "a socket cluster needs at least one slave");
        let n_ranks = n_slaves + 1;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let (env_tx, env_rx) = unbounded();
        let mut links: Vec<TxLink> = (0..n_ranks).map(|_| TxLink::Unrouted).collect();
        links[0] = TxLink::Channel(env_tx.clone()); // loopback
        let mut slots: Vec<Option<RankSlot>> = (0..n_ranks).map(|_| None).collect();
        let mut admitted = 0;
        while admitted < n_slaves {
            // Poll so a missing slave cannot park the master past its
            // accept timeout.
            let Some(mut stream) = self.inner.accept_by(deadline)? else {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for slaves to connect",
                ));
            };
            let Ok((want, session)) = read_hello(&mut stream) else {
                continue; // garbage peer: drop the connection
            };
            let want = want as usize;
            let rank = if (1..n_ranks).contains(&want) && slots[want].is_none() {
                want
            } else {
                1 + slots[1..]
                    .iter()
                    .position(|s| s.is_none())
                    .expect("fewer admitted than slots")
            };
            write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
            let stats = Arc::new(LinkStats::default());
            let mode = if elastic {
                RelinkMode::Await
            } else {
                RelinkMode::Terminal
            };
            let tx = spawn_link(
                stream,
                Rank(rank as u32),
                env_tx.clone(),
                stats.clone(),
                mode,
            );
            slots[rank] = Some(RankSlot {
                conn: tx.conn.clone(),
                session,
                stats,
            });
            links[rank] = TxLink::Socket(tx);
            admitted += 1;
        }
        let info = SocketInfo {
            rank: Rank(0),
            n_ranks,
            links: slots
                .iter()
                .enumerate()
                .filter_map(|(r, s)| Some((Rank(r as u32), s.as_ref()?.stats.clone())))
                .collect(),
            epoch,
        };
        Ok(Admitted {
            ep: Endpoint::from_parts(Rank(0), links, env_rx, plan),
            info,
            slots,
            env_tx,
        })
    }

    /// Accept `n_slaves` connections, assign ranks `1..=n_slaves`
    /// (honouring a slave's `want_rank` when it is free) and return the
    /// master endpoint plus per-link counters.
    pub fn accept_ranks(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
    ) -> io::Result<(Endpoint, SocketInfo)> {
        let a = self.admit_initial(n_slaves, plan, 0, false)?;
        Ok((a.ep, a.info))
    }

    /// Like [`SocketListener::accept_ranks`], but for a long-lived,
    /// *elastic* fleet: after the initial `n_slaves` are admitted the
    /// listener stays alive on a background acceptor thread that
    ///
    /// - **splices** a reconnecting slave (same rank, same session id)
    ///   back onto its existing link without any membership change,
    /// - **fences** a restarted slave (same rank, new session id) by
    ///   bumping the fleet epoch and reporting
    ///   [`MembershipEvent::Rejoined`] so the scheduler can roll back the
    ///   old incarnation's in-flight work,
    /// - **admits** brand-new slaves mid-run ([`MembershipEvent::Joined`]),
    ///   assigning ranks from the released free-list or growing the
    ///   cluster, and shipping them the configured join payload (the
    ///   job spec).
    ///
    /// The returned links are held open across slave outages
    /// (`RelinkMode::Await`): a send to a temporarily-dark slave queues
    /// instead of failing, and heartbeat silence — not link state — is
    /// what excludes it from scheduling.
    pub fn accept_fleet(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
    ) -> io::Result<(Endpoint, SocketInfo, FleetAcceptor)> {
        let Admitted {
            ep,
            info,
            slots,
            env_tx,
        } = self.admit_initial(n_slaves, plan, INITIAL_EPOCH, true)?;
        let shared = Arc::new(AcceptorShared {
            events: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(INITIAL_EPOCH),
            stop: AtomicBool::new(false),
            join_frame: Mutex::new(None),
            slots: Mutex::new(slots),
            released: Mutex::new(Vec::new()),
            links: ep.shared_links(),
            env_tx,
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("fleet-acceptor".into())
            .spawn(move || acceptor_loop(self, thread_shared))
            .expect("spawn fleet acceptor");
        let acceptor = FleetAcceptor {
            shared,
            handle: Some(handle),
        };
        Ok((ep, info, acceptor))
    }
}

/// The epoch every initial member of a fenced fleet is admitted under.
const INITIAL_EPOCH: u64 = 1;

/// A membership change observed by the fleet acceptor, to be drained
/// with [`FleetAcceptor::poll_events`] and fed to the master scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A slave's link dropped and the *same incarnation* reconnected: the
    /// stream was spliced, nothing was lost, no fencing is needed.
    Relinked {
        /// The resuming slave's rank.
        rank: u32,
    },
    /// A *new incarnation* of an existing rank connected: the fleet epoch
    /// was bumped and anything the old incarnation still held must be
    /// rolled back and its late DONEs fenced.
    Rejoined {
        /// The rank being taken over.
        rank: u32,
        /// The new fleet epoch the incarnation was admitted under.
        epoch: u64,
    },
    /// A brand-new slave was admitted mid-run (fresh rank from the
    /// free-list, or the cluster grew).
    Joined {
        /// The new slave's rank.
        rank: u32,
        /// The fleet epoch it was admitted under.
        epoch: u64,
    },
}

/// Per-rank admission record the acceptor keeps for splice/fence
/// decisions.
struct RankSlot {
    conn: Arc<Conn>,
    session: u64,
    stats: Arc<LinkStats>,
}

struct AcceptorShared {
    events: Mutex<VecDeque<MembershipEvent>>,
    epoch: AtomicU64,
    stop: AtomicBool,
    /// Sealed frame shipped to every newly admitted or re-incarnated
    /// slave, so a joiner learns the job it walked into.
    join_frame: Mutex<Option<Bytes>>,
    slots: Mutex<Vec<Option<RankSlot>>>,
    /// Sessions of released ranks: their dialers are refused, so a
    /// released slave cannot re-admit itself as a brand-new joiner.
    released: Mutex<Vec<u64>>,
    links: Arc<RwLock<Vec<TxLink>>>,
    env_tx: Sender<Inbound>,
}

/// Handle to the background acceptor keeping an elastic fleet's listener
/// alive. Dropping it stops the thread and closes every fleet link.
pub struct FleetAcceptor {
    shared: Arc<AcceptorShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetAcceptor {
    /// Drain membership events observed since the last poll, in order.
    pub fn poll_events(&self) -> Vec<MembershipEvent> {
        self.shared.events.lock().unwrap().drain(..).collect()
    }

    /// The current fleet epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Current cluster size (master + highest admitted rank).
    pub fn n_ranks(&self) -> usize {
        self.shared.slots.lock().unwrap().len()
    }

    /// Set the message shipped to every slave admitted from now on (the
    /// JOB spec, so a mid-run joiner knows what to compute).
    pub fn set_join_payload(&self, tag: Tag, payload: &[u8]) {
        *self.shared.join_frame.lock().unwrap() = Some(frame::seal(Kind::Raw, tag, 0, payload));
    }

    /// Stop shipping a join payload (between jobs).
    pub fn clear_join_payload(&self) {
        *self.shared.join_frame.lock().unwrap() = None;
    }

    /// Per-link counters for `rank` (including links installed for
    /// mid-run joiners, which are not in the original `SocketInfo`).
    pub fn link_stats(&self, rank: u32) -> Option<Arc<LinkStats>> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .get(rank as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.stats.clone())
    }

    /// Ranks that are admitted *and* currently linked (stream up). A rank
    /// missing from this list is either released or dark — dark ranks may
    /// still come back within the run.
    pub fn live_ranks(&self) -> Vec<u32> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(r, s)| {
                let s = s.as_ref()?;
                s.conn
                    .link
                    .lock()
                    .unwrap()
                    .stream
                    .is_some()
                    .then_some(r as u32)
            })
            .collect()
    }

    /// Release `rank`: close its link and return the rank to the
    /// free-list, so a future joiner can take it. The caller is expected
    /// to have drained the slave first (graceful drain) — anything still
    /// in flight is lost and will be redispatched by fault tolerance.
    pub fn release_rank(&self, rank: u32) {
        let slot = {
            let mut slots = self.shared.slots.lock().unwrap();
            slots.get_mut(rank as usize).and_then(|s| s.take())
        };
        if let Some(slot) = slot {
            self.shared.released.lock().unwrap().push(slot.session);
            slot.conn.mark_closed();
        }
    }

    /// Stop the acceptor thread (idempotent). New connections are no
    /// longer admitted; existing links stay up.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for FleetAcceptor {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // Close every fleet link: Await-mode conns would otherwise wait
        // forever for a splice that can no longer happen.
        let mut slots = self.shared.slots.lock().unwrap();
        for slot in slots.iter_mut().filter_map(|s| s.take()) {
            slot.conn.mark_closed();
        }
    }
}

/// The background acceptor: admit reconnections, re-incarnations and
/// mid-run joiners until stopped.
fn acceptor_loop(listener: SocketListener, shared: Arc<AcceptorShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Bounds how late `FleetAcceptor::stop` is seen; a dialer ends it early.
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut stream = match listener.inner.accept_by(deadline) {
            Ok(Some(s)) => s,
            Ok(None) => continue,
            Err(_) => break,
        };
        let Ok((want, session)) = read_hello(&mut stream) else {
            continue; // garbage peer: drop the connection
        };
        let _ = admit(stream, want, session, &shared);
    }
}

/// Admit one handshaken connection per the fleet membership rules.
fn admit(
    mut stream: Stream,
    want: u32,
    session: u64,
    shared: &Arc<AcceptorShared>,
) -> io::Result<()> {
    if shared.released.lock().unwrap().contains(&session) {
        return Ok(()); // hang up: this incarnation was released
    }
    let mut slots = shared.slots.lock().unwrap();
    let n_ranks = slots.len();
    let existing = (want as usize) < n_ranks && want != 0 && slots[want as usize].is_some();
    if existing {
        let rank = want as usize;
        let slot = slots[rank].as_mut().unwrap();
        if slot.session == session {
            // Same incarnation resuming after a link blip: splice, no
            // membership change, no fencing.
            write_welcome(
                &mut stream,
                rank as u32,
                n_ranks as u32,
                shared.epoch.load(Ordering::SeqCst),
            )?;
            slot.conn.splice(stream);
            shared
                .events
                .lock()
                .unwrap()
                .push_back(MembershipEvent::Relinked { rank: rank as u32 });
            return Ok(());
        }
        // New incarnation of an existing rank: fence the old one. The
        // event is queued *before* the welcome goes out, so the master
        // shell processes the Rejoined before any frame of the new
        // incarnation can arrive.
        let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        shared
            .events
            .lock()
            .unwrap()
            .push_back(MembershipEvent::Rejoined {
                rank: rank as u32,
                epoch,
            });
        write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
        slot.session = session;
        slot.conn.splice(stream);
        let tx = {
            let links = shared.links.read().unwrap();
            match links.get(rank) {
                Some(TxLink::Socket(tx)) => Some(tx.clone()),
                _ => None,
            }
        };
        drop(slots);
        ship_join_payload(shared, tx);
        return Ok(());
    }
    // Brand-new admission: reuse a released rank or grow the cluster.
    let rank = match slots[1..].iter().position(|s| s.is_none()) {
        Some(i) => i + 1,
        None => {
            slots.push(None);
            shared.links.write().unwrap().push(TxLink::Unrouted);
            slots.len() - 1
        }
    };
    let n_ranks = slots.len();
    let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
    shared
        .events
        .lock()
        .unwrap()
        .push_back(MembershipEvent::Joined {
            rank: rank as u32,
            epoch,
        });
    write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
    let stats = Arc::new(LinkStats::default());
    let tx = spawn_link(
        stream,
        Rank(rank as u32),
        shared.env_tx.clone(),
        stats.clone(),
        RelinkMode::Await,
    );
    slots[rank] = Some(RankSlot {
        conn: tx.conn.clone(),
        session,
        stats,
    });
    shared.links.write().unwrap()[rank] = TxLink::Socket(tx.clone());
    drop(slots);
    ship_join_payload(shared, Some(tx));
    Ok(())
}

/// Queue the configured join frame (the JOB spec) on a freshly admitted
/// slave's link.
fn ship_join_payload(shared: &Arc<AcceptorShared>, tx: Option<SocketTx>) {
    let frame = shared.join_frame.lock().unwrap().clone();
    if let (Some(tx), Some(frame)) = (tx, frame) {
        let _ = tx.send(frame);
    }
}

// ---------------------------------------------------------------------
// Slave: connect
// ---------------------------------------------------------------------

/// Connect to a listening master, handshake a rank, and return the slave
/// endpoint. Retries the connect with backoff for up to 30 s so slaves
/// may start before the master; retries are counted in
/// [`LinkStats::reconnects`].
pub fn connect(
    addr: &NetAddr,
    want_rank: Option<u32>,
    cfg: SocketConfig,
    plan: Option<FaultPlan>,
) -> io::Result<(Endpoint, SocketInfo)> {
    let stats = Arc::new(LinkStats::default());
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut stream = retry_with_backoff(
        DIAL_BACKOFF.0,
        DIAL_BACKOFF.1,
        || Stream::connect(addr),
        |_, _| {
            let again = Instant::now() < deadline;
            if again {
                stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            again
        },
    )?;
    let session = fresh_session();
    let (rank, n_ranks, epoch) =
        hello_exchange(&mut stream, want_rank.unwrap_or(ANY_RANK), session).map_err(|e| {
            let why = format!("rank handshake with {addr} failed (is it a master's port?): {e}");
            io::Error::new(e.kind(), why)
        })?;
    if rank == 0 || rank >= n_ranks {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("master assigned rank {rank} of {n_ranks}"),
        ));
    }
    let (env_tx, env_rx): (_, Receiver<Inbound>) = unbounded();
    let mut links: Vec<TxLink> = (0..n_ranks as usize).map(|_| TxLink::Unrouted).collect();
    let mode = match cfg.reconnect_window {
        Some(window) => RelinkMode::Dial {
            addr: addr.clone(),
            rank,
            session,
            window,
        },
        None => RelinkMode::Terminal,
    };
    let tx = spawn_link(stream, Rank(0), env_tx.clone(), stats.clone(), mode);
    links[0] = TxLink::Socket(tx);
    links[rank as usize] = TxLink::Channel(env_tx); // loopback
    let ep = Endpoint::from_parts(Rank(rank), links, env_rx, plan);
    let info = SocketInfo {
        rank: Rank(rank),
        n_ranks: n_ranks as usize,
        links: vec![(Rank(0), stats)],
        epoch,
    };
    Ok((ep, info))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn tcp_pair(n_slaves: usize) -> (Endpoint, SocketInfo, Vec<(Endpoint, SocketInfo)>) {
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let handles: Vec<_> = (1..=n_slaves)
            .map(|r| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    connect(&addr, Some(r as u32), SocketConfig::default(), None).unwrap()
                })
            })
            .collect();
        let (master, minfo) = listener.accept_ranks(n_slaves, None).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, minfo, slaves)
    }

    #[test]
    fn tcp_ping_pong_with_rank_assignment() {
        let (mut master, minfo, mut slaves) = tcp_pair(2);
        assert_eq!(minfo.n_ranks, 3);
        for (ep, info) in &slaves {
            assert_eq!(ep.rank(), info.rank);
            assert_eq!(ep.n_ranks(), 3);
        }
        for (ref mut ep, _) in &mut slaves {
            ep.send(Rank(0), Tag(1), b("hello")).unwrap();
        }
        for _ in 0..2 {
            let env = master.recv().unwrap();
            assert_eq!(env.tag, Tag(1));
            assert_eq!(&env.payload[..], b"hello");
            master.send(env.src, Tag(2), b("world")).unwrap();
        }
        for (ref mut ep, _) in &mut slaves {
            let env = ep.recv().unwrap();
            assert_eq!(env.src, Rank(0));
            assert_eq!(&env.payload[..], b"world");
        }
    }

    #[test]
    fn uds_ping_pong() {
        let path = std::env::temp_dir().join(format!("easyhps-test-{}.sock", std::process::id()));
        let listener =
            SocketListener::bind(&NetAddr::Uds(path.clone()), SocketConfig::default()).unwrap();
        let addr = listener.local_addr();
        let h = std::thread::spawn(move || {
            connect(&addr, None, SocketConfig::default(), None).unwrap()
        });
        let (mut master, _info) = listener.accept_ranks(1, None).unwrap();
        let (mut slave, _sinfo) = h.join().unwrap();
        slave.send(Rank(0), Tag(7), b("ping")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"ping");
        master.send(slave.rank(), Tag(8), b("pong")).unwrap();
        assert_eq!(&slave.recv().unwrap().payload[..], b"pong");
        drop(master);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slave_to_slave_is_unrouted() {
        let (_master, _minfo, mut slaves) = tcp_pair(2);
        let (ref mut s1, _) = slaves[0];
        assert_eq!(
            s1.send(Rank(2), Tag(0), Bytes::new()).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn peer_death_fails_sends_promptly() {
        let (mut master, _minfo, slaves) = tcp_pair(1);
        drop(slaves); // slave endpoints drop: connections close
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match master.send(Rank(1), Tag(0), b("x")) {
                Err(NetError::Disconnected) => break,
                Ok(()) => {
                    assert!(Instant::now() < deadline, "send must start failing");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn per_pair_ordering_over_tcp() {
        let (mut master, _minfo, mut slaves) = tcp_pair(1);
        for i in 0..200u32 {
            master.send(Rank(1), Tag(i), Bytes::new()).unwrap();
        }
        let (ref mut slave, _) = slaves[0];
        for i in 0..200u32 {
            assert_eq!(slave.recv().unwrap().tag, Tag(i));
        }
    }

    #[test]
    fn oversized_send_is_rejected() {
        let (mut master, minfo, _slaves) = tcp_pair(1);
        // With its header the frame is past the bound by HEADER_LEN - 4.
        let big = Bytes::from(vec![0u8; frame::MAX_FRAME]);
        assert_eq!(
            master.send(Rank(1), Tag(0), big).unwrap_err(),
            NetError::Disconnected
        );
        let snap = minfo.link(Rank(1)).unwrap().snapshot();
        assert_eq!(snap.frames_rejected, 1);
        assert_eq!(snap.frames_sent, 0);
    }

    #[test]
    fn fault_plans_apply_over_sockets() {
        // A lossy master drops deterministically even over TCP: the
        // fault layer sits above the link.
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let h = std::thread::spawn(move || {
            connect(&addr, None, SocketConfig::default(), None).unwrap()
        });
        let plan = FaultPlan::lossy(0.5, 42);
        let (mut master, _minfo) = listener.accept_ranks(1, Some(plan)).unwrap();
        let (mut slave, _sinfo) = h.join().unwrap();
        for _ in 0..100 {
            master.send(Rank(1), Tag(3), Bytes::new()).unwrap();
        }
        let mut got = 0u64;
        while slave.recv_timeout(Duration::from_millis(500)).is_ok() {
            got += 1;
        }
        let dropped = master.stats().dropped_msgs;
        assert_eq!(got + dropped, 100);
        assert!(
            dropped > 20 && dropped < 80,
            "drop rate wildly off: {dropped}"
        );
    }

    /// Fleet helper: elastic master with `n` initial slaves, each slave
    /// connecting with a reconnect window (so severed links re-dial).
    fn fleet_pair(
        n_slaves: usize,
        slave_plans: Vec<Option<FaultPlan>>,
    ) -> (
        Endpoint,
        SocketInfo,
        FleetAcceptor,
        NetAddr,
        Vec<(Endpoint, SocketInfo)>,
    ) {
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let handles: Vec<_> = slave_plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let cfg = SocketConfig {
                        reconnect_window: Some(Duration::from_secs(10)),
                    };
                    connect(&addr, Some(i as u32 + 1), cfg, plan).unwrap()
                })
            })
            .collect();
        let (master, minfo, acceptor) = listener.accept_fleet(n_slaves, None).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, minfo, acceptor, addr, slaves)
    }

    #[test]
    fn severed_link_heals_by_redial() {
        // The slave's 2nd send pulls the cable for 30ms; the dialer must
        // re-establish the same session and every queued frame must still
        // arrive, in order.
        let plan = FaultPlan::default().with_link_sever(2, Duration::from_millis(30));
        let (mut master, _minfo, acceptor, _addr, mut slaves) = fleet_pair(1, vec![Some(plan)]);
        let (ref mut slave, ref sinfo) = slaves[0];
        slave.send(Rank(0), Tag(1), b("warm")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"warm");
        for i in 0..10u32 {
            slave.send(Rank(0), Tag(10 + i), b("x")).unwrap();
        }
        for i in 0..10u32 {
            let env = master
                .recv_timeout(Duration::from_secs(10))
                .expect("frame survives the sever");
            assert_eq!(env.tag, Tag(10 + i), "order preserved across splice");
        }
        let snap = sinfo.link(Rank(0)).unwrap().snapshot();
        assert!(snap.reconnects >= 1, "redial counted: {snap:?}");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Relinked { rank: 1 }) {
                break;
            }
            assert!(
                evs.iter()
                    .all(|e| matches!(e, MembershipEvent::Relinked { .. })),
                "same session must splice, not fence: {evs:?}"
            );
            assert!(Instant::now() < deadline, "Relinked event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Same incarnation: the epoch must not have moved.
        assert_eq!(acceptor.epoch(), 1);
    }

    #[test]
    fn new_incarnation_is_fenced_with_a_new_epoch() {
        let (mut master, minfo, acceptor, addr, mut slaves) = fleet_pair(1, vec![None]);
        assert_eq!(minfo.epoch, 1);
        let (mut slave, sinfo) = slaves.pop().unwrap();
        assert_eq!(sinfo.epoch, 1);
        slave.send(Rank(0), Tag(1), b("inc1")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc1");
        drop(slave); // incarnation 1 dies; master's link goes dark, not dead
        let (mut slave2, sinfo2) = connect(&addr, Some(1), SocketConfig::default(), None).unwrap();
        assert_eq!(sinfo2.rank, Rank(1));
        assert_eq!(sinfo2.epoch, 2, "restart bumps the fleet epoch");
        assert_eq!(acceptor.epoch(), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Rejoined { rank: 1, epoch: 2 }) {
                break;
            }
            assert!(Instant::now() < deadline, "Rejoined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The resumed rank is fully usable in both directions.
        slave2.send(Rank(0), Tag(2), b("inc2")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc2");
        master.send(Rank(1), Tag(3), b("hi")).unwrap();
        assert_eq!(&slave2.recv().unwrap().payload[..], b"hi");
    }

    #[test]
    fn mid_run_join_grows_cluster_and_ships_payload() {
        let (mut master, _minfo, acceptor, addr, _slaves) = fleet_pair(1, vec![None]);
        acceptor.set_join_payload(Tag(7), b"jobspec");
        let (mut joiner, jinfo) = connect(&addr, None, SocketConfig::default(), None).unwrap();
        assert_eq!(jinfo.rank, Rank(2), "fresh rank past the initial fleet");
        assert_eq!(jinfo.n_ranks, 3);
        assert_eq!(jinfo.epoch, 2, "join bumps the epoch");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Joined { rank: 2, epoch: 2 }) {
                break;
            }
            assert!(Instant::now() < deadline, "Joined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The joiner got the configured payload without asking.
        let env = joiner.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.tag, Tag(7));
        assert_eq!(&env.payload[..], b"jobspec");
        // The master's route table grew: it can address the new rank.
        assert_eq!(master.n_ranks(), 3);
        master.send(Rank(2), Tag(9), b("task")).unwrap();
        assert_eq!(&joiner.recv().unwrap().payload[..], b"task");
        joiner.send(Rank(0), Tag(10), b("done")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"done");
        assert!(acceptor.link_stats(2).is_some());
    }

    #[test]
    fn released_rank_is_reused_by_next_joiner() {
        let (_master, _minfo, acceptor, addr, _slaves) = fleet_pair(2, vec![None, None]);
        acceptor.release_rank(1);
        let (joiner, jinfo) = connect(&addr, None, SocketConfig::default(), None).unwrap();
        assert_eq!(jinfo.rank, Rank(1), "freed rank comes off the free-list");
        assert_eq!(jinfo.n_ranks, 3, "cluster did not grow");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if acceptor
                .poll_events()
                .iter()
                .any(|e| matches!(e, MembershipEvent::Joined { rank: 1, .. }))
            {
                break;
            }
            assert!(Instant::now() < deadline, "Joined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(acceptor.live_ranks().contains(&1));
        drop(joiner);
    }
}
