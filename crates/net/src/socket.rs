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
//! [`crate::frame`] verbatim and forwards them unverified — the receiving
//! endpoint checks the CRC as it does for an in-process frame. Both
//! handshake messages are HELLO frames ([`frame::recv_hello`]). A length
//! prefix outside the frame bound is a fatal connection error.
//!
//! ## Who reads and writes
//!
//! A slave link has no thread: the slave's endpoint reads its one stream
//! on the receiving thread (a timeout mid-frame keeps the partial frame
//! for the next receive, forks included) and writes each frame blocking.
//! A master link writes on the sender's thread, bounded by
//! [`WRITE_BOUND`]; what the bound leaves is queued at its exact byte
//! offset for the link's writer thread, the only writer until the queue
//! drains. `send` blocks past [`OUTBOUND_HWM`] queued bytes (a lone larger
//! frame is admitted). One reader thread per master link feeds the
//! endpoint's channel: std has no `poll(2)`.
//!
//! ## Failure mapping
//!
//! A link is one stream from handshake to close, and every link is
//! terminal: a broken stream, a fault plan's sever or a release closes
//! it, and every later send to that peer returns
//! [`NetError::Disconnected`] (which the runtime's fault tolerance treats
//! as "peer unreachable"). Receives stop yielding messages from that peer
//! (heartbeat silence; a slave's receive returns `Disconnected`), and
//! [`KillHandle`](crate::KillHandle) / timeouts behave exactly as over
//! channels. Nothing here redials: a slave that comes back dials again
//! ([`redial`]) and the fleet acceptor admits it as a rejoin.

use crate::fault::FaultPlan;
use crate::frame::{self, Kind, RANK_MAGIC};
use crate::membership::{Membership, MembershipEvent};
use crate::message::{Rank, Tag};
use crate::stream::{entropy, retry_with_backoff, Listener, NetAddr, Stream};
use crate::transport::{Endpoint, Inbound, NetError, TxLink};
use crate::wire::WireReader;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `want_rank` wildcard: let the master pick.
pub const ANY_RANK: u32 = u32::MAX;
/// Outbound queue high-water mark in bytes; sends block past it.
pub const OUTBOUND_HWM: usize = 8 << 20;
/// How long a master's write may block (rounded up to a kernel tick)
/// before the rest of the frame is left to the link's writer thread: a
/// frozen slave holds the master back once, by a tenth of an FT sweep.
pub const WRITE_BOUND: Duration = Duration::from_millis(2);
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
pub const DIAL_BACKOFF: (Duration, Duration) =
    (Duration::from_millis(10), Duration::from_millis(500));

/// A fresh session id for one slave process: unique across processes
/// and across `connect` calls within one process, never zero. It names
/// the process, not a connection — [`redial`] presents it again — so the
/// master can refuse a process it released or replaced.
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
    /// The window in which a redialling slave may rejoin: the runtime's
    /// slave side redials for this long after its link breaks, and an
    /// elastic master waits this long for an unreachable rank before
    /// counting it dead. `None` (the default): a broken link ends the
    /// slave. [`SocketListener::bind`] and [`connect`] take the config
    /// but do not read it.
    pub reconnect_window: Option<Duration>,
}

/// Per-link socket counters, shared with the reader/writer threads and
/// exported by the runtime's observability layer.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Bytes currently sitting in the outbound queue (gauge).
    pub bytes_queued: AtomicU64,
    /// Frames accepted by `send` (written at once or queued).
    pub frames_sent: AtomicU64,
    /// Bytes written to the socket: whole frames, header included.
    pub bytes_sent: AtomicU64,
    /// Whole frames read off the socket.
    pub frames_recv: AtomicU64,
    /// Bytes read from the socket: whole frames, header included.
    pub bytes_recv: AtomicU64,
    /// Frames rejected for an out-of-range length: an oversized send
    /// (refused), or a received length prefix outside the frame bound
    /// (fatal for the stream).
    pub frames_rejected: AtomicU64,
    /// Retries of a slave's initial connect (the master was not up yet).
    /// A redial after a broken link is a rejoin and is not counted here.
    pub reconnects: AtomicU64,
    /// Times the connection was closed (broken, severed or released).
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
    /// The fleet epoch the handshake reported, from the master's
    /// [`Membership`]: an elastic table starts at 1; a fixed one
    /// ([`SocketListener::accept_ranks`]) stays at 0, matching the
    /// in-process transport's epochless runs.
    pub epoch: u64,
    /// The slave process's session id, which [`redial`] presents again;
    /// 0 on the master.
    pub session: u64,
}

impl SocketInfo {
    /// Counters for the link to `peer`, if one exists.
    pub fn link(&self, peer: Rank) -> Option<&Arc<LinkStats>> {
        self.links.iter().find(|(r, _)| *r == peer).map(|(_, s)| s)
    }
}

// ---------------------------------------------------------------------
// Outbound queue, link threads, and reading a stream
// ---------------------------------------------------------------------

/// Mutable half of a connection's outbound queue.
struct OutQueue {
    /// Written through by a sender holding the lock, while nothing is queued.
    wr: Stream,
    frames: VecDeque<Bytes>,
    /// Bytes of the front frame a timed-out send already wrote.
    head_written: usize,
    queued_bytes: usize,
    /// The link is closed for good: sends fail, the writer stops.
    closed: bool,
    /// Every `SocketTx` clone for this connection has been dropped:
    /// writer flushes and exits.
    tx_dropped: bool,
    /// Link threads that have finished; at all of them the queue is on
    /// the wire (or the link is gone) and they are ready to join.
    io_exited: usize,
}

/// State shared between one connection's `SocketTx`, reader and writer.
struct Conn {
    q: Mutex<OutQueue>,
    cv: Condvar,
    /// A handle on the link's one stream, to shut it down from any thread.
    stream: Stream,
    stats: Arc<LinkStats>,
    /// A master link's writer and reader, joined when the last sender
    /// drops; none on a slave link.
    io_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Conn {
    /// The link over `stream` and its reading half.
    fn open(stream: Stream, stats: Arc<LinkStats>) -> io::Result<(Arc<Conn>, StreamRx)> {
        let (wr, rd) = (stream.try_clone()?, stream.try_clone()?);
        let q = Mutex::new(OutQueue {
            wr,
            frames: VecDeque::new(),
            head_written: 0,
            queued_bytes: 0,
            closed: false,
            tx_dropped: false,
            io_exited: 0,
        });
        let conn = Arc::new(Conn {
            q,
            cv: Condvar::new(),
            stream,
            stats,
            io_threads: Mutex::new(Vec::new()),
        });
        let rd = Mutex::new((rd, Vec::new(), None));
        Ok((conn.clone(), StreamRx { conn, rd }))
    }

    /// The last act of a link thread.
    fn io_thread_exited(&self) {
        self.q.lock().unwrap().io_exited += 1;
        self.cv.notify_all();
    }

    /// Close the link for good — its stream broke, a fault plan severed
    /// it, or its rank was released or taken over: later sends fail with
    /// `Disconnected`, the writer drops what is queued, and shutting the
    /// stream (first: a send may block in `write(2)` under the lock) ends
    /// every read and write on it. Idempotent.
    fn close(&self) {
        self.stream.shutdown();
        let mut q = self.q.lock().unwrap();
        if !q.closed {
            q.closed = true;
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.q.lock().unwrap().closed
    }
}

/// Sending half of a socket link, held inside an endpoint's `TxLink`.
/// Clones share the connection; the link is told to flush and close only
/// when the *last* clone drops (see [`TxGuard`]), so a persistent fleet
/// endpoint keeps the link open while per-job endpoint forks are created
/// and dropped freely.
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
        let threads = std::mem::take(&mut *conn.io_threads.lock().unwrap());
        if threads.is_empty() {
            // A slave link: every send already wrote its frame.
            return conn.close();
        }
        conn.q.lock().unwrap().tx_dropped = true;
        conn.cv.notify_all();
        // The writer puts the last frames (END, SHUTDOWN) on the wire and
        // closes the link, which ends the reader. Joining both means a
        // process cannot exit under them and the next job's threads do not
        // start beside them; the bound backstops a peer that stopped
        // reading, whose threads are left detached.
        let q = conn.q.lock().unwrap();
        let (q, _) = conn
            .cv
            .wait_timeout_while(q, FLUSH_TIMEOUT, |q| q.io_exited < threads.len())
            .unwrap();
        if q.io_exited == threads.len() {
            drop(q);
            for h in threads {
                let _ = h.join();
            }
        }
    }
}

/// A socket timeout (`SO_RCVTIMEO` / `SO_SNDTIMEO`) ran out.
fn timed_out(e: &io::Error) -> bool {
    [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut].contains(&e.kind())
}

/// Write `buf` until it is all out or a write times out; how much went.
fn write_some(w: &mut Stream, buf: &[u8]) -> io::Result<usize> {
    let mut done = 0;
    while done < buf.len() {
        match w.write(&buf[done..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

impl SocketTx {
    fn new(conn: Arc<Conn>) -> SocketTx {
        let _guard = Arc::new(TxGuard { conn: conn.clone() });
        SocketTx { conn, _guard }
    }

    /// Send one sealed frame: written by this thread while nothing is
    /// queued (bounded on a master link, see the module docs), else
    /// queued, blocking while the queue sits above the high-water mark.
    pub(crate) fn send(&self, frame: Bytes) -> Result<(), NetError> {
        let conn = &self.conn;
        if frame::oversized(&frame) {
            conn.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Disconnected);
        }
        let mut q = conn.q.lock().unwrap();
        loop {
            if q.closed {
                return Err(NetError::Disconnected);
            }
            // Admit when under the mark, or unconditionally when the
            // queue is empty (a lone giant frame must not deadlock).
            if q.queued_bytes + frame.len() <= OUTBOUND_HWM || q.frames.is_empty() {
                break;
            }
            q = conn.cv.wait(q).unwrap();
        }
        conn.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        if q.frames.is_empty() {
            match write_some(&mut q.wr, &frame) {
                Ok(n) if n == frame.len() => {
                    conn.stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    return Ok(());
                }
                // The writer thread resumes at the exact byte.
                Ok(n) => q.head_written = n,
                Err(_) => {
                    drop(q);
                    conn.close();
                    return Err(NetError::Disconnected);
                }
            }
        }
        q.queued_bytes += frame.len();
        conn.stats
            .bytes_queued
            .store(q.queued_bytes as u64, Ordering::Relaxed);
        q.frames.push_back(frame);
        conn.cv.notify_all();
        Ok(())
    }

    /// Hard-close the connection (fault injection): the cable is pulled,
    /// and this link is gone for good.
    pub(crate) fn sever(&self) {
        self.conn.close();
    }
}

/// A master link's writer thread: writes the front frame (from where a
/// timed-out send left it) before taking it off the queue, so no sender
/// writes while frames are queued. Exits when the link closes or its
/// stream fails, or when the endpoint is gone and the queue is flushed
/// (so END still reaches the peer); either way it closes the link.
fn writer_loop(conn: Arc<Conn>, mut stream: Stream) {
    loop {
        let mut q = conn.q.lock().unwrap();
        while !q.closed && q.frames.is_empty() && !q.tx_dropped {
            q = conn.cv.wait(q).unwrap();
        }
        let Some(frame) = q.frames.front().cloned().filter(|_| !q.closed) else {
            break;
        };
        let mut done = std::mem::take(&mut q.head_written);
        drop(q);
        // A write that meets the bound is retried: a close fails it.
        while done < frame.len() && !conn.is_closed() {
            match write_some(&mut stream, &frame[done..]) {
                Ok(n) => done += n,
                Err(_) => break,
            }
        }
        if done < frame.len() {
            break;
        }
        conn.stats
            .bytes_sent
            .fetch_add(done as u64, Ordering::Relaxed);
        let mut q = conn.q.lock().unwrap();
        q.frames.pop_front();
        q.queued_bytes -= frame.len();
        conn.stats
            .bytes_queued
            .store(q.queued_bytes as u64, Ordering::Relaxed);
        conn.cv.notify_all();
    }
    conn.close();
    conn.io_thread_exited();
}

/// A master link's reader thread: forward whole frames, unverified, into
/// the endpoint's channel — the connection, not the wire, names the
/// sender — until the link closes.
fn reader_loop(rx: StreamRx, peer: Rank, out: Sender<Inbound>) {
    while let Ok(Some(frame)) = rx.recv(None) {
        if out.send(Inbound { src: peer, frame }).is_err() {
            break; // endpoint dropped
        }
    }
    rx.conn.close();
    rx.conn.io_thread_exited();
}

/// Start a master's link to slave `peer`: writes bounded by
/// [`WRITE_BOUND`], a writer thread for what they leave, a reader
/// thread feeding `out`.
fn spawn_link(
    stream: Stream,
    peer: Rank,
    out: Sender<Inbound>,
    stats: Arc<LinkStats>,
) -> io::Result<SocketTx> {
    stream.set_write_timeout(Some(WRITE_BOUND))?;
    let wr = stream.try_clone()?;
    let (conn, rx) = Conn::open(stream, stats)?;
    let wc = conn.clone();
    let writer = std::thread::Builder::new()
        .name(format!("sock-wr-{}", peer.0))
        .spawn(move || writer_loop(wc, wr))
        .expect("spawn socket writer");
    let reader = std::thread::Builder::new()
        .name(format!("sock-rd-{}", peer.0))
        .spawn(move || reader_loop(rx, peer, out))
        .expect("spawn socket reader");
    *conn.io_threads.lock().unwrap() = vec![writer, reader];
    Ok(SocketTx::new(conn))
}

/// The reading half of a link: read by a master link's reader thread, or
/// by whichever thread receives on a slave's endpoint (and its forks).
pub(crate) struct StreamRx {
    conn: Arc<Conn>,
    /// The stream, the frame a read timeout cut short, the read timeout.
    rd: Mutex<(Stream, Vec<u8>, Option<Duration>)>,
}

impl StreamRx {
    /// The peer of a slave's link: the master.
    pub(crate) const PEER: Rank = Rank(0);

    /// One whole frame within `wait` (`None`: for ever), else `Ok(None)`.
    /// EOF, a broken stream or an out-of-range length closes the link.
    pub(crate) fn recv(&self, wait: Option<Duration>) -> Result<Option<Bytes>, NetError> {
        let mut rd = self.rd.lock().unwrap();
        let (stream, partial, set) = &mut *rd;
        // A zero read timeout would mean "never time out".
        let wait = wait.map(|w| w.max(Duration::from_micros(1)));
        if *set != wait && stream.set_read_timeout(wait).is_ok() {
            *set = wait;
        }
        let stats = &self.conn.stats;
        match frame::read_frame_into(stream.reader(), partial) {
            Ok(frame) => {
                stats
                    .bytes_recv
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                stats.frames_recv.fetch_add(1, Ordering::Relaxed);
                Ok(Some(frame))
            }
            Err(e) if timed_out(&e) => Ok(None),
            Err(e) => {
                // A length prefix out of range: the stream is desynchronised.
                if e.kind() == io::ErrorKind::InvalidData {
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                }
                self.conn.close();
                Err(NetError::Disconnected)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Dialing side of the handshake: send the hello (`want_rank`, and the
/// slave process's session id), read the welcome (assigned rank,
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

impl SocketListener {
    /// Bind to `addr`. For `tcp:host:0` the OS picks a port; read the
    /// result back with [`SocketListener::local_addr`]. The config is
    /// taken for symmetry with [`connect`] and not read (elastic
    /// membership is chosen by calling [`SocketListener::accept_fleet`]).
    pub fn bind(addr: &NetAddr, _cfg: SocketConfig) -> io::Result<SocketListener> {
        Ok(SocketListener {
            inner: Listener::bind(addr)?,
        })
    }

    /// The address actually bound (port resolved for TCP).
    pub fn local_addr(&self) -> NetAddr {
        self.inner.local_addr()
    }

    /// Accept `n_slaves` connections into ranks `1..=n_slaves` by the
    /// rank rule ([`crate::membership`]) and return the master endpoint
    /// plus per-link counters.
    pub fn accept_ranks(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
    ) -> io::Result<(Endpoint, SocketInfo)> {
        let (ep, members, _) = self.accept_fleet(n_slaves, plan, false)?;
        let info = members.lock().unwrap().socket_info();
        Ok((ep, info))
    }

    /// Accept `n_slaves` connections into a fresh [`Membership`] table;
    /// return the master endpoint and the table. With `elastic`, the
    /// listener stays alive on a [`FleetAcceptor`] that admits every later
    /// hello by the same rule, as a [`MembershipEvent`] under a bumped
    /// epoch, and ships it the join payload (the job spec). A send to a
    /// dark slave fails until it rejoins.
    pub fn accept_fleet(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
        elastic: bool,
    ) -> io::Result<(Endpoint, Arc<Mutex<Membership>>, Option<FleetAcceptor>)> {
        assert!(n_slaves > 0, "a socket cluster needs at least one slave");
        let (env_tx, env_rx) = unbounded();
        let mut links: Vec<TxLink> = (0..=n_slaves).map(|_| TxLink::Unrouted).collect();
        links[0] = TxLink::Channel(env_tx.clone()); // loopback
        let ep = Endpoint::from_parts(Rank(0), links, env_rx, plan, None);
        let shared = Arc::new(AcceptorShared {
            members: Arc::new(Mutex::new(Membership::new(n_slaves, elastic))),
            links: ep.shared_links(),
            env_tx,
            events: Mutex::new(VecDeque::new()),
            join_frame: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        while !shared.members.lock().unwrap().free().is_empty() {
            // Poll so a missing slave cannot park the master past its
            // accept timeout.
            let Some(stream) = self.inner.accept_by(deadline)? else {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for slaves to connect",
                ));
            };
            shared.admit(stream, true);
        }
        let members = shared.members.clone();
        let acceptor = elastic.then(|| {
            let thread_shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name("fleet-acceptor".into())
                .spawn(move || acceptor_loop(self, thread_shared))
                .expect("spawn fleet acceptor");
            FleetAcceptor {
                shared,
                handle: Some(handle),
            }
        });
        Ok((ep, members, acceptor))
    }
}

/// What admitting a slave touches: the membership table, the master
/// endpoint's routes and inbox, and the acceptor's events and join
/// frame.
struct AcceptorShared {
    members: Arc<Mutex<Membership>>,
    links: Arc<RwLock<Vec<TxLink>>>,
    env_tx: Sender<Inbound>,
    events: Mutex<VecDeque<MembershipEvent>>,
    /// Sealed frame shipped to every slave admitted while it is set, so
    /// a joiner learns the job it walked into.
    join_frame: Mutex<Option<Bytes>>,
    stop: AtomicBool,
}

impl AcceptorShared {
    /// Admit one connection, in the initial accept and in the acceptor
    /// alike: its hello, the table's decision, the welcome, the link. A
    /// garbled or refused hello is hung up on. A rank whose welcome or
    /// link fails is lost, as after a failed send.
    fn admit(&self, mut stream: Stream, initial: bool) {
        let Ok((want, session)) = read_hello(&mut stream) else {
            return; // garbage peer: drop the connection
        };
        let mut members = self.members.lock().unwrap();
        // Held until the new link is installed: a master that applies the
        // event below and dispatches at once waits here for the new link
        // instead of failing on the old one.
        let mut links = self.links.write().unwrap();
        let Some(seat) = members.admit(want, session, initial) else {
            return; // hang up: this process was released or replaced
        };
        let (rank, n_ranks) = (seat.rank as usize, members.n_ranks());
        links.resize_with(n_ranks, || TxLink::Unrouted);
        // Queued before the welcome goes out, so the master shell applies
        // it before it can hear the new incarnation.
        if let Some(ev) = seat.event {
            self.events.lock().unwrap().push_back(ev);
        }
        let linked = write_welcome(&mut stream, seat.rank, n_ranks as u32, seat.epoch)
            .and_then(|()| spawn_link(stream, Rank(seat.rank), self.env_tx.clone(), seat.stats));
        let new = match &linked {
            Ok(tx) => TxLink::Socket(tx.clone()),
            Err(_) => {
                members.lose(seat.rank);
                TxLink::Unrouted
            }
        };
        let old = std::mem::replace(&mut links[rank], new);
        drop((links, members));
        // The old incarnation's link closes for good; dropping its route
        // joins the link's threads.
        if let TxLink::Socket(old) = &old {
            old.sever();
        }
        let frame = self.join_frame.lock().unwrap().clone();
        if let (Ok(tx), Some(frame)) = (linked, frame) {
            let _ = tx.send(frame);
        }
    }
}

/// Handle to the background acceptor keeping an elastic fleet's listener
/// alive. Dropping it stops the thread; the fleet links close with the
/// last endpoint that routes over them.
pub struct FleetAcceptor {
    shared: Arc<AcceptorShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetAcceptor {
    /// Drain membership events observed since the last poll, in order.
    pub fn poll_events(&self) -> Vec<MembershipEvent> {
        self.shared.events.lock().unwrap().drain(..).collect()
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

    /// Release `rank`: free its row, refuse its session and close its
    /// link, so a future joiner can take the rank. The caller is expected
    /// to have drained the slave first (graceful drain) — anything still
    /// in flight is lost and will be redispatched by fault tolerance.
    pub fn release_rank(&self, rank: u32) {
        let mut members = self.shared.members.lock().unwrap();
        members.release(rank);
        if let Some(TxLink::Socket(tx)) = self.shared.links.read().unwrap().get(rank as usize) {
            tx.sever();
        }
    }
}

impl Drop for FleetAcceptor {
    /// Stops the acceptor thread: new connections are no longer
    /// admitted; existing links stay up.
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The background acceptor: admit rejoiners and mid-run joiners until
/// stopped.
fn acceptor_loop(listener: SocketListener, shared: Arc<AcceptorShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Bounds how late `FleetAcceptor::stop` is seen; a dialer ends it early.
        let deadline = Instant::now() + Duration::from_millis(100);
        match listener.inner.accept_by(deadline) {
            Ok(Some(stream)) => shared.admit(stream, false),
            Ok(None) => {}
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------
// Slave: connect
// ---------------------------------------------------------------------

/// Connect to a listening master, handshake a rank, and return the slave
/// endpoint. Retries the connect with backoff for up to 30 s so slaves
/// may start before the master; retries are counted in
/// [`LinkStats::reconnects`]. The config is taken for symmetry with
/// [`SocketListener::bind`] and not read: redialling after a broken link
/// is the caller's call ([`redial`]).
pub fn connect(
    addr: &NetAddr,
    want_rank: Option<u32>,
    _cfg: SocketConfig,
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
    let welcome =
        hello_exchange(&mut stream, want_rank.unwrap_or(ANY_RANK), session).map_err(|e| {
            let why = format!("rank handshake with {addr} failed (is it a master's port?): {e}");
            io::Error::new(e.kind(), why)
        })?;
    link_to_master(stream, welcome, session, stats, plan)
}

/// Dial the master once more as the slave process `info` describes — its
/// rank and its session. An elastic master admits this as a rejoin: a
/// fresh link under a bumped epoch ([`MembershipEvent::Rejoined`]). The
/// new link keeps `info`'s counters. One attempt: the caller owns the
/// retry policy ([`retry_with_backoff`] with [`DIAL_BACKOFF`]).
pub fn redial(addr: &NetAddr, info: &SocketInfo) -> io::Result<(Endpoint, SocketInfo)> {
    let mut stream = Stream::connect(addr)?;
    let welcome = hello_exchange(&mut stream, info.rank.0, info.session)?;
    if welcome.0 != info.rank.0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("master assigned rank {}, wanted {}", welcome.0, info.rank),
        ));
    }
    let stats = info.link(Rank(0)).cloned().unwrap_or_default();
    link_to_master(stream, welcome, info.session, stats, None)
}

/// The slave endpoint over a handshaken stream to the master.
fn link_to_master(
    stream: Stream,
    (rank, n_ranks, epoch): (u32, u32, u64),
    session: u64,
    stats: Arc<LinkStats>,
    plan: Option<FaultPlan>,
) -> io::Result<(Endpoint, SocketInfo)> {
    if rank == 0 || rank >= n_ranks {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("master assigned rank {rank} of {n_ranks}"),
        ));
    }
    let (env_tx, env_rx) = unbounded();
    let mut links: Vec<TxLink> = (0..n_ranks as usize).map(|_| TxLink::Unrouted).collect();
    // No link thread: the endpoint reads and writes the stream itself.
    let (conn, rx) = Conn::open(stream, stats.clone())?;
    links[0] = TxLink::Socket(SocketTx::new(conn));
    links[rank as usize] = TxLink::Channel(env_tx); // loopback
    let ep = Endpoint::from_parts(Rank(rank), links, env_rx, plan, Some(rx));
    let info = SocketInfo {
        rank: Rank(rank),
        n_ranks: n_ranks as usize,
        links: vec![(Rank(0), stats)],
        epoch,
        session,
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

    type Members = Arc<Mutex<Membership>>;

    /// Fleet helper: elastic master with `n` initial slaves.
    fn fleet_pair(
        n_slaves: usize,
        slave_plans: Vec<Option<FaultPlan>>,
    ) -> (
        Endpoint,
        Members,
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
                    connect(&addr, Some(i as u32 + 1), SocketConfig::default(), plan).unwrap()
                })
            })
            .collect();
        let (master, members, acceptor) = listener.accept_fleet(n_slaves, None, true).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, members, acceptor.unwrap(), addr, slaves)
    }

    /// Who acknowledges is the sender's call, and only a fault plan can
    /// lose a frame: no clean socket link sequences or awaits ACKs, fixed
    /// or elastic. Loopback is a channel on either.
    #[test]
    fn no_clean_socket_link_is_acked() {
        use crate::{ReliableEndpoint, RetryPolicy};
        // (master's seq, slave's seq) for one send each way.
        let seqs = |master: Endpoint, slave: Endpoint| {
            let [mut m, mut s] =
                [master, slave].map(|ep| ReliableEndpoint::new(ep, RetryPolicy::default()));
            for rep in [&mut m, &mut s] {
                let me = rep.rank();
                let to_self = rep.send_reliable(me, Tag(1), b("x")).unwrap();
                assert_eq!(to_self, None, "loopback cannot lose a frame");
            }
            (
                m.send_reliable(Rank(1), Tag(1), b("x")).unwrap(),
                s.send_reliable(Rank(0), Tag(1), b("x")).unwrap(),
            )
        };
        let (master, _minfo, mut slaves) = tcp_pair(1);
        let (slave, _sinfo) = slaves.pop().unwrap();
        assert_eq!(seqs(master, slave), (None, None), "fixed links");

        let (master, _members, _acceptor, _addr, mut slaves) = fleet_pair(1, vec![None]);
        let (slave, _sinfo) = slaves.pop().unwrap();
        assert_eq!(seqs(master, slave), (None, None), "elastic links");
    }

    /// Wait for `want` among the acceptor's membership events.
    fn await_event(acceptor: &FleetAcceptor, want: MembershipEvent) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !acceptor.poll_events().contains(&want) {
            assert!(Instant::now() < deadline, "{want:?} never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A sever closes the link for good; the same process redialling
    /// under its session is a rejoin with a fresh, working link; and a
    /// released session is refused.
    #[test]
    fn a_severed_link_fails_then_its_session_rejoins() {
        let plan = FaultPlan::default().with_link_sever(2, Duration::from_millis(30));
        let (mut master, members, acceptor, addr, mut slaves) = fleet_pair(1, vec![Some(plan)]);
        let (mut slave, sinfo) = slaves.pop().unwrap();
        slave.send(Rank(0), Tag(1), b("warm")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"warm");
        // The 2nd send pulls the cable: it and every later one fail.
        for i in 0..3u32 {
            assert_eq!(
                slave.send(Rank(0), Tag(10 + i), b("x")).unwrap_err(),
                NetError::Disconnected
            );
        }
        assert_eq!(slave.stats().severed_links, 1);
        drop(slave);

        let (mut slave2, sinfo2) = redial(&addr, &sinfo).unwrap();
        assert_eq!((sinfo2.rank, sinfo2.session), (Rank(1), sinfo.session));
        assert_eq!(sinfo2.epoch, 2, "a rejoin bumps the fleet epoch");
        await_event(&acceptor, MembershipEvent::Rejoined { rank: 1, epoch: 2 });
        slave2.send(Rank(0), Tag(2), b("back")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"back");
        master.send(Rank(1), Tag(3), b("hi")).unwrap();
        assert_eq!(&slave2.recv().unwrap().payload[..], b"hi");

        acceptor.release_rank(1);
        assert!(
            redial(&addr, &sinfo).is_err(),
            "a released session is refused"
        );
        assert!(acceptor.poll_events().is_empty(), "nothing admitted");
        assert_eq!(members.lock().unwrap().epoch(), 2);
    }

    #[test]
    fn new_incarnation_is_fenced_with_a_new_epoch() {
        let (mut master, members, acceptor, addr, mut slaves) = fleet_pair(1, vec![None]);
        assert_eq!(members.lock().unwrap().epoch(), 1);
        let (mut slave, sinfo) = slaves.pop().unwrap();
        assert_eq!(sinfo.epoch, 1);
        slave.send(Rank(0), Tag(1), b("inc1")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc1");
        drop(slave); // incarnation 1 dies; the master's link to it closes
        let (mut slave2, sinfo2) = connect(&addr, Some(1), SocketConfig::default(), None).unwrap();
        assert_eq!(sinfo2.rank, Rank(1));
        assert_eq!(sinfo2.epoch, 2, "restart bumps the fleet epoch");
        assert_eq!(members.lock().unwrap().epoch(), 2);
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
        let (mut master, members, acceptor, addr, _slaves) = fleet_pair(1, vec![None]);
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
        let info = members.lock().unwrap().socket_info();
        assert!(
            info.link(Rank(2)).is_some(),
            "the joiner's counters are in the table"
        );
    }

    #[test]
    fn released_rank_is_reused_by_next_joiner() {
        let (_master, members, acceptor, addr, _slaves) = fleet_pair(2, vec![None, None]);
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
        assert!(members.lock().unwrap().is_held(1));
        drop(joiner);
    }

    /// One rank rule for every admission: a joiner that names a free
    /// rank takes it, not the lowest free one.
    #[test]
    fn a_joiner_takes_the_free_rank_it_names() {
        let (_master, members, acceptor, addr, _slaves) = fleet_pair(2, vec![None, None]);
        acceptor.release_rank(1);
        acceptor.release_rank(2);
        let (joiner, jinfo) = connect(&addr, Some(2), SocketConfig::default(), None).unwrap();
        assert_eq!(jinfo.rank, Rank(2), "the named free rank");
        await_event(&acceptor, MembershipEvent::Joined { rank: 2, epoch: 2 });
        assert_eq!(members.lock().unwrap().free(), [1]);
        drop(joiner);
    }
}
