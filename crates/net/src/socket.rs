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
//! A link is one stream, owned by its writer and reader from spawn to
//! close, and every link is terminal: a broken stream, a fault plan's
//! sever or a release closes it, and every later send to that peer
//! returns [`NetError::Disconnected`] (which the runtime's fault
//! tolerance treats as "peer unreachable"). Receives simply stop
//! yielding messages from that peer (heartbeat silence), and
//! [`KillHandle`](crate::KillHandle) / timeouts behave exactly as over
//! channels. Nothing here redials: a slave that comes back dials again
//! ([`redial`]) and the fleet acceptor admits it as a rejoin.

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
    /// The fleet epoch the handshake reported. Fenced fleets
    /// ([`SocketListener::accept_fleet`]) start at 1; plain
    /// [`SocketListener::accept_ranks`] / [`connect`] clusters report 0,
    /// matching the in-process transport's epochless runs.
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
// Outbound queue + writer/reader threads
// ---------------------------------------------------------------------

/// Mutable half of a connection's outbound queue.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Bytes>,
    queued_bytes: usize,
    /// The link is closed for good: sends fail, the writer stops.
    closed: bool,
    /// Every `SocketTx` clone for this connection has been dropped:
    /// writer flushes and exits.
    tx_dropped: bool,
    /// Reader and writer threads that have finished; at 2 the queue is on
    /// the wire (or the link is gone) and both are ready to join.
    io_exited: u8,
}

/// State shared between one connection's `SocketTx`, writer and reader.
struct Conn {
    q: Mutex<OutQueue>,
    cv: Condvar,
    /// A handle on the link's one stream, kept to shut it down from any
    /// thread; the writer and the reader each own a handle of their own.
    stream: Stream,
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

    /// Close the link for good — its stream broke, a fault plan severed
    /// it, or its rank was released or taken over: later sends fail with
    /// `Disconnected`, the writer drops what is queued, and shutting the
    /// stream ends the reader. Idempotent.
    fn close(&self) {
        let mut q = self.q.lock().unwrap();
        if !q.closed {
            q.closed = true;
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
        drop(q);
        self.stream.shutdown();
    }

    fn is_closed(&self) -> bool {
        self.q.lock().unwrap().closed
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
        // The writer puts the last frames (END, SHUTDOWN) on the wire and
        // closes the link, which ends the reader. Joining both means a
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

    /// Hard-close the connection (fault injection): the cable is pulled,
    /// and this link is gone for good.
    pub(crate) fn sever(&self) {
        self.conn.close();
    }
}

/// Writer thread: drain the outbound queue onto the link's stream.
/// Exits when the link closes or its stream fails, or when the endpoint
/// is gone and the queue is flushed (so teardown messages like END still
/// reach the peer); either way it closes the link on the way out.
fn writer_loop(conn: Arc<Conn>, mut stream: Stream) {
    loop {
        let frame = {
            let mut q = conn.q.lock().unwrap();
            loop {
                if q.closed {
                    break None;
                }
                if let Some(f) = q.frames.pop_front() {
                    q.queued_bytes -= f.len();
                    conn.stats
                        .bytes_queued
                        .store(q.queued_bytes as u64, Ordering::Relaxed);
                    conn.cv.notify_all();
                    break Some(f);
                }
                if q.tx_dropped {
                    break None;
                }
                q = conn.cv.wait(q).unwrap();
            }
        };
        let Some(frame) = frame else { break };
        if frame::write_frame(&mut stream, &frame).is_err() {
            break;
        }
        conn.stats
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
    }
    conn.close();
    conn.io_thread_exited();
}

/// Reader thread: take whole frames off the link's stream and forward
/// them, unverified, into the endpoint's channel. EOF or an error closes
/// the link (later sends fail with `Disconnected`).
fn reader_loop(conn: Arc<Conn>, mut stream: Stream, peer: Rank, out: Sender<Inbound>) {
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
        // The connection, not the wire, is the source of truth for the
        // sender's identity.
        if out.send(Inbound { src: peer, frame }).is_err() {
            break; // endpoint dropped
        }
    }
    conn.close();
    conn.io_thread_exited();
}

/// Start a link over `stream`: the writer and the reader each take a
/// handle of it for the link's whole life.
fn spawn_link(
    stream: Stream,
    peer: Rank,
    out: Sender<Inbound>,
    stats: Arc<LinkStats>,
) -> io::Result<SocketTx> {
    let (wr, rd) = (stream.try_clone()?, stream.try_clone()?);
    let conn = Arc::new(Conn {
        q: Mutex::new(OutQueue::default()),
        cv: Condvar::new(),
        stream,
        stats,
        io_threads: Mutex::new(Vec::new()),
    });
    let wc = conn.clone();
    let writer = std::thread::Builder::new()
        .name(format!("sock-wr-{}", peer.0))
        .spawn(move || writer_loop(wc, wr))
        .expect("spawn socket writer");
    let rc = conn.clone();
    let reader = std::thread::Builder::new()
        .name(format!("sock-rd-{}", peer.0))
        .spawn(move || reader_loop(rc, rd, peer, out))
        .expect("spawn socket reader");
    *conn.io_threads.lock().unwrap() = vec![writer, reader];
    let guard = Arc::new(TxGuard { conn: conn.clone() });
    Ok(SocketTx {
        conn,
        _guard: guard,
    })
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

    /// Accept `n_slaves` connections, assign ranks `1..=n_slaves`
    /// (honouring a slave's `want_rank` when it is free) and hand every
    /// admitted slave `epoch` in its welcome.
    fn admit_initial(
        &self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
        epoch: u64,
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
            let tx = spawn_link(stream, Rank(rank as u32), env_tx.clone(), stats.clone())?;
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
            session: 0,
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
        let a = self.admit_initial(n_slaves, plan, 0)?;
        Ok((a.ep, a.info))
    }

    /// Like [`SocketListener::accept_ranks`], but for a long-lived,
    /// *elastic* fleet: after the initial `n_slaves` are admitted the
    /// listener stays alive on a background acceptor thread that
    ///
    /// - **rejoins** a known rank — the same slave process redialling
    ///   after its link broke, or a replacement process — by bumping the
    ///   fleet epoch, giving the rank a fresh link and reporting
    ///   [`MembershipEvent::Rejoined`] so the scheduler can roll back the
    ///   old incarnation's in-flight work,
    /// - **admits** brand-new slaves mid-run ([`MembershipEvent::Joined`]),
    ///   assigning ranks from the released free-list or growing the
    ///   cluster,
    ///
    /// and ships both the configured join payload (the job spec). The links
    /// are terminal like every socket link: a send to a dark slave fails,
    /// and the rank is unreachable until it rejoins.
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
        } = self.admit_initial(n_slaves, plan, INITIAL_EPOCH)?;
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
    /// A known rank dialed in again — its own process after a broken
    /// link, or a replacement: the fleet epoch was bumped and anything
    /// the old incarnation still held must be rolled back and its late
    /// DONEs fenced.
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

/// Per-rank admission record of the acceptor.
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
    /// Sessions of released or replaced slave processes: their hellos
    /// are refused, so such a process can take back neither its old rank
    /// nor a free one.
    released: Mutex<Vec<u64>>,
    links: Arc<RwLock<Vec<TxLink>>>,
    env_tx: Sender<Inbound>,
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

    /// Ranks that are admitted *and* currently linked. A rank missing
    /// from this list is either released or dark — dark ranks may still
    /// rejoin within the run.
    pub fn live_ranks(&self) -> Vec<u32> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(r, s)| (!s.as_ref()?.conn.is_closed()).then_some(r as u32))
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
            slot.conn.close();
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
    }
}

/// The background acceptor: admit rejoiners and mid-run joiners until
/// stopped.
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

/// Admit one handshaken connection: a hello for a known, unreleased rank
/// is a rejoin — same session or new — and anything else a join. Both
/// bump the epoch, give the rank a fresh link and ship the join payload.
fn admit(
    mut stream: Stream,
    want: u32,
    session: u64,
    shared: &Arc<AcceptorShared>,
) -> io::Result<()> {
    if shared.released.lock().unwrap().contains(&session) {
        return Ok(()); // hang up: this process was released or replaced
    }
    let mut slots = shared.slots.lock().unwrap();
    // Held until the new link is installed: a master that applies the
    // event below and dispatches at once waits here for the new link
    // instead of failing on the old one.
    let mut links = shared.links.write().unwrap();
    let known = (1..slots.len()).contains(&(want as usize)) && slots[want as usize].is_some();
    let rank = if known {
        want as usize
    } else {
        // Brand-new admission: reuse a released rank or grow the cluster.
        match slots[1..].iter().position(|s| s.is_none()) {
            Some(i) => i + 1,
            None => {
                slots.push(None);
                links.push(TxLink::Unrouted);
                slots.len() - 1
            }
        }
    };
    let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
    let (r, n_ranks) = (rank as u32, slots.len() as u32);
    // Queued before the welcome goes out, so the master shell applies it
    // before it can hear the new incarnation.
    shared.events.lock().unwrap().push_back(if known {
        MembershipEvent::Rejoined { rank: r, epoch }
    } else {
        MembershipEvent::Joined { rank: r, epoch }
    });
    write_welcome(&mut stream, r, n_ranks, epoch)?;
    // A rejoiner keeps its rank's counters.
    let stats = slots[rank]
        .as_ref()
        .map_or_else(Default::default, |s| s.stats.clone());
    let tx = spawn_link(stream, Rank(r), shared.env_tx.clone(), stats.clone())?;
    let old = slots[rank].replace(RankSlot {
        conn: tx.conn.clone(),
        session,
        stats,
    });
    let replaced = std::mem::replace(&mut links[rank], TxLink::Socket(tx.clone()));
    drop((links, slots));
    if let Some(old) = old {
        if old.session != session {
            // A replaced process is a zombie: refuse its redials.
            shared.released.lock().unwrap().push(old.session);
        }
        old.conn.close();
    }
    // Dropping the old route joins its (closed) link's threads.
    drop(replaced);
    ship_join_payload(shared, tx);
    Ok(())
}

/// Queue the configured join frame (the JOB spec) on a freshly admitted
/// slave's link.
fn ship_join_payload(shared: &Arc<AcceptorShared>, tx: SocketTx) {
    let frame = shared.join_frame.lock().unwrap().clone();
    if let Some(frame) = frame {
        let _ = tx.send(frame);
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
    let (env_tx, env_rx): (_, Receiver<Inbound>) = unbounded();
    let mut links: Vec<TxLink> = (0..n_ranks as usize).map(|_| TxLink::Unrouted).collect();
    let tx = spawn_link(stream, Rank(0), env_tx.clone(), stats.clone())?;
    links[0] = TxLink::Socket(tx);
    links[rank as usize] = TxLink::Channel(env_tx); // loopback
    let ep = Endpoint::from_parts(Rank(rank), links, env_rx, plan);
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

    /// Fleet helper: elastic master with `n` initial slaves.
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
                    connect(&addr, Some(i as u32 + 1), SocketConfig::default(), plan).unwrap()
                })
            })
            .collect();
        let (master, minfo, acceptor) = listener.accept_fleet(n_slaves, None).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, minfo, acceptor, addr, slaves)
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

        let (master, _minfo, _acceptor, _addr, mut slaves) = fleet_pair(1, vec![None]);
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
        let (mut master, _minfo, acceptor, addr, mut slaves) = fleet_pair(1, vec![Some(plan)]);
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
        assert_eq!(acceptor.epoch(), 2);
    }

    #[test]
    fn new_incarnation_is_fenced_with_a_new_epoch() {
        let (mut master, minfo, acceptor, addr, mut slaves) = fleet_pair(1, vec![None]);
        assert_eq!(minfo.epoch, 1);
        let (mut slave, sinfo) = slaves.pop().unwrap();
        assert_eq!(sinfo.epoch, 1);
        slave.send(Rank(0), Tag(1), b("inc1")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc1");
        drop(slave); // incarnation 1 dies; the master's link to it closes
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
