//! Message transport: the virtual-MPI layer.
//!
//! [`Network::new`] creates `n` fully-connected endpoints. Each endpoint
//! belongs to one OS thread (the "process" of that rank) and provides
//! ordered, reliable point-to-point messaging — the same semantics the
//! paper gets from MPICH. The default backend wires every rank pair over
//! crossbeam channels in one process; the socket backend
//! ([`crate::socket`]) replaces individual links with TCP or Unix-domain
//! connections while the endpoint API, fault injection and statistics
//! stay identical.
//!
//! Every send is one sealed frame ([`crate::frame`]): [`Endpoint::send`]
//! seals, fault injection (drops, duplicates, delays, bit flips, rank
//! death) acts on the sealed bytes *before* the link is chosen, the link
//! moves them untouched — a channel hands the buffer over, a socket
//! writes it verbatim — and the receiving endpoint verifies the checksum
//! before it parses anything. So the runtime's fault tolerance is
//! exercised deterministically, and identically, over either backend.

use crate::fault::{FaultPlan, FaultState, SendVerdict};
use crate::frame::{self, FrameError, Header, Kind};
use crate::message::{Envelope, Rank, Tag};
use crate::socket::SocketTx;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How often a blocked receive re-checks [`KillHandle`] liveness. A
/// parked `recv` must observe `kill()` within roughly this bound instead
/// of sleeping on the channel forever.
const ALIVE_SLICE: Duration = Duration::from_millis(10);

/// Transport errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The peer's endpoint (or every sender into ours) has been dropped,
    /// or the socket carrying this link was closed or errored.
    Disconnected,
    /// `recv_timeout` elapsed with no message.
    Timeout,
    /// This endpoint has been killed by fault injection; it can no longer
    /// send or receive.
    Dead,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Dead => write!(f, "endpoint killed by fault injection"),
        }
    }
}

impl std::error::Error for NetError {}

/// Counters of one endpoint's traffic.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NetStats {
    /// Logical frames successfully handed to the transport. A
    /// fault-injected duplicate still counts once here (see
    /// [`NetStats::duplicated_msgs`]).
    pub sent_msgs: u64,
    /// Bytes of logical sends: whole frames, header included — what a
    /// socket link writes for them.
    pub sent_bytes: u64,
    /// Valid frames received.
    pub recv_msgs: u64,
    /// Bytes of valid frames received, header included.
    pub recv_bytes: u64,
    /// Messages silently dropped by fault injection.
    pub dropped_msgs: u64,
    /// Messages delivered with a bit flipped by fault injection.
    pub corrupted_msgs: u64,
    /// Received frames whose CRC-32C check failed: dropped before any
    /// field was decoded. Reliable traffic recovers by retransmission,
    /// unreliable traffic is superseded by the next send.
    pub corrupt_frames: u64,
    /// Received frames with a valid checksum but an unknown kind or a
    /// short header; dropped.
    pub malformed_frames: u64,
    /// Extra copies injected by a duplicating [`FaultPlan`]: the receiver
    /// sees `sent_msgs + duplicated_msgs` deliveries.
    pub duplicated_msgs: u64,
    /// Scripted link severs that actually fired (the send counter reached
    /// the clause's threshold on a socket link). A plan whose sever never
    /// triggers — the run finished first — leaves this at zero.
    pub severed_links: u64,
}

/// Handle that can kill an endpoint from another thread (simulates a node
/// crash mid-run).
#[derive(Clone, Debug)]
pub struct KillHandle {
    flag: Arc<AtomicBool>,
}

impl KillHandle {
    /// Kill the endpoint: all subsequent operations fail with
    /// [`NetError::Dead`]. A receive already parked on the channel
    /// observes the kill within one liveness slice (~10ms).
    pub fn kill(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the endpoint has been killed.
    pub fn is_dead(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One sealed frame as a link delivers it. The sender's rank travels
/// beside the bytes — it is the identity of the channel or connection
/// the frame came in on, never a field a peer could forge.
pub(crate) struct Inbound {
    pub(crate) src: Rank,
    pub(crate) frame: Bytes,
}

/// One outbound route from an endpoint to a peer rank. Cloning shares
/// the underlying connection: a socket link stays open until *every*
/// clone has been dropped, which is what lets a persistent fleet keep
/// its connections alive while per-job [`Endpoint::fork`]s come and go.
#[derive(Clone)]
pub(crate) enum TxLink {
    /// In-process crossbeam channel into the peer's receiver.
    Channel(Sender<Inbound>),
    /// Socket connection (TCP or Unix-domain) to a peer process.
    Socket(SocketTx),
    /// No route — e.g. slave→slave in the star socket topology, where
    /// all traffic goes through the master.
    Unrouted,
}

impl TxLink {
    fn deliver(&self, src: Rank, frame: Bytes) -> Result<(), NetError> {
        match self {
            TxLink::Channel(s) => s
                .send(Inbound { src, frame })
                .map_err(|_| NetError::Disconnected),
            TxLink::Socket(tx) => tx.send(frame),
            TxLink::Unrouted => Err(NetError::Disconnected),
        }
    }
}

/// What one bounded wait on an endpoint's inbound queue produced.
pub(crate) enum Arrival {
    /// A frame that passed the checksum, with its parsed header.
    Frame(Header, Envelope),
    /// A frame from this peer failed verification and was dropped
    /// (already counted in [`NetStats`]).
    Rejected(Rank),
    /// The wait timed out.
    Nothing,
}

/// One rank's connection to the virtual cluster.
///
/// The route table sits behind a lock shared with every
/// [`Endpoint::fork`] (and, on an elastic master, the fleet acceptor) so
/// membership changes — a mid-run joiner growing the cluster, a released
/// rank's route being replaced — are visible to all holders at once.
/// Uncontended read-lock acquisition is a few nanoseconds; the send path
/// does not notice it.
pub struct Endpoint {
    rank: Rank,
    links: Arc<RwLock<Vec<TxLink>>>,
    receiver: Receiver<Inbound>,
    dead: Arc<AtomicBool>,
    fault: FaultState,
    stats: NetStats,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("n_ranks", &self.n_ranks())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Factory for fully-connected in-process endpoint sets.
pub struct Network;

impl Network {
    /// `n` endpoints with no fault injection.
    #[allow(clippy::new_ret_no_self)] // factory: a network IS its endpoints
    pub fn new(n: usize) -> Vec<Endpoint> {
        Self::with_faults(n, &[])
    }

    /// `n` endpoints; `plans[i]` (if provided) configures fault injection
    /// for rank `i`.
    pub fn with_faults(n: usize, plans: &[Option<FaultPlan>]) -> Vec<Endpoint> {
        assert!(n > 0, "network needs at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| {
                Endpoint::from_parts(
                    Rank(i as u32),
                    senders.iter().cloned().map(TxLink::Channel).collect(),
                    receiver,
                    plans.get(i).cloned().flatten(),
                )
            })
            .collect()
    }
}

impl Endpoint {
    /// Assemble an endpoint from explicit links — the shared constructor
    /// for the channel and socket backends.
    pub(crate) fn from_parts(
        rank: Rank,
        links: Vec<TxLink>,
        receiver: Receiver<Inbound>,
        plan: Option<FaultPlan>,
    ) -> Self {
        Endpoint {
            rank,
            links: Arc::new(RwLock::new(links)),
            receiver,
            dead: Arc::new(AtomicBool::new(false)),
            fault: FaultState::new(plan),
            stats: NetStats::default(),
        }
    }

    /// The shared route table, for components that mutate membership at
    /// runtime (the fleet acceptor installs links for mid-run joiners).
    pub(crate) fn shared_links(&self) -> Arc<RwLock<Vec<TxLink>>> {
        self.links.clone()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the network.
    pub fn n_ranks(&self) -> usize {
        self.links.read().unwrap().len()
    }

    /// Traffic counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A handle that can kill this endpoint from elsewhere.
    pub fn kill_handle(&self) -> KillHandle {
        KillHandle {
            flag: self.dead.clone(),
        }
    }

    /// A fresh endpoint sharing this one's links and inbound channel —
    /// the per-job view of a persistent fleet connection. The fork gets
    /// its own fault state (from `plan`), liveness flag and statistics; the underlying routes (channels or sockets) are
    /// *shared* (same route table, not a copy), so dropping the fork does
    /// not close any connection while the parent lives and membership
    /// changes made through either are seen by both. Only one of
    /// parent/fork may receive at a time: they drain the same inbound
    /// queue.
    pub fn fork(&self, plan: Option<FaultPlan>) -> Endpoint {
        Endpoint {
            rank: self.rank,
            links: self.links.clone(),
            receiver: self.receiver.clone(),
            dead: Arc::new(AtomicBool::new(false)),
            fault: FaultState::new(plan),
            stats: NetStats::default(),
        }
    }

    /// Whether a frame this endpoint sends can be lost, duplicated or
    /// reordered without any later send failing: only when the endpoint
    /// carries a [`FaultPlan`]. A channel or a socket link under no plan
    /// delivers every frame whose send returned `Ok`, in order, or the
    /// peer is gone for good.
    pub(crate) fn can_lose(&self) -> bool {
        self.fault.has_plan()
    }

    fn check_alive(&mut self) -> Result<(), NetError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(NetError::Dead);
        }
        if self.fault.should_die_now() {
            self.dead.store(true, Ordering::Release);
            return Err(NetError::Dead);
        }
        Ok(())
    }

    /// Send `payload` to `dst` with `tag` as one sealed frame. Fault
    /// injection may silently drop, duplicate, delay or corrupt it (drops
    /// are reported in [`NetStats::dropped_msgs`], success returned — the
    /// point is that the *receiver* never sees it, or sees it twice / out
    /// of order / fails its checksum).
    pub fn send(&mut self, dst: Rank, tag: Tag, payload: Bytes) -> Result<(), NetError> {
        self.send_sealed(dst, frame::seal(Kind::Raw, tag, 0, &payload))
    }

    /// Send an already-sealed frame (the reliable layer keeps the sealed
    /// bytes to retransmit them verbatim).
    pub(crate) fn send_sealed(&mut self, dst: Rank, sealed: Bytes) -> Result<(), NetError> {
        self.check_alive()?;
        self.fault.note_send();
        // A scripted link sever fires on send count, before the verdict:
        // it models the cable being pulled, not a message being lost —
        // the frame below, like every later one, then fails to go out.
        if self.fault.should_sever_now() {
            if let Some(TxLink::Socket(tx)) = self.links.read().unwrap().get(dst.index()) {
                tx.sever();
                self.stats.severed_links += 1;
            }
        }
        // The length prefix is the stream's framing, not the message:
        // flips land past it, where the checksum always sees them.
        const PREFIX: usize = frame::LEN_LEN;
        let tag = frame::tag_of(&sealed);
        let res = match self.fault.decide(tag, sealed.len() - PREFIX) {
            SendVerdict::Deliver => self.deliver(dst, sealed, true),
            SendVerdict::Drop => {
                self.stats.dropped_msgs += 1;
                Ok(())
            }
            SendVerdict::Duplicate => {
                // One logical send; the extra copy is transport noise and
                // is accounted separately so stats conservation holds.
                let first = self.deliver(dst, sealed.clone(), true);
                if first.is_ok() && self.deliver(dst, sealed, false).is_ok() {
                    self.stats.duplicated_msgs += 1;
                }
                first
            }
            SendVerdict::Delay(release_at) => {
                self.fault.hold(release_at, dst, sealed);
                Ok(())
            }
            SendVerdict::Corrupt { bit } => {
                let mut buf = sealed.to_vec();
                buf[PREFIX + (bit / 8) as usize] ^= 1 << (bit % 8);
                self.stats.corrupted_msgs += 1;
                self.deliver(dst, Bytes::from(buf), true)
            }
        };
        // Release previously held messages only after the current one so a
        // one-send delay really swaps adjacent messages. A held message
        // whose destination has meanwhile gone away is just lost — same
        // observable behaviour as a drop.
        for (dst, held) in self.fault.take_due() {
            if self.deliver(dst, held, true).is_err() {
                self.stats.dropped_msgs += 1;
            }
        }
        res
    }

    fn deliver(&mut self, dst: Rank, sealed: Bytes, count: bool) -> Result<(), NetError> {
        let size = sealed.len() as u64;
        let link = self
            .links
            .read()
            .unwrap()
            .get(dst.index())
            .ok_or(NetError::Disconnected)?
            .clone();
        link.deliver(self.rank, sealed)?;
        if count {
            self.stats.sent_msgs += 1;
            self.stats.sent_bytes += size;
        }
        Ok(())
    }

    /// The one place a received frame is verified: checksum first, then
    /// the header. A frame that fails is counted and dropped whole — no
    /// field of it is trustworthy.
    fn open(&mut self, inb: Inbound) -> Option<(Header, Envelope)> {
        match frame::check(&inb.frame) {
            Ok(header) => {
                self.stats.recv_msgs += 1;
                self.stats.recv_bytes += inb.frame.len() as u64;
                let env = Envelope {
                    src: inb.src,
                    dst: self.rank,
                    tag: header.tag,
                    payload: inb.frame.slice(frame::HEADER_LEN..),
                };
                Some((header, env))
            }
            Err(FrameError::Corrupt) => {
                self.stats.corrupt_frames += 1;
                None
            }
            Err(_) => {
                self.stats.malformed_frames += 1;
                None
            }
        }
    }

    /// One wait on the inbound queue of at most `timeout` — and at most
    /// one liveness slice, so a caller looping on this observes a
    /// `kill()` issued while it was parked within roughly that bound.
    pub(crate) fn poll(&mut self, timeout: Duration) -> Result<Arrival, NetError> {
        self.check_alive()?;
        match self.receiver.recv_timeout(timeout.min(ALIVE_SLICE)) {
            Ok(inb) => {
                let src = inb.src;
                Ok(match self.open(inb) {
                    Some((header, env)) => Arrival::Frame(header, env),
                    None => Arrival::Rejected(src),
                })
            }
            Err(RecvTimeoutError::Timeout) => Ok(Arrival::Nothing),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Blocking receive of the next message.
    pub fn recv(&mut self) -> Result<Envelope, NetError> {
        loop {
            if let Arrival::Frame(_, env) = self.poll(ALIVE_SLICE)? {
                return Ok(env);
            }
        }
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.check_alive()?;
                return Err(NetError::Timeout);
            }
            if let Arrival::Frame(_, env) = self.poll(left)? {
                return Ok(env);
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Result<Option<Envelope>, NetError> {
        self.check_alive()?;
        loop {
            match self.receiver.try_recv() {
                Ok(inb) => {
                    if let Some((_, env)) = self.open(inb) {
                        return Ok(Some(env));
                    }
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn ping_pong() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(Rank(1), Tag(1), b("ping")).unwrap();
        let env = e1.recv().unwrap();
        assert_eq!(env.src, Rank(0));
        assert_eq!(&env.payload[..], b"ping");
        e1.send(Rank(0), Tag(2), b("pong")).unwrap();
        let env = e0.recv().unwrap();
        assert_eq!(env.tag, Tag(2));
    }

    #[test]
    fn per_pair_ordering_preserved() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        for i in 0..100u32 {
            e0.send(Rank(1), Tag(i), Bytes::new()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(e1.recv().unwrap().tag, Tag(i));
        }
    }

    #[test]
    fn try_recv_and_timeout() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        assert!(e1.try_recv().unwrap().is_none());
        assert_eq!(
            e1.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
        e0.send(Rank(1), Tag(0), b("x")).unwrap();
        assert!(e1.recv_timeout(Duration::from_millis(100)).is_ok());
    }

    #[test]
    fn send_to_self_works() {
        let mut eps = Network::new(1);
        let mut e0 = eps.pop().unwrap();
        e0.send(Rank(0), Tag(9), b("loop")).unwrap();
        assert_eq!(e0.recv().unwrap().tag, Tag(9));
    }

    #[test]
    fn kill_handle_makes_endpoint_dead() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let k = e1.kill_handle();
        assert!(!k.is_dead());
        k.kill();
        assert!(k.is_dead());
        assert_eq!(e1.recv().unwrap_err(), NetError::Dead);
        assert_eq!(
            e1.send(Rank(0), Tag(0), Bytes::new()).unwrap_err(),
            NetError::Dead
        );
        // The other endpoint is unaffected.
        e0.send(Rank(0), Tag(0), Bytes::new()).unwrap();
    }

    /// Regression: a receive already *parked* on the channel must observe
    /// a kill issued from another thread instead of blocking forever.
    #[test]
    fn kill_interrupts_blocked_recv() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let _e0 = eps.pop().unwrap(); // keep peers alive: channel never closes
        let k = e1.kill_handle();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            k.kill();
        });
        let start = Instant::now();
        assert_eq!(e1.recv().unwrap_err(), NetError::Dead);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "blocked recv must notice the kill promptly"
        );
        killer.join().unwrap();
    }

    /// A long `recv_timeout` must also notice a mid-wait kill — it should
    /// return `Dead` well before its own deadline.
    #[test]
    fn kill_interrupts_long_recv_timeout() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let _e0 = eps.pop().unwrap();
        let k = e1.kill_handle();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            k.kill();
        });
        let start = Instant::now();
        assert_eq!(
            e1.recv_timeout(Duration::from_secs(30)).unwrap_err(),
            NetError::Dead
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        killer.join().unwrap();
    }

    #[test]
    fn stats_count_traffic() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(Rank(1), Tag(0), b("12345")).unwrap();
        e1.recv().unwrap();
        assert_eq!(e0.stats().sent_msgs, 1);
        assert_eq!(e0.stats().sent_bytes, 26, "header + payload");
        assert_eq!(e1.stats().recv_msgs, 1);
        assert_eq!(e1.stats().recv_bytes, 26);
    }

    #[test]
    fn disconnected_when_peers_drop() {
        let mut eps = Network::new(2);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        drop(e0);
        // e1 still holds a sender to itself, so its channel is not closed;
        // but sending to rank 0 whose receiver is gone errors.
        assert_eq!(
            e1.send(Rank(0), Tag(0), Bytes::new()).unwrap_err(),
            NetError::Disconnected
        );
    }
}
