//! Reliable delivery over the (possibly lossy) transport.
//!
//! [`Endpoint::send`] is fire-and-forget: under fault injection a message
//! can vanish without the sender learning about it. [`ReliableEndpoint`]
//! wraps an endpoint with an acknowledged-delivery protocol so the
//! runtime's control messages survive loss — on the links where loss can
//! happen at all. Each [`ReliableEndpoint::send_reliable`] asks the
//! endpoint whether this frame can be lost: it can only when the
//! endpoint carries a [`FaultPlan`](crate::FaultPlan) — this layer is the
//! test-time partner of fault injection. A channel or a socket link under
//! no plan delivers every frame in order or fails every later send (a
//! broken socket link is closed for good), so there the frame goes out as
//! a plain RAW frame: no sequence number, no retransmit buffer, no ACK.
//! The decision uses only facts the sender holds, and the receiver
//! already handles both kinds, so the peers need no agreement. Frames
//! that can be lost get the protocol:
//!
//! - every such send is framed with a per-destination sequence number
//!   and kept in a retransmit buffer until the peer's ACK arrives;
//! - unacked messages are retransmitted with exponential backoff, up to
//!   [`RetryPolicy::max_attempts`]; exhausting the budget (or the peer's
//!   channel closing) surfaces a [`SendFailure`] instead of silently
//!   losing the message;
//! - the receive path ACKs every DATA frame (duplicates re-ACK, because
//!   the first ACK may itself have been dropped) and suppresses duplicate
//!   deliveries with a per-peer sequence window, so the application sees
//!   at-least-once sends as exactly-once deliveries;
//! - every valid frame from a peer (raw, data, duplicate, ack) refreshes
//!   [`ReliableEndpoint::last_heard`], giving schedulers a liveness signal
//!   that distinguishes a *slow* peer from a *dead* one;
//! - framing and integrity are the endpoint's, not this layer's: every
//!   send is a sealed frame ([`crate::frame`]) whose header carries the
//!   kind and sequence number used here, and a frame that fails its
//!   checksum never reaches this code
//!   ([`NetStats::corrupt_frames`](crate::NetStats::corrupt_frames)) —
//!   it is recovered by the same retransmission path as a lost one.
//!
//! Unreliable sends (e.g. periodic heartbeats, where the next one
//! supersedes a lost one) are plain RAW frames on every link, so both
//! kinds can be mixed on one endpoint.
//!
//! Retransmission is driven by the receive calls (`recv_until` /
//! `pump`), not a background thread: every user of this layer already sits
//! in a receive loop, and keeping the state single-threaded avoids locking
//! on the hot path. [`ReliableEndpoint::recv_until`] is the layer's one
//! wait; `recv_timeout` and `drain_pending` are its two common forms.

use crate::frame::{self, Header, Kind};
use crate::message::{Envelope, Rank, Tag};
use crate::transport::{Arrival, Endpoint, NetError, NetStats};
use bytes::Bytes;
use easyhps_obs::LaneBuf;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Retransmission policy for reliable sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per message (first send included) before the
    /// sender gives up and reports a [`SendFailure`].
    pub max_attempts: u32,
    /// Backoff after the first attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Upper bound on the per-attempt backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(80),
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait after the `attempts`-th send of a message.
    fn backoff(&self, attempts: u32) -> Duration {
        let shift = attempts.saturating_sub(1).min(16);
        self.initial_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }

    /// Worst-case time a message can sit in the retransmit cycle before
    /// the sender gives up: the sum of every scheduled backoff. After
    /// this long, every pending send has either been acked or abandoned —
    /// the right deadline scale for shutdown drains (a fixed constant
    /// silently truncates slow retry schedules).
    pub fn drain_budget(&self) -> Duration {
        (1..=self.max_attempts).map(|a| self.backoff(a)).sum()
    }
}

/// Counters of the reliability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliStats {
    /// Reliable (acknowledged) messages first-sent.
    pub data_sent: u64,
    /// Retransmissions of unacked messages.
    pub retransmits: u64,
    /// Reliable sends abandoned (retry budget exhausted or peer gone).
    pub give_ups: u64,
    /// ACK frames sent (including re-ACKs of duplicates).
    pub acks_sent: u64,
    /// ACK frames received.
    pub acks_recv: u64,
    /// Duplicate data deliveries suppressed.
    pub duplicates: u64,
    /// Total backoff scheduled across retransmissions, in nanoseconds —
    /// how long reliable deliveries sat waiting on retry timers.
    pub backoff_wait_ns: u64,
}

/// Per-peer slice of the reliability counters, snapshotted by
/// [`ReliableEndpoint::peer_stats`] — the supported way to read these
/// numbers (no field peeking, no aggregation guesswork).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerReliStats {
    /// Retransmissions of unacked messages to this peer.
    pub retransmits: u64,
    /// Duplicate data deliveries from this peer that were suppressed.
    pub duplicates: u64,
    /// Reliable sends to this peer that were abandoned (retry budget
    /// exhausted or peer unreachable).
    pub send_failures: u64,
}

/// A reliable send that was abandoned: the peer never acknowledged it
/// within the retry budget, or its channel closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendFailure {
    /// Destination of the failed message.
    pub dst: Rank,
    /// Protocol tag of the failed message.
    pub tag: Tag,
    /// Sequence number assigned at [`ReliableEndpoint::send_reliable`].
    pub seq: u64,
    /// Why the send was abandoned.
    pub reason: FailReason,
}

/// Why a reliable send was abandoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// The peer's channel is closed (endpoint dropped): it can never
    /// receive anything again.
    Unreachable,
    /// The retry budget ran out without an ACK. The peer may still be
    /// alive (e.g. an unlucky run of drops, or it is stalled).
    NoAck,
}

/// One unacknowledged reliable message.
struct Pending {
    dst: Rank,
    tag: Tag,
    seq: u64,
    framed: Bytes,
    attempts: u32,
    next_retry: Instant,
}

/// Receive-side dedup window for one peer: `contig` is the highest
/// sequence number below which everything was delivered; `ahead` holds
/// delivered numbers above it (out-of-order arrivals via retransmits).
#[derive(Default)]
struct PeerRecv {
    contig: u64,
    ahead: BTreeSet<u64>,
}

impl PeerRecv {
    /// Record `seq` as delivered; false if it already was.
    fn fresh(&mut self, seq: u64) -> bool {
        if seq <= self.contig || self.ahead.contains(&seq) {
            return false;
        }
        self.ahead.insert(seq);
        while self.ahead.remove(&(self.contig + 1)) {
            self.contig += 1;
        }
        true
    }
}

/// An [`Endpoint`] with acknowledged delivery, bounded retransmission and
/// per-peer liveness tracking. See the module docs for the protocol.
pub struct ReliableEndpoint {
    ep: Endpoint,
    policy: RetryPolicy,
    /// Last assigned outgoing sequence number, per destination rank.
    next_seq: Vec<u64>,
    pending: Vec<Pending>,
    recv_state: Vec<PeerRecv>,
    /// When each peer was last heard from (any valid frame).
    last_heard: Vec<Option<Instant>>,
    failures: Vec<SendFailure>,
    stats: ReliStats,
    per_peer: Vec<PeerReliStats>,
    /// Event lane for retransmit/abandon instants (tracing; disabled by
    /// default).
    lane: LaneBuf,
}

impl ReliableEndpoint {
    /// Wrap `ep` with reliability state for every rank in its network.
    pub fn new(ep: Endpoint, policy: RetryPolicy) -> Self {
        let n = ep.n_ranks();
        Self {
            ep,
            policy,
            next_seq: vec![0; n],
            pending: Vec::new(),
            recv_state: (0..n).map(|_| PeerRecv::default()).collect(),
            last_heard: vec![None; n],
            failures: Vec::new(),
            stats: ReliStats::default(),
            per_peer: vec![PeerReliStats::default(); n],
            lane: LaneBuf::disabled(),
        }
    }

    /// Attach a tracing lane: retransmissions and abandoned sends are
    /// recorded as instant events (name `retransmit` / `send-abandoned`,
    /// category `net`, the peer rank as argument).
    pub fn set_event_lane(&mut self, lane: LaneBuf) {
        self.lane = lane;
    }

    /// Grow the per-rank reliability state to cover `n` ranks — called
    /// when a mid-run joiner extends the cluster. Existing state is
    /// untouched; new slots start fresh.
    pub fn ensure_ranks(&mut self, n: usize) {
        while self.next_seq.len() < n {
            self.next_seq.push(0);
            self.recv_state.push(PeerRecv::default());
            self.last_heard.push(None);
            self.per_peer.push(PeerReliStats::default());
        }
    }

    /// Reset all reliability state for `peer`: a *new incarnation* of the
    /// rank restarts its sequence numbers at 1, so the old dedup window
    /// would silently swallow everything it sends, and retransmits aimed
    /// at the dead incarnation are meaningless. Liveness is reset to
    /// "just heard" so the fresh incarnation gets its startup grace.
    pub fn reset_peer(&mut self, peer: Rank) {
        let i = peer.index();
        if let Some(s) = self.next_seq.get_mut(i) {
            *s = 0;
        }
        if let Some(r) = self.recv_state.get_mut(i) {
            *r = PeerRecv::default();
        }
        if let Some(h) = self.last_heard.get_mut(i) {
            *h = Some(Instant::now());
        }
        self.pending.retain(|p| p.dst != peer);
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.ep.rank()
    }

    /// Number of ranks in the network.
    pub fn n_ranks(&self) -> usize {
        self.ep.n_ranks()
    }

    /// Reliability-layer counters (endpoint-wide).
    pub fn stats(&self) -> ReliStats {
        self.stats
    }

    /// Cheap per-peer snapshot of retransmits, duplicate drops and
    /// abandoned sends for `peer` (zeros for an out-of-range rank).
    pub fn peer_stats(&self, peer: Rank) -> PeerReliStats {
        self.per_peer.get(peer.index()).copied().unwrap_or_default()
    }

    /// Per-peer reliability counters, indexed by rank.
    pub fn all_peer_stats(&self) -> &[PeerReliStats] {
        &self.per_peer
    }

    /// Raw transport counters of the wrapped endpoint.
    pub fn net_stats(&self) -> NetStats {
        self.ep.stats()
    }

    /// When `peer` was last heard from (any valid frame: data, duplicate
    /// or ack). `None` until the first frame arrives.
    pub fn last_heard(&self, peer: Rank) -> Option<Instant> {
        self.last_heard.get(peer.index()).copied().flatten()
    }

    /// Whether any reliable send is still awaiting its ACK.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Abandoned reliable sends accumulated since the last call.
    pub fn take_failures(&mut self) -> Vec<SendFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Fire-and-forget send (never retransmitted). For messages where the
    /// next one supersedes a lost one, e.g. heartbeats.
    pub fn send_unreliable(&mut self, dst: Rank, tag: Tag, payload: Bytes) -> Result<(), NetError> {
        self.ep.send(dst, tag, payload)
    }

    /// Send that reaches `dst` exactly once or is reported. A frame that
    /// can be lost (see the module docs) is acknowledged: retransmitted
    /// with backoff until the peer ACKs it or the retry budget runs out
    /// (then reported via [`Self::take_failures`]); returns its sequence
    /// number. A frame that cannot be lost goes out as a RAW frame and
    /// returns `None`: nothing is tracked, and no [`SendFailure`] will
    /// ever name it.
    ///
    /// An immediate `Err` means the message was never queued (the peer's
    /// channel is closed or this endpoint is dead) — there will be no
    /// retries and no [`SendFailure`] for it.
    pub fn send_reliable(
        &mut self,
        dst: Rank,
        tag: Tag,
        payload: Bytes,
    ) -> Result<Option<u64>, NetError> {
        if !self.ep.can_lose() {
            self.ep.send(dst, tag, payload)?;
            return Ok(None);
        }
        let slot = dst.index();
        let seq = self.next_seq[slot] + 1;
        let framed = frame::seal_payload(Kind::Data, tag, seq, payload);
        self.ep.send_sealed(dst, framed.clone())?;
        self.next_seq[slot] = seq;
        self.stats.data_sent += 1;
        self.pending.push(Pending {
            dst,
            tag,
            seq,
            framed,
            attempts: 1,
            next_retry: Instant::now() + self.policy.backoff(1),
        });
        Ok(Some(seq))
    }

    /// Retransmit every overdue unacked message; abandon those whose
    /// retry budget is exhausted or whose peer is unreachable. Called
    /// automatically by the receive methods.
    pub fn pump(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].next_retry > now {
                i += 1;
                continue;
            }
            if self.pending[i].attempts >= self.policy.max_attempts {
                let p = self.pending.swap_remove(i);
                self.abandon(p, FailReason::NoAck);
                continue;
            }
            let dst = self.pending[i].dst;
            let framed = self.pending[i].framed.clone();
            match self.ep.send_sealed(dst, framed) {
                Ok(()) => {
                    self.stats.retransmits += 1;
                    if let Some(pp) = self.per_peer.get_mut(dst.index()) {
                        pp.retransmits += 1;
                    }
                    self.lane
                        .instant("retransmit", "net", Some(("peer", u64::from(dst.0))));
                    let p = &mut self.pending[i];
                    p.attempts += 1;
                    let backoff = self.policy.backoff(p.attempts);
                    self.stats.backoff_wait_ns += backoff.as_nanos() as u64;
                    p.next_retry = now + backoff;
                    i += 1;
                }
                Err(_) => {
                    let p = self.pending.swap_remove(i);
                    self.abandon(p, FailReason::Unreachable);
                }
            }
        }
    }

    /// Record an abandoned reliable send: aggregate + per-peer counters,
    /// a `SendFailure` for [`Self::take_failures`], and a trace instant.
    fn abandon(&mut self, p: Pending, reason: FailReason) {
        self.stats.give_ups += 1;
        if let Some(pp) = self.per_peer.get_mut(p.dst.index()) {
            pp.send_failures += 1;
        }
        self.lane
            .instant("send-abandoned", "net", Some(("peer", u64::from(p.dst.0))));
        self.failures.push(SendFailure {
            dst: p.dst,
            tag: p.tag,
            seq: p.seq,
            reason,
        });
    }

    /// Process one verified frame. ACKs are absorbed, DATA frames are
    /// acknowledged and deduplicated; returns the envelope of a fresh
    /// application message.
    fn accept(&mut self, header: Header, env: Envelope) -> Option<Envelope> {
        let src = env.src.index();
        self.note_heard(src);
        match header.kind {
            Kind::Raw => Some(env),
            Kind::Data => {
                // Always (re-)ACK: the previous ACK may have been dropped.
                let ack = frame::seal(Kind::Ack, env.tag, header.seq, &[]);
                let _ = self.ep.send_sealed(env.src, ack);
                self.stats.acks_sent += 1;
                if self.recv_state[src].fresh(header.seq) {
                    Some(env)
                } else {
                    self.stats.duplicates += 1;
                    if let Some(pp) = self.per_peer.get_mut(src) {
                        pp.duplicates += 1;
                    }
                    None
                }
            }
            Kind::Ack => {
                self.stats.acks_recv += 1;
                if let Some(i) = self
                    .pending
                    .iter()
                    .position(|p| p.dst == env.src && p.seq == header.seq)
                {
                    self.pending.swap_remove(i);
                }
                None
            }
            // A handshake frame has no business on an established link.
            Kind::Hello => None,
        }
    }

    fn note_heard(&mut self, src: usize) {
        if let Some(slot) = self.last_heard.get_mut(src) {
            *slot = Some(Instant::now());
        }
    }

    /// The one wait of this layer: pump, sleep until the earlier of
    /// `deadline` and the next retransmit, absorb ACKs and duplicates,
    /// and return the first fresh application message. `Ok(None)` once
    /// `deadline` passes — or, with `until_acked`, the moment no reliable
    /// send is pending any more. Nothing received is discarded.
    pub fn recv_until(
        &mut self,
        deadline: Instant,
        until_acked: bool,
    ) -> Result<Option<Envelope>, NetError> {
        loop {
            self.pump();
            if until_acked && self.pending.is_empty() {
                return Ok(None);
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(next) = self.pending.iter().map(|p| p.next_retry).min() {
                // Wake early to retransmit, but never spin hotter than 1ms.
                let until_retry = next
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                wait = wait.min(until_retry);
            }
            match self.ep.poll(wait)? {
                Arrival::Frame(header, env) => {
                    if let Some(env) = self.accept(header, env) {
                        return Ok(Some(env));
                    }
                }
                // No field of a rejected frame is trustworthy — not even
                // liveness (`last_heard` stays untouched).
                Arrival::Rejected(src) => {
                    self.lane
                        .instant("frame-corrupt", "net", Some(("peer", u64::from(src.0))));
                }
                Arrival::Nothing => {}
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Receive the next application message, driving retransmissions
    /// while waiting. ACKs and duplicates are handled internally and do
    /// not count against the caller's patience: the timeout bounds the
    /// total wall-clock wait for an *application* message.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, NetError> {
        self.recv_until(Instant::now() + timeout, false)?
            .ok_or(NetError::Timeout)
    }

    /// Drive retransmissions until every reliable send is ACKed, abandoned
    /// or `max_wait` elapses, returning the moment nothing is pending;
    /// true when nothing is left pending. Incoming application messages
    /// received meanwhile are ACKed (so the peer stops retransmitting)
    /// but discarded — this is a shutdown linger, not a receive path.
    pub fn drain_pending(&mut self, max_wait: Duration) -> bool {
        let deadline = Instant::now() + max_wait;
        while let Ok(Some(_)) = self.recv_until(deadline, true) {}
        !self.has_pending()
    }
}

impl std::fmt::Debug for ReliableEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableEndpoint")
            .field("rank", &self.ep.rank())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::transport::Network;

    fn pair(plans: &[Option<FaultPlan>]) -> (ReliableEndpoint, ReliableEndpoint) {
        let mut eps = Network::with_faults(2, plans);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        (
            ReliableEndpoint::new(e0, RetryPolicy::default()),
            ReliableEndpoint::new(e1, RetryPolicy::default()),
        )
    }

    /// A plan that injects nothing still marks its endpoint's frames as
    /// losable, so its sends take the acknowledged path — how these tests
    /// reach that path over clean channels.
    fn planned() -> Option<FaultPlan> {
        Some(FaultPlan::default())
    }

    #[test]
    fn reliable_roundtrip_acks_only_the_planned_side() {
        let (mut a, mut b) = pair(&[planned(), None]);
        let seq = a
            .send_reliable(Rank(1), Tag(7), Bytes::from(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(seq, Some(1));
        let env = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(env.tag, Tag(7));
        assert_eq!(&env.payload[..], &[1, 2, 3]);
        // The ACK clears the sender's pending buffer on its next pump.
        assert!(a.recv_timeout(Duration::from_millis(20)).is_err());
        assert!(!a.has_pending());
        assert_eq!(a.stats().retransmits, 0);
        assert!(a.last_heard(Rank(1)).is_some(), "ack refreshes liveness");
        // The reply crosses the same channel from the side with no plan:
        // raw, untracked, never acked.
        assert_eq!(
            b.send_reliable(Rank(0), Tag(8), Bytes::new()).unwrap(),
            None
        );
        assert!(!b.has_pending());
        assert_eq!(
            a.recv_timeout(Duration::from_millis(100)).unwrap().tag,
            Tag(8)
        );
        assert_eq!((a.stats().acks_recv, a.stats().acks_sent), (1, 0));
        assert_eq!((b.stats().acks_sent, b.stats().acks_recv), (1, 0));
        assert_eq!(b.stats().data_sent, 0);
    }

    #[test]
    fn clean_channel_sends_go_raw_and_unacked() {
        let (mut a, mut b) = pair(&[]);
        for i in 0..5u8 {
            let sent = a.send_reliable(Rank(1), Tag(1), Bytes::from(vec![i]));
            assert_eq!(sent.unwrap(), None, "nothing to track");
        }
        assert!(!a.has_pending());
        for i in 0..5u8 {
            let env = b.recv_timeout(Duration::from_millis(100)).unwrap();
            assert_eq!(&env.payload[..], &[i], "in order, exactly once");
        }
        assert!(
            b.last_heard(Rank(0)).is_some(),
            "raw frames refresh liveness"
        );
        assert_eq!(a.stats(), ReliStats::default());
        assert_eq!(b.stats(), ReliStats::default(), "no ACK, no dedup");
    }

    #[test]
    fn lossy_sender_retransmits_until_delivered() {
        // 60% drop on the sender side: first attempts mostly vanish, but
        // retransmission pushes everything through exactly once.
        let plans = vec![Some(FaultPlan::lossy(0.6, 7)), None];
        let (mut a, mut b) = pair(&plans);
        let n = 20u8;
        for i in 0..n {
            a.send_reliable(Rank(1), Tag(0), Bytes::from(vec![i]))
                .unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < n as usize && Instant::now() < deadline {
            // Alternate: b receives (and ACKs), a pumps retransmits.
            if let Ok(env) = b.recv_timeout(Duration::from_millis(5)) {
                got.push(env.payload[0]);
            }
            let _ = a.recv_timeout(Duration::from_millis(5));
        }
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "all delivered, no dups");
        assert!(a.stats().retransmits > 0, "drops forced retransmits");
        assert!(a.take_failures().is_empty());
        // Per-peer and endpoint-wide counters agree (single peer here).
        let per = a.peer_stats(Rank(1));
        assert_eq!(per.retransmits, a.stats().retransmits);
        assert_eq!(per.send_failures, 0);
        assert!(
            a.stats().backoff_wait_ns > 0,
            "retransmits schedule backoff waits"
        );
        assert_eq!(a.peer_stats(Rank(99)), PeerReliStats::default());
    }

    #[test]
    fn lossy_receiver_acks_survive_via_reack() {
        // Drops on the *receiver's* outgoing side lose ACKs; the sender
        // retransmits, the receiver suppresses the duplicate and re-ACKs.
        let plans = vec![planned(), Some(FaultPlan::lossy(0.5, 11))];
        let (mut a, mut b) = pair(&plans);
        for i in 0..10u8 {
            a.send_reliable(Rank(1), Tag(0), Bytes::from(vec![i]))
                .unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (a.has_pending() || got.len() < 10) && Instant::now() < deadline {
            if let Ok(env) = b.recv_timeout(Duration::from_millis(5)) {
                got.push(env.payload[0]);
            }
            let _ = a.recv_timeout(Duration::from_millis(5));
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(!a.has_pending(), "every message eventually acked");
        assert!(b.stats().duplicates > 0, "lost acks forced duplicates");
        assert_eq!(
            b.peer_stats(Rank(0)).duplicates,
            b.stats().duplicates,
            "all duplicates came from rank 0"
        );
    }

    #[test]
    fn corrupting_link_is_survived_by_retransmission() {
        // 40% of outgoing frames get one bit flipped. The receiver's CRC
        // check drops them before any field is decoded, and retransmission
        // pushes every message through exactly once — a corrupting link
        // degrades into a lossy one.
        let plan = FaultPlan {
            seed: 13,
            ..FaultPlan::default()
        }
        .with_bitflips(0.4);
        let (mut a, mut b) = pair(&[Some(plan), None]);
        let n = 20u8;
        for i in 0..n {
            a.send_reliable(Rank(1), Tag(0), Bytes::from(vec![i]))
                .unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < n as usize && Instant::now() < deadline {
            if let Ok(env) = b.recv_timeout(Duration::from_millis(5)) {
                got.push(env.payload[0]);
            }
            let _ = a.recv_timeout(Duration::from_millis(5));
        }
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "all delivered intact");
        assert!(a.net_stats().corrupted_msgs > 0, "flips were injected");
        assert!(
            b.net_stats().corrupt_frames > 0,
            "flips were detected by CRC"
        );
        assert_eq!(b.net_stats().malformed_frames, 0);
        assert!(a.stats().retransmits > 0, "recovery came from retransmits");
        assert!(a.take_failures().is_empty());
    }

    #[test]
    fn unreachable_peer_reports_failure() {
        let (mut a, b) = pair(&[]);
        drop(b);
        // The channel to rank 1 is closed: the first send errors out.
        assert!(a.send_reliable(Rank(1), Tag(0), Bytes::new()).is_err());
        assert!(!a.has_pending());
    }

    #[test]
    fn silent_peer_exhausts_retries_and_fails() {
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        // Drop everything the sender emits: the peer never sees it, the
        // channel stays open, so the sender must give up on its own.
        let plans = vec![Some(FaultPlan::lossy(1.0, 1)), None];
        let mut eps = Network::with_faults(2, &plans);
        let _b = eps.pop().unwrap();
        let mut a = ReliableEndpoint::new(eps.pop().unwrap(), policy);
        let seq = a.send_reliable(Rank(1), Tag(3), Bytes::new()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while a.has_pending() && Instant::now() < deadline {
            let _ = a.recv_timeout(Duration::from_millis(2));
        }
        let failures = a.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(Some(failures[0].seq), seq);
        assert_eq!(failures[0].tag, Tag(3));
        assert_eq!(failures[0].reason, FailReason::NoAck);
        assert_eq!(a.stats().give_ups, 1);
        assert_eq!(a.peer_stats(Rank(1)).send_failures, 1);
        assert_eq!(a.all_peer_stats().len(), 2);
    }

    #[test]
    fn event_lane_records_retransmit_and_abandon_instants() {
        use easyhps_obs::EventRecorder;
        use std::sync::Arc;
        let rec = Arc::new(EventRecorder::new());
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let plans = vec![Some(FaultPlan::lossy(1.0, 1)), None];
        let mut eps = Network::with_faults(2, &plans);
        let _b = eps.pop().unwrap();
        let mut a = ReliableEndpoint::new(eps.pop().unwrap(), policy);
        a.set_event_lane(rec.lane(0, 99));
        a.send_reliable(Rank(1), Tag(3), Bytes::new()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while a.has_pending() && Instant::now() < deadline {
            let _ = a.recv_timeout(Duration::from_millis(2));
        }
        drop(a); // flush the lane buffer into the recorder
        let json = rec.chrome_trace_json();
        let summary = easyhps_obs::validate_chrome_trace(&json).expect("valid trace");
        assert!(summary.count("retransmit") >= 1, "{json}");
        assert_eq!(summary.count("send-abandoned"), 1, "{json}");
    }

    #[test]
    fn unreliable_sends_are_unwrapped_but_not_tracked() {
        let (mut a, mut b) = pair(&[]);
        a.send_unreliable(Rank(1), Tag(9), Bytes::from(vec![42]))
            .unwrap();
        assert!(!a.has_pending());
        let env = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(env.tag, Tag(9));
        assert_eq!(&env.payload[..], &[42]);
        assert_eq!(b.stats().acks_sent, 0, "raw frames are not acked");
    }

    #[test]
    fn dedup_window_is_per_peer() {
        let mut eps = Network::with_faults(3, &[None, planned(), planned()]);
        let e2 = eps.pop().unwrap();
        let e1 = eps.pop().unwrap();
        let mut c = ReliableEndpoint::new(eps.pop().unwrap(), RetryPolicy::default());
        let mut a = ReliableEndpoint::new(e1, RetryPolicy::default());
        let mut b = ReliableEndpoint::new(e2, RetryPolicy::default());
        // Both peers send their own seq 1 to rank 0: both must surface.
        a.send_reliable(Rank(0), Tag(1), Bytes::from(vec![1]))
            .unwrap();
        b.send_reliable(Rank(0), Tag(1), Bytes::from(vec![2]))
            .unwrap();
        let mut got = vec![
            c.recv_timeout(Duration::from_millis(100)).unwrap().payload[0],
            c.recv_timeout(Duration::from_millis(100)).unwrap().payload[0],
        ];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn drain_pending_waits_for_acks() {
        let plans = vec![Some(FaultPlan::lossy(0.5, 3)), None];
        let (mut a, mut b) = pair(&plans);
        for _ in 0..5 {
            a.send_reliable(Rank(1), Tag(0), Bytes::from(vec![0]))
                .unwrap();
        }
        // Peer thread consumes (and acks) everything.
        let h = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = 0;
            while seen < 5 && Instant::now() < deadline {
                if b.recv_timeout(Duration::from_millis(10)).is_ok() {
                    seen += 1;
                }
            }
            seen
        });
        assert!(a.drain_pending(Duration::from_secs(5)), "all acked");
        assert_eq!(h.join().unwrap(), 5);
    }

    #[test]
    fn drain_pending_ends_on_the_last_ack() {
        // The peer ACKs at once, so a drain must end on that ACK, not at
        // the end of some fixed receive slice.
        let (mut a, mut b) = pair(&[planned(), None]);
        const DRAINS: usize = 20;
        let h = std::thread::spawn(move || {
            for _ in 0..DRAINS {
                b.recv_timeout(Duration::from_secs(5)).unwrap();
            }
        });
        let mut took: Vec<Duration> = (0..DRAINS)
            .map(|i| {
                a.send_reliable(Rank(1), Tag(0), Bytes::from(vec![i as u8]))
                    .unwrap();
                let t = Instant::now();
                assert!(a.drain_pending(Duration::from_secs(5)), "acked");
                t.elapsed()
            })
            .collect();
        h.join().unwrap();
        took.sort_unstable();
        let median = took[DRAINS / 2];
        assert!(median < Duration::from_millis(2), "median drain {median:?}");
    }

    #[test]
    fn drain_budget_sums_the_whole_backoff_schedule() {
        let p = RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(20),
        };
        // 4 + 8 + 16 + 20 + 20
        assert_eq!(p.drain_budget(), Duration::from_millis(68));
        // Default policy: 5+10+20+40+80*6 = 555 ms.
        assert_eq!(
            RetryPolicy::default().drain_budget(),
            Duration::from_millis(555)
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(20),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(16));
        assert_eq!(p.backoff(4), Duration::from_millis(20));
        assert_eq!(p.backoff(40), Duration::from_millis(20));
    }
}
