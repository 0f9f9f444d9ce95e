//! Frame-layer and socket-transport integration tests.
//!
//! The sealed-frame properties run against the one stream reader
//! ([`frame::read_frame`]) followed by the one verifier
//! ([`frame::check`]), each case both from memory and across a real
//! `socketpair(2)` — so partial writes, short reads and torn prefixes
//! are produced by a kernel socket buffer, not only by slicing a `Vec`.
//! Below them: the frame bound and backpressure against raw peers, rank
//! assignment, cross-protocol refusal, and byte-counter agreement.

use bytes::Bytes;
use easyhps_net::frame::{self, Header, Kind};
use easyhps_net::socket::{connect, ANY_RANK, OUTBOUND_HWM, WRITE_BOUND};
use easyhps_net::{NetAddr, NetError, Network, Rank, SocketConfig, SocketListener, Tag};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Read one frame out of `bytes` the way every receiver does — bounded
/// stream read, then CRC check — either straight from memory or after
/// pushing the bytes through a real socketpair in `chunk`-byte writes
/// terminated by EOF.
fn receive(bytes: &[u8], via_socket: Option<usize>) -> io::Result<(Header, Bytes)> {
    let open = |frame: Bytes| match frame::check(&frame) {
        Ok(h) => Ok((h, frame.slice(frame::HEADER_LEN..))),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    };
    let Some(chunk) = via_socket else {
        return frame::read_frame(&mut &bytes[..]).and_then(open);
    };
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    let data = bytes.to_vec();
    let writer = std::thread::spawn(move || {
        for piece in data.chunks(chunk.max(1)) {
            // The reader may have given up on a bad length already.
            if a.write_all(piece).and_then(|()| a.flush()).is_err() {
                break;
            }
        }
        let _ = a.shutdown(Shutdown::Write);
    });
    let got = frame::read_frame(&mut b).and_then(open);
    drop(b);
    writer.join().unwrap();
    got
}

fn arb_kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Raw),
        Just(Kind::Data),
        Just(Kind::Ack),
        Just(Kind::Hello)
    ]
}

fn arb_transit() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (1usize..7).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sealed frame — any kind, tag, sequence number and payload —
    /// arrives intact, even split into arbitrarily small socket writes.
    #[test]
    fn sealed_frame_roundtrips(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        kind in arb_kind(),
        tag in any::<u32>(),
        seq in any::<u64>(),
        transit in arb_transit(),
    ) {
        let sealed = frame::seal(kind, Tag(tag), seq, &payload);
        prop_assert_eq!(sealed.len(), frame::HEADER_LEN + payload.len());
        let (header, body) = receive(&sealed, transit).unwrap();
        prop_assert_eq!(header, Header { kind, tag: Tag(tag), seq });
        prop_assert_eq!(&body[..], &payload[..]);
    }

    /// Every strict byte-prefix of a sealed frame fails cleanly: it must
    /// never decode, panic, or allocate from a hostile length — on the
    /// stream path (EOF inside the frame) and on the in-process path
    /// (the bare verifier on a short buffer) alike.
    #[test]
    fn every_frame_prefix_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        kind in arb_kind(),
        seq in any::<u64>(),
        transit in arb_transit(),
    ) {
        let sealed = frame::seal(kind, Tag(7), seq, &payload);
        for cut in 0..sealed.len() {
            prop_assert!(
                receive(&sealed[..cut], transit).is_err(),
                "prefix of {}/{} bytes must not be received",
                cut,
                sealed.len()
            );
            prop_assert!(frame::check(&sealed[..cut]).is_err(), "prefix {} verifies", cut);
        }
    }

    /// Any single corrupted byte of a sealed frame is caught: past the
    /// length prefix by the CRC, inside it by the bound, by EOF, or by
    /// the CRC of the mis-sized read.
    #[test]
    fn any_corrupted_byte_is_caught(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        kind in arb_kind(),
        seq in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
        transit in arb_transit(),
    ) {
        let mut buf = frame::seal(kind, Tag(7), seq, &payload).to_vec();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= xor;
        prop_assert!(receive(&buf, transit).is_err(), "flip at byte {} must not be received", pos);
    }
}

/// A raw peer that speaks just enough handshake to be admitted as rank 1.
fn raw_peer(
    listener: SocketListener,
) -> (UnixStream, easyhps_net::Endpoint, easyhps_net::SocketInfo) {
    let NetAddr::Uds(path) = listener.local_addr() else {
        panic!("uds listener")
    };
    let mut peer = UnixStream::connect(path).unwrap();
    let mut hello = frame::hello(frame::RANK_MAGIC);
    hello.put_u32(1).put_u64(0xDEAD_BEEF); // want rank 1, session id
    frame::send_hello(&mut peer, hello).unwrap();
    let (master, minfo) = listener.accept_ranks(1, None).unwrap();
    let welcome = frame::recv_hello(&mut peer, frame::RANK_MAGIC).unwrap();
    assert_eq!(welcome.len(), 16, "rank + n_ranks + epoch");
    (peer, master, minfo)
}

fn uds_listener(name: &str) -> SocketListener {
    let path = std::env::temp_dir().join(format!("easyhps-{name}-{}.sock", std::process::id()));
    SocketListener::bind(&NetAddr::Uds(path), SocketConfig::default()).unwrap()
}

/// A slow reader must not let the sender queue unbounded memory: once
/// the kernel socket buffers fill, the bounded writes leave frames to the
/// writer thread and the outbound queue is pinned at the high-water mark,
/// throttling `send`.
/// The peer here is a *raw* socket that handshakes and then refuses to
/// read, so backpressure genuinely propagates from the wire.
#[test]
fn slow_reader_backpressure_bounds_memory() {
    const MSG: usize = 1 << 20;
    const N_MSGS: usize = 3 * OUTBOUND_HWM / MSG; // far beyond mark + kernel buffering
    let (mut peer, mut master, minfo) = raw_peer(uds_listener("backpressure"));

    let stats = minfo.link(Rank(1)).unwrap().clone();
    let gauge = stats.clone();
    let sender = std::thread::spawn(move || {
        let payload = Bytes::from(vec![0xABu8; MSG]);
        // (queued before the send, how long the send took)
        let mut took = Vec::new();
        for i in 0..N_MSGS as u32 {
            let queued = gauge.bytes_queued.load(Ordering::Relaxed) as usize;
            let t0 = Instant::now();
            master.send(Rank(1), Tag(i), payload.clone()).unwrap();
            took.push((queued, t0.elapsed()));
        }
        (master, took)
    });

    // Sample the queue gauge while the peer refuses to read: the queue
    // must stay bounded by the high-water mark (plus at most the one
    // frame admitted into an empty queue), not grow towards the total.
    let mut max_queued = 0u64;
    for _ in 0..60 {
        max_queued = max_queued.max(stats.bytes_queued.load(Ordering::Relaxed));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        max_queued <= (OUTBOUND_HWM + MSG + frame::HEADER_LEN) as u64,
        "outbound queue exceeded the high-water mark: {max_queued} bytes"
    );
    assert!(
        !sender.is_finished(),
        "sender must be throttled while the peer reads nothing"
    );

    // Now drain: every message arrives, in order, intact.
    for i in 0..N_MSGS as u32 {
        let f = frame::read_frame(&mut peer).unwrap();
        let header = frame::check(&f).unwrap();
        assert_eq!((header.kind, header.tag), (Kind::Raw, Tag(i)));
        assert_eq!(f.len(), frame::HEADER_LEN + MSG);
        assert!(f[frame::HEADER_LEN..].iter().all(|b| *b == 0xAB));
    }
    let (master, took) = sender.join().unwrap();
    assert_eq!(master.stats().sent_msgs, N_MSGS as u64);
    assert_eq!(stats.frames_sent.load(Ordering::Relaxed), N_MSGS as u64);
    // The sender writes on its own thread, but a peer that reads nothing
    // holds a send below the mark for one write bound at most (plus the
    // kernel's tick rounding and scheduling slack), never until it reads.
    let below_mark: Vec<Duration> = took
        .iter()
        .filter(|(queued, _)| queued + MSG + frame::HEADER_LEN <= OUTBOUND_HWM)
        .map(|&(_, t)| t)
        .collect();
    assert!(below_mark.len() >= OUTBOUND_HWM / MSG - 1, "{took:?}");
    let slowest = below_mark.iter().max().unwrap();
    assert!(
        *slowest < WRITE_BOUND + Duration::from_millis(100),
        "{took:?}"
    );
}

/// A master that speaks the handshake by hand, and the slave endpoint
/// that dialed it as rank 1.
fn raw_master(name: &str) -> (UnixStream, easyhps_net::Endpoint, easyhps_net::SocketInfo) {
    let path = std::env::temp_dir().join(format!("easyhps-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let addr = NetAddr::Uds(path.clone());
    let dial = std::thread::spawn(move || connect(&addr, Some(1), SocketConfig::default(), None));
    let (mut master, _) = listener.accept().unwrap();
    frame::recv_hello(&mut master, frame::RANK_MAGIC).unwrap();
    let mut welcome = frame::hello(frame::RANK_MAGIC);
    welcome.put_u32(1).put_u32(2).put_u64(0); // rank 1 of 2, epoch 0
    frame::send_hello(&mut master, welcome).unwrap();
    let (slave, sinfo) = dial.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
    (master, slave, sinfo)
}

/// A slave reads its link on its own thread, with the caller's wait as
/// the read timeout. A timeout that fires mid-frame keeps the bytes read
/// so far: the frame and the one behind it arrive intact and in order,
/// and nothing is counted as rejected.
#[test]
fn a_read_timeout_mid_frame_resumes_where_it_stopped() {
    let (mut master, mut slave, sinfo) = raw_master("midframe");
    let first = frame::seal(Kind::Raw, Tag(1), 0, &[0x11; 100]);
    let second = frame::seal(Kind::Raw, Tag(2), 0, b"second");
    master.write_all(&first[..10]).unwrap();
    let waited = Instant::now();
    let err = slave.recv_timeout(Duration::from_millis(50)).unwrap_err();
    assert_eq!(err, NetError::Timeout);
    assert!(waited.elapsed() >= Duration::from_millis(50));
    master.write_all(&first[10..]).unwrap();
    master.write_all(&second).unwrap();
    let env = slave.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(
        (env.src, env.tag, &env.payload[..]),
        (Rank(0), Tag(1), &[0x11; 100][..])
    );
    let env = slave.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!((env.tag, &env.payload[..]), (Tag(2), &b"second"[..]));
    let link = sinfo.link(Rank(0)).unwrap().snapshot();
    assert_eq!((link.frames_recv, link.frames_rejected), (2, 0));
    // The slave writes on its own thread too: a blocking write, read here.
    slave
        .send(Rank(0), Tag(3), Bytes::from_static(b"up"))
        .unwrap();
    let f = frame::read_frame(&mut master).unwrap();
    assert_eq!(frame::check(&f).unwrap().tag, Tag(3));
}

/// Fleet slaves fork their endpoint per job; a fork shares the stream
/// and the partial frame its parent started reading.
#[test]
fn a_fork_finishes_the_frame_its_parent_started() {
    let (mut master, mut parent, _sinfo) = raw_master("forkframe");
    let sealed = frame::seal(Kind::Raw, Tag(7), 0, b"a job spec");
    master.write_all(&sealed[..10]).unwrap();
    assert_eq!(
        parent.recv_timeout(Duration::from_millis(30)).unwrap_err(),
        NetError::Timeout
    );
    let mut fork = parent.fork(None);
    master.write_all(&sealed[10..]).unwrap();
    let env = fork.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!((env.tag, &env.payload[..]), (Tag(7), &b"a job spec"[..]));
    // The master hanging up ends the link for both.
    drop(master);
    assert_eq!(
        fork.recv_timeout(Duration::from_secs(10)).unwrap_err(),
        NetError::Disconnected
    );
    assert_eq!(
        parent.recv_timeout(Duration::from_secs(10)).unwrap_err(),
        NetError::Disconnected
    );
}

/// An over-limit *length prefix* on a raw socket is rejected before any
/// body is read: the peer sends four bytes and nothing else, and the
/// link must count the rejection and go down — not wait for 64 MiB.
#[test]
fn over_limit_length_prefix_kills_the_link_without_reading_a_body() {
    let (mut peer, mut master, minfo) = raw_peer(uds_listener("overlimit"));
    peer.write_all(&(frame::MAX_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    let stats = minfo.link(Rank(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match master.send(Rank(1), Tag(0), Bytes::new()) {
            Err(NetError::Disconnected) => break,
            Ok(()) => {
                assert!(Instant::now() < deadline, "link must go down");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert_eq!(stats.snapshot().frames_rejected, 1);
    assert_eq!(stats.snapshot().frames_recv, 0);
    // The peer sees the master hang up rather than a parked connection.
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(
        peer.read_to_end(&mut Vec::new()).is_ok(),
        "EOF, not a read timeout"
    );
}

/// Rank-assignment sanity over TCP: wildcard requests get the free ranks.
#[test]
fn wildcard_rank_requests_fill_free_slots() {
    let listener = SocketListener::bind(
        &NetAddr::parse("127.0.0.1:0").unwrap(),
        SocketConfig::default(),
    )
    .unwrap();
    let addr = listener.local_addr();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                connect(&addr, Some(ANY_RANK), SocketConfig::default(), None).unwrap()
            })
        })
        .collect();
    let (_master, minfo) = listener.accept_ranks(3, None).unwrap();
    let mut ranks: Vec<u32> = handles
        .into_iter()
        .map(|h| h.join().unwrap().0.rank().0)
        .collect();
    ranks.sort_unstable();
    assert_eq!(ranks, vec![1, 2, 3]);
    assert_eq!(minfo.links.len(), 3);
}

/// `Envelope::wire_size()` is the bytes a frame really occupies, so on a
/// clean TCP run the endpoint's `NetStats` and the socket's `LinkStats`
/// count the same bytes — and the same as an in-process pair would.
#[test]
fn endpoint_and_link_byte_counters_agree() {
    let listener = SocketListener::bind(
        &NetAddr::parse("127.0.0.1:0").unwrap(),
        SocketConfig::default(),
    )
    .unwrap();
    let addr = listener.local_addr();
    let dial = std::thread::spawn(move || connect(&addr, Some(1), SocketConfig::default(), None));
    let (mut master, minfo) = listener.accept_ranks(1, None).unwrap();
    let (mut slave, sinfo) = dial.join().unwrap().unwrap();
    let mut inproc = Network::new(2);

    let sizes = [0usize, 1, 64, 4096, 70_000];
    let mut wire = 0u64;
    for (i, n) in sizes.iter().enumerate() {
        let payload = Bytes::from(vec![i as u8; *n]);
        master
            .send(Rank(1), Tag(i as u32), payload.clone())
            .unwrap();
        inproc[0].send(Rank(1), Tag(i as u32), payload).unwrap();
        let env = slave.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.payload.len(), *n);
        assert_eq!(env.wire_size(), (frame::HEADER_LEN + n) as u64);
        wire += env.wire_size();
        assert_eq!(inproc[1].recv().unwrap().wire_size(), env.wire_size());
    }
    assert_eq!(master.stats().sent_bytes, wire);
    assert_eq!(slave.stats().recv_bytes, wire);
    assert_eq!(inproc[0].stats().sent_bytes, wire);
    assert_eq!(inproc[1].stats().recv_bytes, wire);
    assert_eq!(sinfo.link(Rank(0)).unwrap().snapshot().bytes_recv, wire);
    // The writer thread counts after the write returns; the slave having
    // received everything means every write has happened, so at most the
    // last increment is still in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    let link = minfo.link(Rank(1)).unwrap();
    while link.snapshot().bytes_sent != wire {
        assert!(Instant::now() < deadline, "{:?}", link.snapshot());
        std::thread::sleep(Duration::from_millis(1));
    }
}
