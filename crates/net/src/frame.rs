//! The wire format: the only code that knows what bytes sit on a stream.
//!
//! Every message between two easyhps processes — rank-to-rank traffic,
//! the reliable layer's DATA and ACK frames, both handshakes and the
//! serve daemon's client protocol — is one *frame*:
//!
//! ```text
//! offset 0         4           8      9         13        21
//!        | len u32 | crc32c u32 | kind | tag u32 | seq u64 | payload … |
//! ```
//!
//! All integers are little-endian. `len` counts everything after itself
//! and is bounded by [`MAX_FRAME`]; `crc32c` covers everything after
//! *it*self (kind, tag, seq, payload). `tag` is the protocol tag of the
//! message, `seq` the reliable layer's sequence number (zero for kinds
//! that have none). Sender and receiver ranks are not on the wire: a
//! connection, not a header field, says who is talking.
//!
//! [`seal`] is the one writer of a header and [`check`] the one reader:
//! the checksum is verified *before* any field is interpreted, so a
//! corrupted or truncated frame is a clean [`FrameError`], never a
//! mis-parse. [`write_frame`] / [`read_frame`] move whole sealed frames
//! over a byte stream; [`read_frame`] bounds the length prefix before it
//! allocates. The same sealed buffer travels in-process (over a channel)
//! and across processes (over a socket), so fault injection, statistics
//! and the reliable layer see identical bytes on every transport.
//! A [`WireWriter`] payload is sealed in its own buffer, and a reader
//! reads each frame into one buffer: one buffer per crossing.

use crate::crc::crc32c;
use crate::message::Tag;
use crate::wire::{WireReader, WireWriter};
use bytes::Bytes;
use std::io::{self, Read, Write};

/// Bytes of header in front of every payload.
pub const HEADER_LEN: usize = 21;
/// Upper bound on a frame's `len` field — a defence against a
/// desynchronised or hostile stream, not a protocol limit.
pub const MAX_FRAME: usize = 64 << 20;
/// Stream protocol version carried in every hello; bumped on any
/// incompatible change to the header, a handshake or a message codec.
/// Master, slave, daemon and client ship in one binary, so there is no
/// cross-version compatibility.
pub const VERSION: u8 = 5;
/// Hello magic of the rank protocol (master ↔ slave): `"EHPS"`.
pub const RANK_MAGIC: u32 = u32::from_le_bytes(*b"EHPS");
/// Hello magic of the serve daemon's client protocol: `"EHPC"`.
pub const CLIENT_MAGIC: u32 = u32::from_le_bytes(*b"EHPC");

pub(crate) const LEN_LEN: usize = 4;
const CRC_END: usize = 8;
const TAG_AT: usize = CRC_END + 1;
const SEQ_AT: usize = TAG_AT + 4;

/// What a frame is, from the kind byte of its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Unsequenced application message (never retransmitted).
    Raw = 0,
    /// Sequenced, acknowledged application message.
    Data = 1,
    /// Acknowledgement of the DATA frame carrying the same `seq`.
    Ack = 2,
    /// First frame on a connection: magic, version, handshake fields.
    Hello = 3,
}

/// The verified header of a frame. The payload is the rest of the
/// buffer, from [`HEADER_LEN`] on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Frame kind.
    pub kind: Kind,
    /// Protocol tag of the message.
    pub tag: Tag,
    /// Reliable-layer sequence number; zero for RAW and HELLO.
    pub seq: u64,
}

/// Why a buffer was rejected as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header.
    Truncated,
    /// The CRC-32C in the header does not match the frame contents.
    Corrupt,
    /// CRC valid but the kind byte is not one this version knows.
    UnknownKind,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Corrupt => write!(f, "frame checksum mismatch"),
            FrameError::UnknownKind => write!(f, "unknown frame kind"),
        }
    }
}

impl std::error::Error for FrameError {}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Build one sealed frame around `payload`: reserve the header, copy the
/// payload once, then fill the header in place. The result is what
/// [`write_frame`] puts on a stream, byte for byte.
pub fn seal(kind: Kind, tag: Tag, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.resize(HEADER_LEN, 0);
    buf.extend_from_slice(payload);
    fill_header(buf, kind, tag, seq)
}

/// [`seal`] without the copy when `payload` alone owns the buffer a
/// [`WireWriter`] encoded it in, header room included.
pub(crate) fn seal_payload(kind: Kind, tag: Tag, seq: u64, payload: Bytes) -> Bytes {
    match payload.try_into_vec() {
        Ok((buf, range)) if range.start == HEADER_LEN && range.end == buf.len() => {
            fill_header(buf, kind, tag, seq)
        }
        Ok((buf, range)) => seal(kind, tag, seq, &buf[range]),
        Err(payload) => seal(kind, tag, seq, &payload),
    }
}

/// Fill the header room in front of `buf`'s payload; the checksum last.
fn fill_header(mut buf: Vec<u8>, kind: Kind, tag: Tag, seq: u64) -> Bytes {
    let len = u32::try_from(buf.len() - LEN_LEN).expect("a single message stays under 4 GiB");
    buf[..LEN_LEN].copy_from_slice(&len.to_le_bytes());
    buf[CRC_END] = kind as u8;
    buf[TAG_AT..SEQ_AT].copy_from_slice(&tag.0.to_le_bytes());
    buf[SEQ_AT..HEADER_LEN].copy_from_slice(&seq.to_le_bytes());
    let crc = crc32c(&buf[CRC_END..]);
    buf[LEN_LEN..CRC_END].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(buf)
}

/// A sealed DATA frame with tag 0 — the reliable layer's seal cost in
/// isolation, for the benchmark's `net.frame_seal_ns` probe.
pub fn seal_data(seq: u64, payload: &[u8]) -> Bytes {
    seal(Kind::Data, Tag(0), seq, payload)
}

/// Verify a sealed frame and parse its header. The CRC is checked before
/// any field is interpreted; on any error the buffer must be discarded.
pub fn check(frame: &[u8]) -> Result<Header, FrameError> {
    if frame.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let stored = u32::from_le_bytes(frame[LEN_LEN..CRC_END].try_into().expect("4 bytes"));
    if crc32c(&frame[CRC_END..]) != stored {
        return Err(FrameError::Corrupt);
    }
    let kind = match frame[CRC_END] {
        0 => Kind::Raw,
        1 => Kind::Data,
        2 => Kind::Ack,
        3 => Kind::Hello,
        _ => return Err(FrameError::UnknownKind),
    };
    Ok(Header {
        kind,
        tag: tag_of(frame),
        seq: u64::from_le_bytes(frame[SEQ_AT..HEADER_LEN].try_into().expect("8 bytes")),
    })
}

/// The tag field of a frame at least a header long. Unverified: only for
/// frames this process sealed itself (fault injection keys on the tag
/// [`seal`] wrote), never for received bytes — those go through [`check`].
pub(crate) fn tag_of(frame: &[u8]) -> Tag {
    Tag(u32::from_le_bytes(
        frame[TAG_AT..SEQ_AT].try_into().expect("4 bytes"),
    ))
}

/// Whether a sealed frame's `len` field exceeds [`MAX_FRAME`] — a peer
/// would refuse to read it.
pub(crate) fn oversized(frame: &[u8]) -> bool {
    frame.len().saturating_sub(LEN_LEN) > MAX_FRAME
}

/// Write one sealed frame to a stream and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if oversized(frame) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the frame bound", frame.len()),
        ));
    }
    w.write_all(frame)?;
    w.flush()
}

/// Read one sealed frame (header included) from a stream. The length
/// prefix is bounded *before* the body is allocated or read; an
/// out-of-range length is `InvalidData` and means the frame boundary is
/// lost — the stream must be abandoned. The checksum is not verified
/// here: pass the result to [`check`].
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> io::Result<Bytes> {
    read_frame_into(r, &mut Vec::new())
}

/// [`read_frame`], resumable after a read timeout: `partial` keeps what
/// was read of the frame. Bytes land in its spare capacity, not zeroed
/// first where `r` allows it ([`crate::stream::Stream::reader`]).
pub(crate) fn read_frame_into<R: Read + ?Sized>(
    r: &mut R,
    partial: &mut Vec<u8>,
) -> io::Result<Bytes> {
    fill(r, partial, LEN_LEN)?;
    let len = u32::from_le_bytes(partial[..LEN_LEN].try_into().expect("4 bytes")) as usize;
    if !(HEADER_LEN - LEN_LEN..=MAX_FRAME).contains(&len) {
        return Err(invalid(format!("frame length {len} out of range")));
    }
    partial.reserve_exact(LEN_LEN + len - partial.len());
    fill(r, partial, LEN_LEN + len)?;
    Ok(Bytes::from(std::mem::take(partial)))
}

/// Read until `buf` holds `want` bytes; EOF first is an error.
fn fill<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>, want: usize) -> io::Result<()> {
    while buf.len() < want {
        // `read_to_end` keeps what it read before an error.
        let more = (want - buf.len()) as u64;
        if Read::take(&mut *r, more).read_to_end(buf)? == 0 {
            let eof = io::ErrorKind::UnexpectedEof;
            return Err(io::Error::new(eof, "peer closed the connection"));
        }
    }
    Ok(())
}

/// Read one frame, verify it, and require `kind`; returns the payload.
fn recv_kind(r: &mut impl Read, kind: Kind) -> io::Result<Bytes> {
    let frame = read_frame(r)?;
    match check(&frame) {
        Ok(h) if h.kind == kind => Ok(frame.slice(HEADER_LEN..)),
        Ok(h) => Err(invalid(format!(
            "expected a {kind:?} frame, peer sent {:?}",
            h.kind
        ))),
        Err(e) => Err(invalid(e.to_string())),
    }
}

/// Send `payload` as one RAW frame on a blocking request/response stream
/// (the serve client protocol).
pub fn send_msg(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(w, &seal(Kind::Raw, Tag(0), 0, payload))
}

/// Receive the payload of one RAW frame from a blocking stream. Errors
/// on EOF, an out-of-range length or a failed CRC — after any of which
/// the stream must be abandoned.
pub fn recv_msg(r: &mut impl Read) -> io::Result<Bytes> {
    recv_kind(r, Kind::Raw)
}

fn protocol_name(magic: u32) -> String {
    match magic {
        RANK_MAGIC => "the rank protocol (master/slave link)".into(),
        CLIENT_MAGIC => "the client protocol (serve daemon)".into(),
        other => format!("an unknown protocol (magic {other:#010x})"),
    }
}

/// Start a HELLO payload — `magic`, then [`VERSION`] — ready for the
/// protocol's own handshake fields.
pub fn hello(magic: u32) -> WireWriter {
    let mut w = WireWriter::new();
    w.put_u32(magic).put_u8(VERSION);
    w
}

/// Open a connection (or answer one): send a payload begun with
/// [`hello`] as one HELLO frame.
pub fn send_hello(w: &mut impl Write, hello: WireWriter) -> io::Result<()> {
    write_frame(w, &seal_payload(Kind::Hello, Tag(0), 0, hello.finish()))
}

/// Receive a HELLO and make the one magic/version check; returns the
/// handshake fields that follow them. Any mismatch is fatal for the
/// connection: the peer is not speaking this protocol.
pub fn recv_hello(r: &mut impl Read, magic: u32) -> io::Result<Bytes> {
    let payload = recv_kind(r, Kind::Hello)?;
    let mut f = WireReader::new(&payload);
    let (got, version) = (f.get_u32()?, f.get_u8()?);
    if got != magic {
        return Err(invalid(format!(
            "peer speaks {}, this end speaks {}",
            protocol_name(got),
            protocol_name(magic)
        )));
    }
    if version != VERSION {
        return Err(invalid(format!(
            "protocol version mismatch: peer {version}, ours {VERSION}"
        )));
    }
    Ok(payload.slice(5..))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header layout is the protocol: pin it byte for byte.
    #[test]
    fn golden_bytes_pin_the_header_layout() {
        let sealed = seal(Kind::Data, Tag(0x0403_0201), 0x1817_1615_1413_1211, b"hi");
        assert_eq!(HEADER_LEN, 21);
        assert_eq!(sealed.len(), HEADER_LEN + 2);
        assert_eq!(
            &sealed[..],
            &[
                19, 0, 0, 0, // len: everything after this field
                0x45, 0x9f, 0xb9, 0x82, // crc32c of everything after this field
                1,    // kind DATA
                1, 2, 3, 4, // tag
                0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // seq
                b'h', b'i',
            ][..]
        );
        assert_eq!(
            u32::from_le_bytes(sealed[4..8].try_into().unwrap()),
            crc32c(&sealed[8..])
        );
        assert_eq!(RANK_MAGIC.to_le_bytes(), *b"EHPS");
        assert_eq!(CLIENT_MAGIC.to_le_bytes(), *b"EHPC");
    }

    #[test]
    fn seal_and_check_roundtrip() {
        for kind in [Kind::Raw, Kind::Data, Kind::Ack, Kind::Hello] {
            let sealed = seal(kind, Tag(7), 42, b"payload");
            assert_eq!(
                check(&sealed),
                Ok(Header {
                    kind,
                    tag: Tag(7),
                    seq: 42
                })
            );
            assert_eq!(&sealed[HEADER_LEN..], b"payload");
        }
        assert_eq!(check(&seal_data(9, b"")).unwrap().kind, Kind::Data);
    }

    /// A writer's payload is sealed in the buffer it was encoded in — the
    /// same bytes `seal` builds by copying, with no copy.
    #[test]
    fn a_writer_payload_is_sealed_in_its_own_buffer() {
        let mut w = WireWriter::new();
        w.put_u32(7).put_bytes(b"cells");
        let payload = w.finish();
        let at = payload.as_ptr();
        let copied = seal_payload(Kind::Raw, Tag(3), 0, payload.clone());
        assert_ne!(
            copied[HEADER_LEN..].as_ptr(),
            at,
            "a shared payload is copied"
        );
        let sealed = seal_payload(Kind::Data, Tag(3), 9, payload);
        assert_eq!(sealed[HEADER_LEN..].as_ptr(), at, "sealed in place");
        assert_eq!(sealed, seal(Kind::Data, Tag(3), 9, &copied[HEADER_LEN..]));
        assert_eq!(check(&copied).unwrap().kind, Kind::Raw);
    }

    /// Hands out its bytes three at a time, timing out before each read.
    struct Stutter<'a>(&'a [u8], bool);

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// A read that times out mid-frame keeps what it read; the next call
    /// resumes there, and frames come out whole and in order.
    #[test]
    fn a_timed_out_read_resumes_mid_frame() {
        let mut wire = seal(Kind::Raw, Tag(1), 0, b"first").to_vec();
        wire.extend_from_slice(&seal(Kind::Raw, Tag(2), 0, b"second"));
        let mut r = Stutter(&wire, false);
        let (mut partial, mut got, mut timeouts) = (Vec::new(), Vec::new(), 0);
        while got.len() < 2 {
            match read_frame_into(&mut r, &mut partial) {
                Ok(f) => got.push(f),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    timeouts += 1;
                }
            }
        }
        assert!(timeouts > 10, "{timeouts} timeouts, most mid-frame");
        assert!(partial.is_empty());
        assert_eq!(check(&got[0]).unwrap().tag, Tag(1));
        assert_eq!(&got[0][HEADER_LEN..], b"first");
        assert_eq!(check(&got[1]).unwrap().tag, Tag(2));
        assert_eq!(&got[1][HEADER_LEN..], b"second");
    }

    #[test]
    fn every_single_bit_flip_past_the_length_is_caught() {
        let sealed = seal(Kind::Data, Tag(3), 1234, b"some payload bytes");
        for bit in LEN_LEN * 8..sealed.len() * 8 {
            let mut buf = sealed.to_vec();
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(check(&buf), Err(FrameError::Corrupt), "bit {bit}");
        }
    }

    #[test]
    fn unknown_kind_is_rejected_even_with_valid_crc() {
        let mut buf = seal(Kind::Raw, Tag(0), 0, b"").to_vec();
        buf[CRC_END] = 9;
        let crc = crc32c(&buf[CRC_END..]);
        buf[LEN_LEN..CRC_END].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(check(&buf), Err(FrameError::UnknownKind));
    }

    #[test]
    fn messages_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        send_msg(&mut buf, b"hello daemon").unwrap();
        send_msg(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(&recv_msg(&mut r).unwrap()[..], b"hello daemon");
        assert_eq!(&recv_msg(&mut r).unwrap()[..], b"");
        assert!(recv_msg(&mut r).is_err(), "EOF after the last message");
    }

    #[test]
    fn over_limit_length_prefix_is_rejected_before_any_body_is_read() {
        // Only the four length bytes exist: a reader that trusted them
        // would allocate 64 MiB + 1 and then block or hit EOF.
        let lenb = (MAX_FRAME as u32 + 1).to_le_bytes();
        let err = read_frame(&mut &lenb[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let short = ((HEADER_LEN - LEN_LEN) as u32 - 1).to_le_bytes();
        let err = read_frame(&mut &short[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn over_limit_frame_is_refused_before_any_byte_is_written() {
        // Never-touched zero pages: the bound looks at the length alone.
        let big = vec![0u8; LEN_LEN + MAX_FRAME + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        assert!(!oversized(&big[..LEN_LEN + MAX_FRAME]), "bound itself");
        assert!(!oversized(&[]), "shorter than the prefix: no underflow");
    }

    #[test]
    fn hello_checks_magic_and_version_once() {
        let mut buf = Vec::new();
        let mut h = hello(RANK_MAGIC);
        h.put_u32(7);
        send_hello(&mut buf, h).unwrap();
        assert_eq!(
            &recv_hello(&mut &buf[..], RANK_MAGIC).unwrap()[..],
            &7u32.to_le_bytes()
        );
        let err = recv_hello(&mut &buf[..], CLIENT_MAGIC).unwrap_err();
        assert!(
            err.to_string().contains("rank protocol") && err.to_string().contains("client"),
            "{err}"
        );
        // A wrong version inside an otherwise valid hello.
        let mut p = WireWriter::new();
        p.put_u32(RANK_MAGIC).put_u8(VERSION + 1);
        let mut stale = Vec::new();
        send_hello(&mut stale, p).unwrap();
        let err = recv_hello(&mut &stale[..], RANK_MAGIC).unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
        // A message where a hello belongs.
        let mut msg = Vec::new();
        send_msg(&mut msg, b"not a hello").unwrap();
        assert!(recv_hello(&mut &msg[..], RANK_MAGIC).is_err());
    }
}
