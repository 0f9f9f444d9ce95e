//! A small, explicit binary wire format.
//!
//! No serde format crate is available offline, so messages are encoded by
//! hand: little-endian fixed-width integers, length-prefixed byte strings.
//! The format is self-contained and versioned per message by its tag.
//! A [`WireWriter`] reserves the frame header in front of what it encodes,
//! so its buffer is the frame; [`WireReader::get_bytes`] borrows.

use crate::frame::HEADER_LEN;
use bytes::{Buf, Bytes};
use std::fmt;

/// Error produced when decoding malformed bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading when bytes ran short.
    pub context: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated or malformed wire data while reading {}",
            self.context
        )
    }
}

impl std::error::Error for WireError {}

/// A decode failure on bytes that came off a stream is invalid data.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Encoder appending typed values to a growable buffer.
#[derive(Debug)]
pub struct WireWriter {
    /// `HEADER_LEN` reserved bytes, then the encoded payload.
    buf: Vec<u8>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with room for `cap` payload bytes.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + cap);
        buf.resize(HEADER_LEN, 0);
        Self { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64` (little-endian).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_bytes_with(|out| out.extend_from_slice(v))
    }

    /// Append a length-prefixed byte string that `fill` appends to the
    /// buffer itself — an encoder writing straight into the frame.
    pub fn put_bytes_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        let at = self.buf.len();
        self.put_u32(0);
        fill(&mut self.buf);
        let len = u32::try_from(self.buf.len() - at - 4).expect("a byte string under 4 GiB");
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self
    }

    /// Finish, yielding the immutable encoded buffer (no copy).
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf).slice(HEADER_LEN..)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decoder consuming typed values from a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn need(&self, n: usize, context: &'static str) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError { context })
        } else {
            Ok(())
        }
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.need(8, "i64")?;
        Ok(self.buf.get_i64_le())
    }

    /// Read a length-prefixed byte string (a slice, not a copy).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes body")?;
        let (out, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Error unless the reader is fully consumed (trailing garbage check).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError {
                context: "end of message (trailing bytes)",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_i64(-42)
            .put_bytes(b"hello");
        let bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = WireWriter::new();
        w.put_u32(5);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_u64().is_err());
        // Byte-string header promising more data than present:
        let mut r = WireReader::new(&bytes); // says "5 bytes follow", none do
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.put_u8(1).put_u8(2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
        r.get_u8().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn empty_byte_string() {
        let mut w = WireWriter::new();
        w.put_bytes(b"");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"");
        r.expect_end().unwrap();
    }

    /// The writer's buffer is the frame: finishing copies nothing, an
    /// in-place byte string lands length-prefixed, and reading it back
    /// borrows from the encoded buffer.
    #[test]
    fn bytes_are_written_and_read_in_place() {
        let mut w = WireWriter::with_capacity(16);
        w.put_u8(1)
            .put_bytes_with(|out| out.extend_from_slice(b"cells"));
        assert_eq!(w.len(), 10);
        let bytes = w.finish();
        assert_eq!(&bytes[..], b"\x01\x05\x00\x00\x00cells");
        let mut r = WireReader::new(&bytes);
        r.get_u8().unwrap();
        let cells = r.get_bytes().unwrap();
        assert_eq!(cells, b"cells");
        assert_eq!(cells.as_ptr(), bytes[5..].as_ptr(), "a view, not a copy");
        let (vec, range) = bytes.try_into_vec().unwrap();
        assert_eq!(range, HEADER_LEN..vec.len(), "header room in front");
    }
}
