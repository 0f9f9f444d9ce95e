//! A small, explicit binary wire format.
//!
//! No serde format crate is available offline, so messages are encoded by
//! hand: little-endian fixed-width integers, length-prefixed byte strings.
//! The format is self-contained and versioned per message by its tag.

use bytes::{Buf, BufMut, Bytes, BytesMut};
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
#[derive(Default, Debug)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append an `i64` (little-endian).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.put_i64_le(v);
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Finish, yielding the immutable encoded buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes body")?;
        let out = self.buf[..len].to_vec();
        self.buf.advance(len);
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
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        r.expect_end().unwrap();
    }
}
