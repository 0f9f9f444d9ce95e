//! Message envelopes and addressing.

use bytes::Bytes;
use std::fmt;

/// A process rank in the virtual cluster, MPI-style. Rank 0 is the master
/// by convention of the runtime crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Rank(pub u32);

impl Rank {
    /// The rank as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Message tag distinguishing protocol message kinds, MPI-style.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tag(pub u32);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// One received message: who sent it, to whom, under which tag, and its
/// payload (a zero-copy slice of the frame it arrived in).
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Protocol tag.
    pub tag: Tag,
    /// Payload bytes (cheaply clonable).
    pub payload: Bytes,
}

impl Envelope {
    /// Bytes this message occupied on the wire: the payload plus the
    /// frame header ([`HEADER_LEN`](crate::frame::HEADER_LEN)).
    pub fn wire_size(&self) -> u64 {
        (crate::frame::HEADER_LEN + self.payload.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_header() {
        let e = Envelope {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag(3),
            payload: Bytes::from_static(b"12345"),
        };
        assert_eq!(e.wire_size(), 26);
        let sealed = crate::frame::seal(crate::frame::Kind::Raw, e.tag, 0, &e.payload);
        assert_eq!(e.wire_size(), sealed.len() as u64);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rank(3).to_string(), "rank3");
        assert_eq!(Tag(7).to_string(), "tag7");
    }
}
