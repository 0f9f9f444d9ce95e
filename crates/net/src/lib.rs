//! # easyhps-net — virtual-MPI transport (channels or sockets)
//!
//! The EasyHPS paper deploys its master/slave runtime over MPICH on a
//! cluster. This crate provides the equivalent substrate: a star of
//! *ranks* around rank 0, exchanging tagged, ordered messages —
//! over in-process channels by default, or over real TCP / Unix-domain
//! sockets ([`socket`]) when master and slaves run as separate OS
//! processes — plus deterministic fault injection (message drops, rank
//! death).
//!
//! The layers, bottom up, each in one file:
//!
//! - [`stream`]: a TCP-or-Unix byte stream, its listener, and the one
//!   dial-with-backoff loop;
//! - [`frame`]: the one wire format — header, CRC seal/check, bounded
//!   frame read/write, handshake hello — used by rank links and the
//!   serve daemon's client protocol alike;
//! - [`socket`]: a rank link over a stream (a slave reads and writes it
//!   on its own thread; a master writes on the sender's thread, with a
//!   reader thread and a writer thread for what a bounded write leaves
//!   queued), and the acceptor that admits slaves into a fleet;
//! - [`membership`]: which slave holds which rank — one table, one rank
//!   rule, no I/O — for the acceptor and the runtime's fleet alike;
//! - [`Endpoint`]: seals every send into a frame, applies the
//!   [`FaultPlan`], verifies every receive — identical over channels and
//!   sockets;
//! - [`ReliableEndpoint`]: sequence numbers, acks, retransmission and
//!   dedup on top of an endpoint.
//!
//! ```
//! use easyhps_net::{Network, Rank, Tag, WireWriter, WireReader};
//!
//! let mut eps = Network::new(2);
//! let mut worker = eps.pop().unwrap();
//! let mut master = eps.pop().unwrap();
//!
//! let mut w = WireWriter::new();
//! w.put_u32(7).put_bytes(b"task data");
//! master.send(Rank(1), Tag(1), w.finish()).unwrap();
//!
//! let env = worker.recv().unwrap();
//! let mut r = WireReader::new(&env.payload);
//! assert_eq!(r.get_u32().unwrap(), 7);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod crc;
mod fault;
pub mod frame;
pub mod membership;
mod message;
mod reliable;
pub mod socket;
pub mod stream;
mod transport;
mod wire;

pub use crc::crc32c;
pub use fault::{FaultPlan, LinkSever};
pub use membership::{Membership, MembershipEvent, Seat};
pub use message::{Envelope, Rank, Tag};
pub use reliable::{
    FailReason, PeerReliStats, ReliStats, ReliableEndpoint, RetryPolicy, SendFailure,
};
pub use socket::{
    FleetAcceptor, LinkSnapshot, LinkStats, SocketConfig, SocketInfo, SocketListener,
};
pub use stream::NetAddr;
pub use transport::{Endpoint, KillHandle, NetError, NetStats, Network};
pub use wire::{WireError, WireReader, WireWriter};
