//! The master/slave wire protocol.
//!
//! Six message kinds, mirroring the paper's workflow (§III): slaves
//! announce idleness, the master assigns registered sub-tasks with the
//! input strips the slave lacks, slaves reply with computed regions, and the master ends
//! the run with a shutdown signal that slaves answer with their stats.
//! Heartbeats ride alongside so the master can tell a slow slave from a
//! dead one.
//!
//! Control messages (IDLE/ASSIGN/DONE/END/STATS) travel over
//! [`easyhps_net::ReliableEndpoint`]: where the sender could lose the
//! frame — it carries a fault plan — they are acknowledged,
//! retransmitted and deduplicated, so a lossy network delays but does not
//! lose them; elsewhere each is one RAW frame. HEARTBEAT is fire-and-forget everywhere.
//!
//! Cells cross in one buffer each way. The sender encodes them straight
//! into the frame ([`AssignMsg::encode_with`], [`DoneMsg::encode_with`]:
//! the matrix is read once, into the buffer the endpoint seals), and a
//! decoded ASSIGN or DONE borrows its cells from the received payload,
//! which the receiver's matrix decodes in place.

use bytes::Bytes;
use easyhps_core::{GridPos, TileRegion};
use easyhps_net::{WireError, WireReader, WireWriter};

/// Protocol tags.
pub mod tags {
    use easyhps_net::Tag;

    /// Slave -> master: "I am idle" (sent once at startup and implied by
    /// every DONE).
    pub const IDLE: Tag = Tag(1);
    /// Master -> slave: sub-task assignment with input strips.
    pub const ASSIGN: Tag = Tag(2);
    /// Slave -> master: computed sub-task region.
    pub const DONE: Tag = Tag(3);
    /// Master -> slave: end the job. Only the master's teardown sends it.
    pub const END: Tag = Tag(4);
    /// Slave -> master: final execution stats (reply to END).
    pub const STATS: Tag = Tag(5);
    /// Slave -> master: "I am alive" (sent unreliably at
    /// `heartbeat_interval` while a job runs, including from inside a
    /// long tile computation; a lost one is superseded by the next).
    /// Master -> slave: a probe of an excluded slave's link — the send
    /// failing is the point; the slave ignores it.
    pub const HEARTBEAT: Tag = Tag(6);
    /// Master -> slave: serialized job description (problem, partitions,
    /// deployment knobs) sent once right after the socket handshake so a
    /// remote slave can reconstruct the run. A multi-job fleet slave
    /// receives one per job.
    pub const JOB: Tag = Tag(7);
    /// Master -> slave: the fleet is done with this slave; exit the job
    /// loop. Distinct from END, which finishes one job — SHUTDOWN ends
    /// the slave's whole service loop, and a job it arrives in; a slave
    /// process that may rejoin would redial a link that merely closed.
    pub const SHUTDOWN: Tag = Tag(8);
}

fn put_region(w: &mut WireWriter, r: TileRegion) {
    w.put_u32(r.row_start)
        .put_u32(r.row_end)
        .put_u32(r.col_start)
        .put_u32(r.col_end);
}

fn get_region(r: &mut WireReader<'_>) -> Result<TileRegion, WireError> {
    Ok(TileRegion::new(
        r.get_u32()?,
        r.get_u32()?,
        r.get_u32()?,
        r.get_u32()?,
    ))
}

/// Master -> slave sub-task assignment; its input cells borrow from the
/// payload it was decoded from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignMsg<'a> {
    /// Dense id of the master-DAG vertex.
    pub task: u32,
    /// Fleet epoch the assignment was issued under. The slave echoes it
    /// verbatim into the corresponding [`DoneMsg`], letting the master
    /// fence completions computed by a since-replaced incarnation. Always
    /// 0 for in-process runs (no fleet, no epochs).
    pub epoch: u64,
    /// Tile position of the vertex in the abstract DAG.
    pub tile: GridPos,
    /// Cell region the slave must compute.
    pub region: TileRegion,
    /// Input strips: `(region, encoded cells)` for every data dependency
    /// the slave's node matrix lacks. The master sends none that its
    /// residency record says the slave already holds.
    pub inputs: Vec<(TileRegion, &'a [u8])>,
}

impl<'a> AssignMsg<'a> {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let strips: Vec<_> = self.inputs.iter().map(|&(r, b)| (r, b.len())).collect();
        self.encode_with(&strips, |i, out| out.extend_from_slice(self.inputs[i].1))
    }

    /// Encode with the input strips `(region, cell bytes)` that `cells`
    /// appends, by index, straight into the frame — the master's path,
    /// which reads each cell once. `self.inputs` is not read.
    pub fn encode_with(
        &self,
        strips: &[(TileRegion, usize)],
        mut cells: impl FnMut(usize, &mut Vec<u8>),
    ) -> Bytes {
        let body: usize = strips.iter().map(|(_, n)| n + 20).sum();
        let mut w = WireWriter::with_capacity(40 + body);
        w.put_u32(self.task)
            .put_u64(self.epoch)
            .put_u32(self.tile.row)
            .put_u32(self.tile.col);
        put_region(&mut w, self.region);
        w.put_u32(strips.len() as u32);
        for (i, &(region, _)) in strips.iter().enumerate() {
            put_region(&mut w, region);
            w.put_bytes_with(|out| cells(i, out));
        }
        w.finish()
    }

    /// Decode from payload bytes, borrowing the input cells from them.
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let task = r.get_u32()?;
        let epoch = r.get_u64()?;
        let tile = GridPos::new(r.get_u32()?, r.get_u32()?);
        let region = get_region(&mut r)?;
        let n = r.get_u32()?;
        // Every input takes at least 20 bytes (region + length prefix);
        // a count the remaining bytes cannot hold is corrupt, and must be
        // rejected *before* the allocation it sizes.
        if n as u64 * 20 > r.remaining() as u64 {
            return Err(WireError {
                context: "assign input count exceeds buffer",
            });
        }
        let mut inputs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let reg = get_region(&mut r)?;
            let bytes = r.get_bytes()?;
            inputs.push((reg, bytes));
        }
        r.expect_end()?;
        Ok(Self {
            task,
            epoch,
            tile,
            region,
            inputs,
        })
    }
}

/// Slave -> master completed sub-task; its cells borrow from the payload
/// it was decoded from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneMsg<'a> {
    /// Dense id of the completed master-DAG vertex.
    pub task: u32,
    /// The epoch of the ASSIGN this completion answers, echoed blindly —
    /// a slave needs no epoch knowledge of its own. The master rejects a
    /// DONE whose echoed epoch is older than the rank's current one.
    pub epoch: u64,
    /// The computed region.
    pub region: TileRegion,
    /// Encoded cells of the region.
    pub output: &'a [u8],
}

impl<'a> DoneMsg<'a> {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        self.encode_with(self.output.len(), |out| out.extend_from_slice(self.output))
    }

    /// Encode with the `len` cell bytes that `cells` appends straight into
    /// the frame — the slave's path, which reads each cell once.
    /// `self.output` is not read.
    pub fn encode_with(&self, len: usize, cells: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut w = WireWriter::with_capacity(32 + len);
        w.put_u32(self.task).put_u64(self.epoch);
        put_region(&mut w, self.region);
        w.put_bytes_with(cells);
        w.finish()
    }

    /// Decode from payload bytes, borrowing the cells from them.
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let task = r.get_u32()?;
        let epoch = r.get_u64()?;
        let region = get_region(&mut r)?;
        let output = r.get_bytes()?;
        r.expect_end()?;
        Ok(Self {
            task,
            epoch,
            region,
            output,
        })
    }
}

/// Slave -> master final statistics (reply to END).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlaveStatsMsg {
    /// Master-level sub-tasks completed by this slave.
    pub tasks_done: u64,
    /// Thread-level sub-sub-tasks completed.
    pub subtasks_done: u64,
    /// Nanoseconds spent computing (sum over computing threads).
    pub busy_ns: u64,
    /// Thread-level failures recovered (panics caught and re-run).
    pub thread_failures: u64,
    /// Computing threads spawned over the slave's lifetime. With the
    /// persistent pool this equals the configured thread count, however
    /// many tiles the slave executed.
    pub threads_spawned: u64,
}

impl SlaveStatsMsg {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(40);
        w.put_u64(self.tasks_done)
            .put_u64(self.subtasks_done)
            .put_u64(self.busy_ns)
            .put_u64(self.thread_failures)
            .put_u64(self.threads_spawned);
        w.finish()
    }

    /// Decode from payload bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let out = Self {
            tasks_done: r.get_u64()?,
            subtasks_done: r.get_u64()?,
            busy_ns: r.get_u64()?,
            thread_failures: r.get_u64()?,
            threads_spawned: r.get_u64()?,
        };
        r.expect_end()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_roundtrip() {
        let msg = AssignMsg {
            task: 7,
            epoch: 3,
            tile: GridPos::new(1, 2),
            region: TileRegion::new(10, 20, 30, 40),
            inputs: vec![
                (TileRegion::new(0, 10, 30, 40), &[1, 2, 3, 4][..]),
                (TileRegion::new(10, 20, 0, 30), &[]),
            ],
        };
        assert_eq!(AssignMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn done_roundtrip() {
        let cells: Vec<u8> = (0..80).collect();
        let msg = DoneMsg {
            task: 3,
            epoch: u64::MAX / 7,
            region: TileRegion::new(0, 5, 5, 9),
            output: &cells,
        };
        assert_eq!(DoneMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// The encoder writes into the frame the endpoint seals and the
    /// decoder reads in place: over an in-process endpoint an ASSIGN's
    /// cells arrive where the sender wrote them, and the bytes are those
    /// of the copying encoder.
    #[test]
    fn assign_cells_cross_in_the_buffer_they_were_encoded_into() {
        use easyhps_net::{Network, Rank};
        let cells = [7u8; 64];
        let msg = AssignMsg {
            task: 1,
            epoch: 0,
            tile: GridPos::new(0, 1),
            region: TileRegion::new(0, 4, 4, 8),
            inputs: vec![(TileRegion::new(0, 4, 0, 4), &cells[..])],
        };
        let strips = [(msg.inputs[0].0, cells.len())];
        let payload = msg.encode_with(&strips, |_, out| out.extend_from_slice(&cells));
        assert_eq!(payload, msg.encode());
        let cells_at = payload[payload.len() - cells.len()..].as_ptr();
        let mut eps = Network::new(2);
        let mut slave = eps.pop().unwrap();
        eps[0].send(Rank(1), tags::ASSIGN, payload).unwrap();
        let env = slave.recv().unwrap();
        let got = AssignMsg::decode(&env.payload).unwrap();
        assert_eq!(got, msg);
        assert_eq!(got.inputs[0].1.as_ptr(), cells_at, "no copy on the way");
    }

    #[test]
    fn stats_roundtrip() {
        let msg = SlaveStatsMsg {
            tasks_done: 10,
            subtasks_done: 400,
            busy_ns: u64::MAX / 3,
            thread_failures: 2,
            threads_spawned: 4,
        };
        assert_eq!(SlaveStatsMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AssignMsg::decode(&[1, 2, 3]).is_err());
        assert!(DoneMsg::decode(&[]).is_err());
        let msg = DoneMsg {
            task: 0,
            epoch: 0,
            region: TileRegion::new(0, 1, 0, 1),
            output: &[9],
        };
        let mut bytes = msg.encode().to_vec();
        bytes.push(0xFF); // trailing garbage
        assert!(DoneMsg::decode(&bytes).is_err());
    }
}
