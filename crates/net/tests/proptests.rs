//! Property-based tests for the transport and the wire codec. (The frame
//! layer's properties live in `socket_tests.rs`, where the same cases run
//! in memory and across a real socket.)

use bytes::Bytes;
use easyhps_net::{FaultPlan, Network, Rank, Tag, WireReader, WireWriter};
use proptest::prelude::*;

/// Operations for codec round-trip testing.
#[derive(Clone, Debug)]
enum Item {
    U8(u8),
    U32(u32),
    U64(u64),
    I64(i64),
    Bytes(Vec<u8>),
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        any::<u8>().prop_map(Item::U8),
        any::<u32>().prop_map(Item::U32),
        any::<u64>().prop_map(Item::U64),
        any::<i64>().prop_map(Item::I64),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(Item::Bytes),
    ]
}

proptest! {
    /// Any sequence of typed writes reads back exactly, and the reader
    /// ends precisely at the end.
    #[test]
    fn codec_roundtrip(items in proptest::collection::vec(arb_item(), 0..50)) {
        let mut w = WireWriter::new();
        for item in &items {
            match item {
                Item::U8(v) => { w.put_u8(*v); }
                Item::U32(v) => { w.put_u32(*v); }
                Item::U64(v) => { w.put_u64(*v); }
                Item::I64(v) => { w.put_i64(*v); }
                Item::Bytes(v) => { w.put_bytes(v); }
            }
        }
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        for item in &items {
            match item {
                Item::U8(v) => prop_assert_eq!(r.get_u8().unwrap(), *v),
                Item::U32(v) => prop_assert_eq!(r.get_u32().unwrap(), *v),
                Item::U64(v) => prop_assert_eq!(r.get_u64().unwrap(), *v),
                Item::I64(v) => prop_assert_eq!(r.get_i64().unwrap(), *v),
                Item::Bytes(v) => prop_assert_eq!(&r.get_bytes().unwrap(), v),
            }
        }
        prop_assert!(r.expect_end().is_ok());
    }

    /// Truncating an encoded buffer anywhere strictly inside always makes
    /// *some* read in the sequence fail (no silent garbage).
    #[test]
    fn truncation_never_reads_clean(
        items in proptest::collection::vec(arb_item(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut w = WireWriter::new();
        for item in &items {
            match item {
                Item::U8(v) => { w.put_u8(*v); }
                Item::U32(v) => { w.put_u32(*v); }
                Item::U64(v) => { w.put_u64(*v); }
                Item::I64(v) => { w.put_i64(*v); }
                Item::Bytes(v) => { w.put_bytes(v); }
            }
        }
        let buf = w.finish();
        prop_assume!(!buf.is_empty());
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        let mut r = WireReader::new(&buf[..cut]);
        let mut failed = false;
        for item in &items {
            let ok = match item {
                Item::U8(_) => r.get_u8().is_ok(),
                Item::U32(_) => r.get_u32().is_ok(),
                Item::U64(_) => r.get_u64().is_ok(),
                Item::I64(_) => r.get_i64().is_ok(),
                Item::Bytes(_) => r.get_bytes().is_ok(),
            };
            if !ok {
                failed = true;
                break;
            }
        }
        // Either a read failed or the tail-end check catches the cut.
        prop_assert!(failed || r.expect_end().is_err() || cut == buf.len());
    }

    /// Messages between a pair arrive in order regardless of interleaving
    /// with other peers.
    #[test]
    fn per_pair_fifo_under_interleaving(
        sends in proptest::collection::vec((0u32..3, 0u32..100), 1..60),
    ) {
        // 3 senders (ranks 1..=3) -> rank 0; each sender's sequence must
        // arrive in its own order.
        let mut eps = Network::new(4);
        let mut receiver = eps.remove(0);
        let mut senders = eps;
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for (who, tag) in &sends {
            senders[*who as usize].send(Rank(0), Tag(*tag), Bytes::new()).unwrap();
            expected[*who as usize].push(*tag);
        }
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for _ in 0..sends.len() {
            let env = receiver.recv().unwrap();
            got[env.src.0 as usize - 1].push(env.tag.0);
        }
        prop_assert_eq!(got, expected);
    }

    /// A lossy endpoint delivers a deterministic subset: the received
    /// sequence is a prefix-order-preserving subsequence of what was sent.
    #[test]
    fn lossy_delivery_is_an_ordered_subsequence(
        tags in proptest::collection::vec(0u32..1000, 1..80),
        seed in 0u64..500,
    ) {
        let plans = vec![Some(FaultPlan::lossy(0.4, seed)), None];
        let mut eps = Network::with_faults(2, &plans);
        let mut rx = eps.remove(1);
        let mut tx = eps.remove(0);
        for t in &tags {
            tx.send(Rank(1), Tag(*t), Bytes::new()).unwrap();
        }
        let mut got = Vec::new();
        while let Some(env) = rx.try_recv().unwrap() {
            got.push(env.tag.0);
        }
        // Subsequence check.
        let mut it = tags.iter();
        for g in &got {
            prop_assert!(it.any(|t| t == g), "received {g} out of order or never sent");
        }
        prop_assert_eq!(got.len() as u64 + tx.stats().dropped_msgs, tags.len() as u64);
    }
}
