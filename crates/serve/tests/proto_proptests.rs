//! Property-based robustness tests for the daemon's client protocol,
//! held to the same standard as the runtime's `JobSpec`: every message
//! roundtrips exactly, every byte-length prefix of an encoding fails to
//! decode cleanly (no panic, no hostile-length allocation, no silent
//! part-read), out-of-range partition sizes never decode, and any
//! single corrupted byte of a message in transit is caught by the frame
//! layer before the decoder ever sees it.

use easyhps_core::GridDims;
use easyhps_net::frame;
use easyhps_runtime::remote::{JobSpec, RemoteProblem};
use easyhps_serve::{Admission, JobResult, JobState, Request, Response, SubmitReq};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        proptest::collection::vec(any::<u8>(), 1..24),
        proptest::collection::vec(any::<u8>(), 1..24),
        1u32..12,
        1u32..6,
    )
        .prop_map(|(a, b, pps, tps)| {
            JobSpec::new(
                RemoteProblem::EditDistance { a, b },
                GridDims::new(pps, pps),
                GridDims::new(tps.min(pps), tps.min(pps)),
            )
        })
}

fn arb_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..max)
        .prop_map(|v| String::from_utf8(v).expect("printable ascii"))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_spec(), arb_text(12), any::<bool>())
            .prop_map(|(spec, tenant, wait)| { Request::Submit(SubmitReq { tenant, wait, spec }) }),
        any::<u64>().prop_map(|job| Request::Status { job }),
        Just(Request::Stats),
        any::<u64>().prop_map(|job| Request::Cancel { job }),
        any::<u32>().prop_map(|rank| Request::Drain { rank }),
    ]
}

fn arb_result() -> impl Strategy<Value = JobResult> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(rows, cols, crc)| JobResult {
        rows,
        cols,
        crc,
    })
}

fn arb_state() -> impl Strategy<Value = JobState> {
    prop_oneof![
        any::<u32>().prop_map(|position| JobState::Queued { position }),
        Just(JobState::Running),
        arb_result().prop_map(JobState::Done),
        arb_text(40).prop_map(|error| JobState::Failed { error }),
        Just(JobState::Cancelled),
        Just(JobState::Unknown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), 0u8..3).prop_map(|(job, a)| Response::Accepted {
            job,
            admission: match a {
                0 => Admission::New,
                1 => Admission::CacheHit,
                _ => Admission::Coalesced,
            },
        }),
        arb_text(60).prop_map(|reason| Response::Rejected { reason }),
        (any::<u64>(), arb_state()).prop_map(|(job, state)| Response::Status { job, state }),
        arb_text(200).prop_map(|text| Response::Stats { text }),
        (any::<u64>(), any::<bool>()).prop_map(|(job, ok)| Response::Cancelled { job, ok }),
        (any::<u64>(), arb_result(), any::<bool>()).prop_map(|(job, result, cached)| {
            Response::Done {
                job,
                result,
                cached,
            }
        }),
        arb_text(60).prop_map(|message| Response::Error { message }),
        (any::<u32>(), any::<bool>()).prop_map(|(rank, ok)| Response::Drained { rank, ok }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests roundtrip exactly, and every proper prefix fails.
    #[test]
    fn every_request_prefix_fails_cleanly(req in arb_request()) {
        let buf = req.encode();
        prop_assert_eq!(&Request::decode(&buf).unwrap(), &req);
        for cut in 0..buf.len() {
            prop_assert!(
                Request::decode(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                buf.len()
            );
        }
    }

    /// Responses roundtrip exactly, and every proper prefix fails.
    #[test]
    fn every_response_prefix_fails_cleanly(resp in arb_response()) {
        let buf = resp.encode();
        prop_assert_eq!(&Response::decode(&buf).unwrap(), &resp);
        for cut in 0..buf.len() {
            prop_assert!(
                Response::decode(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                buf.len()
            );
        }
    }

    /// A `Submit` carries outside input straight to the fleet: partition
    /// sizes the model builder would `assert!` on must fail at decode.
    #[test]
    fn out_of_range_partitions_never_decode(
        spec in arb_spec(),
        pp in (0u32..4, 0u32..4),
        tp in (0u32..6, 0u32..6),
    ) {
        let mut spec = spec;
        spec.pp = GridDims::new(pp.0, pp.1);
        spec.tp = GridDims::new(tp.0, tp.1);
        let valid = pp.0 > 0 && pp.1 > 0 && tp.0 > 0 && tp.1 > 0 && tp.0 <= pp.0 && tp.1 <= pp.1;
        let req = Request::Submit(SubmitReq { tenant: "t".into(), wait: false, spec });
        prop_assert_eq!(Request::decode(&req.encode()).is_ok(), valid, "pp {:?} tp {:?}", pp, tp);
    }

    /// The daemon's transport is the workspace frame layer. Any single
    /// corrupted byte of a message in transit — length prefix, header or
    /// body — is rejected there; the protocol decoder never sees the
    /// damage. (The frame layer's own properties, for arbitrary payloads
    /// and across real sockets, are in `easyhps-net`'s `socket_tests`.)
    #[test]
    fn any_corrupted_byte_in_transit_is_caught(
        msg in prop_oneof![
            arb_request().prop_map(|r| r.encode()),
            arb_response().prop_map(|r| r.encode()),
        ],
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        frame::send_msg(&mut wire, &msg).unwrap();
        prop_assert_eq!(&frame::recv_msg(&mut &wire[..]).unwrap()[..], &msg[..]);
        let pos = ((wire.len() - 1) as f64 * pos_frac) as usize;
        wire[pos] ^= xor;
        prop_assert!(
            frame::recv_msg(&mut &wire[..]).is_err(),
            "flip at byte {}/{} must not be received",
            pos,
            wire.len()
        );
    }

    /// Arbitrary bytes through both decoders: errors are fine, panics
    /// and runaway allocations are not.
    #[test]
    fn random_bytes_never_panic_either_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = Request::decode(&data);
        let _ = Response::decode(&data);
    }
}
