//! Deterministic fault injection for the transport layer.
//!
//! A [`FaultPlan`] describes everything that can go wrong with one
//! endpoint's *outgoing* traffic: uniform and per-tag message drops,
//! duplicate deliveries, delayed (and therefore reordered) deliveries,
//! single-bit frame corruption, and endpoint death after a send budget.
//! All randomness is drawn from a seeded generator in a fixed per-send order, so the same plan replayed
//! against the same send sequence produces the same fault schedule —
//! byte for byte. The schedule-stress harness (`easyhps-stress`) derives
//! whole per-rank plan sets from a single `u64` seed on top of this.

use crate::message::{Rank, Tag};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduled hard link cut: at send number `at` the endpoint's socket
/// link to the destination of that send is shut down at the kernel level
/// and closed for good. A slave with a rejoin window stays dark for
/// `down_for`, then redials and rejoins. Purely send-count driven — no
/// RNG draws — so adding a sever to a plan never perturbs the schedule of
/// the probabilistic clauses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSever {
    /// Fire when the endpoint's send counter reaches this value.
    pub at: u64,
    /// How long the severed slave stays dark before it redials.
    pub down_for: std::time::Duration,
}

/// Faults to inject at one endpoint. All randomness is seeded, so fault
/// schedules reproduce exactly.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an outgoing message is silently
    /// dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that an outgoing message is delivered
    /// twice (the duplicate follows the original immediately).
    pub dup_prob: f64,
    /// Probability in `[0, 1]` that an outgoing message is held back and
    /// released only after [`FaultPlan::delay_sends`] further sends —
    /// which reorders it past the messages sent in between.
    pub delay_prob: f64,
    /// How many subsequent send calls a delayed message is held for
    /// (`1` swaps it with the next message). Ignored when
    /// [`FaultPlan::delay_prob`] is zero.
    pub delay_sends: u32,
    /// Extra per-tag drop probabilities, applied before the uniform
    /// `drop_prob` — e.g. starve a slave's heartbeats specifically while
    /// leaving its data traffic alone.
    pub tag_drops: Vec<(Tag, f64)>,
    /// Probability in `[0, 1]` that an outgoing message is delivered with
    /// exactly one bit flipped (a corrupting link). The flipped bit index
    /// is drawn uniformly over the sealed frame past its length prefix —
    /// header or payload, always under the CRC.
    pub bitflip_prob: f64,
    /// RNG seed for all fault decisions.
    pub seed: u64,
    /// After this many send *attempts*, the endpoint dies (simulated node
    /// crash): every later operation returns
    /// [`crate::NetError::Dead`].
    pub die_after_sends: Option<u64>,
    /// Hard-close the socket link under one send; the slave may rejoin
    /// after `down_for`. A no-op on channel links (in-process transport).
    pub link_sever: Option<LinkSever>,
}

impl FaultPlan {
    /// A plan that kills the endpoint after `n` send attempts and drops
    /// nothing before that.
    pub fn die_after(n: u64) -> Self {
        Self {
            die_after_sends: Some(n),
            ..Self::default()
        }
    }

    /// A plan that drops each message with probability `p`.
    pub fn lossy(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Self {
            drop_prob: p,
            seed,
            ..Self::default()
        }
    }

    /// Add duplicate deliveries with probability `p`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.dup_prob = p;
        self
    }

    /// Add delayed deliveries: each message is held with probability `p`
    /// and released after `sends` further send calls.
    pub fn with_delays(mut self, p: f64, sends: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        assert!(sends >= 1, "a delay must span at least one send");
        self.delay_prob = p;
        self.delay_sends = sends;
        self
    }

    /// Drop messages carrying `tag` with probability `p` (on top of the
    /// uniform `drop_prob`).
    pub fn with_tag_drop(mut self, tag: Tag, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.tag_drops.push((tag, p));
        self
    }

    /// Kill the endpoint after `n` send attempts.
    pub fn with_death_after(mut self, n: u64) -> Self {
        self.die_after_sends = Some(n);
        self
    }

    /// Sever the socket link under the `at`-th send; the slave stays dark
    /// for `down_for` before it may rejoin.
    pub fn with_link_sever(mut self, at: u64, down_for: std::time::Duration) -> Self {
        self.link_sever = Some(LinkSever { at, down_for });
        self
    }

    /// Flip one uniformly-drawn bit of each message with probability `p`
    /// (a corrupting link).
    pub fn with_bitflips(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.bitflip_prob = p;
        self
    }

    /// Whether the plan can affect traffic at all (used to skip the RNG
    /// on fault-free endpoints).
    fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || self.bitflip_prob > 0.0
            || !self.tag_drops.is_empty()
    }
}

/// What the fault layer decided to do with one outgoing message.
#[derive(Debug, PartialEq)]
pub(crate) enum SendVerdict {
    /// Deliver normally.
    Deliver,
    /// Silently drop (success reported to the sender).
    Drop,
    /// Deliver twice, back to back.
    Duplicate,
    /// Hold until the send counter reaches the given value.
    Delay(u64),
    /// Deliver with the given bit flipped (a corrupting link).
    Corrupt {
        /// Bit index into the corruptible bytes (`byte = bit / 8`,
        /// LSB-first within the byte).
        bit: u64,
    },
}

/// Mutable fault state carried by an endpoint.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: Option<FaultPlan>,
    rng: StdRng,
    sends: u64,
    /// Delayed frames awaiting release: `(release_at_send_count, dst,
    /// sealed frame)`, in hold order.
    held: Vec<(u64, Rank, Bytes)>,
}

impl FaultState {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        let seed = plan.as_ref().map(|p| p.seed).unwrap_or(0);
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed),
            sends: 0,
            held: Vec::new(),
        }
    }

    /// Whether the endpoint carries a plan at all: any plan may drop,
    /// duplicate, delay, corrupt or sever, so its sender must track every
    /// frame it cares about.
    pub(crate) fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    pub(crate) fn note_send(&mut self) {
        self.sends += 1;
    }

    /// Whether this send is the one the plan severs the link under.
    /// Fires exactly once (at equality, not `>=`), and draws nothing from
    /// the RNG, so old seeds replay byte-for-byte.
    pub(crate) fn should_sever_now(&self) -> bool {
        matches!(&self.plan, Some(FaultPlan { link_sever: Some(s), .. }) if self.sends == s.at)
    }

    pub(crate) fn should_die_now(&self) -> bool {
        match &self.plan {
            Some(FaultPlan {
                die_after_sends: Some(n),
                ..
            }) => self.sends >= *n,
            _ => false,
        }
    }

    /// Decide the fate of one outgoing message with `payload_len`
    /// corruptible bytes.
    /// Draws happen in a fixed order (per-tag drop, uniform drop,
    /// duplicate, delay, bit-flip) so a plan's schedule is a pure
    /// function of its seed and the send sequence. The bit-flip draws
    /// come *last* and only when `bitflip_prob > 0`, so plans without
    /// bit-flips replay byte-for-byte against schedules recorded before
    /// the clause existed.
    pub(crate) fn decide(&mut self, tag: Tag, payload_len: usize) -> SendVerdict {
        let Some(plan) = &self.plan else {
            return SendVerdict::Deliver;
        };
        if !plan.is_active() {
            return SendVerdict::Deliver;
        }
        if let Some((_, p)) = plan.tag_drops.iter().find(|(t, _)| *t == tag) {
            if *p > 0.0 && self.rng.random_bool(*p) {
                return SendVerdict::Drop;
            }
        }
        if plan.drop_prob > 0.0 && self.rng.random_bool(plan.drop_prob) {
            return SendVerdict::Drop;
        }
        if plan.dup_prob > 0.0 && self.rng.random_bool(plan.dup_prob) {
            return SendVerdict::Duplicate;
        }
        if plan.delay_prob > 0.0 && self.rng.random_bool(plan.delay_prob) {
            return SendVerdict::Delay(self.sends + plan.delay_sends.max(1) as u64);
        }
        if plan.bitflip_prob > 0.0 && self.rng.random_bool(plan.bitflip_prob) && payload_len > 0 {
            return SendVerdict::Corrupt {
                bit: self.rng.random_range(0..payload_len as u64 * 8),
            };
        }
        SendVerdict::Deliver
    }

    /// Park a delayed message until the send counter reaches
    /// `release_at`.
    pub(crate) fn hold(&mut self, release_at: u64, dst: Rank, frame: Bytes) {
        self.held.push((release_at, dst, frame));
    }

    /// Take every held message whose release point has been reached, in
    /// hold order. A message held past the endpoint's final send is never
    /// released — indistinguishable from a drop, which is the point.
    pub(crate) fn take_due(&mut self) -> Vec<(Rank, Bytes)> {
        if self.held.is_empty() {
            return Vec::new();
        }
        let sends = self.sends;
        let mut due = Vec::new();
        self.held.retain(|(at, dst, frame)| {
            if *at <= sends {
                due.push((*dst, frame.clone()));
                false
            } else {
                true
            }
        });
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetError, Network, Rank, Tag};
    use bytes::Bytes;

    #[test]
    fn die_after_sends_kills_endpoint() {
        let plans = vec![Some(FaultPlan::die_after(2)), None];
        let mut eps = Network::with_faults(2, &plans);
        let _e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(Rank(1), Tag(0), Bytes::new()).unwrap();
        e0.send(Rank(1), Tag(0), Bytes::new()).unwrap();
        assert_eq!(
            e0.send(Rank(1), Tag(0), Bytes::new()).unwrap_err(),
            NetError::Dead
        );
        assert_eq!(e0.recv().unwrap_err(), NetError::Dead);
    }

    #[test]
    fn lossy_drops_are_deterministic_and_counted() {
        let run = || {
            let plans = vec![Some(FaultPlan::lossy(0.5, 42)), None];
            let mut eps = Network::with_faults(2, &plans);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            for _ in 0..100 {
                e0.send(Rank(1), Tag(0), Bytes::new()).unwrap();
            }
            let mut received = 0;
            while e1.try_recv().unwrap().is_some() {
                received += 1;
            }
            (received, e0.stats().dropped_msgs, e0.stats().sent_msgs)
        };
        let (r1, d1, s1) = run();
        let (r2, d2, s2) = run();
        assert_eq!(
            (r1, d1, s1),
            (r2, d2, s2),
            "fault schedule must be deterministic"
        );
        assert_eq!(r1 as u64 + d1, 100);
        assert_eq!(s1, r1 as u64);
        assert!(d1 > 20 && d1 < 80, "drop rate wildly off: {d1}");
    }

    /// Drain everything currently queued at `ep` as payload first-bytes.
    fn drain_bytes(ep: &mut crate::Endpoint) -> Vec<u8> {
        let mut got = Vec::new();
        while let Some(env) = ep.try_recv().unwrap() {
            got.push(env.payload[0]);
        }
        got
    }

    #[test]
    fn duplicates_are_deterministic_and_counted() {
        let run = || {
            let plan = FaultPlan {
                seed: 9,
                ..FaultPlan::default()
            }
            .with_duplicates(0.4);
            let mut eps = Network::with_faults(2, &[Some(plan), None]);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            for i in 0..50u8 {
                e0.send(Rank(1), Tag(0), Bytes::from(vec![i])).unwrap();
            }
            (drain_bytes(&mut e1), e0.stats())
        };
        let (got1, stats1) = run();
        let (got2, stats2) = run();
        assert_eq!(got1, got2, "same seed must give the same byte stream");
        assert_eq!(stats1, stats2);
        assert!(got1.len() > 50, "some messages must be duplicated");
        assert_eq!(stats1.sent_msgs, 50, "one logical send per message");
        assert_eq!(
            stats1.sent_msgs + stats1.duplicated_msgs,
            got1.len() as u64,
            "extra copies accounted as duplicates"
        );
        for i in 0..50u8 {
            assert!(
                got1.iter().filter(|b| **b == i).count() >= 1,
                "message {i} lost"
            );
        }
        // Duplicates are adjacent: second copy right after the first.
        let mut dups = 0;
        for w in got1.windows(2) {
            if w[0] == w[1] {
                dups += 1;
            }
        }
        assert!(dups > 0, "adjacent duplicate expected in {got1:?}");
    }

    #[test]
    fn delays_reorder_deterministically() {
        let run = || {
            let plan = FaultPlan {
                seed: 31,
                ..FaultPlan::default()
            }
            .with_delays(0.4, 2);
            let mut eps = Network::with_faults(2, &[Some(plan), None]);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            for i in 0..40u8 {
                e0.send(Rank(1), Tag(0), Bytes::from(vec![i])).unwrap();
            }
            drain_bytes(&mut e1)
        };
        let got1 = run();
        let got2 = run();
        assert_eq!(got1, got2, "same seed must give the same byte stream");
        let mut sorted = got1.clone();
        sorted.sort_unstable();
        assert_ne!(got1, sorted, "delays must produce at least one inversion");
        // Releases are driven by later sends, so at worst the tail of the
        // stream is still held; everything released arrives exactly once.
        let mut uniq = got1.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), got1.len(), "no duplicates from delays");
        assert!(got1.len() >= 35, "only a short tail may be left holding");
    }

    #[test]
    fn tag_drops_starve_only_that_tag() {
        let heartbeat = Tag(6);
        let plan = FaultPlan {
            seed: 4,
            ..FaultPlan::default()
        }
        .with_tag_drop(heartbeat, 1.0);
        let mut eps = Network::with_faults(2, &[Some(plan), None]);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        for i in 0..10u8 {
            e0.send(Rank(1), heartbeat, Bytes::from(vec![i])).unwrap();
            e0.send(Rank(1), Tag(1), Bytes::from(vec![i])).unwrap();
        }
        let mut data = 0;
        while let Some(env) = e1.try_recv().unwrap() {
            assert_eq!(env.tag, Tag(1), "starved tag must never arrive");
            data += 1;
        }
        assert_eq!(data, 10, "other tags are untouched");
        assert_eq!(e0.stats().dropped_msgs, 10);
    }

    #[test]
    fn combined_chaos_is_deterministic() {
        let run = || {
            let plan = FaultPlan {
                drop_prob: 0.15,
                seed: 77,
                ..FaultPlan::default()
            }
            .with_duplicates(0.2)
            .with_delays(0.2, 1);
            let mut eps = Network::with_faults(2, &[Some(plan), None]);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            for i in 0..60u8 {
                e0.send(Rank(1), Tag(0), Bytes::from(vec![i])).unwrap();
            }
            (
                drain_bytes(&mut e1),
                e0.stats().dropped_msgs,
                e0.stats().sent_msgs,
            )
        };
        assert_eq!(run(), run(), "chaos schedule must replay byte-for-byte");
    }

    #[test]
    fn bitflips_are_deterministic_counted_and_always_caught() {
        // Empty payloads too: the header alone is flippable.
        let payload_of = |i: u8| match i % 5 {
            0 => Vec::new(),
            _ => vec![i, 0xAA, 0x55],
        };
        let run = || {
            let plan = FaultPlan {
                seed: 21,
                ..FaultPlan::default()
            }
            .with_bitflips(0.5);
            let mut eps = Network::with_faults(2, &[Some(plan), None]);
            let mut e1 = eps.pop().unwrap();
            let mut e0 = eps.pop().unwrap();
            for i in 0..50u8 {
                e0.send(Rank(1), Tag(i as u32), Bytes::from(payload_of(i)))
                    .unwrap();
            }
            let mut got = Vec::new();
            while let Some(env) = e1.try_recv().unwrap() {
                got.push((env.tag.0, env.payload.to_vec()));
            }
            (got, e0.stats().corrupted_msgs, e1.stats().corrupt_frames)
        };
        let (got1, injected1, caught1) = run();
        let (got2, injected2, caught2) = run();
        assert_eq!(got1, got2, "flip schedule must replay byte-for-byte");
        assert_eq!((injected1, caught1), (injected2, caught2));
        assert!((10..=40).contains(&injected1), "flip rate wildly off");
        assert_eq!(caught1, injected1, "every flip lands under the CRC");
        assert_eq!(
            got1.len() as u64 + caught1,
            50,
            "a flip costs that frame only"
        );
        for (tag, p) in &got1 {
            assert_eq!(
                *p,
                payload_of(*tag as u8),
                "nothing mangled is ever delivered"
            );
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_bad_probability() {
        FaultPlan::lossy(1.5, 0);
    }
}
