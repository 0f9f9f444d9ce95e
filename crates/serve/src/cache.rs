//! The content key: what names a job's computation in the daemon.
//!
//! Jobs are keyed by *what they compute*, not how: the key hashes
//! [`RemoteProblem::content_key_bytes`], the canonical encoding of the
//! problem alone (sequences, scoring parameters), deliberately excluding
//! partition shapes, thread counts and every other deployment knob — two
//! submissions that differ only in `--pp` produce bit-identical matrices
//! and must share one computation. The daemon's job table indexes its
//! computations by this key: a submission whose key names a finished
//! one is a cache hit answered with the stored digest, and one whose key
//! names a queued or running one attaches to it instead of computing
//! again. Nothing bounds the index by bytes: an entry is a key, a few
//! job ids or a digest, never cells.

use easyhps_runtime::remote::RemoteProblem;

/// 128-bit FNV-1a over the problem's canonical content bytes. Not
/// cryptographic — tenants within one daemon are assumed cooperative —
/// but 128 bits make accidental collisions negligible.
pub fn job_key(problem: &RemoteProblem) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = OFFSET;
    for &b in &problem.content_key_bytes() {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ignores_partitioning_but_not_content() {
        let a = RemoteProblem::EditDistance {
            a: b"GATTACA".to_vec(),
            b: b"GCATGCT".to_vec(),
        };
        let b = RemoteProblem::EditDistance {
            a: b"GATTACA".to_vec(),
            b: b"GCATGCA".to_vec(),
        };
        // Same problem hashes the same; one changed byte does not. The
        // key has no partition inputs at all, so "ignores partitioning"
        // is structural.
        assert_eq!(job_key(&a), job_key(&a));
        assert_ne!(job_key(&a), job_key(&b));
        let c = RemoteProblem::Lcs {
            a: b"GATTACA".to_vec(),
            b: b"GCATGCT".to_vec(),
        };
        assert_ne!(job_key(&a), job_key(&c), "problem kind is part of the key");
    }
}
