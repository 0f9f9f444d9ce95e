//! CRC-32C (Castagnoli) — the checksum guarding wire frames, durable
//! checkpoint segments and manifests, serve state files and cache
//! entries.
//!
//! The Castagnoli polynomial (`0x1EDC6F41`, reflected `0x82F63B78`) is
//! the iSCSI/ext4 choice: measurably better burst-error detection than
//! CRC-32/ISO-HDLC at the same cost, and the variant hardware CRC
//! instructions implement.
//!
//! This is on the data path, not only the control plane: every frame is
//! sealed once by its sender and checked once by its receiver, so every
//! byte of every ASSIGN and DONE payload passes through here twice. Two
//! paths compute the same function, chosen per call by CPU detection
//! (measured on one core of an x86_64 Linux VM, 64 KiB input):
//!
//! - **x86_64 with SSE4.2**: the `crc32` instruction, 8 bytes per step
//!   (~8 GB/s).
//! - **everywhere else**: a byte-at-a-time walk over one 256-entry table
//!   built by a `const fn` (~0.36 GB/s).
//!
//! The result does not depend on the path taken — the tests hold the
//! instruction path to the table walk — so no stored or wire checksum
//! changes with the machine that computed it.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32C of `data` (init `!0`, reflected, final xor `!0` — the standard
/// parameterisation, matching hardware `crc32c` instructions).
pub fn crc32c(data: &[u8]) -> u32 {
    let update = hardware().unwrap_or(bytewise);
    !update(!0, data)
}

/// Advances the raw (un-inverted) register `crc` over `data`.
type Update = fn(u32, &[u8]) -> u32;

/// The CPU's CRC-32C instruction path, if this CPU has one.
fn hardware() -> Option<Update> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: this closure exists only after the check above found
        // SSE4.2, the one target feature `x86::update` enables.
        return Some(|crc, data| unsafe { x86::update(crc, data) });
    }
    None
}

fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Callable only once SSE4.2 has been detected at run time.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let mut crc = u64::from(crc);
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
            crc = _mm_crc32_u64(crc, word);
        }
        // The instruction keeps the register in the low 32 bits.
        let mut crc = crc as u32;
        for &b in chunks.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every path this CPU can run, named for failure messages.
    fn paths() -> Vec<(&'static str, Update)> {
        let mut paths: Vec<(&'static str, Update)> = vec![("bytewise", bytewise)];
        paths.extend(hardware().map(|hw| ("hardware", hw)));
        paths
    }

    #[test]
    fn known_vectors() {
        for (name, update) in paths() {
            let crc = |data: &[u8]| !update(!0, data);
            // The canonical check value for CRC-32C.
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
            // RFC 3720 (iSCSI) appendix B.4 test patterns.
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            let ascending: Vec<u8> = (0..32).collect();
            assert_eq!(crc(&ascending), 0x46DD_794E, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..64u8).collect();
        for (name, update) in paths() {
            let clean = update(!0, &data);
            for bit in 0..data.len() * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    update(!0, &flipped),
                    clean,
                    "{name}: bit {bit} not detected"
                );
            }
        }
    }

    proptest! {
        /// Lengths past several 8-byte strides and every start offset
        /// mod 8, so unaligned heads and every tail length are covered.
        #[test]
        fn every_path_agrees_with_the_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 4108),
            len in 0usize..=4100,
            offset in 0usize..8,
        ) {
            let data = &buf[offset..offset + len];
            let want = bytewise(!0, data);
            for (name, update) in paths() {
                prop_assert_eq!(update(!0, data), want, "{} len {} offset {}", name, len, offset);
            }
            prop_assert_eq!(crc32c(data), !want);
        }
    }
}
