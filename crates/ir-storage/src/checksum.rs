//! Shared checksum helper for every on-disk artifact of the crate.
//!
//! Both the per-page frame trailer ([`crate::page::frame`]) and the index
//! snapshot superheader ([`crate::snapshot`]) seal their bytes with the same
//! [`checksum64`], so the single implementation lives here.

/// Odd multiplier of every lane step (the 64-bit golden-ratio constant).
const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial lane states: four distinct odd constants, so equal words fed to
/// different lanes do not leave equal states behind.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7345,
    0xa409_3822_299f_31d1,
    0x082e_fa98_ec4e_6c89,
];

/// One lane step. Xor, multiply by an odd constant and rotate are each a
/// bijection of the lane state, so two inputs that differ in exactly one
/// word always leave that lane in a different state.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(29)
}

#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Word-parallel 64-bit checksum — the checksum of every on-disk format in
/// this crate (page-frame trailers and the snapshot superheader).
///
/// The input is read as little-endian `u64` words; word `i` goes to lane
/// `i % 4`, and the four lanes are independent xor-multiply chains, so a
/// 4 KiB page hashes at about one word per cycle instead of one byte per
/// multiply. A final partial word is zero-padded. The lanes are then folded
/// together with the byte length (which tells a zero-padded tail from real
/// zero bytes) and finished with an avalanche mix.
///
/// Every step is a bijection in the lane it updates, so any change confined
/// to one word — every single-bit flip in particular — is always detected.
/// Hand-rolled (no external crate is vendored) and not meant to resist an
/// adversary, only to catch bit rot, torn writes and device bugs. The value
/// is independent of host endianness.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = step(lanes[0], word_at(block, 0));
        lanes[1] = step(lanes[1], word_at(block, 8));
        lanes[2] = step(lanes[2], word_at(block, 16));
        lanes[3] = step(lanes[3], word_at(block, 24));
    }
    let rest = blocks.remainder();
    let mut words = rest.chunks(8);
    for (lane, chunk) in lanes.iter_mut().zip(&mut words) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        *lane = step(*lane, u64::from_le_bytes(w));
    }

    let mut acc = (data.len() as u64).wrapping_mul(LANE_PRIME);
    for lane in lanes {
        acc = step(acc, lane);
    }
    // Avalanche (the MurmurHash3 64-bit finalizer), also a bijection.
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    acc ^ (acc >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{frame, PAGE_SIZE};

    /// A deterministic page whose bytes are not a repeating pattern.
    fn patterned_page(seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..PAGE_SIZE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum64_matches_pinned_vectors() {
        // Pinned values of the on-disk checksum: any change here changes the
        // frame and snapshot formats and needs a version bump.
        assert_eq!(checksum64(b""), 0x407e_71fb_3d85_0cb7);
        assert_eq!(checksum64(b"a"), 0xcd73_fb78_c23d_6354);
        assert_eq!(checksum64(b"foobar"), 0x7136_2e16_2153_2db1);
        assert_eq!(
            checksum64(b"0123456789abcdef0123456789abcdef0123456789"),
            0xb91c_ee6a_46bc_968f
        );
        assert_eq!(checksum64(&[0u8; PAGE_SIZE]), 0x3c1a_dfbc_9573_a605);
    }

    #[test]
    fn length_is_part_of_the_checksum() {
        // A zero-padded tail must not collide with real zero bytes.
        assert_ne!(checksum64(b"a"), checksum64(b"a\0"));
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
        assert_ne!(checksum64(b""), checksum64(&[0u8; 1]));
    }

    #[test]
    fn every_single_bit_flip_in_a_page_is_detected() {
        let mut page = patterned_page(1);
        let sealed = checksum64(&page);
        for bit in 0..PAGE_SIZE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&page), sealed, "flip of bit {bit} went unseen");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(checksum64(&page), sealed);
    }

    #[test]
    fn torn_pages_are_detected_at_every_sector_cut() {
        // A write torn at a 512-byte sector boundary leaves the new prefix
        // in front of the old suffix.
        let old = patterned_page(2);
        let new = patterned_page(3);
        let new_seal = checksum64(&new);
        let old_seal = checksum64(&old);
        for cut in (512..PAGE_SIZE).step_by(512) {
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(&old[cut..]);
            let torn_seal = checksum64(&torn);
            assert_ne!(torn_seal, new_seal, "torn at byte {cut} passed as new");
            assert_ne!(torn_seal, old_seal, "torn at byte {cut} passed as old");
        }
    }

    #[test]
    fn zero_page_seal_is_the_seal_of_an_all_zero_page() {
        assert_eq!(
            frame::zero_page_seal(),
            checksum64(&[0u8; PAGE_SIZE]).to_le_bytes()
        );
    }
}
