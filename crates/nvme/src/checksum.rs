//! CRC32-C (Castagnoli, reflected polynomial 0x82F63B78) for
//! end-to-end shard integrity.
//!
//! CRC32-C rather than the zip/png CRC32 for the same reason iSCSI,
//! ext4 and btrfs chose it: x86-64 executes it in hardware (SSE 4.2
//! `crc32` instruction, 8 bytes per ~1-cycle-throughput op), which is
//! what keeps the verify cost a small fraction of the memcpy every
//! shard load already pays (the `resilience_checksum` bench measures
//! both paths). The instruction has a 3-cycle latency and a 1-cycle
//! throughput, so one dependent chain runs at a third of what the unit
//! can do: long inputs are cut into three lanes checksummed in one
//! interleaved loop and recombined through precomputed "advance by one
//! lane of zeros" tables (the zlib / iSCSI technique). Where the
//! instruction is unavailable we fall back to a software slicing-by-8
//! implementation — the offline build cannot pull a crc crate, so both
//! paths are hand-written. Both compute the same function, which the
//! `CheckpointStore`'s on-device format depends on.

use zi_sync::OnceLock;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` maps a
/// byte to its CRC contribution from `k` positions deeper in the input.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0x82f6_3b78 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xff) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Software slicing-by-8: folds 8 input bytes per iteration through
/// eight independent table lookups. `crc` is the CRC of the bytes that
/// precede `data` (0 for none).
fn crc32c_sw(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Lane lengths of the interleaved hardware path, longest first: a
/// buffer is consumed three lanes at a time at the first length that
/// still fits, so everything but a tail shorter than `3 * 256` bytes
/// runs three `crc32` chains at once.
#[cfg(target_arch = "x86_64")]
const LANES: [usize; 2] = [8192, 256];

/// For each of [`LANES`]: `table[k][b]` is the CRC register `b << 8k`
/// advanced over one lane of zero bytes. The register update is linear
/// over GF(2), so a register advanced over `lane` bytes of *data* is
/// [`advance`] of it XOR the register of those bytes started from zero —
/// which is what lets three lanes be checksummed independently.
#[cfg(target_arch = "x86_64")]
fn lane_tables() -> &'static [[[u32; 256]; 4]; 2] {
    static LANE_TABLES: OnceLock<[[[u32; 256]; 4]; 2]> = OnceLock::new();
    LANE_TABLES.get_or_init(|| {
        let t = &tables()[0];
        LANES.map(|lane| {
            // The image of each register bit, by running the byte-wise
            // recurrence over `lane` zero bytes.
            let basis: [u32; 32] = std::array::from_fn(|bit| {
                (0..lane).fold(1u32 << bit, |c, _| t[(c & 0xff) as usize] ^ (c >> 8))
            });
            let image = |reg: u32| {
                (0..32).filter(|bit| reg >> bit & 1 != 0).fold(0, |acc, bit| acc ^ basis[bit])
            };
            std::array::from_fn(|k| std::array::from_fn(|b| image((b as u32) << (8 * k))))
        })
    })
}

/// Advance the CRC register `c` over the lane of zeros `table` encodes.
#[cfg(target_arch = "x86_64")]
fn advance(table: &[[u32; 256]; 4], c: u64) -> u64 {
    let c = c as u32;
    u64::from(
        table[0][(c & 0xff) as usize]
            ^ table[1][((c >> 8) & 0xff) as usize]
            ^ table[2][((c >> 16) & 0xff) as usize]
            ^ table[3][(c >> 24) as usize],
    )
}

/// Hardware path: the SSE 4.2 `crc32` instruction, 8 bytes at a time on
/// three interleaved lanes while the input is long enough, then on one.
///
/// # Safety
/// Caller must have verified `sse4.2` is available on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(crc: u32, mut data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let mut c = u64::from(!crc);
    for (lane, table) in LANES.into_iter().zip(lane_tables()) {
        while data.len() >= 3 * lane {
            let (head, rest) = data.split_at(3 * lane);
            let (a, bc) = head.split_at(lane);
            let (b, c_lane) = bc.split_at(lane);
            let (mut c1, mut c2) = (0u64, 0u64);
            let lanes = a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c_lane.chunks_exact(8));
            for ((x, y), z) in lanes {
                c = _mm_crc32_u64(c, word(x));
                c1 = _mm_crc32_u64(c1, word(y));
                c2 = _mm_crc32_u64(c2, word(z));
            }
            c = advance(table, c) ^ c1;
            c = advance(table, c) ^ c2;
            data = rest;
        }
    }
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = _mm_crc32_u64(c, word(chunk));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// CRC32-C of `data` (Castagnoli, as used by iSCSI/ext4/btrfs).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extend a CRC32-C over more bytes: `crc` is the checksum of everything
/// before `data` (0 for nothing), the result the checksum of both — so
/// an extent written as in-order chunks gets the same whole-extent CRC
/// as one written at once, without a second pass over it.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature presence checked immediately above.
            return unsafe { crc32c_hw(crc, data) };
        }
    }
    crc32c_sw(crc, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference byte-at-a-time implementation.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32-C check values (RFC 3720 appendix B.4 et al.).
        assert_eq!(crc32(b"123456789"), 0xe306_9283);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32(&[0xffu8; 32]), 0x62a8_ab43);
    }

    #[test]
    fn all_paths_agree_at_every_length() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 100, 1023, 1024] {
            let expect = crc32c_bytewise(&data[..len]);
            assert_eq!(crc32c_sw(0, &data[..len]), expect, "sw len {len}");
            assert_eq!(crc32(&data[..len]), expect, "dispatch len {len}");
        }
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn interleaved_lanes_match_the_bytewise_reference() {
        // Every length through several short-lane triples and tails ...
        let data = noise(4096, 1);
        for len in 0..=4096 {
            assert_eq!(crc32(&data[..len]), crc32c_bytewise(&data[..len]), "len {len}");
        }
        // ... and a spread of long ones: long-lane triples, then short
        // ones, then the single-stream tail, at odd alignments.
        let big = noise((4 << 20) + 5, 2);
        let mut state = 3u64;
        let mut lens = vec![3 * 8192 - 1, 3 * 8192, 3 * 8192 + 1, 6 * 8192 + 3 * 256 + 7, 4 << 20];
        for _ in 0..8 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lens.push((state >> 33) as usize % (4 << 20));
        }
        for len in lens {
            let at = len % 5;
            let slice = &big[at..at + len];
            assert_eq!(crc32(slice), crc32c_bytewise(slice), "len {len} at offset {at}");
        }
    }

    #[test]
    fn update_split_at_every_offset_equals_the_one_shot_checksum() {
        let data = noise(1024, 4);
        let whole = crc32c_bytewise(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "cut at {cut}");
        }
        // A long buffer cut inside and between its lanes.
        let data = noise(3 * 8192 + 3 * 256 + 11, 5);
        let whole = crc32c_bytewise(&data);
        for cut in [1, 255, 256, 8191, 8192, 8193, 2 * 8192, 3 * 8192, 3 * 8192 + 300, data.len() - 1] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "cut at {cut}");
        }
    }

    #[test]
    fn chunked_updates_equal_the_one_shot_checksum() {
        let data: Vec<u8> = (0..4099u32).map(|i| (i.wrapping_mul(131) >> 2) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 7, 8, 64, 1000, 4099] {
            let hw = data.chunks(chunk).fold(0, crc32_update);
            let sw = data.chunks(chunk).fold(0, crc32c_sw);
            assert_eq!((hw, sw), (whole, whole), "chunk size {chunk}");
        }
        assert_eq!(crc32_update(whole, &[]), whole, "empty update is the identity");
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let clean = vec![0x5au8; 4096];
        let base = crc32(&clean);
        for byte in [0usize, 1, 2047, 4095] {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                assert_ne!(crc32(&dirty), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
