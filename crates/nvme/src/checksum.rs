//! CRC32-C (Castagnoli, reflected polynomial 0x82F63B78) for
//! end-to-end shard integrity.
//!
//! CRC32-C rather than the zip/png CRC32 for the same reason iSCSI,
//! ext4 and btrfs chose it: x86-64 executes it in hardware (SSE 4.2
//! `crc32` instruction, 8 bytes per ~1-cycle-throughput op), which is
//! what keeps the verify cost a small fraction of the memcpy every
//! shard load already pays (the `resilience_checksum` bench measures
//! both paths). Where the instruction is unavailable we fall back to a
//! software slicing-by-8 implementation — the offline build cannot pull
//! a crc crate, so both paths are hand-written. The checksums never
//! leave the process, so the polynomial is an internal detail.

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

/// Hardware path: the SSE 4.2 `crc32` instruction, 8 bytes at a time.
///
/// # Safety
/// Caller must have verified `sse4.2` is available on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        c = _mm_crc32_u64(c, v);
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
