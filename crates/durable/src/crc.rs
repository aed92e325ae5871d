//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), implemented in-tree —
//! the workspace vendors no external crates. Slicing-by-8: eight derived
//! tables computed at first use let the hot loop consume eight bytes per
//! iteration, which matters both per-commit (every WAL frame is
//! checksummed on the hot path) and at recovery (the whole log is
//! re-checksummed on scan).

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        let (t0, derived) = t.split_first_mut().expect("eight tables");
        for (i, slot) in t0.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for i in 0..256 {
            let mut c = t0[i];
            for tk in derived.iter_mut() {
                c = t0[(c & 0xff) as usize] ^ (c >> 8);
                tk[i] = c;
            }
        }
        t
    })
}

/// CRC-32 of `data` (IEEE, initial value all-ones, final complement).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// The CRC-32 of the bytes behind `crc` followed by `data`: folding a
/// stream through this from `0` gives [`crc32`] of the whole stream.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = !crc;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes(w[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(w[4..8].try_into().unwrap());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"frame payload");
        let mut data = b"frame payload".to_vec();
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
