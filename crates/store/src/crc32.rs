//! CRC32 (IEEE 802.3 polynomial, reflected), table-driven, slicing-by-8.
//!
//! The record-frame and segment-header checksum. Hand-rolled because the
//! workspace vendors no checksum crate; the algorithm matches zlib's
//! `crc32()` so frames are verifiable with standard tooling.
//!
//! Every append checksums its payload and every recovery scan re-checksums
//! the whole log, so this loop is on both the write and the read path. The
//! classic loop looks up one table entry per input byte, each lookup
//! waiting on the previous one. Slicing-by-8 folds eight bytes per step:
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so the
//! eight lookups of a step are independent of one another and only their
//! XOR feeds the next step. It is the same polynomial division, regrouped —
//! the value for any input is unchanged, which is why no stored frame,
//! index or golden moved when the loop changed (the byte-wise loop is kept
//! in the tests as the reference).

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic 256-entry table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` over one more zero byte. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 of `data` (full init/finalize — equivalent to zlib `crc32(0, …)`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop every frame on disk was first written with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// Deterministic filler (xorshift), so failures reproduce.
    fn seeded(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // standard test vectors for CRC-32/ISO-HDLC
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0x0000_0000);
            assert_eq!(crc(b"123456789"), 0xcbf4_3926);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        }
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        let buf = seeded(64 + 8, 0x9e37_79b9_7f4a_7c15);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_on_a_large_buffer() {
        let buf = seeded((1 << 20) + 5, 42);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"provenance record");
        let mut flipped = b"provenance record".to_vec();
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}
