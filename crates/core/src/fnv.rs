//! 64-bit FNV-1a: the one change-detector hash of the framework. It keys
//! the topic map's shards, fingerprints a workflow for its provenance
//! chart and checks proxied payloads; the golden pins of the root tests
//! are FNV-64 too. (`RunRng`'s label mix is not this hash: its multiplier
//! is `0x1000_0000_01b3`, not FNV's prime, and every seeded stream of
//! every run depends on it, so it stays as it is.)

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
pub const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_BASIS, bytes)
}

/// `hash` extended by `bytes`, so a value can be hashed piece by piece:
/// `fnv64_extend(fnv64(a), b) == fnv64(a ++ b)`.
pub fn fnv64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors, and hashing in pieces.
    #[test]
    fn known_vectors_and_extension() {
        assert_eq!(fnv64(b""), FNV64_BASIS);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv64_extend(fnv64(b"foo"), b"bar"), fnv64(b"foobar"));
    }
}
