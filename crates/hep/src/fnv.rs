//! FNV-1a 64 — the toolkit's one byte-wise content digest.
//!
//! Seals, archive sections, vault envelopes and shards, conditions
//! snapshots, stream manifests and seed derivation all hash with this
//! one pair of functions. Because FNV-1a is a sequential byte fold,
//! `fnv64_fold(fnv64_fold(FNV_BASIS, a), b) == fnv64(a ++ b)`, so a
//! digest over concatenated parts never needs them copied together.

/// FNV-1a 64 offset basis — the digest of zero bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold more bytes into a running FNV-1a 64 state.
#[inline]
pub fn fnv64_fold(mut h: u64, data: &[u8]) -> u64 {
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 over a byte slice.
#[inline]
pub fn fnv64(data: &[u8]) -> u64 {
    fnv64_fold(FNV_BASIS, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv64(b""), FNV_BASIS);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn folding_parts_equals_hashing_the_concatenation() {
        let data = b"daspos preservation vault";
        for cut in 0..=data.len() {
            assert_eq!(
                fnv64_fold(fnv64_fold(FNV_BASIS, &data[..cut]), &data[cut..]),
                fnv64(data)
            );
        }
    }
}
