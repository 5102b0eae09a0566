//! The `DPVS` shard envelope: one erasure-coded shard on the wire.
//!
//! When the vault runs under [`Redundancy::Erasure`](crate::Redundancy),
//! every backend stores not a full `DPVO` envelope but one shard of it,
//! wrapped in a `DPVS` envelope that records where the shard belongs and
//! what object it belongs to:
//!
//! ```text
//! "DPVS"  magic            4 bytes
//! version u16 le           currently 1
//! index   u8               shard index within the stripe (0..k+m)
//! k       u8               data shards in the stripe's geometry
//! m       u8               parity shards
//! object_len    u32 le     byte length of the sharded DPVO envelope
//! object_digest u64 le     fnv64 of the sharded DPVO envelope
//! shard_digest  u64 le     fnv64(index ‖ k ‖ m ‖ object_len ‖
//!                                object_digest ‖ payload)
//! shard_len     u32 le     payload length
//! payload                  exactly `shard_len` bytes
//! ```
//!
//! The shard digest covers the geometry fields as well as the payload,
//! so flipping `index`/`k`/`m` (which would silently re-route a shard
//! within the stripe) is caught by the same checksum that catches
//! payload rot. An adversary who *recomputes* the digest over tampered
//! geometry still loses: the vault checks the decoded geometry against
//! its own configured `k + m` and the decoded index against the slot it
//! read the shard from, and `object_len`/`object_digest` forgeries strand
//! the shard in a minority generation that reconstruction outvotes.

use bytes::Bytes;
use daspos_tiers::codec::{fnv64_fold, FNV_BASIS};

/// Shard envelope magic: **D**ASPOS **P**reservation **V**ault **S**hard.
pub const SHARD_MAGIC: &[u8; 4] = b"DPVS";

/// Current shard envelope wire version.
pub const SHARD_VERSION: u16 = 1;

/// Fixed bytes a shard envelope adds around its payload.
pub const SHARD_OVERHEAD: usize = 4 + 2 + 1 + 1 + 1 + 4 + 8 + 8 + 4;

/// Everything a shard envelope says about its shard, minus the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Stripe position, `0..k` data then `k..k+m` parity.
    pub index: u8,
    /// Data shard count of the stripe's geometry.
    pub k: u8,
    /// Parity shard count.
    pub m: u8,
    /// Byte length of the sharded object (the `DPVO` envelope).
    pub object_len: u32,
    /// fnv64 of the sharded object, the stripe's generation identity.
    pub object_digest: u64,
}

/// Why a shard envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Shorter than a header, or wrong magic.
    NotAShard,
    /// Unknown wire version.
    Version(u16),
    /// Geometry fields that cannot describe a stripe (`k` or `m` zero,
    /// or an index outside it).
    Geometry { index: u8, k: u8, m: u8 },
    /// Declared payload length disagrees with the actual byte count.
    Length { declared: usize, actual: usize },
    /// Stored shard digest disagrees with the recomputed one.
    Digest { stored: u64, computed: u64 },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotAShard => write!(f, "not a DPVS shard envelope"),
            ShardError::Version(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Geometry { index, k, m } => {
                write!(f, "impossible shard geometry: index {index} of {k}+{m}")
            }
            ShardError::Length { declared, actual } => write!(
                f,
                "shard length mismatch: header says {declared}, got {actual}"
            ),
            ShardError::Digest { stored, computed } => write!(
                f,
                "shard digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// The digest a shard envelope stores: fnv64 over the header fields the
/// stripe depends on, then the payload.
pub fn shard_digest(header: &ShardHeader, payload: &[u8]) -> u64 {
    let mut fields = [0u8; 15];
    fields[0] = header.index;
    fields[1] = header.k;
    fields[2] = header.m;
    fields[3..7].copy_from_slice(&header.object_len.to_le_bytes());
    fields[7..15].copy_from_slice(&header.object_digest.to_le_bytes());
    fnv64_fold(fnv64_fold(FNV_BASIS, &fields), payload)
}

/// Wrap one shard in a `DPVS` envelope.
pub fn encode_shard(header: &ShardHeader, payload: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(SHARD_OVERHEAD + payload.len());
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    out.push(header.index);
    out.push(header.k);
    out.push(header.m);
    out.extend_from_slice(&header.object_len.to_le_bytes());
    out.extend_from_slice(&header.object_digest.to_le_bytes());
    out.extend_from_slice(&shard_digest(header, payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// Unwrap a `DPVS` envelope, verifying version, geometry plausibility,
/// length, and the shard digest. The payload is a zero-copy slice.
pub fn decode_shard(data: &Bytes) -> Result<(ShardHeader, Bytes), ShardError> {
    if data.len() < SHARD_OVERHEAD || &data[..4] != SHARD_MAGIC {
        return Err(ShardError::NotAShard);
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != SHARD_VERSION {
        return Err(ShardError::Version(version));
    }
    let (index, k, m) = (data[6], data[7], data[8]);
    if k == 0 || m == 0 || u16::from(index) >= u16::from(k) + u16::from(m) {
        return Err(ShardError::Geometry { index, k, m });
    }
    let header = ShardHeader {
        index,
        k,
        m,
        object_len: u32::from_le_bytes(data[9..13].try_into().expect("4-byte slice")),
        object_digest: u64::from_le_bytes(data[13..21].try_into().expect("8-byte slice")),
    };
    let stored = u64::from_le_bytes(data[21..29].try_into().expect("8-byte slice"));
    let declared = u32::from_le_bytes(data[29..33].try_into().expect("4-byte slice")) as usize;
    let actual = data.len() - SHARD_OVERHEAD;
    if declared != actual {
        return Err(ShardError::Length { declared, actual });
    }
    let payload = data.slice(SHARD_OVERHEAD..);
    let computed = shard_digest(&header, &payload);
    if stored != computed {
        return Err(ShardError::Digest { stored, computed });
    }
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            index: 3,
            k: 4,
            m: 2,
            object_len: 1234,
            object_digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn shard_envelope_round_trips() {
        let payload = b"one shard of a stripe";
        let enc = encode_shard(&header(), payload);
        assert_eq!(enc.len(), SHARD_OVERHEAD + payload.len());
        let (h, p) = decode_shard(&enc).unwrap();
        assert_eq!(h, header());
        assert_eq!(&p[..], payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let enc = encode_shard(&header(), b"");
        let (h, p) = decode_shard(&enc).unwrap();
        assert_eq!(h, header());
        assert!(p.is_empty());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let enc = encode_shard(&header(), b"watch this shard rot");
        for bit in 0..enc.len() * 8 {
            let mut copy = enc.to_vec();
            copy[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_shard(&Bytes::from(copy)).is_err(),
                "bit {bit} flip must not decode"
            );
        }
    }

    #[test]
    fn geometry_forgery_with_recomputed_digest_still_decodes() {
        // A tampered index whose digest was *recomputed* passes envelope
        // checks by design — the vault's slot/geometry cross-check is
        // what catches it. Pin the decode-side behaviour here.
        let payload = b"shard";
        let mut forged = header();
        forged.index = 5;
        let enc = encode_shard(&forged, payload);
        let (h, _) = decode_shard(&enc).unwrap();
        assert_eq!(h.index, 5);
    }

    #[test]
    fn impossible_geometries_are_rejected() {
        for (index, k, m) in [(0u8, 0u8, 2u8), (0, 4, 0), (6, 4, 2), (255, 4, 2)] {
            let h = ShardHeader {
                index,
                k,
                m,
                object_len: 1,
                object_digest: 1,
            };
            let enc = encode_shard(&h, b"x");
            assert!(
                matches!(decode_shard(&enc), Err(ShardError::Geometry { .. })),
                "index {index} of {k}+{m} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let enc = encode_shard(&header(), b"12345678");
        assert!(matches!(
            decode_shard(&enc.slice(..enc.len() - 1)),
            Err(ShardError::Length { .. })
        ));
        let mut padded = enc.to_vec();
        padded.push(0);
        assert!(matches!(
            decode_shard(&Bytes::from(padded)),
            Err(ShardError::Length { .. })
        ));
    }
}
