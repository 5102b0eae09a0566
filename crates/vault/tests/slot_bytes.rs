//! Slot byte pin: the bytes every digest-path change must leave alone.
//!
//! Stores a fixed set of objects in a `Replicas(3)` vault and in an
//! `Erasure { k: 4, m: 2 }` vault (in-memory backends, default
//! placement) and compares the length and fnv64 of every backend's
//! bytes for every key against values recorded before the multi-lane
//! digest kernel replaced the serial folds. A second test pins the text
//! `get` and `verify` report for a stripe with three damaged shards: one
//! whose payload no longer matches its digest, one whose geometry was
//! forged under a recomputed digest, and one truncated.
//!
//! On a mismatch the first test prints the whole table as computed, in
//! the format of `PINNED`.

use std::sync::Arc;

use bytes::Bytes;
use daspos_tiers::codec::{self, fnv64};
use daspos_vault::{
    decode_shard, encode_shard, MemoryBackend, ObjectKind, Redundancy, RetryPolicy, StorageBackend,
    Vault,
};

/// A deterministic byte pattern (an LCG's high bytes).
fn pattern(seed: u32, len: usize) -> Bytes {
    let mut x = seed;
    Bytes::from(
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect::<Vec<u8>>(),
    )
}

/// The fixed objects: empty, tiny, a sealed tier, a length that leaves
/// the last data shard padded, and one past a few pages.
fn objects() -> Vec<(&'static str, ObjectKind, Bytes)> {
    vec![
        ("empty", ObjectKind::Opaque, Bytes::new()),
        (
            "small",
            ObjectKind::Opaque,
            Bytes::from_static(b"daspos slot pin"),
        ),
        (
            "sealed.dpef",
            ObjectKind::SealedTier,
            codec::seal(&pattern(7, 3000)),
        ),
        ("odd.bin", ObjectKind::Opaque, pattern(11, 4099)),
        ("large.bin", ObjectKind::Opaque, pattern(13, 70_001)),
    ]
}

fn fixture(redundancy: Redundancy, n: usize) -> (Vault, Vec<Arc<MemoryBackend>>) {
    let backends: Vec<Arc<MemoryBackend>> =
        (0..n).map(|_| Arc::new(MemoryBackend::new())).collect();
    let vault = Vault::builder()
        .policy(RetryPolicy::none())
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(redundancy)
        .build()
        .expect("geometry fits the pool");
    (vault, backends)
}

/// `(mode, key, backend, length, fnv64)` of one stored slot.
type Row = (&'static str, &'static str, usize, usize, u64);

fn stored_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (mode, redundancy, n) in [
        ("replicas-3", Redundancy::Replicas(3), 3),
        ("erasure-4-2", Redundancy::Erasure { k: 4, m: 2 }, 6),
    ] {
        let (vault, backends) = fixture(redundancy, n);
        for (key, kind, payload) in objects() {
            vault.put(key, kind, &payload).expect("put succeeds");
            let (got_kind, got) = vault.get(key).expect("get succeeds");
            assert_eq!(
                (got_kind, &got),
                (kind, &payload),
                "{mode} {key} round trip"
            );
            for (b, backend) in backends.iter().enumerate() {
                let bytes = backend.get(key).expect("every backend holds a slot");
                rows.push((mode, key, b, bytes.len(), fnv64(&bytes)));
            }
        }
    }
    rows
}

#[rustfmt::skip]
const PINNED: [Row; 45] = [
    ("replicas-3", "empty", 0, 19, 0x252aa628514e5675),
    ("replicas-3", "empty", 1, 19, 0x252aa628514e5675),
    ("replicas-3", "empty", 2, 19, 0x252aa628514e5675),
    ("replicas-3", "small", 0, 34, 0x09f6d6186b732ea0),
    ("replicas-3", "small", 1, 34, 0x09f6d6186b732ea0),
    ("replicas-3", "small", 2, 34, 0x09f6d6186b732ea0),
    ("replicas-3", "sealed.dpef", 0, 3031, 0x932f48113a8f94d8),
    ("replicas-3", "sealed.dpef", 1, 3031, 0x932f48113a8f94d8),
    ("replicas-3", "sealed.dpef", 2, 3031, 0x932f48113a8f94d8),
    ("replicas-3", "odd.bin", 0, 4118, 0x703fdc8016b1a725),
    ("replicas-3", "odd.bin", 1, 4118, 0x703fdc8016b1a725),
    ("replicas-3", "odd.bin", 2, 4118, 0x703fdc8016b1a725),
    ("replicas-3", "large.bin", 0, 70020, 0xf0e298e6ca609ad0),
    ("replicas-3", "large.bin", 1, 70020, 0xf0e298e6ca609ad0),
    ("replicas-3", "large.bin", 2, 70020, 0xf0e298e6ca609ad0),
    ("erasure-4-2", "empty", 0, 38, 0xcb845305dd193873),
    ("erasure-4-2", "empty", 1, 38, 0xbf91d1f9c54dda11),
    ("erasure-4-2", "empty", 2, 38, 0x6bc70d5ae862a785),
    ("erasure-4-2", "empty", 3, 38, 0xb95aa0c9312b0aa9),
    ("erasure-4-2", "empty", 4, 38, 0x261be6dc6edc6f45),
    ("erasure-4-2", "empty", 5, 38, 0x44a7bbb8d23afc04),
    ("erasure-4-2", "small", 0, 42, 0x9d8724c9755d6e03),
    ("erasure-4-2", "small", 1, 42, 0x32c740ec0f9ace5d),
    ("erasure-4-2", "small", 2, 42, 0x556fcbb7779004c5),
    ("erasure-4-2", "small", 3, 42, 0xff1380df821799c6),
    ("erasure-4-2", "small", 4, 42, 0xa73ff4ada0e6b3bf),
    ("erasure-4-2", "small", 5, 42, 0x420dda8a31d830fd),
    ("erasure-4-2", "sealed.dpef", 0, 791, 0x64e7978df5de40cd),
    ("erasure-4-2", "sealed.dpef", 1, 791, 0xdf4a698de651d68f),
    ("erasure-4-2", "sealed.dpef", 2, 791, 0x47051f284e0fd376),
    ("erasure-4-2", "sealed.dpef", 3, 791, 0x49e7cbbcb687f77d),
    ("erasure-4-2", "sealed.dpef", 4, 791, 0x4f4b9adc32905706),
    ("erasure-4-2", "sealed.dpef", 5, 791, 0x336deeff95370289),
    ("erasure-4-2", "odd.bin", 0, 1063, 0x43fc9e20badf4496),
    ("erasure-4-2", "odd.bin", 1, 1063, 0x67204663d62c81e0),
    ("erasure-4-2", "odd.bin", 2, 1063, 0xdd59503f1cb9b07e),
    ("erasure-4-2", "odd.bin", 3, 1063, 0xa1947fed17604d77),
    ("erasure-4-2", "odd.bin", 4, 1063, 0x68deea108283ce91),
    ("erasure-4-2", "odd.bin", 5, 1063, 0x663c4abfb77e1cb7),
    ("erasure-4-2", "large.bin", 0, 17538, 0x6a25a940b339be22),
    ("erasure-4-2", "large.bin", 1, 17538, 0xd7601dd0d627f026),
    ("erasure-4-2", "large.bin", 2, 17538, 0xc596911550c62416),
    ("erasure-4-2", "large.bin", 3, 17538, 0xe8d41f154df04ddd),
    ("erasure-4-2", "large.bin", 4, 17538, 0x944346fcd8b35f40),
    ("erasure-4-2", "large.bin", 5, 17538, 0x5957cd3f8a2eb2d2),
];

#[test]
fn every_backends_slot_bytes_match_the_pinned_digests() {
    let rows = stored_rows();
    if rows[..] != PINNED[..] {
        let table: Vec<String> = rows
            .iter()
            .map(|(mode, key, b, len, d)| {
                format!("    ({mode:?}, {key:?}, {b}, {len}, {d:#018x}),")
            })
            .collect();
        panic!("slot bytes drifted; computed table:\n{}", table.join("\n"));
    }
}

#[test]
fn damaged_shards_are_reported_with_pinned_text() {
    let (vault, backends) = fixture(Redundancy::Erasure { k: 4, m: 2 }, 6);
    let payload = pattern(17, 5000);
    vault
        .put("obj", ObjectKind::Opaque, &payload)
        .expect("put succeeds");

    // Backend 0: one payload byte flipped, digest left stale.
    let mut rotten = backends[0].get("obj").expect("slot present").to_vec();
    let last = rotten.len() - 1;
    rotten[last] ^= 0x01;
    backends[0]
        .put("obj", &Bytes::from(rotten))
        .expect("memory put");
    // Backend 1: index re-routed, digest recomputed over the forgery.
    let raw = backends[1].get("obj").expect("slot present");
    let (mut header, shard_payload) = decode_shard(&raw).expect("pristine shard decodes");
    header.index = (header.index + 1) % 6;
    backends[1]
        .put("obj", &encode_shard(&header, &shard_payload))
        .expect("memory put");
    // Backend 2: last byte cut off.
    let raw = backends[2].get("obj").expect("slot present");
    backends[2]
        .put("obj", &raw.slice(..raw.len() - 1))
        .expect("memory put");

    let err = vault
        .get("obj")
        .expect_err("three damaged shards of 4+2 cannot recover");
    assert_eq!(
        err.to_string(),
        "'obj' is unrecoverable: only 3 of the 4 shards needed survive"
    );
    let report = vault.verify().expect("verify runs");
    assert_eq!(
        report.to_text(),
        "scrubbed 1 object(s) across 6 backend(s): 6 copies checked, 3 corrupt, 0 missing, \
         0 repaired, 1 unrecoverable; LOST beyond repair: obj\n  \
         stripe 0: 'obj' unrecoverable (3/4 shards survive)"
    );
}

#[test]
fn damaged_replicas_are_reported_with_pinned_text() {
    let (vault, backends) = fixture(Redundancy::Replicas(3), 3);
    let payload = pattern(19, 600);
    vault
        .put("obj", ObjectKind::Opaque, &payload)
        .expect("put succeeds");
    let pristine = backends[0].get("obj").expect("copy present");

    // Backend 0: one payload byte flipped, digest left stale.
    let mut rotten = pristine.to_vec();
    rotten[pristine.len() - 1] ^= 0x01;
    backends[0]
        .put("obj", &Bytes::from(rotten))
        .expect("memory put");
    // Backend 1: last byte cut off.
    backends[1]
        .put("obj", &pristine.slice(..pristine.len() - 1))
        .expect("memory put");
    // Backend 2: no envelope at all.
    backends[2]
        .put("obj", &Bytes::from_static(b"garbage"))
        .expect("memory put");

    let err = vault.get("obj").expect_err("no copy survives");
    assert_eq!(
        err.to_string(),
        "every copy of 'obj' is damaged: payload length mismatch: header says 600, got 599"
    );
    let report = vault.verify().expect("verify runs");
    assert_eq!(
        report.to_text(),
        "scrubbed 1 object(s) across 3 backend(s): 3 copies checked, 3 corrupt, 0 missing, \
         0 repaired; LOST beyond repair: obj"
    );
}
