//! Integration: the server's digests ride the vault's sweeps without
//! changing what it stores, answers or charges.
//!
//! A PUT or `PutChunk` frame's seal is checked in the pass that digests
//! the stored payload for the vault, a `PutCommit` re-read folds the
//! whole-object digest inside each chunk read's verification sweep, and
//! a GET or `GetChunk` response is sealed in the sweep that verified its
//! payload. Every expected value here comes from the unfused path:
//! `codec::unseal` for request errors, `encode_response` for response
//! frames. The restart tests pin the quota ledger and staging sweep a
//! service rebuilds from the vault at boot.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use daspos::obs::Obs;
use daspos::serve::proto::{encode_request, encode_response, split_frame, ProtoError};
use daspos::serve::stream::{self, chunk_key, chunk_prefix, StreamInfo};
use daspos::serve::{Op, Quota, Request, Response, ServeConfig, Service, Status};
use daspos::vault::{DirBackend, MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};
use daspos_tiers::codec;

const CHUNK: usize = 64 * 1024;

/// SplitMix64-expanded deterministic payload.
fn payload(seed: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len + 8);
    let mut z = seed;
    while out.len() < len {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut w = z;
        w = (w ^ (w >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        w = (w ^ (w >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        w ^= w >> 31;
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

fn memory_pool(n: usize) -> Vec<Arc<dyn StorageBackend>> {
    (0..n)
        .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
        .collect()
}

fn vault_over(backends: &[Arc<dyn StorageBackend>], redundancy: Redundancy) -> Vault {
    Vault::builder()
        .backends(backends.to_vec())
        .redundancy(redundancy)
        .build()
        .expect("vault builds")
}

fn service(
    backends: &[Arc<dyn StorageBackend>],
    redundancy: Redundancy,
    cfg: &ServeConfig,
) -> Service {
    Service::new(vault_over(backends, redundancy), cfg, Obs::disabled())
}

const ERASURE: Redundancy = Redundancy::Erasure { k: 4, m: 2 };

/// Every key and its bytes on every backend.
fn snapshot(backends: &[Arc<dyn StorageBackend>]) -> Vec<BTreeMap<String, Bytes>> {
    backends
        .iter()
        .map(|b| {
            b.list("")
                .unwrap()
                .into_iter()
                .map(|k| {
                    let v = b.get(&k).unwrap();
                    (k, v)
                })
                .collect()
        })
        .collect()
}

fn request(op: Op, tenant: &str, key: &str, kind: ObjectKind, payload: Bytes) -> Request {
    Request {
        op,
        kind,
        tenant: tenant.to_string(),
        key: key.to_string(),
        payload,
    }
}

/// The sealed body of `req`'s frame.
fn sealed(req: &Request) -> Bytes {
    split_frame(&encode_request(req)).unwrap().0
}

/// Decode a response frame the way a client does.
fn decode(frame: &Bytes) -> Response {
    let (body, used) = split_frame(frame).unwrap();
    assert_eq!(used, frame.len());
    daspos::serve::proto::decode_response(&body).unwrap()
}

fn begin_stream(svc: &Service, tenant: &str, key: &str) -> String {
    let resp = svc.handle(&request(
        Op::PutBegin,
        tenant,
        key,
        ObjectKind::SealedTier,
        stream::encode_begin(CHUNK as u32),
    ));
    assert_eq!(resp.status, Status::Ok, "{}", resp.detail);
    resp.detail
}

fn chunk_request(tenant: &str, id: &str, seq: u32, data: &[u8]) -> Request {
    request(
        Op::PutChunk,
        tenant,
        id,
        ObjectKind::Opaque,
        stream::encode_chunk(seq, data),
    )
}

/// Stream `data` into `key` through the wire surface, committing it.
fn stream_put(svc: &Service, tenant: &str, key: &str, data: &Bytes) -> Response {
    let id = begin_stream(svc, tenant, key);
    let mut chunks = 0u32;
    for (seq, part) in data.chunks(CHUNK).enumerate() {
        let (frame, close) =
            svc.handle_wire(&sealed(&chunk_request(tenant, &id, seq as u32, part)));
        assert!(!close);
        let resp = decode(&frame);
        assert_eq!(resp.status, Status::Ok, "{}", resp.detail);
        chunks += 1;
    }
    let info = StreamInfo {
        total_len: data.len() as u64,
        chunk_size: CHUNK as u32,
        chunks,
        digest: codec::fnv64(data),
    };
    svc.handle(&request(
        Op::PutCommit,
        tenant,
        &id,
        ObjectKind::Opaque,
        stream::encode_commit(&info),
    ))
}

/// What an unseal-then-parse server answers a frame whose seal fails.
fn seal_rejection(sealed: &Bytes) -> Bytes {
    let e = ProtoError::Seal(codec::unseal(sealed).unwrap_err());
    encode_response(&Response::status_only(
        Op::Stat,
        Status::BadRequest,
        format!("{} [{}]", e, e.category()),
    ))
}

/// Two ways to break a seal while the body still parses: rot one
/// payload byte, or rot the stored digest.
fn broken_seals(good: &Bytes) -> Vec<Bytes> {
    let mut in_payload = good.to_vec();
    let last = in_payload.len() - 1;
    in_payload[last] ^= 0x20;
    let mut in_digest = good.to_vec();
    in_digest[5] ^= 0x01;
    vec![Bytes::from(in_payload), Bytes::from(in_digest)]
}

#[test]
fn a_put_with_a_broken_seal_touches_nothing_and_charges_nothing() {
    let backends = memory_pool(6);
    // One token a second and exactly one payload of bytes: a charged
    // token or byte would reject the honest PUT that follows.
    let quota = Quota {
        max_bytes: 4096,
        max_inflight: 0,
        ops_per_sec: 1,
    };
    let cfg = ServeConfig::builder()
        .quota("capped", quota)
        .build()
        .unwrap();
    let svc = service(&backends, ERASURE, &cfg);
    svc.handle(&request(
        Op::Put,
        "other",
        "x",
        ObjectKind::Opaque,
        payload(1, 900),
    ));

    let put = request(Op::Put, "capped", "a", ObjectKind::Opaque, payload(2, 4096));
    let good = sealed(&put);
    for bad in broken_seals(&good) {
        let before = snapshot(&backends);
        let ops = svc.stats().ops();
        let (frame, close) = svc.handle_wire(&bad);
        assert!(close, "a protocol error hangs up");
        assert_eq!(frame, seal_rejection(&bad), "the unfused decode's response bytes");
        assert_eq!(snapshot(&backends), before, "no backend byte moved");
        assert_eq!(svc.stats().ops(), ops, "nothing was admitted");
        assert_eq!(svc.stats().quota_rejected(), 0);
    }
    let (frame, _) = svc.handle_wire(&good);
    let resp = decode(&frame);
    assert_eq!(resp.status, Status::Ok, "{}", resp.detail);
}

#[test]
fn a_put_chunk_with_a_broken_seal_touches_nothing_and_claims_nothing() {
    let backends = memory_pool(6);
    // Room for exactly one chunk: a staged or charged bad chunk would
    // reject the honest one.
    let quota = Quota {
        max_bytes: CHUNK as u64,
        max_inflight: 0,
        ops_per_sec: 0,
    };
    let cfg = ServeConfig::builder()
        .quota("streamer", quota)
        .build()
        .unwrap();
    let svc = service(&backends, ERASURE, &cfg);
    let id = begin_stream(&svc, "streamer", "big.bin");
    let data = payload(3, CHUNK);
    let good = sealed(&chunk_request("streamer", &id, 0, &data));
    for bad in broken_seals(&good) {
        let before = snapshot(&backends);
        let (frame, close) = svc.handle_wire(&bad);
        assert!(close);
        assert_eq!(frame, seal_rejection(&bad), "the unfused decode's response bytes");
        assert_eq!(snapshot(&backends), before, "no backend byte moved");
        assert_eq!(svc.open_streams(), 1, "the stream stays open and unclaimed");
    }
    let (frame, _) = svc.handle_wire(&good);
    let resp = decode(&frame);
    assert_eq!(
        (resp.status, resp.detail.as_str()),
        (Status::Ok, "chunk 0 staged"),
        "the honest chunk is still chunk 0 and still fits the quota"
    );
}

#[test]
fn losing_more_than_m_shards_of_a_staged_chunk_fails_the_commit_and_reclaims_it() {
    let backends = memory_pool(6);
    let quota = Quota {
        max_bytes: 2 * CHUNK as u64,
        max_inflight: 0,
        ops_per_sec: 0,
    };
    let cfg = ServeConfig::builder().quota("t", quota).build().unwrap();
    let svc = service(&backends, ERASURE, &cfg);
    let data = payload(4, 2 * CHUNK);
    let id = begin_stream(&svc, "t", "obj");
    for (seq, part) in data.chunks(CHUNK).enumerate() {
        let resp = decode(
            &svc.handle_wire(&sealed(&chunk_request("t", &id, seq as u32, part)))
                .0,
        );
        assert_eq!(resp.status, Status::Ok);
    }
    // Three of the six shards of chunk 1 vanish: one more than m = 2.
    let victim = svc
        .vault()
        .keys_with_prefix(&chunk_prefix("t.obj"))
        .unwrap()
        .pop()
        .unwrap();
    let mut lost = 0;
    for b in &backends {
        if lost < 3 && b.get(&victim).is_ok() {
            b.delete(&victim).unwrap();
            lost += 1;
        }
    }
    assert_eq!(lost, 3);
    let info = StreamInfo {
        total_len: data.len() as u64,
        chunk_size: CHUNK as u32,
        chunks: 2,
        digest: codec::fnv64(&data),
    };
    let aborted = svc.stats().streams_aborted();
    let commit = svc.handle(&request(
        Op::PutCommit,
        "t",
        &id,
        ObjectKind::Opaque,
        stream::encode_commit(&info),
    ));
    assert_ne!(commit.status, Status::Ok, "{}", commit.detail);
    assert!(commit.detail.contains("unrecoverable"), "{}", commit.detail);
    assert_eq!(svc.stats().streams_aborted(), aborted + 1);
    assert_eq!(svc.open_streams(), 0);
    assert!(svc
        .vault()
        .keys_with_prefix(&chunk_prefix("t.obj"))
        .unwrap()
        .is_empty());
    assert_eq!(
        svc.handle(&Request::control(Op::Get, "t", "obj")).status,
        Status::NotFound,
        "nothing was published"
    );
    // The staged bytes were released: the full quota streams again.
    let again = stream_put(&svc, "t", "obj", &data);
    assert_eq!(again.status, Status::Ok, "{}", again.detail);
}

#[test]
fn fused_get_and_get_chunk_frames_equal_encode_response() {
    for redundancy in [Redundancy::Replicas(3), ERASURE] {
        let n = match redundancy {
            Redundancy::Replicas(n) => n,
            Redundancy::Erasure { k, m } => k + m,
        };
        let backends = memory_pool(n);
        let svc = service(&backends, redundancy, &ServeConfig::default());
        for (i, len) in [0usize, 1, 4099, 70_000].into_iter().enumerate() {
            let key = format!("plain-{i}");
            let data = payload(10 + i as u64, len);
            let put = request(Op::Put, "cms", &key, ObjectKind::Container, data.clone());
            assert_eq!(decode(&svc.handle_wire(&sealed(&put)).0).status, Status::Ok);
            let get = Request::control(Op::Get, "cms", &key);
            let expected = Response {
                op: Op::Get,
                status: Status::Ok,
                detail: "container".to_string(),
                payload: data,
            };
            assert_eq!(
                svc.handle_wire(&sealed(&get)).0,
                encode_response(&expected),
                "{redundancy} GET {key}"
            );
            assert_eq!(svc.handle(&get), expected);
        }

        let data = payload(20, 2 * CHUNK + 123);
        assert_eq!(stream_put(&svc, "cms", "big", &data).status, Status::Ok);
        for (seq, part) in data.chunks(CHUNK).enumerate() {
            let get = request(
                Op::GetChunk,
                "cms",
                "big",
                ObjectKind::Opaque,
                stream::encode_get_chunk(seq as u32, CHUNK as u32),
            );
            let expected = Response {
                op: Op::GetChunk,
                status: Status::Ok,
                detail: "sealed-tier".to_string(),
                payload: stream::encode_chunk(seq as u32, part),
            };
            assert_eq!(
                svc.handle_wire(&sealed(&get)).0,
                encode_response(&expected),
                "{redundancy} chunk {seq}"
            );
            assert_eq!(svc.handle(&get), expected);
        }
        // GetBegin's digest of a plain object rides its read.
        let begin = svc.handle(&request(
            Op::GetBegin,
            "cms",
            "plain-3",
            ObjectKind::Opaque,
            stream::encode_begin(0),
        ));
        let info = stream::decode_info(&begin.payload).unwrap();
        assert_eq!(info.digest, codec::fnv64(&payload(13, 70_000)));
    }
}

#[test]
fn a_commit_sweeps_exactly_the_stale_generation_among_many_keys() {
    let backends = memory_pool(6);
    let svc = service(&backends, ERASURE, &ServeConfig::default());
    for i in 0..150 {
        let tenant = ["cms", "atlas", "lhcb"][i % 3];
        let put = request(
            Op::Put,
            tenant,
            &format!("k{i:03}"),
            ObjectKind::Opaque,
            payload(i as u64, 64),
        );
        assert_eq!(svc.handle(&put).status, Status::Ok);
    }
    assert_eq!(
        stream_put(&svc, "cms", "big", &payload(8, 2 * CHUNK)).status,
        Status::Ok
    );
    // Neighbours whose keys share text with the target's chunk prefix.
    let neighbours = ["big.v2", "bi", "big-2"];
    for key in neighbours {
        assert_eq!(
            stream_put(&svc, "cms", key, &payload(7, CHUNK + 1)).status,
            Status::Ok
        );
    }
    let stale = svc
        .vault()
        .keys_with_prefix(&chunk_prefix("cms.big"))
        .unwrap();
    assert_eq!(stale.len(), 2);

    // A racing stream toward the same key keeps its staged generation.
    let racer = begin_stream(&svc, "cms", "big");
    let resp = decode(
        &svc.handle_wire(&sealed(&chunk_request("cms", &racer, 0, &payload(9, 10))))
            .0,
    );
    assert_eq!(resp.status, Status::Ok);

    // Stage the new generation, then snapshot right before the commit.
    let data = payload(10, CHUNK + 5);
    let id = begin_stream(&svc, "cms", "big");
    for (seq, part) in data.chunks(CHUNK).enumerate() {
        let resp = decode(
            &svc.handle_wire(&sealed(&chunk_request("cms", &id, seq as u32, part)))
                .0,
        );
        assert_eq!(resp.status, Status::Ok);
    }
    let before = snapshot(&backends);
    let info = StreamInfo {
        total_len: data.len() as u64,
        chunk_size: CHUNK as u32,
        chunks: 2,
        digest: codec::fnv64(&data),
    };
    let commit = svc.handle(&request(
        Op::PutCommit,
        "cms",
        &id,
        ObjectKind::Opaque,
        stream::encode_commit(&info),
    ));
    assert_eq!(commit.status, Status::Ok, "{}", commit.detail);
    let after = snapshot(&backends);
    for (b, (old, new)) in before.iter().zip(&after).enumerate() {
        let removed: Vec<&String> = old.keys().filter(|k| !new.contains_key(*k)).collect();
        let expected: Vec<&String> = stale.iter().filter(|k| old.contains_key(*k)).collect();
        assert_eq!(
            removed, expected,
            "backend {b} lost exactly the stale chunks"
        );
        for (k, v) in new {
            if k != "cms.big" {
                assert_eq!(old.get(k), Some(v), "backend {b} key {k} is untouched");
            }
        }
    }
    for key in neighbours {
        let got = svc.handle(&request(
            Op::GetChunk,
            "cms",
            key,
            ObjectKind::Opaque,
            stream::encode_get_chunk(1, CHUNK as u32),
        ));
        assert_eq!(got.status, Status::Ok, "neighbour {key}: {}", got.detail);
    }
    let racing = chunk_key("cms.big", racer.parse().unwrap(), 0);
    assert_eq!(
        svc.vault().keys_with_prefix(&racing).unwrap(),
        [racing.clone()],
        "the racing stream's staged chunk survives"
    );
}

/// A fresh directory store under the system temp dir.
fn dir_pool(tag: &str, n: usize) -> (std::path::PathBuf, Vec<Arc<dyn StorageBackend>>) {
    let root = std::env::temp_dir().join(format!("daspos-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pool = (0..n)
        .map(|i| {
            Arc::new(DirBackend::new(root.join(format!("shard-{i}")))) as Arc<dyn StorageBackend>
        })
        .collect();
    (root, pool)
}

#[test]
fn a_restarted_service_remembers_every_tenants_stored_bytes() {
    let (root, backends) = dir_pool("quota", 6);
    let quota = Quota {
        max_bytes: 3 * CHUNK as u64,
        max_inflight: 0,
        ops_per_sec: 0,
    };
    let cfg = ServeConfig::builder()
        .quota("capped", quota)
        .build()
        .unwrap();
    {
        let svc = service(&backends, ERASURE, &cfg);
        let put = request(
            Op::Put,
            "capped",
            "small",
            ObjectKind::Opaque,
            payload(1, CHUNK),
        );
        assert_eq!(svc.handle(&put).status, Status::Ok);
        // A streamed object counts its whole length, not its manifest.
        assert_eq!(
            stream_put(&svc, "capped", "big", &payload(2, 2 * CHUNK)).status,
            Status::Ok
        );
        let full = svc.handle(&request(
            Op::Put,
            "capped",
            "more",
            ObjectKind::Opaque,
            payload(3, 1),
        ));
        assert_eq!(full.status, Status::QuotaExceeded);
        // An unlimited tenant leaves a stream that never commits.
        let id = begin_stream(&svc, "free", "orphan");
        let resp = decode(
            &svc.handle_wire(&sealed(&chunk_request("free", &id, 0, &payload(4, 99))))
                .0,
        );
        assert_eq!(resp.status, Status::Ok);
    }

    let svc = service(&backends, ERASURE, &cfg);
    let more = svc.handle(&request(
        Op::Put,
        "capped",
        "more",
        ObjectKind::Opaque,
        payload(3, 1),
    ));
    assert_eq!(more.status, Status::QuotaExceeded, "{}", more.detail);
    // Overwrites are charged by their delta against the recovered sizes.
    let shrink = svc.handle(&request(
        Op::Put,
        "capped",
        "small",
        ObjectKind::Opaque,
        payload(5, 10),
    ));
    assert_eq!(shrink.status, Status::Ok, "{}", shrink.detail);
    let more = svc.handle(&request(
        Op::Put,
        "capped",
        "more",
        ObjectKind::Opaque,
        payload(3, 1),
    ));
    assert_eq!(more.status, Status::Ok, "{}", more.detail);
    // The orphaned staging generation is gone; the committed one stays.
    assert!(svc
        .vault()
        .keys_with_prefix(&chunk_prefix("free.orphan"))
        .unwrap()
        .is_empty());
    assert_eq!(
        svc.vault()
            .keys_with_prefix(&chunk_prefix("capped.big"))
            .unwrap()
            .len(),
        2
    );
    let got = svc.handle(&request(
        Op::GetChunk,
        "capped",
        "big",
        ObjectKind::Opaque,
        stream::encode_get_chunk(1, CHUNK as u32),
    ));
    assert_eq!(
        got.payload,
        stream::encode_chunk(1, &payload(2, 2 * CHUNK)[CHUNK..])
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(root);
}
