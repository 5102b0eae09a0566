//! The preservation vault: replicated or erasure-coded storage with
//! scrubbing, repair, and checksum-verified reads.
//!
//! A [`Vault`] spreads every object across a pool of
//! [`StorageBackend`]s under a [`Redundancy`] mode chosen at build time.
//! Both modes store an object as one *stripe* of slots, one slot per
//! placed backend, and differ only in what a slot holds:
//!
//! - [`Redundancy::Replicas`] — a `k = 1` stripe: every slot holds the
//!   full checksum-carrying `DPVO` envelope, and any one healthy copy
//!   of the winning generation recovers the object.
//! - [`Redundancy::Erasure`] — the `DPVO` envelope is split into `k`
//!   data + `m` parity shards (XOR for `m = 1`, GF(256) Reed–Solomon
//!   beyond), each wrapped in a digested `DPVS` shard envelope and
//!   placed on a distinct backend by the [`PlacementPolicy`]. Reads
//!   reconstruct from any `k` healthy shards; losing more than `m`
//!   shards is reported loudly as [`VaultError::Unrecoverable`] — the
//!   vault never fabricates bytes.
//!
//! Reads and scans run one slot pipeline: classify every slot as
//! healthy (tagged with the write generation it belongs to), corrupt or
//! missing; vote for the generation the most healthy slots back;
//! recover that generation's object; then heal or repair every slot
//! that is corrupt, missing or stranded in an outvoted generation. A
//! replica read therefore votes instead of taking the first copy that
//! verifies, and a stale but valid copy left behind by an earlier write
//! is outvoted and rewritten exactly like a stale shard.
//!
//! The [`scrub`](Vault::scrub) pass makes read-time resilience a
//! recurring, deterministic sweep: it walks the union of keys across
//! all backends and rewrites damage byte-identically — copied from the
//! winning replica, or rebuilt from surviving shards.
//!
//! Every backend operation runs under the vault's
//! [`RetryPolicy`](crate::RetryPolicy); transient failures are retried
//! with exponential backoff and counted on the `vault.backend.retries`
//! counter. Scrub progress lands on
//! `vault.scrub.checked|corrupt|repaired|rebuilt|unrecoverable` and,
//! when a tracer is attached, as a span tree under `scrub`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use daspos_obs::Obs;
use daspos_tiers::codec::fnv64;

use crate::backend::{StorageBackend, StorageError};
use crate::erasure::Erasure;
use crate::object::{
    decode_envelope, encode_envelope, split_decoded_envelope, ColumnarVerifier,
    ConditionsVerifier, ObjectKind, SealedTierVerifier, Verifier,
};
use crate::policy::RetryPolicy;
use crate::shard::{decode_shard, encode_shard, ShardHeader};

/// A vault-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VaultError {
    /// The builder was asked to build a vault with zero backends.
    NoReplicas,
    /// The redundancy/backend geometry is inconsistent (replica count
    /// not matching the backend pool, erasure stripe wider than it).
    Geometry(String),
    /// No backend stores the key.
    NotFound(String),
    /// Copies of the object exist, but none passes integrity checks.
    Damaged {
        /// The object's key.
        key: String,
        /// What was wrong with the last copy examined.
        reason: String,
    },
    /// Fewer than `k` healthy shards survive: the object cannot be
    /// reconstructed, and the vault refuses to guess at the bytes.
    Unrecoverable {
        /// The object's key.
        key: String,
        /// Healthy shards of the best surviving generation.
        have: usize,
        /// Shards a reconstruction needs (= the geometry's `k`).
        need: usize,
    },
    /// A storage operation failed permanently (after retries).
    Storage(StorageError),
}

impl fmt::Display for VaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaultError::NoReplicas => write!(f, "a vault needs at least one backend"),
            VaultError::Geometry(reason) => write!(f, "bad vault geometry: {reason}"),
            VaultError::NotFound(key) => write!(f, "no backend stores '{key}'"),
            VaultError::Damaged { key, reason } => {
                write!(f, "every copy of '{key}' is damaged: {reason}")
            }
            VaultError::Unrecoverable { key, have, need } => write!(
                f,
                "'{key}' is unrecoverable: only {have} of the {need} shards needed survive"
            ),
            VaultError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for VaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VaultError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for VaultError {
    fn from(e: StorageError) -> VaultError {
        match e {
            StorageError::NotFound(key) => VaultError::NotFound(key),
            other => VaultError::Storage(other),
        }
    }
}

/// How a vault spreads an object across its backend pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Every backend stores a full copy; `n` must equal the backend
    /// count. Tolerates `n - 1` backend losses at `n`× the bytes.
    Replicas(usize),
    /// `k` data + `m` parity shards, one per backend. Tolerates `m`
    /// backend losses at `(k + m) / k`× the bytes.
    Erasure {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe.
        m: usize,
    },
}

impl Redundancy {
    /// Whole-backend losses this mode survives without data loss.
    pub fn tolerates(&self) -> usize {
        match self {
            Redundancy::Replicas(n) => n.saturating_sub(1),
            Redundancy::Erasure { m, .. } => *m,
        }
    }

    /// Bytes stored per object byte (ignoring envelope overhead).
    pub fn storage_factor(&self) -> f64 {
        match self {
            Redundancy::Replicas(n) => *n as f64,
            Redundancy::Erasure { k, m } => (k + m) as f64 / *k as f64,
        }
    }
}

impl fmt::Display for Redundancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Redundancy::Replicas(n) => write!(f, "{n} replica(s)"),
            Redundancy::Erasure { k, m } => write!(f, "erasure {k}+{m}"),
        }
    }
}

/// How stripe slots map to backends.
///
/// Both policies guarantee the placement invariant: with at least
/// `k + m` backends, no backend ever holds two slots of one stripe, so
/// losing one backend costs a stripe at most one slot. Under
/// [`Redundancy::Replicas`] every slot is the same full copy and every
/// backend holds one, so the policy only changes the order copies are
/// read in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Slot `i` of `key` lands on backend
    /// `(fnv64(key) + i) mod B` — stripes start on different backends
    /// per key, spreading parity (and rebuild load) across the pool.
    #[default]
    KeyRotation,
    /// Slot `i` always lands on backend `i` — data shards cluster on
    /// the first `k` backends. Useful for tests and debugging.
    Identity,
}

/// Builder for a [`Vault`].
pub struct VaultBuilder {
    backends: Vec<Arc<dyn StorageBackend>>,
    redundancy: Option<Redundancy>,
    placement: PlacementPolicy,
    policy: RetryPolicy,
    verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>>,
    heal_on_get: bool,
    obs: Obs,
}

impl VaultBuilder {
    fn new() -> VaultBuilder {
        let mut verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>> = BTreeMap::new();
        verifiers.insert(ObjectKind::SealedTier, Arc::new(SealedTierVerifier));
        verifiers.insert(ObjectKind::ConditionsText, Arc::new(ConditionsVerifier));
        verifiers.insert(ObjectKind::ColumnarAod, Arc::new(ColumnarVerifier));
        VaultBuilder {
            backends: Vec::new(),
            redundancy: None,
            placement: PlacementPolicy::default(),
            policy: RetryPolicy::default(),
            verifiers,
            heal_on_get: true,
            obs: Obs::disabled(),
        }
    }

    /// The backend pool, in placement order.
    pub fn backends(mut self, backends: Vec<Arc<dyn StorageBackend>>) -> VaultBuilder {
        self.backends = backends;
        self
    }

    /// Choose the redundancy mode. Defaults to
    /// [`Redundancy::Replicas`] over the whole backend pool.
    pub fn redundancy(mut self, redundancy: Redundancy) -> VaultBuilder {
        self.redundancy = Some(redundancy);
        self
    }

    /// Choose the slot placement policy (default
    /// [`PlacementPolicy::KeyRotation`]).
    pub fn placement(mut self, placement: PlacementPolicy) -> VaultBuilder {
        self.placement = placement;
        self
    }

    /// Override the per-operation retry policy.
    pub fn policy(mut self, policy: RetryPolicy) -> VaultBuilder {
        self.policy = policy;
        self
    }

    /// Register (or replace) the deep verifier for one object kind.
    /// `SealedTier` and `ConditionsText` verifiers are pre-registered.
    pub fn verifier(mut self, verifier: Arc<dyn Verifier>) -> VaultBuilder {
        self.verifiers.insert(verifier.kind(), verifier);
        self
    }

    /// Whether `get` rewrites damaged or outvoted slots it read past
    /// (default true).
    pub fn heal_on_get(mut self, heal: bool) -> VaultBuilder {
        self.heal_on_get = heal;
        self
    }

    /// Attach an observability bundle (spans + counters).
    pub fn with_obs(mut self, obs: Obs) -> VaultBuilder {
        self.obs = obs;
        self
    }

    /// Build the vault. Fails with [`VaultError::NoReplicas`] on an
    /// empty backend pool, [`VaultError::Geometry`] when the redundancy
    /// mode does not fit it.
    pub fn build(self) -> Result<Vault, VaultError> {
        if self.backends.is_empty() {
            return Err(VaultError::NoReplicas);
        }
        let redundancy = self
            .redundancy
            .unwrap_or(Redundancy::Replicas(self.backends.len()));
        let (layout, width) = match redundancy {
            Redundancy::Replicas(n) => {
                if n == 0 || n != self.backends.len() {
                    return Err(VaultError::Geometry(format!(
                        "Replicas({n}) needs exactly {n} backend(s), got {}",
                        self.backends.len()
                    )));
                }
                (Layout::Replicas, n)
            }
            Redundancy::Erasure { k, m } => {
                let ec = Erasure::new(k, m).map_err(|e| VaultError::Geometry(e.to_string()))?;
                if ec.total() > self.backends.len() {
                    return Err(VaultError::Geometry(format!(
                        "erasure {k}+{m} needs at least {} backends, got {}",
                        k + m,
                        self.backends.len()
                    )));
                }
                (Layout::Erasure(ec), ec.total())
            }
        };
        Ok(Vault {
            backends: self.backends,
            redundancy,
            placement: self.placement,
            layout,
            width,
            policy: self.policy,
            verifiers: self.verifiers,
            heal_on_get: self.heal_on_get,
            obs: self.obs,
        })
    }
}

/// What a slot holds — the one piece of vault state that differs
/// between redundancy modes.
enum Layout {
    /// Every slot holds the unchanged `DPVO` envelope: a `k = 1` stripe.
    Replicas,
    /// Slot `i` holds `DPVS` shard `i` of the envelope.
    Erasure(Erasure),
}

/// A write generation: `(object length, object digest)`. A replica slot
/// reports its envelope's length and the digest the envelope header
/// already stores; a shard slot the `object_len`/`object_digest` its
/// `DPVS` header records for the envelope it was cut from.
type Generation = (usize, u64);

/// How one slot of a key's stripe fared during a read or scan.
enum SlotState {
    /// The slot decodes and checks out. `bytes` is the whole envelope
    /// (replica) or the shard payload (erasure).
    Healthy { generation: Generation, bytes: Bytes },
    Corrupt(String),
    Missing,
}

impl SlotState {
    /// Present but not part of the `winner` generation: corrupt, or a
    /// valid slot stranded in an outvoted generation.
    fn is_damaged(&self, winner: Option<Generation>) -> bool {
        match self {
            SlotState::Healthy { generation, .. } => Some(*generation) != winner,
            SlotState::Corrupt(_) => true,
            SlotState::Missing => false,
        }
    }

    /// The slot's bytes when it is a healthy member of `winner`.
    fn winning_bytes(&self, winner: Option<Generation>) -> Option<&Bytes> {
        match self {
            SlotState::Healthy { generation, bytes } if Some(*generation) == winner => Some(bytes),
            _ => None,
        }
    }
}

/// Pick the stripe's winning generation: the one backed by the most
/// healthy slots, ties broken toward the larger `(length, digest)` so
/// every reader and every scrub picks the same one. Returns the
/// generation and its healthy slot count.
fn vote(states: &[SlotState]) -> Option<(Generation, usize)> {
    let mut counts: BTreeMap<Generation, usize> = BTreeMap::new();
    for s in states {
        if let SlotState::Healthy { generation, .. } = s {
            *counts.entry(*generation).or_default() += 1;
        }
    }
    counts.into_iter().max_by_key(|&(generation, n)| (n, generation))
}

/// A key's winning generation, recovered and verified end to end.
struct Recovered {
    kind: ObjectKind,
    payload: Bytes,
    /// The whole `DPVO` envelope, the source every repair re-encodes.
    envelope: Bytes,
    /// Recovery decoded the envelope from shards, so every repair from
    /// it is a rebuild rather than a copy.
    rebuilt: bool,
}

/// Why a key's winning generation could not be recovered.
struct Loss {
    /// What [`Vault::get`] reports.
    error: VaultError,
    /// The stripe detail a scrub records and counts as unrecoverable.
    /// `None` when no replica copy survives: scrub reports the key lost
    /// and nothing more.
    unrecoverable: Option<String>,
}

/// The outcome of a [`scrub`](Vault::scrub) or [`verify`](Vault::verify)
/// pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Distinct keys seen across all backends.
    pub objects: usize,
    /// Backend count of the vault.
    pub replicas: usize,
    /// Copies or shards examined (present ones, healthy or not).
    pub checked: u64,
    /// Copies or shards failing digests, deep verification, geometry
    /// checks, or stranded in an outvoted write generation.
    pub corrupt: u64,
    /// Copies or shards absent from their backend while the key exists
    /// elsewhere.
    pub missing: u64,
    /// Damaged or missing copies/shards rewritten from verified data.
    pub repaired: u64,
    /// Repairs that required erasure reconstruction from surviving
    /// shards (always ≤ `repaired`; zero in replica mode).
    pub rebuilt: u64,
    /// Objects with too few healthy shards to reconstruct. These also
    /// appear in [`lost`](ScrubReport::lost) and make
    /// [`clean`](ScrubReport::clean) false.
    pub unrecoverable: u64,
    /// Keys beyond repair: zero healthy copies, or fewer than `k`
    /// healthy shards.
    pub lost: Vec<String>,
    /// Per-stripe repair detail, one line per rebuilt shard or
    /// unrecoverable object (erasure mode).
    pub details: Vec<String>,
}

impl ScrubReport {
    /// True when no unrepaired damage remains: every corrupt or missing
    /// copy was repaired and nothing is lost or unrecoverable.
    pub fn clean(&self) -> bool {
        self.lost.is_empty()
            && self.unrecoverable == 0
            && self.corrupt + self.missing == self.repaired
    }

    /// Fold another report into this one (summing counts, concatenating
    /// lost keys and details) — the merge step when per-object scrubs
    /// are fanned out across a worker pool.
    pub fn absorb(&mut self, other: ScrubReport) {
        self.objects += other.objects;
        self.replicas = self.replicas.max(other.replicas);
        self.checked += other.checked;
        self.corrupt += other.corrupt;
        self.missing += other.missing;
        self.repaired += other.repaired;
        self.rebuilt += other.rebuilt;
        self.unrecoverable += other.unrecoverable;
        self.lost.extend(other.lost);
        self.details.extend(other.details);
    }

    /// Human-readable summary: a one-paragraph tally, then one line per
    /// shard-level repair event.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "scrubbed {} object(s) across {} backend(s): {} copies checked, \
             {} corrupt, {} missing, {} repaired",
            self.objects, self.replicas, self.checked, self.corrupt, self.missing, self.repaired
        );
        if self.rebuilt > 0 {
            s.push_str(&format!(" ({} rebuilt from surviving shards)", self.rebuilt));
        }
        if self.unrecoverable > 0 {
            s.push_str(&format!(", {} unrecoverable", self.unrecoverable));
        }
        if self.lost.is_empty() {
            s.push_str(if self.clean() {
                "; vault is clean"
            } else {
                "; damage remains"
            });
        } else {
            s.push_str(&format!("; LOST beyond repair: {}", self.lost.join(", ")));
        }
        for d in &self.details {
            s.push('\n');
            s.push_str("  ");
            s.push_str(d);
        }
        s
    }
}

/// A redundant preservation store with scrubbing and self-healing
/// repair. Construct via [`Vault::builder`].
pub struct Vault {
    backends: Vec<Arc<dyn StorageBackend>>,
    redundancy: Redundancy,
    placement: PlacementPolicy,
    layout: Layout,
    /// Slots per stripe: `n` replicas, or `k + m` shards.
    width: usize,
    policy: RetryPolicy,
    verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>>,
    heal_on_get: bool,
    obs: Obs,
}

impl Vault {
    /// Start building a vault.
    pub fn builder() -> VaultBuilder {
        VaultBuilder::new()
    }

    /// Number of backends in the pool.
    pub fn replica_count(&self) -> usize {
        self.backends.len()
    }

    /// The redundancy mode this vault was built with.
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// The slot placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// The backend storing slot `i` of `key`'s stripe.
    fn slot_backend(&self, key: &str, slot: usize) -> usize {
        let n = self.backends.len();
        match self.placement {
            PlacementPolicy::Identity => slot % n,
            PlacementPolicy::KeyRotation => {
                ((fnv64(key.as_bytes()) % n as u64) as usize + slot) % n
            }
        }
    }

    /// Run one backend operation under the retry policy. Transient
    /// failures back off exponentially until the attempt or time budget
    /// runs out; every retry bumps `vault.backend.retries`.
    fn with_retry<T>(&self, f: impl Fn() -> Result<T, StorageError>) -> Result<T, StorageError> {
        let start = Instant::now();
        let mut attempt = 1u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(StorageError::Transient(msg)) => {
                    let delay = self.policy.delay_for(attempt);
                    if attempt >= self.policy.max_attempts
                        || start.elapsed() + delay > self.policy.timeout
                    {
                        return Err(StorageError::Transient(msg));
                    }
                    if let Some(reg) = self.obs.registry() {
                        reg.add("vault.backend.retries", 1);
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Write slot `i` of `key`'s stripe to its backend.
    fn put_slot(&self, key: &str, i: usize, slot: &Bytes) -> Result<(), StorageError> {
        let backend = &self.backends[self.slot_backend(key, i)];
        self.with_retry(|| backend.put(key, slot))
    }

    /// Store `payload` as `kind` under `key`: one slot per placed
    /// backend — a full envelope in replica mode, a `DPVS` shard in
    /// erasure mode.
    ///
    /// Backends that fail permanently are skipped (and the first such
    /// error returned) *after* all remaining backends were attempted, so
    /// one bad backend never blocks the others from receiving the object
    /// — the next scrub re-converges the stragglers.
    pub fn put(&self, key: &str, kind: ObjectKind, payload: &Bytes) -> Result<(), VaultError> {
        let envelope = encode_envelope(kind, payload);
        let mut first_err = None;
        for (i, slot) in self.encode_slots(&envelope).iter().enumerate() {
            if let Err(e) = self.put_slot(key, i, slot) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(VaultError::from(e)),
        }
    }

    /// [`put`](Vault::put) with the kind sniffed from the payload's
    /// leading magic.
    pub fn put_detected(&self, key: &str, payload: &Bytes) -> Result<ObjectKind, VaultError> {
        let kind = ObjectKind::sniff(payload);
        self.put(key, kind, payload)?;
        Ok(kind)
    }

    /// Remove `key` from every backend (full copies or stripe shards
    /// alike). Idempotent: deleting an absent key succeeds, and a
    /// backend that fails is skipped so the others still reclaim —
    /// mirroring [`put`](Vault::put)'s one-bad-backend tolerance. The
    /// serve layer leans on this to sweep superseded stream-chunk
    /// generations.
    pub fn delete(&self, key: &str) -> Result<(), VaultError> {
        let mut first_err = None;
        for backend in &self.backends {
            match self.with_retry(|| backend.delete(key)) {
                Ok(()) | Err(StorageError::NotFound(_)) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(reg) = self.obs.registry() {
            reg.add("vault.deletes", 1);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(VaultError::from(e)),
        }
    }

    /// Encode one `DPVO` envelope into its stripe's slots, slot `i` at
    /// index `i`: the envelope itself for every replica, or the `k + m`
    /// `DPVS` shard envelopes. Deterministic — re-encoding the same
    /// envelope yields byte-identical slots, which is what makes every
    /// repair byte-identical too.
    fn encode_slots(&self, envelope: &Bytes) -> Vec<Bytes> {
        match &self.layout {
            Layout::Replicas => vec![envelope.clone(); self.width],
            Layout::Erasure(ec) => {
                let object_digest = fnv64(envelope);
                ec.encode(envelope)
                    .into_iter()
                    .enumerate()
                    .map(|(i, payload)| {
                        encode_shard(
                            &ShardHeader {
                                index: i as u8,
                                k: ec.k() as u8,
                                m: ec.m() as u8,
                                object_len: envelope.len() as u32,
                                object_digest,
                            },
                            &payload,
                        )
                    })
                    .collect()
            }
        }
    }

    /// Read and classify slot `i` of `key`. A replica slot must decode
    /// as a `DPVO` envelope and pass its kind's deep verifier; its
    /// generation comes from the header, so no second hash pass runs. A
    /// shard slot must decode as a `DPVS` envelope whose geometry
    /// matches the vault's and whose index matches the slot it was read
    /// from — which is what catches geometry tampering even when the
    /// shard digest was recomputed.
    fn classify_slot(&self, key: &str, i: usize) -> SlotState {
        let backend = &self.backends[self.slot_backend(key, i)];
        let raw = match self.with_retry(|| backend.get(key)) {
            Ok(raw) => raw,
            Err(StorageError::NotFound(_)) => return SlotState::Missing,
            Err(e) => return SlotState::Corrupt(format!("unreadable: {e}")),
        };
        match &self.layout {
            Layout::Replicas => {
                let (kind, payload) = match decode_envelope(&raw) {
                    Ok(parts) => parts,
                    Err(e) => return SlotState::Corrupt(e.to_string()),
                };
                if let Err(reason) = self.deep_verify(kind, &payload) {
                    return SlotState::Corrupt(reason);
                }
                let (_, digest, _) = split_decoded_envelope(&raw);
                SlotState::Healthy {
                    generation: (raw.len(), digest),
                    bytes: raw,
                }
            }
            Layout::Erasure(ec) => {
                let (header, payload) = match decode_shard(&raw) {
                    Ok(parts) => parts,
                    Err(e) => return SlotState::Corrupt(e.to_string()),
                };
                if header.k as usize != ec.k()
                    || header.m as usize != ec.m()
                    || header.index as usize != i
                {
                    return SlotState::Corrupt(format!(
                        "shard geometry mismatch: header claims shard {} of {}+{}, slot expects {} of {}+{}",
                        header.index,
                        header.k,
                        header.m,
                        i,
                        ec.k(),
                        ec.m()
                    ));
                }
                SlotState::Healthy {
                    generation: (header.object_len as usize, header.object_digest),
                    bytes: payload,
                }
            }
        }
    }

    /// Recover the `winner` generation's object from its healthy slots.
    /// A replica stripe returns a winning copy as is — classification
    /// already verified it. An erasure stripe needs `k` winning shards,
    /// decodes them, and verifies the result end to end (object digest,
    /// envelope decode, deep verifier) before anyone trusts the bytes.
    fn reconstruct(
        &self,
        key: &str,
        states: &[SlotState],
        winner: Option<(Generation, usize)>,
    ) -> Result<Recovered, Loss> {
        let generation = winner.map(|(g, _)| g);
        match &self.layout {
            Layout::Replicas => {
                let Some(envelope) = states.iter().find_map(|s| s.winning_bytes(generation)) else {
                    let reason = states.iter().rev().find_map(|s| match s {
                        SlotState::Corrupt(reason) => Some(reason.clone()),
                        _ => None,
                    });
                    return Err(Loss {
                        error: VaultError::Damaged {
                            key: key.to_string(),
                            reason: reason.unwrap_or_default(),
                        },
                        unrecoverable: None,
                    });
                };
                let (kind, _, payload) = split_decoded_envelope(envelope);
                Ok(Recovered {
                    kind,
                    payload,
                    envelope: envelope.clone(),
                    rebuilt: false,
                })
            }
            Layout::Erasure(ec) => {
                let have = winner.map_or(0, |(_, n)| n);
                let Some((object_len, object_digest)) = generation.filter(|_| have >= ec.k())
                else {
                    return Err(Loss {
                        error: VaultError::Unrecoverable {
                            key: key.to_string(),
                            have,
                            need: ec.k(),
                        },
                        unrecoverable: Some(format!(
                            "unrecoverable ({have}/{} shards survive)",
                            ec.k()
                        )),
                    });
                };
                let damaged = |reason: String| Loss {
                    unrecoverable: Some(format!("reconstructs but is damaged: {reason}")),
                    error: VaultError::Damaged {
                        key: key.to_string(),
                        reason,
                    },
                };
                let slots: Vec<Option<&[u8]>> = states
                    .iter()
                    .map(|s| s.winning_bytes(generation).map(|b| b.as_ref()))
                    .collect();
                let envelope = Bytes::from(
                    ec.decode(&slots, object_len)
                        .map_err(|e| damaged(e.to_string()))?,
                );
                if fnv64(&envelope) != object_digest {
                    return Err(damaged("reconstructed object digest mismatch".to_string()));
                }
                let (kind, payload) = decode_envelope(&envelope)
                    .map_err(|e| damaged(format!("reconstructed object: {e}")))?;
                self.deep_verify(kind, &payload)
                    .map_err(|reason| damaged(format!("deep verification: {reason}")))?;
                Ok(Recovered {
                    kind,
                    payload,
                    envelope,
                    rebuilt: true,
                })
            }
        }
    }

    /// Run the deep verifier registered for `kind`, if any.
    fn deep_verify(&self, kind: ObjectKind, payload: &Bytes) -> Result<(), String> {
        match self.verifiers.get(&kind) {
            Some(verifier) => verifier.verify(payload),
            None => Ok(()),
        }
    }

    /// Classify every slot of `key`'s stripe, slot order.
    fn classify_stripe(&self, key: &str) -> Vec<SlotState> {
        (0..self.width).map(|i| self.classify_slot(key, i)).collect()
    }

    /// Checksum-verified read: classify every slot, vote, and recover
    /// the winning generation — a verified copy in replica mode, a
    /// reconstruction from any `k` healthy shards in erasure mode. With
    /// [`heal_on_get`](VaultBuilder::heal_on_get), corrupt and outvoted
    /// slots are rewritten (best-effort); absent slots wait for scrub.
    pub fn get(&self, key: &str) -> Result<(ObjectKind, Bytes), VaultError> {
        let states = self.classify_stripe(key);
        if states.iter().all(|s| matches!(s, SlotState::Missing)) {
            return Err(VaultError::NotFound(key.to_string()));
        }
        let winner = vote(&states);
        let recovered = self
            .reconstruct(key, &states, winner)
            .map_err(|loss| loss.error)?;
        let generation = winner.map(|(g, _)| g);
        if self.heal_on_get && states.iter().any(|s| s.is_damaged(generation)) {
            let slots = self.encode_slots(&recovered.envelope);
            for (i, state) in states.iter().enumerate() {
                if state.is_damaged(generation) {
                    let _ = self.put_slot(key, i, &slots[i]);
                }
            }
        }
        Ok((recovered.kind, recovered.payload))
    }

    /// All keys stored on at least one backend, ascending.
    pub fn keys(&self) -> Result<Vec<String>, VaultError> {
        let mut keys = BTreeSet::new();
        for backend in &self.backends {
            keys.extend(self.with_retry(|| backend.list(""))?);
        }
        Ok(keys.into_iter().collect())
    }

    /// Integrity sweep with self-healing repair: every damaged, missing
    /// or outvoted slot is rewritten byte-identically — copied from the
    /// winning replica, or rebuilt from surviving shards.
    pub fn scrub(&self) -> Result<ScrubReport, VaultError> {
        self.scan(true)
    }

    /// Integrity sweep without repair — reports damage, changes nothing.
    pub fn verify(&self) -> Result<ScrubReport, VaultError> {
        self.scan(false)
    }

    /// Count one key's classified slots into `report` against the
    /// winning generation and (optionally) rewrite every other slot
    /// from the recovered object. An object that cannot be recovered is
    /// reported lost — loudly as unrecoverable when a stripe detail
    /// explains why — and nothing is ever fabricated. `stripe` is the
    /// scan-order index used in detail lines.
    fn judge(
        &self,
        stripe: usize,
        key: &str,
        states: &[SlotState],
        repair: bool,
        report: &mut ScrubReport,
        span: &daspos_obs::Span,
    ) {
        let winner = vote(states);
        let generation = winner.map(|(g, _)| g);
        let mut corrupt_here = 0u64;
        let mut missing_here = 0u64;
        let mut bad_slots: Vec<usize> = Vec::new();
        for (i, state) in states.iter().enumerate() {
            if matches!(state, SlotState::Missing) {
                missing_here += 1;
                bad_slots.push(i);
                continue;
            }
            report.checked += 1;
            if state.is_damaged(generation) {
                corrupt_here += 1;
                bad_slots.push(i);
            }
        }
        report.corrupt += corrupt_here;
        report.missing += missing_here;

        let mut repaired_here = 0u64;
        let mut rebuilt_here = 0u64;
        let recovered = match self.reconstruct(key, states, winner) {
            Ok(recovered) => {
                if repair && !bad_slots.is_empty() {
                    let slots = self.encode_slots(&recovered.envelope);
                    for &i in &bad_slots {
                        if self.put_slot(key, i, &slots[i]).is_ok() {
                            repaired_here += 1;
                            if recovered.rebuilt {
                                rebuilt_here += 1;
                                report.details.push(format!(
                                    "stripe {stripe}: rebuilt shard {i}/{} on backend {}",
                                    self.width,
                                    self.backends[self.slot_backend(key, i)].name()
                                ));
                            }
                        }
                    }
                }
                true
            }
            Err(loss) => {
                report.lost.push(key.to_string());
                if let Some(detail) = loss.unrecoverable {
                    report.unrecoverable += 1;
                    report
                        .details
                        .push(format!("stripe {stripe}: '{key}' {detail}"));
                }
                false
            }
        };
        report.repaired += repaired_here;
        report.rebuilt += rebuilt_here;

        if span.enabled() {
            let mut child = span.child_fmt(format_args!("object-{key}"));
            child.field("corrupt", corrupt_here);
            child.field("missing", missing_here);
            child.field("repaired", repaired_here);
            child.field("rebuilt", rebuilt_here);
            child.field("recovered", usize::from(recovered));
            child.finish();
        }
    }

    fn record_scrub_counters(&self, report: &ScrubReport) {
        if let Some(reg) = self.obs.registry() {
            reg.add("vault.scrub.checked", report.checked);
            reg.add("vault.scrub.corrupt", report.corrupt);
            reg.add("vault.scrub.repaired", report.repaired);
            reg.add("vault.scrub.rebuilt", report.rebuilt);
            reg.add("vault.scrub.unrecoverable", report.unrecoverable);
        }
    }

    fn scan(&self, repair: bool) -> Result<ScrubReport, VaultError> {
        let keys = self.keys()?;
        let mut span = self
            .obs
            .tracer
            .span(if repair { "scrub" } else { "verify" });
        span.field("replicas", self.backends.len());
        span.field("objects", keys.len());

        let mut report = ScrubReport {
            objects: keys.len(),
            replicas: self.backends.len(),
            ..ScrubReport::default()
        };
        for (stripe, key) in keys.iter().enumerate() {
            let states = self.classify_stripe(key);
            self.judge(stripe, key, &states, repair, &mut report, &span);
        }
        self.record_scrub_counters(&report);
        span.field("corrupt", report.corrupt);
        span.field("repaired", report.repaired);
        span.field("lost", report.lost.len());
        span.finish();
        Ok(report)
    }

    /// Scrub (with repair) a single object — the unit of work the
    /// preservation service's background scrubber interleaves between
    /// foreground requests, so one tick never holds the vault for a full
    /// sweep. Reports [`VaultError::NotFound`] when no backend stores
    /// the key at all.
    pub fn scrub_object(&self, key: &str) -> Result<ScrubReport, VaultError> {
        self.scan_one(key, true, &|| true)
            .map(|report| report.expect("never abandoned"))
    }

    /// Integrity-check a single object without repairing anything.
    pub fn verify_object(&self, key: &str) -> Result<ScrubReport, VaultError> {
        self.scan_one(key, false, &|| true)
            .map(|report| report.expect("never abandoned"))
    }

    /// Like [`scrub_object`](Vault::scrub_object), but cooperatively
    /// abandonable: `keep_going` is consulted before every slot
    /// classification (each one reads, and may deep-verify, a full copy
    /// or shard) and once more before any repair writes start. When it
    /// turns false the scrub returns `Ok(None)` having mutated nothing —
    /// the caller retries the whole object on a later tick. This bounds
    /// how long a background scrubber can monopolize the store to one
    /// classification instead of a full sweep.
    pub fn scrub_object_while(
        &self,
        key: &str,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ScrubReport>, VaultError> {
        self.scan_one(key, true, keep_going)
    }

    fn scan_one(
        &self,
        key: &str,
        repair: bool,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ScrubReport>, VaultError> {
        let mut span = self.obs.tracer.span(if repair {
            "scrub-object"
        } else {
            "verify-object"
        });
        span.field("replicas", self.backends.len());
        // One check before every slot, and one more between the last
        // classification and the repairs it would start.
        let mut states = Vec::with_capacity(self.width);
        for i in 0..=self.width {
            if !keep_going() {
                span.field("abandoned", 1usize);
                span.finish();
                return Ok(None);
            }
            if i < self.width {
                states.push(self.classify_slot(key, i));
            }
        }
        let mut report = ScrubReport {
            objects: 1,
            replicas: self.backends.len(),
            ..ScrubReport::default()
        };
        self.judge(0, key, &states, repair, &mut report, &span);
        if report.checked == 0 {
            // Every backend reported the key absent: not damage, absence.
            return Err(VaultError::NotFound(key.to_string()));
        }
        self.record_scrub_counters(&report);
        span.field("corrupt", report.corrupt);
        span.field("repaired", report.repaired);
        span.finish();
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::flaky::{FlakyBackend, FlakyConfig};
    use daspos_obs::{MemoryCollector, MetricsRegistry};
    use daspos_tiers::codec;

    fn pool(n: usize) -> (Vec<Arc<dyn StorageBackend>>, Vec<Arc<MemoryBackend>>) {
        let mems: Vec<Arc<MemoryBackend>> =
            (0..n).map(|_| Arc::new(MemoryBackend::new())).collect();
        let dyns = mems
            .iter()
            .map(|b| b.clone() as Arc<dyn StorageBackend>)
            .collect();
        (dyns, mems)
    }

    fn three_replica_vault() -> (Vault, Vec<Arc<MemoryBackend>>) {
        let (dyns, mems) = pool(3);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Replicas(3))
            .build()
            .unwrap();
        (vault, mems)
    }

    fn erasure_vault(k: usize, m: usize, n: usize) -> (Vault, Vec<Arc<MemoryBackend>>) {
        let (dyns, mems) = pool(n);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k, m })
            .build()
            .unwrap();
        (vault, mems)
    }

    #[test]
    fn build_requires_a_backend() {
        assert!(matches!(
            Vault::builder().build(),
            Err(VaultError::NoReplicas)
        ));
    }

    #[test]
    fn build_validates_the_geometry() {
        let (dyns, _) = pool(3);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Replicas(2))
                .build(),
            Err(VaultError::Geometry(_))
        ));
        let (dyns, _) = pool(3);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Erasure { k: 4, m: 2 })
                .build(),
            Err(VaultError::Geometry(_))
        ));
        let (dyns, _) = pool(2);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Erasure { k: 0, m: 2 })
                .build(),
            Err(VaultError::Geometry(_))
        ));
        // Defaults: full-pool replication.
        let (dyns, _) = pool(2);
        let vault = Vault::builder().backends(dyns).build().unwrap();
        assert_eq!(vault.redundancy(), Redundancy::Replicas(2));
    }

    #[test]
    fn put_replicates_and_get_round_trips() {
        let (vault, backends) = three_replica_vault();
        let payload = Bytes::from_static(b"artifact bytes");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let envelope = encode_envelope(ObjectKind::Opaque, &payload);
        for b in &backends {
            assert_eq!(b.len(), 1, "every replica holds a copy");
            assert_eq!(b.get("obj").unwrap(), envelope, "a copy is the bare envelope");
        }
        let (kind, got) = vault.get("obj").unwrap();
        assert_eq!(kind, ObjectKind::Opaque);
        assert_eq!(got, payload);
        assert!(matches!(vault.get("nope"), Err(VaultError::NotFound(_))));
    }

    #[test]
    fn get_falls_back_past_a_corrupt_replica_and_heals_it() {
        let (vault, backends) = three_replica_vault();
        let payload = Bytes::from_static(b"precious");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine = backends[1].get("obj").unwrap();
        // Rot replica 0.
        let mut rotten = pristine.to_vec();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x01;
        backends[0].put("obj", &Bytes::from(rotten)).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload, "read falls back to the healthy copy");
        assert_eq!(
            backends[0].get("obj").unwrap(),
            pristine,
            "heal-on-get rewrote replica 0 byte-identically"
        );
    }

    #[test]
    fn a_stale_but_valid_replica_is_outvoted_on_get_and_rewritten_by_scrub() {
        let (vault, backends) = three_replica_vault();
        let old = Bytes::from_static(b"generation one");
        let new = Bytes::from_static(b"generation two");
        vault.put("obj", ObjectKind::Opaque, &old).unwrap();
        let stale = backends[0].get("obj").unwrap();
        vault.put("obj", ObjectKind::Opaque, &new).unwrap();
        let fresh = backends[1].get("obj").unwrap();
        // The stale envelope is honestly digested: only the vote can
        // tell it from the current generation.
        backends[0].put("obj", &stale).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, new, "two fresh copies outvote one stale copy");
        assert_eq!(backends[0].get("obj").unwrap(), fresh, "heal-on-get rewrote it");

        backends[0].put("obj", &stale).unwrap();
        let report = vault.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.repaired), (3, 1, 1));
        assert_eq!(report.rebuilt, 0, "replica repair copies, never rebuilds");
        assert!(report.clean(), "{}", report.to_text());
        for b in &backends {
            assert_eq!(b.get("obj").unwrap(), fresh, "all three copies agree");
        }
    }

    #[test]
    fn get_reports_damaged_when_no_copy_survives() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        for b in &backends {
            b.put("obj", &Bytes::from_static(b"garbage")).unwrap();
        }
        assert!(matches!(vault.get("obj"), Err(VaultError::Damaged { .. })));
    }

    #[test]
    fn scrub_repairs_corrupt_and_missing_copies_byte_identically() {
        let (vault, backends) = three_replica_vault();
        let sealed = codec::seal(&Bytes::from_static(b"tier payload"));
        vault.put("tier", ObjectKind::SealedTier, &sealed).unwrap();
        vault
            .put("blob", ObjectKind::Opaque, &Bytes::from_static(b"blob"))
            .unwrap();
        let pristine = backends[0].get("tier").unwrap();

        // Damage one copy, drop another.
        let mut rotten = pristine.to_vec();
        rotten[pristine.len() / 2] ^= 0x40;
        backends[2].put("tier", &Bytes::from(rotten)).unwrap();
        backends[1].delete("blob").unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.objects, 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.missing, 1);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.rebuilt, 0, "replica repair copies, never rebuilds");
        assert!(report.clean(), "{}", report.to_text());
        assert_eq!(backends[2].get("tier").unwrap(), pristine);
        assert_eq!(
            backends[1].get("blob").unwrap(),
            backends[0].get("blob").unwrap()
        );

        // A second pass finds nothing to do.
        let again = vault.verify().unwrap();
        assert_eq!(again.corrupt + again.missing, 0);
        assert!(again.clean());
    }

    #[test]
    fn scrub_object_repairs_one_key_and_reports_absence() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("a", ObjectKind::Opaque, &Bytes::from_static(b"aa"))
            .unwrap();
        vault
            .put("b", ObjectKind::Opaque, &Bytes::from_static(b"bb"))
            .unwrap();
        backends[1].put("a", &Bytes::from_static(b"rot")).unwrap();
        backends[2].delete("b").unwrap();

        // Scrubbing 'a' repairs 'a' only; 'b' stays damaged.
        let report = vault.scrub_object("a").unwrap();
        assert_eq!((report.objects, report.corrupt, report.repaired), (1, 1, 1));
        assert!(report.clean(), "{}", report.to_text());
        assert!(matches!(
            backends[2].get("b"),
            Err(StorageError::NotFound(_))
        ));

        // verify_object reports without repairing.
        let report = vault.verify_object("b").unwrap();
        assert_eq!((report.missing, report.repaired), (1, 0));
        assert!(matches!(
            backends[2].get("b"),
            Err(StorageError::NotFound(_))
        ));

        assert!(matches!(
            vault.scrub_object("nope"),
            Err(VaultError::NotFound(_))
        ));
    }

    #[test]
    fn scrub_object_while_abandons_without_mutating_and_completes_when_idle() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (vault, backends) = three_replica_vault();
        vault
            .put("a", ObjectKind::Opaque, &Bytes::from_static(b"aa"))
            .unwrap();
        backends[1].put("a", &Bytes::from_static(b"rot")).unwrap();

        // "Traffic arrives" after the first replica classification: the
        // scrub abandons the object and the damaged copy stays damaged.
        let calls = AtomicUsize::new(0);
        let verdict = vault
            .scrub_object_while("a", &|| calls.fetch_add(1, Ordering::Relaxed) == 0)
            .unwrap();
        assert!(verdict.is_none(), "mid-object arrival must abandon");
        assert_eq!(
            backends[1].get("a").unwrap(),
            Bytes::from_static(b"rot"),
            "an abandoned scrub must not have repaired anything"
        );

        // An undisturbed pass behaves exactly like scrub_object.
        let report = vault
            .scrub_object_while("a", &|| true)
            .unwrap()
            .expect("undisturbed scrub completes");
        assert_eq!((report.objects, report.corrupt, report.repaired), (1, 1, 1));
        assert_eq!(
            backends[1].get("a").unwrap(),
            backends[0].get("a").unwrap(),
            "repair must restore the healthy envelope byte-identically"
        );

        assert!(matches!(
            vault.scrub_object_while("nope", &|| true),
            Err(VaultError::NotFound(_))
        ));
    }

    #[test]
    fn verify_reports_without_touching_replicas() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        backends[0].put("obj", &Bytes::from_static(b"bad")).unwrap();
        let report = vault.verify().unwrap();
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 0);
        assert!(!report.clean());
        assert_eq!(
            backends[0].get("obj").unwrap(),
            Bytes::from_static(b"bad"),
            "verify must not repair"
        );
    }

    #[test]
    fn scrub_reports_lost_objects() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        for b in &backends {
            b.put("obj", &Bytes::from_static(b"all copies rotten"))
                .unwrap();
        }
        let report = vault.scrub().unwrap();
        assert_eq!(report.lost, vec!["obj".to_string()]);
        assert!(!report.clean());
    }

    #[test]
    fn deep_verifier_catches_semantic_rot_under_a_valid_envelope() {
        // A payload that *claims* to be a sealed tier but is not: the
        // envelope digest passes (the envelope was written over the bad
        // payload), so only the deep verifier can flag it.
        let (vault, _backends) = three_replica_vault();
        vault
            .put(
                "fake",
                ObjectKind::SealedTier,
                &Bytes::from_static(b"not a seal"),
            )
            .unwrap();
        let report = vault.verify().unwrap();
        assert_eq!(report.corrupt, 3, "every copy fails deep verification");
        assert!(matches!(vault.get("fake"), Err(VaultError::Damaged { .. })));
    }

    #[test]
    fn retry_policy_rides_out_transient_faults_and_counts_retries() {
        let registry = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MemoryBackend::new());
        let flaky = Arc::new(FlakyBackend::new(inner, FlakyConfig::transient(42, 0.4)));
        let vault = Vault::builder()
            .backends(vec![flaky])
            .policy(RetryPolicy::immediate(8))
            .with_obs(Obs::metrics_only(registry.clone()))
            .build()
            .unwrap();
        let payload = Bytes::from_static(b"survives flakiness");
        for i in 0..16 {
            vault
                .put(&format!("obj-{i}"), ObjectKind::Opaque, &payload)
                .unwrap();
        }
        for i in 0..16 {
            let (_, got) = vault.get(&format!("obj-{i}")).unwrap();
            assert_eq!(got, payload);
        }
        assert!(
            registry.snapshot().counter("vault.backend.retries") > 0,
            "a 40% transient rate must have forced at least one retry"
        );
    }

    #[test]
    fn scrub_emits_spans_and_counters() {
        let collector = Arc::new(MemoryCollector::new());
        let registry = Arc::new(MetricsRegistry::new());
        let (dyns, backends) = pool(2);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .with_obs(Obs::collecting(collector.clone(), registry.clone()))
            .backends(dyns)
            .build()
            .unwrap();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        backends[1].put("obj", &Bytes::from_static(b"rot")).unwrap();
        let report = vault.scrub().unwrap();
        assert!(report.clean());

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("vault.scrub.checked"), 2);
        assert_eq!(snapshot.counter("vault.scrub.corrupt"), 1);
        assert_eq!(snapshot.counter("vault.scrub.repaired"), 1);
        assert_eq!(snapshot.counter("vault.scrub.rebuilt"), 0);
        let paths: Vec<String> = collector
            .sorted_records()
            .into_iter()
            .map(|r| r.path)
            .collect();
        assert_eq!(
            paths,
            vec!["scrub".to_string(), "scrub/object-obj".to_string()]
        );
    }

    // ---- erasure mode ----

    #[test]
    fn erasure_put_spreads_one_shard_per_backend_and_get_round_trips() {
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from((0..5000u32).map(|i| i as u8).collect::<Vec<u8>>());
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let envelope_len = crate::object::ENVELOPE_OVERHEAD + payload.len();
        for b in &backends {
            assert_eq!(b.len(), 1, "placement puts exactly one shard per backend");
            let shard = b.get("obj").unwrap();
            assert!(
                shard.len() < envelope_len / 2,
                "a shard must be a fraction of the object, got {} of {envelope_len}",
                shard.len()
            );
        }
        let (kind, got) = vault.get("obj").unwrap();
        assert_eq!(kind, ObjectKind::Opaque);
        assert_eq!(got, payload);
        assert!(matches!(vault.get("nope"), Err(VaultError::NotFound(_))));
    }

    #[test]
    fn erasure_survives_any_m_whole_backend_losses() {
        let payload = Bytes::from((0..3000u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
        // Every pair of dead backends out of 6 — the acceptance drill.
        for dead_a in 0..6 {
            for dead_b in (dead_a + 1)..6 {
                let (vault, backends) = erasure_vault(4, 2, 6);
                vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
                backends[dead_a].delete("obj").unwrap();
                backends[dead_b].delete("obj").unwrap();
                let (_, got) = vault.get("obj").unwrap();
                assert_eq!(got, payload, "dead backends {dead_a},{dead_b}");
            }
        }
    }

    #[test]
    fn erasure_scrub_rebuilds_lost_shards_byte_identically() {
        let registry = Arc::new(MetricsRegistry::new());
        let (dyns, backends) = pool(6);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k: 4, m: 2 })
            .with_obs(Obs::metrics_only(registry.clone()))
            .build()
            .unwrap();
        let payload = Bytes::from_static(b"stripe me across six backends please");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine: Vec<Bytes> = backends.iter().map(|b| b.get("obj").unwrap()).collect();

        // Lose one whole backend's shard, rot another.
        backends[0].delete("obj").unwrap();
        let mut rotten = pristine[3].to_vec();
        rotten[pristine[3].len() - 1] ^= 0x80;
        backends[3].put("obj", &Bytes::from(rotten)).unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.missing, 1);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.rebuilt, 2);
        assert!(report.clean(), "{}", report.to_text());
        assert!(
            report.to_text().contains("rebuilt shard"),
            "detail lines name the rebuilt shards: {}",
            report.to_text()
        );
        for (b, orig) in backends.iter().zip(&pristine) {
            assert_eq!(&b.get("obj").unwrap(), orig, "rebuild is byte-identical");
        }
        assert_eq!(registry.snapshot().counter("vault.scrub.rebuilt"), 2);
    }

    #[test]
    fn erasure_beyond_m_losses_is_unrecoverable_never_wrong_bytes() {
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from_static(b"too much damage to survive");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let survivors: Vec<Bytes> = backends[3..].iter().map(|b| b.get("obj").unwrap()).collect();
        for b in &backends[..3] {
            b.delete("obj").unwrap();
        }
        match vault.get("obj") {
            Err(VaultError::Unrecoverable { have, need, .. }) => {
                assert_eq!((have, need), (3, 4));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        let report = vault.scrub().unwrap();
        assert!(!report.clean());
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(report.lost, vec!["obj".to_string()]);
        assert!(report.to_text().contains("unrecoverable"), "{}", report.to_text());
        // The scrub must not have fabricated anything: survivors are
        // untouched, the dead slots stay empty.
        for (b, orig) in backends[3..].iter().zip(&survivors) {
            assert_eq!(&b.get("obj").unwrap(), orig);
        }
        for b in &backends[..3] {
            assert!(matches!(b.get("obj"), Err(StorageError::NotFound(_))));
        }
    }

    #[test]
    fn erasure_geometry_tampering_with_recomputed_digest_is_caught() {
        use crate::shard::{decode_shard, encode_shard};
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from_static(b"tamper with my geometry");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let victim = backends[2].get("obj").unwrap();
        let (mut header, shard_payload) = decode_shard(&victim).unwrap();
        let pristine = victim.clone();
        // Re-route the shard to a different stripe position and
        // recompute the digest so the envelope itself verifies.
        header.index = (header.index + 1) % 6;
        backends[2]
            .put("obj", &encode_shard(&header, &shard_payload))
            .unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.corrupt, 1, "forged geometry must classify corrupt");
        assert_eq!(report.rebuilt, 1);
        assert!(report.clean(), "{}", report.to_text());
        assert_eq!(backends[2].get("obj").unwrap(), pristine);
        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn erasure_outvotes_a_divergent_write_generation() {
        // A stale shard from an older object generation (as a racing
        // write would leave behind) is outvoted and re-converged.
        let (vault, backends) = erasure_vault(4, 2, 6);
        let old = Bytes::from_static(b"generation one");
        let new = Bytes::from_static(b"generation two, the winner");
        vault.put("obj", ObjectKind::Opaque, &old).unwrap();
        let stale = backends[1].get("obj").unwrap();
        vault.put("obj", ObjectKind::Opaque, &new).unwrap();
        backends[1].put("obj", &stale).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, new, "five fresh shards outvote one stale shard");

        let report = vault.scrub().unwrap();
        assert!(report.clean(), "{}", report.to_text());
        let (_, after) = vault.get("obj").unwrap();
        assert_eq!(after, new);
        // All six slots now agree on the winning generation.
        let digests: BTreeSet<Vec<u8>> = backends
            .iter()
            .map(|b| b.get("obj").unwrap().to_vec())
            .collect();
        assert_eq!(digests.len(), 6, "six distinct shards, one generation");
    }

    #[test]
    fn erasure_heal_on_get_rewrites_corrupt_slots() {
        let (vault, backends) = erasure_vault(2, 1, 3);
        let payload = Bytes::from_static(b"heal my shards in passing");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine: Vec<Bytes> = backends.iter().map(|b| b.get("obj").unwrap()).collect();
        let mut rotten = pristine[0].to_vec();
        rotten[0] ^= 0xFF;
        backends[0].put("obj", &Bytes::from(rotten)).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload);
        assert_eq!(
            backends[0].get("obj").unwrap(),
            pristine[0],
            "heal-on-get rewrote the corrupt shard byte-identically"
        );
    }

    #[test]
    fn placement_never_doubles_up_within_a_stripe() {
        for policy in [PlacementPolicy::KeyRotation, PlacementPolicy::Identity] {
            let (dyns, _) = pool(6);
            let vault = Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Erasure { k: 4, m: 2 })
                .placement(policy)
                .build()
                .unwrap();
            for key in ["a", "tier-aod.dpef", "some-very-long-key-name.dpar"] {
                let slots: BTreeSet<usize> =
                    (0..6).map(|i| vault.slot_backend(key, i)).collect();
                assert_eq!(slots.len(), 6, "{policy:?} {key}");
            }
        }
        // KeyRotation actually rotates: different keys start on
        // different backends (for at least one pair among a few keys).
        let (dyns, _) = pool(6);
        let vault = Vault::builder()
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k: 4, m: 2 })
            .build()
            .unwrap();
        let starts: BTreeSet<usize> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|k| vault.slot_backend(k, 0))
            .collect();
        assert!(starts.len() > 1, "rotation must vary the starting backend");
    }

    #[test]
    fn erasure_deep_verifier_rejects_semantic_rot_after_reconstruction() {
        let (vault, _) = erasure_vault(4, 2, 6);
        vault
            .put(
                "fake",
                ObjectKind::SealedTier,
                &Bytes::from_static(b"not a seal"),
            )
            .unwrap();
        assert!(matches!(vault.get("fake"), Err(VaultError::Damaged { .. })));
        let report = vault.scrub().unwrap();
        assert!(!report.clean());
        assert_eq!(report.lost, vec!["fake".to_string()]);
    }

    #[test]
    fn scrub_report_absorb_merges_counts_and_details() {
        let mut a = ScrubReport {
            objects: 1,
            replicas: 6,
            checked: 6,
            corrupt: 1,
            missing: 0,
            repaired: 1,
            rebuilt: 1,
            unrecoverable: 0,
            lost: vec![],
            details: vec!["stripe 0: rebuilt shard 1/6 on backend memory".to_string()],
        };
        let b = ScrubReport {
            objects: 1,
            replicas: 6,
            checked: 4,
            corrupt: 2,
            missing: 2,
            repaired: 0,
            rebuilt: 0,
            unrecoverable: 1,
            lost: vec!["gone".to_string()],
            details: vec!["stripe 1: 'gone' unrecoverable (2/4 shards survive)".to_string()],
        };
        a.absorb(b);
        assert_eq!(a.objects, 2);
        assert_eq!(a.checked, 10);
        assert_eq!(a.corrupt, 3);
        assert_eq!(a.missing, 2);
        assert_eq!(a.unrecoverable, 1);
        assert_eq!(a.lost, vec!["gone".to_string()]);
        assert_eq!(a.details.len(), 2);
        assert!(!a.clean());
    }
}
