//! `serve`: the multi-tenant service. An in-process `Server` with its
//! default scrubber and one worker per core runs over a 4+2 erasure vault
//! on six in-memory backends. Nothing is flushed: the backends hold the
//! shards in memory, so the figures contain no device latency.
//!
//! Connection A is a tenant that waits for each answer: a closed loop of
//! small PUT and GET ops from a seeded mix, one in flight. Connection B
//! streams an object larger than the 16 MiB frame cap (`put_chunked`,
//! then `get_streamed_bytes`) at the start of every latency window. Every
//! GET is compared byte for byte with what was put. The mux, protocol,
//! admission and stream layers do the work here; the physics chain does
//! none.
//!
//! Why not an open loop: offered on a Poisson schedule at 600, 1000 or
//! 2000 ops/s, small ops found the workers napping between arrivals, and
//! the wake-up delay on the shared 2-core host the benchmark was built on
//! set their latency. Over sets of five and ten runs the p50 then spread
//! by 0.26-0.36 of its median and the p90 by 0.42, beyond any bound the
//! benchmark may set.
//! The closed loop keeps the workers awake; its rate stayed within about
//! a tenth across runs. The wake-up path is left to a later workload.
//!
//! Why connection B is paced: streaming back to back kept both cores
//! busy, and the small-op tail then followed neighbour load on the host.
//!
//! The vault sits on memory rather than `DirBackend` files because on the
//! host this benchmark was built on, a `DirBackend` put costs six
//! create-write-rename sequences of about 0.56 ms each: the disk, not the
//! service, then sets every latency, and the p99 of five runs spread by
//! an interquartile range of about the median itself.
//!
//! Latency percentiles are taken per `WINDOW` and the median over the
//! windows is reported, so one scheduler stall moves one window, not the
//! run. Each window holds one stream pair from its start, so every window
//! sees the same mix of quiet and contended time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use daspos_obs::Obs;
use daspos_serve::proto::{
    decode_response, encode_request, split_frame, storage_key,
};
use daspos_serve::{
    expect_ok, Chaos, Op, Request, ServeClient, ServeConfig, Server, Service, Status,
};
use daspos_vault::{MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};

use crate::report::{median, quantile, timed_setup, Outcome};
use crate::trace::Tracer;

/// Length of one latency window, and the period at which connection B
/// starts a streamed object. A window holds about 10 000 small ops, a
/// quarter of them PUTs, so even the PUT-only p99 has ten samples beyond
/// it.
pub const WINDOW: Duration = Duration::from_secs(3);
/// Small ops timed directly against the service and the vault, without
/// sockets, in a traced run.
pub const DIRECT_OPS: usize = 2000;
/// The latency limit the noted share of small ops is counted against.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(1);
pub const TENANTS: [&str; 4] = ["atlas", "cms", "alice", "lhcb"];
pub const KEYS_PER_TENANT: usize = 128;
pub const MIN_OBJECT: usize = 512;
pub const MAX_OBJECT: usize = 64 * 1024;
/// Share of connection A's ops that are PUTs (about 1 write to 3 reads).
pub const PUT_SHARE: f64 = 0.25;
/// Set-ups per run. A set-up here takes a fifth of a second, so a median
/// over more of them than [`crate::SETUP_REPEATS`] costs little and steadies
/// `setup_s`.
pub const SETUP_RUNS: usize = 7;
/// Connection B's object size: above the 16 MiB frame cap.
pub const STREAM_OBJECT: usize = 20 * 1024 * 1024;

/// Small deterministic generator for the schedule and payload choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `n` pseudo-random bytes (`n` a multiple of 8).
    fn bytes(&mut self, n: usize) -> Bytes {
        Bytes::from(
            (0..n / 8)
                .flat_map(|_| self.next().to_le_bytes())
                .collect::<Vec<u8>>(),
        )
    }

    /// An object size, log-uniform over [MIN_OBJECT, MAX_OBJECT].
    fn size(&mut self) -> usize {
        let (lo, hi) = ((MIN_OBJECT as f64).ln(), (MAX_OBJECT as f64).ln());
        ((lo + (hi - lo) * self.unit()).exp() as usize).clamp(MIN_OBJECT, MAX_OBJECT)
    }
}

/// Where an object's bytes come from: a window of the payload pool.
#[derive(Clone, Copy)]
struct Content {
    offset: usize,
    len: usize,
}

#[derive(Clone, Copy)]
struct SmallOp {
    put: bool,
    slot: usize,
    content: Content,
}

fn slot_names(slot: usize) -> (&'static str, String) {
    (
        TENANTS[slot % TENANTS.len()],
        format!("obj-{:04}.bin", slot / TENANTS.len()),
    )
}

fn pool_window(pool: &Bytes, c: Content) -> Bytes {
    pool.slice(c.offset..c.offset + c.len)
}

fn random_content(rng: &mut Rng, pool: &Bytes, len: usize) -> Content {
    Content {
        offset: rng.below(pool.len() - len + 1),
        len,
    }
}

/// The next small op of the seeded mix: about 1 PUT to 3 GETs over every
/// tenant's keys.
fn next_op(rng: &mut Rng, pool: &Bytes) -> SmallOp {
    let put = rng.unit() < PUT_SHARE;
    let slot = rng.below(TENANTS.len() * KEYS_PER_TENANT);
    let len = rng.size();
    SmallOp {
        put,
        slot,
        content: random_content(rng, pool, len),
    }
}

fn request(op: &SmallOp, pool: &Bytes) -> Request {
    let (tenant, key) = slot_names(op.slot);
    if op.put {
        Request {
            op: Op::Put,
            kind: ObjectKind::Opaque,
            tenant: tenant.to_string(),
            key,
            payload: pool_window(pool, op.content),
        }
    } else {
        Request::control(Op::Get, tenant, &key)
    }
}

pub struct Fixture {
    service: Arc<Service>,
    server: Option<Server>,
    addr: String,
    pool: Bytes,
    big: Bytes,
    /// What each key holds now, as connection A last wrote it.
    current: Vec<Content>,
    /// Bytes the set-up put, and the bytes they occupy on all backends.
    preload_user_bytes: u64,
    preload_stored_bytes: u64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// Start the server over a fresh 4+2 erasure vault and put an initial
/// version of every key.
pub fn setup(seed: u64, chaos: Option<Chaos>) -> Result<Fixture, String> {
    let backends: Vec<Arc<dyn StorageBackend>> = (0..6)
        .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
        .collect();
    let vault = Vault::builder()
        .backends(backends.clone())
        .redundancy(Redundancy::Erasure { k: 4, m: 2 })
        .build()
        .map_err(|e| format!("vault build failed: {e}"))?;
    // One worker per core: the default pool of four on a 2-core host
    // measured the scheduler as much as the service.
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut cfg = ServeConfig::builder().pool_size(cores);
    if let Some(chaos) = chaos {
        cfg = cfg.chaos(chaos);
    }
    let cfg = cfg.build().map_err(|e| format!("serve config: {e}"))?;
    let service = Arc::new(Service::new(vault, &cfg, Obs::disabled()));
    let server = Server::start(service.clone(), "127.0.0.1:0", cfg.scrub_interval())
        .map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.addr().to_string();

    let mut rng = Rng(seed ^ 0x5EB5E);
    let pool = rng.bytes((1 << 20) + MAX_OBJECT);
    let big = rng.bytes(STREAM_OBJECT + MAX_OBJECT);
    let mut fx = Fixture {
        service,
        server: Some(server),
        addr,
        pool,
        big,
        current: Vec::new(),
        preload_user_bytes: 0,
        preload_stored_bytes: 0,
    };
    let mut client = ServeClient::builder("setup")
        .connect(&fx.addr)
        .map_err(|e| format!("setup client: {e}"))?;
    for slot in 0..TENANTS.len() * KEYS_PER_TENANT {
        let len = rng.size();
        let content = random_content(&mut rng, &fx.pool, len);
        let req = request(
            &SmallOp {
                put: true,
                slot,
                content,
            },
            &fx.pool,
        );
        client
            .request(&req)
            .map_err(|e| e.to_string())
            .and_then(|r| expect_ok(r).map_err(|e| e.to_string()))
            .map_err(|e| format!("setup put of slot {slot}: {e}"))?;
        fx.current.push(content);
        fx.preload_user_bytes += len as u64;
    }
    fx.preload_stored_bytes = stored_bytes(&backends)?;
    Ok(fx)
}

/// Bytes held on all `backends`, summed over every key.
fn stored_bytes(backends: &[Arc<dyn StorageBackend>]) -> Result<u64, String> {
    let mut total = 0;
    for b in backends {
        for key in b.list("").map_err(|e| format!("listing {}: {e}", b.name()))? {
            total += b
                .get(&key)
                .map_err(|e| format!("reading {key} on {}: {e}", b.name()))?
                .len() as u64;
        }
    }
    Ok(total)
}

/// One small op as connection A saw it.
#[derive(Clone, Copy)]
struct Record {
    put: bool,
    /// When the request was sent.
    sent: Instant,
    /// The generator's own time before sending: from the previous
    /// response to this request.
    turnaround: Duration,
    /// Send to response.
    latency: Duration,
    ok: bool,
}

/// Drive connection A in a closed loop from `start` for `secs` seconds:
/// one op in flight, the next sent as soon as the previous answer is
/// checked. Returns one record per op.
fn lane_a(
    addr: &str,
    rng: &mut Rng,
    pool: &Bytes,
    current: &mut [Content],
    start: Instant,
    secs: f64,
) -> Result<Vec<Record>, String> {
    let mut client = ServeClient::builder("connection-a")
        .connect(addr)
        .map_err(|e| format!("connection A: {e}"))?;
    let end = start + Duration::from_secs_f64(secs);
    let mut records = Vec::new();
    while Instant::now() < start {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut prev_done = Instant::now();
    loop {
        let op = next_op(rng, pool);
        let req = request(&op, pool);
        let sent = Instant::now();
        if sent >= end {
            return Ok(records);
        }
        let resp = client.request(&req);
        let done = Instant::now();
        let ok = match resp {
            Ok(r) if r.status == Status::Ok => {
                if op.put {
                    current[op.slot] = op.content;
                    true
                } else {
                    r.payload == pool_window(pool, current[op.slot])
                }
            }
            _ => false,
        };
        records.push(Record {
            put: op.put,
            sent,
            turnaround: sent - prev_done,
            latency: done - sent,
            ok,
        });
        prev_done = done;
    }
}

/// Connection B's figures.
#[derive(Default)]
struct StreamLane {
    /// Start, duration and success of each stream op, PUT then GET.
    ops: Vec<(Instant, Duration, bool)>,
    bytes: u64,
    busy: Duration,
    chunks_per_op: usize,
}

/// Until `stop` is set, start one streamed object every `WINDOW` from
/// `start`: put it, read it back and compare. A pair that overruns its
/// window delays the next one, which then starts at once.
fn lane_b(
    addr: &str,
    big: &Bytes,
    start: Instant,
    stop: &AtomicBool,
) -> Result<StreamLane, String> {
    let mut client = ServeClient::builder("stream")
        .op_timeout(Duration::from_secs(60))
        .connect(addr)
        .map_err(|e| format!("connection B: {e}"))?;
    let mut lane = StreamLane {
        chunks_per_op: STREAM_OBJECT.div_ceil(client.chunk_bytes()),
        ..StreamLane::default()
    };
    let mut version = 0usize;
    loop {
        let slot = start + WINDOW * version as u32;
        while !stop.load(Ordering::Relaxed) && Instant::now() < slot {
            let left = slot.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(10)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let key = format!("big-{}.bin", version % 2);
        let offset = (version * 4099) % MAX_OBJECT;
        let payload = big.slice(offset..offset + STREAM_OBJECT);
        let t_put_start = Instant::now();
        let put_ok = matches!(client.put_chunked(&key, ObjectKind::Opaque, &payload), Ok(r) if r.status == Status::Ok);
        let t_put = t_put_start.elapsed();
        let t_get_start = Instant::now();
        let get_ok = put_ok
            && matches!(client.get_streamed_bytes(&key), Ok(r) if r.status == Status::Ok && r.payload == payload);
        let t_get = t_get_start.elapsed();
        lane.ops.push((t_put_start, t_put, put_ok));
        lane.ops.push((t_get_start, t_get, get_ok));
        lane.bytes += 2 * STREAM_OBJECT as u64;
        lane.busy += t_put + t_get;
        version += 1;
    }
    Ok(lane)
}

/// Counters of the service over one measured window.
struct StatsDelta {
    scrub_steps: u64,
    scrub_yields: u64,
    rejected: u64,
}

fn stats_now(service: &Service) -> StatsDelta {
    let s = service.stats();
    StatsDelta {
        scrub_steps: s.scrub_steps(),
        scrub_yields: s.scrub_yields(),
        rejected: s.rejected() + s.quota_rejected(),
    }
}

/// One measured stretch: connection A's closed loop while connection B
/// streams.
struct Window {
    /// When the measured time began.
    start: Instant,
    secs: f64,
    records: Vec<Record>,
    stream: StreamLane,
    stats: StatsDelta,
}

fn window(fx: &mut Fixture, rng: &mut Rng, secs: f64) -> Result<Window, String> {
    let before = stats_now(&fx.service);
    let stop = AtomicBool::new(false);
    let (addr, pool, big) = (fx.addr.clone(), fx.pool.clone(), fx.big.clone());
    let current = &mut fx.current;
    // Both connections open before the measured time starts.
    let start = Instant::now() + Duration::from_millis(50);
    let (a, b) = std::thread::scope(|s| {
        let b = s.spawn(|| lane_b(&addr, &big, start, &stop));
        let a = lane_a(&addr, rng, &pool, current, start, secs);
        stop.store(true, Ordering::Relaxed);
        (a, b.join().map_err(|_| "connection B panicked".to_string()))
    });
    let after = stats_now(&fx.service);
    Ok(Window {
        start,
        secs,
        records: a?,
        stream: b??,
        stats: StatsDelta {
            scrub_steps: after.scrub_steps - before.scrub_steps,
            scrub_yields: after.scrub_yields - before.scrub_yields,
            rejected: after.rejected - before.rejected,
        },
    })
}

fn latencies_us(records: &[Record], put: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.put == put)
        .map(|r| r.latency.as_secs_f64() * 1e6)
        .collect()
}

/// How many whole windows `secs` seconds hold (at least one).
fn windows(secs: f64) -> usize {
    ((secs / WINDOW.as_secs_f64()).floor() as usize).max(1)
}

/// The median over the whole windows of `w` of `f` applied to the records
/// sent in each. Every window holds one stream pair from its start, so
/// the windows are alike; ops sent after the last whole window are
/// counted and checked but not in these figures.
fn windowed(w: &Window, f: impl Fn(&[Record]) -> f64) -> f64 {
    let mut per = vec![Vec::new(); windows(w.secs)];
    for r in &w.records {
        let k = ((r.sent - w.start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(slot) = per.get_mut(k) {
            slot.push(*r);
        }
    }
    let values: Vec<f64> = per
        .iter()
        .filter(|records| !records.is_empty())
        .map(|records| f(records))
        .collect();
    median(&values)
}

fn count(outcome: &mut Outcome, w: &Window) {
    for (i, r) in w.records.iter().enumerate() {
        outcome.op(if r.ok {
            Ok(())
        } else {
            Err(format!(
                "small op {i} ({}) failed or did not match what was put",
                if r.put { "PUT" } else { "GET" }
            ))
        });
    }
    for (i, (_, _, ok)) in w.stream.ops.iter().enumerate() {
        outcome.op(if *ok {
            Ok(())
        } else {
            Err(format!(
                "stream op {i} failed or did not match what was put"
            ))
        });
    }
}

/// Per-op service time of `Service::handle_wire` on the sealed frames of
/// `ops`, and of the 4+2 vault call beneath it, without sockets.
fn direct_times(
    fx: &mut Fixture,
    ops: &[SmallOp],
    tr: &mut Tracer,
) -> Result<[Vec<f64>; 4], String> {
    let [mut svc_put, mut svc_get, mut ec_put, mut ec_get] = [(); 4].map(|_| Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let (sealed, _) =
            split_frame(&encode_request(&request(op, &fx.pool))).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (frame, _) = fx.service.handle_wire(&sealed);
        let end = Instant::now();
        tr.record(
            if op.put {
                "serve.service_put"
            } else {
                "serve.service_get"
            },
            None,
            i as u64,
            t,
            end,
        );
        let (body, _) = split_frame(&frame).map_err(|e| e.to_string())?;
        let resp = decode_response(&body).map_err(|e| e.to_string())?;
        if resp.status != Status::Ok {
            return Err(format!(
                "direct service op {i}: {:?} {}",
                resp.status, resp.detail
            ));
        }
        if op.put {
            fx.current[op.slot] = op.content;
        }
        (if op.put { &mut svc_put } else { &mut svc_get }).push((end - t).as_secs_f64() * 1e6);

        let (tenant, key) = slot_names(op.slot);
        let composed = storage_key(tenant, &key).map_err(|e| e.to_string())?;
        let t = Instant::now();
        if op.put {
            fx.service
                .vault()
                .put(
                    &composed,
                    ObjectKind::Opaque,
                    &pool_window(&fx.pool, op.content),
                )
                .map_err(|e| format!("direct vault put: {e}"))?;
        } else {
            let (_, got) = fx
                .service
                .vault()
                .get(&composed)
                .map_err(|e| format!("direct vault get: {e}"))?;
            if got != pool_window(&fx.pool, fx.current[op.slot]) {
                return Err(format!(
                    "direct vault get of {composed} does not match what was put"
                ));
            }
        }
        let end = Instant::now();
        tr.record(
            if op.put {
                "vault.ec_put"
            } else {
                "vault.ec_get"
            },
            None,
            i as u64,
            t,
            end,
        );
        (if op.put { &mut ec_put } else { &mut ec_get }).push((end - t).as_secs_f64() * 1e6);
    }
    Ok([svc_put, svc_get, ec_put, ec_get])
}

fn record_spans(tr: &mut Tracer, w: &Window) {
    for (i, r) in w.records.iter().enumerate() {
        tr.record(
            "loadgen.turnaround",
            None,
            i as u64,
            r.sent - r.turnaround,
            r.sent,
        );
        tr.record(
            if r.put { "serve.put" } else { "serve.get" },
            None,
            i as u64,
            r.sent,
            r.sent + r.latency,
        );
    }
    for (i, (start, d, _)) in w.stream.ops.iter().enumerate() {
        let name = if i % 2 == 0 {
            "serve.stream_put"
        } else {
            "serve.stream_get"
        };
        tr.record(name, None, i as u64, *start, *start + *d);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, chaos: Option<Chaos>) -> Result<Outcome, String> {
    let (mut fx, setup_s) = timed_setup(SETUP_RUNS, || setup(seed, chaos))?;
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "serve: closed loop of small ops ({:.0}% PUT, {MIN_OBJECT} B-{} KiB log-uniform, {} tenants x {KEYS_PER_TENANT} keys) on connection A; one {} MiB streamed object put and read back every {} s on connection B; 4+2 erasure over in-memory backends, nothing to flush; latency limit {} us",
        PUT_SHARE * 100.0,
        MAX_OBJECT / 1024,
        TENANTS.len(),
        STREAM_OBJECT >> 20,
        WINDOW.as_secs(),
        LATENCY_LIMIT.as_micros()
    ));
    let mut rng = Rng(seed);
    let untraced_secs = if trace { seconds / 2.0 } else { seconds };
    let w = window(&mut fx, &mut rng, untraced_secs)?;
    count(&mut outcome, &w);
    let put_us = latencies_us(&w.records, true);
    let get_us = latencies_us(&w.records, false);

    if !trace {
        let n = w.records.len();
        let quantile_of = |put: Option<bool>, q: f64| {
            windowed(&w, |slice| {
                let us: Vec<f64> = slice
                    .iter()
                    .filter(|r| put.is_none_or(|p| r.put == p))
                    .map(|r| r.latency.as_secs_f64() * 1e6)
                    .collect();
                quantile(&us, q)
            })
        };
        let slo = windowed(&w, |slice| {
            let within = slice
                .iter()
                .filter(|r| r.ok && r.latency <= LATENCY_LIMIT)
                .count();
            within as f64 / slice.len() as f64
        });
        outcome.note(format!(
            "serve: PUT p50 {:.1} us p99 {:.1} us ({} ops); GET p50 {:.1} us p99 {:.1} us ({} ops); all p99 {:.1} us; {:.4} of small ops within {} us",
            quantile_of(Some(true), 0.5),
            quantile_of(Some(true), 0.99),
            put_us.len(),
            quantile_of(Some(false), 0.5),
            quantile_of(Some(false), 0.99),
            get_us.len(),
            quantile_of(None, 0.99),
            slo,
            LATENCY_LIMIT.as_micros()
        ));
        // Items are user bytes: throughput is the bytes connection B
        // streams per second, latency that of connection A's small ops.
        outcome.metric("setup_s", setup_s, "s", SETUP_RUNS);
        outcome.metric(
            "throughput",
            w.stream.bytes as f64 / w.stream.busy.as_secs_f64(),
            "items/s",
            w.stream.ops.len(),
        );
        outcome.metric("latency_p50_ms", quantile_of(None, 0.5) / 1e3, "ms", n);
        outcome.metric("latency_p90_ms", quantile_of(None, 0.9) / 1e3, "ms", n);
        outcome.metric(
            "stored_bytes_per_item",
            fx.preload_stored_bytes as f64 / fx.preload_user_bytes as f64,
            "B/item",
            TENANTS.len() * KEYS_PER_TENANT,
        );
        outcome.note(format!(
            "serve: latency figures are medians over {} windows of about {} ms",
            windows(w.secs),
            WINDOW.as_millis()
        ));
        return Ok(outcome);
    }

    let mut tr = Tracer::new();
    let traced = window(&mut fx, &mut rng, seconds - untraced_secs)?;
    count(&mut outcome, &traced);
    record_spans(&mut tr, &traced);
    let direct_ops: Vec<SmallOp> = (0..DIRECT_OPS).map(|_| next_op(&mut rng, &fx.pool)).collect();
    let [svc_put, svc_get, ec_put, ec_get] = direct_times(&mut fx, &direct_ops, &mut tr)?;
    outcome.op(Ok(()));
    outcome.metric(
        "serve.service_put_us",
        median(&svc_put),
        "us",
        svc_put.len(),
    );
    outcome.metric(
        "serve.service_get_us",
        median(&svc_get),
        "us",
        svc_get.len(),
    );
    outcome.metric(
        "serve.transport_put_us",
        median(&put_us) - median(&svc_put),
        "us",
        put_us.len(),
    );
    outcome.metric(
        "serve.transport_get_us",
        median(&get_us) - median(&svc_get),
        "us",
        get_us.len(),
    );
    outcome.metric("vault.ec_put_us", median(&ec_put), "us", ec_put.len());
    outcome.metric("vault.ec_get_us", median(&ec_get), "us", ec_get.len());
    let per_chunk: Vec<f64> = w
        .stream
        .ops
        .iter()
        .map(|(_, d, _)| d.as_secs_f64() * 1e6 / w.stream.chunks_per_op as f64)
        .collect();
    outcome.metric(
        "serve.stream_chunk_us",
        median(&per_chunk),
        "us",
        per_chunk.len(),
    );
    outcome.metric("serve.scrub_steps", w.stats.scrub_steps as f64, "count", 1);
    outcome.metric(
        "serve.scrub_yields",
        w.stats.scrub_yields as f64,
        "count",
        1,
    );
    outcome.metric("serve.rejected", w.stats.rejected as f64, "count", 1);
    let turnaround: Vec<f64> = w
        .records
        .iter()
        .map(|r| r.turnaround.as_secs_f64() * 1e6)
        .collect();
    outcome.metric(
        "loadgen.turnaround_p99_us",
        quantile(&turnaround, 0.99),
        "us",
        turnaround.len(),
    );
    let all_us = |records: &[Record]| -> Vec<f64> {
        records
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e6)
            .collect()
    };
    let traced_us = all_us(&traced.records);
    outcome.metric(
        "trace.overhead_share",
        median(&traced_us) / median(&all_us(&w.records)) - 1.0,
        "share",
        traced_us.len(),
    );
    crate::write_trace(&tr, "serve", &mut outcome);
    Ok(outcome)
}
