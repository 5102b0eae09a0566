//! `reanalysis`: the analyst's RIVET-style action over preserved AOD
//! tiers. Set-up produces AOD for the `preserve` rotation and stores it
//! twice, row-wise (`SealedTier`) and columnar (`ColumnarAod`). Each pass
//! reads every stored file back (deep-verified), skims it, decodes the
//! survivors, fills the ntuple and runs the detector-level analysis, under
//! the workflow's own selection and under `Selection::All`. The tiers
//! codec, the columnar layout, the skim and vault reads do the work here;
//! generation, simulation and reconstruction do none.
//!
//! The stored tiers are larger than the host's last-level cache. Running
//! the chain for that many events would take minutes, so set-up runs it
//! for `BASE_EVENTS` per workflow and tiles the result: copy `c` of an
//! event has its event number shifted and every floating-point field
//! scaled by a factor within 1e-3 of 1 drawn from (seed, copy, event).
//! Values therefore stay distinct, so the columnar encoder's cost probe
//! sees data like the chain's own rather than repeats it could
//! dictionary-encode.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use daspos::runner::ExecOptions;
use daspos::workflow::{ExecutionContext, PreservedWorkflow};
use daspos_hep::event::EventId;
use daspos_hep::FourVector;
use daspos_reco::objects::AodEvent;
use daspos_rivet::{AnalysisRegistry, AnalysisResult, RunHarness};
use daspos_tiers::codec::{self, Encodable};
use daspos_tiers::{skim, ColumnarFile, Ntuple, Selection};
use daspos_vault::{MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};

use crate::preserve::{rotation, same_ntuple};
use crate::report::{median, quantile, timed_setup, Outcome};
use crate::trace::Tracer;
use crate::SETUP_REPEATS;

/// Events per workflow that run through the chain at set-up.
pub const BASE_EVENTS: u64 = 2000;
/// Tiles of the base events per workflow in the stored tier.
pub const COPIES: u64 = 224;
/// Tiles per stored file.
pub const COPIES_PER_FILE: u64 = 16;

/// One stored file, held twice: row-wise and columnar.
struct Part {
    workflow: usize,
    row_key: String,
    col_key: String,
    events: u64,
}

pub struct Fixture {
    workflows: Vec<PreservedWorkflow>,
    parts: Vec<Part>,
    backend: Arc<MemoryBackend>,
    vault: Vault,
    registry: AnalysisRegistry,
    row_bytes: u64,
    col_bytes: u64,
    events: u64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scale4(v: &mut FourVector, s: f64) {
    v.px *= s;
    v.py *= s;
    v.pz *= s;
    v.e *= s;
}

/// Copy `copy` of `ev`: a new event number and every floating-point
/// field scaled by `s`. Copy 0 is the event itself.
fn tile(ev: &AodEvent, copy: u64, base: u64, s: f64) -> AodEvent {
    let mut out = ev.clone();
    out.header.event = EventId(ev.header.event.0 + copy * base);
    if copy == 0 {
        return out;
    }
    for e in &mut out.electrons {
        scale4(&mut e.momentum, s);
        e.e_over_p *= s;
        e.isolation *= s;
    }
    for m in &mut out.muons {
        scale4(&mut m.momentum, s);
        m.isolation *= s;
    }
    for p in &mut out.photons {
        scale4(&mut p.momentum, s);
        p.isolation *= s;
    }
    for j in &mut out.jets {
        scale4(&mut j.momentum, s);
        j.em_fraction *= s;
    }
    out.met.mex *= s;
    out.met.mey *= s;
    for c in &mut out.candidates {
        scale4(&mut c.vertex, s);
        c.flight_xy *= s;
        c.pt *= s;
        c.eta *= s;
        c.mass_pipi *= s;
        c.mass_ppi *= s;
        c.mass_kpi *= s;
        c.proper_time_d0_ns *= s;
    }
    out
}

/// Produce the base events per workflow, tile them into `copies` copies
/// and store them in `copies / COPIES_PER_FILE` files per layout in a
/// single-backend vault, so a flipped byte cannot be healed from another
/// replica and every damaged read surfaces.
pub fn setup(seed: u64, copies: u64) -> Result<Fixture, String> {
    let workflows = rotation(seed, BASE_EVENTS);
    let backend = Arc::new(MemoryBackend::new());
    let vault = Vault::builder()
        .backends(vec![backend.clone() as Arc<dyn StorageBackend>])
        .redundancy(Redundancy::Replicas(1))
        .build()
        .map_err(|e| format!("vault build failed: {e}"))?;
    let opts = ExecOptions::default();
    let threads = opts.thread_count();
    let mut parts = Vec::new();
    let (mut row_bytes, mut col_bytes, mut events) = (0u64, 0u64, 0u64);
    for (w, wf) in workflows.iter().enumerate() {
        let ctx = ExecutionContext::fresh(wf);
        let out = wf
            .execute(&ctx, &opts)
            .map_err(|e| format!("base production failed: {e}"))?;
        let base = out.aod_events;
        let n = base.len() as u64;
        for f in 0..copies.div_ceil(COPIES_PER_FILE) {
            let tiles = (f * COPIES_PER_FILE..((f + 1) * COPIES_PER_FILE).min(copies))
                .flat_map(|c| {
                    base.iter().enumerate().map(move |(i, ev)| {
                        let h = splitmix(seed ^ splitmix(c ^ splitmix(i as u64)));
                        let s = 1.0 + ((h % 2001) as f64 - 1000.0) * 1e-6;
                        tile(ev, c, n, s)
                    })
                })
                .collect::<Vec<AodEvent>>();
            let row = codec::seal(&AodEvent::encode_events_parallel(&tiles, threads));
            let col = daspos_tiers::encode_columnar_parallel(&tiles, threads);
            let part = Part {
                workflow: w,
                row_key: format!("w{w}-part-{f:03}.dpef"),
                col_key: format!("w{w}-part-{f:03}.dpcf"),
                events: tiles.len() as u64,
            };
            vault
                .put(&part.row_key, ObjectKind::SealedTier, &row)
                .and_then(|()| vault.put(&part.col_key, ObjectKind::ColumnarAod, &col))
                .map_err(|e| format!("storing {}: {e}", part.row_key))?;
            row_bytes += row.len() as u64;
            col_bytes += col.len() as u64;
            events += part.events;
            parts.push(part);
        }
    }
    Ok(Fixture {
        workflows,
        parts,
        backend,
        vault,
        registry: AnalysisRegistry::with_builtin(),
        row_bytes,
        col_bytes,
        events,
    })
}

/// What a reanalysis of one file under one selection yields; the row and
/// columnar layouts must agree on all of it.
struct Yield {
    survivors: Vec<AodEvent>,
    ntuple: Ntuple,
    results: Vec<AnalysisResult>,
}

type Traced<'a> = Option<(&'a mut Tracer, usize)>;

fn step<T>(tr: &mut Traced<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some((t, parent)) => t.span(name, *parent, f),
        None => f(),
    }
}

fn analyse(
    fx: &Fixture,
    wf: &PreservedWorkflow,
    survivors: Vec<AodEvent>,
    tr: &mut Traced<'_>,
) -> Result<Yield, String> {
    let ntuple = step(tr, "tiers.ntuple_fill", || {
        Ntuple::fill(wf.ntuple_schema.clone(), &survivors)
    });
    let results = step(tr, "rivet.analysis", || {
        wf.analyses
            .iter()
            .map(|key| {
                let a = fx
                    .registry
                    .get(key)
                    .ok_or_else(|| format!("analysis {key} not registered"))?;
                Ok(RunHarness::run_detector(a.as_ref(), survivors.iter()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Yield {
        survivors,
        ntuple,
        results,
    })
}

fn row_pass(
    fx: &Fixture,
    part: &Part,
    sel: &Selection,
    mut tr: Traced<'_>,
) -> Result<Yield, String> {
    let wf = &fx.workflows[part.workflow];
    let key = &part.row_key;
    let (_, sealed) = step(&mut tr, "vault.get_row", || fx.vault.get(key))
        .map_err(|e| format!("{key}: vault get failed: {e}"))?;
    let file = step(&mut tr, "tiers.unseal", || codec::unseal(&sealed))
        .map_err(|e| format!("{key}: unseal failed: {e}"))?;
    let (skimmed, _) = step(&mut tr, "tiers.row_skim", || {
        skim::skim_slim_streaming(&file, sel, &wf.slim)
    })
    .map_err(|e| format!("{key}: row skim failed: {e}"))?;
    let survivors = step(&mut tr, "tiers.row_decode", || {
        AodEvent::decode_events(&skimmed)
    })
    .map_err(|e| format!("{key}: survivor decode failed: {e}"))?;
    analyse(fx, wf, survivors, &mut tr)
}

fn col_pass(
    fx: &Fixture,
    part: &Part,
    sel: &Selection,
    mut tr: Traced<'_>,
) -> Result<Yield, String> {
    let wf = &fx.workflows[part.workflow];
    let key = &part.col_key;
    let (_, file) = step(&mut tr, "vault.get_col", || fx.vault.get(key))
        .map_err(|e| format!("{key}: vault get failed: {e}"))?;
    let (skimmed, _) = step(&mut tr, "tiers.col_skim", || {
        daspos_tiers::skim_slim_columnar(&file, sel, &wf.slim, None)
    })
    .map_err(|e| format!("{key}: columnar skim failed: {e}"))?;
    let survivors = step(&mut tr, "tiers.col_decode", || {
        ColumnarFile::parse(&skimmed).and_then(|f| f.to_rows())
    })
    .map_err(|e| format!("{key}: columnar survivor decode failed: {e}"))?;
    analyse(fx, wf, survivors, &mut tr)
}

fn agree(key: &str, row: &Yield, col: &Yield) -> Result<(), String> {
    if row.survivors != col.survivors {
        return Err(format!("{key}: row and columnar survivors differ"));
    }
    if !same_ntuple(&row.ntuple, &col.ntuple) {
        return Err(format!("{key}: row and columnar ntuples differ"));
    }
    let same = row.results.len() == col.results.len()
        && row
            .results
            .iter()
            .zip(&col.results)
            .all(|(a, b)| a.identical_to(b));
    if !same {
        return Err(format!("{key}: row and columnar histograms differ"));
    }
    Ok(())
}

/// The two selections every file is analysed under: the workflow's own,
/// and `All`, where every event survives.
fn selections(wf: &PreservedWorkflow) -> [Selection; 2] {
    [wf.skim.clone(), Selection::All]
}

/// Totals of one pass over every file under both selections.
#[derive(Default)]
struct Pass {
    events: u64,
    row_secs: f64,
    col_secs: f64,
    /// Time of each operation, in ms: one stored file re-analysed in both
    /// layouts under both selections. Whole files keep the five
    /// workflows' files as five equal groups, so the p50 and the p90 fall
    /// inside a group rather than on the edge between two.
    op_ms: Vec<f64>,
    survivors: [u64; 2],
}

fn pass(fx: &Fixture, outcome: &mut Outcome, mut tr: Option<&mut Tracer>, pass_id: u64) -> Pass {
    let mut p = Pass::default();
    for (i, part) in fx.parts.iter().enumerate() {
        let wf = &fx.workflows[part.workflow];
        let mut file_ms = 0.0;
        for (s, sel) in selections(wf).iter().enumerate() {
            let op = pass_id * 1_000_000 + (i * 2 + s) as u64;
            let mut run =
                |layout: &'static str, f: &dyn Fn(Traced<'_>) -> Result<Yield, String>| {
                    let t0 = Instant::now();
                    let y = match tr.as_deref_mut() {
                        Some(t) => {
                            let root = t.open(layout, None, op);
                            let y = f(Some((&mut *t, root)));
                            t.close(root);
                            y
                        }
                        None => f(None),
                    };
                    (y, t0.elapsed())
                };
            let (row, row_t) = run("row_pass", &|t| row_pass(fx, part, sel, t));
            let (col, col_t) = run("col_pass", &|t| col_pass(fx, part, sel, t));
            p.events += part.events;
            p.row_secs += row_t.as_secs_f64();
            p.col_secs += col_t.as_secs_f64();
            file_ms += (row_t + col_t).as_secs_f64() * 1e3;
            let checked = match (&row, &col) {
                (Ok(r), Ok(c)) => {
                    p.survivors[s] += r.survivors.len() as u64;
                    agree(&part.col_key, r, c)
                }
                _ => Ok(()),
            };
            outcome.op(row.map(|_| ()));
            outcome.op(col.map(|_| ()).and(checked));
        }
        p.op_ms.push(file_ms);
    }
    p
}

fn describe(fx: &Fixture, outcome: &mut Outcome) {
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    outcome.note(format!(
        "reanalysis: {} files x 2 layouts, {} events; row tier {:.1} MiB + columnar tier {:.1} MiB = {:.1} MiB; last-level cache {}",
        fx.parts.len(),
        fx.events,
        mib(fx.row_bytes),
        mib(fx.col_bytes),
        mib(fx.row_bytes + fx.col_bytes),
        llc_description()
    ));
}

/// The largest CPU cache sysfs reports, e.g. "L3 307200K".
fn llc_description() -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .filter_map(|i| {
            let dir = base.join(format!("index{i}"));
            let level = std::fs::read_to_string(dir.join("level")).ok()?;
            let size = std::fs::read_to_string(dir.join("size")).ok()?;
            Some((level.trim().to_string(), size.trim().to_string()))
        })
        .max_by_key(|(level, _)| level.clone())
        .map_or("unknown".to_string(), |(level, size)| {
            format!("L{level} {size}")
        })
}

fn stored_bytes(fx: &Fixture) -> u64 {
    fx.parts
        .iter()
        .flat_map(|p| [&p.row_key, &p.col_key])
        .map(|k| fx.backend.get(k).map_or(0, |v| v.len() as u64))
        .sum()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (fx, setup_s) = timed_setup(SETUP_REPEATS, || setup(seed, COPIES))?;
    let mut outcome = Outcome::default();
    describe(&fx, &mut outcome);

    let untraced_secs = if trace { seconds / 2.0 } else { seconds };
    let (mut row_rates, mut col_rates, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_ms = Vec::new();
    // Whole passes only, so every run weighs each file and selection
    // alike; another pass starts only if it is expected to end in time.
    let start = Instant::now();
    let mut pass_secs = 0.0;
    while row_rates.len() < 2 || start.elapsed().as_secs_f64() + pass_secs < untraced_secs {
        let t = Instant::now();
        let p = pass(&fx, &mut outcome, None, row_rates.len() as u64);
        pass_secs = t.elapsed().as_secs_f64();
        row_rates.push(p.events as f64 / p.row_secs);
        col_rates.push(p.events as f64 / p.col_secs);
        // Every event is analysed once per layout.
        rates.push(2.0 * p.events as f64 / (p.row_secs + p.col_secs));
        op_ms.extend(p.op_ms);
    }
    if !trace {
        // Items are events: throughput is events analysed per second
        // over both layouts; each layout's own rate is noted.
        outcome.note(format!(
            "reanalysis: row layout {:.0} events/s, columnar layout {:.0} events/s (medians over {} passes)",
            median(&row_rates),
            median(&col_rates),
            rates.len()
        ));
        outcome.metric("setup_s", setup_s, "s", SETUP_REPEATS);
        outcome.metric("throughput", median(&rates), "items/s", rates.len());
        outcome.metric("latency_p50_ms", median(&op_ms), "ms", op_ms.len());
        outcome.metric(
            "latency_p90_ms",
            quantile(&op_ms, 0.9),
            "ms",
            op_ms.len(),
        );
        outcome.metric(
            "stored_bytes_per_item",
            stored_bytes(&fx) as f64 / fx.events as f64,
            "B/item",
            1,
        );
        return Ok(outcome);
    }

    let mut tr = Tracer::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds - untraced_secs {
        traced.push(pass(
            &fx,
            &mut outcome,
            Some(&mut tr),
            100 + traced.len() as u64,
        ));
    }
    let events: u64 = traced.iter().map(|p| p.events).sum();
    let survivors = [0, 1].map(|s| traced.iter().map(|p| p.survivors[s]).sum::<u64>());
    let st = tr.self_times();
    let ns = |name: &str| st.get(name).map_or(0.0, |s| s.ns as f64);
    let gets = |name: &str| st.get(name).map_or(0, |s| s.count) as f64;
    // Each layout's input events: every file under both selections.
    let per_event = |name: &str| ns(name) / events as f64;
    outcome.metric(
        "vault.get_row_ms",
        ns("vault.get_row") / 1e6 / gets("vault.get_row"),
        "ms",
        gets("vault.get_row") as usize,
    );
    outcome.metric(
        "vault.get_col_ms",
        ns("vault.get_col") / 1e6 / gets("vault.get_col"),
        "ms",
        gets("vault.get_col") as usize,
    );
    for (metric, span) in [
        ("tiers.unseal_ns_per_event", "tiers.unseal"),
        ("tiers.row_skim_ns_per_event", "tiers.row_skim"),
        ("tiers.row_decode_ns_per_event", "tiers.row_decode"),
        ("tiers.col_skim_ns_per_event", "tiers.col_skim"),
        ("tiers.col_decode_ns_per_event", "tiers.col_decode"),
    ] {
        outcome.metric(metric, per_event(span), "ns", events as usize);
    }
    // Both layouts fill the ntuple and run the analysis over the same
    // survivors.
    let both = 2 * (survivors[0] + survivors[1]);
    outcome.metric(
        "tiers.ntuple_fill_ns_per_row",
        ns("tiers.ntuple_fill") / both as f64,
        "ns",
        both as usize,
    );
    outcome.metric(
        "rivet.analysis_ns_per_event",
        ns("rivet.analysis") / both as f64,
        "ns",
        both as usize,
    );
    let per_selection = events as f64 / 2.0;
    outcome.metric(
        "tiers.survivor_share.workflow",
        survivors[0] as f64 / per_selection,
        "share",
        survivors[0] as usize,
    );
    outcome.metric(
        "tiers.survivor_share.all",
        survivors[1] as f64 / per_selection,
        "share",
        survivors[1] as usize,
    );
    outcome.metric(
        "tiers.row_bytes_per_event",
        fx.row_bytes as f64 / fx.events as f64,
        "B",
        1,
    );
    outcome.metric(
        "tiers.col_bytes_per_event",
        fx.col_bytes as f64 / fx.events as f64,
        "B",
        1,
    );
    let untraced_ns = 1e9 / median(&row_rates) + 1e9 / median(&col_rates);
    let traced_ns = traced
        .iter()
        .map(|p| (p.row_secs + p.col_secs) * 1e9)
        .sum::<f64>()
        / events as f64;
    outcome.metric(
        "trace.overhead_share",
        traced_ns / untraced_ns - 1.0,
        "share",
        traced.len(),
    );
    crate::write_trace(&tr, "reanalysis", &mut outcome);
    Ok(outcome)
}

/// One pass over a small tier in which one byte of one stored row file
/// is flipped on the backend. The pass must report that file's reads as
/// failed.
pub fn corrupted_pass(seed: u64) -> Result<Outcome, String> {
    let fx = setup(seed, COPIES_PER_FILE)?;
    let key = &fx.parts[0].row_key;
    let stored = fx
        .backend
        .get(key)
        .map_err(|e| format!("reading {key} from the backend: {e}"))?;
    let mut damaged = stored.to_vec();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    fx.backend
        .put(key, &Bytes::from(damaged))
        .map_err(|e| format!("writing {key} to the backend: {e}"))?;
    let mut outcome = Outcome::default();
    pass(&fx, &mut outcome, None, 0);
    Ok(outcome)
}
