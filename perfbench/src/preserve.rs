//! `preserve`: the producer's action, which is also the cost of a
//! RECAST-style re-execution. Each round executes a fixed rotation of the
//! standard workflows at the default thread count, packages every result
//! as an archive, stores it in a 3-replica in-memory vault and reads it
//! back. Generation, simulation and reconstruction do almost all of the
//! work here and none of it in the other two workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use daspos::archive::{ContainerVerifier, PreservationArchive};
use daspos::runner::ExecOptions;
use daspos::workflow::{ExecutionContext, PreservedWorkflow, ProductionOutput};
use daspos_conditions::DbSource;
use daspos_detsim::raw::RawEvent;
use daspos_detsim::{DetectorSimulation, Experiment};
use daspos_gen::{EventGenerator, GeneratorConfig};
use daspos_hep::ids::DatasetId;
use daspos_hep::SeedSequence;
use daspos_reco::objects::AodEvent;
use daspos_reco::processor::{RecoConfig, RecoProcessor};
use daspos_rivet::RunHarness;
use daspos_tiers::codec::Encodable;
use daspos_tiers::{skim, Ntuple};
use daspos_vault::{MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};

use crate::report::{median, quantile, timed_setup, Outcome};
use crate::trace::Tracer;
use crate::SETUP_REPEATS;

/// Events per workflow in the rotation.
pub const EVENTS_PER_WORKFLOW: u64 = 4000;

/// The rotation every round executes: Z production for ATLAS, CMS and
/// ALICE, charm for LHCb, then Z for LHCb. Per-event cost differs about
/// ninefold across them. Each workflow takes its own seed from the run's.
pub fn rotation(seed: u64, events: u64) -> Vec<PreservedWorkflow> {
    vec![
        PreservedWorkflow::standard_z(Experiment::Atlas, seed, events),
        PreservedWorkflow::standard_z(Experiment::Cms, seed.wrapping_add(1), events),
        PreservedWorkflow::standard_z(Experiment::Alice, seed.wrapping_add(2), events),
        PreservedWorkflow::standard_charm(seed.wrapping_add(3), events),
        PreservedWorkflow::standard_z(Experiment::Lhcb, seed.wrapping_add(4), events),
    ]
}

/// The tier outputs of one execution that must not depend on the thread
/// count.
struct Tiers {
    raw: Bytes,
    aod: Bytes,
    skim: Bytes,
    ntuple: Ntuple,
}

fn dataset_bytes(ctx: &ExecutionContext, id: DatasetId) -> Result<Bytes, String> {
    let ds = ctx
        .catalog
        .get(id)
        .map_err(|e| format!("dataset {id:?} missing from the catalog: {e:?}"))?;
    match ds.files.as_slice() {
        [one] => Ok(one.data.clone()),
        files => Ok(Bytes::from(
            files
                .iter()
                .flat_map(|f| f.data.iter().copied())
                .collect::<Vec<u8>>(),
        )),
    }
}

fn tiers_of(ctx: &ExecutionContext, out: &ProductionOutput) -> Result<Tiers, String> {
    Ok(Tiers {
        raw: dataset_bytes(ctx, out.raw_dataset)?,
        aod: dataset_bytes(ctx, out.aod_dataset)?,
        skim: dataset_bytes(ctx, out.skim_dataset)?,
        ntuple: out.ntuple.clone(),
    })
}

/// Ntuples compared bit for bit: a column that has no value for an event
/// holds NaN, which `==` never equates.
pub fn same_ntuple(a: &Ntuple, b: &Ntuple) -> bool {
    a.schema() == b.schema()
        && a.n_rows() == b.n_rows()
        && (0..a.n_rows()).all(|i| {
            a.row(i)
                .iter()
                .zip(b.row(i))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn compare(what: &str, got: &Tiers, want: &Tiers) -> Result<(), String> {
    for (tier, g, w) in [
        ("RAW", &got.raw, &want.raw),
        ("AOD", &got.aod, &want.aod),
        ("skim", &got.skim, &want.skim),
    ] {
        if g != w {
            return Err(format!(
                "{what}: {tier} bytes differ from the 1-thread execution"
            ));
        }
    }
    if !same_ntuple(&got.ntuple, &want.ntuple) {
        return Err(format!(
            "{what}: ntuple differs from the 1-thread execution"
        ));
    }
    Ok(())
}

pub struct Fixture {
    workflows: Vec<PreservedWorkflow>,
    reference: Vec<Tiers>,
    backends: Vec<Arc<MemoryBackend>>,
    vault: Vault,
    threads: usize,
}

/// Execute every workflow once at one thread for the reference tiers and
/// build the empty 3-replica vault.
pub fn setup(seed: u64) -> Result<Fixture, String> {
    let workflows = rotation(seed, EVENTS_PER_WORKFLOW);
    let reference = workflows
        .iter()
        .map(|wf| {
            let ctx = ExecutionContext::fresh(wf);
            let out = wf
                .execute(&ctx, &ExecOptions::new().threads(1))
                .map_err(|e| format!("1-thread reference execution failed: {e}"))?;
            tiers_of(&ctx, &out)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let backends: Vec<Arc<MemoryBackend>> =
        (0..3).map(|_| Arc::new(MemoryBackend::new())).collect();
    let vault = Vault::builder()
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(Redundancy::Replicas(3))
        .verifier(Arc::new(ContainerVerifier))
        .build()
        .map_err(|e| format!("vault build failed: {e}"))?;
    Ok(Fixture {
        workflows,
        reference,
        backends,
        vault,
        threads: ExecOptions::default().thread_count(),
    })
}

/// Optional tracing context: the tracer and the span new spans hang off.
type Traced<'a> = Option<(&'a mut Tracer, usize)>;

fn step<T>(tr: &mut Traced<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some((t, parent)) => t.span(name, *parent, f),
        None => f(),
    }
}

/// What one preserve operation leaves behind for checking and counting.
struct Preserved {
    elapsed: Duration,
    events: u64,
    archive_bytes: usize,
    iov: (u64, u64),
}

/// The user action for workflow `i`: execute, package, store, read back,
/// verify. Timed without the output checks, which follow it.
fn preserve_one(fx: &Fixture, i: usize, mut tr: Traced<'_>) -> Result<Preserved, String> {
    let wf = &fx.workflows[i];
    let key = format!("rotation-{i}.dpar");
    let t0 = Instant::now();
    let ctx = step(&mut tr, "daspos.context", || ExecutionContext::fresh(wf));
    let iov_before = ctx.conditions.cursor_stats();
    let out = step(&mut tr, "daspos.execute", || {
        wf.execute(&ctx, &ExecOptions::default())
    })
    .map_err(|e| format!("{key}: execute failed: {e}"))?;
    let iov_after = ctx.conditions.cursor_stats();
    let archive_bytes = step(&mut tr, "daspos.archive_build", || {
        PreservationArchive::builder(key.clone())
            .production(wf, &ctx, &out)
            .map(|b| b.build().to_bytes())
    })
    .map_err(|e| format!("{key}: packaging failed: {e}"))?;
    step(&mut tr, "vault.put", || {
        fx.vault.put(&key, ObjectKind::Container, &archive_bytes)
    })
    .map_err(|e| format!("{key}: vault put failed: {e}"))?;
    let (_, read_back) = step(&mut tr, "vault.get", || fx.vault.get(&key))
        .map_err(|e| format!("{key}: vault get failed: {e}"))?;
    step(&mut tr, "daspos.archive_verify", || {
        PreservationArchive::from_bytes(&read_back).and_then(|a| a.verify_integrity())
    })
    .map_err(|e| format!("{key}: read-back archive does not verify: {e}"))?;
    let elapsed = t0.elapsed();

    if read_back != archive_bytes {
        return Err(format!("{key}: vault read-back is not byte-identical"));
    }
    compare(&key, &tiers_of(&ctx, &out)?, &fx.reference[i])?;
    Ok(Preserved {
        elapsed,
        events: wf.n_events,
        archive_bytes: archive_bytes.len(),
        iov: (iov_after.0 - iov_before.0, iov_after.1 - iov_before.1),
    })
}

/// Totals of one round over the whole rotation.
#[derive(Default)]
struct Round {
    secs: f64,
    /// Time of each preserve operation, in ms.
    op_ms: Vec<f64>,
    events: u64,
    archive_bytes: usize,
    iov: (u64, u64),
}

fn round(fx: &Fixture, outcome: &mut Outcome, mut tr: Option<&mut Tracer>, round_id: u64) -> Round {
    let mut r = Round::default();
    let root = tr.as_deref_mut().map(|t| t.open("round", None, round_id));
    for i in 0..fx.workflows.len() {
        let traced = match (tr.as_deref_mut(), root) {
            (Some(t), Some(root)) => Some((t, root)),
            _ => None,
        };
        let result = preserve_one(fx, i, traced).map(|p| {
            r.secs += p.elapsed.as_secs_f64();
            r.op_ms.push(p.elapsed.as_secs_f64() * 1e3);
            r.events += p.events;
            r.archive_bytes += p.archive_bytes;
            r.iov.0 += p.iov.0;
            r.iov.1 += p.iov.1;
        });
        outcome.op(result);
    }
    if let (Some(t), Some(root)) = (tr, root) {
        t.close(root);
    }
    r
}

/// Bytes the vault holds for this rotation, summed over every backend.
fn stored_bytes(fx: &Fixture) -> usize {
    (0..fx.workflows.len())
        .map(|i| {
            let key = format!("rotation-{i}.dpar");
            fx.backends
                .iter()
                .map(|b| b.get(&key).map_or(0, |v| v.len()))
                .sum::<usize>()
        })
        .sum()
}

/// Time spent in the chain's layers, called one by one with a span around
/// each, for one workflow. The outputs must equal the 1-thread reference,
/// which shows the walk does the same work `execute` does.
fn walk(fx: &Fixture, i: usize, tr: &mut Tracer, op: u64) -> Result<u64, String> {
    let wf = &fx.workflows[i];
    let threads = fx.threads;
    let root = tr.open("walk", None, op);
    let ctx = ExecutionContext::fresh(wf);
    let gen = EventGenerator::new(
        GeneratorConfig::new(wf.process, wf.seed)
            .with_new_physics(wf.new_physics)
            .with_pileup(wf.pileup_mu),
    );
    let detector = wf.experiment.detector();
    let source = || {
        Arc::new(DbSource::connect(
            Arc::clone(&ctx.conditions),
            &wf.conditions_tag,
        ))
    };
    let sim = DetectorSimulation::new(detector.clone(), source(), SeedSequence::new(wf.seed));
    let reco = RecoProcessor::new(detector, RecoConfig::default(), source());
    let n = wf.n_events;

    let truth: Vec<_> = tr.span("gen", root, || (0..n).map(|i| gen.event(i)).collect());
    let raw: Vec<RawEvent> = tr
        .span("detsim", root, || {
            truth
                .iter()
                .zip(0..n)
                .map(|(t, i)| sim.simulate(t, i))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| format!("walk {i}: simulate failed: {e}"))?;
    let aod: Vec<AodEvent> = tr
        .span("reco", root, || {
            raw.iter()
                .map(|r| reco.process(r).map(|(_, aod)| aod))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| format!("walk {i}: reconstruct failed: {e}"))?;
    let raw_file = tr.span("tiers.encode_raw", root, || {
        RawEvent::encode_events_parallel(&raw, threads)
    });
    let aod_file = tr.span("tiers.encode_aod", root, || {
        AodEvent::encode_events_parallel(&aod, threads)
    });
    // The same branch `execute` takes: the streaming skim at one thread,
    // the chunked skim otherwise.
    let (skim_file, survivors) = tr
        .span("tiers.skim", root, || -> Result<_, String> {
            if threads <= 1 {
                let mut kept = Vec::new();
                let (file, _) =
                    skim::skim_slim_streaming_with(&aod_file, &wf.skim, &wf.slim, |ev| {
                        kept.push(ev.clone())
                    })
                    .map_err(|e| e.to_string())?;
                Ok((file, kept))
            } else {
                let (kept, _) = skim::skim_slim_chunked(&aod, &wf.skim, &wf.slim, threads);
                Ok((AodEvent::encode_events_parallel(&kept, threads), kept))
            }
        })
        .map_err(|e| format!("walk {i}: skim failed: {e}"))?;
    let ntuple = tr.span("tiers.ntuple_fill", root, || {
        Ntuple::fill(wf.ntuple_schema.clone(), &survivors)
    });
    tr.span("rivet.analysis", root, || -> Result<(), String> {
        for key in &wf.analyses {
            let analysis = ctx
                .registry
                .get(key)
                .ok_or_else(|| format!("analysis {key} not registered"))?;
            std::hint::black_box(RunHarness::run(analysis.as_ref(), truth.iter()));
            std::hint::black_box(RunHarness::run_detector(analysis.as_ref(), aod.iter()));
        }
        Ok(())
    })
    .map_err(|e| format!("walk {i}: {e}"))?;
    tr.close(root);
    let got = Tiers {
        raw: raw_file,
        aod: aod_file,
        skim: skim_file,
        ntuple,
    };
    compare(&format!("walk {i}"), &got, &fx.reference[i])?;
    Ok(survivors.len() as u64)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (fx, setup_s) = timed_setup(SETUP_REPEATS, || setup(seed))?;
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "preserve: {} workflows x {} events per round, {} execute thread(s), 3-replica in-memory vault",
        fx.workflows.len(),
        EVENTS_PER_WORKFLOW,
        fx.threads
    ));
    outcome.note(
        "known defect (ROADMAP item 1): the .dpar provenance step records threads=N, so \
         archive bytes depend on the thread count; tier bytes are checked against the \
         1-thread run and each archive against its own vault read-back",
    );
    // Warm-up round: checked and counted, not timed.
    round(&fx, &mut outcome, None, 0);

    // Untraced rounds: all of the run, or its first half when traced.
    let untraced_secs = if trace { seconds / 2.0 } else { seconds };
    let mut rates = Vec::new();
    let mut round_ms = Vec::new();
    let mut op_ms = Vec::new();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < untraced_secs {
        let r = round(&fx, &mut outcome, None, rates.len() as u64 + 1);
        if r.secs > 0.0 {
            rates.push(r.events as f64 / r.secs);
            round_ms.push(r.secs * 1e3);
            op_ms.extend(r.op_ms);
        }
    }
    let events_per_round: u64 = fx.workflows.iter().map(|w| w.n_events).sum();
    let stored = stored_bytes(&fx);

    if !trace {
        // Items are events: throughput is preserved events per second.
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
            stored as f64 / events_per_round as f64,
            "B/item",
            1,
        );
        return Ok(outcome);
    }

    let mut tr = Tracer::new();
    let mut traced_ms = Vec::new();
    let mut archive_bytes = 0usize;
    let mut iov = (0u64, 0u64);
    let mut walked_events = 0u64;
    let mut survivors = 0u64;
    let start = Instant::now();
    while traced_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds - untraced_secs {
        let id = 1000 + traced_ms.len() as u64;
        let r = round(&fx, &mut outcome, Some(&mut tr), id);
        traced_ms.push(r.secs * 1e3);
        archive_bytes += r.archive_bytes;
        iov.0 += r.iov.0;
        iov.1 += r.iov.1;
        for i in 0..fx.workflows.len() {
            let result = walk(&fx, i, &mut tr, id).map(|kept| {
                walked_events += fx.workflows[i].n_events;
                survivors += kept;
            });
            outcome.op(result);
        }
    }
    let rounds = traced_ms.len() as f64;
    let st = tr.self_times();
    let ns = |name: &str| st.get(name).map_or(0.0, |s| s.ns as f64);
    let per_event = |name: &str| ns(name) / walked_events.max(1) as f64;
    let per_round_ms = |name: &str| ns(name) / 1e6 / rounds;

    outcome.metric(
        "gen.event_us",
        per_event("gen") / 1e3,
        "us",
        walked_events as usize,
    );
    outcome.metric(
        "detsim.simulate_us",
        per_event("detsim") / 1e3,
        "us",
        walked_events as usize,
    );
    outcome.metric(
        "reco.process_us",
        per_event("reco") / 1e3,
        "us",
        walked_events as usize,
    );
    for (metric, span) in [
        ("tiers.encode_raw_ns_per_event", "tiers.encode_raw"),
        ("tiers.encode_aod_ns_per_event", "tiers.encode_aod"),
        ("tiers.skim_ns_per_event", "tiers.skim"),
        ("rivet.analysis_ns_per_event", "rivet.analysis"),
    ] {
        outcome.metric(metric, per_event(span), "ns", walked_events as usize);
    }
    outcome.metric(
        "tiers.ntuple_fill_ns_per_row",
        ns("tiers.ntuple_fill") / survivors.max(1) as f64,
        "ns",
        survivors as usize,
    );
    for (metric, span) in [
        ("daspos.archive_build_ms", "daspos.archive_build"),
        ("vault.put_ms", "vault.put"),
        ("vault.get_ms", "vault.get"),
    ] {
        outcome.metric(metric, per_round_ms(span), "ms", traced_ms.len());
    }
    outcome.metric(
        "vault.bytes_per_user_byte",
        stored as f64 / (archive_bytes as f64 / rounds),
        "ratio",
        1,
    );
    outcome.metric(
        "conditions.iov_cursor_hit_ratio",
        iov.0 as f64 / iov.1.max(1) as f64,
        "ratio",
        iov.1 as usize,
    );
    // The residual is what the end-to-end round spends outside the
    // layers: the runner pool, the merge, provenance and catalog work.
    // The pooled stages run on `threads` workers inside `execute`, so
    // their summed self time counts at 1/threads of its length.
    let pooled_ms = (ns("gen") + ns("detsim") + ns("reco")) / 1e6 / rounds / fx.threads as f64;
    let serial_ms: f64 = [
        "tiers.encode_raw",
        "tiers.encode_aod",
        "tiers.skim",
        "tiers.ntuple_fill",
        "rivet.analysis",
        "daspos.context",
        "daspos.archive_build",
        "vault.put",
        "vault.get",
        "daspos.archive_verify",
    ]
    .iter()
    .map(|s| per_round_ms(s))
    .sum();
    let e2e_ms = median(&round_ms);
    outcome.metric(
        "daspos.residual_ms",
        e2e_ms - pooled_ms - serial_ms,
        "ms",
        round_ms.len(),
    );
    outcome.metric(
        "trace.overhead_share",
        median(&traced_ms) / e2e_ms - 1.0,
        "share",
        traced_ms.len(),
    );
    crate::write_trace(&tr, "preserve", &mut outcome);
    Ok(outcome)
}
