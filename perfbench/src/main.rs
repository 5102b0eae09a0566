//! The repository benchmark. One command runs one workload with its seed,
//! checks every output, and prints each metric by name with its unit; the
//! last line of stdout is the JSON result.
//!
//! ```text
//! daspos-perfbench --workload <preserve|reanalysis|serve> --seed <n> \
//!                  --seconds <s> --trace <0|1>
//! daspos-perfbench --selftest
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` records spans
//! around every layer call, writes them to
//! `.perfbench/trace-<workload>.jsonl` and reports the per-layer metrics.
//! `--selftest` runs the output checks against deliberately corrupted
//! data and exits 0 only if they report the damage. See README.md.

mod preserve;
mod reanalysis;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics `--trace 0` reports, with their units. Every
/// workload measures every one of them; an "item" is an event for
/// `preserve` and `reanalysis` and a user byte for `serve` (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_share", "share"),
    ("throughput", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("stored_bytes_per_item", "B/item"),
];

/// The per-layer metrics `--trace 1` reports, with their units. A
/// workload that never calls a layer reports that layer's figures as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.event_us", "us"),
    ("detsim.simulate_us", "us"),
    ("reco.process_us", "us"),
    ("tiers.encode_raw_ns_per_event", "ns"),
    ("tiers.encode_aod_ns_per_event", "ns"),
    ("tiers.skim_ns_per_event", "ns"),
    ("rivet.analysis_ns_per_event", "ns"),
    ("tiers.ntuple_fill_ns_per_row", "ns"),
    ("daspos.archive_build_ms", "ms"),
    ("vault.put_ms", "ms"),
    ("vault.get_ms", "ms"),
    ("vault.bytes_per_user_byte", "ratio"),
    ("conditions.iov_cursor_hit_ratio", "ratio"),
    ("daspos.residual_ms", "ms"),
    ("vault.get_row_ms", "ms"),
    ("vault.get_col_ms", "ms"),
    ("tiers.unseal_ns_per_event", "ns"),
    ("tiers.row_skim_ns_per_event", "ns"),
    ("tiers.row_decode_ns_per_event", "ns"),
    ("tiers.col_skim_ns_per_event", "ns"),
    ("tiers.col_decode_ns_per_event", "ns"),
    ("tiers.survivor_share.workflow", "share"),
    ("tiers.survivor_share.all", "share"),
    ("tiers.row_bytes_per_event", "B"),
    ("tiers.col_bytes_per_event", "B"),
    ("serve.service_put_us", "us"),
    ("serve.service_get_us", "us"),
    ("serve.transport_put_us", "us"),
    ("serve.transport_get_us", "us"),
    ("vault.ec_put_us", "us"),
    ("vault.ec_get_us", "us"),
    ("serve.stream_chunk_us", "us"),
    ("serve.scrub_steps", "count"),
    ("serve.scrub_yields", "count"),
    ("serve.rejected", "count"),
    ("loadgen.turnaround_p99_us", "us"),
    ("trace.overhead_share", "share"),
];

/// Where runs leave traces and scratch files, relative to the directory
/// the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Write the run's spans as JSONL and note the per-layer self times.
pub fn write_trace(tr: &Tracer, workload: &str, outcome: &mut Outcome) {
    let path = work_dir().join(format!("trace-{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => outcome.note(format!("spans written to {}", path.display())),
        Err(e) => outcome.op(Err(format!("writing {}: {e}", path.display()))),
    }
    for (name, st) in tr.self_times() {
        outcome.note(format!(
            "self time {name:<28} {:>12.3} ms over {} span(s)",
            st.ms(),
            st.count
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Selftest,
}

fn parse_args() -> Result<Mode, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        if flag == "--selftest" {
            return Ok(Mode::Selftest);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::Selftest) => return selftest(),
        Err(e) => {
            eprintln!("daspos-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "preserve" => preserve::run(args.seed, args.seconds, args.trace),
        "reanalysis" => reanalysis::run(args.seed, args.seconds, args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace, None),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("daspos-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        outcome.complete_per_layer(PER_LAYER);
    } else {
        outcome.metric("peak_rss_mib", report::peak_rss_mib(), "MiB", 1);
        // Reported as the share that succeeded, so the metric is never 0.
        let ok_share = 1.0 - outcome.failed_share();
        outcome.metric(
            "ops_ok_share",
            ok_share,
            "share",
            outcome.attempted as usize,
        );
    }
    outcome.check_metrics(if args.trace { PER_LAYER } else { END_TO_END });
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Negative self-test of the output checks: a server that flips a byte of
/// every GET, and a reanalysis pass over a tier with one flipped backend
/// byte, must both be reported as failures.
fn selftest() -> ExitCode {
    let mut ok = true;
    match serve::run(7, 2.0, false, Some(daspos_serve::Chaos::FlipGet)) {
        Ok(o) if o.failed > 0 && !o.correct() => {
            println!(
                "selftest serve flip-get: {} of {} ops reported failed",
                o.failed, o.attempted
            )
        }
        Ok(o) => {
            println!(
                "selftest serve flip-get: NOT DETECTED ({} failed)",
                o.failed
            );
            ok = false;
        }
        Err(e) => {
            println!("selftest serve flip-get: run error {e}");
            ok = false;
        }
    }
    match reanalysis::corrupted_pass(7) {
        Ok(o) if o.failed > 0 && !o.correct() => {
            println!(
                "selftest reanalysis flipped byte: {} of {} ops reported failed",
                o.failed, o.attempted
            )
        }
        Ok(o) => {
            println!(
                "selftest reanalysis flipped byte: NOT DETECTED ({} failed)",
                o.failed
            );
            ok = false;
        }
        Err(e) => {
            println!("selftest reanalysis flipped byte: run error {e}");
            ok = false;
        }
    }
    println!("selftest {}", if ok { "PASSED" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `(name, unit)` pairs of one metric list of BENCHMARK.json, in
    /// order.
    fn manifest_list(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("list present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closed")];
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closed")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_tables_match_the_manifest() {
        let text = include_str!("../../BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(manifest_list(text, key), want, "{key}");
        }
    }
}
