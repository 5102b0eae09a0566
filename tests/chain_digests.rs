//! Chain digest pin: the bytes every reconstruction-kernel change must
//! leave alone.
//!
//! Executes the five workflows of the `preserve` benchmark rotation (Z
//! for ATLAS, CMS and ALICE, charm for LHCb, Z for LHCb; seeds 1..=5) at
//! 256 events each, at one and at two threads, and compares the fnv64 of
//! the RAW, AOD and skim tier bytes, of the ntuple's bits and of the
//! analysis-results text against digests recorded before the kernels were
//! last rewritten. The golden corpus covers only CMS Z; this covers the
//! ALICE and LHCb charm paths too. Outputs do not depend on the thread
//! count, so both runs must match the same table.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! format of `PINNED`.

use daspos::prelude::*;
use daspos_hep::ids::DatasetId;
use daspos_tiers::codec::fnv64;
use daspos_tiers::Ntuple;

const EVENTS: u64 = 256;

/// The `preserve` rotation at seed 1.
fn rotation() -> Vec<(&'static str, PreservedWorkflow)> {
    vec![
        (
            "atlas-z",
            PreservedWorkflow::standard_z(Experiment::Atlas, 1, EVENTS),
        ),
        (
            "cms-z",
            PreservedWorkflow::standard_z(Experiment::Cms, 2, EVENTS),
        ),
        (
            "alice-z",
            PreservedWorkflow::standard_z(Experiment::Alice, 3, EVENTS),
        ),
        ("lhcb-charm", PreservedWorkflow::standard_charm(4, EVENTS)),
        (
            "lhcb-z",
            PreservedWorkflow::standard_z(Experiment::Lhcb, 5, EVENTS),
        ),
    ]
}

/// `(workflow, raw, aod, skim, ntuple, results)` fnv64 digests.
type Row = (&'static str, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINNED: [Row; 5] = [
    ("atlas-z", 0x2eee01f30e50d4ac, 0x95d6efc0b77c532c, 0x74df1b9dbbc93055, 0x33a53bc61cd4e108, 0x891d5ccc6592739f),
    ("cms-z", 0x94ae68c5c0985c7f, 0x0fde2929c1fab9df, 0x257a2c5039f64897, 0x01061198b46c5be1, 0x419e88503a8e800d),
    ("alice-z", 0xb4038ff79853f0a7, 0x9daac4c66ee2112a, 0x739718ba3eee9d8d, 0x6afcf59135de36d1, 0x1d262f6eefd6b5af),
    ("lhcb-charm", 0x8f8383113e6a0929, 0xcd02077b4ed66b2a, 0x082b13920f5cfd08, 0x0f22916b1d63d168, 0x93c9090cccaa01c4),
    ("lhcb-z", 0x6eaa9ed4e69a24bf, 0x5fbf3e89adbfa354, 0x83381cb81b1bd83c, 0x7d60206bf61bbe95, 0xa1e83d30c941552b),
];

fn dataset_digest(ctx: &ExecutionContext, id: DatasetId) -> u64 {
    let ds = ctx.catalog.get(id).expect("dataset is catalogued");
    let bytes: Vec<u8> = ds.file_data().flat_map(|f| f.iter().copied()).collect();
    fnv64(&bytes)
}

/// The schema text, then every value's bits in row order.
fn ntuple_digest(nt: &Ntuple) -> u64 {
    let mut bytes = nt.schema().to_text().into_bytes();
    for i in 0..nt.n_rows() {
        for v in nt.row(i) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv64(&bytes)
}

fn digests(threads: usize) -> Vec<Row> {
    rotation()
        .into_iter()
        .map(|(name, wf)| {
            let ctx = ExecutionContext::fresh(&wf);
            let out = wf
                .execute(&ctx, &ExecOptions::new().threads(threads))
                .unwrap_or_else(|e| panic!("{name} at {threads} thread(s) failed: {e}"));
            (
                name,
                dataset_digest(&ctx, out.raw_dataset),
                dataset_digest(&ctx, out.aod_dataset),
                dataset_digest(&ctx, out.skim_dataset),
                ntuple_digest(&out.ntuple),
                fnv64(out.results_to_text().as_bytes()),
            )
        })
        .collect()
}

fn table(rows: &[Row]) -> String {
    rows.iter()
        .map(|(n, raw, aod, skim, nt, res)| {
            format!(
                "    ({n:?}, 0x{raw:016x}, 0x{aod:016x}, 0x{skim:016x}, 0x{nt:016x}, 0x{res:016x}),\n"
            )
        })
        .collect()
}

fn check(threads: usize) {
    let got = digests(threads);
    assert!(
        got == PINNED,
        "chain digests drifted at {threads} thread(s); computed:\n{}",
        table(&got)
    );
}

#[test]
fn rotation_digests_are_pinned_at_one_thread() {
    check(1);
}

#[test]
fn rotation_digests_are_pinned_at_two_threads() {
    check(2);
}
