//! Golden-corpus regression suite.
//!
//! `tests/golden/` holds reference artifacts produced by a fixed seeded
//! chain (CMS Z-boson, seed 20130908, 32 events): the packaged `.dpar`
//! container, sealed AOD and RAW tier files, the conditions-snapshot
//! text, the results text, and an `digests.txt` index of fnv64 digests.
//! This test rebuilds the chain and asserts today's toolchain produces
//! the corpus **byte-for-byte**, then decodes and validates the stored
//! artifacts themselves — so any unintended change to event generation,
//! simulation, codec layout, sealing, or container format shows up as a
//! corpus diff, not as silent drift.
//!
//! After an *intended* format change, refresh the corpus with
//!
//! ```text
//! DASPOS_GOLDEN_REFRESH=1 cargo test --test golden_corpus
//! ```
//!
//! and commit the new files together with the change that explains them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use bytes::Bytes;
use daspos::archive::sections;
use daspos::prelude::*;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::{self, fnv64, Encodable};

const GOLDEN_SEED: u64 = 20130908;
const GOLDEN_EVENTS: u64 = 32;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Rebuild the fixed chain and serialize every corpus artifact.
fn build_corpus() -> BTreeMap<&'static str, Vec<u8>> {
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, GOLDEN_SEED, GOLDEN_EVENTS);
    let ctx = ExecutionContext::fresh(&workflow);
    let output = workflow.execute(&ctx, &ExecOptions::default()).expect("chain executes");
    let archive = PreservationArchive::builder("cms-z-golden")
        .production(&workflow, &ctx, &output)
        .expect("packages")
        .build();

    let aod_payload = AodEvent::encode_events(&output.aod_events);
    let raw_payload = ctx
        .catalog
        .get(output.raw_dataset)
        .expect("raw dataset")
        .file_data()
        .next()
        .expect("raw file")
        .clone();

    let mut corpus: BTreeMap<&'static str, Vec<u8>> = BTreeMap::new();
    corpus.insert("cms-z.dpar", archive.to_bytes().to_vec());
    corpus.insert("cms-z.aod.dpefs", codec::seal(&aod_payload).to_vec());
    corpus.insert("cms-z.raw.dpefs", codec::seal(&raw_payload).to_vec());
    corpus.insert(
        "cms-z.conditions.txt",
        archive
            .section_text(sections::CONDITIONS)
            .expect("conditions text")
            .as_bytes()
            .to_vec(),
    );
    corpus.insert(
        "cms-z.results.txt",
        archive
            .section_text(sections::RESULTS)
            .expect("results text")
            .as_bytes()
            .to_vec(),
    );

    let mut index = String::new();
    for (name, data) in &corpus {
        index.push_str(&format!("{name} {:016x} {}\n", fnv64(data), data.len()));
    }
    corpus.insert("digests.txt", index.into_bytes());
    corpus
}

#[test]
fn golden_corpus_is_reproduced_byte_for_byte() {
    let dir = golden_dir();
    let corpus = build_corpus();

    if std::env::var_os("DASPOS_GOLDEN_REFRESH").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        for (name, data) in &corpus {
            std::fs::write(dir.join(name), data).expect("write golden file");
        }
        eprintln!("golden corpus refreshed in {}", dir.display());
        return;
    }

    assert!(
        dir.join("digests.txt").exists(),
        "golden corpus missing — generate it once with \
         DASPOS_GOLDEN_REFRESH=1 cargo test --test golden_corpus"
    );
    // Compare every file before failing, so one drifted artifact cannot
    // hide the state of the others.
    let drifted: Vec<String> = corpus
        .iter()
        .filter_map(|(name, expected)| {
            let stored = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("cannot read golden {name}: {e}"));
            (&stored != expected).then(|| {
                format!(
                    "{name}: stored {} bytes (fnv64 {:016x}), rebuilt {} bytes (fnv64 {:016x})",
                    stored.len(),
                    fnv64(&stored),
                    expected.len(),
                    fnv64(expected)
                )
            })
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} golden file(s) drifted — if the change is intended, refresh with \
         DASPOS_GOLDEN_REFRESH=1:\n  {}",
        drifted.len(),
        drifted.join("\n  ")
    );
}

#[test]
fn golden_artifacts_still_decode_and_validate() {
    let dir = golden_dir();
    if !dir.join("digests.txt").exists() {
        eprintln!("golden corpus absent; run the refresh first");
        return;
    }

    // The stored container parses, verifies, and validates by
    // re-execution on the current platform.
    let dpar = std::fs::read(dir.join("cms-z.dpar")).expect("read dpar");
    let archive = PreservationArchive::from_bytes(&Bytes::from(dpar)).expect("parses");
    archive.verify_integrity().expect("verifies");
    let report =
        Validator::new(&Platform::current()).run(&archive).expect("validates");
    assert!(report.passed(), "golden archive failed validation: {}", report.detail);

    // The sealed tier files unseal and decode.
    let sealed_aod = Bytes::from(std::fs::read(dir.join("cms-z.aod.dpefs")).unwrap());
    let aod_payload = codec::unseal(&sealed_aod).expect("aod seal verifies");
    let aods = AodEvent::decode_events(&aod_payload).expect("aod decodes");
    assert_eq!(aods.len() as u64, GOLDEN_EVENTS);

    let sealed_raw = Bytes::from(std::fs::read(dir.join("cms-z.raw.dpefs")).unwrap());
    let raw_payload = codec::unseal(&sealed_raw).expect("raw seal verifies");
    use daspos_detsim::raw::RawEvent;
    let raws = RawEvent::decode_events(&raw_payload).expect("raw decodes");
    assert_eq!(raws.len() as u64, GOLDEN_EVENTS);

    // The conditions text carries a digest and parses; the results text
    // matches the archive's RESULTS section exactly.
    let cond = std::fs::read_to_string(dir.join("cms-z.conditions.txt")).unwrap();
    assert!(cond.lines().nth(1).unwrap_or("").starts_with("digest "));
    daspos_conditions::Snapshot::from_text(&cond).expect("conditions parse");
    let results = std::fs::read(dir.join("cms-z.results.txt")).unwrap();
    assert_eq!(
        archive.section(sections::RESULTS).expect("results section"),
        &Bytes::from(results)
    );

    // The digest index is consistent with the files it describes.
    let index = std::fs::read_to_string(dir.join("digests.txt")).unwrap();
    for line in index.lines() {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("name");
        let digest = u64::from_str_radix(parts.next().expect("digest"), 16).unwrap();
        let len: usize = parts.next().expect("len").parse().unwrap();
        if name == "digests.txt" {
            continue; // the index cannot contain its own digest
        }
        let data = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(data.len(), len, "stored length drifted for {name}");
        assert_eq!(fnv64(&data), digest, "stored digest drifted for {name}");
    }
}

#[test]
fn produced_archive_is_identical_at_every_thread_count() {
    // The provenance step records the sequential execution every thread
    // count reproduces, so `produce` writes the same container bytes at
    // --threads 1, at 4 and at the host's default worker count. 96
    // events span two work chunks, so the pooled runs really do split.
    let dir = std::env::temp_dir().join(format!("daspos-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut archives = Vec::new();
    for threads in [Some("1"), Some("4"), None] {
        let out = dir.join(format!("cms-z-{}.dpar", threads.unwrap_or("default")));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_daspos-cli"));
        cmd.args(["produce", "--experiment", "cms", "--events", "96", "--seed"])
            .arg(GOLDEN_SEED.to_string())
            .arg("--out")
            .arg(&out);
        if let Some(t) = threads {
            cmd.args(["--threads", t]);
        }
        let run = cmd.output().expect("cli spawns");
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        archives.push((threads, std::fs::read(&out).expect("archive written")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (_, reference) = &archives[0];
    for (threads, bytes) in &archives[1..] {
        assert!(
            bytes == reference,
            "--threads {} wrote different .dpar bytes than --threads 1",
            threads.unwrap_or("<default>")
        );
    }
}
