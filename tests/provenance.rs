//! Provenance equivalence: the merge-lineage forest (edges, rule
//! firings, explain chains) must be identical across every engine
//! configuration — serial, banded scans at 1..=8 bands, and the durable
//! engine — and must survive SIGKILL + journal replay byte for byte.
//!
//! The guarantee under test is the band-replicated scan's deterministic
//! first-found attribution: every configuration discovers pairs in the
//! same order, so the spanning forest (first union wins) is the same
//! everywhere, and an `explain(a, b)` answer is a stable fact about the
//! data, not an artifact of the execution plan.

#![cfg(unix)]

use merge_purge::incremental::DurableIncremental;
use merge_purge::{IncrementalMergePurge, KeySpec};
use merge_purge_repro::serve::{ingest_request, json::Json, request};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_metrics::NoopObserver;
use mp_record::Record;
use mp_rules::NativeEmployeeTheory;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-prov-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(seed: u64, n: usize) -> Vec<Record> {
    DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
        .generate()
        .records
}

fn split(records: &[Record], parts: usize) -> Vec<Vec<Record>> {
    let chunk = records.len().div_ceil(parts.max(1));
    records.chunks(chunk).map(<[Record]>::to_vec).collect()
}

fn engine(window: usize) -> IncrementalMergePurge {
    IncrementalMergePurge::new()
        .pass(KeySpec::last_name_key(), window)
        .pass(KeySpec::first_name_key(), window)
}

/// Encoded provenance log: the byte-level identity every configuration
/// must agree on (edges in discovery order, batch traces, rule firings).
fn dump(e: &IncrementalMergePurge) -> Vec<u8> {
    let mut out = Vec::new();
    e.provenance().encode_into(&mut out);
    out
}

/// Sample pairs spanning the interesting cases: same cluster near and
/// far, different clusters, and identity.
fn probe_pairs(e: &IncrementalMergePurge) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for class in e.classes() {
        if class.len() >= 2 {
            pairs.push((class[0], class[1]));
            pairs.push((class[0], *class.last().unwrap()));
            if pairs.len() >= 24 {
                break;
            }
        }
    }
    let n = e.records().len() as u32;
    if n >= 2 {
        pairs.push((0, n - 1));
        pairs.push((n - 1, n - 1));
    }
    pairs
}

proptest! {
    #[test]
    fn chains_identical_across_shard_counts_and_durability(
        seed in 0u64..1_000_000,
        originals in 60usize..240,
        parts in 1usize..4,
    ) {
        let records = generate(seed, originals);
        let batches = split(&records, parts);
        let theory = NativeEmployeeTheory::new();

        // Reference: the serial incremental engine.
        let mut serial = engine(6);
        for (i, b) in batches.iter().enumerate() {
            serial.add_batch(b.clone(), &theory);
            serial.note_batch_trace(&format!("trace-{i}"));
        }
        let want = dump(&serial);
        let probes = probe_pairs(&serial);

        // Banded scans, every band count 1..=8.
        for bands in 1..=8usize {
            let mut e = engine(6);
            for (i, b) in batches.iter().enumerate() {
                e.add_batch_sharded(b.clone(), &theory, bands, &NoopObserver);
                e.note_batch_trace(&format!("trace-{i}"));
            }
            prop_assert_eq!(
                &dump(&e), &want,
                "provenance bytes diverge at {} bands", bands
            );
            for &(a, b) in &probes {
                prop_assert_eq!(
                    e.explain(a, b), serial.explain(a, b),
                    "explain({}, {}) diverges at {} bands", a, b, bands
                );
            }
        }

        // Durable engine: journal every batch at 3 bands, then reopen and
        // replay at 1.
        let dir = tmp_dir(&format!("prop-{seed}-{originals}-{parts}"));
        let configure = |e: IncrementalMergePurge| {
            e.pass(KeySpec::last_name_key(), 6)
                .pass(KeySpec::first_name_key(), 6)
        };
        let (mut durable, _) =
            DurableIncremental::open(&dir, 3, configure, &theory, &NoopObserver).unwrap();
        for (i, b) in batches.iter().enumerate() {
            durable
                .ingest(b.clone(), Some(&format!("trace-{i}")), &theory, &NoopObserver)
                .unwrap();
        }
        prop_assert_eq!(dump(durable.engine()), want.clone());
        drop(durable);
        let (reopened, report) =
            DurableIncremental::open(&dir, 1, configure, &theory, &NoopObserver).unwrap();
        prop_assert_eq!(report.batches_replayed, batches.len() as u64);
        prop_assert_eq!(
            dump(reopened.engine()), want,
            "journal replay must rebuild the identical provenance log"
        );
        for &(a, b) in &probes {
            prop_assert_eq!(reopened.engine().explain(a, b), serial.explain(a, b));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every explain chain is a real path: connectivity agrees with the
/// closure, and consecutive edges share the record the walk is standing
/// on, ending at the asked-for pair.
#[test]
fn explain_chains_are_valid_paths_matching_the_closure() {
    let records = generate(77, 400);
    let theory = NativeEmployeeTheory::new();
    let mut e = engine(8);
    e.add_batch(records, &theory);

    let classes = e.classes();
    let class_of = {
        let mut m = vec![u32::MAX; e.records().len()];
        for (c, class) in classes.iter().enumerate() {
            for &id in class {
                m[id as usize] = c as u32;
            }
        }
        m
    };
    let n = e.records().len() as u32;
    let mut connected = 0;
    for a in (0..n).step_by(7) {
        for b in (0..n).step_by(13) {
            let chain = e.explain(a, b);
            if a == b {
                assert_eq!(chain, Some(vec![]), "a record explains itself trivially");
                continue;
            }
            // `classes()` lists multi-record classes only: a sentinel
            // means singleton, which never explains against anything.
            let (ca, cb) = (class_of[a as usize], class_of[b as usize]);
            if ca != cb || ca == u32::MAX {
                assert!(chain.is_none(), "{a} and {b} are in different classes");
                continue;
            }
            connected += 1;
            let chain = chain.unwrap_or_else(|| panic!("{a} and {b} share a class"));
            assert!(!chain.is_empty());
            // Walk the chain from `a`: each hop's edge must touch the
            // record we stand on and move us to the other endpoint.
            let mut at = a;
            for hop in &chain {
                assert!(hop.a < hop.b, "edges are stored low-high");
                at = if hop.a == at {
                    hop.b
                } else {
                    assert_eq!(hop.b, at, "edge ({}, {}) skips {at}", hop.a, hop.b);
                    hop.a
                };
                assert!(hop.batch_seq >= 1);
            }
            assert_eq!(at, b, "the walk must end at the asked-for record");
        }
    }
    assert!(connected > 0, "the probe grid found no connected pairs");
}

/// Provenance is an observer: turning it off changes no match decision,
/// and rule firings count every match while edges count only the unions.
#[test]
fn without_provenance_keeps_decisions_and_drops_the_log() {
    let records = generate(99, 300);
    let theory = NativeEmployeeTheory::new();
    let mut with = engine(6);
    with.add_batch(records.clone(), &theory);
    let mut without = engine(6).without_provenance();
    without.add_batch(records, &theory);

    assert_eq!(with.pairs().sorted(), without.pairs().sorted());
    assert_eq!(with.classes(), without.classes());
    assert_eq!(with.comparisons(), without.comparisons());
    assert!(without.provenance().is_empty());
    assert!(
        without.explain(0, 1).is_none(),
        "no edges recorded, so nothing to explain"
    );

    let edges = with.provenance().edges.len() as u64;
    let firings: u64 = with.provenance().rule_firings.iter().sum();
    let classes_merged: usize = with
        .classes()
        .iter()
        .filter(|c| c.len() >= 2)
        .map(|c| c.len() - 1)
        .sum();
    assert_eq!(
        edges, classes_merged as u64,
        "spanning forest: one edge per merge ever"
    );
    assert!(
        firings >= edges,
        "every union came from a firing, plus redundant matches"
    );
    let found: u64 = with.pass_counters().iter().map(|p| p.pairs_found).sum();
    assert_eq!(firings, found, "one firing per found match, every pass");
}

// ---------------------------------------------------------------------------
// Crash safety: SIGKILL the real daemon mid-stream, then replay the
// journal in-process and require the byte-identical provenance log.
// ---------------------------------------------------------------------------

fn ask(socket: &Path, payload: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(socket, payload) {
            Ok(response) => return Json::parse(&response).expect("daemon speaks json"),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("request failed: {e}"),
        }
    }
}

#[test]
fn sigkill_then_replay_rebuilds_byte_identical_provenance() {
    let dir = tmp_dir("kill9");
    let socket = dir.join("mp.sock");
    let store = dir.join("store");
    let records = generate(4141, 500);
    let batches = split(&records, 3);

    let mut child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .args(["--store", store.to_str().unwrap()])
        .args(["--window", "8", "--keys", "last_name,first_name"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mergepurge serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Ingest all three batches, keeping the acked trace ids — they are
    // part of the provenance log and must survive the crash.
    let mut traces = Vec::new();
    for b in &batches {
        let reply = ask(&socket, &ingest_request(b));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        traces.push(
            reply
                .get("trace_id")
                .and_then(Json::as_str)
                .expect("acks carry trace ids")
                .to_string(),
        );
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);

    // The daemon never snapshotted (default interval 0): recovery is pure
    // journal replay. It must rebuild exactly the log the live engine
    // held — same edges, same firings, same trace table.
    let theory = NativeEmployeeTheory::new();
    let configure = |e: IncrementalMergePurge| {
        e.pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::first_name_key(), 8)
    };
    let (replayed, report) =
        DurableIncremental::open(&store, 1, configure, &theory, &NoopObserver).unwrap();
    assert_eq!(report.batches_replayed, batches.len() as u64);
    assert!(!report.snapshot_loaded);

    let mut reference = engine(8);
    for (b, t) in batches.iter().zip(&traces) {
        reference.add_batch(b.clone(), &theory);
        reference.note_batch_trace(t);
    }
    assert_eq!(
        dump(replayed.engine()),
        dump(&reference),
        "replayed provenance must be byte-identical to the live engine's"
    );
    assert!(!replayed.engine().provenance().is_empty());
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(
            replayed.engine().provenance().trace_for(i as u64 + 1),
            Some(t.as_str()),
            "batch {} keeps its acked trace id",
            i + 1
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
