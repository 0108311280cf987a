//! Frozen bytes of everything the store writes.
//!
//! The store has one snapshot encoder and one atomic-replace routine, so
//! there is no twin implementation left to compare bytes against. These
//! digests pin the on-disk format from outside: a change to any of them
//! is a format change and needs a version bump, not a new constant. The
//! snapshot pins are format version 3's; version 2, which the decoder
//! still reads, is pinned by `tests/snapshot_v2.rs` on the store it
//! decodes.
//!
//! Covered: `mergepurge load` (cold load) on the seeded 10k database, and
//! library-level checkpoints after three deterministic batches with fixed
//! trace ids, with the journal those batches left. An engine scanning in
//! several bands writes the same journal and snapshot bytes as one
//! scanning in one, so the banded leg is pinned to the same digests. The
//! second half is a property test: random engine states round-trip view →
//! bytes → decode → restore → view to identical bytes, whatever band
//! count ingested them.

#![cfg(unix)]

use merge_purge::incremental::{DurableIncremental, IncrementalMergePurge};
use merge_purge::KeySpec;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_metrics::MetricsRecorder;
use mp_record::Record;
use mp_rules::NativeEmployeeTheory;
use mp_store::{JOURNAL_FILE, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-bytes-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a 64 of a file, with its length (a digest collision that also
/// preserves the length is not a realistic accident).
fn digest(path: &Path) -> (u64, u64) {
    let data = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (data.len() as u64, h)
}

fn mergepurge(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(args)
        .output()
        .expect("run mergepurge");
    assert!(
        out.status.success(),
        "mergepurge {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn no_tmp_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            no_tmp_files(&path);
        } else {
            assert!(
                path.extension().is_none_or(|e| e != "tmp"),
                "temp file left behind: {}",
                path.display()
            );
        }
    }
}

#[test]
fn cold_load_of_the_seeded_10k_database_commits_the_pinned_bytes() {
    let dir = tmp_dir("load");
    let db = dir.join("db.mp");
    let db = db.to_str().unwrap();
    mergepurge(&[
        "generate",
        "--out",
        db,
        "--records",
        "10000",
        "--duplicates",
        "0.3",
        "--seed",
        "7",
    ]);
    let single = dir.join("single");
    mergepurge(&[
        "load",
        "--input",
        db,
        "--store",
        single.to_str().unwrap(),
        "--memory-budget",
        "1500",
    ]);
    no_tmp_files(&single);
    assert_eq!(
        digest(&single.join(SNAPSHOT_FILE)),
        (2_320_082, 0x6133_b173_c225_0373),
        "snapshot.mps of `load`"
    );
    assert_eq!(digest(&single.join(JOURNAL_FILE)), PINNED_EMPTY_JOURNAL);
    assert_one_journal_layout(&single);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal holding only its header (what a checkpoint's reset leaves).
const PINNED_EMPTY_JOURNAL: (u64, u64) = (8, 0xdc72_ec41_e1e5_db8c);
/// What a store directory holds after a load or a checkpoint: the
/// snapshot and the journal, and nothing else.
fn assert_one_journal_layout(store: &Path) {
    let mut names: Vec<String> = std::fs::read_dir(store)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, [JOURNAL_FILE, SNAPSHOT_FILE]);
}

fn configure(e: IncrementalMergePurge) -> IncrementalMergePurge {
    e.pass(KeySpec::last_name_key(), 8)
        .pass(KeySpec::first_name_key(), 8)
}

fn three_batches() -> Vec<Vec<Record>> {
    let db = DatabaseGenerator::new(GeneratorConfig::new(900).duplicate_fraction(0.4).seed(2101))
        .generate();
    let chunk = db.records.len().div_ceil(3);
    db.records.chunks(chunk).map(<[Record]>::to_vec).collect()
}

const TRACES: [&str; 3] = ["pin-00000001", "pin-00000002", "pin-00000003"];

#[test]
fn single_store_checkpoint_writes_the_pinned_bytes() {
    let dir = tmp_dir("single-ckpt");
    let theory = NativeEmployeeTheory::new();
    let recorder = MetricsRecorder::new();
    let (mut d, _) = DurableIncremental::open(&dir, 1, configure, &theory, &recorder).unwrap();
    for (batch, trace) in three_batches().into_iter().zip(TRACES) {
        d.ingest(batch, Some(trace), &theory, &recorder).unwrap();
    }
    assert_eq!(
        digest(&dir.join(JOURNAL_FILE)),
        (169_570, 0xcd6f_34c3_3150_7778),
        "journal of three traced batches"
    );
    let bytes = d.checkpoint(&recorder).unwrap();
    let pinned = digest(&dir.join(SNAPSHOT_FILE));
    assert_eq!(pinned.0, bytes, "checkpoint reports the file size");
    assert_eq!(
        pinned, PINNED_CHECKPOINT,
        "snapshot.mps after three batches"
    );
    assert_eq!(digest(&dir.join(JOURNAL_FILE)), PINNED_EMPTY_JOURNAL);
    no_tmp_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot.mps` after [`three_batches`] with [`TRACES`].
const PINNED_CHECKPOINT: (u64, u64) = (209_465, 0x0e9c_2914_183a_f772);

/// An engine scanning each pass in two bands journals and checkpoints the
/// bytes the one-band engine does, and a restart at one band decodes that
/// checkpoint into an engine that re-encodes it byte for byte.
#[test]
fn banded_checkpoint_writes_the_single_store_bytes() {
    let dir = tmp_dir("banded-ckpt");
    let theory = NativeEmployeeTheory::new();
    let recorder = MetricsRecorder::new();
    let (mut d, _) = DurableIncremental::open(&dir, 2, configure, &theory, &recorder).unwrap();
    for (batch, trace) in three_batches().into_iter().zip(TRACES) {
        d.ingest(batch, Some(trace), &theory, &recorder).unwrap();
    }
    assert_eq!(
        digest(&dir.join(JOURNAL_FILE)),
        (169_570, 0xcd6f_34c3_3150_7778),
        "journal of three traced batches"
    );
    let bytes = d.checkpoint(&recorder).unwrap();
    assert_eq!(
        bytes, PINNED_CHECKPOINT.0,
        "checkpoint reports the file size"
    );
    drop(d);
    assert_eq!(
        digest(&dir.join(SNAPSHOT_FILE)),
        PINNED_CHECKPOINT,
        "snapshot.mps after three batches scanned in two bands"
    );
    assert_eq!(digest(&dir.join(JOURNAL_FILE)), PINNED_EMPTY_JOURNAL);
    assert_one_journal_layout(&dir);
    let (d, report) = DurableIncremental::open(&dir, 1, configure, &theory, &recorder).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!((report.batches_replayed, d.store().next_seq()), (0, 4));
    assert_eq!(
        d.engine()
            .view()
            .encode(mp_store::borrowed(d.engine().records()))
            .unwrap(),
        std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
        "reopened engine re-encodes the checkpoint"
    );
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest::proptest! {
    /// One encoder cannot be compared with a twin, so compare it with
    /// itself across a full cycle: any engine state (an empty store, a
    /// database with no duplicates, provenance on or off) encodes to
    /// bytes that decode, restore, and re-encode identically; and an
    /// engine that ingested the same batches in 1..=4 banded scans — as a
    /// daemon on a many-core host does — encodes to the very same bytes.
    #[test]
    fn view_bytes_survive_decode_restore_and_sharded_ingest(
        seed in 0u64..1000,
        originals in 0usize..90,
        duplicates in 0u32..2,
        parts in 1usize..4,
        provenance in 0u32..2,
        shards in 1usize..=4,
    ) {
        use mp_metrics::NoopObserver;
        use mp_store::{borrowed, Snapshot};

        let theory = NativeEmployeeTheory::new();
        let fresh = || {
            let e = configure(IncrementalMergePurge::new());
            if provenance == 1 { e } else { e.without_provenance() }
        };
        let batches: Vec<Vec<Record>> = if originals > 0 {
            let db = DatabaseGenerator::new(
                GeneratorConfig::new(originals)
                    .duplicate_fraction(0.4 * f64::from(duplicates))
                    .seed(seed),
            )
            .generate();
            let chunk = db.records.len().div_ceil(parts);
            db.records.chunks(chunk).map(<[Record]>::to_vec).collect()
        } else {
            Vec::new()
        };
        let (mut engine, mut sharded) = (fresh(), fresh());
        for (i, batch) in batches.into_iter().enumerate() {
            let trace = format!("prop-{i:08x}");
            sharded.add_batch_sharded(batch.clone(), &theory, shards, &NoopObserver);
            sharded.note_batch_trace(&trace);
            engine.add_batch(batch, &theory);
            engine.note_batch_trace(&trace);
        }

        let bytes = engine.view().encode(borrowed(engine.records())).unwrap();
        let decoded = Snapshot::decode(&bytes).unwrap();
        proptest::prop_assert_eq!(decoded.encode(), bytes.clone(), "decode → encode");
        let restored = fresh().restore(decoded).unwrap();
        proptest::prop_assert_eq!(
            restored.view().encode(borrowed(restored.records())).unwrap(),
            bytes.clone(),
            "decode → restore → view → encode"
        );
        proptest::prop_assert_eq!(
            sharded.view().encode(borrowed(sharded.records())).unwrap(),
            bytes,
            "banded ingest over {} shards", shards
        );
    }
}
