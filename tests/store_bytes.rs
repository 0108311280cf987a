//! Frozen bytes of everything the store writes.
//!
//! The store has one snapshot encoder and one atomic-replace routine, so
//! there is no twin implementation left to compare bytes against. These
//! digests were recorded at the commit *before* the write path was folded
//! into one (two encoders, five replace sequences) and pin the on-disk
//! format from outside: a change to any of them is a format change and
//! needs a version bump, not a new constant.
//!
//! Covered: `mergepurge load` (cold load, single and two-shard layout) on
//! the seeded 10k database, and library-level checkpoints — single-store
//! and sharded — after three deterministic batches with fixed trace ids.
//! The second half is a property test: random engine states round-trip
//! view → bytes → decode → restore → view to identical bytes, and the
//! per-shard slices built from the view merge back to the global
//! snapshot.

#![cfg(unix)]

use merge_purge::incremental::{DurableIncremental, IncrementalMergePurge};
use merge_purge::KeySpec;
use merge_purge_repro::serve::obs::ObsState;
use merge_purge_repro::serve::shard::{
    open_sharded, run_worker, ShardMsg, ShardRouter, ShardedDurable,
};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_metrics::MetricsRecorder;
use mp_record::Record;
use mp_rules::NativeEmployeeTheory;
use mp_store::{JOURNAL_FILE, MANIFEST_FILE, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc;

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
    let sharded = dir.join("sharded");
    for (store, shards) in [(&single, "1"), (&sharded, "2")] {
        mergepurge(&[
            "load",
            "--input",
            db,
            "--store",
            store.to_str().unwrap(),
            "--shards",
            shards,
            "--memory-budget",
            "1500",
        ]);
        no_tmp_files(store);
    }
    assert_eq!(
        digest(&single.join(SNAPSHOT_FILE)),
        (2_996_312, 0xd19c_3ba8_217c_d2df),
        "snapshot.mps of `load --shards 1`"
    );
    assert_eq!(digest(&single.join(JOURNAL_FILE)), PINNED_EMPTY_JOURNAL);
    assert_eq!(
        digest(&sharded.join("shard-0").join("snapshot-1.mps")),
        (1_585_322, 0x7172_a712_880a_67dc),
        "shard 0 slice of `load --shards 2`"
    );
    assert_eq!(
        digest(&sharded.join("shard-1").join("snapshot-1.mps")),
        (1_143_746, 0x9732_a93d_eafe_ca95),
        "shard 1 slice of `load --shards 2`"
    );
    assert_eq!(digest(&sharded.join(MANIFEST_FILE)), PINNED_MANIFEST_2_1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal holding only its header (what a checkpoint's reset leaves).
const PINNED_EMPTY_JOURNAL: (u64, u64) = (8, 0xdc72_ec41_e1e5_db8c);
/// `manifest.mpm` of a two-shard store at epoch 1.
const PINNED_MANIFEST_2_1: (u64, u64) = (24, 0xef5d_6b6c_2421_0dda);

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
    let (mut d, _) = DurableIncremental::open(&dir, configure, &theory, &recorder).unwrap();
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
        pinned,
        (271_793, 0x99fc_2a35_0432_7376),
        "snapshot.mps after three batches"
    );
    assert_eq!(digest(&dir.join(JOURNAL_FILE)), PINNED_EMPTY_JOURNAL);
    no_tmp_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_checkpoint_writes_the_pinned_slices() {
    let dir = tmp_dir("sharded-ckpt");
    let theory = NativeEmployeeTheory::new();
    let recorder = MetricsRecorder::new();
    let obs = ObsState::new(8, None);
    obs.init_shards(2);
    let mut prep = open_sharded(&dir, 2, configure, &theory, &recorder).unwrap();
    std::thread::scope(|scope| {
        let (obs, recorder) = (&obs, &recorder);
        let mut senders = Vec::new();
        for (k, journal) in std::mem::take(&mut prep.journals).into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(8);
            let shard_dir = prep.store.shard_dir(k);
            scope.spawn(move || run_worker(k, journal, shard_dir, rx, obs, recorder));
            senders.push(tx);
        }
        let router = ShardRouter::new(KeySpec::last_name_key(), 2);
        let mut d = ShardedDurable::new(prep, router, senders);
        for (batch, trace) in three_batches().into_iter().zip(TRACES) {
            d.ingest(batch, trace, &theory, recorder, obs).unwrap();
        }
        d.checkpoint(recorder, obs).unwrap();
        // Dropping the coordinator hangs up the queues; the scope joins
        // the workers.
    });
    assert_eq!(
        digest(&dir.join("shard-0").join("snapshot-1.mps")),
        (155_159, 0x250c_8f83_d291_ed36),
        "shard 0 slice after three batches"
    );
    assert_eq!(
        digest(&dir.join("shard-1").join("snapshot-1.mps")),
        (101_479, 0x75d0_1ca4_e4e1_206b),
        "shard 1 slice after three batches"
    );
    assert_eq!(digest(&dir.join(MANIFEST_FILE)), PINNED_MANIFEST_2_1);
    for k in 0..2 {
        assert_eq!(
            digest(&dir.join(format!("shard-{k}")).join(JOURNAL_FILE)),
            PINNED_EMPTY_JOURNAL
        );
    }
    no_tmp_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest::proptest! {
    /// One encoder cannot be compared with a twin, so compare it with
    /// itself across a full cycle: any engine state (an empty store, a
    /// database with no duplicates, provenance on or off) encodes to
    /// bytes that decode, restore, and re-encode identically; and the
    /// per-shard slices built from the same view — through their own
    /// encode/decode — merge back to that snapshot for 1..=4 shards.
    #[test]
    fn view_bytes_survive_decode_restore_and_shard_split(
        seed in 0u64..1000,
        originals in 0usize..90,
        duplicates in 0u32..2,
        parts in 1usize..4,
        provenance in 0u32..2,
        shards in 1usize..=4,
    ) {
        use mp_store::{borrowed, merge_shard_snapshots, ShardSnapshot, Snapshot};

        let theory = NativeEmployeeTheory::new();
        let fresh = || {
            let e = configure(IncrementalMergePurge::new());
            if provenance == 1 { e } else { e.without_provenance() }
        };
        let mut engine = fresh();
        if originals > 0 {
            let db = DatabaseGenerator::new(
                GeneratorConfig::new(originals)
                    .duplicate_fraction(0.4 * f64::from(duplicates))
                    .seed(seed),
            )
            .generate();
            let chunk = db.records.len().div_ceil(parts);
            for (i, batch) in db.records.chunks(chunk).enumerate() {
                engine.add_batch(batch.to_vec(), &theory);
                engine.note_batch_trace(&format!("prop-{i:08x}"));
            }
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

        let router = ShardRouter::new(KeySpec::last_name_key(), shards);
        let owner: Vec<u8> = engine
            .records()
            .iter()
            .map(|r| router.shard_of(r) as u8)
            .collect();
        let view = engine.view();
        let slices: Vec<ShardSnapshot> = (0..shards)
            .map(|k| {
                let slice = view
                    .shard_slice(k, shards, &owner, borrowed(engine.records()))
                    .unwrap();
                ShardSnapshot::decode(&slice.encode()).unwrap()
            })
            .collect();
        let mut merged = merge_shard_snapshots(&slices).unwrap();
        // The merge rebuilds the forest from the sorted pairs, so its
        // shape may differ from the engine's; the classes may not.
        proptest::prop_assert_eq!(merged.closure.classes(), engine.classes());
        merged.closure = Snapshot::decode(&bytes).unwrap().closure;
        proptest::prop_assert_eq!(merged.encode(), bytes, "slices merge back to the snapshot");
    }
}
