//! A store in snapshot format version 2 still opens, and its first
//! checkpoint writes version 3.
//!
//! `tests/fixtures/v2-load-514/` is a store as `mergepurge load` wrote it
//! when snapshots were version 2: the 514 records of `generate --records
//! 320 --duplicates 0.3 --seed 43`, loaded with `--memory-budget 150` and
//! the default keys and window. Its bytes are pinned below, so the fixture
//! cannot drift into another version unnoticed.
//!
//! Covered: the fixture decodes to the state its version-3 re-encode
//! decodes to; a durable engine opened on it checkpoints exactly that
//! re-encode and reopens to the identical state; a version-3 `load` of the
//! same input commits the same bytes; and a version-2 pass order is
//! checked, not trusted after its CRC — a repeated id or a swap is
//! `Corrupt`, naming the pass and the position.

#![cfg(unix)]

use merge_purge::incremental::{DurableIncremental, IncrementalMergePurge};
use merge_purge::KeySpec;
use mp_metrics::NoopObserver;
use mp_rules::NativeEmployeeTheory;
use mp_store::{borrowed, Snapshot, StoreError, JOURNAL_FILE, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v2-load-514");

/// FNV-1a 64 of the fixture's `snapshot.mps`, with its length.
const PINNED_V2: (u64, u64) = (98_780, 0xa1f8_3c79_185a_8835);
/// The same, for the version-3 encoding of the state it holds.
const PINNED_V3: (u64, u64) = (76_666, 0xbfee_736d_784b_ed66);

fn digest(data: &[u8]) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (data.len() as u64, h)
}

fn fixture_snapshot() -> Vec<u8> {
    std::fs::read(Path::new(FIXTURE).join(SNAPSHOT_FILE)).unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-v2-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `mergepurge load`'s defaults: the three standard keys, window 10.
fn configure(e: IncrementalMergePurge) -> IncrementalMergePurge {
    KeySpec::standard_three()
        .into_iter()
        .fold(e, |e, key| e.pass(key, 10))
}

#[test]
fn the_v2_fixture_decodes_to_the_state_its_v3_reencode_gives() {
    let v2 = fixture_snapshot();
    assert_eq!(
        digest(&v2),
        PINNED_V2,
        "the fixture as the v2 build wrote it"
    );
    assert_eq!(&v2[8..12], &2u32.to_le_bytes());
    let state = Snapshot::decode(&v2).unwrap();
    assert_eq!(state.records.len(), 514);
    let v3 = state.encode();
    assert_eq!(&v3[8..12], &mp_store::SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(mp_store::SNAPSHOT_VERSION, 3);
    assert_eq!(digest(&v3), PINNED_V3, "the fixture's state in version 3");
    assert!(
        v3.len() < v2.len(),
        "{} B in v3, {} B in v2",
        v3.len(),
        v2.len()
    );

    let back = Snapshot::decode(&v3).unwrap();
    assert_eq!(back.records, state.records);
    assert_eq!(back.passes, state.passes);
    assert_eq!(back.pairs, state.pairs);
    assert_eq!(back.provenance, state.provenance);
    assert_eq!(
        (back.comparisons, back.batches_applied),
        (state.comparisons, state.batches_applied)
    );
    assert_eq!(back.encode(), v3, "v3 decode → encode is the identity");
}

#[test]
fn a_durable_engine_checkpoints_the_v2_fixture_as_v3_and_reopens_identically() {
    let dir = tmp_dir("durable");
    for file in [SNAPSHOT_FILE, JOURNAL_FILE] {
        std::fs::copy(Path::new(FIXTURE).join(file), dir.join(file)).unwrap();
    }
    let v3 = Snapshot::decode(&fixture_snapshot()).unwrap().encode();
    let theory = NativeEmployeeTheory::new();
    let (mut d, report) =
        DurableIncremental::open(&dir, 1, configure, &theory, &NoopObserver).unwrap();
    assert!(report.snapshot_loaded);
    let bytes = d.checkpoint(&NoopObserver).unwrap();
    assert_eq!(bytes, v3.len() as u64);
    assert_eq!(
        std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
        v3,
        "the first checkpoint writes the v3 encoding of the v2 state"
    );
    drop(d);
    let (d, _) = DurableIncremental::open(&dir, 2, configure, &theory, &NoopObserver).unwrap();
    assert_eq!(
        d.engine()
            .view()
            .encode(borrowed(d.engine().records()))
            .unwrap(),
        v3,
        "the reopened engine holds the identical state"
    );
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v3_load_of_the_fixtures_input_commits_its_state() {
    let dir = tmp_dir("load");
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run mergepurge");
        assert!(
            out.status.success(),
            "mergepurge {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&[
        "generate",
        "--out",
        "db.mp",
        "--records",
        "320",
        "--duplicates",
        "0.3",
        "--seed",
        "43",
    ]);
    run(&[
        "load",
        "--input",
        "db.mp",
        "--store",
        "store",
        "--memory-budget",
        "150",
    ]);
    assert_eq!(
        std::fs::read(dir.join("store").join(SNAPSHOT_FILE)).unwrap(),
        Snapshot::decode(&fixture_snapshot()).unwrap().encode()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The byte offset of each pass's order in a version-2 `PASS` payload.
fn v2_order_offsets(pass: &[u8]) -> Vec<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(pass[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4;
    let mut orders = Vec::new();
    for _ in 0..u32_at(0) {
        at += 4 + u32_at(at); // key name
        at += 4 + 8 + 8; // window, pairs_found, pairs_first_found
        let keys = u32_at(at);
        at += 4;
        for _ in 0..keys {
            at += 4 + u32_at(at);
        }
        let n = u32_at(at);
        orders.push(at + 4);
        at += 4 + 4 * n;
    }
    assert_eq!(at, pass.len());
    orders
}

/// The v2 fixture with `edit` applied to its `PASS` payload, the CRC
/// recomputed so only the payload's content can be at fault.
fn with_v2_pass_edit(edit: impl FnOnce(&mut [u8], &[usize])) -> Vec<u8> {
    let mut bytes = fixture_snapshot();
    let mut off = 16;
    while off < bytes.len() {
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let body = off + 16..off + 16 + len;
        if &bytes[off..off + 4] == b"PASS" {
            let orders = v2_order_offsets(&bytes[body.clone()]);
            edit(&mut bytes[body.clone()], &orders);
            let crc = mp_store::codec::crc32(&bytes[body]);
            bytes[off + 12..off + 16].copy_from_slice(&crc.to_le_bytes());
            return bytes;
        }
        off += 16 + len;
    }
    panic!("the fixture has no PASS section");
}

fn expect_corrupt(bytes: &[u8], says: &[&str]) {
    match Snapshot::decode(bytes) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(says.iter().all(|s| msg.contains(s)), "{msg}");
        }
        other => panic!(
            "expected Corrupt naming {says:?}, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn a_v2_order_that_repeats_an_id_or_breaks_key_order_is_corrupt() {
    let n = 514;
    let repeated = with_v2_pass_edit(|pass, orders| {
        let o = orders[0];
        let first: [u8; 4] = pass[o..o + 4].try_into().unwrap();
        pass[o + 4..o + 8].copy_from_slice(&first);
    });
    expect_corrupt(&repeated, &["pass 0", "order position 1 repeats record"]);

    let swapped = with_v2_pass_edit(|pass, orders| {
        let (first, last) = (orders[1], orders[1] + 4 * (n - 1));
        let a: [u8; 4] = pass[first..first + 4].try_into().unwrap();
        let b: [u8; 4] = pass[last..last + 4].try_into().unwrap();
        pass[first..first + 4].copy_from_slice(&b);
        pass[last..last + 4].copy_from_slice(&a);
    });
    expect_corrupt(
        &swapped,
        &["pass 1", "order position 1 ", "(key, id) order"],
    );
}
