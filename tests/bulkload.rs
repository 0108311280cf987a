//! Bulk cold-load equivalence: the extsort-backed pipeline
//! (`mergepurge load`, `serve --bulk-load`, and the `bulk-load` wire
//! command) must commit a store byte-identical to one `add_batch` of the
//! whole file — across memory budgets and run-formation thread counts —
//! and a SIGKILL mid-load must leave a store that reruns to the same
//! bytes.

#![cfg(unix)]

use merge_purge::{IncrementalMergePurge, KeySpec};
use merge_purge_repro::bulk::{bulk_load_store, BulkStoreConfig};
use merge_purge_repro::serve::{ingest_request, json::Json, request};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::ExternalConfig;
use mp_metrics::MetricsRecorder;
use mp_record::{io as rio, Record};
use mp_rules::NativeEmployeeTheory;
use mp_store::{MatchStore, Snapshot};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-bulk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(seed: u64, n: usize) -> Vec<Record> {
    DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.4).seed(seed))
        .generate()
        .records
}

fn write_file(dir: &Path, name: &str, records: &[Record]) -> PathBuf {
    let path = dir.join(name);
    let file = std::fs::File::create(&path).unwrap();
    rio::write_records(file, records).unwrap();
    path
}

fn keys() -> Vec<KeySpec> {
    vec![KeySpec::last_name_key(), KeySpec::first_name_key()]
}

/// What one in-memory ingest of the whole file commits: the reference
/// snapshot every bulk path must reproduce bit for bit.
///
/// Provenance is disabled to match the bulk pipeline, which finds pairs
/// out of scan order and therefore commits no merge lineage (see
/// `crate::bulk`); the byte-identity claim covers everything else.
fn reference_snapshot(records: &[Record], window: usize) -> Snapshot {
    let mut engine = IncrementalMergePurge::new().without_provenance();
    for key in keys() {
        engine = engine.pass(key, window);
    }
    engine.add_batch(records.to_vec(), &NativeEmployeeTheory::new());
    engine.to_snapshot()
}

fn config(external: ExternalConfig) -> BulkStoreConfig {
    BulkStoreConfig {
        window: 8,
        keys: keys(),
        external,
    }
}

fn load(store: &Path, input: &Path, work: &Path, cfg: &BulkStoreConfig) -> Option<u64> {
    let recorder = MetricsRecorder::new();
    bulk_load_store(
        store,
        input,
        work,
        cfg,
        &NativeEmployeeTheory::new(),
        &recorder,
    )
    .expect("bulk load")
    .map(|r| r.snapshot_bytes)
}

#[test]
fn single_store_bulk_load_matches_one_shot_ingest() {
    let dir = tmp_dir("single");
    let records = generate(9001, 3_000);
    let input = write_file(&dir, "db.mp", &records);
    let store = dir.join("store");

    // Tiny budget: force spill runs and multi-level merges.
    let external = ExternalConfig {
        memory_records: 257,
        ..ExternalConfig::default()
    };
    let report = load(&store, &input, &dir.join("work"), &config(external));
    assert!(report.is_some(), "empty store must accept the load");

    let (_store, loaded) = MatchStore::open(&store).unwrap();
    let committed = loaded.snapshot.expect("bulk load committed a snapshot");
    assert_eq!(committed.batches_applied, 1);
    let expected = reference_snapshot(&records, 8);
    assert_eq!(
        committed.encode(),
        expected.encode(),
        "bulk-loaded snapshot must be byte-identical to one add_batch"
    );

    // A second load over the now-populated store must refuse (Ok(None))
    // and leave the committed bytes untouched.
    let again = load(&store, &input, &dir.join("work2"), &config(external));
    assert!(again.is_none(), "non-empty store must be left alone");
    let (_store, reloaded) = MatchStore::open(&store).unwrap();
    assert_eq!(reloaded.snapshot.unwrap().encode(), expected.encode());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A load commits the one layout, `snapshot.mps` beside an empty
/// `journal.mpj`, and refuses a directory laid out as a sharded store
/// (its `manifest.mpm` named) without touching a byte of it.
#[test]
fn sharded_bulk_load_commits_the_single_store_snapshot() {
    let dir = tmp_dir("sharded");
    let records = generate(9002, 2_000);
    let input = write_file(&dir, "db.mp", &records);
    let store = dir.join("store");

    let external = ExternalConfig {
        memory_records: 311,
        ..ExternalConfig::default()
    };
    assert!(load(&store, &input, &dir.join("work"), &config(external)).is_some());
    let mut names: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["journal.mpj", "snapshot.mps"]);
    let (opened, loaded) = MatchStore::open(&store).unwrap();
    let expected = reference_snapshot(&records, 8).encode();
    assert_eq!(
        std::fs::read(store.join(mp_store::SNAPSHOT_FILE)).unwrap(),
        expected,
        "the file itself, not just its decoding"
    );
    assert_eq!(
        opened.next_seq(),
        2,
        "bulk load is batch 1; the journal watermark must follow"
    );
    assert!(loaded.replayable.is_empty());
    drop(opened);

    // A sharded store's directory: its journals would never replay.
    let legacy = dir.join("legacy");
    std::fs::create_dir_all(legacy.join("shard-0")).unwrap();
    std::fs::write(legacy.join("manifest.mpm"), b"MPMF").unwrap();
    std::fs::write(legacy.join("shard-0/journal.mpj"), b"MPJL").unwrap();
    let err = bulk_load_store(
        &legacy,
        &input,
        &dir.join("work2"),
        &config(external),
        &NativeEmployeeTheory::new(),
        &MetricsRecorder::new(),
    )
    .unwrap_err();
    assert!(err.contains("manifest.mpm"), "{err}");
    assert_eq!(
        files(&legacy),
        [
            (PathBuf::from("manifest.mpm"), b"MPMF".to_vec()),
            (PathBuf::from("shard-0/journal.mpj"), b"MPJL".to_vec()),
        ],
        "refusal modifies nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_and_thread_count_commit_identical_bytes() {
    let dir = tmp_dir("budgets");
    let records = generate(9003, 2_500);
    let input = write_file(&dir, "db.mp", &records);

    let mut snapshots = Vec::new();
    for (name, budget, fan_in, threads) in [
        ("spill", 301, 16, 1),
        ("spill-2t", 301, 16, 2),
        ("ram-2t", 1_000_000, 16, 2),
        // 12 runs per pass at fan-in 2: three intermediate levels, then
        // the streamed one.
        ("fan-in-2", 301, 2, 1),
    ] {
        let store = dir.join(format!("store-{name}"));
        let external = ExternalConfig {
            memory_records: budget,
            fan_in,
            threads,
        };
        load(
            &store,
            &input,
            &dir.join(format!("work-{name}")),
            &config(external),
        )
        .expect("load commits");
        let (_s, loaded) = MatchStore::open(&store).unwrap();
        snapshots.push(loaded.snapshot.unwrap().encode());
    }
    assert_eq!(snapshots[0], snapshots[1], "threads must not change bytes");
    assert_eq!(snapshots[0], snapshots[2], "nor must the memory budget");
    assert_eq!(snapshots[0], snapshots[3], "nor must the fan-in");
    assert_eq!(
        snapshots[0],
        reference_snapshot(&records, 8).encode(),
        "and every leg is one add_batch, byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Daemon integration: serve --bulk-load and the bulk-load wire command.
// ---------------------------------------------------------------------------

fn spawn_daemon(socket: &Path, store: &Path, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--window",
            "8",
            "--keys",
            "last_name,first_name",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mergepurge serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

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

fn expect_ok(v: &Json) {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
}

fn store_section(socket: &Path) -> Json {
    let stats = ask(socket, r#"{"cmd":"stats"}"#);
    expect_ok(&stats);
    stats.get("store").expect("stats has store section").clone()
}

fn shutdown(socket: &Path, child: &mut Child) {
    expect_ok(&ask(socket, r#"{"cmd":"shutdown"}"#));
    assert!(child.wait().expect("daemon exit").success());
}

#[test]
fn serve_bulk_load_answers_like_an_ingest_daemon() {
    let dir = tmp_dir("serve");
    let records = generate(9004, 1_200);
    let input = write_file(&dir, "db.mp", &records);

    // Reference daemon: one ingest-batch of the same records.
    let ref_socket = dir.join("ref.sock");
    let mut ref_child = spawn_daemon(&ref_socket, &dir.join("ref-store"), &[]);
    expect_ok(&ask(&ref_socket, &ingest_request(&records)));
    let want = store_section(&ref_socket);
    let want_match = ask(&ref_socket, r#"{"cmd":"query-matches","id":7}"#);
    shutdown(&ref_socket, &mut ref_child);

    // Cold-load daemon: same records through serve --bulk-load.
    let socket = dir.join("bulk.sock");
    let store = dir.join("bulk-store");
    let extra = [
        "--bulk-load",
        input.to_str().unwrap(),
        "--memory-budget",
        "389",
    ];
    let mut child = spawn_daemon(&socket, &store, &extra);
    assert_eq!(store_section(&socket), want, "store stats must agree");
    assert_eq!(
        ask(&socket, r#"{"cmd":"query-matches","id":7}"#),
        want_match,
        "query answers must agree"
    );
    shutdown(&socket, &mut child);

    // Restart with the same --bulk-load: the skip path must come up on
    // the committed snapshot with identical answers.
    let mut child = spawn_daemon(&socket, &store, &extra);
    assert_eq!(store_section(&socket), want, "restart skip keeps the state");
    shutdown(&socket, &mut child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_bulk_load_fills_an_empty_daemon_once() {
    let dir = tmp_dir("wire");
    let records = generate(9005, 1_000);
    let input = write_file(&dir, "db.mp", &records);
    let socket = dir.join("mp.sock");
    let mut child = spawn_daemon(&socket, &dir.join("store"), &[]);

    let cmd = Json::Obj(vec![
        ("cmd".into(), Json::Str("bulk-load".into())),
        ("path".into(), Json::Str(input.display().to_string())),
    ])
    .to_string();
    let reply = ask(&socket, &cmd);
    expect_ok(&reply);
    assert_eq!(
        reply.get("records").and_then(Json::as_u64),
        Some(records.len() as u64)
    );
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(1));
    assert!(reply.get("trace_id").and_then(Json::as_str).is_some());

    let store = store_section(&socket);
    assert_eq!(
        store.get("records").and_then(Json::as_u64),
        Some(records.len() as u64)
    );

    // The store now holds state: a second bulk-load must be refused but
    // ordinary increments still work.
    let again = ask(&socket, &cmd);
    assert_eq!(
        again.get("ok").and_then(Json::as_bool),
        Some(false),
        "{again}"
    );
    let more = generate(9006, 50);
    expect_ok(&ask(&socket, &ingest_request(&more)));
    shutdown(&socket, &mut child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

/// The wire `bulk-load` is the `load` commit. A daemon that answered
/// `bulk-load` leaves, after `shutdown`, a store directory byte-identical
/// to what `mergepurge load` commits on the same input, budget and keys
/// (put through the same daemon open and shutdown, whose final checkpoint
/// rewrites the snapshot), and it answers `stats` and `query-matches`
/// like a `serve --bulk-load` daemon.
#[test]
fn wire_bulk_load_commits_what_load_commits() {
    let dir = tmp_dir("wire-is-load");
    let records = generate(9009, 1_000);
    let input = write_file(&dir, "db.mp", &records);
    // The same records with a malformed line past the first budget chunk.
    let mut text = std::fs::read_to_string(&input).unwrap();
    let at = text.match_indices('\n').nth(450).unwrap().0 + 1;
    text.insert_str(at, "only|three|columns\n");
    let broken = dir.join("broken.mp");
    std::fs::write(&broken, text).unwrap();
    let bulk_load = |path: &Path| {
        Json::Obj(vec![
            ("cmd".into(), Json::Str("bulk-load".into())),
            ("path".into(), Json::Str(path.display().to_string())),
        ])
        .to_string()
    };
    let socket = dir.join("mp.sock");
    let probes = [0, 7, 313, records.len() as u64 - 1];
    let reads = |socket: &Path| -> Vec<Json> {
        probes
            .iter()
            .map(|id| ask(socket, &format!(r#"{{"cmd":"query-matches","id":{id}}}"#)))
            .collect()
    };
    let flags = ["--memory-budget", "293"];

    let loaded = dir.join("load");
    let status = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["load", "--input", input.to_str().unwrap()])
        .args(["--store", loaded.to_str().unwrap()])
        .args(["--window", "8", "--keys", "last_name,first_name"])
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run mergepurge load");
    assert!(status.success(), "load must commit");
    let mut child = spawn_daemon(&socket, &loaded, &flags);
    shutdown(&socket, &mut child);

    let startup = [&flags[..], &["--bulk-load", input.to_str().unwrap()]].concat();
    let mut child = spawn_daemon(&socket, &dir.join("startup"), &startup);
    let want_store = store_section(&socket);
    let want_reads = reads(&socket);
    shutdown(&socket, &mut child);

    let wired = dir.join("wire");
    let mut child = spawn_daemon(&socket, &wired, &flags);
    // A load that fails partway reopens the still-empty store.
    let failed = ask(&socket, &bulk_load(&broken));
    assert_eq!(failed.get("ok").and_then(Json::as_bool), Some(false));
    assert!(failed.to_string().contains("columns"), "{failed}");
    expect_ok(&ask(&socket, &bulk_load(&input)));
    assert_eq!(store_section(&socket), want_store);
    assert_eq!(reads(&socket), want_reads);
    shutdown(&socket, &mut child);

    let (want, got) = (files(&loaded), files(&wired));
    let paths: Vec<_> = got.iter().map(|(path, _)| path).collect();
    assert_eq!(
        paths,
        want.iter().map(|(path, _)| path).collect::<Vec<_>>(),
        "same files"
    );
    for ((path, a), (_, b)) in want.iter().zip(&got) {
        assert!(a == b, "{} differs", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash safety: SIGKILL mid-load leaves a store that reruns to the
// reference bytes (the commit is one atomic rename at the very end).
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_load_then_rerun_commits_identical_bytes() {
    let dir = tmp_dir("kill");
    let records = generate(9007, 12_000);
    let input = write_file(&dir, "db.mp", &records);

    // Reference: a clean load in a separate store directory.
    let ref_store = dir.join("ref-store");
    let external = ExternalConfig {
        memory_records: 127,
        ..ExternalConfig::default()
    };
    load(&ref_store, &input, &dir.join("ref-work"), &config(external)).expect("reference load");
    let (_s, loaded) = MatchStore::open(&ref_store).unwrap();
    let want = loaded.snapshot.unwrap().encode();

    // Victim: the real binary with a tiny budget (lots of spill runs),
    // killed shortly after it starts spilling.
    let store = dir.join("store");
    let work = dir.join("work");
    let spawn_load = || {
        Command::new(env!("CARGO_BIN_EXE_mergepurge"))
            .args(["load", "--input", input.to_str().unwrap()])
            .args(["--store", store.to_str().unwrap()])
            .args(["--work-dir", work.to_str().unwrap()])
            .args(["--window", "8", "--keys", "last_name,first_name"])
            .args(["--memory-budget", "127"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mergepurge load")
    };
    let mut victim = spawn_load();
    // Give it long enough to be mid-spill, not long enough to finish a
    // 12k-record debug-build load.
    std::thread::sleep(Duration::from_millis(400));
    let killed_in_flight = victim.try_wait().expect("poll victim").is_none();
    let _ = victim.kill();
    let _ = victim.wait();

    // Rerun to completion. If the victim somehow finished, the rerun is
    // the refused-non-empty path and must exit nonzero with the store
    // intact; either way the final bytes equal the reference.
    let rerun = spawn_load().wait().expect("rerun exit");
    if killed_in_flight {
        assert!(rerun.success(), "rerun over a killed load must commit");
    }
    let (_s, loaded) = MatchStore::open(&store).unwrap();
    assert_eq!(
        loaded.snapshot.expect("store committed").encode(),
        want,
        "post-crash rerun must commit the reference bytes"
    );
    // The rerun swept the victim's spill files and removed the work dir.
    if killed_in_flight {
        assert!(!work.exists(), "work dir survived the rerun: {work:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Failure cleanup: a load that fails after spilling leaves nothing behind.
// ---------------------------------------------------------------------------

#[test]
fn failed_load_leaves_no_snapshot_and_no_spill_dir() {
    let dir = tmp_dir("fail");
    let records = generate(9008, 1_000);
    let input = write_file(&dir, "db.mp", &records);
    // A malformed line in the second memory-budget chunk: the first
    // chunk's runs are on disk, for every pass, when the parse fails.
    let mut text = std::fs::read_to_string(&input).unwrap();
    let at = text.match_indices('\n').nth(450).unwrap().0 + 1;
    text.insert_str(at, "only|three|columns\n");
    std::fs::write(&input, text).unwrap();

    let store = dir.join("store");
    let out = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["load", "--input", input.to_str().unwrap()])
        .args(["--store", store.to_str().unwrap()])
        .args(["--window", "8", "--keys", "last_name,first_name"])
        .args(["--memory-budget", "300"])
        .output()
        .expect("run mergepurge load");
    assert!(!out.status.success(), "load must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("columns"), "{stderr}");
    let left: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !left
            .iter()
            .any(|n| n == "bulk-tmp" || n.starts_with("snapshot")),
        "left behind {left:?}"
    );
    assert!(!store.join("bulk-tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
