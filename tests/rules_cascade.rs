//! The rules VM's guard cascade, end to end through the `mergepurge` binary:
//! the planned VM (cascade + residual bytecode, its window scans rejecting
//! on projection rows), the unplanned VM (every conjunct lowered as
//! written — the reference) and the native theory must find byte-identical
//! pairs through every scan driver — `dedupe`'s bands, `load`'s streamed
//! passes and the daemon's ingest bands — and no `--rules` file may panic
//! the compiler.

use merge_purge_repro::serve::{ingest_request, json::Json, request};
use mp_record::io::read_records;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mergepurge"))
}

/// A directory of the calling test's own: tests run on parallel threads
/// and each removes its directory when it ends.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-cascade-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(db: &Path, records: &str, seed: &str) {
    let out = bin()
        .args(["generate", "--out", db.to_str().unwrap()])
        .args(["--records", records, "--duplicates", "0.4", "--seed", seed])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn dedupe(db: &Path, extra: &[&str]) -> Output {
    bin()
        .args(["dedupe", "--input", db.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run dedupe")
}

#[test]
fn native_planned_and_unplanned_vm_find_identical_pairs_at_window_40() {
    let dir = work_dir("threeway");
    let db = dir.join("db5k.mp");
    generate(&db, "2800", "7"); // ~5k records with duplicates
    let pairs_of = |tag: &str, theory: &[&str]| {
        let file = dir.join(format!("pairs-{tag}.tsv"));
        let mut args = vec!["--window", "40", "--pairs-out", file.to_str().unwrap()];
        args.extend_from_slice(theory);
        let out = dedupe(&db, &args);
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&file).unwrap()
    };
    let native = pairs_of("native", &["--theory", "native"]);
    let planned = pairs_of("planned", &["--theory", "dsl-compiled"]);
    let unplanned = pairs_of("unplanned", &["--theory", "dsl-compiled", "--no-plan"]);
    assert!(
        native.iter().filter(|&&b| b == b'\n').count() > 1_000,
        "suite too easy: few pairs found"
    );
    assert!(native == planned, "planned VM pairs differ from native");
    assert!(native == unplanned, "unplanned VM pairs differ from native");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The streamed scan: `load` at w = 40 writes the same store under the
/// native theory, the planned VM and the unplanned VM.
#[test]
fn native_and_vm_loads_write_identical_stores_at_window_40() {
    let dir = work_dir("load");
    let db = dir.join("db5k.mp");
    generate(&db, "2800", "7");
    let snapshot_of = |tag: &str, theory: &[&str]| {
        let store = dir.join(format!("store-{tag}"));
        let out = bin()
            .args(["load", "--input", db.to_str().unwrap()])
            .args(["--store", store.to_str().unwrap(), "--window", "40"])
            .args(["--memory-budget", "2000"])
            .args(theory)
            .output()
            .expect("run load");
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(store.join("snapshot.mps")).unwrap()
    };
    let native = snapshot_of("native", &["--theory", "native"]);
    let planned = snapshot_of("planned", &["--theory", "dsl-compiled"]);
    let unplanned = snapshot_of("unplanned", &["--theory", "dsl-compiled", "--no-plan"]);
    assert!(native == planned, "planned VM store differs from native");
    assert!(
        native == unplanned,
        "unplanned VM store differs from native"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The daemon's ingest bands: after the same batches at w = 40, a daemon
/// under the native theory and one under the planned VM report the same
/// `store` section of `stats`.
#[cfg(unix)]
#[test]
fn native_and_vm_daemons_report_identical_stats_at_window_40() {
    let dir = work_dir("serve");
    let db = dir.join("db2k.mp");
    generate(&db, "1200", "9");
    let records = read_records(std::io::BufReader::new(std::fs::File::open(&db).unwrap())).unwrap();
    let ask = |socket: &Path, payload: &str| -> Json {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(socket, payload) {
                Ok(reply) => {
                    let reply = Json::parse(&reply).expect("daemon speaks json");
                    assert_eq!(
                        reply.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{reply}"
                    );
                    return reply;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25))
                }
                Err(e) => panic!("request failed: {e}"),
            }
        }
    };
    let store_after_ingest = |theory: &str| {
        let socket = dir.join(format!("{theory}.sock"));
        let store = dir.join(format!("store-{theory}"));
        let mut child = bin()
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .args(["--store", store.to_str().unwrap(), "--window", "40"])
            .args(["--theory", theory])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mergepurge serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        for batch in records.chunks(300) {
            ask(&socket, &ingest_request(batch));
        }
        let store = ask(&socket, r#"{"cmd":"stats"}"#)
            .get("store")
            .expect("stats has a store section")
            .to_string();
        ask(&socket, r#"{"cmd":"shutdown"}"#);
        assert!(child.wait().expect("daemon exit status").success());
        store
    };
    let native = store_after_ingest("native");
    let compiled = store_after_ingest("dsl-compiled");
    assert!(native.contains("\"distinct_pairs\""), "{native}");
    assert_eq!(native, compiled, "planned VM daemon differs from native");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A rule of 300 conjuncts used to abort the compiler ("more than 255
/// boolean registers in one rule"); a rule too deeply nested for the
/// bytecode must be an error with a position, not a panic.
#[test]
fn long_rules_compile_and_oversized_rules_are_errors_not_panics() {
    let dir = work_dir("bigrule");
    let db = dir.join("db300.mp");
    generate(&db, "300", "9");

    let long = dir.join("long.rules");
    let conjuncts = vec!["r1.ssn == r2.ssn"; 299].join("\n and ");
    std::fs::write(
        &long,
        format!("rule long {{ when not is_empty(r1.ssn)\n and {conjuncts} then match }}\n"),
    )
    .unwrap();
    for plan in [&[][..], &["--no-plan"][..]] {
        let mut args = vec!["--rules", long.to_str().unwrap(), "--keys", "ssn"];
        args.extend_from_slice(plan);
        let out = dedupe(&db, &args);
        assert!(
            out.status.success(),
            "{plan:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("duplicate groups"), "{stdout}");
    }

    let deep = dir.join("deep.rules");
    let mut operand = "r1.ssn".to_string();
    for _ in 0..300 {
        operand = format!("prefix({operand}, 9)");
    }
    std::fs::write(
        &deep,
        format!("rule deep {{\n when is_empty({operand}) then match }}\n"),
    )
    .unwrap();
    let out = dedupe(&db, &["--rules", deep.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "an error exit, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("capacity error"), "{stderr}");
    assert!(stderr.contains(" at 2:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
