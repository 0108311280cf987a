//! End-to-end tests of the `mergepurge` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mergepurge"))
}

/// A directory of the calling test's own: tests run on parallel threads
/// and each removes its directory when it ends.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-cli-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_dedupe_purge_pipeline() {
    let dir = work_dir("pipeline");
    let db = dir.join("db.mp");
    let clean = dir.join("clean.mp");
    let groups = dir.join("groups.txt");

    let out = bin()
        .args(["generate", "--out", db.to_str().unwrap()])
        .args(["--records", "800", "--duplicates", "0.5", "--seed", "3"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("true pairs"), "{stdout}");

    let out = bin()
        .args(["dedupe", "--input", db.to_str().unwrap(), "--eval"])
        .args(["--classes-out", groups.to_str().unwrap()])
        .output()
        .expect("run dedupe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accuracy:"), "{stdout}");
    assert!(groups.exists());
    let group_lines = std::fs::read_to_string(&groups).unwrap();
    assert!(group_lines.lines().count() > 10);

    let out = bin()
        .args([
            "purge",
            "--input",
            db.to_str().unwrap(),
            "--out",
            clean.to_str().unwrap(),
        ])
        .output()
        .expect("run purge");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The purged file must parse and be smaller than the input.
    let before = std::fs::read_to_string(&db).unwrap().lines().count();
    let after = std::fs::read_to_string(&clean).unwrap().lines().count();
    assert!(after < before, "purge did not shrink: {before} -> {after}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dedupe_with_custom_rules_and_explain() {
    let dir = work_dir("rules");
    let db = dir.join("db2.mp");
    let rules = dir.join("rules.mpr");
    std::fs::write(
        &rules,
        "rule by_ssn { when not is_empty(r1.ssn) and r1.ssn == r2.ssn then match }\n\
         purge { first_name <- longest }",
    )
    .unwrap();

    assert!(bin()
        .args([
            "generate",
            "--out",
            db.to_str().unwrap(),
            "--records",
            "300",
            "--seed",
            "9"
        ])
        .status()
        .unwrap()
        .success());

    let out = bin()
        .args(["dedupe", "--input", db.to_str().unwrap()])
        .args([
            "--rules",
            rules.to_str().unwrap(),
            "--keys",
            "ssn",
            "--window",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args([
            "explain",
            "--input",
            db.to_str().unwrap(),
            "--a",
            "0",
            "--b",
            "1",
        ])
        .args(["--rules", rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no rule fires") || stdout.contains("MATCH via rule"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = bin().arg("generate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));

    // Missing input file.
    let out = bin()
        .args(["dedupe", "--input", "/nonexistent/db.mp"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad rules file.
    let dir = work_dir("errors");
    let bad = dir.join("bad.mpr");
    std::fs::write(&bad, "rule r { when r1.salary == 1 then match }").unwrap();
    let db = dir.join("tiny.mp");
    assert!(bin()
        .args(["generate", "--out", db.to_str().unwrap(), "--records", "10"])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args([
            "dedupe",
            "--input",
            db.to_str().unwrap(),
            "--rules",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown field"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

/// Every output file is written through a buffer; an error that only
/// surfaces when the buffer is flushed (a full disk under an output
/// smaller than the buffer) must fail the command and name the file.
#[test]
fn a_failed_flush_fails_every_output_file() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let dir = work_dir("flush");
    let db = dir.join("db.mp");
    assert!(bin()
        .args(["generate", "--out", db.to_str().unwrap(), "--records", "50"])
        .status()
        .unwrap()
        .success());
    let db = db.to_str().unwrap();
    let runs: [&[&str]; 4] = [
        &["generate", "--records", "50", "--out"],
        &["dedupe", "--input", db, "--pairs-out"],
        &["dedupe", "--input", db, "--classes-out"],
        &["purge", "--input", db, "--out"],
    ];
    for args in runs {
        let out = bin().args(args).arg(full).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded on /dev/full");
        assert!(stderr.contains("write /dev/full"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
