//! Failure injection for the disk-resident engines: corrupted inputs and
//! impossible environments must surface as errors, never panics or silent
//! wrong answers.

use merge_purge::KeySpec;
use mp_extsort::ExternalConfig;
use mp_paper::{ExternalClustering, ExternalSnm};
use mp_rules::NativeEmployeeTheory;
use std::path::{Path, PathBuf};

fn work_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-xfail-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_valid_db(dir: &Path, n: usize) -> PathBuf {
    let db =
        mp_datagen::DatabaseGenerator::new(mp_datagen::GeneratorConfig::new(n).seed(42)).generate();
    let path = dir.join("db.mp");
    mp_record::io::write_records(std::fs::File::create(&path).unwrap(), &db.records).unwrap();
    path
}

#[test]
fn missing_input_file_is_an_error() {
    let dir = work_dir("missing");
    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(KeySpec::last_name_key(), 5, ExternalConfig::default());
    let err = snm
        .run(Path::new("/definitely/not/here.mp"), &dir, &theory)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_line_reports_invalid_data_with_position() {
    let dir = work_dir("corrupt");
    let input = write_valid_db(&dir, 50);
    // Append a malformed line.
    let mut content = std::fs::read_to_string(&input).unwrap();
    content.push_str("only|three|columns\n");
    std::fs::write(&input, content).unwrap();

    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(KeySpec::last_name_key(), 5, ExternalConfig::default());
    let err = snm.run(&input, &dir, &theory).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("columns"), "{err}");

    let cl = ExternalClustering::new(KeySpec::last_name_key(), 8, 5, ExternalConfig::default());
    let err = cl.run(&input, &dir, &theory).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_beyond_first_chunk_still_detected() {
    // The streaming reader must propagate errors found mid-sort, after
    // some runs have already been written.
    let dir = work_dir("midstream");
    let input = write_valid_db(&dir, 200);
    let mut content = std::fs::read_to_string(&input).unwrap();
    content.push_str("bad line\n");
    std::fs::write(&input, content).unwrap();

    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(
        KeySpec::last_name_key(),
        5,
        ExternalConfig {
            memory_records: 32,
            fan_in: 2,
            ..ExternalConfig::default()
        },
    );
    assert!(snm.run(&input, &dir, &theory).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_file_yields_empty_result_not_error() {
    let dir = work_dir("empty");
    let input = dir.join("empty.mp");
    std::fs::write(&input, "").unwrap();
    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(KeySpec::last_name_key(), 5, ExternalConfig::default());
    let outcome = snm.run(&input, &dir, &theory).unwrap();
    assert_eq!(outcome.records, 0);
    assert!(outcome.pairs.is_empty());
    let cl = ExternalClustering::new(KeySpec::last_name_key(), 4, 5, ExternalConfig::default());
    let outcome = cl.run(&input, &dir, &theory).unwrap();
    assert_eq!(outcome.records, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn work_dir_is_created_if_absent() {
    let dir = work_dir("autodir");
    let input = write_valid_db(&dir, 30);
    let nested = dir.join("deeply/nested/work");
    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(KeySpec::last_name_key(), 4, ExternalConfig::default());
    let outcome = snm.run(&input, &nested, &theory).unwrap();
    // 30 originals plus however many duplicates the default config added.
    assert!(outcome.records >= 30);
    assert!(nested.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn temporaries_are_cleaned_up_after_success() {
    let dir = work_dir("cleanup");
    let input = write_valid_db(&dir, 120);
    let work = dir.join("scratch");
    let theory = NativeEmployeeTheory::new();
    let snm = ExternalSnm::new(
        KeySpec::last_name_key(),
        4,
        ExternalConfig {
            memory_records: 16,
            fan_in: 2,
            ..ExternalConfig::default()
        },
    );
    let _ = snm.run(&input, &work, &theory).unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(&work)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
