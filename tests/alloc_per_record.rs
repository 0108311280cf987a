//! Allocations per record on the two paths that hold every record
//! resident: `dedupe`'s front end (parse, then condition) and a store
//! open (the snapshot's records decoded). A record's fields are held
//! inline, so neither path allocates per field; both are held here to
//! well under one allocation per record, where ten heap strings a record
//! made about nine.
//!
//! The global allocator counts per thread, so tests running side by side
//! in this binary do not see each other's allocations.

#![cfg(unix)]

use mp_record::io::read_records;
use mp_record::normalize::condition_all;
use mp_record::NicknameTable;
use mp_store::MatchStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::Command;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-alloc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// Writes the seeded 10k database (`generate --records 10000
/// --duplicates 0.3 --seed 7`) into `dir` and returns its path.
fn seeded_10k(dir: &std::path::Path) -> String {
    let db = dir.join("db.mp").to_str().unwrap().to_string();
    mergepurge(&[
        "generate",
        "--out",
        &db,
        "--records",
        "10000",
        "--duplicates",
        "0.3",
        "--seed",
        "7",
    ]);
    db
}

#[test]
fn parsing_and_conditioning_allocate_nothing_per_record() {
    let dir = tmp_dir("front");
    let text = std::fs::read(seeded_10k(&dir)).unwrap();
    let nicknames = NicknameTable::standard();
    let (made, n) = allocations(|| {
        let mut records = read_records(text.as_slice()).unwrap();
        condition_all(&mut records, &nicknames);
        records.len()
    });
    assert!(n > 10_000, "{n} records");
    let per_record = made as f64 / n as f64;
    assert!(
        per_record <= 0.1,
        "parse + condition made {made} allocations for {n} records ({per_record:.2} each)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_a_loaded_store_allocates_nothing_per_record() {
    let dir = tmp_dir("open");
    let db = seeded_10k(&dir);
    let store = dir.join("store");
    mergepurge(&[
        "load",
        "--input",
        &db,
        "--store",
        store.to_str().unwrap(),
        "--memory-budget",
        "1500",
    ]);
    let (made, (_store, loaded)) = allocations(|| MatchStore::open(&store).unwrap());
    let n = loaded
        .snapshot
        .as_ref()
        .expect("load commits a snapshot")
        .records
        .len();
    assert!(n > 10_000, "{n} records");
    let per_record = made as f64 / n as f64;
    assert!(
        per_record <= 0.1,
        "store open made {made} allocations for {n} records ({per_record:.2} each)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
