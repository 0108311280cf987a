#![warn(missing_docs)]

//! External-memory (disk-resident) merge/purge: spill-aware sorting and
//! the bulk-load path that feeds the durable store, with exact I/O pass
//! accounting throughout.
//!
//! # Why external
//!
//! §2.2 and §3.5 of the paper analyze the case where "the dominant cost
//! will be disk I/O, i.e., the number of passes over the data set": the
//! sorted-neighborhood method needs "at least three passes: one pass for
//! conditioning the data and preparing keys, at least a second pass,
//! likely more, for a high speed sort ..., and a final pass for window
//! processing" — with an F-way external merge sort that is
//! `2 + ceil(log_F(N/M))` data passes.
//!
//! This crate sorts flat record files (the `mp-record` line format) under
//! a hard in-memory budget of `M` records, with exact [`IoStats`] so the
//! pass-count analysis can be *measured* rather than asserted, and loads
//! them into a store with the same pairs the in-memory engines find
//! (tested), whether the data fits in RAM or not. The paper's external
//! comparison engines — `mp_paper::ExternalSnm` over [`ExternalSorter`],
//! and the clustering method's "approximately only 2 passes" — run on it
//! from `mp-paper`.
//!
//! # Pipeline and spill format
//!
//! Run formation streams the input in chunks of at most
//! `memory_records` records and parses each record from text **once**,
//! conditioning it once when asked, then keys it for every key it was
//! given and encodes it once; a chunk holds those encoded bytes and keys,
//! not parsed records. Then, for each key, the chunk's keys are
//! radix-sorted and written as one *run file* (one per worker thread
//! with `threads > 1`). [`ExternalSorter`] is that
//! sweep with one key, followed by merge levels `fan_in` runs at a time
//! until a single sorted run remains. [`BulkLoader`] runs the sweep once
//! for every pass key, merges each key's runs only down to `fan_in`, and
//! streams the last level through a [`MergeStream`] straight into its
//! window scan, so the fully merged run is never written or re-read.
//!
//! A run file is a sequence of binary frames, one per record, then a
//! trailer (layout in [`runfile`]):
//!
//! ```text
//! frame   = len key id entity field×10 sum    (LEB128 lengths and ints)
//! trailer = 0x00 count
//! ```
//!
//! Frames carry any UTF-8 (separators and newlines included) and are, on
//! generated data, smaller than the `key|id|record` text lines they
//! replaced (at most two bytes larger in the worst case). A per-frame
//! checksum byte and the trailer's frame count make every truncated or
//! single-byte-corrupted file read back as `InvalidData`. Runs are always
//! written fully sorted, so a run file is either complete and sorted or
//! it is garbage from a crashed process, never a partially meaningful
//! state.
//!
//! Spill files are owned by the process that wrote them. They are
//! deleted as soon as they are consumed, and on every exit path,
//! including errors. Their names end in the owner's process id
//! (`run-{key}-{n}-{pid}.tmp`, `merge-{key}-{level}-{group}-{pid}.tmp`,
//! and a bulk load's record spill `records-{pid}.tmp`), so a crashed sort
//! can never be confused with a live one. Run formation sweeps away a
//! dead process's `run-*`/`merge-*`/`records-*` files in its work dir
//! before it starts (where `/proc` can tell a dead pid).
//!
//! Priced in §3.5's unit, full sweeps over the data
//! ([`IoStats::data_passes`]):
//!
//! * an [`ExternalSorter`] sort then a streaming window scan:
//!   `1 + levels + 1`, with `levels = ceil(log_F(runs))`;
//! * [`BulkLoader`] over `k` keys: `1 + Σ_key (extra + 1)`, where `extra`
//!   counts the levels needed to bring a key's runs down to `F`. That is
//!   `1 + k` whenever a key forms at most `F` runs.
//!
//! # Run-merge invariants
//!
//! The global order produced by the sorter is **(key, record id)**,
//! bytewise on the key. Three facts make every configuration — any memory
//! budget, any fan-in, any thread count — produce the *identical* final
//! run:
//!
//! 1. record ids ascend in input order, so the records of a chunk (and of
//!    any contiguous sub-chunk a worker thread sorts) already ascend by id;
//! 2. each run is written sorted by (key, id) — a stable sort by key over
//!    an id-ascending slice is exactly that;
//! 3. the merge heap breaks key ties by smaller id, which is a stable
//!    F-way merge of runs that are themselves (key, id)-sorted.
//!
//! Any split of the input into contiguous runs therefore merges to the
//! same total order an in-memory stable sort would produce, which is why a
//! window scan over the sorter's output is bit-identical to the in-memory
//! engines and why run formation can fan out across threads freely.
//!
//! Each run's keys are ordered by the same stable LSD radix sort the
//! in-memory engines use (`merge_purge::sorted_order_radix`; see "Key
//! sort" in `docs/SCALING.md`).
//!
//! # Example
//!
//! Sort a generated record file and verify it comes back in key order:
//!
//! ```
//! use merge_purge::KeySpec;
//! use mp_extsort::{ExternalConfig, ExternalSorter};
//! use mp_record::io as rio;
//!
//! let dir = std::env::temp_dir().join(format!("mp-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let db = mp_datagen::DatabaseGenerator::new(
//!     mp_datagen::GeneratorConfig::new(100).seed(42),
//! )
//! .generate();
//! let n = db.records.len(); // base records plus generated duplicates
//! let input = dir.join("db.mp");
//! rio::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
//!
//! // A deliberately tiny budget so the 100-record input spills into runs.
//! let config = ExternalConfig {
//!     memory_records: 32,
//!     ..ExternalConfig::default()
//! };
//! let sorted = ExternalSorter::new(KeySpec::last_name_key(), config)
//!     .sort(&input, &dir, false)
//!     .unwrap();
//! assert_eq!(sorted.records, n);
//! assert!(sorted.io.data_passes() >= 2, "run formation plus merging");
//!
//! let mut reader = mp_extsort::runfile::RunReader::open(&sorted.path).unwrap();
//! let (mut prev, mut key) = (String::new(), String::new());
//! let mut record = mp_record::Record::empty(mp_record::RecordId(0));
//! while reader.next_into(&mut key, &mut record).unwrap() {
//!     assert!(prev <= key, "sorted output");
//!     std::mem::swap(&mut prev, &mut key);
//! }
//! sorted.cleanup();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod bulkload;
pub mod runfile;
pub mod sorter;

pub use bulkload::{BulkLoadStats, BulkLoader, BulkOutcome};
pub use sorter::{ExternalSorter, MergeStream, RecordSpill};

/// Resource limits for external processing.
///
/// Construct with functional-update syntax so new knobs keep old call
/// sites compiling: `ExternalConfig { memory_records: 50_000,
/// ..ExternalConfig::default() }`.
#[derive(Debug, Clone, Copy)]
pub struct ExternalConfig {
    /// Maximum records held in memory at once (`M`). Run formation sorts
    /// chunks of this size.
    pub memory_records: usize,
    /// Merge fan-in `F` (the paper's experiments "used merge sort ... which
    /// used a 16-way merge algorithm").
    pub fan_in: usize,
    /// Worker threads for run formation. Each memory-budget chunk is split
    /// into this many contiguous sub-chunks, sorted and spilled on scoped
    /// threads (the band partition the incremental engine scans in). More
    /// threads mean more, smaller initial runs — the merge invariants make
    /// the final order identical regardless.
    pub threads: usize,
}

impl Default for ExternalConfig {
    fn default() -> Self {
        ExternalConfig {
            memory_records: 100_000,
            fan_in: 16,
            threads: 1,
        }
    }
}

/// Exact I/O accounting for one external run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Records read from disk (input + intermediate runs).
    pub records_read: u64,
    /// Records written to disk (runs + intermediate merge levels +
    /// cluster files; a streamed final merge writes nothing).
    pub records_written: u64,
    /// Number of full sweeps over the data set (the §3.5 unit of cost):
    /// each sweep reads every live record once.
    pub sweeps: u32,
}

impl IoStats {
    /// Total data passes, the quantity §3.5 compares across methods.
    pub fn data_passes(&self) -> u32 {
        self.sweeps
    }

    fn add_sweep(&mut self) {
        self.sweeps += 1;
    }
}
