//! Cold-start bulk load: stream a flat record file through the external
//! sort pipeline straight into a durable store directory.
//!
//! This is the glue between `mp-extsort`'s [`BulkLoader`] (which
//! reconstructs the exact state one `add_batch` of the whole file would
//! build, under a bounded memory budget) and `mp-store`. The loader's
//! outcome, as a borrowed [`SnapshotView`], goes through the store's one
//! snapshot writer
//! ([`replace_snapshot`]) — the call a daemon checkpoint makes — with the
//! records iterated back off the input file instead of borrowed from
//! memory. The full database is never materialized in this process; peak
//! record residency is the sort's `memory_records` budget plus one scan
//! window. The store's journal stays empty until the daemon ingests.
//!
//! The committed snapshot carries `batches_applied = 1` — a restarted
//! daemon sees a store that ingested the whole file as its first batch,
//! and the journal watermark (`next_seq = 2`) lines up so subsequent
//! incremental batches journal and replay normally.
//!
//! The load is **cold-start only**: a store that already holds a
//! snapshot or journaled batches is left untouched (the loader reports
//! it was skipped). Until the snapshot commit (an atomic rename), the
//! store directory holds no readable state — a crash mid-load just
//! reruns from scratch, which the kill-recovery tests exercise.
//!
//! [`bulk_load_store`] is the only way a load reaches a store:
//! `mergepurge load` calls it with no daemon, `serve --bulk-load` before
//! the store opens, and the daemon's `bulk-load` command with the store
//! closed, reopening it afterwards exactly as startup opens it. No
//! running engine ever adopts a loaded state in place.

use merge_purge::KeySpec;
use mp_extsort::{BulkLoader, BulkOutcome, ExternalConfig, IoStats};
use mp_metrics::{span, PipelineObserver};
use mp_record::io as rio;
use mp_record::Record;
use mp_rules::EquationalTheory;
use mp_store::{replace_snapshot, MatchStore, SnapshotView};
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

/// What to load and how: the daemon's pass configuration plus the
/// external-sort resource limits.
#[derive(Debug, Clone)]
pub struct BulkStoreConfig {
    /// Sorted-neighborhood window shared by all passes.
    pub window: usize,
    /// Pass keys, in order (must match the daemon that will serve the
    /// store).
    pub keys: Vec<KeySpec>,
    /// External-sort limits: memory budget, fan-in and run-formation
    /// threads.
    pub external: ExternalConfig,
}

/// What a committed bulk load produced.
#[derive(Debug, Clone, Copy)]
pub struct BulkStoreReport {
    /// Records loaded (ids `0..records`).
    pub records: usize,
    /// Distinct matching pairs found.
    pub pairs: u64,
    /// Pair comparisons across all passes.
    pub comparisons: u64,
    /// Bytes of the committed snapshot.
    pub snapshot_bytes: u64,
    /// Sort + scan I/O accounting from the external pipeline.
    pub io: IoStats,
}

/// The store's record source for a load: the input file, streamed.
fn record_stream(
    input: &Path,
) -> Result<impl Iterator<Item = io::Result<Cow<'static, Record>>>, String> {
    let file = File::open(input).map_err(|e| format!("open {}: {e}", input.display()))?;
    Ok(rio::RecordStream::new(BufReader::new(file))
        .map(|r| r.map(Cow::Owned).map_err(io::Error::other)))
}

/// The load's spill directory: created on entry and removed on every
/// exit path — success, error or panic — so no caller can leak a keyed
/// copy of the input into the store directory. The extsort pipeline
/// deletes its own spill files the same way (and sweeps a dead process's
/// leftovers before it starts), so the directory is empty by the time
/// this guard drops; a non-empty one (say a `--work-dir` the user shares
/// with other files) is left in place.
struct WorkDir<'a>(&'a Path);

impl<'a> WorkDir<'a> {
    fn create(path: &'a Path) -> Result<Self, String> {
        std::fs::create_dir_all(path)
            .map_err(|e| format!("create work dir {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(self.0);
    }
}

/// Runs the external-sort bulk pipeline over `input`, spilling under
/// `work_dir`, which exists only for the duration of the call. Callers
/// open the enclosing `bulk_load` span.
fn run_loader(
    input: &Path,
    work_dir: &Path,
    cfg: &BulkStoreConfig,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> Result<BulkOutcome, String> {
    let _work = WorkDir::create(work_dir)?;
    let mut loader = BulkLoader::new(cfg.external);
    for key in &cfg.keys {
        loader = loader.pass(key.clone(), cfg.window);
    }
    loader
        .load_observed(input, work_dir, theory, observer)
        .map_err(|e| format!("bulk load {}: {e}", input.display()))
}

/// The loader's outcome as the store's snapshot view: one cold batch.
/// Bulk loads carry no merge lineage, hence the caller-supplied empty
/// `provenance`: the loader folds each pass's matches in scan order, as
/// `add_batch` does, but records no edges yet, and recording them would
/// change the bytes a load commits. Explain against a bulk-loaded base
/// reports connectivity only.
fn outcome_view<'a>(
    outcome: &'a BulkOutcome,
    provenance: &'a mp_closure::ProvenanceLog,
) -> SnapshotView<'a> {
    SnapshotView {
        n_records: outcome.records as u64,
        passes: outcome.passes.iter().collect(),
        pairs: Cow::Owned(outcome.pairs.sorted()),
        closure: &outcome.closure,
        provenance,
        comparisons: outcome.comparisons,
        batches_applied: 1,
    }
}

/// Cold-loads the flat record file at `input` into the durable store at
/// `store_dir`, spilling sort runs under `work_dir` — created for the
/// load and removed again on every exit path, failed loads included.
/// Everything runs under one `bulk_load` span: the loader's
/// `run_formation` and `bulk_pass` spans, then `snapshot_commit`.
///
/// Returns `Ok(None)` — without touching anything — when the store
/// already holds state (a snapshot or journaled batches): the load is
/// strictly for empty stores, and a restart over an already-committed
/// load must be a no-op so `serve --bulk-load` is idempotent.
///
/// # Errors
///
/// I/O failures anywhere in the pipeline, or a configuration problem
/// (no keys, window < 2).
pub fn bulk_load_store(
    store_dir: &Path,
    input: &Path,
    work_dir: &Path,
    cfg: &BulkStoreConfig,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> Result<Option<BulkStoreReport>, String> {
    if cfg.keys.is_empty() {
        return Err("at least one pass key is required".into());
    }
    if cfg.window < 2 {
        return Err("window must be at least 2".into());
    }
    let _load_span = span(observer, "bulk_load");
    if holds_state(store_dir)? {
        return Ok(None);
    }

    let outcome = run_loader(input, work_dir, cfg, theory, observer)?;
    // Commit: stream the records back off the input file through the
    // snapshot encoder — the one moment the whole database flows through
    // this process, and it flows, never resides. The store's journal is
    // empty, so there is nothing for the commit to reset.
    let _commit_span = span(observer, "snapshot_commit");
    let provenance = mp_closure::ProvenanceLog::new();
    let snapshot_bytes = replace_snapshot(
        store_dir,
        &outcome_view(&outcome, &provenance),
        record_stream(input)?,
    )
    .map_err(|e| format!("commit snapshot: {e}"))?;

    Ok(Some(BulkStoreReport {
        records: outcome.records,
        pairs: outcome.stats.pairs,
        comparisons: outcome.comparisons,
        snapshot_bytes,
        io: outcome.stats.io,
    }))
}

/// Opens the store at `store_dir` — creating it, or refusing a sharded
/// store's directory — and reports whether it holds any state: a
/// snapshot or a journaled batch. The handle is closed again before the
/// load runs.
fn holds_state(store_dir: &Path) -> Result<bool, String> {
    let (store, loaded) = MatchStore::open(store_dir)
        .map_err(|e| format!("open store {}: {e}", store_dir.display()))?;
    Ok(loaded.snapshot.is_some() || !loaded.replayable.is_empty() || store.next_seq() != 1)
}
