//! Cold-start bulk load: stream a flat record file through the external
//! sort pipeline straight into a durable store directory.
//!
//! This is the glue between `mp-extsort`'s [`BulkLoader`] (which
//! reconstructs the exact state one `add_batch` of the whole file would
//! build, under a bounded memory budget) and `mp-store`. The loader's
//! outcome, as a borrowed [`SnapshotView`], goes through the store's one
//! snapshot writer
//! ([`replace_snapshot`]) — the call a daemon checkpoint makes — with the
//! records copied from the record spill run formation wrote (already in
//! the snapshot's record encoding, checked against the length and CRC-32
//! taken as it was written) instead of borrowed from memory. The input is
//! parsed once. The full database is never materialized in this process;
//! during run formation one `memory_records` chunk's keys and encoded
//! bytes are resident, during the scans one window per pass. The store's
//! journal stays empty until the daemon ingests.
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
use mp_rules::EquationalTheory;
use mp_store::{replace_snapshot, MatchStore, SnapshotView};
use std::borrow::Cow;
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

/// The load's spill directory: created on entry and removed on every
/// exit path — success, error or panic — so no caller can leak a keyed
/// copy of the input into the store directory. The extsort pipeline
/// deletes its own spill files the same way (and sweeps a dead process's
/// leftovers before it starts), and the record spill goes with the
/// loader's outcome, which the caller drops first, so the directory is
/// empty by the time this guard drops; a non-empty one (say a
/// `--work-dir` the user shares with other files) is left in place.
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
/// `work_dir`. Callers open the enclosing `bulk_load` span.
fn run_loader(
    input: &Path,
    work_dir: &Path,
    cfg: &BulkStoreConfig,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> Result<BulkOutcome, String> {
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

    // Declared before the outcome, so the outcome's record spill is
    // removed before the guard removes the work dir it sits in.
    let _work = WorkDir::create(work_dir)?;
    let outcome = run_loader(input, work_dir, cfg, theory, observer)?;
    // Commit: copy the records run formation spilled, already in the
    // snapshot's record encoding, through the snapshot encoder — the one
    // moment the whole database flows through this process, and it flows,
    // never resides. The copy checks the spill's length and CRC-32 from
    // formation. The store's journal is empty, so there is nothing for the
    // commit to reset.
    let _commit_span = span(observer, "snapshot_commit");
    let provenance = mp_closure::ProvenanceLog::new();
    let records = outcome
        .records_spill
        .source()
        .map_err(|e| format!("open the record spill: {e}"))?;
    let snapshot_bytes = replace_snapshot(store_dir, &outcome_view(&outcome, &provenance), records)
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

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_metrics::NoopObserver;
    use mp_rules::NativeEmployeeTheory;
    use std::path::PathBuf;

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The record spill lives in the work dir until the commit has copied
    /// it, and goes before the work dir does: a load leaves no work dir of
    /// its own behind, and a work dir shared with other files holds only
    /// those files afterwards. Both commit the same snapshot.
    #[test]
    fn a_load_removes_its_record_spill_before_its_work_dir() {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("mp-bulk-unit-{}-workdir", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).seed(39)).generate();
        let input = dir.join("db.mp");
        mp_record::io::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
        let cfg = BulkStoreConfig {
            window: 6,
            keys: vec![KeySpec::last_name_key(), KeySpec::first_name_key()],
            external: ExternalConfig {
                memory_records: 90,
                ..ExternalConfig::default()
            },
        };
        let theory = NativeEmployeeTheory::new();
        let shared = dir.join("shared");
        std::fs::create_dir_all(&shared).unwrap();
        std::fs::write(shared.join("sentinel"), "keep").unwrap();

        let mut snapshots = Vec::new();
        for (store, work) in [
            (dir.join("own"), dir.join("own").join("bulk-tmp")),
            (dir.join("beside"), shared.clone()),
        ] {
            let report = bulk_load_store(&store, &input, &work, &cfg, &theory, &NoopObserver)
                .unwrap()
                .expect("an empty store takes the load");
            assert_eq!(report.records, db.records.len());
            assert_eq!(entries(&store), ["journal.mpj", "snapshot.mps"]);
            snapshots.push(std::fs::read(store.join(mp_store::SNAPSHOT_FILE)).unwrap());
        }
        assert_eq!(entries(&shared), ["sentinel"]);
        assert_eq!(snapshots[0], snapshots[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
