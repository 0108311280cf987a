//! Sharded backend for the serving daemon: every batch's records are
//! partitioned by key band into N shard workers, each owning its own
//! journal under `store/shard-k/`, with a coordinator that scatters every
//! batch across all shards, folds the banded window scans back into one
//! provably-serial-equivalent engine, and checkpoints it into the store's
//! one `snapshot.mps`, exactly as the single-worker store does.
//!
//! # Roles
//!
//! * [`ShardRouter`] — record → shard, via the first pass's key and a
//!   uniform first-letter band partition ([`RangePartition::uniform`]).
//!   Routing is a pure function of the record, so the same store always
//!   scatters the same way.
//! * [`run_worker`] — one per shard, owns that shard's [`Journal`] and
//!   executes `Append`/`Reset` messages from a bounded queue (per-shard
//!   backpressure). Appends are traced as `shard_ingest` spans labeled
//!   `shard=k`.
//! * [`ShardedDurable`] — the coordinator the engine worker drives. Every
//!   ingested batch is journaled as one frame per shard, *all with the
//!   same sequence number* (empty frames keep sequences aligned); the
//!   batch is acknowledged only after every shard has fsync'd its frame.
//!   Recovery treats a sequence as replayable only when present on every
//!   shard, so a crash mid-scatter loses nothing that was acknowledged.
//!
//! The in-memory engine itself is *not* partitioned: the banded scan in
//! [`IncrementalMergePurge::add_batch_sharded`] runs the passes side by
//! side, fans each pass's comparison work out across shard-count bands,
//! and reconciles the bands' matches in (pass, band) order
//! (`closure_reconcile`), which makes the merged match set bit-identical
//! to the single-worker engine on the same input — the property the
//! shard-equivalence tests pin down.

use merge_purge::incremental::{recover, IncrementalMergePurge, RecoveryReport, StoreFiles};
use merge_purge::KeySpec;
use mp_cluster::RangePartition;
use mp_metrics::{span, span_labeled, Counter, MetricsRecorder, PipelineObserver};
use mp_record::{Record, RecordId};
use mp_rules::EquationalTheory;
use mp_store::{borrowed, replace_snapshot, Journal, ShardedStore};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};

use super::obs::ObsState;

/// Routes records to shards: the first pass's key, banded by first
/// letter into `shards` uniform ranges. Pure and deterministic, so the
/// same record always lands in the same shard journal.
#[derive(Debug)]
pub struct ShardRouter {
    key: KeySpec,
    partition: RangePartition,
}

impl ShardRouter {
    /// A router over `shards` uniform key bands.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0 or exceeds the 27-bin key alphabet.
    pub fn new(key: KeySpec, shards: usize) -> Self {
        ShardRouter {
            key,
            partition: RangePartition::uniform(shards),
        }
    }

    /// The shard that owns `record`.
    pub fn shard_of(&self, record: &Record) -> usize {
        self.partition.cluster_of(&self.key.extract(record))
    }
}

/// One unit of work for a shard worker. Replies are sent on the `done`
/// channel only after the effect is durable.
pub enum ShardMsg {
    /// Journal this shard's slice of batch `seq` (possibly empty — empty
    /// frames keep shard sequences aligned).
    Append {
        /// Global batch sequence number; must match the journal's next.
        seq: u64,
        /// The batch's trace id, carried into the worker's span label so
        /// the flight-recorder dump ties every shard lane to its batch.
        trace_id: String,
        /// The records routed to this shard (global ids already assigned).
        records: Vec<Record>,
        /// Acknowledged after the frame is fsync'd.
        done: mpsc::Sender<Result<(), String>>,
    },
    /// Reset the journal after a committed checkpoint.
    Reset {
        /// Sequence number the next appended frame must use.
        next_seq: u64,
        /// Acknowledged after the journal is rewritten.
        done: mpsc::Sender<Result<(), String>>,
    },
}

/// Body of one shard worker thread: owns the shard's journal and
/// processes messages until the coordinator hangs up. Every message is
/// acknowledged, even on failure — the coordinator decides what a
/// failure means (a partial append poisons the daemon).
pub fn run_worker(
    k: usize,
    mut journal: Journal,
    rx: Receiver<ShardMsg>,
    obs: &ObsState,
    recorder: &MetricsRecorder,
) {
    while let Ok(msg) = rx.recv() {
        obs.shard_job_dequeued(k);
        match msg {
            ShardMsg::Append {
                seq,
                trace_id,
                records,
                done,
            } => {
                // The span guard must drop before the ack is sent: the
                // coordinator drains the collector right after the last
                // ack, and a still-open span would miss that drain.
                let res = {
                    let _span = span_labeled(recorder, "shard_ingest", || {
                        format!("shard={k} seq={seq} trace={trace_id}")
                    });
                    // The frame carries the trace id so a replay after
                    // kill -9 reconstructs the same explain chains.
                    match journal.append(&records, Some(&trace_id)) {
                        Ok(got) if got == seq => Ok(()),
                        Ok(got) => Err(format!(
                            "journal assigned seq {got}, coordinator expected {seq}"
                        )),
                        Err(e) => Err(e.to_string()),
                    }
                };
                let _ = done.send(res);
            }
            ShardMsg::Reset { next_seq, done } => {
                let _ = done.send(journal.reset(next_seq).map_err(|e| e.to_string()));
            }
        }
    }
}

/// Everything [`open_sharded`] recovered, before the shard workers
/// exist: the caller spawns one worker per journal, then assembles a
/// [`ShardedDurable`] from the rest.
#[derive(Debug)]
pub struct ShardedPrep {
    /// Store handle (directory and shard count).
    pub store: ShardedStore,
    /// One journal per shard, to hand to the workers.
    pub journals: Vec<Journal>,
    /// The recovered engine (snapshot restored + journals replayed).
    pub engine: IncrementalMergePurge,
    /// Per-shard count of non-empty frames replayed.
    pub shard_replays: Vec<u64>,
    /// What recovery found: snapshot, replayed batches, truncations.
    pub recovery: RecoveryReport,
    /// Sequence number for the next ingested batch.
    pub next_seq: u64,
}

/// Opens (creating if needed) the sharded store at `dir`, restores the
/// last checkpoint, and replays every fully-scattered batch —
/// [`recover`] over a [`ShardedStore`], with the same observer wiring as
/// `DurableIncremental::open`.
///
/// # Errors
///
/// I/O failures, corrupt manifest/snapshot/journals, a shard-count or
/// layout mismatch, or a pass-configuration mismatch against the
/// snapshot.
pub fn open_sharded(
    dir: &Path,
    shards: usize,
    configure: impl FnOnce(IncrementalMergePurge) -> IncrementalMergePurge,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> Result<ShardedPrep, String> {
    let open = |dir: &Path| {
        let (store, mut loaded) = ShardedStore::open(dir, shards)?;
        let files = StoreFiles {
            snapshot: loaded.snapshot.take(),
            replayable: std::mem::take(&mut loaded.replayable),
            truncated_bytes: loaded.truncated_bytes,
            truncation_reasons: std::mem::take(&mut loaded.truncation_reasons),
        };
        Ok(((store, loaded), files))
    };
    let ((store, loaded), engine, recovery) =
        recover(dir, shards, open, configure, theory, observer).map_err(|e| e.to_string())?;
    Ok(ShardedPrep {
        store,
        journals: loaded.journals,
        engine,
        shard_replays: loaded.shard_replays,
        recovery,
        next_seq: loaded.next_seq,
    })
}

/// The coordinator the engine worker drives when `--shards N` (N >= 2):
/// owns the recovered engine and the per-shard worker queues. The
/// durable twin of `DurableIncremental`, scattered across shards.
pub struct ShardedDurable {
    engine: IncrementalMergePurge,
    store: ShardedStore,
    router: ShardRouter,
    senders: Vec<SyncSender<ShardMsg>>,
    next_seq: u64,
    batches_since_checkpoint: u64,
    shard_records: Vec<u64>,
    last_scatter: Vec<u64>,
    poisoned: bool,
}

impl ShardedDurable {
    /// Assembles the coordinator after the workers are spawned.
    /// `senders` must hold one queue per shard, in shard order.
    pub fn new(prep: ShardedPrep, router: ShardRouter, senders: Vec<SyncSender<ShardMsg>>) -> Self {
        assert_eq!(senders.len(), prep.store.shards(), "one queue per shard");
        let mut shard_records = vec![0u64; senders.len()];
        for r in prep.engine.records() {
            shard_records[router.shard_of(r)] += 1;
        }
        ShardedDurable {
            engine: prep.engine,
            store: prep.store,
            router,
            senders,
            next_seq: prep.next_seq,
            batches_since_checkpoint: prep.recovery.batches_replayed,
            shard_records,
            last_scatter: Vec::new(),
            poisoned: false,
        }
    }

    /// The in-memory engine (records, pairs, closure, counters).
    pub fn engine(&self) -> &IncrementalMergePurge {
        &self.engine
    }

    /// Sequence number the next ingested batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Batches applied since the last committed checkpoint.
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_checkpoint
    }

    /// Records owned by each shard (router attribution).
    pub fn shard_records(&self) -> &[u64] {
        &self.shard_records
    }

    /// Per-shard record counts of the most recently ingested batch.
    pub fn last_scatter(&self) -> &[u64] {
        &self.last_scatter
    }

    /// Size/mtime of the store's `snapshot.mps`.
    pub fn snapshot_meta(&self) -> Option<(u64, std::time::SystemTime)> {
        self.store.snapshot_meta()
    }

    /// Whether an earlier partial append left disk and memory possibly
    /// diverged; all further ingests are refused until restart (recovery
    /// discards the incomplete scatter).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Ingests one batch durably: scatter one frame per shard (same
    /// sequence number everywhere), await every shard's fsync ack, then
    /// fold the batch into the engine with banded scans. Counter wiring
    /// matches `DurableIncremental::ingest`.
    ///
    /// # Errors
    ///
    /// A failed or unreachable shard. If *some* shards journaled the
    /// frame and others did not, the daemon is poisoned: the batch was
    /// never acknowledged (recovery will discard the partial scatter),
    /// but this process can no longer trust its sequence alignment.
    pub fn ingest(
        &mut self,
        mut batch: Vec<Record>,
        trace_id: &str,
        theory: &dyn EquationalTheory,
        recorder: &MetricsRecorder,
        obs: &ObsState,
    ) -> Result<u64, String> {
        if self.poisoned {
            return Err(
                "store poisoned by an earlier partial shard append; restart to recover".into(),
            );
        }
        let _ingest = span_labeled(recorder, "ingest", || format!("trace={trace_id}"));
        let shards = self.senders.len();
        let old_len = self.engine.records().len() as u32;
        for (i, r) in batch.iter_mut().enumerate() {
            r.id = RecordId(old_len + i as u32);
        }
        let mut frames: Vec<Vec<Record>> = vec![Vec::new(); shards];
        for r in &batch {
            frames[self.router.shard_of(r)].push(r.clone());
        }
        let counts: Vec<u64> = frames.iter().map(|f| f.len() as u64).collect();

        let seq = self.next_seq;
        let mut acks = Vec::with_capacity(shards);
        for (k, (tx, records)) in self.senders.iter().zip(frames).enumerate() {
            let (done, ack) = mpsc::channel();
            obs.shard_job_enqueued(k);
            let msg = ShardMsg::Append {
                seq,
                trace_id: trace_id.to_string(),
                records,
                done,
            };
            if tx.send(msg).is_err() {
                self.poisoned = true;
                return Err(format!("shard {k} worker is gone"));
            }
            acks.push(ack);
        }
        let mut errors = Vec::new();
        for (k, ack) in acks.into_iter().enumerate() {
            match ack.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("shard {k}: {e}")),
                Err(_) => errors.push(format!("shard {k}: worker died mid-append")),
            }
        }
        if !errors.is_empty() {
            self.poisoned = true;
            return Err(format!(
                "partial shard append at seq {seq}: {}",
                errors.join("; ")
            ));
        }

        self.next_seq += 1;
        self.engine
            .add_batch_sharded(batch, theory, shards, recorder);
        self.engine.note_batch_trace(trace_id);
        recorder.add(Counter::BatchesIngested, 1);
        self.batches_since_checkpoint += 1;
        for (k, &c) in counts.iter().enumerate() {
            self.shard_records[k] += c;
        }
        self.last_scatter = counts;
        Ok(seq)
    }

    /// Checkpoints exactly as the single-worker store does: the borrowed
    /// engine streams into the store's `snapshot.mps`
    /// ([`replace_snapshot`]; the rename is the commit point), then every
    /// shard resets its journal. Returns the snapshot's bytes (added to
    /// `Counter::SnapshotBytes`).
    ///
    /// # Errors
    ///
    /// A failed snapshot write leaves the previous snapshot and every
    /// journal in place. A reset failure is reported but harmless: the
    /// stale frames sit at or below the snapshot watermark and are
    /// filtered on replay.
    pub fn checkpoint(
        &mut self,
        recorder: &MetricsRecorder,
        obs: &ObsState,
    ) -> Result<u64, String> {
        let _snap = span(recorder, "snapshot");
        let bytes = replace_snapshot(
            self.store.dir(),
            &self.engine.view(),
            borrowed(self.engine.records()),
        )
        .map_err(|e| format!("write snapshot: {e}"))?;

        let mut acks = Vec::with_capacity(self.senders.len());
        for (k, tx) in self.senders.iter().enumerate() {
            let (done, ack) = mpsc::channel();
            obs.shard_job_enqueued(k);
            let msg = ShardMsg::Reset {
                next_seq: self.next_seq,
                done,
            };
            if tx.send(msg).is_err() {
                return Err(format!("shard {k} worker is gone"));
            }
            acks.push(ack);
        }
        for (k, ack) in acks.into_iter().enumerate() {
            match ack.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("shard {k} journal reset: {e}")),
                Err(_) => return Err(format!("shard {k}: worker died mid-reset")),
            }
        }

        recorder.add(Counter::SnapshotBytes, bytes);
        self.batches_since_checkpoint = 0;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_deterministic_and_covers_all_shards() {
        let router = ShardRouter::new(KeySpec::last_name_key(), 4);
        let mut seen = [false; 4];
        for (i, last) in ["ADAMS", "HERNANDEZ", "MILLER", "STOLFO", "ZWEIG"]
            .iter()
            .enumerate()
        {
            let mut r = Record::empty(RecordId(i as u32));
            r.last_name = (*last).into();
            r.first_name = "A".into();
            let k = router.shard_of(&r);
            assert!(k < 4);
            assert_eq!(k, router.shard_of(&r), "routing is deterministic");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "A..Z spread covers every band");
    }
}
