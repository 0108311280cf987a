#![warn(missing_docs)]

//! Parallel merge/purge engines (§4).
//!
//! The paper's shared-nothing multiprocessor is simulated with OS threads:
//! each "processor" is a worker owning its fragment of the data, and only
//! match pairs (tuple-id pairs) flow back to the coordinator — the same
//! communication structure as the HP-cluster implementation, minus the FDDI
//! network in the middle.
//!
//! * [`psort`] — parallel merge sort of the (key, record) list: fragments
//!   sorted locally in parallel, then a P-way coordinator merge (§4.1's
//!   sort phase).
//! * [`snm::ParallelSnm`] — the parallel sorted-neighborhood method:
//!   band-replicated fragments ("small 'bands' of replicated records are
//!   needed to make the fragmentation of the database invisible") scanned
//!   concurrently.
//! * [`clustering::ParallelClustering`] — the parallel clustering method:
//!   histogram range partitioning into `C·P` clusters, LPT re-balancing
//!   across processors, per-processor local sorts and scans (§4.2).
//! * [`multipass`] — concurrent independent passes followed by the closure,
//!   the configuration behind Fig. 6's multi-pass series.

pub mod clustering;
pub mod multipass;
pub mod psort;
pub mod snm;

pub use clustering::ParallelClustering;
pub use multipass::{parallel_multipass, parallel_multipass_observed, ParallelPass};
pub use psort::parallel_sorted_order;
pub use snm::ParallelSnm;

use merge_purge::snm::Scanned;
use merge_purge::window::{Found, ScanCounts};
use merge_purge::{KeyArena, KeySpec};
use mp_metrics::{span, span_labeled, Counter, Phase, PipelineObserver};
use mp_record::Record;
use std::time::Instant;

/// Extracts `key` for every record across `procs` worker threads.
///
/// Each worker builds a [`KeyArena`] for its contiguous record chunk — one
/// string buffer plus one span list, no per-record `String` — and the
/// coordinator concatenates the chunk arenas in fragment order, so the
/// result is identical to a serial [`KeyArena::extract`].
pub(crate) fn parallel_extract_keys(key: &KeySpec, records: &[Record], procs: usize) -> KeyArena {
    assert!(procs >= 1, "need at least one processor");
    if records.is_empty() {
        return KeyArena::new();
    }
    let chunk = records.len().div_ceil(procs);
    let mut keys = KeyArena::with_capacity(records.len(), 16);
    std::thread::scope(|s| {
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|recs| s.spawn(move || KeyArena::extract(key, recs)))
            .collect();
        for h in handles {
            keys.append(&h.join().expect("key worker panicked"));
        }
    });
    keys
}

/// Runs every worker on its own scoped thread under a `fragment` span,
/// then folds the found-lists they return into one pair set in fragment
/// order — the scheme of `IncrementalMergePurge::add_batch_sharded`: only
/// tuple-id pairs flow back to the coordinator, and nothing is shared
/// while the scans run.
pub(crate) fn scan_fragments<W>(
    records: &[Record],
    workers: Vec<W>,
    observer: &dyn PipelineObserver,
) -> Scanned
where
    W: FnOnce() -> (ScanCounts, Vec<Found>) + Send,
{
    let partials: Vec<(ScanCounts, Vec<Found>)> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(j, work)| {
                s.spawn(move || {
                    let _frag_span = span_labeled(observer, "fragment", || format!("j={j}"));
                    work()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    observer.add(Counter::WorkerFragments, partials.len() as u64);
    let t_merge = Instant::now();
    let mut out = Scanned::default();
    {
        let _s = span(observer, "coordinator_merge");
        for (counts, found) in partials {
            // Found-lists name records by their index in `records`.
            let id = |at: u32| records[at as usize].id.0;
            out.pairs
                .extend(found.into_iter().map(|(a, b, _)| (id(a), id(b))));
            out.counts += counts;
            out.worker_comparisons.push(counts.comparisons);
        }
    }
    observer.phase_ns(Phase::CoordinatorMerge, t_merge.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};

    #[test]
    fn parallel_key_extraction_matches_serial() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(500).seed(71)).generate();
        let key = KeySpec::last_name_key();
        let serial: Vec<String> = db.records.iter().map(|r| key.extract(r)).collect();
        for procs in [1, 2, 3, 8] {
            let parallel = parallel_extract_keys(&key, &db.records, procs);
            assert_eq!(parallel.len(), serial.len(), "procs = {procs}");
            for (i, k) in serial.iter().enumerate() {
                assert_eq!(parallel.get(i), k, "procs = {procs}, record {i}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let key = KeySpec::last_name_key();
        assert!(parallel_extract_keys(&key, &[], 4).is_empty());
    }
}
