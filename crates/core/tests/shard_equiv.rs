//! Property test for the ingest's serial-equivalence guarantee: for any
//! pass count up to the serving daemon's three, any band count, any
//! seeded database, and any batch split, the passes running side by side,
//! each scanning in band-replicated bands, plus the (pass, band)-order
//! reconciliation fold must reproduce the one-band run bit for bit —
//! same snapshot bytes (closure, pair set, per-pass orders and
//! attribution, comparison count, provenance).

use merge_purge::{incremental::IncrementalMergePurge, KeySpec};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_metrics::NoopObserver;
use mp_rules::NativeEmployeeTheory;
use proptest::prelude::*;

/// A fresh engine with the first `passes` of the serving daemon's three
/// default passes.
fn engine(passes: usize, window: usize) -> IncrementalMergePurge {
    [
        KeySpec::last_name_key(),
        KeySpec::first_name_key(),
        KeySpec::address_key(),
    ]
    .into_iter()
    .take(passes)
    .fold(IncrementalMergePurge::new(), |e, key| e.pass(key, window))
}

/// Splits a seeded database into `parts` contiguous batches.
fn seeded_batches(seed: u64, originals: usize, parts: usize) -> Vec<Vec<mp_record::Record>> {
    let db = DatabaseGenerator::new(
        GeneratorConfig::new(originals)
            .duplicate_fraction(0.4)
            .seed(seed),
    )
    .generate();
    let chunk = db.records.len().div_ceil(parts);
    db.records.chunks(chunk).map(<[_]>::to_vec).collect()
}

proptest! {
    /// Banded engine == one-band engine for 1..=3 passes × band counts
    /// 1..=8, down to the encoded snapshot.
    #[test]
    fn sharded_closure_equals_single_engine(
        seed in 0u64..500,
        originals in 20usize..120,
        parts in 1usize..5,
        passes in 1usize..=3,
        shards in 1usize..=8,
        window in 3usize..10,
    ) {
        let theory = NativeEmployeeTheory::new();
        let batches = seeded_batches(seed, originals, parts);

        let mut serial = engine(passes, window);
        let mut sharded = engine(passes, window);
        for batch in &batches {
            serial.add_batch(batch.clone(), &theory);
            sharded.add_batch_sharded(batch.clone(), &theory, shards, &NoopObserver);
        }

        // Same closed pairs (transitive closure over the same match set).
        prop_assert_eq!(serial.classes(), sharded.classes());
        // Same per-pass attribution: the reconciliation fold replays the
        // one-thread discovery order, so first-found credit is identical.
        prop_assert_eq!(serial.pass_counters(), sharded.pass_counters());
        // Same work performed, not just the same answer.
        prop_assert_eq!(serial.comparisons(), sharded.comparisons());
        // And the same bytes on disk, merge forest and rule firings included.
        let want = serial.to_snapshot().encode();
        prop_assert!(want == sharded.to_snapshot().encode(), "snapshot bytes differ");
    }

    /// Band count never changes the answer: any two band counts agree
    /// with each other on the same stream, byte for byte.
    #[test]
    fn any_two_shard_counts_agree(
        seed in 0u64..200,
        passes in 1usize..=3,
        a in 2usize..=8,
        b in 2usize..=8,
    ) {
        let theory = NativeEmployeeTheory::new();
        let batches = seeded_batches(seed, 60, 3);
        let mut ea = engine(passes, 6);
        let mut eb = engine(passes, 6);
        for batch in &batches {
            ea.add_batch_sharded(batch.clone(), &theory, a, &NoopObserver);
            eb.add_batch_sharded(batch.clone(), &theory, b, &NoopObserver);
        }
        prop_assert_eq!(ea.classes(), eb.classes());
        prop_assert_eq!(ea.comparisons(), eb.comparisons());
        prop_assert_eq!(ea.pass_counters(), eb.pass_counters());
        prop_assert!(ea.to_snapshot().encode() == eb.to_snapshot().encode(), "snapshot bytes differ");
    }
}
