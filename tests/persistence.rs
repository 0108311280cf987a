//! Round trips across crates: a generated database written to disk and
//! reloaded must drive the pipeline to identical results, and a durable
//! engine of any band count, killed and reopened, must hold what the
//! in-memory engine holds.

use merge_purge::incremental::{DurableIncremental, IncrementalMergePurge};
use merge_purge::{KeySpec, MultiPass};
use mp_closure::MergeEdge;
use mp_datagen::{DatabaseGenerator, GeneratorConfig, GroundTruth};
use mp_metrics::NoopObserver;
use mp_record::{io, Record};
use mp_rules::NativeEmployeeTheory;
use mp_store::borrowed;

#[test]
fn file_round_trip_preserves_pipeline_results() {
    let db = DatabaseGenerator::new(
        GeneratorConfig::new(1_000)
            .duplicate_fraction(0.5)
            .seed(2001),
    )
    .generate();

    let mut buf = Vec::new();
    io::write_records(&mut buf, &db.records).unwrap();
    let reloaded = io::read_records(buf.as_slice()).unwrap();
    assert_eq!(reloaded, db.records);

    let theory = NativeEmployeeTheory::new();
    let a = MultiPass::standard_three(8).run(&db.records, &theory);
    let b = MultiPass::standard_three(8).run(&reloaded, &theory);
    assert_eq!(a.closed_pairs.sorted(), b.closed_pairs.sorted());
    assert_eq!(a.classes, b.classes);
}

#[test]
fn ground_truth_survives_round_trip() {
    let db = DatabaseGenerator::new(GeneratorConfig::new(500).duplicate_fraction(0.4).seed(2002))
        .generate();
    let mut buf = Vec::new();
    io::write_records(&mut buf, &db.records).unwrap();
    let reloaded = io::read_records(buf.as_slice()).unwrap();
    let truth = GroundTruth::from_records(&reloaded);
    assert_eq!(truth.true_pair_count(), db.truth.true_pair_count());
    assert_eq!(truth.duplicate_classes(), db.truth.duplicate_classes());
}

#[test]
fn conditioned_records_round_trip_too() {
    // Conditioning produces apostrophes-stripped, expanded forms that must
    // survive the separator-based format.
    let mut db = DatabaseGenerator::new(GeneratorConfig::new(300).seed(2003)).generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let mut buf = Vec::new();
    io::write_records(&mut buf, &db.records).unwrap();
    let reloaded = io::read_records(buf.as_slice()).unwrap();
    assert_eq!(reloaded, db.records);
}

#[test]
fn pipeline_results_reproducible_across_processes() {
    // Same seed, fresh generator objects: byte-identical outputs. This is
    // the property EXPERIMENTS.md relies on when quoting numbers.
    let run = || {
        let db =
            DatabaseGenerator::new(GeneratorConfig::new(800).duplicate_fraction(0.5).seed(2004))
                .generate();
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::new()
            .sorted(KeySpec::last_name_key(), 6)
            .sorted(KeySpec::address_key(), 6)
            .run(&db.records, &theory);
        result.closed_pairs.sorted()
    };
    assert_eq!(run(), run());
}

type Fingerprint = (Vec<(u32, u32)>, Vec<Vec<u32>>, Vec<MergeEdge>, u64);

fn six_batches() -> Vec<Vec<Record>> {
    let db = DatabaseGenerator::new(GeneratorConfig::new(600).duplicate_fraction(0.5).seed(2005))
        .generate();
    let chunk = db.records.len().div_ceil(6);
    let parts: Vec<Vec<Record>> = db.records.chunks(chunk).map(<[Record]>::to_vec).collect();
    assert_eq!(parts.len(), 6);
    parts
}

/// The snapshot bytes a checkpoint of `e` would write.
fn encoded(e: &IncrementalMergePurge) -> Vec<u8> {
    e.view().encode(borrowed(e.records())).unwrap()
}

fn fingerprint(e: &IncrementalMergePurge) -> Fingerprint {
    (
        e.pairs().sorted(),
        e.classes(),
        e.provenance().edges.clone(),
        e.batches_applied(),
    )
}

fn two_pass(e: IncrementalMergePurge) -> IncrementalMergePurge {
    e.pass(KeySpec::last_name_key(), 8)
        .pass(KeySpec::first_name_key(), 8)
}

/// The one durable engine, in process, for bands 1..=4: batches are
/// journaled, the engine is dropped without a checkpoint (kill -9), then
/// reopened, checkpointed, fed more, dropped and reopened again. After
/// every reopen its pairs, classes, provenance edges and batch count are
/// the in-memory `add_batch` engine's after the same batches.
#[test]
fn durable_engine_of_every_band_count_recovers_the_in_memory_state() {
    let theory = NativeEmployeeTheory::new();
    let parts = six_batches();
    let mut reference = two_pass(IncrementalMergePurge::new());
    let want: Vec<Fingerprint> = parts
        .iter()
        .map(|b| {
            reference.add_batch(b.clone(), &theory);
            fingerprint(&reference)
        })
        .collect();

    for bands in 1..=4usize {
        let dir =
            std::env::temp_dir().join(format!("mp-persist-{}-bands{bands}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || DurableIncremental::open(&dir, bands, two_pass, &theory, &NoopObserver);
        let ingest = |d: &mut DurableIncremental, batches: &[Vec<Record>]| {
            for (i, b) in batches.iter().enumerate() {
                let trace = format!("t-{bands}-{i}");
                d.ingest(b.clone(), Some(&trace), &theory, &NoopObserver)
                    .unwrap();
            }
        };

        let (mut d, _) = open().unwrap();
        ingest(&mut d, &parts[..2]);
        drop(d); // kill -9: journal only
        let (mut d, report) = open().unwrap();
        assert_eq!(
            (report.snapshot_loaded, report.batches_replayed),
            (false, 2),
            "{bands} bands"
        );
        assert_eq!(fingerprint(d.engine()), want[1], "{bands} bands, replay");

        d.checkpoint(&NoopObserver).unwrap();
        ingest(&mut d, &parts[2..4]);
        drop(d);
        let (mut d, report) = open().unwrap();
        assert_eq!(
            (report.batches_in_snapshot, report.batches_replayed),
            (2, 2),
            "{bands} bands"
        );
        assert_eq!(
            fingerprint(d.engine()),
            want[3],
            "{bands} bands, snapshot + replay"
        );

        ingest(&mut d, &parts[4..]);
        drop(d);
        let (d, _) = open().unwrap();
        assert_eq!(fingerprint(d.engine()), want[5], "{bands} bands, final");
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The band count is the host's, not the store's: a store ingested at 3
/// bands and dropped without a checkpoint reopens at 1, ingests, and
/// reopens at 2. After every reopen the pairs, classes, provenance edges
/// and encoded snapshot are the in-memory `add_batch` engine's.
#[test]
fn a_store_moves_between_band_counts() {
    let theory = NativeEmployeeTheory::new();
    let parts = six_batches();
    let trace = |i: usize| format!("t-{i}");
    let mut reference = two_pass(IncrementalMergePurge::new());
    let want: Vec<(Fingerprint, Vec<u8>)> = parts
        .iter()
        .enumerate()
        .map(|(i, b)| {
            reference.add_batch(b.clone(), &theory);
            reference.note_batch_trace(&trace(i));
            (fingerprint(&reference), encoded(&reference))
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("mp-persist-{}-moves", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fed = 0;
    for (bands, batches) in [(3usize, 3), (1, 2), (2, 1)] {
        let (mut d, report) =
            DurableIncremental::open(&dir, bands, two_pass, &theory, &NoopObserver).unwrap();
        assert_eq!(report.batches_replayed, fed as u64, "{bands} bands");
        if fed > 0 {
            let (print, bytes) = &want[fed - 1];
            assert_eq!(&fingerprint(d.engine()), print, "reopened at {bands} bands");
            assert!(encoded(d.engine()) == *bytes, "snapshot at {bands} bands");
        }
        for (i, part) in parts.iter().enumerate().skip(fed).take(batches) {
            d.ingest(part.clone(), Some(&trace(i)), &theory, &NoopObserver)
                .unwrap();
        }
        fed += batches;
        drop(d); // kill -9: the journal holds every batch
    }
    let (d, _) = DurableIncremental::open(&dir, 1, two_pass, &theory, &NoopObserver).unwrap();
    assert_eq!(fingerprint(d.engine()), want[5].0);
    assert!(encoded(d.engine()) == want[5].1);
    drop(d);
    std::fs::remove_dir_all(&dir).unwrap();
}
