//! Corrupt-tail recovery at the store level: flip or chop bytes in the
//! journal tail of a store holding real generated batches, reopen, and the
//! intact prefix must load cleanly with the damage reported — never
//! silently absorbed.

use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_record::Record;
use mp_store::{MatchStore, JOURNAL_FILE};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-store-ct-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batches() -> Vec<Vec<Record>> {
    let db = DatabaseGenerator::new(GeneratorConfig::new(300).duplicate_fraction(0.5).seed(77))
        .generate();
    db.records.chunks(100).map(<[Record]>::to_vec).collect()
}

fn store_with_journaled_batches(name: &str) -> (PathBuf, Vec<Vec<Record>>, Vec<u64>) {
    let dir = tmp_dir(name);
    let parts = batches();
    let mut offsets = Vec::new(); // journal length after each append
    {
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        for b in &parts {
            store
                .append_batch(b, None, &mp_metrics::NoopObserver)
                .unwrap();
            offsets.push(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len());
        }
    }
    (dir, parts, offsets)
}

#[test]
fn flipped_byte_in_tail_truncates_to_last_good_frame() {
    let (dir, parts, offsets) = store_with_journaled_batches("flip");
    let journal = dir.join(JOURNAL_FILE);
    let mut data = std::fs::read(&journal).unwrap();
    // Flip a byte inside the *last* frame's payload.
    let in_last = offsets[offsets.len() - 2] as usize + 40;
    data[in_last] ^= 0xA5;
    std::fs::write(&journal, &data).unwrap();

    let (_, loaded) = MatchStore::open(&dir).unwrap();
    assert!(loaded.truncated(), "damage must be reported");
    assert!(loaded.truncated_bytes > 0);
    assert_eq!(
        loaded.replayable.len(),
        parts.len() - 1,
        "all intact frames load"
    );
    for (i, b) in loaded.replayable.iter().enumerate() {
        assert_eq!(b.seq, i as u64 + 1);
        assert_eq!(b.records, parts[i], "intact batch {i} byte-identical");
    }
    // The truncation is physical: the tail is gone from disk and a second
    // open is clean.
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        offsets[offsets.len() - 2]
    );
    let (_, again) = MatchStore::open(&dir).unwrap();
    assert!(!again.truncated());
    assert_eq!(again.replayable.len(), parts.len() - 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_journal_corruption_drops_everything_from_the_damage_on() {
    let (dir, parts, offsets) = store_with_journaled_batches("mid");
    let journal = dir.join(JOURNAL_FILE);
    let mut data = std::fs::read(&journal).unwrap();
    // Damage the *second* frame: the first survives, the rest is tail.
    let in_second = offsets[0] as usize + 40;
    data[in_second] ^= 0x0F;
    std::fs::write(&journal, &data).unwrap();

    let (_, loaded) = MatchStore::open(&dir).unwrap();
    assert!(loaded.truncated());
    assert_eq!(loaded.replayable.len(), 1);
    assert_eq!(loaded.replayable[0].records, parts[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_truncation_point_recovers_cleanly() {
    // Chop the journal at a spread of byte positions — mid-header,
    // mid-frame-header, mid-payload — and every single one must reopen
    // without error, loading a prefix of the appended batches.
    let (dir, parts, offsets) = store_with_journaled_batches("chop");
    let journal = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&journal).unwrap();
    let step = (pristine.len() / 23).max(1);
    for cut in (0..pristine.len()).step_by(step) {
        std::fs::write(&journal, &pristine[..cut]).unwrap();
        let (_, loaded) = MatchStore::open(&dir).unwrap();
        let full_frames = offsets.iter().filter(|&&end| end <= cut as u64).count();
        assert_eq!(
            loaded.replayable.len(),
            full_frames,
            "cut at {cut}: exactly the fully-written frames replay"
        );
        for (i, b) in loaded.replayable.iter().enumerate() {
            assert_eq!(b.records, parts[i]);
        }
        // A cut strictly inside data is a reported truncation (cutting at
        // a frame boundary or before the header leaves nothing torn).
        let at_boundary = cut == 0 || cut == 8 || offsets.contains(&(cut as u64));
        assert_eq!(
            loaded.truncated(),
            !at_boundary,
            "cut at {cut}: truncation reporting"
        );
        // Restore for the next iteration.
        std::fs::write(&journal, &pristine).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
