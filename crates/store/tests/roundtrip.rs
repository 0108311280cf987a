//! Store round-trip properties: a snapshot written and reloaded is the
//! identity on records, pass indexes, pairs, and — the part the paper
//! cares about — the transitive-closure classes.

use mp_closure::{MergeEdge, ProvenanceLog, UnionFind};
use mp_record::{KeyArena, Record, RecordId};
use mp_store::{MatchStore, PassSnapshot, Snapshot};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-store-rt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a structurally consistent snapshot from generator-driven raw
/// material: `n` records with arbitrary field content, a pair list over
/// them, and the union-find their closure implies.
fn build_snapshot(n: usize, raw_pairs: &[(u32, u32)], fields: &[String]) -> Snapshot {
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let mut r = Record::empty(RecordId(i as u32));
            r.last_name = fields[i % fields.len()].as_str().into();
            r.first_name = fields[(i * 7 + 1) % fields.len()].as_str().into();
            r.city = fields[(i * 3 + 2) % fields.len()].as_str().into();
            r.entity = (i % 3 == 0).then_some(mp_record::EntityId(i as u32 / 3));
            r
        })
        .collect();
    let mut closure = UnionFind::new(n);
    let mut pairs = Vec::new();
    for &(a, b) in raw_pairs {
        let (a, b) = (a % n as u32, b % n as u32);
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if !pairs.contains(&(lo, hi)) {
            pairs.push((lo, hi));
        }
        closure.union(lo, hi);
    }
    pairs.sort_unstable();
    let mut provenance = ProvenanceLog::new();
    for (i, &(lo, hi)) in pairs.iter().enumerate() {
        provenance.record_edge(MergeEdge {
            a: lo,
            b: hi,
            pass: 0,
            rule_id: (i % 3) as u32,
            batch_seq: 1 + (i % 4) as u64,
        });
        provenance.note_firing((i % 3) as u32);
    }
    provenance.note_batch_trace(2, "0000beef-00000002");
    let mut keys = KeyArena::new();
    records.iter().for_each(|r| keys.push_str(&r.last_name));
    keys.truncate_keys(8);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        keys.get(a as usize)
            .cmp(keys.get(b as usize))
            .then(a.cmp(&b))
    });
    Snapshot {
        passes: vec![PassSnapshot {
            key_name: "last-name".into(),
            window: 6,
            pairs_found: pairs.len() as u64,
            pairs_first_found: pairs.len() as u64,
            keys,
            order,
        }],
        records,
        pairs,
        closure,
        provenance,
        comparisons: 123,
        batches_applied: 4,
    }
}

proptest! {
    #[test]
    fn snapshot_load_is_identity_on_closure_pairs(
        n in 1usize..60,
        raw_pairs in proptest::collection::vec((0u32..60, 0u32..60), 0..80),
        fields in proptest::collection::vec("[A-Z]{0,10}", 3..6),
    ) {
        let snap = build_snapshot(n, &raw_pairs, &fields);
        let want_classes = snap.closure.clone().classes();
        let want_closed = snap.closure.clone().closed_pairs();

        let dir = tmp_dir(&format!("prop-{n}-{}", raw_pairs.len()));
        {
            let (mut store, _) = MatchStore::open(&dir).unwrap();
            store.write_snapshot(&snap).unwrap();
        }
        let (_, loaded) = MatchStore::open(&dir).unwrap();
        prop_assert!(!loaded.truncated());
        let back = loaded.snapshot.unwrap();

        prop_assert_eq!(&back.records, &snap.records);
        prop_assert_eq!(&back.passes, &snap.passes);
        prop_assert_eq!(&back.pairs, &snap.pairs);
        prop_assert_eq!(&back.provenance, &snap.provenance);
        prop_assert_eq!(back.comparisons, snap.comparisons);
        prop_assert_eq!(back.batches_applied, snap.batches_applied);
        // The headline property: closure pairs and classes are identical.
        prop_assert_eq!(back.closure.clone().classes(), want_classes);
        prop_assert_eq!(back.closure.clone().closed_pairs(), want_closed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn generated_database_round_trips_through_the_store() {
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    let db = DatabaseGenerator::new(GeneratorConfig::new(500).duplicate_fraction(0.4).seed(42))
        .generate();
    let n = db.records.len();
    let snap = Snapshot {
        records: db.records.clone(),
        passes: vec![],
        pairs: vec![],
        closure: UnionFind::new(n),
        provenance: ProvenanceLog::new(),
        comparisons: 0,
        batches_applied: 1,
    };
    let dir = tmp_dir("gen-db");
    {
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store.write_snapshot(&snap).unwrap();
    }
    let (_, loaded) = MatchStore::open(&dir).unwrap();
    assert_eq!(loaded.snapshot.unwrap().records, db.records);
    std::fs::remove_dir_all(&dir).unwrap();
}
