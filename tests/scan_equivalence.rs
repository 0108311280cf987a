//! One equivalence test for every way the workspace drives the window-scan
//! kernel: each engine configuration is compared with a deliberately naive
//! oracle written here — `sort_by` on the key, every pair within `w`
//! positions, a textbook union-find — and must produce identical closed
//! pairs, an identical comparison count, and counters that satisfy
//! `comparisons == rule_invocations + pairs_pruned`.

use merge_purge::incremental::IncrementalMergePurge;
use merge_purge::{KeySpec, MultiPass, SortedNeighborhood};
use mp_closure::UnionFind;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::{BulkLoader, ExternalConfig};
use mp_metrics::{Counter, MetricsRecorder};
use mp_paper::{
    parallel_multipass_observed, ClusteringConfig, ClusteringMethod, ExternalSnm,
    ParallelClustering, ParallelPass, ParallelSnm,
};
use mp_record::{NicknameTable, Record};
use mp_rules::{EquationalTheory, NativeEmployeeTheory};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// What the naive procedure finds.
#[derive(Debug, Default)]
struct Oracle {
    /// Every matching window pair, `(low id, high id)`.
    pairs: BTreeSet<(u32, u32)>,
    /// Window candidates, summed over passes and batches.
    comparisons: u64,
    /// Per pass: matching candidates, and those new to `pairs` when found.
    pass_counters: Vec<(u64, u64)>,
    /// Per pass and batch, the candidate count (for per-pass assertions).
    pass_comparisons: Vec<u64>,
}

/// Merge/purge by definition. After each batch arrives, and for each key in
/// turn: sort everything seen so far on the key, and hand the theory every
/// pair of records at most `w − 1` positions apart of which at least one
/// arrived in this batch. With one batch this is the sorted-neighborhood
/// method; with several it is what an incremental engine must reproduce.
fn oracle(
    batches: &[&[Record]],
    keys: &[KeySpec],
    w: usize,
    theory: &dyn EquationalTheory,
) -> Oracle {
    let mut out = Oracle {
        pass_counters: vec![(0, 0); keys.len()],
        pass_comparisons: vec![0; keys.len()],
        ..Oracle::default()
    };
    let mut seen: Vec<&Record> = Vec::new();
    for batch in batches {
        let old = seen.len();
        seen.extend(batch.iter());
        for (p, key) in keys.iter().enumerate() {
            let mut sorted: Vec<(String, usize)> = seen
                .iter()
                .enumerate()
                .map(|(i, r)| (key.extract(r), i))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0)); // stable: ties keep arrival order
            for j in 0..sorted.len() {
                for i in j.saturating_sub(w - 1)..j {
                    let (a, b) = (sorted[i].1, sorted[j].1);
                    if a < old && b < old {
                        continue;
                    }
                    out.comparisons += 1;
                    out.pass_comparisons[p] += 1;
                    if theory.matches(seen[a], seen[b]) {
                        out.pass_counters[p].0 += 1;
                        if out.pairs.insert((a.min(b) as u32, a.max(b) as u32)) {
                            out.pass_counters[p].1 += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Transitive closure with the textbook forest — parent pointers, no
/// ranks, no compression — expanded to every pair of every class.
fn closed_pairs(n: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
    let mut parent: Vec<usize> = (0..n).collect();
    let find = |parent: &[usize], mut x: usize| {
        while parent[x] != x {
            x = parent[x];
        }
        x
    };
    for (a, b) in pairs {
        let (ra, rb) = (find(&parent, a as usize), find(&parent, b as usize));
        parent[ra.max(rb)] = ra.min(rb);
    }
    let mut classes: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for x in 0..n {
        classes.entry(find(&parent, x)).or_default().push(x as u32);
    }
    let mut out = Vec::new();
    for class in classes.values() {
        for (i, &a) in class.iter().enumerate() {
            out.extend(class[i + 1..].iter().map(|&b| (a, b)));
        }
    }
    out.sort_unstable();
    out
}

/// Expands an engine's own equivalence classes to sorted pairs.
fn pairs_of_classes(classes: Vec<Vec<u32>>) -> Vec<(u32, u32)> {
    closed_pairs(
        classes
            .iter()
            .flatten()
            .max()
            .map_or(0, |&m| m as usize + 1),
        classes
            .iter()
            .flat_map(|c| c.windows(2).map(|w| (w[0], w[1]))),
    )
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn seeded_records(seed: u64, originals: usize) -> Vec<Record> {
    DatabaseGenerator::new(
        GeneratorConfig::new(originals)
            .duplicate_fraction(0.5)
            .seed(seed),
    )
    .generate()
    .records
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-scan-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The batch sequences the incremental engine is judged on. `skewed` makes
/// one large batch followed by a trickle of 1–3 records each (the sparse
/// regime: almost every scan position is old) where the even split cuts
/// `parts` chunks; `place` decides where the later batches' keys fall in
/// the store's order: 0 as generated, 1 all before it (digits sort before
/// names), 2 all after it, 3 on keys the store already holds (copies of
/// first-batch records, so the tie rule — old first — decides every slot).
fn batch_sequence(
    records: &[Record],
    parts: usize,
    skewed: bool,
    place: usize,
) -> Vec<Vec<Record>> {
    let n = records.len();
    let mut batches: Vec<Vec<Record>> = if skewed {
        let (base, mut rest) = records.split_at(n - (3 * parts).min(n - 1));
        let mut out = vec![base.to_vec()];
        for size in (1..=3).cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, after) = rest.split_at(size.min(rest.len()));
            out.push(batch.to_vec());
            rest = after;
        }
        out
    } else {
        records
            .chunks(n.div_ceil(parts))
            .map(<[Record]>::to_vec)
            .collect()
    };
    let (base, later) = batches.split_first_mut().unwrap();
    for (i, r) in later.iter_mut().flatten().enumerate() {
        match place {
            1 | 2 => {
                let prefix = if place == 1 { "0" } else { "ZZZ" };
                r.last_name = format!("{prefix}{}", r.last_name).into();
                r.first_name = format!("{prefix}{}", r.first_name).into();
            }
            3 => *r = base[i * 7 % base.len()].clone(),
            _ => {}
        }
    }
    batches
}

/// The three scan counters of one observed run; asserts the invariant
/// that ties them and returns the comparison count.
fn observed_comparisons(recorder: &MetricsRecorder, what: &str) -> u64 {
    let comparisons = recorder.get(Counter::Comparisons);
    assert_eq!(
        comparisons,
        recorder.get(Counter::RuleInvocations) + recorder.get(Counter::PairsPruned),
        "{what}: comparisons != rule_invocations + pairs_pruned"
    );
    comparisons
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

proptest! {
    /// In-memory passes: serial {pruned, unpruned}, and `ParallelSnm` on
    /// 1..=8 processors — bands are often shorter than the window here —
    /// alone and under `parallel_multipass`, and `ParallelClustering`
    /// against the serial clustering method.
    #[test]
    fn in_memory_engines_agree_with_the_oracle(
        seed in 0u64..1_000,
        originals in 8usize..90,
        w in 2usize..16,
    ) {
        let theory = NativeEmployeeTheory::new();
        let records = seeded_records(seed, originals);
        let n = records.len();
        let keys = KeySpec::standard_three();
        let want = oracle(&[&records], &keys, w, &theory);
        let want_closed = closed_pairs(n, want.pairs.iter().copied());

        for prune in [false, true] {
            let what = format!("serial prune={prune}");
            let recorder = MetricsRecorder::new();
            let mut run = MultiPass::standard_three(w);
            if prune {
                run = run.with_pruning();
            }
            let got = run.run_observed(&records, &theory, &recorder);
            prop_assert_eq!(got.closed_pairs.sorted(), want_closed.clone(), "{}", what);
            prop_assert_eq!(observed_comparisons(&recorder, &what), want.comparisons, "{}", what);
            for (p, pass) in got.passes.iter().enumerate() {
                prop_assert_eq!(pass.stats.comparisons, want.pass_comparisons[p], "{}", what);
            }
            if !prune {
                let found: BTreeSet<_> = got.passes.iter().flat_map(|p| p.pairs.iter()).collect();
                prop_assert_eq!(&found, &want.pairs, "{}", what);
            }
        }

        // One pass alone, pruned against a fresh union-find.
        let single = oracle(&[&records], &keys[..1], w, &theory);
        let mut uf = UnionFind::new(n);
        let recorder = MetricsRecorder::new();
        let pass = SortedNeighborhood::new(keys[0].clone(), w)
            .run_pruned_observed(&records, &theory, Some(&mut uf), &recorder);
        prop_assert_eq!(observed_comparisons(&recorder, "single pruned pass"), single.comparisons);
        prop_assert_eq!(
            closed_pairs(n, pass.pairs.iter()),
            closed_pairs(n, single.pairs.iter().copied())
        );

        for procs in 1..=8usize {
            let what = format!("parallel P={procs}");
            let recorder = MetricsRecorder::new();
            let pass = ParallelSnm::new(keys[0].clone(), w, procs)
                .run_observed(&records, &theory, &recorder);
            prop_assert_eq!(observed_comparisons(&recorder, &what), single.comparisons, "{}", what);
            prop_assert_eq!(pass.pairs.sorted(), single.pairs.iter().copied().collect::<Vec<_>>(), "{}", what);
            prop_assert_eq!(pass.worker_comparisons.len(), procs.min(n), "{}", what);
            prop_assert_eq!(pass.worker_comparisons.iter().sum::<u64>(), single.comparisons, "{}", what);

            let recorder = MetricsRecorder::new();
            let passes: Vec<ParallelPass> = keys
                .iter()
                .map(|k| ParallelPass::Snm(ParallelSnm::new(k.clone(), w, procs)))
                .collect();
            let got = parallel_multipass_observed(&passes, &records, &theory, &recorder);
            prop_assert_eq!(got.closed_pairs.sorted(), want_closed.clone(), "{}", what);
            prop_assert_eq!(observed_comparisons(&recorder, &what), want.comparisons, "{}", what);

            // The clustering method in `procs` bands over `clusters × procs`
            // clusters is the serial one over as many.
            let what = format!("parallel clustering P={procs}");
            let config = |clusters| ClusteringConfig {
                clusters,
                histogram_prefix: 2,
                cluster_key_len: 6,
                window: w,
            };
            let recorder = MetricsRecorder::new();
            let pass = ParallelClustering::new(keys[1].clone(), config(3), procs)
                .run_observed(&records, &theory, &recorder);
            let serial = ClusteringMethod::new(keys[1].clone(), config(3 * procs)).run(&records, &theory);
            prop_assert_eq!(pass.pairs.sorted(), serial.pairs.sorted(), "{}", what);
            prop_assert_eq!(observed_comparisons(&recorder, &what), serial.stats.comparisons, "{}", what);
            prop_assert_eq!(pass.worker_comparisons.len(), procs.min(n), "{}", what);
            prop_assert_eq!(pass.worker_comparisons.iter().sum::<u64>(), serial.stats.comparisons, "{}", what);
        }
    }

    /// Disk-resident engines, at a budget that spills several runs and at
    /// one that holds the whole file.
    #[test]
    fn external_engines_agree_with_the_oracle(
        seed in 0u64..1_000,
        originals in 8usize..70,
        w in 2usize..12,
        threads in 1usize..3,
    ) {
        let theory = NativeEmployeeTheory::new();
        let records = seeded_records(seed, originals);
        let n = records.len();
        let dir = work_dir(&format!("ext-{seed}-{originals}-{w}"));
        let input = dir.join("db.mp");
        mp_record::io::write_records(std::fs::File::create(&input).unwrap(), &records).unwrap();
        let keys = [KeySpec::last_name_key(), KeySpec::address_key()];

        // `ExternalSnm` conditions during run formation; the bulk loader,
        // like daemon ingest, takes records as they are.
        let mut conditioned = records.clone();
        mp_record::normalize::condition_all(&mut conditioned, &NicknameTable::standard());
        let want_snm = oracle(&[&conditioned], &keys[..1], w, &theory);
        let want_bulk = oracle(&[&records], &keys, w, &theory);

        for memory_records in [n / 5 + 1, n + 1] {
            let what = format!("budget={memory_records} threads={threads}");
            let config = ExternalConfig { memory_records, fan_in: 3, threads };

            let recorder = MetricsRecorder::new();
            let got = ExternalSnm::new(keys[0].clone(), w, config)
                .run_observed(&input, &dir, &theory, &recorder)
                .unwrap();
            prop_assert_eq!(got.pairs.sorted(), want_snm.pairs.iter().copied().collect::<Vec<_>>(), "{}", what);
            prop_assert_eq!(observed_comparisons(&recorder, &what), want_snm.comparisons, "{}", what);

            let recorder = MetricsRecorder::new();
            let mut loader = BulkLoader::new(config);
            for key in &keys {
                loader = loader.pass(key.clone(), w);
            }
            let mut got = loader.load_observed(&input, &dir, &theory, &recorder).unwrap();
            prop_assert_eq!(got.pairs.sorted(), want_bulk.pairs.iter().copied().collect::<Vec<_>>(), "{}", what);
            prop_assert_eq!(got.comparisons, want_bulk.comparisons, "{}", what);
            prop_assert_eq!(observed_comparisons(&recorder, &what), want_bulk.comparisons, "{}", what);
            prop_assert_eq!(
                pairs_of_classes(got.closure.classes()),
                closed_pairs(n, want_bulk.pairs.iter().copied()),
                "{}", what
            );
            let counters: Vec<_> = got.passes.iter().map(|p| (p.pairs_found, p.pairs_first_found)).collect();
            prop_assert_eq!(&counters, &want_bulk.pass_counters, "{}", what);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The incremental engine: the same records as one batch and as
    /// several — split evenly or as a large base and a trickle, the later
    /// batches keyed into, before, after and onto the store's keys —
    /// serially and banded over 1..=8 bands.
    #[test]
    fn incremental_engines_agree_with_the_oracle(
        seed in 0u64..1_000,
        originals in 8usize..70,
        w in 2usize..12,
        parts in 1usize..5,
        skewed in 0usize..2,
        place in 0usize..4,
    ) {
        let theory = NativeEmployeeTheory::new();
        let records = seeded_records(seed, originals);
        let n = records.len();
        let keys = [KeySpec::last_name_key(), KeySpec::first_name_key()];
        let owned = batch_sequence(&records, parts, skewed == 1, place);
        let batches: Vec<&[Record]> = owned.iter().map(Vec::as_slice).collect();
        let want = oracle(&batches, &keys, w, &theory);
        let want_closed = closed_pairs(n, want.pairs.iter().copied());

        let mut snapshot: Option<Vec<u8>> = None;
        for bands in 0..=8usize {
            let what = format!(
                "batches={} skewed={skewed} place={place} bands={bands}",
                batches.len()
            );
            let recorder = MetricsRecorder::new();
            let mut engine = keys
                .iter()
                .fold(IncrementalMergePurge::new(), |e, k| e.pass(k.clone(), w));
            for batch in &batches {
                match bands {
                    0 => engine.add_batch(batch.to_vec(), &theory),
                    _ => engine.add_batch_sharded(batch.to_vec(), &theory, bands, &recorder),
                }
            }
            prop_assert_eq!(engine.pairs().sorted(), want.pairs.iter().copied().collect::<Vec<_>>(), "{}", what);
            prop_assert_eq!(pairs_of_classes(engine.classes()), want_closed.clone(), "{}", what);
            prop_assert_eq!(engine.comparisons(), want.comparisons, "{}", what);
            if bands > 0 {
                prop_assert_eq!(observed_comparisons(&recorder, &what), want.comparisons, "{}", what);
            }
            let counters: Vec<_> = engine
                .pass_counters()
                .iter()
                .map(|p| (p.pairs_found, p.pairs_first_found))
                .collect();
            prop_assert_eq!(&counters, &want.pass_counters, "{}", what);
            // Orders, keys and the merge lineage with its first-found rule
            // ids: the whole durable state is the same bytes however the
            // scan was banded.
            let bytes = engine.to_snapshot().encode();
            prop_assert_eq!(snapshot.get_or_insert_with(|| bytes.clone()), &bytes, "{}", what);
        }
    }
}
