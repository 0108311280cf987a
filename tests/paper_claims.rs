//! The paper's quantitative claims, encoded as assertions at reduced scale.
//! Each test names the section or figure it checks.

use merge_purge::{CostModel, Evaluation, KeySpec, MultiPass, SortedNeighborhood};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::ExternalConfig;
use mp_paper::{ExternalClustering, ExternalSnm};
use mp_rules::NativeEmployeeTheory;

fn fig2_style_db(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
    let mut db = DatabaseGenerator::new(
        GeneratorConfig::new(n)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(seed),
    )
    .generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    db
}

/// Fig. 2(a): "each independent run found from 50% to 70% of the duplicated
/// pairs" — at small scale our band is a little wider; assert each pass
/// lands in 25-80% and the *best* pass lands in 40-80%.
#[test]
fn single_pass_accuracy_band() {
    let db = fig2_style_db(4_000, 3001);
    let theory = NativeEmployeeTheory::new();
    let mut best: f64 = 0.0;
    for key in KeySpec::standard_three() {
        let pass = SortedNeighborhood::new(key, 10).run(&db.records, &theory);
        let eval = Evaluation::score(
            &MultiPass::close(db.records.len(), vec![pass]).closed_pairs,
            &db.truth,
        );
        assert!(
            (25.0..80.0).contains(&eval.percent_detected),
            "single pass at {:.1}% outside band",
            eval.percent_detected
        );
        best = best.max(eval.percent_detected);
    }
    assert!(best > 40.0, "best single pass only {best:.1}%");
}

/// Fig. 2(a): "the percent of duplicates found goes up to almost 90%" for
/// the multi-pass closure.
#[test]
fn multipass_approaches_ninety_percent() {
    let db = fig2_style_db(4_000, 3001);
    let theory = NativeEmployeeTheory::new();
    let multi = MultiPass::standard_three(10).run(&db.records, &theory);
    let eval = Evaluation::score(&multi.closed_pairs, &db.truth);
    assert!(
        eval.percent_detected > 85.0,
        "multi-pass only {:.1}%",
        eval.percent_detected
    );
}

/// Fig. 2(a): "increasing the window size does not help much" — going from
/// w = 10 to w = 50 must gain far less than the multi-pass closure gains
/// over the best single pass.
#[test]
fn widening_window_has_diminishing_returns() {
    let db = fig2_style_db(3_000, 3002);
    let theory = NativeEmployeeTheory::new();
    let at = |w: usize| {
        let pass = SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        Evaluation::score(
            &MultiPass::close(db.records.len(), vec![pass]).closed_pairs,
            &db.truth,
        )
        .percent_detected
    };
    let w10 = at(10);
    let w50 = at(50);
    let multi = Evaluation::score(
        &MultiPass::standard_three(10)
            .run(&db.records, &theory)
            .closed_pairs,
        &db.truth,
    )
    .percent_detected;
    let window_gain = w50 - w10;
    let multipass_gain = multi - w50;
    assert!(
        multipass_gain > window_gain,
        "5x window gained {window_gain:.1}pp but multi-pass only {multipass_gain:.1}pp more"
    );
}

/// Fig. 2(b): false positives are "almost insignificant" for single runs
/// and grow with window size for the closure.
#[test]
fn false_positive_behaviour() {
    let db = fig2_style_db(6_000, 3003);
    let theory = NativeEmployeeTheory::new();
    let fp = |w: usize| {
        let multi = MultiPass::standard_three(w).run(&db.records, &theory);
        Evaluation::score(&multi.closed_pairs, &db.truth).percent_false_positive
    };
    let fp_small = fp(2);
    let fp_large = fp(30);
    assert!(fp_small < 0.5, "w=2 FP {fp_small:.3}% not insignificant");
    assert!(fp_large < 2.0, "w=30 FP {fp_large:.3}% too large");
    assert!(
        fp_large >= fp_small,
        "FP should not shrink as windows widen: {fp_small:.3}% -> {fp_large:.3}%"
    );
}

/// §3.5: the paper's own constants give a crossover near W = 41 for
/// N = 13,751, r = 3, w = 10.
#[test]
fn paper_cost_model_instance() {
    let m = CostModel::paper();
    let w = m.crossover_window(13_751, 3, 10);
    assert!((w - 41.0).abs() < 2.0, "got {w:.1}");
}

/// §2.4: a transposed SSN ruins the SSN-principal key but not the
/// name-principal keys — the whole motivation for multiple passes.
#[test]
fn transposed_ssn_recovered_by_name_pass_not_ssn_pass() {
    use mp_record::{Record, RecordId};
    let theory = NativeEmployeeTheory::new();
    // A tiny crafted database: 100 filler records plus the §2.4 pair.
    let mut db =
        DatabaseGenerator::new(GeneratorConfig::new(100).duplicate_fraction(0.0).seed(3004))
            .generate();
    let mut a = Record::empty(RecordId(0));
    a.ssn = "193456782".into();
    a.first_name = "KATHERINE".into();
    a.last_name = "QUIMBY".into();
    a.street_number = "12".into();
    a.street_name = "OAK LANE".into();
    a.city = "AUSTIN".into();
    a.zip = "78701".into();
    let mut b = a.clone();
    b.ssn = "913456782".into(); // first two digits transposed
    let n = db.records.len() as u32;
    a.id = RecordId(n);
    b.id = RecordId(n + 1);
    db.records.push(a);
    db.records.push(b);

    let ssn_pass = SortedNeighborhood::new(KeySpec::ssn_key(), 5).run(&db.records, &theory);
    let name_pass = SortedNeighborhood::new(KeySpec::last_name_key(), 5).run(&db.records, &theory);
    assert!(
        !ssn_pass.pairs.contains(n, n + 1),
        "ssn-principal key should miss the transposed pair at small w"
    );
    assert!(
        name_pass.pairs.contains(n, n + 1),
        "name-principal key should catch the transposed pair"
    );
}

/// §3.5: the sorted-neighborhood method pays "one pass ... to create keys,
/// log N passes to globally sort ..., and one final pass for the window
/// scanning phase", `2 + ceil(log_16(ceil(N/M)))` with a 16-way merge,
/// while the clustering method, "with approximately only 2 passes", takes
/// exactly 2 wherever its clusters fit in memory. A cluster that does not
/// fit is an `InvalidData` error naming the cluster and the budget.
#[test]
fn external_snm_pays_merge_passes_clustering_stays_at_two() {
    let db = DatabaseGenerator::new(
        GeneratorConfig::new(1_500)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(3005),
    )
    .generate();
    let n = db.records.len();
    assert!((2_500..3_500).contains(&n), "{n} records");
    let dir = std::env::temp_dir().join(format!("mp-claims-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("db.mp");
    mp_record::io::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
    let theory = NativeEmployeeTheory::new();
    let config = |m| ExternalConfig {
        memory_records: m,
        fan_in: 16,
        ..ExternalConfig::default()
    };

    let mut snm_passes = Vec::new();
    for m in [n + 1, n / 4, n / 70] {
        let snm = ExternalSnm::new(KeySpec::last_name_key(), 10, config(m))
            .run(&input, &dir, &theory)
            .unwrap();
        let (mut runs, mut levels) = (n.div_ceil(m), 0);
        while runs > 1 {
            runs = runs.div_ceil(16);
            levels += 1;
        }
        assert_eq!(snm.io.data_passes(), 2 + levels, "M = {m}");
        snm_passes.push(snm.io.data_passes());

        let clusters = (n / m * 4).clamp(8, 512);
        match ExternalClustering::new(KeySpec::last_name_key(), clusters, 10, config(m))
            .run(&input, &dir, &theory)
        {
            Ok(cl) => assert_eq!(cl.io.data_passes(), 2, "M = {m}"),
            Err(e) => {
                assert!(m < n / 4, "M = {m} must fit its clusters: {e}");
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            }
        }
    }
    assert_eq!(snm_passes, [2, 3, 4]);

    let err = ExternalClustering::new(KeySpec::last_name_key(), 1, 10, config(n / 4))
        .run(&input, &dir, &theory)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().starts_with(&format!(
            "cluster 0 exceeds the memory budget of {} records",
            n / 4
        )),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
