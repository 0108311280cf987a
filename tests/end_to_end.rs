//! End-to-end pipeline tests spanning the generator, conditioning, all
//! three merge methods, the rule engines, the closure, and the evaluator.

use merge_purge::{Evaluation, KeySpec, MergePurge, MultiPass, SortedNeighborhood};
use mp_datagen::{DatabaseGenerator, ErrorProfile, GeneratorConfig};
use mp_paper::{ClusteringConfig, ClusteringMethod};
use mp_rules::{employee_program, NativeEmployeeTheory};

fn generate(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
    DatabaseGenerator::new(
        GeneratorConfig::new(n)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(seed),
    )
    .generate()
}

#[test]
fn full_pipeline_reaches_high_accuracy_with_low_false_positives() {
    let mut db = generate(3_000, 1001);
    let theory = NativeEmployeeTheory::new();
    let result = MergePurge::new(&theory)
        .pass(KeySpec::last_name_key(), 10)
        .pass(KeySpec::first_name_key(), 10)
        .pass(KeySpec::address_key(), 10)
        .run(&mut db.records);
    let eval = Evaluation::score(&result.closed_pairs, &db.truth);
    assert!(
        eval.percent_detected > 80.0,
        "multi-pass detected only {:.1}%",
        eval.percent_detected
    );
    assert!(
        eval.percent_false_positive < 1.0,
        "false positives too high: {:.3}%",
        eval.percent_false_positive
    );
}

#[test]
fn dsl_program_and_native_theory_agree_end_to_end() {
    let mut db = generate(800, 1002);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let dsl = employee_program();
    let native = NativeEmployeeTheory::new();
    for key in KeySpec::standard_three() {
        let a = SortedNeighborhood::new(key.clone(), 8).run(&db.records, &dsl);
        let b = SortedNeighborhood::new(key, 8).run(&db.records, &native);
        assert_eq!(a.pairs.sorted(), b.pairs.sorted(), "theories diverge");
    }
}

#[test]
fn multipass_small_window_beats_single_pass_large_window() {
    // The headline claim: 3 passes at w = 10 beat one pass at w = 100 on
    // accuracy, despite doing far fewer comparisons.
    let mut db = generate(2_000, 1003);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let theory = NativeEmployeeTheory::new();

    let multi = MultiPass::standard_three(10).run(&db.records, &theory);
    let multi_eval = Evaluation::score(&multi.closed_pairs, &db.truth);
    let multi_comparisons: u64 = multi.passes.iter().map(|p| p.stats.comparisons).sum();

    let single = SortedNeighborhood::new(KeySpec::last_name_key(), 100).run(&db.records, &theory);
    let single_closed = MultiPass::close(db.records.len(), vec![single.clone()]);
    let single_eval = Evaluation::score(&single_closed.closed_pairs, &db.truth);

    assert!(
        multi_eval.percent_detected > single_eval.percent_detected,
        "multi {:.1}% <= single {:.1}%",
        multi_eval.percent_detected,
        single_eval.percent_detected
    );
    assert!(
        multi_comparisons < single.stats.comparisons,
        "multi-pass did more work: {} vs {}",
        multi_comparisons,
        single.stats.comparisons
    );
}

#[test]
fn clustering_method_is_close_to_but_below_snm_accuracy() {
    let mut db = generate(2_500, 1004);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let theory = NativeEmployeeTheory::new();
    let w = 10;

    let snm_passes: Vec<_> = KeySpec::standard_three()
        .into_iter()
        .map(|k| SortedNeighborhood::new(k, w).run(&db.records, &theory))
        .collect();
    let cl_passes: Vec<_> = KeySpec::standard_three()
        .into_iter()
        .map(|k| {
            ClusteringMethod::new(k, ClusteringConfig::paper_serial(w)).run(&db.records, &theory)
        })
        .collect();

    let snm = Evaluation::score(
        &MultiPass::close(db.records.len(), snm_passes).closed_pairs,
        &db.truth,
    );
    let cl = Evaluation::score(
        &MultiPass::close(db.records.len(), cl_passes).closed_pairs,
        &db.truth,
    );
    assert!(cl.percent_detected <= snm.percent_detected + 0.5);
    assert!(
        snm.percent_detected - cl.percent_detected < 15.0,
        "clustering too far behind: {:.1} vs {:.1}",
        cl.percent_detected,
        snm.percent_detected
    );
}

#[test]
fn noisier_data_means_lower_single_pass_accuracy() {
    let theory = NativeEmployeeTheory::new();
    let mut accuracies = Vec::new();
    for (i, profile) in [
        ErrorProfile::light(),
        ErrorProfile::default(),
        ErrorProfile::heavy(),
    ]
    .into_iter()
    .enumerate()
    {
        let mut db = DatabaseGenerator::new(
            GeneratorConfig::new(2_000)
                .duplicate_fraction(0.5)
                .errors(profile)
                .seed(1005 + i as u64),
        )
        .generate();
        mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
        let pass = SortedNeighborhood::new(KeySpec::last_name_key(), 10).run(&db.records, &theory);
        let eval = Evaluation::score(
            &MultiPass::close(db.records.len(), vec![pass]).closed_pairs,
            &db.truth,
        );
        accuracies.push(eval.percent_detected);
    }
    assert!(
        accuracies[0] > accuracies[2],
        "light {:.1}% should beat heavy {:.1}%",
        accuracies[0],
        accuracies[2]
    );
}

#[test]
fn spell_correction_does_not_hurt_and_usually_helps() {
    let theory = NativeEmployeeTheory::new();
    let corrector = mp_record::SpellCorrector::new(mp_datagen::geo::city_corpus(18_670), 2);
    let build = |spell: bool, seed: u64| {
        let mut db = generate(2_000, seed);
        let mut mp = MergePurge::new(&theory)
            .pass(KeySpec::last_name_key(), 10)
            .pass(KeySpec::address_key(), 10);
        if spell {
            mp = mp.spell_correct_cities(corrector.clone());
        }
        let result = mp.run(&mut db.records);
        Evaluation::score(&result.closed_pairs, &db.truth).percent_detected
    };
    let without = build(false, 1006);
    let with = build(true, 1006);
    // The paper reports +1.5-2.0%; at our scale the delta fluctuates, but
    // correction must never make things meaningfully worse.
    assert!(
        with >= without - 0.5,
        "spell correction hurt: {with:.1}% vs {without:.1}%"
    );
}
