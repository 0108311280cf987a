//! High-level merge/purge pipeline: condition → passes → closure.

use crate::fanout::fan_out;
use crate::key::KeySpec;
use crate::multipass::{MultiPass, MultiPassResult};
use mp_metrics::{span, NoopObserver, Phase, PipelineObserver};
use mp_record::{normalize, NicknameTable, Record, SpellCorrector};
use mp_rules::EquationalTheory;

/// Result of a full pipeline run.
pub type MergePurgeResult = MultiPassResult;

/// Builder for an end-to-end merge/purge run over a concatenated record
/// list: optional conditioning (normalization, nicknames, city spell
/// correction per §3.2) split across the host's cores, any number of
/// passes, and the final closure.
///
/// ```
/// use merge_purge::{KeySpec, MergePurge};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let mut db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(2)).generate();
/// let theory = NativeEmployeeTheory::new();
/// let result = MergePurge::new(&theory)
///     .pass(KeySpec::last_name_key(), 8)
///     .pass(KeySpec::first_name_key(), 8)
///     .run(&mut db.records);
/// assert_eq!(result.passes.len(), 2);
/// ```
pub struct MergePurge<'t> {
    theory: &'t dyn EquationalTheory,
    passes: MultiPass,
    condition: bool,
    prune: bool,
    nicknames: NicknameTable,
    spell: Option<SpellCorrector>,
}

impl<'t> MergePurge<'t> {
    /// A pipeline using `theory` for record matching; conditioning with the
    /// standard nickname table and closure-aware pruning (see
    /// [`MultiPass::with_pruning`]) are on by default.
    pub fn new(theory: &'t dyn EquationalTheory) -> Self {
        MergePurge {
            theory,
            passes: MultiPass::new(),
            condition: true,
            prune: true,
            nicknames: NicknameTable::standard(),
            spell: None,
        }
    }

    /// Adds a sorted-neighborhood pass.
    pub fn pass(mut self, key: KeySpec, window: usize) -> Self {
        self.passes = self.passes.sorted(key, window);
        self
    }

    /// Disables the conditioning step (records are assumed pre-conditioned).
    pub fn without_conditioning(mut self) -> Self {
        self.condition = false;
        self
    }

    /// Disables closure-aware pruning, so every window candidate pair is
    /// handed to the equational theory. The closed pairs are identical
    /// either way (pruning only skips pairs whose connection is already
    /// known); disabling is useful for timing comparisons and for per-pass
    /// `pairs` counts that match the unpruned single-pass runs.
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Replaces the nickname table used during conditioning.
    pub fn nicknames(mut self, table: NicknameTable) -> Self {
        self.nicknames = table;
        self
    }

    /// Enables city-field spell correction against the given corrector
    /// (§3.2 reports a 1.5–2.0% accuracy gain from this step).
    pub fn spell_correct_cities(mut self, corrector: SpellCorrector) -> Self {
        self.spell = Some(corrector);
        self
    }

    /// Conditions the records in place (if enabled), runs every configured
    /// pass, and computes the transitive closure.
    ///
    /// # Panics
    ///
    /// Panics when no passes were configured.
    pub fn run(self, records: &mut [Record]) -> MergePurgeResult {
        self.run_observed(records, &NoopObserver)
    }

    /// Like [`MergePurge::run`], reporting conditioning time, per-pass
    /// counters and timings, and closure statistics to `observer` (the
    /// CLI's `--stats` flag drives this with a
    /// [`mp_metrics::MetricsRecorder`]).
    ///
    /// # Panics
    ///
    /// Panics when no passes were configured.
    pub fn run_observed(
        self,
        records: &mut [Record],
        observer: &dyn PipelineObserver,
    ) -> MergePurgeResult {
        let _run_span = span(observer, "run");
        let t0 = std::time::Instant::now();
        if self.condition || self.spell.is_some() {
            // Conditioning is per record, so the list splits into one
            // contiguous chunk per core; chunk 0 stays on this thread.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let chunk = records.len().div_ceil(cores).max(1);
            fan_out(
                records.chunks_mut(chunk).collect(),
                |i| format!("condition-{i}"),
                |_, chunk| self.condition_chunk(chunk, observer),
            );
        }
        observer.phase_ns(Phase::Condition, t0.elapsed().as_nanos() as u64);
        let passes = if self.prune {
            self.passes.with_pruning()
        } else {
            self.passes
        };
        passes.run_observed(records, self.theory, observer)
    }

    /// Normalizes (if enabled) and spell-corrects (if configured) one
    /// chunk of the record list, under a `condition` span.
    fn condition_chunk(&self, records: &mut [Record], observer: &dyn PipelineObserver) {
        let _span = span(observer, "condition");
        if self.condition {
            normalize::condition_all(records, &self.nicknames);
        }
        if let Some(corrector) = &self.spell {
            for r in records {
                corrector.correct_in_place(&mut r.city);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluation;
    use mp_datagen::{geo, DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    #[test]
    fn full_pipeline_improves_over_single_pass() {
        let theory = NativeEmployeeTheory::new();
        let mut db =
            DatabaseGenerator::new(GeneratorConfig::new(600).duplicate_fraction(0.5).seed(61))
                .generate();
        let mut db2 = db.clone();

        let single = MergePurge::new(&theory)
            .pass(KeySpec::last_name_key(), 10)
            .run(&mut db.records);
        let multi = MergePurge::new(&theory)
            .pass(KeySpec::last_name_key(), 10)
            .pass(KeySpec::first_name_key(), 10)
            .pass(KeySpec::address_key(), 10)
            .run(&mut db2.records);

        let e_single = Evaluation::score(&single.closed_pairs, &db.truth);
        let e_multi = Evaluation::score(&multi.closed_pairs, &db2.truth);
        assert!(
            e_multi.percent_detected >= e_single.percent_detected,
            "multi {:.1}% < single {:.1}%",
            e_multi.percent_detected,
            e_single.percent_detected
        );
    }

    #[test]
    fn conditioning_helps_on_messy_input() {
        let theory = NativeEmployeeTheory::new();
        // Hand-build two representations of one person, messy vs clean.
        let mut db =
            DatabaseGenerator::new(GeneratorConfig::new(50).duplicate_fraction(0.0).seed(62))
                .generate();
        let mut a = db.records[0].clone();
        a.first_name = format!("mr. {}", a.first_name.to_lowercase()).into();
        a.last_name = format!("{} jr", a.last_name.to_lowercase()).into();
        let id = db.records.len() as u32;
        a.id = mp_record::RecordId(id);
        db.records.push(a);

        let result = MergePurge::new(&theory)
            .pass(KeySpec::last_name_key(), 10)
            .run(&mut db.records);
        // The messy copy should be matched to its original (record id 0).
        assert!(result.closed_pairs.contains(0, id));
    }

    #[test]
    fn spell_correction_fixes_city() {
        let theory = NativeEmployeeTheory::new();
        let corrector = mp_record::SpellCorrector::new(geo::city_corpus(500), 2);
        let mut db =
            DatabaseGenerator::new(GeneratorConfig::new(30).duplicate_fraction(0.0).seed(63))
                .generate();
        db.records[0].city = "CHICGO".into(); // typo
        let _ = MergePurge::new(&theory)
            .pass(KeySpec::last_name_key(), 4)
            .spell_correct_cities(corrector)
            .run(&mut db.records);
        assert_eq!(db.records[0].city, "CHICAGO");
    }

    #[test]
    fn pruning_default_matches_unpruned_closed_pairs() {
        let theory = NativeEmployeeTheory::new();
        let mut db =
            DatabaseGenerator::new(GeneratorConfig::new(500).duplicate_fraction(0.5).seed(65))
                .generate();
        let mut db2 = db.clone();
        let build = |t| {
            MergePurge::new(t)
                .pass(KeySpec::last_name_key(), 10)
                .pass(KeySpec::first_name_key(), 10)
                .pass(KeySpec::address_key(), 10)
        };
        let pruned = build(&theory).run(&mut db.records);
        let plain = build(&theory).without_pruning().run(&mut db2.records);
        assert_eq!(pruned.closed_pairs.sorted(), plain.closed_pairs.sorted());
        assert_eq!(pruned.classes, plain.classes);
        let skips: u64 = pruned.passes.iter().map(|p| p.stats.pairs_pruned).sum();
        assert!(skips > 0, "default pipeline should prune");
        assert_eq!(
            plain
                .passes
                .iter()
                .map(|p| p.stats.pairs_pruned)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn without_conditioning_leaves_records_untouched() {
        let theory = NativeEmployeeTheory::new();
        let mut db = DatabaseGenerator::new(GeneratorConfig::new(40).seed(64)).generate();
        let before = db.records.clone();
        let _ = MergePurge::new(&theory)
            .without_conditioning()
            .pass(KeySpec::last_name_key(), 4)
            .run(&mut db.records);
        assert_eq!(db.records, before);
    }
}
