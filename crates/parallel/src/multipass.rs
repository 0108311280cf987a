//! Concurrent multi-pass execution (§4.1's estimate, made real).
//!
//! The paper could not run its three independent passes concurrently for
//! lack of processors and estimated the multi-pass time as "approximately
//! the maximum time taken by any independent run plus the time to compute
//! the closure". With threads we simply run the passes concurrently and
//! measure.

use merge_purge::{MultiPass, MultiPassResult, PassResult};
use mp_metrics::{span, NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Strategy for each concurrent pass.
#[derive(Debug, Clone)]
pub enum ParallelPass {
    /// A [`crate::ParallelSnm`] pass.
    Snm(crate::ParallelSnm),
    /// A [`crate::ParallelClustering`] pass.
    Clustering(crate::ParallelClustering),
}

impl ParallelPass {
    fn run(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        match self {
            ParallelPass::Snm(p) => p.run_observed(records, theory, observer),
            ParallelPass::Clustering(p) => p.run_observed(records, theory, observer),
        }
    }
}

/// Runs all passes concurrently (each internally parallel with its own
/// processor budget), then computes the transitive closure.
///
/// # Panics
///
/// Panics when `passes` is empty.
pub fn parallel_multipass(
    passes: &[ParallelPass],
    records: &[Record],
    theory: &dyn EquationalTheory,
) -> MultiPassResult {
    parallel_multipass_observed(passes, records, theory, &NoopObserver)
}

/// Like [`parallel_multipass`], reporting counters and phase timings to
/// `observer`. Passes run concurrently, so phase times accumulated across
/// passes can exceed wall-clock time; counters (comparisons, matches,
/// worker fragments) are exact sums across all passes.
///
/// # Panics
///
/// Panics when `passes` is empty.
pub fn parallel_multipass_observed(
    passes: &[ParallelPass],
    records: &[Record],
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> MultiPassResult {
    assert!(!passes.is_empty(), "need at least one pass");
    let _run_span = span(observer, "run");
    let mut results: Vec<Option<PassResult>> = (0..passes.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = passes
            .iter()
            .map(|p| s.spawn(move || p.run(records, theory, observer)))
            .collect();
        for (slot, h) in results.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("pass thread panicked"));
        }
    });
    let results: Vec<PassResult> = results.into_iter().map(|r| r.expect("filled")).collect();
    let result = MultiPass::close_observed(records.len(), results, observer);
    observer.run_complete();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelClustering, ParallelSnm};
    use merge_purge::{ClusteringConfig, KeySpec};
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    #[test]
    fn concurrent_multipass_equals_serial_multipass() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(95))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let serial = MultiPass::standard_three(8).run(&db.records, &theory);
        let passes: Vec<ParallelPass> = KeySpec::standard_three()
            .into_iter()
            .map(|k| ParallelPass::Snm(ParallelSnm::new(k, 8, 2)))
            .collect();
        let parallel = parallel_multipass(&passes, &db.records, &theory);
        assert_eq!(parallel.closed_pairs.sorted(), serial.closed_pairs.sorted());
        assert_eq!(parallel.classes, serial.classes);
    }

    #[test]
    fn mixed_pass_kinds() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(96)).generate();
        let theory = NativeEmployeeTheory::new();
        let passes = vec![
            ParallelPass::Snm(ParallelSnm::new(KeySpec::last_name_key(), 6, 2)),
            ParallelPass::Clustering(ParallelClustering::new(
                KeySpec::address_key(),
                ClusteringConfig {
                    clusters: 10,
                    histogram_prefix: 3,
                    cluster_key_len: 6,
                    window: 6,
                },
                2,
            )),
        ];
        let result = parallel_multipass(&passes, &db.records, &theory);
        assert_eq!(result.passes.len(), 2);
        assert!(result.closed_pairs.len() >= result.passes[0].pairs.len());
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn empty_passes_rejected() {
        let theory = NativeEmployeeTheory::new();
        parallel_multipass(&[], &[], &theory);
    }
}
