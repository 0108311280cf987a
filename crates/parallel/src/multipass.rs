//! Concurrent multi-pass execution (§4.1's estimate, made real): the
//! paper estimated it as "approximately the maximum time taken by any
//! independent run plus the time to compute the closure"; threads run the
//! passes concurrently and measure it.

use merge_purge::{fan_out, MultiPass, MultiPassResult};
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

/// Runs all passes concurrently (each in its own processor count's
/// bands), then computes the transitive closure. Panics on no passes.
pub fn parallel_multipass(
    passes: &[ParallelPass],
    records: &[Record],
    theory: &dyn EquationalTheory,
) -> MultiPassResult {
    parallel_multipass_observed(passes, records, theory, &NoopObserver)
}

/// Like [`parallel_multipass`], reporting counters and phase timings to
/// `observer`. Pass 0 runs on the calling thread and pass `P` on a
/// `pass-P` lane, side by side, so phase times accumulated across passes
/// can exceed wall-clock time; counters are exact sums across all passes.
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
    let results = fan_out(
        passes.iter().collect(),
        |p| format!("pass-{p}"),
        |_, pass| match pass {
            ParallelPass::Snm(p) => p.run_observed(records, theory, observer),
            ParallelPass::Clustering(p) => p.run_observed(records, theory, observer),
        },
    );
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
