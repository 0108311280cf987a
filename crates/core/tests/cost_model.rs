//! Property test of the §3.5 cost model: a sorted-neighborhood pass over N
//! records with window w performs exactly (w−1)(N − w/2) comparisons when
//! N ≥ w — the paper's "in the worst case ... wN comparisons" refined to
//! the exact triangular form Σ_{i=1}^{N−1} min(i, w−1).

use merge_purge::{KeySpec, SortedNeighborhood};
use mp_metrics::{Counter, MetricsRecorder};
use mp_record::{Record, RecordId};
use mp_rules::EquationalTheory;
use proptest::prelude::*;

/// A theory that never matches: comparison counts depend only on N and w.
struct NeverMatches;
impl EquationalTheory for NeverMatches {
    fn matches(&self, _: &Record, _: &Record) -> bool {
        false
    }
    fn name(&self) -> &str {
        "never"
    }
}

fn records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::empty(RecordId(i as u32));
            // Distinct keys so the sort is forced to do real work; the scan
            // cost is key-independent.
            r.last_name = format!("K{i:06}").into();
            r
        })
        .collect()
}

/// Σ_{i=1}^{N−1} min(i, w−1): the exact comparison count for any N and w.
fn triangular(n: u64, w: u64) -> u64 {
    (1..n).map(|i| i.min(w - 1)).sum()
}

proptest! {
    #[test]
    fn snm_comparisons_match_closed_form(
        n in 0usize..400,
        w in 2usize..=20,
    ) {
        let recs = records(n);
        let recorder = MetricsRecorder::new();
        let result = SortedNeighborhood::new(KeySpec::last_name_key(), w)
            .run_observed(&recs, &NeverMatches, &recorder);

        let measured = recorder.get(Counter::Comparisons);
        prop_assert_eq!(measured, result.stats.comparisons);
        prop_assert_eq!(measured, triangular(n as u64, w as u64));
        if n >= w {
            // §3.5: (w−1)(N − w/2). Doubled to stay in integers: the
            // closed form 2(w−1)N − (w−1)w is exact for N ≥ w.
            let (n, w) = (n as u64, w as u64);
            prop_assert_eq!(2 * measured, 2 * (w - 1) * n - (w - 1) * w);
        }
        prop_assert_eq!(recorder.get(Counter::Matches), 0);
        prop_assert_eq!(recorder.get(Counter::RecordsKeyed), n as u64);
    }
}
