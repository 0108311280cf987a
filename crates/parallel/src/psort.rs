//! Parallel merge sort of the key list.
//!
//! §4.1: "a coordinator processor (CP) fragments the input database in a
//! round-robin fashion among all P sites. Each site then sorts its local
//! fragment in parallel. Then the CP does a P-way join (merge), reading a
//! block at a time from each of the P sites." Fragmentation here is by
//! contiguous chunks rather than round-robin — equivalent work, better
//! locality on shared memory.

use merge_purge::{radix_order_by, KeyArena};
use mp_metrics::{Counter, PipelineObserver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Returns record indices sorted by key, sorting `procs` fragments in
/// parallel (each with the serial engine's radix sort, reporting its
/// [`Counter::RadixPasses`]) and merging them with a P-way heap merge.
/// Stable: equal keys keep ascending index order.
///
/// # Panics
///
/// Panics when `procs` is zero.
pub fn parallel_sorted_order(
    keys: &KeyArena,
    procs: usize,
    observer: &dyn PipelineObserver,
) -> Vec<u32> {
    assert!(procs >= 1, "need at least one processor");
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(procs);

    // Local sorts, one fragment per worker.
    let mut runs: Vec<Vec<u32>> = Vec::with_capacity(procs);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                s.spawn(move || {
                    // Stable within the run; cross-run stability comes from
                    // the merge preferring the lower fragment on ties.
                    let sorted = radix_order_by(end - start, |i| keys.get(start + i));
                    observer.add(Counter::RadixPasses, u64::from(sorted.passes));
                    sorted.order.into_iter().map(|i| i + start as u32).collect()
                })
            })
            .collect();
        for h in handles {
            runs.push(h.join().expect("sort worker panicked"));
        }
    });

    merge_runs(keys, runs)
}

/// The coordinator's P-way merge ("16-way merge algorithm" in the paper's
/// footnote; the fan-in here is exactly the number of runs).
fn merge_runs(keys: &KeyArena, runs: Vec<Vec<u32>>) -> Vec<u32> {
    // Min-heap of (key, index, run, position in run): ascending key order,
    // ties toward the smaller index for stability.
    let entry = |run: usize, pos: usize| {
        let index = *runs[run].get(pos)?;
        Some(Reverse((keys.get(index as usize), index, run, pos)))
    };
    let mut heap: BinaryHeap<_> = (0..runs.len()).filter_map(|r| entry(r, 0)).collect();
    let mut out = Vec::with_capacity(keys.len());
    while let Some(Reverse((_, index, run, pos))) = heap.pop() {
        out.push(index);
        if let Some(next) = entry(run, pos + 1) {
            heap.push(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metrics::NoopObserver;
    use proptest::prelude::*;

    fn arena(keys: &[&str]) -> KeyArena {
        let mut a = KeyArena::new();
        for k in keys {
            a.push_str(k);
        }
        a
    }

    fn serial_order(keys: &KeyArena) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by(|&a, &b| keys.get(a as usize).cmp(keys.get(b as usize)));
        order
    }

    #[test]
    fn matches_serial_sort() {
        let keys = arena(&["PEAR", "APPLE", "MANGO", "APPLE", "FIG", "DATE"]);
        for procs in [1, 2, 3, 4, 6, 9] {
            assert_eq!(
                parallel_sorted_order(&keys, procs, &NoopObserver),
                serial_order(&keys)
            );
        }
    }

    #[test]
    fn stability_on_equal_keys() {
        let keys = arena(&["X"; 50]);
        let order = parallel_sorted_order(&keys, 4, &NoopObserver);
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(parallel_sorted_order(&KeyArena::new(), 4, &NoopObserver).is_empty());
        assert_eq!(
            parallel_sorted_order(&arena(&["A"]), 4, &NoopObserver),
            vec![0]
        );
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        parallel_sorted_order(&KeyArena::new(), 0, &NoopObserver);
    }

    proptest! {
        #[test]
        fn agrees_with_serial_for_random_inputs(
            keys in proptest::collection::vec("[A-D\0]{0,4}", 0..200),
            procs in 1usize..8,
        ) {
            let keys = arena(&keys.iter().map(String::as_str).collect::<Vec<_>>());
            prop_assert_eq!(
                parallel_sorted_order(&keys, procs, &NoopObserver),
                serial_order(&keys)
            );
        }
    }
}
