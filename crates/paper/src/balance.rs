//! Longest-processing-time-first (LPT) load balancing.
//!
//! §4.2: "It then redistributes the clusters among processors using a
//! *longest processing time first* strategy. That is, move the largest job
//! in an overloaded processor to the most underloaded processor, and repeat
//! until a 'well' balanced load is obtained" — Graham's classic rule, with
//! a 4/3 − 1/(3P) makespan guarantee.

/// Result of an LPT assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `job_to_proc[j]` = processor assigned to job `j`.
    pub job_to_proc: Vec<usize>,
    /// Total load per processor.
    pub loads: Vec<u64>,
}

impl Assignment {
    /// Largest processor load (the parallel makespan).
    pub fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Smallest processor load.
    pub fn min_load(&self) -> u64 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// Jobs assigned to processor `p`, in descending size order.
    pub fn jobs_of(&self, p: usize) -> Vec<usize> {
        self.job_to_proc
            .iter()
            .enumerate()
            .filter_map(|(j, &q)| (q == p).then_some(j))
            .collect()
    }
}

/// Assigns `jobs` (sizes, e.g. cluster record counts) to `procs` processors
/// by Graham's LPT rule: sort descending, give each job to the currently
/// least-loaded processor.
///
/// # Panics
///
/// Panics when `procs` is zero.
///
/// ```
/// use mp_paper::lpt_assign;
/// let a = lpt_assign(&[7, 5, 4, 3, 1], 2);
/// assert_eq!(a.makespan(), 10); // {7,3} vs {5,4,1}
/// ```
pub fn lpt_assign(jobs: &[u64], procs: usize) -> Assignment {
    assert!(procs >= 1, "need at least one processor");
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(jobs[j]));
    let mut loads = vec![0u64; procs];
    let mut job_to_proc = vec![0usize; jobs.len()];
    // A binary heap keyed on (load, proc) would be O(n log P); with the few
    // hundred clusters the paper uses (100 per processor), a linear scan of
    // the load vector is simpler and just as fast in practice.
    for j in order {
        let p = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("procs >= 1");
        loads[p] += jobs[j];
        job_to_proc[j] = p;
    }
    Assignment { job_to_proc, loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn textbook_example() {
        // Jobs 7,5,4,3,1 on 2 procs: LPT gives makespan 10 (optimal).
        let a = lpt_assign(&[7, 5, 4, 3, 1], 2);
        assert_eq!(a.makespan(), 10);
        assert_eq!(a.loads.iter().sum::<u64>(), 20);
    }

    #[test]
    fn empty_jobs_and_excess_processors() {
        let a = lpt_assign(&[], 4);
        assert_eq!(a.makespan(), 0);
        assert_eq!(a.loads, vec![0; 4]);
        let b = lpt_assign(&[5, 3], 8);
        assert_eq!(b.makespan(), 5);
        assert_eq!(b.min_load(), 0);
    }

    #[test]
    fn single_processor_gets_everything() {
        let a = lpt_assign(&[4, 4, 4], 1);
        assert_eq!(a.makespan(), 12);
        assert_eq!(a.job_to_proc, vec![0, 0, 0]);
        assert_eq!(a.jobs_of(0), vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let a = lpt_assign(&[2, 2, 2, 2], 2);
        let b = lpt_assign(&[2, 2, 2, 2], 2);
        assert_eq!(a, b);
        assert_eq!(a.loads, vec![4, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        lpt_assign(&[1], 0);
    }

    proptest! {
        #[test]
        fn loads_consistent_and_graham_bound(
            jobs in proptest::collection::vec(0u64..1_000, 0..60),
            procs in 1usize..8,
        ) {
            let a = lpt_assign(&jobs, procs);
            // Per-processor loads must equal sum of assigned jobs.
            let mut check = vec![0u64; procs];
            for (j, &p) in a.job_to_proc.iter().enumerate() {
                prop_assert!(p < procs);
                check[p] += jobs[j];
            }
            prop_assert_eq!(&check, &a.loads);
            // Greedy list-scheduling bound (valid without knowing OPT):
            // makespan <= total/P + (1 - 1/P) * max_job.
            let total: u64 = jobs.iter().sum();
            let max_job = jobs.iter().copied().max().unwrap_or(0);
            let p = procs as f64;
            let bound = total as f64 / p + (1.0 - 1.0 / p) * max_job as f64 + 1e-9;
            prop_assert!(
                a.makespan() as f64 <= bound,
                "makespan {} exceeds list-scheduling bound {bound}",
                a.makespan()
            );
        }
    }
}
