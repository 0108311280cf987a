//! The workloads: two shapes of one pipeline. Every run takes a
//! generated file through everything a user does with it — `dedupe` it,
//! `load` it into a durable store, `serve` the store under mixed
//! read/write traffic, checkpoint, crash, recover — so every end-to-end
//! metric exists on every workload, and the shapes decide which layers
//! dominate it. Sizes are fixed per workload; `--seed` only changes the
//! generated records.

/// Share of originals that get duplicates, as the paper's experiments use.
pub const DUPLICATES: &str = "0.4";

/// Gap between `ingest-batch` due times, also the latency limit of an ack
/// (a reply slower than that means the backlog is growing). Each batch pays
/// a cost proportional to the store size before its first comparison, so few
/// large batches are the realistic (monthly-cycle) arrival pattern.
pub const INGEST_INTERVAL_MS: u64 = 320;
/// `query-matches` requests start this long after the first ingest.
pub const QUERY_OFFSET_MS: u64 = 10;

/// One pipeline shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `generate --records`: originals before duplication (×≈1.78 records).
    pub originals: usize,
    /// `--window` for dedupe, load and serve.
    pub window: usize,
    /// `--theory`; `None` is the CLI default (the native theory).
    pub theory: Option<&'static str>,
    /// Times `dedupe` runs; `dedupe_s` is the median. Chosen so that about
    /// 5 s go into the leg on either workload: a single 1.9 s sample spread
    /// by 10-15 % between runs of the same code.
    pub dedupe_runs: usize,
    /// `load --memory-budget`, records resident in the external sort.
    pub memory_budget: usize,
    /// Records per `ingest-batch` request, sized so that one write occupies
    /// the engine worker for about a fifth of the ingest interval on either
    /// workload.
    pub batch_records: usize,
    /// Gap between `query-matches` due times, also their latency limit.
    /// Coprime with the ingest interval, so the reads' arrival phases sweep
    /// the whole ingest cycle: the share of reads that meet a write in
    /// service is the write's share of the cycle, whatever the host's speed.
    /// (With a divisor of the ingest interval the same reads always follow a
    /// write, and when that write plus its queued read outlast the query
    /// interval on a slow host the next read queues too: the queued share
    /// jumps from a third to two thirds and takes the median with it.)
    pub query_interval_ms: u64,
}

/// The committed workloads; `BENCHMARK.json` says why each exists.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wide-vm",
        originals: 70_000,
        window: 40,
        theory: Some("dsl-compiled"),
        dedupe_runs: 1,
        memory_budget: 50_000,
        batch_records: 125,
        query_interval_ms: 77,
    },
    Workload {
        name: "large-spill",
        originals: 160_000,
        window: 6,
        theory: None,
        dedupe_runs: 3,
        memory_budget: 44_000,
        batch_records: 500,
        query_interval_ms: 103,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The shape with every record count divided by `divisor` (`--smoke`).
    pub fn scaled(&self, divisor: usize) -> Workload {
        Workload {
            originals: (self.originals / divisor).max(200),
            memory_budget: (self.memory_budget / divisor).max(50),
            ..*self
        }
    }

    /// `--window W [--theory T]`, shared by dedupe, load and serve.
    pub fn engine_flags(&self) -> Vec<String> {
        let mut flags = vec!["--window".to_string(), self.window.to_string()];
        if let Some(t) = self.theory {
            flags.extend(["--theory".to_string(), t.to_string()]);
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_manifest_rules() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.name.len() <= 64);
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }

    #[test]
    fn smoke_scaling_shrinks_counts_only() {
        let s = WORKLOADS[1].scaled(20);
        assert_eq!(s.originals, 8_000);
        assert_eq!(s.memory_budget, 2_200);
        assert_eq!(s.window, 6);
    }
}
