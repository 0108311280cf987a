//! Figure 6: parallel time vs number of processors (w = 10).
//!
//! Paper setup: the 1,000,000-record-class database of Fig. 2 on an 8-node
//! HP9000 cluster over FDDI; three independent runs per method and the
//! estimated concurrent multi-pass time (max of the runs + closure).
//!
//! * Fig. 6(a): parallel sorted-neighborhood method, 1–8 processors.
//! * Fig. 6(b): parallel clustering method (100 clusters/processor).
//!
//! Our "processors" are the bands of the product's window scan, each on a
//! thread of its own. On a multi-core host the measured wall-clock shows
//! the paper's sublinear speedup directly; on fewer cores than P the
//! threads time-share, so the binary additionally reports a *simulated
//! shared-nothing makespan* computed from measured serial phase times and
//! the per-band comparison split the scan actually produced — the
//! quantity the paper's cluster measured, minus network costs. See
//! DESIGN.md §5. Every timed quantity — the serial phases and closure
//! behind the simulation, and each measured wall — is the median of three
//! samples.
//!
//! Usage: `cargo run --release -p mp-bench --bin fig6 [--records N] [--max-procs P]`

use merge_purge::{KeySpec, MultiPass, PassResult};
use mp_bench::{fig2_database, header, row, sec_cell, secs, Args};
use mp_paper::{ClusteringConfig, ParallelClustering, ParallelSnm};
use mp_rules::NativeEmployeeTheory;
use std::time::Instant;

/// Timing samples per cell. Each cell reports their median: one sample
/// lets two close cells (SNM and clustering at the same P) trade places
/// between runs.
const SAMPLES: usize = 3;

/// Serial phase times of one pass, in seconds.
#[derive(Clone, Copy)]
struct SerialPhases {
    keys: f64,
    sort: f64,
    scan: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Each phase's median over `runs` of one pass.
fn median_phases(runs: &[PassResult]) -> SerialPhases {
    let phase = |d: fn(&PassResult) -> std::time::Duration| {
        median(runs.iter().map(|r| secs(d(r))).collect())
    };
    SerialPhases {
        keys: phase(|r| r.stats.create_keys),
        sort: phase(|r| r.stats.sort),
        scan: phase(|r| r.stats.window_scan),
    }
}

/// Worst band's share of the window-scan comparisons.
fn scan_skew(r: &PassResult) -> f64 {
    let total: u64 = r.worker_comparisons.iter().sum();
    let max = r.worker_comparisons.iter().copied().max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        max as f64 / total as f64
    }
}

/// Simulated SNM makespan (§4.1): parallel key extraction, parallel local
/// sorts plus the coordinator's serial P-way merge, a serial coordinator
/// pass to read and broadcast the merged blocks to the scan sites (the
/// paper's explanation for sublinear speedup: "The obvious overhead is paid
/// in the process of reading and broadcasting of data to all processors"),
/// then the band-parallel scan at the observed worker skew.
fn snm_sim(serial: SerialPhases, n: usize, p: usize, skew: f64) -> f64 {
    if p == 1 {
        return serial.keys + serial.sort + serial.scan;
    }
    let nf = n as f64;
    let pf = p as f64;
    let log_n = nf.log2().max(1.0);
    let local_sort = serial.sort * (1.0 / pf) * ((nf / pf).log2().max(1.0) / log_n);
    let merge = serial.sort * (pf.log2() / log_n);
    let distribute = serial.keys; // one serial O(N) coordinator pass
    serial.keys / pf + local_sort + merge + distribute + serial.scan * skew
}

/// Simulated clustering makespan (§4.2): parallel key extraction, a serial
/// coordinator pass distributing records to cluster sites, then fully
/// parallel per-cluster sorts and scans at the observed band skew.
fn cluster_sim(serial: SerialPhases, p: usize, skew: f64) -> f64 {
    if p == 1 {
        return serial.keys + serial.sort + serial.scan;
    }
    let distribute = serial.keys; // coordinator reads and routes every record
    serial.keys / p as f64 + distribute + (serial.sort + serial.scan) * skew
}

fn main() {
    let args = Args::from_env();
    let originals: usize = args.get("records", 50_000);
    let seed: u64 = args.get("seed", 6);
    let w: usize = args.get("window", 10);
    let hw = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let max_procs: usize = args.get("max-procs", 8);

    let mut db = fig2_database(originals, seed);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let n = db.records.len();
    println!("# Figure 6 — {n} records, w = {w}, processors 1..{max_procs} (host cores: {hw})");

    let theory = NativeEmployeeTheory::new();
    let keys = KeySpec::standard_three();

    let run = |clustered: bool, key: &KeySpec, p: usize| {
        if clustered {
            ParallelClustering::new(
                key.clone(),
                ClusteringConfig {
                    clusters: 100,
                    histogram_prefix: 3,
                    cluster_key_len: 6,
                    window: w,
                },
                p,
            )
            .run(&db.records, &theory)
        } else {
            ParallelSnm::new(key.clone(), w, p).run(&db.records, &theory)
        }
    };
    let methods = [
        ("(a) sorted-neighborhood", false),
        ("(b) clustering, 100 clusters/proc", true),
    ];
    // Serial reference runs (P = 1) for phase times, per method and key.
    // The two methods' samples alternate, so host drift over the run
    // weighs on both alike.
    let mut serial_samples: Vec<Vec<Vec<PassResult>>> = vec![vec![Vec::new(); keys.len()]; 2];
    for _ in 0..SAMPLES {
        for (samples, &(_, clustered)) in serial_samples.iter_mut().zip(&methods) {
            for (key_samples, key) in samples.iter_mut().zip(&keys) {
                key_samples.push(run(clustered, key, 1));
            }
        }
    }

    for ((label, clustered), samples) in methods.into_iter().zip(serial_samples) {
        println!("\n## {label}: simulated shared-nothing makespan (seconds)");
        let serial: Vec<SerialPhases> = samples.iter().map(|s| median_phases(s)).collect();
        let serial_runs: Vec<PassResult> = samples.iter().map(|s| s[0].clone()).collect();
        let t_closure = median(
            (0..SAMPLES)
                .map(|_| secs(MultiPass::close(n, serial_runs.clone()).closure_time))
                .collect(),
        );

        header(&[
            "processors",
            "last-name run",
            "first-name run",
            "address run",
            "multi-pass (max run + closure)",
            "measured wall (this host)",
        ]);
        for p in 1..=max_procs {
            let mut cells = vec![p.to_string()];
            let mut sims = Vec::new();
            let mut wall = 0.0f64;
            for (key, &serial) in keys.iter().zip(&serial) {
                let (walls, runs): (Vec<f64>, Vec<PassResult>) = (0..SAMPLES)
                    .map(|_| {
                        let t0 = Instant::now();
                        let r = run(clustered, key, p);
                        (secs(t0.elapsed()), r)
                    })
                    .unzip();
                wall += median(walls);
                // The band split is deterministic: every sample's skew is
                // the same.
                let skew = scan_skew(&runs[0]);
                let sim = if clustered {
                    cluster_sim(serial, p, skew)
                } else {
                    snm_sim(serial, n, p, skew)
                };
                sims.push(sim);
                cells.push(sec_cell(sim));
            }
            let multi_sim = sims.iter().cloned().fold(0.0f64, f64::max) + t_closure;
            cells.push(sec_cell(multi_sim));
            cells.push(sec_cell(wall / 3.0));
            row(&cells);
        }
    }

    println!(
        "\nPaper shape check: simulated times fall with sublinear speedup as \
         processors increase (the coordinator's merge/distribution phases do \
         not parallelize); the clustering method stays faster than the \
         sorted-neighborhood method; multi-pass ≈ slowest single run + closure. \
         The measured-wall column only shows speedup when the host has ≥ P cores."
    );
}
