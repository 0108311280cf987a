#![warn(missing_docs)]

//! The paper's comparison engines: the methods its figures set against the
//! sorted-neighborhood pipeline, reproduced here and not served.
//!
//! The product — the `mergepurge` CLI, the daemon and the bulk load — runs
//! sorted-neighborhood passes only (`merge_purge::SortedNeighborhood`,
//! `MultiPass`, the incremental engine and `mp_extsort::BulkLoader`). It
//! does not link this crate: the figure binaries, the examples and the
//! tests do. What lives here:
//!
//! * [`ClusteringMethod`] (§2.2.1) — histogram-partition the key space
//!   into `C` balanced clusters, then run the sorted-neighborhood method
//!   inside each cluster on a fixed-size cluster key;
//! * [`MergeScanSnm`] (§2.2) — a bottom-up merge sort whose every level is
//!   window-scanned, after Bitton & DeWitt's duplicate elimination;
//! * [`ExternalSnm`] and [`ExternalClustering`] (§3.5) — the two
//!   disk-resident methods whose data passes the I/O analysis counts:
//!   `2 + ceil(log_F(N/M))` against "approximately only 2";
//! * [`ParallelSnm`], [`ParallelClustering`] and [`parallel_multipass`]
//!   (§4) — the shared-nothing engines, as the in-memory passes scanned in
//!   exactly `P` bands;
//! * the clustering substrate — [`KeyHistogram`], a B-bin histogram over
//!   fixed-length key prefixes (the paper's 27×27×27 space for three
//!   letters); [`RangePartition`], a balanced division of the bins into
//!   `C` contiguous subranges ("the sum of the frequencies over the
//!   subrange ... close to 1/C") with `log B` lookup; and [`lpt_assign`],
//!   Graham's longest-processing-time-first rule for re-balancing clusters
//!   across processors (§4.2).
//!
//! Every engine returns the product's `PassResult` (or, on disk,
//! [`ExternalOutcome`]), and `tests/scan_equivalence.rs` judges each one
//! against the same naive oracle as the product's passes.

pub mod balance;
pub mod clustering;
pub mod external;
pub mod histogram;
pub mod mergescan;
pub mod parallel;
pub mod partition;

pub use balance::{lpt_assign, Assignment};
pub use clustering::{ClusteringConfig, ClusteringMethod};
pub use external::{ExternalClustering, ExternalOutcome, ExternalSnm};
pub use histogram::KeyHistogram;
pub use mergescan::MergeScanSnm;
pub use parallel::{
    parallel_multipass, parallel_multipass_observed, ParallelClustering, ParallelPass, ParallelSnm,
};
pub use partition::RangePartition;
