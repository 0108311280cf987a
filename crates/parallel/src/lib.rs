#![warn(missing_docs)]

//! Parallel merge/purge engines (§4), on the product's banded scan.
//!
//! The paper's shared-nothing multiprocessor is simulated with OS threads.
//! §4.1 cuts the sorted list into `P` fragments, each replicating the last
//! `w − 1` records of the one before it; §4.2 hands clusters to
//! processors. Every in-memory pass of `merge_purge` already scans in such
//! bands: a pass here is that crate's pass scanned unpruned in exactly `P`
//! bands — band 0 on the pass's thread, band `K` on a `scan-K` lane — and
//! only match pairs flow back, folded in band order.
//!
//! [`ParallelSnm`] is a sorted-neighborhood pass, [`ParallelClustering`]
//! a clustering pass over `C·P` clusters, and [`parallel_multipass`] runs
//! passes side by side, then the closure (Fig. 6's multi-pass series).

pub mod clustering;
pub mod multipass;
pub mod snm;

pub use clustering::ParallelClustering;
pub use multipass::{parallel_multipass, parallel_multipass_observed, ParallelPass};
pub use snm::ParallelSnm;
