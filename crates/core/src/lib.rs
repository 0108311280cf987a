#![warn(missing_docs)]

//! The merge/purge library: sorted-neighborhood and multi-pass duplicate
//! detection over large record lists.
//!
//! This is a reproduction of Hernández & Stolfo, *The Merge/Purge Problem
//! for Large Databases* (SIGMOD 1995). The product's method:
//!
//! * [`SortedNeighborhood`] (§2.2) — create a key per record, sort on the
//!   key, slide a `w`-record window applying an equational theory to every
//!   pair inside it;
//! * [`MultiPass`] (§2.4) — several independent passes with *different keys*
//!   and *small windows*, unioned by transitive closure. The paper's
//!   headline result: this dominates any single pass with a large window;
//! * [`IncrementalMergePurge`] — the same passes kept current as batches
//!   arrive.
//!
//! The paper's other engines — the clustering method (§2.2.1), the
//! merge-fused scan, the external variants (§3.5) and the parallel engines
//! (§4) — are comparisons the figures reproduce; they live in `mp-paper`
//! and run on the scan this crate exposes.
//!
//! [`Evaluation`] scores results against generated ground truth the way the
//! paper's figures do, and [`costmodel`] implements the §3.5 analytical
//! model including the single-pass/multi-pass crossover window.
//!
//! # Quick start
//!
//! ```
//! use merge_purge::{KeySpec, MergePurge};
//! use mp_datagen::{DatabaseGenerator, GeneratorConfig};
//! use mp_rules::NativeEmployeeTheory;
//!
//! let mut db = DatabaseGenerator::new(GeneratorConfig::new(500).seed(7)).generate();
//! let theory = NativeEmployeeTheory::new();
//! let result = MergePurge::new(&theory)
//!     .pass(KeySpec::last_name_key(), 10)
//!     .pass(KeySpec::first_name_key(), 10)
//!     .pass(KeySpec::address_key(), 10)
//!     .run(&mut db.records);
//! let eval = merge_purge::Evaluation::score(&result.closed_pairs, &db.truth);
//! assert!(eval.percent_detected > 50.0);
//! ```

mod banded;
pub mod costmodel;
pub mod eval;
pub mod fanout;
pub mod incremental;
pub mod key;
pub mod multipass;
pub mod pipeline;
pub mod purge;
pub mod radix;
pub mod snm;
pub mod window;

pub use banded::band_ranges;
// mp-paper's clustering pass scans its clusters on the same bands.
#[doc(hidden)]
pub use banded::{per_core, scan_in_bands};
pub use costmodel::CostModel;
pub use eval::Evaluation;
pub use fanout::fan_out;
pub use incremental::IncrementalMergePurge;
pub use key::{KeyArena, KeyPart, KeySpec};
pub use multipass::{MultiPass, MultiPassResult};
pub use pipeline::{MergePurge, MergePurgeResult};
pub use purge::Purger;
pub use radix::{chunked_str_cmp, radix_order_by, sorted_order_radix};
pub use snm::{PassResult, PassStats, SortedNeighborhood};
pub use window::window_scan;
