//! The ledger benchmark's harness library: everything the end-to-end legs
//! need (process and wire measurement, the open-loop generator, span
//! recording, order statistics, output checks) with no dependency on the
//! program's crates. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod check;
pub mod json;
pub mod loadgen;
pub mod pipeline;
pub mod proc;
pub mod report;
pub mod span;
pub mod stats;
pub mod wire;
pub mod workload;
