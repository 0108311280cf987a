//! The parallel engines (§4) under their old crate path: a re-export of
//! [`mp_paper`]'s names, with no logic of its own.
//!
//! It stays only because the ledger's layers program imports
//! `mp_parallel::{parallel_multipass, ParallelPass, ParallelSnm}` by path.
//! It goes with ROADMAP direction 1's second slice, which prices the layers
//! from spans instead of crate paths.

pub use mp_paper::{
    parallel_multipass, parallel_multipass_observed, ParallelClustering, ParallelPass, ParallelSnm,
};
