#![warn(missing_docs)]

//! Umbrella crate for the merge/purge reproduction: re-exports every
//! subsystem crate so examples and integration tests have a single import
//! root.

pub mod bulk;
pub mod serve;

pub use merge_purge as core;
pub use mp_closure as closure;
pub use mp_datagen as datagen;
pub use mp_extsort as extsort;
pub use mp_metrics as metrics;
pub use mp_record as record;
pub use mp_rules as rules;
pub use mp_store as store;
pub use mp_strsim as strsim;
