//! Sort-key specification and extraction.
//!
//! The key types live in [`mp_record::key`], beside the record they read,
//! so the store can hold a pass's keys as a [`KeyArena`] without depending
//! on the engine; every item is re-exported here under its old path.

pub use mp_record::key::*;
