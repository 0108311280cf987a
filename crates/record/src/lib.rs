#![warn(missing_docs)]

//! Record model and data conditioning for the merge/purge pipeline.
//!
//! The paper's idealized "employee" database (§2.1): each record carries a
//! social security number, a name (first, middle initial, last), and an
//! address (street, apartment, city, state, zip). Records arrive from many
//! sources, typically inconsistent and often incorrect, so before any
//! matching runs the pipeline *conditions* the data (§3.2):
//!
//! * [`normalize`] — canonical upper-case form, collapsed whitespace,
//!   stripped salutations/suffixes, expanded street abbreviations, done
//!   in place: each field is rewritten through one reused scratch buffer
//!   back into the record;
//! * [`nickname`] — a name-equivalence table assigning a common form to
//!   known nicknames (Joseph/Giuseppe, Bob/Robert, ...);
//! * [`spell`] — a corpus-based spelling corrector in the style of
//!   Bickel (CACM 1987) applied to the city field;
//! * [`io`] — a simple pipe-separated flat-file format for persisting
//!   generated databases, read by one line reader ([`RecordStream`], one
//!   reused line buffer) and written through a buffer;
//! * [`text`] — [`FieldStr`], the field type, which holds up to 22 bytes
//!   inline;
//! * [`key`] — the §2.4 sort keys a pass builds from a record's fields,
//!   and the [`KeyArena`] a pass keeps them in;
//! * [`prefetch`] — the software prefetch hint the engine's pointer
//!   chases use.
//!
//! [`Record`] is deliberately a plain owned struct: the sorted-neighborhood
//! method sorts multi-hundred-megabyte lists of them, and flat ownership
//! keeps sort keys and comparisons cache-friendly.

pub mod field;
pub mod io;
pub mod key;
pub mod nickname;
pub mod normalize;
pub mod prefetch;
pub mod record;
pub mod spell;
pub mod text;

pub use field::Field;
pub use io::RecordStream;
pub use key::{KeyArena, KeyPart, KeySpec};
pub use nickname::NicknameTable;
pub use record::{EntityId, Record, RecordId};
pub use spell::SpellCorrector;
pub use text::FieldStr;
