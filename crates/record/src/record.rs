//! The core [`Record`] type and its identifiers.

use crate::field::Field;
use crate::text::FieldStr;
use std::fmt;

/// Position of a record in the concatenated input list — the "tuple id" the
/// paper feeds to the transitive closure ("pairs of tuple id's, each at most
/// 30 bits", §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

impl RecordId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Hidden ground-truth identity of the real-world entity a record describes.
///
/// Assigned by the database generator; two records are *true* duplicates iff
/// their entity ids are equal. Production data has no such column — it exists
/// so accuracy can be measured exactly, as in the paper's controlled studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

/// One employee-style record.
///
/// All fields are free-text strings because that is precisely the problem:
/// "the data supplied by various sources typically include identifiers or
/// string data, that are either different among different datasets or simply
/// erroneous" (§1). Any field may be empty. Each is a [`FieldStr`], which
/// holds up to 22 bytes in place, so a record of short fields is one
/// 256-byte value with nothing on the heap.
///
/// ```
/// use mp_record::{Record, EntityId, RecordId};
/// let r = Record {
///     id: RecordId(0),
///     entity: Some(EntityId(7)),
///     ssn: "123456789".into(),
///     first_name: "MAURICIO".into(),
///     middle_initial: "A".into(),
///     last_name: "HERNANDEZ".into(),
///     street_number: "500".into(),
///     street_name: "WEST 120TH ST".into(),
///     apartment: "450".into(),
///     city: "NEW YORK".into(),
///     state: "NY".into(),
///     zip: "10027".into(),
/// };
/// assert_eq!(r.field(mp_record::Field::LastName), "HERNANDEZ");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Tuple id: position in the concatenated list.
    pub id: RecordId,
    /// Ground-truth entity, if known (generated data only).
    pub entity: Option<EntityId>,
    /// Social security number, nine digits when clean.
    pub ssn: FieldStr,
    /// First (given) name.
    pub first_name: FieldStr,
    /// Middle initial, usually a single letter or empty.
    pub middle_initial: FieldStr,
    /// Last (family) name.
    pub last_name: FieldStr,
    /// House/building number of the street address.
    pub street_number: FieldStr,
    /// Street name portion of the address.
    pub street_name: FieldStr,
    /// Apartment/unit, often empty.
    pub apartment: FieldStr,
    /// City name.
    pub city: FieldStr,
    /// Two-letter state code when clean.
    pub state: FieldStr,
    /// Zip code, five digits when clean.
    pub zip: FieldStr,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 256);

impl Record {
    /// A record with the given id and every field empty.
    pub fn empty(id: RecordId) -> Self {
        Record {
            id,
            entity: None,
            ssn: FieldStr::new(),
            first_name: FieldStr::new(),
            middle_initial: FieldStr::new(),
            last_name: FieldStr::new(),
            street_number: FieldStr::new(),
            street_name: FieldStr::new(),
            apartment: FieldStr::new(),
            city: FieldStr::new(),
            state: FieldStr::new(),
            zip: FieldStr::new(),
        }
    }

    /// Read-only access to a field by tag; the rule engine and key extractor
    /// address fields this way.
    #[inline]
    pub fn field(&self, f: Field) -> &str {
        let field = match f {
            Field::Ssn => &self.ssn,
            Field::FirstName => &self.first_name,
            Field::MiddleInitial => &self.middle_initial,
            Field::LastName => &self.last_name,
            Field::StreetNumber => &self.street_number,
            Field::StreetName => &self.street_name,
            Field::Apartment => &self.apartment,
            Field::City => &self.city,
            Field::State => &self.state,
            Field::Zip => &self.zip,
        };
        field.as_str()
    }

    /// Mutable access to a field by tag (used by the generator's corruptors
    /// and the conditioning passes).
    #[inline]
    pub fn field_mut(&mut self, f: Field) -> &mut FieldStr {
        match f {
            Field::Ssn => &mut self.ssn,
            Field::FirstName => &mut self.first_name,
            Field::MiddleInitial => &mut self.middle_initial,
            Field::LastName => &mut self.last_name,
            Field::StreetNumber => &mut self.street_number,
            Field::StreetName => &mut self.street_name,
            Field::Apartment => &mut self.apartment,
            Field::City => &mut self.city,
            Field::State => &mut self.state,
            Field::Zip => &mut self.zip,
        }
    }

    /// Full street address ("number name apt") for display and address keys.
    pub fn full_address(&self) -> String {
        let mut s = String::with_capacity(
            self.street_number.len() + self.street_name.len() + self.apartment.len() + 2,
        );
        s.push_str(&self.street_number);
        if !self.street_name.is_empty() {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&self.street_name);
        }
        if !self.apartment.is_empty() {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&self.apartment);
        }
        s
    }

    /// True when every data field is empty (the id does not count).
    pub fn is_blank(&self) -> bool {
        Field::ALL.iter().all(|&f| self.field(f).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut r = Record::empty(RecordId(3));
        r.first_name = "SAL".into();
        r.last_name = "STOLFO".into();
        r.street_number = "1214".into();
        r.street_name = "AMSTERDAM AVE".into();
        r.apartment = "MC 0401".into();
        r
    }

    #[test]
    fn field_roundtrip_for_all_fields() {
        let mut r = Record::empty(RecordId(0));
        for (i, &f) in Field::ALL.iter().enumerate() {
            *r.field_mut(f) = format!("V{i}").into();
        }
        for (i, &f) in Field::ALL.iter().enumerate() {
            assert_eq!(r.field(f), format!("V{i}"));
        }
    }

    #[test]
    fn full_address_joins_present_parts() {
        let r = sample();
        assert_eq!(r.full_address(), "1214 AMSTERDAM AVE MC 0401");
        let mut no_num = r.clone();
        no_num.street_number.set("");
        assert_eq!(no_num.full_address(), "AMSTERDAM AVE MC 0401");
        let empty = Record::empty(RecordId(1));
        assert_eq!(empty.full_address(), "");
    }

    #[test]
    fn blank_detection() {
        assert!(Record::empty(RecordId(9)).is_blank());
        assert!(!sample().is_blank());
    }

    #[test]
    fn record_id_display_and_index() {
        assert_eq!(RecordId(42).to_string(), "#42");
        assert_eq!(RecordId(42).index(), 42);
    }
}
