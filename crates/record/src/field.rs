//! Field tags for addressing record attributes symbolically.

use std::fmt;
use std::str::FromStr;

/// Names one attribute of a [`crate::Record`].
///
/// Key specifications, rule programs, and the generator's corruption plans
/// all refer to fields through this enum, so a typo in a field name is a
/// compile error (or a parse error with a clear message in the rule DSL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Social security number.
    Ssn,
    /// First (given) name.
    FirstName,
    /// Middle initial.
    MiddleInitial,
    /// Last (family) name.
    LastName,
    /// Street number.
    StreetNumber,
    /// Street name.
    StreetName,
    /// Apartment / unit.
    Apartment,
    /// City.
    City,
    /// State code.
    State,
    /// Zip code.
    Zip,
}

impl Field {
    /// Every field, in schema order.
    pub const ALL: [Field; 10] = [
        Field::Ssn,
        Field::FirstName,
        Field::MiddleInitial,
        Field::LastName,
        Field::StreetNumber,
        Field::StreetName,
        Field::Apartment,
        Field::City,
        Field::State,
        Field::Zip,
    ];

    /// Canonical lower-snake name used by the rule DSL and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Field::Ssn => "ssn",
            Field::FirstName => "first_name",
            Field::MiddleInitial => "middle_initial",
            Field::LastName => "last_name",
            Field::StreetNumber => "street_number",
            Field::StreetName => "street_name",
            Field::Apartment => "apartment",
            Field::City => "city",
            Field::State => "state",
            Field::Zip => "zip",
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown field name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownField(pub String);

impl fmt::Display for UnknownField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown field name: {:?}", self.0)
    }
}

impl std::error::Error for UnknownField {}

impl FromStr for Field {
    type Err = UnknownField;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Field::ALL
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| UnknownField(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for f in Field::ALL {
            assert_eq!(f.name().parse::<Field>().unwrap(), f);
            assert_eq!(f.to_string(), f.name());
        }
    }

    #[test]
    fn unknown_name_errors() {
        let err = "salary".parse::<Field>().unwrap_err();
        assert!(err.to_string().contains("salary"));
    }

    #[test]
    fn all_covers_every_variant_exactly_once() {
        let mut names: Vec<&str> = Field::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Field::ALL.len());
    }
}
