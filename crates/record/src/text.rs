//! [`FieldStr`], the string type of a [`Record`](crate::Record)'s fields.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest string a [`FieldStr`] holds in place, without a heap block.
const INLINE: usize = 22;

/// A field value: up to 22 bytes of UTF-8 held in the value itself,
/// longer strings in one heap block.
///
/// A string of at most 22 bytes is always inline, so every string has one
/// representation. Every generated field fits, so a record parsed, decoded
/// or conditioned into costs no allocation per field. Equality, ordering,
/// hashing and formatting are those of the `str` it holds.
///
/// ```
/// use mp_record::FieldStr;
/// let mut f = FieldStr::from("HERNANDEZ");
/// assert_eq!(f, "HERNANDEZ");
/// f.set("A STREET NAME LONGER THAN TWENTY-TWO BYTES");
/// assert_eq!(f.len(), 42);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FieldStr(Repr);

/// The two representations. `Inline`'s first `len` bytes of `buf` are
/// always UTF-8, the rest are zero, and `len <= INLINE`: only
/// [`FieldStr::set`] and [`FieldStr::new`] build one, from a `str`. So a
/// string has one `Repr`, and two are equal exactly when their strings
/// are — an inline pair compares as 23 bytes, with no length-dependent
/// `memcmp`.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE] },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<FieldStr>() == 24);

impl FieldStr {
    /// The empty string.
    pub const fn new() -> Self {
        FieldStr(Repr::Inline {
            len: 0,
            buf: [0; INLINE],
        })
    }

    /// The string held.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // `min` is a no-op (`len <= INLINE`) that spares the
                // bounds check.
                let bytes = &buf[..usize::from(*len).min(INLINE)];
                // SAFETY: `Repr::Inline` is built only by `new` (no bytes)
                // and `set`, which copies exactly `len` bytes of a `&str`
                // into `buf`; nothing else writes `len` or `buf`, so the
                // first `len` bytes are valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }

    /// Replaces the string with `s`: in the value itself when `s` fits
    /// inline, else in a new heap block.
    #[inline]
    pub fn set(&mut self, s: &str) {
        self.0 = if s.len() > INLINE {
            Repr::Heap(s.into())
        } else {
            let mut buf = [0; INLINE];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Repr::Inline {
                len: s.len() as u8,
                buf,
            }
        };
    }
}

impl Default for FieldStr {
    fn default() -> Self {
        FieldStr::new()
    }
}

impl Deref for FieldStr {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for FieldStr {
    fn from(s: &str) -> Self {
        let mut f = FieldStr::new();
        f.set(s);
        f
    }
}

impl From<String> for FieldStr {
    fn from(s: String) -> Self {
        if s.len() > INLINE {
            FieldStr(Repr::Heap(s.into_boxed_str()))
        } else {
            FieldStr::from(s.as_str())
        }
    }
}

impl PartialOrd for FieldStr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FieldStr {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for FieldStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for FieldStr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for FieldStr {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for FieldStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for FieldStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn is_inline(f: &FieldStr) -> bool {
        matches!(f.0, Repr::Inline { .. })
    }

    /// Holds `f` to the `str` it should equal: contents, representation,
    /// hashing and formatting.
    fn assert_holds(f: &FieldStr, s: &str) {
        assert_eq!(f.as_str(), s);
        assert_eq!(&**f, s);
        assert_eq!(is_inline(f), s.len() <= INLINE, "{s:?}");
        assert_eq!(hash_of(f), hash_of(s), "{s:?}");
        assert_eq!(format!("{f:?}"), format!("{s:?}"));
        assert_eq!(format!("{f}|{f:>30}|{f:.3}"), format!("{s}|{s:>30}|{s:.3}"));
    }

    /// Holds every pair of `strings`, as `FieldStr`s, to `str`: equality,
    /// ordering, hashing, and `set` from one value to the other, across
    /// the inline/heap boundary both ways.
    fn check_pairs(strings: &[String]) {
        for a in strings {
            let fa = FieldStr::from(a.as_str());
            assert_holds(&fa, a);
            assert_holds(&FieldStr::from(a.clone()), a);
            for b in strings {
                let fb = FieldStr::from(b.as_str());
                assert_eq!(fa == fb, a == b, "{a:?} == {b:?}");
                assert_eq!(fa.cmp(&fb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(fa.partial_cmp(&fb), a.partial_cmp(b));
                let mut f = fa.clone();
                f.set(b);
                assert_holds(&f, b);
                assert_eq!(f, fb);
                f.set(a);
                assert_holds(&f, a);
            }
        }
    }

    /// Lengths 0, 21, 22 and 23, and multi-byte characters that end at
    /// byte 22 or straddle it.
    #[test]
    fn behaves_as_str_at_the_inline_boundary() {
        let a = |n: usize| "A".repeat(n);
        let strings = vec![
            String::new(),
            a(21),
            a(22),
            a(23),
            format!("{}B", a(21)),
            format!("{}é", a(20)),
            format!("{}é", a(21)),
            format!("{}中", a(19)),
            format!("{}中", a(20)),
            format!("{}中", a(21)),
            format!("{}😀", a(18)),
            format!("{}😀", a(19)),
            format!("{}😀", a(21)),
            "é".repeat(11),
            "中".repeat(8),
            "HERNANDEZ".to_string(),
            "\"quoted\"\n\\".to_string(),
        ];
        assert!(strings.iter().any(|s| !s.is_char_boundary(INLINE)));
        check_pairs(&strings);
    }

    #[test]
    fn the_empty_string_and_its_constructors_agree() {
        assert_holds(&FieldStr::new(), "");
        assert_eq!(FieldStr::default(), FieldStr::new());
        assert_eq!(FieldStr::from(String::new()), FieldStr::new());
    }

    proptest! {
        #[test]
        fn arbitrary_strings_behave_as_str(strings in vec("\\PC{0,30}", 2..6)) {
            check_pairs(&strings);
        }
    }
}
