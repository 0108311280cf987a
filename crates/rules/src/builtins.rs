//! The builtin predicate/function library available to rule programs.
//!
//! Every distance function the paper evaluated for its equational theory is
//! exposed — edit distance, phonetic distance (Soundex/NYSIIS), and
//! "typewriter" (QWERTY) distance — plus the string utilities the 26-rule
//! employee theory needs.

use crate::value::{Type, Value};
use mp_record::NicknameTable;
use mp_strsim as ss;

/// Evaluation context shared by all builtin calls for one program.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Nickname equivalence used by `nickname_eq`.
    pub nicknames: NicknameTable,
}

/// Relative evaluation cost of a builtin — the static input to the rule
/// planner's cost model (see `crate::plan`) and the "cost" column of
/// `docs/RULE_LANGUAGE.md`. Ordered cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostClass {
    /// O(1)-ish: emptiness/length checks, prefix/suffix slicing.
    Trivial,
    /// One linear scan over the inputs: `initials_match`, `contains`, …
    Cheap,
    /// Phonetic codes and table lookups that hash or encode the inputs:
    /// `soundex_eq`, `nysiis_eq`, `nickname_eq`.
    Moderate,
    /// Quadratic dynamic programs and q-gram multiset kernels: the edit/
    /// Jaro/keyboard/n-gram distance family.
    Expensive,
}

impl CostClass {
    /// Stable lowercase name used in docs and disassembly.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Trivial => "trivial",
            CostClass::Cheap => "cheap",
            CostClass::Moderate => "moderate",
            CostClass::Expensive => "expensive",
        }
    }

    /// Abstract cost units the planner assigns to one evaluation. The exact
    /// numbers only matter relative to each other.
    pub fn weight(self) -> f64 {
        match self {
            CostClass::Trivial => 1.0,
            CostClass::Cheap => 4.0,
            CostClass::Moderate => 16.0,
            CostClass::Expensive => 64.0,
        }
    }
}

/// Signature and implementation of one builtin.
pub struct Builtin {
    /// Function name as written in rule source.
    pub name: &'static str,
    /// Parameter types (fixed arity).
    pub params: &'static [Type],
    /// Return type.
    pub ret: Type,
    /// Cost class for the planner and documentation.
    pub cost: CostClass,
    /// Implementation. Arguments are guaranteed (by the type checker) to
    /// match `params`.
    pub eval: for<'a> fn(&[Value<'a>], &Ctx) -> Value<'a>,
}

/// Returns `true` when both strings are non-empty and either is the
/// single-character initial of the other, or they are equal.
fn initials_match(a: &str, b: &str) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    if a == b {
        return true;
    }
    let a_first = a.chars().next().expect("non-empty");
    let b_first = b.chars().next().expect("non-empty");
    (a.chars().count() == 1 || b.chars().count() == 1) && a_first == b_first
}

/// Returns `true` when the two strings are permutations of each other at
/// Damerau distance exactly 1 — i.e. a single adjacent transposition, the
/// §2.4 SSN error.
///
/// Equivalently: the strings differ in exactly one pair of adjacent
/// positions, and that pair is swapped. It is a guard atom of the
/// SSN-transposition rule, so the cascade may run it on any pair the
/// cheaper atoms leave live (a window scan on projection rows first
/// rejects pairs whose byte multisets differ); it is written as a single
/// allocation-free scan rather than the sort-and-damerau definition.
fn digits_transposed(a: &str, b: &str) -> bool {
    if a == b || a.len() != b.len() {
        return false;
    }
    let mut pairs = a.chars().zip(b.chars());
    while let Some((x, y)) = pairs.next() {
        if x != y {
            return match pairs.next() {
                Some((x2, y2)) => x2 == y && y2 == x && pairs.all(|(p, q)| p == q),
                None => false,
            };
        }
    }
    false
}

fn char_prefix(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

fn char_suffix(s: &str, n: usize) -> &str {
    let len = s.chars().count();
    if n >= len {
        return s;
    }
    match s.char_indices().nth(len - n) {
        Some((i, _)) => &s[i..],
        None => s,
    }
}

/// The builtin table. Order is insignificant; lookup is by name.
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "edit_distance",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::levenshtein(a[0].as_str(), a[1].as_str()) as f64),
    },
    Builtin {
        name: "edit_sim",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::normalized_levenshtein(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "damerau",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::damerau_levenshtein(a[0].as_str(), a[1].as_str()) as f64),
    },
    Builtin {
        name: "jaro",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::jaro(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "jaro_winkler",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::jaro_winkler(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "keyboard_dist",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::keyboard_distance(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "ngram_sim",
        params: &[Type::Str, Type::Str, Type::Num],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| {
            let n = (a[2].as_num().max(1.0)) as usize;
            Value::Num(ss::ngram_similarity(a[0].as_str(), a[1].as_str(), n))
        },
    },
    Builtin {
        name: "trigram_sim",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::trigram_similarity(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "lcs_sim",
        params: &[Type::Str, Type::Str],
        ret: Type::Num,
        cost: CostClass::Expensive,
        eval: |a, _| Value::Num(ss::lcs_similarity(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "soundex_eq",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Moderate,
        eval: |a, _| Value::Bool(ss::soundex_eq(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "nysiis_eq",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Moderate,
        eval: |a, _| {
            let (x, y) = (a[0].as_str(), a[1].as_str());
            let cx = ss::nysiis(x);
            Value::Bool(!cx.is_empty() && cx == ss::nysiis(y))
        },
    },
    Builtin {
        name: "differ_slightly",
        params: &[Type::Str, Type::Str, Type::Num],
        ret: Type::Bool,
        cost: CostClass::Expensive,
        eval: |a, _| {
            Value::Bool(ss::differ_slightly(
                a[0].as_str(),
                a[1].as_str(),
                a[2].as_num(),
            ))
        },
    },
    Builtin {
        name: "nickname_eq",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Moderate,
        eval: |a, ctx| Value::Bool(ctx.nicknames.equivalent(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "initials_match",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Cheap,
        eval: |a, _| Value::Bool(initials_match(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "digits_transposed",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Cheap,
        eval: |a, _| Value::Bool(digits_transposed(a[0].as_str(), a[1].as_str())),
    },
    Builtin {
        name: "prefix",
        params: &[Type::Str, Type::Num],
        ret: Type::Str,
        cost: CostClass::Trivial,
        eval: |a, _| {
            let n = a[1].as_num().max(0.0) as usize;
            Value::owned_str(char_prefix(a[0].as_str(), n).to_string())
        },
    },
    Builtin {
        name: "suffix",
        params: &[Type::Str, Type::Num],
        ret: Type::Str,
        cost: CostClass::Trivial,
        eval: |a, _| {
            let n = a[1].as_num().max(0.0) as usize;
            Value::owned_str(char_suffix(a[0].as_str(), n).to_string())
        },
    },
    Builtin {
        name: "len",
        params: &[Type::Str],
        ret: Type::Num,
        cost: CostClass::Trivial,
        eval: |a, _| Value::Num(a[0].as_str().chars().count() as f64),
    },
    Builtin {
        name: "is_empty",
        params: &[Type::Str],
        ret: Type::Bool,
        cost: CostClass::Trivial,
        eval: |a, _| Value::Bool(a[0].as_str().is_empty()),
    },
    Builtin {
        name: "contains",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Cheap,
        eval: |a, _| Value::Bool(a[0].as_str().contains(a[1].as_str())),
    },
    Builtin {
        name: "starts_with",
        params: &[Type::Str, Type::Str],
        ret: Type::Bool,
        cost: CostClass::Cheap,
        eval: |a, _| Value::Bool(a[0].as_str().starts_with(a[1].as_str())),
    },
];

/// Looks up a builtin by name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// Shared predicate implementations reused verbatim by the bytecode VM and
/// the projection so interpreted and compiled semantics cannot drift.
pub mod shared {
    /// Mirrors the `initials_match` builtin.
    pub fn initials_match(a: &str, b: &str) -> bool {
        super::initials_match(a, b)
    }

    /// Mirrors the `digits_transposed` builtin.
    pub fn digits_transposed(a: &str, b: &str) -> bool {
        super::digits_transposed(a, b)
    }

    /// Character-count prefix, mirroring the `prefix` builtin.
    pub fn char_prefix(s: &str, n: usize) -> &str {
        super::char_prefix(s, n)
    }

    /// Character-count suffix, mirroring the `suffix` builtin.
    pub fn char_suffix(s: &str, n: usize) -> &str {
        super::char_suffix(s, n)
    }

    /// NYSIIS equality mirroring the `nysiis_eq` builtin (empty codes never
    /// match).
    pub fn nysiis_eq(a: &str, b: &str) -> bool {
        let ca = mp_strsim::nysiis(a);
        !ca.is_empty() && ca == mp_strsim::nysiis(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call<'a>(name: &str, args: &[Value<'a>]) -> Value<'a> {
        let ctx = Ctx {
            nicknames: NicknameTable::standard(),
        };
        (lookup(name).unwrap().eval)(args, &ctx)
    }

    #[test]
    fn all_builtins_named_uniquely() {
        let mut names: Vec<_> = BUILTINS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn distance_builtins() {
        assert_eq!(
            call("edit_distance", &[Value::str("AB"), Value::str("AC")]).as_num(),
            1.0
        );
        assert_eq!(
            call("damerau", &[Value::str("AB"), Value::str("BA")]).as_num(),
            1.0
        );
        assert!(call("edit_sim", &[Value::str("AAAA"), Value::str("AAAB")]).as_num() > 0.7);
        assert!(call("jaro", &[Value::str("MARTHA"), Value::str("MARHTA")]).as_num() > 0.9);
        assert!(
            call(
                "jaro_winkler",
                &[Value::str("MARTHA"), Value::str("MARHTA")]
            )
            .as_num()
                > 0.95
        );
        assert_eq!(
            call("keyboard_dist", &[Value::str("A"), Value::str("S")]).as_num(),
            0.5
        );
        assert_eq!(
            call("lcs_sim", &[Value::str("ABC"), Value::str("ABC")]).as_num(),
            1.0
        );
        assert_eq!(
            call("trigram_sim", &[Value::str("X"), Value::str("X")]).as_num(),
            1.0
        );
        assert_eq!(
            call(
                "ngram_sim",
                &[Value::str("X"), Value::str("X"), Value::Num(2.0)]
            )
            .as_num(),
            1.0
        );
    }

    #[test]
    fn phonetic_builtins() {
        assert!(call("soundex_eq", &[Value::str("SMITH"), Value::str("SMYTH")]).as_bool());
        assert!(call("nysiis_eq", &[Value::str("JOHNSON"), Value::str("JOHNSEN")]).as_bool());
        assert!(!call("nysiis_eq", &[Value::str(""), Value::str("")]).as_bool());
    }

    #[test]
    fn nickname_builtin_uses_table() {
        assert!(call("nickname_eq", &[Value::str("BOB"), Value::str("ROBERT")]).as_bool());
        assert!(!call("nickname_eq", &[Value::str("BOB"), Value::str("WILLIAM")]).as_bool());
    }

    #[test]
    fn initials_match_semantics() {
        assert!(initials_match("J", "JOSEPH"));
        assert!(initials_match("JOSEPH", "J"));
        assert!(initials_match("SAME", "SAME"));
        assert!(!initials_match("JO", "JOSEPH")); // neither is an initial
        assert!(!initials_match("", "J"));
        assert!(!initials_match("K", "JOSEPH"));
    }

    #[test]
    fn digits_transposed_semantics() {
        assert!(digits_transposed("193456782", "913456782"));
        assert!(!digits_transposed("123", "123"));
        assert!(!digits_transposed("123", "321")); // two transpositions
        assert!(!digits_transposed("12", "13")); // substitution, not permutation
        assert!(!digits_transposed("12", "123"));
    }

    #[test]
    fn string_utilities() {
        assert_eq!(
            call("prefix", &[Value::str("HERNANDEZ"), Value::Num(3.0)]).as_str(),
            "HER"
        );
        assert_eq!(
            call("prefix", &[Value::str("AB"), Value::Num(9.0)]).as_str(),
            "AB"
        );
        assert_eq!(
            call("suffix", &[Value::str("HERNANDEZ"), Value::Num(3.0)]).as_str(),
            "DEZ"
        );
        assert_eq!(call("len", &[Value::str("ABCD")]).as_num(), 4.0);
        assert!(call("is_empty", &[Value::str("")]).as_bool());
        assert!(call("contains", &[Value::str("MAIN STREET"), Value::str("MAIN")]).as_bool());
        assert!(call("starts_with", &[Value::str("MAIN"), Value::str("MA")]).as_bool());
    }

    #[test]
    fn lookup_unknown_is_none() {
        assert!(lookup("no_such_fn").is_none());
    }
}
