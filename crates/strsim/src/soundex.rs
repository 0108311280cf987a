//! American Soundex phonetic coding.

/// Encodes a name as its 4-character American Soundex code
/// (letter + three digits, zero-padded).
///
/// Non-alphabetic characters are ignored; an input with no letters encodes
/// as `"0000"` so that two garbage fields never spuriously "sound alike"
/// with a real name.
///
/// ```
/// use mp_strsim::soundex;
/// assert_eq!(soundex("Robert"), "R163");
/// assert_eq!(soundex("Rupert"), "R163");
/// assert_eq!(soundex("Tymczak"), "T522");
/// ```
pub fn soundex(name: &str) -> String {
    code(name).iter().map(|&b| char::from(b)).collect()
}

/// `true` when both names have identical Soundex codes and at least one
/// letter each. Codes on the stack: no allocation.
pub fn soundex_eq(a: &str, b: &str) -> bool {
    let ca = code(a);
    ca != NO_LETTERS && ca == code(b)
}

/// The code of a name with no letters.
const NO_LETTERS: [u8; 4] = *b"0000";

/// The Soundex code of `name` as four ASCII bytes.
fn code(name: &str) -> [u8; 4] {
    let mut letters = name
        .bytes()
        .filter(u8::is_ascii_alphabetic)
        .map(|b| b.to_ascii_uppercase());
    let Some(first) = letters.next() else {
        return NO_LETTERS;
    };
    let mut code = NO_LETTERS;
    code[0] = first;
    let mut len = 1;
    let mut last_digit = digit(first);
    for c in letters {
        let d = digit(c);
        if d == 0 {
            // H and W are transparent: they do not reset the run; vowels
            // (and Y) do.
            if c != b'H' && c != b'W' {
                last_digit = 0;
            }
        } else if d != last_digit {
            code[len] = b'0' + d;
            len += 1;
            if len == code.len() {
                break;
            }
            last_digit = d;
        }
    }
    code
}

fn digit(c: u8) -> u8 {
    match c {
        b'B' | b'F' | b'P' | b'V' => 1,
        b'C' | b'G' | b'J' | b'K' | b'Q' | b'S' | b'X' | b'Z' => 2,
        b'D' | b'T' => 3,
        b'L' => 4,
        b'M' | b'N' => 5,
        b'R' => 6,
        _ => 0, // vowels, H, W, Y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nara_reference_codes() {
        // Examples from the U.S. National Archives Soundex specification.
        assert_eq!(soundex("Washington"), "W252");
        assert_eq!(soundex("Lee"), "L000");
        assert_eq!(soundex("Gutierrez"), "G362");
        assert_eq!(soundex("Pfister"), "P236");
        assert_eq!(soundex("Jackson"), "J250");
        assert_eq!(soundex("Tymczak"), "T522");
        assert_eq!(soundex("Ashcraft"), "A261");
    }

    #[test]
    fn hw_transparent_vowel_resets() {
        // 'H' between same-coded letters does not split the run...
        assert_eq!(soundex("Ashcraft"), soundex("Ashcroft"));
        // ...but a vowel does: "Tymczak" keeps the 2 after the vowel A.
        assert_eq!(soundex("Tymczak"), "T522");
    }

    #[test]
    fn case_and_punctuation_insensitive() {
        assert_eq!(soundex("o'brien"), soundex("OBRIEN"));
        assert_eq!(soundex("McDonald"), soundex("MCDONALD"));
    }

    #[test]
    fn empty_and_non_alpha() {
        assert_eq!(soundex(""), "0000");
        assert_eq!(soundex("12345"), "0000");
        assert!(!soundex_eq("", ""));
        assert!(!soundex_eq("123", "456"));
    }

    #[test]
    fn sound_alike_names() {
        assert!(soundex_eq("Robert", "Rupert"));
        assert!(soundex_eq("Smith", "Smyth"));
        assert!(!soundex_eq("Smith", "Garcia"));
    }
}
