//! Generator parameters.

/// Probabilities for the gross, field-level corruptions a duplicate record
/// may suffer (beyond per-character typos). Each is applied independently.
///
/// The defaults reflect the paper's description of the injected errors:
/// "from small typographical changes, to complete change of last names and
/// addresses" (§3.1), the transposed-SSN example of §2.4, and the
/// missing-fields/salutations/nicknames noise of §2.1.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorProfile {
    /// Expected number of single-character typos injected per corrupted
    /// text field (drawn as a Poisson-like geometric count; ~80% of
    /// misspelled real-world words carry exactly one error per Kukich).
    pub typos_per_field: f64,
    /// Probability a given text field receives typo noise at all.
    pub field_typo_prob: f64,
    /// Probability the SSN has two adjacent digits transposed.
    pub ssn_transpose_prob: f64,
    /// Probability one SSN digit is replaced.
    pub ssn_digit_error_prob: f64,
    /// Probability the last name is replaced outright (marriage, alias).
    pub last_name_change_prob: f64,
    /// Probability the first name is replaced by a nickname/variant.
    pub nickname_prob: f64,
    /// Probability the whole address changes (the person moved).
    pub address_change_prob: f64,
    /// Probability a salutation ("MR ", "DR ", ...) is prepended to the
    /// first name.
    pub salutation_prob: f64,
    /// Probability any given optional field (middle initial, apartment) is
    /// dropped.
    pub missing_field_prob: f64,
    /// Probability first and middle initial are swapped.
    pub name_swap_prob: f64,
}

impl Default for ErrorProfile {
    fn default() -> Self {
        ErrorProfile {
            typos_per_field: 0.8,
            field_typo_prob: 0.5,
            ssn_transpose_prob: 0.1,
            ssn_digit_error_prob: 0.15,
            last_name_change_prob: 0.05,
            nickname_prob: 0.15,
            address_change_prob: 0.1,
            salutation_prob: 0.05,
            missing_field_prob: 0.15,
            name_swap_prob: 0.02,
        }
    }
}

impl ErrorProfile {
    /// A light-noise profile: mostly single typos, few gross changes.
    pub fn light() -> Self {
        ErrorProfile {
            typos_per_field: 0.4,
            field_typo_prob: 0.3,
            ssn_transpose_prob: 0.05,
            ssn_digit_error_prob: 0.05,
            last_name_change_prob: 0.01,
            nickname_prob: 0.05,
            address_change_prob: 0.03,
            salutation_prob: 0.02,
            missing_field_prob: 0.05,
            name_swap_prob: 0.01,
        }
    }

    /// A heavy-noise profile approaching the paper's "more corrupted data"
    /// regime where more passes are needed (§2.4).
    pub fn heavy() -> Self {
        ErrorProfile {
            typos_per_field: 1.5,
            field_typo_prob: 0.75,
            ssn_transpose_prob: 0.2,
            ssn_digit_error_prob: 0.25,
            last_name_change_prob: 0.1,
            nickname_prob: 0.25,
            address_change_prob: 0.2,
            salutation_prob: 0.1,
            missing_field_prob: 0.25,
            name_swap_prob: 0.05,
        }
    }
}

/// Full parameter set for one generated database.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of distinct original records (entities).
    pub originals: usize,
    /// Fraction of originals selected for duplication, in `[0, 1]`
    /// (the paper sweeps 10%–50%).
    pub duplicate_fraction: f64,
    /// Maximum duplicates added per selected record; the actual count is
    /// uniform in `1..=max` ("a record may be duplicated more than once").
    pub max_duplicates: usize,
    /// Error profile applied to each duplicate.
    pub errors: ErrorProfile,
    /// RNG seed — equal configs generate identical databases.
    pub seed: u64,
    /// Optional separate seed for the *original* (clean) records. Two
    /// configs sharing a population seed describe the same underlying
    /// entities even when their noise seeds differ — the multi-source
    /// scenario of §1, where several vendors sell overlapping lists with
    /// independent errors.
    pub population_seed: Option<u64>,
    /// Whether duplicates are shuffled into the list (true, the realistic
    /// case: sources are concatenated, duplicates are not adjacent).
    pub shuffle: bool,
}

impl GeneratorConfig {
    /// A config with `originals` records, 30% duplication, ≤5 duplicates per
    /// selected record, and the default error profile — close to the
    /// mid-range settings of §3.4.
    pub fn new(originals: usize) -> Self {
        GeneratorConfig {
            originals,
            duplicate_fraction: 0.3,
            max_duplicates: 5,
            errors: ErrorProfile::default(),
            seed: 0xC015_70F0,
            population_seed: None,
            shuffle: true,
        }
    }

    /// Sets the fraction of originals selected for duplication.
    ///
    /// # Panics
    ///
    /// Panics when `f` is outside `[0, 1]`.
    pub fn duplicate_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        self.duplicate_fraction = f;
        self
    }

    /// Sets the maximum duplicates per selected record (≥1).
    ///
    /// # Panics
    ///
    /// Panics when `max` is zero.
    pub fn max_duplicates_per_record(mut self, max: usize) -> Self {
        assert!(max >= 1, "max duplicates must be at least 1");
        self.max_duplicates = max;
        self
    }

    /// Sets the error profile.
    pub fn errors(mut self, errors: ErrorProfile) -> Self {
        self.errors = errors;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a population seed distinct from the noise seed (see the field
    /// docs).
    pub fn population_seed(mut self, seed: u64) -> Self {
        self.population_seed = Some(seed);
        self
    }

    /// Disables shuffling (duplicates follow their original — useful in
    /// tests that reason about positions).
    pub fn no_shuffle(mut self) -> Self {
        self.shuffle = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = GeneratorConfig::new(100)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(3)
            .errors(ErrorProfile::light())
            .seed(7)
            .no_shuffle();
        assert_eq!(c.originals, 100);
        assert_eq!(c.duplicate_fraction, 0.5);
        assert_eq!(c.max_duplicates, 3);
        assert_eq!(c.seed, 7);
        assert!(!c.shuffle);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn fraction_out_of_range_panics() {
        GeneratorConfig::new(10).duplicate_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_max_duplicates_panics() {
        GeneratorConfig::new(10).max_duplicates_per_record(0);
    }

    #[test]
    fn profiles_ordered_by_severity() {
        let l = ErrorProfile::light();
        let d = ErrorProfile::default();
        let h = ErrorProfile::heavy();
        assert!(l.typos_per_field < d.typos_per_field);
        assert!(d.typos_per_field < h.typos_per_field);
        assert!(l.last_name_change_prob < h.last_name_change_prob);
    }
}
