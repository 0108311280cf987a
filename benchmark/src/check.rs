//! Output checks: the harness's own oracle for what the program wrote.
//! Nothing here calls the program's code — accuracy is recomputed from the
//! input's entity column and the `--pairs-out` file alone.

use crate::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Ground truth read from a generated file: the entity id of every record
/// (the first `|`-separated column; record ids are line positions).
pub struct Truth {
    entity: Vec<u64>,
    /// Number of true duplicate pairs, Σ C(class size, 2).
    pub true_pairs: u64,
}

impl Truth {
    /// Reads the entity column of the flat record file at `path`.
    pub fn read(path: &Path) -> Result<Truth, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut entity = Vec::new();
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.is_empty() {
                continue;
            }
            let id: u64 = line
                .split('|')
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("record {} has no entity id", entity.len()))?;
            *sizes.entry(id).or_default() += 1;
            entity.push(id);
        }
        let true_pairs = sizes.values().map(|&k| k * (k - 1) / 2).sum();
        Ok(Truth { entity, true_pairs })
    }

    /// Number of records.
    pub fn records(&self) -> usize {
        self.entity.len()
    }
}

/// What a `--pairs-out` file says, scored against [`Truth`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairsReport {
    /// Closed pairs in the file.
    pub pairs: u64,
    /// FNV-1a of the file's bytes (the CLI writes the pairs sorted).
    pub fnv1a: u64,
    /// True pairs found ÷ true pairs, ×100 (the paper's Fig. 2a).
    pub percent_detected: f64,
    /// False pairs ÷ pairs found, ×100 (the paper's Fig. 2b).
    pub percent_false_positive: f64,
}

/// Reads and scores the `a\tb`-per-line pairs file at `path`. Fails when a
/// line is malformed, an id is out of range, or the lines are not strictly
/// ascending — a pair file that is wrong in form is a wrong output.
pub fn score_pairs(path: &Path, truth: &Truth) -> Result<PairsReport, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
    let (mut pairs, mut true_found) = (0u64, 0u64);
    let mut prev: Option<(u32, u32)> = None;
    for line in text.lines() {
        let pair = line
            .split_once('\t')
            .and_then(|(a, b)| Some((a.parse::<u32>().ok()?, b.parse::<u32>().ok()?)))
            .ok_or_else(|| format!("malformed pair line {line:?}"))?;
        let (a, b) = (pair.0 as usize, pair.1 as usize);
        if a >= b || b >= truth.entity.len() {
            return Err(format!("pair {pair:?} is not a low-high pair of known ids"));
        }
        if prev.is_some_and(|p| p >= pair) {
            return Err(format!("pairs not strictly ascending at {pair:?}"));
        }
        prev = Some(pair);
        pairs += 1;
        true_found += u64::from(truth.entity[a] == truth.entity[b]);
    }
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    Ok(PairsReport {
        pairs,
        fnv1a: fnv1a(&bytes),
        percent_detected: pct(true_found, truth.true_pairs),
        percent_false_positive: pct(pairs - true_found, pairs),
    })
}

/// The counts pinned per workload for the default seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Records in the generated base file.
    pub records: u64,
    /// Duplicate groups `dedupe` reports.
    pub groups: u64,
    /// Closed pairs written.
    pub closed_pairs: u64,
    /// FNV-1a of the pairs file, 16 hex digits.
    pub pairs_fnv1a: String,
}

/// Looks `workload` up in the pinned-expectations document.
pub fn expected_for(doc: &Json, workload: &str) -> Option<Expected> {
    let w = doc.at(&["workloads", workload])?;
    Some(Expected {
        records: w.get("records")?.as_u64()?,
        groups: w.get("groups")?.as_u64()?,
        closed_pairs: w.get("closed_pairs")?.as_u64()?,
        pairs_fnv1a: w.get("pairs_fnv1a")?.as_str()?.to_string(),
    })
}

/// Extracts the unsigned integer that precedes `suffix` in `text`
/// (`number_before("wrote 12 pairs to x", " pairs to")` is 12).
pub fn number_before(text: &str, suffix: &str) -> Option<u64> {
    let head = &text[..text.find(suffix)?];
    let digits = head.len() - head.bytes().rev().take_while(u8::is_ascii_digit).count();
    head[digits..].parse().ok()
}

/// Extracts the decimal number that precedes `suffix` in `text`.
pub fn decimal_before(text: &str, suffix: &str) -> Option<f64> {
    let head = &text[..text.find(suffix)?];
    let start = head.len()
        - head
            .bytes()
            .rev()
            .take_while(|b| b.is_ascii_digit() || *b == b'.')
            .count();
    head[start..].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn tmp(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-ledger-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn pairs_are_scored_against_the_entity_column() {
        // Entities: {0,1,2} are one person, {3,4} another, 5 alone: 3 + 1 true pairs.
        let base = tmp("base.mp", "7|x\n7|y\n7|z\n9|a\n9|b\n4|c\n");
        let truth = Truth::read(&base).unwrap();
        assert_eq!((truth.records(), truth.true_pairs), (6, 4));
        // Found: two true pairs and one false one.
        let pairs = tmp("pairs.tsv", "0\t1\n0\t2\n4\t5\n");
        let r = score_pairs(&pairs, &truth).unwrap();
        assert_eq!(r.pairs, 3);
        assert_eq!(r.percent_detected, 50.0);
        assert!((r.percent_false_positive - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.fnv1a, fnv1a(b"0\t1\n0\t2\n4\t5\n"));
    }

    #[test]
    fn malformed_or_unsorted_pair_files_are_wrong_outputs() {
        let base = tmp("base2.mp", "1|x\n1|y\n2|z\n");
        let truth = Truth::read(&base).unwrap();
        assert!(score_pairs(&tmp("p1.tsv", "1\t0\n"), &truth).is_err());
        assert!(score_pairs(&tmp("p2.tsv", "0\t9\n"), &truth).is_err());
        assert!(score_pairs(&tmp("p3.tsv", "0\t2\n0\t1\n"), &truth).is_err());
        assert!(score_pairs(&tmp("p4.tsv", "0 1\n"), &truth).is_err());
    }

    #[test]
    fn numbers_are_pulled_out_of_status_lines() {
        let line = "266574 records -> 56148 duplicate groups (102977 records shadowed)";
        assert_eq!(number_before(line, " records ->"), Some(266574));
        assert_eq!(number_before(line, " duplicate groups"), Some(56148));
        let acc = "accuracy: 84.0% of 214473 true pairs detected, 0.425% false positives";
        assert_eq!(decimal_before(acc, "% of"), Some(84.0));
        assert_eq!(decimal_before(acc, "% false"), Some(0.425));
        assert_eq!(number_before(acc, " nothing"), None);
    }

    #[test]
    fn expectations_are_read_per_workload() {
        let doc = Json::parse(
            r#"{"seed":11,"workloads":{"w":{"records":5,"groups":2,"closed_pairs":3,"pairs_fnv1a":"00ff"}}}"#,
        )
        .unwrap();
        let e = expected_for(&doc, "w").unwrap();
        assert_eq!((e.records, e.groups, e.closed_pairs), (5, 2, 3));
        assert_eq!(e.pairs_fnv1a, "00ff");
        assert_eq!(expected_for(&doc, "other"), None);
    }
}
