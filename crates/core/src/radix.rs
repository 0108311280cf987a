//! LSD radix sort over fixed-width key prefixes — the one way a whole key
//! range is ordered — plus the chunked key comparator shared by the sort
//! fallback and the merge paths.
//!
//! "On the Complexity of Sorted Neighborhood" observes that the sort
//! dominates SNM cost asymptotically, so this module attacks it directly.
//! Bytewise order of UTF-8 is `str::cmp` order, and a zero byte sorts
//! before every other byte, so radix-sorting the first
//! [`RADIX_PREFIX_WIDTH`] bytes of every key — zero-padded — puts a short
//! key exactly where lexicographic order puts it. Two keys can tie on the
//! padded prefix and still differ in only two ways: one extends past the
//! prefix, or one ends in NUL bytes the padding imitates (`"LEE\0"` vs
//! `"LEE"`; `KeyPart::FirstNonBlank` copies any non-blank char, NUL
//! included). Either way their lengths differ or exceed the prefix, and
//! only such tied runs fall back to a comparison sort.
//!
//! The sort is stable (LSD counting sort is stable per digit and the
//! fallback breaks ties by input index), so it produces the *exact*
//! permutation of a stable comparison sort over `str::cmp` — verified by a
//! property test below against the comparison oracle, and relied on by the
//! incremental engine, which merges batches with [`chunked_str_cmp`] and
//! must land on the order a batch run would.
//!
//! A histogram pre-pass computes all per-digit histograms in one sweep and
//! skips scatter passes for constant-byte columns (common when every key in
//! a pass is shorter than the prefix, leaving whole padding columns zero).
//! Executed scatter passes are reported as [`Counter::RadixPasses`].

use crate::key::KeyArena;
use mp_metrics::{Counter, PipelineObserver};
use mp_record::prefetch::prefetch;
use std::cmp::Ordering;

/// Bytes of each key covered by radix passes; ties beyond this width fall
/// back to a comparison sort of the run. The standard paper keys
/// (`OBRIENM123456`-shaped) are 13–22 bytes, so 16 covers most keys
/// entirely and leaves only genuine near-duplicates to the fallback.
pub const RADIX_PREFIX_WIDTH: usize = 16;

/// Compares two keys bytewise in 8-byte big-endian chunks.
///
/// Equivalent to `a.cmp(b)` for any strings (UTF-8 bytewise order equals
/// `str::cmp` order), but walks the common prefix a word at a time instead
/// of a byte at a time — the batched comparison used by the sort fallback,
/// the external-merge heap, and the incremental key merge.
#[inline]
pub fn chunked_str_cmp(a: &str, b: &str) -> Ordering {
    let (ab, bb) = (a.as_bytes(), b.as_bytes());
    let n = ab.len().min(bb.len());
    let mut i = 0;
    while i + 8 <= n {
        // Big-endian load: the numerically larger word is the
        // lexicographically larger chunk.
        let x = u64::from_be_bytes(ab[i..i + 8].try_into().unwrap());
        let y = u64::from_be_bytes(bb[i..i + 8].try_into().unwrap());
        if x != y {
            return x.cmp(&y);
        }
        i += 8;
    }
    match ab[i..n].cmp(&bb[i..n]) {
        Ordering::Equal => ab.len().cmp(&bb.len()),
        ne => ne,
    }
}

/// Inserts the index run `batch` into `order` in place — both sorted under
/// `le` ("not after") — and returns the positions the batch landed on,
/// ascending. The result is the permutation a stable two-way merge gives
/// (ties keep `order`'s entries first), reached without walking `order`:
/// every batch entry bisects the whole of `order`, at most `⌈log2(N+1)⌉`
/// calls of `le(old, new)` each, and the entries between slots move as
/// blocks.
///
/// `keys` is what `le` reads: `keys.get(id)` for an `order` entry `id`. A
/// probe is three dependent misses — the `order` slot, the key's span it
/// names, the key bytes — so the entries bisect in lockstep, one level at a
/// time, and before a level's comparisons one sweep over the batch
/// prefetches every probed slot, the next every span, the next every key's
/// bytes: each hop's misses overlap across the batch instead of queueing
/// one behind another.
pub(crate) fn insert_sorted(
    order: &mut Vec<u32>,
    batch: &[u32],
    keys: &KeyArena,
    le: impl Fn(u32, u32) -> bool,
) -> Vec<usize> {
    // Slots first, in `order`'s old coordinates: how many old entries stay
    // before each batch entry. `[lo, hi)` is the part of `order` an entry's
    // slot may still split; each level halves it.
    let mut bounds = vec![(0, order.len()); batch.len()];
    let mid = |&(lo, hi): &(usize, usize)| (lo < hi).then(|| lo + (hi - lo) / 2);
    let mut live = !order.is_empty();
    while live {
        bounds
            .iter()
            .filter_map(mid)
            .for_each(|m| prefetch(&order[m]));
        let probed = || bounds.iter().filter_map(mid).map(|m| order[m] as usize);
        probed().for_each(|id| prefetch(keys.span_addr(id)));
        probed().for_each(|id| prefetch(keys.key_addr(id)));
        live = false;
        for (&new, bound) in batch.iter().zip(&mut bounds) {
            if let Some(m) = mid(bound) {
                *bound = if le(order[m], new) {
                    (m + 1, bound.1)
                } else {
                    (bound.0, m)
                };
                live |= bound.0 < bound.1;
            }
        }
    }
    let mut positions: Vec<usize> = bounds.into_iter().map(|(slot, _)| slot).collect();

    // Then the moves, last slot first, so every old entry moves once and
    // lands clear of the ones still to move.
    let mut end = order.len();
    order.resize(end + batch.len(), 0);
    for (j, (&new, at)) in batch.iter().zip(&mut positions).enumerate().rev() {
        order.copy_within(*at..end, *at + j + 1);
        end = *at;
        *at += j;
        order[*at] = new;
    }
    positions
}

/// Outcome of one radix-ordered sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixOrder {
    /// Indices `0..n` in stable sorted key order.
    pub order: Vec<u32>,
    /// Scatter passes executed (constant-byte columns skipped).
    pub passes: u32,
    /// Tied-prefix runs that needed the comparison fallback.
    pub fallback_runs: u64,
}

/// Radix-sorts indices `0..n` by the keys `key_of` yields, producing the
/// exact permutation of a stable comparison sort over `str::cmp`.
///
/// `key_of(i)` must be pure (same `&str` every call). Keys may be any
/// length and hold any bytes; only runs that tie on the whole zero-padded
/// [`RADIX_PREFIX_WIDTH`]-byte prefix *and* whose keys are not all one
/// length within the prefix are comparison-sorted.
pub fn radix_order_by<'a>(n: usize, key_of: impl Fn(usize) -> &'a str) -> RadixOrder {
    const W: usize = RADIX_PREFIX_WIDTH;
    if n <= 1 {
        return RadixOrder {
            order: (0..n as u32).collect(),
            passes: 0,
            fallback_runs: 0,
        };
    }

    // Pack zero-padded prefixes contiguously: one cache-friendly buffer the
    // scatter passes stride through, and one histogram sweep for all W
    // digit positions at once.
    let mut prefixes = vec![0u8; n * W];
    let mut histograms = vec![[0u32; 256]; W];
    let mut any_long = false;
    let mut padding = 0usize;
    for i in 0..n {
        let key = key_of(i).as_bytes();
        let take = key.len().min(W);
        prefixes[i * W..i * W + take].copy_from_slice(&key[..take]);
        any_long |= key.len() > W;
        padding += W - take;
        let row = &prefixes[i * W..(i + 1) * W];
        for (d, &b) in row.iter().enumerate() {
            histograms[d][b as usize] += 1;
        }
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut scratch = vec![0u32; n];
    let mut passes = 0u32;
    // Least-significant digit first: after the pass for digit d, `order` is
    // stably sorted by bytes d..W, so after the final (d = 0) pass it is
    // sorted by the whole prefix with ties in input-index order.
    for d in (0..W).rev() {
        let hist = &histograms[d];
        if hist.iter().any(|&c| c as usize == n) {
            continue; // constant column: scatter would be the identity
        }
        let mut starts = [0u32; 256];
        let mut acc = 0u32;
        for (b, &c) in hist.iter().enumerate() {
            starts[b] = acc;
            acc += c;
        }
        for &i in &order {
            let byte = prefixes[i as usize * W + d];
            let slot = &mut starts[byte as usize];
            scratch[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut scratch);
        passes += 1;
    }

    // Fallback: comparison-sort runs whose prefixes tie, but only when some
    // key extends past the prefix or holds a NUL the padding could imitate
    // (more zero bytes than were padded); otherwise tied prefixes are tied
    // keys and stability already ordered them by index.
    let zero_bytes: usize = histograms.iter().map(|h| h[0] as usize).sum();
    let mut fallback_runs = 0u64;
    if any_long || zero_bytes != padding {
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            let p = &prefixes[order[start] as usize * W..(order[start] as usize + 1) * W];
            while end < n && prefixes[order[end] as usize * W..(order[end] as usize + 1) * W] == *p
            {
                end += 1;
            }
            // Tied keys of one length within the prefix are equal keys.
            let len = key_of(order[start] as usize).len();
            if end - start > 1
                && (len > W
                    || order[start + 1..end]
                        .iter()
                        .any(|&i| key_of(i as usize).len() != len))
            {
                // Stable sort keeps equal full keys in index order, exactly
                // like the global stable comparison sort.
                order[start..end]
                    .sort_by(|&a, &b| chunked_str_cmp(key_of(a as usize), key_of(b as usize)));
                fallback_runs += 1;
            }
            start = end;
        }
    }

    RadixOrder {
        order,
        passes,
        fallback_runs,
    }
}

/// Returns record indices in stable sorted key order, reporting
/// [`Counter::RadixPasses`].
pub fn sorted_order_radix(keys: &KeyArena, observer: &dyn PipelineObserver) -> Vec<u32> {
    let out = radix_order_by(keys.len(), |i| keys.get(i));
    observer.add(Counter::RadixPasses, out.passes as u64);
    out.order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeySpec;
    use crate::snm::sorted_order;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_metrics::NoopObserver;
    use proptest::prelude::*;

    fn arena_of(keys: &[impl AsRef<str>]) -> KeyArena {
        let mut arena = KeyArena::new();
        for k in keys {
            arena.push_str(k.as_ref());
        }
        arena
    }

    #[test]
    fn chunked_cmp_matches_str_cmp_on_edges() {
        let cases = [
            ("", ""),
            ("", "A"),
            ("ABCDEFGH", "ABCDEFGH"),
            ("ABCDEFGH", "ABCDEFGHI"),
            ("ABCDEFGHIJKLMNOPQ", "ABCDEFGHIJKLMNOPZ"),
            ("SAME16BYTESXXXXX", "SAME16BYTESXXXXX0"),
            ("Z", "AAAAAAAAAAAAAAAAAAAA"),
        ];
        for (a, b) in cases {
            assert_eq!(chunked_str_cmp(a, b), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!(chunked_str_cmp(b, a), b.cmp(a), "{b:?} vs {a:?}");
        }
    }

    /// Ids `0..old` and `old..keys.len()`, each stably sorted by key: an
    /// existing order and a sorted batch, as the incremental engine has them.
    fn sorted_runs(keys: &KeyArena, old: usize) -> (Vec<u32>, Vec<u32>) {
        let run = |ids: std::ops::Range<usize>| {
            let mut ids: Vec<u32> = ids.map(|i| i as u32).collect();
            ids.sort_by(|&a, &b| keys.get(a as usize).cmp(keys.get(b as usize)));
            ids
        };
        (run(0..old), run(old..keys.len()))
    }

    /// What the insertion may spend on `batch` entries against `old` ones:
    /// one bisection each, `⌈log2(old+1)⌉` — the bit length of `old`.
    fn search_budget(old: usize, batch: usize) -> usize {
        batch * (usize::BITS - old.leading_zeros()) as usize
    }

    #[test]
    fn insertion_searches_instead_of_walking() {
        // Four records into 4096: a merge walk compares some 3,000 times.
        let keys: Vec<String> = (0..4096)
            .map(|i| format!("{i:05}"))
            .chain([500, 1500, 2500, 3500].map(|i| format!("{i:05}X")))
            .collect();
        let keys = arena_of(&keys);
        let (mut order, batch) = sorted_runs(&keys, 4096);
        let calls = std::cell::Cell::new(0);
        let landed = insert_sorted(&mut order, &batch, &keys, |old, new| {
            calls.set(calls.get() + 1);
            keys.get(old as usize) <= keys.get(new as usize)
        });
        assert_eq!(landed, vec![501, 1502, 2503, 3504]);
        assert_eq!(search_budget(4096, 4), 4 * 13);
        assert!(
            calls.get() <= search_budget(4096, 4),
            "{} calls",
            calls.get()
        );
    }

    #[test]
    fn radix_matches_comparison_on_generated_keys() {
        let db =
            DatabaseGenerator::new(GeneratorConfig::new(2_000).duplicate_fraction(0.5).seed(9))
                .generate();
        for key in KeySpec::standard_three() {
            let keys = KeyArena::extract(&key, &db.records);
            assert_eq!(
                sorted_order_radix(&keys, &NoopObserver),
                sorted_order(&keys),
                "radix diverges from the comparison oracle on key {}",
                key.name()
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(radix_order_by(0, |_| "").order, Vec::<u32>::new());
        assert_eq!(radix_order_by(1, |_| "ANY").order, vec![0]);
    }

    #[test]
    fn all_equal_keys_keep_input_order() {
        let arena = arena_of(&["SAME"; 7]);
        let out = radix_order_by(arena.len(), |i| arena.get(i));
        assert_eq!(out.order, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(out.fallback_runs, 0, "short tied keys need no fallback");
    }

    #[test]
    fn long_tied_prefixes_hit_the_fallback() {
        // 16 identical bytes, divergence only in the suffix.
        let arena = arena_of(&[
            "PPPPPPPPPPPPPPPPZZ",
            "PPPPPPPPPPPPPPPPAA",
            "PPPPPPPPPPPPPPPP",
        ]);
        let out = radix_order_by(arena.len(), |i| arena.get(i));
        assert_eq!(out.order, vec![2, 1, 0]);
        assert_eq!(out.fallback_runs, 1);
    }

    #[test]
    fn trailing_nul_sorts_after_its_own_prefix() {
        // Zero padding makes "LEE\0" and "LEE" tie on the prefix; `str::cmp`
        // (and the incremental engine's merge) puts the shorter key first.
        let arena = arena_of(&["LEE\0", "LEE"]);
        let out = radix_order_by(arena.len(), |i| arena.get(i));
        assert_eq!(out.order, vec![1, 0]);
        assert_eq!(out.fallback_runs, 1);
    }

    #[test]
    fn constant_columns_are_skipped() {
        // Keys of length 2: columns 2..16 are all zero padding and column 0
        // is constant, so at most one scatter pass runs.
        let arena = arena_of(&["AB", "AA", "AC"]);
        let out = radix_order_by(arena.len(), |i| arena.get(i));
        assert_eq!(out.order, vec![1, 0, 2]);
        assert_eq!(out.passes, 1);
    }

    proptest! {
        /// The guarantee everything downstream leans on: radix order is
        /// the *exact permutation* of the stable comparison sort, ties
        /// included, for arbitrary strings — empties, shared prefixes
        /// longer than the radix width, duplicates, NUL bytes the padding
        /// imitates, and multi-byte chars straddling the prefix boundary.
        /// The alphabet is small so tied prefixes are common.
        #[test]
        fn radix_is_exact_permutation_of_comparison(
            keys in proptest::collection::vec("[AB0ab\0.,é]{0,24}", 0..200)
        ) {
            let mut arena = KeyArena::new();
            for k in &keys {
                arena.push_str(k);
            }
            prop_assert_eq!(
                sorted_order_radix(&arena, &NoopObserver),
                sorted_order(&arena)
            );
        }

        /// The incremental engine's key merge: inserting a sorted batch by
        /// lockstep bisection gives the permutation the two-way merge gives
        /// — ties old first; the alphabet is small so they are common —
        /// says where the batch landed, and calls `le(old, new)` at most
        /// `⌈log2(N+1)⌉` times per batch entry. `place`
        /// puts the batch among (0), before (1) or after (2) the old keys;
        /// either side may be empty.
        #[test]
        fn insert_sorted_is_merge_sorted_within_budget(
            keys in proptest::collection::vec("[AB]{0,3}", 0..300),
            old_share in 0usize..9,
            place in 0usize..3,
        ) {
            // Shares 0 and 8 leave one side empty; 7 leaves a small batch.
            let old = keys.len() * old_share.min(8) / 8;
            let keys: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| format!("{}{k}", if i < old { "M" } else { ["M", "A", "Z"][place] }))
                .collect();
            let keys = arena_of(&keys);
            let key = |id: u32| keys.get(id as usize);
            let (order, batch) = sorted_runs(&keys, old);
            // The stable merge: a stable sort of `order` then `batch`.
            let mut want = [order.as_slice(), batch.as_slice()].concat();
            want.sort_by_key(|&id| key(id));

            let calls = std::cell::Cell::new(0);
            let mut got = order.clone();
            let landed = insert_sorted(&mut got, &batch, &keys, |a, b| {
                prop_assert!((a as usize) < old && b as usize >= old, "le(old, new) only");
                calls.set(calls.get() + 1);
                key(a) <= key(b)
            });
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(landed.iter().map(|&at| got[at]).collect::<Vec<_>>(), batch.clone());
            prop_assert!(landed.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(calls.get() <= search_budget(old, batch.len()));
        }

        #[test]
        fn chunked_cmp_agrees_with_str_cmp(
            a in "[AB0ab\0.,é]{0,40}",
            b in "[AB0ab\0.,é]{0,40}",
        ) {
            prop_assert_eq!(chunked_str_cmp(&a, &b), a.cmp(&b));
        }
    }
}
