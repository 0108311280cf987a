//! Class enumeration beside the forest: one circular member list per
//! equivalence class.
//!
//! The forest ([`crate::UnionFind`]) answers "same class?" in near-constant
//! time but can only *list* a class by sweeping the whole id space
//! ([`crate::UnionFind::classes`]). [`ClassRing`] is the textbook
//! union-find-with-listing companion: every id points at the next member
//! of its class, the last back at the first. A successful union of two
//! classes is one swap of two `next` entries, and listing a class is a
//! walk of exactly its members — O(class), no `find`, `&self`.

/// A circular `next`-member array over the dense id space `0..n`.
///
/// Derived state, like [`crate::ClusterSizes`]: maintained alongside the
/// forest by the engine ([`Self::grow`] when the id space extends,
/// [`Self::splice`] on every *successful* union), never persisted, and
/// rebuilt from a restored forest by [`crate::ClusterSizes::rebuild`] in
/// the same pass that recounts the sizes.
///
/// Invariant: `next` is a permutation of `0..n` whose cycles are exactly
/// the closure's classes. `new`/`grow` add fixed points and `splice` swaps
/// two entries, so it stays a permutation; a walk from any id therefore
/// returns to that id after visiting each class member once.
///
/// ```
/// use mp_closure::{ClassRing, UnionFind};
/// let (mut uf, mut ring) = (UnionFind::new(5), ClassRing::new(5));
/// for (a, b) in [(3, 1), (1, 4), (4, 3)] {
///     if uf.union(a, b) {
///         ring.splice(a, b); // only when the union joined two classes
///     }
/// }
/// assert_eq!(ring.class_of(4), vec![1, 3, 4]);
/// assert_eq!(ring.class_of(0), vec![0]); // a singleton is its own class
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassRing {
    next: Vec<u32>,
}

impl ClassRing {
    /// `n` singleton rings.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX` elements.
    pub fn new(n: usize) -> Self {
        let mut ring = ClassRing { next: Vec::new() };
        ring.grow(n);
        ring
    }

    /// Number of elements in the id space.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when the id space is empty.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Extends the id space to `n` elements with fresh singleton rings;
    /// no-op when `n ≤ len`.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX` elements.
    pub fn grow(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "id space exceeds u32");
        let old = self.next.len();
        if n > old {
            self.next.extend(old as u32..n as u32);
        }
    }

    /// Joins the rings holding `a` and `b` into one. The caller guarantees
    /// they are *different* classes — call it exactly when
    /// [`crate::UnionFind::union`] returned `true` — because the same swap
    /// applied within one ring would cut it in two. Any member of either
    /// class will do; roots are not required.
    pub fn splice(&mut self, a: u32, b: u32) {
        self.next.swap(a as usize, b as usize);
    }

    /// Every member of `id`'s class, ascending, `id` included — `[id]` for
    /// a record that never merged. Costs a walk and a sort of the class,
    /// independent of the size of the id space.
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside the id space.
    pub fn class_of(&self, id: u32) -> Vec<u32> {
        let mut members = vec![id];
        let mut x = self.next[id as usize];
        while x != id {
            members.push(x);
            x = self.next[x as usize];
        }
        members.sort_unstable();
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSizes, UnionFind};
    use proptest::prelude::*;

    #[test]
    fn empty_and_singleton_spaces() {
        let ring = ClassRing::new(0);
        assert!(ring.is_empty());
        let mut ring = ClassRing::new(2);
        assert_eq!(ring.class_of(1), vec![1]);
        ring.grow(1); // shrinking request is a no-op
        assert_eq!(ring.len(), 2);
    }

    proptest! {
        /// Random interleavings of `grow` and `union` (successful and
        /// redundant): the ring lists, for every id, exactly the class the
        /// forest's O(N) sweep lists — and a ring rebuilt from the decoded
        /// forest answers the same as the incrementally maintained one.
        #[test]
        fn class_of_matches_the_forest_sweep(
            start in 0usize..6,
            // `a ≥ 64` grows the space by `a − 63`; anything else is a
            // union of `a` and `b` taken modulo the current size.
            ops in proptest::collection::vec((0u32..72, 0u32..64), 0..60),
        ) {
            let mut uf = UnionFind::new(start);
            let mut ring = ClassRing::new(start);
            for (a, b) in ops {
                if a >= 64 {
                    uf.grow(uf.len() + (a - 63) as usize);
                    ring.grow(uf.len());
                } else if !uf.is_empty() {
                    let (a, b) = (a % uf.len() as u32, b % uf.len() as u32);
                    if uf.union(a, b) {
                        ring.splice(a, b);
                    }
                }
            }
            prop_assert_eq!(ring.len(), uf.len());

            let mut blob = Vec::new();
            uf.encode_into(&mut blob);
            let (_, rebuilt) = ClusterSizes::rebuild(&UnionFind::decode(&blob).unwrap());
            prop_assert_eq!(rebuilt.len(), uf.len());

            let classes = uf.classes();
            for id in 0..uf.len() as u32 {
                let want = classes
                    .iter()
                    .find(|c| c.contains(&id))
                    .cloned()
                    .unwrap_or_else(|| vec![id]);
                prop_assert_eq!(&ring.class_of(id), &want, "incremental, id {}", id);
                prop_assert_eq!(&rebuilt.class_of(id), &want, "rebuilt, id {}", id);
            }
        }
    }
}
