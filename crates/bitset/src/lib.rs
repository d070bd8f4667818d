//! # efm-bitset — compact support patterns for flux modes
//!
//! The Nullspace Algorithm's inner loop pairs every positive with every
//! negative mode and first asks a purely combinatorial question about the
//! union of their supports. For the yeast networks of the paper that loop
//! executes ~1.6×10¹¹ times, so the support pattern must be a few machine
//! words with branch-light union/popcount/subset operations.
//!
//! [`Pattern`] stores up to `64*W` bits inline (no heap); the workspace
//! monomorphizes the algorithm core over `W ∈ {1, 2, 4}` ([`Pattern1`],
//! [`Pattern2`], [`Pattern4`]), which covers reduced networks of up to 256
//! reactions — far beyond what EFM enumeration can handle combinatorially.
//! [`DynPattern`] is the boxed fallback for generic tooling.

#![warn(missing_docs)]

use std::fmt;
use std::hash::Hash;
use std::ops::ControlFlow;

pub mod compressed;
pub mod kernel;

pub use compressed::CompressedPattern;
pub use kernel::{detect_tier, KernelTier, PairBound};

/// A fixed-capacity inline bit pattern of `64*W` bits.
///
/// `#[repr(transparent)]` guarantees a `Pattern<W>` is layout-identical to
/// `[u64; W]`, so the [`kernel`] module may view `&[Pattern<W>]` as a flat
/// `&[u64]` for its SIMD sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Pattern<const W: usize> {
    words: [u64; W],
}

/// One-word pattern (networks with ≤ 64 reduced reactions).
pub type Pattern1 = Pattern<1>;
/// Two-word pattern (≤ 128 reduced reactions).
pub type Pattern2 = Pattern<2>;
/// Four-word pattern (≤ 256 reduced reactions).
pub type Pattern4 = Pattern<4>;

impl<const W: usize> Default for Pattern<W> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<const W: usize> Pattern<W> {
    /// Number of bits this pattern can hold.
    pub const CAPACITY: usize = 64 * W;

    /// The empty pattern.
    #[inline]
    pub fn empty() -> Self {
        Pattern { words: [0; W] }
    }

    /// Pattern with bits `0..n` set.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::CAPACITY, "pattern capacity exceeded");
        let mut p = Self::empty();
        for i in 0..n {
            p.set(i);
        }
        p
    }

    /// Builds a pattern from an iterator of set bit indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut p = Self::empty();
        for i in iter {
            p.set(i);
        }
        p
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY, "bit index out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY, "bit index out of range");
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < Self::CAPACITY, "bit index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bitwise union.
    #[inline]
    pub fn union(&self, rhs: &Self) -> Self {
        let mut out = [0u64; W];
        for ((o, &a), &b) in out.iter_mut().zip(&self.words).zip(&rhs.words) {
            *o = a | b;
        }
        Pattern { words: out }
    }

    /// Bitwise intersection.
    #[inline]
    pub fn intersect(&self, rhs: &Self) -> Self {
        let mut out = [0u64; W];
        for ((o, &a), &b) in out.iter_mut().zip(&self.words).zip(&rhs.words) {
            *o = a & b;
        }
        Pattern { words: out }
    }

    /// Bitwise symmetric difference.
    #[inline]
    pub fn xor(&self, rhs: &Self) -> Self {
        let mut out = [0u64; W];
        for ((o, &a), &b) in out.iter_mut().zip(&self.words).zip(&rhs.words) {
            *o = a ^ b;
        }
        Pattern { words: out }
    }

    /// The pattern with bit `i` removed and every bit above it moved down
    /// one place; bits below `i` stay put. Word operations only: the
    /// carry into each word is the next word's lowest bit.
    #[inline]
    pub fn drop_bit(&self, i: usize) -> Self {
        debug_assert!(i < Self::CAPACITY, "bit index out of range");
        let (wi, low) = (i / 64, (1u64 << (i % 64)) - 1);
        let mut out = self.words;
        for (k, o) in out.iter_mut().enumerate().skip(wi) {
            *o = (self.words[k] >> 1) | self.words.get(k + 1).map_or(0, |w| w << 63);
        }
        out[wi] = (out[wi] & !low) | (self.words[wi] & low);
        Pattern { words: out }
    }

    /// Calls `f` with every set bit index in ascending order until it
    /// breaks, word by word with `trailing_zeros`; returns the break, if
    /// any.
    #[inline]
    pub fn try_for_each_one<B, F: FnMut(usize) -> ControlFlow<B>>(
        &self,
        mut f: F,
    ) -> ControlFlow<B> {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize)?;
                w &= w - 1;
            }
        }
        ControlFlow::Continue(())
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        let mut c = 0;
        for i in 0..W {
            c += self.words[i].count_ones();
        }
        c
    }

    /// Number of set bits in the union of two patterns, without
    /// materializing it — the single hottest operation of the algorithm.
    #[inline]
    pub fn union_count(&self, rhs: &Self) -> u32 {
        let mut c = 0;
        for i in 0..W {
            c += (self.words[i] | rhs.words[i]).count_ones();
        }
        c
    }

    /// Number of set bits in the symmetric difference (fused XOR+popcount).
    #[inline]
    pub fn xor_count(&self, rhs: &Self) -> u32 {
        let mut c = 0;
        for i in 0..W {
            c += (self.words[i] ^ rhs.words[i]).count_ones();
        }
        c
    }

    /// Whether `self` is a subset of `rhs`.
    #[inline]
    pub fn is_subset_of(&self, rhs: &Self) -> bool {
        for i in 0..W {
            if self.words[i] & !rhs.words[i] != 0 {
                return false;
            }
        }
        true
    }

    /// Whether the pattern has no set bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Raw words (for hashing / sorting keys).
    #[inline]
    pub fn words(&self) -> &[u64; W] {
        &self.words
    }
}

impl<const W: usize> fmt::Debug for Pattern<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern{{")?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Heap-allocated pattern of arbitrary width, for generic tooling and tests.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct DynPattern {
    words: Vec<u64>,
}

impl DynPattern {
    /// Empty pattern able to hold `nbits` bits.
    pub fn with_capacity(nbits: usize) -> Self {
        DynPattern { words: vec![0; nbits.div_ceil(64)] }
    }

    /// Sets bit `i` (the pattern grows as needed).
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Tests bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether every set bit of `self` is set in `rhs` (widths may differ;
    /// missing words are zero).
    pub fn is_subset_of(&self, rhs: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !rhs.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Bitwise union (result width is the wider operand's).
    pub fn union(&self, rhs: &Self) -> Self {
        let mut out = DynPattern::default();
        self.union_into(rhs, &mut out);
        out
    }

    /// Bitwise union written into a caller-provided pattern, reusing its
    /// word buffer — the allocation-free form for loops that union many
    /// pairs (a fresh `Vec` per pair otherwise dominates the naive path).
    pub fn union_into(&self, rhs: &Self, out: &mut Self) {
        let n = self.words.len().max(rhs.words.len());
        out.words.clear();
        out.words.extend((0..n).map(|i| {
            self.words.get(i).copied().unwrap_or(0) | rhs.words.get(i).copied().unwrap_or(0)
        }));
    }

    /// Bitwise intersection.
    pub fn intersect(&self, rhs: &Self) -> Self {
        let n = self.words.len().min(rhs.words.len());
        DynPattern { words: (0..n).map(|i| self.words[i] & rhs.words[i]).collect() }
    }

    /// Iterates over set bit indices.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// The pattern interface the algorithm core is generic over.
///
/// Implemented by every inline width; the core monomorphizes per width so the
/// inner loop compiles to straight-line word operations.
pub trait BitPattern:
    Clone + Copy + PartialEq + Eq + Hash + Ord + Send + Sync + Default + fmt::Debug + 'static
{
    /// Capacity in bits.
    fn capacity() -> usize;
    /// The empty pattern.
    fn empty() -> Self;
    /// Set a bit.
    fn set(&mut self, i: usize);
    /// Test a bit.
    fn get(&self, i: usize) -> bool;
    /// Union.
    fn union(&self, rhs: &Self) -> Self;
    /// Intersection.
    fn intersect(&self, rhs: &Self) -> Self;
    /// Symmetric difference.
    fn xor(&self, rhs: &Self) -> Self;
    /// Bit `i` removed, the bits above it moved down one place.
    fn drop_bit(&self, i: usize) -> Self;
    /// Calls `f` with every set bit index in ascending order until it
    /// breaks; returns the break, if any.
    fn try_for_each_one<B, F: FnMut(usize) -> ControlFlow<B>>(&self, f: F) -> ControlFlow<B>;
    /// Popcount.
    fn count(&self) -> u32;
    /// Popcount of the union (fused hot path).
    fn union_count(&self, rhs: &Self) -> u32;
    /// Popcount of the symmetric difference (fused hot path).
    fn xor_count(&self, rhs: &Self) -> u32;
    /// Subset test.
    fn is_subset_of(&self, rhs: &Self) -> bool;
    /// Set bit indices, ascending.
    fn ones(&self) -> Vec<usize>;

    /// Calls `f` with every set bit index in ascending order — the
    /// allocation-free counterpart of [`ones`](Self::ones) for hot loops.
    fn for_each_one<F: FnMut(usize)>(&self, mut f: F) {
        for i in self.ones() {
            f(i);
        }
    }

    /// Negative-side block length (pairs) the cache-blocked generation
    /// kernel should use for this pattern width (sized so one block's two
    /// pattern streams stay L1-resident).
    fn block_pairs() -> usize {
        kernel::block_pairs(std::mem::size_of::<Self>())
    }

    /// Batched generation prefilter over one block
    /// ([`kernel::prefilter_hits`]): appends `base + i` to `hits` for every
    /// pair whose whole and rev-masked bounds are both within `max`,
    /// returning the number appended. `bounds` is caller-owned scratch.
    #[allow(clippy::too_many_arguments)] // hot-path API: scratch + output buffers ride with the block operands
    fn prefilter_block(
        tier: KernelTier,
        pat: &Self,
        sup: &Self,
        rev: &Self,
        negs: &[Self],
        nsups: &[Self],
        max: PairBound,
        base: u32,
        bounds: &mut Vec<PairBound>,
        hits: &mut Vec<u32>,
    ) -> usize;

    /// Whether any pattern in `cands` is a subset of `sup` (batched form
    /// of the naive adjacency scan's early-exit probe).
    fn subset_any(tier: KernelTier, cands: &[Self], sup: &Self) -> bool {
        let _ = tier;
        cands.iter().any(|c| c.is_subset_of(sup))
    }
}

impl<const W: usize> BitPattern for Pattern<W> {
    #[inline]
    fn capacity() -> usize {
        Self::CAPACITY
    }
    #[inline]
    fn empty() -> Self {
        Pattern::empty()
    }
    #[inline]
    fn set(&mut self, i: usize) {
        Pattern::set(self, i)
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        Pattern::get(self, i)
    }
    #[inline]
    fn union(&self, rhs: &Self) -> Self {
        Pattern::union(self, rhs)
    }
    #[inline]
    fn intersect(&self, rhs: &Self) -> Self {
        Pattern::intersect(self, rhs)
    }
    #[inline]
    fn xor(&self, rhs: &Self) -> Self {
        Pattern::xor(self, rhs)
    }
    #[inline]
    fn drop_bit(&self, i: usize) -> Self {
        Pattern::drop_bit(self, i)
    }
    #[inline]
    fn try_for_each_one<B, F: FnMut(usize) -> ControlFlow<B>>(&self, f: F) -> ControlFlow<B> {
        Pattern::try_for_each_one(self, f)
    }
    #[inline]
    fn count(&self) -> u32 {
        Pattern::count(self)
    }
    #[inline]
    fn union_count(&self, rhs: &Self) -> u32 {
        Pattern::union_count(self, rhs)
    }
    #[inline]
    fn xor_count(&self, rhs: &Self) -> u32 {
        Pattern::xor_count(self, rhs)
    }
    #[inline]
    fn is_subset_of(&self, rhs: &Self) -> bool {
        Pattern::is_subset_of(self, rhs)
    }
    fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }
    #[inline]
    fn for_each_one<F: FnMut(usize)>(&self, mut f: F) {
        for i in self.iter_ones() {
            f(i);
        }
    }
    fn prefilter_block(
        tier: KernelTier,
        pat: &Self,
        sup: &Self,
        rev: &Self,
        negs: &[Self],
        nsups: &[Self],
        max: PairBound,
        base: u32,
        bounds: &mut Vec<PairBound>,
        hits: &mut Vec<u32>,
    ) -> usize {
        kernel::prefilter_hits(tier, pat, sup, rev, negs, nsups, max, base, bounds, hits)
    }
    #[inline]
    fn subset_any(tier: KernelTier, cands: &[Self], sup: &Self) -> bool {
        kernel::is_subset_any(tier, cands, sup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut p = Pattern2::empty();
        assert!(p.is_empty());
        p.set(0);
        p.set(63);
        p.set(64);
        p.set(127);
        assert!(p.get(0) && p.get(63) && p.get(64) && p.get(127));
        assert!(!p.get(1) && !p.get(65));
        assert_eq!(p.count(), 4);
        p.clear(64);
        assert!(!p.get(64));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn union_and_counts() {
        let a = Pattern1::from_indices([0, 5, 10]);
        let b = Pattern1::from_indices([5, 11]);
        let u = a.union(&b);
        assert_eq!(u, Pattern1::from_indices([0, 5, 10, 11]));
        assert_eq!(a.union_count(&b), 4);
        assert_eq!(a.intersect(&b), Pattern1::from_indices([5]));
    }

    #[test]
    fn union_count_matches_union_then_count() {
        let a = Pattern4::from_indices([0, 70, 140, 250]);
        let b = Pattern4::from_indices([1, 70, 141, 255]);
        assert_eq!(a.union_count(&b), a.union(&b).count());
    }

    #[test]
    fn dyn_union_into_reuses_buffer() {
        let dynp = |bits: &[usize]| {
            let mut p = DynPattern::default();
            for &b in bits {
                p.set(b);
            }
            p
        };
        let a = dynp(&[0, 5, 130]);
        let b = dynp(&[5, 64]);
        let mut out = dynp(&[200, 300]); // stale, wider
        let cap_before = {
            a.union_into(&b, &mut out);
            out.words.capacity()
        };
        assert_eq!(out, a.union(&b));
        // A second union into the same buffer must not grow it again.
        a.union_into(&b, &mut out);
        assert_eq!(out.words.capacity(), cap_before);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![0, 5, 64, 130]);
    }

    #[test]
    fn xor_count_matches_symmetric_difference() {
        let a = Pattern2::from_indices([0, 5, 64, 100]);
        let b = Pattern2::from_indices([5, 64, 101]);
        assert_eq!(a.xor_count(&b), 3); // {0, 100, 101}
        assert_eq!(a.xor_count(&a), 0);
    }

    /// Patterns probing every word boundary of a `Pattern<2>`: empty,
    /// full, the bits around 63/64 and the top bit, and a few mixes.
    fn boundary_patterns() -> Vec<Pattern2> {
        let mut v = vec![Pattern2::empty(), Pattern2::first_n(128)];
        for bits in [
            &[0usize][..],
            &[63],
            &[64],
            &[127],
            &[62, 63, 64, 65],
            &[0, 63, 64, 127],
            &[1, 5, 40, 63, 70, 100, 126, 127],
        ] {
            v.push(Pattern2::from_indices(bits.iter().copied()));
        }
        v
    }

    #[test]
    fn xor_matches_per_bit_reference() {
        for a in boundary_patterns() {
            for b in boundary_patterns() {
                let x = a.xor(&b);
                for i in 0..128 {
                    assert_eq!(x.get(i), a.get(i) != b.get(i), "bit {i} of {a:?} ^ {b:?}");
                }
                assert_eq!(x.count(), a.xor_count(&b));
            }
        }
    }

    #[test]
    fn drop_bit_matches_per_bit_reference() {
        for p in boundary_patterns() {
            for head in [0, 1, 62, 63, 64, 65, 126, 127] {
                let want = Pattern2::from_indices(p.iter_ones().filter(|&i| i != head).map(|i| {
                    if i > head {
                        i - 1
                    } else {
                        i
                    }
                }));
                assert_eq!(p.drop_bit(head), want, "{p:?} without bit {head}");
            }
        }
        let one = Pattern1::from_indices([0, 5, 63]);
        assert_eq!(one.drop_bit(5), Pattern1::from_indices([0, 62]));
        assert_eq!(one.drop_bit(63), Pattern1::from_indices([0, 5]));
    }

    #[test]
    fn try_for_each_one_walks_ascending_and_stops_early() {
        for p in boundary_patterns() {
            let mut seen = Vec::new();
            let done = p.try_for_each_one(|i| {
                seen.push(i);
                ControlFlow::<()>::Continue(())
            });
            assert!(done.is_continue());
            assert_eq!(seen, p.iter_ones().collect::<Vec<_>>());
            // Stop at the third bit: exactly the first three are visited.
            let mut seen = Vec::new();
            let stop = p.try_for_each_one(|i| {
                seen.push(i);
                if seen.len() == 3 {
                    ControlFlow::Break(i)
                } else {
                    ControlFlow::Continue(())
                }
            });
            let want: Vec<usize> = p.iter_ones().take(3).collect();
            assert_eq!(
                stop,
                if want.len() == 3 {
                    ControlFlow::Break(want[2])
                } else {
                    ControlFlow::Continue(())
                }
            );
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn subset() {
        let a = Pattern2::from_indices([3, 70]);
        let b = Pattern2::from_indices([3, 70, 100]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(Pattern2::empty().is_subset_of(&a));
    }

    #[test]
    fn iter_ones_ascending() {
        let p = Pattern2::from_indices([127, 0, 64, 63, 5]);
        assert_eq!(p.iter_ones().collect::<Vec<_>>(), vec![0, 5, 63, 64, 127]);
    }

    #[test]
    fn first_n() {
        let p = Pattern2::first_n(70);
        assert_eq!(p.count(), 70);
        assert!(p.get(69) && !p.get(70));
        assert!(Pattern1::first_n(0).is_empty());
        assert_eq!(Pattern1::first_n(64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn first_n_overflow_panics() {
        let _ = Pattern1::first_n(65);
    }

    #[test]
    fn ordering_is_total_and_word_major() {
        let a = Pattern1::from_indices([0]);
        let b = Pattern1::from_indices([1]);
        assert!(a < b);
        let mut v = vec![b, a, a];
        v.sort();
        v.dedup();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn dyn_pattern_grows() {
        let mut p = DynPattern::with_capacity(10);
        p.set(5);
        p.set(300);
        assert!(p.get(5) && p.get(300) && !p.get(6));
        assert_eq!(p.count(), 2);
        assert_eq!(p.iter_ones().collect::<Vec<_>>(), vec![5, 300]);
    }

    #[test]
    fn trait_object_safety_not_required_generic_use() {
        fn union_size<P: BitPattern>(a: &P, b: &P) -> u32 {
            a.union_count(b)
        }
        let a = Pattern1::from_indices([1, 2]);
        let b = Pattern1::from_indices([2, 3]);
        assert_eq!(union_size(&a, &b), 3);
    }

    #[test]
    fn debug_format_lists_bits() {
        let p = Pattern1::from_indices([2, 4]);
        assert_eq!(format!("{p:?}"), "Pattern{2,4}");
    }
}
