//! Arbitrary-precision unsigned integers.
//!
//! A minimal, dependency-free big-unsigned type used as the overflow escape
//! hatch for [`crate::DynInt`]. Limbs are `u64`, stored little-endian with no
//! trailing zero limbs (the canonical form); the empty limb vector represents
//! zero. The implementation favours simplicity and correctness: values in EFM
//! computations almost always fit in `i64` after gcd normalization, so the
//! big path is cold.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros; empty means zero.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The zero value.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The one value.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = vec![lo, hi];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Builds a value from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Borrow the canonical little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Returns the value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + rhs`.
    pub fn add(&self, rhs: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - rhs`. Panics if `rhs > self`.
    pub fn sub(&self, rhs: &Self) -> Self {
        assert!(self.cmp_mag(rhs) != Ordering::Less, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// `self * rhs` (schoolbook; inputs here are rarely beyond a few limbs).
    pub fn mul(&self, rhs: &Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u32) -> Self {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: u32) -> Self {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Compares magnitudes.
    pub fn cmp_mag(&self, rhs: &Self) -> Ordering {
        if self.limbs.len() != rhs.limbs.len() {
            return self.limbs.len().cmp(&rhs.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&rhs.limbs[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder of `self / rhs`. Panics if `rhs` is zero.
    pub fn divrem(&self, rhs: &Self) -> (Self, Self) {
        assert!(!rhs.is_zero(), "BigUint division by zero");
        match self.cmp_mag(rhs) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        // Single-limb divisor fast path.
        if rhs.limbs.len() == 1 {
            let d = rhs.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            return (BigUint::from_limbs(q), BigUint::from_u128(rem));
        }
        // General case: bitwise long division. O(bit_len * limbs) — acceptable
        // because the big path is cold in EFM workloads.
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = Self::zero();
        for bit in (0..self.bit_len()).rev() {
            rem = rem.shl(1);
            if (self.limbs[(bit / 64) as usize] >> (bit % 64)) & 1 == 1 {
                if rem.limbs.is_empty() {
                    rem.limbs.push(1);
                } else {
                    rem.limbs[0] |= 1;
                }
            }
            if rem.cmp_mag(rhs) != Ordering::Less {
                rem = rem.sub(rhs);
                quotient[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        rem.trim();
        (BigUint::from_limbs(quotient), rem)
    }

    /// Greatest common divisor (binary gcd).
    pub fn gcd(&self, rhs: &Self) -> Self {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = rhs.clone();
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let shift = az.min(bz);
        a = a.shr(az);
        b = b.shr(bz);
        loop {
            if a.cmp_mag(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
            b = b.shr(b.trailing_zeros());
        }
    }

    fn trailing_zeros(&self) -> u32 {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i as u32 * 64 + l.trailing_zeros();
            }
        }
        0
    }

    /// Approximate conversion to `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + l as f64;
        }
        acc
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_mag(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        let divisor = BigUint::from_u64(CHUNK);
        while !cur.is_zero() {
            let (q, r) = cur.divrem(&divisor);
            chunks.push(r.to_u128().unwrap() as u64);
            cur = q;
        }
        let mut s = String::new();
        s.push_str(&chunks.pop().unwrap().to_string());
        while let Some(c) = chunks.pop() {
            s.push_str(&format!("{c:019}"));
        }
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn from_limbs_trims() {
        let v = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(v.limbs(), &[5]);
    }

    #[test]
    fn add_with_carry() {
        let a = big(u128::MAX);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.bit_len(), 129);
        assert_eq!(s.sub(&b), a);
    }

    #[test]
    fn sub_borrows() {
        let a = big(1u128 << 100);
        let b = big((1u128 << 100) - 12345);
        assert_eq!(a.sub(&b).to_u128(), Some(12345));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&big(2));
    }

    #[test]
    fn mul_crosses_limbs() {
        let a = big(u64::MAX as u128);
        let b = big(u64::MAX as u128);
        assert_eq!(a.mul(&b).to_u128(), Some((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn mul_three_limb_result() {
        let a = big(u128::MAX);
        let b = big(3);
        let p = a.mul(&b);
        assert_eq!(p.bit_len(), 130);
        let (q, r) = p.divrem(&b);
        assert!(r.is_zero());
        assert_eq!(q, a);
    }

    #[test]
    fn divrem_small_divisor() {
        let a = big(123_456_789_012_345_678_901_234_567u128);
        let (q, r) = a.divrem(&big(1_000_000));
        assert_eq!(q.to_u128(), Some(123_456_789_012_345_678_901u128));
        assert_eq!(r.to_u128(), Some(234_567));
    }

    #[test]
    fn divrem_general() {
        let a = big(u128::MAX).mul(&big(u128::MAX));
        let b = big(u128::MAX - 12345);
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_mag(&b) == Ordering::Less);
    }

    #[test]
    fn divrem_by_larger_is_zero() {
        let (q, r) = big(7).divrem(&big(1000));
        assert!(q.is_zero());
        assert_eq!(r.to_u128(), Some(7));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(48).gcd(&big(36)).to_u128(), Some(12));
        assert_eq!(big(0).gcd(&big(5)).to_u128(), Some(5));
        assert_eq!(big(5).gcd(&big(0)).to_u128(), Some(5));
        assert_eq!(big(17).gcd(&big(13)).to_u128(), Some(1));
    }

    #[test]
    fn gcd_large() {
        let a = big(1u128 << 90).mul(&big(9));
        let b = big(1u128 << 80).mul(&big(6));
        let g = a.gcd(&b);
        let (_, r1) = a.divrem(&g);
        let (_, r2) = b.divrem(&g);
        assert!(r1.is_zero() && r2.is_zero());
        // a = 9·2^90 = 3²·2^90, b = 6·2^80 = 3·2^81, so gcd = 3·2^81.
        assert_eq!(g, big(3).mul(&big(1u128 << 81)));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big(0xDEAD_BEEF_1234_5678_9ABC_DEF0u128);
        assert_eq!(a.shl(67).shr(67), a);
        assert_eq!(a.shr(200), BigUint::zero());
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(big(12345).to_string(), "12345");
        let huge = big(u128::MAX);
        assert_eq!(huge.to_string(), "340282366920938463463374607431768211455");
        let huger = huge.mul(&big(10)).add(&big(7));
        assert_eq!(huger.to_string(), "3402823669209384634633746074317682114557");
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(big(u128::MAX) < big(u128::MAX).add(&BigUint::one()));
    }

    #[test]
    fn to_f64_rough() {
        let v = big(1u128 << 100);
        let rel = (v.to_f64() - 2f64.powi(100)).abs() / 2f64.powi(100);
        assert!(rel < 1e-12);
    }
}
