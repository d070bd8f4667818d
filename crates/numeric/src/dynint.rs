//! Dynamically-sized signed integers.
//!
//! [`DynInt`] keeps values in a machine `i64` for as long as they fit and
//! transparently promotes to a heap-allocated sign/magnitude big integer on
//! overflow. EFM candidate combination normalizes every vector by its gcd, so
//! in practice virtually all arithmetic stays on the fast small path; the big
//! path exists so that exotic networks cannot silently corrupt supports.
//!
//! Small-path operations widen to `i128`, where a sum, a product or the
//! difference of two products of `i64`s cannot overflow, and narrow the
//! result back with one `i64::try_from`; only a result outside `i64` builds
//! a [`BigInt`]. Division stays in `i64` except for `i64::MIN / -1`. Every constructor keeps the canonical form (`Small` exactly
//! when the value fits in `i64`), which the derived `Eq`/`Hash` rely on.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Sign/magnitude big integer used by the promoted representation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BigInt {
    /// True for strictly negative values. Zero is always non-negative.
    pub negative: bool,
    /// Magnitude; zero iff the value is zero.
    pub magnitude: BigUint,
}

impl BigInt {
    fn normalize(mut self) -> Self {
        if self.magnitude.is_zero() {
            self.negative = false;
        }
        self
    }
}

/// A signed integer that automatically grows past `i64`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum DynInt {
    /// Fast path: fits in an `i64`.
    Small(i64),
    /// Cold path: promoted sign/magnitude representation of a value outside
    /// `i64`.
    Big(Box<BigInt>),
}

impl Default for DynInt {
    fn default() -> Self {
        DynInt::Small(0)
    }
}

fn i128_to_big(v: i128) -> BigInt {
    BigInt { negative: v < 0, magnitude: BigUint::from_u128(v.unsigned_abs()) }
}

fn big_to_i128(b: &BigInt) -> Option<i128> {
    let mag = b.magnitude.to_u128()?;
    if b.negative {
        0i128.checked_sub_unsigned(mag)
    } else {
        i128::try_from(mag).ok()
    }
}

/// `a / b` (`b != 0`, truncated) by a hardware `i64` division; only
/// `i64::MIN / -1`, the one quotient outside `i64`, is widened and promotes.
#[inline]
fn small_quotient(a: i64, b: i64) -> DynInt {
    a.checked_div(b).map_or_else(|| DynInt::from_i128(i128::from(a) / i128::from(b)), DynInt::Small)
}

/// Greatest common divisor of two `u64`s (binary gcd).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl DynInt {
    /// The zero value.
    pub fn zero() -> Self {
        DynInt::Small(0)
    }

    /// The one value.
    pub fn one() -> Self {
        DynInt::Small(1)
    }

    /// Builds from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        DynInt::Small(v)
    }

    /// Builds from an `i128`, promoting when it does not fit in `i64`. The
    /// small path narrows every widened result through here.
    #[inline]
    pub fn from_i128(v: i128) -> Self {
        match i64::try_from(v) {
            Ok(s) => DynInt::Small(s),
            Err(_) => DynInt::Big(Box::new(i128_to_big(v))),
        }
    }

    /// Builds from a big integer, demoting to the small path when possible.
    pub fn from_big(b: BigInt) -> Self {
        let b = b.normalize();
        match big_to_i128(&b).and_then(|v| i64::try_from(v).ok()) {
            Some(v) => DynInt::Small(v),
            None => DynInt::Big(Box::new(b)),
        }
    }

    /// Returns the value as `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        match self {
            DynInt::Small(v) => Some(i128::from(*v)),
            DynInt::Big(b) => big_to_i128(b),
        }
    }

    /// Whether the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match self {
            DynInt::Small(v) => *v == 0,
            DynInt::Big(b) => b.magnitude.is_zero(),
        }
    }

    /// Whether the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self, DynInt::Small(1))
    }

    /// Sign: -1, 0, or +1.
    #[inline]
    pub fn signum(&self) -> i32 {
        match self {
            DynInt::Small(v) => v.signum() as i32,
            DynInt::Big(b) => {
                if b.magnitude.is_zero() {
                    0
                } else if b.negative {
                    -1
                } else {
                    1
                }
            }
        }
    }

    /// Whether this value has been promoted off the `i64` fast path.
    pub fn is_promoted(&self) -> bool {
        matches!(self, DynInt::Big(_))
    }

    fn as_big(&self) -> BigInt {
        match self {
            DynInt::Small(v) => i128_to_big(i128::from(*v)),
            DynInt::Big(b) => (**b).clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match self {
            DynInt::Small(v) => DynInt::from_i128(i128::from(*v).abs()),
            DynInt::Big(b) => {
                DynInt::from_big(BigInt { negative: false, magnitude: b.magnitude.clone() })
            }
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        match self {
            DynInt::Small(v) => DynInt::from_i128(-i128::from(*v)),
            DynInt::Big(b) => {
                DynInt::from_big(BigInt { negative: !b.negative, magnitude: b.magnitude.clone() })
            }
        }
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            return DynInt::from_i128(i128::from(*a) + i128::from(*b));
        }
        let a = self.as_big();
        let b = rhs.as_big();
        let out = if a.negative == b.negative {
            BigInt { negative: a.negative, magnitude: a.magnitude.add(&b.magnitude) }
        } else {
            match a.magnitude.cmp_mag(&b.magnitude) {
                Ordering::Equal => BigInt { negative: false, magnitude: BigUint::zero() },
                Ordering::Greater => {
                    BigInt { negative: a.negative, magnitude: a.magnitude.sub(&b.magnitude) }
                }
                Ordering::Less => {
                    BigInt { negative: b.negative, magnitude: b.magnitude.sub(&a.magnitude) }
                }
            }
        };
        DynInt::from_big(out)
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            return DynInt::from_i128(i128::from(*a) - i128::from(*b));
        }
        self.add(&rhs.neg())
    }

    /// Multiplication.
    pub fn mul(&self, rhs: &Self) -> Self {
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            return DynInt::from_i128(i128::from(*a) * i128::from(*b));
        }
        let a = self.as_big();
        let b = rhs.as_big();
        DynInt::from_big(BigInt {
            negative: a.negative != b.negative && !a.magnitude.is_zero() && !b.magnitude.is_zero(),
            magnitude: a.magnitude.mul(&b.magnitude),
        })
    }

    /// Exact division: panics if `rhs` does not divide `self`.
    pub fn exact_div(&self, rhs: &Self) -> Self {
        assert!(!rhs.is_zero(), "DynInt division by zero");
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            debug_assert_eq!(a.wrapping_rem(*b), 0, "exact_div with remainder");
            return small_quotient(*a, *b);
        }
        let a = self.as_big();
        let b = rhs.as_big();
        let (q, r) = a.magnitude.divrem(&b.magnitude);
        assert!(r.is_zero(), "exact_div with remainder");
        DynInt::from_big(BigInt {
            negative: a.negative != b.negative && !q.is_zero(),
            magnitude: q,
        })
    }

    /// Quotient and remainder (truncated toward zero, like the primitive
    /// integers).
    pub fn divrem(&self, rhs: &Self) -> (Self, Self) {
        assert!(!rhs.is_zero(), "DynInt division by zero");
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            return (small_quotient(*a, *b), DynInt::Small(a.wrapping_rem(*b)));
        }
        let a = self.as_big();
        let b = rhs.as_big();
        let (q, r) = a.magnitude.divrem(&b.magnitude);
        (
            DynInt::from_big(BigInt {
                negative: a.negative != b.negative && !q.is_zero(),
                magnitude: q,
            }),
            DynInt::from_big(BigInt { negative: a.negative && !r.is_zero(), magnitude: r }),
        )
    }

    /// Greatest common divisor of absolute values; `gcd(0, 0) == 0`.
    pub fn gcd(&self, rhs: &Self) -> Self {
        if let (DynInt::Small(a), DynInt::Small(b)) = (self, rhs) {
            // `gcd(i64::MIN, 0)` is 2^63, one past `i64::MAX`.
            return DynInt::from_i128(i128::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs())));
        }
        let a = self.as_big();
        let b = rhs.as_big();
        DynInt::from_big(BigInt { negative: false, magnitude: a.magnitude.gcd(&b.magnitude) })
    }

    /// Approximate `f64` value (for reporting only).
    pub fn to_f64(&self) -> f64 {
        match self {
            DynInt::Small(v) => *v as f64,
            DynInt::Big(b) => {
                let m = b.magnitude.to_f64();
                if b.negative {
                    -m
                } else {
                    m
                }
            }
        }
    }

    /// Fused combination `a*x - b*y`, the hot operation of candidate
    /// generation. On the small path it is two widening multiplies and a
    /// subtraction: each product of two `i64`s lies in `(-2^126, 2^126]`,
    /// so their difference lies strictly inside `i128` and needs no
    /// overflow check.
    #[inline]
    pub fn fused_comb(a: &Self, x: &Self, b: &Self, y: &Self) -> Self {
        if let (DynInt::Small(a), DynInt::Small(x), DynInt::Small(b), DynInt::Small(y)) =
            (a, x, b, y)
        {
            return DynInt::from_i128(
                i128::from(*a) * i128::from(*x) - i128::from(*b) * i128::from(*y),
            );
        }
        a.mul(x).sub(&b.mul(y))
    }
}

impl Ord for DynInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (DynInt::Small(a), DynInt::Small(b)) => a.cmp(b),
            _ => {
                let a = self.as_big();
                let b = other.as_big();
                match (a.negative, b.negative) {
                    (false, true) => Ordering::Greater,
                    (true, false) => Ordering::Less,
                    (false, false) => a.magnitude.cmp_mag(&b.magnitude),
                    (true, true) => b.magnitude.cmp_mag(&a.magnitude),
                }
            }
        }
    }
}

impl PartialOrd for DynInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynInt::Small(v) => write!(f, "{v}"),
            DynInt::Big(b) => {
                if b.negative {
                    write!(f, "-")?;
                }
                write!(f, "{}", b.magnitude)
            }
        }
    }
}

impl std::str::FromStr for DynInt {
    type Err = String;

    /// Parses a decimal integer of arbitrary size (optional leading `-`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let (negative, digits) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t.strip_prefix('+').unwrap_or(t)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("invalid integer literal '{s}'"));
        }
        let ten = DynInt::from_i64(10);
        let mut acc = DynInt::zero();
        for b in digits.bytes() {
            acc = acc.mul(&ten).add(&DynInt::from_i64((b - b'0') as i64));
        }
        Ok(if negative { acc.neg() } else { acc })
    }
}

impl From<i64> for DynInt {
    fn from(v: i64) -> Self {
        DynInt::from_i64(v)
    }
}

impl From<i128> for DynInt {
    fn from(v: i128) -> Self {
        DynInt::from_i128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(v: i64) -> DynInt {
        DynInt::Small(v)
    }

    /// `v` on the big path even when it fits in `i64`: operations on it run
    /// on `BigUint` magnitudes, which makes them the reference for the small
    /// path.
    fn forced_big(v: &DynInt) -> DynInt {
        DynInt::Big(Box::new(v.as_big()))
    }

    #[test]
    fn value_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<DynInt>(), 16);
    }

    #[test]
    fn add_promotes_on_overflow() {
        let a = small(i64::MAX);
        let s = a.add(&small(1));
        assert!(s.is_promoted());
        assert_eq!(s.to_i128(), Some(i128::from(i64::MAX) + 1));
        assert_eq!(s.sub(&small(1)), a);
        assert!(!s.sub(&small(1)).is_promoted());
        assert!(small(i64::MIN).sub(&small(1)).is_promoted());
        assert_eq!(DynInt::from_i128(i128::from(i64::MAX) + 1), s);
        assert!(!DynInt::from_i128(i128::from(i64::MIN)).is_promoted());
    }

    #[test]
    fn signs() {
        assert_eq!(small(-5).signum(), -1);
        assert_eq!(small(0).signum(), 0);
        assert_eq!(small(5).signum(), 1);
        let big = small(i64::MAX).mul(&small(-3));
        assert_eq!(big.signum(), -1);
        assert_eq!(big.neg().signum(), 1);
    }

    #[test]
    fn mul_promote_and_demote() {
        let a = small(i64::MAX).mul(&small(2));
        assert!(a.is_promoted());
        let back = a.exact_div(&small(2));
        assert!(!back.is_promoted());
        assert_eq!(back, small(i64::MAX));
        let huge = a.mul(&a).mul(&a);
        assert_eq!(huge.to_i128(), None);
        assert_eq!(huge.exact_div(&a).exact_div(&a), a);
    }

    #[test]
    fn mixed_sign_add() {
        let big_pos = small(i64::MAX).mul(&small(4));
        let big_neg = big_pos.neg();
        assert!(big_pos.add(&big_neg).is_zero());
        assert_eq!(big_pos.add(&small(-1)).sub(&big_pos), small(-1));
    }

    #[test]
    fn exact_div_signs() {
        assert_eq!(small(-12).exact_div(&small(4)), small(-3));
        assert_eq!(small(-12).exact_div(&small(-4)), small(3));
        let b = small(i64::MAX).mul(&small(6));
        assert_eq!(b.exact_div(&small(-3)), small(i64::MAX).mul(&small(-2)));
    }

    #[test]
    #[should_panic(expected = "remainder")]
    fn exact_div_checks_divisibility() {
        let b = small(i64::MAX).mul(&small(6)).add(&small(1));
        let _ = b.exact_div(&small(3));
    }

    #[test]
    fn divrem_truncates_toward_zero() {
        let (q, r) = small(-7).divrem(&small(2));
        assert_eq!((q, r), (small(-3), small(-1)));
        let big = small(i64::MAX).mul(&small(10)).add(&small(7));
        let (q, r) = big.divrem(&small(10));
        assert_eq!(q, small(i64::MAX));
        assert_eq!(r, small(7));
    }

    #[test]
    fn i64_min_edge_cases() {
        let m = small(i64::MIN);
        let two63 = DynInt::from_i128(1i128 << 63);
        assert!(two63.is_promoted());
        assert_eq!(m.neg(), two63);
        assert_eq!(m.neg().to_f64(), -(i64::MIN as f64));
        assert_eq!(m.abs(), two63);
        assert_eq!(m.exact_div(&small(-1)), two63);
        let (q, r) = m.divrem(&small(-1));
        assert_eq!(r, small(0));
        assert!(!r.is_promoted());
        assert_eq!(q, two63);
        assert_eq!(two63.neg(), m);
        assert!(!two63.neg().is_promoted());
        assert_eq!(m.gcd(&small(0)), two63);
        assert_eq!(m.gcd(&m), two63);
    }

    #[test]
    fn gcd_values() {
        assert_eq!(small(48).gcd(&small(-36)), small(12));
        assert_eq!(small(0).gcd(&small(0)), small(0));
        assert_eq!(small(0).gcd(&small(-7)), small(7));
        let b = small(i64::MAX).mul(&small(4));
        assert_eq!(b.gcd(&small(2)), small(2));
    }

    #[test]
    fn fused_comb_small_and_big() {
        // 3*5 - 2*7 = 1
        assert_eq!(DynInt::fused_comb(&small(3), &small(5), &small(2), &small(7)), small(1));
        // Promotes through the products and demotes on cancellation.
        let big = small(i64::MAX);
        let r = DynInt::fused_comb(&big, &big, &big, &big.sub(&small(1)));
        assert_eq!(r, big);
        assert!(!r.is_promoted());
    }

    #[test]
    fn fused_comb_at_the_i64_extremes_matches_big_path() {
        let ends = [small(i64::MIN), small(i64::MAX)];
        for a in &ends {
            for x in &ends {
                for b in &ends {
                    for y in &ends {
                        let got = DynInt::fused_comb(a, x, b, y);
                        let want = forced_big(&forced_big(a).mul(&forced_big(x)))
                            .sub(&forced_big(&forced_big(b).mul(&forced_big(y))));
                        assert_eq!(got, want, "{a}*{x} - {b}*{y}");
                        assert_eq!(
                            got.is_promoted(),
                            got.to_i128().and_then(|v| i64::try_from(v).ok()).is_none()
                        );
                    }
                }
            }
        }
        // The widest result: (-2^63)^2 - (-2^63)(2^63 - 1) = 2^127 - 2^63.
        let top = DynInt::fused_comb(&ends[0], &ends[0], &ends[0], &ends[1]);
        assert_eq!(top.to_i128(), Some(i128::MAX - (1i128 << 63) + 1));
    }

    #[test]
    fn ordering_across_reprs() {
        let b = small(i64::MAX).mul(&small(3));
        assert!(b > small(i64::MAX));
        assert!(b.neg() < small(i64::MIN));
        assert!(small(2) > small(-2));
    }

    #[test]
    fn display() {
        assert_eq!(small(-42).to_string(), "-42");
        let b = small(i64::MAX).add(&small(1));
        assert_eq!(b.to_string(), "9223372036854775808");
        assert_eq!(b.neg().to_string(), "-9223372036854775808");
        assert!(!b.neg().is_promoted());
    }

    #[test]
    fn from_str_roundtrips() {
        for v in [
            "0",
            "-1",
            "42",
            "9223372036854775808",
            "-9223372036854775809",
            "170141183460469231731687303715884105728",
            "-99999999999999999999999999999999999999999999",
        ] {
            let parsed: DynInt = v.parse().unwrap();
            assert_eq!(parsed.to_string(), v);
            assert!(parsed.is_promoted() == (v.len() > 18), "{v}");
        }
        assert!(!"-9223372036854775808".parse::<DynInt>().unwrap().is_promoted());
        assert!("".parse::<DynInt>().is_err());
        assert!("12a".parse::<DynInt>().is_err());
        assert!("--3".parse::<DynInt>().is_err());
        assert_eq!("+7".parse::<DynInt>().unwrap(), small(7));
    }
}
