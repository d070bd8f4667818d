//! The [`Scalar`] abstraction.
//!
//! The Nullspace Algorithm and all supporting linear algebra are generic over
//! a scalar. Two instantiations are provided:
//!
//! * [`DynInt`] — exact integers with gcd renormalization (the default; EFM
//!   supports are then provably exact),
//! * [`F64Tol`] — `f64` with a zero tolerance (the efmtool-style fast mode,
//!   provided for the numeric ablation study).
//!
//! The trait is deliberately *ring-shaped*, not field-shaped: the fraction-
//! free (Bareiss) elimination used for rank tests only needs exact division
//! by previous pivots, which both instantiations support.

use crate::dynint::DynInt;
use crate::f64tol::F64Tol;
use std::fmt::Debug;

/// Scalar operations required by the EFM pipeline.
pub trait Scalar: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Conversion from a small integer (stoichiometric coefficients).
    fn from_i64(v: i64) -> Self;
    /// Whether the value is (within tolerance of) zero.
    fn is_zero(&self) -> bool;
    /// Sign: -1, 0, or +1, consistent with [`Scalar::is_zero`].
    fn signum(&self) -> i32;
    /// Addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, rhs: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Division that is known to be exact (Bareiss pivot division). For
    /// floating point this is ordinary division.
    fn exact_div(&self, rhs: &Self) -> Self;
    /// Canonicalizes a vector in place so that repeated combination does not
    /// blow up magnitudes: integer vectors are divided by their content
    /// (gcd), floating point vectors by their maximum magnitude.
    fn normalize_vec(v: &mut [Self]);
    /// Approximate value for reporting.
    fn to_f64(&self) -> f64;
    /// Fused `a*x - b*y` (hot path of candidate generation).
    #[inline]
    fn fused_comb(a: &Self, x: &Self, b: &Self, y: &Self) -> Self {
        a.mul(x).sub(&b.mul(y))
    }
    /// Pivot desirability for Gaussian elimination: the candidate with the
    /// highest score is chosen. Floating point prefers large magnitudes
    /// (stability); exact integers prefer small magnitudes (growth control).
    fn pivot_score(&self) -> f64 {
        self.to_f64().abs()
    }
    /// True when this scalar type is exact. A product of nonzero exact
    /// values is nonzero, so candidate generation then combines only the
    /// value slots where both parents are nonzero; a tolerance type
    /// combines every slot either parent occupies, so its tolerance
    /// decides each of them.
    fn exact() -> bool;
}

impl Scalar for DynInt {
    fn zero() -> Self {
        DynInt::zero()
    }
    fn one() -> Self {
        DynInt::one()
    }
    fn from_i64(v: i64) -> Self {
        DynInt::from_i64(v)
    }
    #[inline]
    fn is_zero(&self) -> bool {
        DynInt::is_zero(self)
    }
    #[inline]
    fn signum(&self) -> i32 {
        DynInt::signum(self)
    }
    fn add(&self, rhs: &Self) -> Self {
        DynInt::add(self, rhs)
    }
    fn sub(&self, rhs: &Self) -> Self {
        DynInt::sub(self, rhs)
    }
    fn mul(&self, rhs: &Self) -> Self {
        DynInt::mul(self, rhs)
    }
    fn neg(&self) -> Self {
        DynInt::neg(self)
    }
    fn exact_div(&self, rhs: &Self) -> Self {
        DynInt::exact_div(self, rhs)
    }
    fn normalize_vec(v: &mut [Self]) {
        let mut g = DynInt::zero();
        for x in v.iter() {
            g = g.gcd(x);
            if g.is_one() {
                return;
            }
        }
        if g.is_zero() || g.is_one() {
            return;
        }
        for x in v.iter_mut() {
            *x = x.exact_div(&g);
        }
    }
    fn to_f64(&self) -> f64 {
        DynInt::to_f64(self)
    }
    #[inline]
    fn fused_comb(a: &Self, x: &Self, b: &Self, y: &Self) -> Self {
        DynInt::fused_comb(a, x, b, y)
    }
    fn pivot_score(&self) -> f64 {
        // Small nonzero magnitudes keep Bareiss intermediate growth down.
        1.0 / (1.0 + self.to_f64().abs())
    }
    fn exact() -> bool {
        true
    }
}

impl Scalar for crate::Rational {
    fn zero() -> Self {
        crate::Rational::zero()
    }
    fn one() -> Self {
        crate::Rational::one()
    }
    fn from_i64(v: i64) -> Self {
        crate::Rational::from_i64(v)
    }
    fn is_zero(&self) -> bool {
        crate::Rational::is_zero(self)
    }
    fn signum(&self) -> i32 {
        crate::Rational::signum(self)
    }
    fn add(&self, rhs: &Self) -> Self {
        crate::Rational::add(self, rhs)
    }
    fn sub(&self, rhs: &Self) -> Self {
        crate::Rational::sub(self, rhs)
    }
    fn mul(&self, rhs: &Self) -> Self {
        crate::Rational::mul(self, rhs)
    }
    fn neg(&self) -> Self {
        crate::Rational::neg(self)
    }
    fn exact_div(&self, rhs: &Self) -> Self {
        crate::Rational::div(self, rhs)
    }
    fn normalize_vec(_v: &mut [Self]) {
        // Rationals are kept reduced individually; no vector-level
        // renormalization is required for correctness.
    }
    fn to_f64(&self) -> f64 {
        crate::Rational::to_f64(self)
    }
    fn pivot_score(&self) -> f64 {
        // Prefer structurally simple pivots: small numerator and denominator.
        1.0 / (1.0 + self.numer().to_f64().abs() + self.denom().to_f64().abs())
    }
    fn exact() -> bool {
        true
    }
}

impl Scalar for F64Tol {
    fn zero() -> Self {
        F64Tol::zero()
    }
    fn one() -> Self {
        F64Tol::one()
    }
    fn from_i64(v: i64) -> Self {
        F64Tol(v as f64)
    }
    #[inline]
    fn is_zero(&self) -> bool {
        F64Tol::is_zero(self)
    }
    #[inline]
    fn signum(&self) -> i32 {
        F64Tol::signum(self)
    }
    fn add(&self, rhs: &Self) -> Self {
        F64Tol(self.0 + rhs.0)
    }
    fn sub(&self, rhs: &Self) -> Self {
        F64Tol(self.0 - rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        F64Tol(self.0 * rhs.0)
    }
    fn neg(&self) -> Self {
        F64Tol(-self.0)
    }
    fn exact_div(&self, rhs: &Self) -> Self {
        F64Tol(self.0 / rhs.0)
    }
    fn normalize_vec(v: &mut [Self]) {
        // Flush sub-tolerance noise to exact zero FIRST: rescaling a vector
        // whose largest entry is cancellation residue (~1e-16) would
        // amplify noise into a spurious nonzero mode entry.
        for x in v.iter_mut() {
            if x.is_zero() {
                x.0 = 0.0;
            }
        }
        let max = v.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max);
        if max > 0.0 {
            for x in v.iter_mut() {
                x.0 /= max;
            }
        }
    }
    fn to_f64(&self) -> f64 {
        self.0
    }
    fn exact() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn di(v: i64) -> DynInt {
        DynInt::from_i64(v)
    }

    #[test]
    fn dynint_normalize_vec_divides_content() {
        let mut v = vec![di(6), di(-9), di(0), di(12)];
        DynInt::normalize_vec(&mut v);
        assert_eq!(v, vec![di(2), di(-3), di(0), di(4)]);
    }

    #[test]
    fn dynint_normalize_vec_noop_when_coprime() {
        let mut v = vec![di(2), di(3)];
        DynInt::normalize_vec(&mut v);
        assert_eq!(v, vec![di(2), di(3)]);
    }

    #[test]
    fn dynint_normalize_all_zero() {
        let mut v = vec![di(0), di(0)];
        DynInt::normalize_vec(&mut v);
        assert_eq!(v, vec![di(0), di(0)]);
    }

    #[test]
    fn f64_normalize_by_max() {
        let mut v = vec![F64Tol(2.0), F64Tol(-4.0), F64Tol(1.0)];
        F64Tol::normalize_vec(&mut v);
        assert_eq!(v[1].0, -1.0);
        assert_eq!(v[0].0, 0.5);
    }

    #[test]
    fn generic_ops_consistent() {
        fn sum_of_squares<S: Scalar>(xs: &[S]) -> S {
            xs.iter().fold(S::zero(), |acc, x| acc.add(&x.mul(x)))
        }
        let ints: Vec<DynInt> = [1i64, -2, 3].iter().map(|&v| di(v)).collect();
        let floats: Vec<F64Tol> = [1i64, -2, 3].iter().map(|&v| F64Tol(v as f64)).collect();
        assert_eq!(sum_of_squares(&ints), di(14));
        assert_eq!(sum_of_squares(&floats).to_f64(), 14.0);
    }
}
